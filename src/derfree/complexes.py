"""Bounded complexes of finite free modules over either backend.

Differentials are matrices with algebra entries; `diff(i)` is the map
leaving homological degree i.  Over the Artinian backend everything
flattens to exact k-linear algebra.  Over the graded backend complexes
carry generator degrees per term, differentials must be homogeneous of
internal degree 0 with respect to them, and homology is computed per
internal degree up to the truncation (reported with the window).
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import (Matrix, column_space_basis, independent_columns, invert,
                     kernel_basis, quotient_coords, rank)
from .modules import (GradedModule, FiniteModule, MINUS_INFINITY,
                      PLUS_INFINITY, graded_induced_actions, induced_actions)


class ComplexError(ValueError):
    pass


@dataclass(frozen=True)
class AMatrix:
    """Matrix with entries in the algebra."""

    algebra: object
    nrows: int
    ncols: int
    entries: tuple  # tuple of row tuples of algebra elements

    def __post_init__(self):
        if len(self.entries) != self.nrows or any(len(r) != self.ncols for r in self.entries):
            raise ComplexError(f"entries do not form a {self.nrows}x{self.ncols} matrix")

    @staticmethod
    def from_rows(algebra, rows, ncols: int | None = None) -> "AMatrix":
        rows = tuple(tuple(r) for r in rows)
        if ncols is None:
            if not rows:
                raise ValueError("ncols required for empty AMatrix")
            ncols = len(rows[0])
        return AMatrix(algebra, len(rows), ncols, rows)

    @staticmethod
    def from_strings(algebra, rows, ncols: int | None = None) -> "AMatrix":
        return AMatrix.from_rows(
            algebra, [[algebra.parse_element(e) for e in r] for r in rows], ncols)

    @staticmethod
    def zero(algebra, nrows: int, ncols: int) -> "AMatrix":
        z = algebra.zero
        return AMatrix(algebra, nrows, ncols,
                       tuple(tuple(z for _ in range(ncols)) for _ in range(nrows)))

    @staticmethod
    def identity(algebra, n: int) -> "AMatrix":
        z, o = algebra.zero, algebra.one
        return AMatrix(algebra, n, n,
                       tuple(tuple(o if i == j else z for j in range(n)) for i in range(n)))

    @staticmethod
    def scalar(algebra, a, n: int) -> "AMatrix":
        z = algebra.zero
        return AMatrix(algebra, n, n,
                       tuple(tuple(a if i == j else z for j in range(n)) for i in range(n)))

    def to_strings(self) -> list:
        return [[self.algebra.element_to_str(e) for e in row] for row in self.entries]

    def add(self, other: "AMatrix") -> "AMatrix":
        A = self.algebra
        return AMatrix(A, self.nrows, self.ncols,
                       tuple(tuple(A.el_add(a, b) for a, b in zip(ra, rb))
                             for ra, rb in zip(self.entries, other.entries)))

    def sub(self, other: "AMatrix") -> "AMatrix":
        A = self.algebra
        return AMatrix(A, self.nrows, self.ncols,
                       tuple(tuple(A.el_sub(a, b) for a, b in zip(ra, rb))
                             for ra, rb in zip(self.entries, other.entries)))

    def neg(self) -> "AMatrix":
        A = self.algebra
        return AMatrix(A, self.nrows, self.ncols,
                       tuple(tuple(A.el_neg(a) for a in r) for r in self.entries))

    def scale_el(self, a) -> "AMatrix":
        A = self.algebra
        return AMatrix(A, self.nrows, self.ncols,
                       tuple(tuple(A.el_mul(a, x) for x in r) for r in self.entries))

    def mul(self, other: "AMatrix") -> "AMatrix":
        if self.ncols != other.nrows:
            raise ComplexError(
                f"shape mismatch {self.nrows}x{self.ncols} * {other.nrows}x{other.ncols}")
        A = self.algebra
        m, n = self.nrows, other.ncols
        sums = list(_raw_sums(A, m, n, ((False, _slices(A, self, m, self.ncols),
                                         _slices(A, other, self.ncols, n)),)).items())
        build = A.el_from_raw
        return AMatrix(A, m, n, tuple(
            tuple(build({k: acc[p] for k, acc in sums if acc[p]}) for p in range(r * n, r * n + n))
            for r in range(m)))

    def is_zero(self) -> bool:
        A = self.algebra
        return all(A.el_is_zero(e) for r in self.entries for e in r)

    def entries_in_m(self) -> bool:
        A = self.algebra
        return all(A.el_in_m(e) for r in self.entries for e in r)

    def nonzero_positions(self) -> list:
        A = self.algebra
        return [(i, j) for i, r in enumerate(self.entries)
                for j, e in enumerate(r) if not A.el_is_zero(e)]

    def mod_m(self) -> Matrix:
        """Entrywise image in the residue field."""
        A = self.algebra
        return Matrix.from_rows(
            A.field, [[A.el_mod_m(e) for e in r] for r in self.entries], ncols=self.ncols)

    def flatten(self) -> Matrix:
        """k-linear matrix on flattened coordinates (Artinian backend)."""
        A = self.algebra
        if A.kind != "artinian":
            raise ComplexError("flatten requires the Artinian backend")
        f = A.field
        d = A.dim
        rows = [[f.zero] * (self.ncols * d) for _ in range(self.nrows * d)]
        for i, r in enumerate(self.entries):
            for j, e in enumerate(r):
                if not A.el_is_zero(e):
                    # block (i, j) is multiplication by e
                    for a, Lr in enumerate(A.left_mult_matrix(e).rows):
                        rows[i * d + a][j * d:(j + 1) * d] = Lr
        return Matrix.from_rows(f, rows, ncols=self.ncols * d)

    def hstack(self, other: "AMatrix") -> "AMatrix":
        return AMatrix(self.algebra, self.nrows, self.ncols + other.ncols,
                       tuple(a + b for a, b in zip(self.entries, other.entries)))

    def vstack(self, other: "AMatrix") -> "AMatrix":
        return AMatrix(self.algebra, self.nrows + other.nrows, self.ncols,
                       self.entries + other.entries)

    def __eq__(self, other):
        return (isinstance(other, AMatrix) and self.algebra == other.algebra
                and self.entries == other.entries and self.nrows == other.nrows
                and self.ncols == other.ncols)

    def __hash__(self):
        return hash((self.nrows, self.ncols, self.entries))


# ---------------------------------------------------------------------------
# products on basis-element slices
#
# A matrix with algebra entries is the sum over basis keys of e_key (x) M_key,
# where M_key is a sparse k-matrix.  The product of X and Y adds c * X_i Y_j,
# unreduced, into slice k for every nonzero structure constant
# e_i * e_j = c * e_k, and each output coordinate is reduced once.  Only three
# things come from the backend: an element's nonzero terms (`el_terms`), the
# product of two basis keys (`key_product`) and the element built from raw
# sums (`el_from_raw`).


def _slices(A, M: AMatrix, nrows: int, ncols: int) -> dict:
    """{key: {row: [(column, scalar)]}}, the nonzero slices of M, which must be nrows x ncols."""
    if M.nrows != nrows or M.ncols != ncols:
        raise ComplexError(f"a {M.nrows}x{M.ncols} matrix where {nrows}x{ncols} is needed")
    terms = A.el_terms
    out = {}
    for r, row in enumerate(M.entries):
        for c, e in enumerate(row):
            for key, a in terms(e):
                rows = out.get(key)
                if rows is None:
                    out[key] = rows = {}
                found = rows.get(r)
                if found is None:
                    rows[r] = [(c, a)]
                else:
                    found.append((c, a))
    return out


def _raw_sums(A, nrows: int, ncols: int, products, minus=None) -> dict:
    """Unreduced slices of the sum of +-X*Y over products, less `minus`.

    `products` holds (negate, X, Y) with X and Y given by their `_slices`,
    and `minus` is given the same way.  The result maps each basis key to
    the flat list of raw sums of its slice, entry (r, c) at r * ncols + c.
    """
    key_product = A.key_product
    size = nrows * ncols
    out = {}
    for negate, xs, ys in products:
        for i, Xi in xs.items():
            for j, Yj in ys.items():
                for k, c in key_product(i, j):
                    acc = out.get(k)
                    if acc is None:
                        out[k] = acc = [0] * size
                    for r, xrow in Xi.items():
                        base = r * ncols
                        for q, a in xrow:
                            yrow = Yj.get(q)
                            if yrow is not None:
                                ca = -(c * a) if negate else c * a
                                for col, b in yrow:
                                    acc[base + col] += ca * b
    for k, rows in (minus or {}).items():
        acc = out.get(k)
        if acc is None:
            out[k] = acc = [0] * size
        for r, row in rows.items():
            base = r * ncols
            for col, a in row:
                acc[base + col] -= a
    return out


def _sums_vanish(field, sums: dict) -> bool:
    """Whether every raw sum of `_raw_sums` reduces to 0."""
    reduce = field.reduce
    return not any(any(map(reduce, filter(None, acc))) for acc in sums.values())


def amatrix_blockdiag(algebra, blocks) -> AMatrix:
    nr = sum(b.nrows for b in blocks)
    nc = sum(b.ncols for b in blocks)
    out = AMatrix.zero(algebra, nr, nc)
    rows = [list(r) for r in out.entries]
    r0 = c0 = 0
    for b in blocks:
        for i in range(b.nrows):
            for j in range(b.ncols):
                rows[r0 + i][c0 + j] = b.entries[i][j]
        r0 += b.nrows
        c0 += b.ncols
    return AMatrix(algebra, nr, nc, tuple(tuple(r) for r in rows))


def amatrix_inverse(M: AMatrix) -> AMatrix | None:
    """Inverse over the Artinian backend via the flattened bijection."""
    if M.nrows != M.ncols:
        return None
    A = M.algebra
    flat = M.flatten()
    inv = invert(flat)
    if inv is None:
        return None
    d = A.dim
    entries = []
    for i in range(M.nrows):
        row = []
        for j in range(M.ncols):
            # image of the unit coordinate of slot j, block i
            col = inv.column(j * d)
            row.append(tuple(col[i * d: (i + 1) * d]))
        entries.append(tuple(row))
    return AMatrix(A, M.nrows, M.ncols, tuple(entries))


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FreeComplex:
    """Bounded complex of free modules; diffs[i] leaves degree low+i+1."""

    algebra: object
    low: int
    ranks: tuple
    diffs: tuple  # diffs[i]: F_{low+i+1} -> F_{low+i}
    shifts: tuple | None = None  # graded backend: generator degrees per term
    labels: tuple | None = None

    def __post_init__(self):
        if len(self.diffs) != max(0, len(self.ranks) - 1):
            raise ComplexError("differential count must be rank count - 1")
        for i, d in enumerate(self.diffs):
            if d.nrows != self.ranks[i] or d.ncols != self.ranks[i + 1]:
                raise ComplexError(f"differential {i} has wrong shape")
        if self.algebra.kind == "graded" and self.shifts is None:
            object.__setattr__(self, "shifts", tuple(tuple(0 for _ in range(r))
                                                     for r in self.ranks))

    @property
    def top(self) -> int:
        return self.low + len(self.ranks) - 1

    def degrees(self) -> range:
        return range(self.low, self.top + 1)

    def rank(self, i: int) -> int:
        if self.low <= i <= self.top:
            return self.ranks[i - self.low]
        return 0

    def shift_of(self, i: int) -> tuple:
        if self.shifts is None:
            return tuple(0 for _ in range(self.rank(i)))
        if self.low <= i <= self.top:
            return self.shifts[i - self.low]
        return ()

    def diff(self, i: int) -> AMatrix:
        """The differential F_i -> F_{i-1} (zero outside the stored range)."""
        if self.low + 1 <= i <= self.top:
            return self.diffs[i - self.low - 1]
        return AMatrix.zero(self.algebra, self.rank(i - 1), self.rank(i))

    # -- validation -------------------------------------------------------
    def validate(self) -> list:
        issues = []
        for i in range(self.low + 2, self.top + 1):
            comp = self.diff(i - 1).mul(self.diff(i))
            for (r, c) in comp.nonzero_positions():
                issues.append(f"d^2 != 0 at degree {i}, entry ({r}, {c})")
        if self.algebra.kind == "graded":
            issues.extend(self._homogeneity_issues())
        return issues

    def _homogeneity_issues(self) -> list:
        A = self.algebra
        issues = []
        for i in range(self.low + 1, self.top + 1):
            d = self.diff(i)
            ssrc = self.shift_of(i)
            stgt = self.shift_of(i - 1)
            for r in range(d.nrows):
                for c in range(d.ncols):
                    e = d.entries[r][c]
                    if A.el_is_zero(e):
                        continue
                    deg = A.el_degree(e)
                    if deg is None or deg != ssrc[c] - stgt[r]:
                        issues.append(
                            f"entry ({r},{c}) of d_{i} is not homogeneous of degree "
                            f"{ssrc[c] - stgt[r]}")
        return issues

    def is_minimal(self) -> bool:
        return all(d.entries_in_m() for d in self.diffs)

    # -- graded coordinates -------------------------------------------------
    def graded_coords(self, i: int, n: int) -> list:
        """[(slot, monomial)] basis of the internal-degree-n part of F_i."""
        A = self.algebra
        out = []
        for s, sh in enumerate(self.shift_of(i)):
            if n - sh >= 0:
                out.extend((s, m) for m in A.basis(n - sh))
        return out

    def graded_diff_matrix(self, i: int, n: int) -> Matrix:
        """k-matrix of d_i on the internal-degree-n parts."""
        A = self.algebra
        f = A.field
        src = self.graded_coords(i, n)
        tgt = self.graded_coords(i - 1, n)
        tgt_index = {c: k for k, c in enumerate(tgt)}
        d = self.diff(i)
        cols = []
        for (s, m) in src:
            col = [f.zero] * len(tgt)
            for r in range(d.nrows):
                e = d.entries[r][s]
                if A.el_is_zero(e):
                    continue
                prod = A.el_mul(((m, f.one),), e)
                for pm, pc in prod:
                    key = (r, pm)
                    if key in tgt_index:
                        col[tgt_index[key]] = f.add(col[tgt_index[key]], pc)
            cols.append(col)
        return Matrix.from_columns(f, cols, nrows=len(tgt))


def free_complex(algebra, ranks, diff_rows, low: int = 0, shifts=None, labels=None) -> FreeComplex:
    """Build from entry strings or elements; diff_rows[i] maps degree low+i+1 -> low+i."""
    diffs = []
    for i, rows in enumerate(diff_rows):
        if rows and isinstance(rows[0][0] if rows[0] else "", str):
            diffs.append(AMatrix.from_strings(algebra, rows, ncols=ranks[i + 1]))
        else:
            diffs.append(AMatrix.from_rows(algebra, rows, ncols=ranks[i + 1]))
    return FreeComplex(algebra, low, tuple(ranks), tuple(diffs),
                       tuple(tuple(s) for s in shifts) if shifts else None,
                       tuple(tuple(l) for l in labels) if labels else None)


# ---------------------------------------------------------------------------
# chain maps


@dataclass(frozen=True)
class ChainMap:
    """Degree-0 map of complexes; per-degree matrices (zero when omitted)."""

    source: FreeComplex
    target: FreeComplex
    maps: tuple  # tuple of (degree, AMatrix) pairs

    @staticmethod
    def from_dict(source, target, maps: dict) -> "ChainMap":
        items = tuple(sorted(maps.items()))
        return ChainMap(source, target, items)

    def component(self, i: int) -> AMatrix:
        for deg, m in self.maps:
            if deg == i:
                return m
        return AMatrix.zero(self.source.algebra, self.target.rank(i), self.source.rank(i))

    def is_chain_map(self) -> bool:
        return not self.chain_defects()

    def chain_defects(self) -> list:
        """Degrees i where d f_i - f_{i-1} d is not zero."""
        S, T = self.source, self.target
        A = S.algebra
        lo, hi = min(S.low, T.low), max(S.top, T.top)
        dS = {i: _slices(A, S.diff(i), S.rank(i - 1), S.rank(i)) for i in range(lo + 1, hi + 1)}
        dT = dS if T is S else {i: _slices(A, T.diff(i), T.rank(i - 1), T.rank(i))
                                for i in range(lo + 1, hi + 1)}
        fs = {i: _slices(A, self.component(i), T.rank(i), S.rank(i)) for i in range(lo, hi + 1)}
        return [i for i in range(lo + 1, hi + 1)
                if not _sums_vanish(A.field, _raw_sums(A, T.rank(i - 1), S.rank(i), (
                    (False, dT[i], fs[i]), (True, fs[i - 1], dS[i]))))]

    def add(self, other: "ChainMap") -> "ChainMap":
        degs = sorted({d for d, _ in self.maps} | {d for d, _ in other.maps})
        return ChainMap.from_dict(self.source, self.target,
                                  {d: self.component(d).add(other.component(d)) for d in degs})

    def sub(self, other: "ChainMap") -> "ChainMap":
        degs = sorted({d for d, _ in self.maps} | {d for d, _ in other.maps})
        return ChainMap.from_dict(self.source, self.target,
                                  {d: self.component(d).sub(other.component(d)) for d in degs})

    def compose(self, other: "ChainMap") -> "ChainMap":
        """self after other."""
        degs = sorted({d for d, _ in other.maps} | {d for d, _ in self.maps})
        return ChainMap.from_dict(other.source, self.target,
                                  {d: self.component(d).mul(other.component(d)) for d in degs})

    def scale_el(self, a) -> "ChainMap":
        return ChainMap(self.source, self.target,
                        tuple((d, m.scale_el(a)) for d, m in self.maps))


def identity_map(F: FreeComplex) -> ChainMap:
    return ChainMap.from_dict(F, F, {i: AMatrix.identity(F.algebra, F.rank(i))
                                     for i in F.degrees()})


def scalar_endo(F: FreeComplex, a) -> ChainMap:
    return ChainMap.from_dict(F, F, {i: AMatrix.scalar(F.algebra, a, F.rank(i))
                                     for i in F.degrees()})


# ---------------------------------------------------------------------------
# constructions


def shift(F: FreeComplex, n: int) -> FreeComplex:
    """Suspension: degrees move up by n, differential picks up (-1)^n."""
    diffs = tuple(d if n % 2 == 0 else d.neg() for d in F.diffs)
    return FreeComplex(F.algebra, F.low + n, F.ranks, diffs, F.shifts, F.labels)


def direct_sum(F: FreeComplex, G: FreeComplex) -> FreeComplex:
    if F.algebra != G.algebra:
        raise ComplexError("direct sum needs a common algebra")
    lo = min(F.low, G.low)
    hi = max(F.top, G.top)
    ranks = []
    shifts = []
    diffs = []
    for i in range(lo, hi + 1):
        ranks.append(F.rank(i) + G.rank(i))
        shifts.append(tuple(F.shift_of(i)) + tuple(G.shift_of(i)))
    for i in range(lo + 1, hi + 1):
        fd, gd = F.diff(i), G.diff(i)
        top = fd.hstack(AMatrix.zero(F.algebra, fd.nrows, gd.ncols))
        bot = AMatrix.zero(F.algebra, gd.nrows, fd.ncols).hstack(gd)
        diffs.append(top.vstack(bot))
    sh = tuple(shifts) if F.algebra.kind == "graded" else None
    return FreeComplex(F.algebra, lo, tuple(ranks), tuple(diffs), sh)


def cone(f: ChainMap) -> FreeComplex:
    """Mapping cone with d(x, y) = (-d_F x, f(x) + d_G y)."""
    F, G = f.source, f.target
    if F.algebra != G.algebra:
        raise ComplexError("cone needs a common algebra")
    lo = min(F.low + 1, G.low)
    hi = max(F.top + 1, G.top)
    ranks = [F.rank(i - 1) + G.rank(i) for i in range(lo, hi + 1)]
    shifts = [tuple(F.shift_of(i - 1)) + tuple(G.shift_of(i)) for i in range(lo, hi + 1)]
    diffs = []
    for i in range(lo + 1, hi + 1):
        dF = F.diff(i - 1).neg()
        dG = G.diff(i)
        fi = f.component(i - 1)
        top = dF.hstack(AMatrix.zero(F.algebra, dF.nrows, dG.ncols))
        bot = fi.hstack(dG)
        diffs.append(top.vstack(bot))
    sh = tuple(shifts) if F.algebra.kind == "graded" else None
    return FreeComplex(F.algebra, lo, tuple(ranks), tuple(diffs), sh)


# ---------------------------------------------------------------------------
# homology, Artinian backend


@dataclass(frozen=True)
class HomologyModule:
    """H_i(F) as a module plus chosen cycle representatives."""

    degree: int
    module: FiniteModule
    reps: tuple  # flattened coordinate vectors in F_i
    cycle_cols: Matrix
    boundary_cols: Matrix

    @property
    def dim(self) -> int:
        return self.module.dim

    def project_cycles(self, vecs) -> list:
        """Coordinates of cycles in the representative basis."""
        rep_cols = Matrix.from_columns(self.module.algebra.field, self.reps,
                                       nrows=self.boundary_cols.nrows)
        try:
            return quotient_coords(self.boundary_cols, rep_cols, vecs)
        except ValueError:
            raise ComplexError("vector is not a cycle modulo boundaries") from None


def homology(F: FreeComplex, i: int) -> HomologyModule:
    A = F.algebra
    if A.kind != "artinian":
        raise ComplexError("use graded_homology for the graded backend")
    f = A.field
    d = A.dim
    dn = F.diff(i).flatten()
    dn1 = F.diff(i + 1).flatten()
    Z = kernel_basis(dn)
    B = column_space_basis(dn1)
    # representatives: kernel basis vectors independent of the boundaries, in order
    zcols = Z.columns()
    reps = [zcols[j] for j in independent_columns(B, Z)]
    mults = [A.left_mult_matrix(A.basis_element(t)) for t in range(d)]

    def image(t, v):
        return tuple(x for s in range(F.rank(i)) for x in mults[t].apply(v[s * d:(s + 1) * d]))

    acts = induced_actions(A, image, B, Matrix.from_columns(f, reps, nrows=Z.nrows))
    return HomologyModule(i, FiniteModule(A, len(reps), acts), tuple(reps), Z, B)


def homology_dims(F: FreeComplex) -> dict:
    if F.algebra.kind == "artinian":
        return {i: homology(F, i).dim for i in F.degrees()}
    gh = graded_homology_all(F)
    return {i: sum(h.dims) for i, h in gh.items()}


def nonzero_range(dims: dict) -> tuple:
    """(first, last) degree with a positive value; (+inf, -inf) when none is."""
    nonzero = [i for i, d in sorted(dims.items()) if d > 0]
    if not nonzero:
        return (PLUS_INFINITY, MINUS_INFINITY)
    return (nonzero[0], nonzero[-1])


def inf_sup(F: FreeComplex) -> tuple:
    """(inf, sup) of the nonvanishing homology degrees (graded: within window)."""
    return nonzero_range(homology_dims(F))


# ---------------------------------------------------------------------------
# homology, graded backend


def graded_homology(F: FreeComplex, i: int) -> GradedModule:
    """H_i(F) per internal degree, valid up to the algebra truncation."""
    A = F.algebra
    f = A.field
    window = A.truncation
    reps = {}
    boundaries = {}
    for n in range(window + 1):
        dn = F.graded_diff_matrix(i, n)
        dn1 = F.graded_diff_matrix(i + 1, n)
        Z = kernel_basis(dn)
        B = column_space_basis(dn1)
        zcols = Z.columns()
        reps[n] = Matrix.from_columns(f, [zcols[j] for j in independent_columns(B, Z)],
                                      nrows=Z.nrows)
        boundaries[n] = B
    variables = [A.var_element(v) for v in range(A.nvars)]
    try:
        actions = graded_induced_actions(
            A, lambda v, n, vec: _graded_multiply_vector(F, i, n, vec, variables[v]),
            boundaries, reps, window)
    except ValueError:
        raise ComplexError("variable action left the cycle space") from None
    return GradedModule(A, tuple(reps[n].ncols for n in range(window + 1)), actions, window)


def _graded_multiply_vector(F: FreeComplex, i: int, n: int, vec, element):
    """Multiply a degree-n vector of F_i by a homogeneous degree-1 element."""
    A = F.algebra
    f = A.field
    src = F.graded_coords(i, n)
    tgt = {c: k for k, c in enumerate(F.graded_coords(i, n + 1))}
    out = [0] * len(tgt)
    for coeff, (s, m) in zip(vec, src):
        if not coeff:
            continue
        for pm, pc in A.el_mul(((m, f.one),), element):
            k = tgt.get((s, pm))
            if k is not None:
                out[k] += coeff * pc
    reduce, zero = f.reduce, f.zero
    return tuple(reduce(x) if x else zero for x in out)


def graded_homology_all(F: FreeComplex) -> dict:
    return {i: graded_homology(F, i) for i in F.degrees()}


# ---------------------------------------------------------------------------
# Betti numbers (both backends: reduce the differential mod m)


def betti(F: FreeComplex) -> dict:
    """beta_i = dim_k H_i(F (x) k); exact on both backends."""
    f = F.algebra.field
    out = {}
    for i in F.degrees():
        dn = F.diff(i).mod_m()
        dn1 = F.diff(i + 1).mod_m()
        out[i] = F.rank(i) - rank(dn) - rank(dn1)
    return out


def proj_dim(F: FreeComplex):
    """sup of the nonvanishing Betti numbers; -inf if none."""
    return nonzero_range(betti(F))[1]


def euler_pairing_holds(F: FreeComplex) -> bool:
    """Alternating rank sum times dim A equals alternating homology dims (Artinian)."""
    A = F.algebra
    sign = lambda i: -1 if i % 2 else 1
    lhs = sum(sign(i) * F.rank(i) for i in F.degrees()) * A.dim
    rhs = sum(sign(i) * homology(F, i).dim for i in F.degrees())
    return lhs == rhs


def is_quasi_iso(f: ChainMap) -> bool:
    """All homology of the cone vanishes (graded: within the window)."""
    C = cone(f)
    dims = homology_dims(C)
    return all(d == 0 for d in dims.values())


# ---------------------------------------------------------------------------
# helpers used by tests and the decomposition round-trip


def transport(F: FreeComplex, qs: dict) -> FreeComplex:
    """Isomorphic complex with d' = Q_{i-1} d Q_i^{-1}; qs[i] invertible AMatrix."""
    inv = {}
    for i in F.degrees():
        q = qs.get(i, AMatrix.identity(F.algebra, F.rank(i)))
        qi = amatrix_inverse(q)
        if qi is None:
            raise ComplexError(f"transport matrix at degree {i} is not invertible")
        inv[i] = qi
    diffs = []
    for i in range(F.low + 1, F.top + 1):
        q_out = qs.get(i - 1, AMatrix.identity(F.algebra, F.rank(i - 1)))
        diffs.append(q_out.mul(F.diff(i)).mul(inv[i]))
    return FreeComplex(F.algebra, F.low, F.ranks, tuple(diffs), F.shifts, F.labels)


def random_invertible_amatrix(algebra, n: int, rng) -> AMatrix:
    """Unit lower/upper product with random m-entries added; invertible mod m."""
    f = algebra.field
    # random invertible constant matrix: product of elementary operations
    base = Matrix.identity(f, n)
    rows = [list(r) for r in base.rows]
    for _ in range(2 * n):
        i = rng.randrange(n)
        j = rng.randrange(n)
        if i == j:
            continue
        c = f.from_int(rng.randrange(1, 5))
        rows[i] = [f.add(a, f.mul(c, b)) for a, b in zip(rows[i], rows[j])]
    entries = []
    m_basis = [algebra.basis_element(t) for t in range(1, algebra.dim)]
    for i in range(n):
        row = []
        for j in range(n):
            el = algebra.el_scale(rows[i][j], algebra.one)
            if m_basis and rng.randrange(3) == 0:
                t = rng.randrange(len(m_basis))
                c = f.from_int(rng.randrange(1, 5))
                el = algebra.el_add(el, algebra.el_scale(c, m_basis[t]))
            row.append(el)
        entries.append(tuple(row))
    return AMatrix(algebra, n, n, tuple(entries))


def random_transport(F: FreeComplex, rng) -> FreeComplex:
    qs = {i: random_invertible_amatrix(F.algebra, F.rank(i), rng) for i in F.degrees()}
    return transport(F, qs)
