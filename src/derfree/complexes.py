"""Bounded complexes of finite free modules over either backend.

Differentials are matrices with algebra entries; `diff(i)` is the map
leaving homological degree i.  Over the Artinian backend everything
flattens to exact k-linear algebra.  Over the graded backend complexes
carry generator degrees per term, differentials must be homogeneous of
internal degree 0 with respect to them, and homology is computed per
internal degree up to the truncation (reported with the window).

Homology is computed in one place for every complex, on a view by degree
pieces that `FreeComplex` and `resolutions.GradedModuleComplex` share (see
"homology").  Its dimensions (`homology_dims`, and per piece
`graded_homology_dims`) come from one rank per differential and piece by
rank-nullity, dim H_i = dim F_i - rk d_i - rk d_{i+1}, after `validate`
has found d^2 = 0; each rank is taken on the sparse rows of one k-matrix
(`AMatrix.flatten`, the graded `map_matrix`, and `AMatrix.mod_m` for the
Betti numbers).  Only `homology` and `graded_homology` build modules with
representatives and induced actions.

Maps F_i -> G_{i+k} between complexes are `DegreeMap`s; `ChainMap` (k = 0)
and `homotopy.Homotopy` (k = 1) extend it.  Products of matrices with
algebra entries run on basis-element slices in raw Python ints: each matrix
is sliced and scaled to ints over one common denominator once
(`AMatrix.raw_slices`; `field.to_raw`, the identity over GF(p)), and each
output coordinate is divided once (`field.from_raw`).  `degreewise_defects`
tests d^2 = 0, df = fd and dh + hd = f on those sums alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from .linalg import (Matrix, block_diag, column_space_basis, complement, kernel_basis,
                     quotient_coords, rank, sparse_rref)
from .modules import (GradedModule, FiniteModule, MINUS_INFINITY,
                      PLUS_INFINITY, free_module, graded_subquotient_module,
                      subquotient_actions)


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
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ComplexError(f"shape mismatch {self.nrows}x{self.ncols} + "
                               f"{other.nrows}x{other.ncols}")
        A = self.algebra
        return AMatrix(A, self.nrows, self.ncols,
                       tuple(tuple(A.el_add(a, b) for a, b in zip(ra, rb))
                             for ra, rb in zip(self.entries, other.entries)))

    def sub(self, other: "AMatrix") -> "AMatrix":
        return self.add(other.neg())

    def neg(self) -> "AMatrix":
        A = self.algebra
        return AMatrix(A, self.nrows, self.ncols,
                       tuple(tuple(A.el_neg(a) for a in r) for r in self.entries))

    def scale(self, c) -> "AMatrix":
        """Every entry times the field scalar c."""
        A = self.algebra
        return AMatrix(A, self.nrows, self.ncols,
                       tuple(tuple(A.el_scale(c, x) for x in r) for r in self.entries))

    def mul(self, other: "AMatrix") -> "AMatrix":
        if self.ncols != other.nrows:
            raise ComplexError(
                f"shape mismatch {self.nrows}x{self.ncols} * {other.nrows}x{other.ncols}")
        A = self.algebra
        m, n = self.nrows, other.ncols
        raw, den = _raw_sums(A, m, n, ((False, _slices(self, m, self.ncols),
                                         _slices(other, self.ncols, n)),))
        sums = list(raw.items())
        build = A.el_from_raw
        return AMatrix(A, m, n, tuple(
            tuple(build({k: acc[p] for k, acc in sums if acc[p]}, den)
                  for p in range(r * n, r * n + n))
            for r in range(m)))

    def raw_slices(self) -> tuple:
        """(slices, den): the nonzero basis-element slices {key: {row: [(column,
        int)]}} of this matrix as raw ints over one common denominator den,
        built once per matrix (see "products on basis-element slices")."""
        cached = self.__dict__.get("_raw_slices")
        if cached is not None:
            return cached
        terms = self.algebra.el_terms
        out = {}
        for r, row in enumerate(self.entries):
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
        values = (a for rows in out.values() for found in rows.values() for _, a in found)
        ints, den = self.algebra.field.to_raw(values)
        if ints is not values:  # over GF(p) the scalars are the raw ints
            ints = iter(ints)
            out = {key: {r: [(c, next(ints)) for c, _ in found] for r, found in rows.items()}
                   for key, rows in out.items()}
        object.__setattr__(self, "_raw_slices", (out, den))
        return out, den

    def is_zero(self) -> bool:
        A = self.algebra
        return all(A.el_is_zero(e) for r in self.entries for e in r)

    def entries_in_m(self) -> bool:
        A = self.algebra
        return all(A.el_in_m(e) for r in self.entries for e in r)

    def mod_m(self) -> Matrix:
        """Entrywise image in the residue field."""
        residue = self.algebra.el_mod_m
        return Matrix(self.algebra.field, self.nrows, self.ncols,
                      tuple({j: x for j, x in enumerate(map(residue, r)) if x}
                            for r in self.entries))

    def flatten(self) -> Matrix:
        """k-linear matrix on flattened coordinates (Artinian backend)."""
        A = self.algebra
        if A.kind != "artinian":
            raise ComplexError("flatten requires the Artinian backend")
        d = A.dim
        out = []
        for r in self.entries:
            block = [{} for _ in range(d)]
            for j, e in enumerate(r):
                if not A.el_is_zero(e):
                    # the block in column j is multiplication by e
                    off = j * d
                    for row, lr in zip(block, A.left_mult_matrix(e).rows):
                        for b, x in lr.items():
                            row[off + b] = x
            out.extend(block)
        return Matrix(A.field, self.nrows * d, self.ncols * d, tuple(out))

    def hstack(self, other: "AMatrix") -> "AMatrix":
        if self.nrows != other.nrows:
            raise ComplexError(f"row count mismatch {self.nrows} and {other.nrows}")
        return AMatrix(self.algebra, self.nrows, self.ncols + other.ncols,
                       tuple(a + b for a, b in zip(self.entries, other.entries)))

    def vstack(self, other: "AMatrix") -> "AMatrix":
        return AMatrix(self.algebra, self.nrows + other.nrows, self.ncols,
                       self.entries + other.entries)


# ---------------------------------------------------------------------------
# products on basis-element slices
#
# A matrix with algebra entries is the sum over basis keys of e_key (x) M_key,
# where M_key is a sparse k-matrix.  The product of X and Y adds c * X_i Y_j,
# unreduced, into slice k for every nonzero structure constant
# e_i * e_j = c * e_k, and each output coordinate is reduced once.  The
# sums are taken on raw Python ints: each sliced matrix is scaled to ints
# over one common denominator (`field.to_raw`), the backend gives its
# structure constants over one denominator `key_den`, and each product
# gets one integer factor so that all sums share one denominator.  Only
# three things come from the backend: an element's nonzero terms
# (`el_terms`), the raw product of two basis keys (`key_product`) and the
# element built from raw sums over their denominator (`el_from_raw`).


def _slices(M: AMatrix, nrows: int, ncols: int) -> tuple:
    """`M.raw_slices()`; M must be nrows x ncols."""
    if M.nrows != nrows or M.ncols != ncols:
        raise ComplexError(f"a {M.nrows}x{M.ncols} matrix where {nrows}x{ncols} is needed")
    return M.raw_slices()


def _raw_sums(A, nrows: int, ncols: int, products, minus=None) -> tuple:
    """(sums, den): the slices of the sum of +-X*Y over products, less
    `minus`, as raw int sums over the one denominator den.

    `products` holds (negate, X, Y) with X and Y given by their `_slices`,
    and `minus` is given the same way.  `sums` maps each basis key to the
    flat list of raw sums of its slice, entry (r, c) at r * ncols + c.
    """
    key_product, key_den = A.key_product, A.key_den
    den = minus[1] if minus else 1
    for _, (_, xd), (_, yd) in products:
        den = lcm(den, key_den * xd * yd)
    size = nrows * ncols
    out = {}
    for negate, (xs, xd), (ys, yd) in products:
        factor = den // (key_den * xd * yd)
        if negate:
            factor = -factor
        for i, Xi in xs.items():
            for j, Yj in ys.items():
                for k, c in key_product(i, j):
                    acc = out.get(k)
                    if acc is None:
                        out[k] = acc = [0] * size
                    c *= factor
                    for r, xrow in Xi.items():
                        base = r * ncols
                        for q, a in xrow:
                            yrow = Yj.get(q)
                            if yrow is not None:
                                ca = c * a
                                for col, b in yrow:
                                    acc[base + col] += ca * b
    if minus:
        ms, md = minus
        factor = den // md
        for k, rows in ms.items():
            acc = out.get(k)
            if acc is None:
                out[k] = acc = [0] * size
            for r, row in rows.items():
                base = r * ncols
                for col, a in row:
                    acc[base + col] -= factor * a
    return out, den


def degreewise_defects(A, identities) -> list:
    """[(i, sums)] for each (i, products, minus) of `identities` where the
    sum of +-X*Y over `products`, (negate, X, Y) with AMatrix factors, less
    the AMatrix `minus` (None: nothing) is not zero; `sums` are its raw
    sums (`_raw_sums`).  The sum is m x n, m the rows of the first X and n
    the columns of the first Y, and each X*Y must be m x k times k x n.
    """
    reduce = A.field.reduce
    out = []
    for i, products, minus in identities:
        _, X, Y = products[0]
        m, n = X.nrows, Y.ncols
        sums, _ = _raw_sums(A, m, n, [(negate, _slices(X, m, Y.nrows), _slices(Y, Y.nrows, n))
                                      for negate, X, Y in products],
                            None if minus is None else _slices(minus, m, n))
        if any(any(map(reduce, filter(None, acc))) for acc in sums.values()):
            out.append((i, sums))
    return out


def amatrix_inverse(M: AMatrix) -> AMatrix | None:
    """Inverse over the Artinian backend, or None if M is not invertible.

    The inverse is A-linear, so entry (i, j) is block i of the image of
    the unit coordinate of slot j, column j*d of the flattened inverse
    (d = dim A).  One elimination of [flat(M) | e_{j*d} : j < n] solves for
    those n columns only, and M is invertible exactly when its pivots are
    range(n*d).
    """
    if M.nrows != M.ncols:
        return None
    A, n = M.algebra, M.nrows
    f, d = A.field, A.dim
    size = n * d
    rows = [dict(r) for r in M.flatten().rows]
    for j in range(n):
        rows[j * d][size + j] = f.one
    pivot_rows, pivots = sparse_rref(f, rows)
    if pivots != tuple(range(size)):
        return None
    zero = f.zero
    return AMatrix(A, n, n, tuple(
        tuple(tuple(pivot_rows[i * d + b].get(size + j, zero) for b in range(d))
              for j in range(n))
        for i in range(n)))


def entry_degrees(M: AMatrix, source_shifts, target_shifts):
    """(r, c, degree) for each nonzero entry of M between graded free modules
    with these generator degrees: the internal degree that the entry gives
    the map, None when the entry is not homogeneous."""
    A = M.algebra
    for r, row in enumerate(M.entries):
        for c, e in enumerate(row):
            if not A.el_is_zero(e):
                deg = A.el_degree(e)
                yield r, c, None if deg is None else deg + target_shifts[r] - source_shifts[c]


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
        reduce = self.algebra.field.reduce
        issues = []
        for i, sums in degreewise_defects(self.algebra, (
                (i, ((False, self.diff(i - 1), self.diff(i)),), None)
                for i in range(self.low + 2, self.top + 1))):
            n = self.rank(i)
            for p in sorted({p for acc in sums.values() for p, x in enumerate(acc)
                             if x and reduce(x)}):
                issues.append(f"d^2 != 0 at degree {i}, entry ({p // n}, {p % n})")
        if self.algebra.kind == "graded":
            for i in range(self.low + 1, self.top + 1):
                issues.extend(self._homogeneity_issues(i))
        return issues

    def _homogeneity_issues(self, i: int) -> list:
        """The entries of d_i that are not homogeneous of the degree the shifts require."""
        ssrc, stgt = self.shift_of(i), self.shift_of(i - 1)
        return [f"entry ({r},{c}) of d_{i} is not homogeneous of degree {ssrc[c] - stgt[r]}"
                for r, c, deg in entry_degrees(self.diff(i), ssrc, stgt) if deg != 0]

    def is_minimal(self) -> bool:
        return all(d.entries_in_m() for d in self.diffs)

    # -- the view by degree pieces (see "homology") -------------------------
    @property
    def window(self) -> int:
        """The last degree piece: the truncation on the graded backend, and 0
        on the Artinian backend, whose one piece is the flattened complex."""
        return self.algebra.truncation if self.algebra.kind == "graded" else 0

    def dim_at(self, i: int, n: int) -> int:
        """dim_k of piece n of F_i."""
        A = self.algebra
        if A.kind == "graded":
            return len(A.free_coords(self.shift_of(i), n))
        return self.rank(i) * A.dim

    def diff_matrix(self, i: int, n: int) -> Matrix:
        """k-matrix of d_i on piece n."""
        A = self.algebra
        if A.kind == "graded":
            return A.map_matrix(self.diff(i).entries, self.shift_of(i), self.shift_of(i - 1), n)
        return self.diff(i).flatten()

    def act(self, i: int, v: int, n: int) -> Matrix:
        """k-matrix of variable v from piece n of F_i to piece n + 1 (graded backend)."""
        A, shifts = self.algebra, self.shift_of(i)
        x = AMatrix.scalar(A, A.var_element(v), len(shifts))
        return A.map_matrix(x.entries, shifts, shifts, n, 1)


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
# maps between complexes


@dataclass(frozen=True)
class DegreeMap:
    """Maps F_i -> G_{i+degree} by source degree i; zero where omitted.

    Each map must be rank G_{i+degree} x rank F_i, which is checked here.
    """

    source: FreeComplex
    target: FreeComplex
    maps: tuple  # tuple of (degree, AMatrix) pairs
    degree = 0  # the k of F_i -> G_{i+k}: a class attribute, not a field

    def __post_init__(self):
        for deg, m in self.maps:
            nrows, ncols = self.target.rank(deg + self.degree), self.source.rank(deg)
            if (m.nrows, m.ncols) != (nrows, ncols):
                raise ComplexError(f"the map at degree {deg} is {m.nrows}x{m.ncols}, "
                                   f"where {nrows}x{ncols} is needed")

    @classmethod
    def from_dict(cls, source, target, maps: dict):
        return cls(source, target, tuple(sorted(maps.items())))

    def component(self, i: int) -> AMatrix:
        for deg, m in self.maps:
            if deg == i:
                return m
        return AMatrix.zero(self.source.algebra, self.target.rank(i + self.degree),
                            self.source.rank(i))


class ChainMap(DegreeMap):
    """Degree-0 map of complexes."""

    def is_chain_map(self) -> bool:
        return not self.chain_defects()

    def chain_defects(self) -> list:
        """Degrees i where d f_i - f_{i-1} d is not zero."""
        S, T = self.source, self.target
        return [i for i, _ in degreewise_defects(S.algebra, (
            (i, ((False, T.diff(i), self.component(i)),
                 (True, self.component(i - 1), S.diff(i))), None)
            for i in range(min(S.low, T.low) + 1, max(S.top, T.top) + 1)))]

    def add(self, other: "ChainMap") -> "ChainMap":
        degs = {d for d, _ in self.maps} | {d for d, _ in other.maps}
        return ChainMap.from_dict(self.source, self.target,
                                  {d: self.component(d).add(other.component(d)) for d in degs})

    def sub(self, other: "ChainMap") -> "ChainMap":
        return self.add(other.neg())

    def neg(self) -> "ChainMap":
        return ChainMap(self.source, self.target, tuple((d, m.neg()) for d, m in self.maps))

    def compose(self, other: "ChainMap") -> "ChainMap":
        """self after other."""
        degs = {d for d, _ in other.maps} | {d for d, _ in self.maps}
        return ChainMap.from_dict(other.source, self.target,
                                  {d: self.component(d).mul(other.component(d)) for d in degs})

    def scale(self, c) -> "ChainMap":
        """The map times the field scalar c."""
        return ChainMap(self.source, self.target, tuple((d, m.scale(c)) for d, m in self.maps))


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
        diffs.append(block_diag(AMatrix, F.algebra, [F.diff(i), G.diff(i)]))
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
# homology
#
# A FreeComplex and a `resolutions.GradedModuleComplex` are read through one
# view by degree pieces: `window` (the last piece), `dim_at(i, n)`,
# `diff_matrix(i, n)` (d_i on piece n) and, on the graded backend,
# `act(i, v, n)` (variable v on piece n of the term C_i).  A graded complex
# has one piece per internal degree up to its window, an Artinian FreeComplex
# the one piece 0.  Dimensions come from ranks alone (`graded_homology_dims`);
# a homology module is built from the subquotient of each piece
# (`_subquotient`) only where its action is read.


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


def _subquotient(C, i: int, n: int) -> tuple:
    """(cycles, boundaries, reps) of H_i(C) on piece n: canonical bases of
    ker d_i and im d_{i+1}, and the cycles a greedy scan keeps outside the
    boundaries, in order."""
    Z = kernel_basis(C.diff_matrix(i, n))
    B = column_space_basis(C.diff_matrix(i + 1, n))
    return Z, B, complement(B, Z)


def homology(F: FreeComplex, i: int) -> HomologyModule:
    """H_i(F) over the Artinian backend, with the action of the algebra."""
    A = F.algebra
    if A.kind != "artinian":
        raise ComplexError("use graded_homology for the graded backend")
    Z, B, reps = _subquotient(F, i, 0)
    # each basis element of A acts on F_i by left multiplication, block by block
    acts = subquotient_actions(free_module(A, F.rank(i)).action, reps, B, reps)
    return HomologyModule(i, FiniteModule(A, reps.ncols, acts), tuple(reps.columns()), Z, B)


def graded_homology(C, i: int) -> GradedModule:
    """H_i(C) per internal degree up to `C.window`, with the variable actions
    it inherits from C_i; C is a graded FreeComplex (valid up to the algebra
    truncation) or a `resolutions.GradedModuleComplex`."""
    A = C.algebra
    if A.kind != "graded":
        raise ComplexError("use homology for the Artinian backend")
    boundaries, reps = {}, {}
    for n in range(C.window + 1):
        _, boundaries[n], reps[n] = _subquotient(C, i, n)
    try:
        return graded_subquotient_module(A, lambda v, n: C.act(i, v, n), boundaries, reps,
                                         C.window)
    except ValueError:
        raise ComplexError("variable action left the cycle space") from None


def graded_homology_all(F: FreeComplex) -> dict:
    return {i: graded_homology(F, i) for i in F.degrees()}


def _require_complex(C) -> None:
    """Raise ComplexError with the first issue of `C.validate()`, if any.

    The rank formula of the homology dimensions holds only when d^2 = 0
    (and, on the graded backend, when every differential is homogeneous).
    """
    issues = C.validate()
    if issues:
        raise ComplexError(issues[0])


def graded_homology_dims(C) -> dict:
    """{i: (dim_k H_i(C) on piece n, for n = 0..C.window)}, from ranks.

    Per piece, dim H_i = dim C_i - rk d_i - rk d_{i+1}, with one rank per
    differential and piece: the Hilbert function up to the window on the
    graded backend, one entry on the Artinian one.  A family of maps that is
    not a complex raises ComplexError.
    """
    _require_complex(C)
    pieces = range(C.window + 1)
    rk = {(i, n): rank(C.diff_matrix(i, n)) for i in range(C.low + 1, C.top + 1) for n in pieces}
    return {i: tuple(C.dim_at(i, n) - rk.get((i, n), 0) - rk.get((i + 1, n), 0) for n in pieces)
            for i in range(C.low, C.top + 1)}


def homology_dims(C) -> dict:
    """dim_k H_i(C) per degree (graded: summed over the window), from ranks."""
    return {i: sum(h) for i, h in graded_homology_dims(C).items()}


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
# Betti numbers (both backends: reduce the differential mod m)


def betti(F: FreeComplex) -> dict:
    """beta_i = dim_k H_i(F (x) k); exact on both backends."""
    rk = {i: rank(F.diff(i).mod_m()) for i in range(F.low + 1, F.top + 1)}
    return {i: F.rank(i) - rk.get(i, 0) - rk.get(i + 1, 0) for i in F.degrees()}


def proj_dim(F: FreeComplex):
    """sup of the nonvanishing Betti numbers; -inf if none."""
    return nonzero_range(betti(F))[1]


def is_quasi_iso(f: ChainMap) -> bool:
    """All homology of the cone vanishes (graded: within the window).

    A map that is not a chain map has a cone with d^2 != 0, which raises
    ComplexError.
    """
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
    rows = [list(r) for r in Matrix.identity(f, n).dense_rows()]
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
