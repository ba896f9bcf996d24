"""Null-homotopy decisions by exact linear solves.

For a degree-0 map f between free complexes over the same algebra, dh + hd
= f is one k-linear system in the algebra coordinates of all components of
h.  Infeasibility of the system is a proof of non-homotopy over the given
backend.  The derived annihilator {a : a*id is null-homotopic} is the
projection of the solution space of a*id - (dh + hd) = 0 onto the
a-coordinates, with one witness homotopy stored per basis element.  One
assembler (`_System`) builds these systems for both backends, and also the
chain-map condition dX - Xd = 0 behind `chain_map_space`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import (AMatrix, ChainMap, FreeComplex, _raw_sums, _slices, _sums_vanish,
                        scalar_endo)
from .linalg import (Matrix, in_span, kernel_vectors, rref, sparse_kernel, sparse_rref,
                     sparse_solve)
from .monomial import TruncationError


@dataclass(frozen=True)
class Homotopy:
    """Witness maps h_i : F_i -> G_{i+1}."""

    source: FreeComplex
    target: FreeComplex
    maps: tuple  # (degree, AMatrix) pairs

    def component(self, i: int) -> AMatrix:
        for deg, m in self.maps:
            if deg == i:
                return m
        return AMatrix.zero(self.source.algebra, self.target.rank(i + 1), self.source.rank(i))

    def boundary(self) -> ChainMap:
        """The chain map dh + hd this homotopy bounds."""
        F, G = self.source, self.target
        lo = min(F.low, G.low)
        hi = max(F.top, G.top)
        comps = {}
        for i in range(lo, hi + 1):
            t1 = G.diff(i + 1).mul(self.component(i))
            t2 = self.component(i - 1).mul(F.diff(i))
            comps[i] = t1.add(t2)
        return ChainMap.from_dict(F, G, comps)


@dataclass(frozen=True)
class DerivedAnnihilator:
    """k-basis of the kernel of A -> End of the complex up to homotopy."""

    complex: FreeComplex
    basis: tuple  # algebra elements
    witnesses: tuple  # Homotopy per basis element
    window: int | None = None  # graded backend: element degrees searched

    def contains(self, a) -> bool:
        A = self.complex.algebra
        if A.kind == "artinian":
            if not self.basis:
                return A.el_is_zero(a)
            cols = Matrix.from_columns(A.field, [list(b) for b in self.basis], nrows=A.dim)
            return in_span(cols, a)
        return solve_homotopy(scalar_endo(self.complex, a)) is not None

    def is_ideal(self) -> bool:
        """Closure of the basis span under multiplication by algebra basis elements."""
        A = self.complex.algebra
        if A.kind != "artinian":
            raise TruncationError("ideal check is exact on the Artinian backend only")
        if not self.basis:
            return True
        cols = Matrix.from_columns(A.field, [list(b) for b in self.basis], nrows=A.dim)
        for a in self.basis:
            for t in range(A.dim):
                if not in_span(cols, A.el_mul(A.basis_element(t), a)):
                    return False
        return True


class _System:
    """The linear system d^T X + sign * X d^S = rhs over the field.

    The unknowns are maps X_i : S_i -> T_{i+k}, so equation i is a map
    S_i -> T_{i+k-1}.  With k = 1 and sign = +1 it reads dh + hd = f for a
    homotopy h; with k = 0 and sign = -1 it is the chain-map condition.
    Every entry of an unknown or an equation has a coordinate space: the
    whole algebra on the Artinian backend, and on the graded backend the
    degree piece that makes the entry homogeneous when X has internal
    degree delta.  Restricting to homogeneous X loses nothing there: the
    equation is graded, so the degree-delta part of any solution solves it.
    Columns run over the unknown entries (i, q, t) in order and rows over
    the equation entries (i, s, t), each entry taking one column or row per
    coordinate; `rows` holds each row as a sparse {column: scalar} dict,
    the form the elimination kernel takes.  Only the coordinate spaces and
    the multiplication blocks (`left_mult_matrix` or `mult_map`) depend on
    the backend.
    """

    def __init__(self, S: FreeComplex, T: FreeComplex, k: int = 1, sign: int = 1,
                 delta: int = 0):
        A = S.algebra
        if A != T.algebra:
            raise ValueError("homotopy solves need a common algebra")
        self.S, self.T, self.A, self.k, self.delta = S, T, A, k, delta
        self.graded = A.kind != "artinian"
        self.lo = min(S.low, T.low)
        self.hi = max(S.top, T.top)
        self.unknowns = {}  # (i, q, t) -> (first column, size, degree)
        col = 0
        for i in range(self.lo, self.hi + 1):
            for q in range(T.rank(i + k)):
                for t in range(S.rank(i)):
                    deg = self._degree(i, i + k, q, t)
                    n = self._size(deg, "entry")
                    if n:
                        self.unknowns[(i, q, t)] = (col, n, deg)
                        col += n
        self.ncols = col
        self._blocks = {}
        self.rows = []  # one {column: scalar} per equation row
        self.equations = {}  # (i, s, t) -> (first row, size, degree)
        source = "T" if S is T else "S"  # one complex: its entries share their blocks
        for i in range(self.lo, self.hi + 1):
            dT, dS = T.diff(i + k), S.diff(i)
            bT, bS = self._entry_blocks("T", i + k, dT), self._entry_blocks(source, i, dS)
            for s in range(T.rank(i + k - 1)):
                for t in range(S.rank(i)):
                    deg = self._degree(i, i + k - 1, s, t)
                    n = self._size(deg, "equation")
                    row = len(self.rows)
                    self.equations[(i, s, t)] = (row, n, deg)
                    self.rows.extend({} for _ in range(n))
                    # d^T_{i+k}[s, q] * X_i[q, t]
                    for q in range(T.rank(i + k)):
                        self._add_term(row, n, bT[s][q], dT.entries[s][q], (i, q, t), False)
                    # sign * X_{i-1}[s, q] * d^S_i[q, t]
                    for q in range(S.rank(i - 1)):
                        self._add_term(row, n, bS[q][t], dS.entries[q][t], (i - 1, s, q),
                                       sign < 0)

    # -- the backend-dependent part: coordinate spaces and blocks ----------
    def _degree(self, i, j, r, c):
        """Degree of entry (r, c) of a map S_i -> T_j (None when ungraded)."""
        if not self.graded:
            return None
        return self.delta + self.S.shift_of(i)[c] - self.T.shift_of(j)[r]

    def _size(self, deg, what: str) -> int:
        A = self.A
        if not self.graded:
            return A.dim
        if deg < 0:
            return 0
        if deg > A.truncation:
            raise TruncationError(f"homotopy {what} degree {deg} above truncation")
        return len(A.basis(deg))

    def _entry_blocks(self, side, degree, d) -> list:
        """The block caches of the entries of d, the differential of `side` at `degree`.

        Entry [r][c] maps a coordinate degree to the nonzero (row, column,
        value) of multiplication by d[r, c] on its space.  The cache is keyed
        by position, so no scalar is hashed.
        """
        caches = self._blocks.get((side, degree))
        if caches is None:
            caches = [[{} for _ in range(d.ncols)] for _ in range(d.nrows)]
            self._blocks[(side, degree)] = caches
        return caches

    def _coords(self, e, deg):
        """Coordinates of e in the space of deg, or None if e lies outside it."""
        A = self.A
        if not self.graded:
            return tuple(e)
        if any(sum(m) != deg for m, _ in e):
            return None
        return A.coords(e, deg)

    def _element(self, x, deg):
        return self.A.from_coords(x, deg) if self.graded else tuple(x)

    # -- assembly and elimination -----------------------------------------
    def _add_term(self, row0, nrows, cache, e, key, negate):
        """Write +-(multiplication by e) from unknown `key` into rows row0..

        `cache` is the block cache of e's position (see `_entry_blocks`).
        An equation meets each unknown through one term only, so every
        entry is written once.
        """
        A = self.A
        if not nrows or key not in self.unknowns or A.el_is_zero(e):
            return
        col0, _, deg = self.unknowns[key]
        block = cache.get(deg)
        if block is None:
            L = A.mult_map(e, deg) if self.graded else A.left_mult_matrix(e)
            cache[deg] = block = [(r, c, v) for r, row in enumerate(L.rows)
                                  for c, v in enumerate(row) if v]
        neg, rows = A.field.neg, self.rows
        for r, c, v in block:
            if r < nrows:
                rows[row0 + r][col0 + c] = neg(v) if negate else v

    def rhs_of(self, fmap: ChainMap):
        """Flatten the components of fmap into an equation vector (None: no solution)."""
        vec = [self.A.field.zero] * len(self.rows)
        for i in range(self.lo, self.hi + 1):
            comp = fmap.component(i)
            for s in range(comp.nrows):
                for t in range(comp.ncols):
                    e = comp.entries[s][t]
                    eq = self.equations.get((i, s, t))
                    if eq is None:
                        if not self.A.el_is_zero(e):
                            return None  # fmap lives outside the equation space
                        continue
                    row0, n, deg = eq
                    coords = self._coords(e, deg)
                    if coords is None:
                        return None
                    vec[row0:row0 + n] = coords
        return vec

    def unpack(self, x) -> dict:
        """The maps X_i, by degree, read off a solution vector."""
        A = self.A
        maps = {}
        for i in range(self.lo, self.hi + 1):
            nr, nc = self.T.rank(i + self.k), self.S.rank(i)
            if nr * nc == 0:
                continue
            entries = [[A.zero] * nc for _ in range(nr)]
            for q in range(nr):
                for t in range(nc):
                    found = self.unknowns.get((i, q, t))
                    if found is not None:
                        col0, n, deg = found
                        entries[q][t] = self._element(x[col0:col0 + n], deg)
            maps[i] = AMatrix(A, nr, nc, tuple(tuple(r) for r in entries))
        return maps

    def homotopy(self, x) -> Homotopy:
        return Homotopy(self.S, self.T, tuple(sorted(self.unpack(x).items())))

    def solve(self, fmap: ChainMap) -> Homotopy | None:
        """Particular solution of dh + hd = fmap (free variables 0), or None."""
        rhs = self.rhs_of(fmap)
        if rhs is None:
            return None
        x = sparse_solve(self.A.field, self.rows, self.ncols, [rhs])[0]
        return None if x is None else self.homotopy(x)

    def annihilator(self) -> tuple:
        """(basis, witnesses) of {a of degree delta : a*id = dh + hd}, with S = T.

        Each kernel vector of [-a*id | system] is a pair (a, h) with
        a*id = dh + hd.  The pairs whose a-parts grow the span are kept, in
        the canonical kernel order.  The a-parts are read off the RREF, and
        only the kept pairs are built as whole vectors.  On the graded
        backend the kept pairs are then brought to RREF: their a-parts
        become the canonical basis of the projection of the kernel, and
        their h-parts its witnesses.  Every witness is substituted back
        into its equation.
        """
        f = self.A.field
        na = self._size(self.delta, "element")
        ncols = na + self.ncols
        rows = [{na + c: v for c, v in row.items()} for row in self.rows]
        minus_one = f.neg(f.one)
        for (i, s, t), (row0, _, _) in self.equations.items():
            if s == t:  # a*id sits on the diagonal entries
                for j in range(na):
                    rows[row0 + j][j] = minus_one
        pivot_rows, pivots = sparse_rref(f, rows)
        # coordinate r < na of the kernel vector of free column j: 1 when
        # r = j, -row[j] when r is the pivot of row; the pivots of these rows
        # are the free columns a greedy scan keeps
        a_rows = [{j: f.neg(v) for j, v in row.items() if j != pc}
                  for pc, row in zip(pivots, pivot_rows) if pc < na]
        a_rows += [{j: f.one} for j in set(range(na)) - set(pivots)]
        pairs = kernel_vectors(f, pivot_rows, pivots, ncols, sparse_rref(f, a_rows)[1])
        if self.graded:
            pairs = rref(Matrix.from_rows(f, pairs, ncols=ncols))[0].rows
        basis, witnesses = [], []
        for v in pairs:
            a = self._element(v[:na], self.delta)
            h = self.homotopy(v[na:])
            _check_homotopy(scalar_endo(self.S, a), h)
            basis.append(a)
            witnesses.append(h)
        return basis, witnesses


# ---------------------------------------------------------------------------
# public operations


def is_chain_map(f: ChainMap) -> bool:
    return f.is_chain_map()


def solve_homotopy(f: ChainMap) -> Homotopy | None:
    """Find h with dh + hd = f exactly, or return None (a proof of absence).

    Every returned homotopy is re-substituted into the equation before being
    handed back.
    """
    delta = 0
    if f.source.algebra.kind != "artinian":
        delta = _uniform_component_degree(f)
        if delta is None:
            return None
    h = _System(f.source, f.target, delta=delta).solve(f)
    if h is not None:
        _check_homotopy(f, h)
    return h


def chain_map_space(M: FreeComplex, F: FreeComplex) -> list:
    """k-basis of the space of degree-0 chain maps M -> F (Artinian backend)."""
    sys = _System(M, F, k=0, sign=-1)
    return [ChainMap.from_dict(M, F, sys.unpack(v))
            for v in sparse_kernel(M.algebra.field, sys.rows, sys.ncols)]


def _uniform_component_degree(f: ChainMap) -> int | None:
    """Internal degree of a homogeneous degree-0 chain-map-shaped map."""
    A = f.source.algebra
    degs = set()
    for i in range(min(f.source.low, f.target.low), max(f.source.top, f.target.top) + 1):
        comp = f.component(i)
        ssrc = f.source.shift_of(i)
        stgt = f.target.shift_of(i)
        for s in range(comp.nrows):
            for t in range(comp.ncols):
                e = comp.entries[s][t]
                if A.el_is_zero(e):
                    continue
                d = A.el_degree(e)
                if d is None:
                    return None
                degs.add(d + stgt[s] - ssrc[t])
    if not degs:
        return 0
    if len(degs) > 1:
        return None
    return degs.pop()


def homotopy_defects(f: ChainMap, h: Homotopy) -> list:
    """Degrees i where d h_i + h_{i-1} d - f_i is not zero.

    The sums are accumulated on basis-element slices, each sliced matrix
    once per call, and each raw sum is tested once; `Homotopy.boundary` is
    never built.  Only the complexes of f, f itself and h are read.
    """
    F, G = f.source, f.target
    A = F.algebra
    lo, hi = min(F.low, G.low), max(F.top, G.top)
    dF = {i: _slices(A, F.diff(i), F.rank(i - 1), F.rank(i)) for i in range(lo, hi + 2)}
    dG = dF if G is F else {i: _slices(A, G.diff(i), G.rank(i - 1), G.rank(i))
                            for i in range(lo, hi + 2)}
    hs = {i: _slices(A, h.component(i), G.rank(i + 1), F.rank(i)) for i in range(lo - 1, hi + 1)}
    return [i for i in range(lo, hi + 1)
            if not _sums_vanish(A.field, _raw_sums(
                A, G.rank(i), F.rank(i), ((False, dG[i + 1], hs[i]), (False, hs[i - 1], dF[i])),
                minus=_slices(A, f.component(i), G.rank(i), F.rank(i))))]


def _check_homotopy(f: ChainMap, h: Homotopy):
    if homotopy_defects(f, h):
        raise AssertionError("solver returned an invalid homotopy")


def homotopy_class_eq(f: ChainMap, g: ChainMap) -> bool:
    """f and g agree in the homotopy category."""
    return solve_homotopy(f.sub(g)) is not None


def derived_annihilator(F: FreeComplex, max_degree: int | None = None) -> DerivedAnnihilator:
    """Kernel of A -> End-up-to-homotopy of F, with stored witnesses.

    Artinian backend: exact.  Graded backend: homogeneous elements of each
    internal degree up to the largest feasible one are searched; the result
    carries that window.
    """
    A = F.algebra
    if A.kind == "artinian":
        basis, witnesses = _System(F, F).annihilator()
        return DerivedAnnihilator(F, tuple(basis), tuple(witnesses))
    basis = []
    witnesses = []
    top_degree = max_degree if max_degree is not None else A.truncation
    window = 0
    for delta in range(1, top_degree + 1):
        if not A.basis(delta):
            window = delta
            continue
        try:
            sys = _System(F, F, delta=delta)
        except TruncationError:
            break
        window = delta
        b, w = sys.annihilator()
        basis.extend(b)
        witnesses.extend(w)
    return DerivedAnnihilator(F, tuple(basis), tuple(witnesses), window=window)
