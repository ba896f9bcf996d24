"""Null-homotopy decisions by exact linear solves.

For a degree-0 map f between free complexes over the same algebra, dh + hd
= f is one k-linear system in the algebra coordinates of all components of
h.  Infeasibility of the system is a proof of non-homotopy over the given
backend.  The derived annihilator {a : a*id is null-homotopic} is the
projection of the solution space of a*id - (dh + hd) = 0 onto the
a-coordinates, with one witness homotopy stored per basis element.  One
assembler (`_System`) lays out these systems for both backends, and also
the chain-map condition dX - Xd = 0 behind `chain_map_space`, and builds
their sparse rows one equation group at a time: into one `linalg.Matrix`
for a solve, or as a stream that `annihilator` hands to the elimination,
so the whole annihilator system is never held.  A
homotopy is a `complexes.DegreeMap` of degree 1, and `homotopy_defects`
substitutes it back through `complexes.degreewise_defects`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import AlgebraError
from .complexes import (AMatrix, ChainMap, DegreeMap, FreeComplex, degreewise_defects,
                        entry_degrees, scalar_endo)
from .linalg import (Matrix, by_lead, kernel_basis, kernel_vectors, rref, solve_multi,
                     sparse_rref)
from .monomial import TruncationError


class Homotopy(DegreeMap):
    """Witness maps h_i : F_i -> G_{i+1}."""

    degree = 1

    def boundary(self) -> ChainMap:
        """The chain map dh + hd this homotopy bounds, by `AMatrix.mul`: the
        reference that `homotopy_defects` answers without building it."""
        F, G = self.source, self.target
        return ChainMap.from_dict(F, G, {
            i: G.diff(i + 1).mul(self.component(i)).add(self.component(i - 1).mul(F.diff(i)))
            for i in range(min(F.low, G.low), max(F.top, G.top) + 1)})


@dataclass(frozen=True)
class DerivedAnnihilator:
    """k-basis of the kernel of A -> End of the complex up to homotopy."""

    complex: FreeComplex
    basis: tuple  # algebra elements
    witnesses: tuple  # Homotopy per basis element
    window: int | None = None  # graded backend: element degrees searched


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
    coordinate.  Building the system lays it out and nothing more: the
    unknowns, the equations and their sizes, so a coordinate space above
    the truncation raises `TruncationError` here.  The rows, sparse
    {column: scalar} dicts, are built for one equation group (i, s) at a
    time (`_group_rows`): `matrix` is the whole system as one `Matrix`,
    built on each access, and `stream` feeds the elimination without
    holding it.  Only the coordinate spaces and the multiplication blocks
    (`left_mult_matrix` or `mult_map`) depend on the backend.

    With `scalar` (S = T, k = 1, sign = +1) the system is the one of
    a*id = dh + hd that `annihilator` eliminates: the first `na` columns
    hold the coordinates of a scalar a of degree delta, the unknown
    columns follow them, and each diagonal equation entry (i, s, s) gets
    -a.  A solution vector then holds (a, h), and `unpack` reads h off it.
    """

    def __init__(self, S: FreeComplex, T: FreeComplex, k: int = 1, sign: int = 1,
                 delta: int = 0, scalar: bool = False):
        A = S.algebra
        if A != T.algebra:
            raise ValueError("homotopy solves need a common algebra")
        self.S, self.T, self.A, self.k, self.sign, self.delta = S, T, A, k, sign, delta
        self.graded = A.kind != "artinian"
        self.lo = min(S.low, T.low)
        self.hi = max(S.top, T.top)
        self.na = self._size(delta, "element") if scalar else 0  # columns of a
        self.unknowns = {}  # (i, q, t) -> (first column, size, degree)
        col = self.na
        for i in range(self.lo, self.hi + 1):
            for q in range(T.rank(i + k)):
                for t in range(S.rank(i)):
                    deg = self._degree(i, i + k, q, t)
                    n = self._size(deg, "entry")
                    if n:
                        self.unknowns[(i, q, t)] = (col, n, deg)
                        col += n
        self.ncols = col
        self.equations = {}  # (i, s, t) -> (first row, size, degree)
        row = 0
        for i in range(self.lo, self.hi + 1):
            for s in range(T.rank(i + k - 1)):
                for t in range(S.rank(i)):
                    deg = self._degree(i, i + k - 1, s, t)
                    n = self._size(deg, "equation")
                    self.equations[(i, s, t)] = (row, n, deg)
                    row += n
        self.nrows = row
        self._blocks = {}

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
        value) of multiplication by d[r, c] on its space, and is None when
        d[r, c] is zero, so each entry is tested for zero once.  The cache is
        keyed by position, so no scalar is hashed.
        """
        caches = self._blocks.get((side, degree))
        if caches is None:
            is_zero = self.A.el_is_zero
            caches = [[None if is_zero(e) else {} for e in r] for r in d.entries]
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
    def _group_rows(self, i, s) -> list:
        """Per equation entry (i, s, t), t in order, its rows as fresh dicts."""
        S, T, k = self.S, self.T, self.k
        dT, dS = T.diff(i + k), S.diff(i)
        bT = self._entry_blocks("T", i + k, dT)
        bS = self._entry_blocks("T" if S is T else "S", i, dS)  # one complex: shared blocks
        minus_one = self.A.field.neg(self.A.field.one)
        negate = self.sign < 0
        out = []
        for t in range(S.rank(i)):
            n = self.equations[(i, s, t)][1]
            if s == t and self.na:  # -a*id sits on the diagonal entries
                rows = [{j: minus_one} for j in range(n)]
            else:
                rows = [{} for _ in range(n)]
            if n:
                # d^T_{i+k}[s, q] * X_i[q, t]
                for q in range(T.rank(i + k)):
                    self._add_term(rows, bT[s][q], dT.entries[s][q], (i, q, t), False)
                # sign * X_{i-1}[s, q] * d^S_i[q, t]
                for q in range(S.rank(i - 1)):
                    self._add_term(rows, bS[q][t], dS.entries[q][t], (i - 1, s, q), negate)
            out.append(rows)
        return out

    def _groups(self):
        """The equation groups (i, s) in row order."""
        return [(i, s) for i in range(self.lo, self.hi + 1)
                for s in range(self.T.rank(i + self.k - 1))]

    @property
    def matrix(self) -> Matrix:
        """The whole system as one `Matrix`, built on each access."""
        return Matrix(self.A.field, self.nrows, self.ncols,
                      tuple(r for i, s in self._groups() for rows in self._group_rows(i, s)
                            for r in rows))

    def stream(self):
        """The nonempty rows as `annihilator` feeds them to `sparse_rref`.

        One equation group at a time, from the last group to the first, each
        sorted by `by_lead`.  The rows that lead in the a-columns, those of
        the diagonal entries (i, s, s), are held back and fed last, also by
        `by_lead`, so that no pivot row in an a-column is back-reduced
        while the h-columns are eliminated.  Only the held rows and one
        group are alive at a time.
        """
        held = []
        for i, s in reversed(self._groups()):
            entries = self._group_rows(i, s)
            if self.na and s < len(entries):
                held += entries.pop(s)
            yield from by_lead(r for rows in entries for r in rows)
        yield from by_lead(held)

    def _add_term(self, rows, cache, e, key, negate):
        """Write +-(multiplication by e) from unknown `key` into the entry rows `rows`.

        `cache` is the block cache of e's position (see `_entry_blocks`),
        None when e is zero.  An equation meets each unknown through one
        term only, so every entry is written once.
        """
        if cache is None or key not in self.unknowns:
            return
        A = self.A
        col0, _, deg = self.unknowns[key]
        block = cache.get(deg)
        if block is None:
            M = A.mult_map(e, deg) if self.graded else A.left_mult_matrix(e)
            block = [(r, c, v) for r, row in enumerate(M.rows) for c, v in row.items()]
            cache[deg] = block
        neg, nrows = A.field.neg, len(rows)
        for r, c, v in block:
            if r < nrows:
                rows[r][col0 + c] = neg(v) if negate else v

    def rhs_of(self, fmap: ChainMap):
        """Flatten the components of fmap into an equation vector (None: no solution)."""
        vec = [self.A.field.zero] * self.nrows
        for i in range(self.lo, self.hi + 1):
            comp = fmap.component(i)
            for s in range(comp.nrows):
                for t in range(comp.ncols):
                    row0, n, deg = self.equations[(i, s, t)]
                    coords = self._coords(comp.entries[s][t], deg)
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
        return Homotopy.from_dict(self.S, self.T, self.unpack(x))

    def solve(self, fmap: ChainMap) -> Homotopy | None:
        """Particular solution of dh + hd = fmap (free variables 0), or None."""
        rhs = self.rhs_of(fmap)
        if rhs is None:
            return None
        x = solve_multi(self.matrix, [rhs])[0]
        return None if x is None else self.homotopy(x)

    def annihilator(self) -> tuple:
        """(basis, witnesses) of {a of degree delta : a*id = dh + hd}, with S = T.

        The system must be built with `scalar`, so its rows are
        [-a*id | dh + hd] and each kernel vector is a pair (a, h) with
        a*id = dh + hd.  The pairs whose a-parts grow the span are kept, in
        the canonical kernel order.  The a-parts are read off the RREF, and
        only the kept pairs are built as whole vectors.  On the graded
        backend the kept pairs are then brought to RREF: their a-parts
        become the canonical basis of the projection of the kernel, and
        their h-parts its witnesses.  Every witness is substituted back
        into its equation.
        """
        f = self.A.field
        na, ncols = self.na, self.ncols
        pivot_rows, pivots = sparse_rref(f, self.stream())
        # coordinate r < na of the kernel vector of free column j: 1 when
        # r = j, -row[j] when r is the pivot of row; the pivots of these rows
        # are the free columns a greedy scan keeps
        a_rows = [{j: f.neg(v) for j, v in row.items() if j != pc}
                  for pc, row in zip(pivots, pivot_rows) if pc < na]
        a_rows += [{j: f.one} for j in set(range(na)) - set(pivots)]
        pairs = kernel_vectors(f, pivot_rows, pivots, ncols, sparse_rref(f, by_lead(a_rows))[1])
        if self.graded:
            pairs = rref(Matrix.from_rows(f, pairs, ncols=ncols))[0].dense_rows()
        basis, witnesses = [], []
        for v in pairs:
            a = self._element(v[:na], self.delta)
            h = self.homotopy(v)
            _check_homotopy(scalar_endo(self.S, a), h)
            basis.append(a)
            witnesses.append(h)
        return basis, witnesses


# ---------------------------------------------------------------------------
# public operations


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
    return [ChainMap.from_dict(M, F, sys.unpack(v)) for v in kernel_basis(sys.matrix).columns()]


def _uniform_component_degree(f: ChainMap) -> int | None:
    """Internal degree of a homogeneous degree-0 chain-map-shaped map."""
    S, T = f.source, f.target
    degs = {deg for i in range(min(S.low, T.low), max(S.top, T.top) + 1)
            for _, _, deg in entry_degrees(f.component(i), S.shift_of(i), T.shift_of(i))}
    if None in degs or len(degs) > 1:
        return None
    return degs.pop() if degs else 0


def homotopy_defects(f: ChainMap, h: Homotopy) -> list:
    """Degrees i where d h_i + h_{i-1} d - f_i is not zero.

    `complexes.degreewise_defects` tests the sums on basis-element slices;
    `Homotopy.boundary` is never built.
    """
    F, G = f.source, f.target
    return [i for i, _ in degreewise_defects(F.algebra, (
        (i, ((False, G.diff(i + 1), h.component(i)), (False, h.component(i - 1), F.diff(i))),
         f.component(i))
        for i in range(min(F.low, G.low), max(F.top, G.top) + 1)))]


def _check_homotopy(f: ChainMap, h: Homotopy):
    if homotopy_defects(f, h):
        A = f.source.algebra
        if A.kind == "artinian" and not A.validate().valid:  # an input error
            raise AlgebraError("the structure constants break the algebra axioms (see "
                               "`derfree validate`), so no homotopy can be certified")
        raise AssertionError("solver returned an invalid homotopy")


def homotopy_class_eq(f: ChainMap, g: ChainMap) -> bool:
    """f and g agree in the homotopy category."""
    return solve_homotopy(f.sub(g)) is not None


def derived_annihilator(F: FreeComplex) -> DerivedAnnihilator:
    """Kernel of A -> End-up-to-homotopy of F, with stored witnesses.

    Artinian backend: exact.  Graded backend: homogeneous elements of each
    internal degree up to the largest feasible one are searched; the result
    carries that window.
    """
    A = F.algebra
    if A.kind == "artinian":
        basis, witnesses = _System(F, F, scalar=True).annihilator()
        return DerivedAnnihilator(F, tuple(basis), tuple(witnesses))
    basis = []
    witnesses = []
    window = 0
    for delta in range(1, A.truncation + 1):
        if not A.basis(delta):
            window = delta
            continue
        try:
            sys = _System(F, F, delta=delta, scalar=True)
        except TruncationError:
            break
        window = delta
        b, w = sys.annihilator()
        basis.extend(b)
        witnesses.extend(w)
    return DerivedAnnihilator(F, tuple(basis), tuple(witnesses), window=window)
