"""Finite modules over the two backends and their numerical invariants.

Artinian modules are a k-basis plus one action matrix per algebra basis
element.  Graded modules are degreewise k-spaces with one degree-raising
action map per variable, valid up to a stated window; `GradedModule` owns
the action of each homogeneous element (`act_element`).  Dimension, and
depth elsewhere, use the sup/inf conventions with the explicit +/- infinity
sentinels defined here (never floats); the sentinels compare with ints and
do their own extended arithmetic and printing.  `graded_cover` is the one
minimal cover of a graded module: `graded_is_free` and every step of
`resolutions.graded_minimal_resolution` read it, and `graded_nu` counts
its generators.  `subquotient_actions` is the one construction of a module
on a subquotient: homology on both backends and the kernel modules of
`syzygy` and of the graded resolutions.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import ArtinAlgebra
from .linalg import (Matrix, block_diag, column_space_basis, complement, in_span,
                     kernel_basis, quotient_coords, rank)
from .monomial import MonomialAlgebra


class _Infinity:
    def __init__(self, sign: int):
        self.sign = sign

    def __lt__(self, other):
        if isinstance(other, _Infinity):
            return self.sign < other.sign
        return self.sign < 0

    def __le__(self, other):
        return self < other or self == other

    def __gt__(self, other):
        return not self <= other

    def __ge__(self, other):
        return not self < other

    def __eq__(self, other):
        return isinstance(other, _Infinity) and other.sign == self.sign

    def __hash__(self):
        return hash(("inf", self.sign))

    def __neg__(self):
        return MINUS_INFINITY if self.sign > 0 else PLUS_INFINITY

    # a sum takes its first infinite term; an infinite subtrahend gives its negation
    def __add__(self, other):
        return self

    def __radd__(self, other):
        return self

    def __sub__(self, other):
        return -other if isinstance(other, _Infinity) else self

    def __rsub__(self, other):
        return -self

    def __repr__(self):
        return "+inf" if self.sign > 0 else "-inf"


PLUS_INFINITY = _Infinity(1)
MINUS_INFINITY = _Infinity(-1)


# ---------------------------------------------------------------------------
# Artinian backend


@dataclass(frozen=True)
class FiniteModule:
    """Module over an Artinian local algebra: k-basis + action matrices."""

    algebra: ArtinAlgebra
    dim: int
    action: tuple  # action[t] = Matrix of e_t, t = 0..algebra.dim-1

    def validate(self) -> list:
        B = self.algebra
        issues = []
        if self.action[0] != Matrix.identity(B.field, self.dim):
            issues.append("unit does not act as the identity")
        for i in range(B.dim):
            for j in range(i, B.dim):
                if self.action[i].mul(self.action[j]) != self.act_element(B.mult[i][j]):
                    issues.append(f"structure constants fail on (e_{i}, e_{j})")
        return issues

    def act_element(self, a) -> Matrix:
        """Action matrix of an algebra element."""
        B = self.algebra
        out = Matrix.zero(B.field, self.dim, self.dim)
        for t, coeff in enumerate(a):
            if coeff != B.field.zero:
                out = out.add(self.action[t].scale(coeff))
        return out

    def m_submodule_cols(self) -> Matrix:
        """Canonical basis of m*M."""
        B = self.algebra
        cols = [c for t in range(1, B.dim) for c in self.action[t].columns()]
        return column_space_basis(Matrix.from_columns(B.field, cols, nrows=self.dim))


def free_module(B: ArtinAlgebra, r: int) -> FiniteModule:
    return FiniteModule(B, r * B.dim, tuple(
        block_diag(Matrix, B.field, [B.left_mult_matrix(B.basis_element(t))] * r)
        for t in range(B.dim)))


def residue_field_module(B: ArtinAlgebra) -> FiniteModule:
    f = B.field
    acts = [Matrix.from_rows(f, [[f.one]])]
    for _ in range(1, B.dim):
        acts.append(Matrix.zero(f, 1, 1))
    return FiniteModule(B, 1, tuple(acts))


def subquotient_actions(maps, src: Matrix, sub: Matrix, reps: Matrix) -> tuple:
    """The matrices of the k-linear `maps` from span(src) to span(reps) modulo span(sub).

    The columns of [sub | reps] are independent, and each map sends span(src)
    into span(sub) + span(reps); a vector that leaves it raises ValueError.
    One `quotient_coords` solve serves every map.
    """
    cols = src.columns()
    r = len(cols)
    coords = quotient_coords(sub, reps, [m.apply(c) for m in maps for c in cols])
    return tuple(Matrix.from_columns(reps.field, coords[t * r:(t + 1) * r], nrows=reps.ncols)
                 for t in range(len(maps)))


def nu(M: FiniteModule) -> int:
    """Minimal number of generators (Nakayama)."""
    return M.dim - M.m_submodule_cols().ncols


def minimal_generators(M: FiniteModule) -> list:
    """Deterministic lifts of a basis of M/mM (greedy over the standard basis)."""
    return complement(M.m_submodule_cols(), Matrix.identity(M.algebra.field, M.dim)).columns()


def cover_map(M: FiniteModule) -> tuple:
    """(free module B^nu, map matrix (dim x nu*dimB), generators)."""
    B = M.algebra
    gens = minimal_generators(M)
    r = len(gens)
    P = free_module(B, r)
    cols = []
    for s in range(r):
        for t in range(B.dim):
            cols.append(M.action[t].apply(gens[s]))
    cmap = Matrix.from_columns(B.field, cols, nrows=M.dim)
    return P, cmap, gens


def syzygy(M: FiniteModule) -> tuple:
    """(kernel of the minimal cover as a FiniteModule, nu(M)).

    The cover is A-linear, so its kernel is already a submodule of B^nu."""
    P, cmap, gens = cover_map(M)
    ker = kernel_basis(cmap)
    acts = subquotient_actions(P.action, ker, Matrix.zero(M.algebra.field, P.dim, 0), ker)
    return FiniteModule(M.algebra, ker.ncols, acts), len(gens)


def poincare_truncated(M: FiniteModule, steps: int) -> tuple:
    """Betti numbers beta_0..beta_steps of the minimal free resolution."""
    out = []
    cur = M
    for _ in range(steps + 1):
        if cur.dim == 0:
            out.append(0)
            continue
        cur, b = syzygy(cur)
        out.append(b)
    return tuple(out)


def is_free(M: FiniteModule) -> tuple:
    """(free?, rank): free iff the minimal cover B^nu -> M is injective."""
    if M.dim == 0:
        return True, 0
    n = nu(M)
    return (M.dim == n * M.algebra.dim), n


@dataclass(frozen=True)
class FreenessVerdict:
    free: bool | None
    rank: int | None
    betti_prefix: tuple
    note: str


def lemma43_freeness(M: FiniteModule) -> FreenessVerdict:
    """Freeness via the Poincare series criterion: free of rank b iff it is (b, 0, ...)."""
    betti = poincare_truncated(M, 1)
    if M.dim == 0:
        return FreenessVerdict(True, 0, betti, "zero module")
    if betti[1] == 0:
        return FreenessVerdict(True, betti[0], betti, "first syzygy vanishes")
    return FreenessVerdict(False, None, betti, "nonzero first Betti number")


# ---------------------------------------------------------------------------
# graded backend


@dataclass(frozen=True)
class GradedModule:
    """Degreewise module over a MonomialAlgebra, valid for degrees <= window."""

    algebra: MonomialAlgebra
    dims: tuple  # dims[d], d = 0..window
    var_actions: tuple  # var_actions[v][d]: Matrix dims[d] -> dims[d+1]
    window: int

    def dim_at(self, d: int) -> int:
        return self.dims[d] if 0 <= d <= self.window else 0

    def act(self, v: int, d: int) -> Matrix:
        if 0 <= d < self.window:
            return self.var_actions[v][d]
        return Matrix.zero(self.algebra.field, self.dim_at(d + 1), self.dim_at(d))

    def act_element(self, el, d: int) -> Matrix:
        """The map M_d -> M_{d + deg el} of a homogeneous element: each
        monomial acts as the product of its variable actions."""
        f = self.algebra.field
        out = Matrix.zero(f, self.dim_at(d + self.algebra.el_degree(el)), self.dim_at(d))
        for mono, c in el:
            act, deg = Matrix.identity(f, self.dim_at(d)), d
            for v, e in enumerate(mono):
                for _ in range(e):
                    act, deg = self.act(v, deg).mul(act), deg + 1
            out = out.add(act.scale(c))
        return out

    def hilbert(self, up_to: int) -> tuple:
        return tuple(self.dim_at(d) for d in range(up_to + 1))

    def is_zero_within_window(self) -> bool:
        return all(x == 0 for x in self.dims)


def graded_subquotient_module(A: MonomialAlgebra, act, subs: dict, reps: dict,
                              window: int) -> GradedModule:
    """The module on span(reps[d]) modulo span(subs[d]), degrees d <= window.

    Variable v acts as `act(v, d)`, the matrix from degree d to degree d + 1
    of the ambient space, through `subquotient_actions`; it is asked for only
    where reps[d] is not empty.
    """
    per_deg = [subquotient_actions([act(v, d) for v in range(A.nvars)], reps[d],
                                   subs[d + 1], reps[d + 1]) if reps[d].ncols
               else (Matrix.zero(A.field, reps[d + 1].ncols, 0),) * A.nvars
               for d in range(window)]
    return GradedModule(A, tuple(reps[d].ncols for d in range(window + 1)),
                        tuple(tuple(per[v] for per in per_deg) for v in range(A.nvars)),
                        window)


def graded_free_module(A: MonomialAlgebra, gen_degrees, window: int) -> GradedModule:
    """Direct sum of A(-d) for d in gen_degrees, truncated at `window`."""
    n = len(gen_degrees)
    dims = tuple(len(A.free_coords(gen_degrees, d)) for d in range(window + 1))
    actions = []
    for v in range(A.nvars):
        x = A.var_element(v)
        diag = tuple(tuple(x if r == s else A.zero for s in range(n)) for r in range(n))
        actions.append(tuple(A.map_matrix(diag, gen_degrees, gen_degrees, d, 1)
                             for d in range(window)))
    return GradedModule(A, dims, tuple(actions), window)


def graded_quotient_ring_module(A: MonomialAlgebra, kernel_var_indices, window: int) -> GradedModule:
    """A/(listed variables) as a graded module over A, on the monomials free of
    those variables; column m of a variable's map holds the coordinate of x*m."""
    f = A.field
    basis = [[m for m in A.basis(d) if not any(m[i] for i in kernel_var_indices)]
             for d in range(window + 1)]
    actions = []
    for v in range(A.nvars):
        ve, per = A.var_element(v), []
        for d in range(window):
            tgt = {m: i for i, m in enumerate(basis[d + 1])}
            rows = tuple({} for _ in tgt)
            for j, m in enumerate(basis[d]):
                for pm, pc in A.el_mul(((m, f.one),), ve):
                    if pm in tgt:
                        rows[tgt[pm]][j] = pc
            per.append(Matrix(f, len(tgt), len(basis[d]), rows))
        actions.append(tuple(per))
    return GradedModule(A, tuple(map(len, basis)), tuple(actions), window)


def _graded_generators(M: GradedModule) -> dict:
    """{d: the degree-d minimal generators of M as columns}, the greedy
    complement of (m*M)_d in the standard basis."""
    f = M.algebra.field
    out = {}
    for d in range(M.window + 1):
        # (m*M)_d is spanned by the variable actions out of degree d - 1
        mM = Matrix.zero(f, M.dim_at(d), 0)
        for v in range(M.algebra.nvars):
            mM = mM.hstack(M.act(v, d - 1))
        out[d] = complement(mM, Matrix.identity(f, M.dim_at(d)))
    return out


def graded_cover(M: GradedModule) -> tuple:
    """(gen_degrees, gens, maps): the minimal cover of M within its window.

    gens[d] holds the degree-d generators as columns (`_graded_generators`);
    gen_degrees lists one degree per generator, ascending; maps[d] is the
    k-matrix of the cover on degree d, from the free module on gen_degrees
    (coordinates `free_coords`) to M_d.
    """
    A = M.algebra
    f = A.field
    gens = _graded_generators(M)
    gen_degrees = tuple(d for d in gens for _ in range(gens[d].ncols))
    flat_gens = [(d, vec) for d in gens for vec in gens[d].columns()]
    maps = {}
    for d in range(M.window + 1):
        cols = []
        for (i, m) in A.free_coords(gen_degrees, d):
            # the image m . gen, by iterated variable action
            deg, img = flat_gens[i]
            for vi, e in enumerate(m):
                for _ in range(e):
                    img = M.act(vi, deg).apply(img)
                    deg += 1
            cols.append(img)
        maps[d] = Matrix.from_columns(f, cols, nrows=M.dim_at(d))
    return gen_degrees, gens, maps


def graded_nu(M: GradedModule) -> tuple:
    """(total count within window, per-degree generator counts)."""
    gens = _graded_generators(M)
    counts = tuple(gens[d].ncols for d in range(M.window + 1))
    return sum(counts), counts


def graded_socle_degrees(M: GradedModule) -> list:
    """Degrees d < window with a nonzero element killed by every variable."""
    out = []
    for d in range(M.window):
        if M.dim_at(d) == 0:
            continue
        stacked = None
        for v in range(M.algebra.nvars):
            a = M.act(v, d)
            stacked = a if stacked is None else stacked.vstack(a)
        if stacked is None or kernel_basis(stacked).ncols > 0:
            out.append(d)
    return out


@dataclass(frozen=True)
class GradedFreenessVerdict:
    free: bool | None  # None = free as far as the window shows
    rank: int | None
    witness_degree: int | None
    note: str


def graded_is_free(M: GradedModule) -> GradedFreenessVerdict:
    """Free iff the minimal cover has zero kernel; truncation-honest."""
    gen_degrees, _, maps = graded_cover(M)
    if not gen_degrees:
        return GradedFreenessVerdict(True, 0, None, "zero module within window")
    for d in range(M.window + 1):
        if rank(maps[d]) < maps[d].ncols:
            return GradedFreenessVerdict(False, None, d,
                                         f"cover has kernel in degree {d}")
    return GradedFreenessVerdict(None, len(gen_degrees), None,
                                 f"free up to degree {M.window}")


def graded_element_kills(M: GradedModule, a) -> bool:
    """Does the homogeneous element `a` act as zero on M within its window?"""
    da = M.algebra.el_degree(a)
    if da is None:
        raise ValueError("homogeneous elements only")
    return all(M.act_element(a, d).is_zero()
               for d in range(M.window + 1 - da) if M.dim_at(d))


def graded_annihilator(M: GradedModule) -> list:
    """Homogeneous annihilator elements (degree, coefficient vector on basis(d)).

    Exact for element degrees da <= window - d for all module degrees d probed;
    callers treat the result as generators-found-within-window.
    """
    A = M.algebra
    f = A.field
    out = []
    for da in range(1, M.window + 1):
        amb = A.basis(da)
        if not amb:
            continue
        rows = []
        for d in range(0, M.window + 1 - da):
            if M.dim_at(d) == 0:
                continue
            maps = [M.act_element(((m, f.one),), d) for m in amb]
            for r_i in range(maps[0].nrows):
                for c_i in range(M.dim_at(d)):
                    rows.append({k: v for k, act in enumerate(maps)
                                 if (v := act.rows[r_i].get(c_i))})
        # no rows means no constraints: the whole degree-da slice annihilates
        K = kernel_basis(Matrix(f, len(rows), len(amb), tuple(rows)))
        for col in K.columns():
            out.append((da, col))
    return out


def graded_dim_module(M: GradedModule):
    """Krull dimension via the monomial part of the annihilator.

    Returns (value, exact, note); -inf for the zero module.
    """
    A = M.algebra
    if M.is_zero_within_window():
        return MINUS_INFINITY, True, "zero module within window"
    ann = graded_annihilator(M)
    f = A.field
    by_deg = {}
    for da, col in ann:
        by_deg.setdefault(da, []).append(col)
    # the subspace at each degree is monomial iff it is spanned by the
    # indicator vectors of the monomials it contains
    mono_gens = []
    non_monomial = False
    for da, cols in by_deg.items():
        space = Matrix.from_columns(f, cols, nrows=len(A.basis(da)))
        monos_in = []
        for i, m in enumerate(A.basis(da)):
            indicator = tuple(f.one if j == i else f.zero for j in range(len(A.basis(da))))
            if in_span(space, indicator):
                monos_in.append(m)
        if len(monos_in) != len(cols):
            non_monomial = True
        mono_gens.extend(monos_in)
    ideal = list(A.ideal) + mono_gens
    quotient = MonomialAlgebra(A.field, A.variables, _minimalize(ideal), A.truncation)
    val = quotient.krull_dim()
    if non_monomial:
        return val, False, "annihilator not monomial within window; value is an upper bound"
    return val, True, f"annihilator generators found up to degree {M.window}"


def _minimalize(gens):
    from .monomial import mono_divides
    out = []
    for g in sorted(gens, key=lambda m: sum(m)):
        if not any(mono_divides(h, g) for h in out):
            out.append(g)
    return tuple(out)
