"""Finite modules over the two backends and their numerical invariants.

Artinian modules are a k-basis plus one action matrix per algebra basis
element.  Graded modules are degreewise k-spaces with one degree-raising
action map per variable, valid up to a stated window.  Depth and dimension
use the sup/inf conventions with explicit +/- infinity sentinels (never
floats).
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import ArtinAlgebra
from .linalg import (Matrix, column_space_basis, in_span, independent_columns,
                     kernel_basis, rank, solve_multi)
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
                lhs = self.action[i].mul(self.action[j])
                rhs = Matrix.zero(B.field, self.dim, self.dim)
                for k, c in enumerate(B.mult[i][j]):
                    if c != B.field.zero:
                        rhs = rhs.add(self.action[k].scale(c))
                if lhs != rhs:
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
        cols = []
        for t in range(1, B.dim):
            cols.extend(self.action[t].columns())
        if not cols:
            return Matrix.from_columns(B.field, [], nrows=self.dim)
        return column_space_basis(Matrix.from_columns(B.field, cols, nrows=self.dim))


def free_module(B: ArtinAlgebra, r: int) -> FiniteModule:
    acts = []
    for t in range(B.dim):
        L = B.left_mult_matrix(B.basis_element(t))
        rows = []
        for s in range(r):
            for i in range(B.dim):
                row = [B.field.zero] * (r * B.dim)
                for j in range(B.dim):
                    row[s * B.dim + j] = L.rows[i][j]
                rows.append(tuple(row))
        acts.append(Matrix.from_rows(B.field, rows, ncols=r * B.dim))
    return FiniteModule(B, r * B.dim, tuple(acts))


def residue_field_module(B: ArtinAlgebra) -> FiniteModule:
    f = B.field
    acts = [Matrix.from_rows(f, [[f.one]])]
    for _ in range(1, B.dim):
        acts.append(Matrix.zero(f, 1, 1))
    return FiniteModule(B, 1, tuple(acts))


def zero_module(B: ArtinAlgebra) -> FiniteModule:
    return FiniteModule(B, 0, tuple(Matrix.zero(B.field, 0, 0) for _ in range(B.dim)))


def submodule_from_spanning(parent: FiniteModule, vectors) -> tuple:
    """(FiniteModule on the A-closure of the span, inclusion columns).

    The span is closed under the action first, so any k-spanning set works.
    """
    B = parent.algebra
    f = B.field
    current = column_space_basis(Matrix.from_columns(f, list(vectors), nrows=parent.dim)) \
        if vectors else Matrix.from_columns(f, [], nrows=parent.dim)
    while True:
        cols = list(current.columns())
        extra = []
        for t in range(1, B.dim):
            for c in cols:
                extra.append(parent.action[t].apply(c))
        bigger = column_space_basis(Matrix.from_columns(f, cols + extra, nrows=parent.dim)) \
            if cols + extra else current
        if bigger.ncols == current.ncols:
            break
        current = bigger
    inc = current
    acts = []
    for t in range(B.dim):
        imgs = [parent.action[t].apply(c) for c in inc.columns()]
        sols = solve_multi(inc, imgs) if imgs else []
        cols = [s for s in sols]
        acts.append(Matrix.from_columns(f, cols, nrows=inc.ncols) if cols
                    else Matrix.zero(f, inc.ncols, 0))
    return FiniteModule(B, inc.ncols, tuple(acts)), inc


def quotient_module(parent: FiniteModule, sub_cols: Matrix) -> tuple:
    """(FiniteModule on parent/span(sub_cols), representative columns).

    The subspace must be action-invariant; representatives are chosen
    greedily from the standard basis in index order.
    """
    B = parent.algebra
    f = B.field
    sub = column_space_basis(sub_cols)
    std = Matrix.identity(f, parent.dim)
    reps = [std.column(i) for i in independent_columns(sub, std)]
    rep_cols = Matrix.from_columns(f, reps, nrows=parent.dim) if reps \
        else Matrix.from_columns(f, [], nrows=parent.dim)
    both = sub.hstack(rep_cols)
    acts = []
    for t in range(B.dim):
        imgs = [parent.action[t].apply(c) for c in reps]
        sols = solve_multi(both, imgs) if imgs else []
        cols = [tuple(s[sub.ncols:]) for s in sols]
        acts.append(Matrix.from_columns(f, cols, nrows=len(reps)) if cols
                    else Matrix.zero(f, len(reps), 0))
    return FiniteModule(B, len(reps), tuple(acts)), rep_cols


def nu(M: FiniteModule) -> int:
    """Minimal number of generators (Nakayama)."""
    return M.dim - M.m_submodule_cols().ncols


def minimal_generators(M: FiniteModule) -> list:
    """Deterministic lifts of a basis of M/mM (greedy over the standard basis)."""
    std = Matrix.identity(M.algebra.field, M.dim)
    return [std.column(i) for i in independent_columns(M.m_submodule_cols(), std)]


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
    cmap = Matrix.from_columns(B.field, cols, nrows=M.dim) if cols \
        else Matrix.from_columns(B.field, [], nrows=M.dim)
    return P, cmap, gens


def syzygy(M: FiniteModule) -> tuple:
    """(kernel of the minimal cover as a FiniteModule, nu(M))."""
    P, cmap, gens = cover_map(M)
    ker = kernel_basis(cmap)
    K, _ = submodule_from_spanning(P, ker.columns())
    return K, len(gens)


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


def lemma43_freeness(M: FiniteModule, bound: int = 1) -> FreenessVerdict:
    """Freeness via the Poincare series criterion: free of rank b iff it is (b, 0, ...)."""
    bound = max(bound, 1)
    betti = poincare_truncated(M, bound)
    if M.dim == 0:
        return FreenessVerdict(True, 0, betti, "zero module")
    if betti[1] == 0:
        return FreenessVerdict(True, betti[0], betti, "first syzygy vanishes")
    return FreenessVerdict(False, None, betti, "nonzero first Betti number")


def annihilator_cols(M: FiniteModule) -> Matrix:
    """k-basis (columns) of ann_B(M) = {b : b*M = 0}."""
    B = M.algebra
    f = B.field
    if M.dim == 0:
        return column_space_basis(Matrix.identity(f, B.dim))
    rows = []
    for i in range(M.dim):
        for j in range(M.dim):
            rows.append(tuple(M.action[t].rows[i][j] for t in range(B.dim)))
    return kernel_basis(Matrix.from_rows(f, rows, ncols=B.dim))


def is_faithful(M: FiniteModule) -> bool:
    return annihilator_cols(M).ncols == 0


def socle_cols(M: FiniteModule) -> Matrix:
    """{v : m*v = 0} as columns."""
    B = M.algebra
    f = B.field
    if B.dim == 1:
        return column_space_basis(Matrix.identity(f, M.dim))
    stacked = M.action[1]
    for t in range(2, B.dim):
        stacked = stacked.vstack(M.action[t])
    return kernel_basis(stacked)


def depth(M: FiniteModule):
    """depth over an Artinian algebra: +inf for 0, else 0 (nonzero socle)."""
    if M.dim == 0:
        return PLUS_INFINITY
    # M != 0 finite over Artinian local: the socle is nonzero, so Hom(k, M) != 0
    assert socle_cols(M).ncols > 0
    return 0


def dim_module(M: FiniteModule):
    """Krull dimension: -inf for 0, else 0 over an Artinian algebra."""
    return MINUS_INFINITY if M.dim == 0 else 0


def minimal_free_resolution(M: FiniteModule, steps: int) -> tuple:
    """Minimal free resolution data up to homological degree `steps`.

    Returns (ranks, ds): ranks[i] is the rank of P_i; ds[i] is the flattened
    k-matrix of P_{i+1} -> P_i in free-module coordinates (size
    ranks[i]*dimB x ranks[i+1]*dimB).
    """
    B = M.algebra
    ranks = []
    ds = []
    cur = M
    prev_incl = None
    for i in range(steps + 1):
        if cur.dim == 0:
            ranks.append(0)
            if i > 0:
                ds.append(Matrix.zero(B.field, ranks[i - 1] * B.dim, 0))
            cur = zero_module(B)
            prev_incl = None
            continue
        P, cmap, gens = cover_map(cur)
        ranks.append(len(gens))
        if i > 0:
            if prev_incl is None:
                ds.append(Matrix.zero(B.field, ranks[i - 1] * B.dim, len(gens) * B.dim))
            else:
                ds.append(prev_incl.mul(cmap))
        ker = kernel_basis(cmap)
        cur, prev_incl = submodule_from_spanning(P, ker.columns())
    return tuple(ranks), tuple(ds)


def free_entry(B: ArtinAlgebra, flat: Matrix, s_out: int, s_in: int):
    """Algebra entry (s_out, s_in) of a flattened map between free modules."""
    col = flat.column(s_in * B.dim)
    return tuple(col[s_out * B.dim: (s_out + 1) * B.dim])


def ext_dims_via_resolution(M: FiniteModule, N: FiniteModule, steps: int) -> tuple:
    """dim_k Ext^n(M, N) for n = 0..steps via the minimal free resolution of M."""
    B = M.algebra
    f = B.field
    ranks, ds = minimal_free_resolution(M, steps + 1)

    def hom_map(step: int) -> Matrix:
        """Hom(P_{step-1}, N) -> Hom(P_step, N), precomposition with d_step."""
        b_src = ranks[step - 1]
        b_tgt = ranks[step]
        if b_src == 0 or b_tgt == 0:
            return Matrix.zero(f, b_tgt * N.dim, b_src * N.dim)
        d = ds[step - 1]
        out_m = [[f.zero] * (b_src * N.dim) for _ in range(b_tgt * N.dim)]
        for s in range(b_tgt):
            for sp in range(b_src):
                a_entry = free_entry(B, d, sp, s)
                act = N.act_element(a_entry)
                for r_i in range(N.dim):
                    for c_i in range(N.dim):
                        v = act.rows[r_i][c_i]
                        if v != f.zero:
                            out_m[s * N.dim + r_i][sp * N.dim + c_i] = f.add(
                                out_m[s * N.dim + r_i][sp * N.dim + c_i], v)
        return Matrix.from_rows(f, [tuple(r) for r in out_m], ncols=b_src * N.dim)

    out = []
    for n_idx in range(steps + 1):
        hom_n = ranks[n_idx] * N.dim
        incoming = hom_map(n_idx) if n_idx >= 1 else Matrix.zero(f, hom_n, 0)
        outgoing = hom_map(n_idx + 1) if n_idx + 1 <= steps + 1 and n_idx + 1 < len(ranks) \
            else Matrix.zero(f, 0, hom_n)
        zcount = hom_n - rank(outgoing)
        out.append(zcount - rank(incoming))
    return tuple(out)


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

    def hilbert(self, up_to: int) -> tuple:
        return tuple(self.dim_at(d) for d in range(up_to + 1))

    def is_zero_within_window(self) -> bool:
        return all(x == 0 for x in self.dims)

    def total_dim(self) -> int:
        return sum(self.dims)


def graded_free_module(A: MonomialAlgebra, gen_degrees, window: int) -> GradedModule:
    """Direct sum of A(-d) for d in gen_degrees, truncated at `window`."""
    f = A.field
    coords = {d: [(i, m) for i, g in enumerate(gen_degrees) for m in A.basis(d - g)]
              for d in range(window + 1)}
    dims = tuple(len(coords[d]) for d in range(window + 1))
    actions = []
    for v in range(A.nvars):
        ve = A.var_element(v)
        per_deg = []
        for d in range(window):
            src = coords[d]
            tgt = {c: i for i, c in enumerate(coords[d + 1])}
            cols = []
            for (i, m) in src:
                col = [f.zero] * len(tgt)
                prod = A.el_mul(((m, f.one),), ve)
                for pm, pc in prod:
                    key = (i, pm)
                    if key in tgt:
                        col[tgt[key]] = pc
                cols.append(col)
            per_deg.append(Matrix.from_columns(f, cols, nrows=len(tgt)))
        actions.append(tuple(per_deg))
    return GradedModule(A, dims, tuple(actions), window)


def graded_quotient_ring_module(A: MonomialAlgebra, kernel_var_indices, window: int) -> GradedModule:
    """A/(listed variables) as a graded module over A."""
    killed = set(kernel_var_indices)
    f = A.field
    basis = {d: [m for m in A.basis(d) if not any(m[i] for i in killed)] for d in range(window + 1)}
    dims = tuple(len(basis[d]) for d in range(window + 1))
    actions = []
    for v in range(A.nvars):
        ve = A.var_element(v)
        per = []
        for d in range(window):
            tgt = {m: i for i, m in enumerate(basis[d + 1])}
            cols = []
            for m in basis[d]:
                col = [f.zero] * len(tgt)
                if v not in killed and ve:
                    prod = A.el_mul(((m, f.one),), ve)
                    for pm, pc in prod:
                        if pm in tgt:
                            col[tgt[pm]] = pc
                cols.append(col)
            per.append(Matrix.from_columns(f, cols, nrows=len(tgt)))
        actions.append(tuple(per))
    return GradedModule(A, dims, tuple(actions), window)


def graded_nu(M: GradedModule) -> tuple:
    """(total count within window, per-degree generator counts)."""
    counts = []
    for d in range(M.window + 1):
        md = _graded_mM_at(M, d)
        counts.append(M.dim_at(d) - md.ncols)
    return sum(counts), tuple(counts)


def _graded_mM_at(M: GradedModule, d: int) -> Matrix:
    f = M.algebra.field
    cols = []
    if d >= 1:
        for v in range(M.algebra.nvars):
            cols.extend(M.act(v, d - 1).columns())
    if not cols:
        return Matrix.from_columns(f, [], nrows=M.dim_at(d))
    return column_space_basis(Matrix.from_columns(f, cols, nrows=M.dim_at(d)))


def graded_socle_degrees(M: GradedModule) -> list:
    """Degrees d < window with a nonzero element killed by every variable."""
    out = []
    f = M.algebra.field
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
    A = M.algebra
    total, per_deg = graded_nu(M)
    gen_degrees = [d for d in range(M.window + 1) for _ in range(per_deg[d])]
    if not gen_degrees:
        return GradedFreenessVerdict(True, 0, None, "zero module within window")
    P = graded_free_module(A, gen_degrees, M.window)
    gens = _graded_generator_columns(M, per_deg)
    cmaps = graded_cover_maps(M, P, gen_degrees, gens)
    for d in range(M.window + 1):
        if kernel_basis(cmaps[d]).ncols > 0:
            return GradedFreenessVerdict(False, None, d,
                                         f"cover has kernel in degree {d}")
    return GradedFreenessVerdict(None, total, None,
                                 f"free up to degree {M.window}")


def _graded_generator_columns(M: GradedModule, per_deg) -> dict:
    """Chosen generator vectors per degree (greedy complement of m*M)."""
    f = M.algebra.field
    out = {}
    for d in range(M.window + 1):
        if per_deg[d] == 0:
            out[d] = []
            continue
        std = Matrix.identity(f, M.dim_at(d))
        out[d] = [std.column(i) for i in independent_columns(_graded_mM_at(M, d), std)]
    return out


def graded_cover_maps(M: GradedModule, P: GradedModule, gen_degrees, gens) -> dict:
    """Degreewise matrices P_d -> M_d sending free generators to the chosen ones."""
    A = M.algebra
    f = A.field
    flat_gens = [(g, vec) for g in sorted(gens) for vec in gens[g]]
    # order must match graded_free_module coordinates: (generator index, monomial)
    coords = {d: [(i, m) for i, g in enumerate(gen_degrees) for m in A.basis(d - g)]
              for d in range(M.window + 1)}
    out = {}
    for d in range(M.window + 1):
        cols = []
        for (i, m) in coords[d]:
            g, vec = flat_gens[i]
            # image = m . vec, computed by iterated variable action
            img = vec
            deg = g
            for vi, e in enumerate(m):
                for _ in range(e):
                    img = M.act(vi, deg).apply(img)
                    deg += 1
            cols.append(img)
        out[d] = Matrix.from_columns(f, cols, nrows=M.dim_at(d))
    return out


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
            maps = []
            for m in amb:
                mat = None
                img_deg = d
                vec_map = Matrix.identity(f, M.dim_at(d))
                for vi, e in enumerate(m):
                    for _ in range(e):
                        vec_map = M.act(vi, img_deg).mul(vec_map)
                        img_deg += 1
                maps.append(vec_map)
            tgt_dim = maps[0].nrows if maps else 0
            for r_i in range(tgt_dim):
                for c_i in range(M.dim_at(d)):
                    rows.append(tuple(maps[k].rows[r_i][c_i] for k in range(len(amb))))
        # no rows means no constraints: the whole degree-da slice annihilates
        K = kernel_basis(Matrix.from_rows(f, rows, ncols=len(amb)))
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
