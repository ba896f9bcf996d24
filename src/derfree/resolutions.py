"""Minimal graded resolutions, Ext, Tor, and complexes of graded modules.

All computations are degreewise-exact inside the truncation window and are
reported together with it; nothing beyond the window is ever extrapolated.
A `GradedModuleComplex` offers the view by degree pieces of
`complexes.FreeComplex` (`window`, `dim_at`, `diff_matrix`, `act`), so its
homology comes from `complexes.graded_homology_dims` and `graded_homology`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .linalg import Matrix, block_diag, kernel_basis, rank
from .modules import (PLUS_INFINITY, GradedModule, graded_cover, graded_free_module,
                      graded_quotient_ring_module, graded_socle_degrees,
                      graded_subquotient_module)
from .monomial import MonomialAlgebra


@dataclass(frozen=True)
class ResolutionStep:
    gen_degrees: tuple
    # diff[j][g]: the algebra entry of the differential from generator g of
    # this free module to generator j of the previous one; empty for step 0
    diff: tuple


@dataclass(frozen=True)
class GradedResolution:
    algebra: MonomialAlgebra
    steps: tuple  # ResolutionStep per homological index
    window: int

    def betti(self) -> tuple:
        return tuple(len(s.gen_degrees) for s in self.steps)


def graded_minimal_resolution(M: GradedModule, steps: int) -> GradedResolution:
    """Iterated minimal covers; generator counts are exact inside the window."""
    A = M.algebra
    window = M.window
    out_steps = []
    cur = M
    prev_degrees = ()
    prev_incl = None  # per-degree kernel bases inside the previous free module
    for i in range(steps + 1):
        gen_degrees, gens, cmaps = graded_cover(cur)
        cols = []
        if i > 0:
            for d in gens:
                for v in gens[d].columns():
                    # the image of a degree-d generator, split by slot of P_{i-1}
                    terms = [[] for _ in prev_degrees]
                    for c, (j, m) in zip(prev_incl[d].apply(v), A.free_coords(prev_degrees, d)):
                        if c:
                            terms[j].append((m, c))
                    cols.append(terms)
        diff = tuple(tuple(tuple(col[j]) for col in cols) for j in range(len(prev_degrees)))
        out_steps.append(ResolutionStep(gen_degrees, diff))
        if not gen_degrees:
            # pad the remaining steps with zeros
            for _ in range(i + 1, steps + 1):
                out_steps.append(ResolutionStep((), ()))
            break
        P = graded_free_module(A, gen_degrees, window)
        ker_bases = {d: kernel_basis(cmaps[d]) for d in range(window + 1)}
        cur = graded_subquotient_module(A, P.act, {d: Matrix.zero(A.field, P.dim_at(d), 0)
                                                   for d in range(window + 1)},
                                        ker_bases, window)
        prev_degrees, prev_incl = gen_degrees, ker_bases
    return GradedResolution(A, tuple(out_steps), window)


# ---------------------------------------------------------------------------
# Ext against the residue field


def graded_ext_k_dims(M: GradedModule, steps: int) -> list:
    """dim_k Ext^n(k, M) for n = 0..steps, summed over the valid degree range.

    Returns a list of (n, total_dim, valid) where valid means the degree
    range inspected covers every degree in which Ext could be nonzero given
    the window.
    """
    A = M.algebra
    res = graded_minimal_resolution(
        graded_quotient_ring_module(A, range(A.nvars), M.window), steps + 1)
    out = []
    maxgen = [max(s.gen_degrees) if s.gen_degrees else 0 for s in res.steps]
    for n in range(steps + 1):
        gd_n = res.steps[n].gen_degrees
        lim = max(maxgen[n], maxgen[n + 1] if n + 1 < len(maxgen) else 0)
        t_lo = -max(gd_n) if gd_n else 0
        t_hi = M.window - lim
        total = 0
        for t in range(t_lo, t_hi + 1):
            total += _ext_dim_at(res, M, n, t)
        out.append((n, total, t_hi >= t_lo))
    return out


def _hom_space_dims(res: GradedResolution, M: GradedModule, n: int, t: int) -> list:
    """Coordinates of Hom(P_n, M)_t: per generator g, the space M_{t + deg g}."""
    return [t + g for g in res.steps[n].gen_degrees]


def _hom_matrix(res: GradedResolution, M: GradedModule, n: int, t: int) -> Matrix:
    """Hom(P_{n-1}, M)_t -> Hom(P_n, M)_t, precomposition with d_n."""
    f = res.algebra.field
    src_degs = _hom_space_dims(res, M, n - 1, t)
    tgt_degs = _hom_space_dims(res, M, n, t)
    src_dims = [M.dim_at(d) if d >= 0 else 0 for d in src_degs]
    tgt_dims = [M.dim_at(d) if d >= 0 else 0 for d in tgt_degs]
    out = [{} for _ in range(sum(tgt_dims))]
    diff = res.steps[n].diff
    row0 = 0
    for gi, tdim in enumerate(tgt_dims):
        col0 = 0
        for gj, sdim in enumerate(src_dims):
            e = diff[gj][gi]
            if tdim and sdim and e:
                # the action of e maps M_{t + deg gj} to M_{t + deg gi}
                for r_i, row in enumerate(M.act_element(e, src_degs[gj]).rows):
                    out[row0 + r_i].update((col0 + c, v) for c, v in row.items())
            col0 += sdim
        row0 += tdim
    return Matrix(f, len(out), sum(src_dims), tuple(out))


def _ext_dim_at(res: GradedResolution, M: GradedModule, n: int, t: int) -> int:
    hom_n = sum(M.dim_at(d) if d >= 0 else 0 for d in _hom_space_dims(res, M, n, t))
    if hom_n == 0:
        return 0
    incoming = _hom_matrix(res, M, n, t) if n >= 1 else None
    outgoing = _hom_matrix(res, M, n + 1, t) if n + 1 < len(res.steps) else None
    z = hom_n - (rank(outgoing) if outgoing is not None else 0)
    b = rank(incoming) if incoming is not None else 0
    return z - b


def graded_depth(M: GradedModule, bound: int):
    """(depth, exact): socle shortcut, then Ext^n(k, M) within the window."""
    if M.is_zero_within_window():
        return PLUS_INFINITY, True
    if graded_socle_degrees(M):
        return 0, True
    exts = graded_ext_k_dims(M, bound)
    for n, total, valid in exts:
        if total > 0:
            return n, True
        if not valid:
            return n, False
    return bound + 1, False


# ---------------------------------------------------------------------------
# complexes of graded modules and Tor against k


@dataclass(frozen=True)
class GradedModuleComplex:
    """Bounded complex of graded modules with degree-preserving differentials."""

    algebra: MonomialAlgebra
    low: int
    modules: tuple  # GradedModule per homological degree
    diffs: tuple  # diffs[i]: per internal degree, (M_{low+i+1})_d -> (M_{low+i})_d

    @property
    def top(self) -> int:
        return self.low + len(self.modules) - 1

    def module(self, i: int) -> GradedModule | None:
        if self.low <= i <= self.top:
            return self.modules[i - self.low]
        return None

    def dim_at(self, i: int, d: int) -> int:
        m = self.module(i)
        return m.dim_at(d) if m is not None else 0

    def diff_matrix(self, i: int, d: int) -> Matrix:
        f = self.algebra.field
        if self.low + 1 <= i <= self.top:
            return self.diffs[i - self.low - 1][d]
        return Matrix.zero(f, self.dim_at(i - 1, d), self.dim_at(i, d))

    def act(self, i: int, v: int, d: int) -> Matrix:
        """Variable v from degree d of M_i to degree d + 1."""
        return self.module(i).act(v, d)

    @property
    def window(self) -> int:
        return min(m.window for m in self.modules)

    def validate(self) -> list:
        issues = []
        w = self.window
        for i in range(self.low + 2, self.top + 1):
            for d in range(w + 1):
                comp = self.diff_matrix(i - 1, d).mul(self.diff_matrix(i, d))
                if not comp.is_zero():
                    issues.append(f"d^2 != 0 at homological degree {i}, internal degree {d}")
        for i in range(self.low + 1, self.top + 1):
            src = self.module(i)
            tgt = self.module(i - 1)
            for v in range(self.algebra.nvars):
                for d in range(w):
                    lhs = tgt.act(v, d).mul(self.diff_matrix(i, d))
                    rhs = self.diff_matrix(i, d + 1).mul(src.act(v, d))
                    if lhs != rhs:
                        issues.append(
                            f"differential at degree {i} is not linear over variable {v}")
        return issues


def module_as_complex(M: GradedModule, degree: int = 0) -> GradedModuleComplex:
    return GradedModuleComplex(M.algebra, degree, (M,), ())


def direct_sum_complex(C1: GradedModuleComplex, C2: GradedModuleComplex) -> GradedModuleComplex:
    A = C1.algebra
    f = A.field
    lo = min(C1.low, C2.low)
    hi = max(C1.top, C2.top)
    w = min(C1.window, C2.window)
    mods = []
    for i in range(lo, hi + 1):
        mods.append(_sum_modules(A, C1.module(i), C2.module(i), w))
    diffs = []
    for i in range(lo + 1, hi + 1):
        diffs.append(tuple(block_diag(Matrix, f, [C1.diff_matrix(i, d), C2.diff_matrix(i, d)])
                           for d in range(w + 1)))
    return GradedModuleComplex(A, lo, tuple(mods), tuple(diffs))


def _sum_modules(A, M1, M2, w) -> GradedModule:
    """M1 (+) M2 up to degree w; a missing summand (None) is zero."""
    mods = [M for M in (M1, M2) if M is not None]
    dims = tuple(sum(M.dim_at(d) for M in mods) for d in range(w + 1))
    actions = tuple(tuple(block_diag(Matrix, A.field, [M.act(v, d) for M in mods])
                          for d in range(w)) for v in range(A.nvars))
    return GradedModule(A, dims, actions, w)


def tor_k_dims(C: GradedModuleComplex, hom_bound: int) -> dict:
    """dim_k Tor_i(k, C) for i = C.low .. C.top + hom_bound, within the window.

    Computed as the homology of P (x) C for a minimal graded free resolution
    P of the residue field; returns {i: (total_dim, valid_range)}.
    """
    A = C.algebra
    f = A.field
    w = C.window
    res = graded_minimal_resolution(
        graded_quotient_ring_module(A, range(A.nvars), w), hom_bound + 1)
    maxgen = [max(s.gen_degrees) if s.gen_degrees else 0 for s in res.steps]

    def blocks(n: int, t: int) -> tuple:
        """({(j, q, gi): offset} of the nonzero blocks P_j (x) C_q of T_n at
        internal degree t, one per generator gi of P_j; and dim_k (T_n)_t)."""
        offsets, size = {}, 0
        for j in range(0, min(n - C.low, hom_bound + 1) + 1):
            q = n - j
            Mq = C.module(q)
            if Mq is None or j >= len(res.steps):
                continue
            for gi, g in enumerate(res.steps[j].gen_degrees):
                dim = Mq.dim_at(t - g) if t - g >= 0 else 0
                if dim:
                    offsets[(j, q, gi)] = size
                    size += dim
        return offsets, size

    @cache
    def action(q: int, el, d: int) -> tuple:
        """Rows of the action of a resolution entry el on (C_q)_d."""
        return C.module(q).act_element(el, d).rows

    @cache
    def tot_rank(n: int, t: int) -> int:
        """Rank of the total differential (T_n)_t -> (T_{n-1})_t."""
        src, nsrc = blocks(n, t)
        tgt, ntgt = blocks(n - 1, t)
        out = [{} for _ in range(ntgt)]

        def place(r0, c0, rows):
            for r_i, row in enumerate(rows):
                out[r0 + r_i].update((c0 + c, v) for c, v in row.items())

        for (j, q, gi), c0 in src.items():
            d_loc = t - res.steps[j].gen_degrees[gi]
            # horizontal: d_P (x) 1, one block per nonzero entry of d_P
            if j >= 1:
                for gj, row in enumerate(res.steps[j].diff):
                    r0 = tgt.get((j - 1, q, gj))
                    if row[gi] and r0 is not None:
                        place(r0, c0, action(q, row[gi], d_loc))
            # vertical: (-1)^j 1 (x) d_C
            r0 = tgt.get((j, q - 1, gi))
            if r0 is not None:
                dC = C.diff_matrix(q, d_loc)
                place(r0, c0, (dC.neg() if j % 2 else dC).rows)
        return rank(Matrix(f, ntgt, nsrc, tuple(out)))

    out = {}
    for i in range(C.low, C.top + hom_bound + 1):
        total = 0
        lim = max(maxgen[: min(len(maxgen), i - C.low + 2)] or [0])
        t_hi = w - lim
        for t in range(0, max(t_hi, -1) + 1):
            total += blocks(i, t)[1] - tot_rank(i, t) - tot_rank(i + 1, t)
        # total counts classes of internal degree <= t_hi only; degrees above
        # the window are never extrapolated
        out[i] = (total, t_hi)
    return out
