"""Minimal graded resolutions, Ext, Tor, and complexes of graded modules.

All computations are degreewise-exact inside the truncation window and are
reported together with it; nothing beyond the window is ever extrapolated.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import (Matrix, column_space_basis, independent_columns, kernel_basis,
                     rank, solve_multi)
from .modules import (GradedModule, _graded_generator_columns,
                      graded_cover_maps, graded_free_module, graded_nu)
from .monomial import MonomialAlgebra


def k_graded_module(A: MonomialAlgebra, window: int | None = None) -> GradedModule:
    w = A.truncation if window is None else window
    f = A.field
    dims = tuple(1 if d == 0 else 0 for d in range(w + 1))
    actions = []
    for v in range(A.nvars):
        per = [Matrix.zero(f, dims[d + 1], dims[d]) for d in range(w)]
        actions.append(tuple(per))
    return GradedModule(A, dims, tuple(actions), w)


def monomial_action_matrix(M: GradedModule, mono, d: int) -> Matrix:
    """Action of a monomial as a map M_d -> M_{d+|mono|}."""
    out = Matrix.identity(M.algebra.field, M.dim_at(d))
    deg = d
    for vi, e in enumerate(mono):
        for _ in range(e):
            out = M.act(vi, deg).mul(out)
            deg += 1
    return out


def element_action_matrix(M: GradedModule, el, d: int) -> Matrix:
    """Action of a homogeneous element as a map out of M_d."""
    A = M.algebra
    f = A.field
    da = A.el_degree(el)
    acc = Matrix.zero(f, M.dim_at(d + da), M.dim_at(d))
    for mono, coeff in el:
        acc = acc.add(monomial_action_matrix(M, mono, d).scale(coeff))
    return acc


@dataclass(frozen=True)
class ResolutionStep:
    gen_degrees: tuple
    # images[g] = coordinate vector of the g-th generator inside the previous
    # free module's internal-degree slice (its own degree); empty for step 0
    images: tuple


@dataclass(frozen=True)
class GradedResolution:
    algebra: MonomialAlgebra
    steps: tuple  # ResolutionStep per homological index
    window: int

    def betti(self) -> tuple:
        return tuple(len(s.gen_degrees) for s in self.steps)

    def free_coords(self, i: int, d: int) -> list:
        """(generator index, monomial) coordinates of P_i in internal degree d."""
        A = self.algebra
        out = []
        for gi, g in enumerate(self.steps[i].gen_degrees):
            if d - g >= 0:
                out.extend((gi, m) for m in A.basis(d - g))
    # note: free modules here always follow graded_free_module's ordering
        return out

    def diff_matrix(self, i: int, d: int) -> Matrix:
        """d_i : (P_i)_d -> (P_{i-1})_d as a k-matrix."""
        A = self.algebra
        f = A.field
        src = self.free_coords(i, d)
        tgt = self.free_coords(i - 1, d)
        tgt_index = {c: k for k, c in enumerate(tgt)}
        step = self.steps[i]
        prev_coords_cache = {}
        cols = []
        for (gi, m) in src:
            g = step.gen_degrees[gi]
            img = step.images[gi]  # vector in (P_{i-1})_g coordinates
            gslice = prev_coords_cache.get(g)
            if gslice is None:
                gslice = self.free_coords(i - 1, g)
                prev_coords_cache[g] = gslice
            col = [f.zero] * len(tgt)
            for coeff, (gj, mono) in zip(img, gslice):
                if coeff == f.zero:
                    continue
                prod = A.el_mul(((mono, f.one),), ((m, f.one),))
                for pm, pc in prod:
                    key = (gj, pm)
                    if key in tgt_index:
                        col[tgt_index[key]] = f.add(col[tgt_index[key]], f.mul(coeff, pc))
            cols.append(col)
        return Matrix.from_columns(f, cols, nrows=len(tgt))


def graded_minimal_resolution(M: GradedModule, steps: int) -> GradedResolution:
    """Iterated minimal covers; generator counts are exact inside the window."""
    A = M.algebra
    f = A.field
    window = M.window
    out_steps = []
    cur = M
    prev_incl = None  # per-degree kernel bases inside the previous free module
    for i in range(steps + 1):
        total, per_deg = graded_nu(cur)
        gen_degrees = tuple(d for d in range(window + 1) for _ in range(per_deg[d]))
        gens = _graded_generator_columns(cur, per_deg)
        if i == 0:
            images = tuple(tuple(v) for d in sorted(gens) for v in gens[d])
        else:
            imgs = []
            for d in sorted(gens):
                for v in gens[d]:
                    imgs.append(tuple(prev_incl[d].apply(v)))
            images = tuple(imgs)
        out_steps.append(ResolutionStep(gen_degrees, images))
        if not gen_degrees:
            # pad the remaining steps with zeros
            for _ in range(i + 1, steps + 1):
                out_steps.append(ResolutionStep((), ()))
            break
        P = graded_free_module(A, gen_degrees, window)
        cmaps = graded_cover_maps(cur, P, gen_degrees, gens)
        ker_bases = {d: kernel_basis(cmaps[d]) for d in range(window + 1)}
        cur = _kernel_module(P, ker_bases)
        prev_incl = ker_bases
    return GradedResolution(A, tuple(out_steps), window)


def _kernel_module(P: GradedModule, ker_bases: dict) -> GradedModule:
    A = P.algebra
    f = A.field
    window = P.window
    dims = tuple(ker_bases[d].ncols for d in range(window + 1))
    actions = []
    for v in range(A.nvars):
        per = []
        for d in range(window):
            src = ker_bases[d]
            tgt = ker_bases[d + 1]
            imgs = [P.act(v, d).apply(c) for c in src.columns()]
            sols = solve_multi(tgt, imgs) if imgs else []
            cols = []
            for s in sols:
                if s is None:
                    raise AssertionError("kernel is not action-invariant")
                cols.append(s)
            per.append(Matrix.from_columns(f, cols, nrows=tgt.ncols) if cols
                       else Matrix.zero(f, tgt.ncols, 0))
        actions.append(tuple(per))
    return GradedModule(A, dims, tuple(actions), window)


# ---------------------------------------------------------------------------
# Ext against the residue field


def graded_ext_k_dims(M: GradedModule, steps: int) -> list:
    """dim_k Ext^n(k, M) for n = 0..steps, summed over the valid degree range.

    Returns a list of (n, total_dim, valid) where valid means the degree
    range inspected covers every degree in which Ext could be nonzero given
    the window.
    """
    A = M.algebra
    res = graded_minimal_resolution(k_graded_module(A, M.window), steps + 1)
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
    A = res.algebra
    f = A.field
    src_degs = _hom_space_dims(res, M, n - 1, t)
    tgt_degs = _hom_space_dims(res, M, n, t)
    src_dims = [M.dim_at(d) if d >= 0 else 0 for d in src_degs]
    tgt_dims = [M.dim_at(d) if d >= 0 else 0 for d in tgt_degs]
    rows_total = sum(tgt_dims)
    cols_total = sum(src_dims)
    out = [[f.zero] * cols_total for _ in range(rows_total)]
    step = res.steps[n]
    prev_degs = res.steps[n - 1].gen_degrees
    row0 = 0
    for gi, g in enumerate(step.gen_degrees):
        img = step.images[gi]
        gslice = res.free_coords(n - 1, g)
        col0 = 0
        for gj, gdeg in enumerate(prev_degs):
            src_deg = t + gdeg
            if src_deg < 0 or M.dim_at(src_deg) == 0:
                col0 += src_dims[gj]
                continue
            # coefficient of generator gj with monomial m in img
            acc = Matrix.zero(f, tgt_dims[gi], src_dims[gj]) if tgt_dims[gi] else None
            for coeff, (gj2, mono) in zip(img, gslice):
                if gj2 != gj or coeff == f.zero:
                    continue
                mat = monomial_action_matrix(M, mono, src_deg)
                # mat: M_{src_deg} -> M_{src_deg + |mono|} = M_{t + g}
                if acc is not None:
                    acc = acc.add(mat.scale(coeff))
            if acc is not None and tgt_dims[gi]:
                for r_i in range(tgt_dims[gi]):
                    for c_i in range(src_dims[gj]):
                        out[row0 + r_i][col0 + c_i] = acc.rows[r_i][c_i]
            col0 += src_dims[gj]
        row0 += tgt_dims[gi]
    return Matrix.from_rows(f, [tuple(r) for r in out], ncols=cols_total)


def _ext_dim_at(res: GradedResolution, M: GradedModule, n: int, t: int) -> int:
    hom_n = sum(M.dim_at(d) if d >= 0 else 0 for d in _hom_space_dims(res, M, n, t))
    if hom_n == 0:
        return 0
    incoming = _hom_matrix(res, M, n, t) if n >= 1 else None
    outgoing = _hom_matrix(res, M, n + 1, t) if n + 1 < len(res.steps) else None
    z = hom_n - (rank(outgoing) if outgoing is not None else 0)
    b = rank(incoming) if incoming is not None else 0
    return z - b


def graded_depth(M: GradedModule, bound: int = 4):
    """(depth, exact): socle shortcut, then Ext^n(k, M) within the window."""
    from .modules import PLUS_INFINITY
    if M.is_zero_within_window():
        return PLUS_INFINITY, True
    from .modules import graded_socle_degrees
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

    def homology_dims(self, i: int) -> tuple:
        w = self.window
        out = []
        for d in range(w + 1):
            dn = self.diff_matrix(i, d)
            dn1 = self.diff_matrix(i + 1, d)
            out.append(self.dim_at(i, d) - rank(dn) - rank(dn1))
        return tuple(out)

    def h0_module(self) -> GradedModule:
        """H_low as a graded module (representatives modulo boundaries)."""
        A = self.algebra
        f = A.field
        w = self.window
        i = self.low
        reps = {}
        bnd = {}
        for d in range(w + 1):
            B = column_space_basis(self.diff_matrix(i + 1, d))
            bnd[d] = B
            std = Matrix.identity(f, self.dim_at(i, d))
            reps[d] = [std.column(j) for j in independent_columns(B, std)]
        dims = tuple(len(reps[d]) for d in range(w + 1))
        actions = []
        M0 = self.module(i)
        for v in range(A.nvars):
            per = []
            for d in range(w):
                tgt_cols = Matrix.from_columns(f, reps[d + 1], nrows=self.dim_at(i, d + 1)) \
                    if reps[d + 1] else Matrix.from_columns(f, [], nrows=self.dim_at(i, d + 1))
                both = bnd[d + 1].hstack(tgt_cols)
                imgs = [M0.act(v, d).apply(r) for r in reps[d]]
                sols = solve_multi(both, imgs) if imgs else []
                cols = [tuple(s[bnd[d + 1].ncols:]) for s in sols]
                per.append(Matrix.from_columns(f, cols, nrows=len(reps[d + 1])) if cols
                           else Matrix.zero(f, len(reps[d + 1]), 0))
            actions.append(tuple(per))
        return GradedModule(A, dims, tuple(actions), w)


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
        per = []
        for d in range(w + 1):
            m1 = C1.diff_matrix(i, d)
            m2 = C2.diff_matrix(i, d)
            top = m1.hstack(Matrix.zero(f, m1.nrows, m2.ncols))
            bot = Matrix.zero(f, m2.nrows, m1.ncols).hstack(m2)
            per.append(top.vstack(bot))
        diffs.append(tuple(per))
    return GradedModuleComplex(A, lo, tuple(mods), tuple(diffs))


def _sum_modules(A, M1, M2, w) -> GradedModule:
    f = A.field
    z = GradedModule(A, tuple(0 for _ in range(w + 1)),
                     tuple(tuple(Matrix.zero(f, 0, 0) for _ in range(w))
                           for _ in range(A.nvars)), w)
    M1 = M1 if M1 is not None else z
    M2 = M2 if M2 is not None else z
    dims = tuple(M1.dim_at(d) + M2.dim_at(d) for d in range(w + 1))
    actions = []
    for v in range(A.nvars):
        per = []
        for d in range(w):
            a1 = M1.act(v, d)
            a2 = M2.act(v, d)
            top = a1.hstack(Matrix.zero(f, a1.nrows, a2.ncols))
            bot = Matrix.zero(f, a2.nrows, a1.ncols).hstack(a2)
            per.append(top.vstack(bot))
        actions.append(tuple(per))
    return GradedModule(A, dims, tuple(actions), w)


def tor_k_dims(C: GradedModuleComplex, hom_bound: int) -> dict:
    """dim_k Tor_i(k, C) for i = C.low .. C.top + hom_bound, within the window.

    Computed as the homology of P (x) C for a minimal graded free resolution
    P of the residue field; returns {i: (total_dim, valid_range)}.
    """
    A = C.algebra
    w = C.window
    res = graded_minimal_resolution(k_graded_module(A, w), hom_bound + 1)
    maxgen = [max(s.gen_degrees) if s.gen_degrees else 0 for s in res.steps]

    def tot_coords(n: int, t: int) -> list:
        """[(j, q, gi, local index)] coordinates of T_n at internal degree t."""
        out = []
        for j in range(0, min(n - C.low, hom_bound + 1) + 1):
            q = n - j
            Mq = C.module(q)
            if Mq is None or j >= len(res.steps):
                continue
            for gi, g in enumerate(res.steps[j].gen_degrees):
                dim = Mq.dim_at(t - g) if t - g >= 0 else 0
                for li in range(dim):
                    out.append((j, q, gi, li))
        return out

    def tot_diff(n: int, t: int) -> Matrix:
        f = A.field
        src = tot_coords(n, t)
        tgt = tot_coords(n - 1, t)
        tgt_index = {c: k for k, c in enumerate(tgt)}
        cols = []
        for (j, q, gi, li) in src:
            col = [f.zero] * len(tgt)
            Mq = C.module(q)
            g = res.steps[j].gen_degrees[gi]
            d_loc = t - g
            # horizontal: d_P (x) 1
            if j >= 1:
                img = res.steps[j].images[gi]
                gslice = res.free_coords(j - 1, g)
                for coeff, (gj, mono) in zip(img, gslice):
                    if coeff == f.zero:
                        continue
                    gprev = res.steps[j - 1].gen_degrees[gj]
                    mat = monomial_action_matrix(Mq, mono, d_loc)
                    # lands in Mq_{d_loc + |mono|} = Mq_{t - gprev}
                    for r_i in range(mat.nrows):
                        v = mat.rows[r_i][li]
                        if v != f.zero:
                            key = (j - 1, q, gj, r_i)
                            if key in tgt_index:
                                col[tgt_index[key]] = f.add(col[tgt_index[key]],
                                                            f.mul(coeff, v))
            # vertical: (-1)^j 1 (x) d_C
            dC = C.diff_matrix(q, d_loc) if d_loc >= 0 else None
            if dC is not None and dC.nrows:
                sgn = f.neg(f.one) if j % 2 else f.one
                for r_i in range(dC.nrows):
                    v = dC.rows[r_i][li]
                    if v != f.zero:
                        key = (j, q - 1, gi, r_i)
                        if key in tgt_index:
                            col[tgt_index[key]] = f.add(col[tgt_index[key]], f.mul(sgn, v))
            cols.append(col)
        return Matrix.from_columns(f, cols, nrows=len(tgt))

    out = {}
    for i in range(C.low, C.top + hom_bound + 1):
        total = 0
        lim = max(maxgen[: min(len(maxgen), i - C.low + 2)] or [0])
        t_hi = w - lim
        for t in range(0, max(t_hi, -1) + 1):
            dn = tot_diff(i, t)
            dn1 = tot_diff(i + 1, t)
            n_dim = len(tot_coords(i, t))
            total += n_dim - rank(dn) - rank(dn1)
        # total counts classes of internal degree <= t_hi only; degrees above
        # the window are never extrapolated
        out[i] = (total, t_hi)
    return out
