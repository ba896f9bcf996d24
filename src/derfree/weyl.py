"""Graded representations of the skew Weyl algebra and the structure map.

The algebra has degree +1 generators s_1..s_p and degree -1 generators
t_1..t_p subject to s_i t_j + t_j s_i = delta_ij.  Bounded graded modules
over it are forced to be free over the exterior algebra on the s_i; the
structure map certifies this degreewise.  Never materialized symbolically:
only finite-dimensional representations over the residue field appear.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .complexes import AMatrix, ChainMap, FreeComplex, scalar_endo
from .homotopy import homotopy_defects
from .koszul import koszul, subsets, wedge_sign
from .linalg import Matrix, invert


class WeylError(ValueError):
    pass


class NotChainMap(WeylError):
    pass


class NotInvertibleModM(WeylError):
    pass


@dataclass(frozen=True)
class WModuleRep:
    """dims[d] for d = 0..top; S[i][d]: V_d -> V_{d+1}; T[i][d]: V_{d+1} -> V_d."""

    field: object
    p: int
    dims: tuple
    S: tuple  # S[i] is a tuple of length top (maps leaving degree d)
    T: tuple  # T[i][d] maps V_{d+1} -> V_d

    @property
    def top(self) -> int:
        return len(self.dims) - 1

    def dim_at(self, d: int) -> int:
        return self.dims[d] if 0 <= d <= self.top else 0

    def s_map(self, i: int, d: int) -> Matrix:
        """s_{i+1} acting V_d -> V_{d+1} (i is 0-based)."""
        if 0 <= d < self.top:
            return self.S[i][d]
        return Matrix.zero(self.field, self.dim_at(d + 1), self.dim_at(d))

    def t_map(self, i: int, d: int) -> Matrix:
        """t_{i+1} acting V_d -> V_{d-1}."""
        if 1 <= d <= self.top:
            return self.T[i][d - 1]
        return Matrix.zero(self.field, self.dim_at(d - 1), self.dim_at(d))

    def word_matrix(self, word, d: int) -> Matrix:
        """Apply a word of ('s'|'t', index) letters, rightmost letter first."""
        cur_deg = d
        out = Matrix.identity(self.field, self.dim_at(d))
        for kind, i in reversed(word):
            if kind == "s":
                out = self.s_map(i, cur_deg).mul(out)
                cur_deg += 1
            else:
                out = self.t_map(i, cur_deg).mul(out)
                cur_deg -= 1
        return out


def exterior_model(field, p: int, coeff_dim: int) -> WModuleRep:
    """Exterior algebra on p letters tensor k^coeff_dim; s = wedge, t = contraction."""
    dims = tuple(len(subsets(p, n)) * coeff_dim for n in range(p + 1))
    S = []
    T = []
    for i in range(p):
        s_per = []
        t_per = []
        for d in range(p):
            src = subsets(p, d)
            tgt = subsets(p, d + 1)
            tgt_index = {I: k for k, I in enumerate(tgt)}
            s_rows = [[field.zero] * (len(src) * coeff_dim)
                      for _ in range(len(tgt) * coeff_dim)]
            t_rows = [[field.zero] * (len(tgt) * coeff_dim)
                      for _ in range(len(src) * coeff_dim)]
            for col, I in enumerate(src):
                if i in I:
                    continue
                J = tuple(sorted(I + (i,)))
                sgn = wedge_sign(i, I)
                val = field.one if sgn == 1 else field.neg(field.one)
                for s_i in range(coeff_dim):
                    s_rows[tgt_index[J] * coeff_dim + s_i][col * coeff_dim + s_i] = val
            for col, J in enumerate(tgt):
                if i not in J:
                    continue
                pos = J.index(i)
                I = J[:pos] + J[pos + 1:]
                src_index = {Ii: k for k, Ii in enumerate(src)}
                val = field.one if pos % 2 == 0 else field.neg(field.one)
                for s_i in range(coeff_dim):
                    t_rows[src_index[I] * coeff_dim + s_i][col * coeff_dim + s_i] = val
            s_per.append(Matrix.from_rows(field, [tuple(r) for r in s_rows],
                                          ncols=len(src) * coeff_dim))
            t_per.append(Matrix.from_rows(field, [tuple(r) for r in t_rows],
                                          ncols=len(tgt) * coeff_dim))
        S.append(tuple(s_per))
        T.append(tuple(t_per))
    return WModuleRep(field, p, dims, tuple(S), tuple(T))


def conjugate(rep: WModuleRep, gs: list) -> WModuleRep:
    """Transport along degreewise invertible matrices g_d."""
    inv = [invert(g) for g in gs]
    if any(g is None for g in inv):
        raise WeylError("conjugating matrices must be invertible")
    S = []
    T = []
    for i in range(rep.p):
        S.append(tuple(gs[d + 1].mul(rep.s_map(i, d)).mul(inv[d]) for d in range(rep.top)))
        T.append(tuple(gs[d].mul(rep.t_map(i, d + 1)).mul(inv[d + 1]) for d in range(rep.top)))
    return WModuleRep(rep.field, rep.p, rep.dims, tuple(S), tuple(T))


def random_graded_conjugate(rep: WModuleRep, rng) -> WModuleRep:
    f = rep.field
    gs = []
    for d in range(rep.top + 1):
        n = rep.dim_at(d)
        rows = [[f.one if i == j else f.zero for j in range(n)] for i in range(n)]
        for _ in range(2 * n):
            i, j = rng.randrange(n) if n else 0, rng.randrange(n) if n else 0
            if n == 0 or i == j:
                continue
            c = f.from_int(rng.randrange(1, 7))
            rows[i] = [f.add(a, f.mul(c, b)) for a, b in zip(rows[i], rows[j])]
        gs.append(Matrix.from_rows(f, [tuple(r) for r in rows], ncols=n))
    return conjugate(rep, gs)


# ---------------------------------------------------------------------------
# relation checks


@dataclass(frozen=True)
class WeylReport:
    failures: tuple  # (identity, i, j, degree)

    @property
    def passed(self) -> bool:
        return not self.failures

    def as_dict(self):
        return {"passed": self.passed,
                "failures": [{"identity": a, "i": b, "j": c, "degree": d}
                             for a, b, c, d in self.failures]}


def check_weyl_relations(rep: WModuleRep, extended: bool = True) -> WeylReport:
    """s_i t_j + t_j s_i = delta_ij in every degree; extended mode also checks
    the exterior-type vanishings and the centrality identities."""
    f = rep.field
    fails = []
    for i in range(rep.p):
        for j in range(rep.p):
            for d in range(rep.top + 1):
                st = rep.s_map(i, d - 1).mul(rep.t_map(j, d))
                ts = rep.t_map(j, d + 1).mul(rep.s_map(i, d))
                total = st.add(ts)
                expect = Matrix.identity(f, rep.dim_at(d)) if i == j \
                    else Matrix.zero(f, rep.dim_at(d), rep.dim_at(d))
                if total != expect:
                    fails.append(("s_i t_j + t_j s_i = delta", i, j, d))
    if extended:
        for i in range(rep.p):
            for j in range(i, rep.p):
                for d in range(rep.top + 1):
                    ss = rep.s_map(i, d + 1).mul(rep.s_map(j, d)).add(
                        rep.s_map(j, d + 1).mul(rep.s_map(i, d)))
                    if not ss.is_zero():
                        fails.append(("s_i s_j + s_j s_i = 0", i, j, d))
                    tt = rep.t_map(i, d - 1).mul(rep.t_map(j, d)).add(
                        rep.t_map(j, d - 1).mul(rep.t_map(i, d)))
                    if not tt.is_zero():
                        fails.append(("t_i t_j + t_j t_i = 0", i, j, d))
        for i in range(rep.p):
            for k in range(rep.p):
                for d in range(rep.top + 1):
                    s2 = rep.word_matrix((("s", i), ("s", i)), d)
                    if not s2.is_zero():
                        fails.append(("s_i^2 = 0", i, i, d))
                    lhs = rep.word_matrix((("s", i), ("s", i), ("t", k)), d)
                    rhs = rep.word_matrix((("t", k), ("s", i), ("s", i)), d)
                    if lhs != rhs:
                        fails.append(("[s_i^2, t_k] = 0", i, k, d))
    return WeylReport(tuple(fails))


def _word_s(I) -> tuple:
    return tuple(("s", i) for i in I)


def _word_t_op(I) -> tuple:
    return tuple(("t", i) for i in reversed(I))


def check_lemmaA1(rep: WModuleRep, I: tuple) -> bool:
    """t_op(I) s_I = sum over subsets J of (-1)^|J| s_J t_op(J), and mirrored."""
    f = rep.field
    for d in range(rep.top + 1):
        lhs = rep.word_matrix(_word_t_op(I) + _word_s(I), d)
        n = rep.dim_at(d)
        rhs = Matrix.zero(f, n, n)
        for r in range(len(I) + 1):
            for J in itertools.combinations(I, r):
                m = rep.word_matrix(_word_s(J) + _word_t_op(J), d)
                rhs = rhs.add(m) if r % 2 == 0 else rhs.sub(m)
        if lhs != rhs:
            return False
        lhs2 = rep.word_matrix(_word_s(I) + _word_t_op(I), d)
        rhs2 = Matrix.zero(f, n, n)
        for r in range(len(I) + 1):
            for J in itertools.combinations(I, r):
                m = rep.word_matrix(_word_t_op(J) + _word_s(J), d)
                rhs2 = rhs2.add(m) if r % 2 == 0 else rhs2.sub(m)
        if lhs2 != rhs2:
            return False
    return True


# ---------------------------------------------------------------------------
# structure map


@dataclass(frozen=True)
class StructureMapResult:
    iso: bool
    matrices: tuple  # per degree 0..p
    failure_degree: int | None
    dims_law: bool  # dim V_i = C(p, i) * dim V_0
    nonvanishing: bool  # V_i != 0 for 0 <= i <= p

    def as_dict(self):
        return {"iso": self.iso, "failure_degree": self.failure_degree,
                "dims_law": self.dims_law, "nonvanishing": self.nonvanishing}


def structure_map(rep: WModuleRep) -> StructureMapResult:
    """phi(s_I (x) v) = S_I v, certified bijective degreewise."""
    if rep.dim_at(0) == 0:
        raise WeylError("structure map needs V_0 != 0")
    if rep.top > rep.p and any(rep.dim_at(d) for d in range(rep.p + 1, rep.top + 1)):
        raise WeylError("structure map needs V_i = 0 above degree p")
    f = rep.field
    v0 = rep.dim_at(0)
    mats = []
    iso = True
    failure = None
    for n in range(rep.p + 1):
        blocks = []
        for I in subsets(rep.p, n):
            blocks.append(rep.word_matrix(_word_s(I), 0))
        cols = []
        for b in blocks:
            cols.extend(b.columns())
        phi_n = Matrix.from_columns(f, cols, nrows=rep.dim_at(n))
        mats.append(phi_n)
        if phi_n.nrows != phi_n.ncols or (phi_n.nrows and invert(phi_n) is None):
            iso = False
            if failure is None:
                failure = n
    from math import comb
    dims_law = all(rep.dim_at(i) == comb(rep.p, i) * v0 for i in range(rep.p + 1))
    nonvanishing = all(rep.dim_at(i) > 0 for i in range(rep.p + 1))
    return StructureMapResult(iso, tuple(mats), failure, dims_law, nonvanishing)


# ---------------------------------------------------------------------------
# the Koszul lift over the Artinian backend


@dataclass(frozen=True)
class KoszulLift:
    koszul_complex: FreeComplex
    target: FreeComplex
    phi: ChainMap
    multiplicity: int


def koszul_lift(F: FreeComplex, xs, hs) -> KoszulLift:
    """Assemble Phi: K(x) (x) F_0 -> F from homotopies with x_i id = d h_i + h_i d.

    Requires F minimal and each witness exact for its element; the map is
    checked to be a chain map and invertible modulo m.  A square matrix over
    a local ring is invertible exactly when it is invertible modulo m, so
    that check certifies invertibility over the ring.
    """
    A = F.algebra
    if A.kind != "artinian":
        raise WeylError("koszul_lift runs on the Artinian backend")
    if not F.is_minimal():
        raise WeylError("koszul_lift needs a minimal complex")
    if F.low != 0:
        raise WeylError("koszul_lift expects the complex to start in degree 0")
    p = len(xs)
    for x, h in zip(xs, hs):
        if homotopy_defects(scalar_endo(F, x), h):
            raise WeylError("witness does not bound x_i * id exactly")
    b = F.rank(0)
    K = koszul(A, list(xs), multiplicity=b).complex
    comps = {}
    for n in range(p + 1):
        blocks = []
        for I in subsets(p, n):
            m = AMatrix.identity(A, b)
            deg = 0
            for idx in reversed(I):
                m = hs[idx].component(deg).mul(m)
                deg += 1
            blocks.append(m)  # shape rank F_n x b
        acc = None
        for m in blocks:
            acc = m if acc is None else acc.hstack(m)
        if acc is None:
            acc = AMatrix.zero(A, F.rank(n), 0)
        comps[n] = acc
    phi = ChainMap.from_dict(K, F, comps)
    defects = phi.chain_defects()
    if defects:
        raise NotChainMap(f"Phi fails the chain condition at degrees {defects}")
    for n in range(p + 1):
        reduced = comps[n].mod_m()
        if reduced.nrows != reduced.ncols or (reduced.nrows and invert(reduced) is None):
            raise NotInvertibleModM(f"Phi is not invertible mod m in degree {n}")
    return KoszulLift(K, F, phi, b)


# ---------------------------------------------------------------------------
# reduction of the constructive data mod m


def differential_coefficient_matrices(F: FreeComplex, adapted) -> list:
    """Write d = sum_j x_j d_j over the adapted basis; return the scalar d_j.

    Returns, for each adapted-basis position j, a dict degree -> Matrix over
    k giving the reduction of d_j mod m (canonical: it is the x_j-coefficient
    of each entry modulo m^2).
    """
    A = F.algebra
    f = A.field
    out = [dict() for _ in range(adapted.n)]
    for i in range(F.low + 1, F.top + 1):
        d = F.diff(i)
        per_j = [[[f.zero] * d.ncols for _ in range(d.nrows)] for _ in range(adapted.n)]
        for r in range(d.nrows):
            for c in range(d.ncols):
                e = d.entries[r][c]
                if A.el_is_zero(e):
                    continue
                coords = adapted.coords_mod_m2(e)
                for j, v in enumerate(coords):
                    per_j[j][r][c] = v
        for j in range(adapted.n):
            out[j][i] = Matrix.from_rows(f, [tuple(row) for row in per_j[j]], ncols=d.ncols)
    return out


def weyl_rep_from_witnesses(F: FreeComplex, adapted, indices, hs) -> WModuleRep:
    """Reduce homotopies and differential coefficients mod m into a W-module.

    `indices` selects which adapted-basis positions play s_1..s_p; hs[i] is
    the homotopy bounding x_{indices[i]} * id (or its corrected version).
    """
    A = F.algebra
    f = A.field
    if F.low != 0:
        raise WeylError("expected a complex in degrees 0..top")
    dims = tuple(F.ranks)
    top = len(dims) - 1
    coeffs = differential_coefficient_matrices(F, adapted)
    S = []
    T = []
    for pos, h in zip(indices, hs):
        s_per = []
        t_per = []
        for d in range(top):
            s_per.append(h.component(d).mod_m())
            t_per.append(coeffs[pos].get(d + 1, Matrix.zero(f, dims[d], dims[d + 1])))
        S.append(tuple(s_per))
        T.append(tuple(t_per))
    return WModuleRep(f, len(indices), dims, tuple(S), tuple(T))
