"""Derived-action certificates and their verification.

A certificate names chain endomorphisms for the generators of B as an
A-algebra and a list of relation polynomials that must be null-homotopic,
each either with an explicit homotopy witness or discharged by the solver.
A verified certificate induces an honest B-module structure on homology;
the weaker homology-level action is checked separately without any
homotopy data.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from . import exprs
from .complexes import (AMatrix, ChainMap, FreeComplex, graded_homology,
                        homology, scalar_endo)
from .homotopy import Homotopy, homotopy_defects, solve_homotopy
from .linalg import Matrix
from .modules import FiniteModule, element_action_matrix
from .morphism import AlgebraMorphism


class CertificateError(ValueError):
    pass


class RelationFailsOnHomology(CertificateError):
    pass


@dataclass(frozen=True)
class ActionCertificate:
    morphism: AlgebraMorphism
    generators: tuple  # (name, ChainMap) pairs; endomorphisms of the same complex
    relations: tuple  # (poly, witness) with witness None ("solve") or Homotopy

    def generator(self, name: str) -> ChainMap:
        for n, g in self.generators:
            if n == name:
                return g
        raise KeyError(name)


class _EndoEnv(exprs.RingEnv):
    """Evaluate noncommutative polynomials as chain endomorphisms."""

    def __init__(self, F: FreeComplex, gens: dict):
        from .complexes import identity_map
        self.F = F
        self.gens = gens
        super().__init__(
            lambda a, b: a.add(b), lambda a, b: a.sub(b),
            lambda a: ChainMap(a.source, a.target, tuple((d, m.neg()) for d, m in a.maps)),
            lambda a, b: a.compose(b), lambda: identity_map(F))

    def integer(self, n: int):
        A = self.F.algebra
        return scalar_endo(self.F, A.el_scale(A.field.from_int(n), A.one))

    def rational(self, num: int, den: int):
        A = self.F.algebra
        f = A.field
        return scalar_endo(self.F, A.el_scale(f.div(f.from_int(num), f.from_int(den)), A.one))

    def lookup(self, name: str, pos: int):
        if name in self.gens:
            return self.gens[name]
        el = self.F.algebra.named_element(name)
        if el is None:
            raise exprs.ExprError(f"unknown name {name!r} in relation", pos)
        return scalar_endo(self.F, el)


def evaluate_relation(F: FreeComplex, gens: dict, poly: str) -> ChainMap:
    return exprs.evaluate(poly, _EndoEnv(F, gens))


@dataclass(frozen=True)
class RelationCheck:
    poly: str
    mode: str  # "exact", "witness", "solved"
    passed: bool
    residual_degrees: tuple

    def as_dict(self):
        return {"poly": self.poly, "mode": self.mode, "passed": self.passed,
                "residual_degrees": list(self.residual_degrees)}


@dataclass(frozen=True)
class CertificateReport:
    morphism_valid: bool
    generators_are_chain_maps: dict
    relation_checks: tuple
    verified: bool

    def as_dict(self):
        return {
            "morphism_valid": self.morphism_valid,
            "generators_are_chain_maps": dict(self.generators_are_chain_maps),
            "relations": [rc.as_dict() for rc in self.relation_checks],
            "verified": self.verified,
        }


def verify_certificate(F: FreeComplex, cert: ActionCertificate) -> CertificateReport:
    """Itemized check of every chain-map condition and relation."""
    morph_ok = cert.morphism.validate().valid
    gen_ok = {}
    for name, g in cert.generators:
        gen_ok[name] = g.is_chain_map()
    gens = {name: g for name, g in cert.generators}
    rel_checks = []
    for poly, witness in cert.relations:
        fmap = evaluate_relation(F, gens, poly)
        if witness is None:
            h = solve_homotopy(fmap)
            if h is None:
                residual = tuple(i for i in F.degrees() if not fmap.component(i).is_zero())
                rel_checks.append(RelationCheck(poly, "solved", False, residual))
            else:
                rel_checks.append(RelationCheck(poly, "solved", True, ()))
        else:
            residual = tuple(homotopy_defects(fmap, witness))
            mode = "exact" if all(m.is_zero() for _, m in witness.maps) else "witness"
            rel_checks.append(RelationCheck(poly, mode, not residual, residual))
    verified = morph_ok and all(gen_ok.values()) and all(rc.passed for rc in rel_checks)
    return CertificateReport(morph_ok, gen_ok, tuple(rel_checks), verified)


def zero_witness(F: FreeComplex) -> Homotopy:
    """Explicit zero homotopy: asserts the relation holds exactly."""
    return Homotopy(F, F, ())


def witness_from_matrices(F: FreeComplex, mats: dict) -> Homotopy:
    return Homotopy(F, F, tuple(sorted(mats.items())))


# ---------------------------------------------------------------------------
# induced action on homology (Artinian backend)


@dataclass(frozen=True)
class InducedHomologyAction:
    complex: FreeComplex
    certificate: ActionCertificate
    homologies: tuple  # (degree, HomologyModule)
    gen_matrices: tuple  # (degree, {name: Matrix})

    def homology_at(self, i: int):
        for d, h in self.homologies:
            if d == i:
                return h
        return None

    def matrices_at(self, i: int) -> dict:
        for d, mats in self.gen_matrices:
            if d == i:
                return dict(mats)
        return {}


def _project_endo_to_homology(H, endo_component: AMatrix) -> Matrix:
    """Matrix of a chain endomorphism on the homology representative basis."""
    flat = endo_component.flatten()
    return Matrix.from_columns(flat.field, H.project_cycles([flat.apply(r) for r in H.reps]),
                               nrows=H.dim)


def induced_action_on_homology(F: FreeComplex, cert: ActionCertificate,
                               homology_at=None) -> InducedHomologyAction:
    """Push a verified certificate to homology; relations must vanish exactly there.

    `homology_at(i)`, when given, supplies each H_i(F) instead of computing it.
    """
    homology_at = homology_at or partial(homology, F)
    homs = []
    gen_mats = []
    for i in F.degrees():
        H = homology_at(i)
        homs.append((i, H))
        mats = {}
        for name, g in cert.generators:
            mats[name] = _project_endo_to_homology(H, g.component(i))
        gen_mats.append((i, tuple(sorted(mats.items()))))
    action = InducedHomologyAction(F, cert, tuple(homs), tuple(gen_mats))
    defects = homology_relation_defects(action)
    if defects:
        raise RelationFailsOnHomology(f"relations fail on homology: {defects}")
    return action


class _HomologyEnv(exprs.RingEnv):
    """Evaluate relation polynomials as matrices on one homology module."""

    def __init__(self, H, gen_mats: dict):
        f = H.module.algebra.field
        self.H = H
        self.f = f
        self.gen_mats = gen_mats
        super().__init__(lambda a, b: a.add(b), lambda a, b: a.sub(b),
                         lambda a: a.neg(), lambda a, b: a.mul(b),
                         lambda: Matrix.identity(f, H.dim))

    def integer(self, n: int):
        return Matrix.identity(self.f, self.H.dim).scale(self.f.from_int(n))

    def rational(self, num: int, den: int):
        return Matrix.identity(self.f, self.H.dim).scale(
            self.f.div(self.f.from_int(num), self.f.from_int(den)))

    def lookup(self, name: str, pos: int):
        if name in self.gen_mats:
            return self.gen_mats[name]
        el = self.H.module.algebra.named_element(name)
        if el is None:
            raise exprs.ExprError(f"unknown name {name!r}", pos)
        return self.H.module.act_element(el)


def homology_relation_defects(action: InducedHomologyAction) -> list:
    out = []
    for i, _ in action.homologies:
        H = action.homology_at(i)
        if H.dim == 0:
            continue
        mats = action.matrices_at(i)
        for poly, _ in action.certificate.relations:
            val = exprs.evaluate(poly, _HomologyEnv(H, mats))
            if not val.is_zero():
                out.append((i, poly))
    return out


def homology_module_over_target(action: InducedHomologyAction, degree: int) -> FiniteModule:
    """H_degree as a module over the (Artinian) target algebra B.

    Basis labels of B that are words in the certificate generators act by the
    corresponding matrix products; for a surjective morphism, the remaining
    basis elements act through a preimage in A (well defined because the
    certificate's relations kill the kernel on homology).
    """
    phi = action.certificate.morphism
    B = phi.target
    H = action.homology_at(degree)
    mats = action.matrices_at(degree)
    f = B.field
    acts = []
    for t, label in enumerate(B.labels):
        m = _label_action(H, mats, label, f)
        if m is None:
            m = _preimage_action(H, phi, B.basis_element(t))
        if m is None:
            raise CertificateError(
                f"cannot act by target basis element {label!r}: neither a word in "
                f"the certificate generators nor in the image of the morphism")
        acts.append(m)
    module = FiniteModule(B, H.dim, tuple(acts))
    issues = module.validate()
    if issues:
        raise CertificateError(f"induced action violates the target algebra: {issues}")
    return module


def _label_action(H, mats: dict, label: str, f) -> Matrix | None:
    m = Matrix.identity(f, H.dim)
    if label == "1":
        return m
    for part in label.replace(" ", "").split("*"):
        if "^" in part:
            name, e = part.split("^")
            reps = int(e)
        else:
            name, reps = part, 1
        if name not in mats:
            return None
        for _ in range(reps):
            m = mats[name].mul(m)
    return m


def _preimage_action(H, phi: AlgebraMorphism, target_el) -> Matrix | None:
    from .linalg import solve
    S, T = phi.source, phi.target
    if S.kind != "artinian" or T.kind != "artinian":
        return None
    pre = solve(phi.as_linear_map(), target_el)
    if pre is None:
        return None
    return H.module.act_element(tuple(pre))


# ---------------------------------------------------------------------------
# homology-level action only (no homotopy data)


@dataclass(frozen=True)
class HLevelReport:
    checks: tuple  # (description, passed)
    valid: bool

    def as_dict(self):
        return {"checks": [{"name": n, "passed": p} for n, p in self.checks],
                "valid": self.valid}


def check_H_action_only(F: FreeComplex, gen_matrices: dict, relations) -> HLevelReport:
    """Verify target-algebra axioms on homology from bare matrices.

    `gen_matrices` maps generator names to per-degree matrices on the chosen
    homology bases; the relation polynomials must vanish exactly (Artinian
    backend).  No homotopy data is consulted.
    """
    checks = []
    for i in F.degrees():
        H = homology(F, i)
        if H.dim == 0:
            checks.append((f"H_{i} is zero", True))
            continue
        mats = {name: per.get(i, Matrix.zero(H.module.algebra.field, H.dim, H.dim))
                for name, per in gen_matrices.items()}
        for poly in relations:
            val = exprs.evaluate(poly, _HomologyEnv(H, mats))
            checks.append((f"{poly} vanishes on H_{i}", val.is_zero()))
    return HLevelReport(tuple(checks), all(p for _, p in checks))


def check_quotient_H_action(F: FreeComplex, kernel_elements, homology_at=None) -> HLevelReport:
    """Does the A-action on H_*(F) descend to A/(kernel_elements)?

    This is the weaker hypothesis: only the homology modules are examined,
    taken from `homology_at(i)` when it is given.
    """
    A = F.algebra
    checks = []
    homology_at = homology_at or partial(homology if A.kind == "artinian" else graded_homology, F)
    if A.kind == "artinian":
        for i in F.degrees():
            H = homology_at(i)
            if H.dim == 0:
                checks.append((f"H_{i} is zero", True))
                continue
            for a in kernel_elements:
                ok = H.module.act_element(a).is_zero()
                checks.append((f"{A.element_to_str(a)} kills H_{i}", ok))
    else:
        for i in F.degrees():
            GH = homology_at(i)
            for a in kernel_elements:
                ok = _graded_element_kills(GH, a)
                checks.append((f"{A.element_to_str(a)} kills H_{i} up to degree {GH.window}", ok))
    return HLevelReport(tuple(checks), all(p for _, p in checks))


def _graded_element_kills(GH, a) -> bool:
    da = GH.algebra.el_degree(a)
    if da is None:
        raise CertificateError("homogeneous elements only")
    return all(element_action_matrix(GH, a, d).is_zero()
               for d in range(GH.window + 1 - da) if GH.dim_at(d))
