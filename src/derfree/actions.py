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
from .modules import FiniteModule, graded_element_kills
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


def _relation_env(A, gens: dict, act, one, add, sub, neg, mul, scale) -> exprs.RingEnv:
    """Relation polynomials in the generators `gens`, where a named element
    of the algebra A acts through `act`."""
    def lookup(name):
        if name in gens:
            return gens[name]
        el = A.named_element(name)
        return None if el is None else act(el)
    return exprs.RingEnv(A.field, one, add, sub, neg, mul, scale, lookup)


def check_relation(A, names, poly: str) -> None:
    """Parse `poly` and resolve its names as `evaluate_relation` does, without
    evaluating it: a malformed polynomial or an unknown name raises ExprError."""
    def const(*_):
        return 0
    exprs.evaluate(poly, _relation_env(A, dict.fromkeys(names, 0), const, 0, *[const] * 5))


def evaluate_relation(F: FreeComplex, gens: dict, poly: str) -> ChainMap:
    A = F.algebra
    endo = partial(scalar_endo, F)
    return exprs.evaluate(poly, _relation_env(
        A, gens, endo, endo(A.one), ChainMap.add, ChainMap.sub, ChainMap.neg,
        ChainMap.compose, lambda c, g: g.scale(c)))


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
    return Homotopy.from_dict(F, F, mats)


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


def homology_relation_defects(action: InducedHomologyAction) -> list:
    out = []
    for i, _ in action.homologies:
        H = action.homology_at(i)
        if H.dim == 0:
            continue
        A = H.module.algebra
        env = _relation_env(A, action.matrices_at(i), H.module.act_element,
                            Matrix.identity(A.field, H.dim), Matrix.add, Matrix.sub,
                            Matrix.neg, Matrix.mul, lambda c, M: M.scale(c))
        for poly, _ in action.certificate.relations:
            val = exprs.evaluate(poly, env)
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
    for name, reps in exprs.word_factors(label):
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


def check_quotient_H_action(F: FreeComplex, kernel_elements, homology_at=None) -> bool:
    """Does the A-action on H_*(F) descend to A/(kernel_elements)?

    This is the weaker hypothesis: only the homology modules are examined,
    taken from `homology_at(i)` when it is given; a graded homology module
    is examined up to its window.
    """
    if F.algebra.kind == "artinian":
        homology_at = homology_at or partial(homology, F)

        def kills(H, a):
            return H.dim == 0 or H.module.act_element(a).is_zero()
    else:
        homology_at = homology_at or partial(graded_homology, F)
        kills = graded_element_kills
    return all(kills(H, a) for H in map(homology_at, F.degrees()) for a in kernel_elements)
