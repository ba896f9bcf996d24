"""Executable hypothesis/conclusion checkers for the freeness criteria.

Every checker returns a CheckReport with named checks and a three-valued
verdict: "pass" (hypotheses and conclusions hold), "fail" (hypotheses hold
but a conclusion fails -- a refutation flag), or "not_applicable"
(preconditions or hypotheses are not met, possibly for truncation reasons;
the report says which).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import cached_property
from math import comb

from .actions import (ActionCertificate, InducedHomologyAction,
                      check_quotient_H_action, homology_module_over_target,
                      induced_action_on_homology, verify_certificate)
from .algebra import ArtinAlgebra, adapted_basis, AlgebraError
from .complexes import (FreeComplex, betti, graded_homology, homology,
                        homology_dims, inf_sup, nonzero_range, proj_dim, scalar_endo)
from .homotopy import (DerivedAnnihilator, chain_map_space, derived_annihilator,
                       solve_homotopy)
from .koszul import koszul, koszul_differentials, subsets
from .linalg import Matrix, complement, independent_columns, is_invertible, quotient_coords
from .modules import (MINUS_INFINITY, PLUS_INFINITY, FiniteModule, GradedModule,
                      graded_dim_module, graded_element_kills, graded_is_free,
                      is_free, lemma43_freeness, nu, poincare_truncated,
                      residue_field_module)
from .morphism import AlgebraMorphism, beta0_of_mAB
from .resolutions import (GradedModuleComplex, graded_depth, graded_free_module,
                          tor_k_dims)
from .weyl import KoszulLift, koszul_lift


# ---------------------------------------------------------------------------
# report plumbing


@dataclass(frozen=True)
class Check:
    name: str
    kind: str  # "precondition" | "hypothesis" | "conclusion" | "info"
    status: str  # "pass" | "fail" | "skip"
    detail: str = ""

    def as_dict(self):
        return {"name": self.name, "kind": self.kind, "status": self.status,
                "detail": self.detail}


@dataclass(frozen=True)
class CheckReport:
    checker: str
    checks: tuple
    caveats: tuple = ()
    data: dict = dc_field(default_factory=dict)

    @property
    def verdict(self) -> str:
        gating = [c for c in self.checks if c.kind in ("precondition", "hypothesis")]
        if any(c.status == "fail" for c in gating):
            return "not_applicable"
        concl = [c for c in self.checks if c.kind == "conclusion"]
        if any(c.status == "fail" for c in concl):
            return "fail"
        return "pass"

    def as_dict(self):
        return {"checker": self.checker,
                "verdict": self.verdict,
                "checks": [c.as_dict() for c in self.checks],
                "caveats": list(self.caveats),
                "data": self.data}


def _chk(name, kind, ok, detail="") -> Check:
    return Check(name, kind, "pass" if ok else "fail", detail)


# ---------------------------------------------------------------------------
# extended arithmetic with the depth/dimension sentinels


def ext_add(a, b):
    for x in (a, b):
        if x is PLUS_INFINITY or x is MINUS_INFINITY:
            return x
    return a + b


def ext_sub(a, b):
    if b is PLUS_INFINITY:
        return MINUS_INFINITY
    if b is MINUS_INFINITY:
        return PLUS_INFINITY
    return ext_add(a, -b)


def ext_ge(a, b) -> bool:
    return not (a < b)


# ---------------------------------------------------------------------------
# ring invariants


def edim_of(R) -> int:
    if R.kind == "artinian":
        return R.edim()
    return len(R.basis(1))


def ring_depth(R):
    """(depth, exact)."""
    if R.kind == "artinian":
        return 0, True
    return graded_depth(graded_free_module(R, [0], R.truncation), bound=R.nvars + 1)


def ring_dim(R):
    """(dim, exact)."""
    if R.kind == "artinian":
        return 0, True
    return R.krull_dim(), True


def ring_is_cm(R):
    d, e1 = ring_dim(R)
    dep, e2 = ring_depth(R)
    return d == dep, e1 and e2


# ---------------------------------------------------------------------------
# bundles


@dataclass(frozen=True)
class InstanceBundle:
    """One instance of the freeness question: rings, map, complex, action data."""

    name: str
    A: object
    B: object
    phi: AlgebraMorphism
    F: FreeComplex | None = None
    certificate: ActionCertificate | None = None
    h_kernel: tuple = ()  # elements of A generating ker(phi), for H-level checks
    module_complex: GradedModuleComplex | None = None  # strict complexes


@dataclass(frozen=True)
class Analysis:
    """The facts about one bundle that its checks share, each computed once.

    An Analysis lives for one command and keeps its caches to itself:
    nothing is stored on the bundle, its complex or its certificate.
    """

    bundle: InstanceBundle
    _homology: dict = dc_field(default_factory=dict, init=False, repr=False, compare=False)

    def homology(self, i: int):
        """H_i(F): a HomologyModule, or a GradedModule up to the truncation."""
        if i not in self._homology:
            F = self.bundle.F
            H = homology(F, i) if F.algebra.kind == "artinian" else graded_homology(F, i)
            self._homology[i] = H
        return self._homology[i]

    @cached_property
    def certificate_status(self) -> tuple:
        """(verified, report_or_None)."""
        b = self.bundle
        if b.certificate is None:
            return False, None
        rep = verify_certificate(b.F, b.certificate)
        return rep.verified, rep

    @cached_property
    def induced_action(self) -> InducedHomologyAction:
        return induced_action_on_homology(self.bundle.F, self.bundle.certificate, self.homology)

    @cached_property
    def h0_over_target(self) -> FiniteModule:
        """H_0(F) as a B-module through the induced action (Artinian)."""
        return homology_module_over_target(self.induced_action, self.bundle.F.low)

    @cached_property
    def h_level_status(self) -> tuple:
        """Does the homology carry a B-action?  True via certificate or kernel check."""
        b = self.bundle
        if self.certificate_status[0]:
            return True, "verified derived-action certificate"
        if b.h_kernel and b.phi.is_surjective():
            hrep = check_quotient_H_action(b.F, b.h_kernel, self.homology)
            return hrep.valid, "kernel generators act as zero on homology" if hrep.valid \
                else "kernel generators do not kill homology"
        return False, "no action data"

    @cached_property
    def h0_freeness(self) -> tuple:
        """(free?, rank_or_None, note) for H_0(F) as a B-module."""
        b = self.bundle
        if b.A.kind == "artinian":
            if not self.certificate_status[0]:
                return None, None, "no verified certificate to transport H_0 to B"
            M0 = self.h0_over_target
            free, rk = is_free(M0)
            verdict = lemma43_freeness(M0)
            if free != verdict.free:
                raise AssertionError("freeness oracles disagree")
            return free, (rk if free else None), f"dim_k H_0 = {M0.dim}, nu = {nu(M0)}"
        verdict = graded_is_free(graded_restrict_along(b.phi, self.homology(b.F.low), b.h_kernel))
        return verdict.free, verdict.rank, verdict.note

    @cached_property
    def inf_sup(self) -> tuple:
        """(inf, sup) of the nonvanishing homology degrees (graded: within window)."""
        return inf_sup(self.bundle.F)

    @cached_property
    def betti(self) -> dict:
        return betti(self.bundle.F)

    @cached_property
    def proj_dim(self):
        return nonzero_range(self.betti)[1]

    @cached_property
    def beta0_of_mAB(self) -> int:
        return beta0_of_mAB(self.bundle.phi)

    @cached_property
    def fiber_algebra(self) -> ArtinAlgebra:
        return fiber_algebra(self.bundle.phi)


def analysis_of(subject) -> Analysis:
    """The Analysis a checker reads: the one given, or a new one of a bare bundle."""
    return subject if isinstance(subject, Analysis) else Analysis(subject)


def graded_restrict_along(phi: AlgebraMorphism, M: GradedModule, kernel_elements=()):
    """View a graded module over A as one over the graded quotient target B.

    Requires each B-variable to be the image of an A-variable and the given
    kernel elements to act as zero (checked degreewise within the window).
    """
    A, B = phi.source, phi.target
    if A.kind != "graded" or B.kind != "graded":
        raise ValueError("graded restriction needs graded source and target")
    if not all(graded_element_kills(M, a) for a in kernel_elements):
        raise ValueError("kernel element acts nontrivially; not a B-module")
    chosen = []
    for vb in range(B.nvars):
        target_el = B.var_element(vb)
        found = None
        for va in range(A.nvars):
            if phi.images[va] == target_el:
                found = va
                break
        if found is None:
            raise ValueError(f"variable {B.variables[vb]!r} is not the image of a variable")
        chosen.append(found)
    dims = M.dims
    actions = tuple(M.var_actions[va] for va in chosen)
    return GradedModule(B, dims, actions, M.window)


# ---------------------------------------------------------------------------
# the question itself


def check_question(subject: Analysis | InstanceBundle) -> CheckReport:
    """Hypotheses and empirical conclusion of the freeness question."""
    an = analysis_of(subject)
    bundle = an.bundle
    checks = []
    caveats = []
    data = {}
    cert_ok, cert_rep = an.certificate_status
    if bundle.certificate is None:
        detail = "no derived-action certificate supplied"
        if bundle.h_kernel and bundle.A.kind == "graded":
            blocked = []
            for a in bundle.h_kernel:
                if solve_homotopy(scalar_endo(bundle.F, a)) is None:
                    blocked.append(bundle.A.element_to_str(a))
            if blocked:
                detail += ("; no certificate can exist over B: "
                           + ", ".join(blocked)
                           + " not in the derived annihilator (solver proof)")
                data["certificate_impossible_for"] = blocked
        checks.append(Check("derived_action_certificate", "precondition", "fail", detail))
    else:
        checks.append(_chk("derived_action_certificate", "precondition", cert_ok,
                           "certificate verified" if cert_ok else "certificate failed"))
        if cert_rep is not None:
            data["certificate"] = cert_rep.as_dict()
    infH, supH = an.inf_sup
    checks.append(_chk("inf_H_is_zero", "hypothesis", infH == bundle.F.low and infH == 0,
                       f"inf H = {infH}"))
    p = an.proj_dim
    ea, eb = edim_of(bundle.A), edim_of(bundle.B)
    data.update({"proj_dim": _ser(p), "edim_A": ea, "edim_B": eb})
    checks.append(_chk("defect_bound", "hypothesis", ext_ge(ea - eb, p),
                       f"proj dim = {_ser(p)} <= edim A - edim B = {ea - eb}"))
    free, rk, note = an.h0_freeness
    if free is None and rk is None:
        checks.append(Check("H0_free_over_B", "conclusion", "skip", note))
        caveats.append(note)
    else:
        # free=None with a rank means "no kernel within the window": counts as
        # a pass with the caveat recorded
        ok = bool(free) or (free is None and rk is not None)
        checks.append(_chk("H0_free_over_B", "conclusion", ok,
                           f"{note}; rank {rk}" if ok else note))
        data["H0_free"] = ok
        if free is None:
            caveats.append(note)
        if rk is not None:
            data["H0_rank"] = rk
    applicable = _theorem_coverage(an, p, ea, eb)
    data["theorem_coverage"] = applicable
    if not any(applicable.values()):
        checks.append(Check("covered_by_a_theorem", "info", "fail",
                            "no implemented criterion applies: open instance"))
        data["open_instance"] = True
    else:
        which = ", ".join(k for k, v in applicable.items() if v)
        checks.append(Check("covered_by_a_theorem", "info", "pass", which))
    return CheckReport("question", tuple(checks), tuple(caveats), data)


def _theorem_coverage(an: Analysis, p, ea, eb) -> dict:
    bundle = an.bundle
    out = {"ci_fiber_criterion": False, "regular_case_criterion": False}
    if bundle.A.kind == "artinian" and bundle.B.kind == "artinian":
        ci, exact, _ = artinian_ci_test(an.fiber_algebra)
        b0 = an.beta0_of_mAB
        hyp51 = ext_ge(ea - b0, p)
        out["ci_fiber_criterion"] = bool(ci) and exact and hyp51
        out["theorem51_hypothesis"] = hyp51
    da, _ = ring_depth(bundle.A)
    db, _ = ring_dim(bundle.B)
    out["regular_case_criterion"] = ext_ge(ext_sub(da, db), ea - eb) and ext_ge(ea - eb, p)
    return out


def _ser(v):
    if v is PLUS_INFINITY:
        return "+inf"
    if v is MINUS_INFINITY:
        return "-inf"
    return v


# ---------------------------------------------------------------------------
# the numerical inequalities


def check_lemma32(subject: Analysis | InstanceBundle) -> CheckReport:
    an = analysis_of(subject)
    bundle = an.bundle
    checks = []
    caveats = []
    h_ok, h_note = an.h_level_status
    checks.append(_chk("H_carries_B_action", "precondition", h_ok, h_note))
    F = bundle.F
    p = an.proj_dim
    depth_a, e1 = ring_depth(bundle.A)
    dim_a, e2 = ring_dim(bundle.A)
    dim_b, e3 = ring_dim(bundle.B)
    infH, supH = an.inf_sup
    if not (e1 and e2 and e3):
        caveats.append("ring invariants carry truncation caveats")
    rhs1 = ext_add(ext_sub(depth_a, dim_b), supH)
    checks.append(_chk("bound_via_depth", "conclusion", ext_ge(p, rhs1),
                       f"proj dim = {_ser(p)} >= depth A - dim B + sup H = {_ser(rhs1)}"))
    rhs2 = ext_sub(dim_a, dim_b)
    checks.append(_chk("bound_via_dim", "conclusion", ext_ge(p, rhs2),
                       f"proj dim = {_ser(p)} >= dim A - dim B = {_ser(rhs2)}"))
    # equality criterion; depth of a perfect complex comes from the
    # depth-sensitivity formula depth F = depth A - proj dim F
    dims_h = _homology_dims_over_A(an)
    dim_f = MINUS_INFINITY
    for n, dn in dims_h.items():
        cand = ext_sub(dn, n)
        if dim_f < cand:
            dim_f = cand
    depth_f = ext_sub(depth_a, p)
    cm_f = ext_sub(dim_f, depth_f)
    cm_a = ext_sub(dim_a, depth_a)
    lhs_eq = (p == rhs2)
    dim_h0 = dims_h.get(F.low, MINUS_INFINITY)
    rhs_eq = (cm_f == cm_a) and (dim_h0 == dim_b)
    checks.append(_chk("equality_criterion", "conclusion", lhs_eq == rhs_eq,
                       f"equality in the dimension bound: {lhs_eq}; "
                       f"CM defect of F = {_ser(cm_f)}, of A = {_ser(cm_a)}, "
                       f"dim H_0 = {_ser(dim_h0)}, dim B = {_ser(dim_b)}"))
    data = {"proj_dim": _ser(p), "depth_A": _ser(depth_a), "dim_A": _ser(dim_a),
            "dim_B": _ser(dim_b), "sup_H": _ser(supH),
            "dim_F": _ser(dim_f), "cm_defect_F": _ser(cm_f), "cm_defect_A": _ser(cm_a)}
    return CheckReport("lemma32", tuple(checks), tuple(caveats), data)


def _homology_dims_over_A(an: Analysis) -> dict:
    """Krull dimension of each H_i(F) as a module over A."""
    F = an.bundle.F
    if F.algebra.kind == "artinian":  # -inf for H_i = 0, else 0
        return {i: MINUS_INFINITY if d == 0 else 0 for i, d in homology_dims(F).items()}
    return {i: graded_dim_module(an.homology(i))[0] for i in F.degrees()}


def check_thm31(subject: Analysis | InstanceBundle) -> CheckReport:
    an = analysis_of(subject)
    bundle = an.bundle
    checks = []
    caveats = []
    h_ok, h_note = an.h_level_status
    checks.append(_chk("H_carries_B_action", "precondition", h_ok, h_note))
    infH, supH = an.inf_sup
    checks.append(_chk("inf_H_is_zero", "hypothesis", infH == 0, f"inf H = {_ser(infH)}"))
    p = an.proj_dim
    ea, eb = edim_of(bundle.A), edim_of(bundle.B)
    depth_a, e1 = ring_depth(bundle.A)
    dim_b, e2 = ring_dim(bundle.B)
    if not (e1 and e2):
        caveats.append("ring invariants carry truncation caveats")
    hyp1 = ext_ge(ea - eb, p)
    hyp2 = ext_ge(ext_sub(depth_a, dim_b), ea - eb)
    checks.append(_chk("defect_bound", "hypothesis", hyp1,
                       f"proj dim = {_ser(p)} <= edim A - edim B = {ea - eb}"))
    checks.append(_chk("regularity_bound", "hypothesis", hyp2,
                       f"edim A - edim B = {ea - eb} <= depth A - dim B = "
                       f"{_ser(ext_sub(depth_a, dim_b))}"))
    data = {"proj_dim": _ser(p), "edim_A": ea, "edim_B": eb,
            "depth_A": _ser(depth_a), "dim_B": _ser(dim_b)}
    if not (hyp1 and hyp2 and h_ok and infH == 0):
        return CheckReport("thm31", tuple(checks), tuple(caveats), data)
    free, rk, note = an.h0_freeness
    if free is None:
        checks.append(Check("H0_free_over_B", "conclusion", "skip", note))
    else:
        checks.append(_chk("H0_free_over_B", "conclusion", bool(free), note))
    checks.append(_chk("sup_H_is_zero", "conclusion", supH == 0, f"sup H = {_ser(supH)}"))
    checks.append(_chk("both_inequalities_are_equalities", "conclusion",
                       p == ea - eb and ea - eb == ext_sub(depth_a, dim_b), ""))
    cm_a, ex_a = ring_is_cm(bundle.A)
    cm_b, ex_b = ring_is_cm(bundle.B)
    checks.append(_chk("A_and_B_cohen_macaulay", "conclusion", cm_a and cm_b,
                       f"A CM: {cm_a}, B CM: {cm_b}"))
    if not (ex_a and ex_b):
        caveats.append("Cohen-Macaulay checks carry truncation caveats")
    if bundle.phi.is_surjective():
        eci = is_exceptional_ci_surjective(bundle.phi)
        checks.append(_chk("map_is_exceptional_ci", "conclusion", bool(eci.value), eci.note))
        if not eci.exact:
            caveats.append(eci.note)
    else:
        checks.append(Check("map_is_exceptional_ci", "conclusion", "skip",
                            "non-surjective case is out of scope (needs completion)"))
    return CheckReport("thm31", tuple(checks), tuple(caveats), data)


# ---------------------------------------------------------------------------
# exceptional complete intersections, surjective case


@dataclass(frozen=True)
class ECIResult:
    value: bool
    exact: bool
    note: str


def is_exceptional_ci_surjective(phi: AlgebraMorphism) -> ECIResult:
    """Kernel generated by a regular sequence extending a minimal generating
    set of m; regularity is certified by vanishing of first Koszul homology."""
    A, B = phi.source, phi.target
    if A.kind == "artinian" and B.kind == "artinian":
        if not phi.is_surjective():
            raise ValueError("surjective case only")
        ker = phi.kernel_cols()
        if ker.ncols == 0:
            return ECIResult(True, True, "zero kernel: empty regular sequence")
        gens = _ideal_minimal_generators(A, ker)
        try:
            adapted_basis(A, tuple(gens))
        except AlgebraError:
            return ECIResult(False, True,
                             "kernel generators do not extend a minimal generating set of m")
        h1 = homology_dims(koszul(A, gens).complex)[1]
        if h1 == 0:
            return ECIResult(True, True, "kernel generated by a regular sequence")
        return ECIResult(False, True,
                         f"first Koszul homology of the kernel generators is nonzero "
                         f"(dim {h1})")
    if A.kind == "graded" and B.kind == "graded":
        if not phi.is_surjective():
            raise ValueError("surjective case only")
        zero_vars = []
        for i in range(A.nvars):
            img = phi.images[i]
            if B.el_is_zero(img):
                zero_vars.append(i)
            elif not (len(img) == 1 and sum(img[0][0]) == 1 and img[0][1] == B.field.one):
                raise ValueError("graded case supports variable-to-variable quotients only")
        gens = [A.var_element(i) for i in zero_vars]
        gens = [g for g in gens if g]
        if not gens:
            return ECIResult(True, True, "zero kernel: empty regular sequence")
        K = koszul(A, gens).complex
        if not homology_dims(K)[1]:
            return ECIResult(True, False,
                             f"kernel variables form a regular sequence up to degree "
                             f"{K.window}")
        return ECIResult(False, True, "first Koszul homology of the kernel is nonzero")
    raise ValueError("mixed-backend morphisms are not supported here")


def _ideal_minimal_generators(A: ArtinAlgebra, ideal_cols: Matrix) -> list:
    """Lifts of a basis of I/mI, greedy over the supplied ideal basis."""
    return complement(A.ideal_product_cols(A.m_cols(), ideal_cols), ideal_cols).columns()


# ---------------------------------------------------------------------------
# strict complexes of B-modules


TOR_STEPS = 3  # Tor_i(k, F) is computed for i up to F.top + TOR_STEPS


def check_thm41(subject: Analysis | InstanceBundle) -> CheckReport:
    """Flat-dimension hypothesis and conclusions for strict B-module complexes."""
    bundle = analysis_of(subject).bundle
    checks = []
    caveats = []
    data = {}
    phi = bundle.phi
    A = bundle.A
    if A.kind != "graded":
        raise ValueError("the strict-complex checker runs on the graded backend")
    ok_phi = phi.validate().valid
    checks.append(_chk("morphism_valid", "precondition", ok_phi))
    if bundle.module_complex is None:
        # strictness attempt on a free complex: the kernel must act as zero
        if bundle.F is None:
            raise ValueError("the bundle holds neither a free complex nor a module complex")
        residual = []
        for a in bundle.h_kernel:
            endo = scalar_endo(bundle.F, a)
            for i in bundle.F.degrees():
                if not endo.component(i).is_zero():
                    residual.append((A.element_to_str(a), i))
        ok = not residual
        checks.append(_chk("strict_B_structure", "precondition", ok,
                           "kernel elements act as zero on every term" if ok else
                           f"kernel acts nontrivially on free terms: {residual[:4]}"))
        return CheckReport("thm41", tuple(checks), tuple(caveats), data)
    C = bundle.module_complex
    issues = C.validate()
    checks.append(_chk("complex_of_B_modules", "precondition", not issues,
                       "; ".join(issues[:3])))
    for a in bundle.h_kernel:
        ok = all(graded_element_kills(C.module(i), a) for i in range(C.low, C.top + 1))
        checks.append(_chk(f"kernel_{A.element_to_str(a)}_acts_zero", "precondition", ok))
    ea, eb = edim_of(A), edim_of(bundle.B)
    c = ea - eb
    tor = tor_k_dims(C, TOR_STEPS)
    data["tor_dims"] = {str(i): v[0] for i, v in tor.items()}
    data["tor_window"] = {str(i): v[1] for i, v in tor.items()}
    bad_i = [i for i, (total, _) in tor.items() if i > c and total > 0]
    checks.append(_chk("tor_vanishing_above_defect", "hypothesis", not bad_i,
                       f"Tor_i(k, F) = 0 for {c} < i <= {C.top + TOR_STEPS} within window"
                       if not bad_i else f"Tor nonzero in degrees {bad_i}"))
    caveats.append(
        "Tor vanishing verified within the truncation window only; flat dimension "
        "is bounded, never certified infinite")
    hyp_ok = not bad_i and not issues and ok_phi
    if not hyp_ok:
        return CheckReport("thm41", tuple(checks), tuple(caveats), data)
    higher = [i for i, d in homology_dims(C).items() if i != 0 and d > 0]
    checks.append(_chk("homology_concentrated_in_degree_0", "conclusion", not higher,
                       f"nonzero homology in degrees {higher}" if higher else ""))
    MB = graded_restrict_along(phi, graded_homology(C, C.low), bundle.h_kernel)
    verdict = graded_is_free(MB)
    if verdict.free is False:
        checks.append(Check("H0_free_over_B", "conclusion", "fail", verdict.note))
    else:
        checks.append(Check("H0_free_over_B", "conclusion", "pass", verdict.note))
        if verdict.free is None:
            caveats.append(verdict.note)
    eci = is_exceptional_ci_surjective(phi)
    checks.append(_chk("map_is_exceptional_ci", "conclusion", bool(eci.value), eci.note))
    if not eci.exact:
        caveats.append(eci.note)
    return CheckReport("thm41", tuple(checks), tuple(caveats), data)


# ---------------------------------------------------------------------------
# the complete intersection criterion


def fiber_algebra(phi: AlgebraMorphism) -> ArtinAlgebra:
    """B/m_A B for Artinian source and target."""
    return quotient_algebra(phi.target, phi.extension_ideal_cols())


def quotient_algebra(B: ArtinAlgebra, ideal_cols: Matrix) -> ArtinAlgebra:
    """B/I for an ideal given by a k-basis; representatives are basis vectors."""
    f = B.field
    rep_idx = independent_columns(ideal_cols, Matrix.identity(f, B.dim))
    reps = [B.basis_element(i) for i in rep_idx]
    dim = len(reps)
    coords = quotient_coords(ideal_cols, Matrix.from_columns(f, reps, nrows=B.dim),
                             [B.el_mul(u, v) for u in reps for v in reps])
    mult = tuple(tuple(coords[i * dim:(i + 1) * dim]) for i in range(dim))
    labels = tuple(B.labels[i] for i in rep_idx)
    return ArtinAlgebra(f, labels, tuple(mult))


def artinian_ci_test(C: ArtinAlgebra):
    """(is_ci, exact, note): exact for embedding dimension <= 2 via the socle,
    Betti-pattern evidence up to homological degree 3 otherwise."""
    c = C.edim()
    if c == 0:
        return True, True, "the fiber is the residue field"
    soc = C.socle_cols().ncols
    if c <= 2:
        if soc == 1:
            return True, True, f"Gorenstein with edim {c} <= 2, hence a complete intersection"
        return False, True, f"socle dimension {soc} != 1: not Gorenstein, not a CI"
    if soc != 1:
        return False, True, f"socle dimension {soc} != 1: not Gorenstein, not a CI"
    k = residue_field_module(C)
    bt = poincare_truncated(k, 3)
    expected = (1, c, comb(c + 1, 2), comb(c, 3) + c * c)
    if tuple(bt[:4]) == expected:
        return True, False, ("Betti numbers of k match the complete intersection "
                             "pattern up to homological degree 3")
    return False, True, f"Betti numbers {bt[:4]} deviate from the CI pattern {expected}"


def check_thm51(subject: Analysis | InstanceBundle) -> CheckReport:
    an = analysis_of(subject)
    checks = []
    caveats = []
    data = {}
    A, B, F = an.bundle.A, an.bundle.B, an.bundle.F
    if A.kind != "artinian" or B.kind != "artinian":
        checks.append(Check("finite_over_A", "precondition", "fail",
                            "B must be module-finite over A (Artinian backends)"))
        return CheckReport("thm51", tuple(checks), (), data)
    cert_ok, cert_rep = an.certificate_status
    checks.append(_chk("certificate_verified", "precondition", cert_ok))
    if cert_rep is not None:
        data["certificate"] = cert_rep.as_dict()
    infH, supH = an.inf_sup
    checks.append(_chk("inf_H_is_zero", "hypothesis", infH == 0, f"inf H = {_ser(infH)}"))
    p = an.proj_dim
    ea = edim_of(A)
    b0 = an.beta0_of_mAB
    data.update({"proj_dim": _ser(p), "edim_A": ea, "beta0_mAB": b0})
    hyp = ext_ge(ea - b0, p)
    checks.append(_chk("defect_bound_via_beta0", "hypothesis", hyp,
                       f"proj dim = {_ser(p)} <= edim A - beta0(m_A B) = {ea - b0}"))
    if not (cert_ok and hyp and infH == 0):
        return CheckReport("thm51", tuple(checks), tuple(caveats), data)
    # (1) freeness and the first Betti number of M = H_0(F)
    free, rk, note = an.h0_freeness
    checks.append(_chk("H0_free_over_B", "conclusion", bool(free), note))
    bettis = poincare_truncated(an.homology(F.low).module, 1)
    checks.append(_chk("beta1_equals_p_beta0", "conclusion",
                       bettis[1] == p * bettis[0],
                       f"beta_1(M) = {bettis[1]}, p * beta_0(M) = {p} * {bettis[0]}"))
    data["betti_M"] = list(bettis)
    # (2) the fiber is a zero-dimensional complete intersection
    C = an.fiber_algebra
    ci, ci_exact, ci_note = artinian_ci_test(C)
    checks.append(_chk("fiber_is_zero_dim_ci", "conclusion", ci, ci_note))
    if not ci_exact:
        caveats.append("the CI verdict is a Betti-pattern check up to homological degree 3")
    data["fiber_dim_k"] = C.dim
    # (3) equalities
    eb = edim_of(B)
    checks.append(_chk("defect_equalities", "conclusion",
                       p == ea - b0 and p == ea - eb,
                       f"p = {_ser(p)}, edim A - beta0 = {ea - b0}, edim A - edim B = {ea - eb}"))
    # (4) binomial Betti numbers
    bt = an.betti
    b_bottom = bt.get(F.low, 0)
    binom_ok = all(bt.get(F.low + i, 0) == comb(p, i) * b_bottom for i in range(p + 1)) \
        and all(v == 0 for d, v in bt.items() if d > F.low + p)
    checks.append(_chk("binomial_betti_numbers", "conclusion", binom_ok,
                       f"betti = {[bt.get(F.low + i, 0) for i in range(p + 1)]}, "
                       f"expected C({p}, i) * {b_bottom}"))
    return CheckReport("thm51", tuple(checks), tuple(caveats), data)


# ---------------------------------------------------------------------------
# Koszul decomposition and the Poincare-series divisibility


@dataclass(frozen=True)
class Decomposition:
    elements: tuple
    lift: KoszulLift
    multiplicity: int


@dataclass(frozen=True)
class DecompositionObstruction:
    needed: int
    found_rank: int
    annihilator_dim: int
    note: str


def select_independent_mod_m2(A: ArtinAlgebra, ann: DerivedAnnihilator, count: int):
    """Greedy selection of annihilator basis elements independent modulo m^2.

    Greedy over basis vectors reaches the rank of the whole image in m/m^2
    (matroid exchange), so failure here is an exhaustive obstruction.
    """
    in_m = [(a, w) for a, w in zip(ann.basis, ann.witnesses) if A.el_in_m(a)]
    cands = Matrix.from_columns(A.field, [a for a, _ in in_m], nrows=A.dim)
    keep = independent_columns(A.m_power_cols(2), cands)
    if len(keep) < count:
        return None, None, len(keep)
    chosen = [in_m[j] for j in keep[:count]]
    return [a for a, _ in chosen], [w for _, w in chosen], count


def koszul_decompose(F: FreeComplex, annihilator: DerivedAnnihilator | None = None):
    """Decompose F as a sum of copies of one Koszul complex, or report why not.

    A caller that already holds the derived annihilator of F passes it in,
    so it is not computed twice.
    """
    A = F.algebra
    if A.kind != "artinian":
        raise ValueError("decomposition runs on the Artinian backend")
    if not F.is_minimal():
        raise ValueError("decomposition needs a minimal complex")
    p = proj_dim(F)
    if p is MINUS_INFINITY:
        raise ValueError("zero complex")
    p = p - F.low
    ann = annihilator if annihilator is not None else derived_annihilator(F)
    chosen, wits, found = select_independent_mod_m2(A, ann, p)
    if chosen is None:
        return DecompositionObstruction(
            p, found, len(ann.basis),
            f"the derived annihilator contains only {found} element(s) independent "
            f"modulo m^2; {p} are needed")
    lift = koszul_lift(F, chosen, wits)
    return Decomposition(tuple(chosen), lift, lift.multiplicity)


def divide_by_power_of_one_plus_t(coeffs, c: int):
    """Divide sum coeffs[i] t^i by (1+t)^c in Z[t]; None when it fails."""
    if c < 0:
        raise ValueError(f"the exponent c must be nonnegative, got {c}")
    cur = [int(x) for x in coeffs]
    for _ in range(c):
        q = []
        prev = 0
        for i, a in enumerate(cur):
            if i == 0:
                q.append(a)
                prev = a
            else:
                prev = a - prev
                q.append(prev)
        if q and q[-1] != 0:
            return None  # nonzero remainder
        cur = q[:-1] if q else []
    return cur


@dataclass(frozen=True)
class DivisibilityResult:
    holds: bool
    quotient: tuple | None
    note: str


def prop44_divisibility(F: FreeComplex, c: int,
                        annihilator: DerivedAnnihilator | None = None) -> DivisibilityResult:
    """The Betti polynomial must be divisible by (1+t)^c with nonnegative
    quotient when c annihilator elements are independent modulo m^2."""
    A = F.algebra
    if A.kind != "artinian":
        raise ValueError("prop44 divisibility runs on the Artinian backend")
    if c < 0:
        raise ValueError(f"the exponent c must be nonnegative, got {c}")
    ann = annihilator if annihilator is not None else derived_annihilator(F)
    chosen, _, found = select_independent_mod_m2(A, ann, c)
    if c > 0 and chosen is None:
        return DivisibilityResult(False, None,
                                  f"only {found} annihilator element(s) independent mod m^2")
    coeffs, low = betti_poly_with_offset(F)
    q = divide_by_power_of_one_plus_t(coeffs, c)
    if q is None or any(x < 0 for x in q):
        return DivisibilityResult(False, None,
                                  "divisibility fails: refutation flag, please report")
    return DivisibilityResult(True, tuple(q), f"quotient offset t^{low}")


def betti_poly_with_offset(F: FreeComplex):
    bt = betti(F)
    lo = F.low
    return [bt.get(i, 0) for i in range(lo, F.top + 1)], lo


# ---------------------------------------------------------------------------
# search harness for the tensor-model question (kept open; verification only)


def koszul_tensor_model(A, z_blocks: list, b: int) -> FreeComplex:
    """Koszul-patterned complex with matrix coefficients z_1..z_c on A^b."""
    c = len(z_blocks)
    for i in range(c):
        for j in range(i + 1, c):
            if not z_blocks[i].mul(z_blocks[j]).sub(z_blocks[j].mul(z_blocks[i])).is_zero():
                raise ValueError("the candidate actions must commute")
    ranks = [len(subsets(c, n)) * b for n in range(c + 1)]
    return FreeComplex(A, 0, tuple(ranks), koszul_differentials(A, z_blocks))


def tensor_model_search(F: FreeComplex, z_blocks: list, rng):
    """Verification half of the open tensor-model question.

    Given candidate commuting actions on F_0, build the model complex and
    search for an explicit chain isomorphism to F.  Returns the isomorphism
    or None; a None is only "no certificate found", never a disproof.
    """
    A = F.algebra
    b = F.rank(F.low)
    model = koszul_tensor_model(A, z_blocks, b)
    maps = chain_map_space(model, F)
    if not maps:
        return None
    f = A.field
    for _ in range(64):  # random combinations tried
        combo = None
        for g in maps:
            coeff = f.from_int(rng.randrange(0, 7))
            if not coeff:
                continue
            scaled = g.scale(coeff)
            combo = scaled if combo is None else combo.add(scaled)
        if combo is None:
            continue
        ok = True
        for i in model.degrees():
            if not is_invertible(combo.component(i).mod_m()):
                ok = False
                break
        if ok:
            return combo
    return None
