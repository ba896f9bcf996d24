"""Built-in example fixtures with pinned expected outcomes.

Each fixture builds its instance from scratch over the session field, runs a
fixed list of named checks, and compares them against expected values stored
with a provenance tag: PAPER (stated in the source example), TRIVIAL
(immediate), DERIVED (computed independently and frozen).  The runner output
is deterministic and byte-stable.
"""

from __future__ import annotations

from dataclasses import dataclass

from .actions import (ActionCertificate, check_quotient_H_action, witness_from_matrices,
                      zero_witness)
from .checkers import (Analysis, DecompositionObstruction, InstanceBundle, check_lemma32,
                       check_question, check_thm31, check_thm41, check_thm51,
                       koszul_decompose)
from .complexes import AMatrix, ChainMap, amatrix_blockdiag, free_complex, scalar_endo
from .field import GF101, field_to_config
from .homotopy import solve_homotopy
from .koszul import koszul, koszul_annihilator_check
from .modules import graded_nu, graded_quotient_ring_module, is_free, nu
from .monomial import monomial_algebra
from .morphism import morphism_from_generator_images
from .resolutions import (GradedModuleComplex, direct_sum_complex,
                          module_as_complex)


@dataclass(frozen=True)
class FixtureItem:
    name: str
    provenance: str  # "PAPER" | "TRIVIAL" | "DERIVED"
    passed: bool
    detail: str

    def as_dict(self):
        return {"name": self.name, "provenance": self.provenance,
                "passed": self.passed, "detail": self.detail}


@dataclass(frozen=True)
class FixtureResult:
    name: str
    description: str
    passed: bool
    items: tuple
    reports: dict

    def as_dict(self):
        return {"name": self.name, "description": self.description,
                "passed": self.passed,
                "items": [i.as_dict() for i in self.items],
                "reports": self.reports}


# ---------------------------------------------------------------------------
# shared constructions


def square_zero_plane(field):
    """k[x,y]/(x,y)^2 as structure constants."""
    return monomial_algebra(field, ["x", "y"], ["x^2", "x*y", "y^2"], 4).artinize()


def square_zero_space(field):
    """k[x,y,z]/(x,y,z)^2."""
    return monomial_algebra(
        field, ["x", "y", "z"],
        ["x^2", "x*y", "x*z", "y^2", "y*z", "z^2"], 4).artinize()


def chain_algebra(field, n: int):
    """k[u]/(u^n)."""
    return monomial_algebra(field, ["u"], [f"u^{n}"], 2 * n).artinize()


def build_ex55(field) -> InstanceBundle:
    A = square_zero_plane(field)
    B = chain_algebra(field, 4)
    phi = morphism_from_generator_images(A, B, {"x": "u^2", "y": "u^3"})
    F = free_complex(A, [2, 2], [[["y", "0"], ["-x", "y"]]])
    U0 = AMatrix.from_strings(A, [["0", "x"], ["1", "0"]])
    U = ChainMap.from_dict(F, F, {0: U0, 1: U0})
    neg_id = AMatrix.from_strings(A, [["-1", "0"], ["0", "-1"]])
    cert = ActionCertificate(phi, (("u", U),), (
        ("u^2 - x", zero_witness(F)),
        ("u^3 - y", witness_from_matrices(F, {0: neg_id})),
    ))
    return InstanceBundle("ex5.5", A, B, phi, F, certificate=cert)


def build_ex56(field) -> InstanceBundle:
    A = square_zero_space(field)
    B = chain_algebra(field, 6)
    phi = morphism_from_generator_images(A, B, {"x": "u^3", "y": "u^4", "z": "u^5"})
    c1 = [["-y", "0", "0"], ["x", "-y", "0"], ["0", "x", "-y"]]
    c2 = [["-z", "0", "0"], ["y", "-z", "0"], ["0", "y", "-z"]]
    neg_c1 = [["y", "0", "0"], ["-x", "y", "0"], ["0", "-x", "y"]]
    d1 = [r1 + r2 for r1, r2 in zip(c1, c2)]
    d2 = [list(r) for r in c2] + [list(r) for r in neg_c1]
    F = free_complex(A, [3, 6, 3], [d1, d2])
    E = AMatrix.from_strings(A, [["0", "0", "x"], ["1", "0", "0"], ["0", "1", "0"]])
    U = ChainMap.from_dict(F, F, {0: E, 1: amatrix_blockdiag(A, [E, E]), 2: E})
    cert = ActionCertificate(phi, (("u", U),), (
        ("u^3 - x", zero_witness(F)),
        ("u^4 - y", None),
        ("u^5 - z", None),
    ))
    return InstanceBundle("ex5.6", A, B, phi, F, certificate=cert)


def build_ex57(field) -> InstanceBundle:
    A = square_zero_space(field)
    B = monomial_algebra(field, ["u", "v"],
                         ["u^4", "u^3*v", "u^2*v^2", "u*v^3", "v^4"], 8).artinize()
    phi = morphism_from_generator_images(A, B, {"x": "u^2", "y": "u*v", "z": "v^2"})
    F = free_complex(A, [3, 3], [[["-y", "-z", "0"], ["x", "y", "0"], ["0", "0", "0"]]])
    U0 = AMatrix.from_strings(A, [["0", "0", "1"], ["0", "0", "0"], ["x", "y", "0"]])
    U1 = AMatrix.from_strings(A, [["0", "0", "-y"], ["0", "0", "x"], ["0", "1", "0"]])
    V0 = AMatrix.from_strings(A, [["0", "0", "0"], ["0", "0", "1"], ["y", "z", "0"]])
    V1 = AMatrix.from_strings(A, [["0", "0", "-z"], ["0", "0", "y"], ["-1", "0", "0"]])
    U = ChainMap.from_dict(F, F, {0: U0, 1: U1})
    V = ChainMap.from_dict(F, F, {0: V0, 1: V1})
    neg_id = AMatrix.from_strings(
        A, [["-1", "0", "0"], ["0", "-1", "0"], ["0", "0", "-1"]])
    cert = ActionCertificate(phi, (("u", U), ("v", V)), (
        ("u^2 - x", None),
        ("v^2 - z", None),
        ("u*v - y", None),
        ("v*u - y", None),
        ("u*v - v*u", witness_from_matrices(F, {0: neg_id})),
    ))
    return InstanceBundle("ex5.7", A, B, phi, F, certificate=cert)


def build_ex23(field, truncation: int = 6) -> InstanceBundle:
    A = monomial_algebra(field, ["x", "y"], ["x^2", "x*y"], truncation)
    B = monomial_algebra(field, ["y"], [], truncation)
    phi = morphism_from_generator_images(A, B, {"x": "0", "y": "y"})
    F = free_complex(A, [1, 2], [[["x", "y"]]], shifts=[[0], [1, 1]])
    return InstanceBundle("ex2.3", A, B, phi, F, h_kernel=(A.parse_element("x"),))


def build_ex45(field, truncation: int = 6) -> InstanceBundle:
    A = monomial_algebra(field, ["x", "y"], ["x^2", "x*y"], truncation)
    B = monomial_algebra(field, ["y"], [], truncation)
    phi = morphism_from_generator_images(A, B, {"x": "0", "y": "y"})
    K = koszul(A, [A.parse_element("x")]).complex
    cert = ActionCertificate(phi, (), (("x", None),))
    return InstanceBundle("ex4.5", A, B, phi, K,
                          certificate=cert, h_kernel=(A.parse_element("x"),))


def build_nagata(field, truncation: int = 8) -> InstanceBundle:
    A = monomial_algebra(field, ["x", "y"], [], truncation)
    B = monomial_algebra(field, ["y"], [], truncation)
    phi = morphism_from_generator_images(A, B, {"x": "0", "y": "y"})
    C = module_as_complex(graded_quotient_ring_module(A, [0], truncation))
    return InstanceBundle("nagata", A, B, phi, None,
                          h_kernel=(A.parse_element("x"),), module_complex=C)


def build_strict_attempt(field, truncation: int = 6) -> InstanceBundle:
    b = build_ex45(field, truncation)
    return InstanceBundle("koszul-strict-attempt", b.A, b.B, b.phi, b.F,
                          h_kernel=b.h_kernel)


def build_two_term_module_complex(field, truncation: int = 6) -> InstanceBundle:
    A = monomial_algebra(field, ["x", "y"], ["x^2", "x*y"], truncation)
    B = monomial_algebra(field, ["y"], [], truncation)
    phi = morphism_from_generator_images(A, B, {"x": "0", "y": "y"})
    Bmod = graded_quotient_ring_module(A, [0], truncation)
    C = direct_sum_complex(module_as_complex(Bmod),
                           GradedModuleComplex(A, 1, (Bmod,), ()))
    return InstanceBundle("module-sum", A, B, phi, None,
                          h_kernel=(A.parse_element("x"),), module_complex=C)


# ---------------------------------------------------------------------------
# fixture runners


def _item(name, prov, ok, detail="") -> FixtureItem:
    return FixtureItem(name, prov, bool(ok), detail)


def run_ex55(field) -> FixtureResult:
    an = Analysis(build_ex55(field))
    b = an.bundle
    A, F = b.A, b.F
    items = []
    U = b.certificate.generator("u")
    items.append(_item("U_is_chain_map", "PAPER", U.is_chain_map()))
    U2 = U.compose(U)
    xid = scalar_endo(F, A.parse_element("x"))
    items.append(_item("U2_equals_x_id_exactly", "PAPER",
                       all(U2.component(i).sub(xid.component(i)).is_zero()
                           for i in F.degrees())))
    rep = an.certificate_status[1]
    items.append(_item("U3_homotopic_to_y_id_with_witness_minus_id", "PAPER",
                       rep.verified and rep.relation_checks[1].passed,
                       "witness -id on the middle degree"))
    M0 = an.h0_over_target
    items.append(_item("H0_dim_4_nu_1", "DERIVED", M0.dim == 4 and nu(M0) == 1,
                       f"dim {M0.dim}, nu {nu(M0)}"))
    free, rk = is_free(M0)
    items.append(_item("H0_free_rank_1_over_B", "PAPER", free and rk == 1))
    dec = koszul_decompose(F)
    items.append(_item("koszul_decompose_fails_with_obstruction", "PAPER",
                       isinstance(dec, DecompositionObstruction),
                       dec.note if isinstance(dec, DecompositionObstruction) else ""))
    q = check_question(an)
    t = check_thm51(an)
    items.append(_item("question_hypotheses_and_conclusion", "PAPER", q.verdict == "pass"))
    items.append(_item("thm51_all_conclusions", "PAPER", t.verdict == "pass"))
    return FixtureResult(
        "ex5.5",
        "two-term complex over the square-zero plane with a square-root action",
        all(i.passed for i in items), tuple(items),
        {"question": q.as_dict(), "thm51": t.as_dict()})


def run_ex56(field) -> FixtureResult:
    an = Analysis(build_ex56(field))
    b = an.bundle
    A, F = b.A, b.F
    items = []
    U = b.certificate.generator("u")
    items.append(_item("U_is_chain_map", "PAPER", U.is_chain_map()))
    U3 = U.compose(U).compose(U)
    xid = scalar_endo(F, A.parse_element("x"))
    items.append(_item("U3_equals_x_id_exactly", "PAPER",
                       all(U3.component(i).sub(xid.component(i)).is_zero()
                           for i in F.degrees())))
    rep = an.certificate_status[1]
    items.append(_item("U4_homotopic_to_y_id_solver", "PAPER", rep.relation_checks[1].passed))
    items.append(_item("U5_homotopic_to_z_id_solver", "PAPER", rep.relation_checks[2].passed))
    bt = an.betti
    items.append(_item("ranks_are_binomial_3_6_3", "PAPER",
                       (bt[0], bt[1], bt[2]) == (3, 6, 3)))
    M0 = an.h0_over_target
    free, rk = is_free(M0)
    items.append(_item("H0_free_rank_1_over_B", "PAPER", free and rk == 1,
                       f"dim {M0.dim}"))
    u = an.induced_action.matrices_at(0)["u"]
    power = u
    for _ in range(5):
        power = power.mul(u)
    items.append(_item("u_to_the_6_vanishes_on_H0", "DERIVED", power.is_zero()))
    t = check_thm51(an)
    items.append(_item("thm51_all_four_conclusions", "PAPER", t.verdict == "pass"))
    return FixtureResult(
        "ex5.6",
        "length-two complex with a cube-root action and binomial ranks (3, 6, 3)",
        all(i.passed for i in items), tuple(items),
        {"thm51": t.as_dict()})


def run_ex57(field) -> FixtureResult:
    an = Analysis(build_ex57(field))
    b = an.bundle
    A, F = b.A, b.F
    items = []
    U = b.certificate.generator("u")
    V = b.certificate.generator("v")
    items.append(_item("U_and_V_are_chain_maps", "PAPER",
                       U.is_chain_map() and V.is_chain_map()))
    d = F.diff(1)
    comm = V.component(0).mul(U.component(0)).sub(U.component(0).mul(V.component(0)))
    items.append(_item("d_equals_V0U0_minus_U0V0", "PAPER", comm.sub(d).is_zero()))
    rep = an.certificate_status[1]
    items.append(_item("all_five_relations_verified", "PAPER",
                       rep.verified and len(rep.relation_checks) == 5,
                       "; ".join(f"{rc.poly}: {rc.mode}" for rc in rep.relation_checks)))
    b0, exact = an.beta0_of_mAB
    items.append(_item("beta0_of_mAB_is_3", "DERIVED", b0 == 3 and exact))
    t = check_thm51(an)
    hyp = [c for c in t.checks if c.name == "defect_bound_via_beta0"][0]
    items.append(_item("thm51_hypothesis_fails", "PAPER",
                       t.verdict == "not_applicable" and hyp.status == "fail",
                       hyp.detail))
    q = check_question(an)
    items.append(_item("question_conclusion_holds_open_instance", "PAPER",
                       q.verdict == "pass" and q.data.get("open_instance") is True,
                       "no implemented criterion applies"))
    M0 = an.h0_over_target
    free, rk = is_free(M0)
    items.append(_item("H0_free_rank_1_over_B", "DERIVED",
                       free and rk == 1 and M0.dim == 10))
    return FixtureResult(
        "ex5.7",
        "defect-one complex where the square fiber blocks the criterion: open case",
        all(i.passed for i in items), tuple(items),
        {"thm51": t.as_dict(), "question": q.as_dict()})


def run_ex23(field) -> FixtureResult:
    an = Analysis(build_ex23(field))
    b = an.bundle
    A = b.A
    items = []
    H0 = an.homology(0)
    items.append(_item("H0_is_the_residue_field", "PAPER",
                       H0.hilbert(5) == (1, 0, 0, 0, 0, 0)))
    free, rk, note = an.h0_freeness
    items.append(_item("H0_not_free_over_B", "PAPER", free is False, note))
    hrep = check_quotient_H_action(b.F, b.h_kernel, an.homology)
    items.append(_item("x_kills_homology", "PAPER", hrep.valid))
    hrep_y = check_quotient_H_action(b.F, (A.parse_element("y"),), an.homology)
    items.append(_item("y_does_not_kill_homology", "DERIVED", not hrep_y.valid))
    x = A.parse_element("x")
    items.append(_item("x_id_not_null_homotopic", "DERIVED",
                       solve_homotopy(scalar_endo(b.F, x)) is None,
                       "solver infeasibility is a proof over this backend"))
    q = check_question(an)
    items.append(_item("question_rejected_without_certificate", "DERIVED",
                       q.verdict == "not_applicable"
                       and "certificate_impossible_for" in q.data))
    t31 = check_thm31(an)
    items.append(_item("thm31_hypotheses_not_met", "PAPER",
                       t31.verdict == "not_applicable"))
    l32 = check_lemma32(an)
    items.append(_item("lemma32_inequalities_hold", "DERIVED", l32.verdict == "pass"))
    return FixtureResult(
        "ex2.3",
        "homology-level action without a derived action: the separating example",
        all(i.passed for i in items), tuple(items),
        {"question": q.as_dict(), "thm31": t31.as_dict(), "lemma32": l32.as_dict()})


def run_ex45(field) -> FixtureResult:
    an = Analysis(build_ex45(field))
    b = an.bundle
    A = b.A
    items = []
    H0 = an.homology(0)
    items.append(_item("H0_matches_B_hilbert_function", "PAPER",
                       H0.hilbert(5) == tuple(len(b.B.basis(d)) for d in range(6))))
    H1 = an.homology(1)
    m_hf = tuple(len(A.basis(d)) for d in range(1, 6))  # m in degrees 1..5
    h1_twisted = tuple(H1.dim_at(d + 1) for d in range(1, 6))
    items.append(_item("H1_matches_m_hilbert_function_deg_le_5", "PAPER",
                       h1_twisted == m_hf,
                       f"H1 (twisted by the generator degree): {h1_twisted}, m: {m_hf}"))
    total, per_deg = graded_nu(H1)
    items.append(_item("H1_has_2_minimal_generators", "DERIVED", total == 2,
                       f"generator counts by degree: {per_deg[:4]}"))
    ann_rep = koszul_annihilator_check(koszul(A, [A.parse_element("x")]))
    items.append(_item("annihilator_contains_x", "DERIVED", ann_rep["contains_sequence"]))
    q = check_question(an)
    items.append(_item("question_hypothesis_and_conclusion_hold", "PAPER",
                       q.verdict == "pass"))
    return FixtureResult(
        "ex4.5",
        "Koszul complex on a socle element: free conclusion with non-free higher homology",
        all(i.passed for i in items), tuple(items),
        {"question": q.as_dict()})


def run_nagata(field) -> FixtureResult:
    t = check_thm41(Analysis(build_nagata(field)))
    items = [_item("thm41_hypotheses_and_conclusions", "PAPER", t.verdict == "pass")]
    ts = check_thm41(Analysis(build_strict_attempt(field)))
    items.append(_item("free_koszul_term_is_not_a_strict_B_complex", "DERIVED",
                       ts.verdict == "not_applicable"))
    tm = check_thm41(Analysis(build_two_term_module_complex(field)))
    items.append(_item("tor_vanishing_fails_for_the_module_sum", "DERIVED",
                       tm.verdict == "not_applicable"))
    return FixtureResult(
        "strict-complexes",
        "strict module complexes: the regular quotient passes, the others are rejected",
        all(i.passed for i in items), tuple(items),
        {"thm41": t.as_dict(), "strict_attempt": ts.as_dict(), "module_sum": tm.as_dict()})


FIXTURES = {
    "ex5.5": run_ex55,
    "ex5.6": run_ex56,
    "ex5.7": run_ex57,
    "ex2.3": run_ex23,
    "ex4.5": run_ex45,
    "strict-complexes": run_nagata,
}

BUILDERS = {
    "ex5.5": build_ex55,
    "ex5.6": build_ex56,
    "ex5.7": build_ex57,
    "ex2.3": build_ex23,
    "ex4.5": build_ex45,
    "nagata": build_nagata,
    "koszul-strict-attempt": build_strict_attempt,
    "module-sum": build_two_term_module_complex,
}


def export_fixture(name: str, directory: str, field=None) -> str:
    """Write the fixture's algebra/complex/certificate/bundle files.

    Returns the bundle path; the bundle references the other documents by
    path, so the exported directory is self-contained.
    """
    import os

    from . import serialize
    field = field if field is not None else GF101
    b = BUILDERS[name](field) if name in BUILDERS else None
    if b is None or b.F is None:
        raise KeyError(f"fixture {name!r} has no file form")
    os.makedirs(directory, exist_ok=True)
    prefix = name.replace(".", "_")
    paths = {"algebra_A": f"{prefix}_A.json", "algebra_B": f"{prefix}_B.json",
             "complex": f"{prefix}_F.json"}
    serialize.save(os.path.join(directory, paths["algebra_A"]),
                   serialize.algebra_to_dict(b.A))
    serialize.save(os.path.join(directory, paths["algebra_B"]),
                   serialize.algebra_to_dict(b.B))
    serialize.save(os.path.join(directory, paths["complex"]),
                   serialize.complex_to_dict(b.F, inline_algebra=True))
    bundle = {"name": name,
              "field": serialize.field_to_config(field),
              "algebra_A": paths["algebra_A"],
              "algebra_B": paths["algebra_B"],
              "images": serialize.morphism_to_dict(b.phi, inline=False)["images"],
              "complex": paths["complex"],
              "certificate": None}
    if b.certificate is not None:
        cpath = f"{prefix}_cert.json"
        serialize.save(os.path.join(directory, cpath),
                       serialize.certificate_to_dict(b.certificate, b.F))
        bundle["certificate"] = cpath
    if b.h_kernel:
        bundle["h_kernel"] = [b.A.element_to_str(a) for a in b.h_kernel]
    bundle_path = os.path.join(directory, f"{prefix}_bundle.json")
    serialize.save(bundle_path, bundle)
    return bundle_path


def run_fixtures(field=None, only: str | None = None):
    """Run the registry; returns (results, machine_report_dict)."""
    field = field if field is not None else GF101
    names = [only] if only else sorted(FIXTURES)
    results = []
    for name in names:
        if name not in FIXTURES:
            raise KeyError(f"unknown fixture {name!r}")
        results.append(FIXTURES[name](field))
    report = {
        "field": field_to_config(field),
        "fixtures": {r.name: r.as_dict() for r in results},
        "all_passed": all(r.passed for r in results),
    }
    return results, report
