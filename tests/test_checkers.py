import random

import pytest

from derfree.checkers import (Decomposition, DecompositionObstruction, ECIResult,
                              InstanceBundle, artinian_ci_test, check_lemma32,
                              check_question, check_thm31, check_thm41,
                              check_thm51, divide_by_power_of_one_plus_t,
                              fiber_algebra, is_exceptional_ci_surjective,
                              koszul_decompose, koszul_tensor_model,
                              prop44_divisibility, quotient_algebra,
                              tensor_model_search)
from derfree.complexes import (AMatrix, direct_sum, free_complex,
                               random_transport, shift)
from derfree.field import GF101, QQ
from derfree.fixtures import (CATALOG, build_ex23, build_ex45, build_ex55, build_ex56,
                              build_ex57, build_nagata, build_strict_attempt,
                              build_two_term_module_complex, catalog_algebra, plane_onto_line,
                              square_zero_plane, square_zero_space)
from derfree.koszul import koszul
from derfree.linalg import Matrix, column_space_basis
from derfree.modules import GradedModule
from derfree.monomial import monomial_algebra
from derfree.morphism import morphism_from_generator_images
from derfree.resolutions import tor_k_dims


def test_question_ex56_passes():
    rep = check_question(build_ex56(GF101))
    assert rep.verdict == "pass"
    assert rep.data["proj_dim"] == 2 and rep.data["edim_A"] - rep.data["edim_B"] == 2


def test_question_ex57_open_instance():
    rep = check_question(build_ex57(GF101))
    assert rep.verdict == "pass"
    assert rep.data["open_instance"] is True
    assert rep.data["H0_rank"] == 1


def test_question_koszul_bundle_passes():
    rep = check_question(build_ex45(GF101))
    assert rep.verdict == "pass"


def test_question_refuses_h_level_only():
    rep = check_question(build_ex23(GF101))
    assert rep.verdict == "not_applicable"
    assert "certificate_impossible_for" in rep.data


def test_lemma32_numbers_on_graded_example():
    rep = check_lemma32(build_ex23(GF101))
    assert rep.verdict == "pass"
    assert rep.data["dim_A"] == 1 and rep.data["dim_B"] == 1
    assert rep.data["depth_A"] == 0 and rep.data["sup_H"] == 1


def test_lemma32_koszul_fixture():
    rep = check_lemma32(build_ex45(GF101))
    assert rep.verdict == "pass"
    # proj dim 1 >= depth A - dim B + sup H = 0 - 1 + 1
    assert rep.data["proj_dim"] == 1


def test_lemma32_artinian_instances_trivial_bound():
    rep = check_lemma32(build_ex56(GF101))
    assert rep.verdict == "pass"


def test_thm31_degenerate_field_case():
    k_alg = monomial_algebra(GF101, ["x"], ["x"], 4).artinize()
    phi = morphism_from_generator_images(k_alg, k_alg, {"x": "0"})
    F = free_complex(k_alg, [1], [])
    from derfree.actions import ActionCertificate
    cert = ActionCertificate(phi, (), ())
    b = InstanceBundle("field", k_alg, k_alg, phi, F, certificate=cert)
    rep = check_thm31(b)
    assert rep.verdict == "pass"


def test_thm31_hypotheses_not_met_on_counterexample():
    rep = check_thm31(build_ex23(GF101))
    assert rep.verdict == "not_applicable"
    names = {c.name: c.status for c in rep.checks}
    assert names["regularity_bound"] == "fail"


def test_eci_identity_is_trivially_eci():
    B = monomial_algebra(GF101, ["x"], ["x^4"], 8).artinize()
    phi = morphism_from_generator_images(B, B, {"x": "x"})
    res = is_exceptional_ci_surjective(phi)
    assert res.value and res.exact


def test_eci_zerodivisor_kernel_rejected():
    b = build_ex23(GF101)
    res = is_exceptional_ci_surjective(b.phi)
    assert res.value is False


def test_eci_regular_variable_up_to_window():
    A, B, phi = plane_onto_line(GF101, ideal=())
    res = is_exceptional_ci_surjective(phi)
    assert res.value is True and res.exact is False


def test_thm41_fixtures():
    assert check_thm41(build_nagata(GF101)).verdict == "pass"
    assert check_thm41(build_strict_attempt(GF101)).verdict == "not_applicable"
    assert check_thm41(build_two_term_module_complex(GF101)).verdict == "not_applicable"


def zero_complex_bundle(field, artinian: bool) -> InstanceBundle:
    """The zero complex over A = k[x,y]/(x^2,y^2), with B = k[y]/(y^2) and kernel (x)."""
    A = monomial_algebra(field, ["x", "y"], ["x^2", "y^2"], 6)
    B = monomial_algebra(field, ["y"], ["y^2"], 6)
    if artinian:
        A, B = A.artinize(), B.artinize()
    phi = morphism_from_generator_images(A, B, {"x": "0", "y": "y"})
    return InstanceBundle("zero", A, B, phi, free_complex(A, [], []),
                          h_kernel=(A.parse_element("x"),))


@pytest.mark.parametrize("field", [GF101, QQ], ids=["GF101", "QQ"])
@pytest.mark.parametrize("artinian", [False, True], ids=["graded", "artinian"])
def test_checkers_give_no_verdict_on_the_zero_complex(field, artinian):
    """A complex with no homology is outside Lemma 3.2: its failed hypothesis
    H(F) != 0 keeps proj dim = -inf from raising the refutation flag.  Theorem
    4.1 on a free complex checks preconditions only, and a report with no
    evaluated conclusion is not a pass."""
    bundle = zero_complex_bundle(field, artinian)
    rep = check_lemma32(bundle)
    assert rep.verdict == "not_applicable"
    statuses = {c.name: (c.kind, c.status) for c in rep.checks}
    assert statuses["H_is_nonzero"] == ("hypothesis", "fail")
    assert statuses["bound_via_dim"] == ("conclusion", "fail")
    if artinian:
        with pytest.raises(ValueError, match="graded backend"):
            check_thm41(bundle)
        return
    rep = check_thm41(bundle)
    assert [(c.kind, c.status) for c in rep.checks] == [("precondition", "pass")] * 2
    assert rep.verdict == "not_applicable"


def test_a_verdict_needs_an_evaluated_conclusion_and_passed_gates():
    from derfree.checkers import Check, CheckReport
    pre, hyp = Check("p", "precondition", "pass"), Check("h", "hypothesis", "pass")
    cases = [((pre, hyp), "not_applicable"),
             ((pre, hyp, Check("c", "conclusion", "skip")), "not_applicable"),
             ((pre, hyp, Check("c", "conclusion", "skip"), Check("d", "conclusion", "pass")),
              "pass"),
             ((pre, hyp, Check("c", "conclusion", "fail")), "fail"),
             ((pre, Check("h", "hypothesis", "fail"), Check("c", "conclusion", "fail")),
              "not_applicable"),
             ((Check("p", "precondition", "fail"), Check("c", "conclusion", "pass")),
              "not_applicable"),
             ((pre, Check("i", "info", "fail"), Check("c", "conclusion", "pass")), "pass")]
    for checks, verdict in cases:
        assert CheckReport("t", checks).verdict == verdict, checks


@pytest.mark.parametrize("build", [build_nagata, build_two_term_module_complex])
def test_tor_builds_each_action_block_once(monkeypatch, build):
    real, seen = GradedModule.act_element, []

    def counted(M, el, d):
        seen.append((id(M), el, d))
        return real(M, el, d)

    monkeypatch.setattr(GradedModule, "act_element", counted)
    C = build(GF101).module_complex
    tor = tor_k_dims(C, 3)
    assert seen and len(seen) == len(set(seen)), tor


def test_thm51_examples():
    assert check_thm51(build_ex55(GF101)).verdict == "pass"
    assert check_thm51(build_ex56(GF101)).verdict == "pass"
    rep = check_thm51(build_ex57(GF101))
    assert rep.verdict == "not_applicable"
    assert rep.data["beta0_mAB"] == 3


def test_thm51_koszul_fixture_every_equality():
    A = square_zero_space(GF101)
    xs = [A.parse_element("x"), A.parse_element("y")]
    K = koszul(A, xs, multiplicity=2).complex
    # B = A/(x, y)
    span = []
    for x in xs:
        for t in range(A.dim):
            span.append(A.el_mul(x, A.basis_element(t)))
    ideal = column_space_basis(Matrix.from_columns(GF101, span, nrows=A.dim))
    B = quotient_algebra(A, ideal)
    phi = morphism_from_generator_images(A, B, {"x": "0", "y": "0", "z": "z"})
    from derfree.actions import ActionCertificate
    cert = ActionCertificate(phi, (), (("x", None), ("y", None)))
    b = InstanceBundle("koszul", A, B, phi, K, certificate=cert)
    rep = check_thm51(b)
    assert rep.verdict == "pass"
    names = {c.name: c.status for c in rep.checks}
    assert names["defect_equalities"] == "pass"


def test_fiber_algebra_and_ci_test():
    b = build_ex57(GF101)
    C = fiber_algebra(b.phi)
    assert C.dim == 3  # k[u,v]/(u,v)^2
    ci, exact, note = artinian_ci_test(C)
    assert ci is False and exact


def test_ci_test_large_embedding_dimension_pattern():
    C = monomial_algebra(GF101, ["x", "y", "z"],
                         ["x^2", "y^2", "z^2"], 6).artinize()
    ci, exact, note = artinian_ci_test(C)
    assert ci is True and exact is False  # pattern evidence only


def test_decompose_koszul_itself():
    A = square_zero_plane(GF101)
    K = koszul(A, [A.parse_element("x")]).complex
    dec = koszul_decompose(K)
    assert isinstance(dec, Decomposition)
    assert dec.multiplicity == 1


def test_decompose_one_term_complex_is_the_empty_koszul_complex():
    # K(empty sequence)^2 = A^2 in degree 0: no element is needed, none is chosen
    A = square_zero_plane(GF101)
    F = free_complex(A, [2], [])
    dec = koszul_decompose(F)
    assert isinstance(dec, Decomposition)
    assert dec.elements == () and dec.multiplicity == 2
    assert dec.lift.phi.is_chain_map()


def test_decompose_round_trip_small():
    rng = random.Random(4)
    A = square_zero_space(GF101)
    xs = [A.parse_element("x"), A.parse_element("y")]
    G = random_transport(koszul(A, xs, multiplicity=2).complex, rng)
    dec = koszul_decompose(G)
    assert isinstance(dec, Decomposition)
    assert dec.multiplicity == 2


def test_decompose_defect_five():
    # the defect has no cap: K(a, b, c, d, e) over m^2 in five variables
    rng = random.Random(5)
    names = ["a", "b", "c", "d", "e"]
    m2 = [f"{u}*{v}" for i, u in enumerate(names) for v in names[i:]]
    A = monomial_algebra(GF101, names, m2, 3).artinize()
    G = random_transport(koszul(A, [A.parse_element(v) for v in names]).complex, rng)
    dec = koszul_decompose(G)
    assert isinstance(dec, Decomposition)
    assert dec.multiplicity == 1 and len(dec.elements) == 5


def test_decompose_takes_the_annihilator_it_is_given(monkeypatch):
    # a caller holding the annihilator gets the same answer without a second
    # annihilator computation; ex5.5 covers the obstruction branch
    import derfree.checkers as checkers
    from derfree.homotopy import derived_annihilator
    rng = random.Random(7)
    A = square_zero_space(GF101)
    xs = [A.parse_element("x"), A.parse_element("y")]
    cases = [random_transport(koszul(A, xs, multiplicity=2).complex, rng),
             build_ex55(GF101).F]
    expected = [koszul_decompose(F) for F in cases]
    anns = [derived_annihilator(F) for F in cases]

    def refuse(*args, **kwargs):
        raise AssertionError("derived_annihilator called although one was passed")

    monkeypatch.setattr(checkers, "derived_annihilator", refuse)
    for F, ann, want in zip(cases, anns, expected):
        assert koszul_decompose(F, annihilator=ann) == want
    assert isinstance(expected[0], Decomposition)
    assert isinstance(expected[1], DecompositionObstruction)


def test_decompose_obstruction_on_ex55():
    dec = koszul_decompose(build_ex55(GF101).F)
    assert isinstance(dec, DecompositionObstruction)
    assert dec.needed == 1 and dec.found_rank == 0


def test_decompose_succeeds_iff_elements_exist():
    # planted elements => success; success => elements exist (the selection
    # itself is the witness)
    rng = random.Random(12)
    A = square_zero_plane(GF101)
    G = random_transport(koszul(A, [A.parse_element("y")], multiplicity=3).complex, rng)
    dec = koszul_decompose(G)
    assert isinstance(dec, Decomposition)
    from derfree.homotopy import derived_annihilator
    ann = derived_annihilator(G)
    from derfree.checkers import select_independent_mod_m2
    chosen, _, found = select_independent_mod_m2(A, ann, 1)
    assert chosen is not None


def test_polynomial_division():
    assert divide_by_power_of_one_plus_t([1, 2, 1], 2) == [1]
    assert divide_by_power_of_one_plus_t([2, 3, 1], 1) == [2, 1]
    assert divide_by_power_of_one_plus_t([1, 1, 1], 1) is None


def test_prop44_koszul_quotient_b():
    A = square_zero_plane(GF101)
    K = koszul(A, [A.parse_element("x"), A.parse_element("y")], multiplicity=3).complex
    res = prop44_divisibility(K, 2)
    assert res.holds and res.quotient == (3,)


def test_prop44_mixed_sum_quotient():
    A = square_zero_plane(GF101)
    K = koszul(A, [A.parse_element("x")]).complex
    mixed = direct_sum(direct_sum(K, K), shift(K, 1))
    res = prop44_divisibility(mixed, 1)
    assert res.holds and res.quotient == (2, 1)  # 2 + t


def test_prop44_c_zero_trivial():
    A = square_zero_plane(GF101)
    F = free_complex(A, [2, 2], [[["y", "0"], ["-x", "y"]]])
    res = prop44_divisibility(F, 0)
    assert res.holds and res.quotient == (2, 2)


def test_negative_counts_are_refused():
    A = square_zero_plane(GF101)
    K = koszul(A, [A.parse_element("x")]).complex
    with pytest.raises(ValueError, match="nonnegative"):
        divide_by_power_of_one_plus_t([1, 1], -1)
    with pytest.raises(ValueError, match="nonnegative"):
        prop44_divisibility(K, -1)
    with pytest.raises(ValueError, match="multiplicity"):
        koszul(A, [A.parse_element("x")], multiplicity=0)
    with pytest.raises(ValueError, match="truncation"):
        monomial_algebra(GF101, ["x"], ["x^2"], -1)


def test_tensor_model_search_recovers_ex56():
    rng = random.Random(19)
    b = build_ex56(GF101)
    A = b.A
    c1 = AMatrix.from_strings(A, [["-y", "0", "0"], ["x", "-y", "0"], ["0", "x", "-y"]])
    c2 = AMatrix.from_strings(A, [["-z", "0", "0"], ["y", "-z", "0"], ["0", "y", "-z"]])
    iso = tensor_model_search(b.F, [c1, c2], rng)
    assert iso is not None
    assert iso.is_chain_map()


def test_tensor_model_requires_commuting_actions():
    b = build_ex56(GF101)
    A = b.A
    c1 = AMatrix.from_strings(A, [["0", "1", "0"], ["0", "0", "0"], ["0", "0", "0"]])
    c2 = AMatrix.from_strings(A, [["0", "0", "0"], ["1", "0", "0"], ["0", "0", "0"]])
    with pytest.raises(ValueError):
        koszul_tensor_model(A, [c1, c2], 3)


def test_thm51_never_fails_on_certified_koszul_instances():
    # with a verified certificate and the defect bound satisfied, every
    # conclusion must hold: exhaustive over the catalog cells at p, b <= 3
    from derfree.actions import ActionCertificate
    from derfree.checkers import quotient_algebra
    from derfree.complexes import random_transport
    from derfree.linalg import column_space_basis
    rng = random.Random(3141)
    for name, variables, *_ in CATALOG:
        A = catalog_algebra(GF101, name)
        els = [A.parse_element(v) for v in variables]
        for p in (1, 2, 3):
            xs = els[:p]
            span = []
            for x in xs:
                for t in range(A.dim):
                    span.append(A.el_mul(x, A.basis_element(t)))
            ideal = column_space_basis(Matrix.from_columns(GF101, span, nrows=A.dim))
            B = quotient_algebra(A, ideal)
            images = {v: "0" for v in variables[:p]}
            for v in variables[p:]:
                images[v] = v if v in B.labels else "0"
            phi = morphism_from_generator_images(A, B, images)
            cert = ActionCertificate(phi, (), tuple((v, None) for v in variables[:p]))
            for b in (1, 2, 3):
                G = random_transport(koszul(A, xs, multiplicity=b).complex, rng)
                bundle = InstanceBundle(f"rand-{p}-{b}", A, B, phi, G, certificate=cert)
                rep = check_thm51(bundle)
                assert rep.verdict == "pass", (variables, p, b, rep.as_dict())


def test_one_fixture_replay_verifies_each_certificate_once(monkeypatch):
    """One Analysis per bundle: 4 certificate checks and one homology per (complex, degree)."""
    import sys

    from derfree import actions, complexes
    from derfree.field import QQ
    from derfree.fixtures import run_fixtures

    calls = []
    held = []  # keeps every argument alive, so no id is reused during the replay

    def counting(fn):
        def wrapper(*args):
            held.append(args)
            calls.append((fn.__name__,) + tuple(a if isinstance(a, int) else id(a)
                                                for a in args))
            return fn(*args)
        return wrapper

    modules = [m for name, m in sys.modules.items() if name.startswith("derfree")]
    for fn in (actions.verify_certificate, complexes.homology, complexes.graded_homology):
        wrapper = counting(fn)
        for mod in modules:
            if getattr(mod, fn.__name__, None) is fn:
                monkeypatch.setattr(mod, fn.__name__, wrapper)
    _, report = run_fixtures(QQ)
    assert report["all_passed"]
    assert len([c for c in calls if c[0] == "verify_certificate"]) == 4
    assert len(calls) == len(set(calls))


def test_one_analysis_computes_the_depth_of_A_once(monkeypatch):
    """question, lemma32 and thm31 on one Analysis of ex2.3 read one depth of A."""
    import derfree.checkers as checkers
    from derfree.checkers import Analysis

    rings = []
    graded_depth = checkers.graded_depth

    def counting(M, bound):
        rings.append(M.algebra)
        return graded_depth(M, bound)

    monkeypatch.setattr(checkers, "graded_depth", counting)
    an = Analysis(build_ex23(GF101))
    for check in (checkers.check_question, checkers.check_thm31, checkers.check_lemma32):
        check(an)
    assert rings == [an.bundle.A]


def test_an_analysis_stores_nothing_on_its_inputs():
    from derfree.checkers import Analysis
    for build in (build_ex23, build_ex45, build_ex55, build_ex56, build_ex57):
        b = build(GF101)
        inputs = (b, b.F, b.certificate) if b.certificate is not None else (b, b.F)
        before = [dict(vars(x)) for x in inputs]
        an = Analysis(b)
        for check in (check_question, check_lemma32, check_thm31, check_thm51):
            check(an)
        assert [dict(vars(x)) for x in inputs] == before


@pytest.mark.parametrize("field", [GF101, QQ], ids=["GF101", "QQ"])
@pytest.mark.parametrize("source, target, images, expected", [
    ((["x"], ["x^3"]), (["x"], ["x^2"]), {"x": "x"},
     ECIResult(False, True, "kernel generators do not extend a minimal generating set of m")),
    ((["x", "y"], ["x^2", "x*y", "y^2"]), (["y"], ["y^2"]), {"x": "0", "y": "y"},
     ECIResult(False, True,
               "first Koszul homology of the kernel generators is nonzero (dim 2)")),
    ((["x", "y"], ["x^2", "x*y", "y^2"]), (["x", "y"], ["x^2", "x*y", "y^2"]),
     {"x": "x", "y": "y"}, ECIResult(True, True, "zero kernel: empty regular sequence")),
], ids=["x3-onto-x2", "plane-onto-y2", "plane-identity"])
def test_eci_on_artinian_quotients(field, source, target, images, expected):
    A = monomial_algebra(field, *source, 4).artinize()
    B = monomial_algebra(field, *target, 4).artinize()
    assert is_exceptional_ci_surjective(morphism_from_generator_images(A, B, images)) == expected
