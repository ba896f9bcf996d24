"""Acceptance suite: every criterion runs at its stated size and tolerance
(exact arithmetic: tolerance zero everywhere) and prints one line."""

import ast
import itertools
import os
import random

from derfree.checkers import (Decomposition, check_question, koszul_decompose,
                              prop44_divisibility)
from derfree.complexes import (direct_sum, random_transport, scalar_endo, shift)
from derfree.field import GF101
from derfree.fixtures import CATALOG, build_ex23, catalog_algebra, run_fixtures
from derfree.homotopy import derived_annihilator, solve_homotopy
from derfree.actions import check_quotient_H_action
from derfree.koszul import koszul
from derfree.modules import is_free, lemma43_freeness
from derfree.weyl import (check_lemmaA1, check_weyl_relations, exterior_model,
                          random_graded_conjugate, structure_map)
from test_modules import random_module

FIELD = GF101


def announce(criterion: str, ok: bool):
    print(f"acceptance {criterion}: {'PASS' if ok else 'FAIL'}")
    assert ok, criterion


# ---------------------------------------------------------------------------
# the randomized criteria run on the five algebras of `fixtures.CATALOG`


def catalog():
    return [catalog_algebra(FIELD, name) for name, *_ in CATALOG]


def test_criterion_1_square_root_action_fixture():
    results, report = run_fixtures(FIELD, only="ex5.5")
    r = results[0]
    wanted = {"U_is_chain_map", "U2_equals_x_id_exactly",
              "U3_homotopic_to_y_id_with_witness_minus_id", "H0_dim_4_nu_1",
              "H0_free_rank_1_over_B", "koszul_decompose_fails_with_obstruction"}
    seen = {i.name for i in r.items if i.passed}
    announce("1 (exact relations, free H0, decomposition obstruction)",
             r.passed and wanted <= seen)


def test_criterion_2_cube_root_action_fixture():
    results, _ = run_fixtures(FIELD, only="ex5.6")
    r = results[0]
    wanted = {"U3_equals_x_id_exactly", "U4_homotopic_to_y_id_solver",
              "U5_homotopic_to_z_id_solver", "ranks_are_binomial_3_6_3",
              "H0_free_rank_1_over_B", "thm51_all_four_conclusions"}
    announce("2 (exact cube, solver witnesses, binomial ranks, criterion passes)",
             r.passed and wanted <= {i.name for i in r.items if i.passed})


def test_criterion_3_open_instance_fixture():
    results, _ = run_fixtures(FIELD, only="ex5.7")
    r = results[0]
    wanted = {"all_five_relations_verified", "d_equals_V0U0_minus_U0V0",
              "thm51_hypothesis_fails", "question_conclusion_holds_open_instance"}
    announce("3 (five relations incl. commutator, hypothesis fails, flagged open)",
             r.passed and wanted <= {i.name for i in r.items if i.passed})


def test_criterion_4_graded_counterexample_fixtures():
    r23 = run_fixtures(FIELD, only="ex2.3")[0][0]
    r45 = run_fixtures(FIELD, only="ex4.5")[0][0]
    wanted23 = {"H0_not_free_over_B", "x_kills_homology", "x_id_not_null_homotopic"}
    wanted45 = {"H1_matches_m_hilbert_function_deg_le_5", "H1_has_2_minimal_generators"}
    announce("4 (graded backend: not free, H-level action, annihilator excludes x, "
             "Koszul homology matches m)",
             r23.passed and r45.passed
             and wanted23 <= {i.name for i in r23.items if i.passed}
             and wanted45 <= {i.name for i in r45.items if i.passed})


def test_criterion_5_and_7_roundtrip_decomposition_and_divisibility():
    rng = random.Random(20260808)
    algebras = catalog()
    assert len(algebras) == 5
    total = 0
    for A in algebras:
        gens = [A.parse_element(v) for v in ("x", "y", "z")]
        for p in (1, 2, 3):
            xs = gens[:p]
            for b in (1, 2, 3):
                K = koszul(A, xs, multiplicity=b).complex
                for _ in range(10):
                    G = random_transport(K, rng)
                    ann = derived_annihilator(G)
                    dec = koszul_decompose(G, annihilator=ann)
                    assert isinstance(dec, Decomposition), (A, p, b)
                    assert dec.multiplicity == b
                    assert dec.lift.phi.is_chain_map()
                    # criterion 7 on the same instance: quotient must be the
                    # constant polynomial b
                    div = prop44_divisibility(G, p, annihilator=ann)
                    assert div.holds and div.quotient == (b,), (A, p, b)
                    total += 1
    announce(f"5 (100% of {total} random conjugates decomposed with the right "
             "multiplicity)", total == 450)
    # mixed sums: quotient a + c t
    A = algebras[0]
    x = A.parse_element("x")
    K1 = koszul(A, [x]).complex
    mixed = direct_sum(direct_sum(K1, K1), shift(K1, 1))
    div = prop44_divisibility(mixed, 1)
    announce("7 (Betti polynomial divisibility with quotient b, mixed sums a + c t)",
             div.holds and div.quotient == (2, 1))


def test_the_benchmark_round_trip_runs_the_criterion_5_catalog():
    """perfbench keeps its own copy of the catalog; it must not drift from ours."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "workloads.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    (value,) = [node.value for node in tree.body if isinstance(node, ast.Assign)
                and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["ARTINIAN"]]
    assert ast.literal_eval(value) == CATALOG


def test_criterion_6_weyl_suite():
    rng = random.Random(99)
    ok = True
    checked = 0
    for p in (1, 2, 3, 4):
        base = exterior_model(FIELD, p, 2)
        reps = [base] + [random_graded_conjugate(base, rng)
                         for _ in range(13 if p < 4 else 11)]
        for rep in reps:
            ok = ok and check_weyl_relations(rep, extended=True).passed
            for n in range(p + 1):
                for I in itertools.combinations(range(p), n):
                    ok = ok and check_lemmaA1(rep, I)
            sm = structure_map(rep)
            ok = ok and sm.iso and sm.dims_law and sm.nonvanishing
            checked += 1
    announce(f"6 (Weyl relations, subsequence identities, structure map on "
             f"{checked} representations incl. 50 random conjugates)",
             ok and checked >= 54)


def test_criterion_8_separation_regression():
    b = build_ex23(FIELD)
    h_ok = check_quotient_H_action(b.F, b.h_kernel).valid
    q = check_question(b)
    rejected = q.verdict == "not_applicable" and "certificate_impossible_for" in q.data
    no_witness = solve_homotopy(scalar_endo(b.F, b.A.parse_element("x"))) is None
    announce("8 (H-level action accepted; derived-action instance rejected with proof)",
             h_ok and rejected and no_witness)


def test_criterion_9_freeness_oracle_agreement():
    rng = random.Random(4242)
    algebras = catalog()
    agreements = 0
    for i in range(200):
        M, _ = random_module(algebras[rng.randrange(len(algebras))], rng)
        a = is_free(M)[0]
        bverdict = lemma43_freeness(M).free
        assert a == bverdict, f"disagreement at sample {i}"
        agreements += 1
    announce("9 (is_free and the series criterion agree on 200 random modules)",
             agreements == 200)


def test_criterion_10_byte_identical_reports():
    import json
    _, rep1 = run_fixtures(FIELD)
    _, rep2 = run_fixtures(FIELD)
    b1 = json.dumps(rep1, sort_keys=True).encode()
    b2 = json.dumps(rep2, sort_keys=True).encode()
    announce("10 (two consecutive full-suite runs are byte-identical)", b1 == b2)
