import random
from dataclasses import replace

import pytest

from derfree.actions import (ActionCertificate, RelationFailsOnHomology,
                             check_quotient_H_action, evaluate_relation,
                             homology_module_over_target, homology_relation_defects,
                             induced_action_on_homology, verify_certificate,
                             witness_from_matrices, zero_witness)
from derfree.complexes import AMatrix, ChainMap, free_complex, homology, scalar_endo
from derfree.exprs import ExprError
from derfree.field import GF101, QQ
from derfree.fixtures import build_ex23, build_ex55, build_ex56, build_ex57, square_zero_plane
from derfree.modules import is_free


def test_ex55_certificate_and_modes():
    b = build_ex55(GF101)
    rep = verify_certificate(b.F, b.certificate)
    assert rep.verified
    modes = {rc.poly: rc.mode for rc in rep.relation_checks}
    assert modes["u^2 - x"] == "exact"
    assert modes["u^3 - y"] == "witness"


def test_ex56_certificate_solver_discharges():
    b = build_ex56(GF101)
    rep = verify_certificate(b.F, b.certificate)
    assert rep.verified
    modes = {rc.poly: rc.mode for rc in rep.relation_checks}
    assert modes["u^3 - x"] == "exact"
    assert modes["u^4 - y"] == "solved" and modes["u^5 - z"] == "solved"


def test_ex57_five_relations_with_commutator():
    b = build_ex57(GF101)
    rep = verify_certificate(b.F, b.certificate)
    assert rep.verified and len(rep.relation_checks) == 5


def test_broken_generator_is_flagged():
    b = build_ex55(GF101)
    A, F = b.A, b.F
    bad = AMatrix.from_strings(A, [["0", "1"], ["1", "0"]])  # not a chain map here
    cert = ActionCertificate(b.phi, (("u", ChainMap.from_dict(F, F, {0: bad, 1: bad})),),
                             (("u^2 - x", None),))
    rep = verify_certificate(F, cert)
    assert not rep.verified
    assert rep.generators_are_chain_maps["u"] is False


def test_failed_relation_reports_residual():
    b = build_ex55(GF101)
    cert = ActionCertificate(b.phi, b.certificate.generators,
                             (("u^2 - y", zero_witness(b.F)),))
    rep = verify_certificate(b.F, cert)
    assert not rep.verified
    assert rep.relation_checks[0].residual_degrees


def test_induced_action_u6_vanishes():
    b = build_ex56(GF101)
    act = induced_action_on_homology(b.F, b.certificate)
    u = act.matrices_at(0)["u"]
    power = u
    for _ in range(5):
        power = power.mul(u)
    assert power.is_zero()
    M0 = homology_module_over_target(act, 0)
    assert M0.validate() == []
    assert is_free(M0) == (True, 1)


def test_identity_action_of_the_algebra():
    b = build_ex55(GF101)
    H0 = homology(b.F, 0)
    # the A-action matrices on homology satisfy the structure constants
    assert H0.module.validate() == []


def test_check_H_action_quotient_positive_and_negative():
    b = build_ex23(GF101)
    A = b.A
    good = check_quotient_H_action(b.F, (A.parse_element("x"),))
    assert good.valid
    bad = check_quotient_H_action(b.F, (A.parse_element("y"),))
    assert not bad.valid


def test_check_H_action_zero_module():
    A = square_zero_plane(GF101)
    E = free_complex(A, [1, 1], [[["1"]]])  # exact: homology is zero
    from derfree.actions import check_quotient_H_action as chk
    # over the Artinian backend the zero module accepts anything
    rep_ok = chk(E, (A.parse_element("x"),))
    assert rep_ok.valid


def test_verified_certificate_implies_h_level():
    # the separation: certificates push to homology; ex2.3 has the H-level
    # action but provably no certificate (x id is not null-homotopic)
    b56 = build_ex56(GF101)
    act = induced_action_on_homology(b56.F, b56.certificate)  # raises if broken
    assert act is not None
    b23 = build_ex23(GF101)
    from derfree.homotopy import solve_homotopy
    assert check_quotient_H_action(b23.F, b23.h_kernel).valid
    assert solve_homotopy(scalar_endo(b23.F, b23.A.parse_element("x"))) is None


def test_witness_perturbation_invariance():
    rng = random.Random(23)
    b = build_ex55(GF101)
    A, F = b.A, b.F
    # perturb the u^3 - y witness by the boundary of a random degree-2 map;
    # for a two-term complex those boundaries vanish, so use a random
    # homotopy-shaped zero perturbation plus the original witness
    neg_id = AMatrix.scalar(A, A.el_neg(A.one), 2)
    cert = ActionCertificate(b.phi, b.certificate.generators, (
        ("u^2 - x", zero_witness(F)),
        ("u^3 - y", witness_from_matrices(F, {0: neg_id})),
    ))
    assert verify_certificate(F, cert).verified


def test_relation_polynomial_evaluation_is_left_to_right():
    b = build_ex57(GF101)
    gens = {name: g for name, g in b.certificate.generators}
    uv = evaluate_relation(b.F, gens, "u*v")
    vu = evaluate_relation(b.F, gens, "v*u")
    assert not uv.component(0).sub(vu.component(0)).is_zero()


def test_check_H_action_only_with_matrices():
    # the relations are evaluated on the homology matrices of the generators
    b = build_ex55(GF101)
    act = induced_action_on_homology(b.F, b.certificate)
    assert homology_relation_defects(act) == []
    bad = ActionCertificate(b.phi, b.certificate.generators, (("u^2 - y", None),))
    with pytest.raises(RelationFailsOnHomology):
        induced_action_on_homology(b.F, bad)


@pytest.mark.parametrize("field", [GF101, QQ], ids=["GF101", "QQ"])
def test_relations_with_integer_and_rational_literals(field):
    b = build_ex55(field)
    cert = ActionCertificate(b.phi, b.certificate.generators,
                             (("2*u^2 - 2*x", zero_witness(b.F)), ("1/2*u^2 - 1/2*x", None)))
    rep = verify_certificate(b.F, cert)
    assert rep.verified
    assert [rc.mode for rc in rep.relation_checks] == ["exact", "solved"]
    scaled = ActionCertificate(b.phi, b.certificate.generators, (("3*u^2 - 3/1*x", None),))
    assert homology_relation_defects(induced_action_on_homology(b.F, scaled)) == []


@pytest.mark.parametrize("field", [GF101, QQ], ids=["GF101", "QQ"])
def test_a_relation_with_an_unknown_name_raises(field):
    b = build_ex55(field)
    bad = ActionCertificate(b.phi, b.certificate.generators, (("u^2 - q", None),))
    with pytest.raises(ExprError):
        verify_certificate(b.F, bad)
    action = replace(induced_action_on_homology(b.F, b.certificate), certificate=bad)
    with pytest.raises(ExprError):
        homology_relation_defects(action)
