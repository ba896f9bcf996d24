import itertools
import random

import pytest

from derfree.algebra import adapted_basis
from derfree.complexes import direct_sum, scalar_endo, shift
from derfree.field import GF101
from derfree.fixtures import build_ex55, build_ex56, square_zero_space
from derfree.homotopy import solve_homotopy
from derfree.koszul import koszul
from derfree.linalg import Matrix
from derfree.weyl import (NotChainMap, NotInvertibleModM, WeylError, check_lemmaA1,
                          check_weyl_relations, conjugate, exterior_model,
                          koszul_lift, random_graded_conjugate, structure_map,
                          weyl_rep_from_witnesses)


def all_monotone(p):
    return [I for n in range(p + 1) for I in itertools.combinations(range(p), n)]


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_exterior_model_relations(p):
    rep = exterior_model(GF101, p, 2)
    assert check_weyl_relations(rep, extended=True).passed


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_lemmaA1_on_exterior_model(p):
    rep = exterior_model(GF101, p, 1)
    for I in all_monotone(p):
        assert check_lemmaA1(rep, I)


def test_lemmaA1_empty_sequence_both_sides_identity():
    rep = exterior_model(GF101, 3, 2)
    assert check_lemmaA1(rep, ())


def test_lemmaA1_full_sequence_identity_on_bottom():
    # t_op([p]) s_[p] restricted to V_0 is the identity
    p = 3
    rep = exterior_model(GF101, p, 2)
    word = tuple(("t", i) for i in reversed(range(p))) + tuple(("s", i) for i in range(p))
    m = rep.word_matrix(word, 0)
    assert m == Matrix.identity(GF101, rep.dim_at(0))


def test_planted_sign_error_fails():
    rep = exterior_model(GF101, 2, 1)
    bad_s = list(list(per) for per in rep.S)
    bad_s[0][0] = bad_s[0][0].neg()
    from derfree.weyl import WModuleRep
    broken = WModuleRep(rep.field, rep.p, rep.dims,
                        tuple(tuple(per) for per in bad_s), rep.T)
    assert not check_weyl_relations(broken).passed


def test_random_conjugates_pass_everything():
    rng = random.Random(31)
    for p in (2, 3, 4):
        rep = random_graded_conjugate(exterior_model(GF101, p, 2), rng)
        assert check_weyl_relations(rep, extended=True).passed
        for I in all_monotone(p):
            assert check_lemmaA1(rep, I)
        sm = structure_map(rep)
        assert sm.iso and sm.dims_law and sm.nonvanishing


def test_structure_map_exterior_is_permutation():
    rep = exterior_model(GF101, 2, 1)
    sm = structure_map(rep)
    assert sm.iso
    for m in sm.matrices:
        # each column is a signed standard basis vector
        for j in range(m.ncols):
            col = [x for x in m.column(j) if x != 0]
            assert len(col) == 1


def test_structure_map_requires_bottom():
    rep = exterior_model(GF101, 2, 1)
    from derfree.weyl import WModuleRep
    hollow = WModuleRep(rep.field, rep.p, (0,) + rep.dims[1:], rep.S, rep.T)
    with pytest.raises(WeylError):
        structure_map(hollow)


def test_koszul_lift_direct_construction():
    A = square_zero_space(GF101)
    xs = [A.parse_element("x"), A.parse_element("y")]
    K = koszul(A, xs, multiplicity=2).complex
    hs = [solve_homotopy(scalar_endo(K, x)) for x in xs]
    lift = koszul_lift(K, xs, hs)
    assert lift.multiplicity == 2
    assert lift.phi.is_chain_map()


def test_koszul_lift_round_trip_on_transport():
    rng = random.Random(77)
    A = square_zero_space(GF101)
    xs = [A.parse_element("x"), A.parse_element("y")]
    from derfree.complexes import random_transport
    G = random_transport(koszul(A, xs, multiplicity=2).complex, rng)
    hs = [solve_homotopy(scalar_endo(G, x)) for x in xs]
    assert all(h is not None for h in hs)
    lift = koszul_lift(G, xs, hs)
    assert lift.multiplicity == 2


def test_koszul_lift_rejects_bad_witness():
    b = build_ex55(GF101)
    A, F = b.A, b.F
    x = A.parse_element("x")
    # x id is not null-homotopic on this complex, so no witness exists; a
    # fabricated zero witness must be rejected
    from derfree.homotopy import Homotopy
    fake = Homotopy(F, F, ())
    with pytest.raises(NotChainMap):
        koszul_lift(F, [x], [fake])


def test_koszul_lift_rejects_a_phi_that_misses_higher_degrees_of_f():
    """On K(x) (+) K(x)[2], x bounds a homotopy, but Phi: K(x) -> F is zero on F_2 and F_3."""
    A = square_zero_space(GF101)
    x = A.parse_element("x")
    K = koszul(A, [x]).complex
    F = direct_sum(K, shift(K, 2))
    h = solve_homotopy(scalar_endo(F, x))
    with pytest.raises(NotInvertibleModM, match="degree 2"):
        koszul_lift(F, [x], [h])


def test_koszul_lift_rejects_a_sequence_dependent_modulo_m2():
    """x and 2x both bound homotopies on K(x, y), but Phi_1 is singular mod m."""
    A = square_zero_space(GF101)
    x = A.parse_element("x")
    K = koszul(A, [x, A.parse_element("y")]).complex
    xs = [x, A.el_scale(GF101.from_int(2), x)]
    hs = [solve_homotopy(scalar_endo(K, e)) for e in xs]
    with pytest.raises(NotInvertibleModM, match="degree 1"):
        koszul_lift(K, xs, hs)


def test_weyl_rep_from_ex56_witnesses():
    b = build_ex56(GF101)
    A, F = b.A, b.F
    U = b.certificate.generator("u")
    x = A.parse_element("x")
    y = A.parse_element("y")
    z = A.parse_element("z")
    # y id - x U and z id - x U^2 are null-homotopic: the corrected relations
    f1 = scalar_endo(F, y).sub(scalar_endo(F, x).compose(U))
    U2 = U.compose(U)
    f2 = scalar_endo(F, z).sub(scalar_endo(F, x).compose(U2))
    h1 = solve_homotopy(f1)
    h2 = solve_homotopy(f2)
    assert h1 is not None and h2 is not None
    ab = adapted_basis(A, prescribed=(y, z))
    rep = weyl_rep_from_witnesses(F, ab, [0, 1], [h1, h2])
    assert check_weyl_relations(rep, extended=False).passed
    sm = structure_map(rep)
    assert sm.iso and sm.dims_law


def test_conjugation_by_identity_is_identity():
    rep = exterior_model(GF101, 2, 2)
    gs = [Matrix.identity(GF101, rep.dim_at(d)) for d in range(rep.top + 1)]
    assert conjugate(rep, gs) == rep


def test_koszul_lift_bottom_homology_dimensions():
    # H_0 of the lifted complex is b copies of A/(x): dimension counts match
    from derfree.complexes import homology, random_transport
    rng = random.Random(5)
    A = square_zero_space(GF101)
    xs = [A.parse_element("x"), A.parse_element("y")]
    b = 2
    G = random_transport(koszul(A, xs, multiplicity=b).complex, rng)
    hs = [solve_homotopy(scalar_endo(G, x)) for x in xs]
    lift = koszul_lift(G, xs, hs)
    HK = homology(lift.koszul_complex, 0)
    HF = homology(G, 0)
    assert HK.dim == HF.dim
    quotient_dim = A.dim - 2  # A/(x, y): the ideal (x,y) = m here has dim 2... 
    assert HK.dim == b * (A.dim - 2)
