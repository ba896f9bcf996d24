from hypothesis import given
from hypothesis import strategies as st

from derfree.complexes import scalar_endo
from derfree.field import GF101
from derfree.fixtures import square_zero_plane
from derfree.homotopy import Homotopy
from derfree.koszul import koszul, koszul_annihilator_check, subsets, wedge_sign
from derfree.monomial import monomial_algebra


def AMatrix_from(A, rows):
    from derfree.complexes import AMatrix
    return AMatrix.from_strings(A, rows)


def cube_free():
    return monomial_algebra(GF101, ["x", "y", "z"],
                            ["x^2", "y^2", "z^2"], 6).artinize()


def test_rank_one():
    A = square_zero_plane(GF101)
    K = koszul(A, [A.parse_element("x")]).complex
    assert K.ranks == (1, 1)
    assert K.diff(1).to_strings() == [["x"]]


def test_rank_two_shape_and_signs():
    A = square_zero_plane(GF101)
    K = koszul(A, [A.parse_element("x"), A.parse_element("y")]).complex
    assert K.ranks == (1, 2, 1)
    assert K.diff(1).to_strings() == [["x", "y"]]
    # d(e_{12}) = x e_2 - y e_1
    expected = AMatrix_from(A, [["-y"], ["x"]])
    assert K.diff(2).sub(expected).is_zero()


def test_rank_three_binomials():
    A = cube_free()
    K = koszul(A, [A.parse_element(v) for v in ("x", "y", "z")]).complex
    assert K.ranks == (1, 3, 3, 1)
    assert K.validate() == []


def test_contraction_is_a_homotopy_for_multiplication():
    A = cube_free()
    xs = [A.parse_element(v) for v in ("x", "y", "z")]
    for multiplicity in (1, 2):
        K = koszul(A, xs, multiplicity=multiplicity)
        for i in range(3):
            h = Homotopy(K.complex, K.complex, tuple(sorted(K.contraction(i).items())))
            bd = h.boundary()
            xid = scalar_endo(K.complex, xs[i])
            for n in K.complex.degrees():
                assert bd.component(n).sub(xid.component(n)).is_zero()


def test_annihilator_check_single_socle_element():
    A = square_zero_plane(GF101)
    rep = koszul_annihilator_check(koszul(A, [A.parse_element("x")]))
    assert rep["contains_sequence"]
    assert rep["equals_ideal"]
    assert rep["annihilator_dim"] == 1  # (x) = span{x} since x*m = 0


def test_annihilator_check_maximal_ideal():
    A = square_zero_plane(GF101)
    rep = koszul_annihilator_check(
        koszul(A, [A.parse_element("x"), A.parse_element("y")]))
    assert rep["contains_sequence"] and rep["equals_ideal"]
    assert rep["annihilator_dim"] == 2  # (x, y) = m


def test_annihilator_zero_sequence_over_field():
    k = monomial_algebra(GF101, ["x"], ["x"], 4).artinize()
    rep = koszul_annihilator_check(koszul(k, [k.zero]))
    assert rep["contains_sequence"]
    assert rep["annihilator_dim"] == 0 and rep["equals_ideal"]


@given(st.integers(0, 5), st.permutations(range(4)))
def test_wedge_sign_consistency(i, perm):
    I = tuple(sorted(set(perm[:2])))
    if i in I:
        return
    # wedge sign counts transpositions needed to sort (i, *I)
    expected = (-1) ** sum(1 for j in I if j < i)
    assert wedge_sign(i, I) == expected


def test_multiplicity_blocks():
    A = square_zero_plane(GF101)
    K = koszul(A, [A.parse_element("x")], multiplicity=3).complex
    assert K.ranks == (3, 3)
    assert K.validate() == []


def test_subsets_lex_order():
    assert subsets(3, 2) == [(0, 1), (0, 2), (1, 2)]
