import random

from hypothesis import given
from hypothesis import strategies as st

from derfree.complexes import AMatrix, ChainMap, free_complex, scalar_endo
from derfree.field import GF101, QQ
from derfree.fixtures import build_ex23, build_ex55
from derfree.homotopy import (derived_annihilator, homotopy_class_eq,
                              solve_homotopy)
from derfree.koszul import koszul
from derfree.linalg import Matrix, in_span
from derfree.monomial import monomial_algebra


def plane(field=GF101):
    return monomial_algebra(field, ["x", "y"], ["x^2", "x*y", "y^2"], 4).artinize()


def test_ex55_witness_is_minus_identity(any_field):
    b = build_ex55(any_field)
    A, F = b.A, b.F
    U = b.certificate.generator("u")
    U3 = U.compose(U).compose(U)
    yid = scalar_endo(F, A.parse_element("y"))
    h = solve_homotopy(U3.sub(yid))
    assert h is not None
    minus_id = AMatrix.scalar(A, A.el_neg(A.one), 2)
    assert h.component(0).sub(minus_id).is_zero()


def test_zero_map_gets_zero_homotopy():
    A = plane()
    K = koszul(A, [A.parse_element("x")]).complex
    zero = ChainMap.from_dict(K, K, {})
    h = solve_homotopy(zero)
    assert h is not None
    assert all(m.is_zero() for _, m in h.maps)


def test_solver_matches_contractions():
    A = plane()
    xs = [A.parse_element("x"), A.parse_element("y")]
    K = koszul(A, xs).complex
    for x in xs:
        h = solve_homotopy(scalar_endo(K, x))
        assert h is not None  # substitution check is built into the solver


def test_homotopy_class_eq_examples():
    b = build_ex55(GF101)
    A, F = b.A, b.F
    U = b.certificate.generator("u")
    U3 = U.compose(U).compose(U)
    yid = scalar_endo(F, A.parse_element("y"))
    assert homotopy_class_eq(U3, U3)
    assert homotopy_class_eq(U3, yid)
    one_term = free_complex(A, [1], [])
    xid = scalar_endo(one_term, A.parse_element("x"))
    zero = ChainMap.from_dict(one_term, one_term, {})
    assert not homotopy_class_eq(xid, zero)


def test_annihilator_of_one_term_complex_is_zero():
    A = plane()
    F = free_complex(A, [1], [])
    ann = derived_annihilator(F)
    assert ann.basis == ()


def test_annihilator_of_koszul_is_the_ideal():
    A = plane()
    K = koszul(A, [A.parse_element("x"), A.parse_element("y")]).complex
    ann = derived_annihilator(K)
    assert len(ann.basis) == 2  # (x, y) = m has k-dimension 2
    assert ann.is_ideal()
    cols = Matrix.from_columns(GF101, [list(a) for a in ann.basis], nrows=A.dim)
    assert in_span(cols, A.parse_element("x"))
    assert in_span(cols, A.parse_element("y"))


def test_graded_annihilator_excludes_the_socle_generator():
    b = build_ex23(GF101)
    x = b.A.parse_element("x")
    assert solve_homotopy(scalar_endo(b.F, x)) is None
    ann = derived_annihilator(b.F)
    assert ann.basis == ()
    assert not ann.contains(x)


def test_annihilator_witnesses_satisfy_the_equation():
    A = plane()
    complexes = [koszul(A, [A.parse_element("x")]).complex]
    for field in (GF101, QQ):
        G = monomial_algebra(field, ["x", "y", "z"], ["x^2", "y^2", "z^2"], 6)
        complexes.append(koszul(G, [G.parse_element("x"), G.parse_element("y")]).complex)
    for K in complexes:
        ann = derived_annihilator(K)
        assert ann.basis and len(ann.witnesses) == len(ann.basis)
        for a, w in zip(ann.basis, ann.witnesses):
            bd = w.boundary()
            aid = scalar_endo(K, a)
            for i in K.degrees():
                assert bd.component(i).sub(aid.component(i)).is_zero()


@given(st.integers(0, 100), st.integers(0, 100), st.integers(0, 100))
def test_homotopy_class_eq_is_an_equivalence(a, b, c):
    A = plane()
    K = koszul(A, [A.parse_element("x")]).complex
    maps = []
    for coeff in (a, b, c):
        el = A.el_scale(GF101.from_int(coeff), A.parse_element("x"))
        maps.append(scalar_endo(K, el))
    f, g, h = maps
    assert homotopy_class_eq(f, f)
    assert homotopy_class_eq(f, g) == homotopy_class_eq(g, f)
    if homotopy_class_eq(f, g) and homotopy_class_eq(g, h):
        assert homotopy_class_eq(f, h)


def test_rational_backend_agrees_with_prime_field():
    for field in (GF101, QQ):
        A = plane(field)
        K = koszul(A, [A.parse_element("x"), A.parse_element("y")]).complex
        ann = derived_annihilator(K)
        assert len(ann.basis) == 2


def test_witness_perturbation_still_verifies():
    # adding the boundary of a random degree-2 map leaves the equation intact
    rng = random.Random(17)
    A = plane()
    K = koszul(A, [A.parse_element("x"), A.parse_element("y")]).complex
    x = A.parse_element("x")
    h = solve_homotopy(scalar_endo(K, x))
    sigma = {}
    for i in K.degrees():
        tgt = K.rank(i + 2)
        src = K.rank(i)
        entries = [[A.el_scale(GF101.from_int(rng.randrange(5)), A.parse_element("y"))
                    for _ in range(src)] for _ in range(tgt)]
        sigma[i] = AMatrix.from_rows(A, entries, ncols=src) if tgt * src else \
            AMatrix.zero(A, tgt, src)
    # perturbation d sigma - sigma d has the homotopy shape (degree +1)
    from derfree.homotopy import Homotopy
    pert = {}
    for i in K.degrees():
        t1 = K.diff(i + 2).mul(sigma[i])
        t2 = sigma.get(i - 1, AMatrix.zero(A, K.rank(i + 1), K.rank(i - 1))).mul(K.diff(i))
        pert[i] = t1.sub(t2)
    h2 = Homotopy(K, K, tuple(sorted(
        (i, h.component(i).add(pert[i])) for i in K.degrees())))
    bd = h2.boundary()
    xid = scalar_endo(K, x)
    for i in K.degrees():
        assert bd.component(i).sub(xid.component(i)).is_zero()
