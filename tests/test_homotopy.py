import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from derfree.complexes import (AMatrix, ChainMap, free_complex, random_transport,
                               scalar_endo)
from derfree.field import GF101, QQ
from derfree.fixtures import build_ex23, build_ex55
from derfree.homotopy import (Homotopy, _check_homotopy, _System, derived_annihilator,
                              homotopy_class_eq, solve_homotopy)
from derfree.koszul import koszul
from derfree.linalg import Matrix, in_span, independent_columns, rref, sparse_kernel
from derfree.monomial import monomial_algebra
from derfree.weyl import WeylError, koszul_lift


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


@pytest.mark.parametrize("field", [GF101, QQ], ids=["GF101", "QQ"])
@pytest.mark.parametrize("backend", ["artinian", "graded"])
def test_annihilator_pairs_match_the_full_kernel_selection(backend, field, monkeypatch):
    """The pairs read off the RREF are those of a greedy scan over every kernel vector."""
    from derfree import homotopy
    rng = random.Random(3)
    if backend == "artinian":
        A = monomial_algebra(field, ["x", "y", "z"],
                             ["x^2", "x*y", "x*z", "y^2", "y*z", "z^3"], 6).artinize()
        Ks = [random_transport(koszul(A, [A.parse_element(v) for v in seq],
                                      multiplicity=b).complex, rng)
              for seq, b in (("x", 1), ("xy", 2), ("xyz", 1))]
        # on the zero complex every a-column is free and every a is kept
        systems = [_System(K, K) for K in Ks + [free_complex(A, [0], [])]]
    else:
        A = monomial_algebra(field, ["x", "y", "z"], ["x^2", "y^2", "z^2"], 6)
        K = koszul(A, [A.parse_element("x"), A.parse_element("y")]).complex
        Z = free_complex(A, [0], [])
        systems = [_System(K, K, delta=d) for d in (1, 2)] + [_System(Z, Z, delta=1)]
    eliminated = []  # the rows of [-a*id | system], as the annihilator eliminates them
    real = homotopy.sparse_rref
    monkeypatch.setattr(homotopy, "sparse_rref",
                        lambda f, rows: eliminated.append(rows) or real(f, rows))
    for sys in systems:
        eliminated.clear()
        basis, witnesses = sys.annihilator()
        na = sys._size(sys.delta, "element")
        ker = sparse_kernel(field, eliminated[0], na + sys.ncols)
        a_parts = Matrix.from_columns(field, [v[:na] for v in ker], nrows=na)
        pairs = [ker[j] for j in independent_columns(Matrix.zero(field, na, 0), a_parts)]
        if backend == "graded":
            pairs = rref(Matrix.from_rows(field, pairs, ncols=na + sys.ncols))[0].rows
        assert basis and list(basis) == [sys._element(v[:na], sys.delta) for v in pairs]
        assert [w.maps for w in witnesses] == [sys.homotopy(v[na:]).maps for v in pairs]


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


def add_unit(A, maps, degree):
    """The (degree, AMatrix) pairs with the unit added to entry (0, 0) at `degree`."""
    out = []
    for i, m in maps:
        if i == degree:
            rows = [list(r) for r in m.entries]
            rows[0][0] = A.el_add(rows[0][0], A.one)
            m = AMatrix.from_rows(A, rows, ncols=m.ncols)
        out.append((i, m))
    return tuple(out)


def reference_chain_defects(f):
    """Degrees where d f_i - f_{i-1} d is nonzero, through AMatrix.mul, sub and is_zero."""
    S, T = f.source, f.target
    out = []
    for i in range(min(S.low, T.low) + 1, max(S.top, T.top) + 1):
        lhs = T.diff(i).mul(f.component(i))
        rhs = f.component(i - 1).mul(S.diff(i))
        if not lhs.sub(rhs).is_zero():
            out.append(i)
    return out


@pytest.mark.parametrize("field", [GF101, QQ], ids=["GF101", "QQ"])
@pytest.mark.parametrize("backend", ["artinian", "graded"])
def test_perturbed_witness_is_rejected(backend, field):
    if backend == "artinian":
        A = monomial_algebra(field, ["x", "y", "z"],
                             ["x^2", "x*y", "x*z", "y^2", "y*z", "z^2"], 4).artinize()
        xs = [A.parse_element("x"), A.parse_element("y")]
        K = random_transport(koszul(A, xs, multiplicity=2).complex, random.Random(5))
        hs = [solve_homotopy(scalar_endo(K, x)) for x in xs]
        assert koszul_lift(K, xs, hs).multiplicity == 2
    else:
        A = monomial_algebra(field, ["x", "y", "z"], ["x^2", "y^2", "z^2"], 6)
        K = koszul(A, [A.parse_element("x"), A.parse_element("y")]).complex
        ann = derived_annihilator(K)
        xs, hs = list(ann.basis), list(ann.witnesses)
    assert xs
    for n, (x, h) in enumerate(zip(xs, hs)):
        f = scalar_endo(K, x)
        _check_homotopy(f, h)
        degree = next(i for i, m in h.maps if m.nrows and m.ncols)
        bad = Homotopy(h.source, h.target, add_unit(A, h.maps, degree))
        with pytest.raises(AssertionError):
            _check_homotopy(f, bad)
        if backend == "artinian":
            with pytest.raises(WeylError):
                koszul_lift(K, xs, hs[:n] + [bad] + hs[n + 1:])
        # chain maps and maps perturbed in one degree, against the reference loop
        assert f.chain_defects() == reference_chain_defects(f) == []
        for i in K.degrees():
            g = ChainMap(K, K, add_unit(A, f.maps, i))
            assert g.chain_defects() == reference_chain_defects(g) != []
