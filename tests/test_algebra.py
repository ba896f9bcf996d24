from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given
from hypothesis import strategies as st

from derfree.algebra import (DependentModM2, adapted_basis,
                             artin_algebra_from_constants)
from derfree.complexes import AMatrix
from derfree.field import GF101, QQ
from derfree.linalg import Matrix, rank
from derfree.modules import minimal_generators, nu, submodule_from_spanning, free_module
from derfree.monomial import NotArtinianError, TruncationError, monomial_algebra


def plane(field=GF101):
    return monomial_algebra(field, ["x", "y"], ["x^2", "x*y", "y^2"], 4).artinize()


def test_validate_square_zero_plane(any_field):
    A = plane(any_field)
    rep = A.validate()
    assert rep.valid and A.dim == 3
    assert rep.nilpotency_index == 2


def test_validate_broken_associativity_has_witness():
    # plant e1*e1 = e0 (a unit value inside m): breaks the ideal axiom and
    # associativity/nilpotency along with it
    A = artin_algebra_from_constants(
        GF101, ["1", "e1"],
        [(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1), (1, 1, 0, 1)])
    rep = A.validate()
    assert not rep.valid
    assert any(i.axiom == "ideal" for i in rep.issues)


def test_validate_uv4_dim10_nilpotency_4():
    Q = monomial_algebra(GF101, ["u", "v"],
                         ["u^4", "u^3*v", "u^2*v^2", "u*v^3", "v^4"], 8).artinize()
    assert Q.dim == 10  # 1 + 2 + 3 + 4 standard monomials below degree 4
    rep = Q.validate()
    assert rep.valid and rep.nilpotency_index == 4


def test_artinize_chain():
    B = monomial_algebra(GF101, ["u"], ["u^4"], 8).artinize()
    assert B.labels == ("1", "u", "u^2", "u^3")


def test_artinize_field():
    k = monomial_algebra(GF101, ["x"], ["x"], 4).artinize()
    assert k.dim == 1 and k.is_field()


def test_artinize_refuses_infinite():
    A = monomial_algebra(GF101, ["x", "y"], ["x^2", "x*y"], 6)
    with pytest.raises(NotArtinianError):
        A.artinize()


def test_edim_examples():
    space = monomial_algebra(
        GF101, ["x", "y", "z"],
        ["x^2", "x*y", "x*z", "y^2", "y*z", "z^2"], 4).artinize()
    assert space.edim() == 3
    k = monomial_algebra(GF101, ["x"], ["x"], 4).artinize()
    assert k.edim() == 0
    Q = monomial_algebra(GF101, ["u", "v"],
                         ["u^4", "u^3*v", "u^2*v^2", "u*v^3", "v^4"], 8).artinize()
    assert Q.edim() == 2


def test_adapted_basis_plane():
    A = plane()
    ab = adapted_basis(A, prescribed=(A.parse_element("x"),))
    assert [A.element_to_str(e) for e in ab.lifts] == ["x", "y"]
    assert ab.m2_basis == ()


def test_adapted_basis_rejects_dependent():
    A = plane()
    x = A.parse_element("x")
    with pytest.raises(DependentModM2):
        adapted_basis(A, prescribed=(x, x))


def test_adapted_basis_completes_u_plus_v():
    Q = monomial_algebra(GF101, ["u", "v"],
                         ["u^4", "u^3*v", "u^2*v^2", "u*v^3", "v^4"], 8).artinize()
    ab = adapted_basis(Q, prescribed=(Q.parse_element("u + v"),))
    assert ab.n == 2
    imgs = Matrix.from_columns(GF101, [list(v) for v in ab.lifts], nrows=Q.dim)
    assert rank(imgs) == 2


def test_adapted_coords_mod_m2():
    Q = monomial_algebra(GF101, ["u", "v"],
                         ["u^4", "u^3*v", "u^2*v^2", "u*v^3", "v^4"], 8).artinize()
    ab = adapted_basis(Q)
    e = Q.parse_element("3*u + 2*v + u^2")
    assert ab.coords_mod_m2(e) == (3, 2)


def test_minimal_generators_of_submodule():
    B = monomial_algebra(GF101, ["u"], ["u^4"], 8).artinize()
    F1 = free_module(B, 1)
    sub, _ = submodule_from_spanning(F1, [B.parse_element("u^2"), B.parse_element("u^3")])
    assert nu(sub) == 1
    gens = minimal_generators(sub)
    assert len(gens) == 1


def test_minimal_generators_zero_module():
    B = plane()
    from derfree.modules import zero_module
    assert minimal_generators(zero_module(B)) == []


def test_nu_of_m_equals_edim():
    for ideal in (["x^2", "x*y", "y^2"], ["x^2", "x*y", "y^3"]):
        A = monomial_algebra(GF101, ["x", "y"], ideal, 8).artinize()
        F1 = free_module(A, 1)
        sub, _ = submodule_from_spanning(
            F1, [A.basis_element(i) for i in range(1, A.dim)])
        assert nu(sub) == A.edim()


def test_parse_print_round_trip(any_field):
    A = plane(any_field)
    for s in ("x", "y", "1 + x", "2*x + 3*y", "x - y", "0"):
        el = A.parse_element(s)
        assert A.parse_element(A.element_to_str(el)) == el


def test_rational_coefficients():
    A = plane(QQ)
    el = A.parse_element("1/2*x + 2/3*y")
    back = A.element_to_str(el)
    assert A.parse_element(back) == el


def test_truncation_refusal():
    A = monomial_algebra(GF101, ["x", "y"], ["x^2", "x*y"], 4)
    y4 = A.parse_element("y^4")
    with pytest.raises(TruncationError):
        A.el_mul(y4, A.parse_element("y"))


def test_graded_basis_is_standard_monomials():
    A = monomial_algebra(GF101, ["x", "y"], ["x^2", "x*y"], 6)
    assert A.basis_dims(6) == (1, 2, 1, 1, 1, 1, 1)
    assert [len(A.basis(d)) for d in (0, 1)] == [1, 2]


# -- the sparse structure-constant table against the dense triple loop -------

# the five Artinian algebras of the acceptance catalog (criterion 5)
CATALOG = (
    (["x", "y", "z"], ["x^2", "x*y", "x*z", "y^2", "y*z", "z^2"], 4),
    (["x", "y", "z", "w"],
     ["x^2", "x*y", "x*z", "x*w", "y^2", "y*z", "y*w", "z^2", "z*w", "w^2"], 4),
    (["x", "y", "z"], ["x^2", "x*y", "x*z", "y^2", "y*z", "z^3"], 6),
    (["x", "y", "z"], ["x^2", "x*y", "x*z", "y^2", "z^2"], 6),
    (["x", "y", "z"], ["x^2", "x*y", "y^2", "x*z", "y*z", "z^4"], 8),
)


def scaled_algebra(field):
    """m = (a, b, c, s) with m^2 = span(c, s) in the socle, so the algebra is
    valid for any constants; these are not 0/1, so a product that drops or
    mis-scales a structure constant shows."""
    products = {(1, 1): {3: 3, 4: -1}, (1, 2): {3: "1/2"}, (2, 2): {3: 2, 4: "-1/2"}}
    constants = [(0, j, j, 1) for j in range(5)] + [(j, 0, j, 1) for j in range(1, 5)]
    for (i, j), out in products.items():
        for k, c in out.items():
            constants.append((i, j, k, c))
            if i != j:
                constants.append((j, i, k, c))
    return artin_algebra_from_constants(field, ["1", "a", "b", "c", "s"], constants)


@lru_cache(maxsize=None)
def algebra_for(case, field):
    if case == "scaled":
        return scaled_algebra(field)
    variables, ideal, trunc = CATALOG[case]
    return monomial_algebra(field, variables, ideal, trunc).artinize()


def reference_mul(A, u, v):
    """The dense d x d x d loop over the structure constants, through field methods."""
    f = A.field
    zero = f.zero
    acc = [zero] * A.dim
    for i, a in enumerate(u):
        if a == zero:
            continue
        mi = A.mult[i]
        for j, b in enumerate(v):
            if b == zero:
                continue
            ab = f.mul(a, b)
            for k, c in enumerate(mi[j]):
                if c != zero:
                    acc[k] = f.add(acc[k], f.mul(ab, c))
    return tuple(acc)


def reference_left_mult(A, u):
    cols = [reference_mul(A, u, A.basis_element(j)) for j in range(A.dim)]
    return Matrix.from_columns(A.field, cols, nrows=A.dim)


def reference_amatrix_mul(X, Y):
    A = X.algebra
    rows = []
    for i in range(X.nrows):
        row = []
        for j in range(Y.ncols):
            acc = A.zero
            for k in range(X.ncols):
                acc = A.el_add(acc, reference_mul(A, X.entries[i][k], Y.entries[k][j]))
            row.append(acc)
        rows.append(tuple(row))
    return AMatrix(A, X.nrows, Y.ncols, tuple(rows))


def scalars(field):
    """Mostly zero, otherwise small integers or (over QQ) fractions."""
    ints = st.integers(-3, 3)
    if field == QQ:
        values = st.builds(Fraction, ints, st.integers(1, 3))
    else:
        values = ints.map(field.from_int)
    return st.one_of(st.just(field.zero), st.just(field.zero), values)


def elements(A):
    return st.tuples(*[scalars(A.field)] * A.dim)


def amatrices(A, nrows, ncols):
    return st.lists(st.tuples(*[elements(A)] * ncols), min_size=nrows, max_size=nrows).map(
        lambda rows: AMatrix(A, nrows, ncols, tuple(rows)))


CASES = pytest.mark.parametrize("case", [0, 1, 2, 3, 4, "scaled"],
                                ids=["m2-3vars", "m2-4vars", "chain-z3", "mixed-socle",
                                     "chain-z4", "scaled"])
FIELDS = pytest.mark.parametrize("field", [GF101, QQ], ids=["GF101", "QQ"])


@FIELDS
@CASES
def test_differential_test_algebras_are_valid(field, case):
    assert algebra_for(case, field).validate().valid


@FIELDS
@CASES
@given(data=st.data())
def test_element_products_match_the_dense_reference(field, case, data):
    A = algebra_for(case, field)
    pairs = data.draw(st.lists(st.tuples(elements(A), elements(A)), max_size=4))
    expected = A.zero
    for u, v in pairs:
        assert A.el_mul(u, v) == reference_mul(A, u, v)
        expected = A.el_add(expected, reference_mul(A, u, v))
    assert A.el_dot(pairs) == expected
    u = data.draw(elements(A))
    assert A.left_mult_matrix(u) == reference_left_mult(A, u)


@FIELDS
@CASES
@given(data=st.data())
def test_amatrix_products_match_the_dense_reference(field, case, data):
    A = algebra_for(case, field)
    n, m, l = (data.draw(st.integers(0, 3)) for _ in range(3))
    X = data.draw(amatrices(A, n, m))
    Y = data.draw(amatrices(A, m, l))
    assert X.mul(Y) == reference_amatrix_mul(X, Y)
    a = data.draw(elements(A))
    assert X.scale_el(a) == AMatrix(A, n, m, tuple(tuple(reference_mul(A, a, x) for x in r)
                                                   for r in X.entries))
    d = A.dim
    flat = X.flatten()
    for i in range(n):
        for j in range(m):
            block = reference_left_mult(A, X.entries[i][j]).rows
            assert all(flat.rows[i * d + r][j * d:(j + 1) * d] == block[r] for r in range(d))
