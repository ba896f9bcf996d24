import random
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from derfree.algebra import (ArtinAlgebra, DependentModM2, adapted_basis,
                             artin_algebra_from_constants)
from derfree.complexes import AMatrix
from derfree.exprs import ExprError, parse_element, word_factors
from derfree.field import GF, GF101, QQ
from derfree.fixtures import (CATALOG, catalog_algebra, chain_algebra, square_zero_plane,
                              square_zero_space)
from derfree.linalg import Matrix, invert, rank
from derfree.modules import minimal_generators, nu, free_module
from derfree.monomial import NotArtinianError, TruncationError, mono_key, monomial_algebra
from test_modules import submodule_from_spanning


def test_monomial_words_parse_into_factors_and_malformed_factors_raise():
    assert word_factors("x*y^2") == [("x", 1), ("y", 2)]
    assert word_factors(" x * 1 ") == [("x", 1)] and word_factors("1") == []
    for bad in ("x^", "x^y", "2x", "x+y"):
        with pytest.raises(ExprError):
            word_factors(bad)
    with pytest.raises(ExprError):
        monomial_algebra(GF101, ["x"], ["x^"], 3)


def test_validate_square_zero_plane(any_field):
    A = square_zero_plane(any_field)
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


def rebased(A, rng):
    """A with m in a random basis: e'_0 = e_0 and e'_i = sum_k P[k][i] e_k."""
    f, d = A.field, A.dim
    P = None
    while P is None or invert(P) is None:
        P = Matrix.from_rows(f, [[f.one if i == j == 0 else
                                  f.zero if 0 in (i, j) else f.from_int(rng.randrange(f.p))
                                  for j in range(d)] for i in range(d)])
    Pinv, cols = invert(P), P.columns()
    mult = tuple(tuple(Pinv.apply(A.el_mul(cols[i], cols[j])) for j in range(d))
                 for i in range(d))
    return ArtinAlgebra(f, A.labels, mult)


def test_validate_is_exact_for_a_prime_near_two_to_the_31():
    # sums of d products of scalars below 2^31 - 1 exceed int64; the check
    # must not report associativity failures that are overflow
    f = GF(2**31 - 1)
    A = rebased(monomial_algebra(f, ["x", "y", "z"], ["x^2", "y^2", "z^2"], 4).artinize(),
                random.Random(0))
    assert A.dim == 8
    assert sum(1 for row in A.mult for e in row for c in e if c) > 300
    rep = A.validate()
    assert rep.valid and rep.issues == () and rep.nilpotency_index == 4
    # doubling e_x*e_y (both orders) keeps commutativity but breaks associativity
    B = monomial_algebra(f, ["x", "y", "z"], ["x^2", "y^2", "z^2"], 4).artinize()
    x, y = B.labels.index("x"), B.labels.index("y")
    mult = [list(row) for row in B.mult]
    for i, j in ((x, y), (y, x)):
        mult[i][j] = tuple(f.mul(2, c) for c in mult[i][j])
    broken = ArtinAlgebra(f, B.labels, tuple(tuple(row) for row in mult))
    axioms = {i.axiom for i in broken.validate().issues}
    assert axioms == {"associativity"}


def test_validate_uv4_dim10_nilpotency_4():
    Q = monomial_algebra(GF101, ["u", "v"],
                         ["u^4", "u^3*v", "u^2*v^2", "u*v^3", "v^4"], 8).artinize()
    assert Q.dim == 10  # 1 + 2 + 3 + 4 standard monomials below degree 4
    rep = Q.validate()
    assert rep.valid and rep.nilpotency_index == 4


def test_artinize_chain():
    B = chain_algebra(GF101, 4)
    assert B.labels == ("1", "u", "u^2", "u^3")


def test_artinize_field():
    k = monomial_algebra(GF101, ["x"], ["x"], 4).artinize()
    assert k.dim == 1


def test_artinize_refuses_infinite():
    A = monomial_algebra(GF101, ["x", "y"], ["x^2", "x*y"], 6)
    with pytest.raises(NotArtinianError):
        A.artinize()


def test_edim_examples():
    space = square_zero_space(GF101)
    assert space.edim() == 3
    k = monomial_algebra(GF101, ["x"], ["x"], 4).artinize()
    assert k.edim() == 0
    Q = monomial_algebra(GF101, ["u", "v"],
                         ["u^4", "u^3*v", "u^2*v^2", "u*v^3", "v^4"], 8).artinize()
    assert Q.edim() == 2


def test_powers_of_m():
    A = monomial_algebra(QQ, ["x", "y"], ["x^3", "y^2"], 6).artinize()
    m2 = A.m_power_cols(2)
    assert m2 == A.ideal_product_cols(A.m_cols(), A.m_cols())
    assert A.m_power_cols(-1) == A.m_power_cols(0) and A.m_power_cols(0).ncols == A.dim
    assert A.m_power_cols(3).ncols == 1 and A.m_power_cols(4).ncols == 0
    assert A.nilpotency_index() == 4 and A.edim() == 2


def test_adapted_basis_plane():
    A = square_zero_plane(GF101)
    ab = adapted_basis(A, prescribed=(A.parse_element("x"),))
    assert [A.element_to_str(e) for e in ab.lifts] == ["x", "y"]
    assert ab.m2_basis == ()


def test_adapted_basis_rejects_dependent():
    A = square_zero_plane(GF101)
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
    B = chain_algebra(GF101, 4)
    F1 = free_module(B, 1)
    sub, _ = submodule_from_spanning(F1, [B.parse_element("u^2"), B.parse_element("u^3")])
    assert nu(sub) == 1
    gens = minimal_generators(sub)
    assert len(gens) == 1


def test_minimal_generators_zero_module():
    B = square_zero_plane(GF101)
    assert minimal_generators(free_module(B, 0)) == []


def test_nu_of_m_equals_edim():
    for ideal in (["x^2", "x*y", "y^2"], ["x^2", "x*y", "y^3"]):
        A = monomial_algebra(GF101, ["x", "y"], ideal, 8).artinize()
        F1 = free_module(A, 1)
        sub, _ = submodule_from_spanning(
            F1, [A.basis_element(i) for i in range(1, A.dim)])
        assert nu(sub) == A.edim()


def test_parse_print_round_trip(any_field):
    A = square_zero_plane(any_field)
    for s in ("x", "y", "1 + x", "2*x + 3*y", "x - y", "0"):
        el = A.parse_element(s)
        assert A.parse_element(A.element_to_str(el)) == el


def test_rational_coefficients():
    A = square_zero_plane(QQ)
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
    assert tuple(len(A.basis(d)) for d in range(7)) == (1, 2, 1, 1, 1, 1, 1)


# -- the sparse structure-constant table against the dense triple loop -------

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
    return catalog_algebra(field, case)


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


# the five algebras of the acceptance catalog (criterion 5) and a scaled one
CASES = pytest.mark.parametrize("case", [name for name, *_ in CATALOG] + ["scaled"])
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
    for u, v in pairs:
        assert A.el_mul(u, v) == reference_mul(A, u, v)
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
    c = data.draw(elements(A))[0]
    lifted = A.el_scale(c, A.one)
    assert X.scale(c) == AMatrix(A, n, m, tuple(tuple(reference_mul(A, lifted, x) for x in r)
                                                for r in X.entries))
    d = A.dim
    flat = X.flatten()
    for i in range(n):
        for j in range(m):
            block = reference_left_mult(A, X.entries[i][j]).dense_rows()
            assert all(flat.dense_rows()[i * d + r][j * d:(j + 1) * d] == block[r]
                       for r in range(d))


# -- graded products against a dict loop through the field methods -----------

# k[x,y]/(x^2) truncated at degree 3: y^4 and x*y^3 are standard but lie
# above the truncation, y^3 and x*y^2 sit exactly at it
GRADED_MONOMIALS = ((0, 0), (1, 0), (0, 1), (1, 1), (0, 2))


def canonical_terms(field, terms):
    return tuple(sorted(((m, c) for m, c in terms.items() if c != field.zero),
                        key=lambda t: mono_key(t[0])))


def reference_graded_mul(A, u, v):
    """Terms of u * v, or None when one lies above the truncation."""
    f = A.field
    acc = {}
    for m1, c1 in u:
        for m2, c2 in v:
            m = tuple(a + b for a, b in zip(m1, m2))
            if A.is_standard(m):
                acc[m] = f.add(acc.get(m, f.zero), f.mul(c1, c2))
    out = canonical_terms(f, acc)
    return None if any(sum(m) > A.truncation for m, _ in out) else out


def graded_scalars(field):
    if field == QQ:
        return st.sampled_from([Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-3, 2)])
    return st.integers(1, field.p - 1)


def graded_elements(A):
    coeffs = st.one_of(st.just(A.field.zero), graded_scalars(A.field))
    return st.tuples(*[coeffs] * len(GRADED_MONOMIALS)).map(
        lambda cs: canonical_terms(A.field, dict(zip(GRADED_MONOMIALS, cs))))


def assert_canonical_terms(field, u):
    for _, c in u:
        if field == QQ:
            assert type(c) is Fraction, c
        else:
            assert type(c) is int and 0 < c < field.p, c


@FIELDS
# no explain phase: it spends minutes on a failing example of this test
@settings(phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.shrink])
@given(data=st.data())
def test_graded_products_match_the_field_method_loop(field, data):
    A = monomial_algebra(field, ["x", "y"], ["x^2"], 3)
    pairs = data.draw(st.lists(st.tuples(graded_elements(A), graded_elements(A)), max_size=4))
    for u, v in pairs:
        expected = reference_graded_mul(A, u, v)
        if expected is None:
            with pytest.raises(TruncationError):
                A.el_mul(u, v)
        else:
            got = A.el_mul(u, v)
            assert got == expected
            assert_canonical_terms(field, got)
    u, v = data.draw(graded_elements(A)), data.draw(graded_elements(A))
    total = dict(u)
    for m, c in v:
        total[m] = field.add(total.get(m, field.zero), c)
    assert A.el_add(u, v) == canonical_terms(field, total)
    assert_canonical_terms(field, A.el_add(u, v))


def graded_amatrices(A, nrows, ncols, monomials):
    coeffs = st.one_of(st.just(A.field.zero), graded_scalars(A.field))
    entries = st.tuples(*[coeffs] * len(monomials)).map(
        lambda cs: canonical_terms(A.field, dict(zip(monomials, cs))))
    return st.lists(st.tuples(*[entries] * ncols), min_size=nrows,
                    max_size=nrows).map(lambda rows: AMatrix(A, nrows, ncols, tuple(rows)))


def reference_graded_amatrix_mul(A, X, Y):
    """Entrywise el_add/el_mul sums, in a copy of A truncated high enough to be exact."""
    rows = []
    for i in range(X.nrows):
        row = []
        for j in range(Y.ncols):
            acc = A.zero
            for k in range(X.ncols):
                acc = A.el_add(acc, A.el_mul(X.entries[i][k], Y.entries[k][j]))
            row.append(acc)
        rows.append(tuple(row))
    return rows


@FIELDS
@settings(phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.shrink])
@given(data=st.data())
def test_graded_amatrix_products_match_the_entrywise_loop(field, data):
    A = monomial_algebra(field, ["x", "y"], ["x^2"], 3)
    # the drawn entries have degree at most 2, so every product is exact here
    exact = monomial_algebra(field, ["x", "y"], ["x^2"], 4)
    n, m, l = (data.draw(st.integers(0, 3)) for _ in range(3))
    # entries of degree at most 1 never reach the truncation, and x * x = 0
    # tests the ideal; entries of degree 2 often go above the truncation
    monomials = data.draw(st.sampled_from([GRADED_MONOMIALS[:3], GRADED_MONOMIALS]))
    X = data.draw(graded_amatrices(A, n, m, monomials))
    Y = data.draw(graded_amatrices(A, m, l, monomials))
    # repeat some inner indices with the right factor negated, so that their
    # products cancel in the raw sums, terms above the truncation included
    again = data.draw(st.lists(st.integers(0, m - 1), max_size=2)) if m else []
    X = AMatrix(A, n, m + len(again),
                tuple(r + tuple(r[k] for k in again) for r in X.entries))
    Y = AMatrix(A, m + len(again), l,
                Y.entries + tuple(tuple(A.el_neg(e) for e in Y.entries[k]) for k in again))
    expected = reference_graded_amatrix_mul(exact, X, Y)
    if any(sum(mono) > A.truncation for row in expected for e in row for mono, _ in e):
        with pytest.raises(TruncationError):
            X.mul(Y)
    else:
        got = X.mul(Y)
        assert (got.nrows, got.ncols) == (n, l)
        assert [list(r) for r in got.entries] == [list(r) for r in expected]
        for row in got.entries:
            for e in row:
                assert_canonical_terms(field, e)
    x, y2 = A.parse_element("x"), A.parse_element("y^2")
    assert AMatrix.from_rows(A, [[x]]).mul(AMatrix.from_rows(A, [[x]])) == AMatrix.zero(A, 1, 1)
    with pytest.raises(TruncationError):
        AMatrix.from_rows(A, [[y2]]).mul(AMatrix.from_rows(A, [[y2]]))
    cancelled = AMatrix.from_rows(A, [[y2, y2]]).mul(AMatrix.from_rows(A, [[y2], [A.el_neg(y2)]]))
    assert cancelled == AMatrix.zero(A, 1, 1)


def reference_map_matrix(A, entries, src_shifts, tgt_shifts, d, delta):
    """The degreewise matrix of an algebra-entry map, one el_mul per entry and coordinate."""
    f = A.field

    def coords(shifts, n):
        out = []
        for s, sh in enumerate(shifts):
            if n - sh >= 0:
                out.extend((s, m) for m in A.basis(n - sh))
        return out

    tgt = coords(tgt_shifts, d + delta)
    tgt_index = {c: k for k, c in enumerate(tgt)}
    cols = []
    for (s, m) in coords(src_shifts, d):
        col = [f.zero] * len(tgt)
        for r, row in enumerate(entries):
            if A.el_is_zero(row[s]):
                continue
            for pm, pc in A.el_mul(((m, f.one),), row[s]):
                if (r, pm) in tgt_index:
                    k = tgt_index[r, pm]
                    col[k] = f.add(col[k], pc)
        cols.append(col)
    return Matrix.from_columns(f, cols, nrows=len(tgt))


@FIELDS
@given(data=st.data())
def test_graded_map_matrix_matches_the_entrywise_loop(field, data):
    A = monomial_algebra(field, ["x", "y"], ["x^2"], 4)
    delta = data.draw(st.sampled_from([0, 1]))
    src_shifts = data.draw(st.lists(st.integers(0, 2), max_size=3))
    tgt_shifts = data.draw(st.lists(st.integers(0, 2), max_size=3))
    d = data.draw(st.integers(0, A.truncation - delta))
    coeffs = st.one_of(st.just(field.zero), graded_scalars(field))

    def entry(degree):
        monomials = A.basis(degree)
        return st.tuples(*[coeffs] * len(monomials)).map(
            lambda cs: canonical_terms(field, dict(zip(monomials, cs))))

    # entry (r, s) is homogeneous of the degree that makes the map raise degree by delta
    entries = tuple(tuple(data.draw(entry(s - t + delta)) for s in src_shifts)
                    for t in tgt_shifts)
    got = A.map_matrix(entries, src_shifts, tgt_shifts, d, delta)
    assert got == reference_map_matrix(A, entries, src_shifts, tgt_shifts, d, delta)
    for row in got.rows:
        for c in row.values():
            assert type(c) is (Fraction if field == QQ else int), c


@FIELDS
@pytest.mark.parametrize("graded", [False, True], ids=["artinian", "graded"])
@given(a=st.integers(-10**4, 10**4), c=st.integers(-10**4, 10**4),
       b=st.one_of(st.integers(1, 10**4), st.integers(0, 3).map(lambda n: 101 * n)))
def test_parsed_literals_match_the_scaled_elements(field, graded, a, b, c):
    """The text a/b*x + c parses to a/b times x plus c times the unit; a
    denominator that is zero in the field raises at its literal."""
    A = monomial_algebra(field, ["x", "y"], ["x^2", "x*y", "y^2"], 4)
    A = A if graded else A.artinize()
    text = f"{a}/{b}*x {'-' if c < 0 else '+'} {abs(c)}"
    if not field.from_int(b):
        with pytest.raises(ExprError, match="zero denominator"):
            parse_element(A, text)
        return
    scaled_x = A.el_scale(field.div(field.from_int(a), field.from_int(b)), A.named_element("x"))
    assert parse_element(A, text) == A.el_add(scaled_x, A.el_scale(field.from_int(c), A.one))
