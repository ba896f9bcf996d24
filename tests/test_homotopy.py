import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from derfree.complexes import (AMatrix, ChainMap, ComplexError, FreeComplex, free_complex,
                               random_transport, scalar_endo, shift)
from derfree.field import GF101, QQ
from derfree.fixtures import (build_ex23, build_ex55, catalog_algebra, square_zero_plane,
                              square_zero_space)
from derfree.homotopy import (Homotopy, _check_homotopy, _System, derived_annihilator,
                              homotopy_class_eq, homotopy_defects, solve_homotopy)
from derfree.koszul import koszul
from derfree.linalg import (Matrix, by_lead, in_span, independent_columns, kernel_basis, rref,
                            span_equal, sparse_rref)
from derfree.monomial import TruncationError, monomial_algebra
from derfree.weyl import NotChainMap, koszul_lift
from test_complexes import _rescaled


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


def test_a_map_of_the_wrong_shape_is_refused_when_built():
    """A component with more rows than its target term is an error, not a
    map whose extra row the solver reads as a proof that no homotopy exists."""
    b = build_ex55(GF101)
    M = AMatrix.from_strings(b.A, [["0", "0"], ["0", "0"], ["x", "0"]])
    for cls in (ChainMap, Homotopy):
        with pytest.raises(ComplexError, match=r"degree 0 is 3x2, where 2x2 is needed"):
            cls.from_dict(b.F, b.F, {0: M})


def test_zero_map_gets_zero_homotopy():
    A = square_zero_plane(GF101)
    K = koszul(A, [A.parse_element("x")]).complex
    zero = ChainMap.from_dict(K, K, {})
    h = solve_homotopy(zero)
    assert h is not None
    assert all(m.is_zero() for _, m in h.maps)


def test_solver_matches_contractions():
    A = square_zero_plane(GF101)
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
    A = square_zero_plane(GF101)
    F = free_complex(A, [1], [])
    ann = derived_annihilator(F)
    assert ann.basis == ()


def test_annihilator_of_koszul_is_the_ideal():
    A = square_zero_plane(GF101)
    K = koszul(A, [A.parse_element("x"), A.parse_element("y")]).complex
    ann = derived_annihilator(K)
    assert len(ann.basis) == 2  # (x, y) = m has k-dimension 2
    cols = Matrix.from_columns(GF101, [list(a) for a in ann.basis], nrows=A.dim)
    # an ideal: A times its span is its span
    assert span_equal(A.ideal_product_cols(Matrix.identity(GF101, A.dim), cols), cols)
    assert in_span(cols, A.parse_element("x"))
    assert in_span(cols, A.parse_element("y"))


def test_graded_annihilator_excludes_the_socle_generator():
    b = build_ex23(GF101)
    x = b.A.parse_element("x")
    assert solve_homotopy(scalar_endo(b.F, x)) is None
    ann = derived_annihilator(b.F)
    assert ann.basis == ()


def test_annihilator_witnesses_satisfy_the_equation():
    A = square_zero_plane(GF101)
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
def test_annihilator_pairs_match_the_full_kernel_selection(backend, field):
    """The pairs read off the RREF are those of a greedy scan over every kernel vector."""
    rng = random.Random(3)
    if backend == "artinian":
        A = catalog_algebra(field, "chain-z3")
        Ks = [random_transport(koszul(A, [A.parse_element(v) for v in seq],
                                      multiplicity=b).complex, rng)
              for seq, b in (("x", 1), ("xy", 2), ("xyz", 1))]
        # on the zero complex every a-column is free and every a is kept
        systems = [_System(K, K, scalar=True) for K in Ks + [free_complex(A, [0], [])]]
    else:
        A = monomial_algebra(field, ["x", "y", "z"], ["x^2", "y^2", "z^2"], 6)
        K = koszul(A, [A.parse_element("x"), A.parse_element("y")]).complex
        Z = free_complex(A, [0], [])
        systems = [_System(K, K, delta=d, scalar=True) for d in (1, 2)] + [
            _System(Z, Z, delta=1, scalar=True)]
    for sys in systems:
        basis, witnesses = sys.annihilator()
        na = sys._size(sys.delta, "element")
        # the rows of [-a*id | system], held whole
        ker = kernel_basis(sys.matrix).columns()
        a_parts = Matrix.from_columns(field, [v[:na] for v in ker], nrows=na)
        pairs = [ker[j] for j in independent_columns(Matrix.zero(field, na, 0), a_parts)]
        if backend == "graded":
            pairs = rref(Matrix.from_rows(field, pairs, ncols=sys.ncols))[0].dense_rows()
        assert basis and list(basis) == [sys._element(v[:na], sys.delta) for v in pairs]
        assert [w.maps for w in witnesses] == [sys.homotopy(v).maps for v in pairs]


def assert_stream_matches_the_held_rref(sys):
    """The streamed rows are the nonempty rows of `matrix`, reordered, and
    `sparse_rref` gives the same pivots and rows on them as on the sorted
    rows of the held matrix."""
    f = sys.A.field
    held = [r for r in sys.matrix.rows if r]
    streamed = list(sys.stream())
    assert sorted(sorted(r.items()) for r in streamed) == sorted(sorted(r.items()) for r in held)
    assert sparse_rref(f, sys.stream()) == sparse_rref(f, by_lead(map(dict, held)))


@pytest.mark.parametrize("field", [GF101, QQ], ids=["GF101", "QQ"])
@given(data=st.data())
def test_streamed_annihilator_rows_match_the_held_rref(field, data):
    """Transports of K(x_1..x_p)^b over two catalog algebras, and graded
    Koszul complexes (rescaled) at every delta below the truncation stop."""
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    if data.draw(st.booleans()):
        name = data.draw(st.sampled_from(["chain-z3", "m2-3vars"]))
        A = catalog_algebra(field, name)
        p, b = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 2))
        K = koszul(A, [A.parse_element(v) for v in "xyz"[:p]], multiplicity=b).complex
        assert_stream_matches_the_held_rref(_System(*[random_transport(K, rng)] * 2,
                                                    scalar=True))
        return
    A = monomial_algebra(field, ["x", "y", "z"], ["x^2", "y^2", "z^2"], 5)
    seq = data.draw(st.sampled_from([("x",), ("x", "y"), ("x", "y*z"), ("x", "y", "z")]))
    b = data.draw(st.integers(1, 2))
    K = _rescaled(koszul(A, [A.parse_element(v) for v in seq], multiplicity=b).complex, rng)
    deltas = 0
    for delta in range(1, A.truncation + 1):
        try:
            sys = _System(K, K, delta=delta, scalar=True)
        except TruncationError:
            break
        assert_stream_matches_the_held_rref(sys)
        deltas += 1
    assert deltas


@pytest.mark.parametrize("field", [GF101, QQ], ids=["GF101", "QQ"])
def test_graded_annihilator_stops_at_the_truncation(field):
    """Over k[x,y]/(x^2) truncated at 4, the unknowns of K(x, y^2) at delta 4
    have degree 6: laying out that system raises TruncationError, so the
    search window ends at 3."""
    A = monomial_algebra(field, ["x", "y"], ["x^2"], 4)
    K = koszul(A, [A.parse_element("x"), A.parse_element("y^2")]).complex
    with pytest.raises(TruncationError):
        _System(K, K, delta=4, scalar=True)
    ann = derived_annihilator(K)
    assert ann.window == 3
    assert [A.element_to_str(a) for a in ann.basis] == ["x", "x*y", "y^2", "x*y^2", "y^3"]


@given(st.integers(0, 100), st.integers(0, 100), st.integers(0, 100))
def test_homotopy_class_eq_is_an_equivalence(a, b, c):
    A = square_zero_plane(GF101)
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
        A = square_zero_plane(field)
        K = koszul(A, [A.parse_element("x"), A.parse_element("y")]).complex
        ann = derived_annihilator(K)
        assert len(ann.basis) == 2


def test_witness_perturbation_still_verifies():
    # adding the boundary of a random degree-2 map leaves the equation intact
    rng = random.Random(17)
    A = square_zero_plane(GF101)
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


def add_unit(A, maps, degree, c=None):
    """The (degree, AMatrix) pairs with the unit, times the scalar c if given,
    added to entry (0, 0) at `degree`."""
    unit = A.one if c is None else A.el_scale(c, A.one)
    out = []
    for i, m in maps:
        if i == degree:
            rows = [list(r) for r in m.entries]
            rows[0][0] = A.el_add(rows[0][0], unit)
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


def perturbation_case(backend, field):
    """(A, K, xs, hs): a complex and elements x with homotopies for x * id."""
    if backend == "artinian":
        A = square_zero_space(field)
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
    return A, K, xs, hs


@pytest.mark.parametrize("field", [GF101, QQ], ids=["GF101", "QQ"])
@pytest.mark.parametrize("backend", ["artinian", "graded"])
def test_perturbed_witness_is_rejected(backend, field):
    A, K, xs, hs = perturbation_case(backend, field)
    for n, (x, h) in enumerate(zip(xs, hs)):
        f = scalar_endo(K, x)
        _check_homotopy(f, h)
        degree = next(i for i, m in h.maps if m.nrows and m.ncols)
        bad = Homotopy(h.source, h.target, add_unit(A, h.maps, degree))
        with pytest.raises(AssertionError):
            _check_homotopy(f, bad)
        if backend == "artinian":
            with pytest.raises(NotChainMap):
                koszul_lift(K, xs, hs[:n] + [bad] + hs[n + 1:])
        # chain maps and maps perturbed in one degree, against the reference loop
        assert f.chain_defects() == reference_chain_defects(f) == []
        for i in K.degrees():
            g = ChainMap(K, K, add_unit(A, f.maps, i))
            assert g.chain_defects() == reference_chain_defects(g) != []


def rational_map(A, nrows, ncols, den, rng):
    """An nrows x ncols map with entries a + b * v, v a variable and a != 0
    and b integers over `den`."""
    def entry():
        v = A.parse_element(rng.choice(["x", "y", "z"]))
        return A.el_add(A.el_scale(Fraction(rng.randrange(1, 10), den), A.one),
                        A.el_scale(Fraction(rng.randrange(-9, 10), den), v))
    return AMatrix.from_rows(A, [[entry() for _ in range(ncols)] for _ in range(nrows)],
                             ncols=ncols)


@pytest.mark.parametrize("backend", ["artinian", "graded"])
def test_tiny_perturbation_is_caught_over_qq(backend):
    # Each chain map f is moved to g = f + d tau + tau d, and its homotopy h
    # to h + tau + d sigma - sigma d, with tau_i over the denominator 3 + 2i
    # and sigma over 13, which cancels from g: one witness check then adds
    # slices over different denominators, and g over a smaller one.  A
    # perturbation by 1/(2^61 - 1) must still show.
    tiny = Fraction(1, 2**61 - 1)
    rng = random.Random(3)
    A, K, xs, hs = perturbation_case(backend, QQ)
    tau = {i: rational_map(A, K.rank(i + 1), K.rank(i), 3 + 2 * (i - K.low), rng)
           for i in range(K.low - 1, K.top + 1)}
    sigma = {i: rational_map(A, K.rank(i + 2), K.rank(i), 13, rng)
             for i in range(K.low - 1, K.top + 1)}
    # d_i has a nonzero first column, so d_i (g_i + tiny * E_00) - g_{i-1} d_i != 0
    i = next(i for i in K.degrees() if K.diff(i).ncols and K.diff(i).nrows
             and any(not A.el_is_zero(r[0]) for r in K.diff(i).entries))
    for x, h in zip(xs, hs):
        f = scalar_endo(K, x)
        g = ChainMap(K, K, tuple(
            (j, f.component(j).add(K.diff(j + 1).mul(tau[j])).add(tau[j - 1].mul(K.diff(j))))
            for j in K.degrees()))
        h = Homotopy(K, K, tuple(
            (j, h.component(j).add(tau[j]).add(K.diff(j + 2).mul(sigma[j]))
             .sub(sigma[j - 1].mul(K.diff(j)))) for j in K.degrees()))
        assert g.chain_defects() == []
        _check_homotopy(g, h)
        degree = next(j for j, m in h.maps if m.nrows and m.ncols)
        with pytest.raises(AssertionError):
            _check_homotopy(g, Homotopy(K, K, add_unit(A, h.maps, degree, tiny)))
        assert i in ChainMap(K, K, add_unit(A, g.maps, i, tiny)).chain_defects()


# ---------------------------------------------------------------------------
# the degreewise defect routine against the AMatrix-product references


def reference_homotopy_defects(f, h):
    """Degrees where dh + hd - f is nonzero, through `Homotopy.boundary`."""
    F, G = f.source, f.target
    bd = h.boundary()
    return [i for i in range(min(F.low, G.low), max(F.top, G.top) + 1)
            if not bd.component(i).sub(f.component(i)).is_zero()]


def reference_validate(F):
    """The d^2 messages of `FreeComplex.validate`, through `AMatrix.mul` and a
    row-major scan of the product's entries."""
    A = F.algebra
    return [f"d^2 != 0 at degree {i}, entry ({r}, {c})"
            for i in range(F.low + 2, F.top + 1)
            for r, row in enumerate(F.diff(i - 1).mul(F.diff(i)).entries)
            for c, e in enumerate(row) if not A.el_is_zero(e)]


def perturbed(maps, rng, e) -> tuple:
    """The (degree, AMatrix) pairs with e added to one random entry of one
    random nonempty matrix."""
    degrees = [i for i, m in maps if m.nrows and m.ncols]
    degree = rng.choice(degrees)
    out = []
    for i, m in maps:
        if i == degree:
            rows = [list(r) for r in m.entries]
            r, c = rng.randrange(m.nrows), rng.randrange(m.ncols)
            rows[r][c] = m.algebra.el_add(rows[r][c], e)
            m = AMatrix.from_rows(m.algebra, rows, ncols=m.ncols)
        out.append((i, m))
    return tuple(out)


@given(st.sampled_from([GF101, QQ]), st.sampled_from(["artinian", "graded"]),
       st.sampled_from([-1, 0, 2]), st.integers(0, 2**32 - 1))
def test_degreewise_defects_match_the_amatrix_product_references(field, backend, low, seed):
    rng = random.Random(seed)
    A = monomial_algebra(field, ["x", "y", "z"], ["x^3", "y^2", "z^2"], 5)
    if backend == "artinian":
        A = A.artinize()
    xs = [A.parse_element(v) for v in "xyz"]
    K = koszul(A, xs).complex
    K = shift(random_transport(K, rng) if backend == "artinian" else _rescaled(K, rng), low)

    def small_multiple_of(names):
        """c * (a random one of names), c a random scalar over a small denominator,
        sometimes 0."""
        c = field.div(field.from_int(rng.randrange(-4, 5)), field.from_int(rng.randrange(1, 8)))
        return A.el_scale(c, A.parse_element(rng.choice(names)))

    for x in xs:
        f = scalar_endo(K, x)
        h = solve_homotopy(f)
        g = ChainMap(K, K, perturbed(f.maps, rng, small_multiple_of(["1", "x", "y*z"])))
        assert g.chain_defects() == reference_chain_defects(g)
        w = Homotopy(K, K, perturbed(h.maps, rng, small_multiple_of(["1", "z", "x*y"])))
        assert homotopy_defects(g, w) == reference_homotopy_defects(g, w)
        assert homotopy_defects(f, w) == reference_homotopy_defects(f, w)
    # d^2 != 0 planted with a degree-1 entry, which keeps each d homogeneous
    F = FreeComplex(A, K.low, K.ranks, tuple(m for _, m in perturbed(
        tuple(enumerate(K.diffs)), rng, small_multiple_of(["x", "y", "z"]))), K.shifts)
    assert F.validate() == reference_validate(F)
