import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from derfree.complexes import (AMatrix, ChainMap, ComplexError, FreeComplex,
                               amatrix_inverse, betti, cone, direct_sum,
                               free_complex, graded_homology, graded_homology_dims,
                               homology, homology_dims, inf_sup, is_quasi_iso,
                               proj_dim, random_invertible_amatrix, random_transport,
                               scalar_endo, shift, transport)
from derfree.field import GF101, QQ
from derfree.fixtures import (build_nagata, build_strict_attempt, build_two_term_module_complex,
                              catalog_algebra, square_zero_plane, square_zero_space)
from derfree.koszul import koszul
from derfree.linalg import (Matrix, block_diag, column_space_basis, complement, invert,
                            quotient_coords, rank)
from derfree.modules import MINUS_INFINITY, PLUS_INFINITY, GradedModule, graded_free_module
from derfree.monomial import monomial_algebra
from derfree.resolutions import GradedModuleComplex


def two_term(A):
    return free_complex(A, [2, 2], [[["y", "0"], ["-x", "y"]]])


def test_koszul_is_valid_and_minimal():
    A = square_zero_plane(GF101)
    K = koszul(A, [A.parse_element("x"), A.parse_element("y")]).complex
    assert K.validate() == []
    assert K.is_minimal()


def test_low_defect_example_matrix_valid_minimal():
    A = square_zero_space(GF101)
    F = free_complex(A, [3, 3], [[["-y", "-z", "0"], ["x", "y", "0"], ["0", "0", "0"]]])
    assert F.validate() == []
    assert F.is_minimal()


def test_planted_nonsquare_d2_detected():
    A = square_zero_plane(GF101)
    with_defect = [
        [["x", "0"], ["0", "x"]],  # d1
        [["1", "0"], ["0", "1"]],  # d2: d1 d2 = x != 0
    ]
    F = free_complex(A, [2, 2, 2], with_defect)
    issues = F.validate()
    assert issues and "d^2" in issues[0]
    # the rank formula of the homology dimensions needs d^2 = 0
    with pytest.raises(ComplexError, match=r"d\^2 != 0 at degree 2"):
        homology_dims(F)


def test_homology_dims_two_term(any_field):
    A = square_zero_plane(any_field)
    F = two_term(A)
    assert homology(F, 0).dim == 4
    assert homology(F, 1).dim == 4


def test_homology_koszul_h0_is_quotient():
    A = square_zero_plane(GF101)
    K = koszul(A, [A.parse_element("x")]).complex
    H0 = homology(K, 0)
    assert H0.dim == A.dim - 1  # A/(x): x spans the ideal (x*m = 0)


def test_exact_complex_has_no_homology():
    A = square_zero_plane(GF101)
    E = free_complex(A, [1, 1], [[["1"]]])
    assert homology(E, 0).dim == 0 and homology(E, 1).dim == 0
    assert betti(E) == {0: 0, 1: 0}
    assert proj_dim(E) is MINUS_INFINITY


def test_betti_of_minimal_complex_is_ranks():
    A = square_zero_space(GF101)
    K = koszul(A, [A.parse_element(v) for v in ("x", "y")], multiplicity=2).complex
    assert betti(K) == {0: 2, 1: 4, 2: 2}
    assert proj_dim(K) == 2


def test_inf_sup():
    A = square_zero_plane(GF101)
    F = two_term(A)
    assert inf_sup(F) == (0, 1)
    E = free_complex(A, [1, 1], [[["1"]]])
    lo, hi = inf_sup(E)
    assert lo is PLUS_INFINITY and hi is MINUS_INFINITY


def euler_pairing_holds(F) -> bool:
    """Alternating rank sum times dim A equals alternating homology dims (Artinian)."""
    A = F.algebra
    sign = lambda i: -1 if i % 2 else 1
    lhs = sum(sign(i) * F.rank(i) for i in F.degrees()) * A.dim
    rhs = sum(sign(i) * homology(F, i).dim for i in F.degrees())
    return lhs == rhs


def test_euler_pairing():
    A = square_zero_plane(GF101)
    for F in (two_term(A), koszul(A, [A.parse_element("x")]).complex):
        assert euler_pairing_holds(F)


def test_identity_quasi_iso_zero_not():
    A = square_zero_plane(GF101)
    K = koszul(A, [A.parse_element("x"), A.parse_element("y")]).complex
    assert is_quasi_iso(scalar_endo(K, A.one))
    zero = ChainMap.from_dict(K, K, {})
    assert not is_quasi_iso(zero)


def test_random_automorphism_is_quasi_iso():
    A = square_zero_plane(GF101)
    K = koszul(A, [A.parse_element("x")], multiplicity=2).complex
    rng = random.Random(5)
    G = random_transport(K, rng)
    assert G.validate() == [] and G.is_minimal()
    # the transported complex has the same homology dimensions
    assert homology_dims(G) == homology_dims(K)


def test_transport_roundtrip_inverse():
    A = square_zero_plane(GF101)
    from derfree.complexes import random_invertible_amatrix
    rng = random.Random(9)
    q = random_invertible_amatrix(A, 3, rng)
    qi = amatrix_inverse(q)
    assert qi is not None
    assert q.mul(qi).sub(AMatrix.identity(A, 3)).is_zero()


def test_cone_of_identity_is_exact():
    A = square_zero_plane(GF101)
    K = koszul(A, [A.parse_element("x")]).complex
    C = cone(scalar_endo(K, A.one))
    assert C.validate() == []
    assert all(d == 0 for d in homology_dims(C).values())


def test_shift_and_direct_sum():
    A = square_zero_plane(GF101)
    K = koszul(A, [A.parse_element("x")]).complex
    S = shift(K, 1)
    assert S.low == 1 and S.validate() == []
    D = direct_sum(K, S)
    assert D.validate() == []
    assert betti(D) == {0: 1, 1: 2, 2: 1}


def test_graded_homology_of_presentation():
    A = monomial_algebra(GF101, ["x", "y"], ["x^2", "x*y"], 6)
    F = free_complex(A, [1, 2], [[["x", "y"]]], shifts=[[0], [1, 1]])
    assert F.validate() == []
    H0 = graded_homology(F, 0)
    assert H0.hilbert(6) == (1, 0, 0, 0, 0, 0, 0)
    H1 = graded_homology(F, 1)
    assert H1.dims[2] == 3 and H1.dims[3] == 1


def test_graded_homogeneity_enforced():
    A = monomial_algebra(GF101, ["x", "y"], ["x^2", "x*y"], 6)
    F = free_complex(A, [1, 2], [[["x", "y"]]], shifts=[[0], [1, 2]])
    issues = F.validate()
    assert issues and "homogeneous" in issues[0]


def test_homology_action_matrices_respect_structure():
    A = square_zero_plane(GF101)
    F = two_term(A)
    H1 = homology(F, 1)
    assert H1.module.validate() == []


def test_proj_dim_of_minimal_complex_is_top_rank_index():
    A = square_zero_plane(GF101)
    F = two_term(A)
    assert F.is_minimal() and proj_dim(F) == 1


def test_quasi_iso_preserved_by_direct_sum():
    A = square_zero_plane(GF101)
    K = koszul(A, [A.parse_element("x")]).complex
    D = direct_sum(K, K)
    assert is_quasi_iso(scalar_endo(D, A.one))


def test_tor_base_case_bottom_betti_is_minimal_generators():
    # the bottom Betti number of a complex equals the minimal number of
    # generators of its bottom homology (right-exactness of tensoring)
    from derfree.modules import nu
    A = square_zero_plane(GF101)
    F = two_term(A)
    assert betti(F)[0] == nu(homology(F, 0).module)
    K = koszul(A, [A.parse_element("x")], multiplicity=3).complex
    assert betti(K)[0] == nu(homology(K, 0).module)


TRANSPORT_CASES = {
    "koszul-x": lambda A: koszul(A, [A.parse_element("x")]).complex,
    "koszul-xy": lambda A: koszul(A, [A.parse_element(v) for v in "xy"]).complex,
    "koszul-x-twice": lambda A: koszul(A, [A.parse_element("x")], multiplicity=2).complex,
    "two-term": two_term,
}


@given(st.sampled_from([GF101, QQ]), st.sampled_from(sorted(TRANSPORT_CASES)),
       st.integers(0, 2**32 - 1))
def test_homology_of_a_transport_is_a_module_with_unit_projections(field, case, seed):
    F = random_transport(TRANSPORT_CASES[case](square_zero_plane(field)), random.Random(seed))
    for i in F.degrees():
        H = homology(F, i)
        assert H.module.validate() == []
        units = [tuple(c) for c in Matrix.identity(field, H.dim).columns()]
        assert H.project_cycles(H.reps) == units
        # a representative moved by a boundary projects to the same unit vector
        if H.boundary_cols.ncols:
            b = H.boundary_cols.column(0)
            assert H.project_cycles([tuple(field.add(x, y) for x, y in zip(r, b))
                                     for r in H.reps]) == units


# ---------------------------------------------------------------------------
# homology dimensions from ranks against the homology modules


def _rescaled(F, rng):
    """F in a randomly rescaled basis: d_i[r][c] * s_{i-1}[r] / s_i[c], which
    keeps every entry homogeneous."""
    A, f = F.algebra, F.algebra.field
    s = {i: [f.from_int(rng.randrange(1, 50)) for _ in range(F.rank(i))] for i in F.degrees()}
    diffs = tuple(AMatrix.from_rows(A, [[A.el_scale(f.div(s[i - 1][r], s[i][c]), e)
                                         for c, e in enumerate(row)]
                                        for r, row in enumerate(F.diff(i).entries)],
                                    ncols=F.rank(i))
                  for i in range(F.low + 1, F.top + 1))
    return FreeComplex(A, F.low, F.ranks, diffs, F.shifts)


def _padded(F):
    """F with a zero term added below and above it."""
    A = F.algebra
    diffs = ((AMatrix.zero(A, 0, F.ranks[0]),) + F.diffs
             + (AMatrix.zero(A, F.ranks[-1], 0),))
    shifts = ((),) + F.shifts + ((),) if F.shifts is not None else None
    return FreeComplex(A, F.low - 1, (0,) + F.ranks + (0,), diffs, shifts)


# two-term is left out: its differential is not homogeneous on the graded backend
RANK_CASES = {
    **{name: case for name, case in TRANSPORT_CASES.items() if name != "two-term"},
    "gap": lambda A: direct_sum(TRANSPORT_CASES["koszul-x"](A),
                                shift(TRANSPORT_CASES["koszul-xy"](A), 3)),
    "zero-ends": lambda A: _padded(TRANSPORT_CASES["koszul-xy"](A)),
}


@given(st.sampled_from([GF101, QQ]), st.sampled_from(sorted(RANK_CASES)),
       st.sampled_from([-2, 0, 1]), st.integers(0, 2**32 - 1))
def test_rank_homology_dims_match_the_module_path(field, case, low, seed):
    rng = random.Random(seed)
    K = RANK_CASES[case](square_zero_plane(field))
    F = shift(_rescaled(random_transport(K, rng), rng), low)
    assert homology_dims(F) == {i: homology(F, i).dim for i in F.degrees()}


@given(st.sampled_from([GF101, QQ]), st.sampled_from(sorted(RANK_CASES)),
       st.sampled_from([-2, 0, 1]), st.integers(0, 2**32 - 1))
def test_graded_rank_dims_match_the_module_path(field, case, low, seed):
    A = monomial_algebra(field, ["x", "y"], ["x^2", "y^3"], 4)
    F = shift(_rescaled(RANK_CASES[case](A), random.Random(seed)), low)
    dims = graded_homology_dims(F)
    assert dims == {i: graded_homology(F, i).hilbert(A.truncation) for i in F.degrees()}
    assert homology_dims(F) == {i: sum(h) for i, h in dims.items()}


# ---------------------------------------------------------------------------
# the shared graded homology against the module-complex references


def reference_homology_dims(C, i) -> tuple:
    """dim H_i(C) per internal degree of a GradedModuleComplex, one rank per
    differential and degree (the former `GradedModuleComplex.homology_dims`)."""
    return tuple(C.dim_at(i, d) - rank(C.diff_matrix(i, d)) - rank(C.diff_matrix(i + 1, d))
                 for d in range(C.window + 1))


def reference_h0_module(C) -> GradedModule:
    """H_low(C) of a GradedModuleComplex (the former `h0_module`): the standard
    basis vectors a greedy scan keeps outside the boundaries, with the
    variable actions of C_low solved vector by vector."""
    A, f, w = C.algebra, C.algebra.field, C.window
    bnd, reps = {}, {}
    for d in range(w + 1):
        bnd[d] = column_space_basis(C.diff_matrix(C.low + 1, d))
        reps[d] = complement(bnd[d], Matrix.identity(f, C.dim_at(C.low, d)))
    M0 = C.module(C.low)
    actions = tuple(tuple(
        Matrix.from_columns(f, [quotient_coords(bnd[d + 1], reps[d + 1], [M0.act(v, d).apply(c)])[0]
                                for c in reps[d].columns()], nrows=reps[d + 1].ncols)
        for d in range(w)) for v in range(A.nvars))
    return GradedModule(A, tuple(reps[d].ncols for d in range(w + 1)), actions, w)


def module_complex_of(F) -> GradedModuleComplex:
    """A graded FreeComplex as a complex of graded free modules."""
    A, w = F.algebra, F.algebra.truncation
    return GradedModuleComplex(
        A, F.low, tuple(graded_free_module(A, F.shift_of(i), w) for i in F.degrees()),
        tuple(tuple(A.map_matrix(F.diff(i).entries, F.shift_of(i), F.shift_of(i - 1), d)
                    for d in range(w + 1)) for i in range(F.low + 1, F.top + 1)))


GRADED_CASES = {
    "nagata": lambda field, low, rng: build_nagata(field).module_complex,
    "module-sum": lambda field, low, rng: build_two_term_module_complex(field).module_complex,
    "strict-attempt": lambda field, low, rng: build_strict_attempt(field).F,
    **{f"rescaled-{name}": lambda field, low, rng, case=case: shift(_rescaled(
        case(monomial_algebra(field, ["x", "y"], ["x^2", "y^3"], 4)), rng), low)
       for name, case in RANK_CASES.items()},
}


@given(st.sampled_from([GF101, QQ]), st.sampled_from(sorted(GRADED_CASES)),
       st.sampled_from([-2, 0, 1]), st.integers(0, 2**32 - 1))
def test_shared_graded_homology_matches_the_module_complex_references(field, case, low, seed):
    C = GRADED_CASES[case](field, low, random.Random(seed))
    M = C if isinstance(C, GradedModuleComplex) else module_complex_of(C)
    dims = graded_homology_dims(C)
    assert dims == {i: reference_homology_dims(M, i) for i in range(M.low, M.top + 1)}
    assert homology_dims(C) == {i: sum(h) for i, h in dims.items()}
    assert graded_homology(C, C.low) == reference_h0_module(M)
    if M is not C:  # the two views of a free complex give one module
        assert all(graded_homology(C, i) == graded_homology(M, i) for i in C.degrees())


@given(st.sampled_from([GF101, QQ]), st.sampled_from(sorted(TRANSPORT_CASES)),
       st.integers(0, 2**32 - 1))
def test_sparse_rows_match_the_entrywise_matrices(field, case, seed):
    """`flatten` against the flattening read off products with basis
    elements, and the Betti numbers against ranks of the residue matrices."""
    A = square_zero_space(field)
    d = A.dim
    F = random_transport(TRANSPORT_CASES[case](A), random.Random(seed))
    for i in range(F.low + 1, F.top + 1):
        D = F.diff(i)
        cols = [A.el_mul(e, A.basis_element(b)) for row in D.entries for e in row
                for b in range(d)]
        flat = Matrix.from_rows(field, [[cols[(r * D.ncols + c) * d + b][a]
                                         for c in range(D.ncols) for b in range(d)]
                                        for r in range(D.nrows) for a in range(d)],
                                ncols=D.ncols * d)
        assert D.flatten() == flat
    assert betti(F) == {i: F.rank(i) - rank(F.diff(i).mod_m()) - rank(F.diff(i + 1).mod_m())
                        for i in F.degrees()}


# ---------------------------------------------------------------------------
# the inverse solved for the unit columns against the whole [M | I] inverse


def inverse_by_full_identity(M: AMatrix):
    """The inverse read off [flat(M) | I]: every column of the flattened
    inverse is solved for, and entry (i, j) is block i of column j*d."""
    if M.nrows != M.ncols:
        return None
    A, n = M.algebra, M.nrows
    d = A.dim
    inv = invert(M.flatten())
    if inv is None:
        return None
    return AMatrix(A, n, n, tuple(tuple(tuple(inv.column(j * d)[i * d:(i + 1) * d])
                                        for j in range(n)) for i in range(n)))


INVERSE_ALGEBRAS = {
    "plane": square_zero_plane,
    "space": square_zero_space,
    "chain-z3": lambda field: catalog_algebra(field, "chain-z3"),
    "field": lambda field: monomial_algebra(field, ["x"], ["x"], 1).artinize(),
}


@given(st.sampled_from([GF101, QQ]), st.sampled_from(sorted(INVERSE_ALGEBRAS)),
       st.integers(0, 4), st.integers(0, 2**32 - 1))
def test_amatrix_inverse_matches_the_full_identity_inverse(field, case, n, seed):
    A = INVERSE_ALGEBRAS[case](field)
    rng = random.Random(seed)
    M = random_invertible_amatrix(A, n, rng)
    inv = amatrix_inverse(M)
    assert inv is not None and inv == inverse_by_full_identity(M)
    assert M.mul(inv) == AMatrix.identity(A, n) == inv.mul(M)
    if n and A.dim > 1:
        # a row inside m makes M singular mod m, so not invertible
        t = rng.randrange(1, A.dim)
        rows = list(M.entries)
        rows[rng.randrange(n)] = tuple(A.el_mul(A.basis_element(t), e) for e in rows[0])
        singular = AMatrix(A, n, n, tuple(rows))
        assert amatrix_inverse(singular) is None is inverse_by_full_identity(singular)
    # a matrix of random entries, invertible or not
    rows = tuple(tuple(A.el_scale(field.from_int(rng.randrange(-2, 3)), A.basis_element(
        rng.randrange(A.dim))) for _ in range(n)) for _ in range(n))
    M = AMatrix(A, n, n, rows)
    assert amatrix_inverse(M) == inverse_by_full_identity(M)


BLOCK_ENTRIES = ("0", "1", "2", "x", "y - 3*x", "1/2 + z")


@given(st.sampled_from([GF101, QQ]), st.sampled_from(["Matrix", "AMatrix"]),
       st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=4), st.data())
def test_block_diag_places_each_block_on_the_diagonal(field, kind, shapes, data):
    A = square_zero_space(field)
    if kind == "Matrix":
        cls, ring, zero = Matrix, field, field.zero
        entry = st.integers(-3, 3).map(field.from_int)
    else:
        cls, ring, zero = AMatrix, A, A.zero
        entry = st.sampled_from(BLOCK_ENTRIES).map(A.parse_element)
    blocks = [cls.from_rows(ring, data.draw(st.lists(st.lists(entry, min_size=c, max_size=c),
                                                     min_size=r, max_size=r)), ncols=c)
              for r, c in shapes]
    D = block_diag(cls, ring, blocks)
    # the reference: every entry written into its place, one by one
    out = [[zero] * sum(c for _, c in shapes) for _ in range(sum(r for r, _ in shapes))]
    r0 = c0 = 0
    for b, (r, c) in zip(blocks, shapes):
        cells = b.dense_rows() if kind == "Matrix" else b.entries
        for i in range(r):
            out[r0 + i][c0:c0 + c] = cells[i]
        r0, c0 = r0 + r, c0 + c
    assert type(D) is cls
    assert D == cls.from_rows(ring, out, ncols=c0)


def test_entrywise_operations_refuse_mismatched_shapes():
    A = square_zero_space(GF101)
    I2, I3 = AMatrix.identity(A, 2), AMatrix.identity(A, 3)
    for call in (lambda: I2.add(I3), lambda: I2.sub(I3),
                 lambda: AMatrix.zero(A, 2, 1).hstack(I3)):
        with pytest.raises(ComplexError, match="mismatch"):
            call()
    J2, J3 = Matrix.identity(GF101, 2), Matrix.identity(GF101, 3)
    for call in (lambda: J2.add(J3), lambda: J2.sub(J3)):
        with pytest.raises(ValueError, match="shape mismatch"):
            call()


@pytest.mark.parametrize("field", [GF101, QQ], ids=["GF101", "QQ"])
def test_amatrix_inverse_of_a_non_square_matrix_is_none(field):
    A = square_zero_plane(field)
    assert amatrix_inverse(AMatrix.identity(A, 2).hstack(AMatrix.zero(A, 2, 1))) is None
    assert amatrix_inverse(AMatrix.zero(A, 0, 1)) is None
