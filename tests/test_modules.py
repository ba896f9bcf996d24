import random
from functools import cache

import pytest
from hypothesis import given
from hypothesis import strategies as st

from derfree.complexes import free_complex, graded_homology, homology
from derfree.field import GF101, QQ
from derfree.fixtures import chain_algebra, square_zero_plane
from derfree.koszul import koszul
from derfree.linalg import Matrix, kernel_basis, rank
from derfree.modules import (MINUS_INFINITY, cover_map, dim_module, free_module,
                             graded_dim_module, graded_cover, graded_free_module, graded_is_free,
                             graded_nu, graded_quotient_ring_module, is_free, lemma43_freeness,
                             nu, poincare_truncated, residue_field_module,
                             submodule_from_spanning, syzygy)
from derfree.monomial import monomial_algebra
from derfree.resolutions import graded_depth, graded_free_module as gfm, graded_minimal_resolution


def test_nu_examples():
    B = chain_algebra(GF101, 4)
    assert nu(free_module(B, 1)) == 1
    assert nu(residue_field_module(B)) == 1
    M7 = monomial_algebra(GF101, ["u", "v"],
                          ["u^4", "u^3*v", "u^2*v^2", "u*v^3", "v^4"], 8).artinize()
    # m_A B for the square embedding: the degree-2 part of k[u,v]/(u,v)^4
    F1 = free_module(M7, 1)
    span = [M7.parse_element(s) for s in ("u^2", "u*v", "v^2")]
    sub, _ = submodule_from_spanning(F1, span)
    assert nu(sub) == 3


def test_is_free_examples():
    B = chain_algebra(GF101, 4)
    assert is_free(free_module(B, 2)) == (True, 2)
    assert is_free(residue_field_module(B)) == (False, 1)
    assert is_free(free_module(B, 0)) == (True, 0)


def test_depth_dim_sentinels():
    B = chain_algebra(GF101, 4)
    assert dim_module(free_module(B, 0)) is MINUS_INFINITY
    assert dim_module(free_module(B, 1)) == 0


def test_poincare_examples():
    B = chain_algebra(GF101, 4)
    assert poincare_truncated(free_module(B, 1), 3) == (1, 0, 0, 0)
    P = square_zero_plane(GF101)
    assert poincare_truncated(residue_field_module(P), 4) == (1, 2, 4, 8, 16)
    assert poincare_truncated(free_module(B, 2), 2) == (2, 0, 0)


def test_lemma43_examples():
    B = chain_algebra(GF101, 4)
    assert lemma43_freeness(free_module(B, 3)).free is True
    v = lemma43_freeness(residue_field_module(B))
    assert v.free is False and v.betti_prefix[1] == B.edim()


def random_module(B, rng):
    """Free (planted: True), or B^r modulo random vectors, read as H_0 of the
    presentation whose columns are those vectors."""
    r = rng.randrange(1, 3)
    F = free_module(B, r)
    if rng.randrange(2) == 0:
        return F, True
    vecs = [tuple(GF101.from_int(rng.randrange(101)) for _ in range(F.dim))
            for _ in range(rng.randrange(1, 3))]
    d = B.dim
    rows = [[v[s * d:(s + 1) * d] for v in vecs] for s in range(r)]
    return homology(free_complex(B, [r, len(vecs)], [rows]), 0).module, None


def test_freeness_oracles_agree_on_random_modules():
    rng = random.Random(101)
    algebras = [chain_algebra(GF101, 4), square_zero_plane(GF101)]
    for _ in range(40):
        B = algebras[rng.randrange(len(algebras))]
        M, _ = random_module(B, rng)
        got = is_free(M)[0]
        assert lemma43_freeness(M).free == got


def test_nonfree_modules_have_positive_betti_prefix():
    # over an Artinian local ring every finite-projective-dimension module is
    # free, so a non-free module must keep strictly positive Betti numbers
    rng = random.Random(7)
    B = square_zero_plane(GF101)
    count = 0
    while count < 10:
        M, _ = random_module(B, rng)
        if M.dim == 0 or is_free(M)[0]:
            continue
        count += 1
        bt = poincare_truncated(M, 3)
        assert all(b > 0 for b in bt)


@cache
def kernel_test_algebras(field) -> tuple:
    """k[u]/(u^4), the square-zero plane and the complete intersection k[x,y]/(x^2,y^2)."""
    return (chain_algebra(field, 4), square_zero_plane(field),
            monomial_algebra(field, ["x", "y"], ["x^2", "y^2"], 4).artinize())


def poincare_through_closure(M, steps: int) -> tuple:
    """Betti numbers with each kernel module closed under the action by
    `submodule_from_spanning`: the reference for `syzygy`, which takes the
    kernel of the minimal cover as it is."""
    out, cur = [], M
    for _ in range(steps + 1):
        if cur.dim == 0:
            out.append(0)
            continue
        P, cmap, gens = cover_map(cur)
        cur, _ = submodule_from_spanning(P, kernel_basis(cmap).columns())
        out.append(len(gens))
    return tuple(out)


@pytest.mark.parametrize("field", [GF101, QQ], ids=["GF101", "QQ"])
@given(data=st.data())
def test_kernel_modules_match_the_closed_span_reference(field, data):
    B = data.draw(st.sampled_from(kernel_test_algebras(field)))
    if data.draw(st.booleans()):
        M = residue_field_module(B)
    else:
        # B^r modulo random relation vectors, read as H_0 of their presentation
        r, n = data.draw(st.integers(1, 2)), data.draw(st.integers(1, 2))
        coeff = st.integers(-2, 2).map(field.from_int)
        rows = [[tuple(data.draw(st.lists(coeff, min_size=B.dim, max_size=B.dim)))
                 for _ in range(n)] for _ in range(r)]
        M = homology(free_complex(B, [r, n], [rows]), 0).module
    if M.dim:
        assert syzygy(M)[0].validate() == []
    assert poincare_truncated(M, 3) == poincare_through_closure(M, 3)


def test_graded_module_ops():
    A = monomial_algebra(GF101, ["x", "y"], ["x^2", "x*y"], 6)
    MA = graded_free_module(A, [0], 6)
    assert MA.hilbert(6) == (1, 2, 1, 1, 1, 1, 1)
    quot = graded_quotient_ring_module(A, [0], 6)  # A/(x) = k[y]
    total, per = graded_nu(quot)
    assert total == 1 and per[0] == 1
    verdict = graded_is_free(quot)
    assert verdict.free is False and verdict.witness_degree == 1
    val, exact, _ = graded_dim_module(MA)
    assert val == 1 and exact
    val0, _, _ = graded_dim_module(quot)
    assert val0 == 1  # k[y] has dimension 1 over A


def test_graded_free_is_free_up_to_window():
    A = monomial_algebra(GF101, ["x", "y"], [], 5)
    M = graded_free_module(A, [0, 1], 5)
    verdict = graded_is_free(M)
    assert verdict.free is None and verdict.rank == 2


def test_graded_depth_values():
    A = monomial_algebra(GF101, ["x", "y"], [], 6)
    assert graded_depth(gfm(A, [0], 6), 3) == (2, True)
    A2 = monomial_algebra(GF101, ["x", "y"], ["x^2", "x*y"], 6)
    assert graded_depth(gfm(A2, [0], 6), 3) == (0, True)
    B = graded_quotient_ring_module(A, [0], 6)
    assert graded_depth(B, 3) == (1, True)


def reference_generator_counts(M):
    """dim M_d - dim (m*M)_d per degree, (m*M)_d spanned by the variable
    actions out of degree d - 1."""
    f = M.algebra.field
    out = []
    for d in range(M.window + 1):
        cols = [c for v in range(M.algebra.nvars) for c in M.act(v, d - 1).columns()] if d else []
        out.append(M.dim_at(d) - rank(Matrix.from_columns(f, cols, nrows=M.dim_at(d))))
    return tuple(out)


def graded_cases():
    A = monomial_algebra(GF101, ["x", "y"], ["x^2", "x*y"], 6)
    S = monomial_algebra(GF101, ["x", "y"], [], 5)
    return {
        "k": graded_quotient_ring_module(A, range(A.nvars), 6),
        "A/(x)": graded_quotient_ring_module(A, [0], 6),
        "A(0)+A(-2)": gfm(A, [0, 2], 6),
        "S/(x)": graded_quotient_ring_module(S, [0], 5),
        "H_1(K(x))": graded_homology(koszul(A, [A.parse_element("x")]).complex, 1),
        "zero": gfm(A, [], 6),
    }


@pytest.mark.parametrize("name", sorted(graded_cases()))
def test_graded_nu_agrees_with_the_covers_of_freeness_and_resolution(name):
    M = graded_cases()[name]
    total, per = graded_nu(M)
    degrees = tuple(d for d, n in enumerate(per) for _ in range(n))
    assert per == reference_generator_counts(M) and total == len(degrees)
    # graded_is_free reads graded_cover; its rank is the count whenever it is not refuted
    assert graded_cover(M)[0] == degrees
    verdict = graded_is_free(M)
    assert verdict.rank == (None if verdict.free is False else total)
    assert graded_minimal_resolution(M, 0).steps[0].gen_degrees == degrees
