import itertools

import pytest
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from derfree.field import GF, GF101, QQ
from derfree.linalg import (Matrix, independent_columns, invert, kernel_basis, np_rref,
                            rank, rref, solve, solve_and_project, solve_multi,
                            span_equal, sparse_rref)


def brute_force_det(field, M):
    """Permutation-expansion determinant; the independent oracle for rank checks."""
    n = M.nrows
    total = field.zero
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        term = field.one
        for i in range(n):
            term = field.mul(term, M.rows[i][perm[i]])
        total = field.add(total, term if sign == 1 else field.neg(term))
    return total


def test_rref_identity():
    I3 = Matrix.identity(GF101, 3)
    R, pivots, rk = rref(I3)
    assert R == I3 and rk == 3 and pivots == (0, 1, 2)


def test_rref_zero():
    Z = Matrix.zero(GF101, 2, 4)
    R, pivots, rk = rref(Z)
    assert R == Z and rk == 0 and pivots == ()


def test_rref_gf5_rank_by_determinant_oracle():
    # the 2x2 integer matrix [[1,2],[3,1]] has determinant -5, which vanishes
    # mod 5; the oracle fixes the expected rank at 1 there and 2 elsewhere
    F5 = GF(5)
    M = Matrix.from_int_rows(F5, [[1, 2], [3, 1]])
    assert brute_force_det(F5, M) == 0
    assert rank(M) == 1
    M101 = Matrix.from_int_rows(GF101, [[1, 2], [3, 1]])
    assert brute_force_det(GF101, M101) != 0
    assert rank(M101) == 2


def test_kernel_identity_empty():
    K = kernel_basis(Matrix.identity(GF101, 4))
    assert K.ncols == 0 and K.nrows == 4


def test_kernel_zero_standard_basis():
    K = kernel_basis(Matrix.zero(GF101, 3, 3))
    assert K == Matrix.identity(GF101, 3)


def test_kernel_one_relation_rational():
    K = kernel_basis(Matrix.from_int_rows(QQ, [[1, 1]]))
    assert K.ncols == 1
    v = K.column(0)
    assert v[0] + v[1] == 0 and v != (0, 0)


def test_solve_identity_and_zero():
    assert solve(Matrix.identity(GF101, 3), (5, 6, 7)) == (5, 6, 7)
    assert solve(Matrix.zero(GF101, 2, 2), (1, 0)) is None


def test_solve_planted(gf):
    import random
    rng = random.Random(11)
    M = Matrix.from_int_rows(gf, [[rng.randrange(101) for _ in range(7)] for _ in range(5)])
    planted = tuple(gf.from_int(rng.randrange(101)) for _ in range(7))
    b = M.apply(planted)
    x = solve(M, b)
    assert x is not None
    assert M.apply(x) == tuple(b)


def test_solve_multi_mixed_consistency():
    M = Matrix.from_int_rows(GF101, [[1, 0], [0, 0]])
    sols = solve_multi(M, [(3, 0), (0, 1), (5, 0)])
    assert sols[0] is not None and M.apply(sols[0]) == (3, 0)
    assert sols[1] is None
    assert sols[2] is not None and M.apply(sols[2]) == (5, 0)


def test_solve_and_project_trivial_cases():
    Z = Matrix.zero(GF101, 2, 4)
    P = solve_and_project(Z, 2)
    assert P.ncols == 2  # full space of dimension split
    I4 = Matrix.identity(GF101, 4)
    assert solve_and_project(I4, 2).ncols == 0


def test_solve_and_project_against_exhaustive_gf2():
    # planted two-block system over GF(2); exhaustive kernel enumeration is
    # the oracle for the projected span
    F2 = GF(2)
    rows = [[1, 0, 1, 1, 0, 1], [0, 1, 1, 0, 1, 1], [1, 1, 0, 1, 1, 0]]
    M = Matrix.from_int_rows(F2, rows)
    split = 3
    got = solve_and_project(M, split)
    projected = set()
    n = M.ncols
    for bits in range(2 ** n):
        v = tuple((bits >> i) & 1 for i in range(n))
        if all(x == 0 for x in M.apply(v)):
            projected.add(v[:split])
    # span of `got` columns must equal the projected set
    span = set()
    cols = got.columns()
    for coeffs in itertools.product((0, 1), repeat=got.ncols):
        acc = [0] * split
        for c, col in zip(coeffs, cols):
            if c:
                acc = [(a + b) % 2 for a, b in zip(acc, col)]
        span.add(tuple(acc))
    assert span == projected


def test_solve_and_project_split_too_large():
    with pytest.raises(ValueError):
        solve_and_project(Matrix.identity(GF101, 2), 3)


def test_invert():
    M = Matrix.from_int_rows(GF101, [[1, 2], [3, 4]])
    Mi = invert(M)
    assert Mi is not None and M.mul(Mi) == Matrix.identity(GF101, 2)
    assert invert(Matrix.from_int_rows(GF101, [[1, 2], [2, 4]])) is None


def gauss_jordan(field, rows, ncols):
    """Dense Gauss-Jordan reference: leftmost pivot, first nonzero row."""
    rows = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(rows)) if rows[i][c] != field.zero), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = field.inv(rows[r][c])
        rows[r] = [field.mul(inv, x) for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != field.zero:
                f = rows[i][c]
                rows[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows, tuple(pivots)


def reference_rref(M):
    """RREF by np_rref over GF(p) and by dense Gauss-Jordan over QQ."""
    if M.field == QQ:
        return gauss_jordan(QQ, M.rows, M.ncols)
    arr = np.array(M.rows, dtype=np.int64).reshape(M.nrows, M.ncols)
    arr, pivots = np_rref(arr, M.field.p)
    return arr.tolist(), tuple(pivots)


def test_numpy_path_matches_python_path():
    # a dense 65x70 system: the sparse kernel agrees with both references
    import random
    rng = random.Random(3)
    rows = [[rng.randrange(101) for _ in range(70)] for _ in range(65)]
    big = Matrix.from_int_rows(GF101, rows)
    R, piv, rk = rref(big)
    np_rows, np_piv = reference_rref(big)
    gj_rows, gj_piv = gauss_jordan(GF101, big.rows, big.ncols)
    assert R.rows == tuple(map(tuple, np_rows)) == tuple(map(tuple, gj_rows))
    assert piv == np_piv == gj_piv and rk == len(piv)


def sparse_or_dense(field):
    """Matrices of any shape (empty ones too), mostly zero or mostly not."""
    if field == QQ:
        scalar = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    else:
        scalar = st.integers(0, field.p - 1).map(field.from_int)
    entry = st.one_of(st.just(field.zero), scalar)
    sparse_entry = st.one_of(st.just(field.zero), st.just(field.zero), st.just(field.zero),
                             scalar)
    return st.tuples(st.integers(0, 8), st.integers(0, 8), st.booleans()).flatmap(
        lambda t: st.lists(st.lists(sparse_entry if t[2] else entry,
                                    min_size=t[1], max_size=t[1]),
                           min_size=t[0], max_size=t[0]).map(
            lambda rows: Matrix.from_rows(field, rows, ncols=t[1])))


@settings(max_examples=150)
@given(st.sampled_from([GF101, QQ]).flatmap(sparse_or_dense), st.data())
def test_sparse_kernel_matches_the_reference_rref(M, data):
    # zero rows and zero columns, spliced in at random places
    if M.nrows and data.draw(st.booleans()):
        k = data.draw(st.integers(0, M.nrows))
        M = Matrix(M.field, M.nrows + 1, M.ncols,
                   M.rows[:k] + ((M.field.zero,) * M.ncols,) + M.rows[k:])
    if data.draw(st.booleans()):
        k = data.draw(st.integers(0, M.ncols))
        M = Matrix(M.field, M.nrows, M.ncols + 1,
                   tuple(r[:k] + (M.field.zero,) + r[k:] for r in M.rows))
    R, piv, rk = rref(M)
    ref_rows, ref_piv = reference_rref(M)
    assert R.rows == tuple(map(tuple, ref_rows))
    assert piv == ref_piv and rk == len(ref_piv)
    # the kernel's own rows, pivot by pivot
    pivot_rows, pivots = sparse_rref(M.field, [
        {j: v for j, v in enumerate(r) if v != M.field.zero} for r in M.rows])
    assert pivots == ref_piv
    assert [[row.get(j, M.field.zero) for j in range(M.ncols)] for row in pivot_rows] \
        == [list(r) for r in ref_rows[:rk]]


@pytest.mark.parametrize("field", [GF101, QQ])
def test_sparse_kernel_ignores_row_order(field):
    # a 3%-dense 150x120 system with redundant rows, in two row orders
    import random
    rng = random.Random(7)
    rows = [{j: field.from_int(rng.randrange(1, 101)) for j in range(120)
             if rng.random() < 0.03} for _ in range(100)]
    rows += [{j: field.add(a.get(j, field.zero), b.get(j, field.zero)) for j in {*a, *b}}
             for a, b in zip(rows[:50], rows[50:])]
    ref_rows, ref_piv = gauss_jordan(
        field, [[r.get(j, field.zero) for j in range(120)] for r in rows], 120)
    for order in (rows, rows[::-1]):
        pivot_rows, pivots = sparse_rref(field, order)
        assert pivots == ref_piv
        assert [[row.get(j, field.zero) for j in range(120)] for row in pivot_rows] \
            == ref_rows[:len(ref_piv)]


matrices = st.integers(1, 5).flatmap(
    lambda m: st.integers(1, 5).flatmap(
        lambda n: st.lists(st.lists(st.integers(0, 100), min_size=n, max_size=n),
                           min_size=m, max_size=m)))


@given(matrices)
def test_rref_idempotent(rows):
    M = Matrix.from_int_rows(GF101, rows)
    R, piv, rk = rref(M)
    R2, piv2, rk2 = rref(R)
    assert R == R2 and piv == piv2 and rk == rk2


@given(matrices)
def test_kernel_soundness_and_completeness(rows):
    M = Matrix.from_int_rows(GF101, rows)
    K = kernel_basis(M)
    for j in range(K.ncols):
        assert all(x == 0 for x in M.apply(K.column(j)))
    assert rank(M) + K.ncols == M.ncols


@given(matrices)
def test_solve_soundness(rows):
    M = Matrix.from_int_rows(GF101, rows)
    b = tuple(GF101.from_int(i + 1) for i in range(M.nrows))
    x = solve(M, b)
    if x is not None:
        assert M.apply(x) == b


@given(matrices)
def test_determinism(rows):
    M = Matrix.from_int_rows(GF101, rows)
    assert rref(M) == rref(M)
    assert kernel_basis(M) == kernel_basis(M)


def test_span_equal():
    a = Matrix.from_int_rows(GF101, [[1, 0], [0, 1], [0, 0]])
    b = Matrix.from_int_rows(GF101, [[1, 1], [1, 2], [0, 0]])
    assert span_equal(a, b)
    c = Matrix.from_int_rows(GF101, [[1], [0], [1]])
    assert not span_equal(a, c)


def greedy_rank_loop(base, cands):
    """Reference for independent_columns: one rank computation per candidate."""
    f = base.field
    cur = base.columns()
    cur_rank = rank(Matrix.from_columns(f, cur, nrows=base.nrows))
    kept = []
    for j, c in enumerate(cands.columns()):
        r = rank(Matrix.from_columns(f, cur + [c], nrows=base.nrows))
        if r == cur_rank + 1:
            kept.append(j)
            cur.append(c)
            cur_rank = r
    return kept


@given(st.sampled_from([GF101, QQ]), st.integers(0, 5), st.data())
def test_independent_columns_matches_the_greedy_rank_loop(field, n, data):
    col = st.lists(st.integers(-2, 2), min_size=n, max_size=n)
    base = data.draw(st.lists(col, max_size=4))
    if base:
        # a dependent base column: the sum of the first and the last
        base.append([a + b for a, b in zip(base[0], base[-1])])
    cands = data.draw(st.lists(col, max_size=6))
    cands += cands[:1]  # a repeated candidate
    B = Matrix.from_columns(field, [[field.from_int(x) for x in c] for c in base], nrows=n)
    C = Matrix.from_columns(field, [[field.from_int(x) for x in c] for c in cands], nrows=n)
    assert independent_columns(B, C) == greedy_rank_loop(B, C)


def test_independent_columns_skips_the_span_of_the_base():
    e = Matrix.identity(GF101, 3).columns()
    base = Matrix.from_columns(GF101, [e[0], e[0]], nrows=3)
    cands = Matrix.from_columns(GF101, [e[0], e[1], e[1], e[2]], nrows=3)
    assert independent_columns(base, cands) == [1, 3]
    with pytest.raises(ValueError):
        independent_columns(base, Matrix.identity(GF101, 2))
