import copy
import itertools
import math
import random
from fractions import Fraction

import pytest
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from derfree.field import GF, GF101, QQ
from derfree.linalg import (Matrix, complement, in_span, independent_columns, invert,
                            is_invertible, kernel_basis, np_rref, quotient_coords, rank, rref,
                            solve, solve_and_project, solve_multi, span_equal, sparse_rref)


def int_matrix(field, rows) -> Matrix:
    """The matrix of the integer rows `rows` over `field`."""
    return Matrix.from_rows(field, [[field.from_int(x) for x in r] for r in rows])


def brute_force_det(field, M):
    """Permutation-expansion determinant; the independent oracle for rank checks."""
    n, rows = M.nrows, M.dense_rows()
    total = field.zero
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        term = field.one
        for i in range(n):
            term = field.mul(term, rows[i][perm[i]])
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
    M = int_matrix(F5, [[1, 2], [3, 1]])
    assert brute_force_det(F5, M) == 0
    assert rank(M) == 1
    M101 = int_matrix(GF101, [[1, 2], [3, 1]])
    assert brute_force_det(GF101, M101) != 0
    assert rank(M101) == 2


def test_kernel_identity_empty():
    K = kernel_basis(Matrix.identity(GF101, 4))
    assert K.ncols == 0 and K.nrows == 4


def test_kernel_zero_standard_basis():
    K = kernel_basis(Matrix.zero(GF101, 3, 3))
    assert K == Matrix.identity(GF101, 3)


def test_kernel_one_relation_rational():
    K = kernel_basis(int_matrix(QQ, [[1, 1]]))
    assert K.ncols == 1
    v = K.column(0)
    assert v[0] + v[1] == 0 and v != (0, 0)


def test_solve_identity_and_zero():
    assert solve(Matrix.identity(GF101, 3), (5, 6, 7)) == (5, 6, 7)
    assert solve(Matrix.zero(GF101, 2, 2), (1, 0)) is None


def test_solve_planted(gf):
    import random
    rng = random.Random(11)
    M = int_matrix(gf, [[rng.randrange(101) for _ in range(7)] for _ in range(5)])
    planted = tuple(gf.from_int(rng.randrange(101)) for _ in range(7))
    b = M.apply(planted)
    x = solve(M, b)
    assert x is not None
    assert M.apply(x) == tuple(b)


def test_solve_multi_mixed_consistency():
    M = int_matrix(GF101, [[1, 0], [0, 0]])
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
    M = int_matrix(F2, rows)
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
    M = int_matrix(GF101, [[1, 2], [3, 4]])
    Mi = invert(M)
    assert Mi is not None and M.mul(Mi) == Matrix.identity(GF101, 2)
    assert invert(int_matrix(GF101, [[1, 2], [2, 4]])) is None


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
        return gauss_jordan(QQ, M.dense_rows(), M.ncols)
    arr = np.array(M.dense_rows(), dtype=np.int64).reshape(M.nrows, M.ncols)
    arr, pivots = np_rref(arr, M.field.p)
    return arr.tolist(), tuple(pivots)


def test_numpy_path_matches_python_path():
    # a dense 65x70 system: the sparse kernel agrees with both references
    import random
    rng = random.Random(3)
    rows = [[rng.randrange(101) for _ in range(70)] for _ in range(65)]
    big = int_matrix(GF101, rows)
    R, piv, rk = rref(big)
    np_rows, np_piv = reference_rref(big)
    gj_rows, gj_piv = gauss_jordan(GF101, big.dense_rows(), big.ncols)
    assert R.dense_rows() == tuple(map(tuple, np_rows)) == tuple(map(tuple, gj_rows))
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
        rows = M.dense_rows()
        M = Matrix.from_rows(M.field, rows[:k] + ((M.field.zero,) * M.ncols,) + rows[k:],
                             ncols=M.ncols)
    if data.draw(st.booleans()):
        k = data.draw(st.integers(0, M.ncols))
        M = Matrix.from_rows(M.field, [r[:k] + (M.field.zero,) + r[k:] for r in M.dense_rows()],
                             ncols=M.ncols + 1)
    R, piv, rk = rref(M)
    ref_rows, ref_piv = reference_rref(M)
    assert R.dense_rows() == tuple(map(tuple, ref_rows))
    assert piv == ref_piv and rk == len(ref_piv)
    # the kernel's own rows, pivot by pivot
    pivot_rows, pivots = sparse_rref(M.field, [dict(r) for r in M.rows])
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
        pivot_rows, pivots = sparse_rref(field, [dict(r) for r in order])
        assert pivots == ref_piv
        assert [[row.get(j, field.zero) for j in range(120)] for row in pivot_rows] \
            == ref_rows[:len(ref_piv)]


def nonzero_scalars(field):
    """Nonzero scalars; over QQ most of them are not 1, so rows lead with L != 1."""
    if field == QQ:
        return st.fractions(min_value=-4, max_value=4, max_denominator=4).filter(bool)
    return st.integers(1, field.p - 1)


@st.composite
def staggered_rows(draw, field):
    """(ncols, rows): echelon base rows with drawn leads, combinations of
    them plus up to two entries on non-lead columns right of their lead,
    and a zero row, in a drawn order.  A combination shares a base row's
    lead, so once that base row is a pivot it reduces to a lead right of
    some pivots and left of others."""
    ncols = draw(st.integers(1, 12))
    scalar = nonzero_scalars(field)
    base = []
    for lead in sorted(draw(st.sets(st.integers(0, ncols - 1), max_size=6))):
        row = {lead: draw(scalar)}
        for j in draw(st.sets(st.integers(lead, ncols - 1), max_size=3)) - {lead}:
            row[j] = draw(scalar)
        base.append(row)
    leads = {min(r) for r in base}
    free = [j for j in range(ncols) if j not in leads]
    combos = []
    for _ in range(draw(st.integers(0, 6)) if base else 0):
        row = {}
        for k in draw(st.sets(st.integers(0, len(base) - 1), min_size=1, max_size=3)):
            c = draw(scalar)
            for j, v in base[k].items():
                row[j] = field.add(row.get(j, field.zero), field.mul(c, v))
        right = [j for j in free if j > min(row, default=ncols)]
        for j in draw(st.sets(st.sampled_from(right), max_size=2)) if right else ():
            row[j] = field.add(row.get(j, field.zero), draw(scalar))
        combos.append({j: v for j, v in row.items() if v})
    return ncols, draw(st.permutations(base + combos + [{}] * draw(st.integers(0, 1))))


def assert_rref_matches_gauss_jordan(field, rows, ncols):
    """sparse_rref of copies of rows, in their order, equals the dense Gauss-Jordan RREF."""
    pivot_rows, pivots = sparse_rref(field, [dict(r) for r in rows])
    ref_rows, ref_piv = gauss_jordan(
        field, [[r.get(j, field.zero) for j in range(ncols)] for r in rows], ncols)
    assert pivots == ref_piv
    assert [[row.get(j, field.zero) for j in range(ncols)] for row in pivot_rows] \
        == ref_rows[:len(ref_piv)]
    assert all(v for row in pivot_rows for v in row.values())


@pytest.mark.parametrize("field", [GF101, QQ], ids=["GF101", "QQ"])
@given(data=st.data())
def test_sparse_rref_matches_gauss_jordan_on_staggered_rows(field, data):
    ncols, rows = data.draw(staggered_rows(field))
    assert_rref_matches_gauss_jordan(field, rows, ncols)


def test_a_lead_right_of_a_pivot_is_cleared_with_its_scale(monkeypatch):
    """Over QQ, {0: 1, 1: 4, 2: 1} reduces by the pivot row {0: 1, 1: 1} to
    the lead 3 at column 1, right of pivot 0: the pivot row is cleared by
    the scaled back-elimination 3 * piv - row."""
    from derfree import linalg
    scales = []
    real = linalg._eliminate
    monkeypatch.setattr(linalg, "_eliminate", lambda field, row, c, piv, scale:
                        scales.append(scale) or real(field, row, c, piv, scale))
    rows = [{0: QQ.one, 1: QQ.one}, {0: QQ.one, 1: QQ.from_int(4), 2: QQ.one}]
    assert_rref_matches_gauss_jordan(QQ, rows, 3)
    assert scales == [3]


def assert_rows_unchanged(M, call):
    """call() leaves every row dict of M as a deep copy taken before it; the
    reprs tell a Fraction from the int a raw conversion would leave."""
    before = copy.deepcopy(M.rows)
    call()
    assert M.rows == before and repr(M.rows) == repr(before)


def assert_callers_keep_their_rows(M):
    assert_rows_unchanged(M, lambda: rank(M))
    assert_rows_unchanged(M, lambda: rref(M))
    assert_rows_unchanged(M, lambda: kernel_basis(M))
    b = tuple(M.field.from_int(i + 1) for i in range(M.nrows))
    assert_rows_unchanged(M, lambda: solve_multi(M, [b, M.apply((M.field.one,) * M.ncols)]))
    if M.nrows == M.ncols:
        assert_rows_unchanged(M, lambda: invert(M))


@pytest.mark.parametrize("field", [GF101, QQ], ids=["GF101", "QQ"])
def test_eliminating_callers_leave_their_rows_unchanged(field, monkeypatch):
    """sparse_rref owns its rows, so every caller hands it copies: a pivot
    row that is made primitive and later back-reduced is never one of the
    argument's rows."""
    from derfree import linalg
    from derfree.complexes import amatrix_inverse, random_invertible_amatrix
    from derfree.fixtures import catalog_algebra
    back_reduced = []
    real = linalg._eliminate
    monkeypatch.setattr(linalg, "_eliminate", lambda *args: back_reduced.append(1) or real(*args))
    third = field.inv(field.from_int(3))
    # by lead: {1: 4, 2: 10} and {0: 2, 1: 2} become pivots with leads that
    # are not 1, and {0: 2, 1: 6, 2: 3} reduces to a lead at column 2, which
    # is cleared from both
    rows = [[2, 2, 0], [2, 6, 3], [0, 4, 10]]
    M = Matrix.from_rows(field, [[field.mul(third, field.from_int(x)) for x in r] for r in rows])
    assert_callers_keep_their_rows(M)
    assert back_reduced
    A = catalog_algebra(field, "chain-z3")
    Q = random_invertible_amatrix(A, 3, random.Random(5))
    entries, flat = copy.deepcopy(Q.entries), Q.flatten()
    back_reduced.clear()
    assert amatrix_inverse(Q) is not None and back_reduced
    assert Q.entries == entries and repr(Q.entries) == repr(entries) and Q.flatten() == flat


@pytest.mark.parametrize("field", [GF101, QQ], ids=["GF101", "QQ"])
@given(data=st.data())
def test_eliminating_callers_leave_staggered_rows_unchanged(field, data):
    ncols, rows = data.draw(staggered_rows(field))
    assert_callers_keep_their_rows(Matrix(field, len(rows), ncols, tuple(rows)))


@pytest.mark.parametrize("field", [GF101, QQ], ids=["GF101", "QQ"])
def test_sparse_rref_matches_gauss_jordan_on_an_annihilator_system(field):
    """The rows [-a*id | dh + hd] of a transported chain-z3 Koszul complex."""
    import random
    from derfree.complexes import random_transport
    from derfree.homotopy import _System
    from derfree.fixtures import catalog_algebra
    from derfree.koszul import koszul
    A = catalog_algebra(field, "chain-z3")
    K = koszul(A, [A.parse_element(v) for v in "xy"], multiplicity=2).complex
    K = random_transport(K, random.Random(3))
    system = _System(K, K, scalar=True)
    assert_rref_matches_gauss_jordan(field, list(system.matrix.rows), system.ncols)


WIDE = st.builds(Fraction, st.integers(-10**9, 10**9), st.integers(1, 10**9))


@st.composite
def wide_rational_rows(draw):
    """Rows of rationals with numerators and denominators up to 10^9, plus
    copies of them scaled by a common factor, duplicates and zero rows, in
    a drawn order."""
    ncols = draw(st.integers(1, 6))
    entry = st.one_of(st.just(QQ.zero), WIDE)
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), max_size=5))
    extra = []
    for r in rows:
        kind = draw(st.sampled_from(["none", "scaled", "integral", "duplicate"]))
        if kind == "scaled":
            c = draw(WIDE.filter(bool))
            extra.append([c * x for x in r])
        elif kind == "integral":
            # clear the denominators, then give every entry the factor k
            k = draw(st.integers(2, 10**9))
            den = math.lcm(*[x.denominator for x in r])
            extra.append([Fraction(k * x * den) for x in r])
        elif kind == "duplicate":
            extra.append(list(r))
    extra += [[QQ.zero] * ncols] * draw(st.integers(0, 2))
    rows = draw(st.permutations(rows + extra))
    return ncols, rows


def assert_fractions(values):
    for x in values:
        assert type(x) is Fraction, x


@given(wide_rational_rows(), st.data())
def test_wide_rationals_match_the_dense_reference(shape, data):
    ncols, rows = shape
    ref_rows, ref_piv = gauss_jordan(QQ, rows, ncols)
    rk = len(ref_piv)
    pivot_rows, pivots = sparse_rref(QQ, [dict(enumerate(r)) for r in rows])
    assert pivots == ref_piv
    assert [[row.get(j, QQ.zero) for j in range(ncols)] for row in pivot_rows] == ref_rows[:rk]
    assert_fractions(v for row in pivot_rows for v in row.values())
    # the canonical kernel: e_j less the pivot entries of free column j
    M = Matrix.from_rows(QQ, rows, ncols) if rows else Matrix.zero(QQ, 0, ncols)
    K = kernel_basis(M)
    free = [j for j in range(ncols) if j not in ref_piv]
    ref_kernel = []
    for j in free:
        v = [QQ.zero] * ncols
        v[j] = QQ.one
        for pc, r in zip(ref_piv, ref_rows):
            v[pc] = -r[j]
        ref_kernel.append(tuple(v))
    assert K.columns() == ref_kernel
    assert_fractions(x for r in K.rows for x in r.values())
    assert rank(M) == rk
    # one right-hand side in the column span, one drawn freely
    x = data.draw(st.lists(st.one_of(st.just(QQ.zero), WIDE), min_size=ncols, max_size=ncols))
    bs = [M.apply(x), tuple(data.draw(st.lists(WIDE, min_size=len(rows), max_size=len(rows))))]
    sols = solve_multi(M, bs)
    for b, sol in zip(bs, sols):
        aug_rows, aug_piv = gauss_jordan(QQ, [list(r) + [y] for r, y in zip(rows, b)], ncols + 1)
        if ncols in aug_piv:
            assert sol is None
            continue
        ref = [QQ.zero] * ncols
        for pc, r in zip(aug_piv, aug_rows):
            ref[pc] = r[ncols]
        assert sol == tuple(ref)
        assert_fractions(sol)
    assert sols[0] is not None


matrices = st.integers(1, 5).flatmap(
    lambda m: st.integers(1, 5).flatmap(
        lambda n: st.lists(st.lists(st.integers(0, 100), min_size=n, max_size=n),
                           min_size=m, max_size=m)))


@given(matrices)
def test_rref_idempotent(rows):
    M = int_matrix(GF101, rows)
    R, piv, rk = rref(M)
    R2, piv2, rk2 = rref(R)
    assert R == R2 and piv == piv2 and rk == rk2


@given(matrices)
def test_invertible_exactly_when_invert_finds_an_inverse(rows):
    M = int_matrix(GF101, rows)
    assert is_invertible(M) == (M.nrows == M.ncols and invert(M) is not None)
    assert is_invertible(Matrix.zero(GF101, 0, 0))


@given(matrices)
def test_kernel_soundness_and_completeness(rows):
    M = int_matrix(GF101, rows)
    K = kernel_basis(M)
    for j in range(K.ncols):
        assert all(x == 0 for x in M.apply(K.column(j)))
    assert rank(M) + K.ncols == M.ncols


@given(matrices)
def test_solve_soundness(rows):
    M = int_matrix(GF101, rows)
    b = tuple(GF101.from_int(i + 1) for i in range(M.nrows))
    x = solve(M, b)
    if x is not None:
        assert M.apply(x) == b


@given(matrices)
def test_determinism(rows):
    M = int_matrix(GF101, rows)
    assert rref(M) == rref(M)
    assert kernel_basis(M) == kernel_basis(M)


def test_span_equal():
    a = int_matrix(GF101, [[1, 0], [0, 1], [0, 0]])
    b = int_matrix(GF101, [[1, 1], [1, 2], [0, 0]])
    assert span_equal(a, b)
    c = int_matrix(GF101, [[1], [0], [1]])
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


def greedy_in_span_scan(base, cands):
    """Reference for complement: keep each candidate outside the span of the
    base and of the candidates kept before it, one `in_span` solve each."""
    f = base.field
    kept = []
    for c in cands.columns():
        if not in_span(base.hstack(Matrix.from_columns(f, kept, nrows=base.nrows)), c):
            kept.append(c)
    return Matrix.from_columns(f, kept, nrows=base.nrows)


@given(st.sampled_from([GF101, QQ]), st.integers(0, 5), st.data())
def test_complement_matches_a_greedy_in_span_scan(field, n, data):
    col = st.lists(st.integers(-2, 2), min_size=n, max_size=n)
    base = data.draw(st.lists(col, max_size=4))
    cands = data.draw(st.lists(col, max_size=6))
    cands += base[:1] + cands[:1]  # a base column and a repeated candidate
    B = Matrix.from_columns(field, [[field.from_int(x) for x in c] for c in base], nrows=n)
    C = Matrix.from_columns(field, [[field.from_int(x) for x in c] for c in cands], nrows=n)
    kept = complement(B, C)
    assert kept == greedy_in_span_scan(B, C)
    # with the standard basis as candidates, the kept columns complete B to the whole space
    assert rank(B) + complement(B, Matrix.identity(field, n)).ncols == n


@given(st.sampled_from([GF101, QQ]), st.integers(1, 5), st.data())
def test_quotient_coords_matches_one_solve_per_vector(field, n, data):
    col = st.lists(st.integers(-2, 2), min_size=n, max_size=n)
    drawn = Matrix.from_columns(field, [[field.from_int(x) for x in c] for c in
                                        data.draw(st.lists(col, min_size=1, max_size=5))], nrows=n)
    # independent columns, split into sub and reps
    chosen = [drawn.column(j) for j in independent_columns(Matrix.zero(field, n, 0), drawn)]
    k = data.draw(st.integers(0, len(chosen)))
    sub = Matrix.from_columns(field, chosen[:k], nrows=n)
    reps = Matrix.from_columns(field, chosen[k:], nrows=n)
    both = sub.hstack(reps)
    coeffs = data.draw(st.lists(st.lists(st.integers(-3, 3).map(field.from_int),
                                         min_size=len(chosen), max_size=len(chosen)),
                                min_size=1, max_size=4))
    vectors = [both.apply(c) for c in coeffs]
    got = quotient_coords(sub, reps, vectors)
    assert got == [solve(both, v)[k:] for v in vectors] == [tuple(c[k:]) for c in coeffs]
    # an empty sub, and no vectors at all
    assert quotient_coords(Matrix.zero(field, n, 0), both, vectors) == list(map(tuple, coeffs))
    assert quotient_coords(sub, reps, []) == []
    outside = [e for e in Matrix.identity(field, n).columns() if solve(both, e) is None]
    if outside:
        with pytest.raises(ValueError):
            quotient_coords(sub, reps, vectors + outside[:1])


def test_independent_columns_skips_the_span_of_the_base():
    e = Matrix.identity(GF101, 3).columns()
    base = Matrix.from_columns(GF101, [e[0], e[0]], nrows=3)
    cands = Matrix.from_columns(GF101, [e[0], e[1], e[1], e[2]], nrows=3)
    assert independent_columns(base, cands) == [1, 3]
    with pytest.raises(ValueError):
        independent_columns(base, Matrix.identity(GF101, 2))


# -- products against a triple loop through the field methods ----------------


def reference_product(field, X, Y):
    """Rows of X * Y summed entry by entry with field.add / field.mul."""
    x, y = X.dense_rows(), Y.dense_rows()
    out = []
    for i in range(X.nrows):
        row = []
        for j in range(Y.ncols):
            acc = field.zero
            for k in range(X.ncols):
                acc = field.add(acc, field.mul(x[i][k], y[k][j]))
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def entrywise(op, *Ms):
    """Rows of op applied entry by entry to the dense rows of equal-shape matrices."""
    return tuple(tuple(map(op, *rows)) for rows in zip(*(M.dense_rows() for M in Ms)))


def assert_canonical(field, values):
    """Each value is the field's canonical scalar: a Fraction, or an int in [0, p)."""
    for x in values:
        if field == QQ:
            assert type(x) is Fraction, x
        else:
            assert type(x) is int and 0 <= x < field.p, x


def mostly_zero_rows(field, nrows, ncols):
    """Dense rows whose nonzero entries are rare; over QQ they are units and
    halves that cancel in sums, over GF(p) large enough that sums wrap."""
    if field == QQ:
        scalar = st.sampled_from([Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-1, 2),
                                  Fraction(2, 3)])
    else:
        scalar = st.integers(1, field.p - 1)
    entry = st.one_of(*[st.just(field.zero)] * 3, scalar)
    return st.lists(st.tuples(*[entry] * ncols), min_size=nrows, max_size=nrows)


def mostly_zero(field, nrows, ncols):
    """The matrices of `mostly_zero_rows`."""
    return mostly_zero_rows(field, nrows, ncols).map(
        lambda rows: Matrix.from_rows(field, rows, ncols=ncols))


@pytest.mark.parametrize("field", [GF101, QQ], ids=["GF101", "QQ"])
@given(data=st.data())
def test_matrix_products_match_the_field_method_loop(field, data):
    n, m, k = (data.draw(st.integers(0, 5)) for _ in range(3))
    x_rows = data.draw(mostly_zero_rows(field, n, m))
    X = Matrix.from_rows(field, x_rows, ncols=m)
    assert X.dense_rows() == tuple(x_rows)
    Y = data.draw(mostly_zero(field, m, k))
    P = X.mul(Y)
    assert (P.nrows, P.ncols) == (n, k)
    assert P.dense_rows() == reference_product(field, X, Y)
    v = data.draw(mostly_zero_rows(field, 1, m))[0]
    w = X.apply(v)
    assert w == tuple(r[0] for r in reference_product(
        field, X, Matrix.from_rows(field, [(x,) for x in v], ncols=1)))
    assert_canonical(field, w)
    # the entrywise operations, against the dense rows they read
    X2 = data.draw(mostly_zero(field, n, m))
    c = data.draw(st.sampled_from([field.zero, field.one, field.from_int(2), field.neg(field.one)]))
    Z = data.draw(mostly_zero(field, data.draw(st.integers(0, 3)), m))
    W = data.draw(mostly_zero(field, n, data.draw(st.integers(0, 3))))
    checks = [(X.add(X2), entrywise(field.add, X, X2)),
              (X.sub(X2), entrywise(field.sub, X, X2)),
              (X.neg(), entrywise(field.neg, X)),
              (X.scale(c), entrywise(lambda x: field.mul(c, x), X)),
              (X.transpose(), tuple(zip(*X.dense_rows())) if n else ((),) * m),
              (X.hstack(W), tuple(a + b for a, b in zip(X.dense_rows(), W.dense_rows()))),
              (X.vstack(Z), X.dense_rows() + Z.dense_rows())]
    for got, ref in checks:
        assert got.dense_rows() == ref
    assert X.columns() == list(checks[4][1])
    R = rref(X)[0]
    for M in (X, Y, P, R, Matrix.zero(field, n, m), *(got for got, _ in checks)):
        assert M.is_zero() == all(x == field.zero for r in M.dense_rows() for x in r)
        # no stored zero, every stored column in range, canonical scalars
        assert len(M.rows) == M.nrows
        assert all(v and 0 <= j < M.ncols for r in M.rows for j, v in r.items())
        assert_canonical(field, [x for r in M.dense_rows() for x in r])
