"""Deterministic exact linear algebra over a field.

RREF is canonical (leftmost pivot, pivot entries 1, pivot columns cleared),
so every derived object -- kernel bases ordered by free-column index,
particular solutions with free variables set to 0, projections of kernels
-- is reproducible bit-for-bit.  One sparse kernel (`sparse_rref`) on rows
stored as {column: scalar} dicts eliminates for every field and size;
`np_rref` stays as a reference.  `quotient_coords` is the one subquotient
step: coordinates of vectors on representatives modulo a subspace, as
homology, quotient modules and induced actions need them.

The hot loops (`Matrix.mul`, `Matrix.apply`, `sparse_rref`) work on the
exact Python scalars directly: they test a scalar for zero by its truth
value, sum raw products with `+` and `*`, and pass each sum once through
`field.reduce` to get the canonical scalar (a sum that is zero becomes
`field.zero`).  Colder code goes through the field's `add`/`mul`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Matrix:
    """Immutable dense matrix with explicit shape (rows may be empty)."""

    field: object
    nrows: int
    ncols: int
    rows: tuple  # tuple of row tuples, len == nrows, each row len == ncols

    def __post_init__(self):
        if len(self.rows) != self.nrows or any(len(r) != self.ncols for r in self.rows):
            raise ValueError("shape mismatch")

    # -- constructors ---------------------------------------------------
    @staticmethod
    def from_rows(field, rows, ncols: int | None = None) -> "Matrix":
        rows = tuple(tuple(r) for r in rows)
        if ncols is None:
            if not rows:
                raise ValueError("ncols required for empty matrix")
            ncols = len(rows[0])
        return Matrix(field, len(rows), ncols, rows)

    @staticmethod
    def zero(field, nrows: int, ncols: int) -> "Matrix":
        z = field.zero
        return Matrix(field, nrows, ncols, tuple(tuple(z for _ in range(ncols)) for _ in range(nrows)))

    @staticmethod
    def identity(field, n: int) -> "Matrix":
        z, o = field.zero, field.one
        return Matrix(field, n, n, tuple(tuple(o if i == j else z for j in range(n)) for i in range(n)))

    @staticmethod
    def from_int_rows(field, rows, ncols: int | None = None) -> "Matrix":
        return Matrix.from_rows(field, [[field.from_int(x) for x in r] for r in rows], ncols)

    @staticmethod
    def from_columns(field, cols, nrows: int | None = None) -> "Matrix":
        cols = [tuple(c) for c in cols]
        if nrows is None:
            if not cols:
                raise ValueError("nrows required for empty column family")
            nrows = len(cols[0])
        rows = tuple(tuple(c[i] for c in cols) for i in range(nrows))
        return Matrix(field, nrows, len(cols), rows)

    # -- access ----------------------------------------------------------
    def __getitem__(self, ij):
        return self.rows[ij[0]][ij[1]]

    def column(self, j: int) -> tuple:
        return tuple(r[j] for r in self.rows)

    def columns(self) -> list:
        return [self.column(j) for j in range(self.ncols)]

    # -- arithmetic -----------------------------------------------------
    def add(self, other: "Matrix") -> "Matrix":
        f = self.field
        return Matrix(f, self.nrows, self.ncols,
                      tuple(tuple(f.add(a, b) for a, b in zip(ra, rb))
                            for ra, rb in zip(self.rows, other.rows)))

    def sub(self, other: "Matrix") -> "Matrix":
        f = self.field
        return Matrix(f, self.nrows, self.ncols,
                      tuple(tuple(f.sub(a, b) for a, b in zip(ra, rb))
                            for ra, rb in zip(self.rows, other.rows)))

    def neg(self) -> "Matrix":
        f = self.field
        return Matrix(f, self.nrows, self.ncols, tuple(tuple(f.neg(a) for a in r) for r in self.rows))

    def scale(self, c) -> "Matrix":
        f = self.field
        return Matrix(f, self.nrows, self.ncols, tuple(tuple(f.mul(c, a) for a in r) for r in self.rows))

    def mul(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch {self.nrows}x{self.ncols} * {other.nrows}x{other.ncols}")
        f = self.field
        reduce, zero = f.reduce, f.zero
        # nonzero pattern of each row of `other`, read once
        other_nz = [[(j, b) for j, b in enumerate(r) if b] for r in other.rows]
        out = []
        for r in self.rows:
            acc = [0] * other.ncols
            for a, nz in zip(r, other_nz):
                if a:
                    for j, b in nz:
                        acc[j] += a * b
            out.append(tuple(reduce(x) if x else zero for x in acc))
        return Matrix(f, self.nrows, other.ncols, tuple(out))

    def apply(self, vec) -> tuple:
        f = self.field
        reduce, zero = f.reduce, f.zero
        nz = [(k, b) for k, b in enumerate(vec) if b]
        out = []
        for r in self.rows:
            acc = 0
            for k, b in nz:
                a = r[k]
                if a:
                    acc += a * b
            out.append(reduce(acc) if acc else zero)
        return tuple(out)

    def transpose(self) -> "Matrix":
        rows = tuple(self.column(i) for i in range(self.ncols))
        return Matrix(self.field, self.ncols, self.nrows, rows)

    def hstack(self, other: "Matrix") -> "Matrix":
        if self.nrows != other.nrows:
            raise ValueError("row count mismatch")
        return Matrix(self.field, self.nrows, self.ncols + other.ncols,
                      tuple(a + b for a, b in zip(self.rows, other.rows)))

    def vstack(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.ncols:
            raise ValueError("column count mismatch")
        return Matrix(self.field, self.nrows + other.nrows, self.ncols, self.rows + other.rows)

    def is_zero(self) -> bool:
        return not any(map(any, self.rows))

    def __eq__(self, other) -> bool:
        return (isinstance(other, Matrix) and self.field == other.field
                and self.nrows == other.nrows and self.ncols == other.ncols
                and self.rows == other.rows)

    def __hash__(self):
        return hash((self.field, self.nrows, self.ncols, self.rows))


# ---------------------------------------------------------------------------
# elimination: one sparse kernel for every field


def _eliminate(field, row, c, piv):
    """row -= c * piv, in place, keeping only nonzero entries."""
    reduce, get = field.reduce, row.get
    for j, v in piv.items():
        w = reduce(get(j, 0) - c * v)
        if w:
            row[j] = w
        else:
            del row[j]


def sparse_rref(field, rows):
    """Canonical RREF of sparse rows {column: scalar}: (pivot_rows, pivots).

    Zero entries are dropped; the input dicts are not changed.  The pivot
    rows are kept fully reduced while rows are inserted shortest first: a
    new row is cleared of every pivot column in one pass, and if anything
    is left its leading entry is scaled to 1, its column is cleared from
    the pivot rows, and it joins them.  Each pivot row is zero on the other
    pivot columns, so the multipliers of that pass are the new row's own
    entries: the raw products are summed per column and each touched entry
    is reduced once.  Keeping the pivot rows reduced keeps them about as
    sparse as the result, so the work tracks the size of the RREF rather
    than the fill-in of a forward pass.  The RREF is unique, so neither the
    insertion order nor the order of the arithmetic changes an entry of the
    result.
    """
    one, reduce = field.one, field.reduce
    work = [{j: v for j, v in r.items() if v} for r in rows]
    work.sort(key=lambda r: (len(r), min(r, default=-1)))
    pivot_row = {}
    for row in work:
        hits = [c for c in row if c in pivot_row]
        if hits:
            acc = dict(row)
            get = acc.get
            for c in hits:
                m = row[c]
                for j, v in pivot_row[c].items():
                    acc[j] = get(j, 0) - m * v
            row = {j: w for j, w in zip(acc, map(reduce, acc.values())) if w}
        if not row:
            continue
        lead = min(row)
        pv = row[lead]
        if pv != one:
            inv = field.inv(pv)
            row = {j: field.mul(inv, v) for j, v in row.items()}
        for piv in pivot_row.values():
            c = piv.get(lead)
            if c is not None:
                _eliminate(field, piv, c, row)
        pivot_row[lead] = row
    pivots = tuple(sorted(pivot_row))
    return [pivot_row[c] for c in pivots], pivots


def sparse_kernel(field, rows, ncols) -> list:
    """Canonical kernel basis of sparse rows as dense vectors, by free column."""
    pivot_rows, pivots = sparse_rref(field, rows)
    return kernel_vectors(field, pivot_rows, pivots, ncols,
                          sorted(set(range(ncols)) - set(pivots)))


def kernel_vectors(field, pivot_rows, pivots, ncols, free) -> list:
    """The canonical kernel vectors of a sparse RREF, for the free columns `free` only."""
    basis = {j: [field.zero] * ncols for j in free}
    for j, v in basis.items():
        v[j] = field.one
    for pc, row in zip(pivots, pivot_rows):
        for j, v in row.items():
            if j in basis:
                basis[j][pc] = field.neg(v)
    return list(basis.values())


def sparse_solve(field, rows, ncols, bs) -> list:
    """Per b, the solution of rows . x = b with free variables 0, or None.

    One elimination of the rows extended by every b serves them all.
    """
    zero = field.zero
    rows = [dict(r) for r in rows]
    for k, b in enumerate(bs):
        for row, x in zip(rows, b):
            row[ncols + k] = x
    pivot_rows, pivots = sparse_rref(field, rows)
    solved = [(pc, row) for pc, row in zip(pivots, pivot_rows) if pc < ncols]
    # a pivot row past the unknowns reads 0 = nonzero for every b it holds
    bad = {j for pc, row in zip(pivots, pivot_rows) if pc >= ncols for j in row}
    out = []
    for col in range(ncols, ncols + len(bs)):
        x = [zero] * ncols
        for pc, row in solved:
            x[pc] = row.get(col, zero)
        out.append(None if col in bad else tuple(x))
    return out


def _sparse_rows(M: Matrix) -> list:
    return [dict(enumerate(r)) for r in M.rows]


def rref(M: Matrix):
    """Reduced row echelon form; returns (R, pivot_columns, rank)."""
    f = M.field
    pivot_rows, pivots = sparse_rref(f, _sparse_rows(M))
    rows = [[f.zero] * M.ncols for _ in range(M.nrows)]
    for dense, row in zip(rows, pivot_rows):
        for j, v in row.items():
            dense[j] = v
    return Matrix.from_rows(f, rows, M.ncols), pivots, len(pivots)


def rank(M: Matrix) -> int:
    return rref(M)[2]


def kernel_basis(M: Matrix) -> Matrix:
    """Basis of the null space as matrix columns, ordered by free column index."""
    return Matrix.from_columns(M.field, sparse_kernel(M.field, _sparse_rows(M), M.ncols),
                               nrows=M.ncols)


def solve(M: Matrix, b) -> tuple | None:
    """Deterministic particular solution of Mx = b (free variables 0), or None."""
    return solve_multi(M, [tuple(b)])[0]


def solve_multi(M: Matrix, bs: list) -> list:
    """Solve Mx = b for several right-hand sides with one elimination."""
    return sparse_solve(M.field, _sparse_rows(M), M.ncols, bs)


def quotient_coords(sub: Matrix, reps: Matrix, vectors) -> list:
    """Per vector, its coordinates on the columns of `reps` modulo span(sub).

    The columns of [sub | reps] must be independent, so the coordinates are
    unique.  One elimination of [sub | reps] serves every vector; a vector
    outside span(sub) + span(reps) raises ValueError.
    """
    vectors = list(vectors)
    if not vectors:
        return []
    k = sub.ncols
    out = []
    for sol in solve_multi(sub.hstack(reps), vectors):
        if sol is None:
            raise ValueError("vector lies outside span(sub) + span(reps)")
        out.append(sol[k:])
    return out


def independent_columns(base: Matrix, cands: Matrix) -> list:
    """Indices of the candidate columns a greedy scan keeps, in order.

    A candidate is kept when it lies outside the span of the base columns
    and of the candidates kept before it.  These are exactly the pivot
    columns of [base | cands] past the base, so one RREF decides them all.
    """
    if base.nrows != cands.nrows:
        raise ValueError("row count mismatch")
    _, pivots, _ = rref(base.hstack(cands))
    return [pc - base.ncols for pc in pivots if pc >= base.ncols]


def column_space_basis(M: Matrix) -> Matrix:
    """Canonical basis of the column space (columns), via RREF of the transpose."""
    f = M.field
    R, _, rk = rref(M.transpose())
    return Matrix.from_columns(f, [R.rows[i] for i in range(rk)], nrows=M.nrows)


def solve_and_project(M: Matrix, split: int) -> Matrix:
    """Basis (columns) of the projection of ker(M) onto the first `split` coordinates."""
    if split > M.ncols:
        raise ValueError(f"split {split} exceeds column count {M.ncols}")
    K = kernel_basis(M)
    proj = Matrix(M.field, split, K.ncols, K.rows[:split])
    return column_space_basis(proj)


def in_span(basis_cols: Matrix, v) -> bool:
    """Is v in the column span?"""
    return solve(basis_cols, v) is not None


def span_equal(A_cols: Matrix, B_cols: Matrix) -> bool:
    """Do two column families span the same subspace?"""
    ra = rank(A_cols.transpose())
    return ra == rank(B_cols.transpose()) == rank(A_cols.hstack(B_cols).transpose())


def invert(M: Matrix) -> Matrix | None:
    """Inverse of a square matrix, or None if singular."""
    if M.nrows != M.ncols:
        raise ValueError("not square")
    n = M.nrows
    R, pivots, rk = rref(M.hstack(Matrix.identity(M.field, n)))
    if rk < n or tuple(pivots[:n]) != tuple(range(n)):
        return None
    return Matrix.from_rows(M.field, [row[n:] for row in R.rows[:n]], ncols=n)


# ---------------------------------------------------------------------------
# dense int64 elimination over GF(p), the reference the kernel is tested against


def np_rref(a: np.ndarray, p: int):
    """In-place RREF of an int64 array mod p; returns (a, pivot_cols)."""
    a %= p
    m, n = a.shape
    pivots = []
    r = 0
    for c in range(n):
        if r >= m:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        pv = int(a[r, c])
        if pv != 1:
            a[r] = a[r] * pow(pv, p - 2, p) % p
        others = np.nonzero(a[:, c])[0]
        others = others[others != r]
        if others.size:
            a[others] = (a[others] - np.outer(a[others, c], a[r])) % p
        pivots.append(c)
        r += 1
    return a, pivots
