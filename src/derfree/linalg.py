"""Deterministic exact dense linear algebra over a field.

RREF is canonical (leftmost pivot, first nonzero row, pivot entries 1,
pivot columns cleared), so every derived object -- kernel bases ordered by
free-column index, particular solutions with free variables set to 0,
projections of kernels -- is reproducible bit-for-bit.  Large systems over a
field whose `numpy_safe` holds (GF(p), p < 2^31) are routed through an
equivalent int64 numpy elimination; the output is identical because the
reduced echelon form is unique.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_NUMPY_THRESHOLD = 4096  # entries; below this pure python wins


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
        zero = f.zero
        ocols = other.columns()
        out = []
        for r in self.rows:
            row = []
            for c in ocols:
                acc = zero
                for a, b in zip(r, c):
                    if a != zero and b != zero:
                        acc = f.add(acc, f.mul(a, b))
                row.append(acc)
            out.append(tuple(row))
        return Matrix(f, self.nrows, other.ncols, tuple(out))

    def apply(self, vec) -> tuple:
        f = self.field
        zero = f.zero
        out = []
        for r in self.rows:
            acc = zero
            for a, b in zip(r, vec):
                if a != zero and b != zero:
                    acc = f.add(acc, f.mul(a, b))
            out.append(acc)
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
        z = self.field.zero
        return all(a == z for r in self.rows for a in r)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Matrix) and self.field == other.field
                and self.nrows == other.nrows and self.ncols == other.ncols
                and self.rows == other.rows)

    def __hash__(self):
        return hash((self.field, self.nrows, self.ncols, self.rows))

    # -- numpy bridge (GF(p) only) ---------------------------------------
    def to_numpy(self) -> np.ndarray:
        return np.array(self.rows, dtype=np.int64).reshape(self.nrows, self.ncols)

    @staticmethod
    def from_numpy(field, arr: np.ndarray) -> "Matrix":
        m, n = arr.shape
        return Matrix(field, m, n, tuple(map(tuple, (arr % field.p).tolist())))


# ---------------------------------------------------------------------------
# numpy elimination over GF(p)

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


def np_kernel(a: np.ndarray, p: int) -> np.ndarray:
    """Columns form the canonical kernel basis (ordered by free column)."""
    m, n = a.shape
    r, pivots = np_rref(a.copy(), p)
    pivset = set(pivots)
    free = [j for j in range(n) if j not in pivset]
    out = np.zeros((n, len(free)), dtype=np.int64)
    for k, fcol in enumerate(free):
        out[fcol, k] = 1
    if pivots:
        sub = r[np.ix_(range(len(pivots)), free)] if free else np.zeros((len(pivots), 0), dtype=np.int64)
        for i, pc in enumerate(pivots):
            out[pc, :] = (-sub[i, :]) % p
    return out


# ---------------------------------------------------------------------------
# generic (any field) elimination

def _py_rref(field, rows, ncols):
    rows = [list(r) for r in rows]
    m = len(rows)
    zero = field.zero
    pivots = []
    r = 0
    for c in range(ncols):
        if r >= m:
            break
        pr = next((i for i in range(r, m) if rows[i][c] != zero), None)
        if pr is None:
            continue
        if pr != r:
            rows[r], rows[pr] = rows[pr], rows[r]
        pv = rows[r][c]
        if pv != field.one:
            inv = field.inv(pv)
            rows[r] = [field.mul(inv, x) for x in rows[r]]
        base = rows[r]
        for i in range(m):
            if i == r:
                continue
            f = rows[i][c]
            if f != zero:
                ri = rows[i]
                rows[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(ri, base)]
        pivots.append(c)
        r += 1
    return rows, pivots


def rref(M: Matrix):
    """Reduced row echelon form; returns (R, pivot_columns, rank)."""
    f = M.field
    if f.numpy_safe and M.nrows * M.ncols >= _NUMPY_THRESHOLD:
        arr, pivots = np_rref(M.to_numpy(), f.p)
        return Matrix.from_numpy(f, arr), tuple(pivots), len(pivots)
    rows, pivots = _py_rref(f, M.rows, M.ncols)
    return Matrix.from_rows(f, rows, M.ncols), tuple(pivots), len(pivots)


def rank(M: Matrix) -> int:
    return rref(M)[2]


def kernel_basis(M: Matrix) -> Matrix:
    """Basis of the null space as matrix columns, ordered by free column index."""
    f = M.field
    n = M.ncols
    R, pivots, _ = rref(M)
    pivset = set(pivots)
    free = [j for j in range(n) if j not in pivset]
    zero = f.zero
    cols = []
    for fcol in free:
        v = [zero] * n
        v[fcol] = f.one
        for i, pc in enumerate(pivots):
            v[pc] = f.neg(R.rows[i][fcol])
        cols.append(v)
    return Matrix.from_columns(f, cols, nrows=n)


def solve(M: Matrix, b) -> tuple | None:
    """Deterministic particular solution of Mx = b (free variables 0), or None."""
    return solve_multi(M, [tuple(b)])[0]


def solve_multi(M: Matrix, bs: list) -> list:
    """Solve Mx = b for several right-hand sides with one elimination."""
    f = M.field
    n = M.ncols
    rhs = Matrix.from_columns(f, [tuple(b) for b in bs], nrows=M.nrows)
    R, pivots, _ = rref(M.hstack(rhs))
    zero = f.zero
    rhs_pivot_rows = [i for i, pc in enumerate(pivots) if pc >= n]
    out = []
    for k in range(len(bs)):
        col = n + k
        if col in pivots or any(R.rows[i][col] != zero for i in rhs_pivot_rows):
            out.append(None)
            continue
        x = [zero] * n
        for i, pc in enumerate(pivots):
            if pc < n:
                x[pc] = R.rows[i][col]
        out.append(tuple(x))
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
    rb = rank(B_cols.transpose())
    if ra != rb:
        return False
    both = A_cols.transpose().vstack(B_cols.transpose())
    return rank(both) == ra


def invert(M: Matrix) -> Matrix | None:
    """Inverse of a square matrix, or None if singular."""
    if M.nrows != M.ncols:
        raise ValueError("not square")
    n = M.nrows
    R, pivots, rk = rref(M.hstack(Matrix.identity(M.field, n)))
    if rk < n or tuple(pivots[:n]) != tuple(range(n)):
        return None
    return Matrix.from_rows(M.field, [row[n:] for row in R.rows[:n]], ncols=n)
