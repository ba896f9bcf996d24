"""Deterministic exact linear algebra over a field.

RREF is canonical (leftmost pivot, pivot entries 1, pivot columns cleared),
so every derived object -- kernel bases ordered by free-column index,
particular solutions with free variables set to 0, projections of kernels
-- is reproducible bit-for-bit.  A `Matrix` holds each row as the
{column: scalar} dict of its nonzero entries, the one form every builder
returns and the one sparse kernel (`sparse_rref`) eliminates for every
field and size; `rank`, `kernel_basis` and `solve_multi` read its RREF.
`np_rref` stays as a dense GF(p) reference, and it is the only function
that loads numpy (when it is first called), so importing the package does
not.  `quotient_coords` is the one subquotient step: coordinates of
vectors on representatives modulo a subspace, as homology, quotient
modules and induced actions need them; `complement` is the one greedy
complement of a subspace (homology representatives, minimal generators),
and `block_diag` the one block sum, of k-matrices and algebra matrices.

The products `Matrix.mul` and `Matrix.apply` work on the exact Python
scalars directly: they sum raw products of stored entries with `+` and
`*`, and pass each sum once through `field.reduce` to get the canonical
scalar (a sum that is zero is dropped from a row, or becomes `field.zero`
in a dense vector).
`sparse_rref` works on raw Python ints through the field's hooks (see
`field`).  It owns the rows it is given: it eliminates an iterable of fresh
row dicts in the order given, turns each row into raw ints over its own
denominator as it arrives (`to_raw`, the identity over GF(p)), and keeps
only its pivot rows, so a caller may stream rows it never holds all at
once.  The elimination is fraction-free (a row is reduced by
L * row - m * piv and pivot rows are kept primitive), and `from_raw`
divides each pivot row by its lead once, when it is returned.  Over GF(p)
the hooks are the identity and every lead is 1.  Rows fed by descending
leading column (`by_lead`) need a new pivot cleared only from the few
pivot rows left of it, which a bisection over the sorted pivot columns
finds; `rref`, `rank`, `kernel_basis` and `solve_multi` feed copies of a
`Matrix`'s shared rows in that order.  Colder code goes through the
field's `add`/`mul`.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from math import gcd, lcm


@dataclass(frozen=True)
class Matrix:
    """Immutable matrix with explicit shape, each row held as the
    {column: scalar} dict of its nonzero entries (the form `sparse_rref`
    takes).

    No row stores a zero, so the generated equality is exact.  Row dicts
    are shared between matrices and never changed after construction.
    """

    field: object
    nrows: int
    ncols: int
    rows: tuple  # nrows dicts {column < ncols: nonzero scalar}

    __hash__ = None

    def __post_init__(self):
        if len(self.rows) != self.nrows:
            raise ValueError("shape mismatch")

    # -- constructors ---------------------------------------------------
    @staticmethod
    def from_rows(field, rows, ncols: int | None = None) -> "Matrix":
        """The matrix with the dense rows `rows`."""
        rows = [tuple(r) for r in rows]
        if ncols is None:
            if not rows:
                raise ValueError("ncols required for empty matrix")
            ncols = len(rows[0])
        if any(len(r) != ncols for r in rows):
            raise ValueError("shape mismatch")
        return Matrix(field, len(rows), ncols,
                      tuple({j: v for j, v in enumerate(r) if v} for r in rows))

    @staticmethod
    def zero(field, nrows: int, ncols: int) -> "Matrix":
        return Matrix(field, nrows, ncols, tuple({} for _ in range(nrows)))

    @staticmethod
    def identity(field, n: int) -> "Matrix":
        return Matrix(field, n, n, tuple({i: field.one} for i in range(n)))

    @staticmethod
    def from_columns(field, cols, nrows: int | None = None) -> "Matrix":
        """The matrix with the dense columns `cols`."""
        return Matrix.from_rows(field, cols, nrows).transpose()

    # -- access ----------------------------------------------------------
    def dense_rows(self) -> tuple:
        """The rows as tuples of all ncols entries."""
        zero, cols = self.field.zero, range(self.ncols)
        return tuple(tuple(r.get(j, zero) for j in cols) for r in self.rows)

    def column(self, j: int) -> tuple:
        zero = self.field.zero
        return tuple(r.get(j, zero) for r in self.rows)

    def columns(self) -> list:
        return list(self.transpose().dense_rows())

    # -- arithmetic -----------------------------------------------------
    def add(self, other: "Matrix") -> "Matrix":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError(f"shape mismatch {self.nrows}x{self.ncols} + "
                             f"{other.nrows}x{other.ncols}")
        add, zero = self.field.add, self.field.zero
        out = []
        for ra, rb in zip(self.rows, other.rows):
            row = dict(ra)
            for j, b in rb.items():
                w = add(row.get(j, zero), b)
                if w:
                    row[j] = w
                else:
                    del row[j]
            out.append(row)
        return Matrix(self.field, self.nrows, self.ncols, tuple(out))

    def sub(self, other: "Matrix") -> "Matrix":
        return self.add(other.neg())

    def neg(self) -> "Matrix":
        neg = self.field.neg
        return Matrix(self.field, self.nrows, self.ncols,
                      tuple({j: neg(v) for j, v in r.items()} for r in self.rows))

    def scale(self, c) -> "Matrix":
        mul = self.field.mul
        return Matrix(self.field, self.nrows, self.ncols,
                      tuple({j: w for j, v in r.items() if (w := mul(c, v))} for r in self.rows))

    def mul(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch {self.nrows}x{self.ncols} * {other.nrows}x{other.ncols}")
        reduce, orows = self.field.reduce, other.rows
        out = []
        for r in self.rows:
            acc = {}
            get = acc.get
            for k, a in r.items():
                for j, b in orows[k].items():
                    acc[j] = get(j, 0) + a * b
            out.append({j: w for j, w in zip(acc, map(reduce, acc.values())) if w})
        return Matrix(self.field, self.nrows, other.ncols, tuple(out))

    def apply(self, vec) -> tuple:
        """The dense vector M * vec of a dense vector; zero coordinates of vec
        are skipped, so no product with zero is built."""
        reduce, zero = self.field.reduce, self.field.zero
        sums = (sum(a * x for k, a in r.items() if (x := vec[k])) for r in self.rows)
        return tuple(reduce(s) if s else zero for s in sums)

    def transpose(self) -> "Matrix":
        cols = tuple({} for _ in range(self.ncols))
        for i, r in enumerate(self.rows):
            for j, v in r.items():
                cols[j][i] = v
        return Matrix(self.field, self.ncols, self.nrows, cols)

    def hstack(self, other: "Matrix") -> "Matrix":
        if self.nrows != other.nrows:
            raise ValueError("row count mismatch")
        n = self.ncols
        return Matrix(self.field, self.nrows, n + other.ncols,
                      tuple({**a, **{j + n: v for j, v in b.items()}}
                            for a, b in zip(self.rows, other.rows)))

    def vstack(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.ncols:
            raise ValueError("column count mismatch")
        return Matrix(self.field, self.nrows + other.nrows, self.ncols, self.rows + other.rows)

    def is_zero(self) -> bool:
        return not any(self.rows)


def block_diag(kind, ring, blocks):
    """The block-diagonal matrix of `blocks`, all of type `kind` over `ring`.

    `kind` is `Matrix` (ring: a field) or `complexes.AMatrix` (ring: an
    algebra); the blocks are placed with their `hstack`/`vstack` between
    `kind.zero` blocks.
    """
    ncols = sum(b.ncols for b in blocks)
    out, left = kind.zero(ring, 0, ncols), 0
    for b in blocks:
        right = ncols - left - b.ncols
        out = out.vstack(kind.zero(ring, b.nrows, left).hstack(b)
                         .hstack(kind.zero(ring, b.nrows, right)))
        left += b.ncols
    return out


# ---------------------------------------------------------------------------
# elimination: one sparse kernel for every field


def _eliminate(field, row, c, piv, scale):
    """row <- scale * row - c * piv, in place, keeping only nonzero entries.

    A row that was scaled is then made primitive; without scaling its lead
    is unchanged, so its content stays a divisor of the lead.
    """
    if scale != 1:
        g = gcd(scale, c)
        scale //= g
        c //= g
        for j, v in row.items():
            row[j] = scale * v
    reduce, get = field.reduce, row.get
    for j, v in piv.items():
        w = reduce(get(j, 0) - c * v)
        if w:
            row[j] = w
        else:
            del row[j]
    if scale != 1:
        field.primitive(row, min(row))


def by_lead(rows) -> list:
    """The nonempty rows by descending leading column, ties shortest first:
    the order in which `sparse_rref` back-reduces the fewest pivot rows."""
    return sorted(filter(None, rows), key=lambda r: (-min(r), len(r)))


def sparse_rref(field, rows):
    """Canonical RREF of sparse rows {column: scalar}: (pivot_rows, pivots).

    `rows` is an iterable of fresh dicts that the routine owns: it may
    change them, and a caller that keeps its rows passes copies.  Rows are
    eliminated in the order given; zero entries and empty rows are dropped.
    Each row is turned into raw ints on its own (`field.to_raw`, the
    identity over GF(p); over QQ the row is scaled by its own denominator,
    which leaves its span unchanged) and eliminated fraction-free: a pivot
    row is an integer multiple of its row of the RREF, made primitive when
    it joins (`field.primitive`), so its lead L is 1 over GF(p) and a
    positive integer over QQ.  The pivot rows are kept fully reduced: a new
    row is cleared of every pivot column in one pass, and if anything is
    left it is made primitive, its lead column is cleared from the pivot
    rows (L * piv - c * row), and it joins them; a row that reduces to zero
    is dropped at once.  Each pivot row is zero on the other pivot columns,
    so that pass computes s * row - sum (s * row[c] / L_c) * piv_c, s the
    lcm of the leads L_c it meets (1 over GF(p)); the raw products are
    summed per column and each touched entry is reduced once.  The
    back-elimination is bounded: a pivot row is zero left of its own
    pivot, so only the pivot rows whose pivot lies left of the new lead can
    hold it, and a bisection over the sorted pivot columns finds them.
    Rows fed right to left (`by_lead`) mostly lead left of every pivot so
    far, so few pivot rows are visited.  Keeping the pivot rows reduced
    keeps them about as sparse as the result, so the work tracks the size
    of the RREF rather than the fill-in of a forward pass.  A pivot row is
    divided by its lead only when it is returned (`field.from_raw`).  The
    RREF is unique, so neither the order of the rows nor the order of the
    arithmetic changes an entry of the result.
    """
    reduce, primitive, to_raw = field.reduce, field.primitive, field.to_raw
    pivot_row = {}
    pivot_cols = []  # the keys of pivot_row, sorted
    raw = False  # whether the raw ints differ from the scalars (never over GF(p))
    scaled = False  # whether some pivot row leads with L != 1 (never over GF(p))
    for row in rows:
        values = row.values()
        ints = to_raw(values)[0]
        if ints is not values:
            raw = True
            row = {j: v for j, v in zip(row, ints) if v}
        elif 0 in values:
            row = {j: v for j, v in row.items() if v}
        hits = [c for c in row if c in pivot_row]
        if hits:
            s = lcm(*[pivot_row[c][c] for c in hits]) if scaled else 1
            # a pivot row is zero on the other pivot columns, so row[c] is
            # still the input entry when piv_c is subtracted from it in place
            acc = row if s == 1 else {j: s * v for j, v in row.items()}
            get = acc.get
            for c in hits:
                m = row[c] if s == 1 else row[c] * s // pivot_row[c][c]
                for j, v in pivot_row[c].items():
                    acc[j] = get(j, 0) - m * v
            row = {j: w for j, w in zip(acc, map(reduce, acc.values())) if w}
        if not row:
            continue
        lead = min(row)
        if row[lead] != 1:  # a lead of 1 makes the content 1 already
            primitive(row, lead)
        scale = row[lead]
        scaled = scaled or scale != 1
        # a pivot row is zero left of its pivot, so only those left of lead
        # can hold it
        at = bisect_left(pivot_cols, lead)
        for pc in pivot_cols[:at]:
            piv = pivot_row[pc]
            c = piv.get(lead)
            if c is not None:
                _eliminate(field, piv, c, row, scale)
        pivot_cols.insert(at, lead)
        pivot_row[lead] = row
    pivots = tuple(pivot_cols)
    if not raw and not scaled:  # monic rows of the field's own scalars
        return [pivot_row[c] for c in pivots], pivots
    from_raw = field.from_raw
    return [{j: from_raw(v, pivot_row[c][c]) for j, v in pivot_row[c].items()}
            for c in pivots], pivots


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


def rref(M: Matrix):
    """Reduced row echelon form; returns (R, pivot_columns, rank)."""
    pivot_rows, pivots = sparse_rref(M.field, by_lead(map(dict, M.rows)))
    zero_rows = tuple({} for _ in range(M.nrows - len(pivots)))
    return Matrix(M.field, M.nrows, M.ncols, tuple(pivot_rows) + zero_rows), pivots, len(pivots)


def rank(M: Matrix) -> int:
    """The pivot count of the RREF of M."""
    return len(sparse_rref(M.field, by_lead(map(dict, M.rows)))[1])


def is_invertible(M: Matrix) -> bool:
    """Whether M is square of full rank."""
    return M.nrows == M.ncols and rank(M) == M.nrows


def kernel_basis(M: Matrix) -> Matrix:
    """Basis of the null space as matrix columns, ordered by free column index."""
    pivot_rows, pivots = sparse_rref(M.field, by_lead(map(dict, M.rows)))
    free = sorted(set(range(M.ncols)) - set(pivots))
    return Matrix.from_columns(M.field, kernel_vectors(M.field, pivot_rows, pivots, M.ncols, free),
                               nrows=M.ncols)


def solve(M: Matrix, b) -> tuple | None:
    """Deterministic particular solution of Mx = b (free variables 0), or None."""
    return solve_multi(M, [tuple(b)])[0]


def solve_multi(M: Matrix, bs: list) -> list:
    """Per dense b, the solution of Mx = b with free variables 0, or None.

    One elimination of M extended by every b serves them all.
    """
    zero, ncols = M.field.zero, M.ncols
    rows = [dict(r) for r in M.rows]
    for k, b in enumerate(bs):
        for row, x in zip(rows, b):
            if x:
                row[ncols + k] = x
    pivot_rows, pivots = sparse_rref(M.field, by_lead(rows))
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


def complement(base: Matrix, cands: Matrix) -> Matrix:
    """The candidate columns a greedy scan keeps (`independent_columns`), as columns."""
    cols = cands.columns()
    return Matrix.from_columns(cands.field, [cols[j] for j in independent_columns(base, cands)],
                               nrows=cands.nrows)


def column_space_basis(M: Matrix) -> Matrix:
    """Canonical basis of the column space (columns), via RREF of the transpose."""
    R, _, rk = rref(M.transpose())
    return Matrix(M.field, rk, M.nrows, R.rows[:rk]).transpose()


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
    return Matrix(M.field, n, n, tuple({j - n: v for j, v in row.items() if j >= n}
                                       for row in R.rows[:n]))


# ---------------------------------------------------------------------------
# dense int64 elimination over GF(p), the reference the kernel is tested against


def np_rref(a, p: int):
    """In-place RREF of an int64 numpy array mod p; returns (a, pivot_cols)."""
    import numpy as np

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
