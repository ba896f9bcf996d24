"""Artinian local k-algebras presented by structure constants.

An algebra is valid when multiplication is unital, commutative and
associative on basis elements, the span of the non-unit basis vectors is an
ideal m, and m is nilpotent.  Elements are coordinate tuples in the given
basis; basis index 0 is the unit.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from itertools import islice

from . import exprs
from .linalg import Matrix, column_space_basis, independent_columns

Element = tuple  # coordinate vector in the algebra basis


class AlgebraError(ValueError):
    pass


def _join_signed(terms) -> str:
    """Join printed terms, folding leading minus signs into the separators."""
    if not terms:
        return "0"
    out = terms[0]
    for t in terms[1:]:
        if t.startswith("-"):
            out += " - " + t[1:]
        else:
            out += " + " + t
    return out


class DependentModM2(AlgebraError):
    pass


@dataclass(frozen=True)
class ValidationIssue:
    axiom: str
    witness: tuple
    detail: str

    def as_dict(self):
        return {"axiom": self.axiom, "witness": list(self.witness), "detail": self.detail}


@dataclass(frozen=True)
class ValidationReport:
    valid: bool
    issues: tuple
    nilpotency_index: int | None

    def as_dict(self):
        return {
            "valid": self.valid,
            "issues": [i.as_dict() for i in self.issues],
            "nilpotency_index": self.nilpotency_index,
        }


@dataclass(frozen=True)
class ArtinAlgebra:
    """Finite-dimensional local algebra: basis labels + multiplication table.

    Products are computed from a sparse form of the structure constants,
    built once per algebra: ``_table[i][j]`` holds the nonzero ``(k, c)`` of
    ``e_i * e_j``, and ``_raw_table`` the same constants as raw ints over
    their common denominator ``key_den`` (see ``field.to_raw``).  Names
    resolve through the table ``_names``.  All are derived from ``mult`` and
    ``generators`` and take no part in equality or hashing.
    """

    field: object
    labels: tuple
    mult: tuple  # mult[i][j] = coordinates of e_i * e_j
    generators: tuple = ()  # (name, element) pairs usable in expressions

    kind = "artinian"

    def __post_init__(self):
        f = self.field
        d = len(self.labels)
        table = tuple(tuple(tuple((k, c) for k, c in enumerate(self.mult[i][j]) if c)
                            for j in range(d)) for i in range(d))
        ints, den = f.to_raw([c for ti in table for tij in ti for _, c in tij])
        ints = iter(ints)
        raw = tuple(tuple(tuple((k, next(ints)) for k, _ in tij) for tij in ti) for ti in table)
        object.__setattr__(self, "_table", table)
        object.__setattr__(self, "_raw_table", raw)
        object.__setattr__(self, "key_den", den)
        object.__setattr__(self, "zero", (f.zero,) * d)
        object.__setattr__(self, "one", (f.one,) + (f.zero,) * (d - 1) if d else ())
        self._index_names()

    def _index_names(self):
        names = {}  # the first generator of a name wins, and generators win over labels
        for name, el in self.generators:
            names.setdefault(name, el)
        for i, lab in enumerate(self.labels):
            names.setdefault(lab, self.basis_element(i))
        object.__setattr__(self, "_names", names)

    def with_generators(self, generators: tuple) -> "ArtinAlgebra":
        """This algebra with `generators` as its (name, element) pairs.

        The copy shares the tables built from `mult`, so they are not built
        again; only the names are indexed anew.
        """
        out = copy.copy(self)
        object.__setattr__(out, "generators", tuple(generators))
        out._index_names()
        return out

    @property
    def dim(self) -> int:
        return len(self.labels)

    # -- element arithmetic ----------------------------------------------
    def basis_element(self, i: int) -> Element:
        f = self.field
        return tuple(f.one if j == i else f.zero for j in range(self.dim))

    # a zero coordinate is passed through, not computed with: a Fraction
    # operation on zero costs as much as any other
    def el_add(self, u: Element, v: Element) -> Element:
        add = self.field.add
        return tuple([add(a, b) if a and b else a or b for a, b in zip(u, v)])

    def el_sub(self, u: Element, v: Element) -> Element:
        sub, neg = self.field.sub, self.field.neg
        return tuple([(sub(a, b) if a else neg(b)) if b else a for a, b in zip(u, v)])

    def el_neg(self, u: Element) -> Element:
        neg = self.field.neg
        return tuple([neg(a) if a else a for a in u])

    def el_scale(self, c, u: Element) -> Element:
        if not c:
            return self.zero
        mul = self.field.mul
        return tuple([mul(c, a) if a else a for a in u])

    def el_mul(self, u: Element, v: Element) -> Element:
        """u * v: raw products of the nonzero coordinates are summed per
        output coordinate, and each sum is reduced once at the end."""
        table = self._table
        acc = [0] * len(table)
        nzv = [(j, b) for j, b in enumerate(v) if b]
        for i, a in enumerate(u):
            if not a:
                continue
            ti = table[i]
            for j, b in nzv:
                ab = a * b
                for k, c in ti[j]:
                    acc[k] += ab * c
        reduce, zero = self.field.reduce, self.field.zero
        return tuple(reduce(x) if x else zero for x in acc)

    # -- the basis-key product rule behind complexes' slice products ---------
    def el_terms(self, u: Element) -> list:
        """The nonzero (basis index, scalar) terms of u."""
        return [(i, a) for i, a in enumerate(u) if a] if any(u) else ()

    def key_product(self, i: int, j: int) -> tuple:
        """The nonzero (k, c) of e_i * e_j, c raw over the denominator `key_den`."""
        return self._raw_table[i][j]

    def el_from_raw(self, raw: dict, den: int) -> Element:
        """The element with coordinates {index: raw int sum / den}, each
        coordinate divided once."""
        from_raw = self.field.from_raw
        out = list(self.zero)
        for k, x in raw.items():
            if x:
                out[k] = from_raw(x, den)
        return tuple(out)

    def el_is_zero(self, u: Element) -> bool:
        return not any(u)

    def el_in_m(self, u: Element) -> bool:
        return not u[0]

    def el_mod_m(self, u: Element):
        """Image in the residue field k = A/m."""
        return u[0]

    def left_mult_matrix(self, u: Element) -> Matrix:
        """Matrix of v -> u*v in the algebra basis."""
        acc = [{} for _ in range(self.dim)]
        for i, a in enumerate(u):
            if not a:
                continue
            for j, entries in enumerate(self._table[i]):
                for k, c in entries:
                    row = acc[k]
                    row[j] = row.get(j, 0) + a * c
        reduce = self.field.reduce
        return Matrix(self.field, self.dim, self.dim,
                      tuple({j: x for j, x in zip(r, map(reduce, r.values())) if x} for r in acc))

    def named_element(self, name: str) -> Element | None:
        return self._names.get(name)

    def parse_element(self, text: str) -> Element:
        return exprs.parse_element(self, text)

    def element_to_str(self, u: Element) -> str:
        f = self.field
        terms = []
        for i, a in enumerate(u):
            if not a:
                continue
            coeff = f.to_str(a)
            if i == 0:
                terms.append(coeff)
            elif a == f.one:
                terms.append(self.labels[i])
            else:
                terms.append(f"{coeff}*{self.labels[i]}")
        return _join_signed(terms)

    # -- the maximal ideal and its powers ----------------------------------
    def m_cols(self) -> Matrix:
        """Columns spanning m = span(e_1, ..)."""
        cols = [self.basis_element(i) for i in range(1, self.dim)]
        return Matrix.from_columns(self.field, cols, nrows=self.dim)

    def ideal_product_cols(self, u_cols: Matrix, v_cols: Matrix) -> Matrix:
        """Canonical basis of span{u*v}."""
        prods = [self.el_mul(uc, vc) for uc in u_cols.columns() for vc in v_cols.columns()]
        return column_space_basis(Matrix.from_columns(self.field, prods, nrows=self.dim))

    def _m_powers(self):
        """The canonical bases of m, m^2, m^3, ... in turn; the unit columns
        of `m_cols` are already the canonical basis of m."""
        m = acc = self.m_cols()
        while True:
            yield acc
            acc = self.ideal_product_cols(m, acc)

    def m_power_cols(self, k: int) -> Matrix:
        """Canonical basis of m^k."""
        if k <= 0:
            return Matrix.identity(self.field, self.dim)
        return next(islice(self._m_powers(), k - 1, None))

    def nilpotency_index(self) -> int | None:
        """Least N with m^N = 0, or None if m is not nilpotent."""
        prev = None
        for n, acc in enumerate(self._m_powers(), 1):
            if acc.ncols == 0:
                return n
            if n > self.dim + 1 or acc.ncols == prev:
                return None  # stabilized nonzero: not nilpotent
            prev = acc.ncols

    def edim(self) -> int:
        """dim_k m/m^2."""
        return (self.dim - 1) - self.m_power_cols(2).ncols

    def krull_dim(self) -> int:
        """An Artinian algebra has Krull dimension 0."""
        return 0

    def socle_cols(self) -> Matrix:
        """ann_A(m) = intersection of the kernels of multiplication by e_i, i >= 1."""
        blocks = [self.left_mult_matrix(self.basis_element(i)) for i in range(1, self.dim)]
        if not blocks:
            return column_space_basis(Matrix.identity(self.field, self.dim))
        stacked = blocks[0]
        for b in blocks[1:]:
            stacked = stacked.vstack(b)
        from .linalg import kernel_basis
        return kernel_basis(stacked)

    # -- validation ---------------------------------------------------------
    def validate(self) -> ValidationReport:
        issues = []
        d = self.dim
        for j in range(d):
            ej = self.basis_element(j)
            if self.el_mul(self.one, ej) != ej or self.el_mul(ej, self.one) != ej:
                issues.append(ValidationIssue("unit", (0, j), "e_0 is not a two-sided unit"))
        for i in range(d):
            for j in range(i + 1, d):
                if self.mult[i][j] != self.mult[j][i]:
                    issues.append(ValidationIssue("commutativity", (i, j),
                                                  "e_i*e_j differs from e_j*e_i"))
        issues.extend(self._associativity_issues())
        for i in range(d):
            for j in range(1, d):
                if self.mult[i][j][0]:
                    issues.append(ValidationIssue("ideal", (i, j),
                                                  "e_i*e_j has a unit component although e_j is in m"))
        nilindex = self.nilpotency_index()
        if nilindex is None:
            issues.append(ValidationIssue("nilpotency", (), "m is not nilpotent"))
        return ValidationReport(valid=not issues, issues=tuple(issues), nilpotency_index=nilindex)

    def _associativity_issues(self):
        """(e_i*e_j)*e_k against e_i*(e_j*e_k), exactly, from the sparse table."""
        table, reduce = self._table, self.field.reduce
        d = self.dim
        issues = []
        for i in range(d):
            for j in range(d):
                for k in range(d):
                    diff = [0] * d
                    for m, c in table[i][j]:
                        for n, c2 in table[m][k]:
                            diff[n] += c * c2
                    for m, c in table[j][k]:
                        for n, c2 in table[i][m]:
                            diff[n] -= c * c2
                    if any(map(reduce, diff)):
                        issues.append(ValidationIssue("associativity", (i, j, k),
                                                      "(e_i*e_j)*e_k != e_i*(e_j*e_k)"))
        return issues

    def __eq__(self, other) -> bool:
        return (isinstance(other, ArtinAlgebra) and self.field == other.field
                and self.labels == other.labels and self.mult == other.mult)

    def __hash__(self):
        return hash((self.field, self.labels))

    def __repr__(self):
        return f"ArtinAlgebra(dim={self.dim}, labels={self.labels[:4]}...)"


def artin_algebra_from_constants(field, labels, constants, generators=()) -> ArtinAlgebra:
    """Build from sparse constants [(i, j, k, scalar-or-string), ...]."""
    d = len(labels)
    table = [[[field.zero] * d for _ in range(d)] for _ in range(d)]
    for i, j, k, val in constants:
        scalar = field.parse(val) if isinstance(val, str) else field.from_int(val)
        table[i][j][k] = scalar
    mult = tuple(tuple(tuple(table[i][j]) for j in range(d)) for i in range(d))
    return ArtinAlgebra(field, tuple(labels), mult, tuple(generators))


@dataclass(frozen=True)
class AdaptedBasis:
    """Lifts of a basis of m/m^2, followed by a basis of m^2."""

    algebra: ArtinAlgebra
    lifts: tuple  # elements x_1..x_n
    m2_basis: tuple  # elements spanning m^2

    @property
    def n(self) -> int:
        return len(self.lifts)

    def coords_mod_m2(self, u: Element) -> tuple:
        """Coordinates of u modulo m^2 in the basis (x_1..x_n); u must be in m."""
        A = self.algebra
        cols = [list(x) for x in self.lifts] + [list(x) for x in self.m2_basis]
        M = Matrix.from_columns(A.field, cols, nrows=A.dim)
        from .linalg import solve
        sol = solve(M, u)
        if sol is None:
            raise AlgebraError("element does not lie in m")
        return tuple(sol[: self.n])


def adapted_basis(A: ArtinAlgebra, prescribed=()) -> AdaptedBasis:
    """Complete prescribed elements of m to lifts of a basis of m/m^2.

    Deterministic: the completion greedily scans e_1, e_2, ... and keeps the
    vectors that grow the rank modulo m^2.
    """
    f = A.field
    m2 = A.m_power_cols(2)
    for x in prescribed:
        if not A.el_in_m(x):
            raise DependentModM2("prescribed element is not in m")
    n = (A.dim - 1) - m2.ncols  # edim
    given = Matrix.from_columns(f, [list(x) for x in prescribed], nrows=A.dim)
    if len(independent_columns(m2, given)) != given.ncols:
        raise DependentModM2("prescribed elements are dependent modulo m^2")
    cands = Matrix.from_columns(f, [A.basis_element(i) for i in range(1, A.dim)], nrows=A.dim)
    extra = independent_columns(m2.hstack(given), cands)[:n - given.ncols]
    chosen = [tuple(x) for x in prescribed] + [A.basis_element(1 + j) for j in extra]
    if len(chosen) != n:
        raise AlgebraError("could not complete adapted basis")
    return AdaptedBasis(A, tuple(chosen), tuple(m2.columns()))
