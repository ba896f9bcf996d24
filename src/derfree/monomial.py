"""Graded monomial-quotient algebras k[x_1..x_n]/I with degree truncation.

Standard monomials (those outside the monomial ideal) of each degree form
the basis.  Anything that would require a term above the truncation degree
raises TruncationError instead of silently dropping it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from . import exprs
from .algebra import ArtinAlgebra
from .linalg import Matrix

Monomial = tuple  # exponent vector


class TruncationError(ArithmeticError):
    """Raised when an exact answer would need degrees above the truncation."""


class NotArtinianError(ValueError):
    """Raised by artinize when standard monomials survive in every degree."""


def mono_degree(m: Monomial) -> int:
    return sum(m)


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x + y for x, y in zip(a, b))


def mono_divides(a: Monomial, b: Monomial) -> bool:
    return all(x <= y for x, y in zip(a, b))


def mono_key(m: Monomial):
    """Graded order with earlier variables larger: x^2 < x*y < y^2 within a degree."""
    return (mono_degree(m), tuple(-e for e in m))


def mono_str(m: Monomial, variables) -> str:
    parts = []
    for v, e in zip(variables, m):
        if e == 1:
            parts.append(v)
        elif e > 1:
            parts.append(f"{v}^{e}")
    return "*".join(parts) if parts else "1"


def _exponents_of_degree(nvars: int, d: int):
    if nvars == 0:
        if d == 0:
            yield ()
        return
    for first in range(d, -1, -1):
        for rest in _exponents_of_degree(nvars - 1, d - first):
            yield (first,) + rest


@dataclass(frozen=True)
class MonomialAlgebra:
    field: object
    variables: tuple
    ideal: tuple  # minimal monomial generators as exponent vectors
    truncation: int

    kind = "graded"
    key_den = 1  # a product of monomials has coefficient 1

    def __post_init__(self):
        if self.truncation < 0:
            raise ValueError(f"negative truncation degree {self.truncation}")
        for g in self.ideal:
            if len(g) != len(self.variables) or mono_degree(g) == 0:
                raise ValueError(f"bad ideal generator {g!r}")
        # the first variable of a name wins, as `variables.index` would pick it
        names = {}
        for i, v in enumerate(self.variables):
            names.setdefault(v, self.var_element(i))
        object.__setattr__(self, "_names", names)

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def is_standard(self, m: Monomial) -> bool:
        return not any(mono_divides(g, m) for g in self.ideal)

    def basis(self, d: int) -> tuple:
        if d < 0:
            return ()
        if d > self.truncation:
            raise TruncationError(f"degree {d} above truncation {self.truncation}")
        return _monomial_basis(self.variables, self.ideal, d)

    # -- elements: canonical sorted tuples of (monomial, scalar) -----------
    @property
    def zero(self):
        return ()

    @property
    def one(self):
        unit = tuple(0 for _ in self.variables)
        return ((unit, self.field.one),)

    def var_element(self, i: int):
        m = tuple(1 if j == i else 0 for j in range(self.nvars))
        if not self.is_standard(m):
            return ()
        return ((m, self.field.one),)

    def named_element(self, name: str):
        return self._names.get(name)

    def _canonical(self, terms: dict):
        """Sorted nonzero terms of {monomial: raw sum}, each sum reduced once."""
        items = [(m, c) for m, c in zip(terms, map(self.field.reduce, terms.values())) if c]
        items.sort(key=lambda t: mono_key(t[0]))
        return tuple(items)

    def el_add(self, u, v):
        acc = dict(u)
        for m, c in v:
            acc[m] = acc.get(m, 0) + c
        return self._canonical(acc)

    def el_sub(self, u, v):
        return self.el_add(u, self.el_neg(v))

    def el_neg(self, u):
        f = self.field
        return tuple((m, f.neg(c)) for m, c in u)

    def el_scale(self, c, u):
        f = self.field
        if not c:
            return ()
        return tuple((m, f.mul(c, a)) for m, a in u)

    def el_mul(self, u, v):
        acc = {}
        get, key_product = acc.get, self.key_product
        for m1, c1 in u:
            for m2, c2 in v:
                for m, _ in key_product(m1, m2):
                    acc[m] = get(m, 0) + c1 * c2
        return self._within_truncation(self._canonical(acc))

    # -- the basis-key product rule behind complexes' slice products ---------
    def el_terms(self, u):
        """The nonzero (monomial, scalar) terms of u."""
        return u

    def key_product(self, m1: Monomial, m2: Monomial) -> tuple:
        """m1 * m2 as ((monomial, 1),), or () when it lies in the ideal."""
        m = mono_mul(m1, m2)
        return ((m, 1),) if self.is_standard(m) else ()

    def el_from_raw(self, raw: dict, den: int):
        """The element with terms {monomial: raw int sum / den}, each term
        divided once.

        A nonzero term above the truncation raises TruncationError.
        """
        from_raw = self.field.from_raw
        return self._within_truncation(
            self._canonical({m: from_raw(x, den) for m, x in raw.items() if x}))

    def _within_truncation(self, out):
        """The canonical element `out`; a term above the truncation raises TruncationError."""
        for m, _ in out:
            if mono_degree(m) > self.truncation:
                raise TruncationError(
                    f"product has a term of degree {mono_degree(m)} above truncation {self.truncation}")
        return out

    def el_is_zero(self, u) -> bool:
        return len(u) == 0

    def el_in_m(self, u) -> bool:
        unit = tuple(0 for _ in self.variables)
        return all(m != unit for m, _ in u)

    def el_mod_m(self, u):
        unit = tuple(0 for _ in self.variables)
        for m, c in u:
            if m == unit:
                return c
        return self.field.zero

    def el_degree(self, u) -> int | None:
        """Degree if homogeneous (0 for the zero element), else None."""
        degs = {mono_degree(m) for m, _ in u}
        if not degs:
            return 0
        if len(degs) == 1:
            return degs.pop()
        return None

    def parse_element(self, text: str):
        return exprs.parse_element(self, text)

    def element_to_str(self, u) -> str:
        from .algebra import _join_signed
        f = self.field
        unit = tuple(0 for _ in self.variables)
        parts = []
        for m, c in u:
            ms = mono_str(m, self.variables)
            if m == unit:
                parts.append(f.to_str(c))
            elif c == f.one:
                parts.append(ms)
            else:
                parts.append(f"{f.to_str(c)}*{ms}")
        return _join_signed(parts)

    def coords(self, u, d: int) -> tuple:
        """Coordinate vector of the degree-d component in basis(d)."""
        f = self.field
        lookup = dict(u)
        return tuple(lookup.get(m, f.zero) for m in self.basis(d))

    def from_coords(self, coords, d: int):
        return tuple((m, c) for m, c in zip(self.basis(d), coords) if c)

    # -- graded free modules: the one place their coordinates are laid out ---
    def free_coords(self, shifts, d: int) -> list:
        """[(slot, monomial)] basis of the degree-d part of (+) A(-s) over s in shifts."""
        return [(s, m) for s, sh in enumerate(shifts) for m in self.basis(d - sh)]

    def map_matrix(self, entries, src_shifts, tgt_shifts, d: int, delta: int = 0) -> Matrix:
        """k-matrix of the map with algebra entries[r][s], degree d to degree d + delta.

        The map goes from (+) A(-src_shifts) to (+) A(-tgt_shifts); column (s, m)
        is m times column s of `entries`.  A product outside the target
        coordinates is dropped, and each coordinate's raw sum is reduced once.
        """
        tgt = {c: k for k, c in enumerate(self.free_coords(tgt_shifts, d + delta))}
        nonzero = [[(r, row[s]) for r, row in enumerate(entries) if row[s]]
                   for s in range(len(src_shifts))]
        get, reduce = tgt.get, self.field.reduce
        cols = []
        for s, m in self.free_coords(src_shifts, d):
            acc = {}
            for r, e in nonzero[s]:
                for em, c in e:
                    # a product of monomials has coefficient 1, and a product
                    # in the ideal is no standard monomial, so it has no row
                    k = get((r, mono_mul(m, em)))
                    if k is not None:
                        acc[k] = acc.get(k, 0) + c
            cols.append({k: x for k, x in zip(acc, map(reduce, acc.values())) if x})
        return Matrix(self.field, len(cols), len(tgt), tuple(cols)).transpose()

    def mult_map(self, u, src_deg: int) -> Matrix:
        """Matrix of multiplication by homogeneous u from basis(src_deg) to basis(src_deg + deg u)."""
        du = self.el_degree(u)
        if du is None:
            raise ValueError("multiplication map needs a homogeneous element")
        return self.map_matrix(((u,),), (0,), (0,), src_deg, du)

    def edim(self) -> int:
        """dim_k m/m^2: the variables outside the ideal."""
        return len(self.basis(1))

    def krull_dim(self) -> int:
        """Largest set of variables supporting no ideal generator."""
        best = 0
        for r in range(self.nvars, 0, -1):
            for subset in itertools.combinations(range(self.nvars), r):
                sset = set(subset)
                if not any(set(i for i, e in enumerate(g) if e) <= sset for g in self.ideal):
                    return r
        return best

    def validate(self):
        from .algebra import ValidationIssue, ValidationReport
        issues = []
        for a, b in itertools.combinations(self.ideal, 2):
            if mono_divides(a, b) or mono_divides(b, a):
                issues.append(ValidationIssue("minimal_generators", (a, b),
                                              "ideal generators divide one another"))
        if self.truncation < 1:
            issues.append(ValidationIssue("truncation", (self.truncation,),
                                          "truncation degree must be at least 1"))
        return ValidationReport(valid=not issues, issues=tuple(issues), nilpotency_index=None)

    def artinize(self) -> ArtinAlgebra:
        """Tabulate structure constants when some degree has no standard monomials."""
        top = None
        for d in range(self.truncation + 1):
            if not self.basis(d):
                top = d
                break
        if top is None:
            raise NotArtinianError(
                f"standard monomials exist in every degree up to {self.truncation}")
        monos = [m for d in range(top) for m in self.basis(d)]
        labels = tuple(mono_str(m, self.variables) for m in monos)
        index = {m: i for i, m in enumerate(monos)}
        f = self.field
        dim = len(monos)
        mult = []
        for a in monos:
            row = []
            for b in monos:
                prod = mono_mul(a, b)
                vec = [f.zero] * dim
                if self.is_standard(prod):
                    # a standard product always stays below degree `top`
                    vec[index[prod]] = f.one
                row.append(tuple(vec))
            mult.append(tuple(row))
        gens = []
        for i, name in enumerate(self.variables):
            el = self.var_element(i)
            vec = [f.zero] * dim
            if el:
                vec[index[el[0][0]]] = f.one
            gens.append((name, tuple(vec)))
        return ArtinAlgebra(f, labels, tuple(mult), tuple(gens))

    def __repr__(self):
        gens = ", ".join(mono_str(g, self.variables) for g in self.ideal)
        return f"MonomialAlgebra(k[{', '.join(self.variables)}]/({gens}), D={self.truncation})"


@lru_cache(maxsize=None)
def _monomial_basis(variables, ideal, d: int) -> tuple:
    out = [m for m in _exponents_of_degree(len(variables), d)
           if not any(mono_divides(g, m) for g in ideal)]
    out.sort(key=mono_key)
    return tuple(out)


def monomial_algebra(field, variables, ideal_strings, truncation: int) -> MonomialAlgebra:
    """Convenience constructor parsing ideal generators like "x^2" or "x*y"."""
    variables = tuple(variables)
    gens = []
    for s in ideal_strings:
        expo = [0] * len(variables)
        for name, e in exprs.word_factors(s):
            if name not in variables:
                raise ValueError(f"ideal generator {s!r} uses unknown variable {name!r}")
            expo[variables.index(name)] += e
        gens.append(tuple(expo))
    return MonomialAlgebra(field, variables, tuple(gens), truncation)
