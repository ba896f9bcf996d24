"""Exact scalar arithmetic: prime fields GF(p) and arbitrary-precision rationals.

Scalars are plain Python values: ints in [0, p) for GF(p), fractions.Fraction
(always in lowest terms) for the rationals.  No floating point anywhere.
Both kinds support Python's `+`, `*` and truth value, so a hot loop may sum
raw products and pass the total once through `reduce` to get the canonical
scalar.

The hot kernels (`linalg.sparse_rref`, the slice products of `complexes`)
compute on raw Python ints instead, through three hooks:

- `to_raw(values)` gives an iterable of scalars as a list of ints over one
  common denominator, `(ints, den)`;
- `from_raw(n, den)` gives the scalar n / den back;
- `primitive(row, lead)` scales a row of raw ints, in place, to the
  representative the elimination keeps.

Over GF(p) the scalars already are ints: `to_raw` hands back its argument
itself over the denominator 1, without reading it, so a kernel that gets
its own argument back keeps the values it has; `from_raw(n, 1)` is n mod p,
and `primitive` makes the lead 1.
Over QQ `to_raw` clears the denominators, `from_raw` builds the Fraction
once, and `primitive` divides out the content and makes the lead positive,
so that a sum of products of Fractions becomes a sum of ints.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for all n < 3.3 * 10^24."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n == q:
            return True
        if n % q == 0:
            return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class GF:
    """The prime field GF(p), p an odd-or-even prime below 2^61."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not isinstance(p, int) or not 2 <= p < 2**61 or not is_prime(p):
            raise ValueError(f"p must be a prime below 2^61, got {p!r}")
        self.p = p

    # -- field protocol ------------------------------------------------
    @property
    def zero(self) -> int:
        return 0

    @property
    def one(self) -> int:
        return 1

    def from_int(self, n: int) -> int:
        return n % self.p

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.p

    def neg(self, a: int) -> int:
        return -a % self.p

    def mul(self, a: int, b: int) -> int:
        return a * b % self.p

    def reduce(self, a: int) -> int:
        """The scalar equal to a sum of unreduced products of scalars."""
        return a % self.p

    # -- raw-integer hooks (see the module docstring) --------------------
    def to_raw(self, values) -> tuple:
        return values, 1

    def from_raw(self, n: int, den: int) -> int:
        return n % self.p if den == 1 else n * self.inv(den) % self.p

    def primitive(self, row: dict, lead) -> None:
        pv = row[lead]
        if pv != 1:
            p, inv = self.p, self.inv(pv)
            for j, v in row.items():
                row[j] = v * inv % p

    def inv(self, a: int) -> int:
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of 0 in GF(p)")
        return pow(a, self.p - 2, self.p)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def parse(self, tok: str) -> int:
        if "/" in tok:
            num, den = tok.split("/", 1)
            d = self.from_int(int(den))
            if not d:
                raise ValueError(f"zero denominator in {tok!r}")
            return self.div(self.from_int(int(num)), d)
        return self.from_int(int(tok))

    def to_str(self, a: int) -> str:
        return str(a % self.p)

    def __eq__(self, other) -> bool:
        return isinstance(other, GF) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))

    def __repr__(self):
        return f"GF({self.p})"


_FRACTION_ZERO = Fraction(0)
_FRACTION_ONE = Fraction(1)


class Rationals:
    """The field of rationals; scalars are Fraction (auto-reduced)."""

    __slots__ = ()

    # Fraction is immutable, so every caller can share one zero and one one
    @property
    def zero(self) -> Fraction:
        return _FRACTION_ZERO

    @property
    def one(self) -> Fraction:
        return _FRACTION_ONE

    def from_int(self, n: int) -> Fraction:
        return Fraction(n)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def reduce(self, a) -> Fraction:
        """The scalar equal to a sum of products of scalars (already canonical)."""
        return a

    # -- raw-integer hooks (see the module docstring) --------------------
    def to_raw(self, values) -> tuple:
        ratios = [v.as_integer_ratio() for v in values]
        den = lcm(*[d for _, d in ratios])
        if den == 1:
            return [n for n, _ in ratios], 1
        return [n * (den // d) for n, d in ratios], den

    def from_raw(self, n: int, den: int) -> Fraction:
        return Fraction(n) if den == 1 else Fraction(n, den)

    def primitive(self, row: dict, lead) -> None:
        g = gcd(*row.values())
        if row[lead] < 0:
            g = -g
        if g != 1:
            for j, v in row.items():
                row[j] = v // g

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of 0")
        return 1 / Fraction(a)

    def div(self, a, b):
        return Fraction(a) / b

    def parse(self, tok: str) -> Fraction:
        try:
            return Fraction(tok)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {tok!r}") from None

    def to_str(self, a) -> str:
        a = Fraction(a)
        return str(a.numerator) if a.denominator == 1 else f"{a.numerator}/{a.denominator}"

    def __eq__(self, other) -> bool:
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("Rationals")

    def __repr__(self):
        return "QQ"


QQ = Rationals()

GF101 = GF(101)


def field_from_config(cfg: dict):
    """Build a field from {"field": "gfp", "p": 101} or {"field": "rational"}."""
    kind = cfg.get("field") if isinstance(cfg, dict) else None
    if kind == "gfp" and type(cfg.get("p")) is int:
        return GF(cfg["p"])
    if kind == "rational":
        return QQ
    raise ValueError(f"unknown field config {cfg!r}")


def field_to_config(field) -> dict:
    if isinstance(field, GF):
        return {"field": "gfp", "p": field.p}
    return {"field": "rational"}
