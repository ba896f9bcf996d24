"""Exact scalar arithmetic: prime fields GF(p) and arbitrary-precision rationals.

Scalars are plain Python values: ints in [0, p) for GF(p), fractions.Fraction
(always in lowest terms) for the rationals.  No floating point anywhere.
Both kinds support Python's `+`, `*` and truth value, so a hot loop may sum
raw products and pass the total once through `reduce` to get the canonical
scalar.
"""

from __future__ import annotations

from fractions import Fraction

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

    @property
    def characteristic(self) -> int:
        return self.p

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

    def inv(self, a: int) -> int:
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of 0 in GF(p)")
        return pow(a, self.p - 2, self.p)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def parse(self, tok: str) -> int:
        if "/" in tok:
            num, den = tok.split("/", 1)
            return self.div(self.from_int(int(num)), self.from_int(int(den)))
        return self.from_int(int(tok))

    def to_str(self, a: int) -> str:
        return str(a % self.p)

    # numpy int64 products of two reduced scalars must not overflow
    @property
    def numpy_safe(self) -> bool:
        return self.p < 2**31

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

    @property
    def characteristic(self) -> int:
        return 0

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

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return 1 / Fraction(a)

    def div(self, a, b):
        return Fraction(a) / b

    def parse(self, tok: str) -> Fraction:
        return Fraction(tok)

    def to_str(self, a) -> str:
        a = Fraction(a)
        return str(a.numerator) if a.denominator == 1 else f"{a.numerator}/{a.denominator}"

    @property
    def numpy_safe(self) -> bool:
        return False

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
    kind = cfg.get("field")
    if kind == "gfp":
        return GF(int(cfg["p"]))
    if kind == "rational":
        return QQ
    raise ValueError(f"unknown field config {cfg!r}")


def field_to_config(field) -> dict:
    if isinstance(field, GF):
        return {"field": "gfp", "p": field.p}
    return {"field": "rational"}
