"""Tiny expression grammar for algebra elements and action polynomials.

    expr   := ('-')? term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := atom ('^' INT)?
    atom   := NUMBER | IDENT | '(' expr ')'
    NUMBER := INT ('/' INT)?

A term is a field scalar times a ring product: its number literals, with
their denominators and powers, are multiplied in the field, its other
factors are multiplied left to right in the (possibly noncommutative) ring,
and the scalar is applied once.  Scalars are central, so where a literal
stands in a term does not change its value.  The ring is an environment
(`RingEnv`) that supplies the unit, the ring operations, scaling by a field
scalar and identifier lookup.
"""

from __future__ import annotations

import re

# one alternative per token kind; a character that starts no token is caught
# by the last group, so the matches tile the text up to trailing whitespace
_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|([-+*/^()])|(\S))")
_FACTOR = re.compile(r"([A-Za-z_][A-Za-z_0-9]*)(?:\^(\d+))?")


class ExprError(ValueError):
    def __init__(self, msg: str, pos: int):
        super().__init__(f"{msg} at position {pos}")
        self.pos = pos


def word_factors(word: str) -> list:
    """The (name, exponent) factors of a monomial word such as "x*y^2"; ""
    and "1" factors are skipped, and a malformed one such as "x^" raises."""
    factors = []
    for part in word.replace(" ", "").split("*"):
        m = _FACTOR.fullmatch(part)
        if m:
            factors.append((m.group(1), int(m.group(2) or 1)))
        elif part not in ("", "1"):
            raise ExprError(f"malformed factor {part!r} in {word!r}", word.find(part))
    return factors


def tokenize(text: str):
    """(kind, value, position) tokens, closed by an "end" token; a token's
    position is where the whitespace before it starts."""
    tokens = []
    for m in _TOKEN.finditer(text):
        num, ident, op, bad = m.groups()
        pos = m.start()
        if num is not None:
            tokens.append(("int", int(num), pos))
        elif ident is not None:
            tokens.append(("ident", ident, pos))
        elif op is not None:
            tokens.append(("op", op, pos))
        else:
            raise ExprError(f"unexpected character {text[pos]!r}", pos)
    tokens.append(("end", None, len(text)))
    return tokens


class _Parser:
    def __init__(self, tokens, env):
        self.tokens = tokens
        self.i = 0
        self.env = env

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def accept(self, op: str) -> bool:
        """Take the next token if it is the operator `op`."""
        kind, val, _ = self.tokens[self.i]
        if kind == "op" and val == op:
            self.i += 1
            return True
        return False

    def expr(self):
        env = self.env
        acc = self.term(self.accept("-"))
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                rhs = self.term(False)
                acc = env.add(acc, rhs) if val == "+" else env.sub(acc, rhs)
            else:
                return acc

    def term(self, negate: bool):
        env = self.env
        f = env.field
        coeff = None  # the product of the number literals, in the field
        prod = None  # the product of the other factors, in the ring
        while True:
            kind, val, pos = self.take()
            if kind == "int":
                c = self.number(val, pos)
                if self.accept("^"):
                    c = _field_power(f, c, self.exponent())
                coeff = c if coeff is None else f.mul(coeff, c)
            else:
                x = self.atom(kind, val, pos)
                if self.accept("^"):
                    x = env.power(x, self.exponent())
                # past a zero literal the term is zero, and a product that
                # would raise (over the truncation) is not formed
                if coeff is None or coeff:
                    prod = x if prod is None else env.mul(prod, x)
            if not self.accept("*"):
                break
        if negate:
            if coeff is not None:
                coeff = f.neg(coeff)
            else:
                prod = env.neg(prod)
        if prod is None:
            return env.scale(coeff, env.one)
        return prod if coeff is None else env.scale(coeff, prod)

    def exponent(self) -> int:
        kind, n, pos = self.take()
        if kind != "int":
            raise ExprError("exponent must be an integer literal", pos)
        return n

    def number(self, num: int, pos: int):
        """The field scalar of the literal num or num/den starting at `pos`."""
        f = self.env.field
        if not self.accept("/"):
            return f.from_int(num)
        kind, den, pos_den = self.take()
        if kind != "int":
            raise ExprError("denominator must be an integer literal", pos_den)
        d = f.from_int(den)
        if not d:
            raise ExprError(f"zero denominator in {num}/{den}", pos)
        return f.div(f.from_int(num), d)

    def atom(self, kind, val, pos):
        """The ring element of a name or a parenthesised expression."""
        if kind == "ident":
            return self.env.lookup(val, pos)
        if kind == "op" and val == "(":
            inner = self.expr()
            k2, v2, pos2 = self.take()
            if not (k2 == "op" and v2 == ")"):
                raise ExprError("expected ')'", pos2)
            return inner
        raise ExprError(f"unexpected token {val!r}", pos)


def _field_power(f, c, n: int):
    acc = f.one
    for _ in range(n):
        acc = f.mul(acc, c)
    return acc


def evaluate(text: str, env):
    """Parse and evaluate `text` against `env`."""
    parser = _Parser(tokenize(text), env)
    result = parser.expr()
    kind, val, pos = parser.peek()
    if kind != "end":
        raise ExprError(f"trailing input {val!r}", pos)
    return result


class RingEnv:
    """Environment over a ring that is an algebra over `field`.

    It takes the unit `one`, the ring operations, `scale(c, x)` (the field
    scalar c times x) and `lookup(name)`, which returns None for an unknown
    name; powers and the unknown-name error are evaluated here.
    """

    def __init__(self, field, one, add, sub, neg, mul, scale, lookup):
        self.field, self.one = field, one
        self.add, self.sub, self.neg, self.mul = add, sub, neg, mul
        self.scale = scale
        self._lookup = lookup

    def power(self, base, n: int):
        if n == 0:
            return self.one
        acc = base
        for _ in range(n - 1):
            acc = self.mul(acc, base)
        return acc

    def lookup(self, name: str, pos: int):
        value = self._lookup(name)
        if value is None:
            raise ExprError(f"unknown name {name!r}", pos)
        return value


def parse_element(A, text: str):
    """The element of the algebra `A` (either backend) that `text` names."""
    return evaluate(text, RingEnv(A.field, A.one, A.el_add, A.el_sub, A.el_neg, A.el_mul,
                                  A.el_scale, A.named_element))
