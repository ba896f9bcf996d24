"""Tiny expression grammar for algebra elements and action polynomials.

    expr   := ('-')? term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := atom ('^' INT)?
    atom   := NUMBER | IDENT | '(' expr ')'
    NUMBER := INT ('/' INT)?

Evaluation is left-to-right against an environment that supplies constants,
identifier lookup and (possibly noncommutative) ring operations.
"""

from __future__ import annotations

import re

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|([-+*/^()]))")
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
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise ExprError(f"unexpected character {text[pos]!r}", pos)
            break
        if m.group(1) is not None:
            tokens.append(("int", int(m.group(1)), pos))
        elif m.group(2) is not None:
            tokens.append(("ident", m.group(2), pos))
        else:
            tokens.append(("op", m.group(3), pos))
        pos = m.end()
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

    def expr(self):
        negate = False
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.take()
            negate = True
        acc = self.term()
        if negate:
            acc = self.env.neg(acc)
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                rhs = self.term()
                acc = self.env.add(acc, rhs) if val == "+" else self.env.sub(acc, rhs)
            else:
                return acc

    def term(self):
        acc = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == "*":
                self.take()
                acc = self.env.mul(acc, self.factor())
            else:
                return acc

    def factor(self):
        base = self.atom()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.take()
            kind, n, pos = self.take()
            if kind != "int":
                raise ExprError("exponent must be an integer literal", pos)
            return self.env.power(base, n)
        return base

    def atom(self):
        kind, val, pos = self.take()
        if kind == "int":
            k2, v2, _ = self.peek()
            if k2 == "op" and v2 == "/":
                self.take()
                k3, den, pos3 = self.take()
                if k3 != "int":
                    raise ExprError("denominator must be an integer literal", pos3)
                return self.env.rational(val, den, pos)
            return self.env.integer(val)
        if kind == "ident":
            return self.env.lookup(val, pos)
        if kind == "op" and val == "(":
            inner = self.expr()
            k2, v2, pos2 = self.take()
            if not (k2 == "op" and v2 == ")"):
                raise ExprError("expected ')'", pos2)
            return inner
        raise ExprError(f"unexpected token {val!r}", pos)


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

    It takes the ring operations, `scalar(c)` (c times the unit) and
    `lookup(name)`, which returns None for an unknown name; literals,
    powers and the unknown-name error are evaluated here.
    """

    def __init__(self, field, add, sub, neg, mul, scalar, lookup):
        self.field = field
        self.add, self.sub, self.neg, self.mul = add, sub, neg, mul
        self.scalar = scalar
        self._lookup = lookup

    def power(self, base, n: int):
        acc = self.scalar(self.field.one)
        for _ in range(n):
            acc = self.mul(acc, base)
        return acc

    def integer(self, n: int):
        return self.scalar(self.field.from_int(n))

    def rational(self, num: int, den: int, pos: int):
        f = self.field
        d = f.from_int(den)
        if not d:
            raise ExprError(f"zero denominator in {num}/{den}", pos)
        return self.scalar(f.div(f.from_int(num), d))

    def lookup(self, name: str, pos: int):
        value = self._lookup(name)
        if value is None:
            raise ExprError(f"unknown name {name!r}", pos)
        return value


def parse_element(A, text: str):
    """The element of the algebra `A` (either backend) that `text` names."""
    return evaluate(text, RingEnv(A.field, A.el_add, A.el_sub, A.el_neg, A.el_mul,
                                  lambda c: A.el_scale(c, A.one), A.named_element))
