"""The expression evaluator against a ring-lifting reference.

`exprs` folds a term's number literals into one field scalar and scales
the ring product of its other factors once.  The reference below evaluates
the same grammar the plain way: every literal becomes the ring element c*1
and is multiplied in where it stands, and powers start from the unit.
Both must give the same value, or raise the same error at the same place.
"""

import random
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from derfree.actions import evaluate_relation
from derfree.exprs import ExprError, RingEnv, evaluate, parse_element
from derfree.field import GF101, QQ
from derfree.fixtures import build_ex57
from derfree.linalg import Matrix
from derfree.monomial import TruncationError, monomial_algebra

FIELDS = pytest.mark.parametrize("field", [GF101, QQ], ids=["GF101", "QQ"])

# ---------------------------------------------------------------------------
# the reference: a token loop and a parser that lifts every literal to c*1

_REF_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|([-+*/^()]))")


def ref_tokenize(text):
    tokens, pos = [], 0
    while pos < len(text):
        m = _REF_TOKEN.match(text, pos)
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


class RefRing:
    """Ring operations, `scalar(c)` = c times the unit, and name lookup."""

    def __init__(self, field, add, sub, neg, mul, scalar, lookup):
        self.field, self.scalar, self._lookup = field, scalar, lookup
        self.add, self.sub, self.neg, self.mul = add, sub, neg, mul


def ref_evaluate(text, ring):
    tokens, i = ref_tokenize(text), [0]

    def peek():
        return tokens[i[0]]

    def take():
        i[0] += 1
        return tokens[i[0] - 1]

    def expr():
        negate = peek()[:2] == ("op", "-")
        if negate:
            take()
        acc = term()
        if negate:
            acc = ring.neg(acc)
        while peek()[0] == "op" and peek()[1] in "+-":
            op = take()[1]
            rhs = term()
            acc = ring.add(acc, rhs) if op == "+" else ring.sub(acc, rhs)
        return acc

    def term():
        acc = factor()
        while peek()[:2] == ("op", "*"):
            take()
            acc = ring.mul(acc, factor())
        return acc

    def factor():
        base = atom()
        if peek()[:2] == ("op", "^"):
            take()
            kind, n, pos = take()
            if kind != "int":
                raise ExprError("exponent must be an integer literal", pos)
            acc = ring.scalar(ring.field.one)
            for _ in range(n):
                acc = ring.mul(acc, base)
            return acc
        return base

    def atom():
        f = ring.field
        kind, val, pos = take()
        if kind == "int":
            if peek()[:2] == ("op", "/"):
                take()
                k3, den, pos3 = take()
                if k3 != "int":
                    raise ExprError("denominator must be an integer literal", pos3)
                if not f.from_int(den):
                    raise ExprError(f"zero denominator in {val}/{den}", pos)
                return ring.scalar(f.div(f.from_int(val), f.from_int(den)))
            return ring.scalar(f.from_int(val))
        if kind == "ident":
            value = ring._lookup(val)
            if value is None:
                raise ExprError(f"unknown name {val!r}", pos)
            return value
        if kind == "op" and val == "(":
            inner = expr()
            k2, v2, pos2 = take()
            if not (k2 == "op" and v2 == ")"):
                raise ExprError("expected ')'", pos2)
            return inner
        raise ExprError(f"unexpected token {val!r}", pos)

    result = expr()
    kind, val, pos = peek()
    if kind != "end":
        raise ExprError(f"trailing input {val!r}", pos)
    return result


def ref_parse_element(A, text):
    return ref_evaluate(text, RefRing(A.field, A.el_add, A.el_sub, A.el_neg, A.el_mul,
                                      lambda c: A.el_scale(c, A.one), A.named_element))


def outcome(fn, *args):
    """("value", v) or (exception type, message): what a call gives."""
    try:
        return ("value", fn(*args))
    except (ExprError, TruncationError) as e:
        return (type(e).__name__, str(e))


# ---------------------------------------------------------------------------
# random expressions


def _spaced(parts, data):
    return "".join(p + data.draw(st.sampled_from(["", "", " ", "  "])) for p in parts)


def _literal():
    num = st.integers(0, 300).map(str)
    # denominators include 0 and 101, which is zero in GF(101)
    den = st.sampled_from([0, 1, 2, 3, 7, 101, 202, 77])
    return st.one_of(num, st.tuples(num, den).map(lambda t: f"{t[0]}/{t[1]}"))


def expressions(names):
    name = st.sampled_from(names)
    atom0 = st.one_of(_literal(), name)

    def extend(inner):
        atom = st.one_of(atom0, inner.map(lambda e: f"({e})"))
        factor = st.tuples(atom, st.one_of(st.just(""), st.integers(0, 4).map(lambda n: f"^{n}")))
        term = st.lists(factor.map("".join), min_size=1, max_size=4).map("*".join)
        sign = st.sampled_from(["", "-"])
        rest = st.lists(st.tuples(st.sampled_from([" + ", " - ", "+", "-"]), term), max_size=3)
        return st.tuples(sign, term, rest).map(
            lambda t: t[0] + t[1] + "".join(op + tm for op, tm in t[2]))

    return st.recursive(atom0, extend, max_leaves=12)


def algebras(field):
    graded = monomial_algebra(field, ["x", "y"], ["x^3", "y^3"], 6)
    return {"artinian": graded.artinize(), "graded": graded,
            # x^2*y^2 is a standard monomial above this truncation
            "truncated": monomial_algebra(field, ["x", "y"], ["x^3", "y^3"], 3)}


@FIELDS
@pytest.mark.parametrize("backend", ["artinian", "graded", "truncated"])
@given(text=expressions(["x", "y", "x", "y", "q"]))
def test_folded_literals_evaluate_as_lifted_literals(field, backend, text):
    """Random expressions (literals anywhere in a term, a/b, ^, unary minus,
    parentheses, names, an unknown name) give the value, or the error and
    its position, of the ring-lifting reference."""
    A = algebras(field)[backend]
    assert outcome(parse_element, A, text) == outcome(ref_parse_element, A, text)


_SOUP = ["x", "y", "q", "3", "0", "12", "101", "/", "*", "^", "+", "-", "(", ")",
         " ", "  ", "$", "\t", ".", "x1", "_a"]


@FIELDS
@given(parts=st.lists(st.sampled_from(_SOUP), max_size=10))
def test_malformed_text_raises_as_the_reference_does(field, parts):
    """Token soup, mostly malformed: the same value or the same ExprError at
    the same position."""
    A = algebras(field)["artinian"]
    text = "".join(parts)
    assert outcome(parse_element, A, text) == outcome(ref_parse_element, A, text)


def _matrix_rings(field, seed):
    """The matrix ring of a relation on homology, for the evaluator and the
    reference: generators u, v are two random noncommuting 3x3 matrices and
    the algebra's x acts by a third one."""
    rng = random.Random(seed)

    def rand():
        return Matrix.from_rows(field, [[field.from_int(rng.randrange(-3, 4)) for _ in range(3)]
                                        for _ in range(3)])

    mats = {"u": rand(), "v": rand(), "x": rand()}
    one = Matrix.identity(field, 3)
    ops = (Matrix.add, Matrix.sub, Matrix.neg, Matrix.mul)
    return (RingEnv(field, one, *ops, lambda c, M: M.scale(c), mats.get),
            RefRing(field, *ops, one.scale, mats.get))


@FIELDS
@given(text=expressions(["u", "v", "x", "u", "v"]), seed=st.integers(0, 10**6))
def test_a_relation_on_matrices_evaluates_as_the_reference(field, text, seed):
    env, ref = _matrix_rings(field, seed)
    assert outcome(evaluate, text, env) == outcome(ref_evaluate, text, ref)


@FIELDS
def test_a_literal_anywhere_in_a_term_scales_the_chain_map(field):
    """Scalars are central: on the noncommuting ex5.7 generators, a literal
    gives the same relation wherever it stands."""
    b = build_ex57(field)
    gens = {name: g for name, g in b.certificate.generators}
    first = evaluate_relation(b.F, gens, "2/3*u*v - 3")
    for text in ("u*2/3*v - 3", "u*v*2/3 - 3*1", "u*(2/3)*v - 3*x^0", "-3 + u*v*2*1/3"):
        got = evaluate_relation(b.F, gens, text)
        assert all(got.component(i) == first.component(i) for i in b.F.degrees()), text
    assert any(not evaluate_relation(b.F, gens, "u*v - v*u").component(i).is_zero()
               for i in b.F.degrees())


@pytest.mark.parametrize("text, message, pos", [
    ("1/0", "zero denominator in 1/0", 0),
    ("x + 3/101*y", "zero denominator in 3/101", 3),
    ("2^x", "exponent must be an integer literal", 2),
    ("x^", "exponent must be an integer literal", 2),
    ("x y", "trailing input 'y'", 1),
    ("x+y)", "trailing input ')'", 3),
    ("x $", "unexpected character ' '", 1),
    ("  x +", "unexpected token None", 5),
    ("1/x", "denominator must be an integer literal", 2),
    ("q*1/0", "unknown name 'q'", 0),
])
def test_expression_errors_keep_their_message_and_position(text, message, pos):
    A = algebras(GF101)["artinian"]
    with pytest.raises(ExprError) as info:
        parse_element(A, text)
    assert str(info.value) == f"{message} at position {pos}"
    assert info.value.pos == pos


@FIELDS
def test_a_zero_literal_keeps_a_product_over_the_truncation_unformed(field):
    """As when every literal is lifted to c*1: a factor after a zero literal
    is multiplied into zero, so only a product formed before it can raise."""
    A = algebras(field)["truncated"]
    assert parse_element(A, "0*x^2*y^2") == A.zero
    assert parse_element(A, "x^2*0*y^2") == A.zero
    with pytest.raises(TruncationError):
        parse_element(A, "x^2*y^2*0")
