"""The benchmark's workloads: seeded inputs, the timed operation, the answer gate.

Every workload turns a seed into a list of *rounds*; a round is a list of
``Op``.  The runner times ``op.call()`` alone and then passes its result to
``op.check(result, op.expected)``, which returns ``None`` for a correct
answer or a one-line reason.  Inputs are built here, before timing starts,
and derfree only ever sees these generated inputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable

from derfree import serialize
from derfree.checkers import (Decomposition, betti_poly_with_offset,
                              divide_by_power_of_one_plus_t, koszul_decompose,
                              prop44_divisibility)
from derfree.cli import main as cli_main
from derfree.complexes import (AMatrix, FreeComplex, graded_homology_all,
                               homology_dims, random_transport, scalar_endo)
from derfree.field import GF101, QQ
from derfree.homotopy import derived_annihilator
from derfree.koszul import koszul
from derfree.monomial import monomial_algebra

P = 101  # characteristic of every GF(p) workload

# the round-trip catalog of acceptance criterion 5: (name, variables, ideal, truncation)
ARTINIAN = (
    ("m2-3vars", "xyz", ("x^2", "x*y", "x*z", "y^2", "y*z", "z^2"), 4),
    ("m2-4vars", "xyzw",
     ("x^2", "x*y", "x*z", "x*w", "y^2", "y*z", "y*w", "z^2", "z*w", "w^2"), 4),
    ("chain-z3", "xyz", ("x^2", "x*y", "x*z", "y^2", "y*z", "z^3"), 6),
    ("mixed-socle", "xyz", ("x^2", "x*y", "x*z", "y^2", "z^2"), 6),
    ("chain-z4", "xyz", ("x^2", "x*y", "y^2", "x*z", "y*z", "z^4"), 8),
)
GRADED = (
    ("sq3", "xyz", ("x^2", "y^2", "z^2"), 6),
    ("cube3", "xyz", ("x^3", "y^3", "z^3", "x*y*z"), 8),
    ("sq4", "xyzw", ("x^2", "y^2", "z^2", "w^2"), 6),
)

ROUNDTRIP_CELLS = tuple((a[0], p, b) for a in ARTINIAN for p in (1, 2, 3) for b in (1, 2, 3))
GRADED_CELLS = tuple((a[0], p, b) for a in GRADED for p in (2, 3) for b in (1, 2))
# chain-z3 Koszul complexes of defect <= 3 and total rank b * 2^p <= 12
CLI_CELLS = ((1, 2), (1, 4), (2, 1), (2, 2), (2, 3), (3, 1))
CLI_COMMANDS = ("decompose", "annihilator", "homology", "betti")
# graded Koszul complexes whose annihilator takes under a second over QQ
CLI_GRADED_CELLS = (("sq3", 2, 1), ("sq3", 2, 2), ("sq3", 3, 1), ("cube3", 2, 1),
                    ("cube3", 2, 2), ("sq4", 2, 1), ("sq4", 2, 2))
CLI_GRADED_COMMANDS = ("annihilator", "homology")


@dataclass(frozen=True)
class Op:
    label: str
    call: Callable[[], object]
    check: Callable[[object, object], str | None]
    expected: object


def _spec(table, name):
    return next(s for s in table if s[0] == name)


def _algebra(table, name, field, artinian: bool):
    _, variables, ideal, trunc = _spec(table, name)
    A = monomial_algebra(field, list(variables), list(ideal), trunc)
    return A.artinize() if artinian else A


def _koszul_base(A, variables, p, b):
    return koszul(A, [A.parse_element(v) for v in variables[:p]], multiplicity=b).complex


def _rank(rows, reduce, inverse):
    """Rank by plain Gaussian elimination (an oracle independent of derfree.linalg)."""
    rows = [[reduce(x) for x in r] for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = inverse(rows[rank][c])
        rows[rank] = [reduce(x * inv) for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c]
                rows[i] = [reduce(x - f * y) for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _rank_mod_p(rows):
    return _rank(rows, lambda x: x % P, lambda x: pow(x, P - 2, P))


def _rank_qq(rows):
    return _rank(rows, Fraction, lambda x: 1 / x)


def _in_span(rank, basis, v) -> bool:
    return rank(basis + [v]) == rank(basis)


# ---------------------------------------------------------------------------
# roundtrip: acceptance criterion 5 on seeded conjugates


def _roundtrip_call(G, p):
    dec = koszul_decompose(G)
    ann = derived_annihilator(G)
    return dec, prop44_divisibility(G, p, annihilator=ann)


def _check_decomposition(dec, p, b):
    if not isinstance(dec, Decomposition):
        return f"no decomposition: {dec!r}"[:200]
    if dec.multiplicity != b or len(dec.elements) != p:
        return f"decomposed with multiplicity {dec.multiplicity} over {len(dec.elements)} elements"
    if not dec.lift.phi.is_chain_map():
        return "the decomposition's Phi is not a chain map"
    return None


def _roundtrip_check(result, expected):
    dec, div = result
    p, b = expected
    err = _check_decomposition(dec, p, b)
    if err:
        return err
    if not div.holds or div.quotient != (b,):
        return f"prop44 quotient {div.quotient} (holds={div.holds}), expected ({b},)"
    return None


def build_roundtrip(seed: int, cells=ROUNDTRIP_CELLS, rounds: int = 4) -> list:
    rng = random.Random(seed)
    algebras = {name: _algebra(ARTINIAN, name, GF101, True) for name, _, _ in cells}
    bases = {(name, p, b): _koszul_base(algebras[name], _spec(ARTINIAN, name)[1], p, b)
             for name, p, b in cells}
    out = []
    for _ in range(rounds):
        order = list(cells)
        rng.shuffle(order)
        ops = []
        for name, p, b in order:
            G = random_transport(bases[(name, p, b)], rng)
            ops.append(Op(f"{name}/p{p}b{b}", partial(_roundtrip_call, G, p),
                          _roundtrip_check, (p, b)))
        out.append(ops)
    return out


# ---------------------------------------------------------------------------
# defect4: the defect-4 scale probe, one dense elimination per op


def _defect4_call(G):
    return koszul_decompose(G)


def _defect4_check(dec, expected):
    G, p, b = expected
    err = _check_decomposition(dec, p, b)
    if err:
        return err
    # prop44's Betti-polynomial division; the annihilator half of prop44 is
    # what the decomposition itself certified
    coeffs, _ = betti_poly_with_offset(G)
    q = divide_by_power_of_one_plus_t(coeffs, p)
    if q != [b]:
        return f"Betti polynomial / (1+t)^{p} = {q}, expected [{b}]"
    return None


def build_defect4(seed: int, count: int = 4, b: int = 3) -> list:
    rng = random.Random(seed)
    A = _algebra(ARTINIAN, "m2-4vars", GF101, True)
    K = _koszul_base(A, "xyzw", 4, b)
    out = []
    for k in range(count):
        G = random_transport(K, rng)
        out.append([Op(f"m2-4vars/p4b{b}/{k}", partial(_defect4_call, G),
                       _defect4_check, (G, 4, b))])
    return out


# ---------------------------------------------------------------------------
# graded: derived annihilator and homology over graded monomial quotients


def _rescale(K: FreeComplex, rng) -> FreeComplex:
    """K in a randomly rescaled basis: d_i[r][c] * s_{i-1}[r] / s_i[c].

    A diagonal change of basis keeps every differential homogeneous and
    keeps its pattern of nonzero entries, so the seed changes the input
    but not the size of the linear systems built from it.
    """
    A = K.algebra
    f = A.field
    scale = {i: [f.from_int(rng.randrange(1, P)) for _ in range(K.rank(i))]
             for i in K.degrees()}
    diffs = []
    for i in range(K.low + 1, K.top + 1):
        d = K.diff(i)
        rows = [[A.el_scale(f.div(scale[i - 1][r], scale[i][c]), d.entries[r][c])
                 for c in range(d.ncols)] for r in range(d.nrows)]
        diffs.append(AMatrix.from_rows(A, rows, ncols=d.ncols))
    return FreeComplex(A, K.low, K.ranks, tuple(diffs), K.shifts)


def _ideal_dim(ideal, variables: str, p: int, trunc: int) -> int:
    """dim_k of (x_1..x_p) in k[variables]/(monomial ideal), degrees 1..trunc."""
    exps = [_exponents(g, variables) for g in ideal]
    count = 0
    for d in range(1, trunc + 1):
        for m in itertools.product(range(d + 1), repeat=len(variables)):
            if sum(m) != d or not any(m[:p]):
                continue
            if any(all(x >= y for x, y in zip(m, g)) for g in exps):
                continue
            count += 1
    return count


def _exponents(mono: str, variables: str) -> tuple:
    e = [0] * len(variables)
    for factor in mono.split("*"):
        v, _, k = factor.partition("^")
        e[variables.index(v)] += int(k or 1)
    return tuple(e)


def _linear_in_span(A, rank, basis, xs) -> str | None:
    """None if each x in xs lies in the span of the degree-1 elements of basis."""
    linear = A.basis(1)
    deg1 = [[dict(a).get(m, 0) for m in linear] for a in basis
            if all(sum(m) == 1 for m, _ in a)]
    for x in xs:
        if not _in_span(rank, deg1, [dict(x).get(m, 0) for m in linear]):
            return f"{A.element_to_str(x)} is not in the annihilator"
    return None


def _graded_call(G):
    return derived_annihilator(G), graded_homology_all(G)


def _graded_check(result, expected):
    ann, gh = result
    G, xs, dim, window, hdims = expected
    if ann.window != window:
        return f"annihilator window {ann.window}, expected {window}"
    if len(ann.basis) != dim:
        return f"annihilator dimension {len(ann.basis)}, expected {dim}"
    A = G.algebra
    err = _linear_in_span(A, _rank_mod_p, ann.basis, xs)
    if err:
        return err
    for a, w in zip(ann.basis, ann.witnesses):
        bd, aid = w.boundary(), scalar_endo(G, a)
        if any(bd.component(i) != aid.component(i) for i in G.degrees()):
            return f"witness for {A.element_to_str(a)} does not bound a*id"
    got = {i: h.dims for i, h in gh.items()}
    if got != hdims:
        return f"homology {got}, expected {hdims} (the complex before rescaling)"
    return None


def build_graded(seed: int, cells=GRADED_CELLS, rounds: int = 3) -> list:
    rng = random.Random(seed)
    algebras = {name: _algebra(GRADED, name, GF101, False) for name, _, _ in cells}
    expected = {}
    bases = {}
    for name, p, b in cells:
        _, variables, ideal, trunc = _spec(GRADED, name)
        A = algebras[name]
        K = _koszul_base(A, variables, p, b)
        bases[(name, p, b)] = K
        xs = tuple(A.parse_element(v) for v in variables[:p])
        hdims = {i: h.dims for i, h in graded_homology_all(K).items()}
        expected[(name, p, b)] = (xs, _ideal_dim(ideal, variables, p, trunc), trunc, hdims)
    out = []
    for _ in range(rounds):
        order = list(cells)
        rng.shuffle(order)
        ops = []
        for c in order:
            G = _rescale(bases[c], rng)
            name, p, b = c
            ops.append(Op(f"{name}/p{p}b{b}", partial(_graded_call, G), _graded_check,
                          (G,) + expected[c]))
        out.append(ops)
    return out


# ---------------------------------------------------------------------------
# cli-rational: the CLI over the rationals on files written by serialize


def _cli_call(argv, report):
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = cli_main(["--field", "rational", "--json", report] + argv)
    with open(report, "rb") as fh:
        data = fh.read()
    return code, data


class _ReportLog:
    """SHA-256 of every --json report, which must repeat byte for byte."""

    def __init__(self):
        self.hashes = {}

    def check(self, label, data) -> str | None:
        digest = hashlib.sha256(data).hexdigest()
        first = self.hashes.setdefault(label, digest)
        if first != digest:
            return f"report differs from its earlier repetition ({digest[:12]} != {first[:12]})"
        return None


def _cli_check(result, expected):
    code, data = result
    log, label, command, want = expected
    if code != 0:
        return f"exit code {code}"
    err = log.check(label, data)
    if err:
        return err
    report = json.loads(data)
    if command == "paper-examples":
        return None if report.get("all_passed") is True else "a paper example failed"
    p, b, A, hdims = want  # for a graded file hdims is (hilbert, dim, window)
    if A.kind == "graded":
        return _cli_graded_check(report, command, p, A, hdims)
    if command == "decompose":
        if not report.get("decomposed") or report.get("multiplicity") != b \
                or len(report.get("sequence", ())) != p:
            return f"decompose report {report}"[:200]
    elif command == "betti":
        betti = {str(i): b * math.comb(p, i) for i in range(p + 1)}
        if report.get("betti") != betti or report.get("proj_dim") != p:
            return f"betti report {report}, expected {betti}"[:200]
    elif command == "homology":
        if report.get("homology_dims") != hdims:
            return f"homology {report.get('homology_dims')}, expected {hdims}"[:200]
    elif command == "annihilator":
        basis = [list(A.parse_element(s)) for s in report.get("basis", ())]
        for v in "xyz"[:p]:
            if not _in_span(_rank_qq, basis, list(A.parse_element(v))):
                return f"{v} is not in the reported annihilator"
    return None


def _cli_graded_check(report, command, p, A, want):
    """Check a report on a graded complex file; want = (hilbert, dim, window)."""
    hilbert, dim, window = want
    if report.get("window") != window:
        return f"window {report.get('window')}, expected {window}"
    if command == "homology":
        if report.get("homology_hilbert") != hilbert:
            return f"homology {report.get('homology_hilbert')}, expected {hilbert}"[:200]
        return None
    basis = [A.parse_element(s) for s in report.get("basis", ())]
    if len(basis) != dim:
        return f"annihilator dimension {len(basis)}, expected {dim}"
    return _linear_in_span(A, _rank_qq, basis, [A.parse_element(v) for v in A.variables[:p]])


def build_cli_rational(seed: int, workdir: str, cells=CLI_CELLS, copies: int = 2,
                       graded_cells=CLI_GRADED_CELLS) -> list:
    """One round, repeated: the paper examples and every command on every file, in seeded order.

    Each chain-z3 (p, b) cell gets ``copies`` conjugates and each graded
    cell ``copies`` diagonal rescalings, so a run averages over several
    inputs while every report still repeats from round to round.
    """
    rng = random.Random(seed)
    A = _algebra(ARTINIAN, "chain-z3", QQ, True)
    log = _ReportLog()
    report = os.path.join(workdir, "report.json")
    ops = [Op("paper-examples", partial(_cli_call, ["paper-examples"], report), _cli_check,
              (log, "paper-examples", "paper-examples", None))]
    for p, b in cells:
        K = _koszul_base(A, "xyz", p, b)
        hdims = {str(i): d for i, d in homology_dims(K).items()}
        for k in range(copies):
            path = os.path.join(workdir, f"koszul_p{p}b{b}_{k}.json")
            serialize.save(path, serialize.complex_to_dict(random_transport(K, rng)))
            for command in CLI_COMMANDS:
                label = f"{command}/p{p}b{b}/{k}"
                ops.append(Op(label, partial(_cli_call, [command, path], report), _cli_check,
                              (log, label, command, (p, b, A, hdims))))
    for name, p, b in graded_cells:
        _, variables, ideal, trunc = _spec(GRADED, name)
        B = _algebra(GRADED, name, QQ, False)
        K = _koszul_base(B, variables, p, b)
        hilbert = {str(i): list(h.hilbert(h.window)) for i, h in graded_homology_all(K).items()}
        want = (p, b, B, (hilbert, _ideal_dim(ideal, variables, p, trunc), trunc))
        for k in range(copies):
            path = os.path.join(workdir, f"{name}_p{p}b{b}_{k}.json")
            serialize.save(path, serialize.complex_to_dict(_rescale(K, rng)))
            for command in CLI_GRADED_COMMANDS:
                label = f"{command}/{name}-p{p}b{b}/{k}"
                ops.append(Op(label, partial(_cli_call, [command, path], report), _cli_check,
                              (log, label, command, want)))
    rng.shuffle(ops)
    return [ops]


def report_hashes(rounds) -> dict:
    """SHA-256 of every --json report, by op label (cli-rational only)."""
    logs = {id(op.expected[0]): op.expected[0]
            for ops in rounds for op in ops if op.check is _cli_check}
    return dict(sorted((k, v) for log in logs.values() for k, v in log.hashes.items()))


def build(name: str, seed: int, workdir: str) -> list:
    if name == "roundtrip":
        return build_roundtrip(seed)
    if name == "defect4":
        return build_defect4(seed)
    if name == "graded":
        return build_graded(seed)
    if name == "cli-rational":
        return build_cli_rational(seed, workdir)
    raise ValueError(f"unknown workload {name!r}")
