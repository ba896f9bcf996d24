"""Command-line surface.

Exit codes: 0 all checks passed, 1 some check failed, 2 input error,
3 internal error (an unexpected exception; never a verdict).
`--json PATH` writes the machine-readable report (canonical JSON, byte
stable across runs); human-readable lines go to stdout.
"""

from __future__ import annotations

import argparse
import os
import sys
import traceback
from functools import cache

from . import serialize
from .actions import verify_certificate
from .checkers import (Analysis, check_lemma32, check_question,
                       check_thm31, check_thm41, check_thm51,
                       DecompositionObstruction,
                       koszul_decompose, prop44_divisibility)
from .complexes import betti, graded_homology_dims, homology, homology_dims, nonzero_range
from .field import GF, GF101, QQ
from .fixtures import BUILDERS, run_fixtures
from .homotopy import derived_annihilator, solve_homotopy
from .koszul import koszul
from .modules import (MINUS_INFINITY, is_free, lemma43_freeness, nu,
                      poincare_truncated)
from .monomial import NotArtinianError, TruncationError
from .serialize import LoadError


def parse_field(spec: str):
    if spec == "rational":
        return QQ
    if spec.startswith("gfp:"):
        return GF(int(spec.split(":", 1)[1]))
    raise argparse.ArgumentTypeError(f"unknown field {spec!r} (use gfp:P or rational)")


def int_at_least(low: int):
    """An argparse type: an integer no smaller than `low`; argparse names the option."""
    def integer(text: str) -> int:
        if (n := int(text)) < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {n}")
        return n
    return integer


@cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.

    Every in-process call of `main` shares it, so nothing may change it
    after it is built; `parse_args` writes only the Namespace it returns.
    """
    ap = argparse.ArgumentParser(
        prog="derfree",
        description="exact freeness and Koszul-decomposition certification "
                    "over desk-scale local algebras")
    ap.add_argument("--field", type=parse_field, default=GF101,
                    help="gfp:P or rational (default gfp:101)")
    ap.add_argument("--trunc", type=int_at_least(0), default=None, metavar="D",
                    dest="trunc_global",
                    help="override the truncation degree of graded algebra files")
    ap.add_argument("--json", metavar="PATH",
                    help="write the machine-readable report here ('-' for stdout)")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate an algebra, complex, or certificate file")
    p.add_argument("file")

    p = sub.add_parser("homology", help="homology dimensions of a complex file")
    p.add_argument("file")

    p = sub.add_parser("betti", help="Betti table and projective dimension")
    p.add_argument("file")

    p = sub.add_parser("poincare", help="Betti numbers of H_0 as a module")
    p.add_argument("file")
    p.add_argument("--trunc", type=int_at_least(0), default=4, help="number of resolution steps")

    p = sub.add_parser("annihilator", help="derived annihilator of a complex")
    p.add_argument("file")

    p = sub.add_parser("homotopy", help="solve dh + hd = f for an endomorphism file")
    p.add_argument("file")

    p = sub.add_parser("verify-action", help="verify a derived-action certificate file")
    p.add_argument("file")

    p = sub.add_parser("decompose", help="decompose into copies of a Koszul complex")
    p.add_argument("file")

    p = sub.add_parser("freeness", help="freeness of a module file over its algebra")
    p.add_argument("file")

    p = sub.add_parser("check", help="run a theorem checker on a bundle file")
    p.add_argument("--theorem", required=True,
                   choices=["question", "lemma32", "thm31", "thm41", "thm51", "prop44"])
    p.add_argument("file", nargs="?", help="bundle file (omit with --fixture)")
    p.add_argument("--fixture", help="run on a built-in fixture instead of a file")
    p.add_argument("--power", type=int_at_least(0), default=None,
                   help="prop44: the exponent c (default: the defect)")

    p = sub.add_parser("paper-examples", help="replay the bundled example fixtures")
    p.add_argument("--only", help="run a single fixture by name")

    p = sub.add_parser("koszul", help="emit a Koszul complex as a complex file")
    p.add_argument("--algebra", required=True, help="algebra file")
    p.add_argument("--vars", required=True,
                   help="comma-separated elements, e.g. 'x,y'")
    p.add_argument("--multiplicity", type=int_at_least(1), default=1)
    p.add_argument("--out", help="output path (default stdout)")
    return ap


def _emit(args, human_lines, report, failed: bool) -> int:
    for line in human_lines:
        print(line)
    if args.json:
        payload = serialize.dumps(report)
        if args.json == "-":
            sys.stdout.write(payload)
        else:
            with open(args.json, "w", encoding="utf-8") as fh:
                fh.write(payload)
    return 1 if failed else 0


def _read(args, path, loader, doc=None):
    """`loader` on the file at `path`, or on `doc` when that file is already loaded."""
    ctx = serialize.LoadContext(args.field, os.path.dirname(path), args.trunc_global)
    return loader(serialize.load(path) if doc is None else doc, ctx)


def cmd_validate(args) -> int:
    doc = serialize.load(args.file)
    kind = doc.get("kind")
    if kind in ("artinian", "monomial_quotient"):
        A = _read(args, args.file, serialize.algebra_from_dict, doc)
        rep = A.validate()
        lines = [f"algebra: {'valid' if rep.valid else 'INVALID'}"]
        for issue in rep.issues:
            lines.append(f"  {issue.axiom} at {issue.witness}: {issue.detail}")
        if rep.nilpotency_index is not None:
            lines.append(f"  nilpotency index: {rep.nilpotency_index}")
        return _emit(args, lines, rep.as_dict(), not rep.valid)
    if "ranks" in doc:
        F = _read(args, args.file, serialize.complex_from_dict, doc)
        issues = F.validate()
        lines = [f"complex: {'valid' if not issues else 'INVALID'}",
                 f"  minimal: {F.is_minimal()}"]
        lines += [f"  {i}" for i in issues]
        return _emit(args, lines, {"valid": not issues, "issues": issues,
                                   "minimal": F.is_minimal()}, bool(issues))
    if "generators" in doc and "relations" in doc:
        cert, F = _read(args, args.file, serialize.certificate_from_dict, doc)
        rep = verify_certificate(F, cert)
        lines = [f"certificate: {'verified' if rep.verified else 'FAILED'}"]
        return _emit(args, lines, rep.as_dict(), not rep.verified)
    raise LoadError("unrecognized document shape")


def cmd_homology(args) -> int:
    F = _read(args, args.file, serialize.complex_from_dict)
    lines = []
    if F.algebra.kind == "artinian":
        dims = homology_dims(F)
        for i in sorted(dims):
            lines.append(f"H_{i}: dim_k {dims[i]}")
        report = {"homology_dims": {str(i): d for i, d in dims.items()}}
    else:
        hilbert = graded_homology_dims(F)
        window = F.algebra.truncation
        report = {"homology_hilbert": {}, "window": window}
        for i in sorted(hilbert):
            hf = list(hilbert[i])
            lines.append(f"H_{i}: hilbert {hf} (up to degree {window})")
            report["homology_hilbert"][str(i)] = hf
    return _emit(args, lines, report, False)


def cmd_betti(args) -> int:
    F = _read(args, args.file, serialize.complex_from_dict)
    bt = betti(F)
    p = nonzero_range(bt)[1]
    degrees = f" (degrees {min(bt)}..{max(bt)})" if bt else ""
    lines = [f"betti: {[bt[i] for i in sorted(bt)]}{degrees}", f"proj_dim: {p}"]
    return _emit(args, lines, {"betti": {str(i): bt[i] for i in bt},
                               "proj_dim": None if p is MINUS_INFINITY else p}, False)


def cmd_poincare(args) -> int:
    doc = serialize.load(args.file)
    if "ranks" in doc:
        F = _read(args, args.file, serialize.complex_from_dict, doc)
        if F.algebra.kind != "artinian":
            raise LoadError("module Betti numbers need the Artinian backend")
        M = homology(F, F.low).module
    else:
        M = _read(args, args.file, serialize.module_from_dict, doc)
    bt = poincare_truncated(M, args.trunc)
    lines = [f"poincare: {list(bt)}"]
    return _emit(args, lines, {"betti": list(bt)}, False)


def cmd_annihilator(args) -> int:
    F = _read(args, args.file, serialize.complex_from_dict)
    ann = derived_annihilator(F)
    A = F.algebra
    lines = [f"derived annihilator: dimension {len(ann.basis)}"]
    for a in ann.basis:
        lines.append(f"  {A.element_to_str(a)}")
    report = {"basis": [A.element_to_str(a) for a in ann.basis]}
    if ann.window is not None:
        report["window"] = ann.window
        lines.append(f"(homogeneous elements searched up to degree {ann.window})")
    return _emit(args, lines, report, False)


def cmd_homotopy(args) -> int:
    h = solve_homotopy(_read(args, args.file, serialize.endo_from_dict))
    if h is None:
        lines = ["no homotopy exists (the linear system is infeasible)"]
        return _emit(args, lines, {"solvable": False}, True)
    lines = ["homotopy found; dh + hd = f verified exactly"]
    report = {"solvable": True,
              "witness": serialize.chain_map_to_dict(h)["maps"]}
    return _emit(args, lines, report, False)


def cmd_verify_action(args) -> int:
    cert, F = _read(args, args.file, serialize.certificate_from_dict)
    rep = verify_certificate(F, cert)
    lines = [f"certificate: {'verified' if rep.verified else 'FAILED'}"]
    for rc in rep.relation_checks:
        lines.append(f"  {rc.poly}: {rc.mode} {'ok' if rc.passed else 'FAIL'}")
    return _emit(args, lines, rep.as_dict(), not rep.verified)


def cmd_decompose(args) -> int:
    F = _read(args, args.file, serialize.complex_from_dict)
    result = koszul_decompose(F)
    A = F.algebra
    if isinstance(result, DecompositionObstruction):
        lines = ["no Koszul decomposition: " + result.note]
        return _emit(args, lines, {"decomposed": False, "needed": result.needed,
                                   "found_rank": result.found_rank,
                                   "note": result.note}, True)
    lines = [f"decomposed: multiplicity {result.multiplicity} over the sequence "
             + ", ".join(A.element_to_str(x) for x in result.elements)]
    return _emit(args, lines, {"decomposed": True,
                               "multiplicity": result.multiplicity,
                               "sequence": [A.element_to_str(x) for x in result.elements]},
                 False)


def cmd_freeness(args) -> int:
    M = _read(args, args.file, serialize.module_from_dict)
    free, rk = is_free(M)
    verdict = lemma43_freeness(M)
    agree = (free == verdict.free)
    lines = [f"nu: {nu(M)}",
             f"is_free: {free}" + (f" (rank {rk})" if free else ""),
             f"series criterion: {verdict.free} {verdict.betti_prefix} ({verdict.note})",
             f"oracles agree: {agree}"]
    return _emit(args, lines, {"nu": nu(M), "is_free": free,
                               "rank": rk if free else None,
                               "betti_prefix": list(verdict.betti_prefix),
                               "oracles_agree": agree}, not agree)


def cmd_check(args) -> int:
    if args.fixture:
        if args.fixture not in BUILDERS:
            raise LoadError(f"unknown fixture {args.fixture!r}; "
                            f"choose from {sorted(BUILDERS)}")
        bundle = BUILDERS[args.fixture](args.field)
    elif args.file:
        bundle = _read(args, args.file, serialize.bundle_from_dict)
    else:
        raise LoadError("give a bundle file or --fixture NAME")
    if bundle.F is None and args.theorem in ("question", "lemma32", "thm31", "prop44"):
        raise LoadError(f"the bundle holds no free complex, which --theorem {args.theorem} needs")
    an = Analysis(bundle)
    if args.theorem == "prop44":
        F = bundle.F
        c = args.power
        if c is None:
            p = an.proj_dim
            c = 0 if p is MINUS_INFINITY else p - F.low
        res = prop44_divisibility(F, c)
        lines = [f"divisibility by (1+t)^{c}: {'holds' if res.holds else 'FAILS'}"]
        if res.quotient is not None:
            lines.append(f"quotient coefficients: {list(res.quotient)}")
        return _emit(args, lines, {"holds": res.holds,
                                   "quotient": list(res.quotient) if res.quotient else None,
                                   "note": res.note}, not res.holds)
    checker = {"question": check_question, "lemma32": check_lemma32,
               "thm31": check_thm31, "thm41": check_thm41,
               "thm51": check_thm51}[args.theorem]
    rep = checker(an)
    lines = [f"{rep.checker}: {rep.verdict}"]
    for c in rep.checks:
        lines.append(f"  [{c.kind}] {c.name}: {c.status}"
                     + (f" ({c.detail})" if c.detail else ""))
    for cv in rep.caveats:
        lines.append(f"  caveat: {cv}")
    return _emit(args, lines, rep.as_dict(), rep.verdict == "fail")


def cmd_paper_examples(args) -> int:
    results, report = run_fixtures(args.field, only=args.only)
    lines = []
    for r in results:
        lines.append(f"[{'PASS' if r.passed else 'FAIL'}] {r.name}: {r.description}")
        for item in r.items:
            mark = "ok" if item.passed else "FAIL"
            lines.append(f"    {mark:4} [{item.provenance}] {item.name}"
                         + (f" -- {item.detail}" if item.detail else ""))
    failed = not report["all_passed"]
    return _emit(args, lines, report, failed)


def cmd_koszul(args) -> int:
    A = _read(args, args.algebra, serialize.algebra_from_dict)
    elements = [A.parse_element(s.strip()) for s in args.vars.split(",") if s.strip()]
    K = koszul(A, elements, multiplicity=args.multiplicity)
    doc = serialize.complex_to_dict(K.complex)
    payload = serialize.dumps(doc)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(payload)
    return 0


COMMANDS = {
    "validate": cmd_validate,
    "homology": cmd_homology,
    "betti": cmd_betti,
    "poincare": cmd_poincare,
    "annihilator": cmd_annihilator,
    "homotopy": cmd_homotopy,
    "verify-action": cmd_verify_action,
    "decompose": cmd_decompose,
    "freeness": cmd_freeness,
    "check": cmd_check,
    "paper-examples": cmd_paper_examples,
    "koszul": cmd_koszul,
}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except (LoadError, NotArtinianError, TruncationError, KeyError,
            ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # a crash must not read as a failed check (exit 1)
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
