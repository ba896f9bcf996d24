"""Self-test of the benchmark at tiny sizes.

Run from the repository root:

    python3 -m pytest -q -p no:cacheprovider perfbench

It checks that traced counts repeat exactly, that every metric named in
BENCHMARK.json is emitted with its unit, that a planted wrong expected
answer is counted as a failed op, and that the benchmark refuses to run
without the derfree sources.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (pins BLAS threads before numpy loads)

workloads = run.import_program()
import tracing  # noqa: E402

ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY_ROUNDTRIP = (("m2-3vars", 2, 1), ("chain-z3", 3, 1))
TINY_GRADED = (("sq3", 2, 1),)
TINY_CLI = ((1, 2),)
TINY_CLI_GRADED = (("sq3", 2, 1),)


@pytest.fixture
def workdir():
    run.RESULTS.mkdir(exist_ok=True)
    path = tempfile.mkdtemp(prefix="selftest-", dir=run.RESULTS)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def tiny(name, workdir, rounds=1):
    if name == "roundtrip":
        return workloads.build_roundtrip(3, TINY_ROUNDTRIP, rounds=rounds)
    if name == "defect4":
        return workloads.build_defect4(3, count=1, b=1)
    if name == "graded":
        return workloads.build_graded(3, TINY_GRADED, rounds=1)
    return workloads.build_cli_rational(3, workdir, TINY_CLI, copies=1,
                                        graded_cells=TINY_CLI_GRADED)


def plant_wrong(name, op):
    """The same op with an expected answer that is off by one."""
    e = op.expected
    if op.label == "paper-examples":
        return op
    if name == "roundtrip":
        return dataclasses.replace(op, expected=(e[0], e[1] + 1))
    if name == "defect4":
        return dataclasses.replace(op, expected=(e[0], e[1], e[2] + 1))
    if name == "graded":
        return dataclasses.replace(op, expected=e[:2] + (e[2] + 1,) + e[3:])
    p, b, A, want = e[3]
    if A.kind == "graded":  # every graded report carries the window
        hilbert, dim, window = want
        return dataclasses.replace(op, expected=e[:3] + ((p, b, A, (hilbert, dim, window + 1)),))
    return dataclasses.replace(op, expected=e[:3] + ((p, b + 1, A, want),))


def counts(metrics):
    return {k: v["value"] for k, v in metrics.items() if v["unit"] == "count"}


# layers each tiny workload must reach; a zero here means a wrapper missed a binding
REACHED = {
    "roundtrip": ("complexes.AMatrix.mul.calls", "algebra.ArtinAlgebra.el_mul.calls",
                  "checkers.koszul_decompose.total_s", "homotopy.derived_annihilator.self_s"),
    "graded": ("monomial.MonomialAlgebra.mult_map.calls", "linalg.solve_multi.calls",
               "homotopy.derived_annihilator.self_s", "complexes.graded_homology.self_s"),
    "cli-rational": ("monomial.MonomialAlgebra.mult_map.calls", "linalg.solve_multi.calls",
                     "complexes.graded_homology.self_s", "serialize.load.self_s",
                     "serialize.dumps.self_s", "weyl.koszul_lift.calls"),
}


@pytest.mark.parametrize("name", sorted(REACHED))
def test_traced_counts_repeat_exactly(name, workdir):
    first, ops = run.traced(tiny(name, workdir), {})
    second, _ = run.traced(tiny(name, workdir), {})
    assert not [o for o in ops if "error" in o]
    assert counts(first) == counts(second)
    assert all(first[k]["value"] > 0 for k in REACHED[name] + ("linalg.rref.calls",))


def test_every_metric_is_emitted_with_its_unit(workdir):
    rounds = tiny("roundtrip", workdir, rounds=6)  # 12 distinct ops, enough for a tail
    e2e, ops = run.untraced(rounds, 1, 0.5, {})
    assert len({(o["round"], o["pos"]) for o in ops}) > run.TAIL_BEYOND
    assert {k: v["unit"] for k, v in e2e.items()} == \
        {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    layers, _ = run.traced(rounds, {})
    assert [(k, v["unit"]) for k, v in layers.items()] == \
        [(m["name"], m["unit"]) for m in BENCH["per_layer"]]
    assert tracing.metric_names() == [(m["name"], m["unit"]) for m in BENCH["per_layer"]]
    assert {w["name"] for w in BENCH["workloads"]} <= set(run.WORKLOADS)


@pytest.mark.parametrize("name", ["roundtrip", "defect4", "graded", "cli-rational"])
def test_planted_wrong_answer_is_a_failed_op(name, workdir):
    rounds = tiny(name, workdir)
    _, ops = run.untraced(rounds, 0, 0.5, {})
    assert not [o for o in ops if "error" in o]
    planted = [[plant_wrong(name, op) for op in r] for r in rounds]
    _, ops = run.untraced(planted, 0, 0.5, {})
    assert [o for o in ops if "error" in o]


def test_refuses_to_run_without_the_sources(workdir):
    shutil.copy(ROOT / "BENCHMARK.json", workdir)
    shutil.copytree(HERE, Path(workdir) / HERE.name,
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    out = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "graded",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=workdir, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
