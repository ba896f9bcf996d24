"""Mutated copies of exported fixture files never crash the CLI.

Each example takes the files of a fixture written by `export_fixture` (or a
module file), changes one value of one of them (drops it, retypes it,
shortens a list or moves an integer just past its range) and runs a command
that reads that file.  Every outcome must be a verdict or an input error:
exit 0, 1 or 2 and no traceback, never the internal-error exit 3.
"""

import contextlib
import io
import json
import os
import shutil
import tempfile

import pytest
from hypothesis import given, strategies as st

from derfree import serialize
from derfree.cli import main
from derfree.field import GF101
from derfree.fixtures import chain_algebra, export_fixture
from derfree.modules import free_module

FIXTURES = ("ex5.5", "ex5.6", "ex5.7", "ex2.3", "ex4.5")
THEOREMS = ("question", "lemma32", "thm31", "thm41", "thm51", "prop44")
# commands that read a file directly, by its suffix; every file of an exported
# fixture is also read through the bundle by `check`
DIRECT = {"_A.json": (["validate"],), "_B.json": (["validate"],),
          "_F.json": (["validate"], ["homology"], ["betti"]),
          "_cert.json": (["validate"], ["verify-action"]), "_bundle.json": (),
          "_module.json": (["freeness"], ["poincare"])}
# replacements; an integer moves at most 2 past its range, so no example
# computes at a large truncation or rank
RETYPED = (-1, 2, "x", "x^", [1, 2], None, {"a": "b"})


def mutate(doc, pick):
    """Change one value of `doc` in place; `pick(options)` chooses each step.

    Returns (location, change) for the failure message.
    """
    loc, node = [], doc
    while True:
        children = sorted(node) if isinstance(node, dict) else \
            list(range(len(node))) if isinstance(node, list) else []
        if not children or (loc and pick((False, True))):
            break
        loc.append(pick(children))
        node = node[loc[-1]]
    changes = [("drop",)] + [("set", v) for v in RETYPED]
    if type(node) is int:
        changes.append(("set", node + 2))
    if isinstance(node, list) and node:
        changes.append(("set", node[:-1]))
    change = pick(changes)
    parent = doc
    for k in loc[:-1]:
        parent = parent[k]
    if change[0] == "drop":
        del parent[loc[-1]]
    else:
        parent[loc[-1]] = change[1]
    return loc, change


def run_mutated(source_dir, pick):
    """Mutate one file of `source_dir` in a copy of it and run a command that
    reads that file; returns (exit code, output, description)."""
    files = sorted(os.listdir(source_dir))
    fname = pick(files)
    with open(os.path.join(source_dir, fname), encoding="utf-8") as fh:
        doc = json.load(fh)
    loc, change = mutate(doc, pick)
    suffix = fname[fname.rindex("_"):]
    argvs = [argv + [fname] for argv in DIRECT[suffix]]
    argvs += [["check", "--theorem", t, f] for t in THEOREMS for f in files
              if f.endswith("_bundle.json")]
    argv = pick(argvs)
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(source_dir, tmp, dirs_exist_ok=True)
        with open(os.path.join(tmp, fname), "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        argv[-1] = os.path.join(tmp, argv[-1])
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            code = main(argv)
    return code, out.getvalue(), f"{fname} {loc} {change!r}: {argv[:-1]}"


@pytest.fixture(scope="module")
def exported(tmp_path_factory):
    root = tmp_path_factory.mktemp("exported")
    return {name: os.path.dirname(export_fixture(name, str(root / name.replace(".", "_"))))
            for name in FIXTURES}


@pytest.fixture(scope="module")
def module_dir(tmp_path_factory):
    B = chain_algebra(GF101, 4)
    root = tmp_path_factory.mktemp("module")
    serialize.save(str(root / "M_module.json"), serialize.module_to_dict(free_module(B, 2)))
    return str(root)


@given(data=st.data())
def test_mutated_fixture_files_exit_0_1_or_2(exported, data):
    def pick(options):
        return data.draw(st.sampled_from(options))

    code, output, what = run_mutated(exported[pick(FIXTURES)], pick)
    assert code in (0, 1, 2) and "Traceback" not in output, (what, output[-1500:])


@given(data=st.data())
def test_mutated_module_files_exit_0_1_or_2(module_dir, data):
    def pick(options):
        return data.draw(st.sampled_from(options))

    code, output, what = run_mutated(module_dir, pick)
    assert code in (0, 1, 2) and "Traceback" not in output, (what, output[-1500:])
