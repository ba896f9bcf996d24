"""Pinned outputs: any change to the bytes of these reports is a regression.

The cases cover the three consumers of the homotopy system -- the derived
annihilator (with its Artinian witnesses), the Koszul decomposition and the
homotopy solver -- on both backends and both fields, the chain-map space
behind ``tensor_model_search``, and the induced actions on homology: the
A-action on each Artinian H_i, the variable actions on each graded H_i and
the certificate generators of ex5.7 projected to homology.  Kernels and
particular solutions depend on the order of the unknowns, so a witness or a
basis that moves shows up here.  The theorem checkers are pinned through
``paper-examples`` in full and through every ``check --fixture`` report
that exits 0 or 1, by SHA-256 digest.

Regenerate ``golden_reports.json`` (only when an output change is intended)
with ``PYTHONPATH=src python tests/test_golden.py``.
"""

import hashlib
import json
import os
import random
import sys
from functools import lru_cache

import pytest
from hypothesis import given
from hypothesis import strategies as st

from derfree import serialize
from derfree.actions import induced_action_on_homology
from derfree.checkers import tensor_model_search
from derfree.cli import main
from derfree.complexes import AMatrix, graded_homology, homology, random_transport, scalar_endo
from derfree.field import GF101, QQ
from derfree.fixtures import BUILDERS, CATALOG, build_ex56, build_ex57
from derfree.homotopy import derived_annihilator
from derfree.koszul import koszul
from derfree.linalg import Matrix
from derfree.monomial import monomial_algebra
from test_complexes import _rescaled

CLI_COMMANDS = ("annihilator", "decompose", "homotopy", "paper-examples")
THEOREMS = ("question", "lemma32", "thm31", "thm41", "thm51", "prop44")
GOLDEN = os.path.join(os.path.dirname(__file__), "golden_reports.json")
FIELDS = {"gfp101": (GF101, "gfp:101"), "rational": (QQ, "rational")}
# (name, variables, ideal, truncation, artinize, Koszul sequence, multiplicity)
COMPLEXES = (
    next(s for s in CATALOG if s[0] == "chain-z3") + (True, "xy", 2),
    ("sq3", "xyz", ("x^2", "y^2", "z^2"), 6, False, "xy", 2),
    ("cube3", "xyz", ("x^3", "y^3", "z^3", "x*y*z"), 8, False, "xy", 1),
)


def _complex(field, spec, seed):
    _, variables, ideal, trunc, artinize, seq, mult = spec
    A = monomial_algebra(field, list(variables), list(ideal), trunc)
    if artinize:
        A = A.artinize()
    K = koszul(A, [A.parse_element(v) for v in seq], multiplicity=mult).complex
    # no input entry is a bare monomial: the Artinian one is a dense
    # conjugate, the graded ones are rescaled
    rng = random.Random(seed)
    return random_transport(K, rng) if artinize else _rescaled(K, rng)


def _cli_cases(tmp_dir):
    """(case name, argv) for every pinned CLI report; input files go to tmp_dir."""
    cases = []
    for fname, (field, flag) in FIELDS.items():
        fargs = ["--field", flag]
        for spec in COMPLEXES:
            name = spec[0]
            F = _complex(field, spec, seed=7)
            A = F.algebra
            path = os.path.join(tmp_dir, f"{name}-{fname}.json")
            serialize.save(path, serialize.complex_to_dict(F))
            commands = ["annihilator", "decompose"] if spec[4] else ["annihilator"]
            for cmd in commands:
                cases.append((f"{cmd}/{name}/{fname}", fargs + [cmd, path]))
            # x*id is null-homotopic on the Koszul complex of (x, y); z*id is not
            for el in ("x", "z"):
                doc = {"complex": serialize.complex_to_dict(F)}
                doc.update(serialize.chain_map_to_dict(scalar_endo(F, A.parse_element(el))))
                epath = os.path.join(tmp_dir, f"{name}-{fname}-{el}id.json")
                serialize.save(epath, doc)
                cases.append((f"homotopy/{name}/{el}id/{fname}", fargs + ["homotopy", epath]))
        cases.append((f"paper-examples/{fname}", fargs + ["paper-examples"]))
    return cases


def _run_cli(argv, tmp_dir) -> str:
    out = os.path.join(tmp_dir, "report.json")
    code = main(["--json", out] + argv)
    with open(out, encoding="utf-8") as fh:
        return f"exit {code}\n" + fh.read()


def _check_digests(tmp_dir) -> dict:
    """SHA-256 of every ``check --fixture`` report that exits 0 or 1, with its exit code."""
    out = {}
    for name in sorted(BUILDERS):
        for theorem in THEOREMS:
            for fname, (_, flag) in FIELDS.items():
                path = os.path.join(tmp_dir, "report.json")
                if os.path.exists(path):
                    os.remove(path)
                code = main(["--json", path, "--field", flag, "check",
                             "--theorem", theorem, "--fixture", name])
                if code in (0, 1):
                    with open(path, "rb") as fh:
                        digest = hashlib.sha256(fh.read()).hexdigest()
                    out[f"check/{name}/{theorem}/{fname}"] = f"exit {code}\nsha256 {digest}"
    return out


def _tensor_model_report(field) -> str:
    b = build_ex56(field)
    A = b.A
    c1 = AMatrix.from_strings(A, [["-y", "0", "0"], ["x", "-y", "0"], ["0", "x", "-y"]])
    c2 = AMatrix.from_strings(A, [["-z", "0", "0"], ["y", "-z", "0"], ["0", "y", "-z"]])
    iso = tensor_model_search(b.F, [c1, c2], random.Random(19))
    assert iso is not None
    return serialize.dumps(serialize.chain_map_to_dict(iso))


def _witness_report(field) -> str:
    """The Artinian annihilator's basis with its witness homotopies."""
    F = _complex(field, COMPLEXES[0], seed=7)
    A = F.algebra
    ann = derived_annihilator(F)
    return serialize.dumps([
        {"element": A.element_to_str(a),
         "witness": {str(d): m.to_strings() for d, m in w.maps}}
        for a, w in zip(ann.basis, ann.witnesses)])


def _matrix_strings(M) -> list:
    return [[M.field.to_str(x) for x in row] for row in M.dense_rows()]


def _homology_action_report(field) -> str:
    """The A-action on each H_i of the Artinian complex, on its representative basis."""
    F = _complex(field, COMPLEXES[0], seed=7)
    return serialize.dumps({str(i): [_matrix_strings(a) for a in homology(F, i).module.action]
                            for i in F.degrees()})


def _graded_homology_action_report(spec):
    """The variable actions on each graded H_i, degree by degree."""
    def report(field) -> str:
        F = _complex(field, spec, seed=7)
        out = {}
        for i in F.degrees():
            H = graded_homology(F, i)
            out[str(i)] = {"dims": list(H.dims),
                           "actions": [[_matrix_strings(m) for m in per]
                                       for per in H.var_actions]}
        return serialize.dumps(out)
    return report


def _induced_action_report(field) -> str:
    """The certificate generators of ex5.7 projected to each H_i."""
    b = build_ex57(field)
    action = induced_action_on_homology(b.F, b.certificate)
    return serialize.dumps({str(i): {name: _matrix_strings(m) for name, m in mats}
                            for i, mats in action.gen_matrices})


API_REPORTS = {"tensor_model_search/ex5.6": _tensor_model_report,
               "annihilator_witnesses/chain-z3": _witness_report,
               "homology_actions/chain-z3": _homology_action_report,
               "graded_homology_actions/sq3": _graded_homology_action_report(COMPLEXES[1]),
               "graded_homology_actions/cube3": _graded_homology_action_report(COMPLEXES[2]),
               "induced_actions/ex5.7": _induced_action_report}


def _all_reports(tmp_dir) -> dict:
    out = {name: _run_cli(argv, tmp_dir) for name, argv in _cli_cases(tmp_dir)}
    out.update(_check_digests(tmp_dir))
    for fname, (field, _) in FIELDS.items():
        for prefix, report in API_REPORTS.items():
            out[f"{prefix}/{fname}"] = report(field)
    return out


def _golden() -> dict:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def test_cli_reports_are_pinned(tmp_path, capsys):
    expected = _golden()
    got = {name: _run_cli(argv, str(tmp_path)) for name, argv in _cli_cases(str(tmp_path))}
    capsys.readouterr()
    assert sorted(got) == sorted(k for k in expected if k.split("/")[0] in CLI_COMMANDS)
    for name in sorted(got):
        assert got[name] == expected[name], name


def test_check_reports_are_pinned(tmp_path, capsys):
    expected = {k: v for k, v in _golden().items() if k.startswith("check/")}
    got = _check_digests(str(tmp_path))
    capsys.readouterr()
    assert sorted(got) == sorted(expected)
    for name in sorted(got):
        assert got[name] == expected[name], name


@pytest.mark.parametrize("prefix", sorted(API_REPORTS))
@pytest.mark.parametrize("fname", sorted(FIELDS))
def test_api_report_is_pinned(prefix, fname):
    got = API_REPORTS[prefix](FIELDS[fname][0])
    assert got == _golden()[f"{prefix}/{fname}"]


# -- the module-owned graded actions against the variable actions, vector by vector --

def reference_element_action(M, el, d):
    """The action of el on M_d column by column: each basis vector of M_d goes
    through one variable action at a time, and the scaled images are summed."""
    f = M.algebra.field
    n, m = M.dim_at(d), M.dim_at(d + M.algebra.el_degree(el))
    cols = []
    for j in range(n):
        col = [f.zero] * m
        for mono, c in el:
            img, deg = tuple(f.one if i == j else f.zero for i in range(n)), d
            for v, e in enumerate(mono):
                for _ in range(e):
                    img, deg = M.act(v, deg).apply(img), deg + 1
            col = [f.add(a, f.mul(c, b)) for a, b in zip(col, img)]
        cols.append(col)
    return Matrix.from_columns(f, cols, nrows=m)


@lru_cache(maxsize=None)
def _graded_homologies(field, spec) -> tuple:
    """The graded H_i of a golden graded complex, built once per field and spec."""
    F = _complex(field, spec, seed=7)
    return tuple(graded_homology(F, i) for i in F.degrees())


@pytest.mark.parametrize("field", [GF101, QQ], ids=["GF101", "QQ"])
@pytest.mark.parametrize("spec", [s for s in COMPLEXES if not s[4]], ids=lambda s: s[0])
@given(data=st.data())
def test_act_element_matches_the_variable_products(field, spec, data):
    H = data.draw(st.sampled_from(_graded_homologies(field, spec)))
    A = H.algebra
    da = data.draw(st.integers(0, H.window))
    d = data.draw(st.integers(0, H.window - da))
    scalar = st.builds(lambda a, b: field.div(field.from_int(a), field.from_int(b)),
                       st.sampled_from([0, 0, 1, 1, -1, 2, 37]), st.integers(1, 3))
    el = A.from_coords([data.draw(scalar) for _ in A.basis(da)], da)
    # the zero element has degree 0, so it maps M_d to itself
    assert H.act_element(el, d) == reference_element_action(H, el, d)


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        stdout = sys.stdout
        sys.stdout = open(os.devnull, "w")
        try:
            reports = _all_reports(tmp)
        finally:
            sys.stdout.close()
            sys.stdout = stdout
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(reports, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(reports)} reports to {GOLDEN}")
