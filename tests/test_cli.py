import json
import os

import pytest

from derfree import serialize
from derfree.cli import main
from derfree.field import GF101
from derfree.fixtures import build_ex55, chain_algebra, square_zero_plane


@pytest.fixture
def ex55_files(tmp_path):
    b = build_ex55(GF101)
    paths = {}
    paths["A"] = str(tmp_path / "A.json")
    serialize.save(paths["A"], serialize.algebra_to_dict(b.A))
    paths["F"] = str(tmp_path / "F.json")
    serialize.save(paths["F"], serialize.complex_to_dict(b.F))
    paths["cert"] = str(tmp_path / "cert.json")
    serialize.save(paths["cert"], serialize.certificate_to_dict(b.certificate, b.F))
    paths["bundle"] = str(tmp_path / "bundle.json")
    serialize.save(paths["bundle"], {
        "name": "ex5.5", "algebra_A": "A.json",
        "algebra_B": serialize.algebra_to_dict(b.B),
        "images": {"x": "u^2", "y": "u^3"},
        "complex": "F.json", "certificate": "cert.json"})
    return paths


def test_validate_algebra(ex55_files, capsys):
    assert main(["validate", ex55_files["A"]]) == 0
    assert "valid" in capsys.readouterr().out


def test_validate_complex_and_certificate(ex55_files):
    assert main(["validate", ex55_files["F"]]) == 0
    assert main(["validate", ex55_files["cert"]]) == 0


def test_betti_and_homology(ex55_files, capsys):
    assert main(["betti", ex55_files["F"]]) == 0
    out = capsys.readouterr().out
    assert "[2, 2]" in out and "proj_dim: 1" in out
    assert main(["homology", ex55_files["F"]]) == 0


@pytest.mark.parametrize("algebra", [
    {"kind": "monomial_quotient", "vars": ["x"], "ideal": ["x^2"], "truncation": 3},
    {"kind": "artinian", "labels": ["1", "x"],
     "constants": [[0, 0, 0, 1], [0, 1, 1, 1], [1, 0, 1, 1]]}], ids=["graded", "artinian"])
def test_betti_of_the_zero_complex_is_empty(tmp_path, capsys, algebra):
    p = str(tmp_path / "zero.json")
    serialize.save(p, {"ranks": [], "differentials": [], "algebra": algebra})
    out = str(tmp_path / "betti.json")
    assert main(["--json", out, "betti", p]) == 0
    assert capsys.readouterr().out == "betti: []\nproj_dim: -inf\n"
    assert json.load(open(out)) == {"betti": {}, "proj_dim": None}


def test_annihilator_and_decompose_exit_codes(ex55_files, capsys):
    assert main(["annihilator", ex55_files["F"]]) == 0
    # decomposition is obstructed on this fixture: exit 1
    assert main(["decompose", ex55_files["F"]]) == 1


def test_check_theorem_on_bundle(ex55_files, capsys):
    assert main(["check", "--theorem", "thm51", ex55_files["bundle"]]) == 0
    out = capsys.readouterr().out
    assert "thm51: pass" in out


def test_check_prop44_on_bundle(ex55_files, capsys):
    assert main(["check", "--theorem", "prop44", "--power", "0",
                 ex55_files["bundle"]]) == 0


def test_check_fixture_thm41(capsys):
    assert main(["check", "--theorem", "thm41", "--fixture", "nagata"]) == 0


def test_paper_examples_single(capsys, tmp_path):
    out_json = str(tmp_path / "rep.json")
    assert main(["--json", out_json, "paper-examples", "--only", "ex5.5"]) == 0
    out = capsys.readouterr().out
    assert "[PASS] ex5.5" in out
    data = json.load(open(out_json))
    assert data["all_passed"] is True


def test_koszul_emits_complex(tmp_path, ex55_files):
    out = str(tmp_path / "K.json")
    assert main(["koszul", "--algebra", ex55_files["A"], "--vars", "x,y",
                 "--out", out]) == 0
    doc = serialize.load(out)
    assert doc["ranks"] == [1, 2, 1]
    K = serialize.complex_from_dict(doc, serialize.LoadContext(GF101))
    assert K.validate() == []


def test_homotopy_solve_command(tmp_path, ex55_files):
    b = build_ex55(GF101)
    U = b.certificate.generator("u")
    U3 = U.compose(U).compose(U)
    from derfree.complexes import scalar_endo
    f = U3.sub(scalar_endo(b.F, b.A.parse_element("y")))
    doc = {"complex": serialize.complex_to_dict(b.F)}
    doc.update(serialize.chain_map_to_dict(f))
    p = str(tmp_path / "endo.json")
    serialize.save(p, doc)
    assert main(["homotopy", p]) == 0
    # an unsolvable one: x*id
    g = scalar_endo(b.F, b.A.parse_element("x"))
    doc2 = {"complex": serialize.complex_to_dict(b.F)}
    doc2.update(serialize.chain_map_to_dict(g))
    p2 = str(tmp_path / "endo2.json")
    serialize.save(p2, doc2)
    assert main(["homotopy", p2]) == 1


def test_verify_action_command(ex55_files):
    assert main(["verify-action", ex55_files["cert"]]) == 0


def test_bad_relation_polynomial_is_rejected_at_its_key(tmp_path, capsys):
    b = build_ex55(GF101)
    cert = serialize.certificate_to_dict(b.certificate, b.F)
    cert["relations"][0]["poly"] = "u^2 - q"
    p = str(tmp_path / "cert.json")
    serialize.save(p, cert)
    assert main(["verify-action", p]) == 2
    err = capsys.readouterr().err
    assert "relations[0].poly: unknown name 'q' at position 5" in err
    assert "Traceback" not in err


def test_freeness_command(tmp_path):
    from derfree.modules import free_module
    from derfree.monomial import monomial_algebra
    B = chain_algebra(GF101, 4)
    M = free_module(B, 2)
    p = str(tmp_path / "mod.json")
    serialize.save(p, serialize.module_to_dict(M))
    assert main(["freeness", p]) == 0


def test_malformed_input_exits_2(tmp_path, capsys):
    p = str(tmp_path / "broken.json")
    with open(p, "w") as fh:
        fh.write("{ not json")
    assert main(["validate", p]) == 2
    assert "error:" in capsys.readouterr().err


def test_field_mismatch_loading_rational_fixture_under_gfp(tmp_path, capsys):
    doc = {"field": {"field": "rational"}, "kind": "monomial_quotient",
           "vars": ["x"], "ideal": ["x^2"], "truncation": 4}
    p = str(tmp_path / "alg.json")
    serialize.save(p, doc)
    from derfree.serialize import document_field, LoadError
    with pytest.raises(LoadError):
        document_field(serialize.load(p), GF101)


def test_paper_examples_all_and_determinism(tmp_path, capsys):
    j1 = str(tmp_path / "r1.json")
    j2 = str(tmp_path / "r2.json")
    assert main(["--json", j1, "paper-examples"]) == 0
    assert main(["--json", j2, "paper-examples"]) == 0
    assert open(j1, "rb").read() == open(j2, "rb").read()


def test_exported_fixture_bundles_run_through_check(tmp_path):
    from derfree.fixtures import export_fixture
    for name, theorem, expected in (("ex5.5", "thm51", 0), ("ex5.6", "thm51", 0),
                                    ("ex2.3", "lemma32", 0)):
        bundle = export_fixture(name, str(tmp_path / name.replace(".", "_")))
        assert main(["check", "--theorem", theorem, bundle]) == expected


def test_bundle_field_mismatch_is_an_input_error(tmp_path, capsys):
    from derfree.fixtures import export_fixture
    from derfree.field import QQ
    bundle = export_fixture("ex5.5", str(tmp_path / "qq"), field=QQ)
    assert main(["check", "--theorem", "thm51", bundle]) == 2
    assert "field mismatch" in capsys.readouterr().err


def test_certificate_paths_resolve_from_the_certificate_directory(tmp_path, ex55_files):
    """A bundle whose certificate lives in a subdirectory and names its complex
    relative to itself gives the report of the flat layout."""
    b = build_ex55(GF101)
    sub = tmp_path / "nested" / "sub"
    sub.mkdir(parents=True)
    serialize.save(str(sub / "F.json"), serialize.complex_to_dict(b.F))
    cert = serialize.certificate_to_dict(b.certificate, b.F)
    cert["complex"] = "F.json"
    serialize.save(str(sub / "cert.json"), cert)
    bundle = json.load(open(ex55_files["bundle"]))
    bundle.update({"algebra_A": serialize.algebra_to_dict(b.A), "complex": None,
                   "certificate": "sub/cert.json"})
    nested = str(tmp_path / "nested" / "bundle.json")
    serialize.save(nested, bundle)
    assert main(["verify-action", str(sub / "cert.json")]) == 0
    reports = []
    for path in (ex55_files["bundle"], nested):
        out = str(tmp_path / "report.json")
        assert main(["--json", out, "check", "--theorem", "question", path]) == 0
        reports.append(open(out, "rb").read())
    assert reports[0] == reports[1]


@pytest.mark.parametrize("artinian", [False, True], ids=["graded", "artinian"])
def test_differential_of_the_wrong_shape_exits_2(tmp_path, capsys, artinian):
    from derfree.monomial import monomial_algebra
    A = monomial_algebra(GF101, ["x", "y"], ["x^2", "x*y", "y^2"], 4)
    # ranks [1, 1] need a 1x1 differential; this row has two entries
    doc = {"algebra": serialize.algebra_to_dict(A.artinize() if artinian else A),
           "ranks": [1, 1], "differentials": [[["x", "y"]]]}
    p = str(tmp_path / "bad_shape.json")
    serialize.save(p, doc)
    assert main(["homology", p]) == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err and "1x1" in captured.err
    assert "Traceback" not in captured.out + captured.err


def test_structure_constant_outside_the_labels_exits_2(tmp_path, capsys):
    from derfree.monomial import monomial_algebra
    A = monomial_algebra(GF101, ["x"], ["x^3"], 4).artinize()
    alg = serialize.algebra_to_dict(A)
    alg["constants"].append([0, 1, len(alg["labels"]), 1])  # basis index past the labels
    p = str(tmp_path / "bad_constant.json")
    serialize.save(p, {"algebra": alg, "ranks": [1, 1], "differentials": [[["0"]]]})
    assert main(["homology", p]) == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err and "constants[" in captured.err
    assert "Traceback" not in captured.out + captured.err


@pytest.mark.parametrize("expr", ["x + q", "x^", 5])
def test_bad_algebra_generator_exits_2_and_names_its_key(tmp_path, capsys, expr):
    A = square_zero_plane(GF101)
    alg = serialize.algebra_to_dict(A)
    alg["generators"] = {"u": "x + 2*y", "v": expr}
    p = str(tmp_path / "bad_generator.json")
    serialize.save(p, {"algebra": alg, "ranks": [1, 1], "differentials": [[["u"]]]})
    assert main(["homology", p]) == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err and "algebra generators" in captured.err
    assert "Traceback" not in captured.out + captured.err


@pytest.mark.parametrize("command", ["validate", "homology", "annihilator"])
def test_top_level_array_exits_2(tmp_path, capsys, command):
    p = str(tmp_path / "array.json")
    with open(p, "w") as fh:
        fh.write("[1, 2, 3]\n")
    assert main([command, p]) == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err and "JSON object" in captured.err
    assert "Traceback" not in captured.out + captured.err


@pytest.mark.parametrize("differentials, where", [(5, "differentials:"),
                                                  ([5], "differentials[0]"),
                                                  ([["x"]], "differentials[0]"),
                                                  ([[[5]]], "differentials[0]")],
                         ids=["number", "list-of-number", "row-not-a-list", "entry-not-a-string"])
def test_differentials_that_are_not_row_lists_exit_2(tmp_path, capsys, differentials, where):
    from derfree.monomial import monomial_algebra
    A = monomial_algebra(GF101, ["x"], ["x^3"], 4).artinize()
    p = str(tmp_path / "bad_differentials.json")
    serialize.save(p, {"algebra": serialize.algebra_to_dict(A), "ranks": [1, 1],
                       "differentials": differentials})
    assert main(["homology", p]) == 2
    captured = capsys.readouterr()
    assert captured.err.count("error:") == 1 and where in captured.err
    assert "Traceback" not in captured.out + captured.err


def test_endomorphism_entry_that_is_not_a_string_exits_2(tmp_path, capsys, ex55_files):
    doc = {"complex": "F.json", "maps": {"0": [[5, "0"], ["0", "0"]]}}
    p = os.path.join(os.path.dirname(ex55_files["F"]), "endo_bad.json")
    serialize.save(p, doc)
    assert main(["homotopy", p]) == 2
    captured = capsys.readouterr()
    assert captured.err.count("error:") == 1 and "maps['0']" in captured.err
    assert "Traceback" not in captured.out + captured.err


def test_a_reference_that_is_neither_path_nor_object_names_its_key(capsys, ex55_files):
    bundle = serialize.load(ex55_files["bundle"])
    bundle["algebra_A"] = 5
    p = os.path.join(os.path.dirname(ex55_files["bundle"]), "bad_reference.json")
    serialize.save(p, bundle)
    assert main(["check", "--theorem", "thm51", p]) == 2
    captured = capsys.readouterr()
    assert captured.err.count("error:") == 1 and "algebra_A" in captured.err
    assert "Traceback" not in captured.out + captured.err


@pytest.mark.parametrize("exc", [RuntimeError("boom"), AssertionError("boom")],
                         ids=["RuntimeError", "AssertionError"])
def test_an_internal_error_exits_3(ex55_files, capsys, monkeypatch, exc):
    from derfree import cli

    def crash(args):
        raise exc

    monkeypatch.setitem(cli.COMMANDS, "homology", crash)
    assert main(["homology", ex55_files["F"]]) == 3
    err = capsys.readouterr().err
    assert f"internal error: {type(exc).__name__}: boom" in err.splitlines()[0]
    # a failed check still exits 1
    assert main(["decompose", ex55_files["F"]]) == 1


def test_every_fixture_and_theorem_exits_0_1_or_2(capsys):
    """A theorem that does not apply to a fixture is an input error, never a crash."""
    from derfree.fixtures import BUILDERS

    codes = {}
    for name in sorted(BUILDERS):
        for theorem in ("question", "lemma32", "thm31", "thm41", "thm51", "prop44"):
            for field in ("gfp:101", "rational"):
                code = main(["--field", field, "check", "--theorem", theorem,
                             "--fixture", name])
                captured = capsys.readouterr()
                assert "Traceback" not in captured.out + captured.err, (name, theorem, field)
                codes[(name, theorem, field)] = code
    assert len(codes) == 8 * 6 * 2
    assert {k: c for k, c in codes.items() if c not in (0, 1, 2)} == {}
    # module-only fixtures hold no free complex; prop44 needs the Artinian backend
    assert codes[("nagata", "question", "rational")] == 2
    assert codes[("ex2.3", "prop44", "gfp:101")] == 2


def test_main_shares_one_parser_without_carrying_state_between_calls(tmp_path, capsys):
    """A, B, A in one process: each call reads only its own options."""
    from derfree.field import QQ
    from derfree.koszul import koszul
    from derfree.monomial import monomial_algebra
    A = monomial_algebra(QQ, ["x", "y"], ["x^2", "y^3"], 6)
    path = str(tmp_path / "K.json")
    serialize.save(path, serialize.complex_to_dict(koszul(A, [A.parse_element("x")]).complex))
    out = str(tmp_path / "a.json")
    argv_a = ["--field", "rational", "--trunc", "4", "--json", out, "homology", path]
    argv_b = ["--json", "-", "homology", path]  # gfp:101 and the file's truncation
    reports = []
    for argv in (argv_a, argv_b, argv_a):
        assert main(argv) == 0
        if argv is argv_a:
            reports.append(open(out, "rb").read())
        else:
            stdout = capsys.readouterr().out
            assert json.loads(stdout[stdout.index("{"):])["window"] == 6
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["window"] == 4


@pytest.mark.parametrize("name, theorem", [("ex2.3", "question"), ("ex2.3", "lemma32"),
                                           ("ex2.3", "thm31"), ("ex4.5", "question")])
def test_non_homogeneous_kernel_element_exits_2(tmp_path, capsys, name, theorem):
    from derfree.fixtures import export_fixture
    bundle = export_fixture(name, str(tmp_path))
    doc = serialize.load(bundle)
    doc["h_kernel"] = ["x + y^2"]
    serialize.save(bundle, doc)
    assert main(["check", "--theorem", theorem, bundle]) == 2
    captured = capsys.readouterr()
    assert "homogeneous elements only" in captured.err
    assert "Traceback" not in captured.out + captured.err


def _ex55_complex_with_entry(entry):
    doc = serialize.complex_to_dict(build_ex55(GF101).F)
    doc["differentials"][0][0][0] = entry
    return doc


def _module_with_action_scalar(value):
    from derfree.modules import free_module
    from derfree.monomial import monomial_algebra
    doc = serialize.module_to_dict(
        free_module(chain_algebra(GF101, 2), 1))
    doc["action"][1][0][0] = value
    return doc


def _ex55_bundle_with(key, value):
    doc = serialize.bundle_to_dict(build_ex55(GF101))
    doc[key] = value
    return doc


def _algebra_with_constant(value):
    from derfree.monomial import monomial_algebra
    doc = serialize.algebra_to_dict(monomial_algebra(GF101, ["x"], ["x^2"], 4).artinize())
    doc["constants"][0][3] = value
    return doc


@pytest.mark.parametrize("field, command, doc, where", [
    ("gfp:101", "homology", _ex55_complex_with_entry("1/0"), "differentials[0]"),
    ("rational", "homology", _ex55_complex_with_entry("1/0"), "differentials[0]"),
    ("gfp:101", "homology", _ex55_complex_with_entry("1/101*x"), "differentials[0]"),
    ("gfp:101", "validate", _algebra_with_constant("1/0"), "constants["),
    ("gfp:101", "freeness", _module_with_action_scalar("1/0"), "action[1]"),
    ("gfp:101", "check", _ex55_bundle_with("images", {"x": "1/0*u^2", "y": "u^3"}), "images"),
    ("gfp:101", "check", _ex55_bundle_with("h_kernel", ["1/0"]), "h_kernel[0]"),
], ids=["entry-gfp", "entry-rational", "entry-p-in-denominator", "structure-constant",
        "action-scalar", "morphism-image", "kernel-element"])
def test_a_zero_denominator_exits_2_and_names_its_key(tmp_path, capsys, field, command,
                                                      doc, where):
    p = str(tmp_path / "zero_denominator.json")
    serialize.save(p, doc)
    argv = ["check", "--theorem", "question"] if command == "check" else [command]
    assert main(["--field", field] + argv + [p]) == 2
    captured = capsys.readouterr()
    assert captured.err.count("error:") == 1 and where in captured.err
    assert "zero denominator" in captured.err
    assert "Traceback" not in captured.out + captured.err


def test_poincare_of_a_complex_file(ex55_files, capsys):
    assert main(["--json", "-", "poincare", "--trunc", "3", ex55_files["F"]]) == 0
    out = capsys.readouterr().out
    assert "poincare: [2, 2, 4, 8]" in out
    assert json.loads(out[out.index("{"):]) == {"betti": [2, 2, 4, 8]}


def test_poincare_of_a_graded_complex_exits_2(tmp_path, capsys):
    from derfree.fixtures import build_ex23
    p = str(tmp_path / "F.json")
    serialize.save(p, serialize.complex_to_dict(build_ex23(GF101).F))
    assert main(["poincare", p]) == 2
    captured = capsys.readouterr()
    assert "Artinian backend" in captured.err
    assert "Traceback" not in captured.out + captured.err


@pytest.mark.parametrize("artinian", [False, True], ids=["graded", "artinian"])
def test_homology_of_a_non_complex_exits_2_and_names_the_degree(tmp_path, capsys, artinian):
    from derfree.monomial import monomial_algebra
    A = monomial_algebra(GF101, ["x", "y"], ["x^2", "x*y", "y^2"], 4)
    # d_1 d_2 = x * id is not zero
    doc = {"algebra": serialize.algebra_to_dict(A.artinize() if artinian else A),
           "ranks": [2, 2, 2],
           "differentials": [[["x", "0"], ["0", "x"]], [["1", "0"], ["0", "1"]]]}
    if not artinian:
        doc["shifts"] = [[0, 0], [1, 1], [1, 1]]
    p = str(tmp_path / "not_a_complex.json")
    serialize.save(p, doc)
    assert main(["homology", p]) == 2
    captured = capsys.readouterr()
    assert "error: d^2 != 0 at degree 2" in captured.err
    assert "H_" not in captured.out
    assert "Traceback" not in captured.out + captured.err


@pytest.mark.parametrize("argv, option", [
    (["check", "--theorem", "prop44", "--fixture", "ex5.5", "--power", "-1"], "--power"),
    (["poincare", "{F}", "--trunc", "-1"], "--trunc"),
    (["--trunc", "-3", "homology", "{graded}"], "--trunc"),
    (["koszul", "--algebra", "{A}", "--vars", "x", "--multiplicity", "0"], "--multiplicity"),
    (["koszul", "--algebra", "{A}", "--vars", "x", "--multiplicity", "-1"], "--multiplicity"),
    (["poincare", "{F}", "--trunc", "two"], "--trunc"),
], ids=["power", "poincare-trunc", "global-trunc", "multiplicity-0", "multiplicity-negative",
        "not-an-integer"])
def test_an_integer_option_out_of_range_exits_2_and_names_the_option(tmp_path, capsys,
                                                                     ex55_files, argv, option):
    from derfree.fixtures import build_ex23
    graded = str(tmp_path / "graded.json")
    serialize.save(graded, serialize.complex_to_dict(build_ex23(GF101).F))
    with pytest.raises(SystemExit) as exc:
        main([a.format(graded=graded, **ex55_files) for a in argv])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert f"argument {option}:" in captured.err
    assert captured.out == "" and "Traceback" not in captured.err


def test_a_negative_truncation_in_a_file_exits_2_and_names_its_key(tmp_path, capsys):
    from derfree.fixtures import build_ex23
    doc = serialize.complex_to_dict(build_ex23(GF101).F)
    doc["algebra"]["truncation"] = -2
    p = str(tmp_path / "graded.json")
    serialize.save(p, doc)
    assert main(["homology", p]) == 2
    captured = capsys.readouterr()
    assert "error: algebra truncation: expected a degree >= 0, got -2" in captured.err
    assert captured.out == "" and "Traceback" not in captured.err


# where each map loader names the matrices of the exported ex5.5
MAP_KEYS = {"endomorphism": "maps", "generator": "generators[0].matrices",
            "witness": "relations[1].witness"}


def _edited_map_file(tmp_path, loader, edit) -> list:
    """The argv that loads an ex5.5 map through `loader` after `edit` changes
    its matrices: an endomorphism that is zero in degree 0, the generator u,
    or the witness -id of u^3 - y."""
    from derfree.fixtures import export_fixture
    directory = os.path.dirname(export_fixture("ex5.5", str(tmp_path)))
    if loader == "endomorphism":
        command, doc = "homotopy", {"complex": "ex5_5_F.json",
                                    "maps": {"0": [["0", "0"], ["0", "0"]]}}
        edit(doc["maps"])
    else:
        command, doc = "verify-action", serialize.load(os.path.join(directory,
                                                                    "ex5_5_cert.json"))
        edit(doc["generators"][0]["matrices"] if loader == "generator"
             else doc["relations"][1]["witness"])
    p = os.path.join(directory, "edited.json")
    serialize.save(p, doc)
    return [command, p]


@pytest.mark.parametrize("row", [["x", "0"], ["0", "0"]], ids=["x-row", "zero-row"])
@pytest.mark.parametrize("loader", sorted(MAP_KEYS))
def test_a_map_with_an_extra_row_exits_2_and_names_its_key(tmp_path, capsys, loader, row):
    # a 3x2 matrix where the complex of ranks [2, 2] needs a 2x2 one
    assert main(_edited_map_file(tmp_path, loader, lambda maps: maps["0"].append(row))) == 2
    captured = capsys.readouterr()
    assert captured.err.count("error:") == 1
    assert MAP_KEYS[loader] + "['0']: expected a 2x2 matrix" in captured.err
    assert captured.out == "" and "Traceback" not in captured.err


@pytest.mark.parametrize("degree, message", [
    ("9", "['9']: expected a degree of the complex, 0 to 1, got 9"),
    ("--5", ": expected integer degree keys, got '--5'"),
], ids=["outside", "not-an-integer"])
@pytest.mark.parametrize("loader", sorted(MAP_KEYS))
def test_a_map_at_a_degree_the_complex_lacks_exits_2_and_names_its_key(tmp_path, capsys,
                                                                       loader, degree, message):
    assert main(_edited_map_file(tmp_path, loader, lambda maps: maps.update({degree: []}))) == 2
    captured = capsys.readouterr()
    assert captured.err.count("error:") == 1 and MAP_KEYS[loader] + message in captured.err
    assert captured.out == "" and "Traceback" not in captured.err


def _module_with_zero_action(t):
    """k[u]/(u^3) as a module over itself, with the action of e_t zeroed."""
    from derfree.modules import free_module
    doc = serialize.module_to_dict(free_module(chain_algebra(GF101, 3), 1))
    doc["action"][t] = [[0] * 3 for _ in range(3)]
    return doc


@pytest.mark.parametrize("command", ["freeness", "poincare"])
@pytest.mark.parametrize("t, issue", [(0, "unit does not act as the identity"),
                                      (1, "structure constants fail on (e_1, e_1)")],
                         ids=["unit", "u"])
def test_a_module_file_that_is_not_a_module_exits_2_and_names_its_key(tmp_path, capsys,
                                                                      command, t, issue):
    p = str(tmp_path / "not_a_module.json")
    serialize.save(p, _module_with_zero_action(t))
    assert main([command, p]) == 2
    captured = capsys.readouterr()
    assert captured.err.count("error:") == 1
    assert f"error: action: {issue}" in captured.err
    assert "Traceback" not in captured.out + captured.err


@pytest.mark.parametrize("argv", [["annihilator"], ["betti"], ["validate"],
                                  ["check", "--theorem", "question"]],
                         ids=["annihilator", "betti", "validate", "check-question"])
def test_a_non_homogeneous_graded_differential_exits_2_and_names_its_key(tmp_path, capsys,
                                                                        argv):
    from derfree.field import QQ
    from derfree.fixtures import export_fixture
    bundle = export_fixture("ex2.3", str(tmp_path), field=QQ)
    complex_path = str(tmp_path / "ex2_3_F.json")
    doc = serialize.load(complex_path)
    doc["differentials"][0][0][0] = "x + y^2"
    serialize.save(complex_path, doc)
    target = bundle if argv[0] == "check" else complex_path
    assert main(["--field", "rational"] + argv + [target]) == 2
    captured = capsys.readouterr()
    assert captured.err.count("error:") == 1
    assert ("error: differentials[0]: entry (0,0) of d_1 is not homogeneous of degree 1"
            in captured.err)
    assert "Traceback" not in captured.out + captured.err
