import json
import os

import pytest

from derfree import serialize
from derfree.actions import verify_certificate
from derfree.field import GF, GF101, QQ, field_from_config, field_to_config
from derfree.fixtures import build_ex23, build_ex55, build_ex56, chain_algebra, square_zero_plane
from derfree.modules import free_module
from derfree.serialize import LoadContext, LoadError


def test_field_config_round_trip():
    for f in (GF101, GF(7), QQ):
        assert field_from_config(field_to_config(f)) == f


def test_algebra_round_trip(any_field):
    b = build_ex55(any_field)
    doc = serialize.algebra_to_dict(b.A)
    back = serialize.algebra_from_dict(doc, LoadContext(any_field))
    assert back == b.A
    gdoc = serialize.algebra_to_dict(build_ex23(any_field).A)
    gback = serialize.algebra_from_dict(gdoc, LoadContext(any_field))
    assert gback == build_ex23(any_field).A


def test_algebra_with_generators_builds_its_tables_once(any_field, monkeypatch):
    from derfree.algebra import ArtinAlgebra
    A = square_zero_plane(any_field)
    doc = serialize.algebra_to_dict(A)
    doc["generators"] = {"v": "x - y", "u": "3/2*x + y"}
    built = []
    real = ArtinAlgebra.__post_init__
    monkeypatch.setattr(ArtinAlgebra, "__post_init__",
                        lambda self: built.append(self) or real(self))
    back = serialize.algebra_from_dict(doc, LoadContext(any_field))
    monkeypatch.undo()
    assert len(built) == 1
    pairs = (("u", A.parse_element("3/2*x + y")), ("v", A.parse_element("x - y")))
    assert back == ArtinAlgebra(A.field, A.labels, A.mult, pairs)
    assert back.named_element("u") == pairs[0][1] and back.named_element("y") == A.named_element("y")
    assert back.parse_element("u*v") == A.el_mul(pairs[0][1], pairs[1][1])


def test_complex_round_trip(any_field):
    for builder in (build_ex55, build_ex56):
        F = builder(any_field).F
        back = serialize.complex_from_dict(serialize.complex_to_dict(F), LoadContext(any_field))
        assert back == F
    F23 = build_ex23(any_field).F
    back = serialize.complex_from_dict(serialize.complex_to_dict(F23), LoadContext(any_field))
    assert back == F23


def test_field_config_rejects_a_non_object_or_a_non_integer_p():
    for cfg in ([1, 2], "gfp", {"field": "gfp", "p": "101"}, {"field": "gfp", "p": None}):
        with pytest.raises(ValueError):
            field_from_config(cfg)


def test_truncation_override_comes_from_the_context():
    doc = serialize.algebra_to_dict(build_ex23(GF101).A)
    assert serialize.algebra_from_dict(doc, LoadContext(GF101, truncation=3)).truncation == 3
    assert serialize.algebra_from_dict(doc, LoadContext(GF101)).truncation == doc["truncation"]


@pytest.mark.parametrize("build", [build_ex55, build_ex23])
def test_bundle_round_trip(build):
    b = build(GF101)
    back = serialize.bundle_from_dict(serialize.bundle_to_dict(b), LoadContext(GF101))
    assert (back.name, back.A, back.B, back.F, back.h_kernel) == (b.name, b.A, b.B, b.F, b.h_kernel)
    assert back.phi.images == b.phi.images
    assert (back.certificate is None) == (b.certificate is None)
    with pytest.raises(LoadError, match="field mismatch"):
        serialize.bundle_from_dict(serialize.bundle_to_dict(b), LoadContext(QQ))


def test_certificate_round_trip():
    b = build_ex55(GF101)
    doc = serialize.certificate_to_dict(b.certificate, b.F)
    cert, F = serialize.certificate_from_dict(doc, LoadContext(GF101))
    assert F == b.F
    assert verify_certificate(F, cert).verified
    assert cert.relations[0][0] == "u^2 - x"


def test_module_round_trip():
    B = chain_algebra(GF101, 4)
    M = free_module(B, 2)
    doc = serialize.module_to_dict(M)
    back = serialize.module_from_dict(doc, LoadContext(GF101))
    assert back == M


def test_dumps_is_canonical():
    doc = {"b": 1, "a": [3, 2]}
    assert serialize.dumps(doc) == serialize.dumps({"a": [3, 2], "b": 1})


def test_malformed_document_reports_position(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"kind": "artinian", ', encoding="utf-8")
    with pytest.raises(LoadError) as ei:
        serialize.load(str(p))
    assert "line" in str(ei.value)


def test_field_mismatch_is_explicit():
    doc = {"field": {"field": "rational"}}
    with pytest.raises(LoadError):
        serialize.document_field(doc, GF101)
    assert serialize.document_field(doc, None) == QQ


def test_path_references_resolve(tmp_path):
    b = build_ex55(GF101)
    serialize.save(str(tmp_path / "A.json"), serialize.algebra_to_dict(b.A))
    fdoc = serialize.complex_to_dict(b.F, inline_algebra=False)
    fdoc["algebra"] = "A.json"
    serialize.save(str(tmp_path / "F.json"), fdoc)
    loaded = serialize.complex_from_dict(serialize.load(str(tmp_path / "F.json")),
                                         LoadContext(GF101, str(tmp_path)))
    assert loaded == b.F


def test_save_load_file_identity(tmp_path):
    b = build_ex56(GF101)
    path = str(tmp_path / "c.json")
    serialize.save(path, serialize.complex_to_dict(b.F))
    assert serialize.complex_from_dict(serialize.load(path), LoadContext(GF101)) == b.F
    # byte stability
    first = open(path, "rb").read()
    serialize.save(path, serialize.complex_to_dict(b.F))
    assert open(path, "rb").read() == first
