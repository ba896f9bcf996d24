"""JSON file formats and round-trip serialization for every value type.

Documents are UTF-8 JSON.  Scalars serialize as ints (GF(p)) or "num/den"
strings (rationals).  Wherever a document references another object it may
inline it or give a path string, resolved relative to the referring file.
Printing is canonical (sorted keys), so saved documents are byte-stable.
"""

from __future__ import annotations

import json
import os

from .actions import ActionCertificate, witness_from_matrices
from .algebra import ArtinAlgebra, artin_algebra_from_constants
from .complexes import AMatrix, ChainMap, FreeComplex
from .field import field_from_config, field_to_config
from .linalg import Matrix
from .modules import FiniteModule
from .monomial import mono_str, monomial_algebra
from .morphism import AlgebraMorphism, morphism_from_generator_images
from .weyl import WModuleRep


class LoadError(ValueError):
    pass


def _scalar_out(field, s):
    return field.to_str(s) if field_to_config(field)["field"] == "rational" else int(s)


def _scalar_in(field, v):
    return field.parse(str(v))


# ---------------------------------------------------------------------------
# algebras


def algebra_to_dict(A) -> dict:
    if A.kind == "artinian":
        f = A.field
        constants = []
        for i in range(A.dim):
            for j in range(A.dim):
                for k, c in enumerate(A.mult[i][j]):
                    if c != f.zero:
                        constants.append([i, j, k, _scalar_out(f, c)])
        out = {"kind": "artinian", "labels": list(A.labels), "constants": constants}
        if A.generators:
            out["generators"] = {name: A.element_to_str(el) for name, el in A.generators}
        return out
    return {"kind": "monomial_quotient",
            "vars": list(A.variables),
            "ideal": [mono_str(g, A.variables) for g in A.ideal],
            "truncation": A.truncation}


_TRUNCATION_OVERRIDE = None


def set_truncation_override(value: int | None):
    """Session-wide override of graded truncation degrees (the CLI's --trunc)."""
    global _TRUNCATION_OVERRIDE
    _TRUNCATION_OVERRIDE = value


def _structure_constants(doc: dict) -> list:
    """The [i, j, k, value] entries of an Artinian document, indices checked."""
    d = len(doc["labels"])
    for n, c in enumerate(doc["constants"]):
        if not (isinstance(c, list) and len(c) == 4
                and all(type(i) is int and 0 <= i < d for i in c[:3])):
            raise LoadError(f"algebra constants[{n}]: expected [i, j, k, value] with "
                            f"basis indices i, j, k below {d}, got {c!r}")
    return doc["constants"]


def algebra_from_dict(doc: dict, field, base_dir="."):
    """Build an algebra; `base_dir` is unused (an algebra names no other file)
    and is there so every loader takes the signature `_resolve` calls."""
    kind = doc.get("kind")
    if kind == "artinian":
        A = artin_algebra_from_constants(field, doc["labels"], _structure_constants(doc))
        gens = doc.get("generators")
        if gens:
            pairs = tuple((name, A.parse_element(expr)) for name, expr in sorted(gens.items()))
            A = ArtinAlgebra(A.field, A.labels, A.mult, pairs)
        return A
    if kind == "monomial_quotient":
        trunc = _TRUNCATION_OVERRIDE if _TRUNCATION_OVERRIDE is not None \
            else int(doc["truncation"])
        return monomial_algebra(field, doc["vars"], doc["ideal"], trunc)
    raise LoadError(f"unknown algebra kind {kind!r}")


# ---------------------------------------------------------------------------
# complexes and chain maps


def complex_to_dict(F: FreeComplex, inline_algebra: bool = True) -> dict:
    out = {"ranks": list(F.ranks),
           "low": F.low,
           "differentials": [d.to_strings() for d in F.diffs]}
    if inline_algebra:
        out["algebra"] = algebra_to_dict(F.algebra)
    if F.shifts is not None:
        out["shifts"] = [list(s) for s in F.shifts]
    if F.labels is not None:
        out["labels"] = [list(l) for l in F.labels]
    return out


def _entry_rows(rows, where: str) -> list:
    """A matrix of a document, checked to be a list of rows of entry strings."""
    if not (isinstance(rows, list)
            and all(isinstance(r, list) and all(isinstance(e, str) for e in r) for r in rows)):
        raise LoadError(f"{where}: expected a list of rows of entry strings, got {rows!r}"[:300])
    return rows


def complex_from_dict(doc: dict, field, algebra=None, base_dir="."):
    if algebra is None:
        algebra = _resolve(doc["algebra"], field, base_dir, algebra_from_dict)
    ranks = [int(r) for r in doc["ranks"]]
    low = int(doc.get("low", 0))
    diff_docs = doc["differentials"]
    if not isinstance(diff_docs, list) or len(diff_docs) != max(0, len(ranks) - 1):
        raise LoadError(f"differentials: expected a list of {max(0, len(ranks) - 1)} matrices "
                        f"for {len(ranks)} ranks, got {diff_docs!r}"[:300])
    diffs = []
    for i, rows in enumerate(diff_docs):
        rows = _entry_rows(rows, f"differentials[{i}]")
        diffs.append(AMatrix.from_strings(algebra, rows, ncols=ranks[i + 1]))
    shifts = doc.get("shifts")
    labels = doc.get("labels")
    return FreeComplex(algebra, low, tuple(ranks), tuple(diffs),
                       tuple(tuple(int(x) for x in s) for s in shifts) if shifts else None,
                       tuple(tuple(l) for l in labels) if labels else None)


def chain_map_to_dict(f: ChainMap) -> dict:
    return {"maps": {str(d): m.to_strings() for d, m in f.maps}}


def endo_from_dict(F: FreeComplex, doc: dict) -> ChainMap:
    maps = {}
    for dstr, rows in sorted(doc["maps"].items(), key=lambda kv: int(kv[0])):
        d = int(dstr)
        rows = _entry_rows(rows, f"maps[{dstr!r}]")
        maps[d] = AMatrix.from_strings(F.algebra, rows, ncols=F.rank(d))
    return ChainMap.from_dict(F, F, maps)


# ---------------------------------------------------------------------------
# morphisms and certificates


def morphism_to_dict(phi: AlgebraMorphism, inline: bool = True) -> dict:
    S, T = phi.source, phi.target
    if S.kind == "graded":
        images = {v: T.element_to_str(img) for v, img in zip(S.variables, phi.images)}
    else:
        images = {}
        for name, el in S.generators:
            images[name] = T.element_to_str(phi.apply(el))
    out = {"images": images}
    if inline:
        out["source"] = algebra_to_dict(S)
        out["target"] = algebra_to_dict(T)
    return out


def morphism_from_dict(doc: dict, field, source=None, target=None, base_dir="."):
    if source is None:
        source = _resolve(doc["source"], field, base_dir, algebra_from_dict)
    if target is None:
        target = _resolve(doc["target"], field, base_dir, algebra_from_dict)
    return morphism_from_generator_images(source, target, dict(doc["images"]))


def certificate_to_dict(cert: ActionCertificate, F: FreeComplex,
                        inline: bool = True) -> dict:
    gens = [{"name": name, "matrices": chain_map_to_dict(g)["maps"]}
            for name, g in cert.generators]
    rels = []
    for poly, witness in cert.relations:
        if witness is None:
            rels.append({"poly": poly, "witness": "solve"})
        else:
            rels.append({"poly": poly,
                         "witness": {str(d): m.to_strings() for d, m in witness.maps}})
    out = {"morphism": morphism_to_dict(cert.morphism, inline=inline),
           "generators": gens, "relations": rels}
    if inline:
        out["complex"] = complex_to_dict(F)
    return out


def certificate_from_dict(doc: dict, field, F: FreeComplex | None = None,
                          source=None, target=None, base_dir="."):
    if F is None:
        F = _resolve(doc["complex"], field, base_dir, complex_from_dict)
    phi = morphism_from_dict(doc["morphism"], field, source=source, target=target,
                             base_dir=base_dir)
    gens = []
    for n, g in enumerate(doc["generators"]):
        maps = {}
        for dstr, rows in sorted(g["matrices"].items(), key=lambda kv: int(kv[0])):
            d = int(dstr)
            rows = _entry_rows(rows, f"generators[{n}].matrices[{dstr!r}]")
            maps[d] = AMatrix.from_strings(F.algebra, rows, ncols=F.rank(d))
        gens.append((g["name"], ChainMap.from_dict(F, F, maps)))
    rels = []
    for n, r in enumerate(doc["relations"]):
        w = r.get("witness", "solve")
        if w == "solve":
            rels.append((r["poly"], None))
        else:
            maps = {}
            for dstr, rows in sorted(w.items(), key=lambda kv: int(kv[0])):
                d = int(dstr)
                rows = _entry_rows(rows, f"relations[{n}].witness[{dstr!r}]")
                maps[d] = AMatrix.from_strings(F.algebra, rows, ncols=F.rank(d))
            rels.append((r["poly"], witness_from_matrices(F, maps)))
    return ActionCertificate(phi, tuple(gens), tuple(rels)), F


# ---------------------------------------------------------------------------
# modules and Weyl representations


def module_to_dict(M: FiniteModule, inline: bool = True) -> dict:
    f = M.algebra.field
    out = {"dim": M.dim,
           "action": [[[_scalar_out(f, x) for x in row] for row in a.rows]
                      for a in M.action]}
    if inline:
        out["algebra"] = algebra_to_dict(M.algebra)
    return out


def module_from_dict(doc: dict, field, algebra=None, base_dir="."):
    if algebra is None:
        algebra = _resolve(doc["algebra"], field, base_dir, algebra_from_dict)
    dim = int(doc["dim"])
    acts = []
    for rows in doc["action"]:
        acts.append(Matrix.from_rows(field,
                                     [[_scalar_in(field, x) for x in row] for row in rows],
                                     ncols=dim))
    return FiniteModule(algebra, dim, tuple(acts))


def rep_to_dict(rep: WModuleRep) -> dict:
    f = rep.field
    grid = lambda m: [[_scalar_out(f, x) for x in row] for row in m.rows]
    return {"p": rep.p, "dims": list(rep.dims),
            "S": [[grid(m) for m in per] for per in rep.S],
            "T": [[grid(m) for m in per] for per in rep.T]}


def rep_from_dict(doc: dict, field) -> WModuleRep:
    dims = [int(d) for d in doc["dims"]]
    p = int(doc["p"])
    top = len(dims) - 1

    def mat(rows, nrows, ncols):
        return Matrix.from_rows(field, [[_scalar_in(field, x) for x in row] for row in rows],
                                ncols=ncols) if rows or nrows == 0 else Matrix.zero(field, nrows, ncols)

    S = []
    T = []
    for i in range(p):
        S.append(tuple(mat(doc["S"][i][d], dims[d + 1], dims[d]) for d in range(top)))
        T.append(tuple(mat(doc["T"][i][d], dims[d], dims[d + 1]) for d in range(top)))
    return WModuleRep(field, p, tuple(dims), tuple(S), tuple(T))


# ---------------------------------------------------------------------------
# files


def dumps(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def save(path: str, doc: dict):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(doc))


def load(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as e:
        raise LoadError(f"{path}: invalid JSON at line {e.lineno} column {e.colno}") from e
    except OSError as e:
        raise LoadError(f"{path}: {e}") from e
    if not isinstance(doc, dict):
        raise LoadError(f"{path}: the top level is a {type(doc).__name__}, not a JSON object")
    return doc


def _resolve(ref, field, base_dir, loader):
    """Load a reference (a path relative to base_dir, or an inline object) with
    `loader(doc, field, base_dir=...)`; a path's own references resolve from
    its directory."""
    if isinstance(ref, str):
        path = os.path.join(base_dir, ref)
        ref, base_dir = load(path), os.path.dirname(path)
    elif not isinstance(ref, dict):
        raise LoadError(f"expected a file path or an inline object, got {ref!r}")
    return loader(ref, field, base_dir=base_dir)


def document_field(doc: dict, default_field):
    """Field declared in the document, or the supplied default."""
    cfg = doc.get("field")
    if cfg is None:
        return default_field
    declared = field_from_config(cfg)
    if default_field is not None and declared != default_field:
        raise LoadError(
            f"field mismatch: document declares {cfg}, session uses "
            f"{field_to_config(default_field)}")
    return declared
