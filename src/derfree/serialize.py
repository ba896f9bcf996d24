"""JSON file formats of algebras, complexes, maps, certificates, modules and bundles.

Documents are UTF-8 JSON.  Scalars serialize as ints (GF(p)) or "num/den"
strings (rationals).  Wherever a document references another object it may
inline it or give a path string, resolved relative to the referring file.
Printing is canonical (sorted keys), so saved documents are byte-stable.
Every document is read through a `LoadContext`; a malformed value raises
`LoadError` naming its key.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, replace

from .actions import ActionCertificate, check_relation
from .algebra import artin_algebra_from_constants
from .checkers import InstanceBundle
from .complexes import AMatrix, ChainMap, FreeComplex
from .field import field_from_config, field_to_config
from .homotopy import Homotopy
from .linalg import Matrix
from .modules import FiniteModule
from .monomial import mono_str, monomial_algebra
from .morphism import AlgebraMorphism, morphism_from_generator_images


class LoadError(ValueError):
    pass


@dataclass(frozen=True)
class LoadContext:
    """How documents are read: over `field`, with relative paths resolved
    from `base_dir`, and with every graded truncation degree replaced by
    `truncation` when it is set (the CLI's --trunc)."""

    field: object
    base_dir: str = "."
    truncation: int | None = None

    def resolve(self, doc: dict, key: str, loader, **kw):
        """`loader(doc, ctx, **kw)` on the reference `doc[key]`: a path
        relative to `base_dir`, or an inline object.  A path's own
        references resolve from its directory."""
        ref = doc[key]
        if isinstance(ref, str):
            path = os.path.join(self.base_dir, ref)
            return loader(load(path), replace(self, base_dir=os.path.dirname(path)), **kw)
        if not isinstance(ref, dict):
            raise _bad(key, "a file path or an inline object", ref)
        return loader(ref, self, **kw)


_NAMES = {int: "an integer", str: "a string", dict: "an object", list: "a list"}


def _bad(where: str, expected: str, value) -> LoadError:
    return LoadError(f"{where}: expected {expected}, got {value!r}"[:300])


def _typed(v, where: str, kind: type, item: type | None = None):
    """`v` when it is a `kind` whose items (values, for an object) are all
    `item`s; else a LoadError naming `where`."""
    if type(v) is not kind or item is not None and any(
            type(x) is not item for x in (v.values() if kind is dict else v)):
        raise _bad(where, _NAMES[kind] + (f" of {item.__name__} values" if item else ""), v)
    return v


def _located(where: str, build, *args, **kw):
    """`build(*args, **kw)`; the ValueError of a malformed entry or scalar
    in it is a LoadError naming `where`."""
    try:
        return build(*args, **kw)
    except ValueError as e:
        raise LoadError(f"{where}: {e}") from e


def _entry_rows(rows, where: str) -> list:
    """A matrix of a document: a list of rows of entry strings."""
    for r in _typed(rows, where, list, list):
        _typed(r, where, list, str)
    return rows


def _scalar_out(field, s):
    return field.to_str(s) if field_to_config(field)["field"] == "rational" else int(s)


def _scalar_matrix(field, rows, nrows: int, ncols: int, where: str) -> Matrix:
    """An nrows x ncols grid of int or string scalars; an empty grid is zero."""
    if not _typed(rows, where, list, list):
        return Matrix.zero(field, nrows, ncols)
    if len(rows) != nrows or any(len(r) != ncols or any(type(x) not in (int, str) for x in r)
                                 for r in rows):
        raise _bad(where, f"a {nrows}x{ncols} grid of int or string scalars", rows)
    return Matrix.from_rows(field, [[_located(where, field.parse, str(x)) for x in r]
                                    for r in rows], ncols=ncols)


# ---------------------------------------------------------------------------
# algebras


def algebra_to_dict(A) -> dict:
    if A.kind == "artinian":
        f = A.field
        constants = []
        for i in range(A.dim):
            for j in range(A.dim):
                for k, c in enumerate(A.mult[i][j]):
                    if c:
                        constants.append([i, j, k, _scalar_out(f, c)])
        out = {"kind": "artinian", "labels": list(A.labels), "constants": constants}
        if A.generators:
            out["generators"] = {name: A.element_to_str(el) for name, el in A.generators}
        return out
    return {"kind": "monomial_quotient",
            "vars": list(A.variables),
            "ideal": [mono_str(g, A.variables) for g in A.ideal],
            "truncation": A.truncation}


def _structure_constants(doc: dict, d: int, field) -> list:
    """The (i, j, k, scalar) entries of an Artinian document, checked."""
    out = []
    for n, c in enumerate(_typed(doc["constants"], "algebra constants", list)):
        if not (isinstance(c, list) and len(c) == 4
                and all(type(i) is int and 0 <= i < d for i in c[:3])
                and type(c[3]) in (int, str)):
            raise _bad(f"algebra constants[{n}]", f"[i, j, k, value] with basis indices "
                       f"i, j, k below {d} and an int or string value", c)
        out.append((*c[:3], _located(f"algebra constants[{n}]", field.parse, str(c[3]))))
    return out


def algebra_from_dict(doc: dict, ctx: LoadContext):
    kind = doc.get("kind")
    if kind == "artinian":
        labels = _typed(doc["labels"], "algebra labels", list, str)
        A = artin_algebra_from_constants(ctx.field, labels,
                                         _structure_constants(doc, len(labels), ctx.field))
        gens = doc.get("generators")
        if gens:
            gens = _typed(gens, "algebra generators", dict, str)
            pairs = tuple((name, _located(f"algebra generators[{name!r}]", A.parse_element, expr))
                          for name, expr in sorted(gens.items()))
            A = A.with_generators(pairs)
        return A
    if kind == "monomial_quotient":
        trunc = ctx.truncation if ctx.truncation is not None \
            else _typed(doc["truncation"], "algebra truncation", int)
        if trunc < 0:
            raise _bad("algebra truncation", "a degree >= 0", trunc)
        return monomial_algebra(ctx.field, _typed(doc["vars"], "algebra vars", list, str),
                                _typed(doc["ideal"], "algebra ideal", list, str), trunc)
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


def _per_rank(rows, ranks, where: str, entry: type) -> tuple:
    """One row of `entry` values per rank, each of that rank's length."""
    if len(_typed(rows, where, list, list)) != len(ranks) or any(
            len(_typed(r, where, list, entry)) != n for r, n in zip(rows, ranks)):
        raise _bad(where, f"one row per rank of {ranks}", rows)
    return tuple(tuple(r) for r in rows)


def complex_from_dict(doc: dict, ctx: LoadContext, algebra=None):
    if algebra is None:
        algebra = ctx.resolve(doc, "algebra", algebra_from_dict)
    ranks = _typed(doc["ranks"], "ranks", list, int)
    low = _typed(doc.get("low", 0), "low", int)
    diff_docs = doc["differentials"]
    if not isinstance(diff_docs, list) or len(diff_docs) != max(0, len(ranks) - 1):
        raise _bad("differentials", f"a list of {max(0, len(ranks) - 1)} matrices for "
                   f"{len(ranks)} ranks", diff_docs)
    diffs = [_located(f"differentials[{i}]", AMatrix.from_strings, algebra,
                      _entry_rows(rows, f"differentials[{i}]"), ncols=ranks[i + 1])
             for i, rows in enumerate(diff_docs)]
    shifts = doc.get("shifts")
    labels = doc.get("labels")
    F = FreeComplex(algebra, low, tuple(ranks), tuple(diffs),
                    _per_rank(shifts, ranks, "shifts", int) if shifts else None,
                    _per_rank(labels, ranks, "labels", str) if labels else None)
    if algebra.kind == "graded":
        for n in range(len(diffs)):
            issues = F._homogeneity_issues(low + n + 1)
            if issues:
                raise LoadError(f"differentials[{n}]: {issues[0]}")
    return F


def chain_map_to_dict(f) -> dict:
    """The per-degree maps of a chain map or a homotopy."""
    return {"maps": {str(d): m.to_strings() for d, m in f.maps}}


def _degree_map(cls, doc, F: FreeComplex, where: str):
    """The `cls` map F -> F of an object of entry rows keyed by degree
    strings: each a degree d of F, with a rank(d + degree) x rank(d) matrix."""
    maps = {}
    for dstr, rows in _typed(doc, where, dict).items():
        if not dstr.removeprefix("-").isdecimal():
            raise _bad(where, "integer degree keys", dstr)
        key, d = f"{where}[{dstr!r}]", int(dstr)
        if d not in F.degrees():
            raise _bad(key, f"a degree of the complex, {F.low} to {F.top}", d)
        nrows, ncols = F.rank(d + cls.degree), F.rank(d)
        if len(_entry_rows(rows, key)) != nrows or any(len(r) != ncols for r in rows):
            raise _bad(key, f"a {nrows}x{ncols} matrix", rows)
        maps[d] = _located(key, AMatrix.from_strings, F.algebra, rows, ncols=ncols)
    return cls.from_dict(F, F, maps)


def endo_from_dict(doc: dict, ctx: LoadContext) -> ChainMap:
    """An endomorphism of the complex the document names."""
    F = ctx.resolve(doc, "complex", complex_from_dict)
    return _degree_map(ChainMap, doc["maps"], F, "maps")


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


def morphism_from_dict(doc: dict, ctx: LoadContext, source=None, target=None):
    if source is None:
        source = ctx.resolve(doc, "source", algebra_from_dict)
    if target is None:
        target = ctx.resolve(doc, "target", algebra_from_dict)
    images = _typed(doc["images"], "images", dict, str)
    return _located("images", morphism_from_generator_images, source, target, images)


def certificate_to_dict(cert: ActionCertificate, F: FreeComplex,
                        inline: bool = True) -> dict:
    gens = [{"name": name, "matrices": chain_map_to_dict(g)["maps"]}
            for name, g in cert.generators]
    rels = [{"poly": poly, "witness": "solve" if w is None else chain_map_to_dict(w)["maps"]}
            for poly, w in cert.relations]
    out = {"morphism": morphism_to_dict(cert.morphism, inline=inline),
           "generators": gens, "relations": rels}
    if inline:
        out["complex"] = complex_to_dict(F)
    return out


def certificate_from_dict(doc: dict, ctx: LoadContext, F: FreeComplex | None = None,
                          source=None, target=None):
    if F is None:
        F = ctx.resolve(doc, "complex", complex_from_dict)
    phi = morphism_from_dict(_typed(doc["morphism"], "morphism", dict), ctx, source, target)
    gens = []
    for n, g in enumerate(_typed(doc["generators"], "generators", list, dict)):
        gens.append((_typed(g["name"], f"generators[{n}].name", str),
                     _degree_map(ChainMap, g["matrices"], F, f"generators[{n}].matrices")))
    rels = []
    for n, r in enumerate(_typed(doc["relations"], "relations", list, dict)):
        poly = _typed(r["poly"], f"relations[{n}].poly", str)
        _located(f"relations[{n}].poly", check_relation, F.algebra, [g for g, _ in gens], poly)
        w = r.get("witness", "solve")
        rels.append((poly, None if w == "solve" else
                     _degree_map(Homotopy, w, F, f"relations[{n}].witness")))
    return ActionCertificate(phi, tuple(gens), tuple(rels)), F


def bundle_to_dict(b: InstanceBundle) -> dict:
    """The bundle document of `b`, every reference inline."""
    return {"name": b.name, "field": field_to_config(b.A.field),
            "algebra_A": algebra_to_dict(b.A), "algebra_B": algebra_to_dict(b.B),
            "images": morphism_to_dict(b.phi, inline=False)["images"],
            "complex": complex_to_dict(b.F) if b.F is not None else None,
            "certificate": certificate_to_dict(b.certificate, b.F) if b.certificate else None,
            "h_kernel": [b.A.element_to_str(a) for a in b.h_kernel]}


def bundle_from_dict(doc: dict, ctx: LoadContext) -> InstanceBundle:
    """An instance bundle; a `field` it declares must be the context's."""
    ctx = replace(ctx, field=document_field(doc, ctx.field))
    A = ctx.resolve(doc, "algebra_A", algebra_from_dict)
    B = ctx.resolve(doc, "algebra_B", algebra_from_dict)
    phi = morphism_from_dict(doc, ctx, A, B)
    F = cert = None
    if doc.get("complex") is not None:
        F = ctx.resolve(doc, "complex", complex_from_dict, algebra=A)
    if doc.get("certificate") is not None:
        cert, F = ctx.resolve(doc, "certificate", certificate_from_dict, F=F, source=A, target=B)
    h_kernel = tuple(_located(f"h_kernel[{n}]", A.parse_element, s) for n, s in
                     enumerate(_typed(doc.get("h_kernel", []), "h_kernel", list, str)))
    return InstanceBundle(_typed(doc.get("name", "bundle"), "name", str), A, B, phi, F,
                          certificate=cert, h_kernel=h_kernel)


# ---------------------------------------------------------------------------
# modules


def module_to_dict(M: FiniteModule, inline: bool = True) -> dict:
    f = M.algebra.field
    out = {"dim": M.dim,
           "action": [[[_scalar_out(f, x) for x in row] for row in a.dense_rows()]
                      for a in M.action]}
    if inline:
        out["algebra"] = algebra_to_dict(M.algebra)
    return out


def module_from_dict(doc: dict, ctx: LoadContext, algebra=None):
    field = ctx.field
    if algebra is None:
        algebra = ctx.resolve(doc, "algebra", algebra_from_dict)
    dim = _typed(doc["dim"], "dim", int)
    grids = _typed(doc["action"], "action", list)
    if algebra.kind != "artinian" or len(grids) != algebra.dim:
        raise _bad("action", "one grid per basis element of an Artinian algebra", grids)
    M = FiniteModule(algebra, dim, tuple(_scalar_matrix(field, rows, dim, dim, f"action[{n}]")
                                         for n, rows in enumerate(grids)))
    issues = M.validate()
    if issues:
        raise LoadError(f"action: {issues[0]}")
    return M


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
