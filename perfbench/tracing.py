"""Per-layer tracing of derfree from outside the package.

Wrappers are installed on the public functions and methods named in
``LAYERS``.  A module-level function is replaced on *every* loaded module
that binds it: ``from .linalg import rref`` copies the binding into
``homotopy``, ``complexes``, ``checkers`` and others (and the benchmark's
own imports copy it once more), so patching ``linalg`` alone would miss
most calls.  Methods are replaced on their class.

Each timed call is a span.  A span's self time is its duration minus the
time covered by the spans it caused.  ``ArtinAlgebra.el_mul`` runs about
130 thousand times in one round of the round-trip workload, so it is only
counted, never timed.
Spans are recorded only while ``Tracer.active`` is set, which the benchmark
does around each operation and not around its answer checks.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

import numpy as np

# (module, attribute path, stats reported as metrics).  The stats are:
#   calls    -- spans recorded (count)
#   self_s   -- duration minus covered child spans (s)
#   total_s  -- duration including child spans (s)
#   cells    -- rows x columns of the matrix argument, summed (count)
#   nnz_frac -- nonzero entries / cells of the int64 argument (ratio)
LAYERS = (
    ("linalg", "np_rref", ("calls", "self_s", "cells", "nnz_frac")),
    ("linalg", "rref", ("calls", "self_s", "cells")),
    ("linalg", "solve_multi", ("calls", "self_s")),
    ("linalg", "kernel_basis", ("self_s",)),
    ("linalg", "solve_and_project", ("self_s",)),
    ("complexes", "AMatrix.mul", ("calls", "self_s")),
    ("homotopy", "derived_annihilator", ("self_s",)),
    ("homotopy", "solve_homotopy", ("calls", "self_s")),
    ("homotopy", "Homotopy.boundary", ("calls", "self_s")),
    ("weyl", "koszul_lift", ("calls", "self_s")),
    ("complexes", "homology", ("self_s",)),
    ("complexes", "graded_homology", ("self_s",)),
    ("monomial", "MonomialAlgebra.mult_map", ("calls", "self_s")),
    ("serialize", "load", ("self_s",)),
    ("serialize", "complex_from_dict", ("self_s",)),
    ("serialize", "dumps", ("self_s",)),
    ("actions", "verify_certificate", ("calls", "self_s")),
    ("fixtures", "run_fixtures", ("self_s",)),
    ("checkers", "koszul_decompose", ("total_s",)),
)
COUNTED = (("algebra", "ArtinAlgebra.el_mul"),)

UNITS = {"calls": "count", "self_s": "s", "total_s": "s", "cells": "count",
         "nnz_frac": "ratio"}


def metric_names() -> list:
    """(name, unit) of every per-layer metric, in report order."""
    out = [(f"{m}.{a}.{s}", UNITS[s]) for m, a, stats in LAYERS for s in stats]
    out += [(f"{m}.{a}.calls", "count") for m, a in COUNTED]
    return out


def _np_rref_size(stat, args):
    a = args[0]
    stat["cells"] += a.size
    stat["nnz"] += int(np.count_nonzero(a))


def _np_rref_rank(stat, out):
    stat["rank"] += len(out[1])


def _rref_size(stat, args):
    M = args[0]
    stat["cells"] += M.nrows * M.ncols


def _rref_rank(stat, out):
    stat["rank"] += out[2]


# sizes are read from the arguments before the span starts and ranks from
# the return value after it ends; the time spent reading sizes counts as
# covered for the enclosing span, so it lands in no layer's self time
SIZE = {("linalg", "np_rref"): _np_rref_size, ("linalg", "rref"): _rref_size}
RANK = {("linalg", "np_rref"): _np_rref_rank, ("linalg", "rref"): _rref_rank}


def _resolve(module: str, path: str):
    owner = importlib.import_module(f"derfree.{module}")
    *outer, name = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, name, getattr(owner, name)


class Tracer:
    """Installs the wrappers and accumulates per-layer statistics."""

    def __init__(self):
        self.active = False
        self.stats = {}
        self._children = []  # child time covered, one slot per open span
        self._undo = []

    def _timed(self, key, fn):
        stat = self.stats[key]
        size, rank = SIZE.get(key), RANK.get(key)
        children = self._children
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            t_size = clock()
            if size is not None:
                size(stat, args)
            children.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                covered = children.pop()
                stat["calls"] += 1
                stat["total_s"] += dt
                stat["self_s"] += dt - covered
                if children:
                    children[-1] += dt + (t0 - t_size)
            if rank is not None:
                rank(stat, out)
            return out
        return wrapper

    def _counted(self, key, fn):
        stat = self.stats[key]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.active:
                stat["calls"] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self):
        """Wrap every layer; ``uninstall`` restores the originals."""
        targets = [(m, a, self._timed) for m, a, _ in LAYERS]
        targets += [(m, a, self._counted) for m, a in COUNTED]
        for module, path, make in targets:
            key = (module, path)
            self.stats[key] = {"calls": 0, "self_s": 0.0, "total_s": 0.0,
                               "cells": 0, "nnz": 0, "rank": 0}
            owner, name, fn = _resolve(module, path)
            wrapper = make(key, fn)
            if isinstance(owner, type):
                self._set(owner, name, wrapper)
                continue
            for mod in list(sys.modules.values()):
                for attr, value in list(getattr(mod, "__dict__", {}).items()):
                    if value is fn:
                        self._set(mod, attr, wrapper)

    def _set(self, owner, name, value):
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self):
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    def metrics(self) -> dict:
        """Every per-layer metric as ``{name: {"value", "unit"}}``."""
        out = {}
        for module, path, stats in LAYERS:
            st = self.stats[(module, path)]
            for s in stats:
                if s == "nnz_frac":
                    value = st["nnz"] / st["cells"] if st["cells"] else 0.0
                else:
                    value = st[s]
                out[f"{module}.{path}.{s}"] = {"value": value, "unit": UNITS[s]}
        for module, path in COUNTED:
            out[f"{module}.{path}.calls"] = {
                "value": self.stats[(module, path)]["calls"], "unit": "count"}
        return out

    def ranks(self) -> dict:
        """Summed ranks returned by the elimination layers (for the results file)."""
        return {f"{m}.{a}": self.stats[(m, a)]["rank"] for (m, a) in RANK}
