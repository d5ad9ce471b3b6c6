"""In-memory span tracing around the public entry points of slicepower.

The tracer rebinds module attributes (as their callers look them up) to
timing wrappers, records one span per call, and restores the originals
on :meth:`Tracer.uninstall`.  Nothing under ``src/`` is edited.

A span holds its name, start, end, parent span and operation id; the
operation id is the index of the span's root, so every span caused by
one top-level call shares it.  Self time is a span's duration minus the
durations of its direct children (calls are single-threaded and nested,
so children never overlap).
"""

from __future__ import annotations

import importlib
import json
import time
from array import array

import numpy as np

_now = time.perf_counter


def _outage_call(args, kwargs, result):
    """``estimate_outage``: (trials x resources, 1 if a sure outage)."""
    p_u = kwargs.get("p_u", args[0] if args else None)
    trials = kwargs.get("trials", args[4] if len(args) > 4 else None)
    sure = result.p_hat == 1.0 and result.ci_halfwidth == 0.0
    return float(trials) * float(np.size(p_u)), float(sure)


def _allocate_call(args, kwargs, result):
    """``allocate``: (1 for the descent algorithm, 0)."""
    return float(result.algorithm == "bcd"), 0.0


def _descent_call(args, kwargs, result):
    """``descend_urllc_power``: (sweeps, 0)."""
    return float(result[1]), 0.0


#: (module, attribute, span name, extra recorder).  Every binding of one
#: function that a caller looks up gets its own row, under one span name.
#: ``estimate_outage`` as the table calls it and as ``alloc`` calls it
#: (the evidence run) are told apart by name suffix.
TARGETS = (
    ("slicepower.rng", "substream", "rng.substream", None),
    ("slicepower.rng", "derive_seed_sequence", "rng.derive_seed_sequence", None),
    ("slicepower.grid", "select_urllc_frequencies", "grid.select_urllc_frequencies", None),
    ("slicepower.alloc", "select_urllc_frequencies", "grid.select_urllc_frequencies", None),
    ("slicepower.alloc", "build_resource_sets", "grid.build_resource_sets", None),
    ("slicepower.waterfill", "embb_power", "waterfill.embb_power", None),
    ("slicepower.alloc", "embb_power", "waterfill.embb_power", None),
    ("slicepower.waterfill", "sic_power", "waterfill.sic_power", None),
    ("slicepower.alloc", "sic_power", "waterfill.sic_power", None),
    ("slicepower.waterfill", "waterfill", "waterfill.waterfill", None),
    ("slicepower.table", "estimate_outage", "outage.estimate_outage@table", _outage_call),
    ("slicepower.alloc", "estimate_outage", "outage.estimate_outage@alloc", _outage_call),
    ("slicepower.outage.CommonRandomOutage", "__init__", "outage.crn.init", None),
    ("slicepower.outage.CommonRandomOutage", "attach", "outage.crn.attach", None),
    ("slicepower.outage.CommonRandomOutage", "try_coordinate", "outage.crn.try_coordinate", None),
    ("slicepower.outage.CommonRandomOutage", "commit", "outage.crn.commit", None),
    ("slicepower.table", "build_table", "table.build_table", None),
    ("slicepower.sweep", "build_table", "table.build_table", None),
    ("slicepower.table", "save_table", "table.save_table", None),
    ("slicepower.table", "load_table", "table.load_table", None),
    ("slicepower.sweep", "load_table", "table.load_table", None),
    ("slicepower.alloc", "min_feasible_power", "table.min_feasible_power", None),
    ("slicepower.sweep", "allocate", "alloc.allocate", _allocate_call),
    ("slicepower.alloc", "descend_urllc_power", "alloc.descend_urllc_power", _descent_call),
    ("slicepower.sweep", "ensure_table", "sweep.ensure_table", None),
    ("slicepower.sweep", "run_sweep", "sweep.run_sweep", None),
    ("slicepower.config", "load_config", "config.load_config", None),
)


def _resolve(path: str):
    """Module, or class inside a module, named by a dotted path."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module, _, attr = path.rpartition(".")
        return getattr(importlib.import_module(module), attr)


class Tracer:
    """Span recorder; install() rebinds the targets, uninstall() restores them."""

    def __init__(self, targets=TARGETS):
        self.targets = tuple(targets)
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self.extra = array("d")
        self.extra2 = array("d")
        self._stack: list[int] = []
        self._saved: list = []

    # -- recording -------------------------------------------------------

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def span(self, name: str, fn, extra=None):
        """``fn`` wrapped so each call records one span named ``name``."""
        nid = self._intern(name)

        def traced(*args, **kwargs):
            idx = len(self.start)
            parent = self._stack[-1] if self._stack else -1
            self.name_id.append(nid)
            self.parent.append(parent)
            self.op.append(self.op[parent] if parent >= 0 else idx)
            self.extra.append(0.0)
            self.extra2.append(0.0)
            self.end.append(0.0)
            self._stack.append(idx)
            self.start.append(_now())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = _now()
                self._stack.pop()
            if extra is not None:
                self.extra[idx], self.extra2[idx] = extra(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for path, attr, name, extra in self.targets:
            owner = _resolve(path)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.span(name, original, extra))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def mark(self) -> int:
        """Index of the next span; spans recorded after it form a phase."""
        return len(self.start)

    # -- analysis ----------------------------------------------------------

    def arrays(self, lo: int = 0, hi: int | None = None) -> dict:
        """Spans ``lo:hi`` as numpy arrays, with durations and self times."""
        hi = len(self.start) if hi is None else hi
        name = np.asarray(self.name_id[lo:hi], dtype=np.int64)
        start = np.asarray(self.start[lo:hi], dtype=float)
        end = np.asarray(self.end[lo:hi], dtype=float)
        parent = np.asarray(self.parent[lo:hi], dtype=np.int64)
        dur = end - start
        child_time = np.zeros(hi - lo)
        inside = parent >= lo
        np.add.at(child_time, parent[inside] - lo, dur[inside])
        return {
            "name": name, "start": start, "end": end, "parent": parent,
            "extra": np.asarray(self.extra[lo:hi], dtype=float),
            "extra2": np.asarray(self.extra2[lo:hi], dtype=float),
            "dur": dur, "self": dur - child_time, "root": parent < lo,
        }

    def write(self, path: str) -> None:
        """Dump every span as JSON lines: a header, then one row per span."""
        header = {"names": self.names, "columns": ["name", "start", "end", "parent", "op"]}
        rows = zip(self.name_id, self.start, self.end, self.parent, self.op)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            fh.writelines(f"[{n}, {s!r}, {e!r}, {p}, {o}]\n" for n, s, e, p, o in rows)
