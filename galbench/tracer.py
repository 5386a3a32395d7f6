"""Per-module spans and counters, recorded by wrapping galmod's public
functions from outside the library.

Installing the tracer replaces each traced function in every galmod
module namespace that holds it, so names imported with ``from .x import
y`` (``complexes.group_cohomology``, ``patching.h_zero``) are caught as
well as calls through the defining module.  Spans are kept in memory as
(id, name, start, end, parent id, job index) and written out at the end
of the run.  A span's self time is its duration minus the durations of
its direct child spans; work in untraced functions lands in the nearest
traced caller, or in the untraced remainder of the pass.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import time
from collections import defaultdict

# Span name -> (module, attribute); "Class.method" wraps a method.  Both
# element_matrices methods are copies of one another and share a name.
SPANS = {
    "intlinalg.kernel_basis": [("intlinalg", "kernel_basis")],
    "intlinalg.image_basis": [("intlinalg", "image_basis")],
    "intlinalg.solve_columns": [("intlinalg", "solve_columns")],
    "intlinalg.smith_normal_form": [("intlinalg", "smith_normal_form")],
    "intlinalg.abgroup_from_subquotient":
        [("intlinalg", "abgroup_from_subquotient")],
    "intlinalg.mat_mul": [("intlinalg", "mat_mul")],
    "intlinalg.mat_inverse_unimodular":
        [("intlinalg", "mat_inverse_unimodular")],
    "cohomology.bar_differential": [("cohomology", "bar_differential")],
    "cohomology.group_cohomology": [("cohomology", "group_cohomology")],
    "cohomology.tate_cohomology": [("cohomology", "tate_cohomology")],
    "cohomology.hypercohomology": [("cohomology", "hypercohomology")],
    "cohomology.total_differential": [("cohomology", "total_differential")],
    "lattice.element_matrices": [("lattice", "GLattice.element_matrices"),
                                 ("lattice", "FgModule.element_matrices")],
    "lattice.induced_action_on_sublattice":
        [("lattice", "induced_action_on_sublattice")],
    "lattice.fixed_points": [("lattice", "fixed_points")],
    "lattice.fg_iso_check": [("lattice", "fg_iso_check")],
    "lattice.dual_lattice": [("lattice", "dual_lattice")],
    "groups.enumerate_subgroups": [("groups", "enumerate_subgroups")],
    "groups.coset_action": [("groups", "coset_action")],
    "complexes.classify": [("complexes", "classify")],
    "complexes.verify_square": [("complexes", "verify_square")],
    "complexes.pushout_square": [("complexes", "pushout_square")],
    "complexes.pullback_square": [("complexes", "pullback_square")],
    "complexes.cts_cover_coflasque": [("complexes", "cts_cover_coflasque")],
    "complexes.cts_embed_coflasque": [("complexes", "cts_embed_coflasque")],
    "complexes.replay_certificate": [("complexes", "replay_certificate")],
    "crossed.enumerate_cocycles": [("crossed", "enumerate_cocycles")],
    "crossed.h_zero": [("crossed", "h_zero")],
    "crossed.h_minus_one": [("crossed", "h_minus_one")],
    "patching.mv_columns": [("patching", "mv_columns")],
    "patching.sha": [("patching", "sha")],
    "patching.nine_term_report": [("patching", "nine_term_report")],
    "patching.crossed_six_term_report":
        [("patching", "crossed_six_term_report")],
    "patching.remark_compare": [("patching", "remark_compare")],
    "serialize.dump_certificate": [("serialize", "dump_certificate")],
    "serialize.load_certificate": [("serialize", "load_certificate")],
}

# Spans whose inclusive time is reported as well as their self time.
INCLUSIVE = ("cohomology.group_cohomology", "complexes.classify",
             "complexes.replay_certificate", "crossed.h_zero",
             "patching.mv_columns")

# Counters, with their units.
COUNTERS = {
    "intlinalg.kernel_basis.entries_in": "count",
    "intlinalg.kernel_basis.nnz_in": "count",
    "intlinalg.kernel_basis.nnz_out": "count",
    "intlinalg.smith_normal_form.entries_in": "count",
    "cohomology.bar_differential.nnz_out": "count",
    "cohomology.group_cohomology.repeat_ratio": "ratio",
    "complexes.resolved_rank": "count",
    "crossed.enumerate_cocycles.candidates": "count",
    "crossed.enumerate_cocycles.found": "count",
    "serialize.certificate_bytes": "bytes",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for name in SPANS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for name in INCLUSIVE:
        units[f"{name}.incl_s"] = "s"
    units.update(COUNTERS)
    units["trace.wall_s"] = "s"
    units["trace.overhead_ratio"] = "ratio"
    units["trace.untraced_s"] = "s"
    return units


def _nnz(rows) -> int:
    return sum(len(r) - r.count(0) for r in rows)


def _shape_entries(m) -> int:
    return len(m) * (len(m[0]) if len(m) else 0)


def _subgroup_key(h):
    members = getattr(h, "members", None)
    return (id(h.parent), members) if members is not None else (id(h), None)


class Tracer:
    """Records spans and counters while ``active``; install() wraps the
    library, uninstall() restores it."""

    def __init__(self):
        self.active = False
        self.spans: list[tuple] = []
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.job = -1
        self._stack: list[list] = []  # [span id, child seconds]
        self._depth = defaultdict(int)
        self._seen: set = set()
        self._pins: list = []
        self._patched: list[tuple] = []

    # -- counters ------------------------------------------------------------

    def begin_job(self, index: int) -> None:
        """Job boundary: repeats of a cohomology query count per job."""
        self.job = index
        self._seen.clear()
        self._pins.clear()

    def _after(self, name: str, args, kwargs, out) -> None:
        c = self.counts
        if name == "intlinalg.kernel_basis":
            a = args[0]
            c["intlinalg.kernel_basis.entries_in"] += _shape_entries(a)
            c["intlinalg.kernel_basis.nnz_in"] += _nnz(a)
            c["intlinalg.kernel_basis.nnz_out"] += _nnz(out)
        elif name == "intlinalg.smith_normal_form":
            c["intlinalg.smith_normal_form.entries_in"] += \
                _shape_entries(args[0])
        elif name == "cohomology.bar_differential":
            c["cohomology.bar_differential.nnz_out"] += _nnz(out)
        elif name == "cohomology.group_cohomology":
            h, a = args[0], args[1]
            n = args[2] if len(args) > 2 else kwargs["n"]
            normalized = (args[3] if len(args) > 3
                          else kwargs.get("normalized", True))
            key = (_subgroup_key(h), id(a), n, normalized)
            if key in self._seen:
                c["cohomology.group_cohomology.repeats"] += 1
            else:
                self._seen.add(key)
                self._pins.append((h, a))  # keep ids unique in this job
        elif name == "serialize.dump_certificate":
            c["serialize.certificate_bytes"] += len(
                importlib.import_module("galmod.serialize").to_json(out))
        elif name == "crossed.enumerate_cocycles":
            cm = args[0]
            c["crossed.enumerate_cocycles.candidates"] += \
                cm.g.order ** cm.galois.order
            c["crossed.enumerate_cocycles.found"] += len(out)

    def _resolution_counter(self, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            out = fn(*args, **kwargs)
            if tracer.active:
                resolved = out[0]
                tracer.counts["complexes.resolved_rank"] += \
                    resolved.l1.rank + resolved.l2.rank
            return out
        return counted

    # -- spans ---------------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self
        spans = self.spans
        stack = self._stack
        depth = self._depth
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span_id = len(spans)
            parent = stack[-1][0] if stack else -1
            spans.append(None)  # reserve the id; filled in on exit
            frame = [span_id, 0.0]
            stack.append(frame)
            depth[name] += 1
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                depth[name] -= 1
                dur = end - start
                spans[span_id] = (span_id, name, start, end, parent,
                                  tracer.job)
                tracer.calls[name] += 1
                tracer.self_s[name] += dur - frame[1]
                if not depth[name]:
                    tracer.incl_s[name] += dur
                if stack:
                    stack[-1][1] += dur
            tracer._after(name, args, kwargs, out)
            return out
        return traced

    def _replace_everywhere(self, original, replacement) -> None:
        for modname, mod in list(sys.modules.items()):
            if not (modname == "galmod" or modname.startswith("galmod.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def install(self) -> None:
        for name, targets in SPANS.items():
            for modname, attr in targets:
                mod = importlib.import_module(f"galmod.{modname}")
                owner_name, _, fname = attr.rpartition(".")
                owner = getattr(mod, owner_name, None) if owner_name else mod
                original = getattr(owner, fname, None)
                if original is None:
                    continue  # removed from the library: reported as 0
                wrapped = self._wrap(name, original)
                if owner_name:
                    self._patched.append((owner, fname, original))
                    setattr(owner, fname, wrapped)
                else:
                    self._replace_everywhere(original, wrapped)
        complexes = importlib.import_module("galmod.complexes")
        original = getattr(complexes, "coflasque_resolution", None)
        if original is not None:
            self._replace_everywhere(original,
                                     self._resolution_counter(original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- results -------------------------------------------------------------

    def top_level_seconds(self) -> float:
        return sum(s[3] - s[2] for s in self.spans if s[4] == -1)

    def metrics(self, traced_wall: float, overhead: float) -> dict:
        units = per_layer_units()
        values = {}
        for name in SPANS:
            values[f"{name}.calls"] = self.calls.get(name, 0)
            values[f"{name}.self_s"] = self.self_s.get(name, 0.0)
        for name in INCLUSIVE:
            values[f"{name}.incl_s"] = self.incl_s.get(name, 0.0)
        for name in COUNTERS:
            values[name] = self.counts.get(name, 0)
        calls = self.calls.get("cohomology.group_cohomology", 0)
        values["cohomology.group_cohomology.repeat_ratio"] = (
            self.counts.get("cohomology.group_cohomology.repeats", 0) / calls
            if calls else 0.0)
        values["trace.wall_s"] = traced_wall
        values["trace.overhead_ratio"] = overhead
        values["trace.untraced_s"] = traced_wall - self.top_level_seconds()
        return {k: {"value": values[k], "unit": units[k]} for k in units}

    def write(self, path: str) -> None:
        """Spans as gzipped JSON lines: [id, name, start, end, parent, job]."""
        with gzip.open(path, "wt") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
