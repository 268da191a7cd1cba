"""Spans around calls into dimlab's layers, installed from outside the package.

The tracer replaces a function at every module attribute that holds it, so a
caller that did ``from .geometry import word_geometry`` is traced as well as
one that calls ``geometry.word_geometry``.  Each call becomes one span (id,
parent id, name, start, end, info) kept in memory; ``info`` holds the work
counts computed from the call's arguments and result.  ``uninstall`` puts
every original back.

``summarize`` turns the spans of one run into per-layer self times and
counters.  Self time is a span's duration minus the part of it that its
child spans cover.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import sys
import threading
from time import perf_counter

import numpy as np

_REPRESENTABLE = 2.0 ** 53


def _mix64(args, kwargs, result):
    return {"hashes": int(np.size(result))}


def _sample_tree(args, kwargs, result):
    return {"nodes": int(result.counts().sum()), "survived": not result.extinct}


def _cell_cloud(args, kwargs, result):
    # signature: cell_cloud(self, ifs, k, persistent=False)
    k = args[2] if len(args) > 2 else kwargs["k"]
    persistent = args[3] if len(args) > 3 else kwargs.get("persistent", False)
    return {"cloud": [int(args[0].seed), int(k), bool(persistent)]}


def _word_geometry(args, kwargs, result):
    n, k = np.shape(args[1] if len(args) > 1 else kwargs["symbols"])
    return {"cells": int(n) * int(k)}


def _stopping_set(args, kwargs, result):
    return {"cells": len(result)}


def _slice_counts(args, kwargs, result):
    return {"evals": int(np.size(result))}


def _dimlab_modules() -> list:
    return [
        m for n, m in list(sys.modules.items())
        if m is not None and (n == "dimlab" or n.startswith("dimlab."))
    ]


class Tracer:
    """Records spans for calls into the wrapped dimlab functions."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._restore = []
        self._wrappers = []
        self.missing = []
        self._decidable = {}

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs, count=None, parent=None):
        stack = self._stack()
        if parent is None:
            parent = stack[-1] if stack else 0
        sid = next(self._ids)
        stack.append(sid)
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            t1 = perf_counter()
            stack.pop()
            self.spans.append((sid, parent, name, t0, t1, {"raised": True}))
            raise
        t1 = perf_counter()
        stack.pop()
        info = count(args, kwargs, result) if count is not None else None
        # list.append is atomic under the interpreter lock, so worker threads
        # of parallel_map can record without a lock of their own
        self.spans.append((sid, parent, name, t0, t1, info))
        return result

    def _wrap(self, name, fn, count=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs, count)

        self._wrappers.append(traced)
        return traced

    def _wrap_parallel_map(self, fn, thread_count):
        tracer = self

        @functools.wraps(fn)
        def traced(item_fn, items):
            items = list(items)
            threads = max(1, min(thread_count(), len(items)))
            stack = tracer._stack()
            parent = stack[-1] if stack else 0
            sid = next(tracer._ids)

            def item(x):
                return tracer.call(
                    "experiments.parallel_map.item", item_fn, (x,), {}, parent=sid
                )

            stack.append(sid)
            t0 = perf_counter()
            try:
                return fn(item, items)
            finally:
                t1 = perf_counter()
                stack.pop()
                tracer.spans.append(
                    (sid, parent, "experiments.parallel_map", t0, t1,
                     {"threads": threads})
                )

        self._wrappers.append(traced)
        return traced

    def _scan_directions(self, args, kwargs, result):
        params = args[0] if args else kwargs["params"]
        if params not in self._decidable:
            n = np.arange(1, params.big_n + 1, dtype=np.float64)
            qk = params.q * params.k
            with np.errstate(over="ignore"):
                scales = params.r ** (params.q - qk * (params.big_n - n))
                size = params.b * params.taus()[:, None] * scales[None, :]
            self._decidable[params] = int(np.count_nonzero(np.abs(size) < _REPRESENTABLE))
        per_beta = params.tau_grid * params.big_n
        betas = len(result.betas)
        return {"terms": per_beta * betas, "decidable": self._decidable[params] * betas}

    # -- installing --------------------------------------------------------

    def _replace_everywhere(self, original, replacement):
        """Point every dimlab module attribute that holds `original` at `replacement`."""
        for module in _dimlab_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._restore.append((module, attr, original))

    def install(self):
        import dimlab.experiments as experiments
        import dimlab.exceptional as exceptional
        import dimlab.geometry as geometry
        import dimlab.percolation as percolation
        import dimlab.rng as rng
        import dimlab.sections as sections

        functions = [
            (rng, "mix64", _mix64),
            (percolation, "sample_tree", _sample_tree),
            (geometry, "word_geometry", _word_geometry),
            (geometry, "stopping_set", _stopping_set),
            (sections, "slice_counts", _slice_counts),
            (sections, "fit_loglog", None),
            (sections, "probe_sections", None),
            (exceptional, "scan_directions", self._scan_directions),
            (experiments, "run_scenario", None),
        ]
        for module, attr, count in functions:
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module.__name__}.{attr}")
                continue
            name = f"{module.__name__.split('.')[-1]}.{attr}"
            self._replace_everywhere(original, self._wrap(name, original, count))

        original = getattr(experiments, "parallel_map", None)
        if original is None:
            self.missing.append("dimlab.experiments.parallel_map")
        else:
            self._replace_everywhere(
                original, self._wrap_parallel_map(original, experiments.thread_count)
            )

        cls = getattr(percolation, "PercolationSample", None)
        for attr, count in (("persistent_masks", None), ("cell_cloud", _cell_cloud)):
            original = cls.__dict__.get(attr) if cls is not None else None
            if original is None:
                self.missing.append(f"dimlab.percolation.PercolationSample.{attr}")
                continue
            setattr(cls, attr, self._wrap(f"percolation.{attr}", original, count))
            self._restore.append((cls, attr, original))

        # run_scenario looks the runner up in the SCENARIOS registry
        registry = experiments.SCENARIOS
        for key, spec in list(registry.items()):
            runner = self._wrap("experiments.runner", spec.runner)
            registry[key] = dataclasses.replace(spec, runner=runner)
            self._restore.append((registry, key, spec))
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._restore.clear()

    def leftovers(self) -> list:
        """Names in dimlab that still hold a wrapper after uninstall."""
        import dimlab.experiments as experiments
        import dimlab.percolation as percolation

        found = []
        owners = [(m.__name__, vars(m)) for m in _dimlab_modules()]
        owners.append(("PercolationSample", vars(percolation.PercolationSample)))
        owners.append(("SCENARIOS", {k: s.runner for k, s in experiments.SCENARIOS.items()}))
        wrappers = {id(w) for w in self._wrappers}
        for owner, names in owners:
            found += [f"{owner}.{a}" for a, v in names.items() if id(v) in wrappers]
        return found


# ---------------------------------------------------------------------------
# summaries


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, end = 0.0, -np.inf
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def self_times(spans) -> dict:
    """Per span id, duration minus the part its children cover."""
    children = {}
    for sid, parent, _name, t0, t1, _info in spans:
        children.setdefault(parent, []).append((t0, t1))
    return {
        sid: (t1 - t0) - _covered(children.get(sid, ()))
        for sid, _parent, _name, t0, t1, _info in spans
    }


# Layers whose self time is reported by name; all other spans (scenario glue,
# cell_cloud masking, parallel_map items) make up the remainder.
NAMED_SELF = (
    "rng.mix64",
    "percolation.sample_tree",
    "percolation.persistent_masks",
    "geometry.word_geometry",
    "geometry.stopping_set",
    "sections.slice_counts",
    "sections.fit_loglog",
    "sections.probe_sections",
    "exceptional.scan_directions",
    "experiments.run_scenario",
)


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def summarize(spans) -> dict:
    """Per-layer self times, counters and item times of one traced run."""
    spans = [tuple(s) for s in spans]
    own = self_times(spans)
    by_name = {}
    for span in spans:
        by_name.setdefault(span[2], []).append(span)

    def calls(name):
        return len(by_name.get(name, ()))

    def self_s(name):
        return sum(own[s[0]] for s in by_name.get(name, ()))

    def total(name, key):
        return sum(s[5][key] for s in by_name.get(name, ()))

    roots = by_name.get("experiments.run_scenario", [])
    wall = sum(s[4] - s[3] for s in roots)
    named = {name: self_s(name) for name in NAMED_SELF}
    remainder = sum(own[s[0]] for s in spans if s[2] not in named)

    trees = by_name.get("percolation.sample_tree", [])
    clouds = {tuple(s[5]["cloud"]) for s in by_name.get("percolation.cell_cloud", ())}
    folds = calls("geometry.word_geometry")
    fits = by_name.get("sections.fit_loglog", [])
    maps = by_name.get("experiments.parallel_map", [])
    map_wall = sum((s[4] - s[3]) * s[5]["threads"] for s in maps)
    busy = sum(s[4] - s[3] for s in by_name.get("experiments.parallel_map.item", ()))
    terms = total("exceptional.scan_directions", "terms")

    out = {
        "rng.mix64.calls": calls("rng.mix64"),
        "rng.mix64.self_s": named["rng.mix64"],
        "rng.hashes": total("rng.mix64", "hashes"),
        "percolation.sample_tree.calls": len(trees),
        "percolation.sample_tree.self_s": named["percolation.sample_tree"],
        "percolation.nodes": total("percolation.sample_tree", "nodes"),
        "percolation.survival_ratio": _ratio(
            sum(s[5]["survived"] for s in trees), len(trees)
        ),
        "percolation.persistent_masks.self_s": named["percolation.persistent_masks"],
        "geometry.word_geometry.calls": folds,
        "geometry.word_geometry.self_s": named["geometry.word_geometry"],
        "geometry.cells_folded": total("geometry.word_geometry", "cells"),
        "geometry.fold_reuse_ratio": _ratio(len(clouds), folds),
        "geometry.stopping_set.self_s": named["geometry.stopping_set"],
        "geometry.stopping_set.cells": total("geometry.stopping_set", "cells"),
        "sections.slice_counts.self_s": named["sections.slice_counts"],
        "sections.slice_evals": total("sections.slice_counts", "evals"),
        "sections.fit_loglog.calls": len(fits),
        "sections.fit_loglog.self_s": named["sections.fit_loglog"],
        "sections.fit_accept_ratio": _ratio(
            sum(not s[5] for s in fits), len(fits)
        ),
        "sections.probe_sections.self_s": named["sections.probe_sections"],
        "exceptional.scan_directions.self_s": named["exceptional.scan_directions"],
        "exceptional.terms": terms,
        "exceptional.decidable_ratio": _ratio(
            total("exceptional.scan_directions", "decidable"), terms
        ),
        "experiments.parallel_map.busy_s": busy,
        "experiments.parallel_map.efficiency": _ratio(busy, map_wall),
        "experiments.run_scenario.self_s": named["experiments.run_scenario"],
        "trace.wall_s": wall,
        "trace.remainder_s": remainder,
        "trace.named_self_s": sum(named.values()),
    }
    out["items"] = item_times(by_name)
    return out


# Work counters that must repeat exactly between runs and thread counts.
COUNTERS = (
    "rng.mix64.calls",
    "rng.hashes",
    "percolation.sample_tree.calls",
    "percolation.nodes",
    "percolation.survival_ratio",
    "geometry.word_geometry.calls",
    "geometry.cells_folded",
    "geometry.fold_reuse_ratio",
    "geometry.stopping_set.cells",
    "sections.slice_evals",
    "sections.fit_loglog.calls",
    "sections.fit_accept_ratio",
    "exceptional.terms",
    "exceptional.decidable_ratio",
)


def item_times(by_name) -> list:
    """Durations of the work items: one tree, one probe trial or one beta chunk.

    parallel_map items cover trees and beta chunks.  probe_sections runs its
    trials in a serial loop with no call boundary of its own, so a trial
    lasts from one sample_tree start to the next (the last one to the end of
    probe_sections).
    """
    items = [s[4] - s[3] for s in by_name.get("experiments.parallel_map.item", ())]
    for probe in by_name.get("sections.probe_sections", ()):
        starts = sorted(
            s[3] for s in by_name.get("percolation.sample_tree", ()) if s[1] == probe[0]
        )
        ends = starts[1:] + [probe[4]]
        items += [b - a for a, b in zip(starts, ends)]
    return items
