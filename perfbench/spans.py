"""Span tracer for the per-layer run.

The tracer wraps public walshlab functions from outside the package: each
wrapper records one span (name, start, end, parent, counts) and the
wrappers are patched into every ``walshlab.*`` module namespace that holds
the original, because ``experiments`` and ``cli`` import by name.  Spans
stay in memory until the round ends; ``reduce`` turns them into the
per-layer metrics listed in ``BENCHMARK.json``.

A name that a later version of walshlab no longer defines is skipped, so
its metrics read 0 instead of breaking the run.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict

import numpy as np


def _weighted_counts(args, kwargs, result) -> dict:
    f = args[0] if args else kwargs["f"]
    return {"cells": f.size**2, "m": f.m}


def _restricted_counts(args, kwargs, result) -> dict:
    seq = args[1] if len(args) > 1 else kwargs["seq"]
    indices = getattr(seq, "indices", seq)
    return {"orders": len(tuple(indices))}


def _levels_counts(args, kwargs, result) -> dict:
    f = args[0] if args else kwargs["f"]
    vals = np.abs(np.asarray(f.values, dtype=np.float64))
    return {"levels": int(np.unique(vals[vals > 0]).size)}


def _rows_counts(args, kwargs, result) -> dict:
    lo = args[0] if args else kwargs["lo"]
    hi = args[1] if len(args) > 1 else kwargs["hi"]
    return {"rows": int(hi) - int(lo)}


def _bytes_written(args, kwargs, result) -> dict:
    total = 0
    if result is not None:
        path = os.fspath(result)
        total += os.path.getsize(path)
        stem, _ = os.path.splitext(path)
        sidecar = stem + ".meta.json"
        if sidecar != path and os.path.exists(sidecar):
            total += os.path.getsize(sidecar)
    return {"bytes": total}


#: (module, attribute, span name, count function).  Module-level functions
#: are patched wherever they were imported; ``Class.method`` entries are
#: patched on the class.
TARGETS = (
    ("spectral", "fwht_forward", "spectral.fwht", None),
    ("spectral", "fwht_inverse", "spectral.fwht", None),
    ("spectral", "partial_sum", "spectral.partial_sum", None),
    ("spectral", "walsh_rows", "spectral.walsh_rows", _rows_counts),
    ("spectral", "dirichlet_direct", "spectral.dirichlet", None),
    ("spectral", "dirichlet_fast", "spectral.dirichlet", None),
    ("spectral", "dirichlet_dyadic", "spectral.dirichlet", None),
    ("spectral", "_dirichlet_fast_int64", "spectral.dirichlet", None),
    ("spectral", "_dirichlet_dyadic_int64", "spectral.dirichlet", None),
    ("analysis", "lp_quasinorm", "analysis.lp_quasinorm", None),
    ("analysis", "weak_lp_quasinorm", "analysis.weak_lp_quasinorm", _levels_counts),
    ("analysis", "maximal_function", "analysis.maximal_function", None),
    ("analysis", "hardy_quasinorm", "analysis.hardy_quasinorm", None),
    ("analysis", "validate_atom", "analysis.validate_atom", None),
    ("operators", "weighted_maximal", "operators.weighted_maximal", _weighted_counts),
    ("operators", "restricted_maximal", "operators.restricted_maximal", _restricted_counts),
    ("operators", "weak_type_constant", "operators.weak_type_constant", None),
    ("constructions", "make_atom", "constructions.make_atom", None),
    ("experiments", "theorem1_weak_type", "experiments.theorem1_weak_type", None),
    ("experiments", "corollary_suite", "experiments.corollary_suite", None),
    ("experiments", "theorem2_growth", "experiments.theorem2_growth", None),
    ("experiments", "theorem2_weak_divergence", "experiments.theorem2_weak_divergence", None),
    ("experiments", "verify_all", "experiments.verify_all", None),
    ("reporting", "ExperimentReport.write", "reporting.write", _bytes_written),
    ("reporting", "ExperimentReport.write_cases_csv", "reporting.write", _bytes_written),
    ("reporting", "ExperimentReport.write_series_tsv", "reporting.write", _bytes_written),
)

EXPERIMENTS = (
    "theorem1_weak_type",
    "corollary_suite",
    "theorem2_growth",
    "theorem2_weak_divergence",
    "verify_all",
)

MS_PER_CALL_RESOLUTIONS = range(6, 13)


class Tracer:
    """Records nested spans of wrapped calls in one thread."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (name, start, end, parent, counts)
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, name: str, fn, count):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append(None)
            tracer._stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[idx] = (name, start, end, parent, None)
            if count is not None:
                # Counting runs outside the span, as a sibling the reduction
                # ignores, so it inflates no layer's self time.
                tracer.spans[idx] = (name, start, end, parent, count(args, kwargs, result))
                tracer.spans.append(("trace.count", end, time.perf_counter(), parent, None))
            return result

        return wrapper

    def install(self, extra_modules=()) -> None:
        """Patch wrappers into walshlab and ``extra_modules``; ``uninstall`` restores the originals.

        Module-level dicts are patched too, since a registry such as the
        CLI's verifier table holds the functions it dispatches to.
        """
        modules = [mod for key, mod in list(sys.modules.items()) if key.startswith("walshlab")]
        modules += list(extra_modules)
        for modname, attr, name, count in TARGETS:
            home = sys.modules.get(f"walshlab.{modname}")
            if home is None:
                continue
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name, None)
                original = getattr(cls, meth, None) if cls is not None else None
                if original is None:
                    continue
                self._undo.append((cls, meth, original))
                setattr(cls, meth, self._wrap(name, original, count))
                continue
            original = getattr(home, attr, None)
            if original is None:
                continue
            wrapper = self._wrap(name, original, count)
            for mod in modules:
                namespace = vars(mod)
                tables = [namespace] + [v for v in namespace.values() if isinstance(v, dict)]
                for table in tables:
                    for key, value in list(table.items()):
                        if value is original:
                            self._undo.append((table, key, original))
                            table[key] = wrapper

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._undo.clear()

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        out = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        return out


def reduce(tracer: Tracer) -> dict:
    """Per-layer metrics of one traced round, keyed by metric name."""
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    counts: dict[str, int] = defaultdict(int)
    wm_time_by_m: dict[int, float] = defaultdict(float)
    wm_calls_by_m: dict[int, int] = defaultdict(int)
    inclusive: dict[str, float] = defaultdict(float)
    for (name, start, end, _, cnt), own in zip(tracer.spans, tracer.self_times()):
        self_s[name] += own
        calls[name] += 1
        inclusive[name] += end - start
        for key, value in (cnt or {}).items():
            if key != "m":
                counts[f"{name}.{key}"] += value
        if name == "operators.weighted_maximal" and cnt:
            wm_time_by_m[cnt["m"]] += end - start
            wm_calls_by_m[cnt["m"]] += 1

    wm = "operators.weighted_maximal"
    wm_total = inclusive[wm]
    metrics: dict[str, tuple[float, str]] = {
        f"{wm}.self_s": (self_s[wm], "s"),
        f"{wm}.calls": (calls[wm], "count"),
        f"{wm}.cells": (counts[f"{wm}.cells"], "count"),
        f"{wm}.mcells_per_s": (counts[f"{wm}.cells"] / wm_total / 1e6 if wm_total else 0.0, "Mcell/s"),
    }
    for m in MS_PER_CALL_RESOLUTIONS:
        n = wm_calls_by_m.get(m, 0)
        metrics[f"{wm}.ms_per_call.m{m}"] = (1e3 * wm_time_by_m[m] / n if n else 0.0, "ms")
    rm = "operators.restricted_maximal"
    metrics[f"{rm}.self_s"] = (self_s[rm], "s")
    metrics[f"{rm}.orders"] = (counts[f"{rm}.orders"], "count")
    metrics["operators.weak_type_constant.self_s"] = (self_s["operators.weak_type_constant"], "s")
    wl = "analysis.weak_lp_quasinorm"
    metrics[f"{wl}.self_s"] = (self_s[wl], "s")
    metrics[f"{wl}.levels"] = (counts[f"{wl}.levels"], "count")
    metrics["spectral.fwht.self_s"] = (self_s["spectral.fwht"], "s")
    metrics["spectral.fwht.calls"] = (calls["spectral.fwht"], "count")
    for name in (
        "spectral.partial_sum",
        "analysis.maximal_function",
        "analysis.lp_quasinorm",
        "analysis.hardy_quasinorm",
        "spectral.walsh_rows",
        "spectral.dirichlet",
        "constructions.make_atom",
        "analysis.validate_atom",
    ):
        metrics[f"{name}.self_s"] = (self_s[name], "s")
    metrics["spectral.walsh_rows.rows"] = (counts["spectral.walsh_rows.rows"], "count")
    metrics["experiments.self_s"] = (
        sum(self_s[f"experiments.{e}"] for e in EXPERIMENTS),
        "s",
    )
    for e in EXPERIMENTS:
        metrics[f"experiments.{e}.wall_s"] = (inclusive[f"experiments.{e}"], "s")
    metrics["reporting.write_s"] = (inclusive["reporting.write"], "s")
    metrics["reporting.bytes"] = (counts["reporting.write.bytes"], "B")
    return metrics


def dump(tracer: Tracer, path: str) -> None:
    """Write the spans as JSON lines: name, start, end, parent, counts."""
    with open(path, "w") as fh:
        for idx, (name, start, end, parent, cnt) in enumerate(tracer.spans):
            fh.write(json.dumps({"id": idx, "name": name, "start": start, "end": end,
                                 "parent": parent, "counts": cnt}) + "\n")
