"""Tracing from outside the program: one span per call of each wrapped
public function, kept in memory and turned into per-layer metrics.

Functions are wrapped at the module attribute the program calls them
through (``tinregions.outer.bnb_solve``, not ``tinregions.inner.
bnb_solve``, because ``outer.py`` imports the name), so wrapping changes
no numeric output.  A span is ``[name, start, end, parent, op, attrs]``;
``parent`` indexes the enclosing span (-1 for none) and ``op`` is the
benchmark operation that caused it.
"""

from __future__ import annotations

import json
import time
import tracemalloc
from collections import defaultdict

import numpy as np

from tinregions import fileio, outer, regions


def _inner(args, kwargs, r):
    return {"boxes": int(r.iterations), "capped": bool(r.capped), "converged": bool(r.converged)}


def _cutting_plane(args, kwargs, r):
    warm = kwargs.get("initial_cuts", args[4] if len(args) > 4 else None)
    return {"cuts": len(r.cuts), "warm": len(warm or ())}


#: (module, attribute, span name, attrs from (args, kwargs, result))
WRAPPED = (
    (fileio, "load_channel", "fileio.load", None),
    (regions, "ts_point", "point", None),
    (outer, "ts_point", "point", None),
    (outer, "cutting_plane", "outer", _cutting_plane),
    (outer, "primal_recover", "recover", lambda a, k, r: {"active": len(r.strategies)}),
    (outer, "bnb_solve", "inner", _inner),
    (outer, "lp_solve", "lp", lambda a, k, r: {"rows": len(a[0].rows)}),
    (outer, "rate_pair_proper", "model.proper", None),
    (regions, "lp_solve", "lp", lambda a, k, r: {"rows": len(a[0].rows)}),
    (regions, "improper_rates", "model.improper", lambda a, k, r: {"points": int(np.size(r[0]))}),
    (regions, "pure_improper_samples", "sampling", lambda a, k, r: {"points": len(r)}),
    (regions, "upper_right_hull", "hull",
     lambda a, k, r: {"points_in": len(a[0]), "vertices": len(r)}),
    (regions, "theorem1_check", "theorem1", lambda a, k, r: {"trials": r.trials}),
)

#: Spans whose peak traced allocation is recorded (``peak_mb``).
MEMORY_SPANS = {"sampling"}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = None
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def install(self) -> None:
        for module, attr, name, describe in WRAPPED:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, describe))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, original, name, describe):
        memory = name in MEMORY_SPANS

        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op, {}]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            if memory:
                tracemalloc.start()
            span[1] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                span[5]["error"] = type(exc).__name__
                raise
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
                if memory:
                    span[5]["peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
            if describe is not None:
                span[5].update(describe(args, kwargs, result))
            return result

        return wrapper

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op, attrs in self.spans:
                rec = {"name": name, "start": start, "end": end, "parent": parent, "op": op}
                fh.write(json.dumps({**rec, **attrs}) + "\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def layer_metrics(spans, rounds: int) -> dict[str, float]:
    """Per-layer metrics of the traced rounds.  Counts and times are per
    round; maxima, means and ratios are over all traced rounds."""
    own = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    busy: dict[str, float] = defaultdict(float)
    total: dict[str, float] = defaultdict(float)
    boxes_max = rows_max = 0
    peak_mb = 0.0
    for i, (name, _, _, parent, _, attrs) in enumerate(spans):
        key = name
        if name == "lp":
            kind = {"outer": "cut", "recover": "recover", "theorem1": "weight"}
            key = "lp." + kind.get(spans[parent][0] if parent >= 0 else "", "other")
            calls["lp"] += 1
            busy["lp"] += own[i]
            total["lp.rows"] += attrs.get("rows", 0)
            rows_max = max(rows_max, attrs.get("rows", 0))
        calls[key] += 1
        busy[key] += own[i]
        if name == "inner":
            total["inner.boxes"] += attrs.get("boxes", 0)
            total["inner.capped"] += bool(attrs.get("capped"))
            total["inner.exhausted"] += attrs.get("converged") is False
            boxes_max = max(boxes_max, attrs.get("boxes", 0))
        for attr in ("cuts", "warm", "active", "points", "trials", "points_in", "vertices"):
            if attr in attrs:
                total[f"{name}.{attr}"] += attrs[attr]
        peak_mb = max(peak_mb, attrs.get("peak_mb", 0.0))
    per = 1.0 / max(rounds, 1)
    return {
        "inner.calls": calls["inner"] * per,
        "inner.self_s": busy["inner"] * per,
        "inner.boxes": total["inner.boxes"] * per,
        "inner.boxes_max": boxes_max,
        "inner.capped": total["inner.capped"] * per,
        "inner.exhausted": total["inner.exhausted"] * per,
        "outer.points": calls["point"] * per,
        "outer.iterations": calls["lp.cut"] * per,
        "outer.cuts": total["outer.cuts"] * per,
        "outer.warm_cuts": total["outer.warm"] * per,
        "outer.active_per_cut": total["recover.active"] / calls["inner"] if calls["inner"] else 0.0,
        "outer.self_s": busy["outer"] * per,
        "recover.calls": calls["recover"] * per,
        "recover.self_s": busy["recover"] * per,
        "lp.calls": calls["lp"] * per,
        "lp.self_s": busy["lp"] * per,
        "lp.rows_max": rows_max,
        "lp.rows_mean": total["lp.rows"] / calls["lp"] if calls["lp"] else 0.0,
        "lp.cut.self_s": busy["lp.cut"] * per,
        "lp.recover.self_s": busy["lp.recover"] * per,
        "lp.weight.self_s": busy["lp.weight"] * per,
        "model.proper.calls": calls["model.proper"] * per,
        "model.proper.self_s": busy["model.proper"] * per,
        "model.improper.calls": calls["model.improper"] * per,
        "model.improper.points": total["model.improper.points"] * per,
        "model.improper.self_s": busy["model.improper"] * per,
        "theorem1.trials": total["theorem1.trials"] * per,
        "theorem1.self_s": busy["theorem1"] * per,
        "sampling.self_s": busy["sampling"] * per,
        "sampling.points": total["sampling.points"] * per,
        "sampling.peak_mb": peak_mb,
        "hull.self_s": busy["hull"] * per,
        "hull.points_in": total["hull.points_in"] * per,
        "hull.vertices": total["hull.vertices"] * per,
    }
