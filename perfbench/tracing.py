"""Spans around the package's layer functions, and the per-layer metrics
derived from them.

`install` replaces module-level functions of `alwabp` with wrappers that
record one span per call: name, start, end, parent span and op id, plus a
few attributes taken from the call's arguments and result (for example
whether a reduction-rule call found the node dead). Spans stay in memory
until the run writes them out. The package itself is not changed; the
wrappers call the original functions with the original arguments.
"""

from __future__ import annotations

import inspect
import json
import statistics
import time
from contextlib import contextmanager

from alwabp import bnb, bounds, cli, heuristic


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op id, attributes]
        self.op = None
        self._stack = []

    @contextmanager
    def span(self, name):
        rec = [name, time.perf_counter(), None, self._stack[-1] if self._stack else None, self.op, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name, fn, observe=None):
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
            if observe is not None:
                rec[5] = observe(args, kwargs, result)
            return result

        return traced

    def write(self, path):
        keys = ("name", "start", "end", "parent", "op", "attrs")
        with open(path, "w", encoding="ascii") as fh:
            for rec in self.spans:
                fh.write(json.dumps(dict(zip(keys, rec))) + "\n")


def _split_all_bounds(tracer, orig):
    """`all_bounds` computes each requested bound on its own, so calling it
    once per bound name gives the same report and one span per bound."""
    sig = inspect.signature(orig)

    def all_bounds(*args, **kwargs):
        call = sig.bind(*args, **kwargs)
        call.apply_defaults()
        names = tuple(call.arguments["include"])
        if not names:
            return orig(*args, **kwargs)
        report = None
        for name in names:
            call.arguments["include"] = (name,)
            with tracer.span(f"bounds.{name}"):
                part = orig(*call.args, **call.kwargs)
            if report is None:
                report = part
            else:
                report.entries.extend(part.entries)
        return report

    return all_bounds


def _beam_observe(args, kwargs, result):
    return {"feasible": result is not heuristic.FAILED}


def _value_observe(args, kwargs, result):
    return {"value": None if result is heuristic.FAILED else result.cycle_time}


def _ls_observe(args, kwargs, result):
    sol = args[1] if len(args) > 1 else kwargs["sol"]
    return {"before": sol.cycle_time, "after": result.cycle_time}


def _reduce_observe(args, kwargs, result):
    return {"dead": bool(result)}


def _node_bound_observe(args, kwargs, result):
    gub = args[1] if len(args) > 1 else kwargs["gub"]
    return {"pruned": bool(result >= gub)}


def install(tracer):
    """Wrap the layer functions; returns a callable that restores them.

    A function is wrapped in every namespace that looks it up by name at
    call time (`bnb` imports `ipbs` by name, `cli` imports `parse_instance`).
    """
    points = [
        # (namespaces, attribute, span name, observer)
        ((cli,), "parse_instance", "instance.parse_instance", None),
        ((bounds,), "_l1_ascent", "bounds._l1_ascent", None),
        ((heuristic, bnb), "ipbs", "heuristic.ipbs", None),
        ((heuristic,), "initial_upper_bound", "heuristic.initial_upper_bound", _value_observe),
        ((heuristic,), "beam_search_feasible", "heuristic.beam_search_feasible", _beam_observe),
        ((heuristic,), "local_search", "heuristic.local_search", _ls_observe),
        ((bnb,), "branch_and_bound", "bnb.branch_and_bound", None),
        ((bnb._Search,), "run", "bnb.search", None),
        ((bnb,), "select_branch_task", "bnb.select_branch_task", None),
        ((bnb,), "apply_reduction_rules", "bnb.apply_reduction_rules", _reduce_observe),
        ((bnb,), "_node_bound", "bnb._node_bound", _node_bound_observe),
    ]
    saved = []
    for spaces, attr, name, observe in points:
        orig = getattr(spaces[0], attr)
        wrapper = tracer.wrap(name, orig, observe)
        for space in spaces:
            saved.append((space, attr, getattr(space, attr)))
            setattr(space, attr, wrapper)
    orig = bounds.all_bounds
    saved.append((bounds, "all_bounds", orig))
    bounds.all_bounds = tracer.wrap("bounds.all_bounds", _split_all_bounds(tracer, orig))

    def restore():
        for space, attr, value in reversed(saved):
            setattr(space, attr, value)

    return restore


# ---------------------------------------------------------------------------
# Per-layer metrics

BOUND_NAMES = bounds.ALL_BOUNDS

# name -> unit, in print order
LAYER_METRICS = {
    "bnb.nodes": "count",
    "bnb.nodes_per_s": "1/s",
    "bnb.search_ms": "ms",
    "bnb.select_us": "us",
    "bnb.reduce_us": "us",
    "bnb.node_bound_us": "us",
    "bnb.dead_frac": "ratio",
    "bnb.bound_prune_frac": "ratio",
    "bounds.l1_ascents": "count/op",
    "bounds.all_bounds_ms": "ms",
    **{f"bounds.{name}_us": "us" for name in BOUND_NAMES},
    "heuristic.beam_calls": "count",
    "heuristic.beam_ms": "ms",
    "heuristic.beam_feasible_frac": "ratio",
    "heuristic.initial_gap_pct": "%",
    "heuristic.local_search_ms": "ms",
    "heuristic.ls_gain_pct": "%",
    "heuristic.ipbs_ms": "ms",
    "instance.parse_us": "us",
    "cli.self_ms": "ms",
    "trace.overhead_pct": "%",
}


def self_times(spans):
    """Each span's duration minus the time its direct children cover."""
    out = [rec[2] - rec[1] for rec in spans]
    for rec in spans:
        if rec[3] is not None:
            out[rec[3]] -= rec[2] - rec[1]
    return out


def _mean(values):
    return statistics.fmean(values) if values else 0.0


def _frac(flags):
    return sum(flags) / len(flags) if flags else 0.0


COUNTED = ("bounds._l1_ascent", "heuristic.beam_search_feasible", "bnb.select_branch_task")


def op_counts(spans):
    """Calls of the counted functions per op, keyed by (pass, instance)
    op ids: work counts that must repeat exactly between passes."""
    counts = {}
    for name, _, _, _, op, _ in spans:
        if name in COUNTED:
            per_op = counts.setdefault(op, dict.fromkeys(COUNTED, 0))
            per_op[name] += 1
    return counts


def layer_metrics(spans, n_passes, n_ops, nodes, best_bound, overhead_pct):
    """Per-layer metrics over `n_passes` traced passes of `n_ops` ops each.

    Op ids are (pass, instance index) pairs. `nodes` is the total B&B node
    count the ops reported; `best_bound[i]` is the best lower bound known
    for instance i.
    """
    selfs = self_times(spans)
    by_name = {}
    for i, rec in enumerate(spans):
        by_name.setdefault(rec[0], []).append((rec, selfs[i]))

    def durations(name):
        return [rec[2] - rec[1] for rec, _ in by_name.get(name, [])]

    def self_of(name):
        return [s for _, s in by_name.get(name, [])]

    def attrs(name, key):
        return [rec[5][key] for rec, _ in by_name.get(name, [])]

    search_s = sum(durations("bnb.search"))
    initial_gaps = []
    for rec, _ in by_name.get("heuristic.initial_upper_bound", []):
        lb = best_bound[rec[4][1]]
        if rec[5]["value"] is not None and lb:
            initial_gaps.append(100.0 * (rec[5]["value"] - lb) / lb)
    ls_gains = [100.0 * (b - a) / b for b, a in zip(attrs("heuristic.local_search", "before"),
                                                    attrs("heuristic.local_search", "after"))]
    metrics = {
        "bnb.nodes": nodes / n_passes,
        "bnb.nodes_per_s": nodes / search_s if search_s else 0.0,
        "bnb.search_ms": 1e3 * _mean(self_of("bnb.search")),
        "bnb.select_us": 1e6 * _mean(durations("bnb.select_branch_task")),
        "bnb.reduce_us": 1e6 * _mean(durations("bnb.apply_reduction_rules")),
        "bnb.node_bound_us": 1e6 * _mean(durations("bnb._node_bound")),
        "bnb.dead_frac": _frac(attrs("bnb.apply_reduction_rules", "dead")),
        "bnb.bound_prune_frac": _frac(attrs("bnb._node_bound", "pruned")),
        "bounds.l1_ascents": len(durations("bounds._l1_ascent")) / (n_passes * n_ops),
        "bounds.all_bounds_ms": 1e3 * _mean(durations("bounds.all_bounds")),
        **{f"bounds.{name}_us": 1e6 * _mean(durations(f"bounds.{name}")) for name in BOUND_NAMES},
        "heuristic.beam_calls": len(durations("heuristic.beam_search_feasible")) / n_passes,
        "heuristic.beam_ms": 1e3 * _mean(durations("heuristic.beam_search_feasible")),
        "heuristic.beam_feasible_frac": _frac(attrs("heuristic.beam_search_feasible", "feasible")),
        "heuristic.initial_gap_pct": _mean(initial_gaps),
        "heuristic.local_search_ms": 1e3 * _mean(durations("heuristic.local_search")),
        "heuristic.ls_gain_pct": _mean(ls_gains),
        "heuristic.ipbs_ms": 1e3 * _mean(self_of("heuristic.ipbs")),
        "instance.parse_us": 1e6 * _mean(durations("instance.parse_instance")),
        "cli.self_ms": 1e3 * _mean(self_of("cli.run")),
        "trace.overhead_pct": overhead_pct,
    }
    assert list(metrics) == list(LAYER_METRICS)
    return metrics
