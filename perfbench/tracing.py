"""Spans around calls into wasef's layers, recorded from the benchmark's side.

Nothing inside wasef changes: a traced run replaces public functions at the
names their callers look them up by (``wasef.experiment.simulate_load``,
``wasef.pagemodel.parse_page``, the ``wasef.jsscan`` module functions, ...)
with wrappers that record one span per call. Spans are kept in memory with
the index of their parent and reduced to per-layer totals when the run ends.
A layer's self time is its spans' duration minus the time covered by their
child spans.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path

import wasef.experiment
import wasef.jsscan
import wasef.pagemodel
import wasef.report
import wasef.similarity
import wasef.stats

SOLUTIONS = ("identity", "js-strip", "js-block-thirdparty", "js-dce", "img-downscale")
JSSCAN_FUNCTIONS = {
    "strip_literals": "strip_literals",
    "top_level_function_spans": "function_spans",
    "top_level_defined_names": "defined_names",
    "count_references": "count_references",
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "amount")

    def __init__(self, name: str, start: float, parent: int):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.amount = 0.0  # bytes or fetches, per layer


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name, measure=None) -> None:
        """Replace owner.attr with a recording wrapper. ``name`` is a span
        name or a function of the call's arguments; ``measure(args, result)``
        gives the span's amount."""
        original = getattr(owner, attr)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = Span(
                name if isinstance(name, str) else name(args),
                time.perf_counter(),
                stack[-1] if stack else -1,
            )
            stack.append(len(spans))
            spans.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if measure is not None:
                span.amount = measure(args, result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """name -> {"calls", "self_s", "amount"}."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        totals: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "self_s": 0.0, "amount": 0.0}
        )
        for span, children in zip(self.spans, child_time):
            entry = totals[span.name]
            entry["calls"] += 1
            entry["self_s"] += span.end - span.start - children
            entry["amount"] += span.amount
        return dict(totals)

    def write(self, path: Path) -> None:
        """All spans as JSON lines: name, start, end, parent index, amount."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps([span.name, span.start, span.end, span.parent, span.amount]) + "\n")


def _file_bytes(args, path) -> int:
    return Path(path).stat().st_size


def trace_pipeline(tracer: Tracer) -> None:
    """Wrap every layer a run_experiment call goes through."""
    experiment = wasef.experiment
    tracer.wrap(experiment, "run_experiment", "experiment")
    tracer.wrap(experiment, "load_page", "archive.load", lambda args, page: page.total_bytes())
    tracer.wrap(experiment, "store_page", "archive.store", lambda args, _: args[0].total_bytes())
    tracer.wrap(
        wasef.pagemodel,
        "parse_page",
        "pagemodel.parse",
        lambda args, _: len(args[0].root_exchange().body),
    )
    tracer.wrap(
        experiment,
        "apply_transform",
        lambda args: f"transform.{args[0].name}",
        lambda args, variant: variant.provenance["bytes_removed"],
    )
    tracer.wrap(experiment, "simulate_load", "loadsim.simulate", lambda args, m: m.request_count)
    tracer.wrap(wasef.similarity, "structural_similarity", "similarity.structural")
    tracer.wrap(wasef.similarity, "functional_similarity_graphs", "similarity.functional")
    tracer.wrap(wasef.stats, "compute_deltas", "stats.deltas")
    tracer.wrap(wasef.stats, "summarize_deltas", "stats.deltas")
    tracer.wrap(experiment, "write_results", "report.write", _file_bytes)
    tracer.wrap(experiment, "write_similarity", "report.write", _file_bytes)
    tracer.wrap(
        wasef.report,
        "write_bundle",
        "report.write",
        lambda args, paths: sum(Path(p).stat().st_size for p in paths.values()),
    )
    for attr, short in JSSCAN_FUNCTIONS.items():
        tracer.wrap(wasef.jsscan, attr, f"jsscan.{short}")


def per_layer_metrics(totals: dict[str, dict[str, float]], rounds: int) -> dict[str, float]:
    """Per-round figures for every pipeline layer; a layer the workload
    never called reads 0."""

    def get(name: str, key: str) -> float:
        return totals.get(name, {}).get(key, 0.0) / rounds

    metrics = {}
    for layer in ("archive.load", "archive.store"):
        metrics[f"{layer}_calls"] = get(layer, "calls")
        metrics[f"{layer}_s"] = get(layer, "self_s")
        metrics[f"{layer}_mb"] = get(layer, "amount") / 1e6
    metrics["pagemodel.parse_calls"] = get("pagemodel.parse", "calls")
    metrics["pagemodel.parse_s"] = get("pagemodel.parse", "self_s")
    metrics["pagemodel.html_mb"] = get("pagemodel.parse", "amount") / 1e6
    for solution in SOLUTIONS:
        metrics[f"transform.{solution}_s"] = get(f"transform.{solution}", "self_s")
    metrics["transform.removed_mb"] = sum(get(f"transform.{s}", "amount") for s in SOLUTIONS) / 1e6
    for short in JSSCAN_FUNCTIONS.values():
        metrics[f"jsscan.{short}_calls"] = get(f"jsscan.{short}", "calls")
        metrics[f"jsscan.{short}_s"] = get(f"jsscan.{short}", "self_s")
    metrics["loadsim.simulate_calls"] = get("loadsim.simulate", "calls")
    metrics["loadsim.simulate_s"] = get("loadsim.simulate", "self_s")
    metrics["loadsim.fetches"] = get("loadsim.simulate", "amount")
    simulate_s = metrics["loadsim.simulate_s"]
    metrics["loadsim.fetches_per_s"] = metrics["loadsim.fetches"] / simulate_s if simulate_s else 0.0
    metrics["similarity.structural_s"] = get("similarity.structural", "self_s")
    metrics["similarity.functional_s"] = get("similarity.functional", "self_s")
    metrics["stats.deltas_s"] = get("stats.deltas", "self_s")
    metrics["report.write_s"] = get("report.write", "self_s")
    metrics["report.write_mb"] = get("report.write", "amount") / 1e6
    metrics["experiment.self_s"] = get("experiment", "self_s")
    return metrics
