"""Per-page metric deltas, ECDFs, medians, means, and 95% confidence
intervals across a corpus, per solution.

A delta is original minus variant, so positive means the variant improved a
time or size metric. Confidence intervals use the normal approximation
(1.96 standard errors) with the sample standard deviation.
"""

from __future__ import annotations

import math
import operator
import statistics
from collections import defaultdict
from dataclasses import dataclass, field

from .errors import EmptyInput
from .loadsim import PageMetrics

# (report name, PageMetrics field) for the six compared metrics.
DELTA_METRICS = [
    ("fcp", "fcp_seconds"),
    ("speed_index", "speed_index_seconds"),
    ("plt", "plt_seconds"),
    ("page_size", "page_size_bytes"),
    ("request_count", "request_count"),
    ("js_processing", "js_processing_seconds"),
]

Z_95 = 1.96


@dataclass
class DeltaRecord:
    page_id: str
    solution: str
    metric: str
    original_value: float
    variant_value: float
    delta: float


@dataclass
class DistributionSummary:
    metric: str
    solution: str
    group: str | None
    n: int
    ecdf: list[tuple[float, float]]
    median: float
    mean: float
    ci95: tuple[float, float]
    ci95_degenerate: bool = False


def compute_deltas(
    results: list[tuple[str, str, PageMetrics]],
    baseline_solution: str = "identity",
) -> tuple[list[DeltaRecord], list[tuple[str, str, str]]]:
    """One DeltaRecord per (page, non-baseline solution, metric).

    Pages missing either side are skipped and reported in the second return
    value as (page_id, solution, reason) tuples, never raised.
    """
    by_key = {(page_id, solution): metrics for page_id, solution, metrics in results}
    pages = dict.fromkeys(page_id for page_id, _ in by_key)  # first-seen order
    solutions = dict.fromkeys(solution for _, solution in by_key if solution != baseline_solution)
    metric_names = [metric for metric, _ in DELTA_METRICS]
    metric_values = operator.attrgetter(*(fieldname for _, fieldname in DELTA_METRICS))

    records: list[DeltaRecord] = []
    skips: list[tuple[str, str, str]] = []
    for page_id in pages:
        baseline = by_key.get((page_id, baseline_solution))
        originals = None if baseline is None else list(map(float, metric_values(baseline)))
        for solution in solutions:
            variant = by_key.get((page_id, solution))
            if originals is None:
                skips.append((page_id, solution, f"missing baseline {baseline_solution!r}"))
                continue
            if variant is None:
                skips.append((page_id, solution, "missing variant metrics"))
                continue
            records += [
                DeltaRecord(page_id, solution, metric, original, variant_value, original - variant_value)
                for metric, original, variant_value in zip(metric_names, originals, map(float, metric_values(variant)))
            ]
    return records, skips


def ecdf(values: list[float]) -> list[tuple[float, float]]:
    """Right-continuous empirical CDF with ties merged."""
    if not values:
        raise EmptyInput("ecdf needs at least one value")
    n = len(values)
    points: list[tuple[float, float]] = []
    seen = 0
    for value in sorted(values):
        seen += 1
        if points and points[-1][0] == value:
            points[-1] = (value, seen / n)
        else:
            points.append((value, seen / n))
    return points


def summarize(
    values: list[float],
    metric: str = "",
    solution: str = "",
    group: str | None = None,
) -> DistributionSummary:
    """Median, mean, normal-approximation ci95, and ECDF of one value list."""
    if not values:
        raise EmptyInput("summarize needs at least one value")
    n = len(values)
    mean = statistics.fmean(values)
    median = float(statistics.median(values))
    if n == 1:
        ci95 = (mean, mean)
        degenerate = True
    else:
        sd = statistics.stdev(values)
        half = Z_95 * sd / math.sqrt(n)
        ci95 = (mean - half, mean + half)
        degenerate = False
    return DistributionSummary(
        metric=metric,
        solution=solution,
        group=group,
        n=n,
        ecdf=ecdf(values),
        median=median,
        mean=mean,
        ci95=ci95,
        ci95_degenerate=degenerate,
    )


def summarize_deltas(
    records: list[DeltaRecord],
    group_labels: dict[str, str] | None = None,
) -> list[DistributionSummary]:
    """One summary per (metric, solution) plus one per group when page group
    labels exist, ordered (metric, solution, group)."""
    group_labels = group_labels or {}
    buckets: dict[tuple[str, str, str | None], list[float]] = defaultdict(list)
    for record in records:
        buckets[record.metric, record.solution, None].append(record.delta)
        label = group_labels.get(record.page_id)
        if label is not None:
            buckets[record.metric, record.solution, label].append(record.delta)
    return [
        summarize(buckets[key], *key)
        for key in sorted(buckets, key=lambda k: (k[0], k[1], k[2] or ""))
    ]


def summary_to_dict(summary: DistributionSummary) -> dict:
    return {
        "metric": summary.metric,
        "solution": summary.solution,
        "group": summary.group,
        "n": summary.n,
        "median": summary.median,
        "mean": summary.mean,
        "ci95": [summary.ci95[0], summary.ci95[1]],
        "ci95_degenerate": summary.ci95_degenerate,
        "ecdf": [[v, p] for v, p in summary.ecdf],
    }
