import math
import random
import statistics
import sys

import pytest
from hypothesis import example, given, strategies as st

from wasef.errors import EmptyInput, NotFinite
from wasef.loadsim import PageMetrics
from wasef.stats import (
    DELTA_METRICS,
    _stdev,
    compute_deltas,
    ecdf,
    summarize,
    summarize_deltas,
)


def metrics(plt=5.0, fcp=1.0, si=2.0, size=1000, requests=4, js=0.5):
    return PageMetrics(
        fcp_seconds=fcp,
        plt_seconds=plt,
        speed_index_seconds=si,
        js_processing_seconds=js,
        page_size_bytes=size,
        request_count=requests,
        cpu_proxy_seconds=js,
        energy_proxy_units=js,
        memory_proxy_bytes=size,
        paint_timeline=[],
    )


class TestComputeDeltas:
    def test_subtraction_convention(self):
        results = [("p1", "identity", metrics(plt=5.0)), ("p1", "strip", metrics(plt=3.0))]
        records, skips = compute_deltas(results)
        plt_delta = next(r for r in records if r.metric == "plt")
        assert plt_delta.original_value == 5.0
        assert plt_delta.variant_value == 3.0
        assert plt_delta.delta == 2.0
        assert not skips

    def test_variant_equal_to_baseline_gives_zero(self):
        m = metrics()
        records, _ = compute_deltas([("p1", "identity", m), ("p1", "same", m)])
        assert all(r.delta == 0.0 for r in records)

    def test_cardinality_ten_pages_two_solutions(self):
        results = []
        for index in range(10):
            pid = f"p{index:02d}"
            results.append((pid, "identity", metrics()))
            results.append((pid, "a", metrics(plt=4.0)))
            results.append((pid, "b", metrics(plt=3.0)))
        records, skips = compute_deltas(results)
        assert len(records) == 10 * 2 * 6 == 120
        assert not skips

    def test_missing_baseline_is_skipped_not_raised(self):
        records, skips = compute_deltas([("p1", "strip", metrics())])
        assert records == []
        assert skips == [("p1", "strip", "missing baseline 'identity'")]

    def test_missing_variant_is_skipped(self):
        results = [
            ("p1", "identity", metrics()),
            ("p1", "a", metrics()),
            ("p2", "identity", metrics()),
        ]
        records, skips = compute_deltas(results)
        assert len(records) == 6
        assert skips == [("p2", "a", "missing variant metrics")]

    def test_antisymmetry(self):
        fwd, _ = compute_deltas([("p", "identity", metrics(plt=5.0)), ("p", "x", metrics(plt=3.0))])
        rev, _ = compute_deltas([("p", "identity", metrics(plt=3.0)), ("p", "x", metrics(plt=5.0))])
        for a, b in zip(fwd, rev):
            assert a.delta == -b.delta

    def test_covers_exactly_the_six_metrics(self):
        records, _ = compute_deltas([("p", "identity", metrics()), ("p", "x", metrics())])
        assert [r.metric for r in records] == [name for name, _ in DELTA_METRICS]


class TestEcdf:
    def test_three_distinct(self):
        assert ecdf([1, 2, 3]) == [(1, 1 / 3), (2, 2 / 3), (3, 1.0)]

    def test_ties_merge(self):
        assert ecdf([2, 2]) == [(2, 1.0)]

    def test_unsorted_input(self):
        assert ecdf([3, 1, 2]) == [(1, 1 / 3), (2, 2 / 3), (3, 1.0)]

    def test_reaches_exactly_one(self):
        rng = random.Random(5)
        values = [rng.gauss(0, 1) for _ in range(101)]
        points = ecdf(values)
        assert points[-1][1] == 1.0
        probs = [p for _, p in points]
        assert probs == sorted(probs)

    def test_dkw_bound_on_seeded_uniform(self):
        # With 1000 uniform draws the empirical CDF stays close to x itself;
        # check the sup distance at the step points (both sides of each step).
        rng = random.Random(42)
        values = sorted(rng.random() for _ in range(1000))
        n = len(values)
        sup = 0.0
        for index, value in enumerate(values):
            sup = max(sup, abs((index + 1) / n - value), abs(index / n - value))
        assert sup < 0.06
        points = ecdf(values)
        for value, prob in points[::97]:
            assert abs(prob - value) < 0.06

    def test_empty_raises(self):
        with pytest.raises(EmptyInput):
            ecdf([])


class TestSummarize:
    def test_even_median_rule(self):
        assert summarize([1, 2, 3, 4]).median == 2.5

    def test_zero_variance(self):
        summary = summarize([5, 5, 5, 5])
        assert summary.mean == 5.0
        assert summary.ci95 == (5.0, 5.0)
        assert summary.ci95_degenerate is False

    def test_hand_computed_ci(self):
        # sd = sqrt(10/4) = 1.5811...; half-width 1.96*sd/sqrt(5) = 1.38593.
        summary = summarize([1, 2, 3, 4, 5])
        assert summary.mean == 3.0
        assert summary.median == 3.0
        assert summary.ci95[0] == pytest.approx(1.6140707088743667, abs=1e-9)
        assert summary.ci95[1] == pytest.approx(4.385929291125633, abs=1e-9)

    def test_single_value_degenerate_flag(self):
        summary = summarize([7.0])
        assert summary.ci95 == (7.0, 7.0)
        assert summary.ci95_degenerate is True

    def test_permutation_invariance(self):
        rng = random.Random(9)
        values = [rng.uniform(-5, 5) for _ in range(31)]
        shuffled = list(values)
        rng.shuffle(shuffled)
        a, b = summarize(values), summarize(shuffled)
        assert a.median == b.median
        assert a.mean == pytest.approx(b.mean, abs=1e-12)

    def test_empty_raises(self):
        with pytest.raises(EmptyInput):
            summarize([])

    def test_quantile_consistency_with_sort_oracle(self):
        rng = random.Random(17)
        values = [rng.gauss(10, 3) for _ in range(257)]
        points = ecdf(values)
        ordered = sorted(values)
        n = len(values)
        for q in (0.1, 0.25, 0.5, 0.9):
            from_ecdf = next(v for v, p in points if p >= q)
            from_sort = ordered[math.ceil(q * n) - 1]
            assert from_ecdf == from_sort


def _stdev_outcome(fn, values):
    try:
        return fn(values)
    except OverflowError:
        return OverflowError


@pytest.mark.skipif(sys.version_info < (3, 11), reason="3.10's statistics.stdev rounds twice")
@example([0.1, 0.2, 0.3])
@example([5e-324, 0.0])
@example([1.7e308, -1.7e308])  # beyond the float range
@example([1e308, -1e308])
@example([3, 4.5, -2])
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False) | st.integers(-(2**60), 2**60), min_size=2, max_size=40))
def test_stdev_is_statistics_stdev_bit_for_bit(values):
    assert repr(_stdev_outcome(_stdev, values)) == repr(_stdev_outcome(statistics.stdev, values))  # every bit


# A value that is not finite; a mean beyond the float range; a standard
# deviation beyond it; a finite standard deviation whose ci95 is beyond it.
@pytest.mark.parametrize(
    "values",
    [[float("nan"), 1.0], [math.inf, 1.0], [1.0, -math.inf], [1.7e308, 1.7e308], [1.7e308, -1.7e308], [1.13e308, -1.13e308]],
)
def test_summarize_raises_not_finite_beyond_the_float_range(values):
    with pytest.raises(NotFinite, match="fcp under js-strip"):
        summarize(values, "fcp", "js-strip")


def test_compute_deltas_raises_not_finite_on_an_overflowing_delta():
    results = [("p", "identity", metrics(fcp=1.5e308)), ("p", "js-strip", metrics(fcp=-1.5e308))]
    with pytest.raises(NotFinite, match="page 'p', solution 'js-strip': the fcp delta"):
        compute_deltas(results)


def test_summarize_deltas_grouping():
    from wasef.stats import DeltaRecord

    records = [
        DeltaRecord("p1", "a", "plt", 5.0, 3.0, 2.0),
        DeltaRecord("p2", "a", "plt", 5.0, 4.0, 1.0),
        DeltaRecord("p1", "a", "fcp", 1.0, 0.5, 0.5),
        DeltaRecord("p2", "a", "fcp", 1.0, 0.9, 0.1),
    ]
    labels = {"p1": "landing", "p2": "internal"}
    summaries = summarize_deltas(records, labels)
    keys = [(s.metric, s.solution, s.group) for s in summaries]
    assert keys == [
        ("fcp", "a", None),
        ("fcp", "a", "internal"),
        ("fcp", "a", "landing"),
        ("plt", "a", None),
        ("plt", "a", "internal"),
        ("plt", "a", "landing"),
    ]
    combined_plt = summaries[3]
    assert combined_plt.n == 2
    assert combined_plt.median == 1.5
