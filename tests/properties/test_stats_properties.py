"""Property tests: measurement primitives used by the harness."""

import math

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.mds.metrics import DecayCounter
from repro.telemetry.counters import LatencyTracker
from repro.util.stats import Cdf, OnlineStats, ThroughputSeries, percentile
from repro.workloads import interleaving_runs

floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False,
                   allow_infinity=False)


@given(st.lists(floats, min_size=1, max_size=100))
@settings(max_examples=200, deadline=None)
def test_percentile_bounds_and_order(samples):
    assert percentile(samples, 0) == min(samples)
    assert percentile(samples, 100) == max(samples)
    p25, p50, p75 = (percentile(samples, p) for p in (25, 50, 75))
    assert p25 <= p50 <= p75


@given(st.lists(floats, min_size=1, max_size=100))
@example([0.0] * 6 + [-1e6, -999999.9999999999])
@settings(max_examples=200, deadline=None)
def test_cdf_quantile_is_monotone_and_inverts(samples):
    cdf = Cdf(samples)
    qs = [i / 20 for i in range(21)]
    values = [cdf.quantile(q) for q in qs]
    assert values == sorted(values)
    # at() of a quantile covers that fraction of samples to within one
    # sample's probability mass (linear interpolation between ranks).
    for q in qs:
        assert cdf.at(cdf.quantile(q)) >= q - 1.0 / len(samples) - 1e-9


@given(st.lists(floats, min_size=2, max_size=200))
@settings(max_examples=200, deadline=None)
def test_online_stats_matches_batch_computation(samples):
    stats = OnlineStats()
    for x in samples:
        stats.add(x)
    mean = sum(samples) / len(samples)
    var = sum((x - mean) ** 2 for x in samples) / (len(samples) - 1)
    assert math.isclose(stats.mean, mean, rel_tol=1e-9, abs_tol=1e-6)
    assert math.isclose(stats.variance, var, rel_tol=1e-6, abs_tol=1e-6)
    assert stats.min == min(samples) and stats.max == max(samples)


@given(st.lists(st.floats(min_value=0, max_value=100,
                          allow_nan=False), min_size=1, max_size=200))
@settings(max_examples=200, deadline=None)
def test_throughput_series_conserves_events(times):
    series = ThroughputSeries(window=1.0)
    for t in times:
        series.record(t)
    assert series.total == len(times)
    # Integrating the series recovers every event.
    integrated = sum(rate * series.window for _, rate in series.series())
    assert math.isclose(integrated, len(times), rel_tol=1e-9)
    # mean_rate over the full span equals count / span.
    span_windows = int(max(times) // 1.0) + 1
    assert math.isclose(series.mean_rate(0.0, max(times)),
                        len(times) / span_windows, rel_tol=1e-9)


@given(st.floats(min_value=0.1, max_value=10),
       st.lists(st.floats(min_value=0, max_value=50, allow_nan=False),
                min_size=1, max_size=50))
@settings(max_examples=200, deadline=None)
def test_decay_counter_never_negative_and_decays(halflife, hit_times):
    c = DecayCounter(halflife=halflife)
    for t in sorted(hit_times):
        c.hit(t)
    end = max(hit_times)
    value = c.get(end)
    assert 0 <= value <= len(hit_times) + 1e-9
    assert c.get(end + 10 * halflife) < value + 1e-9
    assert c.get(end + 100 * halflife) < 1e-9 * len(hit_times) + 1e-12


durations = st.floats(min_value=0.0, max_value=1e3, allow_nan=False,
                      allow_infinity=False)


def test_latency_tracker_quantile_edge_cases():
    empty = LatencyTracker(retain=True)
    # Empty tracker: 0.0, matching to_dict's "nothing recorded" value.
    assert empty.quantile(0.5) == 0.0
    assert empty.quantile(0.0) == 0.0 and empty.quantile(1.0) == 0.0
    # Out-of-range q raises, even on an empty tracker.
    for bad in (-0.01, 1.01, 2.0, -1.0):
        with pytest.raises(ValueError):
            empty.quantile(bad)
    # Summary-only trackers cannot answer quantiles at all.
    summary = LatencyTracker(retain=False)
    summary.observe(1.0)
    with pytest.raises(ValueError):
        summary.quantile(0.5)


@given(durations)
@settings(max_examples=200, deadline=None)
def test_latency_tracker_single_sample_is_every_quantile(sample):
    t = LatencyTracker(retain=True)
    t.observe(sample)
    for q in (0.0, 0.25, 0.5, 0.99, 1.0):
        assert t.quantile(q) == sample


@given(st.lists(durations, min_size=1, max_size=100))
@settings(max_examples=200, deadline=None)
def test_latency_tracker_quantiles_bounded_and_monotone(samples):
    t = LatencyTracker(retain=True)
    for s in samples:
        t.observe(s)
    # p0/p100 are the exact extremes.
    assert t.quantile(0.0) == min(samples)
    assert t.quantile(1.0) == max(samples)
    # Monotone in q, always inside [min, max].
    qs = [i / 10 for i in range(11)]
    values = [t.quantile(q) for q in qs]
    assert values == sorted(values)
    assert all(min(samples) <= v <= max(samples) for v in values)


@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 100)),
                min_size=1, max_size=100))
@settings(max_examples=200, deadline=None)
def test_interleaving_runs_partition_positions(claims):
    # Build traces: client -> list of (time, pos); last claim per pos
    # wins (mirrors how unique positions are granted in reality, where
    # each pos has exactly one owner; we dedupe to model that).
    owner = {}
    for client, pos in claims:
        owner.setdefault(pos, client)
    traces = [[] for _ in range(4)]
    for pos, client in owner.items():
        traces[client].append((0.0, pos))
    runs = interleaving_runs(traces)
    assert sum(runs) == len(owner)
    assert all(r >= 1 for r in runs)
