"""The metrics core: counters, gauges, histograms, registry semantics.

Pins the contracts the instrumented layers lean on: exact label
handling (no silent drops), histogram bucket math matching Prometheus
``le`` semantics, the cardinality guard folding runaway label spaces
into ``(overflow)``, thread-exact counter increments (the server's
dispatch threads all share the process-default registry), and the
snapshot/merge algebra that makes worker-shipped deltas order-
independent.
"""

from __future__ import annotations

import math
import random
import threading

import pytest

from repro.errors import MetricsError, ReproError
from repro.obs.registry import (
    DEFAULT_LATENCY_BUCKETS,
    OVERFLOW_LABEL,
    MetricsRegistry,
)


@pytest.fixture
def registry():
    """A fresh isolated registry (never the process default)."""
    return MetricsRegistry()


# ----------------------------------------------------------------------
# counters and gauges
# ----------------------------------------------------------------------

def test_counter_accumulates(registry):
    counter = registry.counter("c_total", "help", ("kind",))
    counter.inc(kind="a")
    counter.inc(2.5, kind="a")
    counter.inc(kind="b")
    assert counter.value(kind="a") == 3.5
    assert counter.value(kind="b") == 1.0
    assert counter.value(kind="never") == 0.0


def test_counter_rejects_negative_increments(registry):
    counter = registry.counter("c_total")
    with pytest.raises(ValueError, match="only go up"):
        counter.inc(-1.0)


def test_labels_are_strict(registry):
    counter = registry.counter("c_total", "", ("engine",))
    with pytest.raises(ValueError):
        counter.inc()  # missing declared label
    with pytest.raises(ValueError):
        counter.inc(engine="x", extra="y")  # undeclared label
    gauge = registry.gauge("g")
    with pytest.raises(ValueError):
        gauge.set(1.0, surprise="y")


def test_gauge_moves_both_ways(registry):
    gauge = registry.gauge("g")
    gauge.set(5.0)
    gauge.inc(2.0)
    gauge.dec()
    assert gauge.value() == 6.0
    gauge.set(-1.5)
    assert gauge.value() == -1.5


def test_get_or_create_returns_the_same_metric(registry):
    first = registry.counter("c_total", "help", ("a",))
    again = registry.counter("c_total", "ignored", ("a",))
    assert first is again
    assert "c_total" in registry
    assert registry.names() == ["c_total"]


def test_get_or_create_conflicts_are_loud(registry):
    registry.counter("m", "", ("a",))
    with pytest.raises(ValueError, match="already registered"):
        registry.gauge("m", "", ("a",))  # type clash
    with pytest.raises(ValueError, match="already registered"):
        registry.counter("m", "", ("b",))  # label clash


def test_disabled_registry_is_a_noop():
    registry = MetricsRegistry(enabled=False)
    counter = registry.counter("c_total")
    histogram = registry.histogram("h_seconds")
    counter.inc()
    histogram.observe(0.1)
    assert counter.value() == 0.0
    assert histogram.series() == {}
    registry.enabled = True
    counter.inc()
    assert counter.value() == 1.0


# ----------------------------------------------------------------------
# histogram bucket math
# ----------------------------------------------------------------------

def test_histogram_bucket_math(registry):
    histogram = registry.histogram("h", "", buckets=(0.1, 1.0, 10.0))
    for value in (0.05, 0.1, 0.5, 1.0, 5.0, 100.0):
        histogram.observe(value)
    # le is inclusive (Prometheus semantics): 0.1 lands in le=0.1,
    # 1.0 in le=1.0, 100.0 in +Inf.
    assert histogram.cumulative_counts() == [2, 4, 5, 6]
    cell = histogram.series()[()]
    assert cell.counts == [2, 2, 1, 1]
    assert cell.count == 6
    assert cell.sum == pytest.approx(0.05 + 0.1 + 0.5 + 1.0 + 5.0 + 100.0)


def test_observe_many_equals_one_observe_per_value(registry):
    """Edges (inclusive), the +Inf bucket, unsorted input, small and
    large batches and an empty one: counts, buckets and the in-order
    sum all match."""
    values = [5.0, 0.1, 100.0, 0.05, 1.0, 0.5, 0.1, 1e-9, 10.0, 7.25] * 5
    one = registry.histogram("one", "", ("k",), buckets=(0.1, 1.0, 10.0))
    many = registry.histogram("many", "", ("k",), buckets=(0.1, 1.0, 10.0))
    for batch in (values[:3], values[3:10], values[10:], []):
        for value in batch:
            one.observe(value, k="a")
        many.observe_many(batch, k="a")
    [(key, expected)] = one.series().items()
    cell = many.series()[key]
    assert (cell.counts, cell.sum, cell.count) == (
        expected.counts, expected.sum, expected.count
    )
    assert expected.count == len(values)


def test_histogram_untouched_series_reads_zero(registry):
    histogram = registry.histogram("h", "", buckets=(1.0,))
    assert histogram.cumulative_counts() == [0, 0]


def test_histogram_default_buckets_span_latency_range(registry):
    histogram = registry.histogram("h")
    assert histogram.buckets == DEFAULT_LATENCY_BUCKETS
    assert histogram.buckets[0] <= 0.0001
    assert histogram.buckets[-1] >= 30.0


def test_histogram_rejects_bad_buckets(registry):
    with pytest.raises(ValueError, match="at least one"):
        registry.histogram("h0", buckets=())
    with pytest.raises(ValueError, match="strictly increasing"):
        registry.histogram("h1", buckets=(1.0, 1.0))
    with pytest.raises(ValueError, match="strictly increasing"):
        registry.histogram("h2", buckets=(2.0, 1.0))


# ----------------------------------------------------------------------
# the cardinality guard
# ----------------------------------------------------------------------

def test_counter_cardinality_guard_folds_overflow(registry):
    counter = registry.counter("c_total", "", ("name",), max_series=2)
    counter.inc(name="a")
    counter.inc(name="b")
    counter.inc(name="c")  # past the bound
    counter.inc(name="d")
    counter.inc(name="a")  # existing series still grows normally
    series = counter.series()
    assert series[("a",)] == 2.0
    assert series[("b",)] == 1.0
    assert ("c",) not in series and ("d",) not in series
    # Guard observability: the fold is counted and the overflow series
    # absorbs every runaway combination.
    assert counter.overflowed == 2
    assert series[(OVERFLOW_LABEL,)] == 2.0


def test_histogram_cardinality_guard(registry):
    histogram = registry.histogram(
        "h", "", ("name",), buckets=(1.0,), max_series=1
    )
    histogram.observe(0.5, name="a")
    histogram.observe(0.5, name="b")
    histogram.observe(2.0, name="c")
    assert histogram.cumulative_counts(name="a") == [1, 1]
    assert histogram.cumulative_counts(name=OVERFLOW_LABEL) == [1, 2]
    assert histogram.overflowed == 2


def test_overflow_survives_snapshot_merge(registry):
    counter = registry.counter("c_total", "", ("name",), max_series=2)
    for name in ("a", "b", "c"):
        counter.inc(name=name)
    merged = MetricsRegistry()
    merged.merge_snapshot(registry.snapshot())
    series = merged.get("c_total").series()
    assert series[(OVERFLOW_LABEL,)] == 1.0


# ----------------------------------------------------------------------
# thread safety (the server's dispatch threads share one registry)
# ----------------------------------------------------------------------

def test_counter_increments_from_many_threads_are_exact(registry):
    counter = registry.counter("c_total", "", ("lane",))
    threads, per_thread, lanes = 8, 2000, ("x", "y")
    barrier = threading.Barrier(threads)

    def hammer(lane):
        barrier.wait()
        for _ in range(per_thread):
            counter.inc(lane=lane)

    workers = [
        threading.Thread(target=hammer, args=(lanes[i % 2],))
        for i in range(threads)
    ]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    assert counter.value(lane="x") == threads / 2 * per_thread
    assert counter.value(lane="y") == threads / 2 * per_thread


def test_histogram_observes_from_many_threads_are_exact(registry):
    histogram = registry.histogram("h", "", buckets=(0.5,))
    threads, per_thread = 8, 1000
    barrier = threading.Barrier(threads)

    def hammer(value):
        barrier.wait()
        for _ in range(per_thread):
            histogram.observe(value)

    workers = [
        threading.Thread(target=hammer, args=(0.25 if i % 2 else 0.75,))
        for i in range(threads)
    ]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    total = threads * per_thread
    assert histogram.cumulative_counts() == [total // 2, total]


# ----------------------------------------------------------------------
# snapshots and the merge algebra
# ----------------------------------------------------------------------

def _activity(registry, seed):
    """Seeded random activity across all three metric types."""
    rng = random.Random(seed)
    counter = registry.counter("runs_total", "runs", ("engine",))
    gauge = registry.gauge("inflight", "share")
    histogram = registry.histogram(
        "latency_seconds", "latency", ("op",), buckets=(0.01, 0.1, 1.0)
    )
    for _ in range(rng.randrange(5, 40)):
        counter.inc(rng.randrange(1, 4), engine=rng.choice(("a", "b")))
        gauge.inc(rng.choice((-1.0, 1.0)))
        # exact binary fractions: histogram sums stay bit-identical
        # under any merge order, so snapshots compare with ==
        histogram.observe(
            rng.randrange(0, 128) / 64.0, op=rng.choice(("sim", "batch"))
        )


def test_snapshot_reset_is_a_delta_read(registry):
    counter = registry.counter("c_total")
    counter.inc(3)
    first = registry.snapshot(reset=True)
    assert first["metrics"]["c_total"]["series"] == [
        {"labels": [], "value": 3.0}
    ]
    # The read drained the series; the declaration survives.
    assert registry.snapshot()["metrics"]["c_total"]["series"] == []
    counter.inc()
    assert counter.value() == 1.0


def test_merge_snapshot_adds_counters_and_histograms(registry):
    _activity(registry, seed=1)
    expected = registry.snapshot()
    # Shipping the same activity as two deltas must reproduce the total.
    half = MetricsRegistry()
    _activity(half, seed=1)
    deltas = [half.snapshot(reset=True)]
    # no further activity: second delta is empty series, a no-op merge
    deltas.append(half.snapshot(reset=True))
    merged = MetricsRegistry()
    for delta in deltas:
        merged.merge_snapshot(delta)
    assert merged.snapshot() == expected


def test_merge_is_associative_and_commutative():
    registries = [MetricsRegistry() for _ in range(3)]
    for seed, registry in enumerate(registries, start=7):
        _activity(registry, seed=seed)
    snaps = [registry.snapshot() for registry in registries]

    def merged(snapshots):
        registry = MetricsRegistry()
        for snapshot in snapshots:
            registry.merge_snapshot(snapshot)
        return registry.snapshot()

    orderings = [
        merged([snaps[0], snaps[1], snaps[2]]),
        merged([snaps[2], snaps[0], snaps[1]]),
        merged([snaps[1], snaps[2], snaps[0]]),
        # associativity: fold a pre-merged pair in
        merged([merged([snaps[1], snaps[0]]), snaps[2]]),
    ]
    for other in orderings[1:]:
        assert other == orderings[0]


def test_merge_rejects_mismatched_histograms(registry):
    registry.histogram("h", "", buckets=(1.0, 2.0)).observe(0.5)
    snap = registry.snapshot()
    other = MetricsRegistry()
    other.histogram("h", "", buckets=(1.0,)).observe(0.5)
    with pytest.raises(ValueError, match="bucket edges differ"):
        other.merge_snapshot(snap)


def test_merge_rejects_type_clash(registry):
    registry.counter("m").inc()
    snap = registry.snapshot()
    other = MetricsRegistry()
    other.gauge("m").set(1.0)
    with pytest.raises(ValueError):
        other.merge_snapshot(snap)


def test_snapshot_schema_and_buckets_roundtrip(registry):
    registry.histogram("h", "halp", ("op",), buckets=(0.5, 1.5)).observe(
        1.0, op="x"
    )
    snap = registry.snapshot()
    assert snap["schema"] == 1
    entry = snap["metrics"]["h"]
    assert entry["type"] == "histogram"
    assert entry["help"] == "halp"
    assert entry["label_names"] == ["op"]
    assert entry["buckets"] == [0.5, 1.5]
    [series] = entry["series"]
    assert series["labels"] == ["x"]
    assert series["counts"] == [0, 1, 0]
    assert series["count"] == 1
    assert math.isclose(series["sum"], 1.0)


# ----------------------------------------------------------------------
# changed-series deltas (what service workers ship per message)
# ----------------------------------------------------------------------

def test_drain_delta_ships_only_changed_series(registry):
    runs = registry.counter("runs_total", "runs", ("engine",))
    registry.counter("idle_total", "never touched")
    latency = registry.histogram("h", "latency", buckets=(0.5, 1.5))
    runs.inc(2, engine="a")
    latency.observe(1.0)
    delta = {name: (declaration, series)
             for name, declaration, series in registry.drain_delta()}
    assert set(delta) == {"runs_total", "h"}
    assert delta["runs_total"] == (
        ("counter", "runs", ("engine",), None), ((("a",), 2.0),)
    )
    declaration, [(key, counts, total, count)] = delta["h"]
    assert declaration == ("histogram", "latency", (), (0.5, 1.5))
    assert (key, list(counts), total, count) == ((), [0, 1, 0], 1.0, 1)
    # The drain cleared what it shipped; nothing moved since.
    assert registry.drain_delta() == []
    runs.inc(engine="b")
    assert [(name, series) for name, _, series in registry.drain_delta()] == [
        ("runs_total", ((("b",), 1.0),))
    ]


def test_fold_delta_matches_merge_snapshot():
    """Drained deltas folded in equal the same activity's snapshot
    deltas merged in: one fold primitive behind both."""
    via_delta, via_snapshot = MetricsRegistry(), MetricsRegistry()
    for seed in (3, 4):
        source = MetricsRegistry()
        _activity(source, seed=seed)
        twin = MetricsRegistry()
        _activity(twin, seed=seed)
        via_delta.fold_delta(source.drain_delta())
        via_snapshot.merge_snapshot(twin.snapshot(reset=True))
    assert via_delta.snapshot() == via_snapshot.snapshot()


def test_fold_delta_declares_unknown_metrics(registry):
    registry.histogram(
        "phase_seconds", "per phase", ("engine", "phase"), buckets=(0.1, 1.0)
    ).observe(0.5, engine="compiled", phase="drain")
    parent = MetricsRegistry()
    parent.fold_delta(registry.drain_delta())
    histogram = parent.get("phase_seconds")
    assert histogram.type == "histogram"
    assert histogram.help == "per phase"
    assert histogram.label_names == ("engine", "phase")
    assert histogram.buckets == (0.1, 1.0)
    assert histogram.cumulative_counts(engine="compiled", phase="drain") == [
        0, 1, 1
    ]


def test_fold_delta_rejects_mismatched_declarations(registry):
    registry.histogram("h", "", buckets=(1.0, 2.0)).observe(0.5)
    registry.counter("m").inc()
    delta = registry.drain_delta()
    other = MetricsRegistry()
    other.histogram("h", "", buckets=(1.0,))
    with pytest.raises(MetricsError, match="bucket edges differ"):
        other.fold_delta(delta)
    other = MetricsRegistry()
    other.gauge("m")
    with pytest.raises(MetricsError, match="already registered"):
        other.fold_delta(delta)


def test_fold_delta_respects_the_cardinality_guard(registry):
    counter = registry.counter("c_total", "", ("name",))
    for name in ("a", "b", "c"):
        counter.inc(name=name)
    parent = MetricsRegistry()
    parent.counter("c_total", "", ("name",), max_series=2)
    parent.fold_delta(registry.drain_delta())
    series = parent.get("c_total").series()
    assert series[("a",)] == series[("b",)] == 1.0
    assert series[(OVERFLOW_LABEL,)] == 1.0
    assert parent.get("c_total").overflowed == 1


def test_metrics_errors_are_repro_value_errors(registry):
    with pytest.raises(MetricsError) as caught:
        registry.counter("c_total").inc(-1)
    assert isinstance(caught.value, ReproError)
    assert isinstance(caught.value, ValueError)
