"""Reading per-layer numbers out of the program's own metrics snapshots.

The program already publishes per-run counters, phase timings and
service/server histograms to its metrics registry (``repro.obs``); the
server returns the same snapshot from its ``stats`` op.  The benchmark
only reads two snapshots, one before and one after its traced window,
and takes their difference here.  Nothing is added to the program.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Mapping, Sequence, Tuple


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolation percentile (``pct`` in 0..100)."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    if pct >= 100:
        return float(max(values))
    if pct <= 0:
        return float(min(values))
    return cuts[int(pct) - 1]


def _series(snapshot: Mapping[str, object], name: str,
            labels: Mapping[str, str]) -> List[Mapping[str, object]]:
    entry = snapshot["metrics"].get(name)  # type: ignore[index]
    if entry is None:
        return []
    names = entry["label_names"]
    wanted = [(names.index(key), value) for key, value in labels.items()]
    return [
        series for series in entry["series"]
        if all(series["labels"][index] == value for index, value in wanted)
    ]


class Delta:
    """The difference between two registry snapshots."""

    def __init__(self, before: Mapping[str, object],
                 after: Mapping[str, object]):
        self.before = before
        self.after = after

    def counter(self, name: str, **labels: str) -> float:
        def total(snapshot):
            return sum(s["value"] for s in _series(snapshot, name, labels))
        return total(self.after) - total(self.before)

    def hist(self, name: str, **labels: str) -> Tuple[int, float, List[int]]:
        """``(count, sum, per-bucket counts)`` observed between the two."""
        def read(snapshot):
            count, total, buckets = 0, 0.0, None
            for series in _series(snapshot, name, labels):
                count += series["count"]
                total += series["sum"]
                counts = series["counts"]
                buckets = (
                    list(counts) if buckets is None
                    else [a + b for a, b in zip(buckets, counts)]
                )
            return count, total, buckets or []
        count_a, sum_a, buckets_a = read(self.after)
        count_b, sum_b, buckets_b = read(self.before)
        if not buckets_b:
            buckets_b = [0] * len(buckets_a)
        return (count_a - count_b, sum_a - sum_b,
                [a - b for a, b in zip(buckets_a, buckets_b)])

    def hist_quantile(self, name: str, q: float, **labels: str) -> float:
        """Quantile ``q`` (0..1) of a histogram delta, interpolated
        linearly inside the bucket that holds it (seconds)."""
        count, _total, counts = self.hist(name, **labels)
        entry = self.after["metrics"].get(name)  # type: ignore[index]
        if not count or entry is None:
            return 0.0
        edges = [0.0] + list(entry["buckets"])
        rank = q * count
        seen = 0
        for index, bucket_count in enumerate(counts):
            if bucket_count and seen + bucket_count >= rank:
                if index >= len(edges) - 1:
                    return edges[-1]  # +Inf bucket: report its lower edge
                low, high = edges[index], edges[index + 1]
                return low + (high - low) * (rank - seen) / bucket_count
            seen += bucket_count
        return edges[-1]


def engine_costs(delta: Delta, engine: str = "compiled") -> Dict[str, float]:
    """Per-run kernel, DC-init and result-build costs from the
    engine's published phase split (``run_stimulus`` publishes one
    ``initialize/stimulus/settle/drain`` split per run)."""
    runs = delta.counter("halotis_engine_runs_total", engine=engine)
    events = delta.counter("halotis_engine_events_executed_total",
                           engine=engine)
    _count, run_seconds, _ = delta.hist("halotis_engine_run_seconds",
                                        engine=engine)
    phases = {
        phase: delta.hist("halotis_engine_phase_seconds", engine=engine,
                          phase=phase)[1]
        for phase in ("initialize", "stimulus", "settle", "drain")
    }
    kernel = phases["stimulus"] + phases["settle"] + phases["drain"]
    if not runs:
        return {"runs": 0.0, "run_seconds": 0.0, "kernel_us_per_event": 0.0,
                "dcinit_us_per_vector": 0.0, "result_us_per_vector": 0.0}
    return {
        "runs": runs,
        "run_seconds": run_seconds,
        "kernel_us_per_event": 1e6 * kernel / events if events else 0.0,
        "dcinit_us_per_vector": 1e6 * phases["initialize"] / runs,
        "result_us_per_vector": (
            1e6 * (run_seconds - kernel - phases["initialize"]) / runs
        ),
    }


def service_costs(delta: Delta, workers: int,
                  window_seconds: float) -> Dict[str, float]:
    """Warm-pool dispatch costs over one window (``core.service``)."""
    tasks, task_seconds, _ = delta.hist("halotis_service_task_seconds",
                                        outcome="ok")
    chunks, chunk_vectors, _ = delta.hist("halotis_service_chunk_vectors")
    worker_run = delta.hist("halotis_engine_run_seconds",
                            engine="compiled")[1]
    return {
        "queue_wait_ms_p50": 1e3 * delta.hist_quantile(
            "halotis_service_queue_wait_seconds", 0.5),
        "ipc_us_per_chunk": (
            1e6 * (task_seconds - worker_run) / tasks if tasks else 0.0
        ),
        "vectors_per_chunk": chunk_vectors / chunks if chunks else 0.0,
        "worker_busy_frac": (
            worker_run / (workers * window_seconds)
            if workers and window_seconds > 0 else 0.0
        ),
        "requeued": delta.counter("halotis_service_tasks_requeued_total"),
        "restarts": delta.counter("halotis_service_worker_restarts_total"),
    }
