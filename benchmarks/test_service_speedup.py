"""Warm-pool service throughput vs. a cold pool per call.

``simulate_batch(jobs > 1)`` opens an ephemeral service for each call,
so it pays, *per call*: a worker spawn, one netlist (un)pickle and one
engine build per worker, and the pool's shutdown.  A long-lived service
amortises all of that away: workers spawn once, engines build once,
and each chunk returns in one compact result message.  This benchmark
drives the same many-short-vectors workload down both paths and asserts
the warm service's per-vector time beats the cold per-call pool's — the
scaling claim of the service, kept honest on every run.

A parity guard pins that the two timed paths are the same computation.
"""

from __future__ import annotations

import time

from repro.config import ddm_config
from repro.core.batch import simulate_batch
from repro.core.service import SimulationService
from repro.experiments import common
from repro.stimuli.patterns import random_vector_batch

_VECTORS = 24
_STEPS = 2
_SEED = 47
_WORKERS = 2


def _workload():
    netlist = common.multiplier_netlist()
    stimuli = random_vector_batch(
        [net.name for net in netlist.primary_inputs],
        batch=_VECTORS,
        count=_STEPS,
        period=2.0,
        base_seed=_SEED,
        tail=2.0,
    )
    return netlist, stimuli


def _throughput_config():
    return ddm_config(record_traces=False)


def test_service_throughput(benchmark, bench_record):
    """Steady-state wall-clock of one warm batch, for the trajectory."""
    netlist, stimuli = _workload()
    config = _throughput_config()
    with SimulationService(
        netlist, config=config, workers=_WORKERS, engine_kind="compiled"
    ) as service:
        service.run_batch(stimuli)  # warm-up: first batch primes the pumps
        batch = benchmark(service.run_batch, stimuli)
    aggregate = batch.aggregate_stats()
    assert aggregate.events_executed > 0
    benchmark.extra_info["vectors"] = len(batch)
    benchmark.extra_info["workers"] = _WORKERS
    benchmark.extra_info["events_executed"] = aggregate.events_executed
    bench_record(
        "service-throughput",
        config={"vectors": _VECTORS, "workers": _WORKERS, "seed": _SEED},
        measured={"events_executed": aggregate.events_executed},
    )


def test_warm_service_beats_cold_sharding(benchmark, bench_record):
    """The acceptance bar: warm per-vector time < cold per-vector.

    "Cold" is the ``jobs > 1`` path exactly as a fresh caller pays it —
    an ephemeral pool per call: worker spawn, engine build per worker,
    shutdown — re-entered per batch.  "Warm" is the same batch
    submitted to an already-running service.
    """
    netlist, stimuli = _workload()
    config = _throughput_config()

    def cold_s(repeats: int = 3) -> float:
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            simulate_batch(
                netlist, stimuli, config=config, engine_kind="compiled",
                jobs=_WORKERS,
            )
            best = min(best, time.perf_counter() - start)
        return best

    with SimulationService(
        netlist, config=config, workers=_WORKERS, engine_kind="compiled"
    ) as service:

        def warm_s(repeats: int = 3) -> float:
            best = float("inf")
            for _ in range(repeats):
                start = time.perf_counter()
                service.run_batch(stimuli)
                best = min(best, time.perf_counter() - start)
            return best

        # Warm both paths: the service runs its first batch (workers
        # finish any lazy setup), the cold path populates the lowering
        # cache it ships to workers.
        service.run_batch(stimuli)
        simulate_batch(netlist, stimuli[:2], config=config,
                       engine_kind="compiled", jobs=_WORKERS)

        def measure():
            # Up to 3 attempts keeping the best observed ratio: one noisy
            # scheduler blip on a shared CI runner must not fail the gate
            # when the steady-state advantage is real.
            best_speedup, best_pair = 0.0, (0.0, float("inf"))
            for _attempt in range(3):
                cold = cold_s()
                warm = warm_s()
                speedup = cold / warm
                if speedup > best_speedup:
                    best_speedup, best_pair = speedup, (cold, warm)
                if best_speedup >= 1.5:
                    break
            return best_pair

        cold, warm = benchmark.pedantic(measure, rounds=1, iterations=1)

    speedup = cold / warm
    benchmark.extra_info["cold_sharded_s"] = round(cold, 6)
    benchmark.extra_info["warm_service_s"] = round(warm, 6)
    benchmark.extra_info["speedup"] = round(speedup, 3)
    benchmark.extra_info["cold_per_vector_s"] = round(cold / _VECTORS, 8)
    benchmark.extra_info["warm_per_vector_s"] = round(warm / _VECTORS, 8)
    bench_record(
        "service-speedup-warm-vs-cold",
        config={"vectors": _VECTORS, "workers": _WORKERS, "seed": _SEED},
        measured={"cold_sharded_s": round(cold, 6),
                  "warm_service_s": round(warm, 6),
                  "speedup": round(speedup, 3)},
    )
    assert speedup > 1.0, (
        "warm service per-vector time no better than cold sharding "
        "(cold %.4fs, warm %.4fs, %.2fx)" % (cold, warm, speedup)
    )


def test_service_matches_cold_path_on_benchmark_workload(benchmark):
    """Guard: the two timed paths really are the same computation."""
    netlist, stimuli = _workload()
    config = ddm_config()

    def run_both():
        cold = simulate_batch(
            netlist, stimuli[:5], config=config, engine_kind="compiled",
            jobs=_WORKERS,
        )
        with SimulationService(
            netlist, config=config, workers=_WORKERS, engine_kind="compiled"
        ) as service:
            warm = service.run_batch(stimuli[:5])
        return cold, warm

    cold, warm = benchmark(run_both)
    for cold_result, warm_result in zip(cold, warm):
        assert (
            cold_result.stats.events_executed
            == warm_result.stats.events_executed
        )
        assert cold_result.final_values == warm_result.final_values
        for name in netlist.nets:
            assert (
                cold_result.traces[name].edges()
                == warm_result.traces[name].edges()
            )
