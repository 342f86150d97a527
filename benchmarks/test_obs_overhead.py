"""Observability overhead: instrumented vs uninstrumented simulation.

The metrics layer only earns always-on default status if it is close to
free on the hot path.  Engine instrumentation is deliberately coarse —
a few clock stamps per run, published once per chunk of runs, never
per-event work — so the overhead must vanish into timing noise.  Each
gate drives one workload twice, once with metrics on (the default) and
once with them off, and asserts the instrumented run is within 1.05x of
the uninstrumented one:

* the canonical throughput workload: the 6x6 multiplier under 20
  random vectors in one compiled ``simulate()``, as in
  ``test_backend_speedup.py`` (a long run: one publication);
* an in-process ``simulate_batch()`` of 64 two-step mult4 vectors, the
  short work where a per-vector publication would show most;
* a chunk of mult4 mutants on their fault cones, the shortest runs
  there are.
"""

from __future__ import annotations

import time

from repro.circuit import modules
from repro.config import ddm_config
from repro.core.batch import run_chunk, simulate_batch
from repro.core.engine import make_engine, simulate
from repro.experiments import common
from repro.faults.faultload import generate_faultload
from repro.faults.inject import FaultedStimulus
from repro.obs.registry import set_enabled
from repro.stimuli.patterns import random_vector_batch, random_vectors

_WIDTH = 6
_VECTORS = 20
_SEED = 7

#: The short-batch case: two-step mult4 vectors in one batch.
_BATCH = 64
#: The cone case: mult4 mutants of every kind in one chunk, the chunk
#: an in-process campaign of 100 mutants runs.
_MUTANTS = 100

#: The acceptance bar from the issue: instrumentation <= 5% overhead.
_MAX_OVERHEAD = 1.05


def _workload():
    netlist = common.multiplier_netlist(_WIDTH)
    stimulus = random_vectors(
        [net.name for net in netlist.primary_inputs],
        count=_VECTORS,
        period=5.0,
        seed=_SEED,
    )
    return netlist, stimulus


def _best_ratio(run, on, off):
    """``(uninstrumented, instrumented)`` seconds of ``run(config)``.

    Each side is the best of 5 runs; up to 5 attempts keep the pair
    with the best (lowest) ratio.  The claim is about steady-state
    cost, and on a shared CI runner a single scheduler blip in the
    instrumented run must not fail the gate.
    """
    def best_of(config, repeats: int = 5) -> float:
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            run(config)
            best = min(best, time.perf_counter() - start)
        return best

    # Warm both paths (and the lowering cache both share).
    run(on)
    run(off)
    best = (float("inf"), (float("inf"), float("inf")))
    for _attempt in range(5):
        plain = best_of(off)
        instrumented = best_of(on)
        ratio = instrumented / plain
        if ratio < best[0]:
            best = (ratio, (plain, instrumented))
        if best[0] <= 1.02:
            break
    return best[1]


def _gate(benchmark, bench_record, name, config, run, on, off):
    """Time ``run`` both ways, record it and assert the bar."""
    plain, instrumented = benchmark.pedantic(
        _best_ratio, args=(run, on, off), rounds=1, iterations=1
    )
    ratio = instrumented / plain
    benchmark.extra_info["uninstrumented_s"] = round(plain, 6)
    benchmark.extra_info["instrumented_s"] = round(instrumented, 6)
    benchmark.extra_info["overhead_ratio"] = round(ratio, 4)
    bench_record(
        name,
        config=dict(config, max_overhead=_MAX_OVERHEAD),
        measured={"uninstrumented_s": round(plain, 6),
                  "instrumented_s": round(instrumented, 6),
                  "overhead_ratio": round(ratio, 4)},
    )
    assert ratio <= _MAX_OVERHEAD, (
        "metrics collection costs %.1f%% on %s "
        "(uninstrumented %.4fs, instrumented %.4fs); the bar is %.0f%%"
        % (
            (ratio - 1.0) * 100.0, name, plain, instrumented,
            (_MAX_OVERHEAD - 1.0) * 100.0,
        )
    )


def test_instrumentation_overhead_within_bound(benchmark, bench_record):
    """The gate: metrics-on compiled simulate() <= 1.05x metrics-off."""
    netlist, stimulus = _workload()
    on = ddm_config(record_traces=False)
    off = ddm_config(record_traces=False, collect_metrics=False)
    assert on.collect_metrics and not off.collect_metrics

    def run(config):
        simulate(netlist, stimulus, config=config, engine_kind="compiled")

    _gate(
        benchmark, bench_record, "obs-overhead",
        {"engine": "compiled", "width": _WIDTH, "vectors": _VECTORS,
         "seed": _SEED},
        run, on, off,
    )


def test_short_batch_overhead_within_bound(benchmark, bench_record):
    """The gate on short work: a metrics-on in-process simulate_batch()
    of 64 two-step mult4 vectors <= 1.05x metrics-off."""
    netlist = modules.array_multiplier(4)
    stimuli = random_vector_batch(
        [net.name for net in netlist.primary_inputs],
        batch=_BATCH, count=2, period=2.0, base_seed=_SEED,
    )
    on = ddm_config(record_traces=False)
    off = ddm_config(record_traces=False, collect_metrics=False)

    def run(config):
        simulate_batch(netlist, stimuli, config=config,
                       engine_kind="compiled")

    _gate(
        benchmark, bench_record, "obs-overhead-short-batch",
        {"engine": "compiled", "width": 4, "batch": _BATCH, "steps": 2,
         "seed": _SEED},
        run, on, off,
    )


def test_cone_mutant_overhead_within_bound(benchmark, bench_record):
    """The gate on the shortest runs: a metrics-on chunk of mult4
    mutants on their cones <= 1.05x metrics-off (golden record made
    while warming up).  Both sides run on one warm engine, metrics off
    being the process registry's switch: two engines' golden records
    and cones sit differently in memory, which moved this ratio by up
    to 2% either way."""
    netlist = modules.array_multiplier(4)
    stimulus = random_vectors(
        [net.name for net in netlist.primary_inputs],
        count=3, period=5.0, seed=_SEED,
    )
    faultload = generate_faultload(
        netlist, _MUTANTS, seed=_SEED, window=(0.0, stimulus.horizon)
    )
    mutants = [FaultedStimulus(stimulus, fault) for fault in faultload.faults]
    engine = make_engine(
        netlist, config=ddm_config(record_traces=False),
        engine_kind="compiled",
    )

    def run(collect):
        previous = set_enabled(collect)
        try:
            list(run_chunk(engine, mutants))
        finally:
            set_enabled(previous)

    _gate(
        benchmark, bench_record, "obs-overhead-cone",
        {"engine": "compiled", "width": 4, "mutants": _MUTANTS,
         "seed": _SEED},
        run, True, False,
    )
    assert engine._differential.golden is not None


def test_metrics_off_leaves_registry_untouched(benchmark):
    """Guard: the uninstrumented side of the gate really records nothing."""
    from repro.obs.registry import get_registry

    netlist, stimulus = _workload()
    off = ddm_config(record_traces=False, collect_metrics=False)
    registry = get_registry()

    def run():
        registry.snapshot(reset=True)  # drain whatever ran before us
        result = simulate(
            netlist, stimulus, config=off, engine_kind="compiled"
        )
        return result, registry.snapshot(reset=True)

    result, delta = benchmark(run)
    assert result.stats.events_executed > 0
    assert result.metrics is None
    recorded = {
        name: entry["series"]
        for name, entry in delta["metrics"].items()
        if entry["series"]
    }
    assert not recorded, "metrics recorded with collection off: %s" % (
        sorted(recorded),
    )
