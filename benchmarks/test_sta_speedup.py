"""Static timing analysis cost vs one compiled simulation.

The STA oracle (``SimulationConfig.check_sta_bounds``) only earns its
keep if the static pass is much cheaper than the dynamic work it
guards — otherwise users would just simulate twice.  This gate reuses
the repo's canonical throughput workload (the 6x6 multiplier under 20
random vectors, as in ``test_backend_speedup.py``) and asserts one
windows-only ``analyze()`` pass — exactly what ``windows_for()`` runs
for the oracle — is at least 3.8x faster than one compiled-engine
``simulate()`` of that workload (10x before the native kernel loop made
that simulation about 2.6x cheaper; see ``_MIN_SPEEDUP``).  The sides
alternate and are timed in CPU seconds, so a slow phase of a shared
host hits both alike.  The full CLI-default analysis (``k_paths=4``
critical paths) is recorded alongside for the trajectory, un-gated.
"""

from __future__ import annotations

import time

from repro.analysis.sta import analyze
from repro.config import ddm_config
from repro.core.engine import simulate
from repro.experiments import common
from repro.stimuli.patterns import random_vectors

_WIDTH = 6
_VECTORS = 20
_SEED = 7

#: The acceptance bar: windows-only STA vs one compiled simulation.  It
#: was 10x against the Python kernel loop; the native loop made this
#: simulation 1.82-3.06x faster (median 2.60; ten runs of both loops
#: and STA interleaved, CPU time, best of 9 each), so the same absolute
#: demand on STA is 10x / 2.60, about 3.8x: the same runs measured
#: 4.2-4.9x (median 4.6) against native runs and 11.3-14.0x (median
#: 12.1) against the Python loop's (2-vCPU x86-64 VM, CPython 3.11).
_MIN_SPEEDUP = 3.8


def _workload():
    netlist = common.multiplier_netlist(_WIDTH)
    stimulus = random_vectors(
        [net.name for net in netlist.primary_inputs],
        count=_VECTORS,
        period=5.0,
        seed=_SEED,
    )
    return netlist, stimulus


def _best_cpu_s(fns, repeats: int = 9) -> list:
    """Best CPU seconds of each of ``fns``, called in turn ``repeats``
    times, so a slow phase of a shared host hits them all alike."""
    best = [float("inf")] * len(fns)
    for _ in range(repeats):
        for index, fn in enumerate(fns):
            start = time.process_time()
            fn()
            best[index] = min(best[index], time.process_time() - start)
    return best


def test_sta_analysis_throughput(benchmark, bench_record):
    """Wall-clock of one full analysis (windows + 4 critical paths)."""
    netlist, _stimulus = _workload()
    config = ddm_config()
    netlist.compile()  # pre-warmed, as in any repeated workload
    report = benchmark(analyze, netlist, config, k_paths=4)
    assert report.windows
    benchmark.extra_info["nets"] = report.num_nets
    benchmark.extra_info["gates"] = report.num_gates
    bench_record(
        "sta-analysis-throughput",
        config={"width": _WIDTH, "k_paths": 4},
        measured={"nets": report.num_nets, "gates": report.num_gates},
    )


def test_sta_beats_one_compiled_simulation(benchmark, bench_record):
    """The gate: windows-only STA >= 3.8x faster than one simulation."""
    netlist, stimulus = _workload()
    config = ddm_config(record_traces=False)
    netlist.compile()
    # Warm both paths so neither side pays one-time lowering costs.
    simulate(netlist, stimulus, config=config, engine_kind="compiled")
    analyze(netlist, config, k_paths=4)

    def measure():
        # Up to 3 attempts keeping the best ratio: a scheduler blip on
        # a shared runner must not fail the gate when the steady-state
        # advantage is real.
        best = (0.0, (float("inf"), float("inf"), float("inf")))
        for _attempt in range(3):
            simulation, windows_only, full = _best_cpu_s((
                lambda: simulate(
                    netlist, stimulus, config=config, engine_kind="compiled"
                ),
                lambda: analyze(netlist, config, k_paths=0),
                lambda: analyze(netlist, config, k_paths=4),
            ))
            speedup = simulation / windows_only
            if speedup > best[0]:
                best = (speedup, (simulation, windows_only, full))
            if best[0] >= _MIN_SPEEDUP * 1.2:
                break
        return best[1]

    simulation, windows_only, full = benchmark.pedantic(
        measure, rounds=1, iterations=1
    )
    speedup = simulation / windows_only
    benchmark.extra_info["compiled_simulation_s"] = round(simulation, 6)
    benchmark.extra_info["sta_windows_only_s"] = round(windows_only, 6)
    benchmark.extra_info["sta_full_k4_s"] = round(full, 6)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    benchmark.extra_info["min_speedup"] = _MIN_SPEEDUP
    bench_record(
        "sta-speedup-vs-simulation",
        config={"width": _WIDTH, "vectors": _VECTORS, "seed": _SEED,
                "min_speedup": _MIN_SPEEDUP},
        measured={"compiled_simulation_s": round(simulation, 6),
                  "sta_windows_only_s": round(windows_only, 6),
                  "sta_full_k4_s": round(full, 6),
                  "speedup": round(speedup, 2)},
    )
    assert speedup >= _MIN_SPEEDUP, (
        "windows-only STA %.4fs vs one compiled simulation %.4fs: "
        "%.1fx < required %.1fx"
        % (windows_only, simulation, speedup, _MIN_SPEEDUP)
    )
