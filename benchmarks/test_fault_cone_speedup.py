"""Per-mutant CPU: cone runs vs. full runs of the same mutants.

A compiled-family engine runs each mutant of a faulted chunk on its
fault's fanout cone only, against a recorded golden run
(:mod:`repro.faults.differential`).  The alternative is the full run
every mutant took before — the fallback the runner still takes when a
cone run cannot apply — so this benchmark drives one faultload down
both paths on one engine, calling each directly:

* cone: :func:`repro.core.batch.run_chunk` over the faulted chunk (the
  golden run is recorded and every cone built in an untimed warm-up
  pass, as a warm worker holds them);
* full: :func:`repro.core.engine.run_stimulus` per mutant, under one
  :func:`~repro.core.engine.chunk_tally`.

Metrics collection stays on (the default), and both sides publish their
engine metrics once per pass, as a chunk does.  The rounds alternate
the two paths and the gate compares their best per-mutant CPU, which a
busy host disturbs less than a median.  ``record_mb`` is the memory the warm-up
left allocated: the golden record, its cones and the cone kernel.

On a shared 2-vCPU x86-64 VM (CPython 3.11), three runs on the native
kernel loop measured the cone path at 2.46-2.59x on mult4 (about
77-118 vs. 190-290 us per mutant), 2.88-4.59x on mult6 (about 114-176
vs. 330-570 us) and 3.37-4.16x on mult10 (about 0.74-1.24 vs. 3.1-4.3
ms; 1524 golden events, 41% of them in the mean cone, record 2.0 MB).
The native loop cut both sides' kernel time, so a cone run's fixed
set-up weighs more in its ratio than on the Python loop (2.7-2.9x on
mult4 there).  Cone runs are plain
kernel runs: every kernel breaks time ties by ``(time, pin uid, seq)``,
so a cone orders its ties as the full run does.
The bars sit 20-25% below the low ends measured when they were set
(2.4x, 2.2x and 3.0x).
"""

from __future__ import annotations

import gc
import statistics
import time
import tracemalloc

import pytest

from repro.circuit import modules
from repro.config import ddm_config
from repro.core.batch import run_chunk
from repro.core.engine import chunk_tally, make_engine, run_stimulus
from repro.faults.faultload import generate_faultload
from repro.faults.inject import FaultedStimulus
from repro.stimuli.vectors import multiplication_sequence

_ROUNDS = 11

#: (circuit width, operand pairs, mutants, faultload seed, bar); mult4
#: is the faultload of test_faults_speedup.py, and mult10's operands
#: toggle every input bit, so its events run the full logic depth.
_CASES = {
    "mult4": (4, [(0x3, 0x5), (0xC, 0xA)], 200, 21, 1.9),
    "mult6": (6, [(0x3, 0x5), (0xC, 0xA)], 120, 21, 1.7),
    "mult10": (10, [(0x155, 0x2AA), (0x2AA, 0x155)], 40, 21, 2.3),
}


def _per_mutant_cpu(run, count):
    start = time.process_time()
    run()
    return (time.process_time() - start) / count


@pytest.mark.parametrize("circuit", sorted(_CASES))
def test_cone_runs_beat_full_runs(benchmark, bench_record, circuit):
    width, operands, count, seed, bar = _CASES[circuit]
    netlist = modules.array_multiplier(width)
    stimulus = multiplication_sequence(operands, width=width)
    faultload = generate_faultload(
        netlist, count, seed=seed, window=(0.0, stimulus.horizon)
    )
    config = ddm_config(record_traces=False)
    mutants = [FaultedStimulus(stimulus, fault) for fault in faultload.faults]
    engine = make_engine(netlist, config=config, engine_kind="compiled")

    def cone():
        return list(run_chunk(engine, mutants))

    def full():
        with chunk_tally(engine):
            return [run_stimulus(engine, mutant) for mutant in mutants]

    tracemalloc.start()
    warm = cone()  # records the golden run and builds every cone
    runner = engine._differential
    golden = runner.golden
    assert golden is not None
    assert sum(r.simulator is runner.cone_kernel for r in warm) == count
    del warm
    gc.collect()
    held = tracemalloc.get_traced_memory()[0]  # the record and its cones
    tracemalloc.stop()

    def measure():
        cone_cpu, full_cpu = [], []
        for _round in range(_ROUNDS):
            cone_cpu.append(_per_mutant_cpu(cone, count))
            full_cpu.append(_per_mutant_cpu(full, count))
        return min(cone_cpu), min(full_cpu)

    cone_s, full_s = benchmark.pedantic(measure, rounds=1, iterations=1)
    speedup = full_s / cone_s
    assert runner.golden is golden  # recorded once
    shares = [
        golden.cone(netlist.nets[fault.net].driver.index).share[0]
        / golden.stats.events_executed
        for fault in faultload.faults
    ]
    measured = {
        "cone_us_per_mutant": round(1e6 * cone_s, 1),
        "full_us_per_mutant": round(1e6 * full_s, 1),
        "speedup": round(speedup, 3),
        "mean_cone_share": round(statistics.mean(shares), 3),
        "golden_events": golden.stats.events_executed,
        "record_mb": round(held / 2**20, 2),
    }
    benchmark.extra_info.update(measured)
    bench_record(
        "fault-cone-speedup-%s" % circuit,
        config={"mutants": count, "seed": seed, "rounds": _ROUNDS},
        measured=measured,
    )
    assert speedup >= bar, (
        "%s cone runs only %.2fx faster than full runs per mutant "
        "(%.1f vs %.1f us, bar %.1fx)"
        % (circuit, speedup, 1e6 * cone_s, 1e6 * full_s, bar)
    )
