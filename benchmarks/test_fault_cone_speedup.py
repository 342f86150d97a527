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
* full: :func:`repro.core.engine.run_stimulus` per mutant.

Metrics collection stays on (the default), so both sides publish the
same per-run engine counters.  The rounds alternate the two paths and
the gate compares their best per-mutant CPU, which a busy host
disturbs less than a median.  ``record_mb`` is the memory the warm-up
left allocated: the golden record, its cones and the cone kernel.

On a shared 2-vCPU x86-64 VM the cone path measured 2.0-2.4x on mult4
(about 250 vs. 530 us per mutant), 1.9-2.7x on mult6 (about 330 vs.
830 us) and 1.6-1.7x on mult10 (about 4.1 vs. 6.6 ms; 1524 golden
events, 41% of them in the mean cone, record 3.2 MB).  mult10's
operands toggle every input bit, so its causal keys run the full logic
depth: keyed runs cost more per event there, and its bar sits lower.
The bars sit 15-25% below the low ends.
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
from repro.core.engine import make_engine, run_stimulus
from repro.faults.faultload import generate_faultload
from repro.faults.inject import FaultedStimulus
from repro.stimuli.vectors import multiplication_sequence

_ROUNDS = 11

#: (circuit width, operand pairs, mutants, faultload seed, bar); mult4
#: is the faultload of test_faults_speedup.py, and mult10's operands
#: toggle every input bit, so its events run the full logic depth.
_CASES = {
    "mult4": (4, [(0x3, 0x5), (0xC, 0xA)], 200, 21, 1.5),
    "mult6": (6, [(0x3, 0x5), (0xC, 0xA)], 120, 21, 1.6),
    "mult10": (10, [(0x155, 0x2AA), (0x2AA, 0x155)], 40, 21, 1.3),
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
