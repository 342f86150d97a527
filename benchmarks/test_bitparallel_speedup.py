"""Bit-parallel engine throughput: 64+ stimulus lanes per uint64 op.

The bit-parallel backend packs one stimulus vector into each bit of a
python lane word, so a single table-program evaluation (a handful of
word AND/OR/XOR ops) advances every lane at once, and coincident
transitions across lanes collapse into one word event.  Per-lane
*logic* stays exact (pinned in ``tests/core/test_bitparallel_parity.py``);
per-lane event timing follows the word-level CDM contract documented in
``docs/architecture.md``.

This gate drives the wide-activity workload the engine exists for — a
256-lane multiplier batch — and enforces its speed bar: the word kernel
must beat N sequential compiled runs by >= 6.7x
(``_MIN_VS_SEQUENTIAL``).  The per-gate word-op counts land in the
benchmark JSON so a lowering regression (a gate falling off the word
program path) is visible in the trajectory, not just as a slower
number.
"""

from __future__ import annotations

import time

import pytest

pytest.importorskip("numpy")

from repro.config import cdm_config
from repro.core.batch import simulate_batch
from repro.core.engine import simulate
from repro.experiments import common
from repro.stimuli.patterns import random_vector_batch

#: Lanes in the activity batch; the acceptance criterion is N >= 64 per
#: word op, and 256 lanes exercise the multi-word (4 x uint64-sized)
#: packing.
_LANES = 256
_STEPS = 2
_SEED = 19

#: The speed bar on this workload.  It was 20x while every compiled run
#: DC-initialised through the object-graph evaluator (~0.6 ms of a
#: ~1.5 ms mult4 run).  DC init on the lowering made those runs ~1.7x
#: faster and left the word kernel as it was, so the bar keeps the same
#: absolute speed of the word kernel: 20x / 1.7, about 12x.  The native
#: compiled kernel loop then made these sequential runs 1.41-1.80x
#: faster (median 1.65; ten runs of both loops and the word kernel
#: interleaved, CPU time, best of 9 each), so the same absolute demand
#: is 12x / 1.65, about 7.3x; the bar stays at the 7.4x that an
#: earlier five block-timed runs gave (median 1.62).  The same ten runs
#: measured the word kernel at 5.4-9.9x (median 8.1) against native
#: sequential runs and 11.9-15.0x (median 13.5) against the Python
#: loop's (2-vCPU x86-64 VM, CPython 3.11).  Results kept as rows by
#: net id then made each sequential run's result build cheaper, 1.11x
#: faster runs in the median (0.94-1.36x; ten runs of the old and new
#: code interleaved, CPU time, best of 9 each, with the word kernel
#: unchanged at 0.89-1.04x of its old CPU), so the same absolute demand
#: is 7.4x / 1.11, rounded up to 6.7x.  Whether the word kernel keeps
#: its place is ROADMAP item 12's decision.
_MIN_VS_SEQUENTIAL = 6.7


def _workload():
    netlist = common.multiplier_netlist()
    stimuli = random_vector_batch(
        [net.name for net in netlist.primary_inputs],
        batch=_LANES,
        count=_STEPS,
        period=2.0,
        base_seed=_SEED,
        tail=2.0,
    )
    return netlist, stimuli


def _throughput_config():
    return cdm_config(record_traces=False)


def _word_kernel(netlist, config, lanes):
    from repro.core.bitparallel import _WordKernel

    return _WordKernel(netlist.compile(), config, lanes)


def test_bitparallel_batch_throughput(benchmark, bench_record):
    """Wall-clock of the word-kernel path, recorded into the trajectory
    together with the per-gate word-op counts."""
    netlist, stimuli = _workload()
    config = _throughput_config()
    batch = benchmark(
        simulate_batch, netlist, stimuli, config=config,
        engine_kind="bitparallel",
    )
    assert batch.engine_kind == "bitparallel"
    aggregate = batch.aggregate_stats()
    assert aggregate.events_executed > 0

    word_ops = _word_kernel(netlist, config, _LANES).word_op_counts()
    benchmark.extra_info["lanes"] = len(batch)
    benchmark.extra_info["events_executed"] = aggregate.events_executed
    benchmark.extra_info["word_ops_per_gate"] = word_ops
    benchmark.extra_info["word_ops_max"] = max(word_ops.values())
    bench_record(
        "bitparallel-throughput",
        config={"engine": "bitparallel", "lanes": _LANES,
                "steps": _STEPS, "seed": _SEED},
        measured={"events_executed": aggregate.events_executed,
                  "word_ops_max": max(word_ops.values())},
    )
    # Every multiplier gate must lower onto the word program path; a
    # -1 here means a gate fell back to per-lane evaluation.
    assert all(ops >= 0 for ops in word_ops.values()), (
        "gates off the word path: %s"
        % sorted(name for name, ops in word_ops.items() if ops < 0)
    )


def test_bitparallel_beats_vector_and_sequential(benchmark, bench_record):
    """The speed bar: one 256-lane word-kernel batch must run >= 6.7x
    faster than 256 sequential compiled runs of the same stimuli.  (The
    name predates the retirement of the >= 10x bar against the deleted
    vector lockstep kernel.)"""
    netlist, stimuli = _workload()
    config = _throughput_config()

    def run_sequential():
        for stimulus in stimuli:
            simulate(netlist, stimulus, config=config, engine_kind="compiled")

    def run_batched():
        simulate_batch(
            netlist, stimuli, config=config, engine_kind="bitparallel"
        )

    def best_cpu_s(repeats: int = 9) -> tuple:
        """Best CPU seconds of each side, ``(sequential, word)``.  The
        sides alternate, so a slow phase of a shared host hits both
        alike, and CPU time leaves out time the host takes away."""
        best = [float("inf"), float("inf")]
        for _ in range(repeats):
            for side, fn in enumerate((run_sequential, run_batched)):
                start = time.process_time()
                fn()
                best[side] = min(best[side], time.process_time() - start)
        return best[0], best[1]

    # Warm both paths (and the lowering cache, as any repeated workload
    # would).
    simulate(netlist, stimuli[0], config=config, engine_kind="compiled")
    simulate_batch(
        netlist, stimuli[:8], config=config, engine_kind="bitparallel"
    )

    def measure():
        # Up to 3 attempts keeping the best observed ratio: one noisy
        # scheduler blip on a shared CI runner must not fail the tier-1
        # gate when the steady-state advantage is real.
        best = (0.0, (float("inf"), float("inf")))
        for _attempt in range(3):
            sequential, word = best_cpu_s()
            score = sequential / word / _MIN_VS_SEQUENTIAL
            if score > best[0]:
                best = (score, (sequential, word))
            if best[0] >= 1.1:
                break
        return best[1]

    sequential, word = benchmark.pedantic(measure, rounds=1, iterations=1)
    word_ops = _word_kernel(netlist, config, _LANES).word_op_counts()
    benchmark.extra_info["lanes"] = _LANES
    benchmark.extra_info["sequential_compiled_s"] = round(sequential, 6)
    benchmark.extra_info["bitparallel_batch_s"] = round(word, 6)
    benchmark.extra_info["speedup_vs_sequential"] = round(
        sequential / word, 3
    )
    benchmark.extra_info["amortised_per_lane_s"] = round(word / _LANES, 8)
    benchmark.extra_info["word_ops_per_gate"] = word_ops
    bench_record(
        "bitparallel-speedup",
        config={"lanes": _LANES, "steps": _STEPS, "seed": _SEED,
                "min_vs_sequential": _MIN_VS_SEQUENTIAL},
        measured={"sequential_compiled_s": round(sequential, 6),
                  "bitparallel_batch_s": round(word, 6),
                  "speedup_vs_sequential": round(sequential / word, 3)},
    )
    assert sequential / word >= _MIN_VS_SEQUENTIAL, (
        "word kernel below the %.1fx bar against %d sequential compiled "
        "runs (sequential %.4fs, bitparallel %.4fs, %.2fx)"
        % (_MIN_VS_SEQUENTIAL, _LANES, sequential, word, sequential / word)
    )


def test_bitparallel_activity_popcount_on_benchmark_workload(benchmark):
    """Guard: on the timed workload, the packed popcount activity path
    agrees with the per-lane statistics the speed run produces."""
    from repro.analysis.activity import (
        activity_summary,
        packed_activity_summary,
    )
    from repro.core.bitparallel import _WordLockstepDriver

    netlist, stimuli = _workload()
    config = _throughput_config()

    def run_and_summarise():
        kernel = _word_kernel(netlist, config, len(stimuli))
        driver = _WordLockstepDriver(netlist, kernel, stimuli, 0.0, None)
        results = driver.run()
        from_words = packed_activity_summary(kernel.packed_toggle_words())
        from_stats = activity_summary(result.stats for result in results)
        return from_words, from_stats

    from_words, from_stats = benchmark(run_and_summarise)
    assert from_words.per_net == from_stats.per_net
    assert from_words.total_transitions == from_stats.total_transitions
    assert from_words.total_transitions > 0
