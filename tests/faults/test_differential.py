"""Differential fault simulation: cone runs are exact.

Three layers of checks:

* **the tie rule** — every kernel orders same-time events by ``(time,
  pin uid, seq)``, so renaming the primary inputs (which reorders a
  stimulus step's broadcasts but no pin) leaves every zoo result
  bit-identical on the reference and compiled kernels, both delay
  modes; a cone run relies on that rule to order its ties as the full
  run does;
* **exactness** — every mutant of every fault kind that runs only its
  cone matches the compiled full run and the reference engine in every
  statistics counter, ``net_toggles``, final values and every trace
  field, on mult4, mult6, wallace4, c17 and c17 read from a ``.bench``
  file with its gates reversed, DDM and CDM, traces on and off;
* **golden record and fallbacks** — the golden record is re-made
  exactly when the lowering changes, a chunk records only when it holds
  enough mutants of one base stimulus, and every fallback gives the
  full run's result or error.

Every case runs on both compiled kernel loops, native and Python.
"""

from __future__ import annotations

import contextlib
import dataclasses
import random
import sys
from pathlib import Path

import pytest

from repro.circuit import modules
from repro.circuit.bench_io import read_bench, write_bench
from repro.circuit.builder import CircuitBuilder
from repro.config import cdm_config, ddm_config
from repro.core.batch import run_chunk, simulate_batch
from repro.core.engine import (
    _ENGINE_COUNTERS,
    make_engine,
    run_stimulus,
    simulate,
)
from repro.core.stats import SimulationStatistics
from repro.errors import SimulationLimitError
from repro.faults.differential import MIN_MUTANTS_TO_RECORD
from repro.faults.faultload import FaultKind, FaultSpec, generate_faultload
from repro.faults.inject import FaultedStimulus
from repro.obs.registry import MetricsRegistry, get_registry
from repro.stimuli.patterns import random_vectors
from repro.stimuli.vectors import VectorSequence

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "core"))
from test_backend_parity import (  # noqa: E402
    CASES,
    random_netlist,
    random_stimulus,
)

pytestmark = pytest.mark.usefixtures("loop")

_STATS = [
    field.name for field in dataclasses.fields(SimulationStatistics)
    if field.name != "runtime_seconds"
]


def _observed(result):
    """Every field of a result that a run must reproduce bit for bit."""
    traces = result.traces
    return {
        "stats": {name: getattr(result.stats, name) for name in _STATS},
        "final_values": list(result.final_values.items()),
        "names": traces.names(),
        "initial": traces.initial_values(),
        "rows": [list(rows) for rows in traces.row_lists()],
        "horizon": traces.horizon,
    }


def _renamed_run(case, names, config, engine_kind):
    """One zoo case with its primary inputs named ``names`` (by
    position), observed by net position rather than by name."""
    seed, num_inputs, num_gates, vectors = case
    netlist = random_netlist(seed, num_inputs, num_gates, input_names=names)
    result = run_stimulus(
        make_engine(netlist, config=config, engine_kind=engine_kind),
        random_stimulus(seed, names, vectors),
    )
    observed = _observed(result)
    toggles = observed["stats"].pop("net_toggles")
    observed["toggles"] = [toggles.get(name, 0) for name in netlist.nets]
    observed["final_values"] = [value for _name, value in observed["final_values"]]
    del observed["names"]
    return observed


# ----------------------------------------------------------------------
# the tie rule: same-time order follows structure, not history
# ----------------------------------------------------------------------

@pytest.mark.parametrize("engine_kind", ["reference", "compiled"])
@pytest.mark.parametrize("mode", ["ddm", "cdm"])
def test_renaming_primary_inputs_leaves_results_unchanged(mode, engine_kind):
    """Renaming the primary inputs changes only the (sorted) order in
    which a stimulus step broadcasts them; gates, and so pin uids, are
    built in the same order.  Under the ``(time, pin uid, seq)`` tie
    rule that order cannot reach the results, so every zoo circuit
    gives bit-identical stats, final values and trace rows.  (Ordered
    by insertion alone, seeds 4 and 49 change.)"""
    make = ddm_config if mode == "ddm" else cdm_config
    renamed = 0
    for case in CASES:
        num_inputs = case[1]
        names = ["i%d" % k for k in range(num_inputs)]
        permuted = list(names)
        random.Random(case[0]).shuffle(permuted)
        renamed += permuted != names
        assert _renamed_run(case, permuted, make(), engine_kind) == (
            _renamed_run(case, names, make(), engine_kind)
        ), "seed%d" % case[0]
    assert renamed > 30


def _pulses_at_changes(netlist, stimulus, nets):
    """SET pulses that fire at, or end at, each stimulus change."""
    width = 0.4
    faults = []
    for at_time, _assignments, _slew in stimulus.iter_changes():
        for net in nets:
            faults.append(FaultSpec(FaultKind.SET_PULSE, net, time=at_time,
                                    width=width))
            faults.append(FaultSpec(FaultKind.SET_PULSE, net,
                                    time=at_time - width, width=width))
    return faults


# ----------------------------------------------------------------------
# exactness of cone runs, per mutant
# ----------------------------------------------------------------------

def _c17_reversed():
    """c17 read from ``.bench`` text whose gates are in reverse order;
    ``read_bench`` still builds every gate after its drivers."""
    lines = write_bench(modules.c17()).splitlines()
    gates = [line for line in lines if "=" in line]
    return read_bench(
        "\n".join([line for line in lines if "=" not in line] + gates[::-1]),
        name="c17_reversed",
    )


_CIRCUITS = {
    "mult4": (lambda: modules.array_multiplier(4), 60),
    "mult6": (lambda: modules.array_multiplier(6), 40),
    "wallace4": (lambda: modules.wallace_multiplier(4), 40),
    "c17": (modules.c17, 60),
    "c17_reversed": (_c17_reversed, 60),
}


def _campaign(name):
    build, count = _CIRCUITS[name]
    netlist = build()
    stimulus = random_vectors(
        [net.name for net in netlist.primary_inputs], count=3, period=3.0,
        seed=7, slew=0.3, tail=0.5,  # events outlast the horizon
    )
    faultload = generate_faultload(
        netlist, count, seed=11, kinds=list(FaultKind),
        window=(0.0, stimulus.horizon),
    )
    driven = [net for net, obj in netlist.nets.items() if obj.driver]
    faults = faultload.faults + _pulses_at_changes(
        netlist, stimulus, driven[::max(1, len(driven) // 2)][:2]
    )
    return netlist, stimulus, faults


@pytest.mark.parametrize("traced", [True, False], ids=["traces", "no-traces"])
@pytest.mark.parametrize("mode", ["ddm", "cdm"])
@pytest.mark.parametrize("circuit", sorted(_CIRCUITS))
def test_cone_runs_match_full_runs_and_reference(circuit, mode, traced):
    netlist, stimulus, faults = _campaign(circuit)
    make = ddm_config if mode == "ddm" else cdm_config
    config = make(record_traces=traced)
    settle = config.campaign_settle
    mutants = [FaultedStimulus(stimulus, fault) for fault in faults]
    assert {fault.kind for fault in faults} == set(FaultKind)

    engine = make_engine(netlist, config=config, engine_kind="compiled")
    cone = list(run_chunk(engine, mutants, settle=settle))
    runner = engine._differential
    assert runner is not None and runner.golden is not None
    assert all(result.simulator is runner.cone_kernel for result in cone)

    full_engine = make_engine(netlist, config=config, engine_kind="compiled")
    reference = make_engine(netlist, config=config, engine_kind="reference")
    for mutant, result in zip(mutants, cone):
        observed = _observed(result)
        full = run_stimulus(full_engine, mutant, settle=settle)
        assert observed == _observed(full), mutant.fault.describe()
        # compiled runs key net_toggles by net id, a cone run included
        assert list(result.stats.net_toggles.items()) == list(
            full.stats.net_toggles.items()
        ), mutant.fault.describe()
        assert observed == _observed(
            run_stimulus(reference, mutant, settle=settle)
        ), mutant.fault.describe()
        assert result.stats.runtime_seconds >= 0.0


def test_bitparallel_cone_runs_match_its_full_runs():
    """The lockstep engine runs faulted chunks on its compiled kernel,
    in CDM mode; the cone path keeps that contract."""
    netlist, stimulus, faults = _campaign("c17")
    mutants = [FaultedStimulus(stimulus, fault) for fault in faults]
    config = ddm_config()
    batch = simulate_batch(netlist, mutants, config=config,
                           engine_kind="bitparallel")
    engine = make_engine(netlist, config=config, engine_kind="bitparallel")
    for mutant, result in zip(mutants, batch.results):
        assert _observed(result) == _observed(run_stimulus(engine, mutant))


def _engine_totals(run):
    """What ``run()`` adds to each compiled-engine counter."""
    names = ["halotis_engine_runs_total"] + [
        name for _field, name, _help in _ENGINE_COUNTERS
    ]
    get_registry().snapshot(reset=True)
    results = run()
    delta = MetricsRegistry()
    delta.merge_snapshot(get_registry().snapshot(reset=True))
    totals = {
        name: delta.get(name).value(engine="compiled")
        for name in names if delta.get(name) is not None
    }
    return totals, results


def test_campaign_engine_counters_match_full_runs():
    """Cone results publish the engine counters the full runs publish."""
    netlist, stimulus, faults = _campaign("mult4")
    mutants = [FaultedStimulus(stimulus, fault) for fault in faults]
    config = ddm_config(record_traces=False)
    engine = make_engine(netlist, config=config, engine_kind="compiled")
    full, _ = _engine_totals(lambda: [run_stimulus(engine, m) for m in mutants])
    cone_engine = make_engine(netlist, config=config, engine_kind="compiled")
    cone, _ = _engine_totals(lambda: list(run_chunk(cone_engine, mutants)))
    assert cone == full
    assert full["halotis_engine_events_executed_total"] > 0


def test_every_mutant_counts_one_engine_run():
    """SET-pulse mutants run through the same epilogue as every other
    run: each mutant, full or cone, moves ``halotis_engine_runs_total``
    by one and carries ``result.metrics``."""
    netlist, stimulus, faults = _campaign("mult4")
    mutants = [FaultedStimulus(stimulus, fault) for fault in faults]
    pulses = [m for m in mutants if m.fault.kind is FaultKind.SET_PULSE]
    assert len(pulses) >= MIN_MUTANTS_TO_RECORD
    config = ddm_config(record_traces=False)
    engine = make_engine(netlist, config=config, engine_kind="compiled")
    cone_engine = make_engine(netlist, config=config, engine_kind="compiled")
    for chunk in (mutants, pulses):
        full, full_results = _engine_totals(
            lambda: [run_stimulus(engine, m) for m in chunk]  # noqa: B023
        )
        cone, cone_results = _engine_totals(
            lambda: list(run_chunk(cone_engine, chunk))  # noqa: B023
        )
        assert all(result.simulator is cone_engine._differential.cone_kernel
                   for result in cone_results)
        assert full["halotis_engine_runs_total"] == len(chunk)
        assert cone["halotis_engine_runs_total"] == len(chunk)
        for mutant, ran, coned in zip(chunk, full_results, cone_results):
            for result in (ran, coned):
                assert result.metrics is not None, mutant.fault.describe()
                assert result.metrics["engine"] == "compiled"
                assert result.metrics["counters"]["events_executed"] == (
                    result.stats.events_executed
                )


# ----------------------------------------------------------------------
# golden record and fallbacks
# ----------------------------------------------------------------------

def _chunk_matches_full(engine, mutants, **kwargs):
    """Run a chunk, then check each result against the full run of its
    mutant on the same engine."""
    results = list(run_chunk(engine, mutants, **kwargs))
    for mutant, result in zip(mutants, results):
        assert _observed(result) == _observed(
            run_stimulus(engine, mutant, **kwargs)
        ), mutant.fault.describe()
    return results


def _cache_case():
    netlist, stimulus, faults = _campaign("mult4")
    mutants = [FaultedStimulus(stimulus, fault) for fault in faults]
    engine = make_engine(netlist, config=ddm_config(), engine_kind="compiled")
    _chunk_matches_full(engine, mutants[:10])
    golden = engine._differential.golden
    assert golden is not None
    # Every mutant patched and restored the lowering: no re-recording.
    _chunk_matches_full(engine, mutants[10:])
    assert engine._differential.golden is golden
    return netlist, engine, mutants, golden


def test_golden_is_remade_after_invalidate_lowering():
    netlist, engine, mutants, golden = _cache_case()
    netlist.invalidate_lowering()
    _chunk_matches_full(engine, mutants[:10])
    assert engine._differential.golden not in (None, golden)


def test_chunk_after_invalidate_lowering_matches_a_fresh_engine():
    """After ``invalidate_lowering()`` an engine's chunks run on the new
    lowering, the one fault injection patches."""
    netlist, engine, mutants, _golden = _cache_case()
    netlist.invalidate_lowering()
    fresh = make_engine(netlist, config=ddm_config(), engine_kind="compiled")
    for mutant, stale, new in zip(mutants, run_chunk(engine, mutants[:10]),
                                  run_chunk(fresh, mutants[:10])):
        assert _observed(stale) == _observed(new), mutant.fault.describe()


def test_golden_is_remade_after_an_in_place_patch(patched_lowering):
    netlist, engine, mutants, golden = _cache_case()
    patched_lowering(netlist)  # snapshot only: the tables are unchanged
    _chunk_matches_full(engine, mutants[:4])
    assert engine._differential.golden is golden

    def slow_first_gate(compiled):
        for table in (compiled.arc_rise, compiled.arc_fall):
            for uid in range(compiled.gate_input_offsets[1]):
                arc = table[uid]
                table[uid] = (arc[0] * 2.0,) + tuple(arc[1:])

    patched_lowering(netlist, slow_first_gate)
    _chunk_matches_full(engine, mutants[:10])
    assert engine._differential.golden not in (None, golden)


def _cone_runs(engine, results):
    runner = engine._differential
    return [result.simulator is runner.cone_kernel for result in results]


def test_small_chunks_record_only_enough_mutants():
    """A chunk with fewer mutants of a base stimulus than pay for a
    recording takes full runs, unless the record already exists."""
    netlist, stimulus, faults = _campaign("mult4")
    mutants = [FaultedStimulus(stimulus, fault) for fault in faults]
    engine = make_engine(netlist, config=ddm_config(), engine_kind="compiled")
    few = mutants[:MIN_MUTANTS_TO_RECORD - 1]
    assert not any(_cone_runs(engine, _chunk_matches_full(engine, few)))
    assert engine._differential.golden is None
    enough = mutants[:MIN_MUTANTS_TO_RECORD]
    assert all(_cone_runs(engine, _chunk_matches_full(engine, enough)))
    golden = engine._differential.golden
    assert golden is not None
    assert all(_cone_runs(engine, _chunk_matches_full(engine, mutants[-1:])))
    assert engine._differential.golden is golden


def test_interleaved_base_stimuli_do_not_re_record():
    """The record is kept while the chunk still needs it; a later chunk
    of another base stimulus replaces it."""
    netlist, first, faults = _campaign("mult4")
    second = random_vectors(
        [net.name for net in netlist.primary_inputs], count=3, period=3.0,
        seed=8, slew=0.3,
    )
    mixed = [
        FaultedStimulus(stimulus, fault)
        for fault in faults[:MIN_MUTANTS_TO_RECORD]
        for stimulus in (first, second)
    ]
    engine = make_engine(netlist, config=ddm_config(), engine_kind="compiled")
    cone = _cone_runs(engine, _chunk_matches_full(engine, mixed))
    assert cone == [True, False] * MIN_MUTANTS_TO_RECORD
    golden = engine._differential.golden
    again = [FaultedStimulus(second, fault)
             for fault in faults[:MIN_MUTANTS_TO_RECORD]]
    assert all(_cone_runs(engine, _chunk_matches_full(engine, again)))
    assert engine._differential.golden not in (None, golden)


def test_reference_engine_takes_full_runs(c17):
    netlist, stimulus, faults = _campaign("c17")
    mutants = [FaultedStimulus(stimulus, fault) for fault in faults]
    engine = make_engine(netlist, config=ddm_config(), engine_kind="reference")
    results = _chunk_matches_full(engine, mutants)
    assert all(result.simulator is engine for result in results)


@pytest.mark.parametrize("case", ["record_filtered", "seed", "cyclic"])
def test_fallbacks_take_full_runs(case):
    if case == "cyclic":
        netlist = modules.rs_latch()
        stimulus = random_vectors(["s_n", "r_n"], count=4, period=3.0,
                                  seed=2)
        faults = [FaultSpec(kind, "q") for kind in FaultKind
                  if kind is not FaultKind.SET_PULSE]
        kwargs = {}
        config = ddm_config()
    else:
        netlist, stimulus, faults = _campaign("c17")
        config = ddm_config(record_filtered=case == "record_filtered")
        kwargs = {"seed": {}} if case == "seed" else {}
    mutants = [FaultedStimulus(stimulus, fault) for fault in faults]
    engine = make_engine(netlist, config=config, engine_kind="compiled")
    results = _chunk_matches_full(engine, mutants, **kwargs)
    assert all(result.simulator is engine for result in results)


def test_gates_built_before_their_drivers_take_full_runs():
    """Exact cone runs need pin uids to grow along every path.  Here
    ``y = NAND2(n, a)`` is built before ``n = INV(a)``.  ``a``'s fall
    reaches both pins at 1.26 ns: ``y``'s pin ``a`` runs, then the
    inverter's, whose degraded rise is late, clamped onto ``y``'s pin
    ``n`` (the lowest uid) at that same instant.  The full run executes
    it last; a cone run preloads it, would execute it first, and ``y``
    would toggle four times instead of twice.  Such a netlist takes
    full runs."""
    builder = CircuitBuilder(name="drivers_last")
    a = builder.input("a")
    n = builder.net("n")
    low = 0.3 * builder.netlist.vdd
    builder.output(builder.gate("NAND2", n, a, output=builder.net("y"),
                                vt_overrides={0: low, 1: low}))
    builder.gate("INV", a, output=n, vt_overrides={0: low})
    netlist = builder.build()
    stimulus = VectorSequence(
        [(0.0, {"a": 0}), (1.0, {"a": 1}), (1.05, {"a": 0})],
        slew=0.3, tail=3.0,
    )
    mutants = [FaultedStimulus(stimulus, FaultSpec(FaultKind.NONE, "y"))]
    engine = make_engine(netlist, config=ddm_config(), engine_kind="compiled")
    results = _chunk_matches_full(engine, mutants * MIN_MUTANTS_TO_RECORD)
    assert results[0].stats.late_events == 1
    assert all(result.simulator is engine for result in results)


def test_lone_faulted_simulate_takes_the_full_run(c17):
    fault = FaultSpec(FaultKind.STUCK_AT_1, "22")
    stimulus = random_vectors([net.name for net in c17.primary_inputs],
                              count=3, period=3.0, seed=1)
    result = simulate(c17, FaultedStimulus(stimulus, fault),
                      config=ddm_config(), engine_kind="compiled")
    assert result.simulator._differential is None


def test_undriven_fault_net_takes_the_full_run(c17):
    netlist, stimulus, _faults = _campaign("c17")
    pi = netlist.primary_inputs[0].name
    mutants = [FaultedStimulus(stimulus, FaultSpec(FaultKind.NONE, pi))]
    engine = make_engine(netlist, config=ddm_config(), engine_kind="compiled")
    results = _chunk_matches_full(engine, mutants)
    assert results[0].simulator is engine


def test_event_budget_surfaces_the_full_runs_error():
    """With the budget at the golden run's event count, a mutant that
    needs more events fails exactly like its full run; the others keep
    their cone results."""
    netlist, stimulus, faults = _campaign("mult4")
    golden = simulate(netlist, stimulus, config=ddm_config(),
                      engine_kind="compiled", settle=0.0)
    config = ddm_config(max_events=golden.stats.events_executed)
    engine = make_engine(netlist, config=config, engine_kind="compiled")
    full = make_engine(netlist, config=config, engine_kind="compiled")
    with contextlib.suppress(SimulationLimitError):
        list(run_chunk(engine, [FaultedStimulus(stimulus, fault)
                                for fault in faults]))
    assert engine._differential.golden is not None  # records the budget
    outcomes = {"error": 0, "cone": 0}
    for fault in faults:
        mutant = FaultedStimulus(stimulus, fault)
        try:
            expected = _observed(run_stimulus(full, mutant))
        except SimulationLimitError as error:
            with pytest.raises(SimulationLimitError) as caught:
                list(run_chunk(engine, [mutant]))
            assert str(caught.value) == str(error)
            outcomes["error"] += 1
            continue
        (result,) = run_chunk(engine, [mutant])
        assert _observed(result) == expected, fault.describe()
        if result.simulator is engine._differential.cone_kernel:
            outcomes["cone"] += 1
    assert outcomes["error"] and outcomes["cone"], outcomes


def test_failed_golden_run_falls_back_to_full_runs():
    netlist, stimulus, faults = _campaign("c17")
    engine = make_engine(netlist, config=ddm_config(max_events=3),
                         engine_kind="compiled")
    mutant = FaultedStimulus(stimulus, faults[0])
    with pytest.raises(SimulationLimitError):
        run_stimulus(engine, mutant)
    with pytest.raises(SimulationLimitError):
        list(run_chunk(engine, [mutant] * MIN_MUTANTS_TO_RECORD))
    assert engine._differential.golden is None
