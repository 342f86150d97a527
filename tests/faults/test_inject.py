"""Injection semantics and the injection -> restore round-trip property."""

from __future__ import annotations

import math
import pickle

import pytest
from hypothesis import given, settings

from repro.circuit import modules
from repro.config import SimulationConfig, ddm_config
from repro.core.engine import ENGINE_KINDS, make_engine, run_stimulus, simulate
from repro.errors import FaultError
from repro.faults.faultload import FaultKind, FaultSpec, generate_faultload
from repro.faults.inject import (
    _FINGERPRINT_FIELDS,
    FaultedStimulus,
    FaultInjection,
    lowering_fingerprint,
)
from repro.stimuli.patterns import random_vectors
from repro.stimuli.vectors import VectorSequence

from test_properties import circuit_params, random_netlist, random_stimulus

ALL_KINDS = sorted(ENGINE_KINDS)
EXACT_KINDS = ("reference", "compiled", "vector")


def _config():
    return SimulationConfig(record_traces=True)


def _any_gate_net(netlist):
    return next(iter(netlist.gates.values())).output.name


# ----------------------------------------------------------------------
# the round-trip property (satellite a)
# ----------------------------------------------------------------------

@settings(max_examples=20, deadline=None)
@given(params=circuit_params)
def test_faulted_run_leaves_the_lowering_bit_identical(params):
    """For every fault kind, running a faulted stimulus through the
    compiled engine leaves every lowering list bit-identical — the
    restoration guarantee the whole shared-netlist campaign design
    rests on."""
    seed, num_inputs, num_gates, vectors = params
    netlist = random_netlist(seed, num_inputs, num_gates)
    input_names = [net.name for net in netlist.primary_inputs]
    stimulus = random_stimulus(seed, input_names, vectors)
    faultload = generate_faultload(
        netlist, len(FaultKind), seed=seed,
        kinds=tuple(FaultKind), window=(0.0, stimulus.horizon),
    )
    before = lowering_fingerprint(netlist)
    for fault in faultload.faults:
        simulate(
            netlist, FaultedStimulus(stimulus, fault),
            config=_config(), engine_kind="compiled",
        )
        assert lowering_fingerprint(netlist) == before, fault.describe()


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_round_trip_holds_on_every_engine(kind, c17):
    stimulus = VectorSequence(
        [(0.0, {name.name: 0 for name in c17.primary_inputs}),
         (4.0, {name.name: 1 for name in c17.primary_inputs})],
        slew=0.2, tail=6.0,
    )
    faultload = generate_faultload(
        c17, 10, seed=7, window=(0.0, stimulus.horizon)
    )
    before = lowering_fingerprint(c17)
    raw_cells = {name: gate.cell for name, gate in c17.gates.items()}
    for fault in faultload.faults:
        simulate(
            c17, FaultedStimulus(stimulus, fault),
            config=_config(), engine_kind=kind,
        )
    assert lowering_fingerprint(c17) == before
    # the raw cells are restored by identity, not just by value
    for name, cell in raw_cells.items():
        assert c17.gates[name].cell is cell


def test_restore_runs_even_when_the_engine_raises(c17):
    """A crash mid-run must not leak the patch (restore is in a
    ``finally``): poison the stimulus after init so the run itself
    raises, then check the fingerprint."""
    before = lowering_fingerprint(c17)
    fault = FaultSpec(kind=FaultKind.STUCK_AT_1, net=_any_gate_net(c17))

    class Exploding(VectorSequence):
        def iter_changes(self):
            raise RuntimeError("boom")

    stimulus = Exploding(
        [(0.0, {name.name: 0 for name in c17.primary_inputs})],
        slew=0.2, tail=4.0,
    )
    with pytest.raises(RuntimeError, match="boom"):
        simulate(
            c17, FaultedStimulus(stimulus, fault),
            config=_config(), engine_kind="compiled",
        )
    assert lowering_fingerprint(c17) == before


def test_a_pickled_lowering_keeps_its_fingerprint(mult4):
    before = lowering_fingerprint(mult4)
    clone = pickle.loads(pickle.dumps(mult4))
    assert clone.compile() is not mult4.compile()
    assert lowering_fingerprint(clone) == before


def _nudged(value):
    """``value`` changed as little as its type allows."""
    if value is None:
        return 0
    if isinstance(value, float):
        return math.nextafter(value, math.inf)
    if isinstance(value, tuple):  # a delay arc: one ulp on its delay
        return (math.nextafter(value[0], math.inf), *value[1:])
    if isinstance(value, list):  # a truth table: one flipped row
        return [1 - value[0], *value[1:]]
    return value + 1


@pytest.mark.parametrize("field", _FINGERPRINT_FIELDS)
def test_the_fingerprint_sees_one_entry_of_every_field(
    field, c17, patched_lowering
):
    """Index lists, ``vt_fraction``/``net_load``, ``net_constant``,
    ``gate_tables`` and the arcs: one changed entry (one ulp for a
    float) changes the hash."""
    before = lowering_fingerprint(c17)

    def mutate(compiled):
        values = getattr(compiled, field)
        values[0] = _nudged(values[0])

    patched_lowering(c17, mutate)
    assert lowering_fingerprint(c17) != before


# ----------------------------------------------------------------------
# fault semantics, per kind
# ----------------------------------------------------------------------

def _step(netlist, bits):
    values = {net.name: bits for net in netlist.primary_inputs}
    flipped = {net.name: 1 - bits for net in netlist.primary_inputs}
    return VectorSequence(
        [(0.0, values), (4.0, flipped)], slew=0.2, tail=6.0
    )


@pytest.mark.parametrize("kind,expected", [
    (FaultKind.STUCK_AT_0, 0),
    (FaultKind.STUCK_AT_1, 1),
])
@pytest.mark.parametrize("engine", ALL_KINDS)
def test_stuck_at_pins_the_faulted_net(kind, expected, engine, c17):
    net = _any_gate_net(c17)
    fault = FaultSpec(kind=kind, net=net)
    for bits in (0, 1):
        result = simulate(
            c17, FaultedStimulus(_step(c17, bits), fault),
            config=_config(), engine_kind=engine,
        )
        assert result.final_values[net] == expected


@pytest.mark.parametrize("engine", ALL_KINDS)
def test_bit_flip_complements_the_driving_function(engine, c17):
    net = _any_gate_net(c17)
    fault = FaultSpec(kind=FaultKind.BIT_FLIP, net=net)
    for bits in (0, 1):
        stimulus = _step(c17, bits)
        golden = simulate(
            c17, stimulus, config=_config(), engine_kind=engine
        )
        mutant = simulate(
            c17, FaultedStimulus(stimulus, fault),
            config=_config(), engine_kind=engine,
        )
        assert mutant.final_values[net] == 1 - golden.final_values[net]


@pytest.mark.parametrize("engine", ALL_KINDS)
def test_delay_drift_keeps_final_values(engine, c17):
    """Drift scales timing, not logic: once settled, the mutant's final
    word equals the golden word on every engine."""
    net = _any_gate_net(c17)
    fault = FaultSpec(kind=FaultKind.DELAY_DRIFT, net=net, factor=3.0)
    stimulus = _step(c17, 0)
    golden = simulate(c17, stimulus, config=_config(), engine_kind=engine)
    mutant = simulate(
        c17, FaultedStimulus(stimulus, fault),
        config=_config(), engine_kind=engine,
    )
    assert mutant.final_values == golden.final_values


@pytest.mark.parametrize("engine", ALL_KINDS)
def test_wide_set_pulse_propagates_to_the_outputs(engine):
    """A pulse much wider than the gate delays survives the inertial
    filter and reaches the chain outputs on every engine."""
    netlist = modules.inverter_chain(4)
    stimulus = VectorSequence([(0.0, {"in": 0})], slew=0.2, tail=10.0)
    fault = FaultSpec(
        kind=FaultKind.SET_PULSE, net="out1", time=4.0, width=2.0
    )
    golden = simulate(netlist, stimulus, config=_config(), engine_kind=engine)
    mutant = simulate(
        netlist, FaultedStimulus(stimulus, fault),
        config=_config(), engine_kind=engine,
    )
    assert golden.traces["out4"].edges() == []
    assert mutant.traces["out4"].edges() != []
    # transient: the final settled word is untouched
    assert mutant.final_values == golden.final_values


@pytest.mark.parametrize("engine", EXACT_KINDS)
def test_narrow_set_pulse_is_absorbed_by_the_inertial_filter(engine):
    """A pulse far narrower than the gate delay dies in the filter on
    the exact-timing engines (the word-parallel engine quantises pulse
    survival differently and is covered by the end-verdict suite)."""
    netlist = modules.inverter_chain(4)
    stimulus = VectorSequence([(0.0, {"in": 0})], slew=0.2, tail=10.0)
    fault = FaultSpec(
        kind=FaultKind.SET_PULSE, net="out1", time=4.0, width=0.01
    )
    mutant = simulate(
        netlist, FaultedStimulus(stimulus, fault),
        config=_config(), engine_kind=engine,
    )
    assert mutant.traces["out4"].edges() == []
    filtered = (
        mutant.stats.events_filtered
        + mutant.stats.transitions_fully_degraded
    )
    assert filtered > 0  # absorbed, not absent


# ----------------------------------------------------------------------
# error paths and lifecycle guards
# ----------------------------------------------------------------------

def test_injection_rejects_primary_inputs(c17):
    name = c17.primary_inputs[0].name
    fault = FaultSpec(kind=FaultKind.STUCK_AT_0, net=name)
    with pytest.raises(FaultError, match="no gate to corrupt"):
        FaultInjection(c17, fault).apply()


def test_injection_rejects_unknown_nets(c17):
    fault = FaultSpec(kind=FaultKind.STUCK_AT_0, net="missing")
    with pytest.raises(FaultError, match="unknown net"):
        FaultInjection(c17, fault).apply()


def test_double_apply_is_rejected(c17):
    fault = FaultSpec(kind=FaultKind.STUCK_AT_0, net=_any_gate_net(c17))
    injection = FaultInjection(c17, fault)
    with injection, pytest.raises(FaultError, match="already applied"):
        injection.apply()
    assert not injection.applied


def test_context_manager_round_trips(c17):
    before = lowering_fingerprint(c17)
    fault = FaultSpec(kind=FaultKind.BIT_FLIP, net=_any_gate_net(c17))
    with FaultInjection(c17, fault):
        assert lowering_fingerprint(c17) != before
    assert lowering_fingerprint(c17) == before


def test_engine_built_before_invalidate_lowering_runs_the_fault():
    """Injection patches ``netlist.compile()``'s current lowering; an
    engine built before ``invalidate_lowering()`` runs on that lowering
    too, so its faulted run is not silently fault-free."""
    netlist = modules.array_multiplier(4)
    stimulus = random_vectors(
        [net.name for net in netlist.primary_inputs], count=6, period=3.0,
        seed=3,
    )
    engine = make_engine(netlist, config=ddm_config(), engine_kind="compiled")
    golden = run_stimulus(engine, stimulus)
    netlist.invalidate_lowering()
    mutant = FaultedStimulus(stimulus, FaultSpec(FaultKind.BIT_FLIP, "s0"))
    stale = run_stimulus(engine, mutant)
    fresh = run_stimulus(
        make_engine(netlist, config=ddm_config(), engine_kind="compiled"),
        mutant,
    )
    assert fresh.final_values != golden.final_values  # the fault shows
    assert stale.final_values == fresh.final_values
    assert stale.stats.net_toggles == fresh.stats.net_toggles
    assert stale.stats.events_executed == fresh.stats.events_executed
