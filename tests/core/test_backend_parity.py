"""Reference vs compiled backend parity on randomized circuits.

The compiled backend is only allowed to be *faster*, never different:
both engines must produce bit-identical event counts, statistics, edge
lists and raw transition streams.  This property is exercised on 50+
random combinational DAGs (deterministic per seed) under both delay
modes, plus the paper's multiplier workload and the PEAK_VOLTAGE
ablation policy.
"""

from __future__ import annotations

import random
from types import SimpleNamespace

import pytest

from repro.circuit.builder import CircuitBuilder
from repro.config import InertialPolicy, cdm_config, ddm_config
from repro.core.compiled import _EXECUTED, E_SEQ, E_STATE, E_TIME
from repro.core.engine import make_engine, simulate
from repro.errors import WaveformError
from repro.experiments import common
from repro.stimuli.vectors import VectorSequence

_CELL_CHOICES = [
    ("INV", 1), ("INV_LT", 1), ("INV_HT", 1),
    ("NAND2", 2), ("NAND3", 3), ("NOR2", 2),
    ("AND2", 2), ("OR2", 2), ("XOR2", 2), ("MUX2", 3),
]

#: (seed, num_inputs, num_gates, vectors) — 50 deterministic circuits
#: spanning 1..6 inputs and up to 24 gates.
CASES = [
    (seed, 1 + seed % 6, 3 + (seed * 7) % 22, 2 + seed % 3)
    for seed in range(50)
]


def random_netlist(seed: int, num_inputs: int, num_gates: int,
                   input_names=None):
    """A connected random combinational DAG (deterministic per seed);
    ``input_names`` renames the primary inputs by position."""
    generator = random.Random(seed)
    builder = CircuitBuilder(name="parity%d" % seed)
    if input_names is None:
        input_names = ["i%d" % k for k in range(num_inputs)]
    nets = [builder.input(name) for name in input_names]
    for index in range(num_gates):
        cell_name, arity = generator.choice(_CELL_CHOICES)
        operands = [generator.choice(nets) for _ in range(arity)]
        nets.append(builder.gate(cell_name, *operands, name="g%d" % index))
    for net in list(builder.netlist.nets.values()):
        if not net.fanouts and not net.is_primary_input:
            builder.output(net)
    for net in list(builder.netlist.primary_inputs):
        if not net.fanouts:
            builder.output(builder.buf(net, name="obs_%s" % net.name))
    return builder.build()


def random_stimulus(seed: int, input_names, vectors: int) -> VectorSequence:
    generator = random.Random(seed ^ 0xC0FFEE)
    steps = []
    for position in range(vectors):
        assignments = {name: generator.randint(0, 1) for name in input_names}
        # Short periods provoke glitches, degradation and annihilation —
        # exactly the paths where the backends could drift apart.
        steps.append((position * 1.5, assignments))
    return VectorSequence(steps, slew=0.25, tail=5.0)


_STATS_FIELDS = (
    "events_executed",
    "events_scheduled",
    "events_filtered",
    "late_events",
    "transitions_emitted",
    "source_transitions",
    "transitions_degraded",
    "transitions_fully_degraded",
    "net_toggles",
)


def assert_results_bit_identical(reference, other, netlist, context=""):
    """Statistics, final values, trace layout, edges and raw transition
    streams of two results are bit-identical."""
    for field in _STATS_FIELDS:
        assert getattr(reference.stats, field) == getattr(
            other.stats, field
        ), "%s: stats.%s differs" % (context, field)
    assert reference.final_values == other.final_values, context
    assert reference.traces.horizon == other.traces.horizon, context
    assert reference.traces.names() == other.traces.names(), context
    for name in netlist.nets:
        ref_trace = reference.traces[name]
        other_trace = other.traces[name]
        assert ref_trace.edges() == other_trace.edges(), (context, name)
        ref_raw = [
            (t.t50, t.duration, t.rising, t.degradation_factor, t.cause_time)
            for t in ref_trace.transitions
        ]
        other_raw = [
            (t.t50, t.duration, t.rising, t.degradation_factor, t.cause_time)
            for t in other_trace.transitions
        ]
        assert ref_raw == other_raw, (context, name)


def assert_parity(netlist, stimulus, config):
    reference = simulate(netlist, stimulus, config=config, engine_kind="reference")
    compiled = simulate(netlist, stimulus, config=config, engine_kind="compiled")
    assert_results_bit_identical(reference, compiled, netlist)
    assert reference.simulator.filtered_log == compiled.simulator.filtered_log
    return reference, compiled


@pytest.mark.parametrize("case", CASES, ids=lambda c: "seed%d" % c[0])
@pytest.mark.parametrize("mode", ["ddm", "cdm"])
def test_random_circuit_parity(case, mode):
    seed, num_inputs, num_gates, vectors = case
    netlist = random_netlist(seed, num_inputs, num_gates)
    input_names = [net.name for net in netlist.primary_inputs]
    stimulus = random_stimulus(seed, input_names, vectors)
    config = (
        ddm_config(record_filtered=True)
        if mode == "ddm"
        else cdm_config(record_filtered=True)
    )
    assert_parity(netlist, stimulus, config)


@pytest.mark.parametrize("mode", ["ddm", "cdm"])
def test_multiplier_paper_sequence_parity(mult4, mode):
    from repro.stimuli.vectors import PAPER_SEQUENCE_1, multiplication_sequence

    stimulus = multiplication_sequence(PAPER_SEQUENCE_1)
    config = ddm_config() if mode == "ddm" else cdm_config()
    reference, _compiled = assert_parity(mult4, stimulus, config)
    assert reference.stats.events_executed > 0
    assert reference.stats.events_filtered > 0 or mode == "cdm"


_TRANSITION_FIELDS = (
    "t50", "duration", "rising", "net_name", "degradation_factor",
    "cause_time",
)


def _transition_fields(trace):
    # repr() keeps the comparison bit-exact: floats print round-trip,
    # and True/1 or 1.0/1 no longer compare equal.
    return [
        tuple(repr(getattr(t, field)) for field in _TRANSITION_FIELDS)
        for t in trace.transitions
    ]


@pytest.mark.parametrize("which", [1, 2], ids=["seq1", "seq2"])
@pytest.mark.parametrize("mode", ["ddm", "cdm"])
def test_multiplier_transitions_built_on_read_match_reference(
    mult4, which, mode
):
    """Compiled traces are recorded as rows and become Transition
    objects on first read; whatever order the nets are read in, they
    equal the reference engine's field by field."""
    stimulus = common.paper_stimulus(which)
    config = ddm_config() if mode == "ddm" else cdm_config()
    reference = simulate(mult4, stimulus, config=config, engine_kind="reference")
    names = list(mult4.nets)
    want = {name: _transition_fields(reference.traces[name]) for name in names}
    assert sum(map(len, want.values())) > 0
    shuffled = list(names)
    random.Random(which).shuffle(shuffled)
    for order in (names, names[::-1], shuffled):
        compiled = simulate(
            mult4, stimulus, config=config, engine_kind="compiled"
        )
        assert compiled.traces.names() == reference.traces.names()
        for name in order:
            assert _transition_fields(compiled.traces[name]) == want[name], name
        # A second read returns the same objects.
        trace = compiled.traces[order[0]]
        assert trace.transitions is trace.transitions
        assert all(
            a is b for a, b in zip(trace.transitions, trace.transitions)
        )


def test_non_positive_duration_raises_at_emission(mult4, patched_lowering):
    """A traced compiled run whose lowering yields a non-positive output
    duration fails at emission, as constructing the Transition did."""

    def negative_duration(compiled):
        for table in (compiled.arc_rise, compiled.arc_fall):
            for uid, params in enumerate(table):
                tp0, d_slew, _tau, _s_slew, tau_deg, t0 = params
                table[uid] = (tp0, d_slew, -0.1, 0.0, tau_deg, t0)

    patched_lowering(mult4, negative_duration)
    engine = make_engine(mult4, config=ddm_config(), engine_kind="compiled")
    engine.initialize({net.name: 0 for net in mult4.primary_inputs})
    engine.set_input("a0", 1, at_time=1.0)
    engine.set_input("b0", 1, at_time=1.0)
    with pytest.raises(WaveformError, match="transition duration must be positive"):
        engine.run()
    assert engine.stats.transitions_emitted == 1
    assert sum(trace.raw_count() for trace in engine.traces) == 2  # sources


def test_peak_voltage_policy_parity():
    netlist = random_netlist(7, 3, 18)
    input_names = [net.name for net in netlist.primary_inputs]
    stimulus = random_stimulus(7, input_names, 3)
    config = ddm_config(inertial_policy=InertialPolicy.PEAK_VOLTAGE)
    assert_parity(netlist, stimulus, config)


def test_queue_kind_parity_cross_backend(mult4):
    """The compiled engine's list-entry heap orders the second paper
    workload exactly like the reference engine's event heap."""
    from repro.stimuli.vectors import PAPER_SEQUENCE_2, multiplication_sequence

    stimulus = multiplication_sequence(PAPER_SEQUENCE_2)
    reference = simulate(
        mult4, stimulus, config=ddm_config(), engine_kind="reference"
    )
    compiled = simulate(
        mult4, stimulus, config=ddm_config(), engine_kind="compiled"
    )
    assert reference.stats.events_executed == compiled.stats.events_executed
    for name in mult4.nets:
        assert reference.traces[name].edges() == compiled.traces[name].edges()


def _step_through(engine, stimulus, settle=0.0):
    """play() with every event executed by ``step()``.

    ``run(until)`` only advances the clock between changes (it must find
    nothing to execute).  Returns the executed entries' times, in order,
    and checks that no entry is ever pushed below the ``now`` it was
    pushed at: after each step and each input word, every entry newer
    than the last one seen lies at or after the engine's time.
    """
    queue = engine.queue
    stats = engine.stats
    times = []
    seen = [engine._seq]

    def check_pushes():
        for entry in queue._heap:
            if entry[E_SEQ] > seen[0]:
                assert entry[E_TIME] >= engine.now, (entry, engine.now)
        seen[0] = engine._seq

    def step_to(bound):
        while True:
            head = queue.peek_time()
            if head is None or (bound is not None and head > bound):
                break
            entry = engine.step()
            assert entry[E_STATE] == _EXECUTED
            times.append(entry[E_TIME])
            check_pushes()
        executed = stats.events_executed
        engine.run(until=bound)
        assert stats.events_executed == executed

    for at_time, assignments, slew in stimulus.iter_changes():
        step_to(at_time)
        engine.apply_word(assignments, at_time, slew)
        check_pushes()
    step_to(stimulus.horizon + settle)
    step_to(None)
    assert engine.step() is None
    return times


@pytest.mark.parametrize("case", CASES, ids=lambda c: "seed%d" % c[0])
@pytest.mark.parametrize("mode", ["ddm", "cdm"])
def test_compiled_step_matches_run_and_keeps_time_monotone(case, mode):
    """Stepping a stimulus event by event on the compiled kernel gives
    run()'s statistics, final values and trace rows bit for bit; the
    executed times never decrease, and nothing is scheduled into the
    past."""
    seed, num_inputs, num_gates, vectors = case
    netlist = random_netlist(seed, num_inputs, num_gates)
    input_names = [net.name for net in netlist.primary_inputs]
    stimulus = random_stimulus(seed, input_names, vectors)
    config = ddm_config() if mode == "ddm" else cdm_config()
    want = simulate(netlist, stimulus, config=config, engine_kind="compiled")

    engine = make_engine(netlist, config=config, engine_kind="compiled")
    engine.initialize(stimulus.initial_values(netlist))
    times = _step_through(engine, stimulus)
    assert times == sorted(times)
    assert len(times) == want.stats.events_executed
    got = SimpleNamespace(
        stats=engine.stats, final_values=engine.values(),
        traces=engine.traces,
    )
    assert_results_bit_identical(want, got, netlist, "seed%d" % seed)
