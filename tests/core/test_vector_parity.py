"""Vector (numpy N-lane) backend parity: vector ≡ reference ≡ compiled.

The vector engine is only allowed to be *faster at scale*, never
different: for every stimulus, every lane of a lockstep batch — and the
single-lane engine behind plain ``simulate()`` — must produce
bit-identical event counts, statistics, edge lists, raw transition
streams and filtered-event logs.  Exercised on the randomized circuit
zoo of ``test_backend_parity`` under both delay modes, both inertial
policies, both queue kinds, and through the batch front end (in-process
lockstep and on a ``jobs > 1`` worker pool).

The two kernel paths — vectorised waves and the thin-wave scalar
fallback — are both covered: lockstep batches over eight-plus lanes run
wide waves, while single-stimulus runs and drain tails take the scalar
path.
"""

from __future__ import annotations

import pytest

numpy = pytest.importorskip("numpy")

from repro.config import InertialPolicy, cdm_config, ddm_config
from repro.core.batch import simulate_batch
from repro.core.engine import simulate
from repro.core.vector import VectorSimulator
from repro.errors import SimulationLimitError
from repro.stimuli.patterns import random_vector_batch
from repro.stimuli.vectors import (
    PAPER_SEQUENCE_1,
    PAPER_SEQUENCE_2,
    multiplication_sequence,
)

from test_backend_parity import (
    _STATS_FIELDS,
    random_netlist,
    random_stimulus,
)

#: (seed, num_inputs, num_gates, vectors) — a 25-circuit slice of the
#: backend-parity zoo (the vector backend re-runs every circuit twice:
#: once per lane of a batch, once standalone).
CASES = [
    (seed, 1 + seed % 6, 3 + (seed * 7) % 22, 2 + seed % 3)
    for seed in range(25)
]


def assert_results_bit_identical(reference, vector, netlist, context=""):
    for field in _STATS_FIELDS:
        assert getattr(reference.stats, field) == getattr(
            vector.stats, field
        ), "%s: stats.%s differs" % (context, field)
    assert reference.final_values == vector.final_values, context
    assert reference.traces.horizon == vector.traces.horizon, context
    assert reference.traces.names() == vector.traces.names(), context
    for name in netlist.nets:
        ref_trace = reference.traces[name]
        vec_trace = vector.traces[name]
        assert ref_trace.edges() == vec_trace.edges(), (context, name)
        ref_raw = [
            (t.t50, t.duration, t.rising, t.degradation_factor, t.cause_time)
            for t in ref_trace.transitions
        ]
        vec_raw = [
            (t.t50, t.duration, t.rising, t.degradation_factor, t.cause_time)
            for t in vec_trace.transitions
        ]
        assert ref_raw == vec_raw, (context, name)


def assert_vector_parity(netlist, stimulus, config):
    """simulate(engine_kind="vector") ≡ reference, logs included."""
    reference = simulate(netlist, stimulus, config=config,
                         engine_kind="reference")
    vector = simulate(netlist, stimulus, config=config, engine_kind="vector")
    assert_results_bit_identical(reference, vector, netlist)
    assert (
        reference.simulator.filtered_log == vector.simulator.filtered_log
    )
    return reference, vector


# ----------------------------------------------------------------------
# single-stimulus parity (the registered EngineBase backend)
# ----------------------------------------------------------------------

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
    assert_vector_parity(netlist, stimulus, config)


@pytest.mark.parametrize("mode", ["ddm", "cdm"])
def test_multiplier_paper_sequence_parity(mult4, mode):
    stimulus = multiplication_sequence(PAPER_SEQUENCE_1)
    config = ddm_config() if mode == "ddm" else cdm_config()
    reference, _vector = assert_vector_parity(mult4, stimulus, config)
    assert reference.stats.events_executed > 0
    assert reference.stats.events_filtered > 0 or mode == "cdm"


def test_peak_voltage_policy_parity():
    netlist = random_netlist(7, 3, 18)
    input_names = [net.name for net in netlist.primary_inputs]
    stimulus = random_stimulus(7, input_names, 3)
    config = ddm_config(inertial_policy=InertialPolicy.PEAK_VOLTAGE)
    assert_vector_parity(netlist, stimulus, config)


def test_sorted_list_queue_parity(mult4):
    """vector == reference on the second paper workload (the name
    predates the removal of the sorted list queue; the per-lane heaps
    are the only queue now)."""
    stimulus = multiplication_sequence(PAPER_SEQUENCE_2)
    reference = simulate(
        mult4, stimulus, config=ddm_config(), engine_kind="reference"
    )
    vector = simulate(
        mult4, stimulus, config=ddm_config(), engine_kind="vector"
    )
    assert_results_bit_identical(reference, vector, mult4)


# ----------------------------------------------------------------------
# lockstep batches (the wide-wave kernel)
# ----------------------------------------------------------------------

@pytest.mark.parametrize("case", CASES[:10], ids=lambda c: "seed%d" % c[0])
@pytest.mark.parametrize("mode", ["ddm", "cdm"])
def test_random_circuit_lockstep_parity(case, mode):
    """Every lane of an N-lane lockstep batch ≡ its standalone run."""
    seed, num_inputs, num_gates, vectors = case
    netlist = random_netlist(seed, num_inputs, num_gates)
    input_names = [net.name for net in netlist.primary_inputs]
    stimuli = [
        random_stimulus(seed * 31 + k, input_names, vectors)
        for k in range(10)
    ]
    config = (
        ddm_config(record_filtered=True)
        if mode == "ddm"
        else cdm_config(record_filtered=True)
    )
    batch = simulate_batch(netlist, stimuli, config=config,
                           engine_kind="vector")
    assert batch.engine_kind == "vector"
    for position, stimulus in enumerate(stimuli):
        reference = simulate(netlist, stimulus, config=config,
                             engine_kind="reference")
        assert batch[position].simulator is None
        assert_results_bit_identical(
            reference, batch[position], netlist,
            context="lane %d" % position,
        )


def test_wide_lockstep_batch_crosses_scalar_cutoff(mult4):
    """A 24-lane multiplier batch drives the vectorised wave path (and
    its thin drain tails the scalar path) — every lane still matches
    the compiled engine bit for bit."""
    input_names = [net.name for net in mult4.primary_inputs]
    stimuli = random_vector_batch(
        input_names, batch=24, count=2, period=2.0, base_seed=5, tail=3.0
    )
    config = ddm_config()
    batch = simulate_batch(mult4, stimuli, config=config,
                           engine_kind="vector")
    for position, stimulus in enumerate(stimuli):
        compiled = simulate(mult4, stimulus, config=config,
                            engine_kind="compiled")
        assert_results_bit_identical(
            compiled, batch[position], mult4, context="lane %d" % position
        )


def test_sharded_lockstep_matches_in_process(mult4):
    input_names = [net.name for net in mult4.primary_inputs]
    stimuli = random_vector_batch(
        input_names, batch=6, count=2, period=2.5, base_seed=13
    )
    in_process = simulate_batch(mult4, stimuli, config=ddm_config(),
                                engine_kind="vector")
    sharded = simulate_batch(mult4, stimuli, config=ddm_config(),
                             engine_kind="vector", jobs=2)
    assert sharded.jobs == 2
    for position in range(len(stimuli)):
        assert_results_bit_identical(
            in_process[position], sharded[position], mult4,
            context="lane %d" % position,
        )


def test_lockstep_batch_with_seed_and_settle(mult4):
    """seed/settle knobs flow through the lockstep driver unchanged."""
    input_names = [net.name for net in mult4.primary_inputs]
    stimuli = random_vector_batch(
        input_names, batch=3, count=2, period=2.5, base_seed=21
    )
    batch = simulate_batch(mult4, stimuli, config=ddm_config(),
                           engine_kind="vector", settle=4.0)
    for position, stimulus in enumerate(stimuli):
        standalone = simulate(mult4, stimulus, config=ddm_config(),
                              engine_kind="reference", settle=4.0)
        assert_results_bit_identical(
            standalone, batch[position], mult4,
            context="lane %d" % position,
        )


# ----------------------------------------------------------------------
# operational behaviour
# ----------------------------------------------------------------------

def test_vector_engine_honors_max_events(mult4):
    stimulus = multiplication_sequence(PAPER_SEQUENCE_1)
    config = ddm_config(max_events=10)
    with pytest.raises(SimulationLimitError) as excinfo:
        simulate(mult4, stimulus, config=config, engine_kind="vector")
    assert "event budget (10)" in str(excinfo.value)


def test_lockstep_batch_honors_max_events(mult4):
    stimuli = [multiplication_sequence(PAPER_SEQUENCE_1)] * 3
    config = ddm_config(max_events=10)
    with pytest.raises(SimulationLimitError):
        simulate_batch(mult4, stimuli, config=config, engine_kind="vector")


def test_vector_rejects_unknown_queue_kind(mult4):
    """The lockstep path takes no event-queue option any more."""
    stimuli = [multiplication_sequence(PAPER_SEQUENCE_1)]
    with pytest.raises(TypeError):
        simulate_batch(
            mult4, stimuli, config=ddm_config(), engine_kind="vector",
            queue_kind="heap",
        )
    with pytest.raises(TypeError):
        VectorSimulator.run_lockstep_batch(
            mult4, stimuli, config=ddm_config(), queue_kind="heap"
        )


def test_vector_engine_reuse_across_stimuli(mult4):
    """One VectorSimulator re-initialised per stimulus (the service
    worker pattern) resets all lane state."""
    from repro.core.engine import make_engine, run_stimulus

    engine = make_engine(mult4, config=ddm_config(), engine_kind="vector")
    first = run_stimulus(engine, multiplication_sequence(PAPER_SEQUENCE_1))
    second = run_stimulus(engine, multiplication_sequence(PAPER_SEQUENCE_2))
    again = run_stimulus(engine, multiplication_sequence(PAPER_SEQUENCE_1))
    assert first.stats.events_executed == again.stats.events_executed
    assert first.final_values == again.final_values
    assert second.stats.events_executed != first.stats.events_executed
