"""The kept ``"vector"`` engine name: the compiled path, bit for bit.

``engine_kind="vector"`` once named a numpy N-lane lockstep kernel.
That kernel is deleted (it gave the compiled engine's bits at no better
cost); the name is kept, as an alias of ``"compiled"``, until the
benchmark's ``alt.vector`` probe goes.  Everything run under it —
``simulate()``, ``simulate_batch`` in process and on a worker pool,
fault campaigns — must be the compiled path: identical statistics,
final values, edges and raw transition streams.

The checks run on the randomized circuit zoo of ``test_backend_parity``
under both delay modes and both inertial policies.  Batch tests whose
names say "lockstep" predate the kernel's deletion; they now pin
N-vector batches under the kept name against standalone runs.
"""

from __future__ import annotations

import pytest

from repro.config import InertialPolicy, cdm_config, ddm_config
from repro.core.batch import simulate_batch
from repro.core.compiled import CompiledSimulator, VectorSimulator
from repro.core.engine import ENGINE_KINDS, make_engine, run_stimulus, simulate
from repro.errors import SimulationLimitError
from repro.faults.campaign import run_campaign
from repro.faults.faultload import generate_faultload
from repro.stimuli.patterns import random_vector_batch
from repro.stimuli.vectors import (
    PAPER_SEQUENCE_1,
    PAPER_SEQUENCE_2,
    multiplication_sequence,
)

from test_backend_parity import (
    CASES as _BACKEND_CASES,
    assert_results_bit_identical,
    random_netlist,
    random_stimulus,
)

#: The first 25 circuits of the backend-parity zoo.
CASES = _BACKEND_CASES[:25]


def assert_vector_parity(netlist, stimulus, config):
    """simulate(engine_kind="vector") ≡ reference, logs included, and a
    one-vector batch under the name ≡ reference."""
    reference = simulate(netlist, stimulus, config=config,
                         engine_kind="reference")
    vector = simulate(netlist, stimulus, config=config, engine_kind="vector")
    assert_results_bit_identical(reference, vector, netlist)
    assert (
        reference.simulator.filtered_log == vector.simulator.filtered_log
    )
    (lane,) = simulate_batch(netlist, [stimulus], config=config,
                             engine_kind="vector")
    assert_results_bit_identical(reference, lane, netlist,
                                 context="one-vector batch")
    return reference, vector


def assert_batch_matches_standalone(netlist, stimuli, config, engine_kind,
                                    **run_args):
    """Every result of a ``vector`` batch ≡ its standalone run on
    ``engine_kind``."""
    batch = simulate_batch(netlist, stimuli, config=config,
                           engine_kind="vector", **run_args)
    assert batch.engine_kind == "vector"
    for position, stimulus in enumerate(stimuli):
        standalone = simulate(netlist, stimulus, config=config,
                              engine_kind=engine_kind, **run_args)
        assert_results_bit_identical(
            standalone, batch[position], netlist,
            context="vector %d" % position,
        )
    return batch


# ----------------------------------------------------------------------
# the kept name is the compiled path
# ----------------------------------------------------------------------

def test_vector_name_runs_the_compiled_path(mult4):
    """``simulate``, ``simulate_batch`` (jobs=1 and jobs=2) and a mult4
    campaign under ``"vector"`` are bit-identical to ``"compiled"``."""
    assert ENGINE_KINDS["vector"] is VectorSimulator
    assert VectorSimulator.__bases__ == (CompiledSimulator,)
    assert not VectorSimulator.lockstep_batches
    config = ddm_config(record_filtered=True)
    stimulus = multiplication_sequence(PAPER_SEQUENCE_1)
    compiled = simulate(mult4, stimulus, config=config,
                        engine_kind="compiled")
    vector = simulate(mult4, stimulus, config=config, engine_kind="vector")
    assert_results_bit_identical(compiled, vector, mult4)
    assert compiled.simulator.filtered_log == vector.simulator.filtered_log

    input_names = [net.name for net in mult4.primary_inputs]
    stimuli = random_vector_batch(
        input_names, batch=6, count=2, period=2.5, base_seed=13
    )
    expected = simulate_batch(mult4, stimuli, config=config,
                              engine_kind="compiled")
    for jobs in (1, 2):
        batch = simulate_batch(mult4, stimuli, config=config,
                               engine_kind="vector", jobs=jobs)
        assert batch.jobs == jobs
        for position in range(len(stimuli)):
            assert_results_bit_identical(
                expected[position], batch[position], mult4,
                context="jobs=%d vector %d" % (jobs, position),
            )

    faultload = generate_faultload(
        mult4, 10, seed=3, window=(0.0, stimulus.horizon)
    )
    campaign = ddm_config()
    report = run_campaign(mult4, faultload, stimulus, config=campaign,
                          engine_kind="vector")
    golden = run_campaign(mult4, faultload, stimulus, config=campaign,
                          engine_kind="compiled")
    assert report.engine_kind == "vector"
    assert report.counts() == golden.counts()
    assert [outcome.to_dict() for outcome in report.outcomes] == [
        outcome.to_dict() for outcome in golden.outcomes
    ]


# ----------------------------------------------------------------------
# single-stimulus parity
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
    predates the removal of the sorted list queue)."""
    stimulus = multiplication_sequence(PAPER_SEQUENCE_2)
    assert_vector_parity(mult4, stimulus, ddm_config())


# ----------------------------------------------------------------------
# batches under the kept name
# ----------------------------------------------------------------------

def _zoo_batch(case):
    seed, num_inputs, num_gates, vectors = case
    netlist = random_netlist(seed, num_inputs, num_gates)
    input_names = [net.name for net in netlist.primary_inputs]
    stimuli = [
        random_stimulus(seed * 31 + k, input_names, vectors)
        for k in range(10)
    ]
    return netlist, stimuli


@pytest.mark.parametrize("case", CASES[:10], ids=lambda c: "seed%d" % c[0])
@pytest.mark.parametrize("mode", ["ddm", "cdm"])
def test_random_circuit_lockstep_parity(case, mode):
    """Every vector of a 10-vector batch ≡ its standalone reference run."""
    netlist, stimuli = _zoo_batch(case)
    config = (
        ddm_config(record_filtered=True)
        if mode == "ddm"
        else cdm_config(record_filtered=True)
    )
    assert_batch_matches_standalone(netlist, stimuli, config, "reference")


def test_wide_lockstep_batch_crosses_scalar_cutoff(mult4):
    """A 24-vector multiplier batch ≡ the compiled engine bit for bit
    (the name recalls the deleted lane kernel's scalar-wave cutoff)."""
    input_names = [net.name for net in mult4.primary_inputs]
    stimuli = random_vector_batch(
        input_names, batch=24, count=2, period=2.0, base_seed=5, tail=3.0
    )
    assert_batch_matches_standalone(mult4, stimuli, ddm_config(), "compiled")


@pytest.mark.parametrize("case", CASES[:10], ids=lambda c: "seed%d" % c[0])
@pytest.mark.parametrize("mode", ["ddm", "cdm"])
def test_peak_voltage_lockstep_parity(case, mode):
    """PEAK_VOLTAGE through a 10-vector batch: every vector ≡ its
    reference run.  Under CDM several circuits keep a pulse whose peak
    passes the threshold, so the corrected-time branch runs too."""
    netlist, stimuli = _zoo_batch(case)
    config = (ddm_config if mode == "ddm" else cdm_config)(
        inertial_policy=InertialPolicy.PEAK_VOLTAGE
    )
    assert_batch_matches_standalone(netlist, stimuli, config, "reference")


@pytest.mark.parametrize("mode", ["ddm", "cdm"])
def test_wide_peak_voltage_lockstep_batch(mult4, mode):
    """The 24-vector multiplier batch under PEAK_VOLTAGE ≡ compiled,
    with pulses actually filtered."""
    input_names = [net.name for net in mult4.primary_inputs]
    stimuli = random_vector_batch(
        input_names, batch=24, count=2, period=2.0, base_seed=5, tail=3.0
    )
    config = (ddm_config if mode == "ddm" else cdm_config)(
        inertial_policy=InertialPolicy.PEAK_VOLTAGE
    )
    batch = assert_batch_matches_standalone(mult4, stimuli, config,
                                            "compiled")
    assert batch.aggregate_stats().events_filtered > 0


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
            context="vector %d" % position,
        )


def test_lockstep_batch_with_seed_and_settle(mult4):
    """seed/settle knobs flow through a batch under the name unchanged."""
    input_names = [net.name for net in mult4.primary_inputs]
    stimuli = random_vector_batch(
        input_names, batch=3, count=2, period=2.5, base_seed=21
    )
    assert_batch_matches_standalone(mult4, stimuli, ddm_config(),
                                    "reference", settle=4.0)


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
    """Batches take no event-queue option any more."""
    stimuli = [multiplication_sequence(PAPER_SEQUENCE_1)]
    with pytest.raises(TypeError):
        simulate_batch(
            mult4, stimuli, config=ddm_config(), engine_kind="vector",
            queue_kind="heap",
        )


def test_vector_engine_reuse_across_stimuli(mult4):
    """One engine under the name re-initialised per stimulus (the
    service worker pattern) resets all state."""
    engine = make_engine(mult4, config=ddm_config(), engine_kind="vector")
    first = run_stimulus(engine, multiplication_sequence(PAPER_SEQUENCE_1))
    second = run_stimulus(engine, multiplication_sequence(PAPER_SEQUENCE_2))
    again = run_stimulus(engine, multiplication_sequence(PAPER_SEQUENCE_1))
    assert first.stats.events_executed == again.stats.events_executed
    assert first.final_values == again.final_values
    assert second.stats.events_executed != first.stats.events_executed
