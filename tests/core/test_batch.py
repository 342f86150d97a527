"""Batched multi-vector simulation: parity, worker pools, aggregation.

The contract of :func:`repro.core.batch.simulate_batch` is that batching
is *free* in accuracy terms: vector ``i`` of a batch is bit-identical —
traces, raw transition streams, final values and every statistics
counter except wall-clock — to a standalone ``simulate()`` of the same
stimulus.  This holds for both delay modes, both engine backends, on
randomized circuits, and across the ``jobs > 1`` worker-pool path.
"""

from __future__ import annotations

import pickle

import pytest

from repro.config import DelayMode, cdm_config, ddm_config
from repro.core.batch import BatchResult, simulate_batch
from repro.core.engine import simulate
from repro.errors import SimulationError
from repro.experiments import common
from repro.stimuli.patterns import random_vector_batch, random_vectors
from repro.stimuli.vectors import PAPER_SEQUENCE_1, multiplication_sequence

from test_backend_parity import random_netlist, random_stimulus

#: Counters that must match bit-for-bit (runtime_seconds is wall-clock
#: and legitimately differs between batched and standalone runs).
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


def assert_batch_matches_standalone(netlist, stimuli, config, engine_kind,
                                    **batch_kwargs):
    batch = simulate_batch(
        netlist, stimuli, config=config, engine_kind=engine_kind,
        **batch_kwargs
    )
    assert len(batch) == len(stimuli)
    for position, stimulus in enumerate(stimuli):
        standalone = simulate(
            netlist, stimulus, config=config, engine_kind=engine_kind
        )
        batched = batch[position]
        for field in _STATS_FIELDS:
            assert getattr(batched.stats, field) == getattr(
                standalone.stats, field
            ), "vector %d: stats.%s differs" % (position, field)
        assert batched.final_values == standalone.final_values, position
        for name in netlist.nets:
            assert (
                batched.traces[name].edges() == standalone.traces[name].edges()
            ), (position, name)
            batched_raw = [
                (t.t50, t.duration, t.rising, t.degradation_factor, t.cause_time)
                for t in batched.traces[name].transitions
            ]
            standalone_raw = [
                (t.t50, t.duration, t.rising, t.degradation_factor, t.cause_time)
                for t in standalone.traces[name].transitions
            ]
            assert batched_raw == standalone_raw, (position, name)
    return batch


# ----------------------------------------------------------------------
# parity
# ----------------------------------------------------------------------

@pytest.mark.parametrize("engine_kind", ["reference", "compiled", "vector"])
@pytest.mark.parametrize("mode", ["ddm", "cdm"])
def test_paper_multiplier_batch_parity(mult4, mode, engine_kind):
    config = ddm_config() if mode == "ddm" else cdm_config()
    stimuli = common.paper_stimulus_batch()
    assert_batch_matches_standalone(mult4, stimuli, config, engine_kind)


#: A slice of the backend-parity circuit zoo, reused for batch parity.
_RANDOM_CASES = [(seed, 1 + seed % 6, 3 + (seed * 7) % 22) for seed in range(12)]


@pytest.mark.parametrize("case", _RANDOM_CASES, ids=lambda c: "seed%d" % c[0])
@pytest.mark.parametrize("mode", ["ddm", "cdm"])
def test_random_circuit_batch_parity(case, mode):
    seed, num_inputs, num_gates = case
    netlist = random_netlist(seed, num_inputs, num_gates)
    input_names = [net.name for net in netlist.primary_inputs]
    stimuli = [
        random_stimulus(seed * 31 + k, input_names, vectors=2 + k % 3)
        for k in range(3)
    ]
    config = ddm_config() if mode == "ddm" else cdm_config()
    assert_batch_matches_standalone(netlist, stimuli, config, "compiled")


def test_batch_reuses_one_engine(mult4):
    """In-process batches run every vector on a single engine."""
    stimuli = common.paper_stimulus_batch()
    batch = simulate_batch(mult4, stimuli, config=ddm_config(),
                           engine_kind="compiled")
    simulators = {id(result.simulator) for result in batch}
    assert len(simulators) == 1
    assert batch[0].simulator is batch[1].simulator
    # ... but every result owns its statistics and traces.
    assert batch[0].stats is not batch[1].stats
    assert batch[0].traces is not batch[1].traces


@pytest.mark.parametrize(
    "engine_kind,jobs",
    [("compiled", 1), ("vector", 1), ("bitparallel", 1), ("compiled", 2)],
)
def test_batch_matches_run_halotis(engine_kind, jobs):
    """A batch of both paper sequences equals ``run_halotis`` of each
    under each engine's own contract: the exact-timing engines match
    event for event, bitparallel (word timing) on final values and
    settled words only."""
    for mode in (DelayMode.DDM, DelayMode.CDM):
        batch = simulate_batch(
            common.multiplier_netlist(), common.paper_stimulus_batch(),
            config=ddm_config() if mode is DelayMode.DDM else cdm_config(),
            engine_kind=engine_kind, jobs=jobs,
        )
        assert (batch.engine_kind, batch.jobs) == (engine_kind, jobs)
        for which in (1, 2):
            single = common.run_halotis(which, mode, engine_kind="reference")
            result = batch[which - 1]
            if engine_kind != "bitparallel":
                assert result.stats.events_executed == (
                    single.stats.events_executed
                )
            assert result.final_values == single.final_values
            assert common.settled_words_logic(result, which) == (
                common.expected_words(which)
            )


# ----------------------------------------------------------------------
# jobs > 1: an ephemeral worker pool
# ----------------------------------------------------------------------

def test_sharded_batch_matches_in_process(mult4):
    input_names = [net.name for net in mult4.primary_inputs]
    stimuli = random_vector_batch(
        input_names, batch=5, count=2, period=3.0, base_seed=11
    )
    in_process = simulate_batch(
        mult4, stimuli, config=ddm_config(), engine_kind="compiled", jobs=1
    )
    sharded = simulate_batch(
        mult4, stimuli, config=ddm_config(), engine_kind="compiled", jobs=2
    )
    assert sharded.jobs == 2
    for position in range(len(stimuli)):
        assert sharded[position].simulator is None
        for field in _STATS_FIELDS:
            assert getattr(sharded[position].stats, field) == getattr(
                in_process[position].stats, field
            )
        assert (
            sharded[position].final_values == in_process[position].final_values
        )
        for name in mult4.nets:
            assert (
                sharded[position].traces[name].edges()
                == in_process[position].traces[name].edges()
            )


def test_netlist_pickles_flat_and_preserves_structure(mult4):
    """The worker-pool substrate: large netlists cross process boundaries."""
    clone = pickle.loads(pickle.dumps(mult4))
    assert list(clone.nets) == list(mult4.nets)
    assert list(clone.gates) == list(mult4.gates)
    assert [net.index for net in clone.nets.values()] == [
        net.index for net in mult4.nets.values()
    ]
    assert [gi.uid for gi in clone.iter_gate_inputs()] == [
        gi.uid for gi in mult4.iter_gate_inputs()
    ]
    assert [net.name for net in clone.primary_outputs] == [
        net.name for net in mult4.primary_outputs
    ]
    # pin-instance overrides survive
    assert [gi.vt for gi in clone.iter_gate_inputs()] == [
        gi.vt for gi in mult4.iter_gate_inputs()
    ]
    # copy.copy must not steal the original's lowering via the shared
    # reduce-state dict: the clone starts cold, the original stays warm
    import copy

    mult4.compile()
    shallow = copy.copy(mult4)
    assert mult4.compile().netlist is mult4
    assert shallow._compiled_cache is None
    assert shallow.compile().netlist is shallow

    # a warm lowering travels with the snapshot (no re-lowering)
    lowering = mult4.compile()
    warm = pickle.loads(pickle.dumps(mult4))
    assert warm._compiled_cache is not None
    transported = warm.compile()
    assert transported.netlist is warm
    assert transported.net_names == lowering.net_names
    assert list(transported.vt_fraction) == list(lowering.vt_fraction)
    assert list(transported.fanout_targets) == list(lowering.fanout_targets)
    stimulus = multiplication_sequence(PAPER_SEQUENCE_1)
    original = simulate(mult4, stimulus, config=ddm_config(),
                        engine_kind="compiled")
    rebuilt = simulate(warm, stimulus, config=ddm_config(),
                       engine_kind="compiled")
    assert original.final_values == rebuilt.final_values
    assert original.stats.events_executed == rebuilt.stats.events_executed


# ----------------------------------------------------------------------
# BatchResult surface
# ----------------------------------------------------------------------

def test_aggregate_stats_sums_counters(c17):
    input_names = [net.name for net in c17.primary_inputs]
    stimuli = random_vector_batch(
        input_names, batch=3, count=4, period=2.0, base_seed=5
    )
    batch = simulate_batch(c17, stimuli, config=ddm_config())
    aggregate = batch.aggregate_stats()
    assert aggregate.events_executed == sum(
        result.stats.events_executed for result in batch
    )
    assert aggregate.source_transitions == sum(
        result.stats.source_transitions for result in batch
    )
    expected_toggles = {}
    for result in batch:
        for name, count in result.stats.net_toggles.items():
            expected_toggles[name] = expected_toggles.get(name, 0) + count
    assert aggregate.net_toggles == expected_toggles
    assert len(batch.per_vector_seconds()) == 3
    assert "vectors:                3" in batch.format()


def test_batch_rejects_empty_and_bad_jobs(c17):
    with pytest.raises(SimulationError):
        simulate_batch(c17, [])
    stimulus = random_vectors(
        [net.name for net in c17.primary_inputs], count=1, period=2.0
    )
    with pytest.raises(SimulationError):
        simulate_batch(c17, [stimulus], jobs=0)


def test_config_batch_knobs_flow_through(c17):
    """jobs defaults from SimulationConfig."""
    input_names = [net.name for net in c17.primary_inputs]
    stimuli = random_vector_batch(
        input_names, batch=2, count=1, period=2.0, base_seed=9
    )
    config = ddm_config(batch_jobs=2)
    batch = simulate_batch(c17, stimuli, config=config, engine_kind="compiled")
    assert batch.jobs == 2
    assert all(result.simulator is None for result in batch)


def test_jobs_clamped_to_batch_size(c17):
    stimulus = random_vectors(
        [net.name for net in c17.primary_inputs], count=1, period=2.0
    )
    batch = simulate_batch(c17, [stimulus], jobs=8)
    # one vector never leaves the calling process
    assert batch.jobs == 1
    assert batch[0].simulator is not None


def test_batch_result_is_indexable_and_iterable(c17):
    input_names = [net.name for net in c17.primary_inputs]
    stimuli = random_vector_batch(
        input_names, batch=2, count=1, period=2.0
    )
    batch = simulate_batch(c17, stimuli)
    assert isinstance(batch, BatchResult)
    assert len(list(batch)) == 2
    assert batch[1] is batch.results[1]
