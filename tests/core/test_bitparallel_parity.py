"""Bit-parallel (word-level) backend parity.

The declared accuracy tier (docs/architecture.md) is pinned from both
sides:

* **A single stimulus is fully bit-identical to CDM.**
  ``simulate(engine_kind="bitparallel")`` runs the compiled kernel in
  CDM mode, so under *any* config it must equal the reference engine
  under the same config with ``delay_mode`` forced to CDM — statistics,
  traces, transition streams and filtered-event logs included.
  Exercised on the randomized circuit zoo under both source delay modes
  and both inertial policies.  A one-lane lockstep word kernel performs
  exactly the compiled CDM engine's float operations in the same order,
  so every one of these checks also runs it (a one-lane
  ``simulate_batch``) and pins it to the same identity, filtered-event
  logs aside (lockstep results carry none).
* **Every lane of a lockstep batch is logic-exact.**  Per-lane final
  values are bit-identical to a standalone reference run of the same
  stimulus; event *times* follow the word contract (one shared clock,
  earliest/latest arc on mixed-direction words) and are deliberately
  not compared.
"""

from __future__ import annotations

import pytest

numpy = pytest.importorskip("numpy")

from repro.config import DelayMode, InertialPolicy, cdm_config, ddm_config
from repro.core.batch import simulate_batch
from repro.core.bitparallel import BitParallelSimulator
from repro.core.engine import simulate
from repro.errors import SimulationLimitError
from repro.experiments import common
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

#: The first 25 circuits of the backend-parity zoo (each is re-run
#: once standalone and once as a lane of a batch).
CASES = _BACKEND_CASES[:25]


def assert_cdm_bit_identity(netlist, stimulus, config):
    """bitparallel ≡ reference-with-CDM under the same remaining knobs."""
    reference = simulate(
        netlist, stimulus, config=config.with_mode(DelayMode.CDM),
        engine_kind="reference",
    )
    word = simulate(netlist, stimulus, config=config,
                    engine_kind="bitparallel")
    assert_results_bit_identical(reference, word, netlist)
    assert (
        reference.simulator.filtered_log == word.simulator.filtered_log
    )
    # A one-lane lockstep batch drives the word kernel itself: it must
    # perform the compiled CDM engine's float operations in order too.
    (lane,) = simulate_batch(netlist, [stimulus], config=config,
                             engine_kind="bitparallel")
    assert lane.simulator is None  # ran on the word kernel
    assert_results_bit_identical(reference, lane, netlist,
                                 context="one-lane word kernel")
    return reference, word


# ----------------------------------------------------------------------
# single-stimulus full bit-identity (the registered engine)
# ----------------------------------------------------------------------

@pytest.mark.parametrize("case", CASES, ids=lambda c: "seed%d" % c[0])
@pytest.mark.parametrize("mode", ["ddm", "cdm"])
def test_random_circuit_cdm_identity(case, mode):
    """Any config: a single bitparallel run IS a compiled-CDM run.

    ``delay_mode=DDM`` on a bitparallel config is accepted but degrades
    to CDM timing (degradation is out of the tier) — exactly what the
    forced-CDM reference run checks.
    """
    seed, num_inputs, num_gates, vectors = case
    netlist = random_netlist(seed, num_inputs, num_gates)
    input_names = [net.name for net in netlist.primary_inputs]
    stimulus = random_stimulus(seed, input_names, vectors)
    config = (
        ddm_config(record_filtered=True)
        if mode == "ddm"
        else cdm_config(record_filtered=True)
    )
    assert_cdm_bit_identity(netlist, stimulus, config)


@pytest.mark.parametrize("which", [1, 2])
def test_multiplier_paper_sequence_cdm_identity(mult4, which):
    stimulus = common.paper_stimulus(which)
    reference, word = assert_cdm_bit_identity(
        mult4, stimulus, cdm_config(record_filtered=True)
    )
    # The Table 1 CDM activity row comes out of the word kernel too —
    # same event count as the reference CDM engine, down to the toggle.
    assert word.stats.events_executed == reference.stats.events_executed
    assert word.stats.events_executed > 500
    assert word.stats.net_toggles == reference.stats.net_toggles


def test_peak_voltage_policy_cdm_identity():
    netlist = random_netlist(7, 3, 18)
    input_names = [net.name for net in netlist.primary_inputs]
    stimulus = random_stimulus(7, input_names, 3)
    config = cdm_config(
        inertial_policy=InertialPolicy.PEAK_VOLTAGE, record_filtered=True
    )
    assert_cdm_bit_identity(netlist, stimulus, config)


@pytest.mark.parametrize("case", CASES, ids=lambda c: "seed%d" % c[0])
def test_random_circuit_peak_voltage_cdm_identity(case):
    """PEAK_VOLTAGE over the zoo, four stimuli per circuit: several keep
    a pulse whose peak passes the threshold, so the one-lane word
    kernel's corrected-time branch is pinned as well as annihilation."""
    seed, num_inputs, num_gates, vectors = case
    netlist = random_netlist(seed, num_inputs, num_gates)
    input_names = [net.name for net in netlist.primary_inputs]
    config = cdm_config(
        inertial_policy=InertialPolicy.PEAK_VOLTAGE, record_filtered=True
    )
    for k in range(4):
        stimulus = random_stimulus(seed * 31 + k, input_names, vectors)
        assert_cdm_bit_identity(netlist, stimulus, config)


def test_sorted_list_queue_cdm_identity(mult4):
    """A one-lane lockstep word kernel queues on the compiled engine's
    list-entry heap (the name predates the removal of the sorted list
    queue) and stays bit-identical to the reference engine's event
    heap."""
    from repro.core.bitparallel import _WordKernel, _WordLockstepDriver
    from repro.core.compiled import _CompiledHeapQueue

    stimulus = multiplication_sequence(PAPER_SEQUENCE_2)
    reference = simulate(
        mult4, stimulus, config=cdm_config(), engine_kind="reference"
    )
    kernel = _WordKernel(mult4.compile(), cdm_config(), 1)
    (word,) = _WordLockstepDriver(mult4, kernel, [stimulus], 0.0, None).run()
    assert type(kernel.queue) is _CompiledHeapQueue
    assert_results_bit_identical(reference, word, mult4)


# ----------------------------------------------------------------------
# lockstep batches: per-lane logic exactness
# ----------------------------------------------------------------------

def assert_lane_logic_parity(netlist, stimuli, config, batch):
    assert batch.engine_kind == "bitparallel"
    for position, stimulus in enumerate(stimuli):
        reference = simulate(netlist, stimulus, config=config,
                             engine_kind="reference")
        assert batch[position].simulator is None
        assert batch[position].final_values == reference.final_values, (
            "lane %d" % position
        )


@pytest.mark.parametrize("case", CASES[:10], ids=lambda c: "seed%d" % c[0])
@pytest.mark.parametrize("mode", ["ddm", "cdm"])
def test_random_circuit_lockstep_logic_parity(case, mode):
    """Every lane's final values ≡ its standalone reference run — under
    the *source* config (DDM included: logic outcomes cannot depend on
    the delay model on glitch-free settled states)."""
    seed, num_inputs, num_gates, vectors = case
    netlist = random_netlist(seed, num_inputs, num_gates)
    input_names = [net.name for net in netlist.primary_inputs]
    stimuli = [
        random_stimulus(seed * 31 + k, input_names, vectors)
        for k in range(10)
    ]
    config = ddm_config() if mode == "ddm" else cdm_config()
    batch = simulate_batch(netlist, stimuli, config=config,
                           engine_kind="bitparallel")
    assert_lane_logic_parity(netlist, stimuli, config, batch)


@pytest.mark.parametrize(
    "policy", [InertialPolicy.EVENT_ORDER, InertialPolicy.PEAK_VOLTAGE],
    ids=["event-order", "peak-voltage"],
)
def test_lockstep_logic_parity_both_policies(policy):
    netlist = random_netlist(11, 4, 20)
    input_names = [net.name for net in netlist.primary_inputs]
    stimuli = [
        random_stimulus(11 * 31 + k, input_names, 3) for k in range(9)
    ]
    config = cdm_config(inertial_policy=policy)
    batch = simulate_batch(netlist, stimuli, config=config,
                           engine_kind="bitparallel")
    assert_lane_logic_parity(netlist, stimuli, config, batch)


def test_wide_lockstep_batch_crosses_word_boundary(mult4):
    """A 70-lane batch needs two uint64 words per lane mask; every lane
    still lands on the reference final values."""
    input_names = [net.name for net in mult4.primary_inputs]
    stimuli = random_vector_batch(
        input_names, batch=70, count=2, period=2.0, base_seed=5, tail=3.0
    )
    config = cdm_config(record_traces=False)
    batch = simulate_batch(mult4, stimuli, config=config,
                           engine_kind="bitparallel")
    assert_lane_logic_parity(mult4, stimuli, config, batch)


def test_sharded_lockstep_matches_in_process(mult4):
    input_names = [net.name for net in mult4.primary_inputs]
    stimuli = random_vector_batch(
        input_names, batch=6, count=2, period=2.5, base_seed=13
    )
    in_process = simulate_batch(mult4, stimuli, config=cdm_config(),
                                engine_kind="bitparallel")
    sharded = simulate_batch(mult4, stimuli, config=cdm_config(),
                             engine_kind="bitparallel", jobs=2)
    assert sharded.jobs == 2
    for position in range(len(stimuli)):
        assert in_process[position].final_values == (
            sharded[position].final_values
        )


def test_lockstep_batch_with_seed_and_settle(mult4):
    input_names = [net.name for net in mult4.primary_inputs]
    stimuli = random_vector_batch(
        input_names, batch=3, count=2, period=2.5, base_seed=21
    )
    batch = simulate_batch(mult4, stimuli, config=cdm_config(),
                           engine_kind="bitparallel", settle=4.0)
    for position, stimulus in enumerate(stimuli):
        standalone = simulate(mult4, stimulus, config=cdm_config(),
                              engine_kind="reference", settle=4.0)
        assert batch[position].final_values == standalone.final_values


def test_lockstep_activity_matches_packed_popcount(mult4):
    """The per-lane toggle statistics and the packed popcount path count
    the same edges: BatchResult.activity_summary() (summed lane stats)
    equals packed_activity_summary() (word popcounts, no unpacking)."""
    from repro.analysis.activity import packed_activity_summary
    from repro.core.bitparallel import _WordKernel, _WordLockstepDriver

    input_names = [net.name for net in mult4.primary_inputs]
    stimuli = random_vector_batch(
        input_names, batch=32, count=3, period=2.5, base_seed=3
    )
    config = cdm_config(record_traces=False)
    kernel = _WordKernel(mult4.compile(), config, len(stimuli))
    driver = _WordLockstepDriver(mult4, kernel, stimuli, 0.0, None)
    results = driver.run()

    from repro.analysis.activity import activity_summary
    from_stats = activity_summary(result.stats for result in results)
    from_words = packed_activity_summary(kernel.packed_toggle_words())
    assert from_words.per_net == from_stats.per_net
    assert from_words.total_transitions == from_stats.total_transitions
    assert from_words.total_transitions > 0


# ----------------------------------------------------------------------
# operational behaviour
# ----------------------------------------------------------------------

def test_bitparallel_engine_honors_max_events(mult4):
    stimulus = multiplication_sequence(PAPER_SEQUENCE_1)
    config = cdm_config(max_events=10)
    with pytest.raises(SimulationLimitError) as excinfo:
        simulate(mult4, stimulus, config=config, engine_kind="bitparallel")
    assert "event budget (10)" in str(excinfo.value)


def test_lockstep_batch_honors_max_events(mult4):
    stimuli = [multiplication_sequence(PAPER_SEQUENCE_1)] * 3
    config = cdm_config(max_events=10)
    with pytest.raises(SimulationLimitError):
        simulate_batch(mult4, stimuli, config=config,
                       engine_kind="bitparallel")


def test_bitparallel_rejects_unknown_queue_kind(mult4):
    """The lockstep path takes no event-queue option any more."""
    stimuli = [multiplication_sequence(PAPER_SEQUENCE_1)]
    with pytest.raises(TypeError):
        simulate_batch(
            mult4, stimuli, config=cdm_config(), engine_kind="bitparallel",
            queue_kind="heap",
        )
    with pytest.raises(TypeError):
        BitParallelSimulator.run_lockstep_batch(
            mult4, stimuli, config=cdm_config(), queue_kind="heap"
        )


def test_bitparallel_engine_reuse_across_stimuli(mult4):
    """One BitParallelSimulator re-initialised per stimulus (the service
    worker pattern) resets all word state."""
    from repro.core.engine import make_engine, run_stimulus

    engine = make_engine(mult4, config=cdm_config(),
                         engine_kind="bitparallel")
    first = run_stimulus(engine, multiplication_sequence(PAPER_SEQUENCE_1))
    second = run_stimulus(engine, multiplication_sequence(PAPER_SEQUENCE_2))
    again = run_stimulus(engine, multiplication_sequence(PAPER_SEQUENCE_1))
    assert first.stats.events_executed == again.stats.events_executed
    assert first.final_values == again.final_values
    assert second.stats.events_executed != first.stats.events_executed


def test_word_op_counts_exported(mult4):
    """Every truth-table gate lowers to a (small) word-op program."""
    from repro.core.bitparallel import _WordKernel

    counts = _WordKernel(mult4.compile(), cdm_config(), 2).word_op_counts()
    assert set(counts) == set(mult4.gates)
    # INV is one op (x ^ F); NAND2 is two (x & y, then ^ F).
    assert all(0 <= ops <= 8 for ops in counts.values())
    assert max(counts.values()) >= 1
