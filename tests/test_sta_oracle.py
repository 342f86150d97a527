"""The STA oracle (``SimulationConfig.check_sta_bounds``) across engines.

Every registered kind — ``reference``, ``compiled``, ``bitparallel``
and the kept ``vector`` alias of ``compiled`` — is exercised through
``simulate()``, **plus** the lockstep batch path (``simulate_batch`` on
the ``lockstep_batches`` backend, ``bitparallel``), whose merged word
events go through its own verification pass with batch-wide launch
and slew hulls.  The property tests assert the oracle is *silent* on healthy
runs over a randomized corpus; the teeth tests assert it *fires* when
the compiled delay arcs are corrupted behind a primed window cache.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.analysis.hazards import analyze_hazards
from repro.analysis.sta import verify_result, windows_for
from repro.circuit import modules
from repro.circuit.builder import CircuitBuilder
from repro.config import (
    DelayMode,
    InertialPolicy,
    SimulationConfig,
    ddm_config,
)
from repro.core.batch import simulate_batch
from repro.core.bitparallel import _batch_hold
from repro.core.engine import ENGINE_KINDS, simulate
from repro.errors import OracleError
from repro.stimuli.vectors import VectorSequence

from test_properties import circuit_params, random_netlist, random_stimulus

ALL_KINDS = sorted(ENGINE_KINDS)
LOCKSTEP_KINDS = sorted(
    kind for kind, cls in ENGINE_KINDS.items() if cls.lockstep_batches
)


def _configs():
    """Every delay mode x inertial policy, oracle armed."""
    for mode in DelayMode:
        for policy in InertialPolicy:
            yield SimulationConfig(
                delay_mode=mode,
                inertial_policy=policy,
                record_traces=True,
                check_sta_bounds=True,
            )


# ----------------------------------------------------------------------
# silence on healthy runs
# ----------------------------------------------------------------------

@settings(max_examples=8, deadline=None)
@given(params=circuit_params)
def test_every_engine_stays_inside_its_static_windows(params):
    """The heart of the oracle contract: for every registered engine,
    both delay modes and both inertial policies, every transition an
    engine produces lies inside the net's static arrival window and
    every recorded duration inside its slew interval — ``simulate()``
    itself asserts this when ``check_sta_bounds`` is on, so the test is
    simply that no :class:`OracleError` escapes."""
    seed, num_inputs, num_gates, vectors = params
    netlist = random_netlist(seed, num_inputs, num_gates)
    input_names = [net.name for net in netlist.primary_inputs]
    stimulus = random_stimulus(seed, input_names, vectors)
    for config in _configs():
        for kind in ALL_KINDS:
            result = simulate(
                netlist, stimulus, config=config, engine_kind=kind
            )
            assert result.final_values  # the run actually happened


@settings(max_examples=6, deadline=None)
@given(params=circuit_params)
def test_lockstep_batches_stay_inside_the_batch_hull(params):
    """The lockstep word/lane paths (the 'fifth engine'): merged events
    may carry another lane's launch time and slew, so their hook checks
    against the batch-wide hull — still sound, still asserted in-line
    by ``simulate_batch`` when the oracle is armed."""
    seed, num_inputs, num_gates, _ = params
    netlist = random_netlist(seed, num_inputs, num_gates)
    input_names = [net.name for net in netlist.primary_inputs]
    stimuli = [
        random_stimulus(seed + offset, input_names, vectors=2)
        for offset in range(6)
    ]
    for mode in DelayMode:
        config = SimulationConfig(
            delay_mode=mode, record_traces=True, check_sta_bounds=True
        )
        for kind in LOCKSTEP_KINDS:
            batch = simulate_batch(
                netlist, stimuli, config=config, engine_kind=kind, jobs=1
            )
            assert len(batch.results) == len(stimuli)


def _late_clamp_circuit():
    """``y = INV(NAND(a, b))``, a fast path, beside a chain of heavily
    loaded inverters on ``c`` whose slow arcs raise the batch hold (the
    mean base arc delay) well above the fast path's NAND delay."""
    builder = CircuitBuilder(name="late_clamp")
    a, b, c = builder.input("a"), builder.input("b"), builder.input("c")
    builder.output(builder.inv(builder.nand(a, b, name="g1"), name="g2"),
                   name="y")
    chain = c
    for index in range(8):
        chain = builder.inv(
            chain, output=builder.net("slow%d" % index, wire_cap=200.0),
            name="s%d" % index,
        )
    builder.output(chain)
    return builder.build()


@pytest.mark.parametrize("mode", list(DelayMode), ids=lambda m: m.name)
def test_a_late_clamped_word_needs_the_batch_hold_slack(mode):
    """Lane 0 drops ``a`` and lane 1 drops ``b`` half a hold later, so
    g1 emits two word events on g2's pin.  Lane 1's arrives after lane
    0's has run (one hold late) yet before the instant lane 1's own
    event runs at, so the word kernel clamps it to that held queue time
    and the hold reaches y's recorded edge.  The batch pass covers it
    with its per-arc hold slack; the same traces checked without the
    slack leave y's static window."""
    netlist = _late_clamp_circuit()
    config = SimulationConfig(
        delay_mode=mode, record_traces=True, check_sta_bounds=True
    )
    hold = _batch_hold(netlist.compile(), 2)
    start = {"a": 1, "b": 1, "c": 0}
    late = 1.0 + 0.5 * hold
    stimuli = [
        VectorSequence([(0.0, start), (1.0, {**start, "a": 0})],
                       slew=0.1, tail=3.0),
        VectorSequence([(0.0, start), (late, {**start, "b": 0})],
                       slew=0.1, tail=3.0),
    ]
    batch = simulate_batch(
        netlist, stimuli, config=config, engine_kind="bitparallel"
    )
    hulls = {"launch_window": (1.05, late + 0.05), "input_slew": (0.1, 0.1)}
    verify_result(netlist, stimuli[0], batch.results[0], config, **hulls)
    with pytest.raises(OracleError, match="net 'y' transition"):
        verify_result(netlist, stimuli[1], batch.results[1], config, **hulls)
    verify_result(netlist, stimuli[1], batch.results[1], config,
                  arc_slack=hold, **hulls)


def test_oracle_accepts_a_launch_free_stimulus():
    netlist = modules.inverter_chain(3)
    still = VectorSequence([(0.0, {"in": 0})], slew=0.2, tail=5.0)
    for config in _configs():
        result = simulate(netlist, still, config=config)
        assert all(trace.raw_count() == 0 for trace in result.traces)


def test_static_glitch_circuit_passes_and_is_flagged():
    """``y = NAND(a, INV(a))``: the textbook static-1 hazard.  The
    engines may mint a 0-glitch on ``y``; the oracle accepts it because
    ``y`` is a statically flagged hazard net, and the hazard pass does
    flag it."""
    builder = CircuitBuilder(name="glitch")
    a = builder.input("a")
    y = builder.nand(a, builder.inv(a))
    builder.output(y, "y")
    netlist = builder.build()
    stimulus = VectorSequence(
        [(0.0, {"a": 0}), (4.0, {"a": 1}), (8.0, {"a": 0})],
        slew=0.2, tail=6.0,
    )
    for config in _configs():
        for kind in ALL_KINDS:
            simulate(netlist, stimulus, config=config, engine_kind=kind)
    report = analyze_hazards(netlist, config=ddm_config())
    assert y.name in report.generator_candidates
    assert y.name in report.flagged


# ----------------------------------------------------------------------
# teeth: the oracle must fire on corrupted delay arcs
# ----------------------------------------------------------------------
#
# Two corruption seams, because the engines source delays differently:
#
# * ``compiled``/``vector``/``bitparallel`` consume the compiled arc
#   tables directly: prime the window cache on the healthy lowering,
#   then bump every arc's *slew-sensitivity* term (``d_slew``) in
#   place — the engine now runs slow while the cached windows stay
#   healthy.  Corrupting ``tp0`` instead would be absorbed on the
#   bitparallel lockstep path: its batch slack is recomputed from the
#   arcs' ``tp0`` at verify time, which changes the cache key and
#   rebuilds the windows from the *same corrupted* lowering — engine
#   and analyzer would agree again (correctly: no divergence exists).
#
# * ``reference`` interprets the raw netlist's cell arcs and never
#   reads the compiled tables, so corrupt the analyzer's side instead:
#   zero the compiled arcs with no priming — the windows collapse to
#   ~min_delay while the engine keeps its healthy delays.
#
# Either way, a single corrupted arc can silently miss if its gate
# never toggles under the stimulus, so every arc is corrupted — the
# detection claim is about the oracle, not about one arc being hit.

COMPILED_KINDS = sorted(set(ALL_KINDS) - {"reference"})


def _slow_every_arc(compiled, bump=8.0):
    for table in (compiled.arc_rise, compiled.arc_fall):
        for uid, params in enumerate(table):
            tp0, d_slew, tau, s_slew, tau_deg, t0 = params
            table[uid] = (tp0, d_slew + bump, tau, s_slew, tau_deg, t0)


def _collapse_every_arc(compiled):
    for table in (compiled.arc_rise, compiled.arc_fall):
        for uid, params in enumerate(table):
            _tp0, _d_slew, tau, s_slew, tau_deg, t0 = params
            table[uid] = (0.0, 0.0, tau, s_slew, tau_deg, t0)


@pytest.mark.parametrize("kind", COMPILED_KINDS)
def test_oracle_detects_corrupted_delay_arcs(kind, patched_lowering, loop):
    netlist = random_netlist(3, num_inputs=3, num_gates=8)
    input_names = [net.name for net in netlist.primary_inputs]
    stimulus = random_stimulus(3, input_names, vectors=3)
    config = SimulationConfig(record_traces=True, check_sta_bounds=True)
    simulate(netlist, stimulus, config=config, engine_kind=kind)  # primes
    patched_lowering(netlist, _slow_every_arc)
    with pytest.raises(OracleError, match="STA oracle"):
        simulate(netlist, stimulus, config=config, engine_kind=kind)


@pytest.mark.parametrize("kind", LOCKSTEP_KINDS)
def test_oracle_detects_corrupted_arcs_in_lockstep_batches(
    kind, patched_lowering
):
    netlist = random_netlist(3, num_inputs=3, num_gates=8)
    input_names = [net.name for net in netlist.primary_inputs]
    stimuli = [
        random_stimulus(3 + offset, input_names, vectors=2)
        for offset in range(4)
    ]
    config = SimulationConfig(record_traces=True, check_sta_bounds=True)
    simulate_batch(netlist, stimuli, config=config, engine_kind=kind, jobs=1)
    patched_lowering(netlist, _slow_every_arc)
    with pytest.raises(OracleError, match="STA oracle"):
        simulate_batch(
            netlist, stimuli, config=config, engine_kind=kind, jobs=1
        )


def test_oracle_detects_an_analyzer_side_corruption(patched_lowering):
    """The reference-engine seam: collapsed compiled arcs make the
    windows claim near-zero delay; the raw-netlist interpreter's
    healthy transitions land far outside them."""
    netlist = modules.inverter_chain(4)
    stimulus = VectorSequence(
        [(0.0, {"in": 0}), (4.0, {"in": 1})], slew=0.2, tail=6.0
    )
    config = SimulationConfig(record_traces=True, check_sta_bounds=True)
    patched_lowering(netlist, _collapse_every_arc)
    with pytest.raises(OracleError, match="violation"):
        simulate(netlist, stimulus, config=config, engine_kind="reference")


# ----------------------------------------------------------------------
# configuration plumbing
# ----------------------------------------------------------------------

def test_oracle_requires_recorded_traces():
    with pytest.raises(ValueError, match="record_traces"):
        SimulationConfig(
            check_sta_bounds=True, record_traces=False
        ).validate()


def test_verify_result_rejects_traceless_results():
    netlist = modules.inverter_chain(3)
    stimulus = VectorSequence(
        [(0.0, {"in": 0}), (4.0, {"in": 1})], slew=0.2, tail=6.0
    )
    config = SimulationConfig(record_traces=False)
    result = simulate(netlist, stimulus, config=config)
    with pytest.raises(OracleError, match="record_traces"):
        verify_result(netlist, stimulus, result, config)


def test_verify_result_returns_the_report_it_checked_against():
    netlist = modules.c17()
    input_names = [net.name for net in netlist.primary_inputs]
    stimulus = random_stimulus(7, input_names, vectors=2)
    config = SimulationConfig(record_traces=True)
    result = simulate(netlist, stimulus, config=config)
    report = verify_result(netlist, stimulus, result, config)
    assert report.windows
    # and the windows came from (and primed) the per-netlist cache
    cached = windows_for(netlist, config, (0.2, 0.2))
    assert cached is not None
