"""Campaign classification: calibration, parity, path equivalence."""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.config import DelayMode, SimulationConfig, cdm_config
from repro.core.engine import ENGINE_KINDS, simulate
from repro.core.service import SimulationService
from repro.errors import FaultError, ServiceError
from repro.faults.campaign import (
    CLASSIFICATIONS,
    Classification,
    DependabilityReport,
    classify_results,
    run_campaign,
)
from repro.faults.faultload import (
    FaultKind,
    FaultSpec,
    Faultload,
    generate_faultload,
)
from repro.faults.inject import FaultedStimulus, lowering_fingerprint
from repro.stimuli.vectors import (
    PAPER_SEQUENCE_1,
    VectorSequence,
    multiplication_sequence,
)

from test_properties import circuit_params, random_netlist, random_stimulus

ALL_KINDS = sorted(ENGINE_KINDS)
#: engines with the exact-timing contract: full trace-level
#: classification agrees across these three.
EXACT_KINDS = ("reference", "compiled", "vector")


def _config():
    return SimulationConfig(record_traces=True)


def _c17_stimulus(c17):
    return VectorSequence(
        [(0.0, {net.name: 0 for net in c17.primary_inputs}),
         (4.0, {net.name: 1 for net in c17.primary_inputs}),
         (8.0, {net.name: 0 for net in c17.primary_inputs})],
        slew=0.2, tail=6.0,
    )


# ----------------------------------------------------------------------
# calibration: the identity fault is silent (satellite a)
# ----------------------------------------------------------------------

@settings(max_examples=10, deadline=None)
@given(params=circuit_params)
def test_zero_fault_campaign_is_all_silent(params):
    """NONE mutants run the exact golden stimulus: every classification
    must be silent on every engine, or the diff itself is broken."""
    seed, num_inputs, num_gates, vectors = params
    netlist = random_netlist(seed, num_inputs, num_gates)
    input_names = [net.name for net in netlist.primary_inputs]
    stimulus = random_stimulus(seed, input_names, vectors)
    targets = [
        net.name for net in netlist.nets.values() if net.driver is not None
    ]
    faultload = Faultload(
        circuit=netlist.name, seed=seed,
        faults=[
            FaultSpec(kind=FaultKind.NONE, net=targets[i % len(targets)])
            for i in range(4)
        ],
    )
    for kind in ALL_KINDS:
        report = run_campaign(
            netlist, faultload, stimulus,
            config=_config(), engine_kind=kind,
        )
        assert report.counts() == {
            "silent": 4, "detected": 0, "latent": 0, "masked": 0,
        }, kind


# ----------------------------------------------------------------------
# engine-independence of the classification (satellite a)
# ----------------------------------------------------------------------

@settings(max_examples=6, deadline=None)
@given(params=circuit_params)
def test_classification_is_engine_independent(params):
    """The same faultload over the same stimulus: the exact-timing
    engines agree on the full four-way classification; every registered
    kind (including word-timing bitparallel) agrees on the final-state
    verdicts ``end_detected`` / ``end_latent``."""
    seed, num_inputs, num_gates, vectors = params
    netlist = random_netlist(seed, num_inputs, num_gates)
    input_names = [net.name for net in netlist.primary_inputs]
    stimulus = random_stimulus(seed, input_names, vectors)
    faultload = generate_faultload(
        netlist, 6, seed=seed, window=(0.0, stimulus.horizon)
    )
    reports = {
        kind: run_campaign(
            netlist, faultload, stimulus, config=_config(), engine_kind=kind
        )
        for kind in ALL_KINDS
    }
    reference = reports["reference"]
    for kind in EXACT_KINDS:
        got = [o.classification for o in reports[kind].outcomes]
        want = [o.classification for o in reference.outcomes]
        assert got == want, kind
    for kind in ALL_KINDS:
        got = [
            (o.end_detected, o.end_latent) for o in reports[kind].outcomes
        ]
        want = [
            (o.end_detected, o.end_latent) for o in reference.outcomes
        ]
        assert got == want, kind
    assert lowering_fingerprint(netlist)  # still computable (restored)


# ----------------------------------------------------------------------
# path equivalence: local == ephemeral pool (jobs > 1) == caller's pool
# ----------------------------------------------------------------------

def _outcome_key(report):
    return [outcome.to_dict() for outcome in report.outcomes]


def test_sharded_campaign_matches_in_process(c17):
    stimulus = _c17_stimulus(c17)
    faultload = generate_faultload(
        c17, 16, seed=4, window=(0.0, stimulus.horizon)
    )
    local = run_campaign(
        c17, faultload, stimulus, config=_config(), engine_kind="compiled"
    )
    sharded = run_campaign(
        c17, faultload, stimulus, config=_config(),
        engine_kind="compiled", jobs=2,
    )
    assert (local.via, sharded.via) == ("local", "service")
    assert _outcome_key(sharded) == _outcome_key(local)


def test_service_campaign_matches_in_process(mult4):
    """With no config/engine_kind, a campaign on a caller's pool takes
    the pool's, so the golden run diffs against the knobs the mutants
    ran on; a different config is refused instead of mis-diffed."""
    stimulus = multiplication_sequence([(0x3, 0x5), (0xC, 0xA)])
    faultload = generate_faultload(
        mult4, 12, seed=4, window=(0.0, stimulus.horizon)
    )
    config = cdm_config(engine_kind="compiled")
    local = run_campaign(mult4, faultload, stimulus, config=config)
    with SimulationService(mult4, config=config, workers=2) as pool:
        pooled = run_campaign(mult4, faultload, stimulus, service=pool)
        with pytest.raises(ServiceError, match="config"):
            run_campaign(
                mult4, faultload, stimulus, config=_config(), service=pool
            )
    assert pooled.via == "service"
    assert _outcome_key(pooled) == _outcome_key(local)


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("kind", ["vector", "bitparallel"])
def test_lockstep_kind_campaign_equals_compiled(mult4, kind, jobs):
    """Mutant chunks run vector by vector, so a lockstep kind's campaign
    runs on the compiled kernel, in process and in pool workers alike:
    bitparallel equals compiled under CDM (its declared tier); vector,
    a kept alias of compiled, equals it under the same config."""
    pytest.importorskip("numpy")
    stimulus = multiplication_sequence(PAPER_SEQUENCE_1)
    faultload = generate_faultload(
        mult4, 10, seed=3, window=(0.0, stimulus.horizon)
    )
    config = _config()
    report = run_campaign(
        mult4, faultload, stimulus, config=config, engine_kind=kind,
        jobs=jobs,
    )
    if kind == "bitparallel":
        config = config.with_mode(DelayMode.CDM)
    compiled = run_campaign(
        mult4, faultload, stimulus, config=config, engine_kind="compiled"
    )
    assert report.engine_kind == kind
    assert report.counts() == compiled.counts()
    assert _outcome_key(report) == _outcome_key(compiled)


def test_campaign_reuses_a_caller_owned_service(c17):
    """Passing ``service=`` implies the service path and leaves the
    pool warm and usable afterwards (campaigns share one pool)."""
    stimulus = _c17_stimulus(c17)
    faultload = generate_faultload(
        c17, 8, seed=9, window=(0.0, stimulus.horizon)
    )
    config = _config()
    with SimulationService(
        c17, config=config, workers=2, engine_kind="compiled"
    ) as pool:
        first = run_campaign(
            c17, faultload, stimulus, config=config,
            engine_kind="compiled", service=pool,
        )
        second = run_campaign(
            c17, faultload, stimulus, config=config,
            engine_kind="compiled", service=pool,
        )
        # still warm: a plain batch goes through after the campaigns
        healthy = pool.submit_batch([stimulus]).wait()
    assert first.via == "service"
    assert _outcome_key(first) == _outcome_key(second)
    golden = simulate(c17, stimulus, config=config, engine_kind="compiled")
    assert healthy[0].final_values == golden.final_values


def test_mixed_healthy_and_faulted_batch_matches_individual_runs(c17):
    """The lockstep guard: a bitparallel batch mixing healthy and
    faulted stimuli must fall off the merged-word fast path and still
    match per-stimulus ``simulate()`` bit for bit."""
    pytest.importorskip("numpy")
    from repro.core.batch import simulate_batch

    stimulus = _c17_stimulus(c17)
    fault = FaultSpec(
        kind=FaultKind.STUCK_AT_1,
        net=next(iter(c17.gates.values())).output.name,
    )
    mixed = [stimulus, FaultedStimulus(stimulus, fault), stimulus]
    batch = simulate_batch(
        c17, mixed, config=_config(), engine_kind="bitparallel", jobs=1
    )
    for stim, result in zip(mixed, batch.results):
        solo = simulate(
            c17, stim, config=_config(), engine_kind="bitparallel"
        )
        assert result.final_values == solo.final_values
        for name in result.traces.names():
            assert (
                result.traces[name].edges() == solo.traces[name].edges()
            ), name


# ----------------------------------------------------------------------
# report shape
# ----------------------------------------------------------------------

def test_report_round_trips_through_dict(c17):
    stimulus = _c17_stimulus(c17)
    faultload = generate_faultload(
        c17, 12, seed=2, window=(0.0, stimulus.horizon)
    )
    report = run_campaign(
        c17, faultload, stimulus, config=_config(), engine_kind="compiled"
    )
    back = DependabilityReport.from_dict(report.to_dict())
    assert back.to_dict() == report.to_dict()
    assert back.outcomes == report.outcomes


def test_report_aggregates_are_consistent(c17):
    stimulus = _c17_stimulus(c17)
    faultload = generate_faultload(
        c17, 24, seed=6, window=(0.0, stimulus.horizon)
    )
    report = run_campaign(
        c17, faultload, stimulus, config=_config(), engine_kind="compiled"
    )
    counts = report.counts()
    assert sum(counts.values()) == len(report) == 24
    for table in (report.per_net(), report.per_kind()):
        for label in CLASSIFICATIONS:
            assert sum(row[label] for row in table.values()) == counts[label]
    assert report.coverage == counts[Classification.DETECTED] / 24.0
    text = report.format()
    assert "fault campaign:" in text
    assert "per-kind breakdown:" in text


def test_detected_outcomes_name_the_observing_outputs(c17):
    """Every detected mutant lists at least one real primary output."""
    stimulus = _c17_stimulus(c17)
    faultload = generate_faultload(
        c17, 24, seed=6, window=(0.0, stimulus.horizon)
    )
    report = run_campaign(
        c17, faultload, stimulus, config=_config(), engine_kind="compiled"
    )
    po_names = {net.name for net in c17.primary_outputs}
    detected = [
        o for o in report.outcomes
        if o.classification == Classification.DETECTED
    ]
    assert detected  # stuck-ats on c17 do reach the outputs
    for outcome in detected:
        assert outcome.detected_pos
        assert set(outcome.detected_pos) <= po_names


def test_classify_results_rejects_count_mismatch(c17):
    stimulus = _c17_stimulus(c17)
    faultload = generate_faultload(c17, 3, seed=1)
    golden = simulate(c17, stimulus, config=_config())
    with pytest.raises(FaultError, match="3 faults"):
        classify_results(c17, faultload, golden, [golden], "compiled")
