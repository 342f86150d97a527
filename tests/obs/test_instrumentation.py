"""End-to-end instrumentation: engine, batch, service, server, CLI.

The layers under test all publish to the *process-default* registry, so
every assertion here works on deltas: drain the registry with
``snapshot(reset=True)``, do the work, read the delta.  Presence and
exact counts are pinned where the layer controls them (runs, vectors,
task outcomes); wall-clock figures are only required to be positive.
"""

from __future__ import annotations

import itertools
import json
import multiprocessing
import os
import types

import pytest

from repro.cli import main
from repro.config import ddm_config
from repro.core import engine as engine_module
from repro.core.batch import run_chunk, simulate_batch
from repro.core.engine import make_engine, simulate
from repro.core.service import SimulationService
from repro.errors import ServiceError, StimulusError
from repro.faults.campaign import run_campaign
from repro.faults.differential import MIN_MUTANTS_TO_RECORD
from repro.faults.faultload import DEFAULT_KINDS, generate_faultload
from repro.faults.inject import FaultedStimulus
from repro.obs.prometheus import parse_text
from repro.obs.registry import MetricsRegistry, get_registry
from repro.stimuli.patterns import random_vector_batch, random_vectors


def _drain():
    get_registry().snapshot(reset=True)


def _delta():
    """Drain the default registry into an inspectable throwaway."""
    inspect = MetricsRegistry()
    inspect.merge_snapshot(get_registry().snapshot(reset=True))
    return inspect


def _stimulus(netlist, count=3, seed=11):
    return random_vectors(
        [net.name for net in netlist.primary_inputs],
        count=count, period=5.0, seed=seed,
    )


def _stimuli(netlist, batch=6, seed=11):
    return random_vector_batch(
        [net.name for net in netlist.primary_inputs],
        batch=batch, count=2, period=2.0, base_seed=seed, tail=2.0,
    )


# ----------------------------------------------------------------------
# engine layer
# ----------------------------------------------------------------------

def test_simulate_publishes_engine_metrics(c17):
    config = ddm_config()
    _drain()
    result = simulate(
        c17, _stimulus(c17), config=config, engine_kind="compiled"
    )
    delta = _delta()
    assert delta.get("halotis_engine_runs_total").value(engine="compiled") == 1
    executed = delta.get("halotis_engine_events_executed_total")
    assert executed.value(engine="compiled") == result.stats.events_executed
    run_seconds = delta.get("halotis_engine_run_seconds")
    assert run_seconds.cumulative_counts(engine="compiled")[-1] == 1
    phases = delta.get("halotis_engine_phase_seconds")
    observed_phases = {key[1] for key in phases.series()}
    assert {"initialize", "stimulus", "settle", "drain"} <= observed_phases


def test_simulate_result_carries_metrics(c17):
    result = simulate(
        c17, _stimulus(c17), config=ddm_config(), engine_kind="compiled"
    )
    metrics = result.metrics
    assert metrics["engine"] == "compiled"
    assert metrics["wall_seconds"] > 0
    assert metrics["counters"]["events_executed"] == (
        result.stats.events_executed
    )
    assert set(metrics["phases"]) == {
        "initialize", "stimulus", "settle", "drain",
    }


def test_collect_metrics_off_is_silent(c17):
    config = ddm_config(collect_metrics=False)
    _drain()
    result = simulate(
        c17, _stimulus(c17), config=config, engine_kind="compiled"
    )
    assert result.metrics is None
    delta = get_registry().snapshot(reset=True)
    recorded = [
        name for name, entry in delta["metrics"].items() if entry["series"]
    ]
    assert recorded == []


def test_vector_engine_publishes_lockstep_wave_metrics(mult4):
    """A batch under the kept ``vector`` name runs vector by vector on
    the compiled kernel: one run per vector (the name predates the
    deletion of its lockstep kernel, which published waves)."""
    _drain()
    batch = simulate_batch(
        mult4, _stimuli(mult4), config=ddm_config(), engine_kind="vector"
    )
    delta = _delta()
    runs = delta.get("halotis_engine_runs_total")
    assert runs.value(engine="vector") == len(batch)


def test_bitparallel_publishes_lockstep_wave_metrics(mult4):
    pytest.importorskip("numpy")
    _drain()
    batch = simulate_batch(
        mult4, _stimuli(mult4), config=ddm_config(),
        engine_kind="bitparallel",
    )
    delta = _delta()
    runs = delta.get("halotis_engine_runs_total")
    assert runs.value(engine="bitparallel") == len(batch)
    waves = delta.get("halotis_lockstep_waves_total")
    lanes = delta.get("halotis_lockstep_lanes_total")
    assert waves.value(engine="bitparallel") > 0
    assert lanes.value(engine="bitparallel") >= waves.value(
        engine="bitparallel"
    )


# ----------------------------------------------------------------------
# batch layer
# ----------------------------------------------------------------------

def test_batch_metrics_inprocess(mult4):
    _drain()
    stimuli = _stimuli(mult4)
    batch = simulate_batch(
        mult4, stimuli, config=ddm_config(), engine_kind="compiled"
    )
    assert batch.metrics["mode"] == "inprocess"
    assert batch.metrics["vectors"] == len(stimuli)
    assert batch.metrics["wall_seconds"] > 0
    delta = _delta()
    vectors = delta.get("halotis_batch_vectors_total")
    assert vectors.value(engine="compiled", mode="inprocess") == len(stimuli)
    runs = delta.get("halotis_batch_runs_total")
    assert runs.value(engine="compiled", mode="inprocess") == 1


def test_batch_metrics_jobs_runs_on_a_service(mult4):
    """A jobs=2 batch runs in worker processes, and their engine metrics
    still reach this registry, once per vector."""
    _drain()
    stimuli = _stimuli(mult4)
    batch = simulate_batch(
        mult4, stimuli, config=ddm_config(record_traces=False),
        engine_kind="compiled", jobs=2,
    )
    assert batch.metrics["mode"] == "service"
    delta = _delta()
    runs = delta.get("halotis_engine_runs_total")
    assert runs.value(engine="compiled") == len(stimuli)
    vectors = delta.get("halotis_batch_vectors_total")
    assert vectors.value(engine="compiled", mode="service") == len(stimuli)


# ----------------------------------------------------------------------
# service layer: worker deltas merge into the parent registry
# ----------------------------------------------------------------------

def test_service_merges_worker_engine_metrics(mult4):
    stimuli = _stimuli(mult4, batch=8)
    config = ddm_config(record_traces=False)
    with SimulationService(
        mult4, config=config, workers=2, engine_kind="compiled"
    ) as service:
        service.run_batch(stimuli)  # warm-up outside the measured delta
        _drain()
        batch = service.run_batch(stimuli)
    assert batch.metrics["mode"] == "service"
    delta = _delta()
    # The engine runs happened in *worker processes*; their deltas were
    # shipped on the result transport and merged here, exactly once.
    runs = delta.get("halotis_engine_runs_total")
    assert runs.value(engine="compiled") == len(stimuli)
    tasks = delta.get("halotis_service_tasks_total")
    assert tasks.value(outcome="ok") >= 1
    queue_wait = delta.get("halotis_service_queue_wait_seconds")
    assert queue_wait.cumulative_counts()[-1] >= 1
    task_seconds = delta.get("halotis_service_task_seconds")
    assert task_seconds.cumulative_counts(outcome="ok")[-1] >= 1
    chunks = delta.get("halotis_service_chunk_vectors")
    assert chunks.cumulative_counts()[-1] >= 1


def test_service_workers_do_not_ship_inherited_parent_totals(mult4):
    """Forked workers start with a copy of the parent's registry; their
    first delta must carry their own runs only, not those totals again."""
    stimuli = _stimuli(mult4, batch=5)
    config = ddm_config(record_traces=False)
    simulate_batch(mult4, stimuli, config=config, engine_kind="compiled")

    def runs():
        inspect = MetricsRegistry()
        inspect.merge_snapshot(get_registry().snapshot())
        return inspect.get("halotis_engine_runs_total").value(engine="compiled")

    before = runs()
    assert before >= len(stimuli)
    with SimulationService(
        mult4, config=config, workers=2, engine_kind="compiled"
    ) as service:
        service.run_batch(stimuli)
    assert runs() - before == len(stimuli)


class _CrashOnceStimulus:
    """Hard-crashes the first worker that touches it, then runs
    normally (the flag file records the crash already happened).
    Module-level: stimuli cross the process boundary by pickle."""

    def __init__(self, inner, flag_path):
        self._inner = inner
        self._flag_path = flag_path
        self.horizon = inner.horizon

    def initial_values(self, netlist):
        if not os.path.exists(self._flag_path):
            with open(self._flag_path, "w") as handle:
                handle.write("crashed")
            os._exit(17)
        return self._inner.initial_values(netlist)

    def iter_changes(self):
        return self._inner.iter_changes()


def test_service_counts_crash_respawn_and_requeue(mult4, tmp_path):
    stimuli = list(_stimuli(mult4, batch=4))
    config = ddm_config(record_traces=False)
    with SimulationService(
        mult4, config=config, workers=1, engine_kind="compiled"
    ) as service:
        service.run_batch(stimuli[:2])  # warm-up
        _drain()
        poisoned = [
            _CrashOnceStimulus(stimuli[0], str(tmp_path / "crashed"))
        ] + stimuli[1:]
        batch = service.run_batch(poisoned)
    assert len(batch) == len(stimuli)
    delta = _delta()
    restarts = delta.get("halotis_service_worker_restarts_total")
    assert restarts.value() >= 1
    requeued = delta.get("halotis_service_tasks_requeued_total")
    assert requeued.value() >= 1
    tasks = delta.get("halotis_service_tasks_total")
    assert tasks.value(outcome="requeued") >= 1


def test_service_metrics_off_ships_no_snapshots(mult4):
    config = ddm_config(record_traces=False, collect_metrics=False)
    with SimulationService(
        mult4, config=config, workers=1, engine_kind="compiled"
    ) as service:
        _drain()
        batch = service.run_batch(_stimuli(mult4, batch=4))
    assert batch.metrics is None
    for result in batch:
        assert result.metrics is None
    delta = get_registry().snapshot(reset=True)
    recorded = [
        name for name, entry in delta["metrics"].items() if entry["series"]
    ]
    assert recorded == []


# ----------------------------------------------------------------------
# chunked publication: the same engine metrics however runs are chunked
# ----------------------------------------------------------------------

#: one reading of the fake engine clock: a power of two, so phase and
#: run times are exact multiples of it and their sums are exact too.
_TICK = 2.0 ** -12


@pytest.fixture
def ticking_clock(monkeypatch):
    """Advance the engine's clock one tick per reading, so a run's
    phase and run times count the clock readings it makes: the same
    run takes the same time on every route, and histogram buckets and
    sums compare exactly.  Pool workers keep the fake clock only when
    they fork (:func:`_untimed`)."""
    ticks = itertools.count()
    monkeypatch.setattr(
        engine_module, "_time",
        types.SimpleNamespace(perf_counter=lambda: next(ticks) * _TICK),
    )


def _engine_series(run):
    """Every ``halotis_engine_*`` series ``run()`` publishes, by metric
    and labels: counter values, and histogram counts, bucket counts and
    sums."""
    _drain()
    run()
    delta = _delta()
    return {
        (metric.name, tuple(entry["labels"])): entry
        for metric in delta.metrics()
        if metric.name.startswith("halotis_engine_")
        for entry in metric.snapshot_series()
    }


def _untimed(series):
    """What of ``series`` does not read the clock: counter values and
    histogram observation counts."""
    return {
        key: (entry.get("value"), entry.get("count"))
        for key, entry in series.items()
    }


def test_chunked_runs_publish_what_lone_runs_publish(mult4, ticking_clock):
    """One in-process batch, a 2-worker pool and 32 ``simulate()``
    calls of the same vectors publish identical engine metrics: one
    observation per run, never one per chunk."""
    stimuli = random_vector_batch(
        [net.name for net in mult4.primary_inputs],
        batch=32, count=2, period=2.0, base_seed=7, tail=2.0,
    )
    config = ddm_config(record_traces=False)

    def inprocess():
        simulate_batch(mult4, stimuli, config=config, engine_kind="compiled")

    def pool():
        simulate_batch(
            mult4, stimuli, config=config, engine_kind="compiled", jobs=2,
        )

    def lone():
        for stimulus in stimuli:
            simulate(mult4, stimulus, config=config, engine_kind="compiled")

    expected = _engine_series(lone)
    runs = expected[("halotis_engine_runs_total", ("compiled",))]
    assert runs["value"] == len(stimuli)
    assert expected[("halotis_engine_run_seconds", ("compiled",))][
        "count"] == len(stimuli)
    assert _engine_series(inprocess) == expected
    pooled = _engine_series(pool)
    if multiprocessing.get_start_method() == "fork":
        assert pooled == expected
    else:  # spawned workers read the real clock
        assert _untimed(pooled) == _untimed(expected)


def test_cone_chunk_publishes_what_lone_mutant_runs_publish(
    mult4, ticking_clock
):
    """A faulted chunk on the cone route publishes the engine metrics
    of the same mutants run one by one."""
    stimulus = _stimulus(mult4, count=3, seed=5)
    faultload = generate_faultload(
        mult4, 10 * len(DEFAULT_KINDS), seed=3,
        window=(0.0, stimulus.horizon),
    )
    mutants = [FaultedStimulus(stimulus, fault) for fault in faultload.faults]
    for kind in DEFAULT_KINDS:
        assert sum(
            mutant.fault.kind is kind for mutant in mutants
        ) >= MIN_MUTANTS_TO_RECORD, kind
    config = ddm_config(record_traces=False)
    engine = make_engine(mult4, config=config, engine_kind="compiled")
    cone = _engine_series(lambda: list(run_chunk(engine, mutants)))
    assert engine._differential.golden is not None  # the cone route ran
    lone = _engine_series(lambda: [
        simulate(mult4, mutant, config=config, engine_kind="compiled")
        for mutant in mutants
    ])
    assert cone == lone
    assert lone[("halotis_engine_runs_total", ("compiled",))]["value"] == (
        len(mutants)
    )


class _FailingStimulus:
    """Raises on initialisation.  Module-level: stimuli cross the
    process boundary by pickle."""

    def __init__(self, inner):
        self.horizon = inner.horizon

    def initial_values(self, netlist):
        raise StimulusError("this vector cannot start")

    def iter_changes(self):
        return iter(())


def _runs_published(run):
    _drain()
    run()
    runs = _delta().get("halotis_engine_runs_total")
    return 0 if runs is None else runs.value(engine="compiled")


@pytest.mark.parametrize("failing", [0, 3])
def test_a_chunk_that_raises_publishes_the_runs_before_it(mult4, failing):
    stimuli = list(_stimuli(mult4, batch=6))
    stimuli[failing] = _FailingStimulus(stimuli[failing])
    config = ddm_config(record_traces=False)

    def inprocess():
        with pytest.raises(StimulusError):
            simulate_batch(mult4, stimuli, config=config,
                           engine_kind="compiled")

    assert _runs_published(inprocess) == failing
    with SimulationService(
        mult4, config=config, workers=1, engine_kind="compiled"
    ) as service:

        def pooled():
            # one worker: the whole batch is one chunk, and its error
            # message carries the chunk's delta
            with pytest.raises(ServiceError, match="StimulusError"):
                service.run_batch(stimuli)

        assert _runs_published(pooled) == failing


def _assert_registry_untouched():
    delta = get_registry().snapshot(reset=True)
    recorded = [
        name for name, entry in delta["metrics"].items() if entry["series"]
    ]
    assert recorded == []


def test_metrics_off_batch_and_campaign_leave_the_registry_untouched(mult4):
    config = ddm_config(record_traces=False, collect_metrics=False)
    stimulus = _stimulus(mult4, count=3, seed=5)
    faultload = generate_faultload(
        mult4, 20, seed=3, window=(0.0, stimulus.horizon),
    )
    _drain()
    batch = simulate_batch(
        mult4, _stimuli(mult4), config=config, engine_kind="compiled"
    )
    assert batch.metrics is None
    assert all(result.metrics is None for result in batch)
    _assert_registry_untouched()
    run_campaign(mult4, faultload, stimulus, config=config,
                 engine_kind="compiled")
    _assert_registry_untouched()


# ----------------------------------------------------------------------
# server layer + CLI stats front end
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def server():
    from repro.server.app import SimulationServer

    server = SimulationServer(port=0, pool_workers=2).start_background(15.0)
    yield server
    assert server.stop_and_join(30.0), "server did not shut down"


@pytest.fixture(scope="module")
def client(server):
    from repro.server.client import SimulationClient

    with SimulationClient(server.host, server.port) as client:
        client.register("c17", {"kind": "builtin", "name": "c17"})
        yield client


def _scrape(client):
    text = client.metrics()
    return text, parse_text(text)


def test_server_scrape_covers_every_layer(client, c17):
    client.simulate("c17", _stimulus(c17))
    text, families = _scrape(client)
    # request layer
    requests = families["halotis_server_requests_total"]
    assert requests["type"] == "counter"
    ops = {labels["op"] for _, labels, _ in requests["samples"]}
    assert {"register", "simulate", "metrics"} & ops
    latency = families["halotis_server_request_seconds"]
    assert latency["type"] == "histogram"
    # per-netlist throughput
    vectors = families["halotis_server_vectors_total"]
    served = {
        labels["netlist"]: value
        for _, labels, value in vectors["samples"]
    }
    assert served["c17"] >= 1
    # service + engine metrics from the netlist's warm pool surface in
    # the same scrape (the registry is process-wide)
    assert "halotis_service_task_seconds" in families
    assert "halotis_engine_runs_total" in families
    # gauges
    assert "halotis_server_open_connections" in families
    assert "halotis_server_inflight_requests" in families


def test_server_counts_error_requests(client):
    from repro.errors import ServerError

    with pytest.raises(ServerError):
        client.call("simulate", netlist="no-such-netlist", vector={})
    _, families = _scrape(client)
    statuses = {
        (labels["op"], labels["status"]): value
        for _, labels, value in (
            families["halotis_server_requests_total"]["samples"]
        )
    }
    assert statuses.get(("simulate", "error"), 0) >= 1
    errors = families["halotis_server_errors_total"]
    assert sum(value for _, _, value in errors["samples"]) >= 1


def test_server_clamps_unknown_op_label(client):
    from repro.errors import ServerError

    with pytest.raises(ServerError):
        client.call("definitely-not-an-op-%d" % 0)
    with pytest.raises(ServerError):
        client.call("definitely-not-an-op-%d" % 1)
    _, families = _scrape(client)
    ops = {
        labels["op"]
        for _, labels, _ in (
            families["halotis_server_requests_total"]["samples"]
        )
    }
    # Client-chosen op strings must not mint label values.
    assert "(invalid)" in ops
    assert not any(op.startswith("definitely-not-an-op") for op in ops)


def test_stats_op_carries_metrics_snapshot(client):
    stats = client.stats()
    snapshot = stats["metrics"]
    assert snapshot["schema"] == 1
    assert "halotis_server_requests_total" in snapshot["metrics"]


def test_cli_stats_table(server, capsys):
    address = "%s:%d" % (server.host, server.port)
    assert main(["stats", "--connect", address]) == 0
    out = capsys.readouterr().out
    assert "vectors served" in out
    assert "metric families" in out


def test_cli_stats_json(server, capsys):
    address = "%s:%d" % (server.host, server.port)
    assert main(["stats", "--connect", address, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["metrics"]["schema"] == 1


def test_cli_stats_prometheus(server, capsys):
    address = "%s:%d" % (server.host, server.port)
    assert main(["stats", "--connect", address, "--prometheus"]) == 0
    families = parse_text(capsys.readouterr().out)
    assert "halotis_server_requests_total" in families
