"""The persistent warm-engine service: parity, failure paths, lifecycle.

The service's contract extends the batch contract: a vector simulated on
a warm pooled worker is bit-identical — traces, raw transition streams,
final values, every statistics counter except wall-clock — to a
standalone ``simulate()``, whatever the chunking and across worker
crashes.  These tests pin that, plus the operational surface: crash
detection with restart + requeue, retry budgets and close()/
context-manager shutdown.
"""

from __future__ import annotations

import dataclasses
import os
import pickle
import signal
import time

import pytest

from repro.config import cdm_config, ddm_config
from repro.core.batch import simulate_batch
from repro.core.engine import simulate
from repro.core.service import SimulationService
from repro.core.result_record import pack_result, unpack_result
from repro.core.rows import ResultLayout
from repro.errors import ServiceError
from repro.experiments import common
from repro.obs.registry import (
    DEFAULT_LATENCY_BUCKETS,
    MetricsRegistry,
    get_registry,
)
from repro.stimuli.patterns import random_vector_batch

from test_backend_parity import random_netlist, random_stimulus
from test_batch import _STATS_FIELDS


def assert_results_identical(result, standalone, netlist, context=""):
    for field in _STATS_FIELDS:
        assert getattr(result.stats, field) == getattr(
            standalone.stats, field
        ), "%s: stats.%s differs" % (context, field)
    assert result.final_values == standalone.final_values, context
    assert result.traces.horizon == standalone.traces.horizon, context
    assert result.traces.names() == standalone.traces.names(), context
    for name in standalone.traces.names():
        got, want = result.traces[name], standalone.traces[name]
        assert got.initial_value == want.initial_value, (context, name)
        got_raw = [
            (t.t50, t.duration, t.rising, t.net_name,
             t.degradation_factor, t.cause_time)
            for t in got.transitions
        ]
        want_raw = [
            (t.t50, t.duration, t.rising, t.net_name,
             t.degradation_factor, t.cause_time)
            for t in want.transitions
        ]
        assert got_raw == want_raw, (context, name)


# The pool once had two result transports, a shared-memory buffer and
# the inline message, and the cases marked ``per_legacy_transport`` ran
# once per transport.  The inline message is now the only one: both ids
# run it, so each case keeps the name it has always had.
per_legacy_transport = pytest.mark.parametrize(
    "transport", ["shm", "pickle"]
)


# ----------------------------------------------------------------------
# parity: every exact engine, both delay modes
# ----------------------------------------------------------------------

@per_legacy_transport
@pytest.mark.parametrize("engine_kind", ["reference", "compiled", "vector"])
@pytest.mark.parametrize("mode", ["ddm", "cdm"])
def test_service_parity_with_standalone(mult4, mode, engine_kind, transport):
    config = ddm_config() if mode == "ddm" else cdm_config()
    stimuli = common.paper_stimulus_batch()
    with SimulationService(
        mult4, config=config, workers=2, engine_kind=engine_kind,
    ) as service:
        batch = service.run_batch(stimuli)
    assert len(batch) == len(stimuli)
    for position, stimulus in enumerate(stimuli):
        standalone = simulate(
            mult4, stimulus, config=config, engine_kind=engine_kind
        )
        assert batch[position].simulator is None
        assert_results_identical(
            batch[position], standalone, mult4,
            context="%s/%s vector %d" % (mode, engine_kind, position),
        )


def test_service_parity_on_random_circuit():
    netlist = random_netlist(5, 4, 14)
    input_names = [net.name for net in netlist.primary_inputs]
    stimuli = [
        random_stimulus(41 + k, input_names, vectors=2 + k % 3)
        for k in range(6)
    ]
    with SimulationService(
        netlist, config=ddm_config(), workers=3, engine_kind="compiled"
    ) as service:
        batch = service.run_batch(stimuli)
    for position, stimulus in enumerate(stimuli):
        standalone = simulate(
            netlist, stimulus, config=ddm_config(), engine_kind="compiled"
        )
        assert_results_identical(
            batch[position], standalone, netlist,
            context="vector %d" % position,
        )


def test_warm_service_survives_many_batches(mult4):
    """Steady state: batches keep flowing through the same worker set."""
    stimuli = common.paper_stimulus_batch()
    with SimulationService(
        mult4, config=ddm_config(record_traces=False), workers=2,
        engine_kind="compiled",
    ) as service:
        pids = {worker.process.pid for worker in service._workers}
        reference = service.run_batch(stimuli)
        for _round in range(3):
            batch = service.run_batch(stimuli)
            assert batch.lowering_seconds == 0.0
            for got, want in zip(batch, reference):
                assert got.final_values == want.final_values
                assert got.stats.events_executed == want.stats.events_executed
        assert {w.process.pid for w in service._workers} == pids
        assert service.worker_restarts == 0


def _registry_delta(action):
    """Run ``action()``; returns its result and what it added to the
    process registry, as a registry of its own."""
    get_registry().snapshot(reset=True)
    out = action()
    delta = MetricsRegistry()
    delta.merge_snapshot(get_registry().snapshot(reset=True))
    return out, delta


def _dispatched_chunks(submit):
    """Run ``submit()`` and count the chunks it dispatched, read from the
    ``halotis_service_chunk_vectors`` histogram in a registry delta."""
    results, delta = _registry_delta(submit)
    return results, delta.get(
        "halotis_service_chunk_vectors"
    ).cumulative_counts()[-1]


@per_legacy_transport
def test_chunked_batches_bit_identical_to_unchunked(mult4, transport):
    """``chunk > 1`` is pure round-trip amortisation: results are
    bit-identical to the per-vector dispatch, in input order, including
    a ragged final chunk.  The default splits a batch into one chunk per
    worker (fewer when N < workers)."""
    stimuli = common.paper_stimulus_batch() * 2  # 10 vectors, chunk 4 -> ragged
    config = ddm_config()
    workers = 2
    with SimulationService(
        mult4, config=config, workers=workers, engine_kind="compiled",
    ) as service:
        unchunked = service.submit_batch(stimuli, chunk=1).wait()
        chunked = service.submit_batch(stimuli, chunk=4).wait()
        whole = service.submit_batch(stimuli, chunk=len(stimuli)).wait()
        default, chunks = _dispatched_chunks(
            lambda: service.submit_batch(stimuli).wait()
        )
        assert chunks == min(workers, len(stimuli))
        single, chunks = _dispatched_chunks(
            lambda: service.submit_batch(stimuli[:1]).wait()
        )
        assert chunks == min(workers, 1)
    assert_results_identical(single[0], unchunked[0], mult4,
                             context="default single vector")
    for position in range(len(stimuli)):
        assert_results_identical(
            chunked[position], unchunked[position], mult4,
            context="chunk=4 vector %d" % position,
        )
        assert_results_identical(
            whole[position], unchunked[position], mult4,
            context="chunk=all vector %d" % position,
        )
        assert_results_identical(
            default[position], unchunked[position], mult4,
            context="default chunk vector %d" % position,
        )


def test_chunk_must_be_positive(mult4):
    stimuli = common.paper_stimulus_batch()
    with (
        SimulationService(
            mult4, config=ddm_config(), workers=1, engine_kind="compiled"
        ) as service,
        pytest.raises(ServiceError, match="chunk"),
    ):
        service.submit_batch(stimuli, chunk=0)


def test_error_mid_chunk_fails_the_batch_cleanly(mult4):
    """A stimulus exception inside a chunk fails the job with the
    offending vector's index; the pool keeps serving."""
    input_names = [net.name for net in mult4.primary_inputs]
    good = random_vector_batch(
        input_names, batch=5, count=1, period=3.0, base_seed=53
    )
    bad = random_vector_batch(
        ["not-a-net"], batch=1, count=1, period=3.0, base_seed=53
    )
    mixed = good[:3] + bad + good[3:]
    with SimulationService(
        mult4, config=ddm_config(), workers=1, engine_kind="compiled"
    ) as service:
        with pytest.raises(ServiceError, match="vector 3 failed"):
            service.submit_batch(mixed, chunk=3).wait()
        assert service.worker_restarts == 0
        batch = service.run_batch(good)
        assert len(batch) == len(good)


def test_as_completed_yields_every_vector(mult4):
    input_names = [net.name for net in mult4.primary_inputs]
    stimuli = random_vector_batch(
        input_names, batch=6, count=2, period=3.0, base_seed=23
    )
    with SimulationService(
        mult4, config=ddm_config(record_traces=False), workers=2,
        engine_kind="compiled",
    ) as service:
        job = service.submit_batch(stimuli)
        seen = dict(job.as_completed())
    assert sorted(seen) == list(range(len(stimuli)))
    for index, stimulus in enumerate(stimuli):
        standalone = simulate(
            mult4, stimulus, config=ddm_config(record_traces=False),
            engine_kind="compiled",
        )
        assert seen[index].final_values == standalone.final_values


_PIPE_BUFFER = 64 * 1024


def _traced_vectors(netlist, count):
    names = [net.name for net in netlist.primary_inputs]
    return random_vector_batch(names, batch=2, count=count, period=2.0,
                               base_seed=3)


def _run_on_one_worker(netlist, batches, chunk=None):
    """Run ``batches`` in turn on one warm worker, check every vector is
    bit-identical to a standalone ``simulate()``, and return the packed
    record bytes of each vector, batch by batch."""
    layout = ResultLayout(netlist)
    with SimulationService(
        netlist, config=ddm_config(), workers=1, engine_kind="compiled",
    ) as service:
        got = [service.submit_batch(b, chunk=chunk).wait() for b in batches]
    for round_, (stimuli, results) in enumerate(zip(batches, got)):
        for position, stimulus in enumerate(stimuli):
            standalone = simulate(netlist, stimulus, config=ddm_config(),
                                  engine_kind="compiled")
            assert_results_identical(
                results[position], standalone, netlist,
                context="batch %d vector %d" % (round_, position),
            )
    return [[len(pack_result(r, layout)[0]) for r in rs] for rs in got]


def test_shm_buffer_grows_for_large_traces(mult4):
    """Single vectors of ~75 KB of packed records, past the 64 KiB pipe
    buffer, arrive whole between small ones.  (Named for the
    shared-memory buffer that once carried these bytes.)"""
    small, large = _traced_vectors(mult4, 2), _traced_vectors(mult4, 30)
    [sizes] = _run_on_one_worker(mult4, [small + large + small], chunk=1)
    assert min(sizes[2:4]) > _PIPE_BUFFER


def test_shm_buffer_grows_when_a_later_chunk_outgrows_it(mult4):
    """Under the default split a batch is one chunk on a single worker:
    a later two-vector chunk of ~45 KB per vector, which together
    outgrow the 64 KiB pipe buffer, arrives whole between small chunks.
    (Named for the shared-memory buffer that once carried these bytes.)"""
    small, large = _traced_vectors(mult4, 2), _traced_vectors(mult4, 15)
    sizes = _run_on_one_worker(mult4, [small, large, small])[1]
    assert max(sizes) < _PIPE_BUFFER < sum(sizes)


# ----------------------------------------------------------------------
# worker metrics: changed-series deltas folded into the parent
# ----------------------------------------------------------------------

def _counter_totals(registry, prefix):
    """``{(metric, label values): value}`` of every counter under
    ``prefix``."""
    return {
        (metric.name, key): value
        for metric in registry.metrics()
        if metric.type == "counter" and metric.name.startswith(prefix)
        for key, value in metric.series().items()
    }


def _short_vectors(netlist, batch, seed):
    names = [net.name for net in netlist.primary_inputs]
    return random_vector_batch(names, batch=batch, count=2, period=3.0,
                               base_seed=seed)


def test_pooled_batch_counters_equal_in_process_counters(mult4):
    """The workers' engine counters reach the parent's registry exactly:
    the same totals as an in-process batch of the same vectors."""
    stimuli = _short_vectors(mult4, 6, 67)
    config = ddm_config(record_traces=False)
    with SimulationService(
        mult4, config=config, workers=2, engine_kind="compiled"
    ) as service:
        _, pooled = _registry_delta(lambda: service.run_batch(stimuli))
    _, local = _registry_delta(lambda: simulate_batch(
        mult4, stimuli, config=config, engine_kind="compiled"
    ))
    engine = _counter_totals(pooled, "halotis_engine_")
    assert engine[("halotis_engine_runs_total", ("compiled",))] == 6.0
    assert engine[
        ("halotis_engine_events_executed_total", ("compiled",))
    ] > 0
    assert engine == _counter_totals(local, "halotis_engine_")
    assert _counter_totals(pooled, "halotis_service_") == {
        ("halotis_service_tasks_total", ("ok",)): 2.0,
    }
    for name in ("halotis_engine_run_seconds",
                 "halotis_engine_phase_seconds"):
        observed = [series["count"]
                    for series in pooled.get(name).snapshot_series()]
        assert observed, name
        assert observed == [series["count"]
                            for series in local.get(name).snapshot_series()]


def test_parent_registry_learns_worker_metrics_from_the_first_delta(mult4):
    """A parent registry that never saw the engine's phase histogram
    gets it, with the worker's declaration, from the first delta."""
    stimuli = common.paper_stimulus_batch()
    with SimulationService(
        mult4, config=ddm_config(), workers=1, engine_kind="compiled"
    ) as service:
        fresh = MetricsRegistry()
        service._metrics.registry = fresh
        service.submit_batch(stimuli).wait()
    histogram = fresh.get("halotis_engine_phase_seconds")
    assert histogram is not None
    assert histogram.type == "histogram"
    assert histogram.buckets == DEFAULT_LATENCY_BUCKETS
    assert histogram.label_names == ("engine", "phase")
    assert histogram.help == get_registry().get(
        "halotis_engine_phase_seconds"
    ).help
    assert histogram.cumulative_counts(
        engine="compiled", phase="initialize"
    )[-1] == len(stimuli)


def test_respawned_worker_deltas_still_merge(mult4):
    stimuli = _short_vectors(mult4, 6, 71)
    config = ddm_config(record_traces=False)
    _, local = _registry_delta(lambda: simulate_batch(
        mult4, stimuli, config=config, engine_kind="compiled"
    ))
    with SimulationService(
        mult4, config=config, workers=2, engine_kind="compiled"
    ) as service:
        service.run_batch(stimuli)
        victim = service._workers[0].process
        os.kill(victim.pid, signal.SIGKILL)
        victim.join(10.0)
        _, pooled = _registry_delta(
            lambda: service.submit_batch(stimuli).wait()
        )
        assert service.worker_restarts == 1
    assert _counter_totals(pooled, "halotis_engine_") == _counter_totals(
        local, "halotis_engine_"
    )


# ----------------------------------------------------------------------
# the simulate_batch(..., service=...) front end
# ----------------------------------------------------------------------

def test_simulate_batch_routes_through_service(mult4):
    stimuli = common.paper_stimulus_batch()
    config = ddm_config()
    with SimulationService(
        mult4, config=config, workers=2, engine_kind="compiled"
    ) as service:
        batch = simulate_batch(
            mult4, stimuli, config=config, engine_kind="compiled",
            service=service,
        )
        assert batch.jobs == 2
        assert batch.engine_kind == "compiled"
        plain = simulate_batch(
            mult4, stimuli, config=config, engine_kind="compiled"
        )
        for got, want in zip(batch, plain):
            assert got.final_values == want.final_values
            assert got.stats.events_executed == want.stats.events_executed


def test_simulate_batch_service_knob_mismatches(mult4, c17):
    config = ddm_config()
    stimuli = common.paper_stimulus_batch()
    with SimulationService(
        mult4, config=config, workers=1, engine_kind="compiled"
    ) as service:
        with pytest.raises(ServiceError):
            simulate_batch(c17, stimuli, service=service)
        with pytest.raises(ServiceError):
            simulate_batch(
                mult4, stimuli, engine_kind="reference", service=service
            )
        with pytest.raises(ServiceError):
            simulate_batch(mult4, stimuli, config=ddm_config(), service=service)


# ----------------------------------------------------------------------
# failure paths
# ----------------------------------------------------------------------

class _CrashOnceStimulus:
    """Hard-crashes the first worker process that touches it, then runs
    normally — the flag file records that the crash already happened.

    Stimuli cross the process boundary by pickle, so this must be a
    module-level class.
    """

    def __init__(self, inner, flag_path):
        self._inner = inner
        self._flag_path = flag_path
        self.horizon = inner.horizon

    def _maybe_crash(self):
        if not os.path.exists(self._flag_path):
            with open(self._flag_path, "w") as handle:
                handle.write("crashed")
            os._exit(17)

    def initial_values(self, netlist):
        self._maybe_crash()
        return self._inner.initial_values(netlist)

    def iter_changes(self):
        return self._inner.iter_changes()


class _AlwaysCrashStimulus(_CrashOnceStimulus):
    """Kills every worker that touches it; exhausts the retry budget."""

    def _maybe_crash(self):
        os._exit(17)


def test_worker_killed_mid_batch_restarts_and_requeues(mult4):
    input_names = [net.name for net in mult4.primary_inputs]
    stimuli = random_vector_batch(
        input_names, batch=8, count=2, period=3.0, base_seed=7
    )
    config = ddm_config(record_traces=False)
    with SimulationService(
        mult4, config=config, workers=2, engine_kind="compiled"
    ) as service:
        job = service.submit_batch(stimuli)
        os.kill(service._workers[0].process.pid, signal.SIGKILL)
        results = job.wait()
        assert service.worker_restarts >= 1
        # Both workers alive again after recovery.
        assert all(w.process.is_alive() for w in service._workers)
        for index, stimulus in enumerate(stimuli):
            standalone = simulate(
                mult4, stimulus, config=config, engine_kind="compiled"
            )
            assert results[index].final_values == standalone.final_values
            assert (
                results[index].stats.events_executed
                == standalone.stats.events_executed
            )
        # The service keeps serving after the crash.
        again = service.run_batch(stimuli[:2])
        assert len(again) == 2


def test_crashing_stimulus_is_requeued_and_recovers(mult4, tmp_path):
    input_names = [net.name for net in mult4.primary_inputs]
    plain = random_vector_batch(
        input_names, batch=3, count=1, period=3.0, base_seed=31
    )
    flag = str(tmp_path / "crashed-once")
    stimuli = [plain[0], _CrashOnceStimulus(plain[1], flag), plain[2]]
    with SimulationService(
        mult4, config=ddm_config(record_traces=False), workers=2,
        engine_kind="compiled",
    ) as service:
        results = service.submit_batch(stimuli, chunk=1).wait()
        assert service.worker_restarts == 1
        assert service.tasks_requeued == 1
    assert os.path.exists(flag)
    for index in range(3):
        standalone = simulate(
            mult4, plain[index], config=ddm_config(record_traces=False),
            engine_kind="compiled",
        )
        assert results[index].final_values == standalone.final_values


def test_crash_under_default_split_requeues_the_whole_chunk(mult4, tmp_path):
    """3 vectors on 2 workers split as chunks [0, 1] and [2]; a crash on
    vector 1 requeues its whole chunk and the results stay exact."""
    input_names = [net.name for net in mult4.primary_inputs]
    plain = random_vector_batch(
        input_names, batch=3, count=1, period=3.0, base_seed=31
    )
    flag = str(tmp_path / "crashed-once")
    stimuli = [plain[0], _CrashOnceStimulus(plain[1], flag), plain[2]]
    config = ddm_config(record_traces=False)
    with SimulationService(
        mult4, config=config, workers=2, engine_kind="compiled",
    ) as service:
        results = service.submit_batch(stimuli).wait()
        assert service.worker_restarts == 1
        assert service.tasks_requeued == 2
    assert os.path.exists(flag)
    for index in range(3):
        standalone = simulate(
            mult4, plain[index], config=config, engine_kind="compiled"
        )
        assert_results_identical(
            results[index], standalone, mult4,
            context="requeued chunk vector %d" % index,
        )


def test_exhausted_chunk_error_names_every_vector(mult4, tmp_path):
    """The poison is the chunk's *second* vector; the crash cannot say
    which vector killed the worker, so the error names both."""
    input_names = [net.name for net in mult4.primary_inputs]
    plain = random_vector_batch(
        input_names, batch=2, count=1, period=3.0, base_seed=37
    )
    poison = _AlwaysCrashStimulus(plain[1], str(tmp_path / "unused"))
    with SimulationService(
        mult4, config=ddm_config(record_traces=False), workers=1,
        engine_kind="compiled", max_task_retries=1,
    ) as service:
        with pytest.raises(
            ServiceError, match=r"vectors 0-1 crashed its worker 2 times"
        ):
            service.submit_batch([plain[0], poison], chunk=2).wait()
        assert service.worker_restarts == 2


@per_legacy_transport
def test_crash_right_after_a_large_result_does_not_wedge_the_pool(
    mult4, tmp_path, transport
):
    """A worker dies on the task that follows a result too large for one
    pipe write.  The result must not leave a lock behind that stops the
    replacement's results: each round finishes within a deadline."""
    import time

    input_names = [net.name for net in mult4.primary_inputs]
    large = random_vector_batch(
        input_names, batch=1, count=30, period=2.0, base_seed=3
    )
    plain = random_vector_batch(
        input_names, batch=1, count=1, period=3.0, base_seed=5
    )
    with SimulationService(
        mult4, config=ddm_config(), workers=1, engine_kind="compiled",
    ) as service:
        for round_ in range(20):
            service.submit_batch(large).wait()
            flag = str(tmp_path / ("crashed-%d" % round_))
            job = service.submit_batch([_CrashOnceStimulus(plain[0], flag)])
            deadline = time.monotonic() + 20.0
            while not job.done:
                assert time.monotonic() < deadline, (
                    "round %d: the replacement's result never arrived"
                    % round_
                )
                service._pump()
            assert len(job.wait()) == 1
        assert service.worker_restarts == 20


def test_poison_stimulus_exhausts_retry_budget(mult4, tmp_path):
    input_names = [net.name for net in mult4.primary_inputs]
    plain = random_vector_batch(
        input_names, batch=2, count=1, period=3.0, base_seed=37
    )
    poison = _AlwaysCrashStimulus(plain[0], str(tmp_path / "unused"))
    with SimulationService(
        mult4, config=ddm_config(record_traces=False), workers=1,
        engine_kind="compiled", max_task_retries=1,
    ) as service:
        with pytest.raises(ServiceError, match="crashed its worker"):
            service.submit_batch([poison]).wait()
        # 1 initial attempt + 1 retry, each killing a worker.
        assert service.worker_restarts == 2
        # The service is not poisoned: fresh work still runs.
        batch = service.run_batch(plain)
        assert len(batch) == 2


def _assert_no_pool_left():
    """An ephemeral ``jobs > 1`` pool leaves no worker process behind
    once its call returns."""
    import multiprocessing

    assert multiprocessing.active_children() == []


def test_jobs_batch_recovers_from_a_worker_crash(mult4, tmp_path):
    """simulate_batch(jobs=2) runs on the service's crash/retry path: a
    worker killed mid-batch is respawned, its chunk re-run, and the
    results equal the in-process batch."""
    input_names = [net.name for net in mult4.primary_inputs]
    plain = random_vector_batch(
        input_names, batch=4, count=2, period=3.0, base_seed=29
    )
    flag = str(tmp_path / "crashed-once")
    stimuli = [plain[0], _CrashOnceStimulus(plain[1], flag)] + plain[2:]
    config = ddm_config()
    pooled = simulate_batch(
        mult4, stimuli, config=config, engine_kind="compiled", jobs=2
    )
    assert os.path.exists(flag)
    assert pooled.jobs == 2
    _assert_no_pool_left()
    local = simulate_batch(
        mult4, plain, config=config, engine_kind="compiled", jobs=1
    )
    for position in range(len(plain)):
        assert_results_identical(
            pooled[position], local[position], mult4,
            context="vector %d" % position,
        )


def test_jobs_batch_poison_raises_service_error(mult4, tmp_path):
    input_names = [net.name for net in mult4.primary_inputs]
    plain = random_vector_batch(
        input_names, batch=2, count=1, period=3.0, base_seed=37
    )
    poison = _AlwaysCrashStimulus(plain[1], str(tmp_path / "unused"))
    with pytest.raises(ServiceError, match="crashed its worker"):
        simulate_batch(
            mult4, [plain[0], poison], config=ddm_config(record_traces=False),
            engine_kind="compiled", jobs=2,
        )
    _assert_no_pool_left()


def test_send_into_a_dead_workers_pipe_restarts_and_requeues(mult4):
    """Worker 0 is killed and reaped, but reports alive once more, so
    dispatch sends its chunk into a pipe nobody reads.  The send fails;
    the worker is respawned and the chunk requeued like any crash."""
    input_names = [net.name for net in mult4.primary_inputs]
    stimuli = random_vector_batch(
        input_names, batch=6, count=2, period=3.0, base_seed=61
    )
    config = ddm_config()
    chunk = 3
    with SimulationService(
        mult4, config=config, workers=2, engine_kind="compiled"
    ) as service:
        victim = service._workers[0].process
        os.kill(victim.pid, signal.SIGKILL)
        victim.join(10.0)
        assert not victim.is_alive()

        def alive_once():
            del victim.is_alive  # back to the real method
            return True

        victim.is_alive = alive_once
        job = service.submit_batch(stimuli, chunk=chunk)
        deadline = time.monotonic() + 30.0
        while not job.done:
            assert time.monotonic() < deadline, "the batch never finished"
            service._pump()
        results = job.wait()
        assert service.worker_restarts == 1
        assert service.tasks_requeued == chunk
    _assert_no_pool_left()
    local = simulate_batch(mult4, stimuli, config=config,
                           engine_kind="compiled")
    for position in range(len(stimuli)):
        assert_results_identical(
            results[position], local[position], mult4,
            context="vector %d" % position,
        )


class _Unpicklable:
    """A stimulus that cannot cross to a worker."""

    def __reduce__(self):
        raise TypeError("this stimulus does not pickle")


def test_unpicklable_stimulus_fails_its_batch_and_frees_the_worker(mult4):
    with SimulationService(
        mult4, config=ddm_config(record_traces=False), workers=1,
        engine_kind="compiled",
    ) as service:
        with pytest.raises(ServiceError, match="could not be sent"):
            service.submit_batch([_Unpicklable()]).wait()
        assert service.worker_restarts == 0
        stimuli = common.paper_stimulus_batch()
        assert len(service.run_batch(stimuli)) == len(stimuli)


def test_simulation_error_propagates_without_killing_workers(mult4):
    """A stimulus *exception* (vs. a crash) fails the batch cleanly."""
    input_names = [net.name for net in mult4.primary_inputs]
    good = random_vector_batch(
        input_names, batch=1, count=1, period=3.0, base_seed=43
    )
    bad = random_vector_batch(
        ["not-a-net"], batch=1, count=1, period=3.0, base_seed=43
    )
    with SimulationService(
        mult4, config=ddm_config(), workers=1, engine_kind="compiled"
    ) as service:
        with pytest.raises(ServiceError, match="StimulusError"):
            service.submit_batch(bad).wait()
        assert service.worker_restarts == 0
        batch = service.run_batch(good)
        assert len(batch) == 1


# ----------------------------------------------------------------------
# lifecycle
# ----------------------------------------------------------------------

class _WedgedStimulus(_CrashOnceStimulus):
    """Blocks its worker in a long sleep — simulates wedged native code
    (or a runaway vector) that ignores the poison pill at close time."""

    def _maybe_crash(self):
        import time

        time.sleep(60.0)


def test_close_on_wedged_worker_is_bounded(mult4):
    """close() must escalate (join timeout -> terminate -> kill) and
    return promptly instead of waiting a wedged worker out."""
    import time

    input_names = [net.name for net in mult4.primary_inputs]
    plain = random_vector_batch(
        input_names, batch=1, count=1, period=3.0, base_seed=51
    )
    service = SimulationService(
        mult4, config=ddm_config(record_traces=False), workers=1,
        engine_kind="compiled",
    )
    service.submit_batch([_WedgedStimulus(plain[0], "unused")])
    # Let the worker actually pick the task up before closing.
    time.sleep(0.3)
    processes = [worker.process for worker in service._workers]
    start = time.monotonic()
    service.close(timeout=0.5)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, "close() hung %.1fs on a wedged worker" % elapsed
    assert service.closed
    assert all(not process.is_alive() for process in processes)
    service.close()  # still idempotent afterwards


def test_close_on_already_crashed_pool_is_quick(mult4):
    """Every worker SIGKILLed behind the service's back: close() must
    neither hang nor raise."""
    import time

    service = SimulationService(
        mult4, config=ddm_config(), workers=2, engine_kind="compiled"
    )
    for worker in service._workers:
        os.kill(worker.process.pid, signal.SIGKILL)
        worker.process.join(5.0)
    start = time.monotonic()
    service.close(timeout=2.0)
    assert time.monotonic() - start < 10.0
    assert service.closed
    service.close()


def test_failed_construction_leaves_closeable_wreckage(mult4):
    """A constructor failure before worker spawn must leave close()
    (and therefore __del__) a safe no-op — the never-started pool."""
    from repro.errors import SimulationError as _SimulationError

    try:
        SimulationService(mult4, engine_kind="no-such-backend")
    except _SimulationError as error:
        assert "no-such-backend" in str(error)
    else:  # pragma: no cover
        pytest.fail("bad engine kind must raise")
    # The same early-attribute guarantee, exercised directly: close()
    # before any worker exists.
    service = SimulationService.__new__(SimulationService)
    service._closed = False
    service._workers = []
    service.close()
    assert service.closed


def test_close_is_idempotent_and_terminal(mult4):
    service = SimulationService(
        mult4, config=ddm_config(), workers=2, engine_kind="compiled"
    )
    processes = [worker.process for worker in service._workers]
    service.close()
    service.close()
    assert service.closed
    assert all(not process.is_alive() for process in processes)
    with pytest.raises(ServiceError):
        service.submit_batch(common.paper_stimulus_batch())


def test_context_manager_closes_on_exit(mult4):
    with SimulationService(
        mult4, config=ddm_config(), workers=1, engine_kind="compiled"
    ) as service:
        processes = [worker.process for worker in service._workers]
    assert service.closed
    assert all(not process.is_alive() for process in processes)


def test_submit_rejects_empty_and_bad_workers(mult4):
    with pytest.raises(ServiceError):
        SimulationService(mult4, workers=0)
    with (
        SimulationService(mult4, workers=1) as service,
        pytest.raises(ServiceError),
    ):
        service.submit_batch([])


def test_config_service_knobs_flow_through(mult4):
    config = ddm_config(service_workers=3, engine_kind="compiled")
    with SimulationService(mult4, config=config) as service:
        assert service.workers == 3
        assert service.engine_kind == "compiled"


# ----------------------------------------------------------------------
# the packed record codec itself
# ----------------------------------------------------------------------

@pytest.mark.parametrize("engine_kind", ["reference", "compiled"])
@pytest.mark.parametrize("circuit", ["mult4", "renamed"])
def test_pack_unpack_roundtrip_is_lossless(circuit, engine_kind, request):
    """Both renamed netlists (mult4's outputs are renamed too) iterate
    final values and toggles in key order, not net-id order; the record
    carries them as bare rows and the parent's layout restores that
    order."""
    netlist = request.getfixturevalue(circuit)
    names = [net.name for net in netlist.primary_inputs]
    result = simulate(
        netlist, random_vector_batch(names, batch=1, count=6, period=1.0,
                                     base_seed=5)[0],
        config=ddm_config(), engine_kind=engine_kind,
    )
    layout = ResultLayout(netlist)
    payload, record = pack_result(result, layout)
    _counts, toggles, values, *_, nbytes = record
    assert nbytes == len(payload)
    for row in (toggles, values):
        assert type(row) is list and {type(entry) for entry in row} == {int}
    # Oversized buffer: unpack must honor nbytes, not buffer length.
    rebuilt = unpack_result(record, payload + b"\x00" * 64, layout)
    assert_results_identical(rebuilt, result, netlist, context="roundtrip")
    assert rebuilt.simulator is None
    assert list(rebuilt.final_values) == list(result.final_values) == list(
        netlist.nets
    )
    assert list(rebuilt.stats.net_toggles.items()) == list(
        result.stats.net_toggles.items()
    )
    assert list(rebuilt.stats.net_toggles) == [
        name for name in netlist.nets if name in result.stats.net_toggles
    ]


@pytest.mark.parametrize("transport", ["pickle", "record"])
def test_unread_traces_survive_transport(mult4, transport):
    """Traces nobody has read yet survive pickling and the packed result
    record, and then read equal to the traces of a run that was read
    before it moved."""
    stimulus = common.paper_stimulus(2)

    def run():
        result = simulate(
            mult4, stimulus, config=ddm_config(), engine_kind="compiled"
        )
        return dataclasses.replace(result, simulator=None)

    def move(result):
        if transport == "pickle":
            return pickle.loads(pickle.dumps(result))
        layout = ResultLayout(mult4)
        payload, record = pack_result(result, layout)
        return unpack_result(record, payload, layout)

    read = run()
    for trace in read.traces:
        assert trace.transitions is not None
    unread = run()
    assert_results_identical(move(unread), read, mult4, context="unread")
    assert_results_identical(move(read), read, mult4, context="read")


def test_pack_unpack_handles_empty_traces(mult4):
    result = simulate(
        mult4, common.paper_stimulus(1),
        config=ddm_config(record_traces=False), engine_kind="compiled",
    )
    layout = ResultLayout(mult4)
    payload, record = pack_result(result, layout)
    assert payload == b""
    rebuilt = unpack_result(record, payload, layout)
    assert rebuilt.final_values == result.final_values
    assert len(rebuilt.traces) == 0
