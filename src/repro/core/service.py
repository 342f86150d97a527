"""Persistent warm-engine simulation service.

A process pool pays a worker spawn, a netlist unpickle and an engine
build before the first event executes.  For a long-running,
high-traffic deployment that is pure overhead if paid per batch — the
circuit does not change between batches.

:class:`SimulationService` keeps the expensive state *warm*:

* each worker process receives the pickled :class:`Netlist` (with its
  cached lowering) **once**, at spawn, builds its engine **once**, and
  then serves arbitrarily many vectors — steady state pays only
  per-vector simulation cost, never re-lowering or re-spawn;
* each worker reads its tasks from its own pipe and answers on another
  (no feeder threads, no shared lock a dying worker could hold);
* each result crosses as one compact record — statistics as a tuple,
  final values as a ``bytes`` row in netlist order — plus its packed
  trace records (:mod:`repro.core.result_record`), all inline in the
  chunk's one result message;
* worker metrics come back as deltas of the series that changed since
  the worker's previous message, folded into the parent's registry;
* a batch is split evenly into one chunk per worker by default, so it
  pays one round trip per worker, not one per vector;
* a crashed worker is detected, respawned with the same warm payload,
  and its in-flight chunk requeued — a chunk that *keeps* killing
  workers fails its batch with :class:`ServiceError` after
  ``max_task_retries`` without poisoning the service.

The dispatch discipline is one-in-flight-per-worker: the parent hands a
worker its next chunk only after consuming the previous result.

Typical use::

    with SimulationService(netlist, config=ddm_config(), workers=4,
                           engine_kind="compiled") as service:
        for stimuli in stream_of_batches:
            batch = service.run_batch(stimuli)

or through the batch front end: ``simulate_batch(netlist, stimuli,
service=service)``.  ``simulate_batch(..., jobs=N)`` with ``N > 1``
opens an ephemeral service for one call, so one-shot and warm batches
share this pool's chunking, result records and crash handling.
"""

from __future__ import annotations

import collections
import contextlib
import itertools
import time as _time
import traceback as _traceback
from multiprocessing.connection import wait as _wait_connections
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from ..circuit.netlist import Netlist
from ..config import SimulationConfig
from ..errors import ServiceError
from ..obs.log import get_logger
from ..obs.registry import MetricsRegistry, get_registry
from .batch import BatchResult, _publish_batch_metrics, even_chunk, run_chunk
from .engine import SimulationResult, make_engine, resolve_engine_class
from .result_record import ResultLayout, pack_result, unpack_chunk

#: Parent-side poll interval while waiting for results; short enough to
#: notice a dead worker promptly, long enough not to spin.
_POLL_SECONDS = 0.05

_LOG = get_logger("service")

#: Chunk sizes are small integers, not latencies; bucket accordingly.
_CHUNK_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)


class _ServiceMetrics:
    """Parent-side instrument handles, resolved once per service.

    Only constructed when ``config.collect_metrics`` is on and the
    process registry is enabled; every call site guards on
    ``self._metrics is not None`` so a disabled service pays a single
    attribute test per event, never a metric lookup.
    """

    __slots__ = (
        "registry", "tasks", "task_seconds", "queue_wait",
        "chunk_vectors", "restarts", "requeued", "exhausted",
    )

    def __init__(self, registry: MetricsRegistry):
        self.registry = registry
        self.tasks = registry.counter(
            "halotis_service_tasks_total",
            "Dispatched service chunks by outcome "
            "(ok/error/requeued/exhausted).",
            ("outcome",),
        )
        self.task_seconds = registry.histogram(
            "halotis_service_task_seconds",
            "Dispatch-to-result latency of one service chunk.",
            ("outcome",),
        )
        self.queue_wait = registry.histogram(
            "halotis_service_queue_wait_seconds",
            "Time a chunk waited in the pending queue before dispatch.",
        )
        self.chunk_vectors = registry.histogram(
            "halotis_service_chunk_vectors",
            "Vectors per dispatched service chunk.",
            buckets=_CHUNK_BUCKETS,
        )
        self.restarts = registry.counter(
            "halotis_service_worker_restarts_total",
            "Workers respawned after a crash.",
        )
        self.requeued = registry.counter(
            "halotis_service_tasks_requeued_total",
            "In-flight vectors requeued because their worker died.",
        )
        self.exhausted = registry.counter(
            "halotis_service_retries_exhausted_total",
            "Chunks that failed their job after exhausting the "
            "crash-retry budget.",
        )


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------

def _worker_main(
    worker_id: int,
    netlist: Netlist,
    config: SimulationConfig,
    engine_kind: str,
    tasks,
    results,
) -> None:
    """Worker-process loop: build the engine once, serve tasks forever.

    Tasks arrive on ``tasks``, the read end of this worker's own pipe
    from the parent: ``(job_id, indices, stimuli, settle, seed)`` tuples
    — one *chunk* of a batch, ``indices`` and ``stimuli`` running in
    parallel; ``None`` is the shutdown pill.  Each chunk answers with
    exactly one message on ``results``, this worker's own pipe to the
    parent (``delta`` is the worker registry's
    :meth:`~repro.obs.registry.MetricsRegistry.drain_delta`, or None
    when metrics collection is off):

    * ``("ok", job_id, indices, records, payload, delta)`` — one
      :mod:`~repro.core.result_record` record per vector; the chunk's
      trace bytes sit back to back in ``payload``;
    * ``("error", job_id, index, type_name, text, delta)``.

    One message per chunk is the point of chunking: the round trip is
    paid once per chunk, not once per vector.  The chunk runs through
    :func:`repro.core.batch.run_chunk`, the same runner as an in-process
    batch, so a lockstep backend runs the chunk as one lockstep kernel.
    On an error the rest of the chunk is abandoned — the parent fails
    the whole job on the first error anyway.

    ``results.send`` writes the whole message before it returns and the
    pipe has no other writer, so a worker that dies holds no lock the
    next worker needs.  A ``multiprocessing.Queue`` shared by all
    workers would send from a feeder thread under a cross-process lock,
    which a worker dying just after a send can leave held for good.
    """
    engine = make_engine(netlist, config=config, engine_kind=engine_kind)
    layout = ResultLayout(netlist)
    # Engine metrics published by the chunk runs land in this worker's own
    # process-local registry; each result message carries the series that
    # changed since the previous one, which the parent adds into its
    # registry — additive, so message order is irrelevant.
    worker_registry = get_registry() if config.collect_metrics else None
    if worker_registry is not None and not worker_registry.enabled:
        worker_registry = None
    if worker_registry is not None:
        # A forked worker inherits the parent's registry contents; drop
        # them so the first delta carries this worker's work only.
        worker_registry.clear()
    drain = (
        worker_registry.drain_delta if worker_registry is not None
        else lambda: None
    )

    while True:
        try:
            task = tasks.recv()
        except EOFError:  # the parent is gone
            break
        if task is None:
            break
        job_id, indices, stimuli, settle, seed = task
        records = []
        payloads = []
        try:
            for result in run_chunk(engine, stimuli, settle=settle,
                                    seed=seed):
                payload, record = pack_result(result, layout)
                payloads.append(payload)
                records.append(record)
        except Exception as error:  # noqa: BLE001 - forwarded to parent
            # Results arrive in order: the first missing one failed.
            results.send((
                "error", job_id, indices[len(records)],
                type(error).__name__,
                "%s\n%s" % (error, _traceback.format_exc()),
                drain(),
            ))
            continue
        results.send((
            "ok", job_id, indices, records, b"".join(payloads), drain(),
        ))


# ----------------------------------------------------------------------
# parent side
# ----------------------------------------------------------------------

def _describe_chunk(indices: Sequence[int]) -> str:
    """Name every vector of a chunk: a crash cannot tell which of them
    killed the worker.  Chunk indices are consecutive."""
    if len(indices) == 1:
        return "vector %d" % indices[0]
    return "chunk of vectors %d-%d" % (indices[0], indices[-1])


class _Task:
    """One dispatch unit — a chunk of consecutive vectors of one batch —
    with its crash-retry accounting.  ``indices`` and ``stimuli`` run in
    parallel."""

    __slots__ = ("job_id", "indices", "stimuli", "settle", "seed",
                 "attempts", "submitted_at", "dispatched_at")

    def __init__(self, job_id, indices, stimuli, settle, seed):
        self.job_id = job_id
        self.indices = indices
        self.stimuli = stimuli
        self.settle = settle
        self.seed = seed
        self.attempts = 0
        #: perf_counter stamps for the queue-wait / task-latency
        #: histograms; None while metrics collection is off.
        self.submitted_at: Optional[float] = None
        self.dispatched_at: Optional[float] = None


class _Worker:
    """Parent-side bookkeeping for one worker process."""

    __slots__ = ("process", "tasks", "results", "generation", "current")

    def __init__(self, process, tasks, results, generation):
        self.process = process
        #: write end of the worker's task pipe; a send raises
        #: BrokenPipeError once the worker has exited.
        self.tasks = tasks
        #: read end of the worker's result pipe; EOF once it has exited.
        self.results = results
        self.generation = generation
        #: the task currently in flight on this worker (None = idle).
        self.current: Optional[_Task] = None


class BatchJob:
    """Handle for one :meth:`SimulationService.submit_batch` call.

    Results arrive as the pool produces them; :meth:`as_completed`
    yields them in completion order (pumping the service while it
    waits), :meth:`wait` blocks for the full input-order list.
    """

    def __init__(self, service: SimulationService, job_id: int, count: int):
        self._service = service
        self._job_id = job_id
        self._count = count
        self._results: Dict[int, SimulationResult] = {}
        #: indices in completion order, consumed by :meth:`as_completed`.
        self._completion_order: List[int] = []
        self._error: Optional[ServiceError] = None

    def __len__(self) -> int:
        return self._count

    @property
    def done(self) -> bool:
        return self._error is not None or len(self._results) == self._count

    def _store(self, index: int, result: SimulationResult) -> None:
        if index not in self._results:
            self._results[index] = result
            self._completion_order.append(index)

    def _fail(self, error: ServiceError) -> None:
        if self._error is None:
            self._error = error

    def _raise_if_failed(self) -> None:
        if self._error is not None:
            raise self._error

    def as_completed(self) -> Iterator[Tuple[int, SimulationResult]]:
        """Yield ``(index, result)`` pairs as workers finish them."""
        cursor = 0
        while True:
            while cursor < len(self._completion_order):
                index = self._completion_order[cursor]
                cursor += 1
                yield index, self._results[index]
            self._raise_if_failed()
            if len(self._results) == self._count:
                return
            self._service._pump()

    def wait(self) -> List[SimulationResult]:
        """Block until every vector finished; results in input order."""
        while not self.done:
            self._service._pump()
        self._raise_if_failed()
        return [self._results[index] for index in range(self._count)]


class SimulationService:
    """A persistent pool of warm simulation engines.

    Args:
        netlist: the circuit; lowered once up front (for lowering
            backends) so every worker inherits the cached lowering.
        config: engine knobs for every worker (default
            :class:`SimulationConfig`); its ``service_workers`` field
            supplies the ``workers`` default.
        workers: worker-process count (>= 1).
        engine_kind: backend (defaults to ``config.engine_kind``).
        max_task_retries: how many times one chunk may crash a worker
            before its batch fails with :class:`ServiceError`.

    The service is single-threaded on the parent side: results are
    collected whenever a :class:`BatchJob` is pumped (``as_completed`` /
    ``wait``).  Use as a context manager, or call :meth:`close`.
    """

    def __init__(
        self,
        netlist: Netlist,
        config: Optional[SimulationConfig] = None,
        workers: Optional[int] = None,
        engine_kind: Optional[str] = None,
        max_task_retries: int = 2,
    ):
        import multiprocessing

        # Set the teardown surface first: close() (and therefore
        # __del__/__exit__) must be safe even when construction aborts
        # before the pool exists — a never-started service closes as a
        # no-op instead of raising AttributeError.
        self._closed = False
        self._workers: List[_Worker] = []

        self.netlist = netlist
        self.config = config if config is not None else SimulationConfig()
        self.config.validate()
        self.engine_kind = (
            engine_kind if engine_kind is not None else self.config.engine_kind
        )
        if workers is None:
            workers = self.config.service_workers
        if workers < 1:
            raise ServiceError("workers must be >= 1, got %d" % workers)
        self.workers = workers
        if max_task_retries < 0:
            raise ServiceError("max_task_retries must be >= 0")
        self.max_task_retries = max_task_retries

        #: workers respawned after a crash (monitoring surface).
        self.worker_restarts = 0
        #: in-flight vectors requeued because their worker died.
        self.tasks_requeued = 0

        registry = get_registry()
        self._metrics: Optional[_ServiceMetrics] = (
            _ServiceMetrics(registry)
            if self.config.collect_metrics and registry.enabled
            else None
        )

        # Fail before spawning anything — an unknown kind, or a backend
        # whose optional dependency is missing (the bitparallel engine
        # without numpy), must raise here with the canonical message,
        # not as an opaque crash loop inside freshly spawned workers.
        engine_cls = resolve_engine_class(self.engine_kind)
        engine_cls.ensure_available()
        self.lowering_seconds = 0.0
        if engine_cls.lowers_netlist:
            start = _time.perf_counter()
            netlist.compile()
            self.lowering_seconds = _time.perf_counter() - start

        self._ctx = multiprocessing.get_context()
        self._layout = ResultLayout(netlist)
        self._pending: collections.deque[_Task] = collections.deque()
        self._jobs: Dict[int, BatchJob] = {}
        self._job_seq = itertools.count()
        # Append as we spawn: if worker k fails to start, workers 0..k-1
        # are live children that close() must be able to reap.
        try:
            for worker_id in range(workers):
                self._workers.append(self._spawn_worker(worker_id))
        except BaseException:
            self.close(timeout=1.0)
            raise

    # -- lifecycle -----------------------------------------------------

    def __enter__(self) -> SimulationService:
        return self

    def __exit__(self, *_exc_info) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - GC timing is interpreter's
        with contextlib.suppress(Exception):
            self.close()

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self, timeout: float = 5.0) -> None:
        """Shut the pool down; idempotent and bounded in time.

        Live workers get a poison pill.  Stragglers escalate on a hard
        schedule — join until ``timeout`` expires, then ``terminate()``
        (SIGTERM), then ``kill()`` (SIGKILL) — so ``close()`` returns
        within a small multiple of ``timeout`` even when a worker is
        wedged in native code, already dead, or was never fully started
        (a construction failure leaves an empty pool, which closes as a
        no-op).
        """
        if self._closed:
            return
        self._closed = True
        for worker in self._workers:
            with contextlib.suppress(OSError, ValueError):
                worker.tasks.send(None)  # pragma: no cover - worker gone
        deadline = _time.monotonic() + max(0.0, timeout)
        #: Per-escalation grace; a terminated/killed process reaps in
        #: well under this unless the host is in serious trouble.
        grace = min(1.0, max(0.1, timeout / 4.0)) if timeout > 0 else 0.1
        for worker in self._workers:
            worker.process.join(max(0.0, deadline - _time.monotonic()))
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(grace)
            if worker.process.is_alive():  # pragma: no cover - SIGTERM masked
                worker.process.kill()
                worker.process.join(grace)
            worker.tasks.close()
            worker.results.close()

    def _require_open(self) -> None:
        if self._closed:
            raise ServiceError("service is closed")

    # -- submission ----------------------------------------------------

    def submit_batch(
        self,
        stimuli: Sequence,
        settle: float = 0.0,
        seed: Optional[Mapping[str, int]] = None,
        chunk: Optional[int] = None,
    ) -> BatchJob:
        """Enqueue N stimuli; returns a :class:`BatchJob` handle.

        Vectors start executing immediately on idle workers; results
        are collected whenever the job (or any other job of this
        service) is pumped.

        ``chunk`` packs that many consecutive vectors into one worker
        round trip.  The default (None) splits the batch evenly, one
        chunk of ``ceil(N / workers)`` vectors per worker, so the batch
        pays one round trip per worker rather than per vector.
        ``chunk=1`` gives finest-grained scheduling and crash retry.
        Chunking only changes scheduling: results are bit-identical and
        in input order whatever the chunk size.  A crash retries the
        whole chunk, so one poison vector re-runs its chunk-mates too.
        """
        self._require_open()
        stimuli = list(stimuli)
        if not stimuli:
            raise ServiceError("submit_batch() needs at least one stimulus")
        if chunk is None:
            chunk = even_chunk(len(stimuli), self.workers)
        elif chunk < 1:
            raise ServiceError("chunk must be >= 1, got %d" % chunk)
        job_id = next(self._job_seq)
        job = BatchJob(self, job_id, len(stimuli))
        self._jobs[job_id] = job
        seed = dict(seed) if seed else None
        submitted_at = (
            _time.perf_counter() if self._metrics is not None else None
        )
        for start in range(0, len(stimuli), chunk):
            indices = list(range(start, min(start + chunk, len(stimuli))))
            task = _Task(job_id, indices, stimuli[start:start + chunk],
                         settle, seed)
            task.submitted_at = submitted_at
            self._pending.append(task)
        self._dispatch()
        return job

    def run_batch(
        self,
        stimuli: Sequence,
        settle: float = 0.0,
        seed: Optional[Mapping[str, int]] = None,
    ) -> BatchResult:
        """Submit, wait, and wrap the results as a :class:`BatchResult`.

        ``lowering_seconds`` reports the (one-off) lowering paid at
        service construction — 0.0 from the second batch on is the whole
        point of keeping the pool warm.
        """
        wall_start = _time.perf_counter()
        lowering = self.lowering_seconds
        self.lowering_seconds = 0.0
        results = self.submit_batch(stimuli, settle=settle, seed=seed).wait()
        batch = BatchResult(
            results=results,
            engine_kind=self.engine_kind,
            jobs=self.workers,
            lowering_seconds=lowering,
            wall_seconds=_time.perf_counter() - wall_start,
        )
        if self._metrics is not None:
            _publish_batch_metrics(batch, mode="service")
        return batch

    # -- the pump ------------------------------------------------------

    def _pump(self) -> None:
        """One scheduling round: dispatch, then wait briefly for a result.

        Called from :class:`BatchJob` waits; safe to call repeatedly.
        """
        self._require_open()
        self._dispatch()
        ready = _wait_connections(
            [worker.results for worker in self._workers],
            timeout=_POLL_SECONDS,
        )
        if not ready:
            self._reap_dead_workers()
            return
        for worker_id, worker in enumerate(self._workers):
            if worker.results not in ready:
                continue
            try:
                message = worker.results.recv()
            except EOFError:
                # The worker exited: its end of the pipe closed with it.
                self._restart_worker(worker_id)
                continue
            self._handle_message(worker_id, message)

    def _dispatch(self) -> None:
        """Hand pending tasks to idle live workers (one in flight each)."""
        if not self._pending:
            return
        for worker_id, worker in enumerate(self._workers):
            if not self._pending:
                break
            if worker.current is not None:
                continue
            if not worker.process.is_alive():
                self._restart_worker(worker_id)
                worker = self._workers[worker_id]
            task = self._next_live_task()
            if task is None:
                break
            worker.current = task
            if self._metrics is not None:
                now = _time.perf_counter()
                task.dispatched_at = now
                if task.submitted_at is not None:
                    self._metrics.queue_wait.observe(now - task.submitted_at)
                self._metrics.chunk_vectors.observe(float(len(task.indices)))
            try:
                worker.tasks.send((
                    task.job_id, task.indices, task.stimuli, task.settle,
                    task.seed,
                ))
            except OSError:
                # The worker died after is_alive() said otherwise: its
                # read end is closed.  A crash like any other.
                self._restart_worker(worker_id)
            except Exception as error:  # noqa: BLE001 - failed to pickle
                # Pickling runs before the first byte is written, so the
                # pipe is clean and the worker stays idle.
                worker.current = None
                self._fail_job(task.job_id, ServiceError(
                    "%s could not be sent to a worker: %s: %s"
                    % (_describe_chunk(task.indices), type(error).__name__,
                       error)
                ))

    def _next_live_task(self) -> Optional[_Task]:
        """Pop the next pending task whose job has not already failed."""
        while self._pending:
            task = self._pending.popleft()
            job = self._jobs.get(task.job_id)
            if job is not None and job._error is None:
                return task
        return None

    def _fail_job(self, job_id: int, error: ServiceError) -> None:
        job = self._jobs.pop(job_id, None)
        if job is not None:
            job._fail(error)

    def _handle_message(self, worker_id: int, message) -> None:
        kind, job_id = message[0], message[1]
        worker = self._workers[worker_id]
        # Every message carries the worker's metrics delta last.
        self._fold_worker_delta(message[-1])
        job = self._jobs.get(job_id)
        if kind == "error":
            index, type_name, detail = message[2], message[3], message[4]
            task = worker.current
            if task is not None and task.job_id == job_id and index in task.indices:
                worker.current = None
                self._observe_task(task, "error")
            _LOG.warning(
                "vector failed in worker",
                extra={
                    "worker_id": worker_id, "job_id": job_id,
                    "index": index, "error_type": type_name,
                },
            )
            self._fail_job(job_id, ServiceError(
                "vector %d failed in worker %d: %s: %s"
                % (index, worker_id, type_name, detail)
            ))
            return
        indices, records, payload = message[2:5]
        task = worker.current
        if task is not None and (task.job_id, task.indices) == (job_id, indices):
            worker.current = None
            self._observe_task(task, "ok")
        if job is None or job._error is not None:
            return
        for index, result in zip(
            indices, unpack_chunk(records, payload, self._layout)
        ):
            job._store(index, result)
        if job.done:
            # The handle keeps its own results; the registry must not
            # grow without bound over a long-running service.
            self._jobs.pop(job_id, None)

    # -- metrics plumbing ----------------------------------------------

    def _fold_worker_delta(self, delta) -> None:
        """Fold one worker's metrics delta into the parent registry."""
        if delta is None or self._metrics is None:
            return
        try:
            self._metrics.registry.fold_delta(delta)
        except (ValueError, KeyError, TypeError):
            # A malformed or incompatible delta must never fail the
            # simulation result it rode in on.
            _LOG.warning("dropping unmergeable worker metrics delta")

    def _observe_task(self, task: _Task, outcome: str) -> None:
        """Account one finished dispatch (latency + outcome counter)."""
        if self._metrics is None:
            return
        self._metrics.tasks.inc(outcome=outcome)
        if task.dispatched_at is not None:
            self._metrics.task_seconds.observe(
                _time.perf_counter() - task.dispatched_at, outcome=outcome
            )

    # -- failure handling ----------------------------------------------

    def _reap_dead_workers(self) -> None:
        """Respawn dead workers, requeueing their in-flight chunks."""
        for worker_id, worker in enumerate(self._workers):
            if worker.process.is_alive():
                continue
            self._restart_worker(worker_id)

    def _restart_worker(self, worker_id: int) -> None:
        dead = self._workers[worker_id]
        dead.process.join(timeout=0.1)
        dead.tasks.close()
        # A result the worker sent in full before dying still counts:
        # its chunk is then done and is not re-run.  A message cut off
        # mid-send reads as EOF.
        while True:
            try:
                if not dead.results.poll():
                    break
                message = dead.results.recv()
            except (EOFError, OSError):
                break
            self._handle_message(worker_id, message)
        dead.results.close()
        self.worker_restarts += 1
        if self._metrics is not None:
            self._metrics.restarts.inc()
        _LOG.warning(
            "worker died; respawning",
            extra={
                "worker_id": worker_id,
                "exitcode": dead.process.exitcode,
                "generation": dead.generation,
            },
        )
        replacement = self._spawn_worker(
            worker_id, generation=dead.generation + 1
        )
        self._workers[worker_id] = replacement
        task = dead.current
        if task is None:
            return
        task.attempts += 1
        if task.attempts > self.max_task_retries:
            if self._metrics is not None:
                self._metrics.exhausted.inc()
            self._observe_task(task, "exhausted")
            _LOG.error(
                "crash-retry budget exhausted; failing job",
                extra={
                    "worker_id": worker_id, "job_id": task.job_id,
                    "indices": task.indices, "attempts": task.attempts,
                    "max_task_retries": self.max_task_retries,
                },
            )
            self._fail_job(task.job_id, ServiceError(
                "%s crashed its worker %d times (max_task_retries=%d)"
                % (_describe_chunk(task.indices), task.attempts,
                   self.max_task_retries)
            ))
            return
        self.tasks_requeued += len(task.indices)
        if self._metrics is not None:
            self._metrics.requeued.inc(len(task.indices))
        self._observe_task(task, "requeued")
        _LOG.warning(
            "requeueing in-flight chunk after worker crash",
            extra={
                "worker_id": worker_id, "job_id": task.job_id,
                "indices": task.indices, "attempts": task.attempts,
            },
        )
        self._pending.appendleft(task)

    # -- worker spawning -----------------------------------------------

    def _spawn_worker(self, worker_id: int, generation: int = 0) -> _Worker:
        tasks, task_sender = self._ctx.Pipe(duplex=False)
        results, sender = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=_worker_main,
            args=(
                worker_id,
                self.netlist,
                self.config,
                self.engine_kind,
                tasks,
                sender,
            ),
            daemon=True,
            name="halotis-worker-%d" % worker_id,
        )
        process.start()
        # The worker now holds the only task read end and the only result
        # write end: a task send raises BrokenPipeError and the result
        # pipe reads EOF once it exits.
        tasks.close()
        sender.close()
        return _Worker(process, task_sender, results, generation)
