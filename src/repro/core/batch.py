"""Batched multi-vector simulation: lower once, simulate many.

The single-shot front end (:func:`repro.core.engine.simulate`) pays per
call for engine construction and — on the compiled backend — for the
struct-of-arrays lowering (amortised by the cache on the netlist, but
still per-object bookkeeping).  Throughput workloads ask a different
question: *one* circuit, *N* stimulus sequences.  This module answers it
the way LightningSim/GSIM-style simulators do — compile the circuit
once, then stream every vector through reused simulator state:

* :func:`simulate_batch` builds one engine (one
  :class:`~repro.core.compiled.CompiledNetlist` lowering for the
  compiled backend) and replays each :class:`VectorSequence` through it
  via :func:`repro.core.engine.run_stimulus`.  Re-initialisation resets
  all dynamic state, so vector ``i`` of a batch is bit-identical to a
  standalone ``simulate()`` of the same stimulus (parity-tested in
  ``tests/core/test_batch.py``).
* With ``service=...`` the batch runs on a live
  :class:`repro.core.service.SimulationService` — a persistent pool
  whose workers built their engines once and stay warm across calls,
  returning traces as packed records.  That is the steady-state
  path for serving many batches of the same circuit.
* With ``jobs > 1`` the call opens an ephemeral service of ``jobs``
  workers, runs the batch on it and closes it: one multiprocess path,
  one crash/retry story.  Results come back in input order with
  ``result.simulator`` set to None (engines do not cross process
  boundaries).

Both the in-process path and every service worker run their vectors
through :func:`run_chunk`, so the lockstep rule lives in one place.

:class:`BatchResult` wraps the per-vector
:class:`~repro.core.engine.SimulationResult` list with aggregate
statistics and wall-clock accounting.
"""

from __future__ import annotations

import dataclasses
import time as _time
from typing import Iterator, List, Mapping, Optional, Sequence

from ..circuit.netlist import Netlist
from ..config import SimulationConfig
from ..errors import SimulationError
from .engine import (
    EngineBase,
    SimulationResult,
    make_engine,
    resolve_engine_class,
    run_stimulus,
)
from .stats import SimulationStatistics


@dataclasses.dataclass
class BatchResult:
    """Results of one :func:`simulate_batch` call.

    Attributes:
        results: one :class:`SimulationResult` per input stimulus, in
            input order.
        engine_kind: backend every vector ran on.
        jobs: worker processes used (1 = in-process).
        lowering_seconds: wall-clock spent lowering the netlist up
            front (0.0 when the lowering was already cached or the
            backend does not lower).
        wall_seconds: end-to-end wall-clock of the whole batch,
            including any worker spawn and shutdown.
    """

    results: List[SimulationResult]
    engine_kind: str
    jobs: int
    lowering_seconds: float
    wall_seconds: float
    #: batch-level observability summary (vector count, throughput,
    #: wall/lowering split), filled when ``config.collect_metrics`` and
    #: the process metrics registry are enabled; None otherwise.
    #: Deliberately cheap: no per-vector aggregation happens here (lazy
    #: lane statistics stay lazy).
    metrics: Optional[dict] = None

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self) -> Iterator[SimulationResult]:
        return iter(self.results)

    def __getitem__(self, index: int) -> SimulationResult:
        return self.results[index]

    def aggregate_stats(self) -> SimulationStatistics:
        """Counters summed over every vector of the batch.

        Aggregation iterates the dataclass fields, so counters added to
        :class:`SimulationStatistics` later are summed automatically
        (numeric fields add, dict fields merge per key).
        ``runtime_seconds`` is the summed in-kernel time; compare with
        ``wall_seconds`` for the batching/worker overhead.
        """
        total = SimulationStatistics()
        fields = dataclasses.fields(SimulationStatistics)
        for result in self.results:
            for field in fields:
                value = getattr(result.stats, field.name)
                if isinstance(value, dict):
                    merged = getattr(total, field.name)
                    for key, count in value.items():
                        merged[key] = merged.get(key, 0) + count
                else:
                    setattr(
                        total, field.name, getattr(total, field.name) + value
                    )
        return total

    def per_vector_seconds(self) -> List[float]:
        """In-kernel wall-clock of each vector's run."""
        return [result.stats.runtime_seconds for result in self.results]

    def activity_summary(self):
        """Whole-batch switching activity (total + per-net toggles).

        Returns an :class:`repro.analysis.activity.ActivitySummary`
        built from the per-vector toggle counters — the one accessor
        shared by the Table 1 activity benchmarks and the bit-parallel
        popcount path, so no caller re-walks traces to count edges.
        """
        from ..analysis.activity import activity_summary

        return activity_summary(result.stats for result in self.results)

    def format(self) -> str:
        """Multi-line human-readable batch summary."""
        count = len(self.results)
        lines = [
            "vectors:                %d" % count,
            "engine:                 %s" % self.engine_kind,
            "jobs:                   %d" % self.jobs,
            "lowering:               %.4f s" % self.lowering_seconds,
            "batch wall-clock:       %.4f s" % self.wall_seconds,
        ]
        if count:
            lines.append(
                "amortised per vector:   %.6f s" % (self.wall_seconds / count)
            )
        lines.append("--- aggregate over all vectors ---")
        lines.append(self.aggregate_stats().format())
        return "\n".join(lines)


def even_chunk(total: int, parts: int) -> int:
    """Vectors per chunk that split ``total`` vectors evenly over
    ``parts`` workers: ``ceil(total / parts)``, so each worker gets one
    chunk and a batch pays one dispatch per worker, not per vector."""
    return max(1, -(-total // parts))


def run_chunk(
    engine: EngineBase,
    stimuli: Sequence,
    settle: float = 0.0,
    seed: Optional[Mapping[str, int]] = None,
) -> Iterator[SimulationResult]:
    """Run one chunk of vectors on ``engine``, yielding results in order.

    The single chunk runner behind in-process :func:`simulate_batch` and
    every :class:`~repro.core.service.SimulationService` worker.  A
    backend with ``lockstep_batches`` (``engine_kind="bitparallel"``)
    advances a fault-free chunk through one kernel, one vector per *bit*
    of a lane word
    (:meth:`repro.core.bitparallel.BitParallelSimulator.run_lockstep_batch`,
    which also runs the STA oracle over the batch) — per-lane logic
    values stay bit-identical while event timing follows that backend's
    CDM-grade word contract (docs/architecture.md).  Every other chunk
    replays vector by vector through :func:`repro.core.engine.run_stimulus`.

    Faulted stimuli (:mod:`repro.faults`) patch the shared lowering per
    vector, while a lockstep kernel runs all lanes over *one* lowering,
    so a chunk with any fault in it goes to
    :func:`repro.faults.differential.run_faulted_chunk` instead: on the
    compiled kernel (which the lockstep backend inherits) each mutant
    re-runs only its fault's fanout cone against a golden run the
    engine records once; other engines and the cases listed there
    replay vector by vector, injecting and restoring around each.
    Results are yielded one by one, so a caller catching an exception
    knows which vector raised it.
    """
    engine_cls = type(engine)
    if any(getattr(stimulus, "fault", None) is not None for stimulus in stimuli):
        # Lazy: faults sits above core.  Building a FaultedStimulus
        # imports the faults package, which loads this module too.
        from ..faults.differential import run_faulted_chunk

        yield from run_faulted_chunk(engine, stimuli, settle=settle, seed=seed)
        return
    if engine_cls.lockstep_batches:
        yield from engine_cls.run_lockstep_batch(
            engine.netlist, stimuli, config=engine.config, settle=settle,
            seed=seed,
        )
        return
    for stimulus in stimuli:
        yield run_stimulus(engine, stimulus, settle=settle, seed=seed)


def simulate_batch(
    netlist: Netlist,
    stimuli: Sequence,
    config: Optional[SimulationConfig] = None,
    settle: float = 0.0,
    seed: Optional[Mapping[str, int]] = None,
    engine_kind: Optional[str] = None,
    jobs: Optional[int] = None,
    service=None,
) -> BatchResult:
    """Run N stimulus sequences through one circuit, lowering it once.

    Every entry of ``stimuli`` follows the
    :class:`repro.stimuli.vectors.VectorSequence` protocol; ``config``,
    ``settle``, ``seed`` and ``engine_kind`` mean
    exactly what they mean for :func:`repro.core.engine.simulate` and
    apply to every vector.  Result ``i`` is bit-identical to
    ``simulate(netlist, stimuli[i], ...)``.  The vectors run through
    :func:`run_chunk`, so a backend with ``lockstep_batches`` takes its
    lockstep fast path.

    ``jobs`` (default ``config.batch_jobs``) > 1 runs the batch on an
    ephemeral :class:`repro.core.service.SimulationService` of that
    many workers, opened for this call and closed before it returns:
    one chunk per worker, each through its own :func:`run_chunk` (so
    each worker runs its own lockstep kernel), a crashed worker
    respawned and its chunk retried, and a chunk that keeps crashing
    failing the call with :class:`~repro.errors.ServiceError`.

    ``service`` routes the batch through a live
    :class:`repro.core.service.SimulationService` instead: the warm
    pool's engines do the work, nothing is re-lowered or re-spawned,
    and ``jobs`` is ignored (the service's own worker count applies).
    The service must have been built for the same netlist, and any
    ``config``/``engine_kind`` given here must match the
    service's — its workers were constructed with those knobs and
    cannot change them per call.
    """
    stimuli = list(stimuli)
    if not stimuli:
        raise SimulationError("simulate_batch() needs at least one stimulus")
    if service is not None:
        return _simulate_via_service(
            service, netlist, stimuli, config, settle, seed, engine_kind,
        )
    if config is None:
        config = SimulationConfig()
    config.validate()
    if engine_kind is None:
        engine_kind = config.engine_kind
    if jobs is None:
        jobs = config.batch_jobs
    if jobs < 1:
        raise SimulationError("jobs must be >= 1, got %d" % jobs)
    jobs = min(jobs, len(stimuli))

    wall_start = _time.perf_counter()
    if jobs > 1:
        from .service import SimulationService

        # The service pays the lowering once, before its workers fork.
        with SimulationService(
            netlist, config=config, workers=jobs, engine_kind=engine_kind,
        ) as pool:
            lowering_seconds = pool.lowering_seconds
            results = pool.submit_batch(stimuli, settle=settle, seed=seed).wait()
        mode = "service"
    else:
        # Pay the lowering once, up front.  Whether a backend lowers at
        # all comes from the registry, not from a hard-coded name.
        lowering_seconds = 0.0
        if resolve_engine_class(engine_kind).lowers_netlist:
            lowering_start = _time.perf_counter()
            netlist.compile()
            lowering_seconds = _time.perf_counter() - lowering_start
        engine = make_engine(netlist, config=config, engine_kind=engine_kind)
        results = list(run_chunk(engine, stimuli, settle=settle, seed=seed))
        mode = "inprocess"

    batch = BatchResult(
        results=results,
        engine_kind=engine_kind,
        jobs=jobs,
        lowering_seconds=lowering_seconds,
        wall_seconds=_time.perf_counter() - wall_start,
    )
    if config.collect_metrics:
        _publish_batch_metrics(batch, mode)
    return batch


def _publish_batch_metrics(batch: BatchResult, mode: str) -> None:
    """Batch-level throughput metrics, once per :func:`simulate_batch`.

    Per-vector engine counters are published elsewhere (``run_stimulus``
    per vector, or the lockstep driver per batch); this layer only adds
    what the batch alone knows: vector count, end-to-end wall clock and
    the lowering split.  Labelled by engine and by ``mode``
    (``"inprocess"`` or ``"service"``) so the worker pool's overhead is
    separable.
    """
    from ..obs import get_registry

    registry = get_registry()
    if not registry.enabled:
        return
    labels = {"engine": batch.engine_kind, "mode": mode}
    registry.counter(
        "halotis_batch_runs_total",
        "Completed simulate_batch() calls.",
        ("engine", "mode"),
    ).inc(**labels)
    registry.counter(
        "halotis_batch_vectors_total",
        "Stimulus vectors completed by simulate_batch().",
        ("engine", "mode"),
    ).inc(len(batch.results), **labels)
    registry.histogram(
        "halotis_batch_seconds",
        "End-to-end wall time of one simulate_batch() call.",
        ("engine", "mode"),
    ).observe(batch.wall_seconds, **labels)
    if batch.lowering_seconds:
        registry.histogram(
            "halotis_batch_lowering_seconds",
            "Up-front netlist lowering time paid by one batch.",
            ("engine",),
        ).observe(batch.lowering_seconds, engine=batch.engine_kind)
    batch.metrics = {
        "engine": batch.engine_kind,
        "mode": mode,
        "vectors": len(batch.results),
        "jobs": batch.jobs,
        "wall_seconds": batch.wall_seconds,
        "lowering_seconds": batch.lowering_seconds,
        "vectors_per_second": (
            len(batch.results) / batch.wall_seconds
            if batch.wall_seconds > 0 else 0.0
        ),
    }


def _simulate_via_service(
    service,
    netlist: Netlist,
    stimuli: List,
    config: Optional[SimulationConfig],
    settle: float,
    seed: Optional[Mapping[str, int]],
    engine_kind: Optional[str],
) -> BatchResult:
    """Route a batch through a live warm pool, guarding knob mismatches."""
    from ..errors import ServiceError

    if service.netlist is not netlist:
        raise ServiceError(
            "service was built for a different netlist; construct a "
            "SimulationService for this circuit (engines are warm per "
            "netlist)"
        )
    if config is not None and config is not service.config:
        raise ServiceError(
            "config cannot change per call on a warm service; pass the "
            "config to SimulationService() instead"
        )
    if engine_kind is not None and engine_kind != service.engine_kind:
        raise ServiceError(
            "engine_kind %r does not match the service's %r"
            % (engine_kind, service.engine_kind)
        )
    return service.run_batch(stimuli, settle=settle, seed=seed)
