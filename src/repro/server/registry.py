"""Named netlists, each fronting its own warm simulation pool.

The registry is the server's routing table: a client registers a circuit
under a name (``{"kind": "builtin", ...}`` for the circuits this repo
ships, ``{"kind": "bench", ...}`` for arbitrary ISCAS-85 text), and
every later ``simulate``/``batch`` request routes by that name to the
entry's :class:`~repro.core.service.SimulationService` — created
*lazily*, on the first vector, inside the entry's own dispatch thread so
registration stays cheap and pool spin-up never blocks the event loop.

Threading model: all registry/entry bookkeeping (register, unregister,
the ``pending`` backpressure counter) happens on the server's event-loop
thread; each entry owns a **single-thread** executor that is the only
place its service is ever touched, which is exactly the discipline
:class:`SimulationService` (single-threaded pump) requires.
"""

from __future__ import annotations

import hashlib
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Mapping, Optional, Sequence

from ..circuit import bench_io
from ..circuit.modules import BUILTIN_CIRCUITS
from ..circuit.netlist import Netlist
from ..config import DelayMode, SimulationConfig, cdm_config, ddm_config
from ..core.engine import SimulationResult, resolve_engine_class
from ..core.service import SimulationService
from ..errors import ReproError, ServerError, SimulationError
from ..stimuli.vectors import VectorSequence


def resolve_source(source: Mapping[str, object]) -> Netlist:
    """Build the netlist a registration frame describes.

    ``source`` is ``{"kind": "builtin", "name": ...}`` or
    ``{"kind": "bench", "text": ...}``.  Raises :class:`ServerError`
    (kind ``bad-source``) for anything else, including bench text that
    does not parse.
    """
    if not isinstance(source, Mapping):
        raise ServerError(
            "netlist source must be an object with a 'kind'",
            kind="bad-source",
        )
    kind = source.get("kind")
    if kind == "builtin":
        name = source.get("name")
        if name not in BUILTIN_CIRCUITS:
            raise ServerError(
                "unknown builtin circuit %r (choose from %s)"
                % (name, sorted(BUILTIN_CIRCUITS)),
                kind="bad-source",
            )
        return BUILTIN_CIRCUITS[name]()
    if kind == "bench":
        text = source.get("text")
        if not isinstance(text, str) or not text.strip():
            raise ServerError(
                "bench source needs a non-empty 'text' field",
                kind="bad-source",
            )
        try:
            return bench_io.read_bench(
                text, name=str(source.get("name", "wire")) or "wire"
            )
        except ReproError as error:
            raise ServerError(
                "bench text does not parse: %s" % error, kind="bad-source"
            ) from None
    raise ServerError(
        "netlist source kind must be 'builtin' or 'bench', got %r" % (kind,),
        kind="bad-source",
    )


def _source_fingerprint(source: Mapping[str, object]) -> str:
    kind = source.get("kind")
    if kind == "builtin":
        return "builtin:%s" % source.get("name")
    text = source.get("text")
    digest = hashlib.sha256(
        text.encode() if isinstance(text, str) else b""
    ).hexdigest()
    return "bench:%s" % digest


class NetlistEntry:
    """One registered circuit and its (lazily created) warm pool."""

    def __init__(
        self,
        name: str,
        netlist: Netlist,
        config: SimulationConfig,
        engine_kind: str,
        workers: int,
        fingerprint: str,
    ):
        self.name = name
        self.netlist = netlist
        self.config = config
        self.engine_kind = engine_kind
        self.workers = workers
        self.fingerprint = fingerprint
        #: vectors queued or running on this entry (event-loop thread
        #: only); the registry's ``queue_depth`` bounds it.
        self.pending = 0
        #: vectors completed over this entry's lifetime.
        self.vectors_served = 0
        self._service: Optional[SimulationService] = None
        # One thread == one pump: the service below is only ever touched
        # from this executor, never from the event loop.
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="halotis-serve-%s" % name
        )
        self._closed = False

    @property
    def warm(self) -> bool:
        """True once the first request has spun the pool up."""
        return self._service is not None

    @property
    def executor(self) -> ThreadPoolExecutor:
        return self._executor

    def run(
        self, stimuli: Sequence[VectorSequence]
    ) -> List[SimulationResult]:
        """Simulate ``stimuli`` on the warm pool (dispatch thread only)."""
        if self._closed:
            raise ServerError(
                "netlist %r was unregistered" % self.name,
                kind="unknown-netlist",
            )
        if self._service is None:
            self._service = SimulationService(
                self.netlist,
                config=self.config,
                workers=self.workers,
                engine_kind=self.engine_kind,
            )
        return self._service.submit_batch(stimuli).wait()

    def describe(self) -> Dict[str, object]:
        service = self._service
        return {
            "name": self.name,
            "mode": self.config.delay_mode.value,
            "engine": self.engine_kind,
            "workers": self.workers,
            "record_traces": self.config.record_traces,
            "warm": service is not None,
            "pending": self.pending,
            "vectors_served": self.vectors_served,
            "worker_restarts": 0 if service is None else service.worker_restarts,
        }

    def close(self, wait: bool = True) -> None:
        """Tear the pool down; safe to call twice, never hangs.

        The close runs on the dispatch thread (after any in-flight
        request), leaning on :meth:`SimulationService.close`'s bounded
        escalation for wedged workers.
        """
        if self._closed:
            return
        self._closed = True

        def _shutdown() -> None:
            if self._service is not None:
                self._service.close()
                self._service = None

        try:
            self._executor.submit(_shutdown)
        except RuntimeError:  # pragma: no cover - executor already down
            _shutdown()
        self._executor.shutdown(wait=wait)


class NetlistRegistry:
    """Routing table: netlist name → :class:`NetlistEntry`.

    Args:
        max_netlists: cap on simultaneously registered circuits; each
            costs a dispatch thread plus (once warm) a worker pool.
        default_workers: pool size for entries that do not ask for one.
        queue_depth: per-entry bound on queued-plus-running vectors —
            the backpressure limit behind ``busy`` error frames.
        default_config: base :class:`SimulationConfig` cloned into every
            entry (delay mode / trace recording are overridden per
            registration).
    """

    def __init__(
        self,
        max_netlists: int = 8,
        default_workers: int = 2,
        queue_depth: int = 64,
        default_config: Optional[SimulationConfig] = None,
    ):
        if max_netlists < 1:
            raise ServerError("max_netlists must be >= 1")
        if default_workers < 1:
            raise ServerError("default_workers must be >= 1")
        if queue_depth < 1:
            raise ServerError("queue_depth must be >= 1")
        self.max_netlists = max_netlists
        self.default_workers = default_workers
        self.queue_depth = queue_depth
        self.default_config = default_config
        self._entries: Dict[str, NetlistEntry] = {}  # halolint: guarded-by(_lock)
        self._lock = threading.Lock()

    def __len__(self) -> int:
        # register() mutates from a worker thread (asyncio.to_thread);
        # even size/membership reads must synchronise with it.
        with self._lock:
            return len(self._entries)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._entries

    def names(self) -> List[str]:
        # register() mutates from a worker thread; never iterate the
        # live dict outside the lock.
        with self._lock:
            return sorted(self._entries)

    def register(
        self,
        name: str,
        source: Mapping[str, object],
        mode: str = "ddm",
        engine_kind: str = "compiled",
        workers: Optional[int] = None,
        record_traces: bool = True,
    ) -> tuple[NetlistEntry, bool]:
        """Register ``name``; returns ``(entry, created)``.

        Re-registering an identical (source, knobs) pair is an idempotent
        no-op — clients can blindly register-then-simulate.  The same
        name with *different* source or knobs raises ``conflict``, and a
        registration past ``max_netlists`` raises ``capacity``.
        """
        if not isinstance(name, str) or not name:
            raise ServerError(
                "netlist name must be a non-empty string", kind="bad-frame"
            )
        if mode not in ("ddm", "cdm"):
            raise ServerError(
                "mode must be 'ddm' or 'cdm', got %r" % (mode,),
                kind="bad-frame",
            )
        # Vet the backend at registration time: an unknown kind — or
        # the bitparallel engine on a numpy-less server — must answer this
        # frame, not crash the first simulate on the entry's pool.
        try:
            resolve_engine_class(engine_kind).ensure_available()
        except SimulationError as error:
            raise ServerError(str(error), kind="bad-frame") from None
        if workers is None:
            workers = self.default_workers
        if workers < 1:
            raise ServerError("workers must be >= 1", kind="bad-frame")
        fingerprint = "%s|%s|%s|%d|%s" % (
            _source_fingerprint(source), mode, engine_kind, workers,
            record_traces,
        )

        def _check_existing() -> Optional[NetlistEntry]:  # halolint: locked(_lock)
            existing = self._entries.get(name)
            if existing is None:
                if len(self._entries) >= self.max_netlists:
                    raise ServerError(
                        "server is at capacity (%d netlists registered); "
                        "unregister one first" % len(self._entries),
                        kind="capacity",
                    )
                return None
            if existing.fingerprint == fingerprint:
                return existing
            raise ServerError(
                "netlist %r is already registered with a different "
                "circuit or configuration" % name,
                kind="conflict",
            )

        with self._lock:
            existing = _check_existing()
            if existing is not None:
                return existing, False
        # Build outside the lock: netlist construction can take a while
        # and other registry users (unregister on the event loop, list,
        # concurrent registers) must not stall behind it.
        netlist = resolve_source(source)
        overrides = {
            "delay_mode": DelayMode.DDM if mode == "ddm" else DelayMode.CDM,
            "record_traces": record_traces,
            "engine_kind": engine_kind,
        }
        if self.default_config is not None:
            import dataclasses

            config = dataclasses.replace(self.default_config, **overrides)
        else:
            maker = ddm_config if mode == "ddm" else cdm_config
            config = maker(
                record_traces=record_traces, engine_kind=engine_kind
            )
        entry = NetlistEntry(
            name=name,
            netlist=netlist,
            config=config,
            engine_kind=engine_kind,
            workers=workers,
            fingerprint=fingerprint,
        )
        with self._lock:
            try:
                winner = _check_existing()
            except ServerError:
                entry.close(wait=False)  # lost a race; ours never served
                raise
            if winner is not None:
                entry.close(wait=False)
                return winner, False
            self._entries[name] = entry
            return entry, True

    def get(self, name: str) -> NetlistEntry:
        with self._lock:
            entry = self._entries.get(name)
        if entry is not None:
            return entry
        # Build the error message after releasing: names() re-takes the
        # (non-reentrant) lock.
        raise ServerError(
            "no netlist registered as %r (registered: %s)"
            % (name, self.names() or "none"),
            kind="unknown-netlist",
        )

    def unregister(self, name: str, wait: bool = False) -> None:
        """Drop ``name`` and tear its pool down.

        ``wait=False`` (the default, used by the live server) lets the
        pool drain on its dispatch thread without blocking the caller.
        """
        with self._lock:
            entry = self._entries.pop(name, None)
        if entry is None:
            raise ServerError(
                "no netlist registered as %r" % name, kind="unknown-netlist"
            )
        entry.close(wait=wait)

    def describe(self) -> List[Dict[str, object]]:
        with self._lock:
            entries = [
                self._entries[name] for name in sorted(self._entries)
            ]
        return [entry.describe() for entry in entries]

    def close(self) -> None:
        """Tear every pool down (graceful server shutdown); idempotent."""
        with self._lock:
            entries = list(self._entries.values())
            self._entries.clear()
        for entry in entries:
            entry.close(wait=True)
