"""The asyncio network simulation server.

``SimulationServer`` listens on TCP and speaks a newline-delimited JSON
protocol derived from the CLI's ``--stdin-vectors`` wire format (one
frame per line, shared codec: :mod:`repro.io_formats.jsonl_protocol`).

Request frames are objects with an ``op``, an optional caller-chosen
``id`` and op-specific fields; every request gets exactly one response
frame echoing the ``id``::

    {"id": 7, "op": "simulate", "netlist": "c17", "vector": {...}}
    {"id": 7, "ok": true, "op": "simulate", "result": {...}}
    {"id": 8, "ok": false, "error": {"kind": "busy", "message": "..."}}

Because each frame is served by its own task, responses come back in
**completion order**, not submission order — a client that pipelines
requests (several in flight on one connection) matches responses by
``id``.  Ops: ``ping``, ``register``, ``unregister``, ``list``,
``simulate``, ``batch``, ``sta``, ``faults``, ``stats``, ``metrics``,
``shutdown``.

Execution model: the event loop never simulates.  Each registered
netlist (see :class:`~repro.server.registry.NetlistRegistry`) owns a
single dispatch thread driving its warm
:class:`~repro.core.service.SimulationService` pool; the loop hands the
decoded stimuli over, enforces the per-netlist ``queue_depth`` bound
(rejecting the overflow immediately with a ``busy`` error frame — bounded
memory under overload), and JSON-encodes the results on the way back.
Full-fidelity results make the wire *bit-identical* to a local
``simulate()``; ``"full": false`` asks for the compact summary instead.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import socket as _socket
import threading
import time
from typing import Dict, List, Optional, Sequence, Set

from .. import __version__
from ..config import SimulationConfig
from ..core.engine import SimulationResult
from ..errors import (
    ParseError,
    ReproError,
    ServerError,
    SimulationError,
    StimulusError,
)
from ..io_formats import jsonl_protocol
from ..obs.log import get_logger
from ..obs.prometheus import render
from ..obs.registry import MetricsRegistry, get_registry
from .registry import NetlistEntry, NetlistRegistry

_LOG = get_logger("server")

#: How long graceful shutdown waits for in-flight frames/connections.
_DRAIN_SECONDS = 10.0

#: Default per-line bound on the stream reader.  Frames are JSON lines;
#: a full-trace batch result or a shipped .bench easily passes asyncio's
#: 64 KiB default, while an outright unbounded reader would let one
#: client buffer arbitrary memory.
_MAX_FRAME_BYTES = 32 * 1024 * 1024


def _error_kind(error: BaseException) -> str:
    """Map an exception to its wire error kind."""
    if isinstance(error, ServerError):
        return error.kind
    if isinstance(error, StimulusError):
        return "invalid-stimulus"
    if isinstance(error, ParseError):
        return "bad-frame"
    if isinstance(error, SimulationError):  # includes ServiceError
        return "simulation-error"
    if isinstance(error, ReproError):
        return "error"
    return "internal"


class _ServerMetrics:
    """The server's instrument handles, resolved once at construction.

    Built only when ``config.collect_metrics`` is on and the process
    registry is enabled; every call site guards on
    ``self._metrics is not None``.  Label budgets are structurally
    bounded — ``op`` comes from the fixed op table (anything else is
    folded to ``(invalid)``), ``kind`` from the closed error-kind set,
    ``netlist`` by the registry's ``max_netlists`` cap.
    """

    __slots__ = (
        "registry", "requests", "request_seconds", "inflight",
        "connections", "open_connections", "busy", "bad_frames",
        "errors", "vectors",
    )

    def __init__(self, registry: MetricsRegistry):
        self.registry = registry
        self.requests = registry.counter(
            "halotis_server_requests_total",
            "Request frames served, by op and ok/error status.",
            ("op", "status"),
        )
        self.request_seconds = registry.histogram(
            "halotis_server_request_seconds",
            "Frame-decode-to-response latency of one request, by op.",
            ("op",),
        )
        self.inflight = registry.gauge(
            "halotis_server_inflight_requests",
            "Request frames currently being served.",
        )
        self.connections = registry.counter(
            "halotis_server_connections_total",
            "Client connections accepted over the server's lifetime.",
        )
        self.open_connections = registry.gauge(
            "halotis_server_open_connections",
            "Client connections currently open.",
        )
        self.busy = registry.counter(
            "halotis_server_busy_rejections_total",
            "Requests refused with a busy frame (backpressure).",
        )
        self.bad_frames = registry.counter(
            "halotis_server_bad_frames_total",
            "Frames that failed to parse or named an unknown op.",
        )
        self.errors = registry.counter(
            "halotis_server_errors_total",
            "Error response frames, by wire error kind.",
            ("kind",),
        )
        self.vectors = registry.counter(
            "halotis_server_vectors_total",
            "Stimulus vectors completed, by netlist.",
            ("netlist",),
        )


class SimulationServer:
    """A multi-netlist simulation server over warm service pools.

    Args:
        host / port: bind address; ``port=0`` takes an ephemeral port
            (read :attr:`port` after :meth:`wait_ready`).  Defaults come
            from ``config.server_host`` / ``config.server_port``.
        max_netlists / queue_depth: registry capacity and per-netlist
            backpressure bound (defaults from the config's
            ``server_max_netlists`` / ``server_queue_depth``).
        pool_workers: default warm-pool size per netlist (defaults from
            ``config.service_workers``); a registration may override it.
        config: base :class:`SimulationConfig` cloned into every
            registered netlist's pool.

    Run blocking with :meth:`run` (the CLI's ``repro serve``), or on a
    thread::

        server = SimulationServer(port=0)
        threading.Thread(target=server.run, daemon=True).start()
        server.wait_ready()
        ... SimulationClient("127.0.0.1", server.port) ...
        server.stop()
    """

    def __init__(
        self,
        host: Optional[str] = None,
        port: Optional[int] = None,
        max_netlists: Optional[int] = None,
        pool_workers: Optional[int] = None,
        queue_depth: Optional[int] = None,
        config: Optional[SimulationConfig] = None,
        max_frame_bytes: int = _MAX_FRAME_BYTES,
    ):
        self.config = config if config is not None else SimulationConfig()
        self.config.validate()
        self.host = host if host is not None else self.config.server_host
        self.port = port if port is not None else self.config.server_port
        self.registry = NetlistRegistry(
            max_netlists=(
                max_netlists if max_netlists is not None
                else self.config.server_max_netlists
            ),
            default_workers=(
                pool_workers if pool_workers is not None
                else self.config.service_workers
            ),
            queue_depth=(
                queue_depth if queue_depth is not None
                else self.config.server_queue_depth
            ),
            default_config=self.config,
        )
        registry = get_registry()
        self._metrics: Optional[_ServerMetrics] = (
            _ServerMetrics(registry)
            if self.config.collect_metrics and registry.enabled
            else None
        )
        #: vectors completed across all netlists (monitoring surface).
        self.vectors_served = 0
        #: requests refused with a ``busy`` frame.
        self.busy_rejections = 0
        #: frames that failed to parse or named an unknown op.
        self.bad_frames = 0
        if max_frame_bytes < 1024:
            raise ServerError("max_frame_bytes must be >= 1024")
        self.max_frame_bytes = max_frame_bytes
        #: why startup failed (e.g. the port was taken); None while fine.
        self.startup_error: Optional[BaseException] = None
        self._ready = threading.Event()
        self._stopped = threading.Event()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._connections: Set[asyncio.StreamWriter] = set()
        self._frame_tasks: Set[asyncio.Task] = set()
        self._thread: Optional[threading.Thread] = None
        self._started = time.monotonic()

    # -- lifecycle -----------------------------------------------------

    def run(self) -> None:
        """Serve until :meth:`stop` (or a ``shutdown`` frame); blocking."""
        asyncio.run(self.serve())

    async def serve(self) -> None:
        """The server coroutine behind :meth:`run`.

        A bind failure (port taken, bad host) is recorded on
        :attr:`startup_error` and wakes :meth:`wait_ready` /
        :meth:`wait_stopped` immediately — waiters must not sit out
        their full timeout for an instant failure.
        """
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        self._started = time.monotonic()
        try:
            server = await asyncio.start_server(
                self._handle_connection, host=self.host, port=self.port,
                limit=self.max_frame_bytes,
            )
        except OSError as error:
            self.startup_error = error
            self._stopped.set()
            self._ready.set()  # wake waiters; wait_ready reports False
            return
        self.port = server.sockets[0].getsockname()[1]
        self._ready.set()
        try:
            await self._stop_event.wait()
        finally:
            # Drain discipline: (1) stop accepting; (2) let in-flight
            # frames finish and *deliver their responses* on the still-
            # open connections; (3) close the connections (this is what
            # unblocks handlers idling in readline(), so it must happen
            # before any wait_closed() — on Python >= 3.12.1 that call
            # blocks until every handler returns); (4) tear the pools
            # down.
            server.close()
            deadline = time.monotonic() + _DRAIN_SECONDS
            while self._frame_tasks and time.monotonic() < deadline:
                await asyncio.sleep(0.02)
            for writer in list(self._connections):
                self._close_writer(writer)
            while self._connections and time.monotonic() < deadline:
                await asyncio.sleep(0.02)
            with contextlib.suppress(TimeoutError):  # wedged client
                await asyncio.wait_for(
                    server.wait_closed(),
                    max(0.1, deadline - time.monotonic()),
                )
            await asyncio.to_thread(self.registry.close)
            self._ready.clear()
            self._stopped.set()

    def wait_ready(self, timeout: float = 10.0) -> bool:
        """Block until the listening socket is bound (thread-safe).

        False when the timeout passed *or* startup failed — check
        :attr:`startup_error` to tell the two apart.
        """
        return self._ready.wait(timeout) and self.startup_error is None

    def stop(self) -> None:
        """Request shutdown from any thread; idempotent."""
        loop, event = self._loop, self._stop_event
        if loop is None or event is None or loop.is_closed():
            return
        with contextlib.suppress(RuntimeError):
            loop.call_soon_threadsafe(event.set)  # pragma: no cover - races

    def wait_stopped(self, timeout: float = 30.0) -> bool:
        """Block until :meth:`serve` finished tearing down (thread-safe)."""
        return self._stopped.wait(timeout)

    def start_background(self, timeout: float = 30.0) -> SimulationServer:
        """Run the server on a daemon thread; returns once it is bound.

        The one blessed way to host a server inside another process
        (the CLI, experiment drivers, tests, benchmarks).  Raises
        :class:`ServerError` when startup fails, carrying the OS error.
        """
        if self._thread is not None:
            raise ServerError("server was already started")
        self._thread = threading.Thread(
            target=self.run, name="halotis-server", daemon=True
        )
        self._thread.start()
        if not self.wait_ready(timeout):
            detail = self.startup_error
            self.stop()
            self.wait_stopped(5.0)
            self._thread.join(5.0)
            raise ServerError(
                "server failed to bind %s:%s%s"
                % (self.host, self.port,
                   ": %s" % detail if detail else " (startup timeout)"),
                kind="connection",
            )
        return self

    def stop_and_join(self, timeout: float = 30.0) -> bool:
        """Stop a background server and join its thread; True on clean exit."""
        self.stop()
        stopped = self.wait_stopped(timeout)
        thread = self._thread
        if thread is not None:
            thread.join(5.0)
            return stopped and not thread.is_alive()
        return stopped

    @property
    def uptime_seconds(self) -> float:
        return time.monotonic() - self._started

    # -- connection handling -------------------------------------------

    def _close_writer(self, writer: asyncio.StreamWriter) -> None:
        with contextlib.suppress(Exception):
            writer.close()  # pragma: no cover - transport already gone

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        # Response frames must not wait out Nagle/delayed-ACK stalls
        # behind each other (the client pipelines; see client.py).
        sock = writer.get_extra_info("socket")
        if sock is not None:
            with contextlib.suppress(OSError):  # transport without TCP
                sock.setsockopt(_socket.IPPROTO_TCP, _socket.TCP_NODELAY, 1)
        self._connections.add(writer)
        if self._metrics is not None:
            self._metrics.connections.inc()
            self._metrics.open_connections.inc()
        _LOG.debug(
            "connection opened",
            extra={"peer": str(writer.get_extra_info("peername"))},
        )
        write_lock = asyncio.Lock()
        frame_tasks: Set[asyncio.Task] = set()
        try:
            while True:
                try:
                    raw = await reader.readline()
                except ValueError:
                    # The line outgrew the stream limit.  The buffer is
                    # beyond resynchronising; report and hang up.
                    await self._write_frame(writer, write_lock, {
                        "id": None, "ok": False, "op": None,
                        "error": {
                            "kind": "frame-too-large",
                            "message": "frame exceeds the server's %d-byte "
                            "line limit; split the batch or ship a smaller "
                            "netlist" % self.max_frame_bytes,
                        },
                    })
                    self.bad_frames += 1
                    if self._metrics is not None:
                        self._metrics.bad_frames.inc()
                    break
                except ConnectionError:
                    break
                if not raw:
                    break
                line = raw.strip()
                if not line:
                    continue
                # One task per frame: a long simulation must not stall
                # the read loop, and responses may complete out of order.
                task = asyncio.ensure_future(
                    self._serve_frame(line, writer, write_lock)
                )
                frame_tasks.add(task)
                self._frame_tasks.add(task)

                def _discard(done: asyncio.Task, local=frame_tasks) -> None:
                    local.discard(done)
                    self._frame_tasks.discard(done)

                task.add_done_callback(_discard)
        finally:
            if frame_tasks:
                await asyncio.gather(*frame_tasks, return_exceptions=True)
            self._close_writer(writer)
            self._connections.discard(writer)
            if self._metrics is not None:
                self._metrics.open_connections.dec()
            _LOG.debug(
                "connection closed",
                extra={"peer": str(writer.get_extra_info("peername"))},
            )

    async def _serve_frame(
        self,
        line: bytes,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
    ) -> None:
        frame_id: object = None
        op: object = None
        # The bounded error kind (closed set from _error_kind) for the
        # metrics label; the raw frame value must never label a series.
        error_kind: Optional[str] = None
        metrics = self._metrics
        start = time.perf_counter()
        if metrics is not None:
            metrics.inflight.inc()
        try:
            try:
                frame = json.loads(line)
            except json.JSONDecodeError as error:
                raise ServerError(
                    "frame is not valid JSON: %s" % error, kind="bad-frame"
                ) from None
            if not isinstance(frame, dict):
                raise ServerError(
                    "frame must be a JSON object, got %s"
                    % type(frame).__name__,
                    kind="bad-frame",
                )
            frame_id = frame.get("id")
            op = frame.get("op")
            handler = self._OPS.get(op)
            if handler is None:
                raise ServerError(
                    "unknown op %r (ops: %s)" % (op, sorted(self._OPS)),
                    kind="bad-op",
                )
            result = await handler(self, frame)
            response = {"id": frame_id, "ok": True, "op": op, "result": result}
        except Exception as error:  # noqa: BLE001 - mapped to a frame
            kind = error_kind = _error_kind(error)
            if kind in ("bad-frame", "bad-op"):
                self.bad_frames += 1
                if metrics is not None:
                    metrics.bad_frames.inc()
            if kind == "internal":
                _LOG.error(
                    "internal error serving frame",
                    extra={
                        "op": op if isinstance(op, str) else None,
                        "error_type": type(error).__name__,
                    },
                )
            response = {
                "id": frame_id,
                "ok": False,
                "op": op if isinstance(op, str) else None,
                "error": {"kind": kind, "message": str(error)},
            }
        if metrics is not None:
            metrics.inflight.dec()
            # Clamp the op label to the fixed op table: the label set
            # must not grow with whatever strings clients send.
            op_label = op if isinstance(op, str) and op in self._OPS else "(invalid)"
            ok = bool(response.get("ok"))
            metrics.requests.inc(op=op_label, status="ok" if ok else "error")
            metrics.request_seconds.observe(
                time.perf_counter() - start, op=op_label
            )
            if not ok:
                metrics.errors.inc(kind=error_kind or "internal")
        try:
            await self._write_frame(writer, write_lock, response)
        finally:
            # A fully processed shutdown must stop the server even when
            # its response could not be delivered (fire-and-forget
            # client, connection dropped after send).
            if isinstance(
                response.get("result"), dict
            ) and response["result"].get("stopping"):
                assert self._stop_event is not None
                self._stop_event.set()

    async def _write_frame(
        self,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
        response: Dict[str, object],
    ) -> None:
        """Serialise and send one response frame; a vanished client is
        not an error (there is nobody left to tell)."""
        payload = json.dumps(response).encode() + b"\n"
        with contextlib.suppress(ConnectionError, RuntimeError):
            async with write_lock:
                writer.write(payload)
                await writer.drain()

    # -- execution -----------------------------------------------------

    async def _run_on_entry(
        self, entry: NetlistEntry, stimuli: Sequence, encode
    ) -> object:
        """Dispatch ``stimuli`` to ``entry``'s pool, enforcing backpressure.

        The bound is on *additional* queueing: an idle netlist admits a
        batch of any size (otherwise one batch larger than
        ``queue_depth`` could never run and "retry" would be a lie), but
        once work is pending, requests that would push past the depth
        are refused with a retryable ``busy`` frame.

        ``encode`` (results → response payload) also runs on the entry's
        dispatch thread: building the JSON-ready dicts for a large
        full-trace batch is real work, and the event loop must stay
        responsive to every other connection while it happens.
        """
        count = len(stimuli)
        if entry.pending and entry.pending + count > self.registry.queue_depth:
            self.busy_rejections += 1
            if self._metrics is not None:
                self._metrics.busy.inc()
            _LOG.warning(
                "rejecting request with busy frame",
                extra={
                    "netlist": entry.name, "pending": entry.pending,
                    "vectors": count,
                    "queue_depth": self.registry.queue_depth,
                },
            )
            raise ServerError(
                "netlist %r is busy: %d vector(s) pending, queue depth %d "
                "(retry, or raise --queue-depth)"
                % (entry.name, entry.pending, self.registry.queue_depth),
                kind="busy",
            )
        work = list(stimuli)

        def job() -> object:
            return encode(entry.run(work))

        entry.pending += count
        try:
            loop = asyncio.get_running_loop()
            payload = await loop.run_in_executor(entry.executor, job)
        finally:
            entry.pending -= count
        entry.vectors_served += count
        self.vectors_served += count
        if self._metrics is not None:
            self._metrics.vectors.inc(count, netlist=entry.name)
        return payload

    def _encode_result(
        self, entry: NetlistEntry, result: SimulationResult,
        index: int, full: bool,
    ) -> Dict[str, object]:
        if full:
            return jsonl_protocol.result_to_dict(result)
        return jsonl_protocol.result_summary(
            result, index,
            [net.name for net in entry.netlist.primary_outputs],
        )

    @staticmethod
    def _decode_stimuli(payloads: Sequence[object]) -> List:
        return [jsonl_protocol.decode_vector(payload) for payload in payloads]

    # -- ops -----------------------------------------------------------

    async def _op_ping(self, _frame: dict) -> Dict[str, object]:
        return {
            "server": "halotis",
            "version": __version__,
            "uptime_seconds": round(self.uptime_seconds, 3),
        }

    async def _op_register(self, frame: dict) -> Dict[str, object]:
        source = frame.get("source")
        if source is None:
            raise ServerError(
                "register needs a 'source' object", kind="bad-frame"
            )
        workers = frame.get("workers")
        if workers is not None and not isinstance(workers, int):
            raise ServerError(
                "workers must be an integer", kind="bad-frame"
            )
        # Netlist construction can take a moment for big circuits; keep
        # the loop responsive (the registry is thread-safe).
        entry, created = await asyncio.to_thread(
            self.registry.register,
            str(frame.get("name", "")),
            source,
            mode=frame.get("mode", "ddm"),
            engine_kind=str(frame.get("engine", "compiled")),
            workers=workers,
            record_traces=bool(frame.get("record_traces", True)),
        )
        payload = entry.describe()
        payload["created"] = created
        return payload

    async def _op_unregister(self, frame: dict) -> Dict[str, object]:
        name = str(frame.get("name", ""))
        self.registry.unregister(name)
        return {"name": name, "closed": True}

    async def _op_list(self, _frame: dict) -> Dict[str, object]:
        return {"netlists": self.registry.describe()}

    async def _op_stats(self, _frame: dict) -> Dict[str, object]:
        return {
            "uptime_seconds": round(self.uptime_seconds, 3),
            "vectors_served": self.vectors_served,
            "busy_rejections": self.busy_rejections,
            "bad_frames": self.bad_frames,
            "max_netlists": self.registry.max_netlists,
            "queue_depth": self.registry.queue_depth,
            "netlists": self.registry.describe(),
            "metrics": (
                None if self._metrics is None
                else self._metrics.registry.snapshot()
            ),
        }

    async def _op_metrics(self, _frame: dict) -> Dict[str, object]:
        """Prometheus text exposition of the server's metrics registry.

        The registry is process-wide, so the text covers every layer
        living in the server process: request/connection metrics, each
        netlist's warm-pool service metrics, and the engine counters the
        workers ship back.  ``enabled`` is False (with empty text) when
        the server runs with ``collect_metrics`` off.
        """
        if self._metrics is None:
            return {"text": "", "enabled": False}
        return {"text": render(self._metrics.registry), "enabled": True}

    async def _op_simulate(self, frame: dict) -> Dict[str, object]:
        entry = self.registry.get(str(frame.get("netlist", "")))
        if "vector" not in frame:
            raise ServerError(
                "simulate needs a 'vector' payload", kind="bad-frame"
            )
        stimuli = self._decode_stimuli([frame["vector"]])
        full = bool(frame.get("full", True))
        payload = await self._run_on_entry(
            entry, stimuli,
            lambda results: self._encode_result(entry, results[0], 0, full),
        )
        return {"netlist": entry.name, "result": payload}

    async def _op_batch(self, frame: dict) -> Dict[str, object]:
        entry = self.registry.get(str(frame.get("netlist", "")))
        vectors = frame.get("vectors")
        if not isinstance(vectors, list) or not vectors:
            raise ServerError(
                "batch needs a non-empty 'vectors' list", kind="bad-frame"
            )
        stimuli = self._decode_stimuli(vectors)
        full = bool(frame.get("full", True))
        payload = await self._run_on_entry(
            entry, stimuli,
            lambda results: [
                self._encode_result(entry, result, index, full)
                for index, result in enumerate(results)
            ],
        )
        return {"netlist": entry.name, "results": payload}

    async def _op_sta(self, frame: dict) -> Dict[str, object]:
        """Static timing analysis of a registered netlist, no simulation.

        Runs :func:`repro.analysis.sta.analyze` (and the hazard pass)
        under the entry's registered config — so the windows bound
        exactly what the entry's ``simulate``/``batch`` ops will run —
        and returns both reports as JSON-ready dicts.  CPU-bound, so it
        runs off-loop; the lowering is the entry's cached one.
        """
        from ..analysis.hazards import analyze_hazards
        from ..analysis.sta import analyze as sta_analyze
        from ..errors import AnalysisError

        entry = self.registry.get(str(frame.get("netlist", "")))
        k_paths = frame.get("k", 4)
        if not isinstance(k_paths, int) or k_paths < 0:
            raise ServerError(
                "k must be a non-negative integer", kind="bad-frame"
            )

        def job() -> Dict[str, object]:
            try:
                report = sta_analyze(
                    entry.netlist, entry.config, k_paths=k_paths
                )
                hazard = analyze_hazards(
                    entry.netlist, entry.config, sta_report=report
                )
            except AnalysisError as error:
                raise ServerError(str(error), kind="analysis") from None
            return {
                "netlist": entry.name,
                "sta": report.to_dict(),
                "hazards": hazard.to_dict(),
            }

        return await asyncio.to_thread(job)

    async def _op_faults(self, frame: dict) -> Dict[str, object]:
        """Run a fault-injection campaign on a registered netlist's pool.

        The frame carries the faultload (as JSON, see
        :mod:`repro.faults.faultload`) and the base vector; the server
        plays golden + mutants through the entry's warm workers — one
        batch, so the campaign rides the same backpressure accounting
        as ``batch`` — classifies server-side and returns the
        :class:`~repro.faults.campaign.DependabilityReport` dict.
        Mutant injection happens inside the workers (each owns a
        private netlist copy) with guaranteed restoration, so the
        entry's lowering stays clean for other clients.
        """
        from ..errors import FaultError
        from ..faults.campaign import classify_results
        from ..faults.faultload import Faultload
        from ..faults.inject import FaultedStimulus

        entry = self.registry.get(str(frame.get("netlist", "")))
        raw_faultload = frame.get("faultload")
        if not isinstance(raw_faultload, dict):
            raise ServerError(
                "faults needs a 'faultload' object", kind="bad-frame"
            )
        if "vector" not in frame:
            raise ServerError(
                "faults needs a 'vector' payload (the base stimulus)",
                kind="bad-frame",
            )
        epsilon = frame.get("epsilon", 0.0)
        if not isinstance(epsilon, (int, float)) or epsilon < 0:
            raise ServerError(
                "epsilon must be a non-negative number", kind="bad-frame"
            )
        try:
            faultload = Faultload.from_dict(raw_faultload)
            faultload.validate(entry.netlist)
        except FaultError as error:
            raise ServerError(str(error), kind="faults") from None
        base = self._decode_stimuli([frame["vector"]])[0]
        stimuli = [base] + [
            FaultedStimulus(base, fault) for fault in faultload.faults
        ]

        def encode(results) -> Dict[str, object]:
            try:
                report = classify_results(
                    entry.netlist, faultload, results[0], results[1:],
                    entry.engine_kind, epsilon=float(epsilon),
                )
            except FaultError as error:
                raise ServerError(str(error), kind="faults") from None
            return report.to_dict()

        payload = await self._run_on_entry(entry, stimuli, encode)
        return {"netlist": entry.name, "report": payload}

    async def _op_shutdown(self, _frame: dict) -> Dict[str, object]:
        # The response flushes first; _serve_frame flips the stop event
        # when it sees the marker below.
        return {"stopping": True}

    _OPS = {
        "ping": _op_ping,
        "register": _op_register,
        "unregister": _op_unregister,
        "list": _op_list,
        "stats": _op_stats,
        "metrics": _op_metrics,
        "simulate": _op_simulate,
        "batch": _op_batch,
        "sta": _op_sta,
        "faults": _op_faults,
        "shutdown": _op_shutdown,
    }
