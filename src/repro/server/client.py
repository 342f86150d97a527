"""Blocking client for the network simulation server.

:class:`SimulationClient` wraps one TCP connection to a
:class:`~repro.server.app.SimulationServer` and exposes the wire ops as
methods.  Decoded ``simulate``/``simulate_batch`` results are full
:class:`~repro.core.engine.SimulationResult` objects, **bit-identical**
to a local ``simulate()`` of the same vector (the lossless codec in
:mod:`repro.io_formats.jsonl_protocol` carries every transition field).

The client tags every request with a monotonically increasing ``id`` and
matches responses by it, so it also supports *pipelining*: the
``submit_*`` methods send without waiting, and :meth:`result` collects a
specific response later — responses arriving for other pending requests
are parked until asked for.  Error frames raise
:class:`~repro.errors.ServerError` with the wire ``kind`` preserved
(``"busy"`` is the backpressure signal worth retrying).

Typical use::

    with SimulationClient("127.0.0.1", 8047) as client:
        client.register("c17", {"kind": "builtin", "name": "c17"})
        result = client.simulate("c17", stimulus)   # a SimulationResult
"""

from __future__ import annotations

import contextlib
import itertools
import json
import socket
import time
from typing import Dict, List, Mapping, Optional, Sequence

from ..config import SimulationConfig
from ..core.engine import SimulationResult
from ..errors import ReproError, ServerError
from ..io_formats import jsonl_protocol
from ..stimuli.vectors import VectorSequence


def parse_address(
    text: str, default_port: Optional[int] = None
) -> tuple[str, int]:
    """Split ``HOST:PORT`` (or bare ``HOST`` with a default port).

    The CLI's ``--connect`` argument format.  IPv6 literals follow the
    URL convention — bracket them to attach a port (``[::1]:8047``); a
    bare multi-colon host (``::1``) is taken whole, with the default
    port.  Raises :class:`ServerError` (kind ``connection``) on
    malformed input.
    """
    if text.startswith("["):
        host, bracket, rest = text[1:].partition("]")
        if not bracket or (rest and not rest.startswith(":")):
            raise ServerError(
                "malformed address %r (expected [V6HOST]:PORT)" % text,
                kind="connection",
            )
        port_text = rest[1:]
    elif text.count(":") > 1:
        # An unbracketed IPv6 literal: every colon belongs to the host.
        host, port_text = text, ""
    else:
        host, separator, port_text = text.rpartition(":")
        if not separator:
            host, port_text = text, ""
    if not port_text:
        if default_port is None:
            raise ServerError(
                "address %r needs a port (HOST:PORT)" % text,
                kind="connection",
            )
        return (host or "127.0.0.1", default_port)
    try:
        port = int(port_text)
    except ValueError:
        raise ServerError(
            "malformed address %r (expected HOST:PORT)" % text,
            kind="connection",
        ) from None
    if not 0 < port <= 65535:
        raise ServerError(
            "port %d out of range in %r" % (port, text), kind="connection"
        )
    return (host or "127.0.0.1", port)


def wait_for_server(
    host: str, port: int, timeout: float = 10.0
) -> SimulationClient:
    """Poll until a server answers ``ping``; returns a connected client.

    Raises :class:`ServerError` (kind ``connection``) when the deadline
    passes without a successful ping — the readiness gate for scripts
    that just launched ``repro serve`` in the background.
    """
    deadline = time.monotonic() + timeout
    last_error: Optional[Exception] = None
    while time.monotonic() < deadline:
        try:
            # Bounded ping probe; the returned client reverts to
            # unbounded response waits (long batches are legitimate).
            client = SimulationClient(
                host, port, timeout=max(timeout, 1.0),
                connect_timeout=max(timeout, 1.0),
            )
            client.ping()
            client.set_response_timeout(None)
            return client
        except (OSError, ReproError) as error:
            last_error = error
            time.sleep(0.05)
    raise ServerError(
        "no simulation server answering on %s:%d after %.1fs (%s)"
        % (host, port, timeout, last_error),
        kind="connection",
    )


class SimulationClient:
    """One blocking connection to a simulation server."""

    def __init__(
        self,
        host: Optional[str] = None,
        port: Optional[int] = None,
        timeout: Optional[float] = None,
        connect_timeout: float = 10.0,
        config: Optional[SimulationConfig] = None,
    ):
        """``timeout`` bounds each *response* wait (None, the default,
        waits indefinitely — a big batch frame legitimately answers only
        after the whole batch simulated); ``connect_timeout`` bounds the
        TCP connect alone."""
        defaults = config if config is not None else SimulationConfig()
        self.host = host if host is not None else defaults.server_host
        self.port = port if port is not None else defaults.server_port
        self.timeout = timeout
        self._ids = itertools.count(1)
        #: responses that arrived while waiting for a different id.
        self._parked: Dict[int, dict] = {}
        try:
            self._sock = socket.create_connection(
                (self.host, self.port), timeout=connect_timeout
            )
        except OSError as error:
            raise ServerError(
                "cannot connect to %s:%s: %s" % (self.host, self.port, error),
                kind="connection",
            ) from None
        # Request frames are small; without TCP_NODELAY a pipelined
        # second frame can sit out a full delayed-ACK interval (~40 ms)
        # behind the first — Nagle buys nothing on this protocol.
        with contextlib.suppress(OSError):  # e.g. AF_UNIX some day
            self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock.settimeout(timeout)
        self._file = self._sock.makefile("rwb")
        self._closed = False

    # -- lifecycle -----------------------------------------------------

    def __enter__(self) -> SimulationClient:
        return self

    def __exit__(self, *_exc_info) -> None:
        self.close()

    def set_response_timeout(self, timeout: Optional[float]) -> None:
        """Re-bound (or unbound, with None) every later response wait."""
        self.timeout = timeout
        self._sock.settimeout(timeout)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for resource in (self._file, self._sock):
            with contextlib.suppress(OSError):
                resource.close()  # pragma: no cover - peer already gone

    # -- the wire ------------------------------------------------------

    def _broken(self, message: str, kind: str = "connection") -> ServerError:
        """Mark this connection unusable and build the error to raise.

        A timeout or a torn frame leaves the buffered reader desynced —
        a later read could hand back the *tail* of a truncated frame and
        park responses under the wrong ids.  Dead, not degraded.
        """
        self.close()
        return ServerError(message, kind=kind)

    def _send(self, op: str, **fields: object) -> int:
        """Write one request frame; returns its id (pipelining-safe)."""
        if self._closed:
            raise ServerError("client is closed", kind="connection")
        request_id = next(self._ids)
        frame: Dict[str, object] = {"id": request_id, "op": op}
        frame.update(fields)
        try:
            self._file.write(json.dumps(frame).encode() + b"\n")
            self._file.flush()
        except OSError as error:
            raise self._broken(
                "connection to %s:%s lost while sending: %s"
                % (self.host, self.port, error)
            ) from None
        return request_id

    def _read_frame(self) -> dict:
        if self._closed:
            raise ServerError("client is closed", kind="connection")
        try:
            raw = self._file.readline()
        except OSError as error:
            raise self._broken(
                "connection to %s:%s lost: %s" % (self.host, self.port, error)
            ) from None
        if not raw:
            raise self._broken(
                "server %s:%s closed the connection" % (self.host, self.port)
            )
        try:
            frame = json.loads(raw)
        except json.JSONDecodeError as error:
            raise self._broken(
                "undecodable response frame: %s" % error, kind="protocol"
            ) from None
        if not isinstance(frame, dict):
            raise self._broken(
                "response frame is not an object", kind="protocol"
            )
        return frame

    def result(self, request_id: int) -> object:
        """Block until the response for ``request_id`` arrives.

        Responses for *other* pending requests seen meanwhile are parked
        (completion order on the wire is not submission order).  Error
        frames raise :class:`ServerError` carrying the wire ``kind``.
        """
        while request_id not in self._parked:
            frame = self._read_frame()
            key = frame.get("id")
            if isinstance(key, int):
                self._parked[key] = frame
            # Frames with non-integer ids cannot belong to this client's
            # sequence; drop them rather than park unreachable entries.
        frame = self._parked.pop(request_id)
        if frame.get("ok"):
            return frame.get("result")
        error = frame.get("error") or {}
        raise ServerError(
            str(error.get("message", "server reported an error")),
            kind=str(error.get("kind", "error")),
        )

    def call(self, op: str, **fields: object) -> object:
        """Send one request and wait for its response."""
        return self.result(self._send(op, **fields))

    # -- ops -----------------------------------------------------------

    def ping(self) -> dict:
        return self.call("ping")  # type: ignore[return-value]

    def register(
        self,
        name: str,
        source: Mapping[str, object],
        mode: str = "ddm",
        engine_kind: str = "compiled",
        workers: Optional[int] = None,
        record_traces: bool = True,
    ) -> dict:
        fields: Dict[str, object] = {
            "name": name,
            "source": dict(source),
            "mode": mode,
            "engine": engine_kind,
            "record_traces": record_traces,
        }
        if workers is not None:
            fields["workers"] = workers
        return self.call("register", **fields)  # type: ignore[return-value]

    def unregister(self, name: str) -> dict:
        return self.call("unregister", name=name)  # type: ignore[return-value]

    def sta(self, name: str, k_paths: int = 4) -> dict:
        """Static timing + hazard analysis of registered netlist ``name``.

        Returns ``{"netlist", "sta", "hazards"}`` — the server-side
        :class:`repro.analysis.sta.StaReport` and
        :class:`repro.analysis.hazards.HazardReport` dicts, computed
        under the entry's registered config without running a single
        vector.
        """
        return self.call("sta", netlist=name, k=k_paths)  # type: ignore[return-value]

    def faults(
        self,
        name: str,
        faultload: dict,
        stimulus: VectorSequence,
        epsilon: float = 0.0,
    ) -> dict:
        """Run a fault-injection campaign server-side.

        ``faultload`` is a :class:`repro.faults.faultload.Faultload`
        dict (``Faultload.to_dict()``); the server plays golden +
        mutants on the entry's warm pool and returns the
        :class:`repro.faults.campaign.DependabilityReport` dict —
        classification happens server-side, only the report crosses
        the wire.
        """
        payload = self.call(
            "faults",
            netlist=name,
            faultload=faultload,
            vector=jsonl_protocol.encode_vector(stimulus),
            epsilon=epsilon,
        )
        return payload["report"]  # type: ignore[index]

    def list_netlists(self) -> List[dict]:
        payload = self.call("list")
        return payload["netlists"]  # type: ignore[index]

    def stats(self) -> dict:
        return self.call("stats")  # type: ignore[return-value]

    def metrics(self) -> str:
        """The server's metrics in Prometheus text exposition format.

        Empty when the server runs with ``collect_metrics`` off.
        """
        payload = self.call("metrics")
        return payload["text"]  # type: ignore[index]

    def shutdown(self) -> dict:
        """Ask the server to stop (it finishes in-flight work first)."""
        return self.call("shutdown")  # type: ignore[return-value]

    # -- simulation ----------------------------------------------------

    def submit_simulate(
        self, netlist: str, stimulus: VectorSequence, full: bool = True
    ) -> int:
        """Pipeline one vector; collect with :meth:`simulate_result`."""
        return self._send(
            "simulate",
            netlist=netlist,
            vector=jsonl_protocol.encode_vector(stimulus),
            full=full,
        )

    def simulate_result(self, request_id: int) -> SimulationResult:
        payload = self.result(request_id)
        return jsonl_protocol.result_from_dict(
            payload["result"]  # type: ignore[index]
        )

    def simulate(
        self, netlist: str, stimulus: VectorSequence
    ) -> SimulationResult:
        """Simulate one vector remotely; bit-identical to local."""
        return self.simulate_result(self.submit_simulate(netlist, stimulus))

    def simulate_summary(
        self, netlist: str, stimulus: VectorSequence
    ) -> dict:
        """The compact (lossy) per-vector summary — cheap on the wire."""
        payload = self.result(
            self.submit_simulate(netlist, stimulus, full=False)
        )
        return payload["result"]  # type: ignore[index]

    def simulate_batch(
        self, netlist: str, stimuli: Sequence[VectorSequence]
    ) -> List[SimulationResult]:
        """Simulate N vectors in one frame; results in input order."""
        payload = self.call(
            "batch",
            netlist=netlist,
            vectors=[jsonl_protocol.encode_vector(s) for s in stimuli],
        )
        return [
            jsonl_protocol.result_from_dict(entry)
            for entry in payload["results"]  # type: ignore[index]
        ]
