"""The JSONL simulation wire codec.

One vector sequence or one simulation result per line of JSON — the
format the CLI's ``simulate --stdin-vectors`` streaming mode introduced
and the network server (:mod:`repro.server`) speaks on TCP.  This module
is the *single* implementation both front ends share, so a stimulus
accepted on stdin is accepted over the wire and vice versa.

Two result encodings exist because the two consumers want different
fidelity:

* :func:`result_summary` — the compact per-vector line the streaming CLI
  prints (event counters + primary-output values); lossy by design.
* :func:`result_to_dict` / :func:`result_from_dict` — the *lossless*
  form the server returns: every statistics counter, every final value,
  and every raw transition (``t50``, ``duration``, ``rising``,
  ``degradation_factor``, ``cause_time``) of every trace.  Floats cross
  as JSON numbers serialised by CPython's ``repr`` round-trip, so a
  decoded result is **bit-identical** to the encoded one — the wire
  inherits the parity guarantee of the whole stack
  (``tests/server/test_server.py`` pins it end to end).
"""

from __future__ import annotations

import json
from typing import Dict, List, Mapping, Optional, Sequence

from ..core.engine import SimulationResult
from ..core.stats import SimulationStatistics
from ..core.trace import Row, TraceSet
from ..errors import ParseError, StimulusError
from ..stimuli.vectors import VectorSequence

#: Statistics fields carried by the full result encoding, in wire order.
#: ``net_toggles`` (a dict) and ``runtime_seconds`` (a float) ride along
#: explicitly; everything here is an int counter.
STATS_COUNTERS = (
    "events_executed",
    "events_scheduled",
    "events_filtered",
    "late_events",
    "transitions_emitted",
    "source_transitions",
    "transitions_degraded",
    "transitions_fully_degraded",
)


# ----------------------------------------------------------------------
# vector sequences
# ----------------------------------------------------------------------

def encode_vector(stimulus: VectorSequence) -> Dict[str, object]:
    """Plain-data form of ``stimulus`` (delegates to ``to_dict()``)."""
    return stimulus.to_dict()


def encode_vector_line(stimulus: VectorSequence) -> str:
    """One JSONL line holding ``stimulus``."""
    return json.dumps(encode_vector(stimulus))


def decode_vector(payload: object) -> VectorSequence:
    """Build a :class:`VectorSequence` from decoded JSON data.

    Raises :class:`~repro.errors.StimulusError` for anything that is not
    a well-formed vector payload (wrong shape, bad values, inconsistent
    times) — the one exception type both front ends map to their
    respective "bad input" surface.
    """
    if not isinstance(payload, Mapping):
        raise StimulusError(
            "vector payload must be a JSON object, got %s"
            % type(payload).__name__
        )
    try:
        return VectorSequence.from_dict(payload)
    except StimulusError:
        raise
    except (TypeError, ValueError, KeyError) as error:
        raise StimulusError(
            "malformed vector payload: %s" % error
        ) from None


def decode_vector_line(
    line: str, line_number: Optional[int] = None
) -> VectorSequence:
    """Parse one JSONL line into a :class:`VectorSequence`.

    ``line_number`` (1-based) is woven into the error message so a
    streaming caller can point at the offending input line.
    """
    where = "" if line_number is None else " (line %d)" % line_number
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as error:
        raise StimulusError(
            "vector line%s is not valid JSON: %s" % (where, error)
        ) from None
    try:
        return decode_vector(payload)
    except StimulusError as error:
        if line_number is None:
            raise
        raise StimulusError("line %d: %s" % (line_number, error)) from None


# ----------------------------------------------------------------------
# results — compact summary (the streaming CLI's output line)
# ----------------------------------------------------------------------

def result_summary(
    result: SimulationResult,
    index: int,
    output_names: Sequence[str],
) -> Dict[str, object]:
    """The streaming CLI's per-vector result line (lossy by design)."""
    return {
        "vector": index,
        "events_executed": result.stats.events_executed,
        "events_filtered": result.stats.events_filtered,
        "runtime_seconds": round(result.stats.runtime_seconds, 6),
        "outputs": {
            name: result.final_values[name] for name in output_names
        },
    }


def result_summary_line(
    result: SimulationResult, index: int, output_names: Sequence[str]
) -> str:
    return json.dumps(result_summary(result, index, output_names))


# ----------------------------------------------------------------------
# results — lossless full form (the server's wire format)
# ----------------------------------------------------------------------

def result_to_dict(result: SimulationResult) -> Dict[str, object]:
    """Lossless plain-data form of a :class:`SimulationResult`.

    Traces are encoded as ``[name, initial_value, transitions]`` triples
    in original recording order; each transition is the 5-tuple
    ``[t50, duration, rising, degradation_factor, cause_time]`` with
    ``rising`` as 0/1 and a ``None`` cause time as JSON ``null``.
    ``result.simulator`` is process-local and never crosses the wire.
    """
    traces = result.traces
    stats = result.stats
    nets: List[List[object]] = [
        [
            name,
            initial,
            [
                [t50, duration, 1 if rising else 0, factor, cause]
                for t50, duration, rising, factor, cause in rows
            ],
        ]
        for name, initial, rows in zip(
            traces.names(), traces.initial_values(), traces.row_lists()
        )
    ]
    stats_payload: Dict[str, object] = {
        name: getattr(stats, name) for name in STATS_COUNTERS
    }
    stats_payload["net_toggles"] = dict(stats.net_toggles.items())
    stats_payload["runtime_seconds"] = stats.runtime_seconds
    return {
        "stats": stats_payload,
        "final_values": dict(result.final_values.items()),
        "traces": {
            "vdd": traces.vdd,
            "horizon": traces.horizon,
            "nets": nets,
        },
    }


def result_from_dict(payload: Mapping[str, object]) -> SimulationResult:
    """Rebuild a :class:`SimulationResult` from :func:`result_to_dict`.

    Raises :class:`~repro.errors.ParseError` when the payload does not
    have the expected shape.
    """
    if not isinstance(payload, Mapping):
        raise ParseError(
            "result payload must be an object, got %s"
            % type(payload).__name__
        )
    try:
        stats_payload = payload["stats"]
        traces_payload = payload["traces"]
        final_values = dict(payload["final_values"])
        stats = SimulationStatistics(
            **{name: stats_payload[name] for name in STATS_COUNTERS},
            net_toggles=dict(stats_payload["net_toggles"]),
            runtime_seconds=stats_payload["runtime_seconds"],
        )
        names: List[str] = []
        initial: List[int] = []
        rows: List[List[Row]] = []
        for name, value, transitions in traces_payload["nets"]:
            names.append(name)
            initial.append(_initial_value(value))
            rows.append(_decode_rows(transitions))
        traces = TraceSet.from_rows(traces_payload["vdd"], names, initial, rows)
        traces.horizon = traces_payload["horizon"]
    except (KeyError, TypeError, ValueError) as error:
        raise ParseError("malformed result payload: %s" % error) from None
    return SimulationResult(
        traces=traces, stats=stats, final_values=final_values, simulator=None
    )


def _initial_value(value: int) -> int:
    if value not in (0, 1):
        raise ValueError("initial value must be 0 or 1")
    return value


def _decode_rows(transitions: Sequence[Sequence[float]]) -> List[Row]:
    """Trace rows of one encoded net, validated as ``Transition`` would."""
    rows: List[Row] = []
    for t50, duration, rising, degradation, cause in transitions:
        if duration <= 0.0:
            raise ValueError("transition duration must be positive")
        rows.append((t50, duration, bool(rising), degradation, cause))
    return rows
