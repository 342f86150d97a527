"""The compact result record of the simulation service.

Process-sharded simulation has to move every result back to the parent
process.  Pickling a whole :class:`~repro.core.engine.SimulationResult`
works everywhere, but it pickles one Python object per transition, the
full statistics dataclass and the result layout.  A worker instead
sends each result as a *record* plus a block of packed trace bytes:

* the record is a plain tuple ``(counts, toggles, values, trace_names,
  initial, vdd, horizon, nbytes)`` — ``counts`` holds the
  :class:`~repro.core.stats.SimulationStatistics` fields but
  ``net_toggles`` in declaration order; ``toggles`` and ``values`` are
  the result's toggle-count and final-value rows by net id
  (:mod:`repro.core.rows`), as they are; ``trace_names`` is None when
  the traces follow ``netlist.nets`` order; ``initial`` is a ``bytes``
  row of the traces' initial values; ``nbytes`` is the trace block's
  length;
* the trace block holds one fixed-width little-endian record per
  transition,

    ``(net_id, flags, t50, duration, degradation_factor, cause_time)``

  (40 bytes); a chunk's blocks travel back to back in the worker's
  result message.

The parent wraps the two rows with its own
:class:`~repro.core.rows.ResultLayout`, derived from the same netlist
as the worker's, so no name crosses per vector.

Packing reads the traces' rows and unpacking rebuilds rows, so neither
side builds a :class:`~repro.core.transition.Transition` nobody reads.
The packing is *lossless*: every transition field survives bit-for-bit
(floats cross as IEEE-754 doubles, ``None`` cause times as NaN) — the
parity suite in ``tests/core/test_service.py`` pins this for every
engine and both delay modes.
"""

from __future__ import annotations

import dataclasses
import math
import operator
import struct
from typing import Iterator, List, Sequence, Tuple

from .engine import SimulationResult
from .rows import NetCounts, NetValues, ResultLayout
from .stats import SimulationStatistics
from .trace import Row, TraceSet

#: One packed transition: net_id (int32), flags (int32, bit 0 = rising,
#: bit 1 = cause_time present), then t50 / duration / degradation_factor /
#: cause_time as float64.  NaN never occurs as a real cause time, so it is
#: a safe sentinel for ``cause_time=None``.
RECORD = struct.Struct("<ii4d")

_FLAG_RISING = 1
_FLAG_HAS_CAUSE = 2

_FIELDS = [field.name for field in dataclasses.fields(SimulationStatistics)]
#: ``net_toggles``' position among the fields ``SimulationStatistics``
#: takes positionally; every other field crosses in ``counts``.
_TOGGLES = _FIELDS.index("net_toggles")
_read_counts = operator.attrgetter(
    *_FIELDS[:_TOGGLES], *_FIELDS[_TOGGLES + 1:]
)

#: ``(counts, toggles, values, trace_names, initial, vdd, horizon,
#: nbytes)``.
ResultRecord = Tuple[object, ...]


def pack_result(
    result: SimulationResult, layout: ResultLayout
) -> Tuple[bytes, ResultRecord]:
    """Flatten ``result`` into ``(trace_bytes, record)``.

    ``result.simulator`` and ``result.metrics`` are not transported
    (engines are process-local; metrics travel as registry deltas).
    """
    traces = result.traces
    chunks: List[bytes] = []
    pack = RECORD.pack
    for net_id, rows in enumerate(traces.row_lists()):
        for t50, duration, rising, factor, cause in rows:
            flags = _FLAG_RISING if rising else 0
            if cause is not None:
                flags |= _FLAG_HAS_CAUSE
            else:
                cause = math.nan
            chunks.append(pack(net_id, flags, t50, duration, factor, cause))
    payload = b"".join(chunks)
    stats = result.stats
    trace_names = traces.names()
    record = (
        _read_counts(stats),
        layout.row(stats.net_toggles),
        layout.row(result.final_values),
        None if trace_names == layout.names else trace_names,
        bytes(traces.initial_values()),
        traces.vdd,
        traces.horizon,
        len(payload),
    )
    return payload, record


def unpack_result(
    record: ResultRecord, buffer, layout: ResultLayout
) -> SimulationResult:
    """Rebuild a :class:`SimulationResult` from :func:`pack_result` output.

    ``buffer`` is any bytes-like object holding at least the record's
    ``nbytes`` bytes of packed transitions.  Traces come back in original name
    order with their transitions in original emission order.
    """
    (counts, toggles, values, trace_names, initial, vdd, horizon,
     nbytes) = record
    if trace_names is None:
        names, index = layout.names, layout.index
    else:
        names, index = trace_names, None  # type: ignore[assignment]
    rows: List[List[Row]] = [[] for _ in names]
    if nbytes:
        view = memoryview(buffer)[:nbytes]  # type: ignore[misc]
        try:
            for net_id, flags, t50, duration, degradation, cause in (
                RECORD.iter_unpack(view)
            ):
                rows[net_id].append((
                    t50,
                    duration,
                    bool(flags & _FLAG_RISING),
                    degradation,
                    cause if flags & _FLAG_HAS_CAUSE else None,
                ))
        finally:
            view.release()
    traces = TraceSet.from_rows(
        vdd, names, list(initial), rows, index  # type: ignore[arg-type]
    )
    traces.horizon = horizon  # type: ignore[assignment]
    return SimulationResult(
        traces=traces,
        stats=SimulationStatistics(
            *counts[:_TOGGLES],  # type: ignore[index]
            NetCounts(layout, toggles),  # type: ignore[arg-type]
            *counts[_TOGGLES:],  # type: ignore[index]
        ),
        final_values=NetValues(layout, values),  # type: ignore[arg-type]
        simulator=None,
    )


def unpack_chunk(
    records: Sequence[ResultRecord], buffer, layout: ResultLayout
) -> Iterator[SimulationResult]:
    """Rebuild a chunk's results in order; their trace bytes sit back to
    back in ``buffer``, each record carrying its own length."""
    offset = 0
    for record in records:
        nbytes: int = record[-1]  # type: ignore[assignment]
        yield unpack_result(record, buffer[offset:offset + nbytes], layout)
        offset += nbytes
