"""Binary trace transport for the simulation service.

Process-sharded simulation has to move every result back to the parent
process.  Pickling a :class:`~repro.core.engine.SimulationResult` works
everywhere, but for large circuits the dominant payload — the per-net
transition traces — pickles one Python object per transition.  This
module flattens a result's traces into packed fixed-width records

    ``(net_id, flags, t50, duration, degradation_factor, cause_time)``

(one 40-byte little-endian struct per transition) so a worker can write
them straight into a ``multiprocessing.shared_memory`` buffer and the
parent can reconstruct the traces with zero intermediate copies.  The
small remainder of a result (statistics counters, final values, trace
names/initial values) travels as ordinary queue metadata.

Packing reads the traces' rows and unpacking rebuilds rows, so neither
side builds a :class:`~repro.core.transition.Transition` nobody reads.
The packing is *lossless*: every transition field survives bit-for-bit
(floats cross as IEEE-754 doubles, ``None`` cause times as NaN), so
shm-transported results are bit-identical to pickled ones — the parity
suite in ``tests/core/test_service.py`` pins this for both engines and
both delay modes.
"""

from __future__ import annotations

import math
import struct
from typing import Dict, List, Tuple

from .engine import SimulationResult
from .stats import SimulationStatistics
from .trace import Row, TraceSet

#: One packed transition: net_id (int32), flags (int32, bit 0 = rising,
#: bit 1 = cause_time present), then t50 / duration / degradation_factor /
#: cause_time as float64.  NaN never occurs as a real cause time, so it is
#: a safe sentinel for ``cause_time=None``.
RECORD = struct.Struct("<ii4d")

_FLAG_RISING = 1
_FLAG_HAS_CAUSE = 2


def pack_result(result: SimulationResult) -> Tuple[bytes, Dict[str, object]]:
    """Flatten ``result`` into ``(payload, meta)``.

    ``payload`` is the packed transition-record block (the part worth
    putting in shared memory); ``meta`` is a small plain dict carrying
    everything else and is meant to travel over a pickling queue.
    ``result.simulator`` is not transported (engines are process-local).
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
    meta: Dict[str, object] = {
        "names": traces.names(),
        "initial": traces.initial_values(),
        "vdd": traces.vdd,
        "horizon": traces.horizon,
        "stats": result.stats,
        "final_values": result.final_values,
        "nbytes": len(payload),
    }
    return payload, meta


def unpack_result(meta: Dict[str, object], buffer) -> SimulationResult:
    """Rebuild a :class:`SimulationResult` from :func:`pack_result` output.

    ``buffer`` is any bytes-like object (a ``memoryview`` over a shared
    memory block, typically) holding at least ``meta["nbytes"]`` bytes of
    packed records.  Statistics and final values come straight from the
    metadata; traces are reconstructed in original name order with their
    transitions in original emission order.
    """
    names: List[str] = meta["names"]  # type: ignore[assignment]
    initial: List[int] = meta["initial"]  # type: ignore[assignment]
    stats: SimulationStatistics = meta["stats"]  # type: ignore[assignment]
    nbytes: int = meta["nbytes"]  # type: ignore[assignment]

    rows: List[List[Row]] = [[] for _ in names]
    view = memoryview(buffer)[:nbytes]
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
        meta["vdd"], names, initial, rows  # type: ignore[arg-type]
    )
    traces.horizon = meta["horizon"]  # type: ignore[assignment]
    return SimulationResult(
        traces=traces,
        stats=stats,
        final_values=meta["final_values"],  # type: ignore[arg-type]
        simulator=None,
    )
