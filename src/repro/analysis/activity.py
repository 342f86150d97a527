"""Switching-activity analysis (the paper's Table 1 metrics).

The paper's headline numbers compare HALOTIS-DDM and HALOTIS-CDM on
events processed and events filtered, and note that conventional delay
models overestimate switching activity by up to ~50% — which matters
because dynamic power is proportional to activity.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence

from ..core.stats import SimulationStatistics, overestimation_percent
from ..core.trace import NetTrace, TraceSet
from ..errors import SimulationError

try:  # pragma: no cover - numpy present in CI
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None


@dataclasses.dataclass(frozen=True)
class ActivitySummary:
    """Switching activity of one run or batch: the power-analysis view.

    ``total_transitions`` counts every net toggle (sources included);
    ``per_net`` maps net name to its toggle count, omitting quiet nets.
    Built by :func:`activity_summary` from statistics objects, by
    :meth:`repro.core.batch.BatchResult.activity_summary` for a whole
    batch, or by :func:`packed_activity_summary` straight from the
    bit-parallel engine's packed toggle words.
    """

    total_transitions: int
    per_net: Dict[str, int]

def activity_summary(
    stats: Iterable[SimulationStatistics],
) -> ActivitySummary:
    """Aggregate per-net toggle counts across any number of runs."""
    per_net: Dict[str, int] = {}
    for one in stats:
        for name, count in one.net_toggles.items():
            per_net[name] = per_net.get(name, 0) + count
    return ActivitySummary(
        total_transitions=sum(per_net.values()), per_net=per_net
    )


def packed_activity_summary(
    packed: Mapping[str, Sequence[Any]],
) -> ActivitySummary:
    """Activity summary straight from lane-packed toggle counters.

    ``packed`` is the bit-parallel engine's
    :meth:`~repro.core.bitparallel._WordKernel.packed_toggle_words`
    export: per net, a list of little-endian ``uint64`` word arrays,
    one per counter bit-plane.  A net's toggle total across all lanes
    is ``sum_p 2**p * popcount(plane_p)`` — a handful of word popcounts
    instead of an unpack of every lane — so wide activity batches never
    materialise per-lane counters at all.
    """
    if _np is None:  # pragma: no cover - numpy present in CI
        raise SimulationError("packed_activity_summary requires numpy")
    per_net: Dict[str, int] = {}
    for name, planes in packed.items():
        total = 0
        for position, words in enumerate(planes):
            total += int(_popcount_words(words)) << position
        if total:
            per_net[name] = total
    return ActivitySummary(
        total_transitions=sum(per_net.values()), per_net=per_net
    )


def _popcount_words(words: Any) -> int:
    """Total set bits of a ``uint64`` word array."""
    if hasattr(_np, "bitwise_count"):
        return int(_np.bitwise_count(words).sum())
    return int(
        _np.unpackbits(words.view(_np.uint8)).sum()  # pragma: no cover
    )


@dataclasses.dataclass(frozen=True)
class ActivityComparison:
    """DDM-vs-CDM activity summary for one stimulus (one Table 1 row)."""

    label: str
    ddm_events: int
    cdm_events: int
    ddm_filtered: int
    cdm_filtered: int
    ddm_toggles: int
    cdm_toggles: int

    @property
    def event_overestimation_percent(self) -> float:
        return overestimation_percent(self.ddm_events, self.cdm_events)

    @property
    def toggle_overestimation_percent(self) -> float:
        return overestimation_percent(self.ddm_toggles, self.cdm_toggles)

    def as_row(self) -> List[object]:
        """Row in the paper's Table 1 column order."""
        return [
            self.label,
            self.ddm_events,
            self.cdm_events,
            "%.0f" % self.event_overestimation_percent,
            self.ddm_filtered,
            self.cdm_filtered,
        ]


def compare_activity(
    label: str,
    ddm_stats: SimulationStatistics,
    cdm_stats: SimulationStatistics,
) -> ActivityComparison:
    """Build the Table 1 row from two matched runs."""
    return ActivityComparison(
        label=label,
        ddm_events=ddm_stats.events_executed,
        cdm_events=cdm_stats.events_executed,
        ddm_filtered=ddm_stats.events_filtered,
        cdm_filtered=cdm_stats.events_filtered,
        ddm_toggles=ddm_stats.total_toggles,
        cdm_toggles=cdm_stats.total_toggles,
    )


def glitch_count(trace: NetTrace, width_below: float) -> int:
    """Number of complete pulses narrower than ``width_below`` ns."""
    return sum(1 for width in trace.pulse_widths() if width < width_below)


def total_glitches(
    traces: TraceSet,
    width_below: float,
    names: Optional[Iterable[str]] = None,
) -> int:
    """Glitches across several nets."""
    selected = traces.names() if names is None else list(names)
    return sum(glitch_count(traces[name], width_below) for name in selected)


def switching_energy_pj(
    traces: TraceSet,
    net_loads: Dict[str, float],
    vdd: float,
) -> float:
    """Dynamic switching energy estimate in pJ.

    ``E = sum_over_edges C_net * VDD^2 / 2`` with C in fF and V in volts
    (fF * V^2 = fJ; divided by 1000 for pJ).  This is the quantity glitch
    overestimation corrupts in power analysis (paper introduction).
    """
    total_fj = 0.0
    for trace in traces:
        load = net_loads.get(trace.net_name, 0.0)
        total_fj += trace.toggle_count() * load * vdd * vdd * 0.5
    return total_fj / 1000.0
