"""Simulation statistics — the counters behind the paper's Table 1.

The paper reports, per run, the number of *events* and of *filtered
events*.  We count:

* ``events_executed`` — events popped and processed by the kernel (the
  paper's "Events" column),
* ``events_filtered`` — annihilations performed by the inertial rule; one
  annihilation removes a pending event *and* suppresses the new one, i.e.
  one filtered pulse per count (the paper's "Filtered events" column),
* supporting detail: scheduled/late events, emitted transitions,
  degradation markers, per-net toggle counts.
"""

from __future__ import annotations

import dataclasses
from typing import Dict

from ..errors import AnalysisError


@dataclasses.dataclass
class SimulationStatistics:
    """Mutable counters filled in by one simulation run."""

    #: events popped from the queue and executed.
    events_executed: int = 0
    #: events inserted into the queue (includes later-cancelled ones).
    events_scheduled: int = 0
    #: annihilations: a pending event removed together with its would-be
    #: successor (one runt pulse filtered at one gate input).
    events_filtered: int = 0
    #: new events whose computed time was not after an already-executed
    #: predecessor; scheduled at the current time instead (DESIGN.md 6).
    late_events: int = 0
    #: output transitions emitted by gates.
    transitions_emitted: int = 0
    #: stimulus transitions applied to primary inputs.
    source_transitions: int = 0
    #: transitions whose degradation factor was < 1.
    transitions_degraded: int = 0
    #: transitions emitted at the minimum delay because eq. 1 gave tp <= 0.
    transitions_fully_degraded: int = 0
    #: per-net emitted-transition counts (switching activity).
    net_toggles: Dict[str, int] = dataclasses.field(default_factory=dict)
    #: wall-clock seconds spent inside run() (Table 2 material).
    runtime_seconds: float = 0.0

    def count_toggle(self, net_name: str) -> None:
        self.net_toggles[net_name] = self.net_toggles.get(net_name, 0) + 1

    @property
    def total_toggles(self) -> int:
        return sum(self.net_toggles.values())

    def reset(self) -> None:
        self.events_executed = 0
        self.events_scheduled = 0
        self.events_filtered = 0
        self.late_events = 0
        self.transitions_emitted = 0
        self.source_transitions = 0
        self.transitions_degraded = 0
        self.transitions_fully_degraded = 0
        self.net_toggles = {}
        self.runtime_seconds = 0.0

    def format(self) -> str:
        """Multi-line human-readable summary."""
        lines = [
            "events executed:        %d" % self.events_executed,
            "events scheduled:       %d" % self.events_scheduled,
            "events filtered:        %d" % self.events_filtered,
            "late events:            %d" % self.late_events,
            "transitions emitted:    %d" % self.transitions_emitted,
            "  degraded:             %d" % self.transitions_degraded,
            "  fully degraded:       %d" % self.transitions_fully_degraded,
            "source transitions:     %d" % self.source_transitions,
            "total net toggles:      %d" % self.total_toggles,
            "runtime:                %.4f s" % self.runtime_seconds,
        ]
        return "\n".join(lines)


def overestimation_percent(reference_events: int, other_events: int) -> float:
    """The paper's "Overst. CDM (%)" metric.

    Percentage by which ``other_events`` (CDM) exceeds
    ``reference_events`` (DDM): ``(other/reference - 1) * 100``.
    """
    if reference_events <= 0:
        raise AnalysisError("reference event count must be positive")
    return (other_events / reference_events - 1.0) * 100.0
