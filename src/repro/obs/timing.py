"""Phase timers for hot-path-safe sampling.

The discipline enforced across the codebase: time is *sampled* with
``perf_counter()`` stamps at phase boundaries and *published* once per
run/task/request.  Nothing here belongs inside a per-event loop.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

__all__ = ["PhaseTimer"]


class PhaseTimer:
    """Accumulates named phase durations across one logical operation.

    Usage::

        timer = PhaseTimer(enabled=config.collect_metrics)
        with timer.phase("initialize"):
            ...
        with timer.phase("stimulus"):
            ...
        timer.phases()   # {"initialize": seconds, "stimulus": seconds}

    When disabled, ``phase()`` returns a shared no-op context manager
    and the whole object costs two attribute checks per phase — cheap
    enough to leave in the compiled hot path unconditionally.
    """

    __slots__ = ("enabled", "_phases", "_started")

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._phases: List[Tuple[str, float]] = []
        self._started = time.perf_counter() if enabled else 0.0

    def phase(self, name: str) -> _Phase:
        if not self.enabled:
            return _NOOP_PHASE
        return _Phase(self, name)

    def record(self, name: str, seconds: float) -> None:
        if self.enabled:
            self._phases.append((name, seconds))

    def elapsed(self) -> float:
        if not self.enabled:
            return 0.0
        return time.perf_counter() - self._started

    def phases(self) -> Dict[str, float]:
        """Phase name -> accumulated seconds (same-name phases sum)."""
        out: Dict[str, float] = {}
        for name, seconds in self._phases:
            out[name] = out.get(name, 0.0) + seconds
        return out


class _Phase:
    __slots__ = ("_timer", "_name", "_t0")

    def __init__(self, timer: Optional[PhaseTimer], name: str = ""):
        self._timer = timer
        self._name = name
        self._t0 = 0.0

    def __enter__(self) -> _Phase:
        if self._timer is not None:
            self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        if self._timer is not None:
            self._timer.record(self._name, time.perf_counter() - self._t0)


_NOOP_PHASE = _Phase(None)
