"""The reference engine's time-ordered event queue.

The kernel needs three operations: push, pop-earliest, and *cancel* — the
annihilation rule of the paper's Figure 4 removes pending events.
:class:`BinaryHeapQueue` implements cancellation lazily (cancelled events
stay in the heap and are skipped on pop), which keeps push/pop at
O(log n) and cancel at O(1).  Events pop in ``Event.sort_key`` order,
``(time, pin uid, seq)``: same-time events run in the order of their
receiving pins, and FIFO on one pin.  The property test in
``tests/core/test_event_queue.py`` pins that against a plain
``min``-over-a-list reference.  The compiled and bit-parallel engines
order their list entries by the same rule in
:class:`repro.core.compiled._CompiledHeapQueue`.
"""

from __future__ import annotations

import heapq
from typing import List, Optional

from ..errors import SimulationError
from .events import Event


class BinaryHeapQueue:
    """Binary-heap event queue with lazy cancellation."""

    def __init__(self):
        self._heap: List[tuple] = []
        self._live = 0

    def __len__(self) -> int:
        """Number of live (non-cancelled, not yet popped) events."""
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def push(self, event: Event) -> None:
        if event.cancelled:
            raise SimulationError("cannot schedule a cancelled event")
        heapq.heappush(self._heap, (event.sort_key, event))
        self._live += 1

    def cancel(self, event: Event) -> None:
        """Mark a pending event as annihilated; it will be skipped."""
        if event.executed:
            raise SimulationError("cannot cancel an executed event")
        if not event.cancelled:
            event.cancel()
            self._live -= 1

    def pop(self) -> Optional[Event]:
        """Remove and return the earliest live event (None when empty)."""
        while self._heap:
            _key, event = heapq.heappop(self._heap)
            if event.cancelled:
                continue
            self._live -= 1
            return event
        return None

    def peek_time(self) -> Optional[float]:
        """Time of the earliest live event without removing it."""
        while self._heap and self._heap[0][1].cancelled:
            heapq.heappop(self._heap)
        if not self._heap:
            return None
        return self._heap[0][1].time

    def clear(self) -> None:
        self._heap.clear()
        self._live = 0
