"""Event queues: ordering, cancellation, agreement with a plain reference.

The reference engine's :class:`BinaryHeapQueue` and the compiled and
bit-parallel engines' list-entry heap must pop in ``(time, pin uid,
seq)`` order — the one tie rule of every kernel — under any
interleaving of push, cancel (the annihilation rule) and pop.  Both are
checked against :class:`ReferenceQueue`, a plain list kept in
``Event.sort_key`` order by ``list.sort`` — too simple to be wrong, and
itself pinned by the ordering tests below, which run over it as well.
Events sit on real pins of c17.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.circuit import modules
from repro.config import DelayMode
from repro.core.compiled import (
    _EXECUTED,
    _PENDING,
    E_SEQ,
    E_STATE,
    E_TIME,
    E_UID,
    _CompiledHeapQueue,
)
from repro.core.engine import simulate
from repro.core.event_queue import BinaryHeapQueue
from repro.core.events import Event
from repro.errors import SimulationError
from repro.experiments import common


class ReferenceQueue:
    """The oracle: live events in a plain list re-sorted by
    ``Event.sort_key`` on every push, popped from the front, a cancelled
    event removed at once."""

    def __init__(self):
        self._events = []

    def __len__(self):
        return len(self._events)

    def __bool__(self):
        return bool(self._events)

    def push(self, event):
        if event.cancelled:
            raise SimulationError("cannot schedule a cancelled event")
        self._events.append(event)
        self._events.sort(key=lambda e: e.sort_key)

    def cancel(self, event):
        if event.executed:
            raise SimulationError("cannot cancel an executed event")
        if not event.cancelled:
            event.cancel()
            self._events.remove(event)

    def pop(self):
        if not self._events:
            return None
        return self._events.pop(0)

    def peek_time(self):
        if not self._events:
            return None
        return self._events[0].time

    def clear(self):
        self._events.clear()


#: c17's gate input pins, in uid order (uids 0..11).
_PINS = sorted(
    (pin for gate in modules.c17().gates.values() for pin in gate.inputs),
    key=lambda pin: pin.uid,
)


def _event(time, seq, pin=0):
    return Event(time=time, seq=seq, gate_input=_PINS[pin], transition=None,
                 value=1)


def _entry(time, seq, pin=0):
    """A compiled-layout event entry: ``[time, uid, seq, value, t50,
    dur, rising, state]``."""
    return [time, _PINS[pin].uid, seq, 1, time, 0.1, True, _PENDING]


@pytest.fixture(params=[BinaryHeapQueue, ReferenceQueue],
                ids=["heap", "sorted-list"])
def queue(request):
    return request.param()


def test_make_queue_rejects_unknown(mult4):
    """No entry point picks a queue any more: the one-call wrapper and
    the experiment runner refuse a queue option as an unknown keyword
    before they simulate anything."""
    stimulus = common.paper_stimulus(1)
    with pytest.raises(TypeError):
        simulate(mult4, stimulus, queue_kind="heap")
    with pytest.raises(TypeError):
        common.run_halotis(1, DelayMode.DDM, queue_kind="heap")


def test_fifo_for_equal_times(queue):
    """Equal times pop in pin-uid order, then FIFO on one pin."""
    high_first = _event(1.0, 1, pin=5)
    low_first = _event(1.0, 2, pin=3)
    high_second = _event(1.0, 3, pin=5)
    low_second = _event(1.0, 4, pin=3)
    for event in (high_second, low_second, high_first, low_first):
        queue.push(event)
    assert [queue.pop() for _ in range(4)] == [
        low_first, low_second, high_first, high_second
    ]
    assert queue.pop() is None


def test_pop_order_is_time_sorted(queue):
    events = [_event(t, i) for i, t in enumerate([3.0, 1.0, 2.0, 0.5, 2.5])]
    for event in events:
        queue.push(event)
    popped = []
    while queue:
        popped.append(queue.pop().time)
    assert popped == sorted(popped)


def test_len_and_bool(queue):
    assert not queue
    assert len(queue) == 0
    queue.push(_event(1.0, 1))
    assert queue
    assert len(queue) == 1
    queue.pop()
    assert len(queue) == 0
    assert queue.pop() is None


def test_peek_time(queue):
    assert queue.peek_time() is None
    queue.push(_event(2.0, 1))
    queue.push(_event(1.0, 2))
    assert queue.peek_time() == 1.0
    queue.pop()
    assert queue.peek_time() == 2.0


def test_cancel_removes_event(queue):
    keep = _event(1.0, 1)
    drop = _event(0.5, 2)
    queue.push(keep)
    queue.push(drop)
    queue.cancel(drop)
    assert len(queue) == 1
    assert queue.peek_time() == 1.0
    assert queue.pop() is keep
    assert queue.pop() is None


def test_cancel_is_idempotent(queue):
    event = _event(1.0, 1)
    queue.push(event)
    queue.cancel(event)
    queue.cancel(event)
    assert len(queue) == 0


def test_cannot_push_cancelled(queue):
    event = _event(1.0, 1)
    event.cancel()
    with pytest.raises(SimulationError):
        queue.push(event)


def test_cannot_cancel_executed(queue):
    event = _event(1.0, 1)
    queue.push(event)
    popped = queue.pop()
    popped.executed = True
    with pytest.raises(SimulationError):
        queue.cancel(popped)


def test_clear(queue):
    for i in range(5):
        queue.push(_event(float(i), i))
    queue.clear()
    assert not queue
    assert queue.peek_time() is None


#: Random push/cancel/pop interleavings on random pins; a cancel picks
#: a live event.  Whole-number times make same-time ties common.
OPERATIONS = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=100.0)
        | st.integers(min_value=0, max_value=3).map(float),
        st.sampled_from(["push", "cancel", "pop"]),
        st.integers(min_value=0, max_value=len(_PINS) - 1),
    ),
    max_size=60,
)


@given(OPERATIONS)
def test_implementations_agree(operations):
    """The heap and the reference produce identical pop sequences under
    any interleaving of push/cancel/pop."""
    heap = BinaryHeapQueue()
    oracle = ReferenceQueue()
    heap_live = []
    oracle_live = []
    seq = 0
    results_heap = []
    results_oracle = []
    for time, action, pin in operations:
        if action == "push":
            seq += 1
            heap_event = _event(time, seq, pin)
            oracle_event = _event(time, seq, pin)
            heap.push(heap_event)
            oracle.push(oracle_event)
            heap_live.append(heap_event)
            oracle_live.append(oracle_event)
        elif action == "cancel" and heap_live:
            index = seq % len(heap_live)
            heap_target = heap_live.pop(index)
            oracle_target = oracle_live.pop(index)
            if not heap_target.executed:
                heap.cancel(heap_target)
                oracle.cancel(oracle_target)
        elif action == "pop":
            heap_popped = heap.pop()
            oracle_popped = oracle.pop()
            results_heap.append(
                None if heap_popped is None else heap_popped.sort_key
            )
            results_oracle.append(
                None if oracle_popped is None else oracle_popped.sort_key
            )
            if heap_popped is not None and heap_popped in heap_live:
                heap_live.remove(heap_popped)
            if oracle_popped is not None and oracle_popped in oracle_live:
                oracle_live.remove(oracle_popped)
    while heap or oracle:
        heap_popped = heap.pop()
        oracle_popped = oracle.pop()
        results_heap.append(None if heap_popped is None else heap_popped.sort_key)
        results_oracle.append(
            None if oracle_popped is None else oracle_popped.sort_key
        )
        if heap_popped is None and oracle_popped is None:
            break  # a miscounted len() must fail below, not spin here
    assert results_heap == results_oracle
    assert len(heap) == len(oracle) == 0


# ----------------------------------------------------------------------
# the list-entry heap of the compiled and bit-parallel engines
# ----------------------------------------------------------------------

def _run_list_entry_heap(operations, peek):
    """Drive one interleaving through the list-entry heap and the
    reference side by side; with ``peek``, compare ``peek_time()`` after
    every step (which drops cancelled heads early, so ``pop`` meets none
    of them — hence both modes)."""
    heap = _CompiledHeapQueue()
    oracle = ReferenceQueue()
    live = []  # (entry, event) pairs pushed and neither popped nor cancelled
    seq = 0
    popped = []
    expected = []

    def pop_both():
        """Pop both queues; False once neither has an event left."""
        entry = heap.pop()
        event = oracle.pop()
        popped.append(
            None if entry is None
            else (entry[E_TIME], entry[E_UID], entry[E_SEQ])
        )
        expected.append(None if event is None else event.sort_key)
        if entry is not None:
            entry[E_STATE] = _EXECUTED  # as the kernels mark it
        live[:] = [pair for pair in live if pair[0] is not entry]
        return entry is not None or event is not None

    for time, action, pin in operations:
        if action == "push":
            seq += 1
            pair = (_entry(time, seq, pin), _event(time, seq, pin))
            heap.push(pair[0])
            oracle.push(pair[1])
            live.append(pair)
        elif action == "cancel" and live:
            entry, event = live.pop(seq % len(live))
            heap.cancel(entry)
            oracle.cancel(event)
        elif action == "pop":
            pop_both()
        assert len(heap) == len(oracle)
        assert bool(heap) == bool(oracle)
        if peek:
            assert heap.peek_time() == oracle.peek_time()
    while (heap or oracle) and pop_both():
        pass  # a miscounted len() fails below instead of spinning here
    assert popped == expected
    assert len(heap) == len(oracle) == 0
    assert heap.pop() is None
    assert heap.peek_time() is None


@given(OPERATIONS)
def test_list_entry_heap_agrees_with_reference(operations):
    _run_list_entry_heap(operations, peek=False)
    _run_list_entry_heap(operations, peek=True)


def test_list_entry_heap_counts_live_entries_and_peeks_past_cancelled():
    heap = _CompiledHeapQueue()
    first, second, third = (_entry(t, s) for s, t in ((1, 1.0), (2, 2.0), (3, 3.0)))
    for entry in (third, first, second):
        heap.push(entry)
    assert len(heap) == 3
    heap.cancel(first)
    heap.cancel(first)  # idempotent
    assert len(heap) == 2
    assert heap.peek_time() == 2.0
    heap.cancel(second)
    assert len(heap) == 1
    assert heap.peek_time() == 3.0
    assert heap.pop() is third
    assert not heap
    assert len(heap) == 0
    assert heap.pop() is None
    assert heap.peek_time() is None
