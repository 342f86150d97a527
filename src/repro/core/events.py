"""Events: transitions crossing gate-input thresholds.

An :class:`Event` is the paper's fundamental simulation quantum
(section 3.1): "each time a transition crosses an input threshold, an
event is generated."  It binds together the three relations of the paper's
Figure 2 class diagram — the transition that *produces* it, the gate input
it occurs at, and its place in the time-ordered queue.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:
    from ..circuit.netlist import GateInput
    from .transition import Transition


class Event:
    """One threshold crossing at one gate input.

    Attributes:
        time: the instant ``E`` of the crossing, ns.
        seq: global sequence number.  Ties in ``time`` are broken by
            the receiving pin's ``uid``, then by ``seq`` (FIFO on one
            pin), so same-time order follows the circuit's structure
            and simulations are deterministic.
        gate_input: the receiving pin.
        transition: the producing transition.
        value: logic value the input assumes when the event executes
            (1 for a rising transition's crossing, 0 for a falling one).
        cancelled: set by the annihilation rule; the queue skips cancelled
            events lazily.
        executed: set once the kernel has processed the event; an executed
            event can no longer be annihilated (DESIGN.md section 6).
    """

    __slots__ = (
        "time",
        "seq",
        "gate_input",
        "transition",
        "value",
        "cancelled",
        "executed",
    )

    def __init__(
        self,
        time: float,
        seq: int,
        gate_input: GateInput,
        transition: Transition,
        value: int,
    ):
        self.time = time
        self.seq = seq
        self.gate_input = gate_input
        self.transition = transition
        self.value = value
        self.cancelled = False
        self.executed = False

    @property
    def sort_key(self) -> tuple:
        return (self.time, self.gate_input.uid, self.seq)

    def cancel(self) -> None:
        self.cancelled = True

    def __repr__(self) -> str:
        pin: Optional[str] = None
        if self.gate_input is not None:
            pin = "%s[%d]" % (self.gate_input.gate.name, self.gate_input.index)
        flags = ""
        if self.cancelled:
            flags += " cancelled"
        if self.executed:
            flags += " executed"
        return "Event(t=%.4f %s ->%d%s)" % (self.time, pin, self.value, flags)
