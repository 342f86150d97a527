"""Waveform traces recorded during simulation.

A :class:`NetTrace` keeps every transition emitted on one net, in emission
order.  Because degraded transitions can be scheduled *before* the net's
previous transition (the mechanism behind input-side pulse annihilation),
the raw list is not necessarily monotone in time; :meth:`NetTrace.edges`
derives the clean digital waveform by cancelling reversed pairs — exactly
mirroring what the inertial rule does at every fanout input.

Traces are stored as plain :data:`Row` tuples, not
:class:`~repro.core.transition.Transition` objects: recording a row is a
tuple build and a list append, and most nets of a run are never read.
:attr:`NetTrace.transitions` builds the ``Transition`` objects of a net on
its first read; the digital views (:meth:`NetTrace.edges` and friends)
read the rows directly.  A :class:`TraceSet` holds one row list per net
and creates the :class:`NetTrace` view of a net only when it is asked for.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..errors import AnalysisError
from .transition import Transition

#: A digital edge: (time, new_value).
Edge = Tuple[float, int]

#: One recorded transition: ``(t50, duration, rising, degradation_factor,
#: cause_time)`` — the fields of a :class:`Transition` minus its net name,
#: which the owning trace supplies.
Row = Tuple[float, float, bool, float, Optional[float]]


class NetTrace:
    """All transitions of one net during one run.

    ``rows`` is the emission-ordered row list (shared with the owning
    :class:`TraceSet`, which engines append to directly).
    """

    def __init__(
        self,
        net_name: str,
        initial_value: int,
        rows: Optional[List[Row]] = None,
    ):
        if initial_value not in (0, 1):
            raise ValueError("initial value must be 0 or 1")
        self.net_name = net_name
        self.initial_value = initial_value
        self.rows: List[Row] = [] if rows is None else rows
        self._built: List[Transition] = []

    def append(self, transition: Transition) -> None:
        """Record ``transition`` (stored as a row)."""
        rows = self.rows
        if len(self._built) == len(rows):
            # Every earlier row is already built: keep the object itself
            # so reading back returns what was appended.
            self._built.append(transition)
        rows.append((
            transition.t50,
            transition.duration,
            transition.rising,
            transition.degradation_factor,
            transition.cause_time,
        ))

    @property
    def transitions(self) -> List[Transition]:
        """The recorded transitions, built from the rows on first read."""
        built = self._built
        rows = self.rows
        if len(built) < len(rows):
            name = self.net_name
            built.extend([
                Transition(t50, duration, rising, name, factor, cause)
                for t50, duration, rising, factor, cause in rows[len(built):]
            ])
        return built

    # ------------------------------------------------------------------
    # digital views
    # ------------------------------------------------------------------

    def _surviving_rows(self) -> List[Row]:
        """Rows left after cancelling reversed pairs, in time order.

        Walks the rows in emission order keeping a stack of surviving
        transitions; one whose mid-swing time does not come after the
        previous survivor annihilates it (zero-width pulse), the same
        pairing rule the kernel applies per input.
        """
        survivors: List[Row] = []
        for row in self.rows:
            if survivors and row[0] <= survivors[-1][0]:
                survivors.pop()
                continue
            survivors.append(row)
        return survivors

    def edges(self) -> List[Edge]:
        """Clean digital edge list (time, new value), strictly increasing."""
        return [(row[0], 1 if row[2] else 0) for row in self._surviving_rows()]

    def value_at(self, time: float) -> int:
        """Digital value at ``time`` (edges at exactly ``time`` count)."""
        value = self.initial_value
        for edge_time, edge_value in self.edges():
            if edge_time > time:
                break
            value = edge_value
        return value

    def toggle_count(self) -> int:
        """Number of surviving digital edges (switching activity)."""
        return len(self._surviving_rows())

    def raw_count(self) -> int:
        """Number of emitted transitions including annihilated runts."""
        return len(self.rows)

    def pulse_widths(self) -> List[float]:
        """Widths of every complete pulse in the clean digital waveform."""
        edge_list = self.edges()
        widths = []
        for first, second in zip(edge_list, edge_list[1:]):
            widths.append(second[0] - first[0])
        return widths

    def sample(self, times: Sequence[float]) -> List[int]:
        """Digital value at each of ``times`` (must be sorted ascending)."""
        edge_list = self.edges()
        values = []
        value = self.initial_value
        cursor = 0
        previous_time: Optional[float] = None
        for time in times:
            if previous_time is not None and time < previous_time:
                raise AnalysisError("sample times must be sorted ascending")
            previous_time = time
            while cursor < len(edge_list) and edge_list[cursor][0] <= time:
                value = edge_list[cursor][1]
                cursor += 1
            values.append(value)
        return values

    def analog_fraction_at(self, time: float) -> float:
        """Reconstructed ramp waveform level (fraction of swing) at ``time``.

        Uses the surviving transitions' linear ramps; between transitions
        the level sits on a rail.  Intended for plotting, not for event
        generation.
        """
        level = float(self.initial_value)
        for t50, duration, rising, _factor, _cause in self._surviving_rows():
            transition = Transition(t50, duration, rising)
            if time <= transition.start:
                break
            level = transition.fraction_at(time)
            if time < transition.end:
                break
        return level

    def __repr__(self) -> str:
        return "NetTrace(%s: %d transitions)" % (self.net_name, len(self.rows))


class TraceSet:
    """Traces of every recorded net in one run.

    Storage is per net, in recording order: a name, a DC (initial) value
    and a row list.  :class:`NetTrace` views are created on first access
    and cached.
    """

    def __init__(self, vdd: float):
        self.vdd = vdd
        #: end of the simulated interval (set by the engine).
        self.horizon: float = 0.0
        self._names: List[str] = []
        self._initial: List[int] = []
        self._rows: List[List[Row]] = []
        self._index: Dict[str, int] = {}
        self._views: Dict[int, NetTrace] = {}
        #: ``_names`` / ``_initial`` / ``_index`` belong to the caller of
        #: :meth:`from_rows` and are copied before the first ``create``.
        self._borrowed = False

    @classmethod
    def from_rows(
        cls,
        vdd: float,
        names: List[str],
        initial: List[int],
        rows: Optional[List[List[Row]]] = None,
        index: Optional[Dict[str, int]] = None,
    ) -> TraceSet:
        """A trace set over ``names`` (recording order).

        ``initial`` holds each net's initial value and ``rows`` its
        recorded rows (empty lists when omitted).  ``index`` maps each
        name to its position and is derived when omitted.  ``names``,
        ``initial`` and ``index`` are borrowed, not copied, so engines
        can share one layout across runs; the trace set never mutates
        them.
        """
        traces = cls(vdd)
        if index is None:
            index = {}
            for slot, name in enumerate(names):
                if name in index:
                    raise AnalysisError(
                        "trace for net %r already exists" % name
                    )
                index[name] = slot
        traces._names = names
        traces._initial = initial
        traces._rows = [[] for _ in names] if rows is None else rows
        traces._index = index
        traces._borrowed = True
        return traces

    def create(self, net_name: str, initial_value: int) -> NetTrace:
        if net_name in self._index:
            raise AnalysisError("trace for net %r already exists" % net_name)
        trace = NetTrace(net_name, initial_value)
        if self._borrowed:
            self._names = list(self._names)
            self._initial = list(self._initial)
            self._index = dict(self._index)
            self._borrowed = False
        slot = len(self._names)
        self._names.append(net_name)
        self._initial.append(initial_value)
        self._rows.append(trace.rows)
        self._index[net_name] = slot
        self._views[slot] = trace
        return trace

    def _view(self, slot: int) -> NetTrace:
        view = self._views.get(slot)
        if view is None:
            view = NetTrace(self._names[slot], self._initial[slot],
                            self._rows[slot])
            self._views[slot] = view
        return view

    def __contains__(self, net_name: str) -> bool:
        return net_name in self._index

    def __getitem__(self, net_name: str) -> NetTrace:
        try:
            slot = self._index[net_name]
        except KeyError:
            raise AnalysisError("no trace recorded for net %r" % net_name) from None
        return self._view(slot)

    def __iter__(self) -> Iterator[NetTrace]:
        return (self._view(slot) for slot in range(len(self._names)))

    def __len__(self) -> int:
        return len(self._names)

    def __getstate__(self) -> Dict[str, object]:
        # Views (and the Transition objects they built) are rebuilt from
        # the rows on demand; only the rows travel.
        state = dict(self.__dict__)
        state["_views"] = {}
        return state

    def names(self) -> List[str]:
        return list(self._names)

    def initial_values(self) -> List[int]:
        """Initial value of every trace, in :meth:`names` order."""
        return list(self._initial)

    def row_lists(self) -> List[List[Row]]:
        """Every trace's row list, in :meth:`names` order (read-only)."""
        return self._rows

    # ------------------------------------------------------------------
    # bus helpers
    # ------------------------------------------------------------------

    def word_at(self, time: float, prefix: str, width: int) -> int:
        """Integer value of bus ``prefix0..prefix{w-1}`` at ``time``."""
        word = 0
        for bit in range(width):
            word |= self["%s%d" % (prefix, bit)].value_at(time) << bit
        return word

    def bus_toggles(self, prefix: str, width: int) -> int:
        """Total surviving edge count across a bus."""
        return sum(
            self["%s%d" % (prefix, bit)].toggle_count() for bit in range(width)
        )

    def total_toggles(self, names: Optional[Iterable[str]] = None) -> int:
        """Total surviving edges over ``names`` (default: every trace)."""
        if names is None:
            return sum(trace.toggle_count() for trace in self)
        return sum(self[name].toggle_count() for name in names)
