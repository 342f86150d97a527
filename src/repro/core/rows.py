"""Final values and toggle counts as rows by net id.

An engine keeps one integer per net id for its committed values and
for its toggle counters.  A result keeps those rows as they are:
``SimulationResult.final_values`` is a :class:`NetValues` and
``SimulationStatistics.net_toggles`` a :class:`NetCounts`, read-only
mappings that key a row by net name through the netlist's
:class:`ResultLayout`.  The simulation service ships the bare rows,
and fault classification compares them.
"""

from __future__ import annotations

from collections.abc import ItemsView, Mapping
from operator import itemgetter
from typing import Dict, Iterator, List, Tuple

from ..circuit.netlist import Netlist


class ResultLayout:
    """A netlist's net names in ``netlist.nets`` key order, the one
    order of final values, toggle counts and traces.  Renaming a net
    (``CircuitBuilder._rename``) moves it to the end of the dict without
    touching its id, so key order need not be id order."""

    __slots__ = ("names", "index", "ids")

    def __init__(self, netlist: Netlist):
        #: shared by every result and trace set, never mutated.
        self.names: List[str] = list(netlist.nets)
        #: name -> position in ``names``.
        self.index: Dict[str, int] = {
            name: slot for slot, name in enumerate(self.names)
        }
        #: the net id at each position of ``names``.
        self.ids: List[int] = [net.index for net in netlist.nets.values()]

    def row(self, values: Mapping[str, int]) -> List[int]:
        """``values`` as a row by net id: a :class:`NetValues`' own row,
        else one read by name with 0 for every absent name (a plain
        mapping, such as a result decoded from the wire)."""
        if isinstance(values, NetValues):
            return values.row
        row = [0] * len(self.ids)
        for name, value in values.items():
            row[self.ids[self.index[name]]] = value
        return row


class NetValues(Mapping[str, int]):
    """``{net name: row[net id]}`` over every net, read-only, in the
    layout's key order."""

    __slots__ = ("layout", "row")

    def __init__(self, layout: ResultLayout, row: List[int]):
        self.layout = layout
        self.row = row

    def __getitem__(self, name: str) -> int:
        layout = self.layout
        return self.row[layout.ids[layout.index[name]]]

    def __iter__(self) -> Iterator[str]:
        return iter(self.layout.names)

    def __len__(self) -> int:
        return len(self.row)

    def items(self) -> ItemsView[str, int]:
        # The items of a dict built in C: ``dict(rows.items())`` is a
        # copy, where ``dict(rows)`` calls ``__getitem__`` once per name.
        return dict(self._pairs()).items()

    def _pairs(self) -> Iterator[Tuple[str, int]]:
        layout = self.layout
        return zip(layout.names, map(self.row.__getitem__, layout.ids))

    def __repr__(self) -> str:
        return "%s(%r)" % (type(self).__name__, dict(self.items()))


class NetCounts(NetValues):
    """Counts by net id; a net that counts 0 is absent, as from a dict
    that only ever counted up."""

    __slots__ = ()

    def __getitem__(self, name: str) -> int:
        count = NetValues.__getitem__(self, name)
        if not count:
            raise KeyError(name)
        return count

    def __iter__(self) -> Iterator[str]:
        return map(itemgetter(0), self._pairs())

    def __len__(self) -> int:
        return len(self.row) - self.row.count(0)

    def _pairs(self) -> Iterator[Tuple[str, int]]:
        return filter(itemgetter(1), super()._pairs())
