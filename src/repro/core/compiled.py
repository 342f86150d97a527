"""Array-lowered ("compiled") simulation backend.

The reference kernel in :mod:`repro.core.engine` walks the netlist object
graph on every event: it hashes net names to find capacitive loads,
hashes gate-input uids to find thresholds, allocates a frozen
``DelayRequest`` dataclass per gate switch and a ``Transition`` per
fanout decision.  That is the right shape for reading the paper, but it
is not the right shape for throughput.

This module lowers the circuit *once* into struct-of-arrays form
(:class:`CompiledNetlist`) and runs the identical algorithm over flat
integer indices (:class:`CompiledSimulator`):

* per-gate-input lists: threshold fraction ``VT/VDD``, owning gate id,
  pin index — indexed by the input's dense ``uid``;
* fanout adjacency as CSR-style ``(offsets, targets)`` index lists over
  net ids;
* per-(gate input, output edge) delay-arc tables with the output net's
  capacitive load already folded in, so the hot path evaluates a delay
  with two multiply-adds instead of a dataclass round-trip;
* per-gate truth tables replacing boolean-function dispatch.

Every field is a plain Python list, the one form of the lowering: the
kernels read these lists directly (list indexing returns the stored
objects, with no re-boxing), every engine on the lowering shares them,
and only fault injection (:mod:`repro.faults.inject`) patches them.

Events are plain Python lists (``[time, uid, seq, value, t50, dur,
rising, state]``) ordered by their first three slots, so the queue
never compares beyond the unique ``seq``: same-time events run in
input-pin uid order, and FIFO on one pin (see
:class:`_CompiledHeapQueue`).  The whole event loop — heap pop,
gate evaluation, delay model, inertial decision and fan-out — is one
function (:meth:`CompiledSimulator._advance`), with the inertial
decision and both delay models inlined on scalars; a native twin of
it (``_kernel.c``, loaded by :mod:`repro.core._native`) runs over the
same lists whenever it could be built, and this Python loop is its
fallback and parity reference.  The kernel never
allocates a ``Transition``: with trace recording on, a surviving
transition is appended to its net's trace as a plain row (see
:mod:`repro.core.trace`), and filtered events leave no trace at all.

The arithmetic is ordered exactly as in the reference backend, so both
engines produce bit-identical event times, traces and statistics
(property-tested in ``tests/core/test_backend_parity.py``).
"""

from __future__ import annotations

from heapq import heappop, heappush
from math import exp as _exp
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..circuit.evaluate import MAX_RELAX_SWEEPS
from ..circuit.logic import (
    GateFunctionLike,
    evaluate as evaluate_function,
    truth_table,
)
from ..circuit.netlist import Net, Netlist
from ..config import DelayMode, InertialPolicy, SimulationConfig
from ..errors import (
    InitializationError,
    SimulationError,
    SimulationLimitError,
    StimulusError,
    WaveformError,
)
from . import _native
from .engine import EngineBase, FilteredEventRecord, register_engine
from .inertial import peak_voltage_time
from .trace import Row
from .transition import Transition

if TYPE_CHECKING:
    from ..circuit.cells import TimingArcSpec
    from ..faults.differential import DifferentialRunner

#: Largest gate arity lowered to a dense truth table; wider gates (only
#: reachable through hand-built cells) fall back to function dispatch.
_MAX_TABLE_ARITY = 16

# Entry layout of a compiled event (a plain list, ordered by the first
# three slots: time, then input-pin uid, then the insertion count
# ``seq``, which is globally unique so comparisons never reach the
# payload).  This is the tie rule of every kernel: the bit-parallel
# word entries share the head slots, and the reference engine's
# ``Event.sort_key`` is the same triple.
E_TIME, E_UID, E_SEQ, E_VALUE, E_T50, E_DUR, E_RISING, E_STATE = range(8)
_PENDING, _CANCELLED, _EXECUTED = 0, 1, 2
_INF = float("inf")


class CompiledNetlist:
    """Flat-list lowering of a :class:`~repro.circuit.netlist.Netlist`.

    The lowering is purely static: it captures connectivity, thresholds,
    loads and timing-arc parameters, and can be shared by any number of
    :class:`CompiledSimulator` instances — one per batch in
    :func:`repro.core.batch.simulate_batch`, one per warm worker in
    :class:`repro.core.service.SimulationService`.
    """

    __slots__ = (
        "netlist",
        "vdd",
        "num_nets",
        "num_gates",
        "num_inputs",
        "net_names",
        "net_constant",
        "net_is_pi",
        "net_is_po",
        "net_driver",
        "net_load",
        "fanout_offsets",
        "fanout_targets",
        "gate_names",
        "gate_functions",
        "gate_output_net",
        "gate_input_offsets",
        "gate_tables",
        "vt_fraction",
        "input_gate",
        "input_pin",
        "input_net",
        "arc_rise",
        "arc_fall",
        "_topo_cache",
        "pi_ids",
        "pi_names",
        "_dc_template",
        "_gate_plan",
        "_dc_sweep",
        "_key_ids",
        "_key_names",
        "_key_index",
        "_undriven",
    )

    def __init__(self, netlist: Netlist):
        self.netlist = netlist
        self.vdd = netlist.vdd
        # Array position must equal the object's dense index.  Renaming a
        # net (CircuitBuilder._rename) moves it to the end of the dict
        # without touching its index, so dict order is NOT index order.
        nets = sorted(netlist.nets.values(), key=lambda net: net.index)
        gates = sorted(netlist.gates.values(), key=lambda gate: gate.index)
        self.num_nets = len(nets)
        self.num_gates = len(gates)
        self.num_inputs = netlist.num_gate_inputs
        if [net.index for net in nets] != list(range(self.num_nets)) or [
            gate.index for gate in gates
        ] != list(range(self.num_gates)):
            raise SimulationError(
                "cannot lower netlist %r: net/gate indices are not dense"
                % netlist.name
            )

        # --- nets ----------------------------------------------------
        self.net_names: List[str] = [net.name for net in nets]
        self.net_constant: List[Optional[int]] = [net.constant_value for net in nets]
        self.net_is_pi = [1 if net.is_primary_input else 0 for net in nets]
        self.net_is_po = [1 if net.is_primary_output else 0 for net in nets]
        self.net_driver = [
            net.driver.index if net.driver is not None else -1 for net in nets
        ]
        self.net_load = [net.load() for net in nets]

        # Fanout adjacency in CSR form: the fanout inputs of net ``n``
        # are ``fanout_targets[fanout_offsets[n]:fanout_offsets[n+1]]``.
        offsets = [0]
        targets: List[int] = []
        for net in nets:
            targets.extend(gate_input.uid for gate_input in net.fanouts)
            offsets.append(len(targets))
        self.fanout_offsets = offsets
        self.fanout_targets = targets

        # --- gates ---------------------------------------------------
        self.gate_names: List[str] = [gate.name for gate in gates]
        self.gate_functions: List[GateFunctionLike] = [
            gate.cell.function for gate in gates
        ]
        self.gate_output_net = [gate.output.index for gate in gates]
        # Dense uids are assigned gate-by-gate (Netlist.add_gate), so each
        # gate's pins occupy a contiguous uid range.
        input_offsets = [0]
        for gate in gates:
            if [gi.uid for gi in gate.inputs] != list(
                range(input_offsets[-1], input_offsets[-1] + len(gate.inputs))
            ):
                raise SimulationError(
                    "cannot lower netlist %r: gate %r input uids are not "
                    "contiguous" % (netlist.name, gate.name)
                )
            input_offsets.append(input_offsets[-1] + len(gate.inputs))
        self.gate_input_offsets = input_offsets
        # One truth table per (function, arity); every gate gets its own
        # copy because fault injection swaps ``gate_tables[i]`` per gate.
        tables: Dict[Tuple[GateFunctionLike, int], Optional[List[int]]] = {}
        gate_tables: List[Optional[List[int]]] = []
        for gate in gates:
            key = (gate.cell.function, len(gate.inputs))
            if key not in tables:
                tables[key] = (
                    truth_table(*key) if key[1] <= _MAX_TABLE_ARITY else None
                )
            table = tables[key]
            gate_tables.append(None if table is None else list(table))
        self.gate_tables = gate_tables

        # --- gate inputs (indexed by uid) ----------------------------
        vdd = self.vdd
        vt_fraction = [0.0] * self.num_inputs
        input_gate = [0] * self.num_inputs
        input_pin = [0] * self.num_inputs
        input_net = [0] * self.num_inputs
        # Per-(input uid, output edge) delay-arc parameters with the
        # gate's constant output load folded in (see fold_arc).
        arc_rise: List[Tuple[float, float, float, float, float, float]] = [None] * self.num_inputs  # type: ignore[list-item]
        arc_fall: List[Tuple[float, float, float, float, float, float]] = [None] * self.num_inputs  # type: ignore[list-item]
        for gate in gates:
            c_load = self.net_load[gate.output.index]
            for gate_input in gate.inputs:
                uid = gate_input.uid
                vt_fraction[uid] = gate_input.vt / vdd
                input_gate[uid] = gate.index
                input_pin[uid] = gate_input.index
                input_net[uid] = gate_input.net.index
                arc_fall[uid] = self.fold_arc(
                    gate.cell.arc(gate_input.index, False), c_load
                )
                arc_rise[uid] = self.fold_arc(
                    gate.cell.arc(gate_input.index, True), c_load
                )
        self.vt_fraction = vt_fraction
        self.input_gate = input_gate
        self.input_pin = input_pin
        self.input_net = input_net
        self.arc_rise = arc_rise
        self.arc_fall = arc_fall
        self._topo_cache: Optional[List[int]] = None

        # --- DC initialisation and result plans ----------------------
        #: primary-input net ids and names in ``netlist.primary_inputs``
        #: order, the order evaluate_netlist validates them in (so the
        #: first error matches)
        self.pi_ids: List[int] = [net.index for net in netlist.primary_inputs]
        self.pi_names: List[str] = [net.name for net in netlist.primary_inputs]
        #: per-net DC row before inputs are applied: constants, else 0
        self._dc_template: List[int] = [
            0 if value is None else value for value in self.net_constant
        ]
        #: per gate, in index (= ``netlist.gates``) order:
        #: ``(gate, output net, input net ids)``
        self._gate_plan: List[Tuple[int, int, Tuple[int, ...]]] = [
            (
                gate.index,
                gate.output.index,
                tuple(gate_input.net.index for gate_input in gate.inputs),
            )
            for gate in gates
        ]
        # None until first use, then the sweep plan, or () when cyclic.
        self._dc_sweep: Union[
            None, Tuple[()], List[Tuple[int, int, Tuple[int, ...]]]
        ] = None
        # Result dicts keep ``netlist.nets`` key order (not index order).
        self._key_ids: List[int] = [net.index for net in netlist.nets.values()]
        self._key_names: List[str] = list(netlist.nets)
        self._key_index: Optional[Dict[str, int]] = None
        #: first net in key order with no driver, input or constant
        #: value: reading every value must fail on it
        undriven = [net.name for net in netlist.nets.values() if net.driver is None
                    and not net.is_primary_input and not net.is_constant]
        self._undriven: Optional[str] = undriven[0] if undriven else None

    def __getstate__(self) -> Dict[str, object]:
        """Pickle the lowered lists without the netlist back-reference.

        A ``CompiledNetlist`` travels across process boundaries *inside*
        its owning netlist's flat snapshot
        (:meth:`repro.circuit.netlist.Netlist._flat_state`); the netlist
        re-attaches itself on rebuild.  Keeping the back-reference out of
        the state breaks the reduce-time cycle between the two objects —
        and means a ``CompiledNetlist`` pickled on its own comes back
        with ``netlist`` set to None.
        """
        state = {slot: getattr(self, slot) for slot in self.__slots__}
        state["netlist"] = None
        state["_key_index"] = None
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        for slot, value in state.items():
            setattr(self, slot, value)

    def primary_output_names(self) -> List[str]:
        """Names of the primary outputs captured by this lowering."""
        return [
            name
            for name, is_po in zip(self.net_names, self.net_is_po)
            if is_po
        ]

    def topological_order(self) -> List[int]:
        """Gate indices in driver-before-reader order over the lowering.

        The compiled twin of
        :meth:`repro.circuit.netlist.Netlist.topological_gates`: Kahn's
        algorithm over the CSR fanout lists, counting per-pin fanin
        exactly as the object-graph version does.  Raises
        :class:`SimulationError` naming a stuck gate when the lowering
        contains a combinational cycle.  The static timing analyzer
        (:mod:`repro.analysis.sta`) runs its window pass in this order,
        and the ERC lowering check (:mod:`repro.circuit.validate`)
        asserts this agrees with the raw netlist's cycle verdict.

        The order depends only on connectivity, which is frozen for the
        lifetime of this object (a structural edit compiles a fresh
        lowering), so the Kahn pass runs once and later calls return a
        copy of the cached result.
        """
        if self._topo_cache is not None:
            return list(self._topo_cache)
        net_driver = self.net_driver
        input_net = self.input_net
        offsets = self.gate_input_offsets
        remaining: List[int] = [0] * self.num_gates
        ready: List[int] = []
        for gate in range(self.num_gates):
            fanin = 0
            for uid in range(offsets[gate], offsets[gate + 1]):
                if net_driver[input_net[uid]] >= 0:
                    fanin += 1
            remaining[gate] = fanin
            if fanin == 0:
                ready.append(gate)
        fanout_offsets = self.fanout_offsets
        fanout_targets = self.fanout_targets
        input_gate = self.input_gate
        gate_output_net = self.gate_output_net
        order: List[int] = []
        cursor = 0
        while cursor < len(ready):
            gate = ready[cursor]
            cursor += 1
            order.append(gate)
            out_net = gate_output_net[gate]
            for position in range(
                fanout_offsets[out_net], fanout_offsets[out_net + 1]
            ):
                reader = input_gate[fanout_targets[position]]
                remaining[reader] -= 1
                if remaining[reader] == 0:
                    ready.append(reader)
        if len(order) != self.num_gates:
            stuck = next(
                gate for gate in range(self.num_gates) if remaining[gate] > 0
            )
            raise SimulationError(
                "combinational cycle detected in the lowering (through "
                "gate %r)" % self.gate_names[stuck]
            )
        self._topo_cache = order
        return list(order)

    # ------------------------------------------------------------------
    # DC initialisation over the lowering
    # ------------------------------------------------------------------
    #
    # The array twin of repro.circuit.evaluate.evaluate_netlist, shared by
    # every engine that runs over the lowering (scalar _build_state and
    # the bitparallel dc_masks alike): same validation and error
    # messages, one sweep in topological order, and the same Gauss-Seidel
    # relaxation (gates in netlist.gates order) for cyclic circuits, so
    # fixpoints agree bit for bit.  Truth tables are read live from
    # ``gate_tables`` on every call: fault injection patches them in place.

    def check_dc_inputs(self, input_values: Mapping[str, int]) -> None:
        """Validate one DC input assignment.

        Raises:
            StimulusError: a primary input is missing, a value is not
                0/1, or a name is not a primary input.
        """
        for name in self.pi_names:
            if name not in input_values:
                raise StimulusError("missing value for primary input %r" % name)
            value = input_values[name]
            if value not in (0, 1):
                raise StimulusError(
                    "input %r: value must be 0 or 1, got %r" % (name, value)
                )
        if len(input_values) != len(self.pi_names):
            pi_names = set(self.pi_names)
            for name in input_values:
                if name not in pi_names:
                    raise StimulusError("%r is not a primary input" % name)

    def dc_inputs(self, input_values: Mapping[str, int]) -> List[int]:
        """Validate one DC input assignment; return its per-net row.

        The row holds the primary-input values and the constants; every
        other entry is 0 until :meth:`dc_values` or :meth:`dc_relax`
        fills it in.
        """
        self.check_dc_inputs(input_values)
        row = list(self._dc_template)
        for net, name in zip(self.pi_ids, self.pi_names):
            row[net] = input_values[name]
        return row

    def fold_arc(
        self, arc: TimingArcSpec, c_load: float
    ) -> Tuple[float, float, float, float, float, float]:
        """``arc``'s ``arc_rise``/``arc_fall`` entry under the constant
        output load ``c_load``: ``(tp0_base, d_slew, tau_base, s_slew,
        tau_deg, t0_coef)``, from which the kernel takes ``tp0 =
        tp0_base + d_slew*tau_in``, ``tau_out = tau_base +
        s_slew*tau_in``, ``tau_deg = vdd*(A + B*CL)`` (paper eq. 2) and
        ``T0 = t0_coef*tau_in`` (paper eq. 3).  The one folding rule:
        a fault patch that re-folds an arc must round exactly as the
        lowering does."""
        degradation = arc.degradation
        vdd = self.vdd
        return (
            arc.d0 + arc.d_load * c_load,
            arc.d_slew,
            arc.s0 + arc.s_load * c_load,
            arc.s_slew,
            vdd * (degradation.a + degradation.b * c_load),
            0.5 - degradation.c / vdd,
        )

    def dc_sweep(self) -> Optional[List[Tuple[int, int, Tuple[int, ...]]]]:
        """``(gate, output net, input nets)`` in topological order, or
        None when the lowering is cyclic (DC-init must relax instead).

        Only the :class:`SimulationError` of :meth:`topological_order`
        selects relaxation; any other error propagates.
        """
        if self._dc_sweep is None:
            try:
                order = self.topological_order()
            except SimulationError:
                self._dc_sweep = ()  # cyclic: remember the verdict
                return None
            plan = self._gate_plan
            self._dc_sweep = [plan[gate] for gate in order]
        return self._dc_sweep if isinstance(self._dc_sweep, list) else None

    def _gate_value(self, gate: int, row: List[int], in_nets: Tuple[int, ...]) -> int:
        table = self.gate_tables[gate]
        if table is None:  # only hand-built cells exceed the tabling cap
            return evaluate_function(
                self.gate_functions[gate], [row[net] for net in in_nets]
            )
        index = 0
        shift = 0
        for net in in_nets:
            index |= row[net] << shift
            shift += 1
        return table[index]

    def dc_relax(
        self, row: List[int], seed: Optional[Mapping[str, int]] = None
    ) -> List[int]:
        """Gauss-Seidel relaxation of a :meth:`dc_inputs` row, in place.

        Nets other than inputs and constants start from ``seed`` (0 when
        unlisted); gates are swept in ``netlist.gates`` order until no
        output changes.

        Raises:
            InitializationError: no fixpoint within ``MAX_RELAX_SWEEPS``
                sweeps (evaluate_netlist's default budget).
        """
        if seed:
            constants = self.net_constant
            is_pi = self.net_is_pi
            for net, name in enumerate(self.net_names):
                if not is_pi[net] and constants[net] is None:
                    row[net] = seed.get(name, 0)
        gate_value = self._gate_value
        plan = self._gate_plan
        for _iteration in range(MAX_RELAX_SWEEPS):
            changed = False
            for gate, out_net, in_nets in plan:
                value = gate_value(gate, row, in_nets)
                if row[out_net] != value:
                    row[out_net] = value
                    changed = True
            if not changed:
                return row
        raise InitializationError(
            "netlist %r did not reach a stable state after %d relaxation "
            "sweeps; provide a consistent seed or different inputs"
            % (self.netlist.name, MAX_RELAX_SWEEPS)
        )

    def dc_values(
        self,
        input_values: Mapping[str, int],
        seed: Optional[Mapping[str, int]] = None,
    ) -> List[int]:
        """Steady-state value of every net under ``input_values``, indexed
        by net id (the lowering's :func:`~repro.circuit.evaluate.evaluate_netlist`).

        ``seed`` is used only by the cyclic fallback.  Undriven nets read 0.
        """
        row = self.dc_inputs(input_values)
        sweep = self.dc_sweep()
        if sweep is None:
            return self.dc_relax(row, seed)
        return self.dc_update(row, sweep)

    def dc_update(
        self, row: List[int], sweep: Sequence[Tuple[int, int, Tuple[int, ...]]]
    ) -> List[int]:
        """Re-evaluate the gates of ``sweep`` into ``row``, in place.

        ``sweep`` is :meth:`dc_sweep` or a subset of it in the same
        (topological) order; every net a listed gate reads that no
        listed gate drives must already hold its steady value.  The
        differential fault simulator (:mod:`repro.faults.differential`)
        re-solves one fault's fanout cone this way.  The native twin
        (:mod:`repro.core._native`) runs instead whenever it was built.
        """
        if (native := _native.kernel()) is not None:
            return native.dc_update(self, row, sweep)  # type: ignore[no-any-return]
        tables = self.gate_tables
        for gate, out_net, in_nets in sweep:
            table = tables[gate]
            arity = len(in_nets)
            # One- and two-input gates (most of any primitive netlist)
            # skip the generic bit-packing loop.
            if arity == 2 and table is not None:
                first, second = in_nets
                row[out_net] = table[row[first] | row[second] << 1]
            elif arity == 1 and table is not None:
                row[out_net] = table[row[in_nets[0]]]
            else:
                row[out_net] = self._gate_value(gate, row, in_nets)
        return row

    def named_values(self, row: Sequence[int]) -> Dict[str, int]:
        """``{net name: row[net id]}`` in ``netlist.nets`` key order.

        ``row`` must hold every net's committed value (entries of undriven
        nets are ignored).  Raises :class:`SimulationError` naming the
        first undriven net, as reading each net's value would.
        """
        return dict(zip(self._key_names, self.key_row(row)))

    def trace_layout(
        self, row: Sequence[int]
    ) -> Tuple[List[str], List[int], Dict[str, int]]:
        """``(names, key_row(row), name -> position)``: the layout of a
        run's traces, in ``netlist.nets`` key order.  ``names`` and the
        index are built once and shared by every run."""
        values = self.key_row(row)
        if self._key_index is None:
            self._key_index = {
                name: slot for slot, name in enumerate(self._key_names)
            }
        return self._key_names, values, self._key_index

    def key_row(self, row: Sequence[int]) -> List[int]:
        """``row`` (indexed by net id) reordered to ``netlist.nets`` key
        order, with :meth:`named_values`'s undriven-net check."""
        if self._undriven is not None:
            raise SimulationError("net %r has no driver" % self._undriven)
        return [row[net] for net in self._key_ids]

    def arc_delay_bounds(
        self, uid: int, slew_min: float, slew_max: float
    ) -> Tuple[float, float, float, float]:
        """Hull of the nominal delay and output slew of gate input ``uid``.

        Evaluates the load-folded rise *and* fall arcs at both endpoints
        of the input-slew interval and returns ``(tp_min, tp_max,
        tau_min, tau_max)``: the extreme nominal propagation delays and
        output transition durations reachable through this input for
        either output edge and any input slew in ``[slew_min,
        slew_max]``.  "Nominal" means before the delay-mode policy (DDM
        degradation shrink, ``min_delay`` floor) is applied — the static
        analyzer (:mod:`repro.analysis.sta`) layers the mode on top.
        The arcs are affine in the input slew, so the endpoint hull is
        exact.
        """
        tp_min = tp_max = tau_min = tau_max = 0.0
        first = True
        for params in (self.arc_rise[uid], self.arc_fall[uid]):
            tp0_base, d_slew, tau_base, s_slew = params[:4]
            for tau_in in (slew_min, slew_max):
                tp = tp0_base + d_slew * tau_in
                tau_out = tau_base + s_slew * tau_in
                if first:
                    tp_min = tp_max = tp
                    tau_min = tau_max = tau_out
                    first = False
                    continue
                if tp < tp_min:
                    tp_min = tp
                elif tp > tp_max:
                    tp_max = tp
                if tau_out < tau_min:
                    tau_min = tau_out
                elif tau_out > tau_max:
                    tau_max = tau_out
        return tp_min, tp_max, tau_min, tau_max

    def __repr__(self) -> str:
        return "CompiledNetlist(%s: %d gates, %d nets, %d inputs)" % (
            self.netlist.name,
            self.num_gates,
            self.num_nets,
            self.num_inputs,
        )


# ----------------------------------------------------------------------
# the event queue over list entries
# ----------------------------------------------------------------------

class _CompiledHeapQueue:
    """Binary heap with lazy cancellation, over list entries.

    Entries order by their ``(time, uid, seq)`` head slots (``seq`` is
    unique, so comparisons never reach the payload) and carry their
    lifecycle in slot ``E_STATE``.  Same-time events on different pins
    thus run in pin order.  When every gate is numbered after the gates
    driving its inputs, pin uids grow along every path, so an event a
    running instant pushes (a late event clamped to ``now``) sorts
    behind the one just popped, and the pops follow the keys alone,
    not the order of the pushes: that is what lets a fault's cone-only
    run (:mod:`repro.faults.differential`) order its ties exactly as
    the full run does.  The bit-parallel engine's word entries share
    the head and state slots and use this class too.  Both kernel
    loops work on ``_heap`` and ``_live`` inline, with the same lazy
    cancellation; the methods serve everything outside the loops.
    """

    def __init__(self):
        self._heap: List[list] = []
        self._live = 0

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def push(self, entry: list) -> None:
        heappush(self._heap, entry)
        self._live += 1

    def cancel(self, entry: list) -> None:
        if entry[E_STATE] == _PENDING:
            entry[E_STATE] = _CANCELLED
            self._live -= 1

    def pop(self) -> Optional[list]:
        heap = self._heap
        while heap:
            entry = heappop(heap)
            if entry[E_STATE] == _CANCELLED:
                continue
            self._live -= 1
            return entry
        return None

    def peek_time(self) -> Optional[float]:
        heap = self._heap
        while heap and heap[0][E_STATE] == _CANCELLED:
            heappop(heap)
        if not heap:
            return None
        return heap[0][E_TIME]

    def clear(self) -> None:
        self._heap.clear()
        self._live = 0

    def preload(self, heap: List[list]) -> None:
        """Replace the contents with ``heap``, a list already in heap
        order (a sorted list is one) of pending entries."""
        self._heap = heap
        self._live = len(heap)


class KernelRecord:
    """What the recording arm of the kernel loop keeps of one run, for
    the differential fault simulator (:mod:`repro.faults.differential`):
    every executed entry per input pin, the last execution time and the
    degraded and fully degraded emissions per gate, and the scheduled,
    filtered and late events per broadcasting net."""

    __slots__ = (
        "executed",
        "gate_last_time",
        "gate_degraded",
        "gate_fully",
        "net_scheduled",
        "net_filtered",
        "net_late",
    )

    def __init__(self, cn: CompiledNetlist):
        self.executed: List[List[list]] = [[] for _ in range(cn.num_inputs)]
        self.gate_last_time = [0.0] * cn.num_gates
        self.gate_degraded = [0] * cn.num_gates
        self.gate_fully = [0] * cn.num_gates
        self.net_scheduled = [0] * cn.num_nets
        self.net_filtered = [0] * cn.num_nets
        self.net_late = [0] * cn.num_nets


# ----------------------------------------------------------------------
# the compiled backend
# ----------------------------------------------------------------------

@register_engine("compiled")
class CompiledSimulator(EngineBase):
    """The HALOTIS kernel over a :class:`CompiledNetlist`.

    Behaviourally identical to :class:`repro.core.engine.HalotisSimulator`
    — same event order, same floats, same statistics — but the kernel
    loop (:meth:`_advance`, one function) touches only ints, floats and
    preallocated lists.

    Args:
        netlist: the circuit; lowered on construction unless a
            pre-lowered ``compiled`` is supplied.
        config: engine knobs (the default is HALOTIS-DDM).
        compiled: optional pre-built :class:`CompiledNetlist` (must wrap
            ``netlist``); lets many simulators share one lowering.
    """

    lowers_netlist = True
    cli_blurb = "array-lowered kernel with a native event loop, the fastest single run"

    def __init__(
        self,
        netlist: Netlist,
        config: Optional[SimulationConfig] = None,
        compiled: Optional[CompiledNetlist] = None,
    ):
        if compiled is not None and compiled.netlist is not netlist:
            raise SimulationError(
                "compiled netlist does not wrap the given netlist"
            )
        super().__init__(netlist, config=config)
        self._bind(compiled if compiled is not None else netlist.compile())
        self._event_order = (
            self.config.inertial_policy is InertialPolicy.EVENT_ORDER
        )
        self._use_ddm = self.config.delay_mode is DelayMode.DDM
        self._min_delay = self.config.min_delay
        self._resolution = self.config.time_resolution
        self._max_events = self.config.max_events
        # dynamic state (built by _build_state)
        self._input_values: List[int] = []
        self._gate_out: List[int] = []
        self._gate_last: List[Optional[float]] = []
        self._stacks: List[List[list]] = []
        self._pi: List[int] = []
        self._toggles: List[int] = []
        self._toggles_dirty = False
        self._trace_appenders: Optional[List] = None
        #: what the kernel loop's recording arm fills; None for plain runs
        self._record: Optional[KernelRecord] = None

    def _bind(self, cn: CompiledNetlist) -> None:
        """Run on the lowering ``cn`` from now on."""
        self._cn = cn
        #: the differential fault simulator over this engine (see
        #: :mod:`repro.faults.differential`), built by the first chunk
        #: that holds faulted stimuli and kept with its golden record.
        self._differential: Optional[DifferentialRunner] = None

    def _sync_lowering(self) -> CompiledNetlist:
        """``netlist.compile()``'s lowering, which the engine runs on.

        A lowering replaced since the engine last ran (after
        ``Netlist.invalidate_lowering()`` or a structural edit) is
        bound here, dropping the differential runner built over the
        old one, so the engine never runs on a stale lowering while
        fault injection patches the current one.
        """
        cn = self.netlist.compile()
        if cn is not self._cn:
            self._bind(cn)
        return cn

    @classmethod
    def ensure_available(cls) -> None:
        """Load the native kernel loop (building it on first use) at
        configuration time: a pool spawns its workers after this call,
        so forked workers inherit the loaded library instead of each
        loading it.  The loop is optional; this never raises."""
        _native.kernel()

    @property
    def compiled_netlist(self) -> CompiledNetlist:
        return self._cn

    def _new_queue(self) -> _CompiledHeapQueue:
        return _CompiledHeapQueue()

    # ------------------------------------------------------------------
    # lifecycle hooks
    # ------------------------------------------------------------------

    def _build_state(
        self,
        input_values: Dict[str, int],
        seed: Optional[Dict[str, int]],
    ) -> None:
        cn = self._sync_lowering()
        dc = cn.dc_values(input_values, seed)
        self._input_values = [dc[net] for net in cn.input_net]
        self._gate_out = [dc[net] for net in cn.gate_output_net]
        self._gate_last = [None] * cn.num_gates
        self._stacks = [[] for _ in range(cn.num_inputs)]
        # Only the primary-input entries of the DC row are read (and
        # committed to) from here on.
        self._pi = dc
        self._toggles = [0] * cn.num_nets
        self._toggles_dirty = False

    def _trace_layout(
        self,
    ) -> Tuple[List[str], List[int], Optional[Dict[str, int]]]:
        # Right after DC init the primary-input row is the whole DC row.
        return self._cn.trace_layout(self._pi)

    def _after_initialize(self) -> None:
        if self.config.record_traces:
            # Bind each net id to its trace's row list (traces are in
            # ``netlist.nets`` order, which need not be id order).
            appenders: List[Optional[Callable[[Row], None]]] = (
                [None] * self._cn.num_nets
            )
            for rows, net in zip(self.traces.row_lists(), self._cn._key_ids):
                appenders[net] = rows.append
            self._trace_appenders = appenders
        else:
            self._trace_appenders = None

    # ------------------------------------------------------------------
    # stimulus hooks
    # ------------------------------------------------------------------

    def _pi_value(self, net: Net) -> int:
        return self._pi[net.index]

    def _commit_pi_value(self, net: Net, value: int) -> None:
        self._pi[net.index] = value

    def _count_toggle(self, net: Net) -> None:
        self._toggles[net.index] += 1
        self._toggles_dirty = True

    def _after_run(self) -> None:
        # Materialise the per-net-id toggle counters into the by-name
        # dict of SimulationStatistics (the hot loop only touches ints).
        # The dirty flag keeps step()-driven loops from paying an
        # O(nets) rebuild on events that toggled nothing.
        if not self._toggles_dirty:
            return
        self._toggles_dirty = False
        names = self._cn.net_names
        self.stats.net_toggles = {
            names[index]: count
            for index, count in enumerate(self._toggles)
            if count
        }

    # ------------------------------------------------------------------
    # the kernel loop
    # ------------------------------------------------------------------

    def _advance(
        self,
        until: Optional[float],
        steps: Optional[int],
        sources: Sequence[Tuple[Transition, Net]] = (),
    ) -> Optional[list]:
        """The HALOTIS loop (paper Figure 4) in one function: pop the
        next entry, evaluate its gate, compute the output transition
        (DDM eq. 1 or CDM) and fan it out through the inertial filter.
        A source transition (a primary-input change or a SET pulse edge)
        enters the same fan-out.

        Every lowering list, config scalar and statistics counter the loop
        touches is read into a local once per call and written back in
        ``finally``, so an exception leaves the engine consistent.  With
        a :class:`KernelRecord` bound (:mod:`repro.faults.differential`)
        the loop's recording arm also keeps what cone runs read.

        The native twin of this loop (:mod:`repro.core._native`) runs
        instead whenever it could be built; this body is its fallback
        and parity reference.
        """
        if (native := _native.kernel()) is not None:
            return native.advance(self, until, steps, sources)  # type: ignore[no-any-return]
        stats = self.stats
        queue = self.queue
        heap = queue._heap
        live = queue._live
        cn = self._cn
        gate_tables = cn.gate_tables
        arc_rise = cn.arc_rise
        arc_fall = cn.arc_fall
        input_gate = cn.input_gate
        gate_offsets = cn.gate_input_offsets
        gate_out_net = cn.gate_output_net
        fanout_offsets = cn.fanout_offsets
        fanout_targets = cn.fanout_targets
        vt_fraction = cn.vt_fraction
        input_values = self._input_values
        gate_out = self._gate_out
        gate_last = self._gate_last
        stacks = self._stacks
        toggles = self._toggles
        appenders = self._trace_appenders
        use_ddm = self._use_ddm
        event_order = self._event_order
        min_delay = self._min_delay
        resolution = self._resolution
        max_events = self._max_events
        record_filtered = self.config.record_filtered
        record = self._record
        recording = record is not None
        if recording:
            rec_executed = record.executed
            rec_gate_last = record.gate_last_time
            rec_gate_degraded = record.gate_degraded
            rec_gate_fully = record.gate_fully
            rec_net_scheduled = record.net_scheduled
            rec_net_filtered = record.net_filtered
            rec_net_late = record.net_late
        horizon = _INF if until is None else until
        now = self.now
        seq = self._seq
        executed = stats.events_executed
        scheduled = stats.events_scheduled
        filtered = stats.events_filtered
        late = stats.late_events
        emitted = emitted_before = stats.transitions_emitted
        degraded = stats.transitions_degraded
        fully = stats.transitions_fully_degraded
        stop = None if steps is None else executed + steps
        limit = max_events if stop is None or stop > max_events else stop
        source_count = len(sources)
        next_source = 0
        event = None
        try:
            while True:
                if next_source < source_count:
                    transition, net = sources[next_source]
                    next_source += 1
                    out_net = net.index
                    t50 = transition.t50
                    tau_out = transition.duration
                    rising = transition.rising
                else:
                    # -- pop the next live entry ------------------------
                    if executed >= limit:
                        if executed == stop:
                            break
                        while heap and heap[0][E_STATE] == _CANCELLED:
                            heappop(heap)
                        if heap and heap[0][E_TIME] <= horizon:
                            raise SimulationLimitError(
                                "event budget (%d) exhausted at t=%.4f ns — "
                                "zero-delay oscillation?" % (max_events, now)
                            )
                        break
                    if not heap:
                        break
                    head = heappop(heap)
                    if head[E_STATE] == _CANCELLED:
                        continue
                    if head[E_TIME] > horizon:
                        heappush(heap, head)  # the same key: order unchanged
                        break
                    event = head
                    live -= 1
                    event[E_STATE] = _EXECUTED
                    now = event[E_TIME]
                    executed += 1

                    # -- the event step ---------------------------------
                    uid = event[E_UID]
                    gate = input_gate[uid]
                    if recording:
                        rec_executed[uid].append(event)
                        rec_gate_last[gate] = now
                    value = event[E_VALUE]
                    if input_values[uid] == value:
                        # Defensive: alternation normally guarantees a change.
                        continue
                    input_values[uid] = value
                    start = gate_offsets[gate]
                    arity = gate_offsets[gate + 1] - start
                    table = gate_tables[gate]
                    if table is None:  # pragma: no cover - hand-built cells only
                        output_value = evaluate_function(
                            cn.gate_functions[gate],
                            input_values[start:start + arity],
                        )
                    elif arity == 2:
                        output_value = table[
                            input_values[start] | input_values[start + 1] << 1
                        ]
                    elif arity == 1:
                        output_value = table[input_values[start]]
                    else:
                        index = 0
                        for bit in range(arity):
                            index |= input_values[start + bit] << bit
                        output_value = table[index]
                    if output_value == gate_out[gate]:
                        continue
                    gate_out[gate] = output_value

                    rising = output_value == 1
                    tau_in = event[E_DUR]
                    tp0_base, d_slew, tau_base, s_slew, tau_deg, t0_coef = (
                        arc_rise[uid] if rising else arc_fall[uid]
                    )
                    tp0 = tp0_base + d_slew * tau_in
                    tau_out = tau_base + s_slew * tau_in
                    last = gate_last[gate]
                    if not use_ddm or last is None:
                        factor = 1.0
                        tp = tp0 if tp0 > min_delay else min_delay
                    else:
                        # paper eq. 1 with eq. 2/3 folded into tau_deg / t0_coef
                        elapsed = now - last
                        t_offset = t0_coef * tau_in
                        if tau_deg <= 0.0:
                            factor = 1.0 if elapsed > t_offset else 0.0
                        else:
                            factor = 1.0 - _exp(-(elapsed - t_offset) / tau_deg)
                        if factor <= 0.0:
                            tp = min_delay
                        else:
                            tp = tp0 * factor
                            if tp < min_delay:
                                tp = min_delay
                    t50 = now + tp
                    gate_last[gate] = t50
                    out_net = gate_out_net[gate]
                    emitted += 1
                    toggles[out_net] += 1
                    if factor < 1.0:
                        degraded += 1
                        if recording:
                            rec_gate_degraded[gate] += 1
                        if factor <= 0.0:
                            fully += 1
                            if recording:
                                rec_gate_fully[gate] += 1
                    if appenders is not None:
                        if tau_out <= 0.0:
                            # what constructing the Transition would raise
                            raise WaveformError(
                                "transition duration must be positive"
                            )
                        appenders[out_net]((t50, tau_out, rising, factor, now))

                # -- the fan-out: one threshold crossing per fanout input,
                # through the inertial filter (see repro.core.inertial) --
                value = 1 if rising else 0
                first_seq = seq
                for position in range(
                    fanout_offsets[out_net], fanout_offsets[out_net + 1]
                ):
                    uid = fanout_targets[position]
                    fraction = vt_fraction[uid]
                    if rising:
                        crossing = t50 + tau_out * (fraction - 0.5)
                    else:
                        crossing = t50 + tau_out * (0.5 - fraction)
                    stack = stacks[uid]
                    previous = stack[-1] if stack else None

                    if previous is not None and previous[E_STATE] == _PENDING:
                        if event_order:
                            if crossing <= previous[E_TIME] + resolution:
                                event_time = None
                            else:
                                event_time = crossing
                        else:
                            event_time = peak_voltage_time(
                                crossing, previous[E_TIME], previous[E_RISING],
                                previous[E_T50], previous[E_DUR], t50, tau_out,
                                rising, fraction, resolution,
                            )
                        if event_time is None:
                            # annihilate: the pulse never crossed this input
                            previous[E_STATE] = _CANCELLED
                            live -= 1
                            stack.pop()
                            filtered += 1
                            if recording:
                                rec_net_filtered[out_net] += 1
                            if record_filtered:
                                self.filtered_log.append(
                                    FilteredEventRecord(
                                        time_now=now,
                                        gate_name=cn.gate_names[input_gate[uid]],
                                        pin_index=cn.input_pin[uid],
                                        net_name=cn.net_names[out_net],
                                        previous_event_time=previous[E_TIME],
                                        new_event_time=crossing,
                                    )
                                )
                            continue
                    else:
                        event_time = crossing
                        if len(stack) > 1:
                            # Every entry here has executed, and only the
                            # top one is ever read again.
                            del stack[:-1]
                        if previous is not None and crossing <= previous[E_TIME]:
                            # The predecessor already executed; we cannot
                            # unwind the past, so the restoring event runs
                            # immediately.
                            late += 1
                            if recording:
                                rec_net_late[out_net] += 1
                            if event_time < now:
                                event_time = now
                        elif crossing < now:
                            late += 1
                            if recording:
                                rec_net_late[out_net] += 1
                            event_time = now

                    seq += 1
                    entry = [
                        event_time, uid, seq, value, t50, tau_out, rising,
                        _PENDING,
                    ]
                    heappush(heap, entry)
                    stack.append(entry)
                if recording:
                    rec_net_scheduled[out_net] += seq - first_seq
                scheduled += seq - first_seq
                live += seq - first_seq
        finally:
            self.now = now
            self._seq = seq
            queue._live = live
            stats.events_executed = executed
            stats.events_scheduled = scheduled
            stats.events_filtered = filtered
            stats.late_events = late
            stats.transitions_emitted = emitted
            stats.transitions_degraded = degraded
            stats.transitions_fully_degraded = fully
            if emitted != emitted_before:
                self._toggles_dirty = True
        return event

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------

    def value(self, net_name: str) -> int:
        """Committed logic value of a net at the current time."""
        self._require_ready()
        net = self.netlist.net(net_name)
        index = net.index
        constant = self._cn.net_constant[index]
        if constant is not None:
            return constant
        if self._cn.net_is_pi[index]:
            return self._pi[index]
        driver = self._cn.net_driver[index]
        if driver < 0:
            # -1 sentinel: without this guard Python's negative indexing
            # would silently return the last gate's output.
            raise SimulationError("net %r has no driver" % net_name)
        return self._gate_out[driver]

    def values(self) -> Dict[str, int]:
        """Committed logic values of every net (``netlist.nets`` order)."""
        self._require_ready()
        row = list(self._pi)
        gate_out = self._gate_out
        for gate, net in enumerate(self._cn.gate_output_net):
            row[net] = gate_out[gate]
        return self._cn.named_values(row)


@register_engine("vector")
class VectorSimulator(CompiledSimulator):
    """The ``"vector"`` name, kept as an alias of the compiled engine.

    The numpy N-lane lockstep kernel it once named is deleted: it gave
    the compiled engine's bits at no better cost.  Every run under this
    name — single stimuli, batches, campaigns — is the compiled path.
    The name exists only until ROADMAP item 1 drops the benchmark's
    ``alt.vector`` probe.
    """

    cli_blurb = "alias of 'compiled', kept for the benchmark's alt.vector probe"
