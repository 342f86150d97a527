"""Bit-parallel word-level simulation backend ("bitparallel" engine).

GSIM-style RTL simulators show that the orders of magnitude a batch
can win over N scalar runs come from collapsing per-signal work into
whole machine-word bitwise operations.  This module applies that idea
to the HALOTIS event kernel: **one stimulus vector per bit** of a lane
word, every gate evaluated for all lanes at once with a handful of
AND / OR / XOR / MUX word operations.

Representation
--------------

A *lane word* is an arbitrary-width bit mask — lane ``k`` of a value
lives in bit ``k``.  Inside the kernel the masks are Python ints (whose
limbs are machine words, so every ``&``/``|``/``^`` is a word-at-a-time
C loop over ``ceil(N/64)`` words); at the API boundary
(:meth:`_WordKernel.packed_toggle_words`, the
:mod:`repro.analysis.activity` popcount fast path) the same masks are
exchanged as little-endian numpy ``uint64`` word arrays.  numpy is a
hard requirement of this backend only for that boundary: the per-lane
counts unpack recorded masks with it and the activity path popcounts
packed words.  The kernel itself reads the lowering's plain lists.

Lowering
--------

Each gate's dense truth table (its entry of the lowering's
``gate_tables``) is lowered **once** into a
word-level op sequence by Shannon decomposition on the highest pin:
``f = (x & f_hi) | (~x & f_lo)``, with the XOR (``f_hi == ~f_lo``),
AND, OR and constant special cases collapsing the mux.  Complemented
tables are tried too (``expr ^ F`` with ``F`` the full lane mask) and
the cheaper form wins.  The resulting expressions are memoised per
truth table and compiled to Python lambdas; their op counts are
reported by :meth:`_WordKernel.word_op_counts` (and land in the
benchmark JSON of ``benchmarks/test_bitparallel_speedup.py``).

Event scheduling
----------------

Events are scheduled per **word**: one queue entry carries the lane
mask of pending changes (plus the mask of rising lanes), so a batch
whose lanes toggle together costs one event where the other engines pay
N.  Execution XOR-toggles the word into the gate-input state — exact,
because per (input, lane) scheduled transitions strictly alternate and
the inertial rule only ever removes opposite-direction *pairs* — and
re-evaluates the gate's word program.

Declared accuracy tier
----------------------

The timing contract is **CDM-grade**: no per-lane degradation
arithmetic (paper eq. 1 is skipped entirely, as in HALOTIS-CDM), and a
word transition whose lanes mix directions uses the word's *earliest*
delay arc, *latest* output slew and *latest* threshold crossing, and
pending word events of one gate input coalesce within a small *batch
hold* window (the netlist's mean base arc delay; zero at N = 1) that
re-aligns staggered wavefronts so a wide batch stays word-parallel.  A
single-direction word event (always the case at N = 1) performs exactly
the compiled CDM engine's float operations in the same order, so a
one-lane batch is bit-identical to ``engine_kind="compiled"`` under
``cdm_config()`` — pinned by ``tests/core/test_bitparallel_parity.py``.
A single stimulus outside a batch (``simulate()``, faulted chunks) runs
on the compiled kernel that :class:`BitParallelSimulator` inherits, in
CDM mode whatever the config says.  Per-lane **logic values** are exact
for every lane count: parity-tested bit for bit against the reference
engine.  Waveform timing of multi-lane batches is approximate; use
``"compiled"`` when per-lane analog timing matters and
``"bitparallel"`` for two-valued activity / coverage workloads.

Per-lane statistics (events, filtered counts, per-net toggles) cost the
hot path one list append of the event's lane mask; all per-lane
arithmetic happens once at the end, where the recorded masks unpack
into a numpy bits matrix and sum per lane (and per net, for toggles).
The per-net counts leave the kernel as packed *bit-plane* ``uint64``
words — count bit ``p`` of all lanes in one word row — which the
:mod:`repro.analysis.activity` fast path popcounts directly.
"""

from __future__ import annotations

import time as _time
from heapq import heappop, heappush
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from .. import config as _config_module
from ..circuit.logic import evaluate as evaluate_function
from ..circuit.netlist import Netlist
from ..config import DelayMode, InertialPolicy, SimulationConfig
from ..errors import SimulationError, SimulationLimitError, StimulusError
from .compiled import (
    _CANCELLED,
    _EXECUTED,
    _INF,
    _PENDING,
    E_SEQ,
    E_STATE,
    E_TIME,
    E_UID,
    CompiledNetlist,
    CompiledSimulator,
    _CompiledHeapQueue,
)
from .engine import SimulationResult, register_engine
from .inertial import peak_voltage_time
from .stats import SimulationStatistics
from .trace import TraceSet
from .transition import Transition

try:  # pragma: no cover - numpy present in CI
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None


def _require_numpy() -> None:
    # Looked up through the module so a monkeypatched probe (tests
    # simulating a numpy-less install) gates this layer too.
    if _np is None or not _config_module.numpy_available():
        raise SimulationError(
            _config_module.numpy_required_message("bitparallel")
        )


# Entry layout of a word event (a plain list, ordered like a compiled
# entry by its first three slots: time, input-pin uid, then the unique
# ``seq``, so comparisons never reach the payload).  ``mask`` is the
# lane word of pending changes, ``rising`` the sub-mask of lanes whose
# new value is 1.  ``W_TIME`` is the
# *queue* time (threshold crossing plus the batch hold); ``W_CROSS``
# keeps the true crossing, which all downstream timing derives from so
# the hold never accumulates across levels.  At N = 1 the hold is zero
# and the two coincide.
(W_TIME, W_UID, W_SEQ, W_MASK, W_RISING, W_T50, W_DUR, W_STATE,
 W_CROSS) = range(9)


# The word kernel queues its entries on the compiled backend's list-entry
# heap, which orders by the head slots and reads the state slot; fail at
# import if the two layouts ever stop agreeing on them, so the tie rule
# is defined once, by the compiled layout.
if (W_TIME, W_UID, W_SEQ, W_STATE) != (
    E_TIME, E_UID, E_SEQ, E_STATE
):  # pragma: no cover
    raise SimulationError(
        "word-entry layout disagrees with compiled entries on the "
        "head/state slots the shared heap reads"
    )


# ----------------------------------------------------------------------
# truth table -> word-op program lowering
# ----------------------------------------------------------------------

#: Memoised Shannon expressions: truth-table tuple -> (expr, op count).
#: The tuple's length encodes the arity, so sub-tables share entries
#: across gates and cells.
_EXPR_CACHE: Dict[Tuple[int, ...], Tuple[str, int]] = {}

#: Memoised compiled programs: truth-table tuple -> (fn, ops, expr).
_PROGRAM_CACHE: Dict[Tuple[int, ...], Tuple[Callable, int, str]] = {}


def _table_expr(table: Tuple[int, ...]) -> Tuple[str, int]:
    """Word-level expression for a dense truth table.

    Shannon decomposition on the highest pin; ``i[k]`` is pin ``k``'s
    input word, ``F`` the full lane mask (so ``x ^ F`` is NOT).  The
    returned op count tallies the binary word operations.
    """
    cached = _EXPR_CACHE.get(table)
    if cached is not None:
        return cached
    size = len(table)
    if size == 1:
        result = ("F" if table[0] else "0", 0)
    else:
        half = size // 2
        low, high = table[:half], table[half:]
        if low == high:
            result = _table_expr(low)
        else:
            pin = size.bit_length() - 2
            x = "i[%d]" % pin
            expr_low, ops_low = _table_expr(low)
            expr_high, ops_high = _table_expr(high)
            if all(a != b for a, b in zip(low, high)):
                # high == NOT low: f = x XOR f_low
                if expr_low == "0":
                    result = (x, 0)
                elif expr_low == "F":
                    result = ("(%s ^ F)" % x, 1)
                else:
                    result = ("(%s ^ %s)" % (x, expr_low), ops_low + 1)
            elif expr_low == "0":
                if expr_high == "F":
                    result = (x, 0)
                else:
                    result = ("(%s & %s)" % (x, expr_high), ops_high + 1)
            elif expr_high == "0":
                if expr_low == "F":
                    result = ("(%s ^ F)" % x, 1)
                else:
                    result = ("((%s ^ F) & %s)" % (x, expr_low), ops_low + 2)
            elif expr_high == "F":
                result = ("(%s | %s)" % (x, expr_low), ops_low + 1)
            elif expr_low == "F":
                result = ("((%s ^ F) | %s)" % (x, expr_high), ops_high + 2)
            else:
                # The general 2:1 word mux.
                result = (
                    "((%s & %s) | ((%s ^ F) & %s))"
                    % (x, expr_high, x, expr_low),
                    ops_low + ops_high + 4,
                )
    _EXPR_CACHE[table] = result
    return result


def _compile_program(table: Tuple[int, ...]) -> Tuple[Callable, int, str]:
    """Compile a truth table into ``fn(input_words, F) -> output_word``.

    Tries the direct expression and the complemented table followed by
    a final NOT, keeping whichever needs fewer word ops.  The ``eval``
    input is generated entirely by :func:`_table_expr` from integer
    truth tables — no external text ever reaches it.
    """
    cached = _PROGRAM_CACHE.get(table)
    if cached is not None:
        return cached
    direct_expr, direct_ops = _table_expr(table)
    comp_expr, comp_ops = _table_expr(tuple(1 - value for value in table))
    if comp_ops + 1 < direct_ops:
        expr, ops = "(%s ^ F)" % comp_expr, comp_ops + 1
    else:
        expr, ops = direct_expr, direct_ops
    function = eval("lambda i, F: %s" % expr)  # noqa: S307 (generated)
    compiled = (function, ops, expr)
    _PROGRAM_CACHE[table] = compiled
    return compiled


# ----------------------------------------------------------------------
# per-lane counters (append-only mask lists, aggregated by numpy)
# ----------------------------------------------------------------------
#
# The hot path records each counted word as one list append — the
# cheapest operation Python has — and all per-lane arithmetic happens
# once at the end: the masks unpack into a bits matrix and sum down a
# column per lane.  This beats maintaining per-event ripple-carry
# bit-plane counters by a wide margin at 256 lanes.

def _unpack_masks(masks: Sequence[int], lanes: int):
    """Lane words -> a ``(len(masks), lanes)`` uint8 bits matrix."""
    nbytes = (lanes + 7) // 8
    raw = b"".join(mask.to_bytes(nbytes, "little") for mask in masks)
    return _np.unpackbits(
        _np.frombuffer(raw, _np.uint8).reshape(len(masks), nbytes),
        axis=1,
        bitorder="little",
    )[:, :lanes]


def _multi_mask_lane_counts(mask_lists: Sequence[Sequence[int]],
                            lanes: int):
    """Per-lane counts of several recorded mask lists in one unpack.

    The fixed cost of :func:`_unpack_masks` (join, frombuffer,
    unpackbits) is paid once for all categories instead of once each.
    Returns one python ``List[int]`` of length ``lanes`` per input list.
    """
    merged: List[int] = []
    for masks in mask_lists:
        merged.extend(masks)
    if not merged:
        return [[0] * lanes for _ in mask_lists]
    bits = _unpack_masks(merged, lanes)
    out = []
    start = 0
    for masks in mask_lists:
        end = start + len(masks)
        out.append(bits[start:end].sum(axis=0, dtype=_np.int64).tolist())
        start = end
    return out


def _toggle_count_matrix(events: Sequence[Tuple[int, int]],
                         num_nets: int, lanes: int):
    """Flat ``(net, change_mask)`` log -> ``(num_nets, lanes)`` int64.

    Unpacks every change mask, then groups the event rows by net and
    sums each group in one ``reduceat`` sweep (much faster than an
    unbuffered ``add.at``).
    """
    counts = _np.zeros((num_nets, lanes), _np.int64)
    if events:
        nets = _np.array([net for net, _mask in events], _np.int64)
        bits = _unpack_masks(
            [mask for _net, mask in events], lanes
        ).astype(_np.int64)
        order = _np.argsort(nets, kind="stable")
        nets = nets[order]
        bits = bits[order]
        starts = _np.concatenate(
            [[0], _np.flatnonzero(_np.diff(nets)) + 1]
        )
        counts[nets[starts]] = _np.add.reduceat(bits, starts, axis=0)
    return counts


def _per_lane_toggle_dicts(matrix, names: Sequence[str],
                           lanes: int) -> List[Dict[str, int]]:
    """Toggle matrix -> one ``net name -> count`` dict per lane.

    All heavy steps run in C: a lane-major ``nonzero``, one fancy-index
    pull of the net names, and a ``dict(zip(...))`` per lane over the
    ``searchsorted`` lane boundaries.
    """
    per_lane: List[Dict[str, int]] = [{} for _ in range(lanes)]
    transposed = matrix.T
    lane_idx, net_idx = _np.nonzero(transposed)
    if not len(lane_idx):
        return per_lane
    values = transposed[lane_idx, net_idx].tolist()
    names_arr = _np.array(names, dtype=object)
    picked = names_arr[net_idx].tolist()
    bounds = _np.searchsorted(lane_idx, _np.arange(lanes + 1)).tolist()
    for lane in range(lanes):
        start, end = bounds[lane], bounds[lane + 1]
        if start != end:
            per_lane[lane] = dict(zip(picked[start:end],
                                      values[start:end]))
    return per_lane


def _counts_to_planes(row):
    """Per-lane counts -> packed bit-plane ``uint64`` word arrays.

    Plane ``p`` holds bit ``p`` of every lane's count, 64 lanes per
    word — the packed transport consumed by
    :func:`repro.analysis.activity.packed_activity_summary`.
    """
    planes = []
    highest = int(row.max()) if row.size else 0
    position = 0
    while highest >> position:
        bits = ((row >> position) & 1).astype(_np.uint8)
        packed = _np.packbits(bits, bitorder="little")
        pad = (-len(packed)) % 8
        if pad:
            packed = _np.concatenate(
                [packed, _np.zeros(pad, _np.uint8)]
            )
        planes.append(packed.view(_np.uint64))
        position += 1
    return planes


def _iter_lanes(mask: int):
    """Yield the set lane indices of a lane word, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# ----------------------------------------------------------------------
# lazy per-lane result views
# ----------------------------------------------------------------------
#
# Expanding the toggle log and the final net words into N python dicts
# costs more than the whole event loop at 256 lanes, and many batch
# consumers (speed gates, packed-activity popcounts) never read them
# per lane.  The driver therefore hands every lane a shared snapshot
# view: the dicts materialise on first attribute access, and the
# underlying unpack runs once for the whole batch.

class _LaneCountsView:
    """Frozen per-category mask lists, counted per lane on demand."""

    #: statistics fields covered, in recorded order.
    FIELDS = (
        "events_executed", "events_scheduled", "events_filtered",
        "late_events", "transitions_emitted", "source_transitions",
    )

    def __init__(self, kernel: _WordKernel):
        self._mask_lists = [
            list(kernel.executed_masks), list(kernel.scheduled_masks),
            list(kernel.filtered_masks), list(kernel.late_masks),
            list(kernel.emitted_masks), list(kernel.source_masks),
        ]
        self._lanes = kernel.lanes
        self._counts: Optional[List[List[int]]] = None

    def lane(self, lane: int) -> Dict[str, int]:
        if self._counts is None:
            self._counts = _multi_mask_lane_counts(
                self._mask_lists, self._lanes
            )
            self._mask_lists = []
        return {
            field: column[lane]
            for field, column in zip(self.FIELDS, self._counts)
        }


class _LaneToggleView:
    """Frozen toggle log, expanded to per-lane dicts on demand."""

    def __init__(self, kernel: _WordKernel):
        # Snapshot the log: the kernel may be reset and rerun later.
        self._events = list(kernel.toggle_events)
        self._names = kernel.compiled.net_names
        self._num_nets = kernel.num_nets
        self._lanes = kernel.lanes
        self._per_lane: Optional[List[Dict[str, int]]] = None

    def lane(self, lane: int) -> Dict[str, int]:
        if self._per_lane is None:
            matrix = _toggle_count_matrix(
                self._events, self._num_nets, self._lanes
            )
            self._per_lane = _per_lane_toggle_dicts(
                matrix, self._names, self._lanes
            )
            self._events = []
        return self._per_lane[lane]


class _LaneFinalsView:
    """Frozen final net words, expanded to per-lane dicts on demand."""

    def __init__(self, kernel: _WordKernel):
        self._net_val = list(kernel.net_val)
        self._names = kernel.compiled.net_names
        self._lanes = kernel.lanes
        self._per_lane: Optional[List[Dict[str, int]]] = None

    def lane(self, lane: int) -> Dict[str, int]:
        if self._per_lane is None:
            names = self._names
            columns = _unpack_masks(
                self._net_val, self._lanes
            ).T.tolist()
            self._per_lane = [
                dict(zip(names, column)) for column in columns
            ]
            self._net_val = []
        return self._per_lane[lane]


class _LaneStatistics(SimulationStatistics):
    """Statistics whose counters load lazily from shared lane views.

    ``net_toggles`` materialises from a :class:`_LaneToggleView`; the
    six event/transition counters from a :class:`_LaneCountsView`.
    Behaves exactly like the base dataclass otherwise: an explicit
    assignment (or :meth:`reset`) sticks, ``count_toggle`` mutates a
    private per-lane copy, and pickling carries the snapshot views.
    """

    def __init__(self, counts_view: _LaneCountsView,
                 toggle_view: _LaneToggleView, lane: int):
        super().__init__()
        self._counts_view: Optional[_LaneCountsView] = counts_view
        self._toggle_view: Optional[_LaneToggleView] = toggle_view
        self._lane = lane

    def _load_counts(self) -> None:
        view = self._counts_view
        self._counts_view = None
        for field, value in view.lane(self._lane).items():
            setattr(self, "_" + field, value)

    @property
    def net_toggles(self) -> Dict[str, int]:
        view = self._toggle_view
        if view is not None:
            self._net_toggles = dict(view.lane(self._lane))
            self._toggle_view = None
        return self._net_toggles

    @net_toggles.setter
    def net_toggles(self, value: Dict[str, int]) -> None:
        self._net_toggles = value
        self._toggle_view = None


def _lazy_counter(field: str) -> property:
    """A dataclass-field shadow that pulls from the counts view on
    first read and lets explicit writes (init defaults aside) stick."""
    attr = "_" + field

    def get(self: _LaneStatistics) -> int:
        if self._counts_view is not None:
            self._load_counts()
        return getattr(self, attr)

    def set(self: _LaneStatistics, value: int) -> None:
        # Consume the view first so a partial write (e.g. reset())
        # cannot be overwritten by a later lazy load.
        if getattr(self, "_counts_view", None) is not None:
            self._load_counts()
        setattr(self, attr, value)

    return property(get, set)


for _field in _LaneCountsView.FIELDS:
    setattr(_LaneStatistics, _field, _lazy_counter(_field))
del _field


class _LaneResult(SimulationResult):
    """Result whose ``final_values`` loads lazily from a shared
    :class:`_LaneFinalsView` (each lane's dict is a distinct object)."""

    def __init__(self, traces: TraceSet, stats: SimulationStatistics,
                 finals_view: _LaneFinalsView, lane: int):
        super().__init__(traces=traces, stats=stats, final_values=None,
                         simulator=None)
        self._finals_view: Optional[_LaneFinalsView] = finals_view
        self._finals_lane = lane

    @property
    def final_values(self) -> Dict[str, int]:
        view = self._finals_view
        if view is not None:
            self._final_values = view.lane(self._finals_lane)
            self._finals_view = None
        return self._final_values

    @final_values.setter
    def final_values(self, value) -> None:
        self._final_values = value
        self._finals_view = None


# ----------------------------------------------------------------------
# the word kernel
# ----------------------------------------------------------------------

def _batch_hold(compiled: CompiledNetlist, lanes: int) -> float:
    """The word-merge hold of a ``lanes``-wide batch: the lowering's
    mean CDM base arc delay, zero for a single lane."""
    if lanes <= 1 or not compiled.num_inputs:
        return 0.0
    return sum(
        arc[0]
        for arcs in (compiled.arc_rise, compiled.arc_fall)
        for arc in arcs
    ) / (2.0 * compiled.num_inputs)


class _WordKernel:
    """One HALOTIS-CDM event kernel over N lane-packed stimuli.

    All dynamic logic state is lane words; the static tables are the
    lists of one :class:`CompiledNetlist`.  The lockstep
    batch driver runs it through :meth:`run_until`, and word events
    queue on the compiled engine's list-entry heap.
    """

    def __init__(self, compiled: CompiledNetlist, config: SimulationConfig,
                 lanes: int):
        _require_numpy()
        self.compiled = compiled
        self.config = config
        self.lanes = lanes
        self.full_mask = (1 << lanes) - 1
        self.queue = _CompiledHeapQueue()

        self._event_order = (
            config.inertial_policy is InertialPolicy.EVENT_ORDER
        )
        self._min_delay = config.min_delay
        self._resolution = config.time_resolution
        self._max_events = config.max_events
        self._record_traces = config.record_traces

        self.num_nets = compiled.num_nets
        self.num_gates = compiled.num_gates
        self.num_inputs = compiled.num_inputs

        # Multi-lane wavefront re-alignment ("batch hold").  Lanes that
        # reach one gate input over different paths arrive at slightly
        # different crossings; scheduling each word event one typical
        # base delay late lets those arrivals merge into the pending
        # word instead of opening fresh events, which is where the
        # whole-batch event collapse comes from.  Zero at N = 1, so a
        # one-lane batch stays bit-identical to compiled CDM;
        # for batches it is part of the CDM-grade timing contract
        # (logic values are unaffected: scheduled transitions per
        # (input, lane) alternate and the inertial rule removes pairs).
        self._hold = _batch_hold(compiled, lanes)

        # Truth tables -> word-op programs (memoised across kernels).
        self._programs: List[Optional[Callable]] = []
        self._program_ops: List[int] = []
        for table in compiled.gate_tables:
            if table is not None:
                function, ops, _ = _compile_program(tuple(table))
                self._programs.append(function)
                self._program_ops.append(ops)
            else:  # pragma: no cover - only hand-built cells exceed cap
                self._programs.append(None)
                self._program_ops.append(-1)

        # Dynamic state (filled by reset()).
        self.net_val: List[int] = []
        self.input_val: List[int] = []
        self.gate_out: List[int] = []
        self.stacks: List[List[list]] = []
        self.now = 0.0
        self.seq = 0
        self.word_events_executed = 0
        self.executed_masks: List[int] = []
        self.scheduled_masks: List[int] = []
        self.filtered_masks: List[int] = []
        self.late_masks: List[int] = []
        self.emitted_masks: List[int] = []
        self.source_masks: List[int] = []
        self.toggle_events: List[Tuple[int, int]] = []
        #: per lane: list of NetTrace indexed by net id (None = off).
        self.trace_lists: List[Optional[list]] = [None] * lanes

    # -- lifecycle -----------------------------------------------------

    def dc_masks(self, lane_inputs: Sequence[Mapping[str, int]],
                 seed: Optional[Mapping[str, int]] = None) -> List[int]:
        """DC lane word of every net (the lowering's DC-init,
        :meth:`CompiledNetlist.dc_values`, with identical validation per
        lane, evaluated one gate word at a time)."""
        compiled = self.compiled
        for input_values in lane_inputs:
            compiled.check_dc_inputs(input_values)
        masks = [0] * self.num_nets
        sweep = compiled.dc_sweep()
        if sweep is None:
            # Cyclic circuit: the scalar relaxation per lane, packed.
            for lane, input_values in enumerate(lane_inputs):
                row = compiled.dc_relax(compiled.dc_inputs(input_values), seed)
                bit = 1 << lane
                for net, value in enumerate(row):
                    if value:
                        masks[net] |= bit
            return masks
        full = self.full_mask
        for net, value in enumerate(compiled.net_constant):
            if value == 1:
                masks[net] = full
        for net, name in zip(compiled.pi_ids, compiled.pi_names):
            word = 0
            for lane, input_values in enumerate(lane_inputs):
                if input_values[name]:
                    word |= 1 << lane
            masks[net] = word
        for gate, out_net, in_nets in sweep:
            function = self._programs[gate]
            if function is not None:
                out = function([masks[net] for net in in_nets], full)
            else:  # pragma: no cover - only hand-built cells exceed cap
                out = 0
                logic = compiled.gate_functions[gate]
                for lane in range(self.lanes):
                    bits = [(masks[net] >> lane) & 1 for net in in_nets]
                    if evaluate_function(logic, bits):
                        out |= 1 << lane
            masks[out_net] = out
        return masks

    def reset(self, net_masks: Sequence[int], start_time: float = 0.0) -> None:
        """(Re-)initialise every lane from per-net DC lane words."""
        net_val = self.net_val = list(net_masks)
        self.input_val = [net_val[net] for net in self.compiled.input_net]
        self.gate_out = [
            net_val[net] for net in self.compiled.gate_output_net
        ]
        self.stacks = [[] for _ in range(self.num_inputs)]
        self.queue.clear()
        self.now = start_time
        self.seq = 0
        self.word_events_executed = 0
        self.executed_masks = []
        self.scheduled_masks = []
        self.filtered_masks = []
        self.late_masks = []
        self.emitted_masks = []
        self.source_masks = []
        #: flat (net_index, change_mask) toggle log, grouped at the end.
        self.toggle_events: List[Tuple[int, int]] = []

    # -- the kernel loop ------------------------------------------------

    def run_until(
        self,
        until: Optional[float],
        sources: Sequence[Tuple[int, int, int, float, float]] = (),
    ) -> None:
        """Fan the word source transitions ``(net, mask, rising mask,
        t50, duration)`` out, then pop and execute word events up to and
        including ``until`` (all if None).

        One function, like the compiled kernel loop: the tables, state
        and mask logs are read into locals once per call, and ``now``,
        ``seq``, the event count and the queue's live count are written
        back in ``finally``.
        """
        queue = self.queue
        heap = queue._heap
        live = queue._live
        compiled = self.compiled
        programs = self._programs
        input_gate = compiled.input_gate
        gate_offsets = compiled.gate_input_offsets
        gate_out_net = compiled.gate_output_net
        fanout_offsets = compiled.fanout_offsets
        fanout_targets = compiled.fanout_targets
        vt_fraction = compiled.vt_fraction
        # Only the CDM slots of the arcs are read (degradation is out of
        # this backend's tier).
        arc_rise = compiled.arc_rise
        arc_fall = compiled.arc_fall
        input_val = self.input_val
        gate_out = self.gate_out
        net_val = self.net_val
        stacks = self.stacks
        full = self.full_mask
        min_delay = self._min_delay
        resolution = self._resolution
        hold = self._hold
        event_order = self._event_order
        max_events = self._max_events
        trace_lists = self.trace_lists if self._record_traces else None
        log_executed = self.executed_masks.append
        log_emitted = self.emitted_masks.append
        log_toggle = self.toggle_events.append
        log_scheduled = self.scheduled_masks.append
        log_filtered = self.filtered_masks.append
        log_late = self.late_masks.append
        horizon = _INF if until is None else until
        now = self.now
        seq = self.seq
        executed = self.word_events_executed
        source_count = len(sources)
        next_source = 0
        try:
            while True:
                if next_source < source_count:
                    out_net, change, rising_mask, t50, tau_out = (
                        sources[next_source]
                    )
                    next_source += 1
                else:
                    # -- pop the next live word event -------------------
                    if not heap:
                        break
                    entry = heappop(heap)
                    if entry[W_STATE] == _CANCELLED:
                        continue
                    if entry[W_TIME] > horizon:
                        heappush(heap, entry)  # the same key: order unchanged
                        break
                    if executed >= max_events:
                        heappush(heap, entry)
                        raise SimulationLimitError(
                            "event budget (%d) exhausted at t=%.4f ns — "
                            "zero-delay oscillation?" % (max_events, now)
                        )
                    live -= 1
                    entry[W_STATE] = _EXECUTED
                    now = entry[W_TIME]
                    # All timing derives from the true crossing, not the
                    # held queue time, so the batch hold delays execution
                    # order only.
                    time_now = entry[W_CROSS]
                    executed += 1
                    mask = entry[W_MASK]
                    log_executed(mask)

                    # -- the word event step ----------------------------
                    uid = entry[W_UID]
                    # Toggle semantics: per (input, lane) transitions
                    # alternate, so XOR-ing the change word in equals
                    # committing the new values.
                    input_val[uid] ^= mask
                    gate = input_gate[uid]
                    start = gate_offsets[gate]
                    end = gate_offsets[gate + 1]
                    function = programs[gate]
                    if function is not None:
                        new_out = function(input_val[start:end], full)
                    else:  # pragma: no cover - only hand-built cells exceed cap
                        new_out = 0
                        logic = compiled.gate_functions[gate]
                        for lane in range(self.lanes):
                            bits = [
                                (input_val[pin] >> lane) & 1
                                for pin in range(start, end)
                            ]
                            if evaluate_function(logic, bits):
                                new_out |= 1 << lane
                    change = new_out ^ gate_out[gate]
                    if not change:
                        continue
                    gate_out[gate] = new_out
                    rising_mask = new_out & change
                    out_net = gate_out_net[gate]
                    net_val[out_net] ^= change

                    # CDM-grade word timing.  Single-direction words
                    # (always the case at N = 1) use exactly the compiled
                    # CDM float sequence; mixed words take the earliest
                    # delay arc and the latest slew — the documented
                    # accuracy contract.
                    tau_in = entry[W_DUR]
                    if rising_mask == change:
                        arc = arc_rise[uid]
                        tp = arc[0] + arc[1] * tau_in
                        if tp <= min_delay:
                            tp = min_delay
                        tau_out = arc[2] + arc[3] * tau_in
                    elif rising_mask == 0:
                        arc = arc_fall[uid]
                        tp = arc[0] + arc[1] * tau_in
                        if tp <= min_delay:
                            tp = min_delay
                        tau_out = arc[2] + arc[3] * tau_in
                    else:
                        rise = arc_rise[uid]
                        fall = arc_fall[uid]
                        tp_rise = rise[0] + rise[1] * tau_in
                        tp_fall = fall[0] + fall[1] * tau_in
                        tp = tp_rise if tp_rise < tp_fall else tp_fall
                        if tp <= min_delay:
                            tp = min_delay
                        tau_rise = rise[2] + rise[3] * tau_in
                        tau_fall = fall[2] + fall[3] * tau_in
                        tau_out = tau_rise if tau_rise > tau_fall else tau_fall
                    t50 = time_now + tp

                    log_emitted(change)
                    log_toggle((out_net, change))
                    if trace_lists is not None:
                        net_name = compiled.net_names[out_net]
                        for lane in _iter_lanes(change):
                            traces = trace_lists[lane]
                            if traces is not None:
                                traces[out_net].append(Transition(
                                    t50=t50,
                                    duration=tau_out,
                                    rising=bool((rising_mask >> lane) & 1),
                                    net_name=net_name,
                                    degradation_factor=1.0,
                                    cause_time=time_now,
                                ))

                # -- the fan-out: one word event per receiving input.  The
                # inertial decision is taken per word against the input's
                # top-of-stack entry: lanes present in both annihilate
                # pairwise (exactly the scalar rule at N = 1); surviving
                # lanes schedule at the word's threshold crossing. --------
                single = rising_mask == 0 or rising_mask == change
                rising = rising_mask != 0
                for position in range(
                    fanout_offsets[out_net], fanout_offsets[out_net + 1]
                ):
                    uid = fanout_targets[position]
                    fraction = vt_fraction[uid]
                    if single:
                        if rising:
                            crossing = t50 + tau_out * (fraction - 0.5)
                        else:
                            crossing = t50 + tau_out * (0.5 - fraction)
                    else:
                        # Latest crossing of the word's mixed edges.
                        offset = tau_out * (fraction - 0.5)
                        crossing = t50 + (offset if offset >= 0.0 else -offset)
                    stack = stacks[uid]
                    previous = stack[-1] if stack else None
                    new_mask = change
                    new_rising = rising_mask

                    if previous is not None and previous[W_STATE] == _PENDING:
                        if event_order:
                            annihilate = crossing <= previous[W_TIME] + resolution
                            event_time = crossing
                        else:
                            previous_rising = previous[W_RISING]
                            previous_single = (
                                previous_rising == 0
                                or previous_rising == previous[W_MASK]
                            )
                            if single and previous_single:
                                decided = peak_voltage_time(
                                    crossing, previous[W_TIME],
                                    previous_rising != 0, previous[W_T50],
                                    previous[W_DUR], t50, tau_out, rising,
                                    fraction, resolution,
                                )
                                annihilate = decided is None
                                event_time = (
                                    crossing if decided is None else decided
                                )
                            else:
                                # Mixed-direction words carry no single
                                # ramp to reconstruct; fall back to the
                                # event-order rule.
                                annihilate = (
                                    crossing <= previous[W_TIME] + resolution
                                )
                                event_time = crossing
                        if annihilate:
                            overlap = new_mask & previous[W_MASK]
                            if overlap:
                                previous[W_MASK] &= ~overlap
                                previous[W_RISING] &= ~overlap
                                if previous[W_MASK] == 0:
                                    previous[W_STATE] = _CANCELLED
                                    live -= 1
                                    stack.pop()
                                log_filtered(overlap)
                                new_mask &= ~overlap
                                new_rising &= ~overlap
                                if new_mask == 0:
                                    continue
                            event_time = crossing
                        if (
                            previous[W_MASK] != 0
                            and previous[W_MASK] & new_mask == 0
                        ):
                            # Lanes disjoint from the still-pending word
                            # ride along with it instead of opening a
                            # fresh event: this is the word-level collapse
                            # that keeps the wavefront aligned across
                            # lanes (and the whole batch at ~one event per
                            # input per wavefront).  Timing inherits the
                            # pending word's crossing and ramp — CDM-grade,
                            # per the accuracy contract.  Unreachable at
                            # N = 1 (a same-lane pair always overlaps), so
                            # single-lane runs stay bit-identical to the
                            # compiled CDM kernel.
                            previous[W_MASK] |= new_mask
                            previous[W_RISING] |= new_rising
                            log_scheduled(new_mask)
                            continue
                    else:
                        event_time = crossing
                        if previous is not None and crossing <= previous[W_TIME]:
                            # The predecessor already executed; the
                            # restoring word runs immediately instead of
                            # unwinding it.
                            log_late(new_mask)
                            if event_time < now:
                                event_time = now
                        elif crossing + hold < now:
                            log_late(new_mask)
                            event_time = now - hold

                    seq += 1
                    pushed = [event_time + hold, uid, seq, new_mask, new_rising,
                              t50, tau_out, _PENDING, event_time]
                    heappush(heap, pushed)
                    live += 1
                    stack.append(pushed)
                    log_scheduled(new_mask)
        finally:
            self.now = now
            self.seq = seq
            self.word_events_executed = executed
            queue._live = live
        if until is not None and until > now:
            self.now = until

    # -- per-lane extraction -------------------------------------------

    # -- packed exports ------------------------------------------------

    def word_op_counts(self) -> Dict[str, int]:
        """Word operations per gate evaluation, by gate name (-1 marks
        a gate beyond the truth-table cap, evaluated per lane)."""
        return dict(zip(self.compiled.gate_names, self._program_ops))

    def packed_toggle_words(self) -> Dict[str, List[object]]:
        """Per-net toggle counters as packed numpy ``uint64`` words.

        Plane ``p`` of net ``n`` holds bit ``p`` of every lane's toggle
        count for ``n``, packed 64 lanes per word — the direct input of
        :func:`repro.analysis.activity.packed_activity_summary`, which
        popcounts the words instead of walking unpacked traces.
        """
        names = self.compiled.net_names
        matrix = _toggle_count_matrix(
            self.toggle_events, self.num_nets, self.lanes
        )
        packed: Dict[str, List[object]] = {}
        for index in _np.flatnonzero(matrix.any(axis=1)).tolist():
            packed[names[index]] = _counts_to_planes(matrix[index])
        return packed


def _mask_popcount(masks: Sequence[int]) -> int:
    """Total set lanes across a recorded mask list."""
    return sum(map(int.bit_count, masks))


def _publish_word_metrics(kernel: _WordKernel, wall: float) -> None:
    """One word-lockstep batch's engine counters.

    All totals come from the append-only mask logs the kernel already
    keeps — one ``bit_count`` sweep per category, once per batch.  A
    *wave* here is one executed word event; its lane count is the
    word's popcount.  Degradation counters stay absent (CDM tier).
    """
    from ..obs import get_registry
    from .engine import publish_engine_metrics

    registry = get_registry()
    if not registry.enabled:
        return
    counts = {
        "events_executed": _mask_popcount(kernel.executed_masks),
        "events_scheduled": _mask_popcount(kernel.scheduled_masks),
        "events_filtered": _mask_popcount(kernel.filtered_masks),
        "late_events": _mask_popcount(kernel.late_masks),
        "transitions_emitted": _mask_popcount(kernel.emitted_masks),
        "source_transitions": _mask_popcount(kernel.source_masks),
    }
    publish_engine_metrics(
        "bitparallel", counts, runs=kernel.lanes, run_seconds=(wall,),
        phases={"lockstep": (wall,)},
        waves=(
            kernel.word_events_executed,
            _mask_popcount(kernel.executed_masks),
        ),
        registry=registry,
    )


# ----------------------------------------------------------------------
# the lockstep batch driver
# ----------------------------------------------------------------------

class _WordLockstepDriver:
    """Plays N stimuli through one word kernel on a single clock.

    The word kernel has one time axis for all lanes: stimulus changes
    from every lane are merged into one sorted schedule and same-time
    changes of one net collapse into one word source event — that
    collapse is where the whole-batch speedup comes from.  Per-lane
    logic values stay exact; per-lane event times follow the word
    contract (module docstring).
    """

    def __init__(self, netlist: Netlist, kernel: _WordKernel,
                 stimuli: Sequence, settle: float,
                 seed: Optional[Mapping[str, int]]):
        self.netlist = netlist
        self.kernel = kernel
        self.config = kernel.config
        lanes = len(stimuli)
        #: merged change schedule, stable-sorted by time (per-lane
        #: relative order is preserved).
        self.schedule: List[Tuple[float, int, Mapping[str, int],
                                  Optional[float]]] = []
        for lane, stimulus in enumerate(stimuli):
            for at_time, assignments, slew in stimulus.iter_changes():
                self.schedule.append((at_time, lane, assignments, slew))
        self.schedule.sort(key=lambda item: item[0])
        self.limit = max(
            stimulus.horizon + settle for stimulus in stimuli
        )

        masks = kernel.dc_masks(
            [stimulus.initial_values(netlist) for stimulus in stimuli],
            seed=seed,
        )
        kernel.reset(masks)
        vdd = netlist.vdd
        names = kernel.compiled.net_names
        self.trace_sets = [TraceSet(vdd) for _ in range(lanes)]
        if self.config.record_traces:
            # Traces are created in netlist order, like a single run's.
            order = [net.index for net in netlist.nets.values()]
            for lane in range(lanes):
                trace_set = self.trace_sets[lane]
                traces = [None] * len(names)
                for index in order:
                    traces[index] = trace_set.create(
                        names[index], (masks[index] >> lane) & 1
                    )
                kernel.trace_lists[lane] = traces

    def run(self) -> List[SimulationResult]:
        kernel = self.kernel
        wall_start = _time.perf_counter()
        schedule = self.schedule
        total = len(schedule)
        position = 0
        while position < total:
            at_time = schedule[position][0]
            kernel.run_until(at_time)
            group_end = position
            while group_end < total and schedule[group_end][0] == at_time:
                group_end += 1
            self._apply_changes(schedule[position:group_end], at_time)
            position = group_end
        kernel.run_until(self.limit)
        kernel.run_until(None)
        wall = _time.perf_counter() - wall_start
        if self.config.collect_metrics:
            _publish_word_metrics(kernel, wall)

        lanes = kernel.lanes
        counts_view = _LaneCountsView(kernel)
        toggle_view = _LaneToggleView(kernel)
        finals_view = _LaneFinalsView(kernel)
        # In-kernel time is shared by every lane; an even split keeps
        # aggregate_stats() comparable across engines.
        per_lane_wall = wall / lanes
        results = []
        for lane in range(lanes):
            trace_set = self.trace_sets[lane]
            # One shared clock: every lane's horizon is the word
            # kernel's final time (part of the accuracy contract).
            trace_set.horizon = kernel.now
            stats = _LaneStatistics(counts_view, toggle_view, lane)
            stats.runtime_seconds = per_lane_wall
            results.append(
                _LaneResult(trace_set, stats, finals_view, lane)
            )
        return results

    def _apply_changes(self, entries: Sequence, at_time: float) -> None:
        """Commit one time step's input changes across all lanes.

        Per-lane validation mirrors :meth:`EngineBase.set_input`
        exactly; actual toggles group into one word source event per
        (net, slew), and the groups enter the kernel loop together.  The
        driver has already run every event up to ``at_time``, so the call
        only fans them out.
        """
        kernel = self.kernel
        netlist = self.netlist
        default_slew = self.config.default_input_slew
        groups: Dict[Tuple[int, float], List[int]] = {}
        for _at_time, lane, assignments, slew in entries:
            bit = 1 << lane
            for name in sorted(assignments):
                value = assignments[name]
                net = netlist.net(name)
                if not net.is_primary_input:
                    raise StimulusError("%r is not a primary input" % name)
                if value not in (0, 1):
                    raise StimulusError(
                        "input value must be 0 or 1, got %r" % (value,)
                    )
                index = net.index
                if (kernel.net_val[index] >> lane) & 1 == value:
                    continue
                ramp = slew if slew is not None else default_slew
                if ramp <= 0.0:
                    raise StimulusError("input slew must be positive")
                kernel.net_val[index] ^= bit
                kernel.source_masks.append(bit)
                kernel.toggle_events.append((index, bit))
                traces = kernel.trace_lists[lane]
                if traces is not None:
                    traces[index].append(Transition(
                        t50=at_time + 0.5 * ramp,
                        duration=ramp,
                        rising=(value == 1),
                        net_name=name,
                        cause_time=at_time,
                    ))
                group = groups.get((index, ramp))
                if group is None:
                    group = groups[(index, ramp)] = [0, 0]
                group[0] |= bit
                if value:
                    group[1] |= bit
        kernel.run_until(at_time, [
            (index, mask, rising_mask, at_time + 0.5 * ramp, ramp)
            for (index, ramp), (mask, rising_mask) in sorted(groups.items())
        ])


# ----------------------------------------------------------------------
# the registered backend
# ----------------------------------------------------------------------

@register_engine("bitparallel")
class BitParallelSimulator(CompiledSimulator):
    """The word-level lane-packed kernel's registered engine.

    A single stimulus runs on the inherited compiled kernel in CDM mode
    (``config.with_mode(DelayMode.CDM)``: the tier this backend
    declares), so this class slots into everything that consumes
    ``ENGINE_KINDS`` — ``simulate()``, service workers, the network
    server, the CLI.  Its reason to exist is the **lockstep batch**
    class method used by :func:`repro.core.batch.simulate_batch`, which
    packs all N vectors of a batch into lane words and advances them
    through one word-event kernel; per-lane logic values are
    bit-identical to the reference backend (timing is CDM-grade — see
    the module docstring for the declared accuracy tier).

    Args:
        netlist: the circuit; lowered on construction unless a
            pre-lowered ``compiled`` is supplied.
        config: engine knobs (the default is HALOTIS-DDM; the engine
            runs a CDM copy of it, since degradation is out of this
            backend's tier).
        compiled: optional pre-built :class:`CompiledNetlist` (must wrap
            ``netlist``); lets many simulators share one lowering.
    """

    lockstep_batches = True
    cli_blurb = (
        "packs whole batches into lane words, logic-exact with "
        "CDM-grade timing; needs numpy"
    )

    def __init__(
        self,
        netlist: Netlist,
        config: Optional[SimulationConfig] = None,
        compiled: Optional[CompiledNetlist] = None,
    ):
        if config is None:
            config = SimulationConfig()
        super().__init__(
            netlist, config=config.with_mode(DelayMode.CDM),
            compiled=compiled,
        )

    @classmethod
    def ensure_available(cls) -> None:
        """Raise a clear :class:`SimulationError` when numpy is absent."""
        _require_numpy()
        super().ensure_available()

    @classmethod
    def run_lockstep_batch(
        cls,
        netlist: Netlist,
        stimuli: Sequence,
        config: Optional[SimulationConfig] = None,
        settle: float = 0.0,
        seed: Optional[Mapping[str, int]] = None,
    ) -> List[SimulationResult]:
        """All N stimuli through one word kernel on a single clock.

        The fast path behind ``simulate_batch(...,
        engine_kind="bitparallel")``; result ``i`` carries lane ``i``'s
        logic values (bit-identical to ``simulate(netlist, stimuli[i],
        ...)`` on any backend) under the word timing contract.  Every
        result carries ``simulator=None`` (like sharded batches).  With
        ``config.check_sta_bounds`` every lane is verified against the
        batch hull (:func:`_verify_batch`).
        """
        cls.ensure_available()
        if config is None:
            config = SimulationConfig()
        config.validate()
        kernel = _WordKernel(netlist.compile(), config, len(stimuli))
        driver = _WordLockstepDriver(netlist, kernel, stimuli, settle, seed)
        results = driver.run()
        if config.check_sta_bounds:
            _verify_batch(netlist, stimuli, results, config)
        return results


def _verify_batch(
    netlist: Netlist,
    stimuli: Sequence,
    results: List[SimulationResult],
    config: SimulationConfig,
) -> None:
    """STA-oracle pass over a lockstep batch (``check_sta_bounds``).

    The batch bypasses ``run_stimulus``, whose oracle hook covers every
    other path.  A merged word event may carry another lane's launch
    time or ramp duration, so every lane is verified against windows
    widened to the batch-wide launch-time and input-slew hulls, with
    each arc's upper bound widened by the word-merge hold (one mean CDM
    base delay per word event, see :func:`_batch_hold`): a word that
    reaches a pin after the pin's previous word ran, but before the
    held instant the kernel is at, runs at that held time, so a hold
    can reach a recorded edge (``tests/test_sta_oracle.py`` builds such
    a batch).  Imported lazily: analysis sits above core.
    """
    from ..analysis.sta import _stimulus_launches, verify_result

    launches: List[float] = []
    slews: List[float] = []
    for stimulus in stimuli:
        stimulus_launches, stimulus_slews = _stimulus_launches(
            stimulus, config
        )
        launches.extend(stimulus_launches)
        slews.extend(stimulus_slews)
    launch_window = (min(launches), max(launches)) if launches else None
    input_slew = (min(slews), max(slews)) if slews else None
    arc_slack = _batch_hold(netlist.compile(), len(stimuli))
    for stimulus, result in zip(stimuli, results):
        verify_result(
            netlist, stimulus, result, config,
            arc_slack=arc_slack,
            launch_window=launch_window,
            input_slew=input_slew,
        )
