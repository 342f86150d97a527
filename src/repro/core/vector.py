"""Vectorised numpy N-lane simulation backend ("vector" engine).

The compiled backend (:mod:`repro.core.compiled`) made *one* run cheap;
batching (:mod:`repro.core.batch`) amortised the lowering over many
runs — but each vector of a batch still replays the whole Python event
loop on its own.  This module takes the remaining step the ROADMAP
calls "SIMD-style N-vector stepping": advance **N stimulus vectors in
lockstep** over one completed :meth:`CompiledNetlist.as_numpy` export,
so the per-event Python interpreter cost is paid once per *wave* of up
to N events instead of once per event.

The machine (:class:`_VectorKernel`) is a struct-of-arrays event
kernel:

* one shared, append-only **event pool** (``time/uid/value/t50/dur/
  rising/state/prev`` numpy columns) holds every lane's events;
* per-(lane, gate-input) pending-event **stacks** are intrusive linked
  lists through the pool's ``prev`` column, with a dense
  ``top_eid[lane, uid]`` head table — so the inertial rule's
  "previous event" lookup is one vectorised gather;
* per-lane **binary heaps** of ``(time, seq, eid)`` tuples order each
  lane's events exactly as the scalar backends do (lazy cancellation,
  like the compiled heap queue);
* each **wave** pops at most one runnable event per lane and executes
  them all at once: truth-table gate evaluation, delay-arc arithmetic,
  degradation and the inertial decision are numpy expressions over the
  popped lanes, with per-lane divergence handled by masking.

Bit-identity with the reference engine is a hard contract
(``tests/core/test_vector_parity.py``): every float expression below
performs the same IEEE-754 operations in the same order as the scalar
kernels — numpy float64 arithmetic is bit-identical to CPython's for
``+ - * /`` — and the degradation exponential goes through
``math.exp`` element-wise because ``numpy.exp`` differs from libm in
the last ulp on some inputs.  Masked lanes simply skip work; they
never change another lane's arithmetic.

The kernel has one front door, ``simulate_batch(...,
engine_kind="vector")``: the lockstep fast path
(:meth:`VectorSimulator.run_lockstep_batch`) runs all N vectors in one
kernel, which is where the throughput lives
(``benchmarks/test_vector_speedup.py``).  Everything else that reaches
``ENGINE_KINDS`` with ``"vector"`` — :func:`repro.core.engine.simulate`,
faulted chunks, the CLI — runs one stimulus at a time, and
:class:`VectorSimulator` does that on the compiled kernel it inherits:
with one lane there is nothing to amortise, and the results are the
same bits.
"""

from __future__ import annotations

import time as _time
from heapq import heappop, heappush
from math import exp as _exp, inf as _inf
from typing import Dict, List, Mapping, Optional, Sequence

from ..circuit.logic import evaluate as evaluate_function
from ..circuit.netlist import Netlist
from .. import config as _config_module
from ..config import DelayMode, InertialPolicy, SimulationConfig
from ..errors import SimulationError, SimulationLimitError, StimulusError
from .compiled import CompiledNetlist, CompiledSimulator
from .engine import SimulationResult, register_engine
from .inertial import peak_voltage_time
from .stats import SimulationStatistics
from .trace import TraceSet
from .transition import Transition

try:  # pragma: no cover - numpy present in CI
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

# Event states, matching the compiled backend's entry lifecycle.
_PENDING, _CANCELLED, _EXECUTED = 0, 1, 2

#: Waves at or below this many active lanes run the scalar per-event
#: path: numpy dispatch costs ~60 µs per wave regardless of width, so
#: thin waves (narrow batches, lockstep tail drains) are cheaper event
#: by event.  Both paths perform the identical IEEE
#: operation sequence and are pinned against each other by the parity
#: suites.
_SCALAR_WAVE_CUTOFF = 8

def _require_numpy() -> None:
    # Looked up through the module so a monkeypatched probe (tests
    # simulating a numpy-less install) gates this layer too; the
    # message is the one shared with SimulationConfig.validate().
    if _np is None or not _config_module.numpy_available():
        raise SimulationError(_config_module.NUMPY_REQUIRED_MESSAGE)


# ----------------------------------------------------------------------
# the N-lane kernel
# ----------------------------------------------------------------------

class _EventPool:
    """Append-only struct-of-arrays store for every lane's events."""

    __slots__ = ("time", "uid", "value", "t50", "dur", "rising", "state",
                 "prev", "size", "_cap")

    def __init__(self, capacity: int = 1024):
        self._cap = capacity
        self.size = 0
        self.time = _np.empty(capacity, _np.float64)
        self.uid = _np.empty(capacity, _np.int64)
        self.value = _np.empty(capacity, _np.int8)
        self.t50 = _np.empty(capacity, _np.float64)
        self.dur = _np.empty(capacity, _np.float64)
        self.rising = _np.empty(capacity, _np.bool_)
        self.state = _np.empty(capacity, _np.int8)
        self.prev = _np.empty(capacity, _np.int64)

    def reset(self) -> None:
        self.size = 0

    def alloc(self, count: int) -> slice:
        """Reserve ``count`` fresh event ids; returns their slice."""
        need = self.size + count
        if need > self._cap:
            cap = self._cap
            while cap < need:
                cap *= 2
            for column in ("time", "uid", "value", "t50", "dur", "rising",
                           "state", "prev"):
                old = getattr(self, column)
                grown = _np.empty(cap, old.dtype)
                grown[: self.size] = old[: self.size]
                setattr(self, column, grown)
            self._cap = cap
        start = self.size
        self.size = need
        return slice(start, need)


class _VectorKernel:
    """N independent HALOTIS simulations advanced in lockstep waves.

    All dynamic state is ``(lanes, …)``-shaped numpy; the static
    circuit tables come from one :meth:`CompiledNetlist.as_numpy`
    export (read-only, shared).  The kernel itself is driven from the
    outside, by the lockstep batch driver, through :meth:`pop_runnable`
    and :meth:`execute_wave`.
    """

    def __init__(self, compiled: CompiledNetlist, config: SimulationConfig,
                 lanes: int):
        _require_numpy()
        x = compiled.as_numpy()
        self.compiled = compiled
        self.config = config
        self.lanes = lanes
        self._event_order = (
            config.inertial_policy is InertialPolicy.EVENT_ORDER
        )
        self._use_ddm = config.delay_mode is DelayMode.DDM
        self._min_delay = config.min_delay
        self._resolution = config.time_resolution
        self._max_events = config.max_events
        self._record_traces = config.record_traces

        # Static tables (all read-only, straight from the export).
        self.vt_fraction = x["vt_fraction"]
        self.fanout_offsets = x["fanout_offsets"]
        self.fanout_targets = x["fanout_targets"]
        self.gate_input_offsets = x["gate_input_offsets"]
        self.gate_output_net = x["gate_output_net"]
        self.gate_arity = x["gate_arity"]
        self.gate_tables = x["gate_tables"]
        self.gate_table_offsets = x["gate_table_offsets"]
        self.input_gate = x["input_gate"]
        self.input_pin = x["input_pin"]
        self.input_net = x["input_net"]
        self.arc_rise = x["arc_rise"]
        self.arc_fall = x["arc_fall"]
        # (2, num_inputs, 6): arc_stack[edge, uid] with edge 1 = rising,
        # so one gather replaces a two-sided where() in the hot path.
        self.arc_stack = _np.stack([self.arc_fall, self.arc_rise])
        self.gate_has_table = (
            self.gate_table_offsets[1:] > self.gate_table_offsets[:-1]
        )
        self.num_nets = compiled.num_nets
        self.num_gates = compiled.num_gates
        self.num_inputs = compiled.num_inputs
        self.max_arity = (
            int(self.gate_arity.max()) if self.num_gates else 0
        )

        # Dynamic per-lane state (shapes fixed for the kernel lifetime).
        self.gate_word = _np.zeros((lanes, self.num_gates), _np.int64)
        self.gate_out = _np.zeros((lanes, self.num_gates), _np.int8)
        self.gate_last = _np.full((lanes, self.num_gates), _np.nan)
        self.pi = _np.zeros((lanes, self.num_nets), _np.int8)
        self.toggles = _np.zeros((lanes, self.num_nets), _np.int64)
        self.top_eid = _np.full((lanes, self.num_inputs), -1, _np.int64)
        self.now = _np.zeros(lanes, _np.float64)
        self.seq = _np.zeros(lanes, _np.int64)
        self.events_executed = _np.zeros(lanes, _np.int64)
        self.events_scheduled = _np.zeros(lanes, _np.int64)
        self.events_filtered = _np.zeros(lanes, _np.int64)
        self.late_events = _np.zeros(lanes, _np.int64)
        self.transitions_emitted = _np.zeros(lanes, _np.int64)
        self.source_transitions = _np.zeros(lanes, _np.int64)
        self.transitions_degraded = _np.zeros(lanes, _np.int64)
        self.transitions_fully_degraded = _np.zeros(lanes, _np.int64)
        # Python-list mirrors of the static tables for the scalar path:
        # plain-int indexing beats numpy scalar boxing event by event.
        # tolist() round-trips float64 exactly, so both paths read the
        # same IEEE values.
        self._fo_list = self.fanout_offsets.tolist()
        self._ft_list = self.fanout_targets.tolist()
        self._vt_list = self.vt_fraction.tolist()
        self._ig_list = self.input_gate.tolist()
        self._ip_list = self.input_pin.tolist()
        self._gon_list = self.gate_output_net.tolist()
        self._goff_list = self.gate_input_offsets.tolist()
        self._toff_list = self.gate_table_offsets.tolist()
        self._tables_list = self.gate_tables.tolist()
        self._has_table_list = self.gate_has_table.tolist()
        # The compiled lowering's original per-uid arc tuples: Python
        # floats, byte-identical to the arc_rise/arc_fall rows.
        self._arcs = (compiled.arc_fall, compiled.arc_rise)
        # Flat views over the (lanes, …) state: one flat index per
        # (lane, column) pair is computed once per wave and reused for
        # every gather/scatter — 1-D fancy indexing is markedly cheaper
        # than repeated 2-D tuple indexing on small arrays.  The views
        # stay valid because the backing arrays are never reallocated.
        self.gate_word_flat = self.gate_word.reshape(-1)
        self.gate_out_flat = self.gate_out.reshape(-1)
        self.gate_last_flat = self.gate_last.reshape(-1)
        self.toggles_flat = self.toggles.reshape(-1)
        self.top_eid_flat = self.top_eid.reshape(-1)
        self.pool = _EventPool()
        self.heaps: List[list] = [[] for _ in range(lanes)]
        # Observability: plain ints bumped once per wave (two adds; the
        # registry is only touched after the run — docs/observability.md).
        self.waves_executed = 0
        self.lanes_executed = 0
        #: per lane: NetTrace list indexed by net id (None = not recording).
        self.trace_lists: List[Optional[list]] = [None] * lanes

    # -- lifecycle -----------------------------------------------------

    def dc_values(self, lane_inputs: Sequence[Mapping[str, int]],
                  seed: Optional[Mapping[str, int]] = None):
        """DC value of every net per lane, as a ``(lanes, nets)`` array.

        The lane-parallel use of the lowering's DC-init
        (:meth:`CompiledNetlist.dc_values`): the same validation per
        lane, then one topological sweep evaluating each gate across all
        lanes at once.  Cyclic netlists relax lane by lane (same
        relaxation, same errors), so the result is always exactly what
        N scalar initialisations would have produced.
        """
        compiled = self.compiled
        rows = [compiled.dc_inputs(input_values) for input_values in lane_inputs]
        sweep = compiled.dc_sweep()
        if sweep is None:
            rows = [compiled.dc_relax(row, seed) for row in rows]
        values = _np.array(rows, _np.int64).reshape(len(rows), self.num_nets)
        table_offsets = self.gate_table_offsets
        tables = self.gate_tables
        for gate, out_net, in_nets in sweep or ():
            word = _np.zeros(len(rows), _np.int64)
            for bit, net in enumerate(in_nets):
                word |= values[:, net] << bit
            if self.gate_has_table[gate]:
                out = tables[table_offsets[gate] + word]
            else:  # pragma: no cover - only hand-built cells exceed cap
                function = compiled.gate_functions[gate]
                out = _np.array([
                    evaluate_function(
                        function,
                        [(w >> bit) & 1 for bit in range(len(in_nets))],
                    )
                    for w in word.tolist()
                ], _np.int64)
            values[:, out_net] = out
        return values

    def reset(self, net_values, start_time: float = 0.0) -> None:
        """(Re-)initialise every lane from ``(lanes, nets)`` DC values
        (see :meth:`dc_values`)."""
        input_vals = net_values[:, self.input_net]
        self.gate_word.fill(0)
        offsets = self.gate_input_offsets[:-1]
        for bit in range(self.max_arity):
            wide = _np.flatnonzero(self.gate_arity > bit)
            self.gate_word[:, wide] |= (
                input_vals[:, offsets[wide] + bit] << bit
            )
        self.gate_out[:] = net_values[:, self.gate_output_net]
        # Non-PI entries are never read; a straight copy is cheapest.
        self.pi[:] = net_values
        self.gate_last.fill(_np.nan)
        self.toggles.fill(0)
        self.top_eid.fill(-1)
        self.now.fill(start_time)
        self.seq.fill(0)
        for counter in (self.events_executed, self.events_scheduled,
                        self.events_filtered, self.late_events,
                        self.transitions_emitted, self.source_transitions,
                        self.transitions_degraded,
                        self.transitions_fully_degraded):
            counter.fill(0)
        self.pool.reset()
        for heap in self.heaps:
            heap.clear()
        self.waves_executed = 0
        self.lanes_executed = 0

    # -- per-lane queue primitives -------------------------------------

    def pop_runnable(self, lane: int, until: float) -> int:
        """Pop the lane's earliest live event at or before ``until``
        (-1 when there is none)."""
        heap = self.heaps[lane]
        state = self.pool.state
        while heap:
            entry = heap[0]
            if state[entry[2]] != _PENDING:
                heappop(heap)
                continue
            if entry[0] > until:
                return -1
            heappop(heap)
            return entry[2]
        return -1

    # -- the hot path --------------------------------------------------

    def execute_wave(self, lanes, eids) -> None:
        """Execute one popped event per lane in ``lanes``, vectorised.

        Mirrors ``CompiledSimulator._execute`` statement for statement;
        each numpy expression performs the identical IEEE operation
        sequence per lane.  Thin waves fall through to the scalar
        per-event twin (same arithmetic, cheaper dispatch).
        """
        self.waves_executed += 1
        self.lanes_executed += int(lanes.size)
        if lanes.size <= _SCALAR_WAVE_CUTOFF:
            for lane, eid in zip(lanes.tolist(), eids.tolist()):
                self.execute_scalar(lane, eid)
            return
        pool = self.pool
        if (self.events_executed[lanes] >= self._max_events).any():
            lane = int(lanes[
                int((self.events_executed[lanes] >= self._max_events).argmax())
            ])
            raise SimulationLimitError(
                "event budget (%d) exhausted at t=%.4f ns in lane %d — "
                "zero-delay oscillation?"
                % (self._max_events, float(self.now[lane]), lane)
            )
        times = pool.time[eids]
        self.now[lanes] = times
        self.events_executed[lanes] += 1
        pool.state[eids] = _EXECUTED

        uid = pool.uid[eids]
        value = pool.value[eids]
        gate = self.input_gate[uid]
        pin = self.input_pin[uid]
        gate_flat = lanes * self.num_gates + gate
        words = self.gate_word_flat[gate_flat]
        current = (words >> pin) & 1
        changed = current != value
        if not changed.all():
            # Defensive: alternation normally guarantees a change here.
            lanes = lanes[changed]
            if lanes.size == 0:
                return
            eids = eids[changed]
            uid = uid[changed]
            gate = gate[changed]
            pin = pin[changed]
            gate_flat = gate_flat[changed]
            words = words[changed]
            times = times[changed]
        words = words ^ (_np.int64(1) << pin)
        self.gate_word_flat[gate_flat] = words

        tabled = self.gate_has_table[gate]
        if tabled.all():
            output = self.gate_tables[self.gate_table_offsets[gate] + words]
        else:  # pragma: no cover - only hand-built cells exceed the cap
            output = _np.empty(lanes.size, _np.int8)
            output[tabled] = self.gate_tables[
                self.gate_table_offsets[gate[tabled]] + words[tabled]
            ]
            for j in _np.flatnonzero(~tabled).tolist():
                wide_gate = int(gate[j])
                bits = [
                    int(words[j] >> bit) & 1
                    for bit in range(int(self.gate_arity[wide_gate]))
                ]
                output[j] = evaluate_function(
                    self.compiled.gate_functions[wide_gate], bits
                )
        switched = output != self.gate_out_flat[gate_flat]
        if not switched.all():
            lanes = lanes[switched]
            if lanes.size == 0:
                return
            eids = eids[switched]
            uid = uid[switched]
            gate = gate[switched]
            gate_flat = gate_flat[switched]
            times = times[switched]
            output = output[switched]
        self.gate_out_flat[gate_flat] = output

        rising = output == 1
        tau_in = pool.dur[eids]
        arc = self.arc_stack[output, uid]
        tp0 = arc[:, 0] + arc[:, 1] * tau_in
        tau_out = arc[:, 2] + arc[:, 3] * tau_in

        min_delay = self._min_delay
        factor = None
        tp = _np.where(tp0 > min_delay, tp0, min_delay)
        if self._use_ddm:
            factor = _np.ones(lanes.size)
            last = self.gate_last_flat[gate_flat]
            with_last = _np.flatnonzero(~_np.isnan(last))
            if with_last.size:
                # paper eq. 1 with eq. 2/3 folded into tau_deg / t0_coef
                elapsed = times[with_last] - last[with_last]
                t_offset = arc[with_last, 5] * tau_in[with_last]
                tau_deg = arc[with_last, 4]
                sub_factor = _np.empty(with_last.size)
                degenerate = tau_deg <= 0.0
                if degenerate.any():
                    sub_factor[degenerate] = _np.where(
                        elapsed[degenerate] > t_offset[degenerate], 1.0, 0.0
                    )
                regular = _np.flatnonzero(~degenerate)
                if regular.size:
                    argument = (
                        -(elapsed[regular] - t_offset[regular])
                        / tau_deg[regular]
                    )
                    # element-wise math.exp: numpy.exp drifts by one ulp
                    # on some inputs, which would break bit-identity.
                    sub_factor[regular] = 1.0 - _np.array(
                        [_exp(v) for v in argument.tolist()], _np.float64
                    )
                factor[with_last] = sub_factor
                scaled = tp0[with_last] * sub_factor
                scaled = _np.where(scaled < min_delay, min_delay, scaled)
                tp[with_last] = _np.where(
                    sub_factor <= 0.0, min_delay, scaled
                )
        t50 = times + tp
        self.gate_last_flat[gate_flat] = t50
        out_net = self.gate_output_net[gate]
        self.transitions_emitted[lanes] += 1
        self.toggles_flat[lanes * self.num_nets + out_net] += 1
        if factor is not None:
            degraded = factor < 1.0
            if degraded.any():
                self.transitions_degraded[lanes[degraded]] += 1
                fully = factor <= 0.0
                if fully.any():
                    self.transitions_fully_degraded[lanes[fully]] += 1
        if self._record_traces:
            net_names = self.compiled.net_names
            lane_list = lanes.tolist()
            net_list = out_net.tolist()
            for j, (lane, net) in enumerate(zip(lane_list, net_list)):
                traces = self.trace_lists[lane]
                if traces is not None:
                    traces[net].append(Transition(
                        t50=float(t50[j]),
                        duration=float(tau_out[j]),
                        rising=bool(rising[j]),
                        net_name=net_names[net],
                        degradation_factor=(
                            1.0 if factor is None else float(factor[j])
                        ),
                        cause_time=float(times[j]),
                    ))
        self.broadcast(lanes, out_net, t50, tau_out, rising, times)

    def execute_scalar(self, lane: int, eid: int) -> None:
        """One lane's event on the scalar path.

        A statement-for-statement port of
        ``CompiledSimulator._execute`` over the pool columns — Python
        floats throughout, so the arithmetic is trivially identical to
        the reference backend.
        """
        pool = self.pool
        if self.events_executed[lane] >= self._max_events:
            raise SimulationLimitError(
                "event budget (%d) exhausted at t=%.4f ns in lane %d — "
                "zero-delay oscillation?"
                % (self._max_events, float(self.now[lane]), lane)
            )
        time_now = float(pool.time[eid])
        self.now[lane] = time_now
        self.events_executed[lane] += 1
        pool.state[eid] = _EXECUTED

        uid = int(pool.uid[eid])
        value = int(pool.value[eid])
        gate = self._ig_list[uid]
        pin = self._ip_list[uid]
        word = int(self.gate_word[lane, gate])
        if (word >> pin) & 1 == value:
            # Defensive: alternation normally guarantees a change here.
            return
        word ^= 1 << pin
        self.gate_word[lane, gate] = word
        if self._has_table_list[gate]:
            output = self._tables_list[self._toff_list[gate] + word]
        else:  # pragma: no cover - only hand-built cells exceed the cap
            arity = self._goff_list[gate + 1] - self._goff_list[gate]
            output = evaluate_function(
                self.compiled.gate_functions[gate],
                [(word >> bit) & 1 for bit in range(arity)],
            )
        if output == self.gate_out[lane, gate]:
            return
        self.gate_out[lane, gate] = output

        rising = output == 1
        tau_in = float(pool.dur[eid])
        tp0_base, d_slew, tau_base, s_slew, tau_deg, t0_coef = (
            self._arcs[output][uid]
        )
        tp0 = tp0_base + d_slew * tau_in
        tau_out = tau_base + s_slew * tau_in

        last = self.gate_last[lane, gate]
        if not self._use_ddm or last != last:  # NaN = no previous output
            factor = 1.0
            tp = tp0 if tp0 > self._min_delay else self._min_delay
        else:
            # paper eq. 1 with eq. 2/3 folded into tau_deg / t0_coef
            elapsed = time_now - float(last)
            t_offset = t0_coef * tau_in
            if tau_deg <= 0.0:
                factor = 1.0 if elapsed > t_offset else 0.0
            else:
                factor = 1.0 - _exp(-(elapsed - t_offset) / tau_deg)
            if factor <= 0.0:
                tp = self._min_delay
            else:
                tp = tp0 * factor
                if tp < self._min_delay:
                    tp = self._min_delay

        t50 = time_now + tp
        self.gate_last[lane, gate] = t50
        out_net = self._gon_list[gate]
        self.transitions_emitted[lane] += 1
        self.toggles[lane, out_net] += 1
        if factor < 1.0:
            self.transitions_degraded[lane] += 1
            if factor <= 0.0:
                self.transitions_fully_degraded[lane] += 1
        if self._record_traces:
            traces = self.trace_lists[lane]
            if traces is not None:
                traces[out_net].append(Transition(
                    t50=t50,
                    duration=tau_out,
                    rising=rising,
                    net_name=self.compiled.net_names[out_net],
                    degradation_factor=factor,
                    cause_time=time_now,
                ))
        self.broadcast_scalar(lane, out_net, t50, tau_out, rising, time_now)

    def broadcast_scalar(self, lane: int, net_index: int, t50: float,
                         duration: float, rising: bool, now: float) -> None:
        """One lane's fanout broadcast on the scalar path (the twin of
        ``CompiledSimulator._broadcast_indexed``)."""
        pool = self.pool
        heap = self.heaps[lane]
        top_flat = self.top_eid_flat
        row_base = lane * self.num_inputs
        value = 1 if rising else 0
        seq = int(self.seq[lane])
        scheduled = 0
        resolution = self._resolution
        event_order = self._event_order
        for position in range(self._fo_list[net_index],
                              self._fo_list[net_index + 1]):
            uid = self._ft_list[position]
            fraction = self._vt_list[uid]
            if rising:
                crossing = t50 + duration * (fraction - 0.5)
            else:
                crossing = t50 + duration * (0.5 - fraction)
            top_index = row_base + uid
            previous = int(top_flat[top_index])

            if previous >= 0 and pool.state[previous] == _PENDING:
                # inertial decision, inlined (see repro.core.inertial)
                previous_time = float(pool.time[previous])
                if event_order:
                    if crossing <= previous_time + resolution:
                        event_time = None
                    else:
                        event_time = crossing
                else:
                    event_time = peak_voltage_time(
                        crossing, previous_time, bool(pool.rising[previous]),
                        float(pool.t50[previous]), float(pool.dur[previous]),
                        t50, duration, rising, fraction, resolution,
                    )
                if event_time is None:
                    pool.state[previous] = _CANCELLED
                    top_flat[top_index] = pool.prev[previous]
                    self.events_filtered[lane] += 1
                    continue
            else:
                event_time = crossing
                if previous >= 0 and crossing <= float(pool.time[previous]):
                    # The predecessor already executed; we cannot unwind
                    # the past, so the restoring event runs immediately.
                    self.late_events[lane] += 1
                    if event_time < now:
                        event_time = now
                elif crossing < now:
                    self.late_events[lane] += 1
                    event_time = now

            seq += 1
            block = pool.alloc(1)
            eid = block.start
            pool.time[eid] = event_time
            pool.uid[eid] = uid
            pool.value[eid] = value
            pool.t50[eid] = t50
            pool.dur[eid] = duration
            pool.rising[eid] = rising
            pool.state[eid] = _PENDING
            pool.prev[eid] = previous
            top_flat[top_index] = eid
            heappush(heap, (event_time, seq, eid))
            scheduled += 1
        self.seq[lane] = seq
        self.events_scheduled[lane] += scheduled

    def broadcast(self, lanes, net_idx, t50, dur, rising, now_vals) -> None:
        """Fan ``lanes.size`` transitions out to their receiving inputs.

        The (transition, fanout-slot) pairs are flattened into one set
        of arrays — all pairs are independent within a wave because a
        wave holds at most one transition per lane and a net's fanout
        uids are distinct — then the inertial rule runs vectorised.
        Per-lane scheduling order (and therefore ``seq`` assignment)
        matches the scalar backends: segments are laid out in CSR
        order.
        """
        pool = self.pool
        offsets = self.fanout_offsets[net_idx]
        degrees = self.fanout_offsets[net_idx + 1] - offsets
        total = int(degrees.sum())
        if total == 0:
            return
        segment = _np.repeat(_np.arange(lanes.size), degrees)
        starts = _np.cumsum(degrees) - degrees
        position = offsets[segment] + (
            _np.arange(total) - starts[segment]
        )
        uid = self.fanout_targets[position]
        lane_rep = lanes[segment]
        t50_rep = t50[segment]
        dur_rep = dur[segment]
        rising_rep = rising[segment]
        now_rep = now_vals[segment]

        fraction = self.vt_fraction[uid]
        delta = _np.where(rising_rep, fraction - 0.5, 0.5 - fraction)
        crossing = t50_rep + dur_rep * delta

        top_flat = lane_rep * self.num_inputs + uid
        previous = self.top_eid_flat[top_flat]
        has_previous = previous >= 0
        previous_safe = _np.where(has_previous, previous, 0)
        previous_pending = has_previous & (
            pool.state[previous_safe] == _PENDING
        )
        previous_time = pool.time[previous_safe]

        event_time = crossing.copy()
        if self._event_order:
            # inertial decision, inlined (see repro.core.inertial)
            annihilate = previous_pending & (
                crossing <= previous_time + self._resolution
            )
        else:
            annihilate = _np.zeros(total, _np.bool_)
            for j in _np.flatnonzero(previous_pending).tolist():
                eid = int(previous[j])
                decided = peak_voltage_time(
                    float(crossing[j]), float(pool.time[eid]),
                    bool(pool.rising[eid]), float(pool.t50[eid]),
                    float(pool.dur[eid]), float(t50_rep[j]),
                    float(dur_rep[j]), bool(rising_rep[j]),
                    float(fraction[j]), self._resolution,
                )
                if decided is None:
                    annihilate[j] = True
                else:
                    event_time[j] = decided
        not_pending = ~previous_pending
        # The predecessor already executed; we cannot unwind the past,
        # so the restoring event runs immediately.
        late_executed = not_pending & has_previous & (
            crossing <= previous_time
        )
        if late_executed.any():
            event_time[late_executed] = _np.where(
                crossing[late_executed] < now_rep[late_executed],
                now_rep[late_executed],
                crossing[late_executed],
            )
        late_past = not_pending & ~late_executed & (crossing < now_rep)
        if late_past.any():
            event_time[late_past] = now_rep[late_past]
        late = late_executed | late_past
        if late.any():
            _np.add.at(self.late_events, lane_rep[late], 1)

        if annihilate.any():
            cancelled = previous[annihilate]
            pool.state[cancelled] = _CANCELLED
            self.top_eid_flat[top_flat[annihilate]] = pool.prev[cancelled]
            _np.add.at(self.events_filtered, lane_rep[annihilate], 1)

        survives = ~annihilate
        count = int(survives.sum())
        if count == 0:
            return
        # Per-lane seq values in CSR slot order, annihilations excluded
        # (the scalar kernels only bump seq for events actually pushed).
        before = _np.concatenate(
            ([0], _np.cumsum(survives)[:-1])
        )
        per_segment = _np.bincount(
            segment[survives], minlength=lanes.size
        )
        segment_before = _np.cumsum(per_segment) - per_segment
        within = before - segment_before[segment]
        seqs = self.seq[lanes][segment] + 1 + within
        self.seq[lanes] += per_segment
        self.events_scheduled[lanes] += per_segment

        lane_new = lane_rep[survives]
        uid_new = uid[survives]
        top_new = top_flat[survives]
        block = pool.alloc(count)
        pool.time[block] = event_time[survives]
        pool.uid[block] = uid_new
        pool.value[block] = rising_rep[survives]
        pool.t50[block] = t50_rep[survives]
        pool.dur[block] = dur_rep[survives]
        pool.rising[block] = rising_rep[survives]
        pool.state[block] = _PENDING
        pool.prev[block] = self.top_eid_flat[top_new]
        new_ids = _np.arange(block.start, block.stop)
        self.top_eid_flat[top_new] = new_ids

        heaps = self.heaps
        for lane, when, order, eid in zip(
            lane_new.tolist(), event_time[survives].tolist(),
            seqs[survives].tolist(), new_ids.tolist(),
        ):
            heappush(heaps[lane], (when, order, eid))

    # -- inspection ----------------------------------------------------

    def lane_final_values(self, lane: int) -> Dict[str, int]:
        """Committed value of every net in one lane, as plain ints."""
        row = self.pi[lane].copy()  # holds the inputs and the constants
        row[self.gate_output_net] = self.gate_out[lane]
        return self.compiled.named_values(row.tolist())

    def lane_toggles(self, lane: int) -> Dict[str, int]:
        names = self.compiled.net_names
        row = self.toggles[lane]
        hot = _np.flatnonzero(row).tolist()
        return {names[index]: int(row[index]) for index in hot}

    def lane_stats(self, lane: int) -> SimulationStatistics:
        return SimulationStatistics(
            events_executed=int(self.events_executed[lane]),
            events_scheduled=int(self.events_scheduled[lane]),
            events_filtered=int(self.events_filtered[lane]),
            late_events=int(self.late_events[lane]),
            transitions_emitted=int(self.transitions_emitted[lane]),
            source_transitions=int(self.source_transitions[lane]),
            transitions_degraded=int(self.transitions_degraded[lane]),
            transitions_fully_degraded=int(
                self.transitions_fully_degraded[lane]
            ),
            net_toggles=self.lane_toggles(lane),
        )


def _publish_lockstep_metrics(kernel: _VectorKernel, wall: float) -> None:
    """One batch's engine counters from the kernel's per-lane arrays.

    Summing the numpy columns here (once per batch) keeps the wave loop
    free of any observability work; lockstep bypasses ``run_stimulus``,
    so this is its twin of that function's post-run publication.
    """
    from ..obs import get_registry
    from .engine import publish_engine_metrics

    registry = get_registry()
    if not registry.enabled:
        return
    counts = {
        "events_executed": int(kernel.events_executed.sum()),
        "events_scheduled": int(kernel.events_scheduled.sum()),
        "events_filtered": int(kernel.events_filtered.sum()),
        "late_events": int(kernel.late_events.sum()),
        "transitions_emitted": int(kernel.transitions_emitted.sum()),
        "source_transitions": int(kernel.source_transitions.sum()),
        "transitions_degraded": int(kernel.transitions_degraded.sum()),
        "transitions_fully_degraded": int(
            kernel.transitions_fully_degraded.sum()
        ),
    }
    publish_engine_metrics(
        "vector", counts, runs=kernel.lanes, run_seconds=wall,
        phases={"lockstep": wall},
        waves=(kernel.waves_executed, kernel.lanes_executed),
        registry=registry,
    )


# ----------------------------------------------------------------------
# lockstep batch driver
# ----------------------------------------------------------------------

# Per-lane stimulus playback phases (mirroring run_stimulus: run to
# each change time, apply, run to horizon+settle, drain).
_PHASE_CHANGES, _PHASE_SETTLE, _PHASE_DRAIN = 0, 1, 2


class _LockstepDriver:
    """Plays N ``VectorSequence``-protocol stimuli through one kernel.

    Each lane follows exactly the :func:`repro.core.engine.run_stimulus`
    loop — run to the next change time, apply the word, settle past the
    horizon, drain — with its own clock; lanes only share the wave
    executor, never data.
    """

    def __init__(self, netlist: Netlist, kernel: _VectorKernel,
                 stimuli: Sequence, settle: float,
                 seed: Optional[Mapping[str, int]]):
        self.netlist = netlist
        self.kernel = kernel
        self.config = kernel.config
        lanes = len(stimuli)
        self.changes = [list(stimulus.iter_changes()) for stimulus in stimuli]
        self.limits = [stimulus.horizon + settle for stimulus in stimuli]
        self.cursor = [0] * lanes
        self.phase = [_PHASE_CHANGES] * lanes
        self.until = [0.0] * lanes
        self.done = [False] * lanes
        for lane in range(lanes):
            if self.changes[lane]:
                self.until[lane] = self.changes[lane][0][0]
            else:
                self.phase[lane] = _PHASE_SETTLE
                self.until[lane] = self.limits[lane]

        net_values = kernel.dc_values(
            [stimulus.initial_values(netlist) for stimulus in stimuli],
            seed=seed,
        )
        kernel.reset(net_values)
        vdd = netlist.vdd
        names = kernel.compiled.net_names
        self.trace_sets = [TraceSet(vdd) for _ in range(lanes)]
        if self.config.record_traces:
            # Traces are created in netlist order, like a single run's.
            order = [net.index for net in netlist.nets.values()]
            for lane in range(lanes):
                trace_set = self.trace_sets[lane]
                initial = net_values[lane].tolist()
                traces = [None] * len(names)
                for index in order:
                    traces[index] = trace_set.create(names[index],
                                                     initial[index])
                kernel.trace_lists[lane] = traces

    def run(self) -> List[SimulationResult]:
        kernel = self.kernel
        lanes = kernel.lanes
        wall_start = _time.perf_counter()
        wave_lanes: List[int] = []
        wave_eids: List[int] = []
        pop = kernel.pop_runnable
        until = self.until
        done = self.done
        while True:
            wave_lanes.clear()
            wave_eids.clear()
            stalled: List[int] = []
            for lane in range(lanes):
                if done[lane]:
                    continue
                eid = pop(lane, until[lane])
                if eid >= 0:
                    wave_lanes.append(lane)
                    wave_eids.append(eid)
                else:
                    stalled.append(lane)
            # Stalled lanes advance through their stimulus phases until
            # each is runnable again (or finished).  Word applications
            # collected across lanes in one round are broadcast
            # together — one numpy pass per input rank instead of one
            # per (lane, input).
            while stalled:
                sources: List = []
                for lane in stalled:
                    self._advance_phase(lane, sources)
                if sources:
                    self._flush_sources(sources)
                still: List[int] = []
                for lane in stalled:
                    if done[lane]:
                        continue
                    eid = pop(lane, until[lane])
                    if eid >= 0:
                        wave_lanes.append(lane)
                        wave_eids.append(eid)
                    else:
                        still.append(lane)
                stalled = still
            if not wave_lanes:
                break
            kernel.execute_wave(
                _np.array(wave_lanes, _np.int64),
                _np.array(wave_eids, _np.int64),
            )
        wall = _time.perf_counter() - wall_start
        if self.config.collect_metrics:
            _publish_lockstep_metrics(kernel, wall)

        results = []
        for lane in range(lanes):
            trace_set = self.trace_sets[lane]
            trace_set.horizon = float(kernel.now[lane])
            stats = kernel.lane_stats(lane)
            # In-kernel time is shared by every lane of the wave; an
            # even split keeps aggregate_stats() comparable to a
            # sequential batch of the same vectors.
            stats.runtime_seconds = wall / lanes
            results.append(SimulationResult(
                traces=trace_set,
                stats=stats,
                final_values=kernel.lane_final_values(lane),
                simulator=None,
            ))
        return results

    def _advance_phase(self, lane: int, sources: List) -> None:
        kernel = self.kernel
        phase = self.phase[lane]
        if phase == _PHASE_CHANGES:
            at_time, assignments, slew = self.changes[lane][self.cursor[lane]]
            if at_time > kernel.now[lane]:
                kernel.now[lane] = at_time
            transitions = self._collect_word(lane, assignments, at_time, slew)
            if transitions:
                sources.append((lane, at_time, transitions))
            self.cursor[lane] += 1
            if self.cursor[lane] < len(self.changes[lane]):
                self.until[lane] = self.changes[lane][self.cursor[lane]][0]
            else:
                self.phase[lane] = _PHASE_SETTLE
                self.until[lane] = self.limits[lane]
        elif phase == _PHASE_SETTLE:
            if self.until[lane] > kernel.now[lane]:
                kernel.now[lane] = self.until[lane]
            self.phase[lane] = _PHASE_DRAIN
            self.until[lane] = _inf
        else:
            self.done[lane] = True

    def _collect_word(self, lane: int, assignments: Mapping[str, int],
                      at_time: float, slew: Optional[float]) -> List:
        """Mirror of ``EngineBase.apply_word``/``set_input`` for one lane:
        validate and commit the assignments, returning the source
        transitions to broadcast as ``(net_index, t50, ramp, rising)``
        in application (sorted-name) order."""
        kernel = self.kernel
        transitions = []
        for name in sorted(assignments):
            value = assignments[name]
            net = self.netlist.net(name)
            if not net.is_primary_input:
                raise StimulusError("%r is not a primary input" % name)
            if value not in (0, 1):
                raise StimulusError(
                    "input value must be 0 or 1, got %r" % (value,)
                )
            if kernel.pi[lane, net.index] == value:
                continue
            ramp = slew if slew is not None else (
                self.config.default_input_slew
            )
            if ramp <= 0.0:
                raise StimulusError("input slew must be positive")
            rising = value == 1
            t50 = at_time + 0.5 * ramp
            kernel.pi[lane, net.index] = value
            kernel.source_transitions[lane] += 1
            kernel.toggles[lane, net.index] += 1
            traces = kernel.trace_lists[lane]
            if traces is not None:
                traces[net.index].append(Transition(
                    t50=t50,
                    duration=ramp,
                    rising=rising,
                    net_name=name,
                    cause_time=at_time,
                ))
            transitions.append((net.index, t50, ramp, rising))
        return transitions

    def _flush_sources(self, sources: List) -> None:
        """Broadcast collected source transitions, one rank per pass.

        Pass ``r`` carries the ``r``-th toggled input of every lane
        that has one — at most one transition per lane per pass, which
        is the independence the vectorised broadcast requires, and
        per-lane application order (hence ``seq`` assignment) matches
        the scalar engines exactly.
        """
        kernel = self.kernel
        rank = 0
        while True:
            rows = [
                (lane, at_time, transitions[rank])
                for lane, at_time, transitions in sources
                if rank < len(transitions)
            ]
            if not rows:
                return
            if len(rows) <= _SCALAR_WAVE_CUTOFF:
                for lane, at_time, (net, t50, ramp, rising) in rows:
                    kernel.broadcast_scalar(
                        lane, net, t50, ramp, rising, at_time
                    )
            else:
                kernel.broadcast(
                    _np.array([row[0] for row in rows], _np.int64),
                    _np.array([row[2][0] for row in rows], _np.int64),
                    _np.array([row[2][1] for row in rows], _np.float64),
                    _np.array([row[2][2] for row in rows], _np.float64),
                    _np.array([row[2][3] for row in rows], _np.bool_),
                    _np.array([row[1] for row in rows], _np.float64),
                )
            rank += 1


# ----------------------------------------------------------------------
# the registered backend
# ----------------------------------------------------------------------

@register_engine("vector")
class VectorSimulator(CompiledSimulator):
    """The numpy N-lane lockstep kernel's registered engine.

    A single stimulus runs on the inherited compiled kernel, so this
    class slots into everything that consumes ``ENGINE_KINDS`` —
    ``simulate()``, service workers, the network server, the CLI.  Its
    reason to exist is the **lockstep batch** class method used by
    :func:`repro.core.batch.simulate_batch`, which advances all N
    vectors of a batch through one :class:`_VectorKernel`; per-lane
    results are bit-identical to the reference backend either way.
    """

    lockstep_batches = True
    cli_blurb = (
        "numpy N-lane kernel, steps whole batches in lockstep; needs numpy"
    )

    @classmethod
    def ensure_available(cls) -> None:
        """Raise a clear :class:`SimulationError` when numpy is absent."""
        _require_numpy()

    @classmethod
    def run_lockstep_batch(
        cls,
        netlist: Netlist,
        stimuli: Sequence,
        config: Optional[SimulationConfig] = None,
        settle: float = 0.0,
        seed: Optional[Mapping[str, int]] = None,
    ) -> List[SimulationResult]:
        """All N stimuli through one kernel, one wave at a time.

        The fast path behind ``simulate_batch(...,
        engine_kind="vector")``; result ``i`` is bit-identical to
        ``simulate(netlist, stimuli[i], ...)`` on any backend.  Every
        result carries ``simulator=None`` (like sharded batches): the
        lanes share one kernel, so there is no per-vector engine to
        hand out.
        """
        cls.ensure_available()
        if config is None:
            config = SimulationConfig()
        config.validate()
        kernel = _VectorKernel(netlist.compile(), config, len(stimuli))
        driver = _LockstepDriver(netlist, kernel, stimuli, settle, seed)
        return driver.run()
