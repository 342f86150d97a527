"""Exact differential fault simulation: a mutant re-runs only its cone.

A fault on net ``f`` can only change the gates in its *fanout cone*:
``f``'s driver plus every gate downstream of ``f``.  Every other gate
reads only nets outside the cone, so it sees exactly the events it saw
in the fault-free (*golden*) run.  This module records the golden run
of a base stimulus once per engine, with enough bookkeeping to replay
any cone against it, and then runs each mutant's cone alone — the
"record once, recompute only what changed" idea of LightningSim and
OmniSim, applied to fault campaigns.

A cone run starts from the golden DC state; a stuck-at or bit-flip
patch re-solves only the cone's DC.  Its queue is preloaded with the
golden run's *executed* events on the cone's side inputs (cone-gate
pins whose net lies outside the cone): those events depend only on
nets outside the cone, so the mutant sees them unchanged, and the
inertial decisions that cancelled other events at those pins were made
outside the cone too.  The mutant's result is then assembled as golden
totals minus the golden run's in-cone share plus the cone run's counts,
for every statistics counter and for ``net_toggles``; the final values,
traces and ``traces.horizon`` take the golden run's data outside the
cone and the cone run's data inside it.  The in-cone share is summed
from per-net (scheduled, filtered, late) and per-gate (executed,
degraded, fully degraded) counts the recording run keeps; emissions
per gate are its output net's toggles.

**The causal tie-break key.**  The queue orders events by time, and
exact time ties are common (identical cells see identical transitions).
The plain kernel breaks ties by an insertion counter, and a counter
value depends on every event scheduled before it, in or out of the
cone, so a cone run cannot reproduce it.  The recording run and the
cone runs key each event by its causal history instead: a kernel
broadcast keys its ``n``-th fanout entry ``((t_exec, 0, k), n)``,
where ``k`` is the key of the executing entry, and a broadcast made
between kernel steps keys it ``((now, phase, j), n)`` with phase 1
for a SET pulse, phase 2 for a stimulus change and ``j`` counting such
broadcasts.  A kernel entry that executes at the instant of the
broadcast it descends from (a SET pulse's late-clamped events and
their late-clamped children) runs after that broadcast, so it inherits
the phase: its children are keyed ``((t_exec, phase, j, k), n)``, which
sorts after the broadcast's own ``((now, phase, j), n)``.

These keys order events exactly as the insertion counter does.  At one
instant the kernel first drains every event already queued for it
(phase 0), then fires the SET pulse (phase 1) and runs what that pulse
scheduled for the same instant, then applies the stimulus (phase 2;
a stimulus ramp crosses every threshold strictly after its start, so
nothing of it runs at that instant).  Within a phase, execution order
is key order, and siblings follow fanout order ``n``.  Because a key
depends only on an event's causal ancestors, an event keeps its key in
a cone-only run, and the cone run reproduces the full run's tie order.
``tests/faults/test_differential.py`` checks both halves: keys rise in
insertion order, and every mutant matches its full run field by field.

Each key stores its ancestor chain flat (:class:`CausalKey`), about
three entries per gate on the causal path, so building and storing one
costs O(logic depth).  Nested parents would share the chain and build
in O(1), but ties would then compare one ancestor at a time, and cone
runs measured 1.25-2x slower with them (slower than full runs on
mult10), so the chain stays flat; the record's memory is measured in
docs/performance.md.  A keyed run costs
about 1.5-1.9x the plain kernel's CPU, so only the recording run and
the cone runs use the keys; unfaulted runs keep the plain kernel.

**When the full run is used instead.**  The ``reference`` engine;
cyclic lowerings (no topological DC sweep to re-solve a cone);
``record_filtered=True`` (the filtered-event log is a whole-run
sequence); a DC ``seed``; a base stimulus that is not a
:class:`~repro.stimuli.vectors.VectorSequence`; a fault net that is not
gate-driven; a golden run that fails; a cone run that raises; and a
synthesized event total that reaches ``max_events``, so the full run
raises the same :class:`~repro.errors.SimulationLimitError`.  A
recording costs more than a full run and each cone is built on first
use, so a chunk records a base stimulus only while it still holds
:data:`MIN_MUTANTS_TO_RECORD` mutants of it; fewer (a lone faulted
``simulate()`` among them) take full runs unless the golden record
already exists.

**The golden record.**  An engine keeps the golden run of one base
stimulus: the last one recorded, compared by value and ``settle``.  A
different base stimulus replaces it, but not while the chunk still
holds mutants of the recorded one, so a chunk that interleaves two
base stimuli never re-records back and forth.  Each chunk first
compares the lowering's patchable tables with the snapshot the record
was made under and drops it on a difference or when
``Netlist.compile()`` returns a new lowering (after
``invalidate_lowering()``).  A fault injection restores the very
objects it replaced, so a mutant never invalidates the record.
"""

from __future__ import annotations

import heapq
from itertools import compress
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from ..circuit.netlist import Net
from ..core.compiled import E_SEQ, E_TIME, E_UID, CompiledSimulator
from ..core.engine import (
    EngineBase,
    SimulationResult,
    _stat_counts,
    publish_engine_metrics,
    run_stimulus,
)
from ..core.stats import SimulationStatistics
from ..core.trace import TraceSet
from ..core.transition import Transition
from ..errors import ReproError
from ..obs.registry import MetricsRegistry, get_registry
from ..obs.timing import PhaseTimer
from ..stimuli.vectors import VectorSequence
from .faultload import FaultKind, FaultSpec
from .inject import FaultedStimulus, FaultInjection, play

#: broadcast phases at one instant (kernel broadcasts are phase 0).
SET_PHASE = 1
STIMULUS_PHASE = 2

#: fault kinds whose patch changes the DC solution inside the cone.
_LOGIC_KINDS = (FaultKind.STUCK_AT_0, FaultKind.STUCK_AT_1, FaultKind.BIT_FLIP)

#: mutants of one base stimulus a chunk must still hold to record its
#: golden run.  A cold chunk of this many breaks even on c17 and wins
#: on the multipliers (docs/performance.md); fewer would run slower
#: than their full runs.
MIN_MUTANTS_TO_RECORD = 8


class CausalKey(Tuple[Tuple[object, ...], int]):
    """``(parent, n)``: the causal tie-break key of one queued event.

    ``parent`` identifies the broadcast that scheduled the event and
    ``n`` its position in that broadcast's fanout.  ``parent`` is stored
    flat: a kernel broadcast's ``(t_exec, 0, k)`` is ``(t_exec, 0)``
    followed by the flat ``k``, a between-steps broadcast's is
    ``(now, phase, j, 0)``, and an inheriting kernel broadcast's
    ``(t_exec, phase, j, k)`` is ``(t_exec, phase, j, 1)`` followed by
    the flat ``k``.  No parent's encoding is a prefix of another's, so
    flat parents compare exactly as nested ones do, in one pass instead
    of one recursive comparison per ancestor on every time tie.
    ``key + 1`` is the next sibling's key, so the kernel's ``seq += 1``
    builds these keys unchanged.
    """

    __slots__ = ()

    def __add__(self, step: int) -> CausalKey:  # type: ignore[override]
        return CausalKey((self[0], self[1] + step))


class CausalKernel(CompiledSimulator):
    """The compiled kernel with causal keys instead of the insertion
    counter (results are bit-identical; see the module docstring)."""

    #: broadcasts made between kernel steps so far (the ``j`` of their
    #: keys; never reset, only its order matters).
    _boundaries = 0

    def _execute(self, entry: list) -> None:
        time_now = entry[E_TIME]
        parent, n = entry[E_SEQ]
        if parent[1] and parent[0] == time_now:
            # Runs at the instant of the SET pulse it descends from.
            head = (time_now, parent[1], parent[2], 1)
        else:
            head = (time_now, 0)
        self._seq = CausalKey((head + parent + (n,), -1))
        CompiledSimulator._execute(self, entry)

    def _broadcast_between_steps(
        self, phase: int, transition: Transition, net: Net
    ) -> None:
        self._seq = CausalKey(((self.now, phase, self._boundaries, 0), -1))
        self._boundaries += 1
        self._broadcast_indexed(
            net.index, transition.t50, transition.duration, transition.rising
        )

    def _broadcast_transition(self, transition: Transition, net: Net) -> None:
        self._broadcast_between_steps(STIMULUS_PHASE, transition, net)

    def _broadcast_pulse(self, transition: Transition, net: Net) -> None:
        self._broadcast_between_steps(SET_PHASE, transition, net)


class _ConeKernel(CausalKernel):
    """Runs cones.  The per-net toggle dict is built by the runner from
    golden and cone counts, so the per-run rebuild is skipped."""

    def _after_run(self) -> None:
        pass


class RecordingKernel(CausalKernel):
    """A keyed full run that also keeps what cone runs need: every
    executed entry per pin, degraded and fully degraded emissions and
    the last execution time per gate, and scheduled, filtered and late
    events per broadcasting net.  After :meth:`record` the kernel is the
    golden record itself."""

    def _build_state(
        self, input_values: Dict[str, int], seed: Optional[Dict[str, int]]
    ) -> None:
        super()._build_state(input_values, seed)
        cn = self._cn
        self.executed: List[List[list]] = [[] for _ in range(cn.num_inputs)]
        self.gate_degraded = [0] * cn.num_gates
        self.gate_fully = [0] * cn.num_gates
        self.gate_last_time = [0.0] * cn.num_gates
        self.net_scheduled = [0] * cn.num_nets
        self.net_filtered = [0] * cn.num_nets
        self.net_late = [0] * cn.num_nets

    def _execute(self, entry: list) -> None:
        stats = self.stats
        degraded = stats.transitions_degraded
        fully = stats.transitions_fully_degraded
        CausalKernel._execute(self, entry)
        uid = entry[E_UID]
        gate = self._input_gate[uid]
        self.executed[uid].append(entry)
        self.gate_last_time[gate] = entry[E_TIME]
        self.gate_degraded[gate] += stats.transitions_degraded - degraded
        self.gate_fully[gate] += stats.transitions_fully_degraded - fully

    def _broadcast_indexed(
        self, net_index: int, t50: float, duration: float, rising: bool
    ) -> None:
        stats = self.stats
        scheduled = stats.events_scheduled
        filtered = stats.events_filtered
        late = stats.late_events
        CompiledSimulator._broadcast_indexed(
            self, net_index, t50, duration, rising
        )
        self.net_scheduled[net_index] += stats.events_scheduled - scheduled
        self.net_filtered[net_index] += stats.events_filtered - filtered
        self.net_late[net_index] += stats.late_events - late

    def record(self, stimulus: VectorSequence, settle: float) -> None:
        """Make the golden run of ``stimulus``: the DC state a cone run
        starts from, the run itself, and the indexes cone runs read."""
        self.initialize(stimulus.initial_values(self.netlist))
        self.dc_inputs = list(self._input_values)
        self.dc_gate_out = list(self._gate_out)
        self.dc_row = list(self._pi)
        play(self, stimulus, settle)
        cn = self._cn
        self.final_values = self.values()
        self.sweep = cn.dc_sweep() or []  # runners never record cyclic lowerings
        self.names = self.traces.names()
        self.initial = self.traces.initial_values()
        self.index = {name: slot for slot, name in enumerate(self.names)}
        #: trace slot of each net id (traced runs only).
        self.slot_of_net = (
            [self.index[name] for name in cn.net_names] if self.names else []
        )
        self.gates_by_last_time = sorted(
            range(cn.num_gates), key=self.gate_last_time.__getitem__,
            reverse=True,
        )
        self._cones: Dict[int, _Cone] = {}

    def cone(self, driver: int) -> _Cone:
        """The cone of the gate ``driver``, built on first use."""
        cone = self._cones.get(driver)
        if cone is None:
            cone = self._cones[driver] = _Cone(self, driver)
        return cone


class _Cone:
    """One fault net's fanout cone, with the golden run's share of it."""

    __slots__ = ("sweep", "pins", "heap", "share", "outside_time")

    def __init__(self, golden: RecordingKernel, driver: int):
        cn = golden.compiled_netlist
        gate_out_net = cn.gate_output_net
        offsets = cn.fanout_offsets
        targets = cn.fanout_targets
        input_gate = cn.input_gate
        in_cone = bytearray(cn.num_gates)
        in_cone[driver] = 1
        frontier = [driver]
        while frontier:
            out = gate_out_net[frontier.pop()]
            for position in range(offsets[out], offsets[out + 1]):
                reader = input_gate[targets[position]]
                if not in_cone[reader]:
                    in_cone[reader] = 1
                    frontier.append(reader)
        #: ``(gate, output net, input nets)`` of every cone gate, in
        #: topological order (the ``dc_sweep()`` entries).
        self.sweep = tuple(step for step in golden.sweep if in_cone[step[0]])
        cone_net = bytearray(cn.num_nets)
        for _gate, out_net, _in_nets in self.sweep:
            cone_net[out_net] = 1
        gate_offsets = cn.gate_input_offsets
        input_net = cn.input_net
        #: pins fed by a cone net (the only queues the cone run touches).
        pins: List[int] = []
        side: List[int] = []
        for gate, _out_net, _in_nets in self.sweep:
            for uid in range(gate_offsets[gate], gate_offsets[gate + 1]):
                (pins if cone_net[input_net[uid]] else side).append(uid)
        self.pins = tuple(pins)
        executed = golden.executed
        #: golden events on side inputs, in heap order.
        self.heap = [entry for uid in side for entry in executed[uid]]
        heapq.heapify(self.heap)
        toggles = golden._toggles
        gates = [step[0] for step in self.sweep]
        nets = [step[1] for step in self.sweep]
        self.share = (
            len(self.heap) + sum(len(executed[uid]) for uid in pins),
            sum(golden.net_scheduled[net] for net in nets),
            sum(golden.net_filtered[net] for net in nets),
            sum(golden.net_late[net] for net in nets),
            sum(toggles[net] for net in nets),
            sum(golden.gate_degraded[gate] for gate in gates),
            sum(golden.gate_fully[gate] for gate in gates),
        )
        #: the golden run's last execution outside the cone.
        self.outside_time = 0.0
        for gate in golden.gates_by_last_time:
            if not in_cone[gate]:
                self.outside_time = golden.gate_last_time[gate]
                break


def _stimulus_value(stimulus: VectorSequence) -> Tuple[object, ...]:
    """A comparable value of a base stimulus."""
    return (
        stimulus.slew, stimulus.defaults, stimulus.horizon,
        tuple((time, tuple(sorted(assignments.items())))
              for time, assignments in stimulus.steps),
    )


class DifferentialRunner:
    """The golden record and cone runs of one compiled-family engine."""

    def __init__(self, engine: CompiledSimulator):
        self.engine = engine
        self.cn = engine.compiled_netlist
        self.cone_kernel = _ConeKernel(
            engine.netlist, config=engine.config, compiled=self.cn
        )
        self._snapshot: Optional[Tuple[object, ...]] = None
        #: ``(stimulus value, settle)`` of the golden record.
        self._base: Optional[Tuple[object, ...]] = None
        #: the golden record; None when there is none or it failed.
        self.golden: Optional[RecordingKernel] = None
        #: eligible mutants per base the current chunk has still to run.
        self._pending: Dict[Tuple[object, ...], int] = {}

    def usable(self) -> bool:
        """False when every mutant must take the full run: a cyclic
        lowering, or a filtered-event log to keep."""
        return (
            self.cn.dc_sweep() is not None
            and not self.engine.config.record_filtered
        )

    def begin_chunk(
        self, stimuli: Sequence[object], settle: float
    ) -> List[Optional[Tuple[object, ...]]]:
        """Drop the golden record if the lowering changed since it was
        made (a new lowering, or tables patched in place), and return
        each stimulus' base, ``(stimulus value, settle)``, or None when
        it must take the full run."""
        cn = self.cn
        current = self.engine.netlist.compile()
        snapshot = self._snapshot
        if not (
            snapshot is not None
            and snapshot[0] is current
            and cn.gate_tables == snapshot[1]
            and cn.gate_functions == snapshot[2]
            and cn.arc_rise == snapshot[3]
            and cn.arc_fall == snapshot[4]
        ):
            self._base = self.golden = None
            self._snapshot = (
                current,
                [None if table is None else list(table)
                 for table in cn.gate_tables],
                list(cn.gate_functions),
                list(cn.arc_rise),
                list(cn.arc_fall),
            )
        nets = self.engine.netlist.nets
        values: Dict[int, Tuple[object, ...]] = {}
        bases: List[Optional[Tuple[object, ...]]] = []
        pending: Dict[Tuple[object, ...], int] = {}
        for item in stimuli:
            base = None
            if isinstance(item, FaultedStimulus):
                stimulus = item.stimulus
                net = nets.get(item.fault.net)
                if (type(stimulus) is VectorSequence and net is not None
                        and net.driver is not None):
                    base = values.get(id(stimulus))
                    if base is None:
                        base = (_stimulus_value(stimulus), settle)
                        if base == self._base:
                            base = self._base  # compared by identity below
                        values[id(stimulus)] = base
                    pending[base] = pending.get(base, 0) + 1
            bases.append(base)
        self._pending = pending
        return bases

    def _golden_for(
        self, stimulus: VectorSequence, base: Tuple[object, ...]
    ) -> Optional[RecordingKernel]:
        """The golden record of ``base``, recorded here when the chunk
        still holds enough of its mutants and none of the recorded
        base's; None when the full run must decide."""
        pending = self._pending
        left = pending[base]
        pending[base] = left - 1
        recorded = self._base
        if base is recorded:
            return self.golden
        if left < MIN_MUTANTS_TO_RECORD or (
            recorded is not None and pending.get(recorded)
        ):
            return None
        engine = self.engine
        golden: Optional[RecordingKernel] = RecordingKernel(
            engine.netlist, config=engine.config, compiled=self.cn
        )
        try:
            golden.record(stimulus, base[1])
        except ReproError:
            golden = None
        self._base, self.golden = base, golden
        return golden

    def run(
        self, faulted: FaultedStimulus, base: Tuple[object, ...]
    ) -> Optional[SimulationResult]:
        """The mutant's result from its cone alone, or None when the
        full run must decide (see the module docstring)."""
        stimulus = faulted.stimulus
        golden = self._golden_for(stimulus, base)
        if golden is None:
            return None
        fault = faulted.fault
        netlist = self.engine.netlist
        driver = netlist.nets[fault.net].driver
        if driver is None:  # begin_chunk passes gate-driven nets only
            return None
        cone = golden.cone(driver.index)
        injection = FaultInjection(netlist, fault)
        try:
            injection.apply()
            return self._run_cone(golden, cone, stimulus, base[1], fault)
        except ReproError:
            return None
        finally:
            injection.restore()

    def _run_cone(
        self,
        golden: RecordingKernel,
        cone: _Cone,
        stimulus: VectorSequence,
        settle: float,
        fault: FaultSpec,
    ) -> Optional[SimulationResult]:
        engine = self.engine
        cn = self.cn
        kernel = self.cone_kernel
        config = kernel.config
        pulse = fault.kind is FaultKind.SET_PULSE
        # Metrics as the full run publishes them: run_stimulus for
        # permanent faults, nothing for a SET pulse.
        registry: Optional[MetricsRegistry] = None
        if config.collect_metrics and not pulse:
            registry = get_registry()
            if not registry.enabled:
                registry = None
        timer = PhaseTimer(enabled=registry is not None)
        stats = kernel.stats = SimulationStatistics()

        with timer.phase("initialize"):
            input_values = list(golden.dc_inputs)
            gate_out = list(golden.dc_gate_out)
            initial = golden.initial
            if fault.kind in _LOGIC_KINDS:
                row = cn.dc_update(list(golden.dc_row), cone.sweep)
                input_net = cn.input_net
                for uid in cone.pins:
                    input_values[uid] = row[input_net[uid]]
                for gate, out_net, _in_nets in cone.sweep:
                    gate_out[gate] = row[out_net]
                if config.record_traces:
                    initial = list(initial)
                    for _gate, out_net, _in_nets in cone.sweep:
                        initial[golden.slot_of_net[out_net]] = row[out_net]
            kernel._input_values = input_values
            kernel._gate_out = gate_out
            kernel._gate_last = [None] * cn.num_gates
            kernel._toggles = [0] * cn.num_nets
            stacks: List[Optional[List[list]]] = [None] * cn.num_inputs
            for uid in cone.pins:
                stacks[uid] = []
            kernel._stacks = stacks  # type: ignore[assignment]
            kernel.queue.preload(list(cone.heap))
            kernel.now = 0.0
            kernel._ready = True
            if config.record_traces:
                rows = [list(net_rows) for net_rows in golden.traces.row_lists()]
                for _gate, out_net, _in_nets in cone.sweep:
                    rows[golden.slot_of_net[out_net]] = []
                kernel.traces = TraceSet.from_rows(
                    kernel.vdd, golden.names, initial, rows, golden.index
                )
            else:
                kernel.traces = TraceSet(kernel.vdd)
            kernel._after_initialize()

        play(kernel, stimulus, settle, fault=fault, apply_stimulus=False,
             timer=timer)

        base = golden.stats
        (executed, scheduled, filtered, late, emitted, degraded,
         fully) = cone.share
        total_executed = (
            base.events_executed - executed + stats.events_executed
        )
        if total_executed >= kernel._max_events:
            return None  # the full run raises or ends right at the budget
        toggles = list(golden._toggles)
        cone_toggles = kernel._toggles
        for _gate, out_net, _in_nets in cone.sweep:
            toggles[out_net] = cone_toggles[out_net]
        result_stats = SimulationStatistics(
            events_executed=total_executed,
            events_scheduled=(
                base.events_scheduled - scheduled + stats.events_scheduled
            ),
            events_filtered=(
                base.events_filtered - filtered + stats.events_filtered
            ),
            late_events=base.late_events - late + stats.late_events,
            transitions_emitted=(
                base.transitions_emitted - emitted + stats.transitions_emitted
            ),
            source_transitions=base.source_transitions,
            transitions_degraded=(
                base.transitions_degraded - degraded
                + stats.transitions_degraded
            ),
            transitions_fully_degraded=(
                base.transitions_fully_degraded - fully
                + stats.transitions_fully_degraded
            ),
            # by net id, non-zero counts only, as the full run builds it
            net_toggles=dict(
                zip(compress(cn.net_names, toggles), filter(None, toggles))
            ),
            runtime_seconds=stats.runtime_seconds,
        )
        # Leave the kernel in the full run's final state: golden values
        # outside the cone, the cone run's inside.
        final_values = golden.final_values.copy()
        final_gate_out = list(golden._gate_out)
        net_names = cn.net_names
        for gate, out_net, _in_nets in cone.sweep:
            final_values[net_names[out_net]] = final_gate_out[gate] = (
                gate_out[gate]
            )
        kernel._gate_out = final_gate_out
        kernel._pi = list(golden._pi)
        traces = kernel.traces
        if cone.outside_time > traces.horizon:
            traces.horizon = cone.outside_time
        kernel.now = traces.horizon
        kernel.stats = result_stats
        result = SimulationResult(
            traces=traces,
            stats=result_stats,
            final_values=final_values,
            simulator=kernel,
        )
        if registry is not None:
            counts = _stat_counts(result_stats)
            phases = timer.phases()
            wall = timer.elapsed()
            publish_engine_metrics(
                engine.kind, counts, runs=1, run_seconds=wall,
                phases=phases, registry=registry,
            )
            result.metrics = {
                "engine": engine.kind,
                "wall_seconds": wall,
                "phases": phases,
                "counters": counts,
            }
        return result


def differential_runner(engine: EngineBase) -> Optional[DifferentialRunner]:
    """The engine's runner (built on first use), or None when its
    faulted stimuli always take the full run."""
    if not isinstance(engine, CompiledSimulator):
        return None
    runner = engine._differential
    if runner is None:
        runner = engine._differential = DifferentialRunner(engine)
    return runner if runner.usable() else None


def run_faulted_chunk(
    engine: EngineBase,
    stimuli: Sequence[object],
    settle: float = 0.0,
    seed: Optional[Mapping[str, int]] = None,
) -> Iterator[SimulationResult]:
    """Run a chunk holding faulted stimuli, yielding results in order.

    The chunk runner's faulted branch (:func:`repro.core.batch.run_chunk`):
    on a compiled-family engine each mutant re-runs only its fault's
    cone against the engine's golden record of its base stimulus;
    everything else replays through :func:`repro.core.engine.run_stimulus`.
    """
    runner = differential_runner(engine) if seed is None else None
    if runner is None:
        for stimulus in stimuli:
            yield run_stimulus(engine, stimulus, settle=settle, seed=seed)
        return
    bases = runner.begin_chunk(stimuli, settle)
    for stimulus, base in zip(stimuli, bases):
        result = None
        if base is not None and isinstance(stimulus, FaultedStimulus):
            result = runner.run(stimulus, base)
        if result is None:
            result = run_stimulus(engine, stimulus, settle=settle)
        yield result
