"""Exact differential fault simulation: a mutant re-runs only its cone.

A fault on net ``f`` can only change the gates in its *fanout cone*:
``f``'s driver plus every gate downstream of ``f``.  Every other gate
reads only nets outside the cone, so it sees exactly the events it saw
in the fault-free (*golden*) run.  This module records the golden run
of a base stimulus once per engine, with enough bookkeeping to replay
any cone against it, and then runs each mutant's cone alone — the
"record once, recompute only what changed" idea of LightningSim and
OmniSim, applied to fault campaigns.

A cone run's value row starts as a copy of the golden DC row; a
stuck-at or bit-flip patch re-solves only the cone's nets in it.  Its
queue is preloaded with the golden run's *executed* events on the
cone's side inputs (cone-gate pins whose net lies outside the cone):
those events depend only on nets outside the cone, so the mutant sees
them unchanged, and the inertial decisions that cancelled other events
at those pins were made outside the cone too.  The mutant's result is
then assembled as golden totals minus the golden run's in-cone share
plus the cone run's counts, for every statistics counter and for
``net_toggles``; the final values, traces and ``traces.horizon`` take
the golden run's data outside the cone and the cone run's data inside
it.  The in-cone share is summed from per-net (scheduled, filtered,
late) and per-gate (executed, degraded, fully degraded) counts the
recording run keeps; emissions per gate are its output net's toggles.

**Ties follow the circuit, so a cone run orders them as the full run
does.**  Every kernel breaks time ties by ``(time, input-pin uid,
seq)`` (:class:`repro.core.compiled._CompiledHeapQueue`).  Pin uids
are numbered in gate order, so when every gate comes after the gates
driving its inputs the uids grow along every path.  An event pushed
while an instant runs (a late event clamped to ``now``) then lands on
a pin downstream of the one just popped, behind it in the heap, and
the run pops its events in plain key order, whatever order they were
pushed in.  Same-time events on different pins thus order by pin,
which a cone run shares with the full run; events on one pin order by
insertion, and a pin only ever receives events from one net, so a
cone pin sees the full run's broadcasts in the full run's order and a
side-input pin sees the golden entries themselves, ``seq`` included.
Both runs drain every event of an instant before a SET pulse fires at
it (``play()`` runs up to and including the instant first).  The
recording run and the cone runs are therefore plain kernel runs.
Gates built out of that order break the argument: a side pin a later
gate late-clamps to an instant pops after a cone pin in the full run
but, preloaded, before it in the cone run.  ``read_bench`` builds
drivers first whatever the file order; any other netlist out of that
order takes full runs.

**When the full run is used instead.**  The ``reference`` engine;
a lowering with a gate numbered before a gate driving one of its
inputs (which every cyclic lowering has);
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
was made under and drops it on a difference.  When
``Netlist.compile()`` returns a new lowering (after
``invalidate_lowering()``) the engine rebinds to it and drops its
runner, record included.  A fault injection restores the very objects
it replaced, so a mutant never invalidates the record.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from ..core.compiled import CompiledSimulator, KernelRecord
from ..core.engine import (
    EngineBase,
    SimulationResult,
    chunk_tally,
    finish_run,
    play,
    run_stamps,
    run_stimulus,
)
from ..core.rows import NetCounts
from ..core.stats import SimulationStatistics
from ..core.trace import TraceSet
from ..errors import ReproError
from ..stimuli.vectors import VectorSequence
from .faultload import FaultKind
from .inject import FaultedStimulus, FaultInjection, pulse_of

#: fault kinds whose patch changes the DC solution inside the cone.
_LOGIC_KINDS = (FaultKind.STUCK_AT_0, FaultKind.STUCK_AT_1, FaultKind.BIT_FLIP)

#: mutants of one base stimulus a chunk must still hold to record its
#: golden run: the smallest cold chunk whose cone path costs every
#: measured circuit at most its full runs (c17 0.99, the multipliers
#: 0.80-0.97).  Set from the per-cell medians of five runs of
#: ``tools/fault_break_even.py`` on the native kernel loop
#: (docs/performance.md); every run's break-even line read 8.  Fewer
#: would run slower than their full runs.
MIN_MUTANTS_TO_RECORD = 8


class RecordingKernel(CompiledSimulator):
    """A full run with the kernel loop's recording arm on: it also
    keeps what cone runs need (:class:`~repro.core.compiled.KernelRecord`:
    every executed entry per pin, degraded and fully degraded emissions
    and the last execution time per gate, and scheduled, filtered and
    late events per broadcasting net).  After :meth:`record` the kernel
    is the golden record itself."""

    def _build_state(
        self, input_values: Dict[str, int], seed: Optional[Dict[str, int]]
    ) -> None:
        super()._build_state(input_values, seed)
        self._record = KernelRecord(self._cn)

    def record(self, stimulus: VectorSequence, settle: float) -> None:
        """Make the golden run of ``stimulus``: the DC state a cone run
        starts from, the run itself, and the indexes cone runs read."""
        self.initialize(stimulus.initial_values(self.netlist))
        self.dc_inputs = list(self._input_values)
        self.dc_row = list(self._values)
        play(self, stimulus, settle)
        cn = self._cn
        self.sweep = cn.dc_sweep() or []  # runners never record cyclic lowerings
        self.initial = self.traces.initial_values()
        #: trace slot of each net id (traces follow the result layout).
        self.slot_of_net = [cn.layout.index[name] for name in cn.net_names]
        self.gates_by_last_time = sorted(
            range(cn.num_gates), key=self._record.gate_last_time.__getitem__,
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
        record = golden._record
        executed = record.executed
        #: golden events on side inputs, in heap order.
        self.heap = [entry for uid in side for entry in executed[uid]]
        heapq.heapify(self.heap)
        toggles = golden._toggles
        gates = [step[0] for step in self.sweep]
        nets = [step[1] for step in self.sweep]
        self.share = (
            len(self.heap) + sum(len(executed[uid]) for uid in pins),
            sum(record.net_scheduled[net] for net in nets),
            sum(record.net_filtered[net] for net in nets),
            sum(record.net_late[net] for net in nets),
            sum(toggles[net] for net in nets),
            sum(record.gate_degraded[gate] for gate in gates),
            sum(record.gate_fully[gate] for gate in gates),
        )
        #: the golden run's last execution outside the cone.
        self.outside_time = 0.0
        for gate in golden.gates_by_last_time:
            if not in_cone[gate]:
                self.outside_time = record.gate_last_time[gate]
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
        self.cone_kernel = CompiledSimulator(
            engine.netlist, config=engine.config, compiled=self.cn
        )
        # A cone result stands in for the engine's full run, metrics
        # included.
        self.cone_kernel.kind = engine.kind
        self._snapshot: Optional[Tuple[object, ...]] = None
        #: ``(stimulus value, settle)`` of the golden record.
        self._base: Optional[Tuple[object, ...]] = None
        #: the golden record; None when there is none or it failed.
        self.golden: Optional[RecordingKernel] = None
        #: eligible mutants per base the current chunk has still to run.
        self._pending: Dict[Tuple[object, ...], int] = {}
        net_driver = self.cn.net_driver
        input_gate = self.cn.input_gate
        #: every gate numbered after the gates driving its inputs, so
        #: pin uids grow along every path (see the module docstring).
        self.drivers_first = all(
            net_driver[net] < input_gate[uid]
            for uid, net in enumerate(self.cn.input_net)
        )

    def usable(self) -> bool:
        """False when every mutant must take the full run: gates out of
        driver-before-reader order (cyclic lowerings included), or a
        filtered-event log to keep."""
        return self.drivers_first and not self.engine.config.record_filtered

    def begin_chunk(
        self, stimuli: Sequence[object], settle: float
    ) -> List[Optional[Tuple[object, ...]]]:
        """Drop the golden record if the lowering's tables were patched
        in place since it was made, and return each stimulus' base,
        ``(stimulus value, settle)``, or None when it must take the full
        run.  (A new lowering gets a new runner: see
        :func:`differential_runner`.)"""
        cn = self.cn
        snapshot = self._snapshot
        if not (
            snapshot is not None
            and cn.gate_tables == snapshot[0]
            and cn.gate_functions == snapshot[1]
            and cn.arc_rise == snapshot[2]
            and cn.arc_fall == snapshot[3]
        ):
            self._base = self.golden = None
            self._snapshot = (
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
            return self._run_cone(golden, cone, faulted, base[1])
        except ReproError:
            return None
        finally:
            injection.restore()

    def _run_cone(
        self,
        golden: RecordingKernel,
        cone: _Cone,
        faulted: FaultedStimulus,
        settle: float,
    ) -> Optional[SimulationResult]:
        cn = self.cn
        kernel = self.cone_kernel
        config = kernel.config
        fault = faulted.fault
        # The cone run stands in for the engine's run: same tally.
        kernel.tally = self.engine.tally
        stamps = run_stamps(kernel)
        stats = kernel.stats = SimulationStatistics()

        input_values = list(golden.dc_inputs)
        values = list(golden.dc_row)
        initial = golden.initial
        if fault.kind in _LOGIC_KINDS:
            cn.dc_update(values, cone.sweep)
            input_net = cn.input_net
            for uid in cone.pins:
                input_values[uid] = values[input_net[uid]]
            if config.record_traces:
                initial = list(initial)
                for _gate, out_net, _in_nets in cone.sweep:
                    initial[golden.slot_of_net[out_net]] = values[out_net]
        kernel._input_values = input_values
        kernel._values = values
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
                kernel.vdd, cn.layout.names, initial, rows, cn.layout.index
            )
        else:
            kernel.traces = TraceSet(kernel.vdd)
        kernel._after_initialize()

        play(kernel, faulted.stimulus, settle, pulse=pulse_of(fault),
             apply_stimulus=False, stamps=stamps)

        base = golden.stats
        (executed, scheduled, filtered, late, emitted, degraded,
         fully) = cone.share
        total_executed = (
            base.events_executed - executed + stats.events_executed
        )
        if total_executed >= kernel._max_events:
            return None  # the full run raises or ends right at the budget
        # Leave the kernel in the full run's final state, and take the
        # toggle counts likewise: golden's outside the cone, the cone
        # run's inside.
        final_values = list(golden._values)
        toggles = list(golden._toggles)
        cone_toggles = kernel._toggles
        for _gate, out_net, _in_nets in cone.sweep:
            final_values[out_net] = values[out_net]
            toggles[out_net] = cone_toggles[out_net]
        kernel._values = final_values
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
            net_toggles=NetCounts(cn.layout, toggles),
            runtime_seconds=stats.runtime_seconds,
        )
        traces = kernel.traces
        if cone.outside_time > traces.horizon:
            traces.horizon = cone.outside_time
        kernel.now = traces.horizon
        kernel.stats = result_stats
        return finish_run(kernel, faulted, stamps)


def differential_runner(engine: EngineBase) -> Optional[DifferentialRunner]:
    """The engine's runner over its current lowering (built on first
    use), or None when its faulted stimuli always take the full run."""
    if not isinstance(engine, CompiledSimulator):
        return None
    engine._sync_lowering()
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
    Cone and full runs alike add their engine metrics to one tally,
    published when the chunk ends or raises.
    """
    with chunk_tally(engine):
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
