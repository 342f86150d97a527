"""Engine-level fault injection with guaranteed restoration.

One netlist, many mutants: instead of copying the netlist per mutant
(which would re-lower it and throw away every warm kernel), injection
patches the *shared* structures in place —

* the raw cells (``gate.cell``), because the reference engine and its
  object-graph DC initialisation evaluate them directly, and
* the cached :class:`~repro.core.compiled.CompiledNetlist` tables
  (``gate_tables`` / ``gate_functions`` / ``arc_rise`` / ``arc_fall``),
  because the compiled/vector/bitparallel engines DC-initialise and
  execute from them —

then calls :meth:`CompiledNetlist.refresh_numpy_cache`, the sanctioned
mutation seam through the frozen read-only ``as_numpy()`` export, so
kernels holding references to the exported arrays observe the patch.
Restoration reverses all of it and re-syncs the export again; a
round-trip leaves the lowering bit-identical
(:func:`lowering_fingerprint` before == after), which the property
suite enforces.

Logic mutations (stuck-at, bit-flip) are expressed as
:class:`~repro.circuit.logic.TableFunction` stand-in cells so every
layer — DC init, per-event evaluation, re-lowering — computes the same
mutated function from one object.

SET pulses have no static patch at all: they are injected *into the
running engine* by broadcasting a flip/restore transition pair at the
fault instant, so the pulse fights the same inertial filter and
degradation model as any legitimate glitch.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Dict, Iterator, List, Mapping, Optional, Tuple

from ..circuit.cells import CellSpec
from ..circuit.logic import GateFunctionLike, TableFunction
from ..circuit.netlist import Gate, Netlist
from ..core.engine import EngineBase, SimulationResult, run_stimulus
from ..core.stats import SimulationStatistics
from ..core.transition import Transition
from ..errors import FaultError
from ..obs.timing import PhaseTimer
from ..stimuli.vectors import VectorSequence
from .faultload import FaultKind, FaultSpec

#: One lowered timing arc: (tp0, d_slew, tau, s_slew, tau_deg, t0_coef),
#: the shape ``CompiledNetlist.arc_rise`` / ``arc_fall`` store per pin.
_Arc = Tuple[float, float, float, float, float, float]

#: Test seam (the "teeth" check): when True, :meth:`FaultInjection.restore`
#: deliberately leaks the patch.  Exists so the suite can prove that a
#: restore leak is *caught* — by the fingerprint property and the parity
#: suites — never set outside tests.
LEAK_RESTORES = False


def lowering_fingerprint(netlist: Netlist) -> str:
    """SHA-256 over every array of the lowering's numpy export.

    The round-trip oracle: injection followed by restoration must leave
    this unchanged, byte for byte.
    """
    arrays = netlist.compile().as_numpy()
    digest = hashlib.sha256()
    for key in sorted(arrays):
        array = arrays[key]
        digest.update(key.encode())
        digest.update(array.tobytes())  # type: ignore[union-attr]
    return digest.hexdigest()


class FaultedStimulus:
    """A stimulus bundled with the single fault active while it plays.

    Duck-types the ``VectorSequence`` protocol by delegation and adds
    the ``fault`` attribute :func:`repro.core.engine.run_stimulus` keys
    on, so faulted vectors flow through every existing execution path —
    ``simulate()``, in-process batches, shard workers, warm service
    workers — without those paths learning anything about faults.
    Pickles like any stimulus (both halves are plain data).
    """

    __slots__ = ("stimulus", "fault")

    def __init__(self, stimulus: VectorSequence, fault: FaultSpec):
        self.stimulus = stimulus
        self.fault = fault

    def initial_values(self, netlist: Netlist) -> Dict[str, int]:
        return self.stimulus.initial_values(netlist)

    def iter_changes(self) -> Iterator[Tuple[float, Dict[str, int], Optional[float]]]:
        return self.stimulus.iter_changes()

    @property
    def horizon(self) -> float:
        return self.stimulus.horizon

    def __repr__(self) -> str:
        return "FaultedStimulus(%s)" % self.fault.describe()


class FaultInjection:
    """Apply one fault to a netlist's shared structures; restore exactly.

    Usage is always paired (``apply`` … ``restore``), normally through
    :func:`run_faulted_stimulus` or the ``patched_lowering`` test
    fixture, both of which restore in a ``finally``.  The handle
    snapshots original objects on ``apply()`` — the cell dataclass, the
    lowering's table list, function entry and arc tuples — so restore
    is plain reassignment, immune to whatever the patch did.
    """

    def __init__(self, netlist: Netlist, fault: FaultSpec):
        self.netlist = netlist
        self.fault = fault
        self.applied = False
        self._saved_cell: Optional[CellSpec] = None
        self._saved_table: Optional[List[int]] = None
        self._saved_function: Optional[GateFunctionLike] = None
        self._saved_arcs: List[Tuple[int, _Arc, _Arc]] = []

    # -- lifecycle -----------------------------------------------------

    def __enter__(self) -> FaultInjection:
        self.apply()
        return self

    def __exit__(self, *_exc_info: object) -> None:
        self.restore()

    def _driver(self) -> Gate:
        net = self.netlist.nets.get(self.fault.net)
        if net is None:
            raise FaultError(
                "cannot inject into unknown net %r (circuit %s)"
                % (self.fault.net, self.netlist.name)
            )
        if net.driver is None:
            raise FaultError(
                "cannot inject into undriven net %r — primary inputs and "
                "constants have no gate to corrupt" % self.fault.net
            )
        return net.driver

    def apply(self) -> None:
        """Patch cells + lowering in place (idempotence guarded)."""
        if self.applied:
            raise FaultError("fault %s is already applied" % self.fault.describe())
        kind = self.fault.kind
        if kind in (FaultKind.NONE, FaultKind.SET_PULSE):
            # NONE is the identity mutant; SET pulses inject at run time
            # (see _run_with_pulse) — neither touches the lowering.
            self.applied = True
            return
        gate = self._driver()
        compiled = self.netlist.compile()
        index = gate.index
        if kind is FaultKind.DELAY_DRIFT:
            factor = self.fault.factor
            self._saved_cell = gate.cell
            gate.cell = dataclasses.replace(
                gate.cell,
                arcs={key: arc.scaled(factor) for key, arc in gate.cell.arcs.items()},
            )
            c_load = compiled.net_load[gate.output.index]
            for gate_input in gate.inputs:
                uid = gate_input.uid
                rise = compiled.arc_rise[uid]
                fall = compiled.arc_fall[uid]
                self._saved_arcs.append((uid, rise, fall))
                # Re-folded from the scaled cell arcs, so the delays
                # round exactly as the reference engine's do.
                compiled.arc_rise[uid] = compiled.fold_arc(
                    gate.cell.arc(gate_input.index, True), c_load
                )
                compiled.arc_fall[uid] = compiled.fold_arc(
                    gate.cell.arc(gate_input.index, False), c_load
                )
        else:
            arity = len(gate.inputs)
            table = compiled.gate_tables[index]
            if table is None:
                raise FaultError(
                    "cannot inject %s: gate %r is too wide to table-patch "
                    "(%d inputs)" % (kind.value, gate.name, arity)
                )
            if kind is FaultKind.STUCK_AT_0:
                mutated = [0] * len(table)
            elif kind is FaultKind.STUCK_AT_1:
                mutated = [1] * len(table)
            else:  # BIT_FLIP
                mutated = [1 - value for value in table]
            stand_in = TableFunction(
                "%s:%s" % (kind.value, gate.cell.function.name), mutated
            )
            self._saved_cell = gate.cell
            self._saved_table = table
            self._saved_function = compiled.gate_functions[index]
            gate.cell = dataclasses.replace(gate.cell, function=stand_in)
            compiled.gate_tables[index] = mutated
            compiled.gate_functions[index] = stand_in
        compiled.refresh_numpy_cache()
        self.applied = True

    def restore(self) -> None:
        """Reverse :meth:`apply` exactly (no-op when never applied)."""
        if not self.applied:
            return
        if LEAK_RESTORES:
            # Teeth seam: pretend the restore happened.  The fingerprint
            # property and the cross-engine parity suites must catch the
            # leaked patch — that is the point of the seam.
            self.applied = False
            return
        kind = self.fault.kind
        if kind in (FaultKind.NONE, FaultKind.SET_PULSE):
            self.applied = False
            return
        gate = self._driver()
        compiled = self.netlist.compile()
        if self._saved_cell is not None:
            gate.cell = self._saved_cell
        if self._saved_table is not None and self._saved_function is not None:
            compiled.gate_tables[gate.index] = self._saved_table
            compiled.gate_functions[gate.index] = self._saved_function
            self._saved_table = None
            self._saved_function = None
        for uid, rise, fall in self._saved_arcs:
            compiled.arc_rise[uid] = rise
            compiled.arc_fall[uid] = fall
        self._saved_arcs = []
        self._saved_cell = None
        compiled.refresh_numpy_cache()
        self.applied = False


def run_faulted_stimulus(
    simulator: EngineBase,
    faulted: FaultedStimulus,
    settle: float = 0.0,
    seed: Optional[Mapping[str, int]] = None,
) -> SimulationResult:
    """Inject, run the base stimulus, restore — the faulted counterpart
    of :func:`repro.core.engine.run_stimulus` (which dispatches here).

    The STA oracle is suspended for the faulted run: a mutant's
    waveforms legitimately escape the *healthy* circuit's static
    envelope — that escape is often exactly the detection signal — so
    ``OracleError`` would be a false alarm, not a bug report.  The flag
    is restored with the lowering in the same ``finally``.
    """
    injection = FaultInjection(simulator.netlist, faulted.fault)
    config = simulator.config
    saved_check = config.check_sta_bounds
    injection.apply()
    config.check_sta_bounds = False
    try:
        if faulted.fault.kind is FaultKind.SET_PULSE:
            result = _run_with_pulse(
                simulator, faulted.stimulus, faulted.fault, settle, seed
            )
        else:
            result = run_stimulus(
                simulator, faulted.stimulus, settle=settle, seed=seed
            )
    finally:
        config.check_sta_bounds = saved_check
        injection.restore()
    return result


def _run_with_pulse(
    simulator: EngineBase,
    stimulus: VectorSequence,
    fault: FaultSpec,
    settle: float,
    seed: Optional[Mapping[str, int]],
) -> SimulationResult:
    """The run_stimulus loop with a SET pulse spliced into the timeline
    (see :func:`play`)."""
    simulator.stats = SimulationStatistics()
    simulator.initialize(stimulus.initial_values(simulator.netlist), seed=seed)
    play(simulator, stimulus, settle, fault)
    return SimulationResult(
        traces=simulator.traces,
        stats=simulator.stats,
        final_values=simulator.values(),
        simulator=simulator,
    )


def play(
    simulator: EngineBase,
    stimulus: VectorSequence,
    settle: float,
    fault: Optional[FaultSpec] = None,
    apply_stimulus: bool = True,
    timer: Optional[PhaseTimer] = None,
) -> None:
    """Play ``stimulus`` on an initialised engine: every change, then
    settle past the horizon and drain, as
    :func:`repro.core.engine.run_stimulus` does.

    When ``fault`` is a SET pulse, at ``fault.time`` the target net's
    committed value is read and the complement is broadcast to the
    net's fanouts as an ordinary ramp; ``fault.width`` later the
    original value is broadcast back.  The driving gate keeps its state
    — only the receivers see the pulse — so downstream survival is
    decided entirely by the inertial filter and the degradation model,
    which is the HALOTIS-specific point of SET campaigns.  A pulse at a
    change instant fires before the change is applied.

    A cone run (:mod:`repro.faults.differential`) passes
    ``apply_stimulus=False``: its queue already holds every stimulus
    event its gates see.
    """
    if timer is None:
        timer = PhaseTimer(enabled=False)
    pulses: List[Tuple[float, bool]] = []
    held: List[int] = []  # the net's value when the pulse starts
    if fault is not None and fault.kind is FaultKind.SET_PULSE:
        pulses = [(fault.time, False), (fault.time + fault.width, True)]
        net = simulator.netlist.net(fault.net)
        slew = min(simulator.config.default_input_slew, fault.width)

    def fire(at_time: float, restore: bool) -> None:
        if not restore:
            held.append(simulator.value(net.name))
        value = held[0] if restore else 1 - held[0]
        simulator._broadcast_pulse(
            Transition(
                t50=at_time, duration=slew, rising=value == 1,
                net_name=net.name,
            ),
            net,
        )

    with timer.phase("stimulus"):
        for at_time, assignments, change_slew in stimulus.iter_changes():
            while pulses and pulses[0][0] <= at_time:
                pulse_time, restore = pulses.pop(0)
                simulator.run(until=pulse_time)
                fire(pulse_time, restore)
            simulator.run(until=at_time)
            if apply_stimulus:
                simulator.apply_word(assignments, at_time, change_slew)
        for pulse_time, restore in pulses:
            simulator.run(until=pulse_time)
            fire(pulse_time, restore)
    with timer.phase("settle"):
        simulator.run(until=stimulus.horizon + settle)
    with timer.phase("drain"):
        simulator.run()
