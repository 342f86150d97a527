"""The HALOTIS simulation kernel (paper section 3, Figure 4).

The kernel is an event-driven loop over *threshold-crossing events*:

1. pop the earliest event from the queue;
2. commit the new logic value at the event's gate input and evaluate the
   gate; if the output value changes,
3. compute the output transition with the configured delay model (DDM or
   CDM) — this is the "calculate the output transition using DDM" box of
   Figure 4;
4. for every gate input in the output net's fanout, compute the event
   ``Ej`` where the new transition crosses that input's threshold and
   apply the inertial rule against the input's previous event ``Ej-1``:
   insert ``Ej`` if it comes after ``Ej-1``, otherwise annihilate
   ``Ej-1`` (the pulse never crossed that input's threshold).

Primary-input stimuli enter through exactly the same broadcast path, so a
runt pulse applied at a primary input is filtered per-input like any
internally generated glitch.

Two kernels implement this algorithm, both on :class:`EngineBase`
(lifecycle, stimulus, inspection and the :func:`simulate` facade):

* ``"reference"`` — :class:`HalotisSimulator`, the readable object-graph
  kernel below, walking ``Netlist``/``Gate``/``GateInput`` objects;
* ``"compiled"`` — :class:`repro.core.compiled.CompiledSimulator`, an
  array-lowered kernel whose hot path touches only integers and floats.

One more registered kind subclasses the compiled engine and adds a
lockstep batch kernel (see ``lockstep_batches``); a single stimulus
runs on the compiled kernel:

* ``"bitparallel"`` — :class:`repro.core.bitparallel.BitParallelSimulator`,
  a word-level kernel packing one stimulus per *bit* of a lane word
  (requires numpy; logic-exact with CDM-grade timing, and CDM for
  single stimuli — see ``docs/architecture.md`` for the declared
  accuracy tiers).

(``"vector"`` is a kept alias of ``"compiled"``; see
:class:`repro.core.compiled.VectorSimulator`.)

The two kernels are property-tested to produce bit-identical traces and
statistics; bit-parallel lanes are property-tested to produce
bit-identical per-lane logic values.
"""

from __future__ import annotations

import abc
import contextlib
import dataclasses
import operator
import time as _time
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Type,
)

from ..circuit.logic import evaluate as evaluate_function
from ..circuit.netlist import Net, Netlist
from ..config import DelayMode, SimulationConfig
from ..errors import SimulationError, SimulationLimitError, StimulusError
from ..obs.registry import get_registry
from . import inertial
from .cdm import ConventionalDelayModel
from .ddm import DegradationDelayModel
from .delay_model import DelayModel, DelayRequest
from .event_queue import BinaryHeapQueue
from .events import Event
from .state import KernelState, build_state
from .stats import SimulationStatistics
from .trace import TraceSet
from .transition import Transition


@dataclasses.dataclass(frozen=True)
class FilteredEventRecord:
    """Debug record of one annihilation (kept when
    ``config.record_filtered`` is set)."""

    time_now: float
    gate_name: str
    pin_index: int
    net_name: str
    previous_event_time: float
    new_event_time: float


# ----------------------------------------------------------------------
# engine registry
# ----------------------------------------------------------------------

#: Registry of simulation backends.  Keys are the values accepted by
#: ``SimulationConfig.engine_kind``, ``simulate()`` and the CLI's
#: ``--engine`` option.
ENGINE_KINDS: Dict[str, Type[EngineBase]] = {}


def register_engine(kind: str) -> Callable[[type], type]:
    """Class decorator adding a backend to :data:`ENGINE_KINDS`."""

    def decorator(cls: type) -> type:
        cls.kind = kind
        ENGINE_KINDS[kind] = cls
        return cls

    return decorator


def _ensure_backends_registered() -> None:
    # The compiled/bitparallel backends live in their own modules
    # (they import EngineBase from here); importing them lazily avoids a
    # circular import while guaranteeing the registry is complete
    # whenever it is consulted.  The numpy-backed backends register even
    # when numpy is absent, so "unknown engine kind" errors list them
    # and the availability failure stays a clear, actionable one.
    from . import bitparallel  # noqa: F401
    from . import compiled  # noqa: F401


def resolve_engine_class(engine_kind: str) -> Type[EngineBase]:
    """Look a backend up in the registry, with the canonical error.

    The single home of the unknown-kind message — :func:`make_engine`,
    the simulation service and the server registry all resolve through
    here, so the message (and the registered-kind list in it) cannot
    drift between layers.
    """
    _ensure_backends_registered()
    try:
        return ENGINE_KINDS[engine_kind]
    except KeyError:
        raise SimulationError(
            "unknown engine kind %r (choose from %s)"
            % (engine_kind, sorted(ENGINE_KINDS))
        ) from None


def make_engine(
    netlist: Netlist,
    config: Optional[SimulationConfig] = None,
    engine_kind: Optional[str] = None,
) -> EngineBase:
    """Instantiate a simulation backend by name.

    ``engine_kind=None`` defers to ``config.engine_kind`` (and to
    ``"reference"`` when no config is given).
    """
    if engine_kind is None:
        engine_kind = config.engine_kind if config is not None else "reference"
    factory = resolve_engine_class(engine_kind)
    factory.ensure_available()
    return factory(netlist, config=config)


# ----------------------------------------------------------------------
# shared engine machinery
# ----------------------------------------------------------------------

class EngineBase(abc.ABC):
    """Lifecycle, stimulus, run/step entry points and inspection shared
    by every backend.

    A backend provides four hooks: ``_build_state`` (DC-initialise its
    internal representation), ``_pi_value``/``_commit_pi_value`` (primary
    input bookkeeping) and ``_advance``, its kernel loop: fan source
    transitions out, then pop and execute events.  Everything else —
    input validation, trace plumbing, values/word inspection — lives
    here, so the backends cannot drift apart behaviourally.
    """

    #: registry key, set by :func:`register_engine`.
    kind: str = "abstract"

    #: True for backends that run over a ``Netlist.compile()`` lowering;
    #: batch drivers use this to pay the lowering once up front (and to
    #: ship it to shard workers) without hard-coding backend names.
    lowers_netlist: bool = False

    #: True for backends that can advance a whole batch in lockstep
    #: through one kernel; :func:`repro.core.batch.run_chunk` routes a
    #: fault-free chunk to their ``run_lockstep_batch`` class method
    #: (which runs its own STA-oracle pass) instead of replaying
    #: vectors one by one.
    lockstep_batches: bool = False

    #: One-line description shown in the CLI's ``--engine`` help; the
    #: option's choices *and* text come from the registry, so a newly
    #: registered backend appears in both with no CLI edit.
    cli_blurb: str = ""

    @classmethod
    def ensure_available(cls) -> None:
        """Raise :class:`SimulationError` when the backend's optional
        dependencies are missing (default: always available).

        Called by :func:`make_engine`, the simulation service and the
        server registry so a doomed selection fails at configuration
        time with an actionable message, never mid-simulation.
        """

    def __init__(
        self,
        netlist: Netlist,
        config: Optional[SimulationConfig] = None,
    ):
        self.netlist = netlist
        self.config = config if config is not None else SimulationConfig()
        self.config.validate()
        self.vdd = netlist.vdd
        self.queue = self._new_queue()
        self.stats = SimulationStatistics()
        self.traces = TraceSet(self.vdd)
        self.filtered_log: list[FilteredEventRecord] = []
        self.now = 0.0
        self._seq = 0
        self._ready = False
        #: the open chunk's tally (:func:`chunk_tally`); None publishes
        #: each run's metrics on its own.
        self.tally: Optional[RunTally] = None

    # -- hooks ---------------------------------------------------------

    def _new_queue(self):
        """Build the event queue the shared run/step loops drive."""
        return BinaryHeapQueue()

    @abc.abstractmethod
    def _build_state(
        self,
        input_values: Dict[str, int],
        seed: Optional[Dict[str, int]],
    ) -> None:
        """DC-initialise backend state (committed values become the DC
        solution)."""

    @abc.abstractmethod
    def _pi_value(self, net: Net) -> int:
        """Currently driven value of primary input ``net``."""

    @abc.abstractmethod
    def _commit_pi_value(self, net: Net, value: int) -> None:
        """Record that primary input ``net`` is now driven to ``value``."""

    @abc.abstractmethod
    def _advance(
        self,
        until: Optional[float],
        steps: Optional[int],
        sources: Sequence[Tuple[Transition, Net]] = (),
    ):
        """The kernel loop.  Fan each source transition out to its net's
        fanout inputs, then execute events in queue order up to and
        including ``until`` (all if None), at most ``steps`` of them (no
        bound if None).  Returns the last event executed, or None."""

    def _count_toggle(self, net: Net) -> None:
        """Record one emitted/source transition on ``net`` for the
        switching-activity statistics."""
        self.stats.count_toggle(net.name)

    def _after_run(self) -> None:
        """Backend hook invoked after every ``run()``/``step()``."""

    # -- lifecycle -----------------------------------------------------

    def initialize(
        self,
        input_values: Mapping[str, int],
        seed: Optional[Mapping[str, int]] = None,
        start_time: float = 0.0,
    ) -> None:
        """DC-initialise the circuit and reset all dynamic state.

        ``input_values`` must cover every primary input; ``seed`` provides
        starting guesses for feedback circuits (see
        :mod:`repro.circuit.evaluate`).
        """
        self._build_state(dict(input_values), dict(seed) if seed else None)
        self.queue.clear()
        self.stats.reset()
        self.filtered_log = []
        self.now = start_time
        self._seq = 0
        self._ready = True
        if self.config.record_traces:
            names, initial, index = self._trace_layout()
            self.traces = TraceSet.from_rows(
                self.vdd, names, initial, index=index
            )
        else:
            self.traces = TraceSet(self.vdd)
        self._after_initialize()

    def _trace_layout(
        self,
    ) -> Tuple[List[str], List[int], Optional[Dict[str, int]]]:
        """``(names, dc_row, index)`` of the traces a run records.

        Names are in ``netlist.nets`` order and ``dc_row`` holds each
        net's committed value right after DC initialisation.  ``index``
        (name -> position) may be None; a backend that caches its layout
        returns the same ``names``/``index`` objects every run.
        """
        values = self.values()
        return list(values), list(values.values()), None

    def _after_initialize(self) -> None:
        """Backend hook invoked once traces exist (bind fast paths)."""

    @property
    def initialized(self) -> bool:
        return self._ready

    def _require_ready(self) -> None:
        if not self._ready:
            raise SimulationError("call initialize() before simulating")

    # -- stimulus ------------------------------------------------------

    def set_input(
        self,
        name: str,
        value: int,
        at_time: float,
        slew: Optional[float] = None,
    ) -> Optional[Transition]:
        """Drive primary input ``name`` to ``value`` with a ramp starting
        at ``at_time``.

        Returns the source transition, or None when the input already
        holds ``value`` (no transition needed).
        """
        source = self._drive(name, value, at_time, slew)
        if source is None:
            return None
        self._advance(None, 0, (source,))
        return source[0]

    def apply_word(
        self,
        assignments: Mapping[str, int],
        at_time: float,
        slew: Optional[float] = None,
    ) -> int:
        """Drive several inputs at once; returns how many actually toggled.

        The inputs are driven in name order and their transitions enter
        the kernel loop together, in that order."""
        sources: List[Tuple[Transition, Net]] = []
        try:
            for name in sorted(assignments):
                source = self._drive(name, assignments[name], at_time, slew)
                if source is not None:
                    sources.append(source)
        finally:
            # An invalid name still leaves the inputs before it driven.
            if sources:
                self._advance(None, 0, sources)
        return len(sources)

    def _drive(
        self,
        name: str,
        value: int,
        at_time: float,
        slew: Optional[float],
    ) -> Optional[Tuple[Transition, Net]]:
        """Validate and commit one input change; return its source
        transition and net, or None when the input already holds
        ``value``.  The caller fans the transition out."""
        self._require_ready()
        net = self.netlist.net(name)
        if not net.is_primary_input:
            raise StimulusError("%r is not a primary input" % name)
        if value not in (0, 1):
            raise StimulusError("input value must be 0 or 1, got %r" % (value,))
        if at_time < self.now:
            raise StimulusError(
                "cannot drive input at %.4f ns: simulation time is %.4f ns"
                % (at_time, self.now)
            )
        if self._pi_value(net) == value:
            return None
        if slew is None:
            slew = self.config.default_input_slew
        if slew <= 0.0:
            raise StimulusError("input slew must be positive")

        transition = Transition(
            t50=at_time + 0.5 * slew,
            duration=slew,
            rising=(value == 1),
            net_name=name,
            cause_time=at_time,
        )
        self._commit_pi_value(net, value)
        self.stats.source_transitions += 1
        self._count_toggle(net)
        if self.config.record_traces:
            self.traces[name].append(transition)
        return transition, net

    # -- the kernel loop -----------------------------------------------

    def run(self, until: Optional[float] = None) -> SimulationStatistics:
        """Process events (up to and including ``until``; all if None)."""
        self._run(until)
        self._after_run()
        return self.stats

    def _run(self, until: Optional[float]) -> None:
        """:meth:`run` without the ``_after_run`` hook.  :func:`play`
        steps through a stimulus with it and lets only its final drain
        call :meth:`run`, so a backend builds its by-name statistics
        (``stats.net_toggles``) once per stimulus, not once per step."""
        self._require_ready()
        wall_start = _time.perf_counter()
        self._advance(until, None)
        if until is not None and until > self.now:
            self.now = until
        self.traces.horizon = max(self.traces.horizon, self.now)
        self.stats.runtime_seconds += _time.perf_counter() - wall_start

    def step(self):
        """Execute a single event; returns it (None when queue empty).

        The concrete event type is backend-specific (an :class:`Event`
        for the reference backend, an entry list for the compiled one).
        """
        self._require_ready()
        event = self._advance(None, 1)
        if event is None:
            return None
        self.traces.horizon = max(self.traces.horizon, self.now)
        self._after_run()
        return event

    # -- inspection ----------------------------------------------------

    @abc.abstractmethod
    def value(self, net_name: str) -> int:
        """Committed logic value of a net at the current time."""

    def values(self) -> Dict[str, int]:
        """Committed logic values of every net."""
        return {name: self.value(name) for name in self.netlist.nets}

    def word(self, prefix: str, width: int) -> int:
        """Integer value of output bus ``prefix0..prefix{w-1}``."""
        word = 0
        for bit in range(width):
            word |= self.value("%s%d" % (prefix, bit)) << bit
        return word


# ----------------------------------------------------------------------
# the reference backend
# ----------------------------------------------------------------------

@register_engine("reference")
class HalotisSimulator(EngineBase):
    """Event-driven logic timing simulator with the IDDM.

    Typical use::

        simulator = HalotisSimulator(netlist, config=ddm_config())
        simulator.initialize({"a0": 0, ...})
        simulator.set_input("a0", 1, at_time=5.0)
        simulator.run(until=10.0)
        simulator.traces["s3"].edges()

    Args:
        netlist: the circuit (shared, never mutated).
        config: engine knobs; the default is HALOTIS-DDM.
        delay_model: explicit delay model; overrides ``config.delay_mode``
            when given (used by delay-model unit tests).
    """

    cli_blurb = "readable object-graph kernel, the default"

    def __init__(
        self,
        netlist: Netlist,
        config: Optional[SimulationConfig] = None,
        delay_model: Optional[DelayModel] = None,
    ):
        super().__init__(netlist, config=config)
        if delay_model is not None:
            self.delay_model = delay_model
        elif self.config.delay_mode is DelayMode.DDM:
            self.delay_model = DegradationDelayModel(self.config.min_delay)
        else:
            self.delay_model = ConventionalDelayModel(self.config.min_delay)

        self._vt_fraction: Dict[int, float] = {}
        self._net_load: Dict[str, float] = {}
        self._loads_version: Optional[int] = None
        self._state: Optional[KernelState] = None

    def _sync_loads(self) -> None:
        """Per-input threshold fractions and per-net capacitive loads
        (both invariant during a run), rebuilt whenever the netlist's
        structure version has moved since they were built — a
        structural edit, or ``Netlist.invalidate_lowering()`` after a
        direct ``wire_cap``/``vt`` edit — as the compiled engine rebinds
        to a replaced lowering."""
        version = self.netlist._structure_version
        if version == self._loads_version:
            return
        self._vt_fraction = {
            gate_input.uid: gate_input.vt / self.vdd
            for gate_input in self.netlist.iter_gate_inputs()
        }
        self._net_load = {
            net.name: net.load() for net in self.netlist.nets.values()
        }
        self._loads_version = version

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def _build_state(
        self,
        input_values: Dict[str, int],
        seed: Optional[Dict[str, int]],
    ) -> None:
        self._sync_loads()
        self._state = build_state(self.netlist, input_values, seed=seed)

    def _require_state(self) -> KernelState:
        if self._state is None:
            raise SimulationError("call initialize() before simulating")
        return self._state

    # ------------------------------------------------------------------
    # stimulus hooks
    # ------------------------------------------------------------------

    def _pi_value(self, net: Net) -> int:
        return self._require_state().pi_values[net.name]

    def _commit_pi_value(self, net: Net, value: int) -> None:
        self._require_state().pi_values[net.name] = value

    # ------------------------------------------------------------------
    # event execution
    # ------------------------------------------------------------------

    def _advance(
        self,
        until: Optional[float],
        steps: Optional[int],
        sources: Sequence[Tuple[Transition, Net]] = (),
    ) -> Optional[Event]:
        for transition, net in sources:
            self._broadcast(transition, net)
        queue = self.queue
        event = None
        while steps is None or steps > 0:
            next_time = queue.peek_time()
            if next_time is None or (until is not None and next_time > until):
                break
            event = queue.pop()
            self._execute(event)
            if steps is not None:
                steps -= 1
        return event

    def _execute(self, event: Event) -> None:
        if self.stats.events_executed >= self.config.max_events:
            raise SimulationLimitError(
                "event budget (%d) exhausted at t=%.4f ns — zero-delay "
                "oscillation?" % (self.config.max_events, self.now)
            )
        state = self._require_state()
        event.executed = True
        self.now = event.time
        self.stats.events_executed += 1

        gate_input = event.gate_input
        gate = gate_input.gate
        gate_state = state.gate_states[gate.index]
        if gate_state.input_values[gate_input.index] == event.value:
            # Defensive: alternation normally guarantees a change here.
            return
        gate_state.input_values[gate_input.index] = event.value

        output_value = evaluate_function(gate.cell.function, gate_state.input_values)
        if output_value == gate_state.output_value:
            return
        gate_state.output_value = output_value

        arc = gate.cell.arc(gate_input.index, rising=(output_value == 1))
        request = DelayRequest(
            arc=arc,
            c_load=self._net_load[gate.output.name],
            tau_in=event.transition.duration,
            vdd=self.vdd,
            t_event=event.time,
            t_last_output=gate_state.last_output_t50,
        )
        result = self.delay_model.compute(request)

        transition = Transition(
            t50=event.time + result.tp,
            duration=result.tau_out,
            rising=(output_value == 1),
            net_name=gate.output.name,
            degradation_factor=result.degradation_factor,
            cause_time=event.time,
        )
        gate_state.last_output_t50 = transition.t50
        self.stats.transitions_emitted += 1
        self.stats.count_toggle(gate.output.name)
        if result.degradation_factor < 1.0:
            self.stats.transitions_degraded += 1
        if result.fully_degraded:
            self.stats.transitions_fully_degraded += 1
        if self.config.record_traces:
            self.traces[gate.output.name].append(transition)
        self._broadcast(transition, gate.output)

    # ------------------------------------------------------------------
    # event generation + the inertial rule (paper Figure 4, inner loop)
    # ------------------------------------------------------------------

    def _broadcast(self, transition: Transition, net: Net) -> None:
        state = self._require_state()
        resolution = self.config.time_resolution
        for gate_input in net.fanouts:
            crossing = transition.crossing_time(self._vt_fraction[gate_input.uid])
            stack = state.input_event_stacks[gate_input.uid]
            previous = stack[-1] if stack else None

            if previous is not None and not previous.executed:
                decision = inertial.decide(
                    self.config.inertial_policy,
                    crossing,
                    previous,
                    transition,
                    self._vt_fraction[gate_input.uid],
                    resolution,
                )
                if decision.annihilate:
                    self.queue.cancel(previous)
                    stack.pop()
                    self.stats.events_filtered += 1
                    if self.config.record_filtered:
                        self.filtered_log.append(
                            FilteredEventRecord(
                                time_now=self.now,
                                gate_name=gate_input.gate.name,
                                pin_index=gate_input.index,
                                net_name=net.name,
                                previous_event_time=previous.time,
                                new_event_time=crossing,
                            )
                        )
                    continue
                event_time = decision.event_time
            else:
                event_time = crossing
                if previous is not None and crossing <= previous.time:
                    # The predecessor already executed; we cannot unwind
                    # the past, so the restoring event runs immediately.
                    self.stats.late_events += 1
                    event_time = max(crossing, self.now)
                elif crossing < self.now:
                    self.stats.late_events += 1
                    event_time = self.now

            self._seq += 1
            event = Event(
                time=event_time,
                seq=self._seq,
                gate_input=gate_input,
                transition=transition,
                value=transition.final_value,
            )
            self.queue.push(event)
            stack.append(event)
            self.stats.events_scheduled += 1

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------

    def value(self, net_name: str) -> int:
        """Committed logic value of a net at the current time."""
        state = self._require_state()
        net = self.netlist.net(net_name)
        if net.is_constant:
            return net.constant_value
        if net.is_primary_input:
            return state.pi_values[net_name]
        if net.driver is None:
            raise SimulationError("net %r has no driver" % net_name)
        return state.gate_states[net.driver.index].output_value


# ----------------------------------------------------------------------
# one-call convenience
# ----------------------------------------------------------------------

@dataclasses.dataclass
class SimulationResult:
    """Bundle returned by :func:`simulate` (and, per vector, by
    :func:`repro.core.batch.simulate_batch`).

    ``simulator`` is the engine the run executed on.  Batched runs reuse
    one engine across vectors, so there it reflects the *last* vector's
    final state; process-sharded batch results carry ``None`` (the
    worker's engine cannot cross the process boundary), and so do
    lockstep batches (``engine_kind="bitparallel"``) — the word kernel
    has no per-vector engine to expose.
    """

    traces: TraceSet
    stats: SimulationStatistics
    final_values: Dict[str, int]
    simulator: Optional[EngineBase]
    #: the run's clock stamps (:func:`run_stamps`), set by
    #: :func:`finish_run` when the run published metrics
    #: (``config.collect_metrics`` and the process metrics registry
    #: on); None otherwise.
    stamps: Optional[List[float]] = None

    @property
    def metrics(self) -> Optional[Dict[str, object]]:
        """The run's observability summary — ``engine``,
        ``wall_seconds``, ``phases`` (seconds per :data:`RUN_PHASES`)
        and ``counters`` (the published statistics counters) — built
        from its stamps when read; None when the run published no
        metrics or the result left its engine.

        Deliberately NOT part of SimulationStatistics: the parity suites
        compare statistics field by field across engines and transports,
        and wall-clock phase data is not bit-reproducible.
        """
        stamps = self.stamps
        if stamps is None or self.simulator is None:
            return None
        return {
            "engine": self.simulator.kind,
            "wall_seconds": stamps[-1] - stamps[0],
            "phases": dict(
                zip(RUN_PHASES, map(operator.sub, stamps[1:], stamps))
            ),
            "counters": dict(zip(_COUNTER_FIELDS, _counts_of(self.stats))),
        }


# ----------------------------------------------------------------------
# engine observability (docs/observability.md)
# ----------------------------------------------------------------------
#
# Publication happens once per chunk of runs (or once per lockstep
# batch), never per event: the counters below are derived from the
# counters the kernels already maintain, so the hot path is untouched,
# and a run only leaves its statistics and clock stamps in its chunk's
# tally ("instrumented within 5% of uninstrumented":
# benchmarks/test_obs_overhead.py).

#: SimulationStatistics field -> (metric name, help).  One counter per
#: kernel statistic, labelled by engine kind.
_ENGINE_COUNTERS: Tuple[Tuple[str, str, str], ...] = (
    ("events_executed", "halotis_engine_events_executed_total",
     "Events popped and executed by the kernel."),
    ("events_scheduled", "halotis_engine_events_scheduled_total",
     "Events inserted into the queue (including later-cancelled ones)."),
    ("events_filtered", "halotis_engine_events_filtered_total",
     "Inertial-rule annihilations (one filtered runt pulse each)."),
    ("late_events", "halotis_engine_late_events_total",
     "Events rescheduled to the current time (predecessor already ran)."),
    ("transitions_emitted", "halotis_engine_transitions_total",
     "Output transitions emitted by gates."),
    ("source_transitions", "halotis_engine_source_transitions_total",
     "Stimulus transitions applied to primary inputs."),
    ("transitions_degraded", "halotis_engine_transitions_degraded_total",
     "Transitions whose degradation factor was < 1 (DDM eq. 1)."),
    ("transitions_fully_degraded",
     "halotis_engine_transitions_fully_degraded_total",
     "Transitions emitted at min_delay because eq. 1 gave tp <= 0."),
)

#: The phases of one run, in order.
RUN_PHASES = ("initialize", "stimulus", "settle", "drain")

#: Clock stamps per run (:func:`run_stamps`): its start, the end of
#: each phase and the end of its result build.
_STAMPS = len(RUN_PHASES) + 2

#: The SimulationStatistics fields published as counters, and a getter
#: of their values as a tuple.
_COUNTER_FIELDS = tuple(field for field, _name, _help in _ENGINE_COUNTERS)
_counts_of = operator.attrgetter(*_COUNTER_FIELDS)


def publish_engine_metrics(
    engine_kind: str,
    counts: Mapping[str, int],
    runs: int,
    run_seconds: Sequence[float],
    phases: Mapping[str, Sequence[float]],
    waves: Optional[Tuple[int, int]] = None,
    registry=None,
) -> None:
    """Publish the engine counters of some runs (or of one lockstep
    batch).

    ``counts`` maps :class:`SimulationStatistics` field names to totals
    over the ``runs``; ``run_seconds`` and each of ``phases``' lists
    hold one observation per run (a lockstep batch observes one for
    the whole batch); ``waves`` is the ``(waves, lanes)`` pair of a
    lockstep kernel.  The caller is responsible for the enabled check
    — this function always publishes.  Shared by :class:`RunTally` and
    the bit-parallel lockstep driver so the metric names cannot drift.
    """
    if registry is None:
        registry = get_registry()
    registry.counter(
        "halotis_engine_runs_total",
        "Completed stimulus runs (lockstep batches count one per lane).",
        ("engine",),
    ).inc(runs, engine=engine_kind)
    for field, name, help_text in _ENGINE_COUNTERS:
        value = counts.get(field, 0)
        if value:
            # Names come from the _ENGINE_COUNTERS literal table above;
            # the doc drift guard covers them there.
            registry.counter(name, help_text, ("engine",)).inc(  # halolint: allow(HL003)
                value, engine=engine_kind
            )
    registry.histogram(
        "halotis_engine_run_seconds",
        "End-to-end wall time of one run (lockstep: whole batch).",
        ("engine",),
    ).observe_many(run_seconds, engine=engine_kind)
    histogram = registry.histogram(
        "halotis_engine_phase_seconds",
        "Per-simulate() phase wall time "
        "(initialize/stimulus/settle/drain; lockstep for batches).",
        ("engine", "phase"),
    )
    for phase, seconds in phases.items():
        histogram.observe_many(seconds, engine=engine_kind, phase=phase)
    if waves is not None:
        registry.counter(
            "halotis_lockstep_waves_total",
            "Vectorised execution steps taken by lockstep kernels.",
            ("engine",),
        ).inc(waves[0], engine=engine_kind)
        registry.counter(
            "halotis_lockstep_lanes_total",
            "Per-lane events carried by those waves.",
            ("engine",),
        ).inc(waves[1], engine=engine_kind)


class RunTally:
    """The engine metrics of a chunk's runs, published at once.

    :func:`finish_run` adds each run's counters and clock stamps, each
    back to back in one flat list, read while they are still in cache;
    :meth:`flush` publishes what per-run publication would — the same
    counter totals, one run-time and one phase-time observation per
    run — in one registry update per series.
    """

    __slots__ = ("kind", "counts", "stamps")

    def __init__(self, kind: str):
        self.kind = kind
        self.counts: List[int] = []
        self.stamps: List[float] = []

    def flush(self) -> None:
        """Publish the runs added since the last flush, if any."""
        counts, stamps = self.counts, self.stamps
        if not stamps:
            return
        self.counts, self.stamps = [], []
        width = len(_COUNTER_FIELDS)
        # ends[i]: every run's i-th stamp
        ends = [stamps[at::_STAMPS] for at in range(_STAMPS)]
        publish_engine_metrics(
            self.kind,
            {field: sum(counts[at::width])
             for at, field in enumerate(_COUNTER_FIELDS)},
            runs=len(ends[0]),
            run_seconds=list(map(operator.sub, ends[-1], ends[0])),
            phases={
                phase: list(map(operator.sub, end, begin))
                for phase, begin, end in zip(RUN_PHASES, ends, ends[1:])
            },
        )


def _collecting(config: SimulationConfig) -> bool:
    """Whether runs under ``config`` publish metrics:
    ``config.collect_metrics`` and the process registry on."""
    return config.collect_metrics and get_registry().enabled


@contextlib.contextmanager
def chunk_tally(engine: EngineBase) -> Iterator[None]:
    """Tally the metrics of the runs ``engine`` finishes inside the
    block and publish them once, when it exits, raising or not — the
    chunk runners' one publication.  Without a tally a run publishes
    its own metrics, as a chunk of one."""
    if not _collecting(engine.config):
        yield
        return
    outer, tally = engine.tally, RunTally(engine.kind)
    engine.tally = tally
    try:
        yield
    finally:
        engine.tally = outer
        tally.flush()


def run_stimulus(
    simulator: EngineBase,
    stimulus,
    settle: float = 0.0,
    seed: Optional[Mapping[str, int]] = None,
) -> SimulationResult:
    """Run one complete ``stimulus`` through ``simulator``.

    (Re-)initialises the engine from the stimulus' DC assignment, plays
    it (:func:`play`) and builds the result (:func:`finish_run`) — the
    run behind :func:`simulate`, exposed separately so batched runs
    (:func:`repro.core.batch.simulate_batch`) can push many stimuli
    through one reused engine.  The engine's statistics object is
    replaced (not reset) so every returned result owns its counters.

    A stimulus carrying a ``fault`` attribute (a
    :class:`repro.faults.inject.FaultedStimulus`) is routed through the
    fault-injection layer, which patches the lowering, replays the base
    stimulus through :func:`replay` and guarantees restoration — one
    hook here covers every execution path (simulate(), in-process
    batches, service workers).
    """
    if getattr(stimulus, "fault", None) is not None:
        from ..faults.inject import run_faulted_stimulus

        return run_faulted_stimulus(simulator, stimulus, settle=settle, seed=seed)
    return replay(simulator, stimulus, settle, seed)


def replay(
    simulator: EngineBase,
    stimulus,
    settle: float = 0.0,
    seed: Optional[Mapping[str, int]] = None,
    pulse: Optional[Tuple[str, float, float]] = None,
) -> SimulationResult:
    """:func:`run_stimulus` without the fault dispatch: initialise,
    :func:`play` (with ``pulse``, if any) and :func:`finish_run`."""
    stamps = run_stamps(simulator)
    simulator.stats = SimulationStatistics()
    simulator.initialize(
        stimulus.initial_values(simulator.netlist), seed=seed
    )
    play(simulator, stimulus, settle, pulse=pulse, stamps=stamps)
    return finish_run(simulator, stimulus, stamps)


def run_stamps(simulator: EngineBase) -> Optional[List[float]]:
    """The phase stamps of a run starting now, or None when it
    publishes no metrics (``config.collect_metrics`` or the process
    registry off).

    The run appends one ``perf_counter()`` stamp as each of
    :data:`RUN_PHASES` ends and one when its result is built: nothing
    per event, and nothing but the stamps per phase
    (benchmarks/test_obs_overhead.py gates it).
    """
    if simulator.tally is None and not _collecting(simulator.config):
        return None
    return [_time.perf_counter()]


def play(
    simulator: EngineBase,
    stimulus,
    settle: float,
    pulse: Optional[Tuple[str, float, float]] = None,
    apply_stimulus: bool = True,
    stamps: Optional[List[float]] = None,
) -> None:
    """Play ``stimulus`` on an initialised engine: every change, then
    settle past the horizon and drain the queue.  The one loop that
    replays a stimulus: plain and faulted runs, golden recordings and
    cone runs (:mod:`repro.faults.differential`) all come through here.

    ``pulse`` is a SET pulse ``(net, time, width)``: at ``time`` the
    net's committed value is read and the complement is broadcast to
    the net's fanouts as an ordinary ramp; ``width`` later the original
    value is broadcast back.  The driving gate keeps its state — only
    the receivers see the pulse — so downstream survival is decided
    entirely by the inertial filter and the degradation model, which is
    the HALOTIS-specific point of SET campaigns.  A pulse at a change
    instant fires before the change is applied.

    A cone run passes ``apply_stimulus=False``: its queue already holds
    every stimulus event its gates see.

    ``stamps`` (:func:`run_stamps`) gets one stamp as each phase ends:
    ``initialize`` (whatever ran since the run began) when play starts,
    then ``stimulus``, ``settle`` and ``drain``.
    """
    if stamps is not None:
        stamps.append(_time.perf_counter())
    edges: List[Tuple[float, bool]] = []
    held: List[int] = []  # the net's value when the pulse starts
    if pulse is not None:
        net_name, start, width = pulse
        net = simulator.netlist.net(net_name)
        slew = min(simulator.config.default_input_slew, width)
        edges = [(start, False), (start + width, True)]

    def fire(at_time: float, restore: bool) -> None:
        simulator._run(until=at_time)
        if not restore:
            held.append(simulator.value(net.name))
        value = held[0] if restore else 1 - held[0]
        pulse_edge = Transition(
            t50=at_time, duration=slew, rising=value == 1, net_name=net.name,
        )
        simulator._advance(None, 0, ((pulse_edge, net),))

    for at_time, assignments, change_slew in stimulus.iter_changes():
        while edges and edges[0][0] <= at_time:
            fire(*edges.pop(0))
        simulator._run(until=at_time)
        if apply_stimulus:
            simulator.apply_word(assignments, at_time, change_slew)
    for edge in edges:
        fire(*edge)
    if stamps is not None:
        stamps.append(_time.perf_counter())
    simulator._run(until=stimulus.horizon + settle)
    if stamps is not None:
        stamps.append(_time.perf_counter())
    # Drain any events scheduled past the horizon; the one run() call,
    # so the by-name statistics are built once per stimulus.
    simulator.run()
    if stamps is not None:
        stamps.append(_time.perf_counter())


def finish_run(
    simulator: EngineBase, stimulus, stamps: Optional[List[float]]
) -> SimulationResult:
    """The one epilogue of a run: the result of ``simulator``'s current
    state, its metrics and the STA oracle.

    With ``stamps`` (:func:`run_stamps`) the run's statistics and
    stamps are kept on the result (``result.metrics`` reads them) and
    added to the chunk's tally (``simulator.tally``), or published at
    once when no chunk is open.  The STA oracle
    (``config.check_sta_bounds``) runs only when no fault is active: a
    mutant's waveforms legitimately escape the *healthy* circuit's
    static envelope — that escape is often exactly the detection
    signal — so an ``OracleError`` would be a false alarm.
    """
    result = SimulationResult(
        traces=simulator.traces,
        stats=simulator.stats,
        final_values=simulator.values(),
        simulator=simulator,
    )
    if stamps is not None:
        stamps.append(_time.perf_counter())
        result.stamps = stamps
        tally = simulator.tally
        lone = tally is None  # a run outside a chunk: a chunk of one
        if lone:
            tally = RunTally(simulator.kind)
        tally.counts.extend(_counts_of(result.stats))
        tally.stamps.extend(stamps)
        if lone:
            tally.flush()
    config = simulator.config
    if config.check_sta_bounds and getattr(stimulus, "fault", None) is None:
        # Only the lockstep batch entry point needs its own oracle pass
        # (BitParallelSimulator.run_lockstep_batch).  Imported lazily:
        # analysis sits above core.
        from ..analysis.sta import verify_result

        verify_result(simulator.netlist, stimulus, result, config)
    return result


def simulate(
    netlist: Netlist,
    stimulus,
    config: Optional[SimulationConfig] = None,
    settle: float = 0.0,
    seed: Optional[Mapping[str, int]] = None,
    engine_kind: Optional[str] = None,
) -> SimulationResult:
    """Run a complete stimulus through a fresh simulator.

    ``stimulus`` follows the protocol of
    :class:`repro.stimuli.vectors.VectorSequence`: it provides
    ``initial_values(netlist)``, an ``iter_changes()`` iterator of
    ``(time, assignments, slew)`` triples, and a ``horizon`` attribute.
    ``settle`` extends the run past the stimulus horizon so the last
    vector's effects propagate out.  ``engine_kind`` picks the backend
    (see ``ENGINE_KINDS``); None defers to ``config.engine_kind``.
    """
    simulator = make_engine(netlist, config=config, engine_kind=engine_kind)
    return run_stimulus(simulator, stimulus, settle=settle, seed=seed)
