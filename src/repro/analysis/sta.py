"""Static timing analysis over the compiled lowering.

One topological pass over a :class:`~repro.core.compiled.CompiledNetlist`
(CSR fanout + load-folded delay arcs) computes, per net, a **window**
``[arrival_min, arrival_max]`` of mid-swing (t50) times — relative to the
causal primary-input launch — that any dynamically simulated transition
on that net can take, plus a slew interval ``[slew_min, slew_max]`` for
its ramp durations, plus the K most critical launch-to-endpoint paths
with per-arc attribution.

The windows are *sound by construction* for every engine and both delay
modes: each recursion step hulls over both output edges, both endpoints
of the fanin slew interval, and the configured inertial policy's event
shifts (the PEAK_VOLTAGE corrected time may precede the nominal crossing
by up to one input duration), and the delay-mode bounds bracket the
kernel's arithmetic (DDM degradation never shrinks a delay below
``min_delay``; CDM floors at ``min_delay``).  An engine whose word-level
contract holds events back (the bit-parallel batch hold) declares a
per-arc ``arc_slack`` that widens every upper bound.

That soundness is what makes the analyzer a cross-engine **oracle**:
:func:`verify_result` asserts that every transition of a recorded
simulation lies inside its net's window, that every ramp duration lies
inside the slew interval, that per-net transition counts obey the
broadcast conservation law, and that activity amplification (glitch
birth) only happens on nets whose driver has at least two statically
transitioning pins — the reconvergence sites the hazard pass
(:mod:`repro.analysis.hazards`) flags.  ``SimulationConfig
(check_sta_bounds=True)`` runs this after every ``simulate()`` /
``simulate_batch()`` on any engine.
"""

from __future__ import annotations

import contextlib
import dataclasses
import time as _time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..config import DelayMode, InertialPolicy, SimulationConfig
from ..errors import AnalysisError, OracleError, SimulationError
from .report import Table

#: Sentinels of an empty window (a net that can never transition).
_NEVER_MIN = float("inf")
_NEVER_MAX = float("-inf")


@dataclasses.dataclass(frozen=True)
class NetWindow:
    """Static bounds for one net's dynamic transitions.

    Arrival bounds are mid-swing (t50) times relative to the causal
    primary-input launch's own t50; slew bounds are ramp durations in
    ns.  ``can_transition`` False marks a net no stimulus can ever
    toggle (constants, nets fed only by constants); its arrival window
    is the empty sentinel pair ``(inf, -inf)``.
    """

    name: str
    can_transition: bool
    arrival_min: float
    arrival_max: float
    slew_min: float
    slew_max: float

    @property
    def width(self) -> float:
        """Window width (the net's static path-delay skew)."""
        if not self.can_transition:
            return 0.0
        return self.arrival_max - self.arrival_min

    def to_dict(self) -> Dict[str, object]:
        return {
            "net": self.name,
            "can_transition": self.can_transition,
            "arrival_min": self.arrival_min,
            "arrival_max": self.arrival_max,
            "slew_min": self.slew_min,
            "slew_max": self.slew_max,
        }


#: NetWindow's fields in declaration order.
_WINDOW_FIELDS = tuple(field.name for field in dataclasses.fields(NetWindow))


@dataclasses.dataclass(frozen=True)
class PathStep:
    """One arc of a critical path: ``from_net`` through ``gate`` pin
    ``pin`` onto ``to_net``, taking ``arc_delay`` (the max-corner
    nominal delay including any engine slack) and arriving at
    ``arrival`` (relative to the launch t50)."""

    gate: str
    pin: int
    from_net: str
    to_net: str
    arc_delay: float
    arrival: float

    def to_dict(self) -> Dict[str, object]:
        return {
            "gate": self.gate,
            "pin": self.pin,
            "from_net": self.from_net,
            "to_net": self.to_net,
            "arc_delay": self.arc_delay,
            "arrival": self.arrival,
        }


@dataclasses.dataclass(frozen=True)
class CriticalPath:
    """A launch-to-endpoint max-arrival path, launch first."""

    endpoint: str
    arrival_max: float
    steps: Tuple[PathStep, ...]

    def to_dict(self) -> Dict[str, object]:
        return {
            "endpoint": self.endpoint,
            "arrival_max": self.arrival_max,
            "steps": [step.to_dict() for step in self.steps],
        }


@dataclasses.dataclass
class StaReport:
    """Result of :func:`analyze` — windows, slews, critical paths."""

    netlist_name: str
    num_gates: int
    num_nets: int
    delay_mode: str
    inertial_policy: str
    min_delay: float
    time_resolution: float
    input_slew: Tuple[float, float]
    arc_slack: float
    windows: Dict[str, NetWindow]
    critical_paths: List[CriticalPath]
    analysis_seconds: float

    def window(self, net_name: str) -> NetWindow:
        try:
            return self.windows[net_name]
        except KeyError:
            raise AnalysisError(
                "no STA window for net %r" % net_name
            ) from None

    def to_dict(self) -> Dict[str, object]:
        return {
            "netlist": self.netlist_name,
            "gates": self.num_gates,
            "nets": self.num_nets,
            "delay_mode": self.delay_mode,
            "inertial_policy": self.inertial_policy,
            "min_delay": self.min_delay,
            "time_resolution": self.time_resolution,
            "input_slew": list(self.input_slew),
            "arc_slack": self.arc_slack,
            "analysis_seconds": self.analysis_seconds,
            "windows": [
                self.windows[name].to_dict() for name in sorted(self.windows)
            ],
            "critical_paths": [
                path.to_dict() for path in self.critical_paths
            ],
        }

    def format(self, max_windows: int = 20) -> str:
        """Human-readable report: summary, top windows, critical paths."""
        lines = [
            "STA over %r (%d gates, %d nets) — mode %s, policy %s, "
            "input slew %.3f..%.3f ns"
            % (
                self.netlist_name,
                self.num_gates,
                self.num_nets,
                self.delay_mode,
                self.inertial_policy,
                self.input_slew[0],
                self.input_slew[1],
            ),
        ]
        if self.arc_slack:
            lines.append("per-arc engine slack: %.6f ns" % self.arc_slack)
        reachable = [
            window
            for window in self.windows.values()
            if window.can_transition
        ]
        reachable.sort(key=lambda window: -window.arrival_max)
        table = Table(
            ["net", "arrival min (ns)", "arrival max (ns)", "skew (ns)",
             "slew min (ns)", "slew max (ns)"],
            title="latest-arriving nets (%d of %d reachable)"
            % (min(max_windows, len(reachable)), len(reachable)),
        )
        for window in reachable[:max_windows]:
            table.add_row([
                window.name,
                "%.4f" % window.arrival_min,
                "%.4f" % window.arrival_max,
                "%.4f" % window.width,
                "%.4f" % window.slew_min,
                "%.4f" % window.slew_max,
            ])
        lines.append(table.render())
        for rank, path in enumerate(self.critical_paths, start=1):
            lines.append(
                "critical path #%d -> %s (arrival max %.4f ns):"
                % (rank, path.endpoint, path.arrival_max)
            )
            for step in path.steps:
                lines.append(
                    "  %s -[%s pin %d, +%.4f ns]-> %s  @ %.4f ns"
                    % (
                        step.from_net,
                        step.gate,
                        step.pin,
                        step.arc_delay,
                        step.to_net,
                        step.arrival,
                    )
                )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# the topological window pass
# ----------------------------------------------------------------------

def _lower(circuit: Any) -> Any:
    """Accept a Netlist (lower via its cache) or a CompiledNetlist."""
    compile_method = getattr(circuit, "compile", None)
    if callable(compile_method):
        return compile_method()
    return circuit


def _slew_interval(
    config: SimulationConfig,
    input_slew: Optional[Tuple[float, float]],
) -> Tuple[float, float]:
    if input_slew is None:
        slew = config.default_input_slew
        return (slew, slew)
    low, high = float(input_slew[0]), float(input_slew[1])
    if low <= 0.0 or high < low:
        raise AnalysisError(
            "input_slew must be a (low, high) interval with 0 < low <= "
            "high, got (%r, %r)" % (input_slew[0], input_slew[1])
        )
    return (low, high)


def analyze(
    circuit: Any,
    config: Optional[SimulationConfig] = None,
    input_slew: Optional[Tuple[float, float]] = None,
    arc_slack: float = 0.0,
    k_paths: int = 4,
) -> StaReport:
    """One topological STA pass over ``circuit``.

    Args:
        circuit: a :class:`~repro.circuit.netlist.Netlist` (lowered via
            its cached ``compile()``) or an already-built
            :class:`~repro.core.compiled.CompiledNetlist`.
        config: supplies the delay mode, inertial policy, ``min_delay``
            and ``time_resolution`` (default: HALOTIS-DDM defaults).
        input_slew: ``(low, high)`` interval of primary-input ramp
            durations the windows must cover; None uses the config's
            ``default_input_slew`` as a point interval.
        arc_slack: extra per-arc upper-bound slack in ns (the
            bit-parallel lockstep batch holds word events back by up to
            its word-merge hold and passes that hold here).
        k_paths: how many critical launch-to-endpoint paths to extract.

    Raises:
        AnalysisError: combinational cycles (windows are defined over a
            topological order; feedback circuits have none).
    """
    if config is None:
        config = SimulationConfig()
    if arc_slack < 0.0:
        raise AnalysisError("arc_slack must be >= 0, got %r" % arc_slack)
    started = _time.perf_counter()
    compiled = _lower(circuit)
    slew_low, slew_high = _slew_interval(config, input_slew)
    try:
        order = compiled.topological_order()
    except SimulationError as error:
        raise AnalysisError(
            "static timing analysis needs an acyclic circuit: %s" % error
        ) from None

    windows, predecessors = _window_pass(
        compiled,
        order,
        use_ddm=config.delay_mode is DelayMode.DDM,
        peak_policy=config.inertial_policy is InertialPolicy.PEAK_VOLTAGE,
        min_delay=config.min_delay,
        resolution=config.time_resolution,
        slew_low=slew_low,
        slew_high=slew_high,
        arc_slack=arc_slack,
    )
    paths = _critical_paths(compiled, windows, predecessors, k_paths)
    netlist = compiled.netlist
    return StaReport(
        netlist_name=netlist.name if netlist is not None else "<detached>",
        num_gates=compiled.num_gates,
        num_nets=compiled.num_nets,
        delay_mode=config.delay_mode.value,
        inertial_policy=config.inertial_policy.value,
        min_delay=config.min_delay,
        time_resolution=config.time_resolution,
        input_slew=(slew_low, slew_high),
        arc_slack=arc_slack,
        windows=windows,
        critical_paths=paths,
        analysis_seconds=_time.perf_counter() - started,
    )


def _window_pass(
    compiled: Any,
    order: Sequence[int],
    use_ddm: bool,
    peak_policy: bool,
    min_delay: float,
    resolution: float,
    slew_low: float,
    slew_high: float,
    arc_slack: float,
) -> Tuple[Dict[str, NetWindow], Dict[int, Tuple[int, float]]]:
    """The single forward pass: per-net windows + max-arc attribution.

    Per gate input ``u`` fed by net ``m`` with window ``W(m)``, any
    executed event time lies in::

        evt_min(u) = W(m).arrival_min - W(m).slew_max * |f - 0.5|
                     [- W(m).slew_max under PEAK_VOLTAGE]
        evt_max(u) = W(m).arrival_max + W(m).slew_max * |f - 0.5|
                     [+ resolution under PEAK_VOLTAGE]

    (``f`` is the input's VT fraction; the crossing offset hulls over
    both edges, PEAK_VOLTAGE's corrected time may precede the crossing
    by at most one input duration and its floor may push at most one
    resolution past it; late events only ever move *later* but stay
    below the causing net's ``arrival_max``).  The output transition of
    the driven gate then lands in ``[evt_min + tp_lo, evt_max + tp_hi]``
    where ``tp_lo/tp_hi`` bracket the configured delay mode over the
    fanin slew hull, ``tp_hi`` widened by ``arc_slack``.
    """
    num_nets = compiled.num_nets
    net_names = compiled.net_names
    net_constant = compiled.net_constant
    net_is_pi = compiled.net_is_pi
    # Plain-list copies: list indexing returns the stored objects, where
    # ``array`` indexing boxes a fresh int/float on every access.
    vt_fraction = compiled.vt_fraction.tolist()
    input_net = compiled.input_net.tolist()
    gate_offsets = compiled.gate_input_offsets.tolist()
    gate_output_net = compiled.gate_output_net.tolist()
    arc_rise = compiled.arc_rise
    arc_fall = compiled.arc_fall

    arrival_min = [_NEVER_MIN] * num_nets
    arrival_max = [_NEVER_MAX] * num_nets
    slew_min = [0.0] * num_nets
    slew_max = [0.0] * num_nets
    alive = [False] * num_nets

    for index in range(num_nets):
        if net_constant[index] is not None:
            continue
        if net_is_pi[index]:
            alive[index] = True
            arrival_min[index] = 0.0
            arrival_max[index] = 0.0
            slew_min[index] = slew_low
            slew_max[index] = slew_high

    predecessors: Dict[int, Tuple[int, float]] = {}
    for gate in order:
        out_net = gate_output_net[gate]
        out_min = _NEVER_MIN
        out_max = _NEVER_MAX
        out_slew_min = _NEVER_MIN
        out_slew_max = _NEVER_MAX
        out_alive = False
        best: Optional[Tuple[int, float]] = None
        for uid in range(gate_offsets[gate], gate_offsets[gate + 1]):
            fanin = input_net[uid]
            if not alive[fanin]:
                continue
            out_alive = True
            offset = abs(vt_fraction[uid] - 0.5) * slew_max[fanin]
            evt_min = arrival_min[fanin] - offset
            evt_max = arrival_max[fanin] + offset
            if peak_policy:
                evt_min -= slew_max[fanin]
                evt_max += resolution
            # The inlined twin of CompiledNetlist.arc_delay_bounds():
            # the hull over (rise, fall) x (slew_min, slew_max) of the
            # affine arc responses.  Inlined because this is the hot
            # loop of the whole analyzer (one evaluation per gate input)
            # and the call + tuple overhead measurably dominates it.
            in_slew_lo = slew_min[fanin]
            in_slew_hi = slew_max[fanin]
            rise = arc_rise[uid]
            fall = arc_fall[uid]
            tp0_r, d_r, tau0_r, s_r = rise[0], rise[1], rise[2], rise[3]
            tp0_f, d_f, tau0_f, s_f = fall[0], fall[1], fall[2], fall[3]
            # Corners in the order (rise, lo), (rise, hi), (fall, lo),
            # (fall, hi), folded exactly as a loop over them would.
            tp_nom_min = tp_nom_max = tp0_r + d_r * in_slew_lo
            tau_min = tau_max = tau0_r + s_r * in_slew_lo
            tp = tp0_r + d_r * in_slew_hi
            if tp < tp_nom_min:
                tp_nom_min = tp
            elif tp > tp_nom_max:
                tp_nom_max = tp
            tp = tp0_f + d_f * in_slew_lo
            if tp < tp_nom_min:
                tp_nom_min = tp
            elif tp > tp_nom_max:
                tp_nom_max = tp
            tp = tp0_f + d_f * in_slew_hi
            if tp < tp_nom_min:
                tp_nom_min = tp
            elif tp > tp_nom_max:
                tp_nom_max = tp
            tau_out = tau0_r + s_r * in_slew_hi
            if tau_out < tau_min:
                tau_min = tau_out
            elif tau_out > tau_max:
                tau_max = tau_out
            tau_out = tau0_f + s_f * in_slew_lo
            if tau_out < tau_min:
                tau_min = tau_out
            elif tau_out > tau_max:
                tau_max = tau_out
            tau_out = tau0_f + s_f * in_slew_hi
            if tau_out < tau_min:
                tau_min = tau_out
            elif tau_out > tau_max:
                tau_max = tau_out
            if use_ddm:
                # Degradation only ever shrinks the delay, floored at
                # min_delay; the nominal value is the undegraded max.
                tp_lo = min_delay
            else:
                tp_lo = tp_nom_min if tp_nom_min > min_delay else min_delay
            tp_hi = tp_nom_max if tp_nom_max > min_delay else min_delay
            tp_hi += arc_slack
            candidate_min = evt_min + tp_lo
            candidate_max = evt_max + tp_hi
            if candidate_min < out_min:
                out_min = candidate_min
            if candidate_max > out_max:
                out_max = candidate_max
                best = (uid, tp_hi)
            if tau_min < out_slew_min:
                out_slew_min = tau_min
            if tau_max > out_slew_max:
                out_slew_max = tau_max
        if not out_alive:
            continue
        alive[out_net] = True
        arrival_min[out_net] = out_min
        arrival_max[out_net] = out_max
        slew_min[out_net] = out_slew_min if out_slew_min > 0.0 else 0.0
        slew_max[out_net] = out_slew_max
        if best is not None:
            predecessors[out_net] = best

    # Equal to NetWindow(name=..., ...): filling the instance dict
    # directly skips the frozen dataclass __init__, whose six
    # object.__setattr__ calls per net cost more than the pass itself
    # on a small circuit.
    windows = {}
    new_window = object.__new__
    for fields in zip(
        net_names, alive, arrival_min, arrival_max, slew_min, slew_max
    ):
        window = windows[fields[0]] = new_window(NetWindow)
        window.__dict__.update(zip(_WINDOW_FIELDS, fields))
    return windows, predecessors


def _critical_paths(
    compiled: Any,
    windows: Dict[str, NetWindow],
    predecessors: Dict[int, Tuple[int, float]],
    k_paths: int,
) -> List[CriticalPath]:
    """Backtrack the max-arc chain from the K latest endpoints.

    Endpoints are the primary outputs that can transition; circuits
    without reachable primary outputs fall back to every reachable
    driven net.  Each endpoint contributes its (single) max-arrival
    path, so the K paths attribute the K worst endpoint arrivals.
    """
    if k_paths <= 0:
        return []
    net_names = compiled.net_names
    net_is_po = compiled.net_is_po
    input_gate = compiled.input_gate
    input_pin = compiled.input_pin
    input_net = compiled.input_net
    gate_names = compiled.gate_names

    endpoints = [
        index
        for index in range(compiled.num_nets)
        if net_is_po[index] and windows[net_names[index]].can_transition
    ]
    if not endpoints:
        endpoints = [
            index
            for index in predecessors
            if windows[net_names[index]].can_transition
        ]
    endpoints.sort(key=lambda index: -windows[net_names[index]].arrival_max)

    paths: List[CriticalPath] = []
    for endpoint in endpoints[:k_paths]:
        steps: List[PathStep] = []
        cursor = endpoint
        while cursor in predecessors:
            uid, tp_hi = predecessors[cursor]
            fanin = input_net[uid]
            steps.append(
                PathStep(
                    gate=gate_names[input_gate[uid]],
                    pin=input_pin[uid],
                    from_net=net_names[fanin],
                    to_net=net_names[cursor],
                    arc_delay=tp_hi,
                    arrival=windows[net_names[cursor]].arrival_max,
                )
            )
            cursor = fanin
        steps.reverse()
        paths.append(
            CriticalPath(
                endpoint=net_names[endpoint],
                arrival_max=windows[net_names[endpoint]].arrival_max,
                steps=tuple(steps),
            )
        )
    return paths


# ----------------------------------------------------------------------
# the cross-engine oracle
# ----------------------------------------------------------------------

def windows_for(
    netlist: Any,
    config: SimulationConfig,
    input_slew: Tuple[float, float],
    arc_slack: float = 0.0,
) -> StaReport:
    """Cached :func:`analyze` for the oracle's repeated verifications.

    The report is memoised on the netlist instance keyed by its
    structure version and every knob the windows depend on; the stash
    never pickles (``Netlist.__reduce__`` snapshots a fixed field set),
    so worker processes simply rebuild their own.
    """
    version = getattr(netlist, "_structure_version", None)
    if version is None:
        return analyze(
            netlist, config, input_slew=input_slew, arc_slack=arc_slack,
            k_paths=0,
        )
    key = (
        version,
        config.delay_mode.value,
        config.inertial_policy.value,
        config.min_delay,
        config.time_resolution,
        input_slew[0],
        input_slew[1],
        arc_slack,
    )
    cache: Dict[Tuple[object, ...], StaReport]
    cache = getattr(netlist, "_sta_window_cache", None) or {}
    report = cache.get(key)
    if report is None:
        report = analyze(
            netlist, config, input_slew=input_slew, arc_slack=arc_slack,
            k_paths=0,
        )
        cache[key] = report
        with contextlib.suppress(AttributeError):  # slotted stand-ins
            netlist._sta_window_cache = cache
    return report


def _stimulus_launches(
    stimulus: Any, config: SimulationConfig
) -> Tuple[List[float], List[float]]:
    """Mid-swing launch times and effective slews of a stimulus."""
    launches: List[float] = []
    slews: List[float] = []
    for at_time, _assignments, slew in stimulus.iter_changes():
        effective = slew if slew is not None else config.default_input_slew
        launches.append(at_time + 0.5 * effective)
        slews.append(effective)
    return launches, slews


def verify_result(
    netlist: Any,
    stimulus: Any,
    result: Any,
    config: SimulationConfig,
    arc_slack: float = 0.0,
    launch_window: Optional[Tuple[float, float]] = None,
    input_slew: Optional[Tuple[float, float]] = None,
    tolerance: float = 1e-9,
    max_violations: int = 5,
) -> StaReport:
    """Assert one recorded simulation lies inside its static envelope.

    Checks, per net:

    1. every recorded transition's t50 lies in ``[first_launch +
       arrival_min - tol, last_launch + arrival_max + tol]``, and nets
       that can never transition recorded none;
    2. every ramp duration lies in ``[slew_min - tol, slew_max + tol]``;
    3. transition counts obey broadcast conservation — a gate emits at
       most as many transitions as its pins received;
    4. activity amplification (more output transitions than any single
       fanin carried) only happens where the driver has >= 2 statically
       transitioning pins — the hazard pass's generator candidates.

    ``launch_window`` / ``input_slew`` override the per-stimulus launch
    hull — lockstep word engines merge lanes, so batch verification
    passes the union over the whole batch.  Returns the
    :class:`StaReport` used (handy for diagnostics); raises
    :class:`~repro.errors.OracleError` on any violation.
    """
    traces = getattr(result, "traces", None)
    if traces is None or not len(traces):
        raise OracleError(
            "the STA oracle needs recorded traces; run with "
            "record_traces=True"
        )
    launches, slews = _stimulus_launches(stimulus, config)
    if input_slew is not None:
        slew_interval = input_slew
    elif slews:
        slew_interval = (min(slews), max(slews))
    else:
        slew_interval = (
            config.default_input_slew, config.default_input_slew
        )
    report = windows_for(
        netlist, config, slew_interval, arc_slack=arc_slack
    )
    windows = report.windows

    first_launch: Optional[float] = None
    last_launch: Optional[float] = None
    if launch_window is not None:
        first_launch, last_launch = launch_window
    elif launches:
        first_launch, last_launch = min(launches), max(launches)

    violations: List[str] = []

    def record(message: str) -> None:
        violations.append(message)

    counts: Dict[str, int] = {}
    for trace in traces:
        counts[trace.net_name] = len(trace.transitions)

    for trace in traces:
        window = windows.get(trace.net_name)
        if window is None:  # pragma: no cover - traces mirror the nets
            continue
        if not trace.transitions:
            continue
        if not window.can_transition:
            record(
                "net %r can never transition statically but recorded %d "
                "transition(s)" % (trace.net_name, len(trace.transitions))
            )
            continue
        if first_launch is None or last_launch is None:
            record(
                "stimulus drives no input changes but net %r recorded %d "
                "transition(s)" % (trace.net_name, len(trace.transitions))
            )
            continue
        low = first_launch + window.arrival_min - tolerance
        high = last_launch + window.arrival_max + tolerance
        slew_low = window.slew_min - tolerance
        slew_high = window.slew_max + tolerance
        for transition in trace.transitions:
            if not low <= transition.t50 <= high:
                record(
                    "net %r transition at t50=%.6f ns outside its static "
                    "window [%.6f, %.6f] ns"
                    % (trace.net_name, transition.t50, low, high)
                )
                break
        for transition in trace.transitions:
            if not slew_low <= transition.duration <= slew_high:
                record(
                    "net %r ramp duration %.6f ns outside its static slew "
                    "interval [%.6f, %.6f] ns"
                    % (trace.net_name, transition.duration,
                       slew_low, slew_high)
                )
                break

    compiled = _lower(netlist)
    net_names = compiled.net_names
    input_net = compiled.input_net
    gate_offsets = compiled.gate_input_offsets
    gate_output_net = compiled.gate_output_net
    gate_names = compiled.gate_names
    for gate in range(compiled.num_gates):
        out_name = net_names[gate_output_net[gate]]
        out_count = counts.get(out_name, 0)
        if not out_count:
            continue
        pin_counts = [
            counts.get(net_names[input_net[uid]], 0)
            for uid in range(gate_offsets[gate], gate_offsets[gate + 1])
        ]
        active_pins = sum(
            1
            for uid in range(gate_offsets[gate], gate_offsets[gate + 1])
            if windows[net_names[input_net[uid]]].can_transition
        )
        if out_count > sum(pin_counts):
            record(
                "gate %r emitted %d transition(s) on %r but its pins "
                "only received %d — broadcast conservation violated"
                % (gate_names[gate], out_count, out_name, sum(pin_counts))
            )
        elif out_count > max(pin_counts, default=0) and active_pins < 2:
            record(
                "net %r amplified activity (%d transitions vs <= %d on "
                "its single transitioning fanin) without being a "
                "statically flagged hazard generator"
                % (out_name, out_count, max(pin_counts, default=0))
            )

    if violations:
        shown = violations[:max_violations]
        suffix = (
            "" if len(violations) <= max_violations
            else " (+%d more)" % (len(violations) - max_violations)
        )
        raise OracleError(
            "STA oracle: %d violation(s) on %r%s:\n  - %s"
            % (
                len(violations),
                report.netlist_name,
                suffix,
                "\n  - ".join(shown),
            )
        )
    return report
