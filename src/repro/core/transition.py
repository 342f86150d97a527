"""Linear-ramp transitions.

The paper distinguishes *transitions* from *events* (section 3.1): a
transition is a full signal swing approximated by a linear ramp, described
by its timing parameters only — where it sits in time and how long the
swing takes.  Events (threshold crossings) are derived from transitions
per receiving gate input.

We parameterise a ramp by its mid-swing instant ``t50`` and its full-swing
``duration`` (the paper's ``t0``/``tau_x`` pair shifted to mid-swing,
which makes 50%-50% delay arithmetic trivial).  Voltage enters only as a
*fraction of the swing*: a threshold ``VT`` on a supply ``VDD`` is the
fraction ``VT/VDD``, so the kernel never needs absolute volts.
"""

from __future__ import annotations

from typing import Optional

from ..errors import WaveformError


class Transition:
    """One full-swing linear ramp on a net.

    Attributes:
        t50: instant the ramp crosses 50% of the swing, ns.
        duration: full-swing transition time ``tau_x`` (> 0), ns.
        rising: True for a 0->1 swing.
        net_name: name of the net the transition lives on (None for
            detached transitions used in unit tests).
        degradation_factor: ``tp/tp0`` of the delay computation that
            produced this transition; 1.0 for undegraded, <= 0 markers are
            clamped to the engine's minimum delay ("fully degraded").
        cause_time: time of the input event that caused this transition
            (None for stimulus-driven source transitions).
    """

    __slots__ = (
        "t50",
        "duration",
        "rising",
        "net_name",
        "degradation_factor",
        "cause_time",
    )

    def __init__(
        self,
        t50: float,
        duration: float,
        rising: bool,
        net_name: Optional[str] = None,
        degradation_factor: float = 1.0,
        cause_time: Optional[float] = None,
    ):
        if duration <= 0.0:
            raise WaveformError("transition duration must be positive")
        self.t50 = t50
        self.duration = duration
        self.rising = rising
        self.net_name = net_name
        self.degradation_factor = degradation_factor
        self.cause_time = cause_time

    # ------------------------------------------------------------------
    # geometry
    # ------------------------------------------------------------------

    @property
    def start(self) -> float:
        """Instant the ramp leaves the old rail."""
        return self.t50 - 0.5 * self.duration

    @property
    def end(self) -> float:
        """Instant the ramp reaches the new rail."""
        return self.t50 + 0.5 * self.duration

    @property
    def final_value(self) -> int:
        """Logic value after the swing completes."""
        return 1 if self.rising else 0

    @property
    def initial_value(self) -> int:
        return 0 if self.rising else 1

    def crossing_time(self, threshold_fraction: float) -> float:
        """Instant the ramp crosses ``threshold_fraction`` of the swing.

        For a rising ramp the crossing of fraction ``f`` happens at
        ``t50 + duration*(f - 1/2)``; for a falling ramp at
        ``t50 + duration*(1/2 - f)``.  This is the event-generation
        primitive of the kernel (paper Figure 3).

        Raises:
            WaveformError: if the fraction lies outside the open interval
                (0, 1) — the extrapolated ramp never crosses the rails.
        """
        if not 0.0 < threshold_fraction < 1.0:
            raise WaveformError(
                "threshold fraction must be in (0, 1), got %r" % threshold_fraction
            )
        if self.rising:
            return self.t50 + self.duration * (threshold_fraction - 0.5)
        return self.t50 + self.duration * (0.5 - threshold_fraction)

    def fraction_at(self, time: float) -> float:
        """Signal level at ``time`` as a fraction of the swing (clamped to
        the rails outside the ramp)."""
        if self.duration == 0.0:
            progress = 1.0 if time >= self.t50 else 0.0
        else:
            progress = (time - self.start) / self.duration
        progress = min(1.0, max(0.0, progress))
        return progress if self.rising else 1.0 - progress

    def voltage_at(self, time: float, vdd: float) -> float:
        """Signal level at ``time`` in volts for a supply of ``vdd``."""
        return self.fraction_at(time) * vdd

    # ------------------------------------------------------------------
    # pulse algebra
    # ------------------------------------------------------------------

    def pulse_peak_fraction(self, successor: Transition) -> float:
        """Peak (or trough depth) of the pulse formed with ``successor``.

        When this ramp is interrupted by an opposite ramp starting at
        ``successor.start``, the waveform only reaches a fraction of the
        full swing.  Returns that extreme level as a fraction of the swing
        *in the direction of this transition*: 1.0 means the pulse
        completed the swing before reversing, values below 1.0 mean a runt.

        This is the quantity the ``PEAK_VOLTAGE`` inertial policy compares
        against the input threshold (DESIGN.md section 6).
        """
        if successor.rising == self.rising:
            raise WaveformError("pulse peak needs two opposite transitions")
        if self.duration <= 0.0:
            return 1.0
        progress = (successor.start - self.start) / self.duration
        return min(1.0, max(0.0, progress))

    def __repr__(self) -> str:
        direction = "rise" if self.rising else "fall"
        where = self.net_name or "?"
        return "Transition(%s %s t50=%.4f dur=%.4f)" % (
            where,
            direction,
            self.t50,
            self.duration,
        )
