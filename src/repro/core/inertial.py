"""Per-input inertial (pulse filtering) policies.

The paper relocates the inertial effect from gate outputs to gate inputs:
when a new event ``Ej`` is computed for an input whose latest pending
event is ``Ej-1``, the kernel must decide whether the pulse bounded by the
two underlying transitions actually crosses the input's threshold.

Two policies are provided:

* ``EVENT_ORDER`` — the rule exactly as published (paper Figure 4):
  annihilate unless ``Ej`` comes after ``Ej-1``.  Under the full-swing
  ramp extrapolation this slightly over-filters very asymmetric-slope
  pulses, but it needs nothing beyond the two event times.
* ``PEAK_VOLTAGE`` — reconstructs the actual pulse peak from the two
  ramps and annihilates only when the peak fails to reach the threshold;
  when the pulse survives, the second crossing time is corrected for the
  partial swing.  This is the physically exact rule under the linear-ramp
  approximation and serves as the ``ablA`` ablation.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from ..config import InertialPolicy
from ..errors import ConfigError
from .events import Event
from .transition import Transition


@dataclasses.dataclass(frozen=True)
class InertialDecision:
    """Outcome of the per-input filtering decision.

    Attributes:
        annihilate: True — remove ``Ej-1`` and do not insert ``Ej``.
        event_time: when not annihilating, the (possibly corrected) time
            at which the new event should be scheduled.
    """

    annihilate: bool
    event_time: float = 0.0


def decide(
    policy: InertialPolicy,
    new_time: float,
    previous: Event,
    transition: Transition,
    threshold_fraction: float,
    resolution: float,
) -> InertialDecision:
    """Apply ``policy`` to a new crossing at ``new_time`` against the
    input's pending event ``previous``.

    Args:
        new_time: nominal crossing time of the new transition with the
            input threshold (full-swing extrapolation).
        previous: the input's latest pending (not yet executed) event.
        transition: the transition producing the new event.
        threshold_fraction: the input's VT as a fraction of VDD.
        resolution: times closer than this count as simultaneous.
    """
    if policy is InertialPolicy.EVENT_ORDER:
        if new_time <= previous.time + resolution:
            return InertialDecision(annihilate=True)
        return InertialDecision(annihilate=False, event_time=new_time)

    if policy is InertialPolicy.PEAK_VOLTAGE:
        return _decide_peak(new_time, previous, transition, threshold_fraction, resolution)

    raise ConfigError("unknown inertial policy %r" % (policy,))


def _decide_peak(
    new_time: float,
    previous: Event,
    transition: Transition,
    threshold_fraction: float,
    resolution: float,
) -> InertialDecision:
    """Peak-voltage rule; see module docstring.

    The pulse is bounded by ``previous.transition`` (leading ramp) and
    ``transition`` (trailing, opposite ramp).  The leading ramp reaches a
    progress ``p`` of its swing before the trailing ramp takes over; in
    threshold terms the pulse crossed the input's VT iff ``p`` exceeds the
    threshold progress (VT measured along the leading ramp's direction).
    """
    leading = previous.transition
    if leading.rising == transition.rising:
        # Same-direction transitions cannot bound a pulse; fall back to
        # the event-order rule (can only arise from exotic hand-built
        # stimuli, never from the kernel's alternating emissions).
        if new_time <= previous.time + resolution:
            return InertialDecision(annihilate=True)
        return InertialDecision(annihilate=False, event_time=new_time)

    peak_progress = leading.pulse_peak_fraction(transition)
    threshold_progress = (
        threshold_fraction if leading.rising else 1.0 - threshold_fraction
    )
    if peak_progress <= threshold_progress:
        return InertialDecision(annihilate=True)

    # The pulse survives.  The trailing ramp really starts from the
    # partial peak, not from the rail, so its threshold crossing happens
    # earlier than the full-swing extrapolation by (1 - p) * duration.
    corrected = new_time - (1.0 - peak_progress) * transition.duration
    corrected = max(corrected, previous.time + resolution)
    return InertialDecision(annihilate=False, event_time=corrected)


def peak_voltage_time(
    crossing: float,
    previous_time: float,
    leading_rising: bool,
    leading_t50: float,
    leading_duration: float,
    t50: float,
    duration: float,
    rising: bool,
    fraction: float,
    resolution: float,
) -> Optional[float]:
    """The PEAK_VOLTAGE rule over raw ramp parameters; None means
    annihilate, otherwise the (corrected) time of the new event.

    The array kernels (compiled, vector, bit-parallel) call this with
    the fields of their own pending entry: its event time and its ramp
    (``leading_*``).  It performs :func:`_decide_peak`'s float
    operations in the same order, so every kernel stays bit-identical
    to the reference engine, which keeps :func:`_decide_peak` as the
    independent oracle.
    """
    if leading_rising == rising:
        # Same-direction transitions cannot bound a pulse; fall back to
        # the event-order rule.
        if crossing <= previous_time + resolution:
            return None
        return crossing
    if leading_duration <= 0.0:  # pragma: no cover - durations are > 0
        peak = 1.0
    else:
        progress = (
            (t50 - 0.5 * duration) - (leading_t50 - 0.5 * leading_duration)
        ) / leading_duration
        peak = min(1.0, max(0.0, progress))
    threshold_progress = fraction if leading_rising else 1.0 - fraction
    if peak <= threshold_progress:
        return None
    corrected = crossing - (1.0 - peak) * duration
    return max(corrected, previous_time + resolution)
