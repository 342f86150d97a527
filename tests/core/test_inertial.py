"""Per-input inertial policies (event-order and peak-voltage)."""

import pytest

from repro.config import InertialPolicy
from repro.core.events import Event
from repro.core.inertial import decide
from repro.core.transition import Transition
from repro.errors import ConfigError

RESOLUTION = 1e-6


def _previous(time, rising, duration=0.4):
    """A pending event produced by a transition whose crossing is `time`."""
    # Reconstruct a plausible transition: put t50 so mid-crossing ~ time.
    transition = Transition(t50=time, duration=duration, rising=rising)
    return Event(time=time, seq=1, gate_input=None, transition=transition,
                 value=1 if rising else 0)


def test_event_order_inserts_later_event():
    previous = _previous(1.0, rising=True)
    trailing = Transition(t50=2.0, duration=0.4, rising=False)
    decision = decide(
        InertialPolicy.EVENT_ORDER, 1.5, previous, trailing, 0.5, RESOLUTION
    )
    assert not decision.annihilate
    assert decision.event_time == 1.5


def test_event_order_annihilates_non_later_event():
    previous = _previous(1.0, rising=True)
    trailing = Transition(t50=0.9, duration=0.4, rising=False)
    for new_time in (0.5, 1.0, 1.0 + 0.5 * RESOLUTION):
        decision = decide(
            InertialPolicy.EVENT_ORDER, new_time, previous, trailing,
            0.5, RESOLUTION,
        )
        assert decision.annihilate


def test_peak_policy_annihilates_runt_below_threshold():
    # Leading rise starts at 0.8 (t50 1.0, dur 0.4); trailing fall starts
    # at 0.9 -> peak progress 0.25.
    previous = _previous(1.0, rising=True)
    trailing = Transition(t50=1.1, duration=0.4, rising=False)
    assert previous.transition.pulse_peak_fraction(trailing) == pytest.approx(0.25)
    # Threshold 0.5 of swing: peak 0.25 never crosses -> annihilate.
    decision = decide(
        InertialPolicy.PEAK_VOLTAGE, trailing.crossing_time(0.5), previous,
        trailing, 0.5, RESOLUTION,
    )
    assert decision.annihilate
    # Threshold 0.2: the runt does cross -> survives.
    decision = decide(
        InertialPolicy.PEAK_VOLTAGE, trailing.crossing_time(0.2), previous,
        trailing, 0.2, RESOLUTION,
    )
    assert not decision.annihilate


def test_peak_policy_corrects_trailing_crossing():
    """A surviving partial pulse's second crossing comes earlier than the
    full-swing extrapolation by (1 - peak) * duration."""
    previous = _previous(1.0, rising=True)
    trailing = Transition(t50=1.3, duration=0.4, rising=False)
    peak = previous.transition.pulse_peak_fraction(trailing)
    assert peak == pytest.approx(0.75)
    nominal = trailing.crossing_time(0.2)
    decision = decide(
        InertialPolicy.PEAK_VOLTAGE, nominal, previous, trailing,
        0.2, RESOLUTION,
    )
    assert not decision.annihilate
    assert decision.event_time == pytest.approx(nominal - 0.25 * 0.4)


def test_peak_policy_correction_never_precedes_previous():
    previous = _previous(1.0, rising=True)
    trailing = Transition(t50=1.02, duration=2.0, rising=False)
    peak = previous.transition.pulse_peak_fraction(trailing)
    decision = decide(
        InertialPolicy.PEAK_VOLTAGE, trailing.crossing_time(0.05), previous,
        trailing, 0.05, RESOLUTION,
    )
    if not decision.annihilate:
        assert decision.event_time >= previous.time
    else:
        assert peak <= 0.05 + 1e-12


def test_peak_policy_falling_lead():
    """A falling lead (dip) crosses threshold f iff trough < f, i.e.
    progress > 1 - f."""
    previous = _previous(1.0, rising=False)
    # Trailing rise starting when the dip has progressed 40%.
    trailing = Transition(
        t50=previous.transition.start + 0.4 * 0.4 + 0.2, duration=0.4,
        rising=True,
    )
    progress = previous.transition.pulse_peak_fraction(trailing)
    assert progress == pytest.approx(0.4, abs=1e-9)
    # Threshold at 0.7 of VDD: dip to 0.6 crosses it -> survive.
    decision = decide(
        InertialPolicy.PEAK_VOLTAGE, trailing.crossing_time(0.7), previous,
        trailing, 0.7, RESOLUTION,
    )
    assert not decision.annihilate
    # Threshold at 0.3: dip bottoms at 0.6 > 0.3 -> never crossed.
    decision = decide(
        InertialPolicy.PEAK_VOLTAGE, trailing.crossing_time(0.3), previous,
        trailing, 0.3, RESOLUTION,
    )
    assert decision.annihilate


def test_peak_policy_same_direction_falls_back_to_order():
    previous = _previous(1.0, rising=True)
    same_direction = Transition(t50=2.0, duration=0.4, rising=True)
    keep = decide(
        InertialPolicy.PEAK_VOLTAGE, 1.5, previous, same_direction,
        0.5, RESOLUTION,
    )
    assert not keep.annihilate
    drop = decide(
        InertialPolicy.PEAK_VOLTAGE, 0.5, previous, same_direction,
        0.5, RESOLUTION,
    )
    assert drop.annihilate


def test_unknown_policy_rejected():
    previous = _previous(1.0, rising=True)
    trailing = Transition(t50=2.0, duration=0.4, rising=False)
    with pytest.raises(ConfigError):
        decide("bogus", 1.5, previous, trailing, 0.5, RESOLUTION)
