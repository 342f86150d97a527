"""Transition geometry and pulse algebra."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.transition import Transition
from repro.errors import WaveformError


def test_geometry_basics():
    ramp = Transition(t50=2.0, duration=0.4, rising=True)
    assert ramp.start == pytest.approx(1.8)
    assert ramp.end == pytest.approx(2.2)
    assert ramp.final_value == 1
    assert ramp.initial_value == 0
    fall = Transition(t50=2.0, duration=0.4, rising=False)
    assert fall.final_value == 0
    assert fall.initial_value == 1


def test_duration_must_be_positive():
    with pytest.raises(WaveformError):
        Transition(t50=0.0, duration=0.0, rising=True)
    with pytest.raises(WaveformError):
        Transition(t50=0.0, duration=-1.0, rising=True)


def test_crossing_time_midpoint_is_t50():
    for rising in (True, False):
        ramp = Transition(t50=5.0, duration=1.0, rising=rising)
        assert ramp.crossing_time(0.5) == pytest.approx(5.0)


def test_crossing_time_rising_orders_with_threshold():
    ramp = Transition(t50=5.0, duration=1.0, rising=True)
    assert ramp.crossing_time(0.2) == pytest.approx(4.7)
    assert ramp.crossing_time(0.8) == pytest.approx(5.3)


def test_crossing_time_falling_orders_inverted():
    ramp = Transition(t50=5.0, duration=1.0, rising=False)
    assert ramp.crossing_time(0.8) == pytest.approx(4.7)
    assert ramp.crossing_time(0.2) == pytest.approx(5.3)


def test_crossing_rejects_rail_fractions():
    ramp = Transition(t50=5.0, duration=1.0, rising=True)
    for bad in (0.0, 1.0, -0.1, 1.1):
        with pytest.raises(ValueError):
            ramp.crossing_time(bad)


def test_fraction_at_clamps_to_rails():
    ramp = Transition(t50=5.0, duration=1.0, rising=True)
    assert ramp.fraction_at(0.0) == 0.0
    assert ramp.fraction_at(5.0) == pytest.approx(0.5)
    assert ramp.fraction_at(100.0) == 1.0
    fall = Transition(t50=5.0, duration=1.0, rising=False)
    assert fall.fraction_at(0.0) == 1.0
    assert fall.fraction_at(100.0) == 0.0


def test_voltage_at_scales_with_vdd():
    ramp = Transition(t50=5.0, duration=1.0, rising=True)
    assert ramp.voltage_at(5.0, vdd=5.0) == pytest.approx(2.5)
    assert ramp.voltage_at(5.25, vdd=4.0) == pytest.approx(3.0)


def test_pulse_peak_full_when_uninterrupted():
    lead = Transition(t50=1.0, duration=0.4, rising=True)
    trail = Transition(t50=3.0, duration=0.4, rising=False)
    assert lead.pulse_peak_fraction(trail) == 1.0


def test_pulse_peak_partial_when_interrupted():
    lead = Transition(t50=1.0, duration=0.4, rising=True)  # start 0.8
    trail = Transition(t50=1.2, duration=0.4, rising=False)  # start 1.0
    # The lead progressed (1.0 - 0.8) / 0.4 = 50% before the reversal.
    assert lead.pulse_peak_fraction(trail) == pytest.approx(0.5)


def test_pulse_peak_zero_when_reversed_before_start():
    lead = Transition(t50=1.0, duration=0.4, rising=True)
    trail = Transition(t50=0.5, duration=0.4, rising=False)
    assert lead.pulse_peak_fraction(trail) == 0.0


def test_pulse_peak_requires_opposite_directions():
    lead = Transition(t50=1.0, duration=0.4, rising=True)
    with pytest.raises(ValueError):
        lead.pulse_peak_fraction(Transition(t50=2.0, duration=0.4, rising=True))


def test_repr_mentions_direction_and_net():
    ramp = Transition(t50=1.0, duration=0.4, rising=True, net_name="x")
    assert "rise" in repr(ramp)
    assert "x" in repr(ramp)


# ----------------------------------------------------------------------
# properties
# ----------------------------------------------------------------------

fractions = st.floats(min_value=0.01, max_value=0.99)
times = st.floats(min_value=-100.0, max_value=100.0)
durations = st.floats(min_value=1e-4, max_value=10.0)


@given(t50=times, duration=durations, fraction=fractions,
       rising=st.booleans())
def test_crossing_lies_within_ramp(t50, duration, fraction, rising):
    ramp = Transition(t50=t50, duration=duration, rising=rising)
    crossing = ramp.crossing_time(fraction)
    assert ramp.start <= crossing <= ramp.end


@given(t50=times, duration=durations,
       f1=fractions, f2=fractions)
def test_crossing_monotone_in_threshold(t50, duration, f1, f2):
    """Rising ramps cross lower thresholds first; falling the reverse."""
    low, high = sorted((f1, f2))
    rising = Transition(t50=t50, duration=duration, rising=True)
    falling = Transition(t50=t50, duration=duration, rising=False)
    assert rising.crossing_time(low) <= rising.crossing_time(high)
    assert falling.crossing_time(high) <= falling.crossing_time(low)


@given(t50=times, duration=durations, fraction=fractions,
       rising=st.booleans())
def test_fraction_at_crossing_equals_threshold(t50, duration, fraction, rising):
    ramp = Transition(t50=t50, duration=duration, rising=rising)
    crossing = ramp.crossing_time(fraction)
    assert ramp.fraction_at(crossing) == pytest.approx(fraction, abs=1e-9)
