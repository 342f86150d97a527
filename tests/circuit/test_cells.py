"""Cell specifications: arcs, degradation parameters, derivations."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.circuit.cells import (
    DegradationSpec,
    NO_DEGRADATION,
    PinSpec,
    TimingArcSpec,
    uniform_arcs,
)
from repro.errors import LibraryError


def _arc(**overrides):
    base = dict(d0=0.1, d_load=0.002, d_slew=0.05,
                s0=0.08, s_load=0.006, s_slew=0.04)
    base.update(overrides)
    return TimingArcSpec(**base)


def test_delay_and_slew_are_linear():
    arc = _arc()
    assert arc.delay(0.0, 0.0) == pytest.approx(0.1)
    assert arc.delay(10.0, 0.0) == pytest.approx(0.1 + 0.02)
    assert arc.delay(10.0, 0.2) == pytest.approx(0.1 + 0.02 + 0.01)
    assert arc.slew(10.0, 0.2) == pytest.approx(0.08 + 0.06 + 0.008)


def test_degradation_tau_follows_eq2():
    spec = DegradationSpec(a=0.02, b=0.003, c=1.0)
    # tau = VDD * (A + B * CL)
    assert spec.tau(5.0, 0.0) == pytest.approx(0.1)
    assert spec.tau(5.0, 10.0) == pytest.approx(5.0 * (0.02 + 0.03))


def test_degradation_t0_follows_eq3():
    spec = DegradationSpec(a=0.02, b=0.003, c=1.0)
    # T0 = (1/2 - C/VDD) * tau_in
    assert spec.t0(5.0, 0.5) == pytest.approx((0.5 - 0.2) * 0.5)
    assert spec.t0(4.0, 0.4) == pytest.approx((0.5 - 0.25) * 0.4)


def test_no_degradation_constant():
    assert NO_DEGRADATION.tau(5.0, 100.0) == 0.0
    assert NO_DEGRADATION.t0(5.0, 1.0) == 0.5  # (1/2 - 0) * tau_in


def test_degradation_validation():
    with pytest.raises(LibraryError):
        DegradationSpec(a=-0.1, b=0.0, c=0.0).validate()
    with pytest.raises(LibraryError):
        DegradationSpec(a=0.0, b=-0.1, c=0.0).validate()


def test_arc_validation():
    with pytest.raises(LibraryError):
        _arc(d0=0.0).validate()
    with pytest.raises(LibraryError):
        _arc(s0=-0.1).validate()
    with pytest.raises(LibraryError):
        _arc(d_load=-0.001).validate()
    _arc().validate()


def test_arc_scaled_halves_intrinsics_keeps_slew_sensitivity():
    arc = _arc()
    fast = arc.scaled(0.5)
    assert fast.d0 == pytest.approx(arc.d0 * 0.5)
    assert fast.s_load == pytest.approx(arc.s_load * 0.5)
    assert fast.d_slew == arc.d_slew


def test_pin_validation_bounds():
    PinSpec("A", cap=5.0, vt=2.5).validate(5.0)
    with pytest.raises(LibraryError):
        PinSpec("A", cap=-1.0, vt=2.5).validate(5.0)
    with pytest.raises(LibraryError):
        PinSpec("A", cap=1.0, vt=0.0).validate(5.0)
    with pytest.raises(LibraryError):
        PinSpec("A", cap=1.0, vt=5.0).validate(5.0)


def test_uniform_arcs_pin_delay_step():
    rise = _arc()
    fall = _arc(d0=0.09)
    arcs = uniform_arcs(3, rise, fall, pin_delay_step=0.01)
    assert arcs[(0, True)].d0 == pytest.approx(0.1)
    assert arcs[(2, True)].d0 == pytest.approx(0.12)
    assert arcs[(1, False)].d0 == pytest.approx(0.10)
    assert len(arcs) == 6


def test_cell_arc_lookup_and_missing(library):
    nand2 = library.get("NAND2")
    arc = nand2.arc(1, rising=True)
    assert arc.d0 > nand2.arc(0, rising=True).d0  # pin position penalty
    with pytest.raises(LibraryError):
        nand2.arc(2, rising=True)


def test_with_thresholds_derives_variant(library):
    inv = library.get("INV")
    variant = inv.with_thresholds("INV_TEST", vt=1.0)
    assert variant.pins[0].vt == 1.0
    assert variant.pins[0].cap == inv.pins[0].cap
    assert variant.arcs == inv.arcs
    assert inv.pins[0].vt != 1.0  # original untouched


def test_scaled_drive_doubles_caps_halves_delay(library):
    inv = library.get("INV")
    strong = inv.scaled_drive("INV_TEST2", 2.0)
    assert strong.pins[0].cap == pytest.approx(2 * inv.pins[0].cap)
    assert strong.arcs[(0, True)].d0 == pytest.approx(inv.arcs[(0, True)].d0 / 2)
    assert strong.output_cap == pytest.approx(2 * inv.output_cap)
    with pytest.raises(LibraryError):
        inv.scaled_drive("bad", 0.0)


@given(
    c_load=st.floats(min_value=0.0, max_value=200.0),
    tau_in=st.floats(min_value=0.0, max_value=2.0),
)
def test_arc_outputs_positive_over_operating_range(c_load, tau_in):
    arc = _arc()
    assert arc.delay(c_load, tau_in) > 0.0
    assert arc.slew(c_load, tau_in) > 0.0


@given(
    vdd=st.floats(min_value=1.0, max_value=6.0),
    c_load=st.floats(min_value=0.0, max_value=100.0),
    tau_in=st.floats(min_value=0.01, max_value=2.0),
)
def test_degradation_t0_below_half_input_slew(vdd, c_load, tau_in):
    """Eq. 3 with positive C implies T0 < tau_in / 2."""
    spec = DegradationSpec(a=0.02, b=0.002, c=0.8)
    assert spec.t0(vdd, tau_in) < 0.5 * tau_in
    assert spec.tau(vdd, c_load) >= 0.0
