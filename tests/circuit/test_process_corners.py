"""Process-corner library derivation."""

import pytest

from repro.circuit import modules
from repro.circuit.corners import (
    Corner,
    STANDARD_CORNERS,
    corner_library,
    derate_cell,
    derate_library,
)
from repro.errors import LibraryError


def test_standard_corners_ordering(library):
    fast = corner_library(library, "ff")
    typical = corner_library(library, "tt")
    slow = corner_library(library, "ss")
    for cell_name in ("INV", "NAND2"):
        d_ff = fast.get(cell_name).arc(0, True).d0
        d_tt = typical.get(cell_name).arc(0, True).d0
        d_ss = slow.get(cell_name).arc(0, True).d0
        assert d_ff < d_tt < d_ss


def test_tt_corner_is_identity(library):
    typical = corner_library(library, "tt")
    base = library.get("NAND2").arc(1, False)
    derived = typical.get("NAND2").arc(1, False)
    assert derived.d0 == pytest.approx(base.d0)
    assert derived.degradation.a == pytest.approx(base.degradation.a)
    assert typical.get("NAND2").pins[0].vt == library.get("NAND2").pins[0].vt


def test_degradation_scales_with_delay(library):
    slow = corner_library(library, "ss")
    base = library.get("INV").arc(0, True).degradation
    derived = slow.get("INV").arc(0, True).degradation
    assert derived.a == pytest.approx(base.a * 1.25)
    assert derived.b == pytest.approx(base.b * 1.25)
    assert derived.c == base.c


def test_vt_shift_clamped(library):
    aggressive = Corner("wild", delay_scale=1.0, vt_shift=5.0)
    cell = derate_cell(library.get("INV"), aggressive, library.vdd)
    assert cell.pins[0].vt < library.vdd
    cell.validate(library.vdd)


def test_corner_names_and_errors(library):
    assert set(STANDARD_CORNERS) == {"ff", "tt", "ss"}
    with pytest.raises(LibraryError):
        corner_library(library, "nn")
    with pytest.raises(LibraryError):
        derate_library(library, Corner("bad", delay_scale=0.0))


def test_netlists_rebuild_at_corners(library):
    """Cell names survive derating so generators work unchanged."""
    slow = corner_library(library, "ss")
    netlist = modules.array_multiplier(2, library=slow)
    assert netlist.vdd == library.vdd
    for gate in netlist.gates.values():
        assert gate.cell.name in ("INV", "NAND2")


def test_corner_changes_simulated_delay(library):
    from repro.config import cdm_config
    from repro.core.engine import simulate
    from repro.stimuli.vectors import VectorSequence

    stimulus = VectorSequence([(0.0, {"in": 0}), (1.0, {"in": 1})], tail=4.0)
    results = {}
    for corner_name in ("ff", "ss"):
        lib = corner_library(library, corner_name)
        chain = modules.inverter_chain(6, library=lib)
        result = simulate(chain, stimulus, config=cdm_config())
        results[corner_name] = result.traces["out6"].edges()[0][0]
    assert results["ff"] < results["ss"]
