"""Default library integrity."""

import pytest

from repro.circuit.cells import CellSpec, PinSpec, TimingArcSpec
from repro.circuit.library import CellLibrary, DEFAULT_VDD, default_library
from repro.circuit.logic import GateFunction, truth_table
from repro.errors import LibraryError, UnknownCellError

EXPECTED_CELLS = {
    "INV", "INV_LT", "INV_HT", "INV_X2",
    "NAND2", "NAND2_X2", "NAND3", "NAND4",
    "NOR2", "NOR3",
    "BUF", "AND2", "AND3", "OR2", "OR3",
    "XOR2", "XNOR2", "MUX2", "AOI21", "OAI21", "MAJ3",
}


def test_default_library_contents(library):
    assert set(library.names()) == EXPECTED_CELLS
    assert library.vdd == DEFAULT_VDD


def test_every_cell_validates(library):
    for cell in library:
        cell.validate(library.vdd)


def test_every_arc_is_complete(library):
    for cell in library:
        for pin in range(cell.num_inputs):
            for rising in (False, True):
                arc = cell.arc(pin, rising)
                assert arc.d0 > 0
                assert arc.s0 > 0


def test_thresholds_inside_supply(library):
    for cell in library:
        for pin in cell.pins:
            assert 0.0 < pin.vt < library.vdd


def test_threshold_variants(library):
    inv = library.get("INV")
    low = library.get("INV_LT")
    high = library.get("INV_HT")
    assert low.pins[0].vt < inv.pins[0].vt < high.pins[0].vt
    assert low.arcs == inv.arcs
    assert high.arcs == inv.arcs


def test_drive_variants_faster_but_heavier(library):
    inv = library.get("INV")
    strong = library.get("INV_X2")
    assert strong.arcs[(0, True)].d0 < inv.arcs[(0, True)].d0
    assert strong.pins[0].cap > inv.pins[0].cap


def test_nand_pin_position_dependence(library):
    """Higher-index pins (deeper in the stack) are slower — the position
    dependence of the paper's eqs. 2/3 subscripts."""
    for name in ("NAND2", "NAND3", "NAND4"):
        cell = library.get(name)
        delays = [cell.arc(pin, True).d0 for pin in range(cell.num_inputs)]
        assert delays == sorted(delays)
        assert delays[0] < delays[-1]


def test_degradation_parameters_present_on_primitives(library):
    for name in ("INV", "NAND2", "NAND3", "NOR2"):
        cell = library.get(name)
        for pin in range(cell.num_inputs):
            for rising in (False, True):
                deg = cell.arc(pin, rising).degradation
                assert deg.a > 0
                assert deg.b > 0
                assert deg.c > 0


def test_cell_functions_match_names(library):
    assert library.get("NAND3").function is GateFunction.NAND
    assert library.get("NAND3").num_inputs == 3
    assert library.get("MUX2").function is GateFunction.MUX2
    assert truth_table(library.get("XOR2").function, 2) == [0, 1, 1, 0]


def test_cell_for_resolves_by_function(library):
    assert library.cell_for(GateFunction.NAND, 2).name == "NAND2"
    assert library.cell_for(GateFunction.INV, 1).name == "INV"
    with pytest.raises(UnknownCellError):
        library.cell_for(GateFunction.NAND, 9)


def test_unknown_cell_raises(library):
    with pytest.raises(UnknownCellError):
        library.get("NAND17")
    assert "NAND2" in library
    assert "NAND17" not in library


def test_default_library_is_shared_instance():
    assert default_library() is default_library()


def test_custom_library_rejects_duplicates(library):
    custom = CellLibrary("custom", vdd=5.0)
    custom.add(library.get("INV"))
    with pytest.raises(LibraryError):
        custom.add(library.get("INV"))


def test_custom_library_rejects_bad_vdd():
    with pytest.raises(LibraryError):
        CellLibrary("bad", vdd=0.0)


def test_add_validates_cell():
    custom = CellLibrary("custom", vdd=5.0)
    bad = CellSpec(
        name="BAD",
        function=GateFunction.INV,
        pins=(PinSpec("A", cap=1.0, vt=7.0),),  # vt above VDD
        arcs={
            (0, True): TimingArcSpec(0.1, 0.0, 0.0, 0.1, 0.0, 0.0),
            (0, False): TimingArcSpec(0.1, 0.0, 0.0, 0.1, 0.0, 0.0),
        },
    )
    with pytest.raises(LibraryError):
        custom.add(bad)


def test_macro_cells_slower_than_primitives(library):
    """AND2 = NAND2 + INV must be slower than bare NAND2."""
    assert (
        library.get("AND2").arc(0, True).d0
        > library.get("NAND2").arc(0, True).d0
    )
    assert (
        library.get("XOR2").arc(0, True).d0
        > library.get("NAND2").arc(0, True).d0
    )


def test_library_len_and_iteration(library):
    assert len(library) == len(EXPECTED_CELLS)
    assert sorted(c.name for c in library) == sorted(EXPECTED_CELLS)
