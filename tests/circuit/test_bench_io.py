"""ISCAS .bench parsing and writing."""

import itertools

import pytest

from repro.circuit import bench_io, modules
from repro.circuit.evaluate import evaluate_netlist
from repro.errors import ParseError

C17_TEXT = """
# c17 benchmark
INPUT(1)
INPUT(2)
INPUT(3)
INPUT(6)
INPUT(7)
OUTPUT(22)
OUTPUT(23)
10 = NAND(1, 3)
11 = NAND(3, 6)
16 = NAND(2, 11)
19 = NAND(11, 7)
22 = NAND(10, 16)
23 = NAND(16, 19)
"""


def test_parse_c17_matches_builtin(c17):
    parsed = bench_io.read_bench(C17_TEXT, name="c17")
    for bits in itertools.product((0, 1), repeat=5):
        values = dict(zip(("1", "2", "3", "6", "7"), bits))
        ours = evaluate_netlist(c17, values)
        theirs = evaluate_netlist(parsed, values)
        assert ours["22"] == theirs["22"]
        assert ours["23"] == theirs["23"]


def test_out_of_order_definitions_allowed():
    text = """
INPUT(a)
OUTPUT(y)
y = NOT(m)
m = AND(a, a)
"""
    netlist = bench_io.read_bench(text)
    assert evaluate_netlist(netlist, {"a": 1})["y"] == 0
    assert evaluate_netlist(netlist, {"a": 0})["y"] == 1


def test_gates_are_built_drivers_first_in_any_file_order():
    """Gates are numbered, and their pins given uids, in build order, and
    every kernel breaks time ties by pin uid; exact cone runs need the
    uids to grow along every path.  A file in that order keeps it."""
    lines = C17_TEXT.strip().splitlines()
    header = [line for line in lines if "=" not in line]
    gates = [line for line in lines if "=" in line]
    ordered = bench_io.read_bench(C17_TEXT)
    assert [gate.output.name for gate in ordered.gates.values()] == [
        line.split()[0] for line in gates
    ]
    for order in itertools.islice(itertools.permutations(gates), 0, None, 37):
        netlist = bench_io.read_bench("\n".join(header + list(order)))
        for gate in netlist.gates.values():
            for gate_input in gate.inputs:
                driver = gate_input.net.driver
                assert driver is None or driver.index < gate.index


def test_wide_fanin_decomposes():
    text = "INPUT(a)\nINPUT(b)\nINPUT(c)\nINPUT(d)\nINPUT(e)\n" \
           "OUTPUT(y)\ny = AND(a, b, c, d, e)\n"
    netlist = bench_io.read_bench(text)
    for bits in itertools.product((0, 1), repeat=5):
        values = dict(zip("abcde", bits))
        assert evaluate_netlist(netlist, values)["y"] == int(all(bits))


def test_wide_nand_and_xor():
    text = "INPUT(a)\nINPUT(b)\nINPUT(c)\nINPUT(d)\nINPUT(e)\n" \
           "OUTPUT(n)\nOUTPUT(x)\n" \
           "n = NAND(a, b, c, d, e)\nx = XOR(a, b, c, d, e)\n"
    netlist = bench_io.read_bench(text)
    for bits in itertools.product((0, 1), repeat=5):
        values = dict(zip("abcde", bits))
        result = evaluate_netlist(netlist, values)
        assert result["n"] == int(not all(bits))
        assert result["x"] == sum(bits) % 2


def test_single_input_gates_degenerate():
    text = "INPUT(a)\nOUTPUT(y)\nOUTPUT(z)\ny = AND(a)\nz = NOR(a)\n"
    netlist = bench_io.read_bench(text)
    assert evaluate_netlist(netlist, {"a": 1})["y"] == 1
    assert evaluate_netlist(netlist, {"a": 1})["z"] == 0


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("INPUT(a)\ny = FROB(a)\n", "unknown function"),
        ("INPUT(a)\ny = DFF(a)\n", "DFF"),
        ("INPUT(a)\ngarbage line\n", "unrecognised"),
        ("INPUT(a)\nOUTPUT(y)\ny = AND(a, missing)\n", "undefined net"),
        ("INPUT(a)\nOUTPUT(z)\n", "undefined"),
        ("INPUT(a)\na = NOT(a)\n", "assigned twice|duplicate|driven"),
        ("INPUT(a)\ny = AND()\n", "no inputs"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(ParseError):
        bench_io.read_bench(text)


def test_duplicate_assignment_rejected():
    text = "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\ny = AND(a, a)\n"
    with pytest.raises(ParseError):
        bench_io.read_bench(text)


def test_parse_error_reports_line_number():
    try:
        bench_io.read_bench("INPUT(a)\n\nbad line here\n")
    except ParseError as error:
        assert error.line_number == 3
    else:
        pytest.fail("expected ParseError")


def test_write_then_read_roundtrip(c17):
    text = bench_io.write_bench(c17)
    parsed = bench_io.read_bench(text, name="c17rt")
    for bits in itertools.product((0, 1), repeat=5):
        values = dict(zip(("1", "2", "3", "6", "7"), bits))
        assert (
            evaluate_netlist(parsed, values)
            == evaluate_netlist(c17, values)
        )


def test_write_rejects_unsupported_cells():
    netlist = modules.mux_tree(1)
    with pytest.raises(ParseError):
        bench_io.write_bench(netlist)


def test_write_rejects_constants(mult4):
    with pytest.raises(ParseError):
        bench_io.write_bench(mult4)  # the multiplier contains tie-0 nets


def test_read_from_file(tmp_path, c17):
    path = tmp_path / "c17.bench"
    path.write_text(C17_TEXT)
    parsed = bench_io.read_bench(path)
    assert parsed.name == "c17"
    assert len(parsed.gates) == len(c17.gates)
