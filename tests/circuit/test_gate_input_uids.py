"""The gate-input uid contract the lowering relies on.

``Netlist.add_gate`` numbers each new gate's pins from a running count,
and ``_rebuild_netlist`` (pickle, ``copy`` and ``deepcopy``) numbers them
the same way.  The lowering indexes its per-input arrays by uid and
requires each gate's uids to be one contiguous run, in gate order.
"""

import copy
import pickle

import pytest

from repro.circuit import modules
from repro.circuit.bench_io import read_bench, write_bench
from repro.circuit.logic import truth_table
from repro.circuit.netlist import Netlist
from repro.errors import ConnectivityError

CIRCUITS = {
    "mult4": lambda: modules.array_multiplier(4),
    "mult6": lambda: modules.array_multiplier(6),
    "wallace4": lambda: modules.wallace_multiplier(4),
    "rca8": lambda: modules.ripple_adder(8),
    "mult4-unexpanded": lambda: modules.array_multiplier(4, expanded=False),
    "c17": modules.c17,
    # .bench cannot express the multipliers' tie-0 nets, so the file
    # round trip uses the adder.
    "rca8-bench": lambda: read_bench(write_bench(modules.ripple_adder(8))),
}

COPIES = {
    "pickle": lambda netlist: pickle.loads(pickle.dumps(netlist)),
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
}


def _uids_by_gate(netlist: Netlist):
    return [[gi.uid for gi in gate.inputs] for gate in netlist.gates.values()]


def _assert_uid_contract(netlist: Netlist):
    expected = []
    next_uid = 0
    for gate in netlist.gates.values():
        expected.append(list(range(next_uid, next_uid + len(gate.inputs))))
        next_uid += len(gate.inputs)
    assert _uids_by_gate(netlist) == expected
    assert netlist.num_gate_inputs == next_uid


@pytest.mark.parametrize("name", sorted(CIRCUITS))
def test_uids_are_a_dense_gate_order_enumeration(name):
    netlist = CIRCUITS[name]()
    _assert_uid_contract(netlist)
    compiled = netlist.compile()
    assert compiled.num_inputs == netlist.num_gate_inputs
    assert list(compiled.gate_input_offsets)[-1] == netlist.num_gate_inputs


@pytest.mark.parametrize("how", sorted(COPIES))
def test_rebuilt_netlist_keeps_numbering_for_new_gates(how, library):
    original = modules.array_multiplier(4)
    original.compile()
    clone = COPIES[how](original)
    assert _uids_by_gate(clone) == _uids_by_gate(original)
    assert clone.num_gate_inputs == original.num_gate_inputs

    count = clone.num_gate_inputs
    source = clone.primary_inputs[0]
    gate = clone.add_gate(
        "extra", library.get("NAND2"), [source, source], clone.add_net("extra_y")
    )
    assert [gi.uid for gi in gate.inputs] == [count, count + 1]
    _assert_uid_contract(clone)
    compiled = clone.compile()
    assert compiled.num_inputs == count + 2
    assert compiled.num_gates == len(original.gates) + 1
    # The original is untouched by edits to its copy.
    assert original.num_gate_inputs == count


def test_rejected_pin_threshold_leaves_no_trace(library):
    netlist = modules.c17()
    count = netlist.num_gate_inputs
    source = netlist.primary_inputs[0]
    fanout = len(source.fanouts)
    with pytest.raises(ConnectivityError):
        netlist.add_gate(
            "bad", library.get("NAND2"), [source, source],
            netlist.add_net("bad_y"), vt_overrides={1: -1.0},
        )
    assert len(source.fanouts) == fanout
    assert netlist.num_gate_inputs == count
    _assert_uid_contract(netlist)
    netlist.compile()


def test_gate_tables_are_private_copies_of_one_table_per_function():
    netlist = modules.array_multiplier(4, expanded=False)
    compiled = netlist.compile()
    tables = compiled.gate_tables
    assert len({id(table) for table in tables}) == len(tables)
    for gate, table in zip(netlist.gates.values(), tables):
        assert table == truth_table(gate.cell.function, len(gate.inputs))
