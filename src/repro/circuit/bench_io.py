"""ISCAS-85 ``.bench`` netlist reader and writer.

The ``.bench`` format is the lingua franca of the classic logic-synthesis
benchmarks::

    # comment
    INPUT(G1)
    OUTPUT(G17)
    G10 = NAND(G1, G3)
    G17 = NOT(G10)

The reader maps functions onto default-library cells, decomposing fanins
wider than the library limit into balanced trees.  ``DFF`` is rejected
explicitly: the HALOTIS reproduction is combinational (see DESIGN.md).
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple, Union

from ..errors import ParseError
from .builder import CircuitBuilder
from .gates import MAX_LIBRARY_FANIN, cell_name_for
from .library import CellLibrary
from .logic import GateFunction
from .netlist import Net, Netlist

_FUNCTION_NAMES = {
    "AND": GateFunction.AND,
    "NAND": GateFunction.NAND,
    "OR": GateFunction.OR,
    "NOR": GateFunction.NOR,
    "XOR": GateFunction.XOR,
    "XNOR": GateFunction.XNOR,
    "NOT": GateFunction.INV,
    "INV": GateFunction.INV,
    "BUF": GateFunction.BUF,
    "BUFF": GateFunction.BUF,
}

_ASSIGN_RE = re.compile(
    r"^(?P<out>[^\s=]+)\s*=\s*(?P<func>[A-Za-z]+)\s*\((?P<args>[^)]*)\)\s*$"
)
_IO_RE = re.compile(r"^(?P<kind>INPUT|OUTPUT)\s*\((?P<name>[^)]+)\)\s*$", re.I)


def read_bench(
    source: Union[str, Path],
    library: Optional[CellLibrary] = None,
    name: Optional[str] = None,
    allow_cycles: bool = False,
) -> Netlist:
    """Parse ``.bench`` text (or a file path) into a :class:`Netlist`.

    ``allow_cycles`` relaxes the build-time ERC the same way
    ``CircuitBuilder.build(allow_cycles=True)`` does, so ``repro lint
    --allow-cycles`` can load (and report on) a cyclic bench file
    instead of dying at parse time.
    """
    if isinstance(source, Path):
        with open(source) as handle:
            text = handle.read()
        name = name or source.stem
    elif "\n" not in source and source.endswith(".bench"):
        with open(source) as handle:
            text = handle.read()
        name = name or Path(source).stem
    else:
        text = source
        name = name or "bench"

    inputs: List[str] = []
    outputs: List[str] = []
    assignments: List[Tuple[int, str, GateFunction, List[str]]] = []

    for line_number, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        io_match = _IO_RE.match(line)
        if io_match:
            target = inputs if io_match.group("kind").upper() == "INPUT" else outputs
            target.append(io_match.group("name").strip())
            continue
        assign_match = _ASSIGN_RE.match(line)
        if assign_match:
            func_name = assign_match.group("func").upper()
            if func_name == "DFF":
                raise ParseError(
                    "sequential element DFF is not supported (combinational "
                    "reproduction; see DESIGN.md)",
                    line_number,
                )
            if func_name not in _FUNCTION_NAMES:
                raise ParseError("unknown function %r" % func_name, line_number)
            args = [a.strip() for a in assign_match.group("args").split(",") if a.strip()]
            if not args:
                raise ParseError("gate with no inputs", line_number)
            assignments.append(
                (line_number, assign_match.group("out").strip(),
                 _FUNCTION_NAMES[func_name], args)
            )
            continue
        raise ParseError("unrecognised line %r" % raw_line.strip(), line_number)

    return _build(name, library, inputs, outputs, assignments, allow_cycles)


def _build(
    name: str,
    library: Optional[CellLibrary],
    inputs: List[str],
    outputs: List[str],
    assignments: List[Tuple[int, str, GateFunction, List[str]]],
    allow_cycles: bool = False,
) -> Netlist:
    builder = CircuitBuilder(library, name=name)
    nets: Dict[str, Net] = {}
    for input_name in inputs:
        if input_name in nets:
            raise ParseError("duplicate INPUT(%s)" % input_name)
        nets[input_name] = builder.input(input_name)

    # Declare every assigned net up front so gates may reference nets that
    # are defined later in the file (the format allows any order).
    for line_number, out_name, _func, _args in assignments:
        if out_name in nets:
            raise ParseError("net %r assigned twice" % out_name, line_number)
        nets[out_name] = builder.net(out_name)

    for line_number, out_name, function, args in _drivers_first(assignments):
        try:
            arg_nets = [nets[arg] for arg in args]
        except KeyError as exc:
            raise ParseError(
                "gate %r references undefined net %s" % (out_name, exc), line_number
            ) from None
        _emit(builder, function, arg_nets, nets[out_name], out_name)

    for output_name in outputs:
        if output_name not in nets:
            raise ParseError("OUTPUT(%s) references undefined net" % output_name)
        builder.output(nets[output_name])
    return builder.build(allow_cycles=allow_cycles)


def _drivers_first(
    assignments: List[Tuple[int, str, GateFunction, List[str]]],
) -> List[Tuple[int, str, GateFunction, List[str]]]:
    """``assignments`` with every gate after the gates driving its
    inputs, in file order wherever the file already has that order.

    Gates are numbered, and their pins given uids, in the order they are
    built, and every kernel breaks time ties by pin uid; built
    drivers-first, the uids grow along every path, which exact cone
    runs (:mod:`repro.faults.differential`) rely on.  The order is a
    depth-first post-order; it skips the edge that closes a cycle, so
    a cyclic file (``allow_cycles``) still builds every gate once.
    """
    by_output = {assignment[1]: assignment for assignment in assignments}
    placed: Set[str] = set()  # outputs emitted or on the current path
    order: List[Tuple[int, str, GateFunction, List[str]]] = []
    for root in assignments:
        if root[1] in placed:
            continue
        placed.add(root[1])
        path = [(root, iter(root[3]))]
        while path:
            assignment, args = path[-1]
            for arg in args:
                driver = by_output.get(arg)
                if driver is not None and arg not in placed:
                    placed.add(arg)
                    path.append((driver, iter(driver[3])))
                    break
            else:
                path.pop()
                order.append(assignment)
    return order


def _emit(
    builder: CircuitBuilder,
    function: GateFunction,
    args: List[Net],
    output: Net,
    out_name: str,
) -> None:
    """Instantiate ``function`` onto ``output``, decomposing wide fanins."""
    arity = len(args)
    if function in (GateFunction.INV, GateFunction.BUF):
        if arity != 1:
            raise ParseError("%s expects 1 input, got %d" % (function.name, arity))
        cell = "INV" if function is GateFunction.INV else "BUF"
        builder.gate(cell, args[0], output=output, name="g_%s" % out_name)
        return
    if arity == 1:
        # Single-input AND/OR/XOR degenerate to a buffer; NAND/NOR/XNOR to
        # an inverter.
        cell = "INV" if function.is_inverting else "BUF"
        builder.gate(cell, args[0], output=output, name="g_%s" % out_name)
        return
    if function in (GateFunction.XOR, GateFunction.XNOR):
        _emit_xor_chain(builder, function, args, output, out_name)
        return
    if arity <= MAX_LIBRARY_FANIN and function is GateFunction.NAND:
        builder.gate(cell_name_for(function, arity), *args, output=output,
                     name="g_%s" % out_name)
        return
    if arity <= 3 and function in (GateFunction.NOR, GateFunction.AND, GateFunction.OR):
        builder.gate(cell_name_for(function, arity), *args, output=output,
                     name="g_%s" % out_name)
        return
    _emit_tree(builder, function, args, output, out_name)


def _emit_tree(
    builder: CircuitBuilder,
    function: GateFunction,
    args: List[Net],
    output: Net,
    out_name: str,
) -> None:
    """Balanced AND2/OR2 reduction tree, inverted at the root if needed."""
    conjunctive = function in (GateFunction.AND, GateFunction.NAND)
    reduce_cell = "AND2" if conjunctive else "OR2"
    counter = 0
    level = list(args)
    while len(level) > 2:
        next_level: List[Net] = []
        for pair in range(0, len(level) - 1, 2):
            next_level.append(
                builder.gate(
                    reduce_cell, level[pair], level[pair + 1],
                    name="g_%s_t%d" % (out_name, counter),
                )
            )
            counter += 1
        if len(level) % 2:
            next_level.append(level[-1])
        level = next_level
    root_function = {
        GateFunction.AND: "AND2",
        GateFunction.NAND: "NAND2",
        GateFunction.OR: "OR2",
        GateFunction.NOR: "NOR2",
    }[function]
    builder.gate(root_function, level[0], level[1], output=output,
                 name="g_%s" % out_name)


def _emit_xor_chain(
    builder: CircuitBuilder,
    function: GateFunction,
    args: List[Net],
    output: Net,
    out_name: str,
) -> None:
    accumulator = args[0]
    for position, operand in enumerate(args[1:-1]):
        accumulator = builder.xor(
            accumulator, operand, name="g_%s_x%d" % (out_name, position)
        )
    root = "XOR2" if function is GateFunction.XOR else "XNOR2"
    builder.gate(root, accumulator, args[-1], output=output, name="g_%s" % out_name)


# ----------------------------------------------------------------------
# writer
# ----------------------------------------------------------------------

_WRITE_NAMES = {
    GateFunction.AND: "AND",
    GateFunction.NAND: "NAND",
    GateFunction.OR: "OR",
    GateFunction.NOR: "NOR",
    GateFunction.XOR: "XOR",
    GateFunction.XNOR: "XNOR",
    GateFunction.INV: "NOT",
    GateFunction.BUF: "BUFF",
}


def write_bench(netlist: Netlist) -> str:
    """Serialise a netlist to ``.bench`` text.

    Only gates whose function exists in the format are supported (MUX/AOI
    cells must be expanded first).  Constants are not representable in
    ``.bench`` and raise.
    """
    lines: List[str] = ["# %s — written by repro.circuit.bench_io" % netlist.name]
    for net in netlist.primary_inputs:
        lines.append("INPUT(%s)" % net.name)
    for net in netlist.primary_outputs:
        lines.append("OUTPUT(%s)" % net.name)
    for gate in netlist.topological_gates():
        function = gate.cell.function
        if function not in _WRITE_NAMES:
            raise ParseError(
                "cell %s (%s) has no .bench equivalent; expand it first"
                % (gate.cell.name, function.name)
            )
        for gate_input in gate.inputs:
            if gate_input.net.is_constant:
                raise ParseError(
                    ".bench cannot express constant net %r" % gate_input.net.name
                )
        args = ", ".join(gi.net.name for gi in gate.inputs)
        lines.append("%s = %s(%s)" % (gate.output.name, _WRITE_NAMES[function], args))
    return "\n".join(lines) + "\n"
