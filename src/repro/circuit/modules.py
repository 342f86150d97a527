"""Structural circuit generators.

Every circuit the paper's evaluation needs is generated here, plus a few
extras used by tests and the scaling study:

* :func:`inverter_chain` — delay-line test structure,
* :func:`fig1_circuit` — the paper's Figure 1 inertial-effect demonstrator,
* :func:`full_adder_nets` — the 9-NAND full adder used by Figure 5,
* :func:`array_multiplier` — the NxN array multiplier of Figure 5
  (``n=4`` reproduces the paper's circuit),
* :func:`ripple_adder`, :func:`parity_tree`, :func:`mux_tree`,
  :func:`decoder`, :func:`c17`, :func:`rs_latch` — additional substrates.

All generators can emit either *expanded* netlists (INV/NAND2 primitives
only — what the analog simulator consumes and what the paper experiments
use) or *macro* netlists (XOR2/MAJ3 library cells).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..errors import NetlistError
from .builder import CircuitBuilder
from .library import CellLibrary
from .netlist import Net, Netlist


# ----------------------------------------------------------------------
# small structures
# ----------------------------------------------------------------------

def inverter_chain(
    length: int,
    library: Optional[CellLibrary] = None,
    cell: str = "INV",
    name: str = "inv_chain",
) -> Netlist:
    """A chain of ``length`` inverters; input ``in``, outputs ``out1..N``.

    Every intermediate node is marked as an output so traces are recorded
    along the whole chain (the classic structure for watching a pulse
    degrade stage by stage).
    """
    if length < 1:
        raise NetlistError("chain length must be >= 1")
    builder = CircuitBuilder(library, name=name)
    node = builder.input("in")
    for stage in range(1, length + 1):
        node = builder.gate(cell, node)
        builder.output(node, "out%d" % stage)
    return builder.build()


def fig1_circuit(library: Optional[CellLibrary] = None) -> Netlist:
    """The paper's Figure 1 circuit.

    An input inverter ``g0`` drives net ``out0``, which fans out to two
    2-inverter chains whose first stages have different input thresholds:
    ``g1`` (cell ``INV_LT``, VT1 low) and ``g2`` (cell ``INV_HT``, VT2
    high).  A runt pulse on ``out0`` may cross one threshold and not the
    other, so the chains disagree — the situation a classical inertial
    delay model cannot represent.
    """
    builder = CircuitBuilder(library, name="fig1")
    node_in = builder.input("in")
    out0 = builder.gate("INV", node_in, name="g0")
    builder.output(out0, "out0")

    out1 = builder.gate("INV_LT", out0, name="g1")
    builder.output(out1, "out1")
    out1c = builder.gate("INV", out1, name="g1c")
    builder.output(out1c, "out1c")

    out2 = builder.gate("INV_HT", out0, name="g2")
    builder.output(out2, "out2")
    out2c = builder.gate("INV", out2, name="g2c")
    builder.output(out2c, "out2c")
    return builder.build()


def c17(library: Optional[CellLibrary] = None) -> Netlist:
    """The ISCAS-85 c17 benchmark (6 NAND2 gates)."""
    builder = CircuitBuilder(library, name="c17")
    n1 = builder.input("1")
    n2 = builder.input("2")
    n3 = builder.input("3")
    n6 = builder.input("6")
    n7 = builder.input("7")
    n10 = builder.nand(n1, n3, name="g10")
    n11 = builder.nand(n3, n6, name="g11")
    n16 = builder.nand(n2, n11, name="g16")
    n19 = builder.nand(n11, n7, name="g19")
    n22 = builder.nand(n10, n16, name="g22")
    n23 = builder.nand(n16, n19, name="g23")
    builder.output(n22, "22")
    builder.output(n23, "23")
    return builder.build()


def rs_latch(library: Optional[CellLibrary] = None) -> Netlist:
    """Cross-coupled NAND RS latch (active-low set/reset).

    A combinational loop: exercises the kernel's feedback handling and the
    degradation model's role in resolving short set/reset pulses.
    """
    builder = CircuitBuilder(library, name="rs_latch")
    set_n = builder.input("s_n")
    reset_n = builder.input("r_n")
    q = builder.net("q")
    qn = builder.net("qn")
    builder.gate("NAND2", set_n, qn, output=q, name="g_q")
    builder.gate("NAND2", reset_n, q, output=qn, name="g_qn")
    builder.output(q, "q")
    builder.output(qn, "qn")
    return builder.build(allow_cycles=True)


def ring_oscillator(
    stages: int, library: Optional[CellLibrary] = None
) -> Netlist:
    """An enable-gated ring oscillator with an odd number of stages.

    ``NAND(enable, feedback)`` followed by ``stages - 1`` inverters.
    """
    if stages < 3 or stages % 2 == 0:
        raise NetlistError("ring oscillator needs an odd stage count >= 3")
    builder = CircuitBuilder(library, name="ring%d" % stages)
    enable = builder.input("en")
    feedback = builder.net("osc")
    node = builder.gate("NAND2", enable, feedback, name="g_nand")
    for stage in range(stages - 2):
        node = builder.gate("INV", node, name="g_inv%d" % stage)
    builder.gate("INV", node, output=feedback, name="g_last")
    builder.output(feedback, "osc")
    return builder.build(allow_cycles=True)


# ----------------------------------------------------------------------
# arithmetic building blocks
# ----------------------------------------------------------------------

def xor2_nets(builder: CircuitBuilder, a: Net, b: Net, prefix: str) -> Net:
    """Expanded 2-input XOR: the 4-NAND2 macro.

    Returns the XOR output net.  This is the expansion the default
    library's ``XOR2`` cell was macro-characterised from.
    """
    n1 = builder.nand(a, b, name="%s_n1" % prefix)
    n2 = builder.nand(a, n1, name="%s_n2" % prefix)
    n3 = builder.nand(b, n1, name="%s_n3" % prefix)
    return builder.nand(n2, n3, name="%s_x" % prefix)


def and2_nets(builder: CircuitBuilder, a: Net, b: Net, prefix: str) -> Net:
    """Expanded 2-input AND: NAND2 followed by INV."""
    nand_out = builder.nand(a, b, name="%s_nd" % prefix)
    return builder.inv(nand_out, name="%s_inv" % prefix)


def full_adder_nets(
    builder: CircuitBuilder,
    a: Net,
    b: Net,
    cin: Net,
    prefix: str,
    expanded: bool = True,
) -> Tuple[Net, Net]:
    """One full adder; returns ``(sum, carry_out)``.

    With ``expanded=True`` (default, used by the paper experiments) the
    classic 9-NAND2 realisation is emitted:

        n1 = NAND(a, b)          n5 = NAND(x, cin)
        n2 = NAND(a, n1)         n6 = NAND(x, n5)
        n3 = NAND(b, n1)         n7 = NAND(cin, n5)
        x  = NAND(n2, n3)        s  = NAND(n6, n7)
                                 cout = NAND(n1, n5)

    With ``expanded=False`` the macro cells XOR2/MAJ3 are used instead.
    """
    if not expanded:
        x = builder.xor(a, b, name="%s_x" % prefix)
        total = builder.xor(x, cin, name="%s_s" % prefix)
        carry = builder.gate("MAJ3", a, b, cin, name="%s_c" % prefix)
        return total, carry

    n1 = builder.nand(a, b, name="%s_n1" % prefix)
    n2 = builder.nand(a, n1, name="%s_n2" % prefix)
    n3 = builder.nand(b, n1, name="%s_n3" % prefix)
    x = builder.nand(n2, n3, name="%s_x" % prefix)
    n5 = builder.nand(x, cin, name="%s_n5" % prefix)
    n6 = builder.nand(x, n5, name="%s_n6" % prefix)
    n7 = builder.nand(cin, n5, name="%s_n7" % prefix)
    total = builder.nand(n6, n7, name="%s_s" % prefix)
    carry = builder.nand(n1, n5, name="%s_co" % prefix)
    return total, carry


def _partial_product_name(i: int, j: int) -> str:
    """Name prefix of partial product ``pp[i][j]``.

    Indices below 10 concatenate (``pp31``), the names every existing
    golden and report uses; wider multipliers separate them so that
    ``pp[1][10]`` and ``pp[11][0]`` cannot both become ``pp110``.
    """
    if i < 10 and j < 10:
        return "pp%d%d" % (i, j)
    return "pp%d_%d" % (i, j)


def ripple_adder(
    width: int,
    library: Optional[CellLibrary] = None,
    expanded: bool = True,
) -> Netlist:
    """``width``-bit ripple-carry adder: inputs ``a*``, ``b*``, ``cin``;
    outputs ``s*`` and ``cout``."""
    if width < 1:
        raise NetlistError("adder width must be >= 1")
    builder = CircuitBuilder(library, name="rca%d" % width)
    a_bus = builder.input_bus("a", width)
    b_bus = builder.input_bus("b", width)
    carry = builder.input("cin")
    sums: List[Net] = []
    for bit in range(width):
        total, carry = full_adder_nets(
            builder, a_bus[bit], b_bus[bit], carry,
            prefix="fa%d" % bit, expanded=expanded,
        )
        sums.append(total)
    builder.output_bus(sums, "s")
    builder.output(carry, "cout")
    return builder.build()


def array_multiplier(
    width: int = 4,
    library: Optional[CellLibrary] = None,
    expanded: bool = True,
    name: Optional[str] = None,
) -> Netlist:
    """The paper's Figure 5 array multiplier, generalised to ``width`` bits.

    Structure (for ``width=4``, exactly the figure):

    * 16 partial products ``pp[i][j] = a[j] AND b[i]``;
    * three rows of four full adders; within a row the carry ripples from
      right to left (the figure's horizontal ``ci -> ci+1`` chains), with
      the row's rightmost carry-in tied to 0 (the figure's right-edge 0s);
    * row ``i``'s full adder ``j`` adds ``pp[i][j]`` to the shifted running
      sum ``S[i-1][j+1]``; the top row's missing ``S[0][4]`` is tied to 0
      (the figure's top-left 0);
    * outputs ``s0..s7``: ``s0 = pp[0][0]``, ``s1..s3`` are the rightmost
      sums of rows 1..3, ``s4..s6`` the remaining sums of the last row and
      ``s7`` its final carry.

    With ``expanded=True`` the netlist contains only INV/NAND2 cells
    (140 gates for ``width=4``), which is what both the HALOTIS engine and
    the analog substitute simulate in the paper experiments.
    """
    if width < 2:
        raise NetlistError("multiplier width must be >= 2")
    builder = CircuitBuilder(library, name=name or "mult%dx%d" % (width, width))
    a_bus = builder.input_bus("a", width)
    b_bus = builder.input_bus("b", width)
    zero = builder.constant(0)

    # Partial products pp[i][j] = a[j] & b[i].
    partial: List[List[Net]] = []
    for i in range(width):
        row: List[Net] = []
        for j in range(width):
            prefix = _partial_product_name(i, j)
            if expanded:
                row.append(and2_nets(builder, a_bus[j], b_bus[i], prefix))
            else:
                row.append(builder.and_(a_bus[j], b_bus[i], name=prefix))
        partial.append(row)

    outputs: List[Net] = [partial[0][0]]

    # Running sum of the previous row, aligned so that entry j is the bit
    # of weight (row_index + j).  Entry `width` is the previous row's
    # final carry (tie-0 above the first row).
    running: List[Net] = partial[0][1:] + [zero]

    last_row = width - 1
    for i in range(1, width):
        carry = zero
        sums: List[Net] = []
        for j in range(width):
            prefix = "fa_%d_%d" % (i, j)
            total, carry = full_adder_nets(
                builder, partial[i][j], running[j], carry,
                prefix=prefix, expanded=expanded,
            )
            sums.append(total)
        outputs.append(sums[0])
        if i == last_row:
            outputs.extend(sums[1:])
            outputs.append(carry)
        else:
            running = sums[1:] + [carry]

    builder.output_bus(outputs, "s")
    return builder.build()


def wallace_multiplier(
    width: int,
    library: Optional[CellLibrary] = None,
    expanded: bool = True,
) -> Netlist:
    """A Wallace-tree multiplier: same function as :func:`array_multiplier`,
    different topology.

    Partial products are reduced column-wise with 3:2 compressors (full
    adders) until every weight holds at most two bits, then a ripple adder
    produces the result.  Compared to the Figure 5 array the tree is
    shallower but has denser glitch clusters — a useful contrast workload
    for the degradation study.
    """
    if width < 2:
        raise NetlistError("multiplier width must be >= 2")
    builder = CircuitBuilder(library, name="wallace%dx%d" % (width, width))
    a_bus = builder.input_bus("a", width)
    b_bus = builder.input_bus("b", width)
    zero = builder.constant(0)

    columns: List[List[Net]] = [[] for _ in range(2 * width)]
    for i in range(width):
        for j in range(width):
            prefix = _partial_product_name(i, j)
            if expanded:
                product = and2_nets(builder, a_bus[j], b_bus[i], prefix)
            else:
                product = builder.and_(a_bus[j], b_bus[i], name=prefix)
            columns[i + j].append(product)

    stage = 0
    while any(len(column) > 2 for column in columns):
        next_columns: List[List[Net]] = [[] for _ in range(2 * width)]
        for weight, column in enumerate(columns):
            cursor = 0
            while len(column) - cursor >= 3:
                prefix = "w%d_%d_%d" % (stage, weight, cursor)
                total, carry = full_adder_nets(
                    builder, column[cursor], column[cursor + 1],
                    column[cursor + 2], prefix=prefix, expanded=expanded,
                )
                next_columns[weight].append(total)
                next_columns[weight + 1].append(carry)
                cursor += 3
            next_columns[weight].extend(column[cursor:])
        columns = next_columns
        stage += 1

    # Final two-operand addition, ripple style.
    outputs: List[Net] = []
    carry = zero
    for weight, column in enumerate(columns):
        first = column[0] if len(column) > 0 else zero
        second = column[1] if len(column) > 1 else zero
        prefix = "fin_%d" % weight
        total, carry = full_adder_nets(
            builder, first, second, carry, prefix=prefix, expanded=expanded
        )
        outputs.append(total)
    builder.output_bus(outputs, "s")
    return builder.build()


def kogge_stone_adder(
    width: int,
    library: Optional[CellLibrary] = None,
) -> Netlist:
    """A Kogge–Stone parallel-prefix adder (macro cells).

    Log-depth carry computation via (generate, propagate) prefix merges:
    ``G = g_hi OR (p_hi AND g_lo)``, ``P = p_hi AND p_lo``.  Inputs
    ``a*``/``b*``/``cin``; outputs ``s*`` and ``cout``.  A structurally
    different adder than the ripple chain, used to diversify the timing
    tests (its STA depth grows as log2(width)).
    """
    if width < 1:
        raise NetlistError("adder width must be >= 1")
    builder = CircuitBuilder(library, name="ks%d" % width)
    a_bus = builder.input_bus("a", width)
    b_bus = builder.input_bus("b", width)
    cin = builder.input("cin")

    generate: List[Net] = []
    propagate: List[Net] = []
    for bit in range(width):
        generate.append(builder.and_(a_bus[bit], b_bus[bit],
                                     name="g0_%d" % bit))
        propagate.append(builder.xor(a_bus[bit], b_bus[bit],
                                     name="p0_%d" % bit))

    # Prefix network; span doubles every level.
    level = 1
    span = 1
    current_g = list(generate)
    current_p = list(propagate)
    while span < width:
        next_g = list(current_g)
        next_p = list(current_p)
        for bit in range(span, width):
            lower = bit - span
            conj = builder.and_(current_p[bit], current_g[lower],
                                name="pg_%d_%d" % (level, bit))
            next_g[bit] = builder.or_(current_g[bit], conj,
                                      name="g_%d_%d" % (level, bit))
            next_p[bit] = builder.and_(current_p[bit], current_p[lower],
                                       name="p_%d_%d" % (level, bit))
        current_g = next_g
        current_p = next_p
        span *= 2
        level += 1

    # Carry into bit k: C_k = G_{k-1..0} OR (P_{k-1..0} AND cin); C_0 = cin.
    carries: List[Net] = [cin]
    for bit in range(1, width + 1):
        via_cin = builder.and_(current_p[bit - 1], cin,
                               name="cin_%d" % bit)
        carries.append(builder.or_(current_g[bit - 1], via_cin,
                                   name="c_%d" % bit))

    sums = [
        builder.xor(propagate[bit], carries[bit], name="s_%d" % bit)
        for bit in range(width)
    ]
    builder.output_bus(sums, "s")
    builder.output(carries[width], "cout")
    return builder.build()


# ----------------------------------------------------------------------
# other substrates (tests / scaling studies)
# ----------------------------------------------------------------------

def parity_tree(
    width: int,
    library: Optional[CellLibrary] = None,
    expanded: bool = False,
) -> Netlist:
    """Balanced XOR tree computing the parity of ``width`` inputs."""
    if width < 2:
        raise NetlistError("parity tree needs >= 2 inputs")
    builder = CircuitBuilder(library, name="parity%d" % width)
    level = builder.input_bus("x", width)
    depth = 0
    while len(level) > 1:
        next_level: List[Net] = []
        for pair in range(0, len(level) - 1, 2):
            prefix = "xt_%d_%d" % (depth, pair // 2)
            if expanded:
                next_level.append(
                    xor2_nets(builder, level[pair], level[pair + 1], prefix)
                )
            else:
                next_level.append(
                    builder.xor(level[pair], level[pair + 1], name=prefix)
                )
        if len(level) % 2:
            next_level.append(level[-1])
        level = next_level
        depth += 1
    builder.output(level[0], "parity")
    return builder.build()


def mux_tree(select_bits: int, library: Optional[CellLibrary] = None) -> Netlist:
    """A ``2**select_bits``-to-1 multiplexer tree of MUX2 cells."""
    if select_bits < 1:
        raise NetlistError("mux tree needs >= 1 select bit")
    builder = CircuitBuilder(library, name="mux%d" % (1 << select_bits))
    data = builder.input_bus("d", 1 << select_bits)
    select = builder.input_bus("sel", select_bits)
    level = data
    for stage in range(select_bits):
        next_level: List[Net] = []
        for pair in range(0, len(level), 2):
            next_level.append(
                builder.mux(
                    level[pair], level[pair + 1], select[stage],
                    name="mx_%d_%d" % (stage, pair // 2),
                )
            )
        level = next_level
    builder.output(level[0], "y")
    return builder.build()


def decoder(address_bits: int, library: Optional[CellLibrary] = None) -> Netlist:
    """``address_bits``-to-``2**address_bits`` one-hot decoder."""
    if address_bits < 1 or address_bits > 3:
        raise NetlistError("decoder supports 1..3 address bits")
    builder = CircuitBuilder(library, name="dec%d" % address_bits)
    address = builder.input_bus("a", address_bits)
    inverted = [builder.inv(net, name="ainv%d" % i) for i, net in enumerate(address)]
    for code in range(1 << address_bits):
        terms = [
            address[bit] if (code >> bit) & 1 else inverted[bit]
            for bit in range(address_bits)
        ]
        if len(terms) == 1:
            word = builder.buf(terms[0], name="y%d_buf" % code)
        else:
            word = builder.and_(*terms, name="y%d_and" % code)
        builder.output(word, "y%d" % code)
    return builder.build()


#: Circuits addressable by a plain name — the CLI's ``simulate
#: --circuit`` choices and the simulation server's ``builtin``
#: registration sources resolve through this one table.
BUILTIN_CIRCUITS = {
    "mult4": lambda: array_multiplier(4),
    "mult6": lambda: array_multiplier(6),
    "c17": c17,
    "chain8": lambda: inverter_chain(8),
    "rca8": lambda: ripple_adder(8),
    "parity8": lambda: parity_tree(8),
}
