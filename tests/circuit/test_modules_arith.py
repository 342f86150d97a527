"""Wallace-tree multiplier and Kogge-Stone adder."""

import itertools

import pytest

from repro.circuit import modules
from repro.circuit.evaluate import bus_assignment, bus_value, evaluate_netlist
from repro.circuit.expand import is_primitive
from repro.errors import NetlistError


def test_wallace_4x4_exhaustive():
    netlist = modules.wallace_multiplier(4)
    for a in range(16):
        for b in range(16):
            values = dict(bus_assignment("a", 4, a))
            values.update(bus_assignment("b", 4, b))
            assert bus_value(evaluate_netlist(netlist, values), "s", 8) == a * b


def test_wallace_is_primitive_when_expanded():
    netlist = modules.wallace_multiplier(4)
    assert is_primitive(netlist)


def test_wallace_macro_variant():
    netlist = modules.wallace_multiplier(3, expanded=False)
    for a, b in [(0, 0), (7, 7), (5, 6), (3, 4)]:
        values = dict(bus_assignment("a", 3, a))
        values.update(bus_assignment("b", 3, b))
        assert bus_value(evaluate_netlist(netlist, values), "s", 6) == a * b


def test_wallace_shallower_than_array():
    """The tree's raison d'etre: lower logic depth at equal width."""
    from repro.circuit import stats

    array = stats.gather(modules.array_multiplier(6))
    wallace = stats.gather(modules.wallace_multiplier(6))
    assert wallace.logic_depth < array.logic_depth


def test_wallace_width_bounds():
    with pytest.raises(NetlistError):
        modules.wallace_multiplier(1)


@pytest.mark.parametrize("width", [1, 4, 6])
def test_kogge_stone_exhaustive_or_sampled(width):
    netlist = modules.kogge_stone_adder(width)
    mask = (1 << width) - 1
    if width <= 4:
        cases = itertools.product(range(mask + 1), range(mask + 1), (0, 1))
    else:
        cases = [
            (0, 0, 0), (mask, mask, 1), (mask, 1, 0), (21 & mask, 42 & mask, 1),
            (0b101010 & mask, 0b010101 & mask, 0),
        ]
    for a, b, cin in cases:
        values = dict(bus_assignment("a", width, a))
        values.update(bus_assignment("b", width, b))
        values["cin"] = cin
        result = evaluate_netlist(netlist, values)
        total = bus_value(result, "s", width) | (result["cout"] << width)
        assert total == a + b + cin, (a, b, cin)


def test_kogge_stone_log_depth():
    """Prefix depth grows as log2(width): constant-ish beyond 8 bits,
    while the ripple chain grows linearly."""
    from repro.circuit import stats

    ripple16 = stats.gather(modules.ripple_adder(16, expanded=False))
    prefix16 = stats.gather(modules.kogge_stone_adder(16))
    prefix8 = stats.gather(modules.kogge_stone_adder(8))
    assert prefix16.logic_depth < ripple16.logic_depth
    assert prefix16.logic_depth - prefix8.logic_depth <= 2


def test_kogge_stone_simulates(mult4):
    from repro.config import ddm_config
    from repro.core.engine import simulate
    from repro.stimuli.vectors import VectorSequence

    netlist = modules.kogge_stone_adder(4)
    values = dict(bus_assignment("a", 4, 9))
    values.update(bus_assignment("b", 4, 7))
    values["cin"] = 1
    stimulus = VectorSequence([(0.0, {k: 0 for k in values}), (3.0, values)],
                              tail=5.0)
    result = simulate(netlist, stimulus, config=ddm_config())
    total = sum(result.final_values["s%d" % k] << k for k in range(4))
    total |= result.final_values["cout"] << 4
    assert total == 17


@pytest.mark.parametrize("width", [12, 16])
@pytest.mark.parametrize(
    "generator", [modules.array_multiplier, modules.wallace_multiplier]
)
def test_wide_multipliers_build_and_multiply(generator, width):
    """Two-digit partial-product indices must not collide (pp[1][10]
    and pp[11][0] once both became ``pp110``)."""
    netlist = generator(width)
    assert "pp1_10_nd" in netlist.gates and "pp11_0_nd" in netlist.gates
    assert "pp91_nd" in netlist.gates  # single-digit names are unchanged
    mask = (1 << width) - 1
    for a, b in [(0, 0), (mask, mask), (mask, 1), (0x5A5 & mask, 0xC3C & mask)]:
        values = dict(bus_assignment("a", width, a))
        values.update(bus_assignment("b", width, b))
        assert bus_value(evaluate_netlist(netlist, values), "s", 2 * width) == a * b
