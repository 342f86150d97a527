"""Zero-delay functional evaluation of netlists.

Used for DC initialisation of the timing simulators and for exhaustive
functional tests (e.g. checking the Figure 5 multiplier against integer
multiplication for all 256 input pairs).

Acyclic netlists are evaluated in topological order.  Cyclic netlists
(latches, ring oscillators) fall back to Gauss–Seidel relaxation from a
seed assignment; if no fixpoint is reached within the iteration budget an
:class:`repro.errors.InitializationError` is raised — the circuit is
unstable under the given inputs (e.g. a ring oscillator with enable high).
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

from ..errors import InitializationError, NetlistError, StimulusError
from .logic import evaluate as evaluate_function
from .netlist import Netlist

#: Default relaxation budget (sweeps) for cyclic netlists; the lowering's
#: DC-init (:meth:`repro.core.compiled.CompiledNetlist.dc_relax`) uses it too.
MAX_RELAX_SWEEPS = 1000


def evaluate_netlist(
    netlist: Netlist,
    input_values: Mapping[str, int],
    seed: Optional[Mapping[str, int]] = None,
    max_iterations: int = MAX_RELAX_SWEEPS,
) -> Dict[str, int]:
    """Return the steady-state value of every net under ``input_values``.

    Args:
        netlist: the circuit.
        input_values: value for *every* primary input, keyed by net name.
        seed: starting values for internal nets, used only by the cyclic
            fallback (defaults to 0 for unlisted nets).
        max_iterations: relaxation budget for cyclic netlists.

    Raises:
        StimulusError: a primary input is missing or a value is not 0/1.
        InitializationError: a cyclic netlist failed to reach a fixpoint.
    """
    values: Dict[str, int] = {}
    for net in netlist.primary_inputs:
        if net.name not in input_values:
            raise StimulusError("missing value for primary input %r" % net.name)
        value = input_values[net.name]
        if value not in (0, 1):
            raise StimulusError(
                "input %r: value must be 0 or 1, got %r" % (net.name, value)
            )
        values[net.name] = value
    for name in input_values:
        if name not in netlist.nets or not netlist.nets[name].is_primary_input:
            raise StimulusError("%r is not a primary input" % name)
    for net in netlist.nets.values():
        if net.is_constant:
            values[net.name] = net.constant_value

    try:
        order = netlist.topological_gates()
    except NetlistError:  # a combinational cycle; anything else is a bug
        return _relax(netlist, values, seed or {}, max_iterations)

    for gate in order:
        operands = [values[gi.net.name] for gi in gate.inputs]
        values[gate.output.name] = evaluate_function(gate.cell.function, operands)
    return values


def _relax(
    netlist: Netlist,
    fixed: Dict[str, int],
    seed: Mapping[str, int],
    max_iterations: int,
) -> Dict[str, int]:
    values = dict(fixed)
    for net in netlist.nets.values():
        if net.name not in values:
            values[net.name] = seed.get(net.name, 0)
    gates = list(netlist.gates.values())
    for _iteration in range(max_iterations):
        changed = False
        for gate in gates:
            operands = [values[gi.net.name] for gi in gate.inputs]
            new_value = evaluate_function(gate.cell.function, operands)
            if values[gate.output.name] != new_value:
                values[gate.output.name] = new_value
                changed = True
        if not changed:
            return values
    raise InitializationError(
        "netlist %r did not reach a stable state after %d relaxation sweeps; "
        "provide a consistent seed or different inputs"
        % (netlist.name, max_iterations)
    )


def bus_value(values: Mapping[str, int], prefix: str, width: int) -> int:
    """Assemble the integer value of bus ``prefix0..prefix{w-1}`` (LSB 0)."""
    word = 0
    for bit in range(width):
        word |= (values["%s%d" % (prefix, bit)] & 1) << bit
    return word


def bus_assignment(prefix: str, width: int, word: int) -> Dict[str, int]:
    """Spread integer ``word`` onto bus inputs ``prefix0..prefix{w-1}``."""
    if word < 0 or word >= (1 << width):
        raise StimulusError(
            "value %d does not fit in %d-bit bus %r" % (word, width, prefix)
        )
    return {"%s%d" % (prefix, bit): (word >> bit) & 1 for bit in range(width)}
