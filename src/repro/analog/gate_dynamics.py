"""Analog models of the primitive CMOS gates.

Each primitive cell is a complementary gate: a pull-down network of NMOS
devices to ground and the dual pull-up network of PMOS devices to VDD.
The simulator only needs the *net current* a gate injects into its output
node given the input and output voltages:

* inverter — one device each side;
* NAND — series pull-down (modelled as a single device whose gate drive
  is the weakest input and whose width is the per-device width divided by
  the stack depth), parallel pull-up (sum of per-input currents);
* NOR — the mirror image.

The series-stack collapse is the standard first-order approximation: it
preserves the properties that matter here (current vanishes when any
series input is off; the stack is as strong as its weakest drive; sizing
``wn = stack_depth`` restores inverter-equivalent strength).

Per-cell device widths also realise the skewed inverters ``INV_LT`` /
``INV_HT`` whose DC thresholds the Figure 1 experiment relies on.
"""

from __future__ import annotations

import dataclasses
from typing import Dict

import numpy as np

from ..errors import LibraryError
from .device import MosfetParams, mosfet_current
from .technology import Technology


@dataclasses.dataclass(frozen=True)
class AnalogCell:
    """Analog description of one primitive cell.

    Attributes:
        name: library cell name this models.
        kind: ``"inv"``, ``"nand"`` or ``"nor"``.
        num_inputs: stack depth / input count.
        wn / wp: per-device NMOS / PMOS widths (unit-inverter relative).
    """

    name: str
    kind: str
    num_inputs: int
    wn: float
    wp: float


#: Analog models for every cell the expansion pass can emit.  The skewed
#: inverters' width ratios put their DC switching thresholds near the
#: library's VT values (1.6 V / 3.4 V); verified by unit tests against
#: :func:`repro.analog.device.dc_inverter_threshold`.
ANALOG_CELLS: Dict[str, AnalogCell] = {
    "INV": AnalogCell("INV", "inv", 1, wn=1.0, wp=1.0),
    "INV_LT": AnalogCell("INV_LT", "inv", 1, wn=1.0, wp=0.23),
    "INV_HT": AnalogCell("INV_HT", "inv", 1, wn=0.40, wp=2.50),
    "INV_X2": AnalogCell("INV_X2", "inv", 1, wn=2.0, wp=2.0),
    "NAND2": AnalogCell("NAND2", "nand", 2, wn=2.0, wp=1.0),
    "NAND2_X2": AnalogCell("NAND2_X2", "nand", 2, wn=4.0, wp=2.0),
    "NAND3": AnalogCell("NAND3", "nand", 3, wn=3.0, wp=1.0),
    "NAND4": AnalogCell("NAND4", "nand", 4, wn=4.0, wp=1.0),
    "NOR2": AnalogCell("NOR2", "nor", 2, wn=1.0, wp=2.0),
    "NOR3": AnalogCell("NOR3", "nor", 3, wn=1.0, wp=3.0),
}


def analog_cell(name: str) -> AnalogCell:
    try:
        return ANALOG_CELLS[name]
    except KeyError:
        raise LibraryError(
            "cell %r has no analog model; expand the netlist to primitives "
            "first (repro.circuit.expand)" % name
        ) from None


def output_current(
    cell: AnalogCell,
    tech: Technology,
    vin: np.ndarray,
    vout: np.ndarray,
) -> np.ndarray:
    """Net current (uA) into the output node, vectorised over instances.

    Args:
        cell: the analog cell (all instances share widths).
        tech: process constants.
        vin: input voltages, shape ``(instances, num_inputs)``.
        vout: output voltages, shape ``(instances,)``.

    Returns positive values when the gate charges the node (pull-up wins).
    """
    nparams = MosfetParams.nmos(tech)
    pparams = MosfetParams.pmos(tech)
    vdd = tech.vdd

    if cell.kind == "inv":
        vg = vin[:, 0]
        pull_down = mosfet_current(nparams, vg, vout, cell.wn)
        pull_up = mosfet_current(pparams, vdd - vg, vdd - vout, cell.wp)
    elif cell.kind == "nand":
        effective_drive = vin.min(axis=1)
        series_width = cell.wn / cell.num_inputs
        pull_down = mosfet_current(nparams, effective_drive, vout, series_width)
        pull_up = np.zeros_like(vout)
        for pin in range(cell.num_inputs):
            pull_up = pull_up + mosfet_current(
                pparams, vdd - vin[:, pin], vdd - vout, cell.wp
            )
    elif cell.kind == "nor":
        effective_drive = vdd - vin.max(axis=1)
        series_width = cell.wp / cell.num_inputs
        pull_up = mosfet_current(pparams, effective_drive, vdd - vout, series_width)
        pull_down = np.zeros_like(vout)
        for pin in range(cell.num_inputs):
            pull_down = pull_down + mosfet_current(
                nparams, vin[:, pin], vout, cell.wn
            )
    else:  # pragma: no cover - ANALOG_CELLS only contains the three kinds
        raise LibraryError("unknown analog cell kind %r" % cell.kind)

    # Tiny symmetric leak keeps node voltages bounded and the ODE smooth
    # near the rails.
    leak = tech.leak * ((vdd - vout) - vout)
    return pull_up - pull_down + leak


def dc_threshold(cell: AnalogCell, tech: Technology, pin: int,
                 tolerance: float = 1e-4) -> float:
    """Switching threshold of ``pin``: the input voltage at which the gate
    current balances with the output held at VDD/2, the other inputs tied
    to their non-controlling values.

    This generalises :func:`repro.analog.device.dc_inverter_threshold` to
    stacked gates and is what the characterisation flow reports as each
    pin's ``VT``.
    """
    if not 0 <= pin < cell.num_inputs:
        raise LibraryError("pin %d out of range for %s" % (pin, cell.name))
    vdd = tech.vdd
    non_controlling = vdd if cell.kind in ("inv", "nand") else 0.0
    vout = np.array([vdd / 2.0])

    def net_current(v_pin: float) -> float:
        vin = np.full((1, cell.num_inputs), non_controlling)
        vin[0, pin] = v_pin
        return float(output_current(cell, tech, vin, vout)[0])

    # net_current is monotone decreasing in v_pin for inv/nand (rising
    # input turns pull-down on) and also decreasing for nor.  Bisect for
    # the zero crossing.
    low, high = 0.0, vdd
    while high - low > tolerance:
        mid = 0.5 * (low + high)
        if net_current(mid) <= 0.0:
            high = mid
        else:
            low = mid
    return 0.5 * (low + high)
