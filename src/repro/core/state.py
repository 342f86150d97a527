"""Dynamic simulation state.

Separated from the static netlist so several simulators (HALOTIS-DDM,
HALOTIS-CDM, the classical baseline, the analog engine) can share one
:class:`repro.circuit.netlist.Netlist` instance without interference.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..circuit.evaluate import evaluate_netlist
from ..circuit.netlist import Netlist
from .events import Event


class GateState:
    """Per-gate dynamic state.

    Attributes:
        input_values: committed logic value per pin.
        output_value: logic value implied by the last emitted output
            transition (or the DC value before any emission).
        last_output_t50: mid-swing time of the last emitted output
            transition — the reference for the ``T`` of paper eq. 1; None
            until the gate first switches.
    """

    __slots__ = ("input_values", "output_value", "last_output_t50")

    def __init__(self, input_values: List[int], output_value: int):
        self.input_values = input_values
        self.output_value = output_value
        self.last_output_t50: Optional[float] = None


class KernelState:
    """Complete dynamic state of one HALOTIS run.

    Attributes:
        gate_states: :class:`GateState` per gate, indexed by ``gate.index``.
        input_event_stacks: per gate input (indexed by ``GateInput.uid``)
            the stack of surviving events — the paper's per-input
            ``Next``/``Prev`` event chain.  The top of the stack is the
            input's latest event ``Ej-1``; annihilation pops it.
        pi_values: current driven value per primary input net name.
    """

    def __init__(self, netlist: Netlist, initial_values: Dict[str, int]):
        self.gate_states: List[Optional[GateState]] = [None] * len(netlist.gates)
        for gate in netlist.gates.values():
            values = [initial_values[gi.net.name] for gi in gate.inputs]
            self.gate_states[gate.index] = GateState(
                values, initial_values[gate.output.name]
            )
        self.input_event_stacks: List[List[Event]] = [
            [] for _ in range(netlist.num_gate_inputs)
        ]
        self.pi_values: Dict[str, int] = {
            net.name: initial_values[net.name] for net in netlist.primary_inputs
        }


def build_state(
    netlist: Netlist,
    input_values: Dict[str, int],
    seed: Optional[Dict[str, int]] = None,
) -> KernelState:
    """DC-initialise ``netlist`` under ``input_values`` and wrap the result.

    Raises :class:`repro.errors.InitializationError` for feedback circuits
    that do not settle (see :mod:`repro.circuit.evaluate`).
    """
    values = evaluate_netlist(netlist, input_values, seed=seed)
    return KernelState(netlist, values)
