"""HALOTIS reproduction: high-accuracy logic timing simulation.

A from-scratch Python implementation of the system described in

    P. Ruiz de Clavijo, J. Juan-Chico, M.J. Bellido, A. Acosta,
    M. Valencia — "HALOTIS: High Accuracy LOgic TIming Simulator with
    inertial and degradation delay model", DATE 2001

plus every substrate its evaluation depends on: a gate-level netlist
layer with a characterised 0.6 um-like cell library, a transistor-level
transient simulator standing in for HSPICE, a classical inertial-delay
baseline, and drivers regenerating every table and figure of the paper.

Quick start::

    from repro import (array_multiplier, multiplication_sequence,
                       simulate, ddm_config)

    netlist = array_multiplier(4)
    stimulus = multiplication_sequence([(0x0, 0x0), (0x7, 0x7)])
    result = simulate(netlist, stimulus, config=ddm_config())
    print(result.stats.format())
    print(result.traces.word_at(9.9, "s", 8))   # -> 49

See README.md for the architecture overview and DESIGN.md for the
paper-to-module map.
"""

from .config import (
    DelayMode,
    InertialPolicy,
    SimulationConfig,
    cdm_config,
    ddm_config,
)
from .circuit.builder import CircuitBuilder
from .circuit.library import CellLibrary, default_library
from .circuit.modules import (
    array_multiplier,
    fig1_circuit,
    inverter_chain,
    ripple_adder,
)
from .circuit.netlist import Netlist
from .core.engine import (
    ENGINE_KINDS,
    EngineBase,
    HalotisSimulator,
    SimulationResult,
    make_engine,
    run_stimulus,
    simulate,
)
from .core.compiled import CompiledNetlist, CompiledSimulator, VectorSimulator
from .core.batch import BatchResult, simulate_batch
from .core.service import BatchJob, SimulationService
from .core.cdm import ConventionalDelayModel
from .core.ddm import DegradationDelayModel
from .stimuli.vectors import (
    PAPER_SEQUENCE_1,
    PAPER_SEQUENCE_2,
    VectorSequence,
    multiplication_sequence,
)
from .faults.campaign import DependabilityReport, run_campaign
from .faults.faultload import (
    FaultKind,
    FaultSpec,
    Faultload,
    generate_faultload,
)
from .faults.inject import FaultedStimulus

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "DelayMode",
    "InertialPolicy",
    "SimulationConfig",
    "ddm_config",
    "cdm_config",
    "CircuitBuilder",
    "CellLibrary",
    "default_library",
    "Netlist",
    "array_multiplier",
    "fig1_circuit",
    "inverter_chain",
    "ripple_adder",
    "ENGINE_KINDS",
    "EngineBase",
    "HalotisSimulator",
    "CompiledNetlist",
    "CompiledSimulator",
    "VectorSimulator",
    "SimulationResult",
    "BatchResult",
    "BatchJob",
    "SimulationService",
    "make_engine",
    "run_stimulus",
    "simulate",
    "simulate_batch",
    "DegradationDelayModel",
    "ConventionalDelayModel",
    "VectorSequence",
    "multiplication_sequence",
    "PAPER_SEQUENCE_1",
    "PAPER_SEQUENCE_2",
    "DependabilityReport",
    "FaultKind",
    "FaultSpec",
    "Faultload",
    "FaultedStimulus",
    "generate_faultload",
    "run_campaign",
]
