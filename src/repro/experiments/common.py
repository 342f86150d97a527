"""Shared fixtures of the paper's evaluation.

The evaluation circuit is the Figure 5 4x4 array multiplier (built from
INV/NAND2 primitives, see :func:`repro.circuit.modules.array_multiplier`),
driven by two 5-vector operand sequences with a 5 ns period — a 25 ns
simulated window, exactly the x-axis of Figures 6 and 7.
"""

from __future__ import annotations

import functools
from typing import List, Optional

from ..analog.simulator import AnalogResult, AnalogSimulator
from ..circuit import modules
from ..circuit.netlist import Netlist
from ..config import DelayMode, SimulationConfig, cdm_config, ddm_config
from ..core.batch import BatchResult, simulate_batch
from ..core.engine import SimulationResult, simulate
from ..stimuli.vectors import (
    PAPER_SEQUENCE_1,
    PAPER_SEQUENCE_2,
    VectorSequence,
    multiplication_sequence,
)

#: Multiplier operand width used throughout the paper.
WIDTH = 4
#: Output bus: s0..s7.
OUTPUT_PREFIX = "s"
OUTPUT_WIDTH = 2 * WIDTH
#: Vector period in ns (Figures 6/7 x-axis: 5 vectors over 25 ns).
PERIOD = 5.0
#: Primary-input ramp duration in ns.
INPUT_SLEW = 0.20
#: Analog integration step in ns.
ANALOG_DT = 0.002

SEQUENCE_LABELS = {
    1: "0x0, 7x7, 5xA, Ex6, FxF",
    2: "0x0, FxF, 0x0, FxF, 0x0",
}
SEQUENCE_OPERANDS = {
    1: PAPER_SEQUENCE_1,
    2: PAPER_SEQUENCE_2,
}

#: Paper Table 1 reference values:
#: sequence -> (ddm_events, cdm_events, overestimation_%, ddm_filtered,
#: cdm_filtered).
PAPER_TABLE1 = {
    1: (959, 1411, 47, 27, 1),
    2: (1312, 1992, 52, 66, 6),
}

#: Paper Table 2 reference values: sequence -> (hspice_s, ddm_s, cdm_s).
PAPER_TABLE2 = {
    1: (112.9, 0.39, 0.55),
    2: (123.0, 0.48, 0.76),
}


@functools.lru_cache(maxsize=None)
def multiplier_netlist(width: int = WIDTH) -> Netlist:
    """The (cached, immutable-by-convention) Figure 5 multiplier."""
    return modules.array_multiplier(width)


def paper_stimulus(which: int, period: float = PERIOD,
                   slew: float = INPUT_SLEW) -> VectorSequence:
    """The Figure 6 (``which=1``) or Figure 7 (``which=2``) stimulus."""
    operands = SEQUENCE_OPERANDS[which]
    return multiplication_sequence(
        operands, width=WIDTH, period=period, slew=slew, tail=period
    )


def expected_words(which: int) -> List[int]:
    """The correct product for each vector of the sequence."""
    return [a * b for a, b in SEQUENCE_OPERANDS[which]]


def sample_times(which: int, period: float = PERIOD,
                 margin: float = 0.1) -> List[float]:
    """End-of-period instants at which every engine should have settled."""
    count = len(SEQUENCE_OPERANDS[which])
    return [(k + 1) * period - margin for k in range(count)]


def run_halotis(
    which: int,
    mode: DelayMode,
    record_traces: bool = True,
    engine_kind: str = "reference",
) -> SimulationResult:
    """Simulate a paper sequence with HALOTIS-DDM or HALOTIS-CDM.

    ``engine_kind`` picks the backend (``"reference"`` or
    ``"compiled"``); both reproduce the paper numbers identically.
    """
    config = ddm_config() if mode is DelayMode.DDM else cdm_config()
    if not record_traces:
        config = SimulationConfig(
            delay_mode=config.delay_mode, record_traces=False
        )
    return simulate(
        multiplier_netlist(),
        paper_stimulus(which),
        config=config,
        engine_kind=engine_kind,
    )


def paper_stimulus_batch(period: float = PERIOD,
                         slew: float = INPUT_SLEW) -> List[VectorSequence]:
    """Both paper sequences as one batch (index 0 = Figure 6, 1 = Figure 7)."""
    return [paper_stimulus(which, period=period, slew=slew)
            for which in sorted(SEQUENCE_OPERANDS)]


def run_halotis_batch(
    mode: DelayMode,
    record_traces: bool = True,
    engine_kind: str = "reference",
    jobs: int = 1,
) -> BatchResult:
    """Both paper sequences through one lowering via
    :func:`repro.core.batch.simulate_batch`.

    Result ``which - 1`` equals ``run_halotis(which, ...)`` under the
    engine's own contract: bit-identical for the exact-timing engines
    (``engine_kind="vector"`` runs both sequences as one N=2 lockstep
    batch), final values and settled words for ``"bitparallel"``, whose
    event times follow the word contract (docs/architecture.md).
    ``jobs > 1`` runs the two sequences on an ephemeral worker pool.
    """
    config = ddm_config() if mode is DelayMode.DDM else cdm_config()
    if not record_traces:
        config = SimulationConfig(
            delay_mode=config.delay_mode, record_traces=False
        )
    return simulate_batch(
        multiplier_netlist(),
        paper_stimulus_batch(),
        config=config,
        engine_kind=engine_kind,
        jobs=jobs,
    )


def run_halotis_remote(
    mode: DelayMode,
    record_traces: bool = True,
    engine_kind: str = "compiled",
    workers: int = 2,
    address: Optional[str] = None,
) -> BatchResult:
    """Both paper sequences through a *network* simulation server.

    ``address`` (``"host:port"``) targets an already-running
    ``repro serve`` instance — the deployment shape where one warm
    server answers many experiment drivers; ``None`` spins up a private
    in-process server on an ephemeral port just for this call.  Either
    way the multiplier is registered as a builtin (the server rebuilds
    the identical Figure 5 netlist) and result ``which - 1`` is
    bit-identical to ``run_halotis(which, ...)`` with the same knobs —
    the wire changes where simulation happens, never what it computes.
    """
    import time

    from ..server.app import SimulationServer
    from ..server.client import SimulationClient, parse_address

    stimuli = paper_stimulus_batch()
    name = "mult4.%s.%s" % (mode.value, engine_kind)

    def run_on(client: SimulationClient) -> BatchResult:
        client.register(
            name,
            {"kind": "builtin", "name": "mult4"},
            mode=mode.value,
            engine_kind=engine_kind,
            workers=workers,
            record_traces=record_traces,
        )
        start = time.perf_counter()
        results = client.simulate_batch(name, stimuli)
        return BatchResult(
            results=results,
            engine_kind=engine_kind,
            jobs=workers,
            lowering_seconds=0.0,
            wall_seconds=time.perf_counter() - start,
        )

    if address is not None:
        host, port = parse_address(address)
        with SimulationClient(host, port) as client:
            return run_on(client)
    server = SimulationServer(port=0, pool_workers=workers)
    server.start_background(30.0)
    try:
        with SimulationClient(server.host, server.port) as client:
            return run_on(client)
    finally:
        server.stop_and_join(30.0)


def run_analog(which: int, dt: float = ANALOG_DT,
               record_stride: int = 5) -> AnalogResult:
    """Simulate a paper sequence with the electrical substitute."""
    simulator = AnalogSimulator(multiplier_netlist(), dt=dt)
    return simulator.run(
        paper_stimulus(which), input_slew=INPUT_SLEW, record_stride=record_stride
    )


def output_nets() -> List[str]:
    return ["%s%d" % (OUTPUT_PREFIX, bit) for bit in range(OUTPUT_WIDTH)]


def settled_words_logic(result: SimulationResult, which: int) -> List[int]:
    return [
        result.traces.word_at(t, OUTPUT_PREFIX, OUTPUT_WIDTH)
        for t in sample_times(which)
    ]


def settled_words_analog(result: AnalogResult, which: int) -> List[int]:
    return [
        result.word_at(t, OUTPUT_PREFIX, OUTPUT_WIDTH)
        for t in sample_times(which)
    ]
