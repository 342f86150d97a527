#!/usr/bin/env python
"""Full flow on an ISCAS-style `.bench` circuit.

Run:  python examples/bench_flow.py [circuit.bench]

Demonstrates the interoperability path a downstream user would take:

1. parse a ``.bench`` netlist (the embedded c17 by default),
2. report structure and static timing (critical path),
3. expand macro cells to analog-ready primitives,
4. cross-simulate: HALOTIS-DDM vs the analog engine on random vectors,
5. export artifacts: VCD waveforms and a SPICE deck.
"""

import sys
import tempfile
from pathlib import Path

from repro.analog.simulator import AnalogSimulator
from repro.analysis import sta
from repro.analysis.report import Table
from repro.circuit import bench_io, stats
from repro.circuit.expand import expand_netlist, is_primitive
from repro.config import ddm_config
from repro.core.engine import simulate
from repro.io_formats.spice import write_spice
from repro.io_formats.vcd import write_vcd
from repro.stimuli.patterns import random_vectors

C17_TEXT = """
# ISCAS-85 c17
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


def main():
    if len(sys.argv) > 1:
        netlist = bench_io.read_bench(Path(sys.argv[1]))
    else:
        netlist = bench_io.read_bench(C17_TEXT, name="c17")

    print(stats.gather(netlist).format())
    print()
    print(sta.analyze(netlist).format())
    print()

    if not is_primitive(netlist):
        netlist = expand_netlist(netlist)
        print("expanded to primitives: %d gates" % len(netlist.gates))
        print()

    inputs = [net.name for net in netlist.primary_inputs]
    outputs = [net.name for net in netlist.primary_outputs]
    stimulus = random_vectors(inputs, count=6, period=4.0, seed=3)

    logic = simulate(netlist, stimulus, config=ddm_config())
    analog = AnalogSimulator(netlist, dt=0.004).run(stimulus)

    table = Table(
        ["output", "HALOTIS edges", "analog edges", "settled logic",
         "settled analog"],
        title="cross-simulation on %d random vectors" % len(stimulus),
    )
    end = stimulus.horizon - 0.1
    for name in outputs:
        logic_edges = logic.traces[name].edges()
        analog_edges = analog.waveform(name).digitize()
        table.add_row(
            [
                name,
                len(logic_edges),
                len(analog_edges),
                logic.traces[name].value_at(end),
                analog.waveform(name).value_digital_at(end),
            ]
        )
    print(table.render())
    print()

    out_dir = Path(tempfile.mkdtemp(prefix="halotis_"))
    vcd_path = out_dir / ("%s.vcd" % netlist.name)
    spice_path = out_dir / ("%s.cir" % netlist.name)
    write_vcd(logic.traces, str(vcd_path), module_name=netlist.name)
    write_spice(netlist, str(spice_path), stimulus=stimulus)
    print("artifacts written:")
    print("  %s (open in GTKWave)" % vcd_path)
    print("  %s (run in any SPICE)" % spice_path)


if __name__ == "__main__":
    main()
