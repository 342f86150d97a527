"""The kernel loop's recording arm adds up to the run it records.

A golden record (:class:`repro.faults.differential.RecordingKernel`) is
a plain compiled run with the loop's recording arm on.  Cone runs
subtract its per-pin, per-gate and per-net shares from the run's
totals, so every share must sum to the matching
:class:`~repro.core.stats.SimulationStatistics` counter, and the run
itself must equal a plain ``compiled`` run.  A count that drifts in one
arm of the loop fails here before it skews a mutant's statistics.
Every case runs on both compiled kernel loops, native and Python.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.circuit import modules
from repro.config import cdm_config, ddm_config
from repro.core.engine import simulate
from repro.core.stats import SimulationStatistics
from repro.faults.differential import RecordingKernel
from repro.stimuli.patterns import random_vectors

pytestmark = pytest.mark.usefixtures("loop")

_STATS = [
    field.name for field in dataclasses.fields(SimulationStatistics)
    if field.name != "runtime_seconds"
]
_SETTLE = 4.0
_SEEDS = {4: 2, 6: 1}


@pytest.mark.parametrize("traced", [True, False], ids=["traced", "untraced"])
@pytest.mark.parametrize("mode", ["ddm", "cdm"])
@pytest.mark.parametrize("width", [4, 6], ids=["mult4", "mult6"])
def test_recording_arm_sums_to_the_run_totals(width, mode, traced):
    netlist = modules.array_multiplier(width)
    names = [net.name for net in netlist.primary_inputs]
    # A short period provokes filtering, late events and degradation;
    # under DDM these seeds also late-clamp restoring events behind an
    # executed predecessor, the rarer of the two late branches.
    stimulus = random_vectors(names, 8, 1.0, seed=_SEEDS[width])
    make_config = ddm_config if mode == "ddm" else cdm_config
    config = make_config(record_traces=traced)

    golden = RecordingKernel(netlist, config=config)
    golden.record(stimulus, _SETTLE)
    plain = simulate(
        netlist, stimulus, config=config, settle=_SETTLE,
        engine_kind="compiled",
    )
    stats = golden.stats
    for name in _STATS:
        assert getattr(stats, name) == getattr(plain.stats, name), name
    assert golden.final_values == plain.final_values
    assert golden.traces.row_lists() == plain.traces.row_lists()
    assert golden.traces.horizon == plain.traces.horizon

    record = golden._record
    cn = golden.compiled_netlist
    assert sum(map(len, record.executed)) == stats.events_executed
    assert sum(record.net_scheduled) == stats.events_scheduled
    assert sum(record.net_filtered) == stats.events_filtered
    assert sum(record.net_late) == stats.late_events
    assert sum(record.gate_degraded) == stats.transitions_degraded
    assert sum(record.gate_fully) == stats.transitions_fully_degraded
    assert stats.events_filtered > 0
    if mode == "ddm":  # degraded delays also make late events
        assert stats.late_events > 0 and stats.transitions_fully_degraded > 0
    else:
        assert stats.transitions_degraded == 0

    # After the drain every scheduled event executed or was filtered,
    # on the pins of the net that broadcast it.
    executed_per_net = [0] * cn.num_nets
    for uid, entries in enumerate(record.executed):
        executed_per_net[cn.input_net[uid]] += len(entries)
    for net in range(cn.num_nets):
        assert record.net_scheduled[net] == (
            executed_per_net[net] + record.net_filtered[net]
        ), cn.net_names[net]

    # Each gate's last execution is the latest executed entry on its pins.
    offsets = cn.gate_input_offsets
    for gate in range(cn.num_gates):
        times = [
            entry[0]
            for uid in range(offsets[gate], offsets[gate + 1])
            for entry in record.executed[uid]
        ]
        assert record.gate_last_time[gate] == max(times, default=0.0)
