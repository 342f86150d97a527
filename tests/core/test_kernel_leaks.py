"""The native kernel loop leaks nothing on any of its exits.

``_kernel.c`` manages reference counts over the engine's own Python
objects; a reference kept by mistake on one path (one entry, one float)
leaks a block or more on every run that takes that path.  Each test
runs one exit path a few hundred times after a warm-up and asserts
that ``sys.getallocatedblocks()`` grows by less than one block per run:
a normal run, an event-budget stop, a ``WaveformError``, an error
raised by a trace appender, a cone run and a recording run.
"""

from __future__ import annotations

import gc
import sys

import pytest

from repro.config import ddm_config
from repro.core import _native
from repro.core.batch import run_chunk
from repro.core.engine import make_engine, run_stimulus
from repro.errors import SimulationLimitError, WaveformError
from repro.faults.differential import RecordingKernel
from repro.faults.faultload import FaultKind, generate_faultload
from repro.faults.inject import FaultedStimulus
from repro.stimuli.vectors import PAPER_SEQUENCE_1, multiplication_sequence

#: runs per measurement, after as many warm-up runs as the pools and
#: caches need to settle
_RUNS = 300
_WARMUP = 30


@pytest.fixture(autouse=True)
def _native_loop():
    if _native.kernel() is None:
        pytest.skip("native kernel loop unavailable")


def _growth(run) -> int:
    """Blocks allocated across ``_RUNS`` calls of ``run`` and not freed."""
    for _ in range(_WARMUP):
        run()
    gc.collect()
    before = sys.getallocatedblocks()
    for _ in range(_RUNS):
        run()
    gc.collect()
    return sys.getallocatedblocks() - before


def _raises(error, run):
    def call():
        try:
            run()
        except error:
            pass
        else:
            raise AssertionError("%s not raised" % error.__name__)

    return call


@pytest.fixture()
def stimulus():
    return multiplication_sequence(PAPER_SEQUENCE_1)


@pytest.mark.parametrize("traced", [True, False], ids=["traces", "no-traces"])
def test_a_normal_run_leaks_nothing(mult4, stimulus, traced):
    engine = make_engine(mult4, config=ddm_config(record_traces=traced),
                         engine_kind="compiled")
    assert _growth(lambda: run_stimulus(engine, stimulus)) < _RUNS


def test_an_event_budget_stop_leaks_nothing(mult4, stimulus):
    engine = make_engine(mult4, config=ddm_config(max_events=57),
                         engine_kind="compiled")
    run = _raises(SimulationLimitError, lambda: run_stimulus(engine, stimulus))
    assert _growth(run) < _RUNS


def test_a_waveform_error_leaks_nothing(mult4, stimulus, patched_lowering):
    def negative_duration(compiled):
        for table in (compiled.arc_rise, compiled.arc_fall):
            for uid, params in enumerate(table):
                tp0, d_slew, _tau, _s_slew, tau_deg, t0 = params
                if uid % 3 == 0:
                    table[uid] = (tp0, d_slew, -0.1, 0.0, tau_deg, t0)

    patched_lowering(mult4, negative_duration)
    engine = make_engine(mult4, config=ddm_config(), engine_kind="compiled")
    run = _raises(WaveformError, lambda: run_stimulus(engine, stimulus))
    assert _growth(run) < _RUNS


class _AppenderError(Exception):
    pass


def test_an_error_raised_by_a_trace_appender_leaks_nothing(mult4, stimulus):
    engine = make_engine(mult4, config=ddm_config(), engine_kind="compiled")
    inputs = stimulus.initial_values(mult4)
    flipped = {name: 1 - value for name, value in inputs.items()}
    output = mult4.compile().gate_output_net[0]

    def refuse(row):
        raise _AppenderError(row)

    def run():
        engine.initialize(inputs)
        engine._trace_appenders[output] = refuse
        engine.apply_word(flipped, at_time=1.0)
        engine.run()

    assert _growth(_raises(_AppenderError, run)) < _RUNS


def _mutants(netlist, stimulus):
    faults = generate_faultload(
        netlist, 12, seed=5, kinds=list(FaultKind),
        window=(0.0, stimulus.horizon),
    ).faults
    return [FaultedStimulus(stimulus, fault) for fault in faults]


def test_a_cone_run_leaks_nothing(mult4, stimulus):
    engine = make_engine(mult4, config=ddm_config(), engine_kind="compiled")
    mutants = _mutants(mult4, stimulus)
    list(run_chunk(engine, mutants))
    runner = engine._differential
    golden = runner.golden
    assert golden is not None

    def run():
        for result in run_chunk(engine, mutants):
            assert result.simulator is runner.cone_kernel

    assert _growth(run) < _RUNS
    assert runner.golden is golden  # every run was a cone run


def test_a_recording_run_leaks_nothing(mult4, stimulus):
    golden = RecordingKernel(mult4, config=ddm_config())
    assert _growth(lambda: golden.record(stimulus, 0.0)) < _RUNS
