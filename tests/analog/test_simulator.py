"""Transient simulator: functional settling, delays, guards."""

import pytest

from repro.analog.simulator import AnalogSimulator
from repro.circuit import modules
from repro.circuit.builder import CircuitBuilder
from repro.circuit.evaluate import evaluate_netlist
from repro.errors import SimulationError
from repro.stimuli.patterns import pulse
from repro.stimuli.vectors import VectorSequence

DT = 0.004  # coarse but adequate for tests


def test_rejects_macro_netlists():
    netlist = modules.parity_tree(4)  # XOR2 cells
    with pytest.raises(SimulationError):
        AnalogSimulator(netlist)


def test_rejects_bad_dt(chain3):
    with pytest.raises(SimulationError):
        AnalogSimulator(chain3, dt=0.0)


def test_step_budget_guard(chain3):
    simulator = AnalogSimulator(chain3, dt=1e-6)
    stimulus = VectorSequence([(0.0, {"in": 0})], horizon=10.0)
    with pytest.raises(SimulationError):
        simulator.run(stimulus)


def test_inverter_chain_settles_to_logic(chain3):
    stimulus = VectorSequence(
        [(0.0, {"in": 0}), (1.0, {"in": 1})], slew=0.2, tail=3.0
    )
    result = AnalogSimulator(chain3, dt=DT).run(stimulus)
    expected = evaluate_netlist(chain3, {"in": 1})
    for name in ("out1", "out2", "out3"):
        final = result.waveform(name).value_at(result.times[-1])
        assert final == pytest.approx(expected[name] * 5.0, abs=0.15)


def test_c17_settles_to_logic_all_vectors(c17):
    """Settled analog values equal zero-delay logic for several vectors."""
    for bits in [(0, 0, 0, 0, 0), (1, 1, 1, 1, 1), (1, 0, 1, 0, 1),
                 (0, 1, 1, 0, 1)]:
        names = ("1", "2", "3", "6", "7")
        values = dict(zip(names, bits))
        steps = [(0.0, values)]
        stimulus = VectorSequence(steps, tail=3.0)
        result = AnalogSimulator(c17, dt=DT).run(stimulus)
        expected = evaluate_netlist(c17, values)
        for out in ("22", "23"):
            final = result.waveform(out).value_at(result.times[-1])
            assert final == pytest.approx(expected[out] * 5.0, abs=0.15), bits


def test_word_at_digitises(mult4):
    values = {"a%d" % k: 1 for k in range(4)}
    values.update({"b%d" % k: (k == 0) * 1 for k in range(4)})
    stimulus = VectorSequence([(0.0, values)], tail=4.0)
    result = AnalogSimulator(mult4, dt=DT).run(stimulus)
    assert result.word_at(result.times[-1], "s", 8) == 15  # 15 * 1


def test_unrecorded_net_raises(chain3):
    stimulus = VectorSequence([(0.0, {"in": 0})], tail=1.0)
    result = AnalogSimulator(chain3, dt=DT).run(stimulus)
    with pytest.raises(SimulationError):
        result.waveform("nonexistent")


def test_record_stride_thins_samples(chain3):
    stimulus = VectorSequence([(0.0, {"in": 0})], tail=2.0)
    dense = AnalogSimulator(chain3, dt=DT).run(stimulus, record_stride=1)
    sparse = AnalogSimulator(chain3, dt=DT).run(stimulus, record_stride=10)
    assert len(sparse.times) < len(dense.times)
    assert sparse.times[-1] == pytest.approx(dense.times[-1])


def test_constants_pinned(mult4):
    values = {name: 0 for name in
              ["a%d" % k for k in range(4)] + ["b%d" % k for k in range(4)]}
    stimulus = VectorSequence([(0.0, values)], tail=1.0)
    result = AnalogSimulator(mult4, dt=DT).run(stimulus)
    tie = result.waveform("tie0")
    assert abs(tie.values).max() < 1e-9


def test_pulse_degrades_along_chain():
    """The analog substrate exhibits the degradation effect the DDM
    models: a narrow pulse loses amplitude stage by stage."""
    netlist = modules.inverter_chain(4)
    stimulus = pulse("in", start=1.0, width=0.10, slew=0.15, tail=3.0)
    result = AnalogSimulator(netlist, dt=0.002).run(stimulus)
    # out1 dips (inverted pulse); out2 bumps up; amplitudes shrink.
    dip1 = 5.0 - result.waveform("out1").extreme(0.5, 4.0, maximum=False)
    bump2 = result.waveform("out2").extreme(0.5, 4.0, maximum=True)
    dip3 = 5.0 - result.waveform("out3").extreme(0.5, 4.0, maximum=False)
    assert dip1 > bump2 > dip3
    assert dip1 > 2.0  # the first stage does respond


def test_skewed_inverters_threshold_selectivity():
    """INV_LT vs INV_HT react differently to the same shallow dip —
    Figure 1's mechanism, at the analog level."""
    builder = CircuitBuilder(name="skew")
    node_in = builder.input("in")
    out0 = builder.gate("INV", node_in, name="g0")
    builder.output(out0, "out0")
    builder.output(builder.gate("INV_LT", out0, name="g1"), "lt")
    builder.output(builder.gate("INV_HT", out0, name="g2"), "ht")
    netlist = builder.build()
    stimulus = pulse("in", start=1.0, width=0.14, slew=0.2, tail=3.0)
    result = AnalogSimulator(netlist, dt=0.002).run(stimulus)
    lt_swing = result.waveform("lt").extreme(0.5, 5.0, True) - \
        result.waveform("lt").extreme(0.5, 5.0, False)
    ht_swing = result.waveform("ht").extreme(0.5, 5.0, True) - \
        result.waveform("ht").extreme(0.5, 5.0, False)
    assert ht_swing > 3.0   # high-threshold gate fires on the dip
    assert lt_swing < 2.0   # low-threshold gate barely reacts
