"""Engine corner cases: filtered-event log, resolution, overlapping stimuli."""

import pytest

from repro.circuit import modules
from repro.circuit.builder import CircuitBuilder
from repro.config import ddm_config
from repro.core.engine import HalotisSimulator, simulate
from repro.stimuli.patterns import glitch_pair, pulse
from repro.stimuli.vectors import VectorSequence


def test_filtered_log_records_location():
    netlist = modules.inverter_chain(6)
    config = ddm_config(record_filtered=True)
    result = simulate(netlist, pulse("in", start=1.0, width=0.05),
                      config=config)
    assert result.stats.events_filtered >= 1
    record = result.simulator.filtered_log[0]
    assert record.gate_name in result.simulator.netlist.gates
    assert record.new_event_time <= record.previous_event_time + 1e-6
    assert record.net_name in result.simulator.netlist.nets


def test_filtered_log_empty_when_disabled():
    netlist = modules.inverter_chain(6)
    result = simulate(netlist, pulse("in", start=1.0, width=0.05),
                      config=ddm_config())
    assert result.stats.events_filtered >= 1
    assert result.simulator.filtered_log == []


def test_overlapping_input_ramps_annihilate_at_first_gate():
    """A pulse narrower than the input slew: the two source ramps overlap
    and the receiving input's threshold is never (or barely) crossed."""
    netlist = modules.inverter_chain(2)
    stimulus = pulse("in", start=1.0, width=0.05, slew=0.3)
    result = simulate(netlist, stimulus, config=ddm_config())
    assert result.traces["out2"].toggle_count() == 0


def test_glitch_pair_gap_collapses_under_degradation():
    """The degradation signature on a pulse pair: the *leading* edge of
    the second pulse propagates faster (small T since the gate's previous
    output transition), so the inter-pulse gap collapses at the output
    while a widely spaced pair keeps its gap."""
    netlist = modules.inverter_chain(2)
    close = glitch_pair("in", first_start=1.0, first_width=0.6, gap=0.15,
                        second_width=0.6, tail=6.0)
    apart = glitch_pair("in", first_start=1.0, first_width=0.6, gap=4.0,
                        second_width=0.6, tail=6.0)
    tight = simulate(netlist, close, config=ddm_config())
    loose = simulate(netlist, apart, config=ddm_config())
    tight_widths = tight.traces["out2"].pulse_widths()
    loose_widths = loose.traces["out2"].pulse_widths()
    assert len(tight_widths) == 3  # pulse, gap, pulse
    assert len(loose_widths) == 3
    # The tight pair's gap shrinks well below the 0.15 ns input gap...
    assert tight_widths[1] < 0.05
    # ...while the loose pair's gap is preserved (~4 ns).
    assert loose_widths[1] == pytest.approx(4.0, abs=0.3)


def test_equal_time_crossings_count_as_simultaneous():
    """Two opposite crossings within the time resolution annihilate."""
    builder = CircuitBuilder(name="res")
    a = builder.input("a")
    builder.output(builder.gate("INV", a, name="g"), "y")
    netlist = builder.build()
    config = ddm_config(time_resolution=0.01)
    simulator = HalotisSimulator(netlist, config=config)
    simulator.initialize({"a": 0})
    # Two source ramps whose mid-crossings differ by less than the
    # resolution at the receiving threshold.
    from repro.core.transition import Transition

    net = netlist.net("a")
    # INV threshold 2.40 V -> crossings at 0.996 ns (rise) and 1.004 ns
    # (fall): 8 ps apart, inside the 10 ps resolution.
    rise = Transition(t50=1.0, duration=0.2, rising=True, net_name="a")
    fall = Transition(t50=1.0, duration=0.2, rising=False, net_name="a")
    simulator._broadcast(rise, net)
    simulator._broadcast(fall, net)
    assert simulator.stats.events_filtered == 1
    assert len(simulator.queue) == 0


def test_simulate_seed_reaches_latch():
    latch = modules.rs_latch()
    stimulus = VectorSequence([(0.0, {"s_n": 1, "r_n": 1})], tail=2.0)
    result = simulate(latch, stimulus, config=ddm_config(),
                      seed={"q": 1, "qn": 0})
    assert result.final_values["q"] == 1
    assert result.final_values["qn"] == 0


def test_simulation_result_bundle(chain3):
    stimulus = pulse("in", start=1.0, width=2.0)
    result = simulate(chain3, stimulus, config=ddm_config())
    assert result.simulator.netlist is chain3
    assert result.stats is result.simulator.stats
    assert result.traces is result.simulator.traces
    assert set(result.final_values) == set(chain3.nets)


def test_horizon_tracks_run(chain3):
    stimulus = pulse("in", start=1.0, width=2.0, tail=10.0)
    result = simulate(chain3, stimulus, config=ddm_config())
    assert result.traces.horizon >= stimulus.horizon


def test_source_transition_slew_override(chain3):
    simulator = HalotisSimulator(chain3, config=ddm_config())
    simulator.initialize({"in": 0})
    transition = simulator.set_input("in", 1, at_time=1.0, slew=0.5)
    assert transition.duration == 0.5
    assert transition.t50 == pytest.approx(1.25)


def test_compiled_pin_stacks_keep_only_live_entries():
    """A compiled run keeps, per pin, the last executed entry (the only
    executed one the inertial rule reads again) and the entries pushed
    after it, not every event of the run: this mult10 run executes
    87,792 events over 1,920 pins."""
    from repro.core.engine import make_engine, run_stimulus
    from repro.stimuli.patterns import random_vectors

    netlist = modules.array_multiplier(10)
    stimulus = random_vectors(
        [net.name for net in netlist.primary_inputs], count=60, period=8.0,
        seed=1,
    )
    engine = make_engine(netlist, config=ddm_config(record_traces=False),
                         engine_kind="compiled")
    result = run_stimulus(engine, stimulus)
    sizes = [len(stack) for stack in engine._stacks]
    assert result.stats.events_executed > 40 * len(sizes)
    assert sum(sizes) <= 2 * len(sizes)
    assert max(sizes) <= 4


def test_net_toggles_are_built_once_per_play(mult4, monkeypatch):
    """play() steps through a stimulus without the ``_after_run`` hook
    and lets only its final drain call run(), so the compiled engine
    builds its by-name ``net_toggles`` once per stimulus; run() and
    step() still leave it current after every call."""
    from repro.core.compiled import CompiledSimulator
    from repro.core.engine import make_engine
    from repro.stimuli.vectors import PAPER_SEQUENCE_1, multiplication_sequence

    builds = []
    after_run = CompiledSimulator._after_run

    def counting(self):
        builds.append(self._toggles_dirty)
        after_run(self)

    monkeypatch.setattr(CompiledSimulator, "_after_run", counting)
    stimulus = multiplication_sequence(PAPER_SEQUENCE_1)
    compiled = simulate(mult4, stimulus, config=ddm_config(), engine_kind="compiled")
    assert builds == [True]
    reference = simulate(mult4, stimulus, config=ddm_config(), engine_kind="reference")
    assert compiled.stats.net_toggles == reference.stats.net_toggles

    engine = make_engine(mult4, config=ddm_config(), engine_kind="compiled")
    engine.initialize({net.name: 0 for net in mult4.primary_inputs})
    engine.apply_word({"a0": 1, "b0": 1}, at_time=1.0)
    engine.step()
    assert engine.stats.net_toggles == {"a0": 1, "b0": 1}
    engine.run()
    names = engine.compiled_netlist.net_names
    toggled = {names[net]: count for net, count in enumerate(engine._toggles) if count}
    assert len(toggled) > 2
    assert engine.stats.net_toggles == toggled
