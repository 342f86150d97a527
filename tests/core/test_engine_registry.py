"""The engine backend registry and per-backend config knobs.

Covers the satellite requirements: unknown ``engine_kind`` raises a
:class:`SimulationError` naming the valid kinds, every backend honors
``max_events`` and ``record_filtered``, and no entry point takes an
event-queue option (the binary heap is the only queue).
"""

import pytest

from repro.circuit import modules
from repro.config import DelayMode, SimulationConfig, cdm_config, ddm_config
from repro.core.batch import simulate_batch
from repro.core.compiled import CompiledNetlist, CompiledSimulator
from repro.core.engine import (
    ENGINE_KINDS,
    EngineBase,
    HalotisSimulator,
    make_engine,
    run_stimulus,
    simulate,
)
from repro.core.service import SimulationService
from repro.errors import SimulationError, SimulationLimitError
from repro.stimuli.vectors import VectorSequence

ALL_KINDS = sorted(ENGINE_KINDS)


def _ring_stimulus(chain):
    inputs = [net.name for net in chain.primary_inputs]
    steps = [(0.0, {name: 0 for name in inputs}),
             (2.0, {name: 1 for name in inputs}),
             (4.0, {name: 0 for name in inputs})]
    return VectorSequence(steps, slew=0.2, tail=4.0)


def test_registry_has_both_backends():
    assert ENGINE_KINDS["reference"] is HalotisSimulator
    assert ENGINE_KINDS["compiled"] is CompiledSimulator
    for cls in ENGINE_KINDS.values():
        assert issubclass(cls, EngineBase)
    # Two kernels: every other backend builds on one of them.
    direct = {
        kind for kind, cls in ENGINE_KINDS.items()
        if EngineBase in cls.__bases__
    }
    assert direct == {"reference", "compiled"}


@pytest.mark.parametrize("engine_kind", ["bitparallel"])
def test_lockstep_kinds_run_single_stimuli_on_the_compiled_kernel(
    chain3, engine_kind
):
    """make_engine() of a lockstep kind is a CompiledSimulator that keeps
    its registry kind, its lockstep batch path and its availability
    check."""
    pytest.importorskip("numpy")
    engine = make_engine(chain3, config=ddm_config(), engine_kind=engine_kind)
    cls = type(engine)
    assert isinstance(engine, CompiledSimulator)
    assert cls.__bases__ == (CompiledSimulator,)
    assert cls is ENGINE_KINDS[engine_kind]
    assert engine.kind == engine_kind
    assert cls.lockstep_batches
    result = run_stimulus(engine, _ring_stimulus(chain3))
    assert result.simulator is engine
    assert result.metrics["engine"] == engine_kind


def test_bitparallel_engine_built_from_ddm_config_runs_cdm():
    """CDM is the tier bitparallel declares: its engine runs a CDM copy
    of a DDM config (the caller's config is untouched) and equals the
    compiled engine under CDM, filtered-event log included."""
    pytest.importorskip("numpy")
    from repro.stimuli.vectors import PAPER_SEQUENCE_1, multiplication_sequence

    netlist = modules.array_multiplier(4)
    stimulus = multiplication_sequence(PAPER_SEQUENCE_1)
    config = ddm_config(record_filtered=True)
    engine = make_engine(netlist, config=config, engine_kind="bitparallel")
    assert engine.config.delay_mode is DelayMode.CDM
    assert config.delay_mode is DelayMode.DDM
    got = run_stimulus(engine, stimulus)
    want = simulate(
        netlist, stimulus, config=config.with_mode(DelayMode.CDM),
        engine_kind="compiled",
    )
    ddm = simulate(netlist, stimulus, config=config, engine_kind="compiled")
    assert got.stats.transitions_degraded == 0
    assert ddm.stats.transitions_degraded > 0
    for field in ("events_executed", "events_filtered", "late_events",
                  "transitions_emitted", "net_toggles"):
        assert getattr(got.stats, field) == getattr(want.stats, field)
    assert got.final_values == want.final_values
    for name in netlist.nets:
        assert got.traces[name].edges() == want.traces[name].edges()
    assert engine.filtered_log == want.simulator.filtered_log


def test_registered_kind_attribute_matches_key():
    for kind, cls in ENGINE_KINDS.items():
        assert cls.kind == kind


def test_make_engine_rejects_unknown_kind(chain3):
    with pytest.raises(SimulationError) as excinfo:
        make_engine(chain3, engine_kind="jit")
    message = str(excinfo.value)
    for kind in ALL_KINDS:
        assert kind in message


def test_simulate_rejects_unknown_kind(chain3):
    with pytest.raises(SimulationError):
        simulate(chain3, _ring_stimulus(chain3), engine_kind="turbo")


def test_engine_kind_defaults_from_config(chain3):
    engine = make_engine(chain3, config=ddm_config(engine_kind="compiled"))
    assert isinstance(engine, CompiledSimulator)
    engine = make_engine(chain3, config=ddm_config())
    assert isinstance(engine, HalotisSimulator)
    # explicit argument beats the config
    engine = make_engine(
        chain3, config=ddm_config(engine_kind="compiled"), engine_kind="reference"
    )
    assert isinstance(engine, HalotisSimulator)


def test_config_validates_engine_kind_type():
    with pytest.raises(ValueError):
        SimulationConfig(engine_kind="").validate()


@pytest.mark.parametrize("engine_kind", ALL_KINDS)
def test_backends_reject_unknown_queue_kind(chain3, engine_kind):
    """The event-queue option is gone: the engine factory, the batch
    entry point and the warm pool all refuse it as an unknown keyword
    (the pool before it spawns a worker)."""
    with pytest.raises(TypeError):
        make_engine(chain3, queue_kind="heap", engine_kind=engine_kind)
    with pytest.raises(TypeError):
        simulate_batch(
            chain3, [_ring_stimulus(chain3)], queue_kind="heap",
            engine_kind=engine_kind,
        )
    with pytest.raises(TypeError):
        SimulationService(
            chain3, workers=1, queue_kind="heap", engine_kind=engine_kind
        )


@pytest.mark.parametrize("engine_kind", ALL_KINDS)
def test_backends_honor_queue_kind(chain3, engine_kind):
    """Every backend runs the one event queue, a binary heap in
    ``(time, pin uid, seq)`` order: its results equal the reference engine's
    (CDM, where every backend is bit-identical), and no engine keeps a
    queue-kind attribute."""
    stimulus = _ring_stimulus(chain3)
    reference = simulate(
        chain3, stimulus, config=cdm_config(), engine_kind="reference"
    )
    result = simulate(
        chain3, stimulus, config=cdm_config(), engine_kind=engine_kind
    )
    assert result.stats.events_executed == reference.stats.events_executed
    assert result.stats.events_filtered == reference.stats.events_filtered
    for name in chain3.nets:
        assert result.traces[name].edges() == reference.traces[name].edges()
    assert not hasattr(result.simulator, "queue_kind")


@pytest.mark.parametrize("engine_kind", ALL_KINDS)
def test_backends_honor_max_events(engine_kind):
    netlist = modules.array_multiplier(4)
    from repro.stimuli.vectors import PAPER_SEQUENCE_1, multiplication_sequence

    stimulus = multiplication_sequence(PAPER_SEQUENCE_1)
    config = ddm_config(max_events=10)
    with pytest.raises(SimulationLimitError) as excinfo:
        simulate(netlist, stimulus, config=config, engine_kind=engine_kind)
    assert "event budget (10)" in str(excinfo.value)


@pytest.mark.parametrize("engine_kind", ["reference", "compiled"])
def test_event_budget_stops_at_the_budget_and_the_engine_recovers(
    mult4, engine_kind
):
    """An exhausted budget raises the reference engine's message with
    exactly ``max_events`` events executed, and leaves the engine fit for
    the next ``initialize()``: a stimulus inside the budget then runs as
    on a fresh engine."""
    from repro.stimuli.vectors import PAPER_SEQUENCE_1, multiplication_sequence

    big = multiplication_sequence(PAPER_SEQUENCE_1)
    small = VectorSequence([(0.0, {"a0": 0}), (1.0, {"a0": 1})], slew=0.2)
    budget = simulate(
        mult4, small, config=ddm_config(), engine_kind=engine_kind
    ).stats.events_executed
    config = ddm_config(max_events=budget)
    messages = {}
    for kind in ("reference", engine_kind):
        engine = make_engine(mult4, config=config, engine_kind=kind)
        with pytest.raises(SimulationLimitError) as excinfo:
            run_stimulus(engine, big)
        assert engine.stats.events_executed == budget
        messages[kind] = str(excinfo.value)
    assert "event budget (%d)" % budget in messages[engine_kind]
    assert messages[engine_kind] == messages["reference"]

    again = run_stimulus(engine, small)
    fresh = simulate(mult4, small, config=config, engine_kind=engine_kind)
    assert again.stats.events_executed == budget
    assert again.stats.events_scheduled == fresh.stats.events_scheduled
    assert again.stats.net_toggles == fresh.stats.net_toggles
    assert again.final_values == fresh.final_values
    assert again.traces.horizon == fresh.traces.horizon
    for name in mult4.nets:
        assert again.traces[name].edges() == fresh.traces[name].edges()
    assert len(engine.queue) == 0


@pytest.mark.parametrize("engine_kind", ALL_KINDS)
def test_backends_honor_record_filtered(engine_kind):
    netlist = modules.array_multiplier(4)
    from repro.stimuli.vectors import PAPER_SEQUENCE_1, multiplication_sequence

    stimulus = multiplication_sequence(PAPER_SEQUENCE_1)
    on = simulate(
        netlist, stimulus, config=ddm_config(record_filtered=True),
        engine_kind=engine_kind,
    )
    off = simulate(
        netlist, stimulus, config=ddm_config(record_filtered=False),
        engine_kind=engine_kind,
    )
    assert on.stats.events_filtered > 0
    assert len(on.simulator.filtered_log) == on.stats.events_filtered
    assert off.simulator.filtered_log == []
    record = on.simulator.filtered_log[0]
    assert record.gate_name in netlist.gates
    assert record.net_name in netlist.nets


@pytest.mark.parametrize("engine_kind", ALL_KINDS)
def test_backends_honor_record_traces_off(chain3, engine_kind):
    result = simulate(
        chain3, _ring_stimulus(chain3),
        config=ddm_config(record_traces=False), engine_kind=engine_kind,
    )
    assert len(result.traces) == 0
    assert result.stats.events_executed > 0


@pytest.mark.parametrize("engine_kind", ALL_KINDS)
def test_value_on_undriven_net_raises(engine_kind):
    """Both backends must reject undriven nets identically (the compiled
    driver array uses a -1 sentinel that must not wrap via negative
    indexing)."""
    from repro.circuit.library import default_library
    from repro.circuit.netlist import Netlist

    library = default_library()
    netlist = Netlist(name="floating", vdd=library.vdd)
    source = netlist.add_primary_input("a")
    driven = netlist.add_net("y")
    netlist.add_gate("g0", library.get("INV"), [source], driven)
    netlist.add_net("floating")  # declared, never driven, not a PI

    # record_traces=False: the undriven net has no DC value, so trace
    # creation would fail before value() is ever reachable.
    engine = make_engine(
        netlist, config=ddm_config(record_traces=False), engine_kind=engine_kind
    )
    engine.initialize({"a": 0})
    assert engine.value("y") == 1
    with pytest.raises(SimulationError):
        engine.value("floating")


def test_netlist_compile_is_cached(chain3):
    first = chain3.compile()
    assert isinstance(first, CompiledNetlist)
    assert chain3.compile() is first


def test_netlist_compile_invalidated_by_structural_change():
    from repro.circuit.builder import CircuitBuilder

    builder = CircuitBuilder(name="grow")
    a = builder.input("a")
    y = builder.inv(a, name="g0")
    netlist = builder.netlist
    first = netlist.compile()
    builder.output(builder.inv(y, name="g1"), "out")
    second = netlist.compile()
    assert second is not first
    assert second.num_gates == first.num_gates + 1


def test_compiled_rejects_foreign_lowering(chain3, c17):
    with pytest.raises(SimulationError):
        CompiledSimulator(chain3, compiled=c17.compile())


def test_compiled_as_numpy_views():
    pytest.importorskip("numpy")
    netlist = modules.c17()
    compiled = netlist.compile()
    arrays = compiled.as_numpy()
    assert arrays["vt_fraction"].shape == (compiled.num_inputs,)
    assert arrays["fanout_offsets"].shape == (compiled.num_nets + 1,)
    assert int(arrays["fanout_offsets"][-1]) == len(compiled.fanout_targets)


def test_registering_new_engine_updates_cli_and_error_text(chain3):
    """Satellite: CLI ``--engine`` choices/help and the unknown-kind
    error text are derived from ``ENGINE_KINDS`` at call time — a newly
    registered backend shows up in both with zero extra wiring."""
    from repro.cli import _build_parser, _engine_help
    from repro.core.engine import register_engine

    assert "experimental" not in ENGINE_KINDS

    @register_engine("experimental")
    class ExperimentalSimulator(HalotisSimulator):
        cli_blurb = "prototype backend for the registry-drift test"

    try:
        # make_engine / resolve_engine_class error text picks it up...
        with pytest.raises(SimulationError) as excinfo:
            make_engine(chain3, engine_kind="jit")
        assert "'experimental'" in str(excinfo.value)

        # ...the CLI parser accepts it as a choice...
        parser = _build_parser()
        args = parser.parse_args(
            ["simulate", "--circuit", "c17", "--engine", "experimental"]
        )
        assert args.engine == "experimental"

        # ...and the option help carries its blurb.
        assert "experimental" in _engine_help()
        assert ExperimentalSimulator.cli_blurb in _engine_help()

        # It is a real engine, not just a name.
        engine = make_engine(chain3, engine_kind="experimental")
        assert isinstance(engine, ExperimentalSimulator)
    finally:
        ENGINE_KINDS.pop("experimental", None)

    with pytest.raises(SimulationError) as excinfo:
        make_engine(chain3, engine_kind="jit")
    assert "experimental" not in str(excinfo.value)
    parser = _build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(
            ["simulate", "--circuit", "c17", "--engine", "experimental"]
        )
