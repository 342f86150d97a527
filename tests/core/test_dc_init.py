"""DC initialisation on the lowering vs the object-graph oracle.

The compiled, vector and bitparallel engines DC-initialise through
:meth:`CompiledNetlist.dc_values`; :func:`evaluate_netlist` keeps the
object-graph path and is the oracle: values, relaxation fixpoints and
error messages must match, scalar and lockstep, on warm faulted engines
too.
"""

from __future__ import annotations

import random
from types import SimpleNamespace

import pytest

from repro.circuit import modules
from repro.circuit.evaluate import evaluate_netlist
from repro.circuit.netlist import Netlist
from repro.config import ddm_config
from repro.core.batch import simulate_batch
from repro.core.compiled import CompiledNetlist
from repro.core.engine import make_engine, resolve_engine_class, simulate
from repro.core.service import SimulationService
from repro.errors import InitializationError, SimulationError, StimulusError
from repro.faults.faultload import FaultKind, FaultSpec
from repro.faults.inject import FaultInjection

from test_backend_parity import CASES, random_netlist, random_stimulus


@pytest.fixture(params=("compiled", "vector", "bitparallel"))
def kind(request):
    try:
        resolve_engine_class(request.param).ensure_available()
    except SimulationError as error:
        pytest.skip(str(error))
    return request.param


def _config():
    return ddm_config(record_traces=False)


def _engine_dc(kind, netlist, inputs, seed=None, engine=None):
    engine = engine or make_engine(netlist, config=_config(), engine_kind=kind)
    engine.initialize(inputs, seed=seed)
    return engine.values()


def _batch_dc(kind, netlist, lane_inputs, seed=None):
    """Final values of a batch of stimuli that only set DC inputs
    (unvalidated, so the engines' own input checks are what runs)."""
    stimuli = [
        SimpleNamespace(horizon=0.0, iter_changes=lambda: iter(()),
                        initial_values=lambda _netlist, inputs=inputs: dict(inputs))
        for inputs in lane_inputs
    ]
    batch = simulate_batch(
        netlist, stimuli, config=_config(), engine_kind=kind, seed=seed
    )
    return [result.final_values for result in batch]


@pytest.mark.parametrize("case", CASES[::5], ids=lambda case: "seed%d" % case[0])
def test_dc_matches_evaluate_netlist_on_random_dags(kind, case):
    seed, num_inputs, num_gates, _vectors = case
    netlist = random_netlist(seed, num_inputs, num_gates)
    generator = random.Random(seed)
    lanes = [
        {net.name: generator.randint(0, 1) for net in netlist.primary_inputs}
        for _ in range(5)
    ]
    expected = [evaluate_netlist(netlist, inputs) for inputs in lanes]
    engine = make_engine(netlist, config=_config(), engine_kind=kind)
    for inputs, oracle in zip(lanes, expected):
        got = _engine_dc(kind, netlist, inputs, engine=engine)
        assert got == oracle
        assert list(got) == list(netlist.nets)  # key order kept
    assert _batch_dc(kind, netlist, lanes) == expected


@pytest.mark.parametrize(
    "seed", [None, {"q": 0, "qn": 1}, {"q": 1, "qn": 0}], ids=str
)
def test_dc_relaxes_the_rs_latch_like_evaluate_netlist(kind, seed):
    latch = modules.rs_latch()
    lanes = [{"s_n": s_n, "r_n": r_n} for s_n in (0, 1) for r_n in (0, 1)]
    expected = [evaluate_netlist(latch, inputs, seed=seed) for inputs in lanes]
    for inputs, oracle in zip(lanes, expected):
        assert _engine_dc(kind, latch, inputs, seed=seed) == oracle
    assert _batch_dc(kind, latch, lanes, seed=seed) == expected


def test_dc_unstable_loop_raises_the_oracle_error(kind):
    ring = modules.ring_oscillator(3)
    with pytest.raises(InitializationError) as oracle:
        evaluate_netlist(ring, {"en": 1})
    with pytest.raises(InitializationError) as got:
        _engine_dc(kind, ring, {"en": 1})
    assert str(got.value) == str(oracle.value)
    with pytest.raises(InitializationError) as got:
        _batch_dc(kind, ring, [{"en": 0}, {"en": 1}])
    assert str(got.value) == str(oracle.value)


@pytest.mark.parametrize(
    "inputs",
    [
        {"i0": 1},
        {"i0": 1, "i1": 2},
        {"i0": 1, "i1": 0, "n0": 1},
        {"i0": 1, "i1": 0, "nope": 1},
    ],
    ids=["missing", "non-binary", "driven-net", "unknown"],
)
def test_dc_input_errors_match_evaluate_netlist(kind, inputs):
    netlist = random_netlist(3, 2, 6)
    with pytest.raises(StimulusError) as oracle:
        evaluate_netlist(netlist, inputs)
    with pytest.raises(StimulusError) as got:
        _engine_dc(kind, netlist, inputs)
    assert str(got.value) == str(oracle.value)
    with pytest.raises(StimulusError) as got:
        _batch_dc(kind, netlist, [{"i0": 0, "i1": 0}, inputs])
    assert str(got.value) == str(oracle.value)


@pytest.mark.parametrize("fault_kind", [FaultKind.STUCK_AT_0, FaultKind.BIT_FLIP])
def test_warm_engine_dc_reads_patched_tables_live(kind, mult4, fault_kind):
    inputs = {net.name: 1 for net in mult4.primary_inputs}
    healthy = evaluate_netlist(mult4, inputs)
    # A gate whose DC output is 1, so stuck-at-0 and bit-flip both show.
    target = next(
        gate.output.name for gate in mult4.gates.values()
        if healthy[gate.output.name] == 1
    )
    engine = make_engine(mult4, config=_config(), engine_kind=kind)
    assert _engine_dc(kind, mult4, inputs, engine=engine) == healthy
    with FaultInjection(mult4, FaultSpec(kind=fault_kind, net=target)):
        engine.rebind_lowering()
        faulted = evaluate_netlist(mult4, inputs)  # the oracle reads gate.cell
        assert faulted[target] == 0
        assert _engine_dc(kind, mult4, inputs, engine=engine) == faulted
    engine.rebind_lowering()
    assert _engine_dc(kind, mult4, inputs, engine=engine) == healthy


def _broken_ordering(*_args, **_kwargs):
    raise TypeError("bug in ordering")


def test_only_a_cycle_selects_relaxation(kind, monkeypatch):
    """An unrelated error from either ordering propagates instead of
    silently turning into a relaxation run."""
    netlist = random_netlist(4, 3, 8)  # fresh lowering: no cached sweep
    inputs = {"i0": 0, "i1": 1, "i2": 0}
    monkeypatch.setattr(Netlist, "topological_gates", _broken_ordering)
    monkeypatch.setattr(CompiledNetlist, "topological_order", _broken_ordering)
    with pytest.raises(TypeError, match="bug in ordering"):
        evaluate_netlist(netlist, inputs)
    with pytest.raises(TypeError, match="bug in ordering"):
        _engine_dc(kind, netlist, inputs)


def test_cyclic_lowering_is_ordered_once(monkeypatch):
    compiled = CompiledNetlist(modules.rs_latch())
    first = compiled.dc_values({"s_n": 0, "r_n": 1})
    monkeypatch.setattr(CompiledNetlist, "topological_order", _broken_ordering)
    assert compiled.dc_values({"s_n": 0, "r_n": 1}) == first


def test_compiled_paths_never_touch_the_object_graph_dc_init(monkeypatch):
    """With the object-graph ordering, evaluator and relaxation broken,
    compiled simulate(), simulate_batch() and a service batch (forked
    workers inherit the patches) must still succeed on an acyclic
    circuit."""
    netlist = random_netlist(11, 4, 12)
    names = [net.name for net in netlist.primary_inputs]
    stimuli = [random_stimulus(seed, names, 3) for seed in range(4)]
    expected = [
        simulate(netlist, stimulus, config=_config(), engine_kind="reference")
        for stimulus in stimuli
    ]
    monkeypatch.setattr(Netlist, "topological_gates", _broken_ordering)
    for name in ("evaluate_netlist", "_relax"):
        monkeypatch.setattr("repro.circuit.evaluate." + name, _broken_ordering)

    single = simulate(netlist, stimuli[0], config=_config(), engine_kind="compiled")
    assert single.final_values == expected[0].final_values
    batch = simulate_batch(netlist, stimuli, config=_config(), engine_kind="compiled")
    assert [r.final_values for r in batch] == [r.final_values for r in expected]
    with SimulationService(
        netlist, config=_config(), workers=1, engine_kind="compiled"
    ) as service:
        served = service.run_batch(stimuli)
    assert [r.stats.events_executed for r in served] == [
        r.stats.events_executed for r in expected
    ]
