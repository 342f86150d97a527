"""Differential fuzz of the two compiled kernel loops.

The compiled engine runs ``_kernel.c`` and keeps its Python loop as the
fallback and the parity reference.  Hypothesis draws what the fixed
suites do not: random DAG netlists (:func:`random_netlist`, and the
same kind of DAG with its gates built in a shuffled order), stimuli
with integer or float times and repeated values, DDM and CDM under both
inertial policies, traces on and off, small event budgets, runs split
into ``step()`` and ``run(until)`` calls, and chunks of faulted runs of
every kind (cone runs against a golden recording, and full runs).

Each case runs on both loops.  The two must leave the same state by
``repr`` (:func:`test_native_kernel._state`: heap, stacks, rows,
statistics, traces), both must equal the reference engine's results,
time must never decrease and no entry may be scheduled into the past.

Tier-1 runs the derandomised ``kernel-fuzz`` profile
(``tests/conftest.py``); CI runs a longer random one with
``--hypothesis-profile kernel-fuzz-long``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import random

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.circuit.builder import CircuitBuilder
from repro.config import InertialPolicy, cdm_config, ddm_config
from repro.core import _native
from repro.core.batch import run_chunk
from repro.core.compiled import _PENDING, E_STATE, E_TIME
from repro.core.engine import make_engine, run_stimulus
from repro.core.stats import SimulationStatistics
from repro.errors import ReproError
from repro.faults.faultload import FaultKind, FaultSpec
from repro.faults.differential import MIN_MUTANTS_TO_RECORD
from repro.faults.inject import FaultedStimulus
from repro.stimuli.vectors import VectorSequence

from test_backend_parity import _CELL_CHOICES, random_netlist
from test_native_kernel import _state

#: the profile the fuzz runs under: CI's long one when it is loaded,
#: else tier-1's short derandomised one
_PROFILE = settings.get_profile(
    "kernel-fuzz-long"
    if settings.get_current_profile_name() == "kernel-fuzz-long"
    else "kernel-fuzz"
)

_STATS = [
    field.name for field in dataclasses.fields(SimulationStatistics)
    if field.name != "runtime_seconds"
]


@pytest.fixture(scope="module", autouse=True)
def _native_loop():
    if _native.kernel() is None:
        pytest.skip("native kernel loop unavailable")


@contextlib.contextmanager
def _loop(name):
    """Run the block on the ``"native"`` or the ``"python"`` loop."""
    saved = _native._lib
    if name == "python":
        _native._lib = False
    try:
        yield
    finally:
        _native._lib = saved


def _observed(stats, final_values, traces):
    """Every field of a run that every engine must reproduce."""
    return {
        "stats": {name: getattr(stats, name) for name in _STATS},
        "final_values": list(final_values.items()),
        "names": traces.names(),
        "initial": traces.initial_values(),
        "rows": [list(rows) for rows in traces.row_lists()],
        "horizon": traces.horizon,
    }


def _outcome(error):
    return None if error is None else (type(error).__name__, str(error))


# ----------------------------------------------------------------------
# what Hypothesis draws
# ----------------------------------------------------------------------

@st.composite
def _configs(draw):
    make = draw(st.sampled_from([ddm_config, cdm_config]))
    return make(
        inertial_policy=draw(st.sampled_from(list(InertialPolicy))),
        record_traces=draw(st.booleans()),
        max_events=draw(st.one_of(st.just(10**6), st.integers(1, 60))),
    )


def _shuffled_netlist(seed, num_inputs, num_gates):
    """A random DAG whose gates are built in a shuffled order, so some
    gates come before the gates driving their inputs (such netlists
    take full runs instead of cone runs)."""
    generator = random.Random(seed)
    builder = CircuitBuilder(name="shuffled%d" % seed)
    nets = [builder.input("i%d" % k) for k in range(num_inputs)]
    outputs = [builder.net("n%d" % k) for k in range(num_gates)]
    gates = []
    for index, output in enumerate(outputs):
        cell_name, arity = generator.choice(_CELL_CHOICES)
        operands = [generator.choice(nets) for _ in range(arity)]
        gates.append((cell_name, operands, output, "g%d" % index))
        nets.append(output)
    generator.shuffle(gates)
    for cell_name, operands, output, name in gates:
        builder.gate(cell_name, *operands, output=output, name=name)
    for net in list(builder.netlist.nets.values()):
        if not net.fanouts and not net.is_primary_input:
            builder.output(net)
    for net in list(builder.netlist.primary_inputs):
        if not net.fanouts:
            builder.output(builder.buf(net, name="obs_%s" % net.name))
    return builder.build()


@st.composite
def _circuits(draw):
    """A random DAG and a stimulus over its inputs."""
    build = draw(st.sampled_from([random_netlist, _shuffled_netlist]))
    netlist = build(
        draw(st.integers(0, 10**6)), draw(st.integers(1, 5)),
        draw(st.integers(1, 20)),
    )
    names = [net.name for net in netlist.primary_inputs]
    if draw(st.booleans()):
        gap = st.integers(1, 3)
    else:
        gap = st.floats(0.05, 3.0).map(lambda value: round(value, 3))
    time = 0
    steps = []
    for _ in range(draw(st.integers(1, 6))):
        # Random subsets with random values: many assignments repeat
        # what the input already holds.
        picked = draw(st.lists(st.sampled_from(names), unique=True))
        steps.append((time, {name: draw(st.integers(0, 1)) for name in picked}))
        time += draw(gap)
    stimulus = VectorSequence(
        steps, slew=draw(st.sampled_from([None, 0.05, 0.25, 1])),
        horizon=time,
    )
    return netlist, stimulus


# ----------------------------------------------------------------------
# split runs
# ----------------------------------------------------------------------

def _drive(engine, stimulus, plan, settle):
    """Play ``stimulus`` as ``plan`` splits it: before each change (and
    before the final drain) ``steps`` calls to ``step()`` while an event
    lies at or before the change, then, when ``mid``, a ``run(until)``
    halfway there.  Returns the error that stopped the run (or None)
    and, on the compiled engine, the engine's time after every call.

    On the compiled engine every call is checked: the time never
    decreases, an executed entry's time is the engine's time, and no
    pending entry lies before it.
    """
    compiled = engine.kind == "compiled"
    times = []

    def check(entry=None):
        if not compiled:
            return
        now = engine.now
        assert not times or now >= times[-1], (times[-1], now)
        if entry is not None:
            assert entry[E_TIME] == now
        for pending in engine.queue._heap:
            if pending[E_STATE] == _PENDING:
                assert pending[E_TIME] >= now, (pending, now)
        times.append(now)

    def advance(to, steps, mid):
        for _ in range(steps):
            head = engine.queue.peek_time()
            if head is None or (to is not None and head > to):
                break
            check(engine.step())
        if mid and to is not None:
            engine.run(until=to - (to - engine.now) / 2)
            check()
        engine.run(until=to)
        check()

    changes = list(stimulus.iter_changes())
    try:
        engine.initialize(stimulus.initial_values(engine.netlist))
        check()
        for (at_time, assignments, slew), (steps, mid) in zip(changes, plan):
            advance(at_time, steps, mid)
            engine.apply_word(assignments, at_time, slew)
            check()
        steps, mid = plan[-1]
        advance(stimulus.horizon + settle, steps, mid)
        advance(None, steps, False)
    except ReproError as error:
        return error, times
    return None, times


@_PROFILE
@given(circuit=_circuits(), config=_configs(), data=st.data())
def test_split_runs_agree_across_both_loops_and_reference(circuit, config, data):
    netlist, stimulus = circuit
    changes = sum(1 for _ in stimulus.iter_changes())
    plan = data.draw(st.lists(
        st.tuples(st.integers(0, 3), st.booleans()),
        min_size=changes + 1, max_size=changes + 1,
    ), label="plan")
    settle = data.draw(st.sampled_from([0, 0.5, 2.0]), label="settle")

    runs = {}
    for name in ("native", "python"):
        with _loop(name):
            engine = make_engine(netlist, config=config, engine_kind="compiled")
            error, times = _drive(engine, stimulus, plan, settle)
            runs[name] = (_outcome(error), times, _state(engine), engine)
    native, python = runs["native"], runs["python"]
    event("stopped by %s" % (native[0] or ("nothing",))[0])
    assert native[:3] == python[:3]

    reference = make_engine(netlist, config=config, engine_kind="reference")
    error, _times = _drive(reference, stimulus, plan, settle)
    assert _outcome(error) == native[0]
    engine = native[3]
    assert _observed(
        reference.stats, reference.values(), reference.traces
    ) == _observed(engine.stats, engine.values(), engine.traces)


# ----------------------------------------------------------------------
# faulted chunks: cone runs, recordings and full runs
# ----------------------------------------------------------------------

@st.composite
def _faults(draw, netlist, horizon):
    driven = [name for name, net in netlist.nets.items() if net.driver]
    kind = draw(st.sampled_from(list(FaultKind)))
    net = draw(st.sampled_from(driven))
    if kind is FaultKind.SET_PULSE:
        return FaultSpec(
            kind, net,
            time=draw(st.floats(0.0, horizon).map(lambda value: round(value, 2))),
            width=draw(st.sampled_from([0.05, 0.3, 1.0, 2.5])),
        )
    if kind is FaultKind.DELAY_DRIFT:
        return FaultSpec(kind, net, factor=draw(st.sampled_from([0.4, 1.7, 4.0])))
    return FaultSpec(kind, net)


def _chunk(engine, mutants, settle):
    """``run_chunk``'s results, up to the error that stopped it."""
    results = []
    try:
        for result in run_chunk(engine, mutants, settle=settle):
            results.append(result)
    except ReproError as error:
        return results, error
    return results, None


def _seen(result):
    return _observed(result.stats, result.final_values, result.traces)


@_PROFILE
@given(circuit=_circuits(), config=_configs(), data=st.data())
def test_faulted_chunks_agree_across_both_loops_and_reference(
    circuit, config, data
):
    netlist, stimulus = circuit
    faults = data.draw(st.lists(
        _faults(netlist, stimulus.horizon),
        min_size=MIN_MUTANTS_TO_RECORD, max_size=MIN_MUTANTS_TO_RECORD + 4,
    ), label="faults")
    mutants = [FaultedStimulus(stimulus, fault) for fault in faults]
    settle = data.draw(st.sampled_from([0, 1.5]), label="settle")

    runs = {}
    for name in ("native", "python"):
        with _loop(name):
            engine = make_engine(netlist, config=config, engine_kind="compiled")
            results, error = _chunk(engine, mutants, settle)
            runner = engine._differential
            kernels = [engine]
            if runner is not None:
                kernels.append(runner.cone_kernel)
                if runner.golden is not None:
                    kernels.append(runner.golden)
            runs[name] = (
                _outcome(error), [_seen(result) for result in results],
                [_state(kernel) for kernel in kernels],
            )
            cones = sum(result.simulator is not engine for result in results)
    event("stopped by %s" % (runs["native"][0] or ("nothing",))[0])
    event("cone runs: %s" % ("none" if not cones else "some"))
    assert runs["native"] == runs["python"]

    outcome, seen, _states = runs["native"]
    reference = make_engine(netlist, config=config, engine_kind="reference")
    for position, mutant in enumerate(mutants):
        try:
            result = run_stimulus(reference, mutant, settle=settle)
        except ReproError as error:
            assert position == len(seen), mutant.fault.describe()
            assert _outcome(error) == outcome, mutant.fault.describe()
            break
        assert _seen(result) == seen[position], mutant.fault.describe()
    else:
        assert outcome is None
