"""The native kernel loop: its build, its fallback and its exactness.

The compiled engine runs ``_kernel.c`` (built on first use by
:mod:`repro.core._native`) and keeps its Python loop as the fallback
and the parity reference.  These tests pin the build (it must load
wherever a C compiler and the Python headers exist, so a silent
fallback fails here), the fallback (an unusable compiler gives the
Python loop, the same results and one warning), the cache key, and the
corners where the two loops could drift apart: integer times, errors
raised mid-loop, and a fault patch to a lowering an engine has already
run on.  The parity suites run every other case on both loops through
the ``loop`` fixture (``tests/conftest.py``).
"""

from __future__ import annotations

import logging
import os
import shutil
import stat
import sysconfig
import tempfile

import pytest

from repro.config import InertialPolicy, ddm_config
from repro.core import _native
from repro.core.engine import make_engine, run_stimulus, simulate
from repro.core.transition import Transition
from repro.errors import SimulationLimitError, WaveformError
from repro.faults.faultload import FaultKind, FaultSpec
from repro.faults.inject import FaultedStimulus
from repro.stimuli.vectors import PAPER_SEQUENCE_1, multiplication_sequence

_COUNTERS = (
    "events_executed", "events_scheduled", "events_filtered", "late_events",
    "transitions_emitted", "source_transitions", "transitions_degraded",
    "transitions_fully_degraded", "net_toggles",
)


def _native_buildable() -> bool:
    include = sysconfig.get_paths()["include"]
    return os.access(_native._COMPILER, os.X_OK) and os.path.isfile(
        os.path.join(include, "Python.h")
    )


def _use(loop: str, monkeypatch) -> None:
    """Select the kernel loop for what follows in the test."""
    if loop == "python":
        monkeypatch.setattr(_native, "_lib", False)
        return
    monkeypatch.undo()
    if _native.kernel() is None:
        pytest.skip("native kernel loop unavailable")


def _state(engine) -> tuple:
    """Everything the kernel loop reads or writes, as reprs (so 1 and
    1.0, or True and 1, differ)."""
    return (
        repr(engine.now),
        engine._seq,
        engine.queue._live,
        repr(engine.queue._heap),
        repr(engine._stacks),
        repr(engine._input_values),
        repr(engine._gate_out),
        repr(engine._gate_last),
        repr(engine._toggles),
        engine._toggles_dirty,
        tuple(repr(getattr(engine.stats, name)) for name in _COUNTERS),
        repr(list(engine.traces.row_lists())),
    )


def _result(result) -> tuple:
    return (
        tuple(repr(getattr(result.stats, name)) for name in _COUNTERS),
        result.final_values,
        repr(list(result.traces.row_lists())),
    )


# ----------------------------------------------------------------------
# build, cache and fallback
# ----------------------------------------------------------------------

def test_native_kernel_loads_where_a_compiler_and_headers_exist(monkeypatch):
    if not _native_buildable():
        pytest.skip("no C compiler or no Python headers here")
    monkeypatch.setattr(_native, "_lib", None)
    module = _native.kernel()
    assert module is not None, "the native kernel failed to build or load"
    assert callable(module.advance) and callable(module.dc_update)


def test_an_edited_source_changes_the_cache_name():
    with open(_native._SOURCE, "rb") as handle:
        source = handle.read()
    name = _native.cache_name(source, "gcc 12")
    assert name == _native.cache_name(source, "gcc 12")
    assert name != _native.cache_name(source + b"\n", "gcc 12")
    assert name != _native.cache_name(source, "gcc 13")
    assert name.endswith(sysconfig.get_config_var("EXT_SUFFIX"))


def _warnings_of(fn):
    """``fn()`` and the warnings it logs on the ``repro`` logger."""
    records = []
    handler = logging.Handler(logging.WARNING)
    handler.emit = records.append  # type: ignore[method-assign]
    logger = logging.getLogger("repro")
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.WARNING)
    try:
        return fn(), [record.getMessage() for record in records]
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


@pytest.fixture()
def private_cache(tmp_path, monkeypatch):
    """An unwritable package ``__pycache__`` (it cannot be created under
    a regular file), so the loader turns to its private directory under
    a fresh temporary directory.  Returns that directory's path and the
    path of a working library, built in the real package cache."""
    if not _native_buildable():
        pytest.skip("no C compiler or no Python headers here")
    library = _native.kernel().__file__
    blocker = tmp_path / "package"
    blocker.write_text("")
    monkeypatch.setattr(_native, "_PYCACHE", str(blocker / "__pycache__"))
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    monkeypatch.setattr(_native, "_lib", None)
    return tmp_path / ("repro-kernel-%d" % os.getuid()), library


def test_an_unwritable_package_cache_builds_in_a_private_directory(
    private_cache,
):
    directory, _library = private_cache
    umask = os.umask(0o002)  # the linker would leave a group-writable file
    try:
        module, warnings = _warnings_of(_native.kernel)
    finally:
        os.umask(umask)
    assert warnings == []
    assert module is not None
    assert os.path.dirname(module.__file__) == str(directory)
    assert stat.S_IMODE(directory.stat().st_mode) == 0o700
    assert stat.S_IMODE(os.stat(module.__file__).st_mode) == 0o755


def _plant_group_writable(directory, path):
    os.chmod(path, 0o775)


def _plant_foreign_owned(directory, path):
    if os.getuid() != 0:
        pytest.skip("giving a file to another user needs root")
    os.chown(path, os.getuid() + 1, -1)


def _plant_in_a_world_writable_directory(directory, path):
    os.chmod(directory, 0o777)


def _plant_through_a_symlinked_directory(directory, path):
    target = directory.with_name("elsewhere")
    directory.rename(target)
    directory.symlink_to(target)


@pytest.mark.parametrize("plant", [
    _plant_group_writable, _plant_foreign_owned,
    _plant_in_a_world_writable_directory,
    _plant_through_a_symlinked_directory,
], ids=lambda plant: plant.__name__[len("_plant_"):])
def test_a_library_planted_in_the_private_directory_is_not_loaded(
    private_cache, plant
):
    """A working library that someone else could have written is
    refused: the engines run the Python loop and say why, once."""
    directory, library = private_cache
    directory.mkdir(mode=0o700)
    planted = directory / _native._library_name()
    shutil.copyfile(library, planted)
    os.chmod(planted, 0o755)
    plant(directory, planted)

    module, warnings = _warnings_of(_native.kernel)
    assert module is None and _native._lib is False
    assert len(warnings) == 1
    assert "is not private to this user" in warnings[0]


def test_an_unusable_compiler_gives_the_python_loop_and_one_warning(
    mult4, monkeypatch
):
    stimulus = multiplication_sequence(PAPER_SEQUENCE_1)
    config = ddm_config(engine_kind="compiled")
    want = _result(simulate(mult4, stimulus, config=config))

    monkeypatch.setattr(_native, "_COMPILER", "/nonexistent/bin/cc")
    monkeypatch.setattr(_native, "_lib", None)
    records = []
    handler = logging.Handler(logging.WARNING)
    handler.emit = records.append  # type: ignore[method-assign]
    logger = logging.getLogger("repro")
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.WARNING)
    try:
        got = [_result(simulate(mult4, stimulus, config=config)) for _ in range(2)]
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)
    assert _native._lib is False
    assert got == [want, want]
    assert len(records) == 1
    assert "Python loop" in records[0].getMessage()


# ----------------------------------------------------------------------
# the corners of exactness
# ----------------------------------------------------------------------

def test_integer_times_store_the_same_objects_under_both_loops(
    mult4, monkeypatch
):
    """After ``run(until=<int>)`` the engine's ``now`` is that int; an
    edge fanned out at an int instant clamps its late crossings to it,
    so int times reach entries, and from them rows' ``cause_time``."""
    net = mult4.net(mult4.primary_outputs[2].name)

    def drive(loop):
        _use(loop, monkeypatch)
        engine = make_engine(mult4, config=ddm_config(), engine_kind="compiled")
        engine.initialize({name.name: 0 for name in mult4.primary_inputs})
        engine.apply_word({"a0": 1, "a1": 1, "b0": 1, "b1": 1}, 1, 1)
        snapshots = []
        for at_time in (2, 4):
            engine.run(until=at_time)
            assert type(engine.now) is int
            value = engine.value(net.name)
            edge = Transition(t50=at_time, duration=1, rising=value == 0,
                              net_name=net.name)
            engine._advance(None, 0, ((edge, net),))
            snapshots.append(_state(engine))
        engine.run(until=3 + 4)
        snapshots.append(_state(engine))
        engine.run()
        snapshots.append(_state(engine))
        return snapshots, engine

    native, engine = drive("native")
    python, _engine = drive("python")
    assert native == python
    assert any(
        type(row[4]) is int for rows in engine.traces.row_lists() for row in rows
    ), "no row was caused at an integer instant"


@pytest.mark.parametrize(
    "policy", list(InertialPolicy), ids=lambda policy: policy.name
)
def test_a_waveform_error_leaves_the_same_state_under_both_loops(
    mult4, monkeypatch, patched_lowering, policy
):
    def negative_duration(compiled):
        for table in (compiled.arc_rise, compiled.arc_fall):
            for uid, params in enumerate(table):
                tp0, d_slew, _tau, _s_slew, tau_deg, t0 = params
                if uid % 3 == 0:
                    table[uid] = (tp0, d_slew, -0.1, 0.0, tau_deg, t0)

    patched_lowering(mult4, negative_duration)
    stimulus = multiplication_sequence(PAPER_SEQUENCE_1)

    def drive(loop):
        _use(loop, monkeypatch)
        engine = make_engine(
            mult4, config=ddm_config(inertial_policy=policy),
            engine_kind="compiled",
        )
        with pytest.raises(WaveformError, match="must be positive") as excinfo:
            run_stimulus(engine, stimulus)
        return str(excinfo.value), _state(engine)

    native = drive("native")
    assert native == drive("python")
    assert native[1][3] != "[]", "the error should leave entries pending"


def test_a_budget_stop_leaves_the_same_state_under_both_loops(
    mult4, monkeypatch
):
    stimulus = multiplication_sequence(PAPER_SEQUENCE_1)

    def drive(loop):
        _use(loop, monkeypatch)
        engine = make_engine(
            mult4, config=ddm_config(max_events=57), engine_kind="compiled"
        )
        with pytest.raises(SimulationLimitError) as excinfo:
            run_stimulus(engine, stimulus)
        return str(excinfo.value), _state(engine)

    native = drive("native")
    assert native == drive("python")
    assert native[0].startswith("event budget (57) exhausted at t=")
    assert "— zero-delay oscillation?" in native[0]


@pytest.mark.parametrize(
    "kind", [FaultKind.STUCK_AT_1, FaultKind.DELAY_DRIFT],
    ids=lambda kind: kind.value,
)
def test_a_patch_to_a_lowering_an_engine_already_ran_on_is_seen(
    mult4, monkeypatch, kind
):
    """Fault injection patches the lowering lists in place after the
    engine has run on them; the native loop reads them live, as the
    Python loop does."""
    stimulus = multiplication_sequence(PAPER_SEQUENCE_1)
    fault = FaultSpec(kind, net=mult4.primary_outputs[3].name, factor=3.0)

    def drive(loop):
        _use(loop, monkeypatch)
        engine = make_engine(mult4, config=ddm_config(), engine_kind="compiled")
        clean = _result(run_stimulus(engine, stimulus))
        faulted = _result(run_stimulus(engine, FaultedStimulus(stimulus, fault)))
        again = _result(run_stimulus(engine, stimulus))
        return clean, faulted, again

    clean, faulted, again = drive("native")
    assert faulted != clean
    assert again == clean
    assert drive("python") == (clean, faulted, again)
