"""The engine-availability matrix: clear failures at validation time.

Every numpy-backed engine (``bitparallel``) on a numpy-less install
must fail with one actionable :class:`SimulationError` (or the server's
``bad-frame`` twin) at *configuration* time — config validation,
``make_engine``, service construction, server registration, the CLI —
never as a bare ``ImportError`` mid-simulation.  The pure backends
(``reference``, ``compiled`` and its kept alias ``vector``) must keep
validating and running with numpy gone.  numpy is installed in CI, so absence is simulated by
monkeypatching :func:`repro.config.numpy_available`, which every layer
consults through the module; one subprocess test blocks the import
itself and runs the compiled core end to end.

The matrix is driven from ``ENGINE_KINDS`` itself, so a newly
registered backend is automatically probed on both axes.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
import repro.config as config_module
from repro.config import SimulationConfig, ddm_config
from repro.core.compiled import VectorSimulator
from repro.core.engine import ENGINE_KINDS, make_engine
from repro.core.service import SimulationService
from repro.errors import ServerError, SimulationError
from repro.server.registry import NetlistRegistry

ALL_KINDS = sorted(ENGINE_KINDS)

#: The declared availability split.  A test below proves this set stays
#: in sync with the registry's actual behaviour, so adding an engine
#: with an unlisted numpy dependency fails loudly here.
NUMPY_KINDS = frozenset({"bitparallel"})
PURE_KINDS = frozenset(ALL_KINDS) - NUMPY_KINDS


@pytest.fixture()
def no_numpy(monkeypatch):
    monkeypatch.setattr(config_module, "numpy_available", lambda: False)


def test_declared_split_matches_registry(no_numpy):
    """NUMPY_KINDS is exactly the set of kinds whose ensure_available
    raises without numpy — the matrix can't silently go stale."""
    needing = set()
    for kind in ALL_KINDS:
        try:
            ENGINE_KINDS[kind].ensure_available()
        except SimulationError:
            needing.add(kind)
    assert needing == NUMPY_KINDS


def test_all_kinds_registered_even_without_numpy(no_numpy):
    # The registry always lists every backend, so unknown-kind errors
    # name them all and the availability failure stays the clear one.
    for kind in ALL_KINDS:
        assert kind in ENGINE_KINDS
    assert ENGINE_KINDS["vector"] is VectorSimulator


def test_unknown_engine_error_lists_every_kind(chain3):
    with pytest.raises(SimulationError) as excinfo:
        make_engine(chain3, engine_kind="warp")
    for kind in ALL_KINDS:
        assert kind in str(excinfo.value)


# ----------------------------------------------------------------------
# numpy-backed kinds: one actionable error per layer
# ----------------------------------------------------------------------

@pytest.mark.parametrize("kind", sorted(NUMPY_KINDS))
def test_config_validation_requires_numpy(no_numpy, kind):
    config = SimulationConfig(engine_kind=kind)
    with pytest.raises(SimulationError) as excinfo:
        config.validate()
    message = str(excinfo.value)
    assert kind in message  # names the engine that needs it
    assert "numpy" in message
    assert "compiled" in message  # actionable: names the fallback


@pytest.mark.parametrize("kind", sorted(NUMPY_KINDS))
def test_make_engine_requires_numpy(chain3, no_numpy, kind):
    with pytest.raises(SimulationError) as excinfo:
        make_engine(chain3, engine_kind=kind)
    assert "numpy" in str(excinfo.value)


@pytest.mark.parametrize("kind", sorted(NUMPY_KINDS))
def test_service_construction_requires_numpy(mult4, no_numpy, kind):
    # Must fail before any worker is spawned, not as a crash loop.
    with pytest.raises(SimulationError) as excinfo:
        SimulationService(mult4, config=ddm_config(), workers=1,
                          engine_kind=kind)
    assert "numpy" in str(excinfo.value)


@pytest.mark.parametrize("kind", sorted(NUMPY_KINDS))
def test_server_registration_requires_numpy(no_numpy, kind):
    registry = NetlistRegistry(max_netlists=4)
    with pytest.raises(ServerError) as excinfo:
        registry.register(
            "c17.%s" % kind, {"kind": "builtin", "name": "c17"},
            engine_kind=kind,
        )
    assert excinfo.value.kind == "bad-frame"
    assert "numpy" in str(excinfo.value)
    assert len(registry) == 0  # the doomed entry consumed no slot


@pytest.mark.parametrize("kind", sorted(NUMPY_KINDS))
def test_cli_engine_requires_numpy(no_numpy, capsys, kind):
    from repro.cli import main

    assert main([
        "simulate", "--circuit", "c17", "--vectors", "2",
        "--engine", kind,
    ]) == 1
    err = capsys.readouterr().err
    assert "numpy" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("kind", sorted(NUMPY_KINDS))
def test_cli_engine_batch_requires_numpy(no_numpy, capsys, kind):
    from repro.cli import main

    assert main([
        "simulate", "--circuit", "c17", "--batch", "3", "--vectors", "2",
        "--engine", kind,
    ]) == 1
    assert "numpy" in capsys.readouterr().err


# ----------------------------------------------------------------------
# pure-python kinds: unaffected by the probe
# ----------------------------------------------------------------------

@pytest.mark.parametrize("kind", sorted(PURE_KINDS))
def test_pure_kinds_validate_without_numpy(no_numpy, kind):
    SimulationConfig(engine_kind=kind).validate()


@pytest.mark.parametrize("kind", sorted(PURE_KINDS))
def test_pure_kinds_simulate_without_numpy(chain3, no_numpy, kind):
    from repro.stimuli.vectors import VectorSequence

    inputs = [net.name for net in chain3.primary_inputs]
    steps = [(0.0, {name: 0 for name in inputs}),
             (2.0, {name: 1 for name in inputs})]
    stimulus = VectorSequence(steps, slew=0.2, tail=4.0)
    from repro.core.engine import simulate

    result = simulate(chain3, stimulus, config=ddm_config(),
                      engine_kind=kind)
    assert result.stats.events_executed > 0


@pytest.mark.parametrize("kind", sorted(PURE_KINDS))
def test_pure_kinds_register_without_numpy(no_numpy, kind):
    registry = NetlistRegistry(max_netlists=4)
    handle = registry.register(
        "c17.%s" % kind, {"kind": "builtin", "name": "c17"},
        engine_kind=kind,
    )
    assert handle is not None
    assert len(registry) == 1


@pytest.mark.parametrize("kind", sorted(PURE_KINDS))
def test_pure_kinds_run_on_the_cli_without_numpy(no_numpy, capsys, kind):
    from repro.cli import main

    assert main([
        "simulate", "--circuit", "c17", "--vectors", "2",
        "--engine", kind,
    ]) == 0
    assert "numpy" not in capsys.readouterr().err


@pytest.mark.parametrize("kind", sorted(PURE_KINDS))
def test_pure_kinds_run_a_cli_batch_without_numpy(no_numpy, capsys, kind):
    from repro.cli import main

    assert main([
        "simulate", "--circuit", "c17", "--batch", "3", "--vectors", "2",
        "--engine", kind,
    ]) == 0
    assert "numpy" not in capsys.readouterr().err


def test_all_kinds_validate_with_numpy():
    for kind in ALL_KINDS:
        SimulationConfig(engine_kind=kind).validate()


def test_server_registration_rejects_unknown_engine():
    registry = NetlistRegistry(max_netlists=4)
    with pytest.raises(ServerError) as excinfo:
        registry.register(
            "c17.bogus", {"kind": "builtin", "name": "c17"},
            engine_kind="bogus",
        )
    assert excinfo.value.kind == "bad-frame"
    for kind in ALL_KINDS:
        assert kind in str(excinfo.value)


#: Runs in a fresh interpreter whose ``numpy`` import always fails.
_WITHOUT_NUMPY = textwrap.dedent("""
    import importlib.abc
    import sys

    class BlockNumpy(importlib.abc.MetaPathFinder):
        def find_spec(self, name, path=None, target=None):
            if name == "numpy" or name.startswith("numpy."):
                raise ImportError("numpy is blocked")
            return None

    sys.meta_path.insert(0, BlockNumpy())

    from repro.circuit import modules
    from repro.config import ddm_config
    from repro.core.engine import simulate
    from repro.faults import differential
    from repro.faults.campaign import run_campaign
    from repro.faults.faultload import FaultSpec, FaultKind, generate_faultload
    from repro.faults.inject import FaultInjection, lowering_fingerprint
    from repro.stimuli.patterns import random_vectors

    mult4 = modules.array_multiplier(4)
    names = [net.name for net in mult4.primary_inputs]
    stimulus = random_vectors(names, 3, 5.0, seed=2)
    result = simulate(mult4, stimulus, config=ddm_config(),
                      engine_kind="compiled")
    assert result.stats.events_executed > 0

    cone_runs = []
    run_cone = differential.DifferentialRunner._run_cone

    def counting(self, *args):
        cone_runs.append(1)
        return run_cone(self, *args)

    differential.DifferentialRunner._run_cone = counting
    faultload = generate_faultload(mult4, 20, seed=4,
                                   window=(0.0, stimulus.horizon))
    report = run_campaign(mult4, faultload, stimulus, config=ddm_config(),
                          engine_kind="compiled")
    assert len(report.outcomes) == 20
    assert cone_runs, "the campaign took no cone run"

    before = lowering_fingerprint(mult4)
    net = mult4.primary_outputs[0].name
    with FaultInjection(mult4, FaultSpec(kind=FaultKind.BIT_FLIP, net=net)):
        assert lowering_fingerprint(mult4) != before
    assert lowering_fingerprint(mult4) == before

    assert "numpy" not in sys.modules
    print("ok")
""")


def test_the_compiled_core_runs_without_numpy():
    """A compiled run, a cone-path campaign and the fingerprint round
    trip need no numpy: the lowering is plain lists."""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")])
    )
    completed = subprocess.run(
        [sys.executable, "-c", _WITHOUT_NUMPY], env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == "ok"
