"""Shared fixtures and hypothesis configuration."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, settings

from repro.circuit import CircuitBuilder, modules
from repro.circuit.library import default_library
from repro.core import _native
from repro.faults.inject import _FINGERPRINT_FIELDS

#: every lowering list a test may patch: the fingerprinted fields and
#: the gate functions fault injection swaps alongside the tables
_PATCHABLE = (*_FINGERPRINT_FIELDS, "gate_functions")

# One moderate profile for all property tests: the engine fixtures are
# cheap but not free, and CI determinism matters more than example count.
settings.register_profile(
    "repro",
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")

# The differential fuzz of the two compiled kernel loops
# (tests/core/test_kernel_fuzz.py): tier-1 runs a short derandomised
# profile; CI runs the long random one with
# ``--hypothesis-profile kernel-fuzz-long``.
settings.register_profile(
    "kernel-fuzz",
    max_examples=400,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
settings.register_profile(
    "kernel-fuzz-long",
    max_examples=1500,
    deadline=None,
    print_blob=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@pytest.fixture(scope="session")
def library():
    """The shared default cell library (immutable)."""
    return default_library()


@pytest.fixture(scope="session")
def mult4():
    """The Figure 5 4x4 multiplier (shared; never mutated by simulators)."""
    return modules.array_multiplier(4)


@pytest.fixture(scope="session")
def renamed():
    """A netlist whose key order differs from its net-id order: renaming
    a net moves its key to the end without touching its id."""
    builder = CircuitBuilder(name="renamed")
    a, b = builder.input("a"), builder.input("b")
    inner = builder.nand(a, b)
    builder.output(builder.inv(inner), "y")
    builder.output(inner, "p")
    netlist = builder.build()
    assert [net.index for net in netlist.nets.values()] != list(
        range(len(netlist.nets))
    )
    return netlist


@pytest.fixture(scope="session")
def c17():
    return modules.c17()


@pytest.fixture()
def chain3():
    return modules.inverter_chain(3)


@pytest.fixture(params=["native", "python"], ids=[pytest.HIDDEN_PARAM, "python"])
def loop(request, monkeypatch):
    """Run the test once per compiled kernel loop: the native one (the
    engines' default, so its cases keep their plain ids) and the Python
    one (ids gain ``python``), its fallback and parity reference.  The
    native case is skipped only where the loop cannot be built (no C
    compiler or no Python headers); ``tests/core/test_native_kernel.py``
    fails where it could have been."""
    if request.param == "python":
        monkeypatch.setattr(_native, "_lib", False)
    elif _native.kernel() is None:
        pytest.skip("native kernel loop unavailable")
    return request.param


@pytest.fixture()
def patched_lowering():
    """Mutate a netlist's cached lowering in place, restore at teardown.

    The one sanctioned route for tests that corrupt the compiled
    lowering (the STA-teeth and fault-teeth suites): call
    ``patched_lowering(netlist, mutate_fn)`` — the fixture snapshots
    every lowering list (the fingerprinted fields and the gate
    functions) and the raw gate cells first, applies the mutation, and
    restores everything byte-identically when the test ends, pass or
    fail.  Ad-hoc in-place mutation without this fixture leaks
    corrupted state into every later test sharing the netlist (or its
    primed caches).
    """
    patched = []

    def patch(netlist, mutate=None):
        compiled = netlist.compile()
        saved = {
            field: list(getattr(compiled, field)) for field in _PATCHABLE
        }
        saved["gate_tables"] = [
            None if table is None else list(table)
            for table in compiled.gate_tables
        ]
        patched.append(
            (
                netlist,
                compiled,
                saved,
                {name: gate.cell for name, gate in netlist.gates.items()},
            )
        )
        if mutate is not None:
            mutate(compiled)
        return compiled

    yield patch

    for netlist, compiled, saved, cells in reversed(patched):
        for field, values in saved.items():
            if field == "gate_tables":
                values = [
                    None if table is None else list(table)
                    for table in values
                ]
            getattr(compiled, field)[:] = values
        for name, cell in cells.items():
            netlist.gates[name].cell = cell
