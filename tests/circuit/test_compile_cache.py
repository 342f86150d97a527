"""Regression tests for the ``Netlist.compile()`` cache.

The cache must be invalidated by *every* structural mutation.  The bug
this file pins down: ``mark_primary_output()`` used to mutate the
netlist without bumping ``_structure_version``, so a ``compile()`` ->
``mark_primary_output()`` -> ``compile()`` sequence served a stale
lowering that missed the newly marked output.
"""

import pytest

from repro.circuit.builder import CircuitBuilder
from repro.circuit.library import default_library


def build_chain():
    builder = CircuitBuilder(name="cache")
    a = builder.input("a")
    y = builder.inv(a, name="g0")
    return builder, y


def test_compile_is_cached_until_structure_changes():
    builder, y = build_chain()
    netlist = builder.netlist
    first = netlist.compile()
    assert netlist.compile() is first
    netlist.add_net("dangling")
    second = netlist.compile()
    assert second is not first
    assert second.num_nets == first.num_nets + 1


def test_mark_primary_output_invalidates_cache():
    builder, y = build_chain()
    netlist = builder.netlist
    stale = netlist.compile()
    assert stale.primary_output_names() == []
    netlist.mark_primary_output(y)
    fresh = netlist.compile()
    assert fresh is not stale, (
        "compile() served the stale lowering after mark_primary_output()"
    )
    assert fresh.primary_output_names() == [y.name]
    assert list(fresh.net_is_po) != list(stale.net_is_po)
    # idempotent re-marking does not thrash the cache
    netlist.mark_primary_output(y)
    assert netlist.compile() is fresh


def test_add_gate_invalidates_cache():
    builder, y = build_chain()
    netlist = builder.netlist
    stale = netlist.compile()
    builder.inv(y, name="g1")
    fresh = netlist.compile()
    assert fresh is not stale
    assert fresh.num_gates == stale.num_gates + 1
    # the new fanout edge is visible in the CSR adjacency
    assert len(fresh.fanout_targets) == len(stale.fanout_targets) + 1


def test_builder_rename_invalidates_cache():
    builder, y = build_chain()
    netlist = builder.netlist
    stale = netlist.compile()
    builder.output(y, "out")  # renames y and marks it an output
    fresh = netlist.compile()
    assert fresh is not stale
    assert "out" in fresh.net_names
    assert fresh.primary_output_names() == ["out"]


def test_invalidate_lowering_covers_direct_attribute_mutation():
    """Direct wire_cap / vt assignments cannot be observed by the cache;
    ``invalidate_lowering()`` is the documented escape hatch."""
    builder, y = build_chain()
    netlist = builder.netlist
    stale = netlist.compile()
    y.wire_cap += 5.0
    # the cache cannot see the attribute write ...
    assert netlist.compile() is stale
    # ... until told about it
    netlist.invalidate_lowering()
    fresh = netlist.compile()
    assert fresh is not stale
    assert fresh.net_load[y.index] == pytest.approx(stale.net_load[y.index] + 5.0)


def test_vt_override_path_is_covered_by_add_gate_bump():
    """Per-instance vt overrides enter through add_gate, which bumps."""
    library = default_library()
    builder = CircuitBuilder(library=library, name="vt")
    a = builder.input("a")
    stale = builder.netlist.compile()
    vdd = library.vdd
    builder.gate("INV", a, name="g0", vt_overrides={0: 0.31 * vdd})
    fresh = builder.netlist.compile()
    assert fresh is not stale
    assert fresh.vt_fraction[0] == pytest.approx(0.31)


def test_engine_built_before_invalidate_lowering_runs_the_new_loads():
    """A compiled engine built before ``invalidate_lowering()`` runs on
    the new lowering, so a direct ``wire_cap`` edit reaches it exactly
    as it reaches the reference engine."""
    from repro.circuit import modules
    from repro.config import ddm_config
    from repro.core.engine import make_engine, run_stimulus, simulate
    from repro.stimuli.patterns import random_vectors

    netlist = modules.array_multiplier(4)
    stimulus = random_vectors(
        [net.name for net in netlist.primary_inputs], count=6, period=3.0,
        seed=3,
    )
    engine = make_engine(netlist, config=ddm_config(), engine_kind="compiled")
    before = run_stimulus(engine, stimulus)
    for net in netlist.nets.values():
        if net.driver is not None:
            net.wire_cap += 0.05
    netlist.invalidate_lowering()
    after = run_stimulus(engine, stimulus)
    reference = simulate(netlist, stimulus, config=ddm_config(),
                         engine_kind="reference")
    rows = [list(net_rows) for net_rows in after.traces.row_lists()]
    assert rows == [list(r) for r in reference.traces.row_lists()]
    assert rows != [list(r) for r in before.traces.row_lists()]
    assert after.stats.events_executed == reference.stats.events_executed
