"""The ``CompiledNetlist.as_numpy()`` export: frozen views, full layout.

Two contracts, both regressions against the pre-PR-5 behaviour:

* the export is **read-only** — it used to hand out writable
  ``frombuffer`` views aliasing the netlist's *cached* lowering, so a
  caller mutation silently corrupted every subsequent ``simulate()``;
* the export is **complete** — PI/PO/driver/constant flags, dense truth
  tables and the delay-arc tables are all present, so the vector engine
  (and any external analysis) needs no side channels into the lowering.
"""

from __future__ import annotations

import pickle

import pytest

numpy = pytest.importorskip("numpy")

from repro.config import ddm_config
from repro.core.engine import simulate
from repro.stimuli.vectors import PAPER_SEQUENCE_1, multiplication_sequence

#: Every key the export must carry (docs/architecture.md layout table).
EXPORT_KEYS = {
    "vt_fraction", "net_load", "net_is_pi", "net_is_po", "net_driver",
    "net_constant", "fanout_offsets", "fanout_targets",
    "gate_input_offsets", "gate_output_net", "gate_arity", "gate_tables",
    "gate_table_offsets", "input_gate", "input_pin", "input_net",
    "arc_rise", "arc_fall",
}


@pytest.fixture()
def lowering(mult4):
    return mult4.compile()


def test_export_is_complete(lowering):
    exported = lowering.as_numpy()
    assert set(exported) == EXPORT_KEYS


def test_every_array_is_read_only(lowering):
    for key, array in lowering.as_numpy().items():
        assert not array.flags.writeable, key
        with pytest.raises(ValueError):
            array[(0,) * array.ndim] = 1


def test_mutation_attempt_cannot_corrupt_simulation(mult4, lowering):
    """The pre-fix failure mode: poking the export changed the cached
    lowering, and with it every later simulate() on the netlist."""
    stimulus = multiplication_sequence(PAPER_SEQUENCE_1)
    before = simulate(mult4, stimulus, config=ddm_config(),
                      engine_kind="compiled")
    exported = mult4.compile().as_numpy()
    with pytest.raises(ValueError):
        exported["vt_fraction"][:] = 0.999
    with pytest.raises(ValueError):
        exported["fanout_targets"][0] = 0
    after = simulate(mult4, stimulus, config=ddm_config(),
                     engine_kind="compiled")
    assert after.final_values == before.final_values
    assert after.stats.events_executed == before.stats.events_executed
    for name in mult4.nets:
        assert (
            after.traces[name].edges() == before.traces[name].edges()
        ), name


def test_views_alias_the_lowering_values(lowering):
    exported = lowering.as_numpy()
    assert exported["vt_fraction"].tolist() == list(lowering.vt_fraction)
    assert exported["fanout_targets"].tolist() == list(lowering.fanout_targets)
    assert exported["net_is_pi"].tolist() == list(lowering.net_is_pi)
    assert exported["net_is_po"].tolist() == list(lowering.net_is_po)
    assert exported["net_driver"].tolist() == list(lowering.net_driver)
    assert exported["input_pin"].tolist() == list(lowering.input_pin)
    assert exported["net_constant"].tolist() == [
        -1 if value is None else value for value in lowering.net_constant
    ]


def test_arc_tables_match_lowering_tuples(lowering):
    exported = lowering.as_numpy()
    for key, arcs in (("arc_rise", lowering.arc_rise),
                      ("arc_fall", lowering.arc_fall)):
        table = exported[key]
        assert table.shape == (lowering.num_inputs, 6)
        for uid in range(lowering.num_inputs):
            assert table[uid].tolist() == list(arcs[uid]), (key, uid)


def test_truth_tables_flatten_losslessly(lowering):
    exported = lowering.as_numpy()
    offsets = exported["gate_table_offsets"]
    flat = exported["gate_tables"]
    arity = exported["gate_arity"]
    assert len(offsets) == lowering.num_gates + 1
    for gate in range(lowering.num_gates):
        table = lowering.gate_tables[gate]
        segment = flat[offsets[gate]:offsets[gate + 1]].tolist()
        assert segment == list(table), gate
        assert len(segment) == 1 << int(arity[gate])
    expected_arity = [
        lowering.gate_input_offsets[g + 1] - lowering.gate_input_offsets[g]
        for g in range(lowering.num_gates)
    ]
    assert arity.tolist() == expected_arity


def test_export_is_cached_and_dict_is_fresh(lowering):
    first = lowering.as_numpy()
    second = lowering.as_numpy()
    assert first is not second  # callers may mutate their dict freely
    for key in EXPORT_KEYS:
        assert first[key] is second[key], key  # arrays built once
    first["vt_fraction"] = None  # dict tampering must not poison the cache
    assert lowering.as_numpy()["vt_fraction"] is second["vt_fraction"]


def test_cache_does_not_travel_through_pickle(mult4):
    lowering = mult4.compile()
    lowering.as_numpy()
    clone = pickle.loads(pickle.dumps(mult4))
    transported = clone.compile()
    assert transported._numpy_cache is None
    rebuilt = transported.as_numpy()
    assert rebuilt["vt_fraction"].tolist() == list(lowering.vt_fraction)
    assert not rebuilt["vt_fraction"].flags.writeable
