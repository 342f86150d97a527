"""Vector sequences and pulse patterns."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import StimulusError
from repro.stimuli.patterns import glitch_pair, pulse, pulse_train, random_vectors
from repro.stimuli.vectors import (
    PAPER_SEQUENCE_1,
    PAPER_SEQUENCE_2,
    VectorSequence,
    multiplication_sequence,
)


def test_paper_sequences_are_the_paper_ones():
    assert PAPER_SEQUENCE_1 == ((0, 0), (7, 7), (5, 10), (14, 6), (15, 15))
    assert PAPER_SEQUENCE_2 == ((0, 0), (15, 15), (0, 0), (15, 15), (0, 0))


def test_sequence_validation():
    with pytest.raises(StimulusError):
        VectorSequence([])
    with pytest.raises(StimulusError):
        VectorSequence([(0.0, {"a": 0}), (0.0, {"a": 1})])
    with pytest.raises(StimulusError):
        VectorSequence([(-1.0, {"a": 0})])
    with pytest.raises(StimulusError):
        VectorSequence([(0.0, {"a": 2})])
    with pytest.raises(StimulusError):
        VectorSequence([(0.0, {"a": 0})], horizon=-1.0)


def test_defaults_must_be_binary_or_none():
    with pytest.raises(StimulusError):
        VectorSequence([(0.0, {"a": 0})], defaults=2)
    with pytest.raises(StimulusError):
        VectorSequence([(0.0, {"a": 0})], defaults=-1)
    # the supported values still work
    VectorSequence([(0.0, {"a": 0})], defaults=0)
    VectorSequence([(0.0, {"a": 0})], defaults=1)
    VectorSequence([(0.0, {"a": 0})], defaults=None)


def test_bad_defaults_cannot_leak_into_initial_values():
    """The regression: defaults=2 used to flow silently into the DC
    assignment of every uncovered primary input."""
    with pytest.raises(StimulusError):
        VectorSequence([(1.0, {"in": 1})], defaults=2)


def test_horizon_must_lie_after_the_last_ramped_step():
    # equality with the last (ramped) step would end the stimulus at the
    # very instant its final input ramp starts
    with pytest.raises(StimulusError):
        VectorSequence([(0.0, {"a": 0}), (5.0, {"a": 1})], horizon=5.0)
    with pytest.raises(StimulusError):
        VectorSequence([(0.0, {"a": 0}), (5.0, {"a": 1})], horizon=4.0)
    # strictly-after is accepted
    ok = VectorSequence([(0.0, {"a": 0}), (5.0, {"a": 1})], horizon=5.25)
    assert ok.horizon == 5.25
    # a DC-only sequence has no ramp in flight: equality stays legal
    dc = VectorSequence([(0.0, {"a": 0})], horizon=0.0)
    assert dc.horizon == 0.0


def test_initial_values_fill_defaults(chain3):
    sequence = VectorSequence([(1.0, {"in": 1})])
    assert sequence.initial_values(chain3) == {"in": 0}


def test_initial_values_strict_mode(chain3):
    sequence = VectorSequence([(1.0, {"in": 1})], defaults=None)
    with pytest.raises(StimulusError):
        sequence.initial_values(chain3)


def test_initial_values_reject_unknown_nets(chain3):
    sequence = VectorSequence([(0.0, {"in": 0, "bogus": 1})])
    with pytest.raises(StimulusError):
        sequence.initial_values(chain3)


def test_iter_changes_skips_time_zero():
    sequence = VectorSequence(
        [(0.0, {"a": 0}), (2.0, {"a": 1}), (4.0, {"a": 0})], slew=0.3
    )
    changes = list(sequence.iter_changes())
    assert changes == [(2.0, {"a": 1}, 0.3), (4.0, {"a": 0}, 0.3)]


def test_horizon_defaults_to_last_step_plus_tail():
    sequence = VectorSequence([(0.0, {"a": 0}), (7.0, {"a": 1})], tail=3.0)
    assert sequence.horizon == 10.0
    explicit = VectorSequence([(0.0, {"a": 0})], horizon=42.0)
    assert explicit.horizon == 42.0


def test_from_bus_words():
    sequence = VectorSequence.from_bus_words(
        {"a": (2, [0, 3]), "b": (2, [1, 2])}, period=4.0
    )
    assert len(sequence) == 2
    first_time, first = sequence.steps[0]
    assert first_time == 0.0
    assert first == {"a0": 0, "a1": 0, "b0": 1, "b1": 0}
    second_time, second = sequence.steps[1]
    assert second_time == 4.0
    assert second == {"a0": 1, "a1": 1, "b0": 0, "b1": 1}


def test_from_bus_words_validation():
    with pytest.raises(StimulusError):
        VectorSequence.from_bus_words({"a": (2, [0]), "b": (2, [0, 1])}, 5.0)
    with pytest.raises(StimulusError):
        VectorSequence.from_bus_words({"a": (2, [])}, 5.0)
    with pytest.raises(StimulusError):
        VectorSequence.from_bus_words({"a": (2, [0])}, 0.0)


def test_multiplication_sequence_matches_figure6_axis():
    sequence = multiplication_sequence(PAPER_SEQUENCE_1)
    times = [t for t, _a in sequence.steps]
    assert times == [0.0, 5.0, 10.0, 15.0, 20.0]
    assert sequence.horizon == 25.0


def test_pulse_shape():
    stimulus = pulse("x", start=2.0, width=0.5, background={"y": 1})
    assert stimulus.steps[0] == (0.0, {"y": 1, "x": 0})
    assert stimulus.steps[1] == (2.0, {"x": 1})
    assert stimulus.steps[2] == (2.5, {"x": 0})


def test_pulse_polarity_zero():
    stimulus = pulse("x", start=1.0, width=0.5, polarity=0)
    assert stimulus.steps[0][1]["x"] == 1
    assert stimulus.steps[1][1]["x"] == 0


def test_pulse_validation():
    with pytest.raises(StimulusError):
        pulse("x", start=0.0, width=1.0)
    with pytest.raises(StimulusError):
        pulse("x", start=1.0, width=0.0)
    with pytest.raises(StimulusError):
        pulse("x", start=1.0, width=1.0, polarity=2)


def test_pulse_train_steps():
    stimulus = pulse_train("x", start=1.0, width=0.2, spacing=1.0, count=3)
    rising = [t for t, a in stimulus.steps if a.get("x") == 1]
    assert rising == [1.0, 2.0, 3.0]
    with pytest.raises(StimulusError):
        pulse_train("x", start=1.0, width=0.5, spacing=0.4, count=2)
    with pytest.raises(StimulusError):
        pulse_train("x", start=1.0, width=0.2, spacing=1.0, count=0)


def test_glitch_pair_gap():
    stimulus = glitch_pair("x", first_start=1.0, first_width=0.3, gap=0.5,
                           second_width=0.2)
    times = [t for t, _a in stimulus.steps]
    assert times == [0.0, 1.0, 1.3, 1.8, 2.0]
    with pytest.raises(StimulusError):
        glitch_pair("x", 1.0, 0.3, 0.0, 0.2)


def test_to_dict_from_dict_round_trip():
    sequence = VectorSequence(
        [(0.0, {"a": 0, "b": 1}), (2.0, {"a": 1})], slew=0.3, horizon=9.0
    )
    clone = VectorSequence.from_dict(sequence.to_dict())
    assert clone.steps == sequence.steps
    assert clone.slew == sequence.slew
    assert clone.defaults == sequence.defaults
    assert clone.horizon == sequence.horizon


def test_from_dict_validates_payload():
    with pytest.raises(StimulusError):
        VectorSequence.from_dict({"slew": 0.2})
    with pytest.raises(StimulusError):
        VectorSequence.from_dict({"steps": [[0.0, {"a": 2}]]})
    with pytest.raises(StimulusError):
        VectorSequence.from_dict({"steps": [[0.0, {"a": 0}]], "defaults": 3})
    # malformed step shapes surface as StimulusError, not raw TypeError/
    # KeyError tracebacks (the CLI only catches ReproError)
    with pytest.raises(StimulusError):
        VectorSequence.from_dict({"steps": [{"t": 0}]})
    with pytest.raises(StimulusError):
        VectorSequence.from_dict({"steps": [["x", {"a": 0}]]})
    with pytest.raises(StimulusError):
        VectorSequence.from_dict({"steps": [[0.0]]})
    with pytest.raises(StimulusError):
        VectorSequence.from_dict(42)


def test_load_vector_batches(tmp_path):
    import json

    from repro.stimuli.vectors import load_vector_batches

    path = tmp_path / "vectors.json"
    path.write_text(json.dumps([
        {"steps": [[0.0, {"a": 0}], [2.0, {"a": 1}]], "slew": 0.25},
        {"steps": [[0.0, {"a": 1}]], "horizon": 7.5},
    ]))
    batch = load_vector_batches(str(path))
    assert len(batch) == 2
    assert batch[0].slew == 0.25
    assert batch[1].horizon == 7.5

    wrapped = tmp_path / "wrapped.json"
    wrapped.write_text(json.dumps({"vectors": [{"steps": [[0.0, {"a": 0}]]}]}))
    assert len(load_vector_batches(str(wrapped))) == 1

    empty = tmp_path / "empty.json"
    empty.write_text("[]")
    with pytest.raises(StimulusError):
        load_vector_batches(str(empty))


def test_random_vector_batch_deterministic_and_independent():
    from repro.stimuli.patterns import random_vector_batch

    names = ["a", "b"]
    batch = random_vector_batch(names, batch=3, count=4, period=2.0,
                                base_seed=5)
    assert len(batch) == 3
    # member k reproduces random_vectors with seed base_seed + k
    for position, sequence in enumerate(batch):
        twin = random_vectors(names, count=4, period=2.0, seed=5 + position)
        assert sequence.steps == twin.steps
    assert batch[0].steps != batch[1].steps
    with pytest.raises(StimulusError):
        random_vector_batch(names, batch=0, count=1, period=1.0)


def test_random_vectors_deterministic():
    names = ["a", "b", "c"]
    first = random_vectors(names, count=5, period=2.0, seed=7)
    second = random_vectors(names, count=5, period=2.0, seed=7)
    different = random_vectors(names, count=5, period=2.0, seed=8)
    assert first.steps == second.steps
    assert first.steps != different.steps
    assert len(first) == 5
    with pytest.raises(StimulusError):
        random_vectors(names, count=0, period=1.0)


# ----------------------------------------------------------------------
# serialisation round-trip: the wire format's correctness foundation
# ----------------------------------------------------------------------

def _sequences_equal(first, second):
    assert second.steps == first.steps
    assert second.slew == first.slew
    assert second.defaults == first.defaults
    assert second.horizon == first.horizon


@st.composite
def vector_sequences(draw):
    """Randomized valid VectorSequences (the from_dict preconditions)."""
    names = draw(st.lists(
        st.sampled_from(["a", "b", "c", "in7", "n_1"]),
        min_size=1, max_size=4, unique=True,
    ))
    times = sorted(draw(st.lists(
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False,
                  allow_infinity=False),
        min_size=1, max_size=6, unique=True,
    )))
    steps = []
    for step_time in times:
        assignments = {
            name: draw(st.integers(0, 1))
            for name in draw(st.lists(st.sampled_from(names), min_size=1,
                                      unique=True))
        }
        steps.append((step_time, assignments))
    slew = draw(st.one_of(
        st.none(),
        st.floats(min_value=0.001, max_value=10.0, allow_nan=False),
    ))
    defaults = draw(st.sampled_from([0, 1, None]))
    last = times[-1]
    horizon = draw(st.one_of(
        st.none(),
        st.floats(min_value=0.5, max_value=100.0,
                  allow_nan=False).map(lambda delta: last + delta),
    ))
    tail = draw(st.floats(min_value=0.5, max_value=50.0, allow_nan=False))
    return VectorSequence(
        steps, slew=slew, defaults=defaults, horizon=horizon, tail=tail
    )


@given(vector_sequences())
def test_to_dict_from_dict_roundtrip(sequence):
    """from_dict(to_dict(s)) reproduces s field for field."""
    _sequences_equal(sequence, VectorSequence.from_dict(sequence.to_dict()))


@given(vector_sequences())
def test_roundtrip_survives_json_text(sequence):
    """The real wire: through json.dumps/loads, floats bit-exact.

    This is the property the JSONL protocol (CLI streaming mode and the
    network server) stands on — CPython's float repr round-trip means no
    step time, slew or horizon is perturbed by serialisation.
    """
    import json as _json

    payload = _json.loads(_json.dumps(sequence.to_dict()))
    rebuilt = VectorSequence.from_dict(payload)
    _sequences_equal(sequence, rebuilt)
    # and the codec module agrees with the method-level round-trip
    from repro.io_formats import jsonl_protocol

    again = jsonl_protocol.decode_vector_line(
        jsonl_protocol.encode_vector_line(sequence)
    )
    _sequences_equal(sequence, again)


@given(vector_sequences())
def test_roundtrip_is_stable(sequence):
    """to_dict of a round-tripped sequence is identical (fixed point)."""
    rebuilt = VectorSequence.from_dict(sequence.to_dict())
    assert rebuilt.to_dict() == sequence.to_dict()
