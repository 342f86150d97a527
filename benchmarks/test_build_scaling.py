"""Cold set-up scales linearly with the circuit.

Every cold path starts by building a netlist and lowering it: a CLI
``simulate``, a server ``register`` of a ``.bench`` file, a campaign's
set-up.  This gate times that front end on a ripple-carry adder at two
widths, 100 and 800 bits (900 and 7,200 gates), through both entry
points:

* the builder: ``ripple_adder(width)`` (build-time ERC included) then
  ``compile()``;
* the file path the server's ``register`` takes: ``read_bench`` of the
  adder's ``.bench`` text, then ``compile()``.

Eight times the gates must cost at most 16x the CPU time (best of 3
interleaved ``process_time`` samples per side).  Linear work measures about 8-10x
(garbage collection over a growing live set adds a little); a
construction step that touches every earlier gate per added gate
measures over 50x.
"""

from __future__ import annotations

import gc
import time

import pytest

from repro.circuit import modules
from repro.circuit.bench_io import read_bench, write_bench

_SMALL = 100
_LARGE = 800
_REPEATS = 3

#: The acceptance bar: CPU-time ratio of the large to the small build.
_MAX_RATIO = 16.0


def _cpu_s(fn) -> float:
    # Free the previous sample's (cyclic) netlist outside the timer, so
    # no sample pays to collect another's garbage.
    gc.collect()
    start = time.process_time()
    fn()
    return time.process_time() - start


def _best_pair_s(small_fn, large_fn):
    """Best-of CPU seconds for each side, sampled interleaved so a clock
    change on the host shifts both sides alike."""
    small = large = float("inf")
    for _ in range(_REPEATS):
        small = min(small, _cpu_s(small_fn))
        large = min(large, _cpu_s(large_fn))
    return small, large


def _builder(width):
    return lambda: modules.ripple_adder(width).compile()


def _bench_file(width):
    text = write_bench(modules.ripple_adder(width))
    return lambda: read_bench(text).compile()


@pytest.mark.parametrize("path", ["builder", "read_bench"])
def test_build_and_lower_scale_linearly(path, benchmark, bench_record):
    make = _builder if path == "builder" else _bench_file
    small_fn, large_fn = make(_SMALL), make(_LARGE)

    def measure():
        # Up to 3 attempts keeping the best ratio: a scheduler blip on a
        # shared runner must not fail the gate when the scaling is linear.
        best = None
        for _attempt in range(3):
            small, large = _best_pair_s(small_fn, large_fn)
            if best is None or large / small < best[1] / best[0]:
                best = (small, large)
            if best[1] / best[0] <= _MAX_RATIO / 1.2:
                break
        return best

    small, large = benchmark.pedantic(measure, rounds=1, iterations=1)
    ratio = large / small
    benchmark.extra_info["small_cpu_s"] = round(small, 6)
    benchmark.extra_info["large_cpu_s"] = round(large, 6)
    benchmark.extra_info["ratio"] = round(ratio, 2)
    bench_record(
        "build-scaling-%s" % path.replace("_", "-"),
        config={"small_width": _SMALL, "large_width": _LARGE,
                "repeats": _REPEATS, "max_ratio": _MAX_RATIO},
        measured={"small_cpu_s": round(small, 6),
                  "large_cpu_s": round(large, 6),
                  "ratio": round(ratio, 2)},
    )
    assert ratio <= _MAX_RATIO, (
        "%s: ripple_adder(%d) %.4fs vs ripple_adder(%d) %.4fs CPU: %.1fx "
        "> allowed %.0fx for 8x the gates"
        % (path, _LARGE, large, _SMALL, small, ratio, _MAX_RATIO)
    )
