"""Native vs Python kernel loop: CPU µs per event on the 6x6 multiplier.

The compiled engine runs the C twin of its event loop (``_kernel.c``,
built and loaded by :mod:`repro.core._native`) and keeps its Python
loop as the fallback and parity reference.  This gate times perfbench's
long-run operation — one traced DDM ``simulate()`` of a 12-vector
sequence on mult6 — on both loops and asserts the native loop's CPU
per executed event stays ``_MIN_SPEEDUP`` times below the Python
loop's.  Both runs execute the same events (the parity suites pin
that), so the ratio is the kernel's speed-up alone.
"""

from __future__ import annotations

import time

import pytest

from repro.config import ddm_config
from repro.core import _native
from repro.core.engine import simulate
from repro.experiments import common
from repro.stimuli.patterns import random_vectors

_WIDTH = 6
_VECTORS = 12
_SEED = 1

#: About 20% under the lowest of five measurements, 2.14-2.63x (about
#: 0.93-1.16 against 2.33-2.49 µs per event; 2-vCPU VM, CPython
#: 3.11.7).  The run's DC init and result build are in both sides; the
#: list entries, floats and counters the loop makes stay Python
#: objects, which caps the kernel's own gain at about 3-4x.
_MIN_SPEEDUP = 1.7


def _workload():
    netlist = common.multiplier_netlist(_WIDTH)
    stimulus = random_vectors(
        [net.name for net in netlist.primary_inputs],
        count=_VECTORS,
        period=5.0,
        seed=_SEED,
    )
    return netlist, stimulus


def us_per_event(netlist, stimulus, config, repeats: int = 5):
    """Best CPU µs per executed event of each loop, ``(native,
    python)``, over ``repeats`` pairs of runs; the loops alternate, so
    a slow phase of a shared host hits both alike."""
    saved = _native._lib
    best = {True: float("inf"), False: float("inf")}
    try:
        for _ in range(repeats):
            for native in (True, False):
                _native._lib = saved if native else False
                start = time.process_time()
                result = simulate(
                    netlist, stimulus, config=config, engine_kind="compiled"
                )
                elapsed = time.process_time() - start
                per_event = 1e6 * elapsed / result.stats.events_executed
                best[native] = min(best[native], per_event)
    finally:
        _native._lib = saved
    return best[True], best[False]


def test_native_loop_beats_the_python_loop_per_event(benchmark, bench_record):
    if _native.kernel() is None:
        pytest.skip("native kernel loop unavailable")
    netlist, stimulus = _workload()
    config = ddm_config()
    us_per_event(netlist, stimulus, config, repeats=1)  # warm both loops

    def measure():
        # Up to 3 attempts keeping the best ratio: a scheduler blip on a
        # shared runner must not fail the gate when the gain is real.
        best = (0.0, (float("inf"), float("inf")))
        for _attempt in range(3):
            native, python = us_per_event(netlist, stimulus, config)
            if python / native > best[0]:
                best = (python / native, (native, python))
            if best[0] >= _MIN_SPEEDUP * 1.2:
                break
        return best[1]

    native, python = benchmark.pedantic(measure, rounds=1, iterations=1)
    speedup = python / native
    benchmark.extra_info["native_us_per_event"] = round(native, 4)
    benchmark.extra_info["python_us_per_event"] = round(python, 4)
    benchmark.extra_info["speedup"] = round(speedup, 3)
    bench_record(
        "native-kernel-speedup",
        config={"width": _WIDTH, "vectors": _VECTORS, "seed": _SEED,
                "min_speedup": _MIN_SPEEDUP},
        measured={"native_us_per_event": round(native, 4),
                  "python_us_per_event": round(python, 4),
                  "speedup": round(speedup, 3)},
    )
    assert speedup >= _MIN_SPEEDUP, (
        "native kernel loop %.3f us/event vs Python loop %.3f us/event: "
        "%.2fx < required %.2fx" % (native, python, speedup, _MIN_SPEEDUP)
    )
