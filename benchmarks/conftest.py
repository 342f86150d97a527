"""Shared fixtures for the benchmark harness.

Every benchmark both *times* a run (pytest-benchmark) and *asserts* the
paper's shape claims on the results, so ``pytest benchmarks/
--benchmark-only`` regenerates and checks every table and figure.

Analog runs are expensive; they execute once per session and are shared.
"""

from __future__ import annotations

import pytest

from repro.core.engine import ENGINE_KINDS
from repro.experiments import common


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "analog: benchmark drives the analog (slow) engine"
    )


#: The shared shape of one benchmark's record inside a ``BENCH_*.json``
#: artifact (``benchmarks[].extra_info.bench``); bumped on breaking
#: changes.  ``tools/check_bench.py`` validates it, CI stamps the
#: artifact with timestamp + commit via ``check_bench.py --stamp``.
BENCH_RECORD_SCHEMA = 1


@pytest.fixture
def bench_record(benchmark):
    """Attach the shared BENCH record to this benchmark's extra_info.

    Usage: ``bench_record("bitparallel-speedup", config={...workload
    knobs...}, measured={...numbers the gate asserted on...})``.
    ``config`` values are free-form JSON scalars; ``measured`` values
    must be numbers — that is what trajectory tooling plots.
    """

    def record(name, config=None, measured=None):
        benchmark.extra_info["bench"] = {
            "schema": BENCH_RECORD_SCHEMA,
            "name": str(name),
            "config": dict(config or {}),
            "measured": dict(measured or {}),
        }

    return record


@pytest.fixture(params=sorted(ENGINE_KINDS))
def engine_kind(request):
    """Parametrises a benchmark over every registered backend."""
    return request.param


@pytest.fixture(scope="session")
def analog_run_seq1():
    """One analog simulation of the Figure 6 stimulus (shared)."""
    return common.run_analog(1)


@pytest.fixture(scope="session")
def analog_run_seq2():
    """One analog simulation of the Figure 7 stimulus (shared)."""
    return common.run_analog(2)


@pytest.fixture(scope="session")
def mult4():
    return common.multiplier_netlist()
