"""Batch size at which a warm service pool beats in-process batching.

Times the same batch of short vectors (mult4, 2-step random vectors,
DDM, compiled engine, no traces) two ways and prints, per vector and
for each batch size, wall ms and CPU ms:

* ``inproc``: ``simulate_batch()`` in this process, the best
  single-thread path;
* ``service``: ``run_batch()`` on an already-warm ``SimulationService``
  with the default even split (one chunk per worker).

CPU time is this process's (every thread) plus the pool workers',
read from ``/proc/<pid>/task/*/schedstat`` (Linux), so the pool is
charged for the work it spreads over other cores.  The crossover is
the smallest batch size from which the pool is cheaper at every larger
size measured, reported for wall time and for CPU time.  Each cell is
the median of ``--repeats`` runs, the two paths interleaved so clock
drift hits both::

    PYTHONPATH=src python tools/service_crossover.py --workers 2
"""

from __future__ import annotations

import argparse
import multiprocessing
import os
import statistics
import time
from typing import Callable, List, Optional, Sequence, Tuple

from repro.config import ddm_config
from repro.core.batch import simulate_batch
from repro.core.service import SimulationService
from repro.experiments import common
from repro.stimuli.patterns import random_vector_batch


def _pool_cpu_seconds() -> float:
    """CPU seconds used so far by this process and its live children."""
    total = time.process_time()
    for child in multiprocessing.active_children():
        tasks = "/proc/%d/task" % child.pid
        try:
            for task in os.listdir(tasks):
                with open(os.path.join(tasks, task, "schedstat")) as handle:
                    total += int(handle.read().split()[0]) / 1e9
        except (OSError, ValueError):
            continue
    return total


def _costs(action: Callable[[], object]) -> Tuple[float, float]:
    """``(wall, cpu)`` seconds of one call."""
    wall, cpu = time.perf_counter(), _pool_cpu_seconds()
    action()
    return time.perf_counter() - wall, _pool_cpu_seconds() - cpu


def _crossover(wins: Sequence[Tuple[int, bool]]) -> str:
    crossover = None
    for size, won in reversed(wins):
        if not won:
            break
        crossover = size
    return ("N = %d" % crossover if crossover is not None
            else "none in the sizes measured")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--repeats", type=int, default=15)
    parser.add_argument("--sizes", type=int, nargs="+",
                        default=[1, 2, 4, 6, 8, 12, 16, 24, 32, 64])
    parser.add_argument("--seed", type=int, default=47)
    args = parser.parse_args(argv)

    netlist = common.multiplier_netlist()
    netlist.compile()
    config = ddm_config(record_traces=False)
    names = [net.name for net in netlist.primary_inputs]
    print("%6s %10s %10s %6s %10s %10s %6s" % (
        "N", "inproc_ms", "service_ms", "ratio",
        "inproc_cpu", "service_cpu", "ratio",
    ))
    wall_wins, cpu_wins = [], []
    with SimulationService(netlist, config=config, workers=args.workers,
                           engine_kind="compiled") as service:
        for size in args.sizes:
            stimuli = random_vector_batch(names, batch=size, count=2,
                                          period=2.0, base_seed=args.seed,
                                          tail=2.0)

            def inproc_run():
                simulate_batch(netlist, stimuli, config=config,
                               engine_kind="compiled")

            def pooled_run():
                service.run_batch(stimuli)

            inproc_run()  # warm-up both paths
            pooled_run()
            inproc, pooled = [], []
            for _ in range(args.repeats):
                inproc.append(_costs(inproc_run))
                pooled.append(_costs(pooled_run))
            inproc_ms, inproc_cpu, service_ms, service_cpu = (
                1e3 * statistics.median(run[k] for run in runs) / size
                for runs in (inproc, pooled) for k in (0, 1)
            )
            wall_wins.append((size, service_ms < inproc_ms))
            cpu_wins.append((size, service_cpu < inproc_cpu))
            print("%6d %10.3f %10.3f %6.2f %10.3f %10.3f %6.2f" % (
                size, inproc_ms, service_ms, inproc_ms / service_ms,
                inproc_cpu, service_cpu, inproc_cpu / service_cpu,
            ))
    print("crossover (wall): %s" % _crossover(wall_wins))
    print("crossover (cpu): %s" % _crossover(cpu_wins))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
