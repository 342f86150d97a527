"""Batch size at which a warm service pool beats in-process batching.

Times the same batch of short vectors (mult4, 2-step random vectors,
DDM, compiled engine, no traces) two ways and prints wall ms/vector
for each batch size:

* ``inproc``: ``simulate_batch()`` in this process, the best
  single-thread path;
* ``service``: ``run_batch()`` on an already-warm ``SimulationService``
  with the default even split (one chunk per worker).

The crossover is the smallest batch size from which the pool is faster
at every larger size measured.  Each cell is the median of
``--repeats`` runs, the two paths interleaved so clock drift hits both::

    PYTHONPATH=src python tools/service_crossover.py --workers 2
"""

from __future__ import annotations

import argparse
import statistics
import time
from typing import Callable, List, Optional

from repro.config import ddm_config
from repro.core.batch import simulate_batch
from repro.core.service import SimulationService
from repro.experiments import common
from repro.stimuli.patterns import random_vector_batch


def _seconds(action: Callable[[], object]) -> float:
    start = time.perf_counter()
    action()
    return time.perf_counter() - start


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
    print("%6s %12s %12s %7s" % ("N", "inproc_ms", "service_ms", "ratio"))
    wins = []
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
                inproc.append(_seconds(inproc_run))
                pooled.append(_seconds(pooled_run))
            inproc_ms = 1e3 * statistics.median(inproc) / size
            service_ms = 1e3 * statistics.median(pooled) / size
            wins.append((size, service_ms < inproc_ms))
            print("%6d %12.3f %12.3f %7.2f"
                  % (size, inproc_ms, service_ms, inproc_ms / service_ms))
    crossover = None
    for size, won in reversed(wins):
        if not won:
            break
        crossover = size
    print("crossover: %s" % (
        "N = %d" % crossover if crossover is not None
        else "none in the sizes measured"
    ))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
