"""Chunk size from which recording a golden run pays off.

A compiled-family engine runs a mutant on its fault's cone only against
a golden record of the base stimulus (``repro.faults.differential``).
A cold chunk pays the recording and one cone build per fault net
first, so a chunk records only while it still holds
``MIN_MUTANTS_TO_RECORD`` mutants of the base.  This script measures
where that pays: for a cold chunk of *k* random mutants of one 3-vector
random stimulus (DDM, untraced, metrics on), the CPU of the cone path
(``run_chunk`` on a fresh engine, recording forced at every *k*) over
the CPU of the same mutants' full runs (``run_stimulus`` on another
fresh engine, publishing its metrics once, as a chunk does).  Each cell is the median over ``--loads`` faultloads,
the two paths alternating which runs first.  The table rows are
circuits, the columns *k*; the last line names the smallest *k* from
which every circuit is at or below 1.00::

    PYTHONPATH=src python tools/fault_break_even.py

One run's last line cannot set ``MIN_MUTANTS_TO_RECORD``: over five
runs at the default 105 faultloads a cell it moved between 4 and 8
(c17 reads 0.95-1.07 from k = 5 to 7).  The constant is set from the
per-cell medians of five runs (the table in docs/performance.md).
"""

from __future__ import annotations

import argparse
import statistics
import time
from typing import Callable, Dict, List, Optional

from repro.circuit import modules
from repro.config import ddm_config
from repro.core.batch import run_chunk
from repro.core.engine import chunk_tally, make_engine, run_stimulus
from repro.faults import differential
from repro.faults.faultload import generate_faultload
from repro.faults.inject import FaultedStimulus
from repro.stimuli.patterns import random_vectors

CIRCUITS: Dict[str, Callable[[], object]] = {
    "c17": modules.c17,
    "mult4": lambda: modules.array_multiplier(4),
    "mult6": lambda: modules.array_multiplier(6),
    "wallace4": lambda: modules.wallace_multiplier(4),
}
SIZES = (1, 2, 3, 4, 5, 6, 7, 8, 16)
#: ns between the stimulus vectors.
PERIOD = 5.0


def _cpu(action: Callable[[], object]) -> float:
    start = time.process_time()
    action()
    return time.process_time() - start


def cone_over_full(netlist, size: int, load: int) -> float:
    """CPU of one cold chunk's cone path over its mutants' full runs."""
    names = [net.name for net in netlist.primary_inputs]
    stimulus = random_vectors(names, 3, PERIOD, seed=load)
    faultload = generate_faultload(
        netlist, size, seed=load, window=(0.0, stimulus.horizon)
    )
    mutants = [FaultedStimulus(stimulus, fault) for fault in faultload.faults]
    config = ddm_config(record_traces=False)
    cone_engine = make_engine(netlist, config=config, engine_kind="compiled")
    full_engine = make_engine(netlist, config=config, engine_kind="compiled")

    def cone() -> None:
        list(run_chunk(cone_engine, mutants))

    def full() -> None:
        with chunk_tally(full_engine):
            for mutant in mutants:
                run_stimulus(full_engine, mutant)

    if load % 2:
        full_s = _cpu(full)
        cone_s = _cpu(cone)
    else:
        cone_s = _cpu(cone)
        full_s = _cpu(full)
    assert cone_engine._differential.golden is not None
    return cone_s / full_s


def main(argv: Optional[List[str]] = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    # c17 sits at 1.00 from k = 5 to 7, where 21 faultloads a cell
    # move its break-even by two or three sizes from run to run.
    parser.add_argument("--loads", type=int, default=105,
                        help="faultloads per cell (default 105)")
    args = parser.parse_args(argv)
    saved = differential.MIN_MUTANTS_TO_RECORD
    differential.MIN_MUTANTS_TO_RECORD = 1  # record at every size
    try:
        print("| k | " + " | ".join(str(size) for size in SIZES) + " |")
        print("|---|" + "---|" * len(SIZES))
        worst = {size: 0.0 for size in SIZES}
        for name, build in CIRCUITS.items():
            netlist = build()
            netlist.compile()
            cells = []
            for size in SIZES:
                ratio = statistics.median(
                    cone_over_full(netlist, size, load)
                    for load in range(args.loads)
                )
                worst[size] = max(worst[size], ratio)
                cells.append("%.2f" % ratio)
            print("| %s | %s |" % (name, " | ".join(cells)), flush=True)
    finally:
        differential.MIN_MUTANTS_TO_RECORD = saved
    # Judged on the printed figures, as the table is read.
    wins = [size for size in SIZES if all(
        round(worst[later], 2) <= 1.0 for later in SIZES if later >= size)]
    print("break-even from k = %s" % (wins[0] if wins else "none measured"))


if __name__ == "__main__":
    main()
