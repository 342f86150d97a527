"""The HALOTIS benchmark: one workload, checked, timed or traced.

Run from the root of a checkout::

    python3 perfbench/run.py --workload long-run --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the
same workload once untraced and once with spans recorded around every
call into the program, and reports the per-layer metrics instead plus
the tracing overhead.  Both lists, with their units, are read from
``BENCHMARK.json`` at the checkout root.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (each ``{"value": ..., "unit": ...}``).  Everything printed
before it, and the record written to ``.perfbench/``, is for people:
provenance, the Table 1 accuracy check and, for traced runs, every span.

The load generator is this one process: one thread, and one client
connection on ``served-batches``.  Service pools get
``min(2, nproc)`` workers.  The run refuses to start where that would
exceed ``nproc``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import multiprocessing
import os
import platform
import resource
import statistics
import sys
import time
from typing import Dict, List, Optional, Tuple

import calibration

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")

#: Cold set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 9
#: Calibration passes right before and right after each set-up.
SETUP_PASSES = 3
#: Threads the load generator drives the program from.
CLIENT_THREADS = 1
#: Consecutive failed operations after which a run stops early.
MAX_CONSECUTIVE_FAILURES = 5

WORKLOAD_NAMES = ("long-run", "short-batch", "served-batches", "fault-campaign")


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def available_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def load_program() -> None:
    """Put the checkout's ``src`` on the path, or stop with exit 2."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print("perfbench: no program sources at src/repro; run from the "
              "root of a full checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)


def metric_lists() -> Tuple[List[Tuple[str, str]], List[Tuple[str, str]]]:
    """``(name, unit)`` of the end-to-end and of the per-layer metrics,
    as ``BENCHMARK.json`` lists them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return tuple(  # type: ignore[return-value]
        [(metric["name"], metric["unit"]) for metric in spec[key]]
        for key in ("end_to_end", "per_layer")
    )


def in_child(call):
    """``call()`` computed in a forked child process, whose memory does
    not count toward this process's peak; its result must pickle."""
    context = multiprocessing.get_context("fork")
    receiver, sender = context.Pipe(duplex=False)

    def target():
        try:
            sender.send((True, call()))
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            sender.send((False, "%s: %s" % (type(exc).__name__, exc)))

    child = context.Process(target=target)
    child.start()
    sender.close()
    try:
        ok, value = receiver.recv()
    finally:
        receiver.close()
        child.join()
    if not ok:
        raise RuntimeError("expected outputs not computed: " + value)
    return value


def cpu_seconds() -> float:
    """CPU time used so far by this process (every thread, the
    in-process server's included) and by its live pool workers.

    The benchmark reports CPU time rather than wall time because it runs
    on shared virtual machines whose vCPUs the host takes away for
    seconds at a time (up to half of them, measured): wall-clock
    operation times then double, while CPU time does not count the
    stolen time.  A worker's time is read from its threads'
    ``/proc/<pid>/task/*/schedstat`` (nanoseconds on the CPU).
    """
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


def steal_ticks() -> int:
    """Clock ticks the host has taken from this machine's vCPUs."""
    try:
        with open("/proc/stat") as handle:
            return int(handle.readline().split()[8])
    except (OSError, IndexError, ValueError):
        return 0


def shm_segments() -> List[str]:
    """Shared-memory segments this process's pools created (the
    service names them ``hal<pid>x...``)."""
    prefix = "hal%dx" % os.getpid()
    try:
        names = os.listdir("/dev/shm")
    except OSError:
        return []
    return sorted(name for name in names if name.startswith(prefix))


def leftovers() -> List[str]:
    """Worker processes and shm segments still around after a teardown."""
    problems = []
    deadline = time.monotonic() + 5.0
    children = multiprocessing.active_children()
    while children and time.monotonic() < deadline:
        time.sleep(0.05)
        children = multiprocessing.active_children()
    if children:
        problems.append("%d worker process(es) left running" % len(children))
    segments = shm_segments()
    if segments:
        problems.append("shared-memory segments left: %s" % segments)
    return problems


def stop_resource_tracker() -> None:
    """Stop the shm resource tracker the pools started, and wait for it."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def git_sha() -> Optional[str]:
    """HEAD of the checkout when it is a git work tree (read directly,
    so nothing outside the checkout is consulted)."""
    git_dir = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git_dir, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git_dir, ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as handle:
                return handle.read().strip()
        with open(os.path.join(git_dir, "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        return None
    return None


def source_digest() -> str:
    """sha256 over the program's sources (the checkout may not be a
    git work tree, so this identifies the code measured)."""
    digest = hashlib.sha256()
    for directory, subdirs, files in os.walk(os.path.join(SRC, "repro")):
        subdirs[:] = sorted(d for d in subdirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def provenance(args, nproc: int, workers: int, connections: int) -> Dict:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": nproc,
        "pool_workers": workers,
        "client_threads": CLIENT_THREADS,
        "client_connections": connections,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
    }


class Window:
    """Operations of one measuring window."""

    def __init__(self):
        #: wall and CPU seconds of each operation that succeeded.
        self.latencies: List[float] = []
        self.cpu_times: List[float] = []
        #: the CPU times above rescaled to the reference host.
        self.ref_times: List[float] = []
        #: CPU seconds of each calibration pass, in order.
        self.passes: List[float] = []
        self.vectors = 0
        self.events = 0
        self.attempted = 0
        self.failures: List[str] = []
        self.start = time.perf_counter()
        self.wall = 0.0
        self.steal = steal_ticks()

    @property
    def busy(self) -> float:
        return sum(self.latencies)

    def finish(self) -> None:
        self.wall = time.perf_counter() - self.start
        self.steal = steal_ticks() - self.steal

    def steal_pct(self, nproc: int) -> float:
        """Share of the machine's vCPU time the host took meanwhile."""
        ticks = os.sysconf("SC_CLK_TCK") * self.wall * nproc
        return 100.0 * self.steal / ticks if ticks else 0.0


def measure(workload, tracer, seconds: float, first: int) -> Window:
    """Closed loop: run operations until ``seconds`` have passed (at
    least one), timing each and checking its output after the timer
    stops.  The calibration loop runs between operations; each
    operation's CPU time is rescaled by the median of the four passes
    nearest to it (two before, two after)."""
    window = Window()
    deadline = window.start + seconds
    index = first
    consecutive = 0
    passes = window.passes
    passes.append(calibration.sample())
    #: index in ``passes`` of the pass right before each timed operation.
    before: List[int] = []
    while True:
        error = None
        with tracer.span("op", op=index):
            cpu_start = cpu_seconds()
            start = time.perf_counter()
            try:
                output = workload.operation(index)
            except Exception as exc:  # noqa: BLE001 - counted, then reported
                error = exc
            elapsed = time.perf_counter() - start
            cpu = cpu_seconds() - cpu_start
        passes.append(calibration.sample())
        window.attempted += 1
        if error is None:
            with tracer.span("check", op=index):
                ok, vectors, events = workload.check(index, output)
        else:
            ok, vectors, events = False, 0, 0
        if ok:
            consecutive = 0
            window.latencies.append(elapsed)
            window.cpu_times.append(cpu)
            before.append(len(passes) - 2)
            window.vectors += vectors
            window.events += events
        else:
            consecutive += 1
            window.failures.append(
                "operation %d: %s" % (
                    index, "output differs from the oracle" if error is None
                    else "%s: %s" % (type(error).__name__, error)
                )
            )
        index += 1
        if time.perf_counter() >= deadline:
            break
        if consecutive >= MAX_CONSECUTIVE_FAILURES:
            window.failures.append("stopped after %d failures in a row"
                                   % consecutive)
            break
    passes.append(calibration.sample())
    window.ref_times = [
        calibration.rescale(cpu, passes[max(0, k - 1):k + 3])
        for cpu, k in zip(window.cpu_times, before)
    ]
    window.finish()
    return window


def circuit_costs(width: int) -> Dict[str, float]:
    """Median build and lowering time of a fresh multiplier (5 each)."""
    from repro.circuit import modules

    builds, lowerings = [], []
    for _ in range(5):
        start = time.perf_counter()
        netlist = modules.array_multiplier(width)
        builds.append(time.perf_counter() - start)
        netlist.invalidate_lowering()
        start = time.perf_counter()
        netlist.compile()
        lowerings.append(time.perf_counter() - start)
    return {
        "circuit.build_ms": 1e3 * statistics.median(builds),
        "circuit.compile_ms": 1e3 * statistics.median(lowerings),
    }


def peak_rss_mb() -> float:
    """Peak resident set, in MiB, of the largest process that runs the
    program: this one, or one of its live pool workers.  A forked
    worker's peak already covers the parent pages it shares, so the two
    are compared, not added.  Each of them holds the calibration table,
    which is not the program's and is left out."""
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for child in multiprocessing.active_children():
        try:
            with open("/proc/%d/status" % child.pid) as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        peak_kib = max(peak_kib, int(line.split()[1]))
        except OSError:
            continue
    return (peak_kib * 1024.0 - calibration.TABLE_BYTES) / (1 << 20)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    nproc = available_cpus()
    workers = min(2, nproc)
    load_program()
    end_to_end, per_layer_names = metric_lists()

    from layers import Delta, percentile
    from tracing import Tracer
    from workloads import WORKLOADS, accuracy_table

    cls = WORKLOADS[args.workload]
    if max(CLIENT_THREADS, cls.connections, workers) > nproc:
        print("perfbench: refusing to start: the load would need %d "
              "thread(s), %d connection(s) and %d worker(s) on %d CPU(s)"
              % (CLIENT_THREADS, cls.connections, workers, nproc),
              file=sys.stderr)
        return 2

    record = {"provenance": provenance(args, nproc, workers, cls.connections)}
    print("perfbench %s seed=%d seconds=%g trace=%d"
          % (args.workload, args.seed, args.seconds, args.trace))
    print("provenance: %s" % json.dumps(record["provenance"], sort_keys=True))

    tracer = Tracer(enabled=bool(args.trace))
    workload = cls(args.seed, workers, tracer)
    failures: List[str] = []
    attempted = 0

    # Inputs, the paper-accuracy check and the expected outputs: all
    # before any timer starts, the latter two in a child process so that
    # peak_rss_mb covers only the program's own set-up and operations.
    workload.build_inputs()
    accuracy_fields, accuracy_rows, mismatches, workload.expected = in_child(
        lambda: accuracy_table() + (workload.compute_oracle(),)
    )
    attempted += 1
    if mismatches:
        failures.append("Table 1: compiled differs from reference on %d "
                        "run(s)" % mismatches)
    print("accuracy (Table 1, reference engine; paper in brackets):")
    for row in accuracy_rows:
        print("  seq%(sequence)d %(mode)s: events %(events)d "
              "[%(paper_events)d]  filtered %(filtered)d "
              "[%(paper_filtered)d]" % row)
    record["accuracy"] = accuracy_rows
    # The benchmark's own objects (inputs, expected outputs) stay alive
    # all run; frozen, they add nothing to the program's full garbage
    # collections, whose cost would otherwise follow the seed's inputs.
    gc.collect()
    gc.freeze()

    setup_cpu: List[float] = []
    setup_ref: List[float] = []
    setup_wall: List[float] = []
    per_layer: Dict[str, float] = {}
    windows: List[Window] = []
    rss_mb = 0.0
    try:
        for repeat in range(SETUP_REPEATS):
            passes = [calibration.sample() for _ in range(SETUP_PASSES)]
            cpu_start = cpu_seconds()
            start = time.perf_counter()
            with tracer.span("setup"):
                workload.setup()
            setup_wall.append(time.perf_counter() - start)
            setup_cpu.append(cpu_seconds() - cpu_start)
            passes += [calibration.sample() for _ in range(SETUP_PASSES)]
            setup_ref.append(calibration.rescale(setup_cpu[-1], passes))
            attempted += 1
            if not workload.check(0, workload.warmup_output)[0]:
                failures.append("set-up %d: warm-up output differs from "
                                "the oracle" % repeat)
            if repeat < SETUP_REPEATS - 1:
                attempted += 1
                failures.extend(workload.teardown() + leftovers())
        if args.trace:
            tracer.enabled = False
            plain = measure(workload, tracer, args.seconds / 2, 1)
            tracer.enabled = True
            before = workload.snapshot()
            workload.window_start = time.perf_counter()
            window = measure(workload, tracer, args.seconds / 2,
                             1 + plain.attempted)
            after = workload.snapshot()
            workload.window_busy = window.busy
            workload.window_vectors = max(window.vectors, 1)
            windows = [plain, window]
            per_layer = {name: 0.0 for name, _unit in per_layer_names}
            per_layer.update(accuracy_fields)
            per_layer.update(circuit_costs(cls.WIDTH))
            per_layer.update(workload.probe(Delta(before, after), window.wall))
            per_layer.update(workload.kernel_fields())
            attempted += workload.probe_checks
            failures.extend(workload.probe_failures)
            # Wall-clock figures of the untraced half, for people: they
            # swing with the host's load, so they carry no bound.
            if plain.latencies:
                per_layer.update({
                    "wall.setup_s": statistics.median(setup_wall),
                    "wall.op_p50_ms": 1e3 * percentile(plain.latencies, 50),
                    "wall.op_p95_ms": 1e3 * percentile(plain.latencies, 95),
                    "wall.vectors_per_s": plain.vectors / plain.busy,
                    "wall.steal_pct": plain.steal_pct(nproc),
                })
            if plain.ref_times and window.ref_times:
                per_layer["trace.overhead_pct"] = 100.0 * (
                    statistics.median(window.ref_times)
                    / statistics.median(plain.ref_times) - 1.0
                )
        else:
            window = measure(workload, tracer, args.seconds, 1)
            windows = [window]
            rss_mb = peak_rss_mb()
    finally:
        attempted += 1
        failures.extend(workload.teardown() + leftovers())
        stop_resource_tracker()
    for part in windows:
        attempted += part.attempted
        failures.extend(part.failures)
    failed = len(failures)

    if args.trace:
        names = per_layer_names
        values = per_layer
    else:
        names = end_to_end
        ref_times = window.ref_times or [window.wall]
        ref_busy = sum(ref_times)
        values = {
            "setup_s": statistics.median(setup_ref),
            "events_per_ref_cpu_s": window.events / ref_busy,
            "vectors_per_ref_cpu_s": window.vectors / ref_busy,
            "op_ref_cpu_p50_ms": 1e3 * percentile(ref_times, 50),
            "op_ref_cpu_p90_ms": 1e3 * percentile(ref_times, 90),
            "peak_rss_mb": rss_mb,
        }
    metrics = {
        name: {"value": float(values[name]), "unit": unit}
        for name, unit in names
    }

    print("operations: %d attempted, %d failed, error_rate %.6f"
          % (attempted, failed, failed / attempted))
    for problem in failures:
        print("  failure: %s" % problem)
    print("timed operations: %d in %.2f s; wall p50 %.3f ms; host took "
          "%.1f%% of the vCPU time" % (
              len(window.latencies), window.wall,
              1e3 * percentile(window.latencies, 50), window.steal_pct(nproc)))
    print("CPU p50 %.3f ms before rescaling; calibration pass p50 %.4f ms "
          "(reference %.4f ms)" % (
              1e3 * percentile(window.cpu_times, 50),
              1e3 * percentile(window.passes, 50),
              1e3 * calibration.REFERENCE_SECONDS))
    for name, unit in names:
        print("  %-44s %16.6f %s" % (name, values[name], unit))

    record.update({"attempted": attempted, "failed": failed,
                   "failures": failures, "metrics": metrics,
                   "setup_cpu_seconds": setup_cpu,
                   "setup_ref_cpu_seconds": setup_ref,
                   "op_cpu_seconds": window.cpu_times,
                   "op_ref_cpu_seconds": window.ref_times,
                   "calibration_seconds": window.passes,
                   "setup_wall_seconds": setup_wall})
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, "%s-seed%d-trace%d"
                        % (args.workload, args.seed, args.trace))
    if args.trace:
        tracer.dump(stem + ".json", record)
    else:
        with open(stem + ".json", "w") as handle:
            json.dump(record, handle)

    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
