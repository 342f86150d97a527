"""``halotis`` command-line front-end.

Subcommands:

* ``experiment {fig1,fig3,fig6,fig7,table1,table2,all}`` — regenerate a
  paper artefact and print the report (``--json`` to archive results).
* ``simulate`` — run a built-in circuit or a ``.bench`` file through
  HALOTIS with random or explicit vectors; optional VCD dump.  Batch
  modes (``--batch`` / ``--vector-file``) run many vector sequences
  through one lowering, in-process or on a warm-engine worker pool
  with ``--pool-workers``; ``--stdin-vectors`` turns the command into
  a long-running streaming service reading one JSON sequence per stdin
  line.
* ``serve`` — run the network simulation server: named netlists, each
  on its own warm worker pool, over a newline-delimited JSON protocol
  (see ``repro.server``).  ``simulate --connect HOST:PORT`` runs the
  same simulations against such a server instead of in-process, with
  bit-identical results.
* ``sta`` — static timing analysis: one topological pass over the
  compiled lowering prints per-net arrival/slew windows and the K
  critical paths, no simulation required (``--json`` for tooling).
* ``faults {generate,run,report}`` — fault-injection campaigns:
  deterministic faultload generation, golden-diff campaigns over any
  engine/throughput layer (``--pool-workers``, ``--connect``), and
  dependability-report rendering (see ``repro.faults``).
* ``stats`` — query a running ``repro serve`` instance: human summary,
  raw JSON (``--json``) or Prometheus text exposition
  (``--prometheus``) of the server's metrics registry.
* ``lint`` — electrical rule checks merged with the static hazard
  pass under one finding model; exits 2 on errors (and on warnings
  with ``--strict``).
* ``characterize`` — extract delay/degradation parameters for a cell
  from the analog substrate and compare with the shipped library.
* ``info`` — library and circuit inventory.

See docs/performance.md for choosing between these modes.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from . import __version__
from .analysis.hazards import analyze_hazards
from .analysis.report import Table
from .analysis.sta import analyze as sta_analyze
from .circuit import validate as circuit_validate
from .circuit import bench_io, stats as circuit_stats
from .circuit.library import default_library
from .config import SimulationConfig, cdm_config, ddm_config
# importing .core.engine initialises the repro.core package, which
# registers every backend in ENGINE_KINDS
from .core.batch import simulate_batch
from .core.engine import ENGINE_KINDS, _ensure_backends_registered, simulate
from .errors import AnalysisError, ReproError, SimulationError
from .faults.faultload import FaultKind
from .io_formats.batch_results import BATCH_FORMATS, write_batch_results
from .io_formats.json_results import dump_results
from .io_formats.vcd import write_vcd
from .circuit.modules import BUILTIN_CIRCUITS
from .stimuli.patterns import random_vector_batch, random_vectors
from .stimuli.vectors import load_vector_batches

_CONFIG_DEFAULTS = SimulationConfig()


def _engine_help() -> str:
    """``--engine`` help text composed from the live registry.

    Choices and text both come from ``ENGINE_KINDS`` (each backend
    carries its own ``cli_blurb``), so registering a new engine updates
    the CLI with no edit here — pinned by
    ``tests/core/test_engine_registry.py``.
    """
    parts = [
        "'%s' — %s" % (kind, ENGINE_KINDS[kind].cli_blurb or "no description")
        for kind in sorted(ENGINE_KINDS)
    ]
    return "simulation backend (default reference): " + "; ".join(parts)


def _add_circuit_source(command: argparse.ArgumentParser) -> None:
    """The shared ``--circuit``/``--bench`` input group (simulate, sta,
    lint all read the same two sources)."""
    source = command.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--circuit",
        choices=sorted(BUILTIN_CIRCUITS),
        help="built-in circuit",
    )
    source.add_argument("--bench", metavar="PATH", help="ISCAS-85 .bench file")


def _build_parser() -> argparse.ArgumentParser:
    _ensure_backends_registered()
    parser = argparse.ArgumentParser(
        prog="halotis",
        description="HALOTIS reproduction: logic timing simulation with the "
        "Inertial and Degradation Delay Model",
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument(
        "--log-level", choices=["debug", "info", "warning", "error"],
        default="warning",
        help="logging threshold for the 'repro' logger tree on stderr "
        "(default %(default)s)",
    )
    parser.add_argument(
        "--log-json", action="store_true",
        help="emit log lines as JSON objects (one per line) instead of "
        "human-readable text",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    experiment = commands.add_parser(
        "experiment", help="regenerate a paper table/figure"
    )
    experiment.add_argument(
        "name",
        choices=["fig1", "fig3", "fig6", "fig7", "table1", "table2", "all"],
    )
    experiment.add_argument(
        "--no-analog", action="store_true",
        help="skip the (slow) electrical simulation where optional",
    )
    experiment.add_argument("--json", metavar="PATH",
                            help="also dump the result dataclass as JSON")

    simulate_cmd = commands.add_parser(
        "simulate", help="simulate a circuit with HALOTIS"
    )
    _add_circuit_source(simulate_cmd)
    simulate_cmd.add_argument(
        "--mode", choices=["ddm", "cdm"], default="ddm",
        help="delay model (default ddm)",
    )
    simulate_cmd.add_argument(
        "--engine", choices=sorted(ENGINE_KINDS), default="reference",
        help=_engine_help(),
    )
    simulate_cmd.add_argument(
        "--vectors", type=int, default=10,
        help="number of random input vectors (default 10); in batch "
        "mode, vectors per sequence",
    )
    simulate_cmd.add_argument(
        "--period", type=float, default=5.0, help="vector period in ns"
    )
    simulate_cmd.add_argument("--seed", type=int, default=0)
    simulate_cmd.add_argument("--vcd", metavar="PATH", help="dump waveforms as VCD")
    batch_source = simulate_cmd.add_mutually_exclusive_group()
    batch_source.add_argument(
        "--batch", type=int, metavar="N",
        help="batch mode: run N random vector sequences (seeds "
        "seed..seed+N-1) through one shared lowering",
    )
    batch_source.add_argument(
        "--vector-file", metavar="PATH",
        help="batch mode: read explicit vector sequences from a JSON "
        "file (a list of {steps: [[time, {net: value}], ...]} objects)",
    )
    batch_source.add_argument(
        "--stdin-vectors", action="store_true",
        help="streaming mode: read one vector sequence per line "
        "(JSON, VectorSequence dict form) from stdin, simulate each "
        "on a persistent warm-engine pool, and print one JSON result "
        "line per vector until EOF",
    )
    simulate_cmd.add_argument(
        "--pool-workers", type=int, metavar="N",
        help="run batch/streaming mode on a SimulationService with N "
        "warm workers (engines built once, reused across vectors) "
        "instead of in-process",
    )
    simulate_cmd.add_argument(
        "--batch-out", metavar="DIR",
        help="write per-vector batch results into DIR",
    )
    simulate_cmd.add_argument(
        "--batch-format", choices=sorted(BATCH_FORMATS), default="json",
        help="per-vector result format for --batch-out (default json)",
    )
    simulate_cmd.add_argument(
        "--check-sta", action="store_true",
        help="after every simulated vector, verify each recorded "
        "transition against the static timing windows and hazard "
        "flags (repro sta); any violation fails the run with an "
        "OracleError — a cross-engine sanitizer for CI",
    )
    simulate_cmd.add_argument(
        "--connect", metavar="HOST:PORT",
        help="run on a network simulation server (see 'repro serve') "
        "instead of in-process: registers the circuit there, simulates "
        "remotely, and returns bit-identical results",
    )

    serve = commands.add_parser(
        "serve",
        help="run the network simulation server (named netlists on "
        "warm worker pools, JSONL protocol over TCP)",
    )
    serve.add_argument(
        "--host", default=_CONFIG_DEFAULTS.server_host,
        help="bind address (default %(default)s)",
    )
    serve.add_argument(
        "--port", type=int, default=_CONFIG_DEFAULTS.server_port,
        help="TCP port; 0 picks an ephemeral port (default %(default)s)",
    )
    serve.add_argument(
        "--max-netlists", type=int,
        default=_CONFIG_DEFAULTS.server_max_netlists,
        help="how many circuits may be registered at once "
        "(default %(default)s)",
    )
    serve.add_argument(
        "--pool-workers", type=int,
        default=_CONFIG_DEFAULTS.service_workers,
        help="warm workers per registered netlist unless the "
        "registration overrides it (default %(default)s)",
    )
    serve.add_argument(
        "--queue-depth", type=int,
        default=_CONFIG_DEFAULTS.server_queue_depth,
        help="per-netlist bound on queued+running vectors; overflow is "
        "refused with a 'busy' frame (default %(default)s)",
    )

    stats_cmd = commands.add_parser(
        "stats",
        help="query a running simulation server's stats and metrics "
        "(see 'repro serve')",
    )
    stats_cmd.add_argument(
        "--connect", metavar="HOST:PORT", required=True,
        help="server address to query",
    )
    stats_cmd.add_argument(
        "--json", action="store_true",
        help="emit the raw stats frame (including the metrics snapshot) "
        "as JSON",
    )
    stats_cmd.add_argument(
        "--prometheus", action="store_true",
        help="print the server's metrics registry in Prometheus text "
        "exposition format instead of the summary",
    )

    sta = commands.add_parser(
        "sta",
        help="static timing analysis over the compiled lowering: "
        "per-net arrival/slew windows and the K critical paths",
    )
    _add_circuit_source(sta)
    sta.add_argument(
        "--mode", choices=["ddm", "cdm"], default="ddm",
        help="delay model the windows must bound (default ddm)",
    )
    sta.add_argument(
        "--k", type=int, default=4,
        help="critical paths to extract (default %(default)s)",
    )
    sta.add_argument(
        "--slew", nargs=2, type=float, metavar=("MIN", "MAX"),
        help="primary-input slew interval in ns the windows must cover "
        "(default: the config's default input slew as a point)",
    )
    sta.add_argument(
        "--windows", type=int, default=20,
        help="rows in the latest-arriving-nets table (default "
        "%(default)s)",
    )
    sta.add_argument(
        "--json", action="store_true",
        help="emit the full report (every window, every path) as JSON",
    )

    lint = commands.add_parser(
        "lint",
        help="electrical rule checks + static hazard findings under "
        "one report; exits 2 on errors (with --strict also on "
        "warnings)",
    )
    _add_circuit_source(lint)
    lint.add_argument(
        "--mode", choices=["ddm", "cdm"], default="ddm",
        help="delay model for the hazard-skew analysis (default ddm)",
    )
    lint.add_argument(
        "--allow-cycles", action="store_true",
        help="demote combinational cycles to warnings (latches are "
        "legal for the event kernel)",
    )
    lint.add_argument(
        "--strict", action="store_true",
        help="exit 2 on warnings too",
    )
    lint.add_argument(
        "--json", action="store_true",
        help="emit the merged finding report as JSON",
    )

    faults = commands.add_parser(
        "faults",
        help="fault-injection campaigns: generate faultloads, run "
        "golden-diff campaigns (locally, on a warm pool, or against "
        "a repro serve instance), render reports",
    )
    faults_commands = faults.add_subparsers(dest="faults_command", required=True)

    generate = faults_commands.add_parser(
        "generate",
        help="draw a deterministic faultload over a circuit's gate "
        "outputs and emit it as JSON",
    )
    _add_circuit_source(generate)
    generate.add_argument(
        "--mutants", type=int, default=50,
        help="number of single-fault mutants (default %(default)s)",
    )
    generate.add_argument(
        "--seed", type=int, default=0,
        help="faultload PRNG seed (default %(default)s)",
    )
    generate.add_argument(
        "--kinds", nargs="+", metavar="KIND",
        choices=[kind.value for kind in FaultKind],
        help="fault kinds to draw from (default: all except 'none')",
    )
    generate.add_argument(
        "--window", nargs=2, type=float, metavar=("START", "END"),
        default=(0.0, 10.0),
        help="SET-pulse start window in ns (default 0 10)",
    )
    generate.add_argument(
        "--out", metavar="PATH",
        help="write the faultload JSON here instead of stdout",
    )

    run = faults_commands.add_parser(
        "run",
        help="run a campaign: golden run + one run per mutant, "
        "classified by trace diff into a dependability report",
    )
    _add_circuit_source(run)
    run.add_argument(
        "--faultload", metavar="PATH",
        help="faultload JSON from 'faults generate' (default: generate "
        "one in-process from --mutants/--seed over the stimulus window)",
    )
    run.add_argument(
        "--mutants", type=int, default=50,
        help="mutants to generate when no --faultload is given "
        "(default %(default)s)",
    )
    run.add_argument(
        "--seed", type=int, default=0,
        help="faultload PRNG seed when generating (default %(default)s)",
    )
    run.add_argument(
        "--vectors", type=int, default=3,
        help="random stimulus vectors every run replays (default "
        "%(default)s)",
    )
    run.add_argument(
        "--period", type=float, default=4.0,
        help="vector period in ns (default %(default)s)",
    )
    run.add_argument(
        "--vector-seed", type=int, default=1,
        help="stimulus PRNG seed (default %(default)s)",
    )
    run.add_argument(
        "--mode", choices=["ddm", "cdm"], default="ddm",
        help="delay model (default ddm)",
    )
    run.add_argument(
        "--engine", choices=sorted(ENGINE_KINDS), default="compiled",
        help=_engine_help(),
    )
    run.add_argument(
        "--pool-workers", type=int, metavar="N",
        help="run the mutants on an N-worker SimulationService pool "
        "(default: in-process)",
    )
    run.add_argument(
        "--connect", metavar="HOST:PORT",
        help="run the campaign on a 'repro serve' instance (registers "
        "the circuit, ships the faultload, gets the report back)",
    )
    run.add_argument(
        "--epsilon", type=float, default=0.0,
        help="edge-time diff tolerance in ns (default 0: bit-identical)",
    )
    run.add_argument(
        "--settle", type=float, default=0.0,
        help="extra post-horizon settle in ns per run (default "
        "%(default)s)",
    )
    run.add_argument(
        "--json", action="store_true",
        help="emit the full dependability report as JSON",
    )
    run.add_argument(
        "--out", metavar="PATH",
        help="also write the report JSON here",
    )

    report = faults_commands.add_parser(
        "report",
        help="re-render a saved campaign report (from 'faults run --out')",
    )
    report.add_argument("path", help="report JSON file")
    report.add_argument(
        "--json", action="store_true",
        help="re-emit the normalised report JSON instead of text",
    )

    characterize = commands.add_parser(
        "characterize",
        help="extract cell parameters from the analog substrate",
    )
    characterize.add_argument("cell", help="cell name, e.g. INV or NAND2")
    characterize.add_argument("--pin", type=int, default=0)
    characterize.add_argument(
        "--dt", type=float, default=0.004,
        help="analog integration step in ns (default 4 ps)",
    )

    commands.add_parser("info", help="show library and circuit inventory")
    return parser


# ----------------------------------------------------------------------
# subcommand implementations
# ----------------------------------------------------------------------

def _cmd_experiment(args) -> int:
    from .experiments import fig1, fig3, fig6_fig7, table1, table2

    names = (
        ["fig1", "fig3", "fig6", "fig7", "table1", "table2"]
        if args.name == "all"
        else [args.name]
    )
    results = {}
    for name in names:
        if name == "fig1":
            result = fig1.run()
        elif name == "fig3":
            result = fig3.run()
        elif name == "fig6":
            result = fig6_fig7.run(1, include_analog=not args.no_analog)
        elif name == "fig7":
            result = fig6_fig7.run(2, include_analog=not args.no_analog)
        elif name == "table1":
            result = table1.run()
        else:
            result = table2.run()
        results[name] = result
        print(result.format())
        print()
    if args.json:
        dump_results(results, args.json)
        print("results written to %s" % args.json)
    return 0


def _load_circuit(args):
    """Resolve the shared ``--circuit``/``--bench`` source group.

    ``lint --allow-cycles`` threads into the bench loader, so a cyclic
    bench file reaches the lint report instead of dying at load time.
    """
    if args.bench:
        return bench_io.read_bench(
            args.bench,
            allow_cycles=getattr(args, "allow_cycles", False),
        )
    return BUILTIN_CIRCUITS[args.circuit]()


def _cmd_simulate(args) -> int:
    netlist = _load_circuit(args)
    config = ddm_config() if args.mode == "ddm" else cdm_config()
    if args.connect:
        if args.check_sta:
            raise SimulationError(
                "--check-sta verifies in-process traces; with --connect "
                "run the server-side 'sta' op instead (the remote "
                "protocol returns summaries, not full traces)"
            )
        # The chosen engine runs server-side; the server's registry
        # vets availability when the circuit is registered.
        return _cmd_simulate_remote(args, netlist, config)
    config.check_sta_bounds = args.check_sta
    # Record the chosen backend on the config and validate up front, so
    # an unusable selection (--engine bitparallel without numpy) fails here
    # with one clear error instead of mid-simulation.
    config.engine_kind = args.engine
    config.validate()
    if args.stdin_vectors:
        return _cmd_simulate_stream(args, netlist, config)
    if args.batch is not None or args.vector_file:
        return _cmd_simulate_batch(args, netlist, config)
    if args.batch_out or args.pool_workers is not None:
        raise SimulationError(
            "--pool-workers/--batch-out apply to batch mode only; "
            "add --batch N, --vector-file PATH or --stdin-vectors"
        )
    stimulus = random_vectors(
        [net.name for net in netlist.primary_inputs],
        count=args.vectors,
        period=args.period,
        seed=args.seed,
    )
    result = simulate(netlist, stimulus, config=config, engine_kind=args.engine)
    print(circuit_stats.gather(netlist).format())
    print()
    print("mode: HALOTIS-%s" % args.mode.upper())
    print("engine: %s" % args.engine)
    print(result.stats.format())
    if args.vcd:
        write_vcd(result.traces, args.vcd, module_name=netlist.name)
        print("VCD written to %s" % args.vcd)
    return 0


def _cmd_simulate_batch(args, netlist, config) -> int:
    """The ``simulate --batch`` / ``--vector-file`` path: one lowering,
    N vector sequences, optional per-vector result files."""
    if args.vcd:
        raise SimulationError(
            "--vcd applies to single runs; use --batch-out with "
            "--batch-format csv for per-vector waveforms"
        )
    if args.vector_file:
        stimuli = load_vector_batches(args.vector_file)
    else:
        stimuli = random_vector_batch(
            [net.name for net in netlist.primary_inputs],
            batch=args.batch,
            count=args.vectors,
            period=args.period,
            base_seed=args.seed,
        )
    if args.pool_workers is not None:
        from .core.service import SimulationService

        with SimulationService(
            netlist,
            config=config,
            workers=args.pool_workers,
            engine_kind=args.engine,
        ) as service:
            batch = simulate_batch(
                netlist, stimuli, config=config, engine_kind=args.engine,
                service=service,
            )
    else:
        batch = simulate_batch(
            netlist, stimuli, config=config, engine_kind=args.engine,
        )
    print(circuit_stats.gather(netlist).format())
    print()
    print("mode: HALOTIS-%s (batch)" % args.mode.upper())
    if args.pool_workers is not None:
        print("service: %d warm workers" % args.pool_workers)
    print(batch.format())
    if args.batch_out:
        written = write_batch_results(
            batch, args.batch_out, fmt=args.batch_format
        )
        print(
            "%d result files written to %s" % (len(written), args.batch_out)
        )
    return 0


def _cmd_simulate_stream(args, netlist, config) -> int:
    """The ``simulate --stdin-vectors`` long-running streaming mode.

    One JSON vector sequence per stdin line, one JSON result line per
    vector on stdout, in input order; the warm pool (``--pool-workers``,
    default 1) runs ``N`` lines at a time so workers overlap while the
    output stays ordered.  EOF shuts the service down.
    """
    from .core.service import SimulationService
    from .io_formats import jsonl_protocol

    if args.vcd or args.batch_out:
        raise SimulationError(
            "--vcd/--batch-out do not apply to --stdin-vectors; results "
            "stream to stdout as JSON lines"
        )
    workers = args.pool_workers if args.pool_workers is not None else 1
    output_names = [net.name for net in netlist.primary_outputs]

    def emit(index: int, result) -> None:
        print(
            jsonl_protocol.result_summary_line(result, index, output_names),
            flush=True,
        )

    consumed = 0
    with SimulationService(
        netlist,
        config=config,
        workers=workers,
        engine_kind=args.engine,
    ) as service:
        window: List = []
        for line_number, line in enumerate(sys.stdin, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                window.append(jsonl_protocol.decode_vector_line(line))
            except ReproError as error:
                # One bad line must not take the whole stream down with
                # a traceback; fail like every other CLI error.
                raise SimulationError(
                    "stdin line %d is not a valid vector sequence: %s"
                    % (line_number, error)
                ) from None
            if len(window) >= workers:
                for result in service.submit_batch(window).wait():
                    emit(consumed, result)
                    consumed += 1
                window = []
        if window:
            for result in service.submit_batch(window).wait():
                emit(consumed, result)
                consumed += 1
    print("%d vectors simulated" % consumed, file=sys.stderr)
    return 0


def _cmd_simulate_remote(args, netlist, config) -> int:
    """The ``simulate --connect HOST:PORT`` path: same workloads, remote
    execution on a ``repro serve`` instance, bit-identical results."""
    import time

    from .core.batch import BatchResult
    from .server.client import SimulationClient, parse_address

    if args.stdin_vectors:
        raise SimulationError(
            "--stdin-vectors and --connect are alternatives: pipe JSONL "
            "at the server's TCP port instead (see docs/architecture.md)"
        )
    if args.pool_workers is not None:
        raise SimulationError(
            "--pool-workers tunes *local* execution; with "
            "--connect the pool lives server-side (size it with "
            "'repro serve --pool-workers')"
        )
    # Validate *before* registering anything server-side: a doomed
    # invocation must not consume a --max-netlists slot.
    batch_mode = args.batch is not None or args.vector_file
    if batch_mode and args.vcd:
        raise SimulationError(
            "--vcd applies to single runs; use --batch-out with "
            "--batch-format csv for per-vector waveforms"
        )
    if not batch_mode and args.batch_out:
        raise SimulationError(
            "--batch-out applies to batch mode only; add --batch N or "
            "--vector-file PATH"
        )
    host, port = parse_address(args.connect)
    if args.circuit:
        source = {"kind": "builtin", "name": args.circuit}
    else:
        with open(args.bench) as handle:
            source = {
                "kind": "bench", "text": handle.read(), "name": netlist.name,
            }
    # One server-side entry per (circuit, mode, engine) triple: distinct
    # knobs must not collide on the shared registry name.
    registered = "%s.%s.%s" % (
        args.circuit or netlist.name, args.mode, args.engine
    )
    with SimulationClient(host, port) as client:
        registration = client.register(
            registered, source, mode=args.mode, engine_kind=args.engine
        )
        if batch_mode:
            if args.vector_file:
                stimuli = load_vector_batches(args.vector_file)
            else:
                stimuli = random_vector_batch(
                    [net.name for net in netlist.primary_inputs],
                    batch=args.batch,
                    count=args.vectors,
                    period=args.period,
                    base_seed=args.seed,
                )
            start = time.perf_counter()
            results = client.simulate_batch(registered, stimuli)
            batch = BatchResult(
                results=results,
                engine_kind=args.engine,
                jobs=registration["workers"],
                lowering_seconds=0.0,
                wall_seconds=time.perf_counter() - start,
            )
            print(circuit_stats.gather(netlist).format())
            print()
            print("mode: HALOTIS-%s (batch)" % args.mode.upper())
            print("server: %s:%d (netlist %r, %d warm workers)"
                  % (host, port, registered, registration["workers"]))
            print(batch.format())
            if args.batch_out:
                written = write_batch_results(
                    batch, args.batch_out, fmt=args.batch_format
                )
                print("%d result files written to %s"
                      % (len(written), args.batch_out))
            return 0
        stimulus = random_vectors(
            [net.name for net in netlist.primary_inputs],
            count=args.vectors,
            period=args.period,
            seed=args.seed,
        )
        result = client.simulate(registered, stimulus)
    print(circuit_stats.gather(netlist).format())
    print()
    print("mode: HALOTIS-%s" % args.mode.upper())
    print("engine: %s" % args.engine)
    print("server: %s:%d (netlist %r)" % (host, port, registered))
    print(result.stats.format())
    if args.vcd:
        write_vcd(result.traces, args.vcd, module_name=netlist.name)
        print("VCD written to %s" % args.vcd)
    return 0


def _cmd_stats(args) -> int:
    """The ``stats`` subcommand: observe a running serve instance."""
    from .server.client import SimulationClient, parse_address

    host, port = parse_address(args.connect)
    with SimulationClient(host, port) as client:
        if args.prometheus:
            sys.stdout.write(client.metrics())
            return 0
        stats = client.stats()
    if args.json:
        print(json.dumps(stats, indent=2, sort_keys=True))
        return 0
    table = Table(
        ["quantity", "value"], title="server %s:%d" % (host, port)
    )
    table.add_row(["uptime (s)", "%.1f" % stats["uptime_seconds"]])
    table.add_row(["vectors served", stats["vectors_served"]])
    table.add_row(["busy rejections", stats["busy_rejections"]])
    table.add_row(["bad frames", stats["bad_frames"]])
    table.add_row([
        "netlists",
        "%d/%d" % (len(stats["netlists"]), stats["max_netlists"]),
    ])
    snapshot = stats.get("metrics")
    table.add_row([
        "metric families",
        len(snapshot["metrics"]) if snapshot else "collection off",
    ])
    print(table.render())
    for entry in stats["netlists"]:
        print(
            "- %s: engine=%s workers=%d pending=%d served=%d restarts=%d"
            % (entry["name"], entry["engine"], entry["workers"],
               entry["pending"], entry["vectors_served"],
               entry["worker_restarts"])
        )
    return 0


def _cmd_sta(args) -> int:
    """The ``sta`` subcommand: static windows + critical paths."""
    netlist = _load_circuit(args)
    config = ddm_config() if args.mode == "ddm" else cdm_config()
    input_slew = (args.slew[0], args.slew[1]) if args.slew else None
    report = sta_analyze(
        netlist, config, input_slew=input_slew, k_paths=args.k
    )
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.format(max_windows=args.windows))
    return 0


def _cmd_lint(args) -> int:
    """The ``lint`` subcommand: ERC + static hazards, one report.

    Exit-code contract: 0 clean or warnings only, 2 on any error (or,
    under ``--strict``, on warnings too); 1 stays reserved for crashes
    (``main``'s ReproError handler).
    """
    netlist = _load_circuit(args)
    config = ddm_config() if args.mode == "ddm" else cdm_config()
    report = circuit_validate.check(netlist, allow_cycles=args.allow_cycles)
    try:
        hazard = analyze_hazards(netlist, config)
    except AnalysisError:
        # Cyclic circuit: no topological windows, and the ERC pass
        # already reported the combinational-cycle finding.
        hazard = None
    if hazard is not None:
        report.extend(hazard.findings())
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.format())
    return report.exit_code(strict=args.strict)


def _cmd_faults(args) -> int:
    """The ``faults`` subcommand: generate / run / report."""
    from .faults.campaign import DependabilityReport, run_campaign
    from .faults.faultload import Faultload, generate_faultload

    if args.faults_command == "report":
        with open(args.path) as handle:
            report = DependabilityReport.from_dict(json.load(handle))
        if args.json:
            print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
        else:
            print(report.format())
        return 0

    netlist = _load_circuit(args)
    if args.faults_command == "generate":
        kinds = (
            tuple(FaultKind(value) for value in args.kinds)
            if args.kinds else None
        )
        faultload = generate_faultload(
            netlist,
            args.mutants,
            seed=args.seed,
            window=(args.window[0], args.window[1]),
            **({"kinds": kinds} if kinds else {}),
        )
        text = faultload.to_json()
        if args.out:
            with open(args.out, "w") as handle:
                handle.write(text + "\n")
            print("%d-mutant faultload written to %s"
                  % (len(faultload), args.out))
        else:
            print(text)
        return 0

    # faults run
    config = ddm_config() if args.mode == "ddm" else cdm_config()
    config.engine_kind = args.engine
    stimulus = random_vectors(
        [net.name for net in netlist.primary_inputs],
        count=args.vectors,
        period=args.period,
        seed=args.vector_seed,
    )
    if args.faultload:
        with open(args.faultload) as handle:
            faultload = Faultload.from_json(handle.read())
    else:
        faultload = generate_faultload(
            netlist, args.mutants, seed=args.seed,
            window=(0.0, stimulus.horizon),
        )
    faultload.validate(netlist)

    if args.connect:
        report = _run_faults_remote(args, netlist, faultload, stimulus)
    else:
        config.validate()
        report = run_campaign(
            netlist,
            faultload,
            stimulus,
            config=config,
            engine_kind=args.engine,
            jobs=args.pool_workers or 1,
            settle=args.settle,
            epsilon=args.epsilon,
        )
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.format())
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(report.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        if not args.json:
            print("report written to %s" % args.out)
    return 0


def _run_faults_remote(args, netlist, faultload, stimulus):
    """The ``faults run --connect`` path: campaign on a serve instance."""
    from .faults.campaign import DependabilityReport
    from .server.client import SimulationClient, parse_address

    if args.pool_workers is not None:
        raise SimulationError(
            "--pool-workers tunes *local* execution; with "
            "--connect the pool lives server-side (size it with "
            "'repro serve --pool-workers')"
        )
    if args.settle:
        raise SimulationError(
            "--settle applies to local campaigns; the server runs the "
            "entry's registered settle (0)"
        )
    host, port = parse_address(args.connect)
    if args.circuit:
        source = {"kind": "builtin", "name": args.circuit}
    else:
        with open(args.bench) as handle:
            source = {
                "kind": "bench", "text": handle.read(), "name": netlist.name,
            }
    registered = "%s.%s.%s" % (
        args.circuit or netlist.name, args.mode, args.engine
    )
    with SimulationClient(host, port) as client:
        client.register(
            registered, source, mode=args.mode, engine_kind=args.engine
        )
        payload = client.faults(
            registered, faultload.to_dict(), stimulus, epsilon=args.epsilon
        )
    report = DependabilityReport.from_dict(payload)
    report.via = "server"
    return report


def _cmd_serve(args) -> int:
    """The ``serve`` subcommand: run the network simulation server."""
    from .server.app import SimulationServer

    server = SimulationServer(
        host=args.host,
        port=args.port,
        max_netlists=args.max_netlists,
        pool_workers=args.pool_workers,
        queue_depth=args.queue_depth,
    )
    # Background thread so the bound (possibly ephemeral) port can be
    # announced once it is known and Ctrl-C turns into a graceful stop;
    # start_background raises (a ReproError) when the bind fails.
    server.start_background(30.0)
    print(
        "halotis simulation server listening on %s:%d "
        "(max-netlists=%d, pool-workers=%d, queue-depth=%d)"
        % (server.host, server.port, args.max_netlists, args.pool_workers,
           args.queue_depth),
        flush=True,
    )
    try:
        while not server.wait_stopped(0.5):
            pass
        print("server stopped (shutdown frame received)", file=sys.stderr)
    except KeyboardInterrupt:
        print("interrupt: shutting the server down", file=sys.stderr)
        server.stop_and_join(30.0)
    return 0


def _cmd_characterize(args) -> int:
    from .analog import characterize as ch

    library = default_library()
    cell = library.get(args.cell)
    vdd = library.vdd
    table = Table(
        ["quantity", "fitted (analog)", "shipped (library)"],
        title="characterisation of %s pin %d" % (args.cell, args.pin),
    )
    threshold = ch.measure_threshold(args.cell, args.pin)
    table.add_row(
        ["VT (V)", "%.3f" % threshold, "%.3f" % cell.pins[args.pin].vt]
    )
    for rising in (False, True):
        fit = ch.fit_arc(
            args.cell, args.pin, rising,
            extra_loads=(0.0, 20.0), input_slews=(0.15, 0.4), dt=args.dt,
        )
        arc = cell.arc(args.pin, rising)
        edge = "rise" if rising else "fall"
        table.add_row(["d0 %s (ns)" % edge, "%.4f" % fit.d0, "%.4f" % arc.d0])
        table.add_row(
            ["d_load %s (ns/fF)" % edge, "%.5f" % fit.d_load, "%.5f" % arc.d_load]
        )
        table.add_row(["s0 %s (ns)" % edge, "%.4f" % fit.s0, "%.4f" % arc.s0])
    deg_fit = ch.fit_degradation_curve(
        args.cell, args.pin, output_rising=True, dt=args.dt
    )
    arc = cell.arc(args.pin, True)
    table.add_row(
        [
            "degradation tau @CL=%.0f fF (ns)" % deg_fit.c_load,
            "%.4f" % deg_fit.tau,
            "%.4f" % arc.degradation.tau(vdd, deg_fit.c_load),
        ]
    )
    table.add_row(
        [
            "degradation T0 @tau_in=%.2f ns" % deg_fit.tau_in,
            "%.4f" % deg_fit.t0,
            "%.4f" % arc.degradation.t0(vdd, deg_fit.tau_in),
        ]
    )
    print(table.render())
    print(
        "\nnote: shipped degradation parameters are effective circuit-level "
        "values\n(calibrated so DDM glitch filtering matches the analog "
        "multiplier; see EXPERIMENTS.md)"
    )
    return 0


def _cmd_info(_args) -> int:
    library = default_library()
    table = Table(
        ["cell", "function", "pins", "VT (V)", "d0 rise/fall (ns)"],
        title="library %s (VDD = %.1f V)" % (library.name, library.vdd),
    )
    for cell in sorted(library, key=lambda c: c.name):
        thresholds = "/".join("%.2f" % pin.vt for pin in cell.pins)
        d0 = "%.3f/%.3f" % (cell.arc(0, True).d0, cell.arc(0, False).d0)
        table.add_row(
            [cell.name, cell.function.name, cell.num_inputs, thresholds, d0]
        )
    print(table.render())
    print()
    print("built-in circuits: %s" % ", ".join(sorted(BUILTIN_CIRCUITS)))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    from .obs.log import configure_logging

    configure_logging(level=args.log_level, json_mode=args.log_json)
    try:
        if args.command == "experiment":
            return _cmd_experiment(args)
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "stats":
            return _cmd_stats(args)
        if args.command == "sta":
            return _cmd_sta(args)
        if args.command == "lint":
            return _cmd_lint(args)
        if args.command == "faults":
            return _cmd_faults(args)
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "characterize":
            return _cmd_characterize(args)
        if args.command == "info":
            return _cmd_info(args)
    except ReproError as error:
        print("error: %s" % error, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
