"""The four workloads, each a closed loop of one operation.

Every workload builds its inputs from the seed; the runner has the
expected output of every operation computed with the ``reference``
engine before any timing starts.  A workload sets itself up cold
(circuit build, lowering, engine / pool / server start, registration,
one warm-up operation), then repeats its operation.  Each operation's
output is checked against the expected one after its timer stops.

Operations are small (tens of milliseconds), so that one run times
hundreds of them and their median and p95 are steady.  They cycle over
a pool of ``POOL`` distinct seeded inputs, which the traced half-window
covers in full: the expected results stay cheap to compute, and the
exact kernel counts are sums over the whole pool.

A workload only calls the program's public API: ``simulate``,
``simulate_batch``, ``SimulationService``, ``SimulationServer`` /
``SimulationClient``, ``run_campaign`` and the public fault and codec
helpers.  ``probe`` runs after the traced window and times a layer's
public functions directly where no existing phase split covers it.
"""

from __future__ import annotations

import json
import random
import statistics
import time
from typing import Dict, List, Sequence, Tuple

from repro.circuit import modules
from repro.config import DelayMode, cdm_config, ddm_config
from repro.core.batch import simulate_batch
from repro.core.engine import simulate
from repro.core.service import SimulationService
from repro.experiments.common import PAPER_TABLE1, run_halotis
from repro.faults.campaign import CLASSIFICATIONS, classify_results, run_campaign
from repro.faults.faultload import generate_faultload
from repro.faults.inject import FaultedStimulus, FaultInjection
from repro.io_formats import jsonl_protocol
from repro.obs import get_registry
from repro.server.app import SimulationServer
from repro.server.client import SimulationClient
from repro.stimuli.patterns import random_vector_batch, random_vectors
from repro.stimuli.vectors import multiplication_sequence

from layers import Delta, engine_costs, percentile, service_costs
from tracing import Tracer

#: Vector period, in ns, of every generated stimulus.
PERIOD = 5.0

#: The paper's per-run kernel quantities; every check compares them.
COUNT_FIELDS = (
    "events_executed",
    "events_filtered",
    "transitions_degraded",
    "transitions_fully_degraded",
)

#: One run's expected output: its kernel counts and its final
#: primary-output values.
Expected = Tuple[Tuple[int, ...], Tuple[int, ...]]


def expected_of(result, outputs: Sequence[str]) -> Expected:
    return (
        tuple(getattr(result.stats, field) for field in COUNT_FIELDS),
        tuple(result.final_values[name] for name in outputs),
    )


def median_seconds(call, repeats: int) -> float:
    """Median wall time of ``repeats`` calls of ``call()``."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def accuracy_table() -> Tuple[Dict[str, float], List[Dict[str, object]], int]:
    """The paper's Table 1 sequences under DDM and CDM (untimed).

    Returns the per-layer fields, printable rows next to
    ``PAPER_TABLE1``, and how many of the four runs the compiled engine
    got different from the reference engine.
    """
    fields: Dict[str, float] = {}
    rows: List[Dict[str, object]] = []
    mismatches = 0
    for which in (1, 2):
        paper = PAPER_TABLE1[which]
        for mode in (DelayMode.DDM, DelayMode.CDM):
            reference = run_halotis(which, mode, record_traces=False,
                                    engine_kind="reference")
            compiled = run_halotis(which, mode, record_traces=False,
                                   engine_kind="compiled")
            counts = (reference.stats.events_executed,
                      reference.stats.events_filtered)
            if counts != (compiled.stats.events_executed,
                          compiled.stats.events_filtered):
                mismatches += 1
            key = "accuracy.seq%d.%s" % (which, mode.value)
            fields[key + "_events"] = counts[0]
            fields[key + "_filtered"] = counts[1]
            paper_events = paper[0] if mode is DelayMode.DDM else paper[1]
            paper_filtered = paper[3] if mode is DelayMode.DDM else paper[4]
            rows.append({
                "sequence": which, "mode": mode.value,
                "events": counts[0], "filtered": counts[1],
                "paper_events": paper_events,
                "paper_filtered": paper_filtered,
            })
    return fields, rows, mismatches


class Workload:
    """One workload: inputs, oracle, cold setup, operation, check."""

    name = ""
    #: client connections the load generator opens.
    connections = 0
    #: distinct inputs the operations cycle over: enough that the
    #: spread of a run's median and p95 from seed to seed stays small.
    POOL = 32

    def __init__(self, seed: int, workers: int, tracer: Tracer):
        self.seed = seed
        self.workers = workers
        self.tracer = tracer
        self.rng = random.Random("%s:%d" % (self.name, seed))
        #: what ``compute_oracle`` returned; set by the runner.
        self.expected: List = []
        #: the program's kernel counts per pool item, as first returned.
        self.pass_counts: Dict[int, Tuple[int, ...]] = {}
        #: probe outputs that differed from the oracle (traced run).
        self.probe_failures: List[str] = []
        #: probe outputs checked against the oracle (traced run).
        self.probe_checks = 0
        self.warmup_output = None

    # -- to implement ----------------------------------------------------

    def build_inputs(self) -> None:
        raise NotImplementedError

    def compute_oracle(self) -> List:
        """The expected output of every pool item (reference engine)."""
        raise NotImplementedError

    def setup(self) -> None:
        """Cold set-up, ending with one warm-up operation whose output
        is kept in ``warmup_output`` for checking."""
        raise NotImplementedError

    def teardown(self) -> List[str]:
        """Stop what ``setup`` started; returns the problems seen."""
        return []

    def operation(self, index: int):
        raise NotImplementedError

    def check(self, index: int, output) -> Tuple[bool, int, int]:
        """``(ok, vectors, events)`` of one operation's output."""
        raise NotImplementedError

    def snapshot(self) -> Dict[str, object]:
        return get_registry().snapshot()

    def probe(self, delta: Delta, window: float) -> Dict[str, float]:
        """Per-layer fields specific to this workload (traced run)."""
        return {}

    # -- shared ------------------------------------------------------------

    def kernel_fields(self) -> Dict[str, float]:
        """Exact kernel counts summed over one pass of the input pool.

        A pool item the run never reached would make the sums partial,
        so it counts as a failure instead.
        """
        self.probe_checks += 1
        missing = [slot for slot in range(self.POOL)
                   if slot not in self.pass_counts]
        if missing:
            self.probe_failures.append(
                "kernel counts partial: pool items %s never ran" % missing
            )
        totals = [0] * len(COUNT_FIELDS)
        vectors = 0
        for counts in self.pass_counts.values():
            for position, value in enumerate(counts[:-1]):
                totals[position] += value
            vectors += counts[-1]
        fields = {
            "kernel." + field: float(total)
            for field, total in zip(COUNT_FIELDS, totals)
        }
        fields["kernel.events_per_vector"] = (
            totals[0] / vectors if vectors else 0.0
        )
        return fields

    def _record_pass(self, slot: int, got: List[Expected]) -> None:
        if slot not in self.pass_counts:
            sums = [sum(item[0][position] for item in got)
                    for position in range(len(COUNT_FIELDS))]
            self.pass_counts[slot] = tuple(sums) + (len(got),)

    def _check_runs(self, slot: int, results, expected: List[Expected],
                    outputs: Sequence[str]) -> Tuple[bool, int, int]:
        got = [expected_of(result, outputs) for result in results]
        self._record_pass(slot, got)
        events = sum(item[0][0] for item in got)
        return got == expected, len(got), events


class LongRun(Workload):
    """One ``simulate()`` of a 12-vector sequence on the 6x6
    multiplier, compiled, DDM, traces recorded."""

    name = "long-run"
    WIDTH = 6
    VECTORS = 12
    #: random 12-vector sequences differ in cost by up to 1.5x, so the
    #: median operation of a 32-item pool moved by 8% from seed to seed.
    POOL = 64

    def __init__(self, seed, workers, tracer):
        super().__init__(seed, workers, tracer)
        self.config = ddm_config(engine_kind="compiled")

    def build_inputs(self):
        netlist = modules.array_multiplier(self.WIDTH)
        self.outputs = [net.name for net in netlist.primary_outputs]
        names = [net.name for net in netlist.primary_inputs]
        self.inputs = [
            random_vectors(names, self.VECTORS, PERIOD,
                           seed=self.rng.randrange(1 << 30))
            for _ in range(self.POOL)
        ]

    def compute_oracle(self):
        netlist = modules.array_multiplier(self.WIDTH)
        config = ddm_config(engine_kind="reference", record_traces=False)
        return [
            [expected_of(simulate(netlist, stimulus, config=config),
                         self.outputs)]
            for stimulus in self.inputs
        ]

    def setup(self):
        with self.tracer.span("setup.build"):
            self.netlist = modules.array_multiplier(self.WIDTH)
        with self.tracer.span("setup.compile"):
            self.netlist.compile()
        with self.tracer.span("setup.warmup"):
            self.warmup_output = self.operation(0)

    def operation(self, index):
        with self.tracer.span("simulate"):
            return simulate(self.netlist, self.inputs[index % self.POOL],
                            config=self.config)

    def check(self, index, output):
        slot = index % self.POOL
        return self._check_runs(slot, [output], self.expected[slot],
                                self.outputs)

    def probe(self, delta, window):
        return _engine_fields(delta)


class ShortBatch(Workload):
    """One in-process ``simulate_batch()`` of 32 two-step vectors on
    mult4, compiled, DDM, no traces."""

    name = "short-batch"
    WIDTH = 4
    BATCH = 32

    def __init__(self, seed, workers, tracer):
        super().__init__(seed, workers, tracer)
        self.config = ddm_config(engine_kind="compiled", record_traces=False)

    def build_inputs(self):
        netlist = modules.array_multiplier(self.WIDTH)
        self.outputs = [net.name for net in netlist.primary_outputs]
        names = [net.name for net in netlist.primary_inputs]
        base = self.rng.randrange(1 << 30)
        self.inputs = [
            random_vector_batch(names, self.BATCH, 2, PERIOD,
                                base_seed=base + k * self.BATCH)
            for k in range(self.POOL)
        ]

    def compute_oracle(self):
        netlist = modules.array_multiplier(self.WIDTH)
        config = ddm_config(engine_kind="reference", record_traces=False)
        return [
            [expected_of(result, self.outputs) for result in
             simulate_batch(netlist, batch, config=config)]
            for batch in self.inputs
        ]

    def setup(self):
        with self.tracer.span("setup.build"):
            self.netlist = modules.array_multiplier(self.WIDTH)
        with self.tracer.span("setup.compile"):
            self.netlist.compile()
        with self.tracer.span("setup.warmup"):
            self.warmup_output = self.operation(0)

    def operation(self, index):
        with self.tracer.span("simulate_batch"):
            return simulate_batch(self.netlist, self.inputs[index % self.POOL],
                                  config=self.config)

    def check(self, index, output):
        slot = index % self.POOL
        return self._check_runs(slot, output.results, self.expected[slot],
                                self.outputs)

    def probe(self, delta, window):
        fields = _engine_fields(delta)
        vectors = delta.counter("halotis_batch_vectors_total",
                                engine="compiled", mode="inprocess")
        batch_seconds = delta.hist("halotis_batch_seconds", engine="compiled",
                                   mode="inprocess")[1]
        run_seconds = delta.hist("halotis_engine_run_seconds",
                                 engine="compiled")[1]
        if vectors:
            fields["batch.overhead_us_per_vector"] = (
                1e6 * (batch_seconds - run_seconds) / vectors
            )
        # The whole pool as one batch on the two lockstep engines, for
        # the accuracy tier table: vector is DDM-exact, bitparallel is
        # CDM word tier.
        batch = [stimulus for inputs in self.inputs for stimulus in inputs]
        want = [item[1] for expected in self.expected for item in expected]
        for kind, config in (
            ("vector", ddm_config(engine_kind="vector", record_traces=False)),
            ("bitparallel", cdm_config(engine_kind="bitparallel",
                                       record_traces=False)),
        ):
            with self.tracer.span("probe.alt." + kind):
                results = simulate_batch(self.netlist, batch, config=config)
                seconds = median_seconds(
                    lambda: simulate_batch(self.netlist, batch, config=config),
                    3,
                )
            got = [tuple(result.final_values[name] for name in self.outputs)
                   for result in results]
            self.probe_checks += 1
            if got != want:
                self.probe_failures.append("%s engine outputs" % kind)
            fields["alt.%s_us_per_vector" % kind] = 1e6 * seconds / len(batch)
        return fields


class ServedBatches(Workload):
    """A closed loop on one client connection to a warm in-process
    server: each cycle is one 8-vector ``batch`` frame, then two
    pipelined single-vector ``simulate`` frames."""

    name = "served-batches"
    connections = 1
    WIDTH = 4
    BATCH_FRAME = 8
    SINGLE_FRAMES = 2
    NETLIST = "mult4"
    #: events per random mult4 vector differ enough that, over 320
    #: vectors, events per second moved by 8% from seed to seed.
    POOL = 64

    def build_inputs(self):
        netlist = modules.array_multiplier(self.WIDTH)
        self.outputs = [net.name for net in netlist.primary_outputs]
        names = [net.name for net in netlist.primary_inputs]
        self.per_cycle = self.BATCH_FRAME + self.SINGLE_FRAMES
        self.inputs = random_vector_batch(
            names, self.per_cycle * self.POOL, 2, PERIOD,
            base_seed=self.rng.randrange(1 << 30),
        )

    def compute_oracle(self):
        netlist = modules.array_multiplier(self.WIDTH)
        config = ddm_config(engine_kind="reference", record_traces=False)
        return [
            expected_of(result, self.outputs)
            for result in simulate_batch(netlist, self.inputs, config=config)
        ]

    def setup(self):
        self.server = None
        self.client = None
        with self.tracer.span("setup.server_start"):
            self.server = SimulationServer(
                port=0, pool_workers=self.workers
            ).start_background()
        with self.tracer.span("setup.connect"):
            self.client = SimulationClient(self.server.host, self.server.port)
        with self.tracer.span("setup.register"):
            self.client.register(
                self.NETLIST, {"kind": "builtin", "name": self.NETLIST},
                mode="ddm", engine_kind="compiled", workers=self.workers,
                record_traces=False,
            )
        with self.tracer.span("setup.warmup"):
            self.warmup_output = self.operation(0)

    def teardown(self):
        problems = []
        if self.client is not None:
            self.client.close()
        if self.server is not None and not self.server.stop_and_join(30.0):
            problems.append("server did not stop cleanly")
        return problems

    def _cycle_inputs(self, index):
        start = (index % self.POOL) * self.per_cycle
        return self.inputs[start:start + self.per_cycle], start

    def operation(self, index):
        vectors, _start = self._cycle_inputs(index)
        batch = vectors[:self.BATCH_FRAME]
        singles = vectors[self.BATCH_FRAME:]
        sent = time.perf_counter()
        results = self.client.simulate_batch(self.NETLIST, batch)
        done = time.perf_counter()
        self.tracer.add("client.batch_frame", sent, done)
        pending = []
        for stimulus in singles:
            request = self.client.submit_simulate(self.NETLIST, stimulus)
            pending.append((request, time.perf_counter()))
        for request, sent in pending:
            results.append(self.client.simulate_result(request))
            self.tracer.add("client.vector_frame", sent, time.perf_counter())
        return results

    def check(self, index, output):
        _vectors, start = self._cycle_inputs(index)
        return self._check_runs(
            index % self.POOL, output,
            self.expected[start:start + self.per_cycle], self.outputs,
        )

    def snapshot(self):
        stats = self.client.stats()
        snapshot = stats["metrics"]
        snapshot["busy_rejections"] = stats["busy_rejections"]
        return snapshot

    def probe(self, delta, window):
        fields = _engine_fields(delta)
        fields.update(_service_fields(delta, self.workers, window))
        # The registry starts a netlist's pool on its first request, so
        # the warm-up's excess over a warm operation is the pool start.
        fields["service.spawn_ms"] = 1e3 * (
            statistics.median(self.tracer.durations("setup.warmup"))
            - statistics.median(self.tracer.durations("op"))
        )
        fields["server.register_ms"] = 1e3 * statistics.median(
            self.tracer.durations("setup.register")
        )
        fields["server.busy_rejections"] = float(
            delta.after["busy_rejections"] - delta.before["busy_rejections"]
        )
        traced = [span for span in self.tracer.spans
                  if span.name in ("client.batch_frame", "client.vector_frame")
                  and span.start >= self.window_start]
        batch_frames = [s.seconds for s in traced
                        if s.name == "client.batch_frame"]
        vector_frames = [s.seconds for s in traced
                         if s.name == "client.vector_frame"]
        fields["frame.batch_p50_ms"] = 1e3 * percentile(batch_frames, 50)
        fields["frame.batch_p95_ms"] = 1e3 * percentile(batch_frames, 95)
        fields["frame.vector_p50_ms"] = 1e3 * percentile(vector_frames, 50)
        fields["frame.vector_p95_ms"] = 1e3 * percentile(vector_frames, 95)
        fields["server.request_ms_p50"] = 1e3 * delta.hist_quantile(
            "halotis_server_request_seconds", 0.5, op="simulate"
        )
        server_seconds = sum(
            delta.hist("halotis_server_request_seconds", op=op)[1]
            for op in ("batch", "simulate")
        )
        frames = len(batch_frames) + len(vector_frames)
        if frames:
            fields["server.wire_us_per_frame"] = 1e6 * (
                sum(batch_frames) + sum(vector_frames) - server_seconds
            ) / frames

        # The in-process best alternative on the same vectors, and the
        # wire codec timed on this workload's own payloads.
        netlist = modules.array_multiplier(self.WIDTH)
        config = ddm_config(engine_kind="compiled", record_traces=False)
        with self.tracer.span("probe.inprocess"):
            results = simulate_batch(netlist, self.inputs, config=config).results
            inprocess = median_seconds(
                lambda: simulate_batch(netlist, self.inputs, config=config), 3
            ) / len(self.inputs)
        served = self.window_busy / self.window_vectors
        fields["server.overhead_vs_inprocess_us_per_vector"] = (
            1e6 * (served - inprocess)
        )
        with self.tracer.span("probe.codec"):
            fields.update(_codec_fields(self.inputs, results))
        return fields

    #: set by the runner: traced-window start and its busy time/vectors.
    window_start = 0.0
    window_busy = 0.0
    window_vectors = 1


class FaultCampaign(Workload):
    """One ``run_campaign()`` of a 20-mutant faultload over all five
    fault kinds on mult4, on a warm pool reused across operations."""

    name = "fault-campaign"
    WIDTH = 4
    MUTANTS = 20

    def __init__(self, seed, workers, tracer):
        super().__init__(seed, workers, tracer)
        self.config = ddm_config(engine_kind="compiled", record_traces=False)
        #: the program's classification counts per campaign, as first
        #: returned.
        self.campaign_counts: Dict[int, Dict[str, int]] = {}

    def build_inputs(self):
        netlist = modules.array_multiplier(self.WIDTH)
        self.outputs = [net.name for net in netlist.primary_outputs]
        # Every input toggles between the two steps, so the mutants'
        # cost does not swing with a drawn stimulus; the faultloads carry
        # the seed.
        self.stimulus = multiplication_sequence([(0x3, 0x5), (0xC, 0xA)],
                                                period=PERIOD)
        self.inputs = [
            generate_faultload(netlist, self.MUTANTS,
                               seed=self.rng.randrange(1 << 30),
                               window=(0.0, self.stimulus.horizon))
            for _ in range(self.POOL)
        ]

    def compute_oracle(self):
        """Per campaign: the classifications, the events of all its
        runs, and each run's expected output (golden first)."""
        netlist = modules.array_multiplier(self.WIDTH)
        config = ddm_config(engine_kind="reference", record_traces=False)
        settle = config.campaign_settle
        golden = simulate(netlist, self.stimulus, config=config, settle=settle)
        expected = []
        for faultload in self.inputs:
            mutants = simulate_batch(
                netlist,
                [FaultedStimulus(self.stimulus, fault)
                 for fault in faultload.faults],
                config=config, settle=settle,
            ).results
            report = classify_results(netlist, faultload, golden, mutants,
                                      "reference")
            runs = [expected_of(result, self.outputs)
                    for result in [golden] + mutants]
            expected.append((
                [outcome.classification for outcome in report.outcomes],
                sum(run[0][0] for run in runs),
                runs,
            ))
        return expected

    def setup(self):
        self.pool = None
        with self.tracer.span("setup.build"):
            self.netlist = modules.array_multiplier(self.WIDTH)
        with self.tracer.span("setup.compile"):
            self.netlist.compile()
        with self.tracer.span("setup.pool"):
            self.pool = SimulationService(
                self.netlist, config=self.config, workers=self.workers,
                engine_kind="compiled",
            )
        with self.tracer.span("setup.warmup"):
            self.warmup_output = self.operation(0)

    def teardown(self):
        if self.pool is not None:
            self.pool.close()
            if not self.pool.closed:
                return ["service pool did not close"]
        return []

    def operation(self, index):
        with self.tracer.span("run_campaign"):
            return run_campaign(self.netlist, self.inputs[index % self.POOL],
                                self.stimulus, config=self.config,
                                service=self.pool)

    def check(self, index, output):
        slot = index % self.POOL
        classifications, events, _runs = self.expected[slot]
        got = [outcome.classification for outcome in output.outcomes]
        if slot not in self.campaign_counts:
            self.campaign_counts[slot] = output.counts()
        return got == classifications, len(got), events

    def probe(self, delta, window):
        fields = _engine_fields(delta)
        fields.update(_service_fields(delta, self.workers, window))
        fields["service.spawn_ms"] = 1e3 * statistics.median(
            self.tracer.durations("setup.pool")
        )
        for label in CLASSIFICATIONS:
            fields["campaign." + label] = float(sum(
                counts[label] for counts in self.campaign_counts.values()
            ))

        settle = self.config.campaign_settle
        injections = 0
        inject_seconds = 0.0
        classify_seconds = 0.0
        with self.tracer.span("probe.golden"):
            golden_seconds = median_seconds(
                lambda: simulate(self.netlist, self.stimulus,
                                 config=self.config, settle=settle),
                9,
            )
            golden = simulate(self.netlist, self.stimulus, config=self.config,
                              settle=settle)
        probe_netlist = modules.array_multiplier(self.WIDTH)
        for slot, faultload in enumerate(self.inputs):
            with self.tracer.span("probe.inject"):
                for fault in faultload.faults:
                    start = time.perf_counter()
                    injection = FaultInjection(probe_netlist, fault)
                    injection.apply()
                    injection.restore()
                    inject_seconds += time.perf_counter() - start
                    injections += 1
            with self.tracer.span("probe.mutants"):
                mutants = self.pool.submit_batch(
                    [FaultedStimulus(self.stimulus, fault)
                     for fault in faultload.faults],
                    settle=settle, chunk=8,
                ).wait()
            with self.tracer.span("probe.classify"):
                start = time.perf_counter()
                classify_results(self.netlist, faultload, golden, mutants,
                                 "compiled")
                classify_seconds += time.perf_counter() - start
            # The pool's per-mutant runs give the exact kernel counts
            # (run_campaign itself returns only the classification).
            ok, _vectors, _events = self._check_runs(
                slot, [golden] + mutants, self.expected[slot][2],
                self.outputs,
            )
            self.probe_checks += 1
            if not ok:
                self.probe_failures.append("campaign %d mutant runs" % slot)
        fields["inject.us_per_mutant"] = 1e6 * inject_seconds / injections
        fields["campaign.golden_ms"] = 1e3 * golden_seconds
        fields["campaign.classify_us_per_mutant"] = (
            1e6 * classify_seconds / injections
        )
        return fields


WORKLOADS = {
    cls.name: cls
    for cls in (LongRun, ShortBatch, ServedBatches, FaultCampaign)
}


# ----------------------------------------------------------------------
# shared probes
# ----------------------------------------------------------------------

def _engine_fields(delta: Delta) -> Dict[str, float]:
    costs = engine_costs(delta)
    return {
        "kernel.us_per_event": costs["kernel_us_per_event"],
        "dcinit.us_per_vector": costs["dcinit_us_per_vector"],
        "result.us_per_vector": costs["result_us_per_vector"],
    }


def _service_fields(delta: Delta, workers: int,
                    window: float) -> Dict[str, float]:
    return {
        "service." + key: value
        for key, value in service_costs(delta, workers, window).items()
    }


def _codec_fields(stimuli, results) -> Dict[str, float]:
    """Round-trip codec cost per vector: request and response encode,
    request and response decode, on the given payloads."""
    start = time.perf_counter()
    requests = [json.dumps(jsonl_protocol.encode_vector(s)) for s in stimuli]
    responses = [json.dumps(jsonl_protocol.result_to_dict(r)) for r in results]
    encode = time.perf_counter() - start
    start = time.perf_counter()
    for line in requests:
        jsonl_protocol.decode_vector(json.loads(line))
    for line in responses:
        jsonl_protocol.result_from_dict(json.loads(line))
    decode = time.perf_counter() - start
    return {
        "codec.encode_us_per_vector": 1e6 * encode / len(stimuli),
        "codec.decode_us_per_vector": 1e6 * decode / len(stimuli),
    }
