"""Campaign driver: golden run, mutant fan-out, trace diff, report.

A campaign plays one base stimulus through the healthy circuit (the
*golden* run), then once per mutant with that mutant's fault active,
and classifies each mutant by diffing its waveforms against the golden
run:

* ``detected`` — a primary output differs (edge list or final value):
  the fault is observable at the interface.
* ``latent`` — only internal nets differ: the corruption exists but
  never reached an output within the stimulus (includes the faulted
  net itself for permanent faults).
* ``masked`` — no waveform differs but the run's inertial/degradation
  counters do: the fault injected activity that the dynamic filters
  provably absorbed.  This class only exists because the engines model
  those filters; a plain RTL injector cannot distinguish it from
  silent.
* ``silent`` — nothing observable changed at all (logical masking, or
  a SET pulse into a don't-care window).

Mutants fan out through one :func:`~repro.core.batch.simulate_batch`
call: in-process, on an ephemeral worker pool (``jobs > 1``) or on a
caller-owned warm :class:`~repro.core.service.SimulationService`
(``service=`` — the fast path for many campaigns on one circuit, since
workers keep their engines and lowering across mutants).  The server's
``faults`` op reuses the same classification entry points over its own
pool.

On the compiled-family engines every path runs a mutant on its fault's
fanout cone only: the engine records the golden run of the base
stimulus once, on the first chunk that holds at least
:data:`~repro.faults.differential.MIN_MUTANTS_TO_RECORD` (8) of its
mutants, and each mutant re-runs just the fault net's driver and the
gates downstream of it against that record
(:mod:`~repro.faults.differential`).  Results, statistics and engine
metrics are bit-identical to full runs; the ``reference`` engine, a
lone faulted ``simulate()``, smaller chunks before the record exists
and a few other cases listed there take the full run.  The golden run diffed here is still a plain ``simulate()``.
"""

from __future__ import annotations

import dataclasses
import time as _time
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from ..circuit.netlist import Netlist
from ..config import SimulationConfig
from ..core.batch import simulate_batch
from ..core.engine import SimulationResult, simulate
from ..core.rows import ResultLayout
from ..core.trace import NetTrace
from ..errors import FaultError
from ..stimuli.vectors import VectorSequence
from .faultload import FaultSpec, Faultload
from .inject import FaultedStimulus

if TYPE_CHECKING:
    from ..core.service import SimulationService

#: classification labels, in report order.
CLASSIFICATIONS = ("silent", "detected", "latent", "masked")


class Classification:
    """String constants for the four outcome classes."""

    SILENT = "silent"
    DETECTED = "detected"
    LATENT = "latent"
    MASKED = "masked"


@dataclasses.dataclass(frozen=True)
class MutantOutcome:
    """Classification of one mutant against the golden run.

    ``end_detected`` / ``end_latent`` are the *final-value-only*
    verdicts (does the run end in a corrupted state?) — coarser than
    the trace-level ``classification`` but timing-free, so they agree
    across all four engine kinds including the word-timing bitparallel
    backend.
    """

    index: int
    fault: FaultSpec
    classification: str
    detected_pos: Tuple[str, ...]
    end_detected: bool
    end_latent: bool

    def to_dict(self) -> Dict[str, object]:
        return {
            "index": self.index,
            "fault": self.fault.to_dict(),
            "classification": self.classification,
            "detected_pos": list(self.detected_pos),
            "end_detected": self.end_detected,
            "end_latent": self.end_latent,
        }


def _edges_match(
    golden_initial: int,
    golden_edges: List[Tuple[float, int]],
    mutant_trace: NetTrace,
    epsilon: float,
) -> bool:
    if golden_initial != mutant_trace.initial_value:
        return False
    mutant_edges = mutant_trace.edges()
    if len(golden_edges) != len(mutant_edges):
        return False
    for (golden_time, golden_value), (mutant_time, mutant_value) in zip(
        golden_edges, mutant_edges
    ):
        if golden_value != mutant_value:
            return False
        if abs(golden_time - mutant_time) > epsilon:
            return False
    return True


class _GoldenDiff:
    """The golden side of every mutant diff of one campaign.

    Built once per campaign: the golden nets in name order with their
    net ids and PO / traced flags, the golden final-value row (final
    values compare as rows), and each golden trace's edges on first use.
    """

    def __init__(
        self, netlist: Netlist, golden: SimulationResult, epsilon: float
    ):
        po_names = {net.name for net in netlist.primary_outputs}
        traced = set(golden.traces.names())
        self.golden = golden
        self.epsilon = epsilon
        self.layout = layout = ResultLayout(netlist)
        self.golden_row = layout.row(golden.final_values)
        #: ``(name, net id, is_po, traced)`` per golden net, by name.
        self.nets = [
            (name, netlist.nets[name].index, name in po_names, name in traced)
            for name in sorted(golden.final_values)
        ]
        self.traced = bool(traced)
        self._edges: Dict[str, Tuple[int, List[Tuple[float, int]]]] = {}

    def _golden_edges(self, name: str) -> Tuple[int, List[Tuple[float, int]]]:
        edges = self._edges.get(name)
        if edges is None:
            trace = self.golden.traces[name]
            edges = self._edges[name] = (trace.initial_value, trace.edges())
        return edges

    def classify(
        self, mutant: SimulationResult, fault: FaultSpec, index: int
    ) -> MutantOutcome:
        golden = self.golden
        golden_row = self.golden_row
        mutant_row = self.layout.row(mutant.final_values)
        mutant_traces = mutant.traces
        compare_traces = self.traced and len(mutant_traces) > 0
        detected: List[str] = []
        internal_diff = end_detected = end_latent = False
        # Equal final values and no trace pair to diff: nothing differs.
        if compare_traces or golden_row != mutant_row:
            mutant_traced = (
                set(mutant_traces.names()) if compare_traces else set()
            )
            for name, net, is_po, traced in self.nets:
                differs = golden_row[net] != mutant_row[net]
                if differs:
                    if is_po:
                        end_detected = True
                    else:
                        end_latent = True
                elif traced and name in mutant_traced:
                    initial, edges = self._golden_edges(name)
                    differs = not _edges_match(
                        initial, edges, mutant_traces[name], self.epsilon
                    )
                if not differs:
                    continue
                if is_po:
                    detected.append(name)
                else:
                    internal_diff = True

        if detected:
            classification = Classification.DETECTED
        elif internal_diff:
            classification = Classification.LATENT
        elif (
            mutant.stats.events_filtered != golden.stats.events_filtered
            or mutant.stats.transitions_fully_degraded
            != golden.stats.transitions_fully_degraded
        ):
            classification = Classification.MASKED
        else:
            classification = Classification.SILENT
        return MutantOutcome(
            index=index,
            fault=fault,
            classification=classification,
            detected_pos=tuple(detected),
            end_detected=end_detected,
            end_latent=end_latent,
        )


@dataclasses.dataclass
class DependabilityReport:
    """Aggregated campaign result.

    ``to_dict()`` is fully deterministic (sorted aggregate keys, no
    wall-clock fields), so golden reports can be pinned byte-for-byte
    in CI; the timing attributes live on the object only.
    """

    circuit: str
    engine_kind: str
    seed: int
    outcomes: List[MutantOutcome]
    #: wall-clock seconds the mutant fan-out took (not serialised).
    wall_seconds: float = 0.0
    #: how the mutants were run ("local", "service", "server").
    via: str = "local"

    def __len__(self) -> int:
        return len(self.outcomes)

    def counts(self) -> Dict[str, int]:
        """Mutants per classification (all four classes always present)."""
        totals = {label: 0 for label in CLASSIFICATIONS}
        for outcome in self.outcomes:
            totals[outcome.classification] += 1
        return totals

    def per_net(self) -> Dict[str, Dict[str, int]]:
        """Per-target-net classification counts, sorted by net name."""
        nets: Dict[str, Dict[str, int]] = {}
        for outcome in self.outcomes:
            row = nets.setdefault(
                outcome.fault.net, {label: 0 for label in CLASSIFICATIONS}
            )
            row[outcome.classification] += 1
        return dict(sorted(nets.items()))

    def per_kind(self) -> Dict[str, Dict[str, int]]:
        """Per-fault-kind classification counts, sorted by kind."""
        kinds: Dict[str, Dict[str, int]] = {}
        for outcome in self.outcomes:
            row = kinds.setdefault(
                outcome.fault.kind.value, {label: 0 for label in CLASSIFICATIONS}
            )
            row[outcome.classification] += 1
        return dict(sorted(kinds.items()))

    @property
    def coverage(self) -> float:
        """Detected fraction of non-silent-by-construction mutants."""
        if not self.outcomes:
            return 0.0
        return self.counts()[Classification.DETECTED] / len(self.outcomes)

    def to_dict(self) -> Dict[str, object]:
        return {
            "circuit": self.circuit,
            "engine_kind": self.engine_kind,
            "seed": self.seed,
            "mutants": len(self.outcomes),
            "counts": self.counts(),
            "per_kind": self.per_kind(),
            "per_net": self.per_net(),
            "outcomes": [outcome.to_dict() for outcome in self.outcomes],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> DependabilityReport:
        try:
            outcomes = [
                MutantOutcome(
                    index=int(entry["index"]),
                    fault=FaultSpec.from_dict(entry["fault"]),
                    classification=str(entry["classification"]),
                    detected_pos=tuple(entry["detected_pos"]),
                    end_detected=bool(entry["end_detected"]),
                    end_latent=bool(entry["end_latent"]),
                )
                for entry in data["outcomes"]  # type: ignore[union-attr]
            ]
            return cls(
                circuit=str(data["circuit"]),
                engine_kind=str(data["engine_kind"]),
                seed=int(data["seed"]),  # type: ignore[arg-type]
                outcomes=outcomes,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise FaultError("malformed dependability report: %s" % exc) from None

    def format(self) -> str:
        """Human-readable summary (the CLI's default report rendering)."""
        counts = self.counts()
        lines = [
            "fault campaign:         %s" % self.circuit,
            "engine:                 %s" % self.engine_kind,
            "seed:                   %d" % self.seed,
            "mutants:                %d" % len(self.outcomes),
            "  detected-at-po:       %d" % counts[Classification.DETECTED],
            "  latent:               %d" % counts[Classification.LATENT],
            "  masked-by-inertial:   %d" % counts[Classification.MASKED],
            "  silent:               %d" % counts[Classification.SILENT],
        ]
        if self.outcomes:
            lines.append("coverage:               %.1f%%" % (100.0 * self.coverage))
        if self.wall_seconds > 0.0:
            lines.append(
                "throughput:             %.1f mutants/s (%s)"
                % (len(self.outcomes) / self.wall_seconds, self.via)
            )
        per_kind = self.per_kind()
        if per_kind:
            lines.append("per-kind breakdown:")
            for kind, row in per_kind.items():
                lines.append(
                    "  %-14s det=%-4d lat=%-4d mask=%-4d silent=%-4d"
                    % (
                        kind,
                        row[Classification.DETECTED],
                        row[Classification.LATENT],
                        row[Classification.MASKED],
                        row[Classification.SILENT],
                    )
                )
        return "\n".join(lines)


def classify_results(
    netlist: Netlist,
    faultload: Faultload,
    golden: SimulationResult,
    results: Sequence[SimulationResult],
    engine_kind: str,
    epsilon: float = 0.0,
) -> DependabilityReport:
    """Build a report from already-executed golden + mutant results.

    The shared back half of :func:`run_campaign`; the network server's
    ``faults`` op calls it directly over results it ran on its own
    pool.
    """
    if len(results) != len(faultload.faults):
        raise FaultError(
            "campaign got %d results for %d faults"
            % (len(results), len(faultload.faults))
        )
    diff = _GoldenDiff(netlist, golden, epsilon)
    outcomes = [
        diff.classify(result, fault, index)
        for index, (fault, result) in enumerate(zip(faultload.faults, results))
    ]
    return DependabilityReport(
        circuit=faultload.circuit,
        engine_kind=engine_kind,
        seed=faultload.seed,
        outcomes=outcomes,
    )


def run_campaign(
    netlist: Netlist,
    faultload: Faultload,
    stimulus: VectorSequence,
    config: Optional[SimulationConfig] = None,
    engine_kind: Optional[str] = None,
    jobs: int = 1,
    service: Optional[SimulationService] = None,
    settle: Optional[float] = None,
    epsilon: Optional[float] = None,
) -> DependabilityReport:
    """Run one full campaign: golden run, mutant fan-out, classification.

    Args:
        netlist: the circuit under test.
        faultload: the mutants (validated against ``netlist``).
        stimulus: base ``VectorSequence`` every mutant replays.
        config: engine knobs; also supplies campaign defaults
            (``campaign_settle``, ``campaign_detect_epsilon``).
            Defaults to the service's config when ``service`` is given,
            else to :class:`SimulationConfig`.
        engine_kind: backend for golden and mutants alike (defaults to
            the service's, else ``config.engine_kind``); golden and
            mutants always share a backend so the diff never crosses
            timing contracts.
        jobs: worker processes for the mutants; > 1 runs them on an
            ephemeral pool (see :func:`~repro.core.batch.simulate_batch`).
        service: an existing (already warm) service to reuse instead;
            overrides ``jobs``.  A ``config``/``engine_kind`` that
            differs from the service's raises
            :class:`~repro.errors.ServiceError`.  The caller keeps
            ownership — it is not closed here.
        settle: extra post-horizon settle per run (default
            ``config.campaign_settle``).
        epsilon: edge-time diff tolerance (default
            ``config.campaign_detect_epsilon``).
    """
    if service is not None:
        # The golden run must use the knobs the pool's mutants run on.
        if config is None:
            config = service.config
        if engine_kind is None:
            engine_kind = service.engine_kind
    if config is None:
        config = SimulationConfig()
    config.validate()
    if engine_kind is None:
        engine_kind = config.engine_kind
    if settle is None:
        settle = config.campaign_settle
    if epsilon is None:
        epsilon = config.campaign_detect_epsilon
    faultload.validate(netlist)
    mutants = [FaultedStimulus(stimulus, fault) for fault in faultload.faults]

    start = _time.perf_counter()
    results: List[SimulationResult] = []
    if mutants:
        # Mutants before golden: a service knob mismatch fails here,
        # before any simulation is spent on the golden run.
        results = simulate_batch(
            netlist, mutants, config=config, settle=settle,
            engine_kind=engine_kind, jobs=jobs, service=service,
        ).results
    wall_seconds = _time.perf_counter() - start
    golden = simulate(
        netlist, stimulus, config=config, settle=settle,
        engine_kind=engine_kind,
    )

    report = classify_results(
        netlist, faultload, golden, results, engine_kind, epsilon=epsilon
    )
    report.wall_seconds = wall_seconds
    if service is not None or min(jobs, len(mutants)) > 1:
        report.via = "service"
    return report
