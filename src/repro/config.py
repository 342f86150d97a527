"""Simulation configuration objects.

A :class:`SimulationConfig` bundles the knobs of the HALOTIS kernel so that
experiments can be described declaratively and compared fairly: the paper's
HALOTIS-DDM and HALOTIS-CDM runs differ *only* in ``delay_mode``.
"""

from __future__ import annotations

import dataclasses
import enum
import importlib.util
from typing import Optional

from . import units
from .errors import ConfigError

#: Cached probe result; ``numpy_available()`` is the single source of
#: truth every layer consults (and what tests monkeypatch to simulate a
#: numpy-less install).
_NUMPY_SPEC_FOUND: Optional[bool] = None

def numpy_required_message(engine_kind: str) -> str:
    """The one actionable message for every needs-numpy failure path
    (config validation, engine construction, service, server
    registration, CLI), parameterised by the backend that needs it."""
    return (
        "engine_kind %r needs numpy, which is not installed; install "
        "numpy (pip install numpy) or pick engine_kind='compiled'"
        % engine_kind
    )


#: Backwards-compatible constant: the ``"vector"`` engine's message.
NUMPY_REQUIRED_MESSAGE = numpy_required_message("vector")


def numpy_available() -> bool:
    """True when numpy can be imported (the ``"vector"`` engine needs it)."""
    global _NUMPY_SPEC_FOUND
    if _NUMPY_SPEC_FOUND is None:
        _NUMPY_SPEC_FOUND = importlib.util.find_spec("numpy") is not None
    return _NUMPY_SPEC_FOUND


class DelayMode(enum.Enum):
    """Which delay model the engine applies when a gate switches."""

    #: Inertial and Degradation Delay Model (the paper's contribution).
    DDM = "ddm"
    #: Conventional delay model: ``tp = tp0``, no degradation (the paper's
    #: HALOTIS-CDM baseline).
    CDM = "cdm"


class InertialPolicy(enum.Enum):
    """How pulse filtering at gate inputs is decided.

    ``EVENT_ORDER`` is the rule published in the paper (Figure 4): a new
    event that does not occur after the input's previous event annihilates
    it.  ``PEAK_VOLTAGE`` reconstructs the ramp waveform's actual peak and
    annihilates only when the peak fails to reach the input threshold; it is
    the physically exact rule under the linear-ramp approximation and is
    provided as an ablation (benchmark ``ablA``).
    """

    EVENT_ORDER = "event-order"
    PEAK_VOLTAGE = "peak-voltage"


@dataclasses.dataclass
class SimulationConfig:
    """Knobs of a HALOTIS simulation run.

    Attributes:
        delay_mode: DDM (degradation on) or CDM (degradation off).
        inertial_policy: per-input pulse-filtering rule (see
            :class:`InertialPolicy`).
        engine_kind: simulation backend — ``"reference"`` (object-graph
            kernel), ``"compiled"`` (array-lowered kernel),
            ``"vector"`` (numpy N-lane lockstep kernel; requires
            numpy) or ``"bitparallel"`` (word-level lane-packed kernel;
            requires numpy); the full set is
            ``repro.core.engine.ENGINE_KINDS``.  The first three
            produce bit-identical waveforms; ``"bitparallel"`` is
            logic-exact with CDM-grade timing (see
            ``docs/architecture.md``).  ``"compiled"`` is the fastest
            single run, ``"vector"`` the fastest exact batch,
            ``"bitparallel"`` the fastest activity/coverage batch.
        max_events: hard budget of executed events; exceeding it raises
            :class:`repro.errors.SimulationLimitError`.  Guards against
            zero-delay oscillation in looped circuits.
        min_delay: smallest scheduled gate delay in ns; fully degraded
            transitions are emitted with this delay instead of being dropped
            (DESIGN.md section 6).
        time_resolution: two event times closer than this are simultaneous.
        record_traces: keep per-net transition traces (needed for waveform
            analysis and VCD dumps; disable for pure-throughput benchmarks).
        record_filtered: keep a log of filtered (annihilated) events for
            inspection.
        check_sta_bounds: run the static-timing oracle
            (:func:`repro.analysis.sta.verify_result`) after every
            ``simulate()`` / ``simulate_batch()`` run: every recorded
            transition must lie inside its net's static arrival/slew
            window and glitch activity may only appear on statically
            flagged hazard nets, else :class:`repro.errors.OracleError`
            is raised.  Needs ``record_traces``.
        default_input_slew: transition time, in ns, applied to primary-input
            ramps when the stimulus does not specify one.
        batch_jobs: default worker-process count for
            :func:`repro.core.batch.simulate_batch`; 1 (the default)
            runs every vector in-process through one reused engine,
            more runs the batch on an ephemeral service of that many
            workers.
        service_workers: default worker-process count for
            :class:`repro.core.service.SimulationService` — the
            persistent pool that keeps one warm engine per worker
            across batches.
        server_host: default bind/connect host for the network
            simulation server (:mod:`repro.server`).
        server_port: default TCP port for ``repro serve`` (0 asks the
            OS for an ephemeral port).
        server_max_netlists: how many circuits one server will hold
            warm pools for at once; registrations past the cap fail
            with a ``capacity`` error frame.
        server_queue_depth: per-netlist bound on queued-plus-running
            requests; requests past the bound are refused immediately
            with a ``busy`` error frame (backpressure) instead of
            growing an unbounded queue.
        campaign_settle: extra settle time, in ns, granted past each
            mutant run's horizon before trace diffing — covers faults
            (delay drift, late SET pulses) whose effects trail the base
            stimulus horizon.
        campaign_detect_epsilon: edge-time tolerance, in ns, when
            diffing a mutant trace against the golden run; 0.0 (the
            default) demands bit-identical edge times.  Values are
            always compared exactly.
        collect_metrics: publish per-run counters, phase timings and
            latency histograms to the process metrics registry
            (:mod:`repro.obs`) and attach a ``metrics`` summary to
            results.  Sampling is per run — never per event — so the
            instrumented hot path stays within 5% of uninstrumented
            (gated by ``benchmarks/test_obs_overhead.py``).  False
            skips every observability touch; the registry's own
            ``enabled`` switch gates publication process-wide too.
    """

    delay_mode: DelayMode = DelayMode.DDM
    inertial_policy: InertialPolicy = InertialPolicy.EVENT_ORDER
    engine_kind: str = "reference"
    max_events: int = 5_000_000
    min_delay: float = units.MIN_DELAY
    time_resolution: float = units.TIME_RESOLUTION
    record_traces: bool = True
    record_filtered: bool = False
    check_sta_bounds: bool = False
    default_input_slew: float = 0.20
    batch_jobs: int = 1
    service_workers: int = 2
    server_host: str = "127.0.0.1"
    server_port: int = 8047
    server_max_netlists: int = 8
    server_queue_depth: int = 64
    campaign_settle: float = 0.0
    campaign_detect_epsilon: float = 0.0
    collect_metrics: bool = True

    def validate(self) -> None:
        """Raise :class:`~repro.errors.ConfigError` for out-of-range settings.

        Engine availability is checked here too, so a doomed
        configuration fails at validation time with a clear
        :class:`~repro.errors.SimulationError` instead of surfacing an
        import failure mid-simulation.  The rule is delegated to the
        registered backend's ``ensure_available()`` hook — adding a new
        engine with optional dependencies needs no edit here.  Unknown
        kinds pass: ``make_engine`` raises the canonical
        "unknown engine kind" error for those.
        """
        if not isinstance(self.engine_kind, str) or not self.engine_kind:
            raise ConfigError("engine_kind must be a non-empty string")
        if not isinstance(self.delay_mode, DelayMode):
            raise ConfigError("unknown delay mode %r" % (self.delay_mode,))
        if not isinstance(self.inertial_policy, InertialPolicy):
            raise ConfigError(
                "unknown inertial policy %r" % (self.inertial_policy,)
            )
        # Imported lazily: repro.core.engine imports this module at
        # import time, so the registry can only be consulted at call
        # time (no cycle; the module is cached after the first call).
        from .core.engine import ENGINE_KINDS, _ensure_backends_registered

        _ensure_backends_registered()
        engine_cls = ENGINE_KINDS.get(self.engine_kind)
        if engine_cls is not None:
            engine_cls.ensure_available()
        if self.max_events <= 0:
            raise ConfigError("max_events must be positive")
        if self.min_delay <= 0.0:
            raise ConfigError("min_delay must be positive")
        if self.time_resolution < 0.0:
            raise ConfigError("time_resolution must be non-negative")
        if self.check_sta_bounds and not self.record_traces:
            raise ConfigError(
                "check_sta_bounds needs record_traces=True (the oracle "
                "verifies the recorded transitions)"
            )
        if self.default_input_slew <= 0.0:
            raise ConfigError("default_input_slew must be positive")
        if self.batch_jobs < 1:
            raise ConfigError("batch_jobs must be >= 1")
        if self.service_workers < 1:
            raise ConfigError("service_workers must be >= 1")
        if not isinstance(self.server_host, str) or not self.server_host:
            raise ConfigError("server_host must be a non-empty string")
        if not 0 <= self.server_port <= 65535:
            raise ConfigError("server_port must be in 0..65535")
        if self.server_max_netlists < 1:
            raise ConfigError("server_max_netlists must be >= 1")
        if self.server_queue_depth < 1:
            raise ConfigError("server_queue_depth must be >= 1")
        if self.campaign_settle < 0.0:
            raise ConfigError("campaign_settle must be non-negative")
        if self.campaign_detect_epsilon < 0.0:
            raise ConfigError("campaign_detect_epsilon must be non-negative")
        if self.collect_metrics not in (True, False):
            raise ConfigError("collect_metrics must be True or False")

    def with_mode(self, delay_mode: DelayMode) -> SimulationConfig:
        """Return a copy differing only in ``delay_mode``.

        This is how the Table 1 / Table 2 experiments build their matched
        DDM/CDM pairs.
        """
        return dataclasses.replace(self, delay_mode=delay_mode)


def ddm_config(**overrides) -> SimulationConfig:
    """Convenience constructor for a HALOTIS-DDM configuration."""
    return SimulationConfig(delay_mode=DelayMode.DDM, **overrides)


def cdm_config(**overrides) -> SimulationConfig:
    """Convenience constructor for a HALOTIS-CDM configuration."""
    return SimulationConfig(delay_mode=DelayMode.CDM, **overrides)
