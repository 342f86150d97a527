"""Exception hierarchy for the repro library.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch library failures without masking programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ConfigError(ReproError, ValueError):
    """A configuration setting is out of range or names nothing known.

    Raised by :meth:`repro.config.SimulationConfig.validate`, by the
    kernels for an unknown inertial policy, and by
    :func:`repro.obs.log.configure_logging` for an unknown log level.
    It stays a ``ValueError`` so callers catching that keep working.
    """


class NetlistError(ReproError):
    """Structural problem while building or validating a netlist."""


class ConnectivityError(NetlistError):
    """A pin, net or gate is wired inconsistently (e.g. two drivers)."""


class UnknownCellError(NetlistError):
    """A gate references a cell name absent from the library."""


class LibraryError(ReproError):
    """A cell library is malformed or a lookup failed."""


class CharacterizationError(ReproError):
    """Parameter extraction on the analog substrate failed to converge."""


class SimulationError(ReproError):
    """The simulation kernel hit an unrecoverable condition."""


class WaveformError(SimulationError, ValueError):
    """A ramp transition was built or queried with impossible geometry.

    Raised by :class:`repro.core.transition.Transition` for a
    non-positive duration, a threshold fraction outside (0, 1) and a
    pulse of two same-direction ramps, and by the compiled kernel when
    it would record a non-positive duration.  It stays a ``ValueError``
    so callers catching that keep working.
    """


class ServiceError(SimulationError):
    """A persistent simulation service failed or was misused.

    Raised for lifecycle misuse (submitting to a closed
    :class:`repro.core.service.SimulationService`), for knob mismatches
    between a live service and a ``simulate_batch(..., service=...)``
    call, and when a stimulus crashes its worker process more times than
    the service's retry budget allows.
    """


class ServerError(ReproError):
    """A network simulation server reported (or caused) a failure.

    Raised client-side for error frames received from a
    :class:`repro.server.app.SimulationServer` (``kind`` carries the
    wire error kind — ``"busy"``, ``"unknown-netlist"``,
    ``"bad-frame"``, ... — so callers can branch on backpressure vs.
    hard failures) and for transport-level problems such as a dropped
    connection mid-request (``kind="connection"``).
    """

    def __init__(self, message: str, kind: str = "error"):
        super().__init__(message)
        self.kind = kind


class SimulationLimitError(SimulationError):
    """The event budget or wall-clock limit was exhausted.

    Usually indicates a zero-delay oscillation (combinational loop whose
    pulses are never degraded away).
    """


class InitializationError(SimulationError):
    """DC initialisation could not assign a consistent value to every net."""


class OracleError(SimulationError):
    """A simulation result violated its static timing envelope.

    Raised by :func:`repro.analysis.sta.verify_result` (and therefore by
    any run with ``SimulationConfig(check_sta_bounds=True)``) when an
    engine records a transition outside its net's static arrival window,
    a ramp duration outside the static slew interval, or glitch activity
    on a net the hazard pass proves glitch-free.  This always indicates
    a simulator (or analyzer) bug, never a property of the circuit.
    """


class FaultError(SimulationError):
    """A fault specification cannot be injected into the target circuit.

    Raised by :mod:`repro.faults` when a faultload references a net the
    netlist does not drive (primary inputs and constants have no gate to
    corrupt), when a gate's truth table is too wide to patch, or when a
    serialized faultload fails validation.
    """


class MetricsError(ReproError, ValueError):
    """A metric was misused, or a metrics snapshot or exposition is invalid.

    Raised by :mod:`repro.obs` for a negative counter increment, a
    metric re-registered with another type or label set, histogram
    bucket edges that differ between a delta and the registry, and text
    that does not parse as Prometheus exposition.  It stays a
    ``ValueError`` so callers catching that keep working.
    """


class LogicError(ReproError, ValueError):
    """A gate function was evaluated or tabulated with bad arguments.

    Raised by :mod:`repro.circuit.logic` for an arity mismatch, a
    non-binary logic value, and a malformed explicit truth table.  It
    stays a ``ValueError`` so callers catching that keep working.
    """


class StimulusError(ReproError):
    """A stimulus description is inconsistent with the circuit interface."""


class ParseError(ReproError):
    """A netlist or trace file could not be parsed."""

    def __init__(self, message: str, line_number: int | None = None):
        if line_number is not None:
            message = "line %d: %s" % (line_number, message)
        super().__init__(message)
        self.line_number = line_number


class AnalysisError(ReproError, ValueError):
    """A post-processing analysis was asked something impossible.

    It stays a ``ValueError`` so callers catching that keep working.
    """
