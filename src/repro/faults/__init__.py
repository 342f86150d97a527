"""Fault-injection campaigns over the timing engines.

An SBFI-style dependability layer: deterministic faultload generation
(:mod:`~repro.faults.faultload`), in-place lowering injection with
guaranteed restoration (:mod:`~repro.faults.inject`) and a campaign
driver that fans mutants over every throughput layer and classifies
each mutant trace against a golden run
(:mod:`~repro.faults.campaign`).

The degradation delay model is what makes this layer more than an RTL
injector: an injected SET pulse's survival through the fanout cone is
decided by the same inertial/degradation physics as any other glitch,
so "masked-by-inertial" is a measurable outcome class, not a guess.
"""

from .faultload import (
    FaultKind,
    FaultSpec,
    Faultload,
    generate_faultload,
    mean_arc_delay,
)
from .inject import (
    FaultInjection,
    FaultedStimulus,
    lowering_fingerprint,
    run_faulted_stimulus,
)
from .campaign import (
    Classification,
    DependabilityReport,
    MutantOutcome,
    run_campaign,
)

# Imported here so a process that builds faulted stimuli has the cone
# runner loaded before it forks pool workers (run_chunk imports it on
# a worker's first faulted chunk).
from . import differential  # noqa: F401

__all__ = [
    "FaultKind",
    "FaultSpec",
    "Faultload",
    "generate_faultload",
    "mean_arc_delay",
    "FaultInjection",
    "FaultedStimulus",
    "lowering_fingerprint",
    "run_faulted_stimulus",
    "Classification",
    "DependabilityReport",
    "MutantOutcome",
    "run_campaign",
]
