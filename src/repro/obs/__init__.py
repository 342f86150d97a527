"""Observability: metrics registry, Prometheus exposition, timers, logs.

See ``docs/observability.md`` for the metric catalogue and the rules of
engagement (per-run publication, bounded label cardinality, snapshot
merging from service workers).
"""

from .log import JsonLogFormatter, configure_logging, get_logger
from .prometheus import parse_text, render, render_snapshot
from .registry import (
    DEFAULT_LATENCY_BUCKETS,
    OVERFLOW_LABEL,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    enabled,
    get_registry,
    set_enabled,
)
from .timing import PhaseTimer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS",
    "OVERFLOW_LABEL",
    "get_registry",
    "set_enabled",
    "enabled",
    "render",
    "render_snapshot",
    "parse_text",
    "PhaseTimer",
    "JsonLogFormatter",
    "configure_logging",
    "get_logger",
]
