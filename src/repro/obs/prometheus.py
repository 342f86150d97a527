"""Prometheus text exposition for :mod:`repro.obs.registry` snapshots.

Two halves:

* :func:`render` / :func:`render_snapshot` — produce the text format
  (version 0.0.4) the server's ``metrics`` op returns and any Prometheus
  scraper ingests: ``# HELP`` / ``# TYPE`` headers, escaped label
  values, cumulative ``_bucket{le=...}`` series plus ``_sum`` and
  ``_count`` for histograms.
* :func:`parse_text` — a deliberately minimal parser used by the test
  suite and the CI smoke job to validate what a live server serves.  It
  understands exactly what :func:`render` emits (and what any conforming
  exporter emits for counters/gauges/histograms); it is not a general
  OpenMetrics parser.

Everything here works on *snapshots* (plain dicts), not live registries,
so rendering never holds metric locks and remote snapshots (shipped from
service workers) render identically to local ones.
"""

from __future__ import annotations

import math
import re
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Tuple

from ..errors import MetricsError

if TYPE_CHECKING:
    from .registry import MetricsRegistry

__all__ = ["render", "render_snapshot", "parse_text"]


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label_value(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace("\n", "\\n").replace('"', '\\"')
    )


def _format_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    as_float = float(value)
    if as_float == int(as_float) and abs(as_float) < 1e15:
        return str(int(as_float))
    return repr(as_float)


def _format_labels(names: List[str], values: List[str]) -> str:
    if not names:
        return ""
    parts = [
        '%s="%s"' % (name, _escape_label_value(str(value)))
        for name, value in zip(names, values)
    ]
    return "{" + ",".join(parts) + "}"


def _render_metric(name: str, entry: Mapping[str, object]) -> List[str]:
    kind = entry["type"]
    label_names = list(entry.get("label_names", ()))
    lines = []
    help_text = str(entry.get("help", "")).strip()
    if help_text:
        lines.append("# HELP %s %s" % (name, _escape_help(help_text)))
    lines.append("# TYPE %s %s" % (name, kind))
    if kind == "histogram":
        edges = [float(edge) for edge in entry.get("buckets", ())]
        for item in entry["series"]:
            values = [str(value) for value in item["labels"]]
            cumulative = 0
            for edge, count in zip(
                edges + [math.inf], item["counts"]
            ):
                cumulative += count
                bucket_labels = _format_labels(
                    label_names + ["le"],
                    values + [_format_value(edge)],
                )
                lines.append(
                    "%s_bucket%s %d" % (name, bucket_labels, cumulative)
                )
            plain = _format_labels(label_names, values)
            lines.append(
                "%s_sum%s %s" % (name, plain, _format_value(item["sum"]))
            )
            lines.append("%s_count%s %d" % (name, plain, item["count"]))
    else:
        for item in entry["series"]:
            values = [str(value) for value in item["labels"]]
            lines.append(
                "%s%s %s" % (
                    name,
                    _format_labels(label_names, values),
                    _format_value(item["value"]),
                )
            )
    return lines


def render_snapshot(snapshot: Mapping[str, object]) -> str:
    """Render a :meth:`MetricsRegistry.snapshot` dict to exposition text."""
    metrics = snapshot.get("metrics")
    if not isinstance(metrics, Mapping):
        raise MetricsError("not a metrics snapshot: missing 'metrics' map")
    lines: List[str] = []
    for name in sorted(metrics):
        lines.extend(_render_metric(name, metrics[name]))
    return "\n".join(lines) + ("\n" if lines else "")


def render(registry: Optional[MetricsRegistry] = None) -> str:
    """Render a registry (default: the process-default one)."""
    from .registry import get_registry

    if registry is None:
        registry = get_registry()
    return render_snapshot(registry.snapshot())


# -- minimal parser (tests + CI smoke validation) ----------------------

_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r"\s+(?P<value>\S+)\s*$"
)
_LABEL_RE = re.compile(
    r'\s*(?P<name>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:\\.|[^"\\])*)"\s*(?:,|$)'
)


def _unescape_label_value(raw: str) -> str:
    return (
        raw.replace('\\"', '"').replace("\\n", "\n").replace("\\\\", "\\")
    )


def _parse_labels(raw: str) -> Dict[str, str]:
    labels: Dict[str, str] = {}
    position = 0
    while position < len(raw):
        match = _LABEL_RE.match(raw, position)
        if match is None:
            raise MetricsError("malformed label set: {%s}" % raw)
        labels[match.group("name")] = _unescape_label_value(
            match.group("value")
        )
        position = match.end()
    return labels


def _parse_value(raw: str) -> float:
    if raw == "+Inf":
        return math.inf
    if raw == "-Inf":
        return -math.inf
    return float(raw)


def parse_text(
    text: str,
) -> Dict[str, Dict[str, object]]:
    """Parse exposition text into ``{metric_name: {...}}``.

    Each entry carries ``type`` (from ``# TYPE``, or ``"untyped"``),
    ``help`` and ``samples`` — a list of ``(sample_name, labels, value)``
    tuples where histogram ``_bucket``/``_sum``/``_count`` samples are
    grouped under the base metric name.  Raises :class:`MetricsError` (a
    ``ValueError``) on any line it cannot understand; the CI smoke job
    leans on that strictness.
    """
    metrics: Dict[str, Dict[str, object]] = {}

    def entry(name: str) -> Dict[str, object]:
        return metrics.setdefault(
            name, {"type": "untyped", "help": "", "samples": []}
        )

    declared_histograms = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("# HELP "):
            _, _, rest = stripped.partition("# HELP ")
            name, _, help_text = rest.partition(" ")
            entry(name)["help"] = help_text
            continue
        if stripped.startswith("# TYPE "):
            _, _, rest = stripped.partition("# TYPE ")
            name, _, kind = rest.partition(" ")
            kind = kind.strip()
            if kind not in ("counter", "gauge", "histogram", "untyped",
                            "summary"):
                raise MetricsError(
                    "line %d: unknown metric type %r" % (lineno, kind)
                )
            entry(name)["type"] = kind
            if kind == "histogram":
                declared_histograms.add(name)
            continue
        if stripped.startswith("#"):
            continue  # comment
        match = _SAMPLE_RE.match(stripped)
        if match is None:
            raise MetricsError("line %d: malformed sample: %r" % (lineno, line))
        sample_name = match.group("name")
        labels = _parse_labels(match.group("labels") or "")
        value = _parse_value(match.group("value"))
        base = sample_name
        for suffix in ("_bucket", "_sum", "_count"):
            if sample_name.endswith(suffix):
                candidate = sample_name[: -len(suffix)]
                if candidate in declared_histograms:
                    base = candidate
                    break
        samples = entry(base)["samples"]
        samples.append((sample_name, labels, value))  # type: ignore[union-attr]
    _validate_histograms(metrics)
    return metrics


def _validate_histograms(metrics: Mapping[str, Mapping[str, object]]) -> None:
    """Check histogram internal consistency: cumulative buckets ending at
    ``_count``, and a ``+Inf`` bucket per series."""
    for name, entry in metrics.items():
        if entry["type"] != "histogram":
            continue
        by_series: Dict[Tuple[Tuple[str, str], ...], Dict[str, object]] = {}
        for sample_name, labels, value in entry["samples"]:  # type: ignore[union-attr]
            plain = tuple(
                sorted(
                    (key, val) for key, val in labels.items() if key != "le"
                )
            )
            slot = by_series.setdefault(
                plain, {"buckets": [], "sum": None, "count": None}
            )
            if sample_name == name + "_bucket":
                slot["buckets"].append(  # type: ignore[union-attr]
                    (_parse_value(labels["le"]), value)
                )
            elif sample_name == name + "_sum":
                slot["sum"] = value
            elif sample_name == name + "_count":
                slot["count"] = value
        for series_key, slot in by_series.items():
            buckets = sorted(slot["buckets"])  # type: ignore[arg-type]
            if not buckets or buckets[-1][0] != math.inf:
                raise MetricsError(
                    "histogram %s%r lacks a +Inf bucket" % (name, series_key)
                )
            last = -1.0
            for _, cumulative in buckets:
                if cumulative < last:
                    raise MetricsError(
                        "histogram %s%r buckets are not cumulative"
                        % (name, series_key)
                    )
                last = cumulative
            if slot["count"] is not None and buckets[-1][1] != slot["count"]:
                raise MetricsError(
                    "histogram %s%r +Inf bucket != _count"
                    % (name, series_key)
                )
