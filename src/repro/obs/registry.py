"""The metrics core: counters, gauges, histograms, and their registry.

Dependency-free (stdlib only) on purpose — the observability layer must
import everywhere the engines do, including inside freshly spawned
service workers, and must never be the reason a deployment needs an
extra package.

Design constraints, in priority order:

1. **Hot-path safety.**  Nothing in this module is ever called per
   simulation *event*; the instrumented layers publish per *chunk* of
   runs, per *task* or per *request*.  Each update is one lock
   acquisition and a dict operation.  When a registry is disabled every
   update degrades to a single attribute check
   (``benchmarks/test_obs_overhead.py`` gates the end-to-end overhead
   at <= 5% on the compiled hot path).
2. **Thread safety.**  The server's event loop, each netlist's dispatch
   thread and the CLI all share the process-default registry; every
   metric guards its series map with a lock, and registry-level
   get-or-create is locked too.  Increments from
   :class:`~repro.core.service.SimulationService` dispatch threads are
   exact (``tests/obs/test_registry.py`` hammers this).
3. **Bounded cardinality.**  Labels are for *dimensions* (engine kind,
   op name, phase), never for unbounded identity (raw net names, client
   addresses).  A metric folds every label combination past
   ``max_series`` into a single reserved ``(overflow)`` series instead
   of growing without bound — the guard that makes it safe to label
   throughput by client-chosen netlist names.
4. **Mergeable deltas.**  Service workers run in their own processes;
   with every result message they ship :meth:`MetricsRegistry.drain_delta`
   — only the series that changed since their previous message — and
   the parent adds it in with :meth:`MetricsRegistry.fold_delta`, the
   one fold primitive (:meth:`MetricsRegistry.merge_snapshot` adapts a
   JSON snapshot onto it).  Counter and histogram folds are plain
   addition, so merging is associative and commutative — worker
   completion order cannot change the totals (property-tested).

The process-default registry (:func:`get_registry`) is what every layer
publishes to and what the server's ``metrics``/``stats`` ops expose.
"""

from __future__ import annotations

import operator
import threading
from bisect import bisect_left
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Type,
    TypeVar,
)

from ..errors import MetricsError

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
    "Declaration",
    "DeltaEntry",
]

#: Default histogram buckets, in seconds: spans ~50 µs engine runs to
#: multi-second batch requests (upper edges; +Inf is implicit).
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)

#: The reserved label value absorbing series past a metric's
#: ``max_series`` bound.  Parenthesised so it cannot collide with a
#: legitimate Prometheus-safe label value produced by this codebase.
OVERFLOW_LABEL = "(overflow)"

#: Per-metric default bound on distinct label-value combinations.
_DEFAULT_MAX_SERIES = 64

#: What a parent needs to create a metric it has never seen:
#: ``(type, help, label_names, buckets)``, buckets None unless a histogram.
Declaration = Tuple[str, str, Tuple[str, ...], Optional[Tuple[float, ...]]]

#: One metric's changed series: ``(name, declaration, series)``.  A series
#: is ``(label_values, value)`` for counters and gauges and
#: ``(label_values, bucket_counts, sum, count)`` for histograms.
DeltaEntry = Tuple[str, Declaration, Sequence[Tuple[Any, ...]]]


def _label_key(
    label_names: Tuple[str, ...], labels: Mapping[str, str]
) -> Tuple[str, ...]:
    """Normalise a labels mapping into the series key, strictly.

    Every declared label must be present and no undeclared label may
    appear — silently dropping either would corrupt the series space.
    """
    if len(labels) != len(label_names):
        raise MetricsError(
            "expected labels %r, got %r" % (label_names, sorted(labels))
        )
    try:
        return tuple(str(labels[name]) for name in label_names)
    except KeyError as missing:
        raise MetricsError(
            "missing label %s (declared: %r)" % (missing, label_names)
        ) from None


_M = TypeVar("_M", bound="_Metric")


class _Metric:
    """Shared machinery: series map, lock, cardinality guard."""

    #: Prometheus type string; subclasses override.
    type = "untyped"

    def __init__(
        self,
        name: str,
        help_text: str,
        label_names: Sequence[str] = (),
        registry: Optional[MetricsRegistry] = None,
        max_series: int = _DEFAULT_MAX_SERIES,
    ):
        self.name = name
        self.help = help_text
        self.label_names: Tuple[str, ...] = tuple(label_names)
        self.max_series = max_series
        self._registry = registry
        self._lock = threading.Lock()
        self._series: Dict[Tuple[str, ...], object] = {}
        #: label combinations folded into the overflow series (guard
        #: observability: a nonzero value means a label leaked identity).
        self.overflowed = 0
        #: shipped with every delta entry of this metric.
        self.declaration: Declaration = (
            self.type, help_text, self.label_names, None
        )

    @property
    def enabled(self) -> bool:
        registry = self._registry
        return registry is None or registry.enabled

    def _zero(self) -> object:
        return 0.0

    def _bucket(self, key: Tuple[str, ...]) -> object:
        """Fetch (or create) the series cell for ``key``; lock held."""
        cell = self._series.get(key)
        if cell is None:
            if len(self._series) >= self.max_series:
                self.overflowed += 1
                key = (OVERFLOW_LABEL,) * len(self.label_names)
                cell = self._series.get(key)
                if cell is None:
                    cell = self._series[key] = self._zero()
            else:
                cell = self._series[key] = self._zero()
        return cell

    def _key(self, labels: Mapping[str, str]) -> Tuple[str, ...]:
        return _label_key(self.label_names, labels)

    # -- inspection ----------------------------------------------------

    def series(self) -> Dict[Tuple[str, ...], object]:
        """Point-in-time copy of every series (label values -> value)."""
        with self._lock:
            return dict(self._series)

    def value(self, **labels: str) -> float:
        """Current scalar value of one series (0.0 when never touched)."""
        with self._lock:
            return float(self._series.get(self._key(labels), 0.0))  # type: ignore[arg-type]

    def snapshot_series(self) -> List[Dict[str, object]]:
        with self._lock:
            return [
                {"labels": list(key), "value": value}
                for key, value in sorted(self._series.items())
            ]

    def _clear(self) -> None:
        with self._lock:
            self._series.clear()

    # -- deltas ----------------------------------------------------------

    def _drain(self) -> Sequence[Tuple[Any, ...]]:
        """Take every series (delta form) and start from empty."""
        with self._lock:
            series, self._series = self._series, {}
        return tuple(series.items())

    def _fold(self, series: Iterable[Tuple[Any, ...]]) -> None:
        """Add delta-form series into this metric."""
        with self._lock:
            cells = self._series
            for key, value in series:
                if key not in cells and len(cells) >= self.max_series:
                    self.overflowed += 1
                    key = (OVERFLOW_LABEL,) * len(self.label_names)
                cells[key] = cells.get(key, 0.0) + value


class Counter(_Metric):
    """A monotonically increasing sum (Prometheus ``counter``)."""

    type = "counter"

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        if not self.enabled:
            return
        if amount < 0:
            raise MetricsError("counters only go up; inc(%r)" % amount)
        with self._lock:
            key = self._key(labels)
            self._bucket(key)
            # _bucket may have redirected to the overflow key; re-resolve
            # through the map so the add lands on the stored cell.
            if key not in self._series:
                key = (OVERFLOW_LABEL,) * len(self.label_names)
            self._series[key] = self._series[key] + amount  # type: ignore[operator]


class Gauge(_Metric):
    """A value that can go up and down (Prometheus ``gauge``).

    Worker-snapshot note: gauges merge by *addition* (a worker's gauge
    is treated as its share of a process-wide level, e.g. in-flight
    work).  Point-in-time gauges (uptime) belong on the parent only.
    """

    type = "gauge"

    def set(self, value: float, **labels: str) -> None:
        if not self.enabled:
            return
        with self._lock:
            key = self._key(labels)
            self._bucket(key)
            if key not in self._series:
                key = (OVERFLOW_LABEL,) * len(self.label_names)
            self._series[key] = float(value)

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        if not self.enabled:
            return
        with self._lock:
            key = self._key(labels)
            self._bucket(key)
            if key not in self._series:
                key = (OVERFLOW_LABEL,) * len(self.label_names)
            self._series[key] = self._series[key] + amount  # type: ignore[operator]

    def dec(self, amount: float = 1.0, **labels: str) -> None:
        self.inc(-amount, **labels)


class _HistCell:
    """One histogram series: per-bucket counts (non-cumulative), sum,
    count.  Rendered cumulatively by the exposition layer."""

    __slots__ = ("counts", "sum", "count")

    def __init__(self, n_buckets: int):
        self.counts = [0] * (n_buckets + 1)  # +1: the +Inf bucket
        self.sum = 0.0
        self.count = 0


class Histogram(_Metric):
    """A distribution over fixed buckets (Prometheus ``histogram``).

    ``buckets`` are the finite upper edges, strictly increasing; the
    implicit ``+Inf`` bucket always exists.  ``observe`` is O(log B) in
    the bucket count (bisect) under one lock.
    """

    type = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str,
        label_names: Sequence[str] = (),
        registry: Optional[MetricsRegistry] = None,
        max_series: int = _DEFAULT_MAX_SERIES,
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ):
        super().__init__(name, help_text, label_names, registry, max_series)
        edges = tuple(float(edge) for edge in buckets)
        if not edges:
            raise MetricsError("histogram needs at least one bucket edge")
        if any(b <= a for a, b in zip(edges, edges[1:])):
            raise MetricsError(
                "bucket edges must be strictly increasing: %r" % (edges,)
            )
        self.buckets: Tuple[float, ...] = edges
        self.declaration = (self.type, help_text, self.label_names, edges)

    def _zero(self) -> object:
        return _HistCell(len(self.buckets))

    def _drain(self) -> Sequence[Tuple[Any, ...]]:
        with self._lock:
            series, self._series = self._series, {}
        return tuple(
            (key, cell.counts, cell.sum, cell.count)  # type: ignore[attr-defined]
            for key, cell in series.items()
        )

    def _fold(self, series: Iterable[Tuple[Any, ...]]) -> None:
        with self._lock:
            for key, counts, total, count in series:
                cell = self._bucket(key)
                if len(counts) != len(cell.counts):  # type: ignore[attr-defined]
                    raise MetricsError(
                        "histogram %r bucket count mismatch" % self.name
                    )
                cell.counts = list(map(  # type: ignore[attr-defined]
                    operator.add, cell.counts, counts  # type: ignore[attr-defined]
                ))
                cell.sum += total  # type: ignore[attr-defined]
                cell.count += count  # type: ignore[attr-defined]

    def observe(self, value: float, **labels: str) -> None:
        if not self.enabled:
            return
        with self._lock:
            key = self._key(labels)
            cell = self._bucket(key)
            index = bisect_left(self.buckets, value)
            cell.counts[index] += 1  # type: ignore[attr-defined]
            cell.sum += value  # type: ignore[attr-defined]
            cell.count += 1  # type: ignore[attr-defined]

    def observe_many(self, values: Sequence[float], **labels: str) -> None:
        """:meth:`observe` each of ``values``, in order, under one lock
        and one label lookup: the same counts, buckets and sum."""
        if not self.enabled:
            return
        buckets = self.buckets
        with self._lock:
            cell = self._bucket(self._key(labels))
            counts, total = cell.counts, cell.sum  # type: ignore[attr-defined]
            for value in values:
                counts[bisect_left(buckets, value)] += 1
                total += value
            cell.sum = total  # type: ignore[attr-defined]
            cell.count += len(values)  # type: ignore[attr-defined]

    def snapshot_series(self) -> List[Dict[str, object]]:
        with self._lock:
            return [
                {
                    "labels": list(key),
                    "counts": list(cell.counts),  # type: ignore[attr-defined]
                    "sum": cell.sum,  # type: ignore[attr-defined]
                    "count": cell.count,  # type: ignore[attr-defined]
                }
                for key, cell in sorted(self._series.items())
            ]

    # -- convenience for tests / reporting -----------------------------

    def cumulative_counts(self, **labels: str) -> List[int]:
        """Counts as Prometheus exposes them: cumulative, +Inf last."""
        with self._lock:
            cell = self._series.get(self._key(labels))
            if cell is None:
                return [0] * (len(self.buckets) + 1)
            total, out = 0, []
            for count in cell.counts:  # type: ignore[attr-defined]
                total += count
                out.append(total)
            return out


_METRIC_CLASSES = {
    "counter": Counter,
    "gauge": Gauge,
    "histogram": Histogram,
}


class MetricsRegistry:
    """A named set of metrics with get-or-create semantics.

    One process-wide default instance (:func:`get_registry`) serves the
    whole stack; isolated instances exist for tests.  ``enabled=False``
    turns every metric owned by the registry into a cheap no-op (one
    attribute check per update) without touching call sites.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._metrics: Dict[str, _Metric] = {}
        self._lock = threading.Lock()

    # -- get-or-create -------------------------------------------------

    def _get_or_create(
        self,
        cls: Type[_M],
        name: str,
        help_text: str,
        label_names: Sequence[str],
        **kwargs: Any,
    ) -> _M:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls) or (
                    existing.label_names != tuple(label_names)
                ):
                    raise MetricsError(
                        "metric %r already registered as %s%r, requested "
                        "%s%r" % (
                            name, existing.type, existing.label_names,
                            cls.type, tuple(label_names),
                        )
                    )
                return existing
            metric = cls(name, help_text, label_names, self, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(
        self, name: str, help_text: str = "",
        label_names: Sequence[str] = (), max_series: int = _DEFAULT_MAX_SERIES,
    ) -> Counter:
        return self._get_or_create(
            Counter, name, help_text, label_names, max_series=max_series
        )

    def gauge(
        self, name: str, help_text: str = "",
        label_names: Sequence[str] = (), max_series: int = _DEFAULT_MAX_SERIES,
    ) -> Gauge:
        return self._get_or_create(
            Gauge, name, help_text, label_names, max_series=max_series
        )

    def histogram(
        self, name: str, help_text: str = "",
        label_names: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
        max_series: int = _DEFAULT_MAX_SERIES,
    ) -> Histogram:
        return self._get_or_create(
            Histogram, name, help_text, label_names,
            max_series=max_series, buckets=buckets,
        )

    # -- inspection ----------------------------------------------------

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def get(self, name: str) -> Optional[_Metric]:
        return self._metrics.get(name)

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._metrics)

    def metrics(self) -> List[_Metric]:
        with self._lock:
            return [self._metrics[name] for name in sorted(self._metrics)]

    # -- snapshots -----------------------------------------------------

    def snapshot(self, reset: bool = False) -> Dict[str, object]:
        """JSON-ready state of every metric.

        ``reset=True`` additionally zeroes every series after reading —
        the delta discipline service workers use so repeated shipments
        merge without double counting.  (Read-and-clear runs per metric
        under that metric's lock; concurrent updates land in either the
        shipped delta or the next one, never both, never neither.)
        """
        metrics: Dict[str, object] = {}
        for metric in self.metrics():
            with metric._lock:
                if isinstance(metric, Histogram):
                    series = [
                        {
                            "labels": list(key),
                            "counts": list(cell.counts),  # type: ignore[attr-defined]
                            "sum": cell.sum,  # type: ignore[attr-defined]
                            "count": cell.count,  # type: ignore[attr-defined]
                        }
                        for key, cell in sorted(metric._series.items())
                    ]
                else:
                    series = [
                        {"labels": list(key), "value": value}
                        for key, value in sorted(metric._series.items())
                    ]
                if reset:
                    metric._series.clear()
            entry: Dict[str, object] = {
                "type": metric.type,
                "help": metric.help,
                "label_names": list(metric.label_names),
                "series": series,
            }
            if isinstance(metric, Histogram):
                entry["buckets"] = list(metric.buckets)
            metrics[metric.name] = entry
        return {"schema": 1, "metrics": metrics}

    def merge_snapshot(self, snapshot: Mapping[str, object]) -> None:
        """Fold a :meth:`snapshot` (or ``snapshot(reset=True)`` delta)
        into this registry.

        Metrics unknown here are created from the snapshot's own
        declaration, so a parent needs no prior knowledge of what its
        workers measured.  Counters and gauges add; histograms add
        bucket-wise (edges must match).  Addition makes the merge
        associative and commutative — worker completion order cannot
        change any total.  An adapter over :meth:`fold_delta`.
        """
        metrics = snapshot.get("metrics")
        if not isinstance(metrics, Mapping):
            raise MetricsError("not a metrics snapshot: %r" % (snapshot,))
        self.fold_delta(_snapshot_delta(metrics))

    # -- deltas --------------------------------------------------------

    def drain_delta(self) -> List[DeltaEntry]:
        """Read and clear every series that changed since the last drain.

        The delta discipline service workers use: each result message
        carries only the metrics whose series moved, so repeated
        shipments fold without double counting and an idle metric costs
        nothing.  (The read swaps a metric's series map out under that
        metric's lock; concurrent updates land in either this delta or
        the next one, never both, never neither.)
        """
        with self._lock:
            metrics = list(self._metrics.values())
        return [
            (metric.name, metric.declaration, metric._drain())
            for metric in metrics
            if metric._series
        ]

    def fold_delta(self, delta: Iterable[DeltaEntry]) -> None:
        """Add a :meth:`drain_delta` into this registry.

        A metric unknown here is created from its entry's declaration;
        a known one must agree on type, labels and bucket edges.
        """
        for name, declaration, series in delta:
            self._resolve(name, declaration)._fold(series)

    def _resolve(self, name: str, declaration: Declaration) -> _Metric:
        """The metric ``declaration`` describes, created if unknown."""
        kind, help_text, label_names, buckets = declaration
        metric = self._metrics.get(name)
        if (
            metric is None or metric.type != kind
            or metric.label_names != label_names
        ):
            # Create it, or raise the registration clash.
            cls = _METRIC_CLASSES.get(kind)
            if cls is None:
                raise MetricsError(
                    "snapshot metric %r has unknown type %r" % (name, kind)
                )
            kwargs = {} if buckets is None else {"buckets": buckets}
            metric = self._get_or_create(
                cls, name, help_text, label_names, **kwargs
            )
        if buckets is not None and metric.buckets != buckets:  # type: ignore[attr-defined]
            raise MetricsError(
                "histogram %r bucket edges differ between snapshot "
                "and registry" % name
            )
        return metric

    def clear(self) -> None:
        """Zero every series (metric declarations survive)."""
        for metric in self.metrics():
            metric._clear()


def _snapshot_delta(metrics: Mapping[str, Any]) -> Iterator[DeltaEntry]:
    """The entries of a JSON snapshot's ``metrics`` map, in delta form.

    Each entry's series stay lazy, so a declaration is checked before
    any of its series is read.
    """
    for name in sorted(metrics):
        entry = metrics[name]
        kind = entry.get("type")
        histogram = kind == "histogram"
        declaration = (
            kind,
            str(entry.get("help", "")),
            tuple(entry.get("label_names", ())),
            tuple(entry.get("buckets", ())) if histogram else None,
        )
        items = entry.get("series", ())
        if histogram:
            series: Iterable[Tuple[Any, ...]] = (
                (tuple(str(value) for value in item["labels"]),
                 item["counts"], item["sum"], item["count"])
                for item in items
            )
        else:
            series = (
                (tuple(str(value) for value in item["labels"]), item["value"])
                for item in items
            )
        yield name, declaration, series  # type: ignore[misc]


#: The process-default registry every instrumented layer publishes to.
_DEFAULT = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry."""
    return _DEFAULT


def set_enabled(enabled: bool) -> bool:
    """Flip the default registry's master switch; returns the old value.

    Disabled means every update on default-registry metrics is one
    attribute check and a return — the "zero-cost when disabled"
    contract the overhead benchmark exercises both sides of.
    """
    previous = _DEFAULT.enabled
    _DEFAULT.enabled = enabled
    return previous


def enabled() -> bool:
    return _DEFAULT.enabled
