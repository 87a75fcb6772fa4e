"""Metrics registry: labelled counters, gauges and histograms.

The registry is the export surface the ad-hoc per-object counters
(``device.h2d_bytes``, cache hit fields, ``JobMetrics`` totals) feed into:
hot paths either increment a registry metric directly (cheap: one dict
lookup amortized by caching the returned object) or stay plain attributes
that :func:`repro.obs.export.collect_cluster` gathers into gauges at
snapshot time — the Prometheus collector pattern.

Metric identity is ``(name, sorted labels)``; the flat rendering is
``name{k=v,...}`` so snapshots diff cleanly across runs.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Tuple

from repro.common.errors import ConfigError

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry", "UPDATES",
           "label_items", "metric_key", "parse_prometheus", "prometheus_name"]

LabelItems = Tuple[Tuple[str, str], ...]


def label_items(labels: Dict[str, Any]) -> LabelItems:
    """Canonical label identity: ``(key, str(value))`` pairs sorted by key.

    Every emission (``registry.counter(...)``, ``monitor.count(...)``)
    resolves its series through here, almost always with no label or one:
    those need no sort.
    """
    if not labels:
        return ()
    if len(labels) == 1:
        [(k, v)] = labels.items()
        return ((k, str(v)),)
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def metric_key(name: str, labels: Dict[str, Any]) -> Tuple[str, LabelItems]:
    """Canonical identity of a metric: name plus sorted stringified labels."""
    return name, label_items(labels)


def render_key(name: str, labels: LabelItems) -> str:
    """``name{k=v,...}`` — the flat-snapshot spelling of a metric."""
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


class _Scalar:
    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelItems):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def snapshot_value(self) -> float:
        return self.value


class Counter(_Scalar):
    """A monotonically increasing total."""

    __slots__ = ()
    kind = "counter"

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ConfigError(
                f"counter {self.name} cannot decrease (inc {amount})")
        self.value += amount


class Gauge(_Scalar):
    """A point-in-time value (set, not accumulated)."""

    __slots__ = ()
    kind = "gauge"

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """Summary statistics of observed values (count/sum/min/max/buckets).

    Buckets are cumulative upper bounds, Prometheus-style; the defaults span
    the microsecond-to-kilosecond range the simulation produces.
    """

    __slots__ = ("name", "labels", "count", "total", "sumsq", "vmin",
                 "vmax", "bounds", "bucket_counts")

    kind = "histogram"

    DEFAULT_BOUNDS = (1e-6, 1e-4, 1e-2, 1.0, 10.0, 100.0, 1000.0)

    def __init__(self, name: str, labels: LabelItems,
                 bounds: Optional[Tuple[float, ...]] = None):
        self.name = name
        self.labels = labels
        self.count = 0
        self.total = 0.0
        self.sumsq = 0.0
        self.vmin = float("inf")
        self.vmax = float("-inf")
        self.bounds = tuple(bounds) if bounds else self.DEFAULT_BOUNDS
        self.bucket_counts = [0] * (len(self.bounds) + 1)

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        self.sumsq += value * value
        if value < self.vmin:
            self.vmin = value
        if value > self.vmax:
            self.vmax = value
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.bucket_counts[i] += 1
                return
        self.bucket_counts[-1] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    @property
    def stddev(self) -> float:
        """Population standard deviation of the observed values."""
        if not self.count:
            return 0.0
        var = self.sumsq / self.count - self.mean ** 2
        return var ** 0.5 if var > 0 else 0.0

    def percentile(self, q: float) -> float:
        """Estimate the ``q``-quantile (``0 <= q <= 1``) from the buckets.

        Linear interpolation inside the bucket that holds the target rank
        (the ``histogram_quantile`` estimator), clamped to the observed
        ``[min, max]`` so one-bucket histograms don't report bucket edges
        the data never reached.
        """
        if not 0.0 <= q <= 1.0:
            raise ConfigError(f"percentile q must be in [0, 1], got {q}")
        if not self.count:
            return 0.0
        rank = q * self.count
        cumulative = 0
        lower = self.vmin
        for bound, in_bucket in zip(self.bounds, self.bucket_counts):
            upper = bound
            if in_bucket and cumulative + in_bucket >= rank:
                frac = (rank - cumulative) / in_bucket
                value = lower + (upper - lower) * max(frac, 0.0)
                return min(max(value, self.vmin), self.vmax)
            cumulative += in_bucket
            lower = bound
        # Target rank lives in the overflow bucket: its only known upper
        # edge is the observed maximum.
        return self.vmax

    def snapshot_value(self) -> Dict[str, Any]:
        if not self.count:
            return {"count": 0, "sum": 0.0}
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.vmin,
            "max": self.vmax,
            "mean": self.mean,
            "stddev": self.stddev,
            "p50": self.percentile(0.50),
            "p95": self.percentile(0.95),
            "p99": self.percentile(0.99),
            "p999": self.percentile(0.999),
            "buckets": {
                **{f"le_{b:g}": c
                   for b, c in zip(self.bounds, self.bucket_counts)},
                "le_inf": self.bucket_counts[-1],
            },
        }


class _NullMetric:
    """Shared no-op instrument handed out by a disabled registry.

    Quacks like Counter, Gauge and Histogram so instrumentation call sites
    stay unconditional; nothing is ever registered or stored.
    """

    __slots__ = ()

    kind = "null"

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


_NULL_METRIC = _NullMetric()

#: kind -> (metric class, its update method): how the bus derives into it.
UPDATES = {"counter": (Counter, Counter.inc), "gauge": (Gauge, Gauge.set),
            "histogram": (Histogram, Histogram.observe)}


class MetricsRegistry:
    """Get-or-create registry of labelled metrics.

    ``counter``/``gauge``/``histogram`` return the live metric object so hot
    paths can hold it and skip the lookup.  Registering the same (name,
    labels) with a different kind is an error — one name, one meaning.

    A registry constructed with ``enabled=False`` hands out a shared no-op
    instrument and records nothing — the metrics half of the zero-cost
    guarantee for untraced runs.

    A bus's registry is a fold over its fact log: ``_fold`` (the bus's) is
    called before any read or direct update, so what was stated comes first.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._metrics: Dict[Tuple[str, LabelItems], Any] = {}
        self._fold = None

    def _sync(self) -> None:
        if self._fold is not None:
            self._fold()

    def _get_or_create(self, cls, name: str, labels, **kwargs: Any):
        """``labels`` is a keyword dict, or already-canonical label items."""
        if not self.enabled:
            return _NULL_METRIC
        if self._fold is not None:
            self._fold()
        if labels.__class__ is dict:
            labels = label_items(labels)
        key = (name, labels)
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls(name, labels, **kwargs)
            self._metrics[key] = metric
        elif not isinstance(metric, cls):
            raise ConfigError(
                f"metric {render_key(*key)} already registered as "
                f"{metric.kind}, requested {cls.kind}")
        return metric

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get_or_create(Counter, name, labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._get_or_create(Gauge, name, labels)

    def histogram(self, name: str,
                  bounds: Optional[Tuple[float, ...]] = None,
                  **labels: Any) -> Histogram:
        if bounds is not None:
            return self._get_or_create(Histogram, name, labels, bounds=bounds)
        return self._get_or_create(Histogram, name, labels)

    # -- introspection -----------------------------------------------------------
    def __len__(self) -> int:
        self._sync()
        return len(self._metrics)

    def metrics(self) -> List[Any]:
        """All registered metric objects, sorted by (name, labels)."""
        self._sync()
        return [self._metrics[k] for k in sorted(self._metrics)]

    def value(self, name: str, **labels: Any) -> Any:
        """Current value of one metric, or None if never registered."""
        self._sync()
        metric = self._metrics.get(metric_key(name, labels))
        return None if metric is None else metric.snapshot_value()

    def sum_values(self, name: str) -> float:
        """Sum of a counter/gauge family's values across all label sets."""
        self._sync()
        return sum(m.value for key, m in self._metrics.items()
                   if key[0] == name and not isinstance(m, Histogram))

    # -- export ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """Flat ``name{labels} -> value`` mapping (histograms -> dicts)."""
        return {render_key(m.name, m.labels): m.snapshot_value()
                for m in self.metrics()}

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    def render_prometheus(self) -> str:
        """Prometheus text exposition (version 0.0.4) of the registry.

        Metric names are sanitized (``.`` → ``_``); histograms emit the
        standard cumulative ``_bucket{le=...}`` / ``_sum`` / ``_count``
        triplet.  :func:`parse_prometheus` reads this format back — the
        round trip is asserted by ``tests/obs/test_metrics.py``.
        """
        by_name: Dict[str, List[Any]] = {}
        for m in self.metrics():
            by_name.setdefault(m.name, []).append(m)
        lines: List[str] = []
        for name in sorted(by_name):
            family = by_name[name]
            pname = prometheus_name(name)
            kind = family[0].kind
            lines.append(f"# TYPE {pname} {kind}")
            for m in family:
                if isinstance(m, Histogram):
                    cumulative = 0
                    for bound, in_bucket in zip(m.bounds, m.bucket_counts):
                        cumulative += in_bucket
                        lines.append(_prom_sample(
                            f"{pname}_bucket", m.labels, cumulative,
                            extra=("le", f"{bound:g}")))
                    lines.append(_prom_sample(
                        f"{pname}_bucket", m.labels, m.count,
                        extra=("le", "+Inf")))
                    lines.append(_prom_sample(f"{pname}_sum", m.labels,
                                              m.total))
                    lines.append(_prom_sample(f"{pname}_count", m.labels,
                                              m.count))
                else:
                    lines.append(_prom_sample(pname, m.labels, m.value))
        return "\n".join(lines) + ("\n" if lines else "")

    def render(self) -> str:
        """Human-readable snapshot, one metric per line."""
        lines = []
        for m in self.metrics():
            key = render_key(m.name, m.labels)
            if isinstance(m, Histogram):
                s = m.snapshot_value()
                lines.append(f"{key:58s} count={s['count']} "
                             f"sum={s.get('sum', 0.0):.6g} "
                             f"mean={s.get('mean', 0.0):.6g}")
            elif isinstance(m.value, float) and not m.value.is_integer():
                lines.append(f"{key:58s} {m.value:.6g}")
            else:
                lines.append(f"{key:58s} {int(m.value)}")
        return "\n".join(lines) if lines else "no metrics recorded"


# ---------------------------------------------------------------------------
# Prometheus text exposition helpers
# ---------------------------------------------------------------------------

def prometheus_name(name: str) -> str:
    """Sanitize a dotted metric name into a Prometheus-legal one."""
    out = "".join(c if c.isalnum() or c == "_" else "_" for c in name)
    if out and out[0].isdigit():
        out = "_" + out
    return out


def _escape_label(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r"\"").replace(
        "\n", r"\n")


def _prom_sample(name: str, labels: LabelItems, value: float,
                 extra: Optional[Tuple[str, str]] = None) -> str:
    items = list(labels)
    if extra is not None:
        items.append(extra)
    if items:
        inner = ",".join(f'{k}="{_escape_label(str(v))}"'
                         for k, v in items)
        return f"{name}{{{inner}}} {float(value):g}"
    return f"{name} {float(value):g}"


def parse_prometheus(text: str) -> Dict[Tuple[str, LabelItems], float]:
    """Parse text produced by :meth:`MetricsRegistry.render_prometheus`.

    Returns ``{(name, sorted_labels): value}``; histogram samples appear
    under their ``_bucket``/``_sum``/``_count`` spellings (with the
    ``le`` label intact on buckets).  A deliberately small parser for the
    subset the renderer emits — enough for the round-trip test and for
    diffing scrapes across runs.
    """
    out: Dict[Tuple[str, LabelItems], float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        body, _, value = line.rpartition(" ")
        if "{" in body:
            name, _, rest = body.partition("{")
            rest = rest.rstrip("}")
            labels = []
            for part in _split_label_pairs(rest):
                k, _, v = part.partition("=")
                v = v.strip('"').replace(r"\"", '"').replace(
                    r"\n", "\n").replace(r"\\", "\\")
                labels.append((k, v))
            key = (name, tuple(sorted(labels)))
        else:
            key = (body, ())
        out[key] = float(value)
    return out


def _split_label_pairs(rest: str) -> List[str]:
    """Split ``k="v",k2="v2"`` on commas outside quoted values."""
    parts, buf, in_quote, prev = [], [], False, ""
    for ch in rest:
        if ch == '"' and prev != "\\":
            in_quote = not in_quote
        if ch == "," and not in_quote:
            parts.append("".join(buf))
            buf = []
        else:
            buf.append(ch)
        prev = ch
    if buf:
        parts.append("".join(buf))
    return parts
