"""Metrics registry: labelled counters, gauges and histograms.

The registry is the export surface the ad-hoc per-object counters
(``device.h2d_bytes``, cache hit fields, ``JobMetrics`` totals) feed into.
Engine code never updates it directly: a fact stated on the bus
(:mod:`repro.obs.bus`) is derived into it through :data:`UPDATES`, and
plain attributes are gathered into gauges at snapshot time by
:func:`repro.obs.export.collect_cluster` — the Prometheus collector
pattern.  ``counter(...).inc()`` on a held metric object is the direct
update ``benchmarks/perf/probes.py`` times.

Metric identity is ``(name, sorted labels)``; the flat rendering is
``name{k=v,...}`` so snapshots diff cleanly across runs.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from typing import Any, Dict, List, Optional, Tuple

from repro.common.errors import ConfigError
from repro.common.stats import nearest_rank

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry", "UPDATES",
           "label_items", "metric_key", "parse_prometheus", "prometheus_name"]

LabelItems = Tuple[Tuple[str, str], ...]

#: The quantiles a histogram reports, by key.
QUANTILES = (("p50", 0.50), ("p95", 0.95), ("p99", 0.99), ("p999", 0.999))


def label_items(labels: Dict[str, Any]) -> LabelItems:
    """Canonical label identity: ``(key, str(value))`` pairs sorted by key.

    Every emission (``registry.counter(...)``, a monitor series)
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
    """Observed values, kept as observed; every statistic is derived from
    them when read.

    ``count`` / ``sum`` / ``min`` / ``max`` / ``mean`` / ``stddev`` are folds
    in observation order; percentiles are nearest rank
    (:func:`repro.common.stats.nearest_rank`), values that occurred.
    Buckets are cumulative upper bounds, Prometheus-style, counted at
    export; :data:`BOUNDS` span the microsecond-to-kilosecond range the
    simulation produces.
    """

    __slots__ = ("name", "labels", "values")

    kind = "histogram"

    BOUNDS = (1e-6, 1e-4, 1e-2, 1.0, 10.0, 100.0, 1000.0)

    def __init__(self, name: str, labels: LabelItems):
        self.name = name
        self.labels = labels
        self.values: List[float] = []

    def observe(self, value: float) -> None:
        self.values.append(value)

    def percentile(self, q: float) -> float:
        """The nearest-rank ``q``-quantile (``0 <= q <= 1``); 0.0 when
        empty."""
        return nearest_rank(sorted(self.values), q)

    def stats(self) -> Dict[str, Any]:
        """Count, sum, min, max, mean, population stddev and the
        :data:`QUANTILES` of the observations."""
        values = self.values
        if not values:
            return {"count": 0, "sum": 0.0}
        total = sumsq = 0.0
        for value in values:
            total += value
            sumsq += value * value
        n = len(values)
        mean = total / n
        var = sumsq / n - mean ** 2
        ordered = sorted(values)
        return {"count": n, "sum": total, "min": min(values),
                "max": max(values), "mean": mean,
                "stddev": var ** 0.5 if var > 0 else 0.0,
                **{key: nearest_rank(ordered, q) for key, q in QUANTILES}}

    def at_or_below(self) -> List[int]:
        """How many observations are at or below each of :data:`BOUNDS`."""
        ordered = sorted(self.values)
        return [bisect_right(ordered, bound) for bound in self.BOUNDS]

    def snapshot_value(self) -> Dict[str, Any]:
        stats = self.stats()
        if not self.values:
            return stats
        below = self.at_or_below()
        stats["buckets"] = {
            **{f"le_{b:g}": hi - lo for b, lo, hi
               in zip(self.BOUNDS, [0] + below, below)},
            "le_inf": len(self.values) - below[-1],
        }
        return stats


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

    def _get_or_create(self, cls, name: str, labels):
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
            metric = cls(name, labels)
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

    def histogram(self, name: str, **labels: Any) -> Histogram:
        return self._get_or_create(Histogram, name, labels)

    # -- introspection -----------------------------------------------------------
    def __len__(self) -> int:
        self._sync()
        return len(self._metrics)

    def metrics(self) -> List[Any]:
        """All registered metric objects, sorted by (name, labels)."""
        self._sync()
        return [self._metrics[k] for k in sorted(self._metrics)]

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
                    stats = m.stats()
                    for bound, below in zip(m.BOUNDS, m.at_or_below()):
                        lines.append(_prom_sample(
                            f"{pname}_bucket", m.labels, below,
                            extra=("le", f"{bound:g}")))
                    lines.append(_prom_sample(
                        f"{pname}_bucket", m.labels, stats["count"],
                        extra=("le", "+Inf")))
                    lines.append(_prom_sample(f"{pname}_sum", m.labels,
                                              stats["sum"]))
                    lines.append(_prom_sample(f"{pname}_count", m.labels,
                                              stats["count"]))
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
        return f"{name}{{{inner}}} {float(value)!r}"
    return f"{name} {float(value)!r}"


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
