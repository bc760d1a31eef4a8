"""Thread-safe metrics primitives and the Prometheus text exposition.

Three instrument types -- :class:`Counter`, :class:`Gauge` and
:class:`Histogram` -- live in a :class:`MetricsRegistry`.  All of them
support labels; a labelled instrument keeps one independent series per
label-value tuple, created lazily on first touch.  Histogram bucket
boundaries are **fixed at construction** (no adaptive resizing: two
workers must always expose merge-compatible buckets).

Every mutation takes the instrument's lock, so concurrent dispatch
threads never lose updates -- ``tests/obs/test_metrics.py`` hammers this
with a thread pool.  Reads (``snapshot``) take the same locks briefly per
instrument; a scrape never blocks the hot path for long.

Two render paths share one code point:

* ``registry.render()`` -- this worker's samples as Prometheus text
  exposition format (``GET /metrics`` on a single worker);
* :func:`render_exposition` over several ``(snapshot, extra_labels)``
  parts -- the cluster-aggregated view: the scraped worker gathers its
  peers' ``/internal/v1/metrics`` JSON snapshots and renders every
  shard's samples side by side under a ``shard`` label
  (no cross-worker summing: sums are wrong for gauges and hide skew
  for histograms; per-shard series keep scrapes honest).

Snapshots are plain JSON-safe structures (finite floats only -- the
implicit ``+Inf`` bucket is rendered from ``count``), so they travel the
internal HTTP hop through the canonical JSON encoder unchanged.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

#: Fixed latency buckets in seconds (sub-millisecond cache hits through
#: multi-second sweeps); the implicit ``+Inf`` bucket is always appended.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Fixed size buckets for entry/blast-radius counts (not seconds).
SIZE_BUCKETS: Tuple[float, ...] = (1, 2, 5, 10, 25, 50, 100, 250, 1000)


def _check_name(name: str) -> str:
    if not name or not all(
        ch.isalnum() or ch in "_:" for ch in name
    ) or name[0].isdigit():
        raise ValueError(f"invalid metric name {name!r}")
    return name


class Metric:
    """Base: one named instrument holding one series per label tuple."""

    kind = "untyped"

    def __init__(self, name: str, help: str, labels: Sequence[str] = ()) -> None:
        self.name = _check_name(name)
        self.help = help
        self.label_names: Tuple[str, ...] = tuple(labels)
        self._lock = threading.Lock()
        self._series: "OrderedDict[Tuple[str, ...], object]" = OrderedDict()

    def _key(self, labels: Mapping[str, object]) -> Tuple[str, ...]:
        if set(labels) != set(self.label_names):
            raise ValueError(
                f"metric {self.name} takes labels {list(self.label_names)}, "
                f"got {sorted(labels)}"
            )
        return tuple(str(labels[name]) for name in self.label_names)

    def _label_map(self, key: Tuple[str, ...]) -> Dict[str, str]:
        return dict(zip(self.label_names, key))

    def snapshot(self) -> Dict[str, object]:
        """JSON-safe description of this instrument and all its series."""
        with self._lock:
            samples = [
                self._sample(key, value) for key, value in self._series.items()
            ]
        return {
            "name": self.name,
            "type": self.kind,
            "help": self.help,
            "samples": samples,
        }

    def _sample(self, key: Tuple[str, ...], value: object) -> Dict[str, object]:
        raise NotImplementedError


class Counter(Metric):
    """A monotonically increasing count (per label series)."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        key = self._key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + amount

    def value(self, **labels: object) -> float:
        """Current value of one series (0.0 if never touched)."""
        key = self._key(labels)
        with self._lock:
            return float(self._series.get(key, 0.0))

    def total(self) -> float:
        """Sum over every series (all label combinations)."""
        with self._lock:
            return float(sum(self._series.values()))

    def _sample(self, key, value) -> Dict[str, object]:
        return {"labels": self._label_map(key), "value": value}


class Gauge(Metric):
    """A value that can go up and down (per label series)."""

    kind = "gauge"

    def set(self, value: float, **labels: object) -> None:
        key = self._key(labels)
        with self._lock:
            self._series[key] = float(value)

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        key = self._key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels: object) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels: object) -> float:
        key = self._key(labels)
        with self._lock:
            return float(self._series.get(key, 0.0))

    def _sample(self, key, value) -> Dict[str, object]:
        return {"labels": self._label_map(key), "value": value}


class _HistogramSeries:
    __slots__ = ("bucket_counts", "sum", "count")

    def __init__(self, buckets: int) -> None:
        self.bucket_counts = [0] * buckets
        self.sum = 0.0
        self.count = 0


class Histogram(Metric):
    """Observations binned into fixed cumulative buckets (per series)."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        labels: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, help, labels)
        bounds = tuple(float(bound) for bound in buckets)
        if not bounds:
            raise ValueError("a histogram needs at least one bucket boundary")
        if any(b != b or b in (float("inf"), float("-inf")) for b in bounds):
            raise ValueError("bucket boundaries must be finite (+Inf is implicit)")
        if any(a >= b for a, b in zip(bounds, bounds[1:])):
            raise ValueError("bucket boundaries must be strictly increasing")
        self.buckets = bounds

    def observe(self, value: float, **labels: object) -> None:
        key = self._key(labels)
        value = float(value)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = self._series[key] = _HistogramSeries(len(self.buckets))
            for index, bound in enumerate(self.buckets):
                if value <= bound:
                    series.bucket_counts[index] += 1
                    break
            series.sum += value
            series.count += 1

    def count(self, **labels: object) -> int:
        """Observations recorded in one series."""
        key = self._key(labels)
        with self._lock:
            series = self._series.get(key)
            return 0 if series is None else series.count

    def _sample(self, key, series) -> Dict[str, object]:
        cumulative: List[List[object]] = []
        running = 0
        for bound, count in zip(self.buckets, series.bucket_counts):
            running += count
            cumulative.append([bound, running])
        return {
            "labels": self._label_map(key),
            "buckets": cumulative,
            "sum": series.sum,
            "count": series.count,
        }


class MetricsRegistry:
    """Named instruments under one namespace, with get-or-create semantics.

    ``counter``/``gauge``/``histogram`` return the existing instrument
    when the name is already registered (validating that the type and
    label set agree), so independently-constructed components --
    the artifact registry, the response cache, the ingest pipeline --
    can share one worker-wide registry without coordination.
    """

    def __init__(self, namespace: str = "repro") -> None:
        self.namespace = namespace
        self._metrics: "OrderedDict[str, Metric]" = OrderedDict()
        self._lock = threading.Lock()

    def _full_name(self, name: str) -> str:
        return f"{self.namespace}_{name}" if self.namespace else name

    def _get_or_create(self, cls, name: str, help: str, labels, **kwargs) -> Metric:
        full = self._full_name(name)
        with self._lock:
            existing = self._metrics.get(full)
            if existing is not None:
                if not isinstance(existing, cls) or existing.label_names != tuple(labels):
                    raise ValueError(
                        f"metric {full} already registered as "
                        f"{existing.kind}{list(existing.label_names)}"
                    )
                return existing
            metric = cls(full, help, labels=labels, **kwargs)
            self._metrics[full] = metric
            return metric

    def counter(self, name: str, help: str, labels: Sequence[str] = ()) -> Counter:
        return self._get_or_create(Counter, name, help, labels)

    def gauge(self, name: str, help: str, labels: Sequence[str] = ()) -> Gauge:
        return self._get_or_create(Gauge, name, help, labels)

    def histogram(
        self,
        name: str,
        help: str,
        labels: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(Histogram, name, help, labels, buckets=buckets)

    def snapshot(self) -> List[Dict[str, object]]:
        """Every instrument's JSON-safe snapshot, in registration order."""
        with self._lock:
            metrics = list(self._metrics.values())
        return [metric.snapshot() for metric in metrics]

    def render(self, extra_labels: Optional[Mapping[str, str]] = None) -> str:
        """This registry alone, as Prometheus text exposition format."""
        return render_exposition([(self.snapshot(), dict(extra_labels or {}))])


# ---------------------------------------------------------------------------
# text exposition rendering
# ---------------------------------------------------------------------------


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _format_value(value: float) -> str:
    value = float(value)
    if value == float("inf"):
        return "+Inf"
    if value.is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _format_labels(labels: Mapping[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{name}="{_escape_label(str(value))}"' for name, value in labels.items()
    )
    return "{" + inner + "}"


def _sample_sort_key(sample: Mapping[str, object]) -> str:
    return _format_labels(sample.get("labels", {}) or {})


def render_exposition(parts: Sequence[Tuple[List[Dict[str, object]], Mapping[str, str]]]) -> str:
    """Prometheus text format over one or more ``(snapshot, extra_labels)``.

    Metrics with the same name across parts are merged under one
    ``HELP``/``TYPE`` header (first part wins the metadata) with each
    part's ``extra_labels`` -- typically ``{"shard": "<i>"}`` -- applied
    to its samples.  Sample order is deterministic: metrics keep first-
    seen order, samples sort by their rendered label string.
    """
    merged: "OrderedDict[str, Dict[str, object]]" = OrderedDict()
    for snapshot, extra in parts:
        extra = {name: str(value) for name, value in (extra or {}).items()}
        for metric in snapshot:
            entry = merged.setdefault(
                str(metric["name"]),
                {"type": metric["type"], "help": metric["help"], "samples": []},
            )
            for sample in metric["samples"]:
                labels = dict(sample.get("labels", {}) or {})
                labels.update(extra)
                merged_sample = dict(sample)
                merged_sample["labels"] = labels
                entry["samples"].append(merged_sample)
    lines: List[str] = []
    for name, entry in merged.items():
        lines.append(f"# HELP {name} {_escape_help(str(entry['help']))}")
        lines.append(f"# TYPE {name} {entry['type']}")
        samples = sorted(entry["samples"], key=_sample_sort_key)
        if entry["type"] == "histogram":
            for sample in samples:
                labels = sample["labels"]
                for bound, cumulative in sample["buckets"]:
                    bucket_labels = dict(labels)
                    bucket_labels["le"] = _format_value(bound)
                    lines.append(
                        f"{name}_bucket{_format_labels(bucket_labels)} "
                        f"{_format_value(cumulative)}"
                    )
                inf_labels = dict(labels)
                inf_labels["le"] = "+Inf"
                lines.append(
                    f"{name}_bucket{_format_labels(inf_labels)} "
                    f"{_format_value(sample['count'])}"
                )
                lines.append(
                    f"{name}_sum{_format_labels(labels)} "
                    f"{_format_value(sample['sum'])}"
                )
                lines.append(
                    f"{name}_count{_format_labels(labels)} "
                    f"{_format_value(sample['count'])}"
                )
        else:
            for sample in samples:
                lines.append(
                    f"{name}{_format_labels(sample['labels'])} "
                    f"{_format_value(sample['value'])}"
                )
    return "\n".join(lines) + "\n" if lines else ""
