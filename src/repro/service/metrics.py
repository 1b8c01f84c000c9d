"""Service observability: counters, histograms, gauges, Prometheus text.

A deliberately small, dependency-free metrics core.  All instruments
are thread-safe; :meth:`MetricsRegistry.render` produces Prometheus
text exposition format 0.0.4 (``# HELP``/``# TYPE`` plus samples), the
format every Prometheus-compatible scraper understands.

Callback gauges bridge external state into the scrape: the service
registers the response-cache stats as callbacks, so ``/metrics``
always reflects live values without polling threads.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Callable, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS",
]

#: Latency buckets (seconds) spanning cached microsecond hits to
#: multi-second simulation-backed experiment renders.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)

LabelValues = Tuple[str, ...]


def _escape(value: str) -> str:
    return (value.replace("\\", "\\\\").replace("\n", "\\n")
            .replace('"', '\\"'))


def _format_labels(names: Sequence[str], values: LabelValues,
                   extra: str = "") -> str:
    pairs = [f'{name}="{_escape(value)}"'
             for name, value in zip(names, values)]
    if extra:
        pairs.append(extra)
    return "{" + ",".join(pairs) + "}" if pairs else ""


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


class Counter:
    """A monotonically increasing, optionally labelled counter."""

    kind = "counter"

    def __init__(self, name: str, help_text: str,
                 label_names: Sequence[str] = ()) -> None:
        self.name = name
        self.help_text = help_text
        self.label_names = tuple(label_names)
        self._lock = threading.Lock()
        self._values: Dict[LabelValues, float] = {}

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: str) -> float:
        with self._lock:
            return self._values.get(self._key(labels), 0.0)

    def _key(self, labels: Dict[str, str]) -> LabelValues:
        if set(labels) != set(self.label_names):
            raise ValueError(
                f"{self.name} expects labels {self.label_names}, "
                f"got {sorted(labels)}"
            )
        return tuple(str(labels[name]) for name in self.label_names)

    def samples(self) -> List[str]:
        with self._lock:
            items = sorted(self._values.items())
        return [
            f"{self.name}"
            f"{_format_labels(self.label_names, values)}"
            f" {_format_value(value)}"
            for values, value in items
        ]


class Gauge:
    """A settable value, or a live callback evaluated at scrape time.

    Optionally labelled: with ``label_names`` each label set carries
    its own value or callback (``set_callback``), and only label sets
    that have been touched are rendered.  Unlabelled gauges keep the
    original contract of always rendering exactly one sample
    (default ``0``).
    """

    kind = "gauge"

    def __init__(self, name: str, help_text: str,
                 label_names: Sequence[str] = (),
                 callback: Optional[Callable[[], float]] = None) -> None:
        self.name = name
        self.help_text = help_text
        self.label_names = tuple(label_names)
        if callback is not None and self.label_names:
            raise ValueError(
                f"{name}: a labelled gauge takes per-label callbacks "
                f"via set_callback(), not a constructor callback"
            )
        self._callback = callback
        self._lock = threading.Lock()
        self._value = 0.0
        self._values: Dict[LabelValues, float] = {}
        self._callbacks: Dict[LabelValues, Callable[[], float]] = {}

    def set(self, value: float, **labels: str) -> None:
        key = self._key(labels)
        with self._lock:
            if key is None:
                self._value = float(value)
            else:
                self._values[key] = float(value)

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        key = self._key(labels)
        with self._lock:
            if key is None:
                self._value += amount
            else:
                self._values[key] = self._values.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels: str) -> None:
        self.inc(-amount, **labels)

    def set_callback(self, callback: Callable[[], float],
                     **labels: str) -> None:
        """Bind a scrape-time callback for one label set."""
        key = self._key(labels)
        with self._lock:
            if key is None:
                self._callback = callback
            else:
                self._callbacks[key] = callback

    def value(self, **labels: str) -> float:
        key = self._key(labels)
        if key is None:
            if self._callback is not None:
                return float(self._callback())
            with self._lock:
                return self._value
        with self._lock:
            callback = self._callbacks.get(key)
            if callback is None:
                return self._values.get(key, 0.0)
        return float(callback())

    def _key(self, labels: Dict[str, str]):
        if not self.label_names:
            if labels:
                raise ValueError(
                    f"{self.name} takes no labels, got {sorted(labels)}"
                )
            return None
        if set(labels) != set(self.label_names):
            raise ValueError(
                f"{self.name} expects labels {self.label_names}, "
                f"got {sorted(labels)}"
            )
        return tuple(str(labels[name]) for name in self.label_names)

    def samples(self) -> List[str]:
        if not self.label_names:
            return [f"{self.name} {_format_value(self.value())}"]
        with self._lock:
            keys = sorted(set(self._values) | set(self._callbacks))
            callbacks = dict(self._callbacks)
            values = dict(self._values)
        lines: List[str] = []
        for key in keys:
            callback = callbacks.get(key)
            value = (float(callback()) if callback is not None
                     else values.get(key, 0.0))
            lines.append(
                f"{self.name}{_format_labels(self.label_names, key)}"
                f" {_format_value(value)}"
            )
        return lines


class Histogram:
    """A labelled histogram with cumulative buckets, sum and count."""

    kind = "histogram"

    def __init__(self, name: str, help_text: str,
                 label_names: Sequence[str] = (),
                 buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS) -> None:
        self.name = name
        self.help_text = help_text
        self.label_names = tuple(label_names)
        self.buckets = tuple(sorted(buckets))
        if not self.buckets:
            raise ValueError("histogram needs at least one bucket")
        self._lock = threading.Lock()
        # label values -> (per-bucket counts, sum, count)
        self._series: Dict[LabelValues, List] = {}

    def observe(self, value: float, **labels: str) -> None:
        key = tuple(str(labels[name]) for name in self.label_names)
        index = bisect_left(self.buckets, value)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = [[0] * len(self.buckets), 0.0, 0]
                self._series[key] = series
            if index < len(self.buckets):
                series[0][index] += 1
            series[1] += value
            series[2] += 1

    def snapshot(self, **labels: str):
        """(bucket_counts, total, count) for one label set (tests)."""
        key = tuple(str(labels[name]) for name in self.label_names)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                return [0] * len(self.buckets), 0.0, 0
            return list(series[0]), series[1], series[2]

    def quantile(self, q: float, **labels: str) -> float:
        """Bucket-resolution quantile estimate (e.g. ``q=0.99`` → p99).

        Returns the upper bound of the bucket containing the q-th
        observation; +inf when it fell above the last bucket, 0.0 when
        the series is empty.
        """
        counts, _, total = self.snapshot(**labels)
        if total == 0:
            return 0.0
        target = q * total
        cumulative = 0
        for bound, count in zip(self.buckets, counts):
            cumulative += count
            if cumulative >= target:
                return bound
        return float("inf")

    def samples(self) -> List[str]:
        with self._lock:
            series = {key: (list(value[0]), value[1], value[2])
                      for key, value in sorted(self._series.items())}
        lines: List[str] = []
        for values, (counts, total, count) in series.items():
            cumulative = 0
            for bound, bucket_count in zip(self.buckets, counts):
                cumulative += bucket_count
                lines.append(
                    f"{self.name}_bucket"
                    f"{_format_labels(self.label_names, values, self._le(bound))}"
                    f" {cumulative}"
                )
            lines.append(
                f"{self.name}_bucket"
                f"{_format_labels(self.label_names, values, self._le(float('inf')))}"
                f" {count}"
            )
            lines.append(
                f"{self.name}_sum"
                f"{_format_labels(self.label_names, values)}"
                f" {repr(total)}"
            )
            lines.append(
                f"{self.name}_count"
                f"{_format_labels(self.label_names, values)}"
                f" {count}"
            )
        return lines

    @staticmethod
    def _le(bound: float) -> str:
        return f'le="{_format_value(bound)}"'


class MetricsRegistry:
    """Orders instruments and renders the scrape page."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: List = []

    def register(self, instrument):
        with self._lock:
            if any(i.name == instrument.name for i in self._instruments):
                raise ValueError(f"duplicate metric {instrument.name!r}")
            self._instruments.append(instrument)
        return instrument

    def counter(self, name: str, help_text: str,
                label_names: Sequence[str] = ()) -> Counter:
        return self.register(Counter(name, help_text, label_names))

    def gauge(self, name: str, help_text: str,
              label_names: Sequence[str] = (),
              callback: Optional[Callable[[], float]] = None) -> Gauge:
        return self.register(Gauge(name, help_text, label_names, callback))

    def histogram(self, name: str, help_text: str,
                  label_names: Sequence[str] = (),
                  buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS
                  ) -> Histogram:
        return self.register(Histogram(name, help_text, label_names,
                                       buckets))

    def render(self) -> str:
        """Prometheus text exposition format 0.0.4."""
        with self._lock:
            instruments = list(self._instruments)
        lines: List[str] = []
        for instrument in instruments:
            lines.append(f"# HELP {instrument.name} {instrument.help_text}")
            lines.append(f"# TYPE {instrument.name} {instrument.kind}")
            lines.extend(instrument.samples())
        return "\n".join(lines) + "\n"
