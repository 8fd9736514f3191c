"""Dependency-free metrics registry with Prometheus text exposition.

The observability layer's accounting core: counters, gauges and
histograms — optionally labelled — registered process-wide and rendered
in the Prometheus text exposition format 0.0.4 by
:meth:`MetricsRegistry.render`.  This module is pure bookkeeping: no sockets, no threads of its own (every mutation is
guarded by a per-metric lock, so any tier may increment from any thread),
no third-party dependencies.  The HTTP endpoint that serves the rendered
text lives in :mod:`repro.obs.http`; the structured event stream in
:mod:`repro.obs.events`.

Naming is enforced, not advised: every metric registered here must match
:data:`METRIC_NAME_RE` — ``repro_<subsystem>_<what>_<unit>`` where the
unit suffix is one of ``total`` / ``bytes`` / ``seconds`` / ``ratio`` —
so the scrape surface stays greppable and the CI naming lint can never
drift from the code (it asserts the same regex).  By repo convention the
``_total`` suffix is also used for *gauges counting things* (live
connections, alive workers); see ``docs/observability.md``.

>>> registry = MetricsRegistry()
>>> jobs = registry.counter("repro_demo_jobs_total", "Jobs executed.")
>>> jobs.inc()
>>> jobs.inc(2)
>>> jobs.value()
3.0
>>> hits = registry.counter("repro_demo_cache_total", "Cache ops.",
...                         labels=("event",))
>>> hits.inc(event="hit")
>>> hits.value(event="hit"), hits.value(event="miss")
(1.0, 0.0)
>>> registry.counter("demo_bad_name")
Traceback (most recent call last):
    ...
ValueError: metric name 'demo_bad_name' does not match repro_[a-z_]+_(total|bytes|seconds|ratio)
>>> print(registry.render())  # doctest: +NORMALIZE_WHITESPACE
# HELP repro_demo_cache_total Cache ops.
# TYPE repro_demo_cache_total counter
repro_demo_cache_total{event="hit"} 1
# HELP repro_demo_jobs_total Jobs executed.
# TYPE repro_demo_jobs_total counter
repro_demo_jobs_total 3
<BLANKLINE>
"""

from __future__ import annotations

import re
import threading
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

__all__ = [
    "METRIC_NAME_RE",
    "DEFAULT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "CounterGroup",
    "REGISTRY",
    "parse_exposition",
]

#: Enforced at registration time and by the CI naming lint: metric names
#: are ``repro_``-prefixed snake case ending in a unit suffix.
METRIC_NAME_RE = re.compile(r"^repro_[a-z_]+_(total|bytes|seconds|ratio)$")

#: Prometheus label names: snake case, no leading digit.
LABEL_NAME_RE = re.compile(r"^[a-z_][a-z0-9_]*$")

#: Default histogram buckets (seconds-flavoured, like prometheus_client).
DEFAULT_BUCKETS = (0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0)

LabelKey = Tuple[str, ...]
Sample = Tuple[str, Dict[str, str], float]


def _format_value(value: float) -> str:
    """Render a sample value the way Prometheus expects (ints stay ints)."""
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


class _Metric:
    """Shared plumbing: name/help/label validation and sample locking."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "", labels: Iterable[str] = ()):
        if not METRIC_NAME_RE.match(name):
            raise ValueError(
                f"metric name {name!r} does not match "
                "repro_[a-z_]+_(total|bytes|seconds|ratio)"
            )
        label_names = tuple(labels)
        for label in label_names:
            if not LABEL_NAME_RE.match(label):
                raise ValueError(f"invalid label name {label!r} on metric {name!r}")
        self.name = name
        self.help = help
        self.labels = label_names
        self._lock = threading.Lock()

    def _key(self, labels: Dict[str, Any]) -> LabelKey:
        if set(labels) != set(self.labels):
            raise ValueError(
                f"metric {self.name!r} takes labels {self.labels}, got "
                f"{tuple(sorted(labels))}"
            )
        return tuple(str(labels[name]) for name in self.labels)

    def _labels_dict(self, key: LabelKey) -> Dict[str, str]:
        return dict(zip(self.labels, key))

    def samples(self) -> List[Sample]:  # pragma: no cover - overridden
        raise NotImplementedError


class Counter(_Metric):
    """Monotonically increasing sample set (one per label combination).

    >>> c = Counter("repro_demo_events_total", labels=("kind",))
    >>> c.inc(kind="split"); c.inc(3, kind="split")
    >>> c.value(kind="split")
    4.0
    >>> c.inc(-1, kind="split")
    Traceback (most recent call last):
        ...
    ValueError: counter repro_demo_events_total cannot decrease
    """

    kind = "counter"

    def __init__(self, name: str, help: str = "", labels: Iterable[str] = ()):
        super().__init__(name, help, labels)
        self._values: Dict[LabelKey, float] = {}

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: Any) -> float:
        key = self._key(labels)
        with self._lock:
            return self._values.get(key, 0.0)

    def samples(self) -> List[Sample]:
        with self._lock:
            items = sorted(self._values.items())
        if not items and not self.labels:
            items = [((), 0.0)]
        return [("", self._labels_dict(key), value) for key, value in items]


class Gauge(_Metric):
    """A value that can go both ways (live connections, cache bytes).

    Either driven imperatively (:meth:`set` / :meth:`inc` / :meth:`dec`)
    or read at scrape time from a callback (:meth:`set_function`).

    >>> g = Gauge("repro_demo_queue_total")
    >>> g.set(5); g.dec(); g.value()
    4.0
    >>> g.set_function(lambda: 7)
    >>> g.value()
    7.0
    """

    kind = "gauge"

    def __init__(self, name: str, help: str = "", labels: Iterable[str] = ()):
        super().__init__(name, help, labels)
        self._values: Dict[LabelKey, float] = {}
        self._functions: Dict[LabelKey, Callable[[], float]] = {}

    def set(self, value: float, **labels: Any) -> None:
        key = self._key(labels)
        with self._lock:
            self._values[key] = float(value)

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels: Any) -> None:
        self.inc(-amount, **labels)

    def set_function(self, fn: Callable[[], float], **labels: Any) -> None:
        """Read the gauge from ``fn`` at scrape time (overrides stored value)."""
        key = self._key(labels)
        with self._lock:
            self._functions[key] = fn

    def value(self, **labels: Any) -> float:
        key = self._key(labels)
        with self._lock:
            fn = self._functions.get(key)
            if fn is None:
                return self._values.get(key, 0.0)
        return float(fn())

    def samples(self) -> List[Sample]:
        with self._lock:
            keys = set(self._values) | set(self._functions)
            functions = dict(self._functions)
            values = dict(self._values)
        if not keys and not self.labels:
            keys = {()}
        samples = []
        for key in sorted(keys):
            fn = functions.get(key)
            value = float(fn()) if fn is not None else values.get(key, 0.0)
            samples.append(("", self._labels_dict(key), value))
        return samples


class Histogram(_Metric):
    """Cumulative-bucket histogram (Prometheus ``le`` convention).

    >>> h = Histogram("repro_demo_run_seconds", buckets=(0.1, 1.0))
    >>> h.observe(0.05); h.observe(0.5); h.observe(5.0)
    >>> h.count(), round(h.sum(), 2)
    (3, 5.55)
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        labels: Iterable[str] = (),
        buckets: Iterable[float] = DEFAULT_BUCKETS,
    ):
        super().__init__(name, help, labels)
        self.buckets = tuple(sorted(float(b) for b in buckets))
        if not self.buckets:
            raise ValueError(f"histogram {name!r} needs at least one bucket")
        # per label key: [per-bucket counts..., +Inf count], sum
        self._counts: Dict[LabelKey, List[int]] = {}
        self._sums: Dict[LabelKey, float] = {}

    def observe(self, value: float, **labels: Any) -> None:
        key = self._key(labels)
        with self._lock:
            counts = self._counts.setdefault(key, [0] * (len(self.buckets) + 1))
            for index, bound in enumerate(self.buckets):
                if value <= bound:
                    counts[index] += 1
                    break
            else:
                counts[-1] += 1
            self._sums[key] = self._sums.get(key, 0.0) + float(value)

    def count(self, **labels: Any) -> int:
        key = self._key(labels)
        with self._lock:
            return sum(self._counts.get(key, ()))

    def sum(self, **labels: Any) -> float:
        key = self._key(labels)
        with self._lock:
            return self._sums.get(key, 0.0)

    def samples(self) -> List[Sample]:
        with self._lock:
            counts = {key: list(value) for key, value in self._counts.items()}
            sums = dict(self._sums)
        if not counts and not self.labels:
            counts = {(): [0] * (len(self.buckets) + 1)}
            sums = {(): 0.0}
        samples: List[Sample] = []
        for key in sorted(counts):
            labels = self._labels_dict(key)
            cumulative = 0
            for bound, bucket_count in zip(self.buckets, counts[key]):
                cumulative += bucket_count
                bucket_labels = dict(labels)
                bucket_labels["le"] = _format_value(bound)
                samples.append(("_bucket", bucket_labels, float(cumulative)))
            cumulative += counts[key][-1]
            inf_labels = dict(labels)
            inf_labels["le"] = "+Inf"
            samples.append(("_bucket", inf_labels, float(cumulative)))
            samples.append(("_sum", labels, sums.get(key, 0.0)))
            samples.append(("_count", labels, float(cumulative)))
        return samples


class MetricsRegistry:
    """Get-or-create home of every metric in the process.

    Registration is idempotent: asking again for the same name with the
    same type and label set returns the existing metric (so any module
    can declare the metrics it touches without import-order coupling);
    asking with a *different* type or labels raises.

    >>> registry = MetricsRegistry()
    >>> a = registry.counter("repro_demo_ticks_total")
    >>> b = registry.counter("repro_demo_ticks_total")
    >>> a is b
    True
    >>> registry.gauge("repro_demo_ticks_total")
    Traceback (most recent call last):
        ...
    ValueError: metric 'repro_demo_ticks_total' already registered as counter, not gauge
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[str, _Metric] = {}

    def _get_or_create(self, cls: type, name: str, help: str,
                       labels: Iterable[str], **kwargs: Any) -> _Metric:
        label_names = tuple(labels)
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind}, not {cls.kind}"
                    )
                if existing.labels != label_names:
                    raise ValueError(
                        f"metric {name!r} already registered with labels "
                        f"{existing.labels}, not {label_names}"
                    )
                return existing
            metric = cls(name, help, label_names, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str = "", labels: Iterable[str] = ()) -> Counter:
        return self._get_or_create(Counter, name, help, labels)  # type: ignore[return-value]

    def gauge(self, name: str, help: str = "", labels: Iterable[str] = ()) -> Gauge:
        return self._get_or_create(Gauge, name, help, labels)  # type: ignore[return-value]

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Iterable[str] = (),
        buckets: Iterable[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(  # type: ignore[return-value]
            Histogram, name, help, labels, buckets=tuple(buckets)
        )

    def get(self, name: str) -> Optional[_Metric]:
        with self._lock:
            return self._metrics.get(name)

    def names(self) -> List[str]:
        """Registered metric names, sorted (the naming-lint surface)."""
        with self._lock:
            return sorted(self._metrics)

    def render(self) -> str:
        """The full registry in Prometheus text exposition format 0.0.4."""
        with self._lock:
            metrics = [self._metrics[name] for name in sorted(self._metrics)]
        lines: List[str] = []
        for metric in metrics:
            if metric.help:
                lines.append(f"# HELP {metric.name} {_escape_help(metric.help)}")
            lines.append(f"# TYPE {metric.name} {metric.kind}")
            for suffix, labels, value in metric.samples():
                if labels:
                    rendered = ",".join(
                        f'{key}="{_escape_label(str(val))}"'
                        for key, val in labels.items()
                    )
                    lines.append(
                        f"{metric.name}{suffix}{{{rendered}}} {_format_value(value)}"
                    )
                else:
                    lines.append(f"{metric.name}{suffix} {_format_value(value)}")
        return "\n".join(lines) + "\n"


#: The process-wide registry every tier registers into (and the
#: HTTP endpoint renders).  Tests needing isolation construct their own
#: :class:`MetricsRegistry`.
REGISTRY = MetricsRegistry()


# The label block is any mix of quoted strings and non-quote/non-brace
# characters, so a ``}`` *inside* a quoted label value (e.g. the
# gateway's ``route="GET /v1/sweeps/{id}"``) does not end the block; a
# stray ``}`` outside quotes still does.
_SAMPLE_LINE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r'(?:\{(?P<labels>(?:[^"}]|"(?:[^"\\]|\\.)*")*)\})?'
    r"\s+(?P<value>[^\s]+)$"
)
_LABEL_PAIR = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def parse_exposition(text: str) -> Dict[str, Dict[Tuple[Tuple[str, str], ...], float]]:
    """Parse (and thereby validate) Prometheus 0.0.4 exposition text.

    Returns ``{sample_name: {sorted-label-items: value}}`` — histogram
    series appear under their ``_bucket`` / ``_sum`` / ``_count`` sample
    names.  Raises :class:`ValueError` on any malformed line or on a
    sample that was never announced by a ``# TYPE`` comment, so the CI
    metrics-smoke step and the endpoint tests share one validator.

    >>> parsed = parse_exposition(
    ...     '# HELP repro_x_total x\\n# TYPE repro_x_total counter\\n'
    ...     'repro_x_total{op="run"} 3\\n')
    >>> parsed["repro_x_total"][(("op", "run"),)]
    3.0
    >>> parse_exposition(
    ...     '# HELP repro_r_total r\\n# TYPE repro_r_total counter\\n'
    ...     'repro_r_total{route="GET /v1/sweeps/{id}"} 1\\n'
    ... )["repro_r_total"][(("route", "GET /v1/sweeps/{id}"),)]
    1.0
    >>> parse_exposition("what even is this line\\n")
    Traceback (most recent call last):
        ...
    ValueError: exposition line 1: malformed sample 'what even is this line'
    """
    families: Dict[str, str] = {}
    samples: Dict[str, Dict[Tuple[Tuple[str, str], ...], float]] = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("# HELP ") or line.startswith("# TYPE "):
            parts = line.split(None, 3)
            if len(parts) < 4:
                raise ValueError(f"exposition line {line_no}: malformed comment {line!r}")
            if parts[1] == "TYPE":
                if parts[3] not in ("counter", "gauge", "histogram", "summary", "untyped"):
                    raise ValueError(
                        f"exposition line {line_no}: unknown type {parts[3]!r}"
                    )
                families[parts[2]] = parts[3]
            continue
        if line.startswith("#"):
            continue
        match = _SAMPLE_LINE.match(line)
        if not match:
            raise ValueError(f"exposition line {line_no}: malformed sample {line!r}")
        name = match.group("name")
        family = name
        for suffix in ("_bucket", "_sum", "_count"):
            base = name[: -len(suffix)] if name.endswith(suffix) else None
            if base and families.get(base) in ("histogram", "summary"):
                family = base
                break
        if family not in families:
            raise ValueError(f"exposition line {line_no}: sample {name!r} has no # TYPE")
        raw_value = match.group("value")
        try:
            value = float(raw_value)
        except ValueError:
            if raw_value not in ("+Inf", "-Inf", "NaN"):
                raise ValueError(
                    f"exposition line {line_no}: bad value {raw_value!r}"
                ) from None
            value = float(raw_value.replace("Inf", "inf").replace("NaN", "nan"))
        labels_text = match.group("labels") or ""
        labels = tuple(sorted(
            (key, val.replace('\\"', '"').replace("\\n", "\n").replace("\\\\", "\\"))
            for key, val in _LABEL_PAIR.findall(labels_text)
        ))
        samples.setdefault(name, {})[labels] = value
    return samples


class CounterGroup:
    """Instance-local, dict-like view over process-wide counters.

    The services and the coordinator historically kept plain ``dict``
    stats that start at zero per *instance*; Prometheus counters are
    process-lifetime.  A ``CounterGroup`` reconciles the two: increments
    go to the shared registry counters, while reads subtract the baseline
    snapshotted at construction — so a fresh service still reports zero
    ``busy_rejections`` even when an earlier service in the same process
    rejected requests, and ``/metrics`` still sees the monotonic truth.

    ``keys`` and ``__getitem__`` are what ``dict(stats)`` status
    snapshots need.

    >>> registry = MetricsRegistry()
    >>> counter = registry.counter("repro_demo_rejects_total")
    >>> counter.inc(5)                      # an earlier instance's traffic
    >>> group = CounterGroup({"rejects": counter})
    >>> group["rejects"]
    0
    >>> group.inc("rejects", 2)
    >>> group["rejects"], counter.value()
    (2, 7.0)
    >>> dict(group)
    {'rejects': 2}
    """

    def __init__(self, counters: Dict[str, Counter]):
        self._counters = dict(counters)
        self._baselines = {key: c.value() for key, c in self._counters.items()}

    def inc(self, key: str, amount: int = 1) -> None:
        self._counters[key].inc(amount)

    def __getitem__(self, key: str) -> int:
        return int(round(self._counters[key].value() - self._baselines[key]))

    def keys(self):
        return self._counters.keys()
