"""Serving metrics: counters, fixed-bucket latency histograms, and
Prometheus text exposition.

Everything is in-process and cheap.  Counters are a ``Counter``;
latencies land in :class:`Histogram` objects with *fixed exponential
buckets* (0.5 ms doubling up to ~16 s) instead of the old bounded
reservoir -- observation is O(log buckets), the memory footprint is
constant regardless of traffic, and two histograms merge by adding
bucket counts, which is what real dashboards aggregate.  Per-stage
histograms (fed with a traced request's span timings by
``observe_request``) decompose a request the same way the trace spans
do (queue / flush / route / shard / kernel), and per-wrapper
histograms (the ``wrapper`` argument of ``observe_request``) break the
request latency down by wrapper version.

:meth:`ServeMetrics.snapshot` keeps the stable JSON shape ``GET
/metrics`` has always returned (percentiles are now bucket upper-bound
estimates; ``max_ms`` stays exact).  :meth:`ServeMetrics.prometheus`
renders the same state in the Prometheus text exposition format for
``GET /metrics?format=prometheus``, and :func:`parse_prometheus_text`
is the strict parser CI uses to validate that exposition round-trips.
"""

from __future__ import annotations

import math
import re
import threading
import time
from bisect import bisect_left
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple


def percentile(sorted_values: List[float], q: float) -> float:
    """The ``q``-quantile (0..1) of an ascending non-empty list.

    Nearest-rank definition: ``ceil(q * n)``-th smallest value, so the
    median of an odd-length series is its middle element.

    >>> percentile([1, 2, 3, 4, 100], 0.50)
    3
    >>> percentile([1, 2, 3, 4, 100], 0.95)
    100
    """
    if not sorted_values:
        raise ValueError("percentile of empty series")
    index = max(
        0, min(len(sorted_values) - 1, math.ceil(q * len(sorted_values)) - 1)
    )
    return sorted_values[index]


#: Histogram bucket upper bounds in seconds: 0.5 ms doubling to ~16 s.
#: Fixed and exponential, so histograms from different shards/processes
#: merge bucket-by-bucket and the relative error of any quantile
#: estimate is bounded by one doubling.
DEFAULT_BUCKETS: Tuple[float, ...] = tuple(0.0005 * 2**i for i in range(16))


class Histogram:
    """Fixed-bucket latency histogram (seconds in, milliseconds out).

    Observations are counted into the first bucket whose upper bound
    holds them (overflow goes to the implicit ``+Inf`` bucket); the
    exact sum and max ride along so ``mean_ms`` / ``max_ms`` stay
    exact while quantiles are upper-bound estimates.

    >>> h = Histogram()
    >>> for ms in (1, 2, 3, 4, 100):
    ...     h.observe(ms / 1000.0)
    >>> h.count, round(h.max * 1e3, 1)
    (5, 100.0)
    >>> h.quantile(0.50) <= h.quantile(0.95) <= 100.0
    True
    """

    __slots__ = ("bounds", "counts", "count", "total", "max")

    def __init__(self, bounds: Tuple[float, ...] = DEFAULT_BUCKETS):
        self.bounds = bounds
        #: counts[i] pairs with bounds[i]; counts[-1] is the +Inf bucket.
        self.counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.max = 0.0

    def observe(self, seconds: float) -> None:
        self.counts[bisect_left(self.bounds, seconds)] += 1
        self.count += 1
        self.total += seconds
        if seconds > self.max:
            self.max = seconds

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile in **milliseconds** (bucket upper
        bound, clamped to the exact max -- monotone in ``q``)."""
        if not self.count:
            return 0.0
        rank = max(1, math.ceil(q * self.count))
        seen = 0
        for index, bucket_count in enumerate(self.counts):
            seen += bucket_count
            if seen >= rank:
                if index < len(self.bounds):
                    return round(min(self.bounds[index], self.max) * 1e3, 3)
                break
        return round(self.max * 1e3, 3)

    def summary(self) -> Dict[str, float]:
        """The compact JSON view: count / p50 / p95 / mean / max (ms)."""
        out: Dict[str, float] = {"count": self.count}
        if self.count:
            out.update(
                p50_ms=self.quantile(0.50),
                p95_ms=self.quantile(0.95),
                max_ms=round(self.max * 1e3, 3),
                mean_ms=round(self.total / self.count * 1e3, 3),
            )
        return out

    def cumulative(self) -> List[Tuple[str, int]]:
        """Prometheus-style cumulative ``(le, count)`` pairs ending at
        ``+Inf`` (exposition wants cumulative counts, not per-bucket)."""
        out = []
        running = 0
        for bound, bucket_count in zip(self.bounds, self.counts):
            running += bucket_count
            out.append((repr(bound), running))
        out.append(("+Inf", self.count))
        return out


class ServeMetrics:
    """Counters + per-stage/per-wrapper latency histograms.

    ``clock`` must be a monotonic source (default ``time.monotonic``);
    it anchors ``uptime_s`` so wall-clock steps cannot skew it, and it
    is injectable for deterministic tests -- the same pattern as
    ``CircuitBreaker``.

    Examples
    --------
    >>> metrics = ServeMetrics()
    >>> metrics.incr("requests_total"); metrics.observe_batch(4)
    >>> for ms in (1, 2, 3, 4, 100):
    ...     metrics.observe_request(ms / 1000.0, "demo@v1", {})
    >>> snap = metrics.snapshot()
    >>> snap["counters"]["requests_total"], snap["batches"]["max_size"]
    (1, 4)
    >>> snap["latency"]["p50_ms"] <= snap["latency"]["p95_ms"]
    True
    >>> snap["wrappers"]["demo@v1"]["count"]
    5

    >>> now = [100.0]
    >>> frozen = ServeMetrics(clock=lambda: now[0])
    >>> now[0] += 2.5
    >>> frozen.snapshot()["uptime_s"]
    2.5
    """

    def __init__(self, clock: Callable[[], float] = time.monotonic):
        self._lock = threading.Lock()
        self._clock = clock
        self._counters: Counter = Counter()
        self._gauges: Dict[str, float] = {}
        self._latency = Histogram()
        #: Stage name -> histogram, mirroring the trace span stages.
        self._stages: Dict[str, Histogram] = {}
        #: Wrapper ref ("name@version") -> request-latency histogram.
        self._wrappers: Dict[str, Histogram] = {}
        self._batch_count = 0
        self._batch_documents = 0
        self._batch_max = 0
        #: Dirty-node histogram of warm (incremental) evaluations, bucketed
        #: by the fraction of the document the snapshot diff left dirty.
        self._dirty_hist: Counter = Counter()
        self._started = clock()

    def incr(self, name: str, count: int = 1) -> None:
        with self._lock:
            self._counters[name] += count

    def set_gauge(self, name: str, value: float) -> None:
        """Point-in-time values (breaker states, quarantine size, ...)."""
        with self._lock:
            self._gauges[name] = value

    def observe_dirty(self, fraction: float) -> None:
        """Record one warm evaluation's dirty fraction in the histogram.

        >>> metrics = ServeMetrics()
        >>> metrics.observe_dirty(0.0005); metrics.observe_dirty(0.3)
        >>> metrics.snapshot()["incremental"]["dirty_histogram"]
        {'<=0.1%': 1, '<=50%': 1}
        """
        if fraction <= 0.001:
            bucket = "<=0.1%"
        elif fraction <= 0.01:
            bucket = "<=1%"
        elif fraction <= 0.1:
            bucket = "<=10%"
        elif fraction <= 0.5:
            bucket = "<=50%"
        else:
            bucket = ">50%"
        with self._lock:
            self._dirty_hist[bucket] += 1

    def observe_batch(self, size: int) -> None:
        with self._lock:
            self._batch_count += 1
            self._batch_documents += size
            if size > self._batch_max:
                self._batch_max = size

    def observe_request(
        self,
        seconds: float,
        wrapper: Optional[str],
        stage_ms: Dict[str, float],
    ) -> None:
        """One request's latency + per-stage timings, one lock.

        Records the end-to-end latency (``wrapper`` adds it to that
        wrapper version's breakdown histogram) plus one stage-histogram
        observation per entry of ``stage_ms`` (milliseconds, as the span
        tree reports them; ``http.request`` is skipped -- it duplicates
        the latency observation), under one acquisition of the metrics
        lock: this runs on the server's event-loop thread for every
        timed request.  An untraced request passes no stages.

        >>> metrics = ServeMetrics()
        >>> metrics.observe_request(
        ...     0.004, None, {"http.request": 4.0, "shard.call": 2.5})
        >>> metrics.snapshot()["stages"]["shard.call"]["count"]
        1
        >>> "http.request" in metrics.snapshot()["stages"]
        False
        """
        with self._lock:
            self._latency.observe(seconds)
            if wrapper is not None:
                hist = self._wrappers.get(wrapper)
                if hist is None:
                    hist = self._wrappers[wrapper] = Histogram()
                hist.observe(seconds)
            stages = self._stages
            for stage, ms in stage_ms.items():
                if stage == "http.request":
                    continue
                hist = stages.get(stage)
                if hist is None:
                    hist = stages[stage] = Histogram()
                hist.observe(ms / 1e3)

    def snapshot(self) -> Dict:
        """JSON-serializable view of every metric (the /metrics body)."""
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            dirty_hist = dict(self._dirty_hist)
            latency = self._latency.summary()
            stages = {name: h.summary() for name, h in self._stages.items()}
            wrappers = {ref: h.summary() for ref, h in self._wrappers.items()}
            batches = {
                "count": self._batch_count,
                "documents": self._batch_documents,
                "max_size": self._batch_max,
                "mean_size": (
                    round(self._batch_documents / self._batch_count, 2)
                    if self._batch_count
                    else 0.0
                ),
            }
            uptime = self._clock() - self._started
        hits = counters.get("incremental_hits", 0)
        misses = counters.get("incremental_misses", 0)
        if hits or misses:
            gauges["incremental_reuse_fraction"] = round(
                hits / (hits + misses), 4
            )
        return {
            "counters": counters,
            "gauges": gauges,
            "batches": batches,
            "latency": latency,
            "stages": stages,
            "wrappers": wrappers,
            "incremental": {
                "hits": hits,
                "misses": misses,
                "dirty_histogram": dirty_hist,
            },
            "uptime_s": round(uptime, 3),
        }

    def prometheus(self, prefix: str = "repro") -> str:
        """Render every metric in the Prometheus text exposition format.

        Counters become ``<prefix>_<name>`` counters, gauges become
        gauges, and each latency histogram becomes a real Prometheus
        histogram (``_bucket{le=...}`` / ``_sum`` / ``_count``); stage
        and wrapper breakdowns share one metric family each, labeled by
        ``stage=`` / ``wrapper=``.  The output round-trips through
        :func:`parse_prometheus_text`.

        >>> metrics = ServeMetrics()
        >>> metrics.incr("requests_total", 3)
        >>> metrics.observe_request(0.004, None, {})
        >>> text = metrics.prometheus()
        >>> 'repro_requests_total 3' in text
        True
        >>> parsed = parse_prometheus_text(text)
        >>> parsed["types"]["repro_request_latency_seconds"]
        'histogram'
        """
        with self._lock:
            counters = sorted(self._counters.items())
            gauges = sorted(self._gauges.items())
            dirty = sorted(self._dirty_hist.items())
            latency = self._latency
            stages = sorted(self._stages.items())
            wrappers = sorted(self._wrappers.items())
            batch_count = self._batch_count
            batch_documents = self._batch_documents
            batch_max = self._batch_max
            uptime = self._clock() - self._started

            lines: List[str] = []

            def family(name: str, kind: str, help_text: str) -> None:
                lines.append(f"# HELP {name} {help_text}")
                lines.append(f"# TYPE {name} {kind}")

            def histogram_family(
                name: str, help_text: str, series: List[Tuple[str, Histogram]]
            ) -> None:
                """One histogram family; each (label_pair, hist) series
                shares it.  ``label_pair`` is '' or 'key="value"'."""
                family(name, "histogram", help_text)
                for label, hist in series:
                    sep = "," if label else ""
                    for le, cumulative in hist.cumulative():
                        lines.append(
                            f'{name}_bucket{{{label}{sep}le="{le}"}} {cumulative}'
                        )
                    suffix = f"{{{label}}}" if label else ""
                    lines.append(f"{name}_sum{suffix} {hist.total!r}")
                    lines.append(f"{name}_count{suffix} {hist.count}")

            for raw, value in counters:
                name = f"{prefix}_{_sanitize(raw)}"
                family(name, "counter", f"Serving counter {raw}.")
                lines.append(f"{name} {value}")
            for raw, value in gauges:
                name = f"{prefix}_{_sanitize(raw)}"
                family(name, "gauge", f"Serving gauge {raw}.")
                lines.append(f"{name} {value!r}")

            family(f"{prefix}_uptime_seconds", "gauge", "Monotonic process uptime.")
            lines.append(f"{prefix}_uptime_seconds {round(uptime, 3)!r}")
            family(f"{prefix}_batches_total", "counter", "Flushed micro-batches.")
            lines.append(f"{prefix}_batches_total {batch_count}")
            family(
                f"{prefix}_batch_documents_total",
                "counter",
                "Documents across all flushed batches.",
            )
            lines.append(f"{prefix}_batch_documents_total {batch_documents}")
            family(f"{prefix}_batch_max_size", "gauge", "Largest batch flushed.")
            lines.append(f"{prefix}_batch_max_size {batch_max}")

            if dirty:
                name = f"{prefix}_incremental_dirty_total"
                family(
                    name,
                    "counter",
                    "Warm evaluations by dirty-fraction bucket.",
                )
                for bucket, count in dirty:
                    lines.append(
                        f'{name}{{bucket="{_escape_label(bucket)}"}} {count}'
                    )

            histogram_family(
                f"{prefix}_request_latency_seconds",
                "End-to-end request latency.",
                [("", latency)],
            )
            if stages:
                histogram_family(
                    f"{prefix}_stage_latency_seconds",
                    "Per-stage latency, stage names matching trace spans.",
                    [
                        (f'stage="{_escape_label(stage)}"', hist)
                        for stage, hist in stages
                    ],
                )
            if wrappers:
                histogram_family(
                    f"{prefix}_wrapper_latency_seconds",
                    "Request latency by wrapper version.",
                    [
                        (f'wrapper="{_escape_label(ref)}"', hist)
                        for ref, hist in wrappers
                    ],
                )
        return "\n".join(lines) + "\n"


def _sanitize(name: str) -> str:
    """Coerce an internal counter name into a legal metric name."""
    cleaned = re.sub(r"[^a-zA-Z0-9_:]", "_", name)
    if not cleaned or not re.match(r"[a-zA-Z_:]", cleaned[0]):
        cleaned = f"_{cleaned}"
    return cleaned


def _escape_label(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r'\"').replace("\n", r"\n")


#: Exposition-format grammar (strict subset we emit and CI validates).
_METRIC_NAME = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")
_SAMPLE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^{}]*)\})?"
    r" (?P<value>\S+)"
    r"(?: (?P<timestamp>-?\d+))?$"
)
_LABEL_PAIR = re.compile(
    r'(?P<name>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:[^"\\]|\\.)*)"'
)
_TYPES = frozenset({"counter", "gauge", "histogram", "summary", "untyped"})


def parse_prometheus_text(text: str) -> Dict:
    """Strictly parse/validate Prometheus text exposition.

    Checks, line by line: metric and label name grammar, quoted+escaped
    label values, parseable sample values, ``# TYPE`` declared at most
    once per family and *before* its samples, histogram families ending
    with ``_sum``/``_count`` and every ``_bucket`` carrying an ``le``
    label, and a trailing newline.  Raises :class:`ValueError` with the
    offending line number on any violation; returns the parsed view::

        {"types": {family: type}, "help": {family: text},
         "samples": [(name, {label: value}, float_value)]}

    >>> parsed = parse_prometheus_text(
    ...     "# HELP up Is it up.\\n# TYPE up gauge\\nup 1\\n")
    >>> parsed["samples"]
    [('up', {}, 1.0)]
    >>> parse_prometheus_text("bad-name 1\\n")
    Traceback (most recent call last):
        ...
    ValueError: line 1: unparseable sample line: 'bad-name 1'
    >>> parse_prometheus_text("# TYPE h histogram\\nh_bucket{x=\\"1\\"} 1\\n")
    Traceback (most recent call last):
        ...
    ValueError: line 2: histogram bucket sample missing 'le' label
    """
    if text and not text.endswith("\n"):
        raise ValueError("exposition must end with a newline")
    types: Dict[str, str] = {}
    helps: Dict[str, str] = {}
    samples: List[Tuple[str, Dict[str, str], float]] = []
    seen_families: set = set()
    histogram_series: Dict[str, set] = {}

    for number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) < 3 or parts[1] not in ("HELP", "TYPE"):
                raise ValueError(f"line {number}: malformed comment: {line!r}")
            _, keyword, family = parts[:3]
            if not _METRIC_NAME.match(family):
                raise ValueError(
                    f"line {number}: invalid metric name {family!r}"
                )
            if keyword == "TYPE":
                kind = parts[3] if len(parts) > 3 else ""
                if kind not in _TYPES:
                    raise ValueError(
                        f"line {number}: invalid metric type {kind!r}"
                    )
                if family in types:
                    raise ValueError(
                        f"line {number}: duplicate TYPE for {family!r}"
                    )
                if family in seen_families:
                    raise ValueError(
                        f"line {number}: TYPE for {family!r} after its samples"
                    )
                types[family] = kind
            else:
                helps[family] = parts[3] if len(parts) > 3 else ""
            continue

        match = _SAMPLE.match(line)
        if match is None:
            raise ValueError(
                f"line {number}: unparseable sample line: {line!r}"
            )
        name = match.group("name")
        labels: Dict[str, str] = {}
        raw_labels = match.group("labels")
        if raw_labels is not None and raw_labels.strip():
            consumed = 0
            for pair in _LABEL_PAIR.finditer(raw_labels):
                if not _LABEL_NAME.match(pair.group("name")):
                    raise ValueError(
                        f"line {number}: invalid label name "
                        f"{pair.group('name')!r}"
                    )
                labels[pair.group("name")] = pair.group("value")
                consumed += len(pair.group(0))
            leftovers = re.sub(r"[,\s]", "", raw_labels)
            matched = "".join(
                pair.group(0) for pair in _LABEL_PAIR.finditer(raw_labels)
            )
            if len(leftovers) != len(re.sub(r"[,\s]", "", matched)):
                raise ValueError(
                    f"line {number}: malformed label set {{{raw_labels}}}"
                )
        try:
            value = float(match.group("value"))
        except ValueError:
            raise ValueError(
                f"line {number}: unparseable sample value "
                f"{match.group('value')!r}"
            ) from None

        family = name
        for suffix in ("_bucket", "_sum", "_count"):
            base = name[: -len(suffix)] if name.endswith(suffix) else None
            if base and types.get(base) == "histogram":
                family = base
                histogram_series.setdefault(base, set()).add(suffix)
                if suffix == "_bucket" and "le" not in labels:
                    raise ValueError(
                        f"line {number}: histogram bucket sample missing "
                        "'le' label"
                    )
                break
        seen_families.add(family)
        samples.append((name, labels, value))

    for family, suffixes in histogram_series.items():
        missing = {"_bucket", "_sum", "_count"} - suffixes
        if missing:
            raise ValueError(
                f"histogram {family!r} missing series: {sorted(missing)}"
            )
    return {"types": types, "help": helps, "samples": samples}
