"""Library workloads: ``crawl`` and ``recrawl`` (closed loop, one process).

``crawl`` wraps one page per :meth:`Wrapper.wrap_html_many` call, back to
back: 640-item catalog pages plus two kinds of hostile tag soup.
``recrawl`` re-extracts successive versions of deep forum pages through
:meth:`Wrapper.wrap_html_stateful`.  Every call gets a page that no
earlier call of the run saw; pages are generated between calls, outside
the timed region.

Each call is timed on its own, and the timed phase ends when the timed
calls add up to ``--seconds``.  One reference-task sample before each
call tracks the host's speed, and each call's time is scaled by the
speed around it (:class:`perfbench.common.HostSpeed`); the raw figures
are printed alongside.

Untraced runs produce the end-to-end metrics.  Traced runs alternate
untraced calls with calls through :class:`perfbench.layers.LayerProbe`
on the same pages, and report per-layer medians, the unaccounted
residual and the tracing overhead.
"""

from __future__ import annotations

import functools
import random
import sys
import time
from typing import Callable, Dict, List, Tuple

from repro.html import parse_html
from repro.workloads import CATALOG_WRAPPER, FORUM_WRAPPER, catalog_page

from perfbench.common import (
    BenchError,
    HostSpeed,
    log,
    median,
    output_shape,
    percentile,
    self_peak_rss_mb,
)
from perfbench.layers import LayerLog, LayerProbe, build_wrapper, fresh_setup_seconds
from perfbench.pages import HOSTILE_KINDS, forum_versions, hostile_page

CATALOG_PATTERNS = ("record", "name", "price")
FORUM_PATTERNS = ("thread", "comment", "body")

#: Set-up repetitions per run, each in a fresh interpreter (``setup_s``
#: is their median).
SETUP_REPEATS = 5

#: One crawl block: 14 catalog pages, 3 of each hostile kind, shuffled.
#: p50 falls inside the catalog pages (70%) and p90 inside the slowest
#: hostile kind (the top 15%, ``p_runs``).
CRAWL_BLOCK = ("catalog",) * 14 + ("stray_end",) * 3 + ("p_runs",) * 3

#: Recrawl: each document arrives cold, then as DEEP_VERSIONS versions
#: editing the deepest comment of every thread, then once with
#: SCATTERED edits.  Cold and scattered are 1/8 each, so p50 falls in
#: the deep-edit versions and p90 inside the scattered-edit version.
DEEP_VERSIONS = 6
SCATTERED = 64
VERSIONS = 1 + DEEP_VERSIONS + 1
FORUM_THREADS = 8
FORUM_DEPTH = 80

#: Every CHECK_EVERY-th page is compared with the reference path.  The
#: reference paths cost about twice a call, so checking every page would
#: make the untimed part of a run longer than the timed part.  Both
#: schedules repeat with a period (20 and 8) that shares no factor with
#: 3, so the checked pages cover every kind and version.
CHECK_EVERY = 3

#: Reference samples on each side of a call that set its speed factor.
SPEED_WINDOW = 8

#: Seed of the warm-up pages, which the timed phase never sees.
WARMUP_SEED = 999_999_937


def _crawl_page(seed: int, i: int) -> Tuple[str, str]:
    """Kind and HTML of the crawl's ``i``-th page."""
    block = list(CRAWL_BLOCK)
    random.Random(seed * 7919 + i // len(block)).shuffle(block)
    kind = block[i % len(block)]
    page_seed = seed * 1_000_003 + i
    if kind == "catalog":
        return kind, catalog_page(seed=page_seed, items=640)
    return kind, hostile_page(page_seed, kind)


def _closed_loop(seconds: float, step: Callable[[int], float], speed: HostSpeed) -> List[float]:
    """Call ``step(i)`` back to back until its timed parts add up to
    ``seconds``; one reference sample precedes each call.

    ``step`` returns the raw ms of its timed part; so does this, per call.
    """
    raw: List[float] = []
    busy_ms = 0.0
    while busy_ms < seconds * 1e3:
        speed.sample()
        ms = step(len(raw))
        raw.append(ms)
        busy_ms += ms
    return raw


def _end_to_end(raw: List[float], factors: List[float], nbytes: int, setup_s: float):
    """End-to-end metrics from the untraced calls, plus the raw figures."""
    scaled = [ms * f for ms, f in zip(raw, factors)]
    busy_s = sum(scaled) / 1e3
    metrics = {
        "setup_s": (setup_s, "s"),
        "throughput_mb_s": (nbytes / 1e6 / busy_s, "MB/s"),
        "latency_p50_ms": (percentile(scaled, 50), "ms"),
        "latency_p90_ms": (percentile(scaled, 90), "ms"),
        "latency_p99_ms": (percentile(scaled, 99), "ms"),
        # Closed loop, one caller: the call rate it sustains.
        "max_rate_rps": (len(scaled) / busy_s, "1/s"),
        "peak_rss_mb": (self_peak_rss_mb(), "MB"),
    }
    info = {
        "raw_latency_p50_ms": percentile(raw, 50),
        "raw_latency_p90_ms": percentile(raw, 90),
        "raw_throughput_mb_s": nbytes / 1e3 / sum(raw),
        "host_factor": median(factors),
    }
    return metrics, info


def _traced(layer_log: LayerLog, untraced_raw: List[float]) -> Dict:
    metrics = layer_log.metrics()
    metrics["trace.residual"] = (layer_log.residual(), "share")
    # Both medians are raw: the calls alternate, so they share host phases.
    metrics["trace.overhead_ms"] = (layer_log.traced_p50_ms() - median(untraced_raw), "ms")
    return metrics


def run_crawl(seed: int, seconds: int, trace: bool) -> Dict:
    sys.setrecursionlimit(max(sys.getrecursionlimit(), 20000))
    setup_s = fresh_setup_seconds("CATALOG_WRAPPER", CATALOG_PATTERNS, SETUP_REPEATS)
    wrapper = build_wrapper(CATALOG_WRAPPER, CATALOG_PATTERNS)
    page = functools.lru_cache(maxsize=1)(lambda i: _crawl_page(seed, i))

    @functools.lru_cache(maxsize=1)
    def expected(i: int) -> tuple:
        return output_shape(wrapper.wrap_many([parse_html(page(i)[1])])[0])

    kinds: Dict[str, int] = {}
    tally = {"bytes": 0, "checked": 0, "failed": 0}

    def check(i: int, out) -> None:
        """Outputs must equal the parse_html -> wrap_many Node path."""
        if i % CHECK_EVERY == 0:
            tally["checked"] += 1
            if output_shape(out) != expected(i):
                tally["failed"] += 1
                log(f"crawl: page {i} ({page(i)[0]}) differs from the Node path")

    def untraced(i: int) -> float:
        kind, html = page(i)
        start = time.perf_counter()
        out = wrapper.wrap_html_many([html])[0]
        elapsed = (time.perf_counter() - start) * 1e3
        check(i, out)
        kinds[kind] = kinds.get(kind, 0) + 1
        tally["bytes"] += len(html.encode("utf-8"))
        return elapsed

    # Warm-up: caches and lazy set-up, one page of each kind, not timed.
    wrapper.wrap_html_many([catalog_page(seed=WARMUP_SEED, items=640)])
    for kind in HOSTILE_KINDS:
        wrapper.wrap_html_many([hostile_page(WARMUP_SEED, kind)])

    speed = HostSpeed()
    if not trace:
        raw = _closed_loop(seconds, untraced, speed)
        metrics, info = _end_to_end(raw, speed.rolling(SPEED_WINDOW), tally["bytes"], setup_s)
    else:
        probe = LayerProbe(CATALOG_WRAPPER, CATALOG_PATTERNS)
        layer_log = LayerLog()

        def traced(i: int) -> float:
            html = page(i)[1]
            scan = probe.scan_ms(html)
            out, _, timings = probe.wrap(html)
            layer_log.record(scan, timings)
            check(i, out)
            return timings["total"]

        raw = _closed_loop(seconds, lambda k: traced(k // 2) if k % 2 else untraced(k // 2), speed)
        metrics, info = _traced(layer_log, raw[0::2]), {}

    calls = sum(kinds.values())
    info["kind_shares"] = {kind: n / calls for kind, n in sorted(kinds.items())}
    info["checked"] = tally["checked"]
    return {"attempted": len(raw), "failed": tally["failed"], "metrics": metrics, "info": info}


def run_recrawl(seed: int, seconds: int, trace: bool) -> Dict:
    setup_s = fresh_setup_seconds("FORUM_WRAPPER", FORUM_PATTERNS, SETUP_REPEATS)
    wrapper = build_wrapper(FORUM_WRAPPER, FORUM_PATTERNS)

    @functools.lru_cache(maxsize=1)
    def document(n: int) -> List[str]:
        return forum_versions(
            seed * 100_003 + n, FORUM_THREADS, FORUM_DEPTH, DEEP_VERSIONS, SCATTERED
        )

    def version(i: int) -> str:
        return document(i // VERSIONS)[i % VERSIONS]

    @functools.lru_cache(maxsize=1)
    def expected(i: int) -> dict:
        return wrapper.wrap_html_many([version(i)])[0].to_dict()

    tally = {"bytes": 0, "checked": 0, "failed": 0, "warm": 0}

    def check(i: int, out) -> None:
        """Warm outputs must equal cold wrap_html_many of the version."""
        if i % CHECK_EVERY == 0:
            tally["checked"] += 1
            if out.to_dict() != expected(i):
                tally["failed"] += 1
                log(f"recrawl: document {i // VERSIONS} version {i % VERSIONS} "
                    "differs from the cold output")

    state = None

    def untraced(i: int) -> float:
        nonlocal state
        html = version(i)
        if i % VERSIONS == 0:
            state = None  # the document arrives cold
        start = time.perf_counter()
        out, state, stats = wrapper.wrap_html_stateful(html, state)
        elapsed = (time.perf_counter() - start) * 1e3
        tally["warm"] += bool(stats["warm"])
        check(i, out)
        tally["bytes"] += len(html.encode("utf-8"))
        return elapsed

    # Warm-up on a document outside the timed sequence.
    warm_state = None
    for html in forum_versions(WARMUP_SEED, FORUM_THREADS, FORUM_DEPTH, 1, 0):
        _, warm_state, _ = wrapper.wrap_html_stateful(html, warm_state)

    speed = HostSpeed()
    if not trace:
        raw = _closed_loop(seconds, untraced, speed)
        metrics, info = _end_to_end(raw, speed.rolling(SPEED_WINDOW), tally["bytes"], setup_s)
    else:
        probe = LayerProbe(FORUM_WRAPPER, FORUM_PATTERNS)
        layer_log = LayerLog()
        traced_state = None

        def traced(i: int) -> float:
            nonlocal traced_state
            html = version(i)
            if i % VERSIONS == 0:
                traced_state = None
            scan = probe.scan_ms(html)
            out, traced_state, timings = probe.wrap(html, traced_state, warm=True)
            layer_log.record(scan, timings, warm_attempt=i % VERSIONS > 0)
            tally["warm"] += timings["info"] is not None
            check(i, out)
            return timings["total"]

        raw = _closed_loop(seconds, lambda k: traced(k // 2) if k % 2 else untraced(k // 2), speed)
        metrics, info = _traced(layer_log, raw[0::2]), {}

    if tally["warm"] == 0:
        raise BenchError("recrawl: no version ran warm; refusing to report")
    info["warm_versions"] = tally["warm"]
    info["checked"] = tally["checked"]
    return {"attempted": len(raw), "failed": tally["failed"], "metrics": metrics, "info": info}
