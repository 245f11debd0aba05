"""Serving workloads: ``serve`` and ``serve_cluster`` (open loop over HTTP).

The server runs as its own process, in its production shape: tracing
on, cache on, and either one local process shard (``serve``) or a router
in front of loopback shard daemons (``serve_cluster``, with a
deterministic low-rate ``drop_conn_every`` fault plan so the
reconnect-and-retry path runs on every run).

Load comes from this one process over at most ``nproc`` keep-alive
connections.  Requests are sent on a fixed schedule (open loop) and
each is timed from when it was *due*, so a stall also charges the
requests queued behind it.  How late the generator itself woke up is
reported as the generator lag; a run whose generator fell behind is
refused.

Untraced runs: a main phase at a fixed rate gives the latency metrics;
then a ladder of offered rates gives ``max_rate_rps``, the highest rate
whose p99 stays within :data:`LIMIT_MS` without a growing backlog.
Figures here are raw: the reference task that scales the library
workloads' timings (:class:`perfbench.common.HostSpeed`) runs in this
client process, and its speed was measured to move independently of the
server processes' speed.  Traced runs repeat the main phase, then read the server's counters and
traces and replay a sample of the traffic in-process through each layer's
public functions.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import pickle
import re
import select
import signal
import subprocess
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.serve import HashRing, MicroBatcher, ResultCache, ServeMetrics, content_hash
from repro.serve import ShardExecutor, WrapperRegistry
from repro.serve.registry import build_wrapper
from repro.serve.transport import RemoteShardExecutor, decode_payload, encode_frame, read_frame
from repro.workloads import CATALOG_WRAPPER, FORUM_WRAPPER, catalog_page

from perfbench.common import (
    ROOT,
    SRC,
    BenchError,
    log,
    median,
    percentile,
    tree_peak_rss_mb,
)
from perfbench.layers import LayerLog, LayerProbe
from perfbench.pages import edit_deepest, forum_versions

WRAPPERS = {
    "catalog": (CATALOG_WRAPPER, ("record", "name", "price")),
    "forum": (FORUM_WRAPPER, ("thread", "comment", "body")),
}

#: Offered rate of the main phase, requests per second.  The stacks
#: sustain ~120-150 rps on a 2-core host, and ~80 when the host runs
#: slow; staying far below both keeps queueing from amplifying host noise.
RATE = 30.0
#: ``max_rate_rps``: offered rates double from LADDER_START until a rung
#: fails, then BISECT_STEPS geometric bisections between the last rate
#: that passed and the first that failed narrow it to within a factor
#: 2 ** (1 / 2 ** BISECT_STEPS) (9%), finer than the metric's bound.
LADDER_START = 40.0
LADDER_TOP = 640.0
BISECT_STEPS = 3
RUNG_SECONDS = 1.5
RUNG_VOTES = 3
#: The main phase runs as this many back-to-back sub-phases; each
#: latency percentile is the median of the sub-phases' percentiles, so a
#: few seconds of host contention move one sub-phase, not the result.
SUBPHASES = 4
#: p99 latency limit for a ladder rung, and the generator-lag limit.
LIMIT_MS = 250.0
GENERATOR_LAG_LIMIT_MS = 25.0

#: One block of 20 requests, repeated in this fixed order: 15 distinct
#: 6-item pages, 2 hot repeats (cache hits), 2 forum ``doc_id``
#: re-crawls (warm path), 1 distinct 640-item page.  p50 falls inside
#: the small pages, p90 inside the forum re-crawls, p99 inside the large
#: pages.  The order is fixed (only page contents depend on the seed):
#: the shard serves one page at a time, and the two cache hits that
#: follow each large page keep the next shard-bound request from queueing
#: behind it, so no percentile lands on a queueing boundary.
BLOCK = (
    ("large", "hot", "hot") + ("small",) * 5 + ("forum",) + ("small",) * 6
    + ("forum",) + ("small",) * 4
)
HOT_PAGES = 4
FORUM_DOCS = 8
FORUM_THREADS = 4
FORUM_DEPTH = 40

#: Set-ups per run (``setup_s`` is their median; the last one serves).
SETUP_REPEATS = 3
#: Every Nth frame on each router-to-daemon connection is dropped, so the
#: reconnect-and-retry path runs in every run.
DROP_CONN_EVERY = 40
#: Loopback shard daemons (at most nproc): two make a multi-member ring.
DAEMONS = 2
#: Traced runs: requests sampled for trace lookup and in-process replay.
TRACE_SAMPLE = 200
REPLAY_SAMPLE = 60

_LISTENING = re.compile(r"listening on (?:http://)?([\d.]+):(\d+)")


# -- processes ---------------------------------------------------------------


def _spawn(args: Sequence[str]) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONUNBUFFERED="1")
    return subprocess.Popen(
        [sys.executable, *args],
        cwd=str(ROOT),
        env=env,
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        start_new_session=True,
    )


def _await_port(proc: subprocess.Popen, timeout: float = 60.0) -> int:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        ready, _, _ = select.select([proc.stdout], [], [], 0.5)
        if ready:
            line = proc.stdout.readline().decode("utf-8", "replace")
            if not line:
                break
            found = _LISTENING.search(line)
            if found:
                return int(found.group(2))
        elif proc.poll() is not None:
            break
    raise BenchError(f"process {proc.args!r} did not report a listening port")


def _stop(procs: Sequence[subprocess.Popen]) -> None:
    for proc in procs:
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
    for proc in procs:
        try:
            proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait(timeout=15)
        if proc.stdout is not None:
            proc.stdout.close()
    for proc in procs:
        # Reap anything the process left in its process group (pool workers),
        # and wait until the whole group is gone.
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                break
            time.sleep(0.02)


class Stack:
    """The server processes of one workload (router, shards, daemons)."""

    def __init__(self, cluster: bool):
        self.cluster = cluster
        self.procs: List[subprocess.Popen] = []
        self.daemons: List[str] = []
        self.port = 0

    def start(self) -> None:
        args = [
            "-m", "repro.serve", "--host", "127.0.0.1", "--port", "0",
            "--access-log", "off", "--trace-buffer", "8192",
        ]
        if self.cluster:
            count = max(1, min(os.cpu_count() or 1, DAEMONS))
            for _ in range(count):
                daemon = _spawn(["-m", "repro.serve.shard", "--listen", "127.0.0.1:0"])
                self.procs.append(daemon)
            self.daemons = [f"127.0.0.1:{_await_port(p)}" for p in self.procs]
            for address in self.daemons:
                args += ["--remote-shard", address]
            args += ["--faults", f"drop_conn_every={DROP_CONN_EVERY}"]
        else:
            args += ["--shards", "1"]
        router = _spawn(args)
        self.procs.append(router)
        self.port = _await_port(router)

    def stop(self) -> None:
        _stop(self.procs)
        self.procs = []

    def peak_rss_mb(self) -> float:
        return tree_peak_rss_mb([p.pid for p in self.procs])


# -- HTTP --------------------------------------------------------------------


class Connection:
    def __init__(self, port: int):
        self.port = port
        self.reader: Optional[asyncio.StreamReader] = None
        self.writer: Optional[asyncio.StreamWriter] = None

    async def request(self, method: str, path: str, body: bytes = b"") -> Tuple[int, bytes]:
        if self.writer is None:
            self.reader, self.writer = await asyncio.open_connection("127.0.0.1", self.port)
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
        ).encode("latin-1")
        try:
            self.writer.write(head + body)
            await self.writer.drain()
            status_line = await self.reader.readline()
            status = int(status_line.split()[1])
            length = 0
            keep = True
            while True:
                line = await self.reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                name = name.strip().lower()
                if name == "content-length":
                    length = int(value)
                elif name == "connection" and value.strip().lower() == "close":
                    keep = False
            data = await self.reader.readexactly(length)
        except (OSError, asyncio.IncompleteReadError, ValueError, IndexError):
            self.close()
            raise
        if not keep:
            self.close()
        return status, data

    def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
        self.reader = self.writer = None


class Client:
    """At most ``nproc`` keep-alive connections, shared by all requests."""

    def __init__(self, port: int):
        self.port = port
        self.size = max(1, os.cpu_count() or 1)
        self.idle: "asyncio.Queue[Connection]" = asyncio.Queue()
        for _ in range(self.size):
            self.idle.put_nowait(Connection(port))

    async def call(self, method: str, path: str, body: bytes = b"") -> Tuple[int, bytes, float]:
        conn = await self.idle.get()
        sent = time.perf_counter()
        try:
            status, data = await conn.request(method, path, body)
        except (OSError, asyncio.IncompleteReadError, ValueError, IndexError):
            status, data = 0, b""
        finally:
            self.idle.put_nowait(conn)
        return status, data, sent

    async def get_json(self, path: str) -> dict:
        status, data, _ = await self.call("GET", path)
        if status != 200:
            raise BenchError(f"GET {path} answered {status}")
        return json.loads(data)

    def close(self) -> None:
        while not self.idle.empty():
            self.idle.get_nowait().close()


# -- traffic -----------------------------------------------------------------


class Request:
    __slots__ = ("kind", "wrapper", "html", "key", "body")

    def __init__(self, kind: str, wrapper: str, html: str, key, doc_id: Optional[str] = None):
        self.kind = kind
        self.wrapper = wrapper
        self.html = html
        #: Identifies the expected output (page identity).
        self.key = key
        payload = {"html": html}
        if doc_id is not None:
            payload["doc_id"] = doc_id
        self.body = json.dumps(payload).encode("utf-8")


class Traffic:
    """The seeded request stream shared by the main phase and the ladder."""

    def __init__(self, seed: int):
        self.seed = seed
        self.block: List[str] = []
        self.small = 0
        self.large = 0
        self.hot_next = 0
        self.hot = [
            Request("hot", "catalog", catalog_page(seed=seed * 10007 + 900000 + i, items=6), ("hot", i))
            for i in range(HOT_PAGES)
        ]
        self.forum_docs = [
            forum_versions(seed * 100 + d, FORUM_THREADS, FORUM_DEPTH, 0, 0)[0]
            for d in range(FORUM_DOCS)
        ]
        self.forum_version = [0] * FORUM_DOCS
        self.forum_next = 0

    def forum_page(self, doc: int, version: int) -> str:
        page = self.forum_docs[doc]
        return edit_deepest(page, FORUM_THREADS, FORUM_DEPTH, version) if version else page

    def forum_request(self, doc: int, version: int) -> Request:
        return Request(
            "forum", "forum", self.forum_page(doc, version), ("forum", doc, version),
            doc_id=f"forum-{self.seed}-{doc}",
        )

    def warmup(self) -> List[Request]:
        """Hot pages and every forum document's first crawl (cold state)."""
        return list(self.hot) + [self.forum_request(d, 0) for d in range(FORUM_DOCS)]

    def next(self) -> Request:
        if not self.block:
            self.block = list(reversed(BLOCK))
        kind = self.block.pop()
        if kind == "small":
            self.small += 1
            seed = self.seed * 10007 + self.small
            return Request("small", "catalog", catalog_page(seed=seed, items=6), ("small", seed))
        if kind == "large":
            self.large += 1
            seed = self.seed * 10007 + 500000 + self.large
            return Request("large", "catalog", catalog_page(seed=seed, items=640), ("large", seed))
        if kind == "hot":
            self.hot_next += 1
            return self.hot[self.hot_next % HOT_PAGES]
        doc = self.forum_next % FORUM_DOCS
        self.forum_next += 1
        self.forum_version[doc] += 1
        return self.forum_request(doc, self.forum_version[doc])

    def take(self, count: int) -> List[Request]:
        return [self.next() for _ in range(count)]


class Outcome:
    __slots__ = ("request", "due", "sent", "done", "status", "data")

    def __init__(self, request, due, sent, done, status, data):
        self.request = request
        self.due = due
        self.sent = sent
        self.done = done
        self.status = status
        self.data = data

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1e3


async def open_loop(client: Client, requests: Sequence[Request], rate: float):
    """Send ``requests`` on a fixed schedule; outcomes and generator lags."""
    loop_clock = time.perf_counter
    start = loop_clock() + 0.05
    lags: List[float] = []

    async def one(request: Request, due: float) -> Outcome:
        status, data, sent = await client.call("POST", f"/extract/{request.wrapper}", request.body)
        return Outcome(request, due, sent, loop_clock(), status, data)

    tasks = []
    for i, request in enumerate(requests):
        due = start + i / rate
        delay = due - loop_clock()
        if delay > 0:
            await asyncio.sleep(delay)
        lags.append(max(0.0, loop_clock() - due) * 1e3)
        tasks.append(asyncio.ensure_future(one(request, due)))
    outcomes = await asyncio.gather(*tasks)
    return list(outcomes), lags


# -- checks ------------------------------------------------------------------


class Oracle:
    """Expected ``to_dict`` outputs from the library, per page identity."""

    def __init__(self):
        self.wrappers = {
            name: build_wrapper("elog", source, list(patterns))[0]
            for name, (source, patterns) in WRAPPERS.items()
        }
        self.expected: Dict[object, dict] = {}

    def expect(self, request: Request) -> dict:
        found = self.expected.get(request.key)
        if found is None:
            wrapper = self.wrappers[request.wrapper]
            found = wrapper.wrap_html_many([request.html])[0].to_dict()
            self.expected[request.key] = found
        return found

    def check(self, outcome: Outcome) -> bool:
        if outcome.status != 200:
            return False
        try:
            payload = json.loads(outcome.data)
        except ValueError:
            return False
        return payload.get("result") == self.expect(outcome.request)


def _probes(seed: int) -> List[Request]:
    """One request per registered wrapper, for the set-up check."""
    return [
        Request("probe", "catalog", catalog_page(seed=seed * 10007 + 990000, items=6), ("probe", seed)),
        Request("probe", "forum", forum_versions(seed * 100 + 77, 2, 4, 0, 0)[0], ("probe-forum", seed)),
    ]


async def _first_correct(client: Client, oracle: Oracle, probes: Sequence[Request]) -> None:
    """Register every wrapper, then wait for one correct answer from each."""
    for name, (source, patterns) in WRAPPERS.items():
        body = json.dumps(
            {"name": name, "source": source, "kind": "elog", "patterns": list(patterns)}
        ).encode()
        status, data, _ = await client.call("POST", "/wrappers", body)
        if status != 201:
            raise BenchError(f"registering {name} answered {status}: {data[:200]!r}")
    for request in probes:
        status, data, sent = await client.call("POST", f"/extract/{request.wrapper}", request.body)
        outcome = Outcome(request, sent, sent, time.perf_counter(), status, data)
        if not oracle.check(outcome):
            raise BenchError(f"first {request.wrapper} response is wrong ({status})")


def _setup(cluster: bool, seed: int, oracle: Oracle) -> Tuple[float, Stack]:
    """One set-up: process start to first correct response per wrapper."""
    probes = _probes(seed)
    for request in probes:
        oracle.expect(request)  # computed before the clock starts
    stack = Stack(cluster)
    start = time.perf_counter()
    try:
        stack.start()

        async def probe():
            client = Client(stack.port)
            try:
                await _first_correct(client, oracle, probes)
            finally:
                client.close()

        asyncio.run(probe())
    except BaseException:
        stack.stop()
        raise
    return time.perf_counter() - start, stack


async def _daemon_stats(addresses: Sequence[str]) -> List[dict]:
    """Each daemon's counters, read with one framed ``ping``."""
    out = []
    for address in addresses:
        host, port = address.split(":")
        reader, writer = await asyncio.open_connection(host, int(port))
        try:
            writer.write(encode_frame({"id": 1, "op": "ping"}))
            await writer.drain()
            reply = await read_frame(reader)
            out.append(reply["value"]["stats"])
        finally:
            writer.close()
            await writer.wait_closed()
    return out


# -- the workload ------------------------------------------------------------


def _rung_passes(outcomes: Sequence[Outcome], ok: Sequence[bool]) -> bool:
    if not all(ok):
        return False
    latencies = [o.latency_ms for o in outcomes]
    if percentile(latencies, 99) > LIMIT_MS:
        return False
    # A growing backlog shows as the last quarter waiting ever longer.
    quarter = max(1, len(latencies) // 4)
    return median(latencies[-quarter:]) <= LIMIT_MS / 2


async def _max_rate(client: Client, traffic: Traffic, oracle: Oracle, all_outcomes: List,
                    info: Dict) -> float:
    """Highest offered rate (raw rps) whose rung meets the latency limit."""
    rungs = []

    async def passes(rate: float) -> bool:
        # A rate passes when most of RUNG_VOTES rungs at it pass, so one
        # hiccup of a shared host neither fails nor passes it alone.
        votes = []
        while max(votes.count(True), votes.count(False)) <= RUNG_VOTES // 2:
            requests = traffic.take(max(1, int(rate * RUNG_SECONDS)))
            outcomes, lags = await open_loop(client, requests, rate)
            all_outcomes.extend(outcomes)
            ok = [oracle.check(o) for o in outcomes]
            votes.append(
                _rung_passes(outcomes, ok) and percentile(lags, 99) <= GENERATOR_LAG_LIMIT_MS
            )
            rungs.append((round(rate, 1), votes[-1]))
        return votes.count(True) > RUNG_VOTES // 2

    low, high, rate = LADDER_START / 2, None, LADDER_START
    while high is None and rate <= LADDER_TOP:
        if await passes(rate):
            low, rate = rate, rate * 2
        else:
            high = rate
    if high is not None:
        for _ in range(BISECT_STEPS):
            middle = math.sqrt(low * high)
            if await passes(middle):
                low = middle
            else:
                high = middle
    info["ladder_rungs"] = rungs
    if low < LADDER_START:
        log(f"the {LADDER_START} rps rung missed the {LIMIT_MS} ms limit")
    return low


def run_serve(seed: int, seconds: int, trace: bool, cluster: bool) -> Dict:
    oracle = Oracle()
    setups: List[float] = []
    stack: Optional[Stack] = None
    try:
        for _ in range(SETUP_REPEATS):
            if stack is not None:
                stack.stop()
            elapsed, stack = _setup(cluster, seed, oracle)
            setups.append(elapsed)
        return asyncio.run(_measure(stack, oracle, seed, seconds, trace, median(setups)))
    finally:
        if stack is not None:
            stack.stop()


async def _measure(stack: Stack, oracle: Oracle, seed: int, seconds: int, trace: bool,
                   setup_s: float) -> Dict:
    client = Client(stack.port)
    try:
        return await _phases(client, stack, oracle, seed, seconds, trace, setup_s)
    finally:
        client.close()


async def _phases(client: Client, stack: Stack, oracle: Oracle, seed: int, seconds: int,
                  trace: bool, setup_s: float) -> Dict:
    """Warm-up, main phase, ladder (untraced) or layer replay (traced)."""
    traffic = Traffic(seed)
    for request in traffic.warmup():
        status, data, sent = await client.call("POST", f"/extract/{request.wrapper}", request.body)
        if not oracle.check(Outcome(request, sent, sent, sent, status, data)):
            raise BenchError(f"warm-up {request.kind} request failed ({status})")

    outcomes: List[Outcome] = []
    lags: List[float] = []
    by_phase: Dict[int, List[float]] = {50: [], 90: [], 99: []}
    for _ in range(SUBPHASES):
        phase, phase_lags = await open_loop(
            client, traffic.take(int(RATE * seconds / SUBPHASES)), RATE
        )
        for q, values in by_phase.items():
            values.append(percentile([o.latency_ms for o in phase], q))
        outcomes += phase
        lags += phase_lags
    all_outcomes = list(outcomes)
    lag_p99 = percentile(lags, 99)
    if lag_p99 > GENERATOR_LAG_LIMIT_MS:
        raise BenchError(f"generator fell behind: p99 lag {lag_p99:.1f} ms")

    metrics: Dict = {}
    info: Dict = {"generator_lag_p50_ms": percentile(lags, 50), "generator_lag_p99_ms": lag_p99}
    by_kind: Dict[str, List[float]] = {}
    for outcome in outcomes:
        by_kind.setdefault(outcome.request.kind, []).append(outcome.latency_ms)
    info["raw_kind_p50_p90_ms"] = {
        kind: [percentile(values, 50), percentile(values, 90)] for kind, values in by_kind.items()
    }
    served_mb = sum(len(o.request.html.encode("utf-8")) for o in outcomes) / 1e6
    span = max(o.done for o in outcomes) - min(o.due for o in outcomes)
    if not trace:
        max_rate = await _max_rate(client, traffic, oracle, all_outcomes, info)
        metrics.update(
            {
                "setup_s": (setup_s, "s"),
                # Open loop: the MB/s offered and served in the main phase.
                "throughput_mb_s": (served_mb / span, "MB/s"),
                "latency_p50_ms": (median(by_phase[50]), "ms"),
                "latency_p90_ms": (median(by_phase[90]), "ms"),
                "latency_p99_ms": (median(by_phase[99]), "ms"),
                "max_rate_rps": (max_rate, "1/s"),
                "peak_rss_mb": (stack.peak_rss_mb(), "MB"),
            }
        )
    else:
        metrics["load.generator_lag_ms"] = (lag_p99, "ms")

    # Refuse a run in which a workload's mechanism silently did not run.
    server = await client.get_json("/metrics")
    counters = server["counters"]
    info["server_counters"] = {
        k: counters.get(k, 0)
        for k in ("cache_hits", "incremental_hits", "retries", "bypassed", "extract_requests")
    }
    if counters.get("cache_hits", 0) == 0 or counters.get("incremental_hits", 0) == 0:
        raise BenchError("cache hits or incremental hits are zero: a mechanism did not run")
    if stack.cluster:
        daemon_pages = sum(s.get("pages", 0) for s in await _daemon_stats(stack.daemons))
        sent_to_shards = sum(1 for o in all_outcomes if o.request.kind != "hot")
        info["daemon_pages"] = daemon_pages
        if daemon_pages < sent_to_shards:
            raise BenchError(
                f"daemons served {daemon_pages} pages for {sent_to_shards} requested"
            )
        if counters.get("retries", 0) == 0:
            raise BenchError("no retry happened: the reconnect path did not run")
        if trace:
            metrics["transport.daemon_pages"] = (daemon_pages, "count")
    if trace:
        metrics.update(_counter_metrics(server))
        metrics.update(await _traced_layers(client, stack, outcomes))

    failed = sum(1 for o in all_outcomes if not oracle.check(o))
    info["requests"] = len(all_outcomes)
    return {"attempted": len(all_outcomes), "failed": failed, "metrics": metrics, "info": info}


#: Per-layer metrics of the serving stack.  ``serve`` and ``serve_cluster``
#: are left out of BENCHMARK.json (on 2 vCPUs their end-to-end figures
#: shift 1.3-1.7x from run to run), so the traced ``crawl`` run also runs
#: both stacks (:func:`run_serve_traced`) and reports these.
SERVE_LAYERS = (
    "output.to_dict_ms",
    "http.encode_ms",
    "transport.encode_ms",
    "transport.rpc_ms",
    "batcher.queue_ms",
    "batcher.mean_batch",
    "batcher.bypass_share",
    "ring.route_ms",
    "cache.hit_ratio",
    "serve.retries",
    "serve.reconnects",
    "http.residual_ms",
    "load.generator_lag_ms",
)
#: The framed-RPC path's metrics, reported with a ``cluster.`` prefix.
CLUSTER_LAYERS = (
    "transport.rpc_ms",
    "transport.encode_ms",
    "transport.daemon_pages",
    "ring.route_ms",
    "serve.retries",
    "serve.reconnects",
)


def run_serve_traced(seed: int, seconds: int) -> Dict:
    """The serving stack's layers: the local stack's, then the cluster's."""
    local = run_serve(seed, seconds, True, cluster=False)
    cluster = run_serve(seed, seconds, True, cluster=True)
    metrics = {name: local["metrics"][name] for name in SERVE_LAYERS}
    for name in CLUSTER_LAYERS:
        metrics["cluster." + name] = cluster["metrics"][name]
    return {
        "attempted": local["attempted"] + cluster["attempted"],
        "failed": local["failed"] + cluster["failed"],
        "metrics": metrics,
        "info": {
            "serve": local["info"],
            "cluster": cluster["info"],
            # The serve mix's ingestion, for contrast with the crawl's.
            "serve_scan_build_ms": [
                local["metrics"][name][0] for name in ("html.scan_ms", "snapshot.build_ms")
            ],
        },
    }


def _counter_metrics(server: dict) -> Dict:
    counters = server["counters"]
    gauges = server.get("gauges", {})
    requests = counters.get("extract_requests", 0)
    hits = counters.get("cache_hits", 0)
    bypassed = counters.get("bypassed", 0)
    queued = server["batches"]["documents"]
    return {
        "cache.hit_ratio": (hits / max(1, requests), "share"),
        "batcher.mean_batch": (server["batches"]["mean_size"], "count"),
        "batcher.bypass_share": (bypassed / max(1, bypassed + queued), "share"),
        "serve.retries": (counters.get("retries", 0), "count"),
        "serve.reconnects": (gauges.get("reconnects_total", 0), "count"),
    }


async def _traced_layers(client: Client, stack: Stack, outcomes: Sequence[Outcome]) -> Dict:
    metrics: Dict = {}
    # http.residual: client-observed time minus the server's request span.
    traces = await client.get_json("/debug/traces")
    elapsed = {t["trace_id"]: t["elapsed_ms"] for t in traces["traces"]}
    residuals = []
    for outcome in list(outcomes)[-TRACE_SAMPLE:]:
        trace_id = json.loads(outcome.data).get("trace_id") if outcome.status == 200 else None
        if trace_id in elapsed:
            residuals.append((outcome.done - outcome.sent) * 1e3 - elapsed[trace_id])
    if not residuals:
        raise BenchError("no request trace was retained")
    metrics["http.residual_ms"] = (median(residuals), "ms")

    # In-process replay of a sample in traffic order (the mix is kept).
    step = max(1, len(outcomes) // REPLAY_SAMPLE)
    sample = [o.request for o in outcomes[::step]][:REPLAY_SAMPLE]
    metrics.update(_library_layers(sample))
    metrics.update(await _serving_layers(stack, sample))
    return metrics


def _library_layers(sample: Sequence[Request]) -> Dict:
    probes = {name: LayerProbe(source, patterns) for name, (source, patterns) in WRAPPERS.items()}
    layer_log = LayerLog()
    to_dict: List[float] = []
    encode: List[float] = []
    for request in sample:
        probe = probes[request.wrapper]
        scan = probe.scan_ms(request.html)
        out, _, timings = probe.wrap(request.html)
        layer_log.record(scan, timings)
        start = time.perf_counter()
        rendered = out.to_dict()
        middle = time.perf_counter()
        json.dumps({"wrapper": request.wrapper, "version": 1, "result": rendered,
                    "trace_id": "0" * 16})
        end = time.perf_counter()
        to_dict.append((middle - start) * 1e3)
        encode.append((end - middle) * 1e3)
    metrics = layer_log.metrics()
    metrics["output.to_dict_ms"] = (median(to_dict), "ms")
    metrics["http.encode_ms"] = (median(encode), "ms")
    return metrics


async def _serving_layers(stack: Stack, sample: Sequence[Request]) -> Dict:
    source, patterns = WRAPPERS["catalog"]
    entry = WrapperRegistry().register("catalog", source, kind="elog", patterns=list(patterns))
    cold = [r for r in sample if r.wrapper == "catalog"]
    members = len(stack.daemons) if stack.cluster else 1
    executor = RemoteShardExecutor(stack.daemons) if stack.cluster else ShardExecutor(1)
    try:
        for install in executor.ensure_installed(entry.cache_key, entry.wrapper):
            await asyncio.wrap_future(install)
        # transport.rpc: round trip minus the shard-reported work.
        rpc, round_trips, encode = {}, {}, []
        for request in cold:
            shard = executor.shard_for(content_hash(request.html))
            start = time.perf_counter()
            reply = await asyncio.wrap_future(
                executor.submit_traced(shard, entry.cache_key, [request.html])
            )
            total = (time.perf_counter() - start) * 1e3
            work = reply["kernel"][0]
            round_trips[request.key] = total
            rpc[request.key] = total - work["snapshot_build_ms"] - work["kernel_ms"]
            # transport.encode: pickle round trip (local) or framing (cluster).
            message = {"id": 1, "ok": True, "value": reply}
            start = time.perf_counter()
            if stack.cluster:
                raw = encode_frame(message)
                decode_payload(raw[8:], int.from_bytes(raw[4:8], "big"))
            else:
                pickle.loads(pickle.dumps(reply, protocol=pickle.HIGHEST_PROTOCOL))
            encode.append((time.perf_counter() - start) * 1e3)
        # batcher.queue: submit wall time minus the direct round trip, on
        # the same pages replayed at the main-phase rate (fresh cache).
        batcher = MicroBatcher(executor, ResultCache(len(cold) + 1), ServeMetrics())
        queue = []

        async def submit(request: Request, due: float) -> None:
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            start = time.perf_counter()
            await batcher.submit(entry, request.html, timeout=30.0)
            queue.append((time.perf_counter() - start) * 1e3 - round_trips[request.key])

        start = time.perf_counter() + 0.05
        await asyncio.gather(*(submit(r, start + i / RATE) for i, r in enumerate(cold)))
        await batcher.drain()
    finally:
        if stack.cluster:
            await executor.aclose()
        else:
            await asyncio.get_running_loop().run_in_executor(None, executor.close)
    # ring.route: HashRing lookups over this many members.
    ring = HashRing(range(members))
    keys = [content_hash(r.html) for r in sample]
    rounds = 50
    start = time.perf_counter()
    for _ in range(rounds):
        for key in keys:
            ring.node_for(key)
    route_ms = (time.perf_counter() - start) * 1e3 / (rounds * len(keys))
    return {
        "transport.rpc_ms": (median(rpc.values()), "ms"),
        "transport.encode_ms": (median(encode), "ms"),
        "batcher.queue_ms": (median(queue), "ms"),
        "ring.route_ms": (route_ms, "ms"),
    }
