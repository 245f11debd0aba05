"""Stdlib-only asyncio HTTP server for wrapper extraction.

Routes (all bodies and responses are JSON):

=======  ==========================  ===========================================
method   path                        behavior
=======  ==========================  ===========================================
POST     /extract/{name}[@{ver}]     ``{"html": ...}`` -> one wrapped output
                                     (through the micro-batcher + cache);
                                     add ``"doc_id"`` for the incremental
                                     warm path across re-crawls of one
                                     document
POST     /batch                      ``{"wrapper": ref, "documents": [...]}``
                                     -> one output per document
GET      /wrappers                   list registered wrappers
POST     /wrappers                   register ``{"name", "source", "kind",
                                     "patterns"?, "version"?}``
GET      /healthz                    liveness + queue depth
GET      /metrics                    counters, batch stats, per-stage and
                                     per-wrapper latency histograms (JSON);
                                     ``?format=prometheus`` for text
                                     exposition
GET      /debug/traces               retained request traces (recent ring +
                                     slow/error exemplars)
GET      /debug/traces/{id}          one full span tree by trace id
=======  ==========================  ===========================================

Observability: every ``/extract`` and ``/batch`` request gets a trace id
(returned in the response payload) and a span tree recorded by the
server's :class:`~repro.serve.tracing.Tracer` -- ``http.request`` down
through batcher queueing, ring routing, shard RPC, and the kernel run
itself (engine, facts, warm reuse counters), including kernel spans
grafted back from remote shard daemons over the framed RPC protocol, and the
response's JSON encoding (``http.encode``).  Stage timings
feed the per-stage histograms in ``/metrics``; an ``access_log`` sink
emits one structured JSON line per request (trace id, status, stage
timings, retries, reroutes, quarantine strikes).  ``tracing=False``
disables all of it -- the hot path then threads ``span=None`` with one
``is not None`` test per stage.

The request path is fully asynchronous: handlers never run a fixpoint on
the event loop -- documents go through the
:class:`~repro.serve.batcher.MicroBatcher` into the
:class:`~repro.serve.executor.ShardExecutor`.  When the pending-document
budget is exhausted the server answers ``503`` immediately (bounded
queue -> backpressure).  ``stop()`` is graceful: the listener closes
first, queued batches flush, in-flight connections finish, then the
shards shut down.

Fault tolerance (the paper's linear-time bound, made operational):

* reading a request -- line, headers and body -- runs under one
  ``idle_timeout`` deadline; a client that has not sent a whole request
  by then is disconnected, however steadily it drips bytes;
* every extraction carries a **deadline derived from document size** --
  ``deadline_base + deadline_per_mb * megabytes`` seconds per shard
  call, wrapper install included.  Monadic-datalog wrappers evaluate in time linear in the
  document (Gottlob & Koch 2002), so a call that blows this budget is
  *wedged, not slow*: the worker is killed and respawned and the call
  fails retryable;
* **retryable failures are retried here**, with jittered exponential
  backoff, before any client sees an error: worker death
  (:class:`~repro.errors.ShardCrashed`, includes "wrapper not
  resident") and deadline overruns
  (:class:`~repro.errors.RequestTimeout`).  Only exhausted retries
  surface, as 503 / 504;
* documents that repeatedly *crash* workers are quarantined
  (:class:`~repro.serve.supervisor.Quarantine`) and answered ``422``;
  ``GET /quarantine`` inspects the ledger, ``POST /quarantine/release``
  un-quarantines a hash;
* a :class:`~repro.serve.supervisor.ShardSupervisor` pings every shard
  in the background, trips a per-shard circuit breaker after
  consecutive failures (proactively respawning the shard), and routes
  keys around open breakers; its per-shard state is in ``/healthz``.

Error mapping: 422 poison document, 503 retryable (crashed shard /
overload / shutdown), 504 deadline exceeded after retries.
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
import json
import random
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import (
    PoisonDocument,
    ReproError,
    RequestTimeout,
    RetryableServeError,
    ServeError,
    ServerOverloaded,
    ShardCrashed,
)
from repro.serve.batcher import MicroBatcher
from repro.serve.cache import ResultCache
from repro.serve.executor import ShardExecutor
from repro.serve.faults import FaultPlan
from repro.serve.metrics import ServeMetrics
from repro.serve.registry import WrapperRegistry
from repro.serve.supervisor import Quarantine, ShardSupervisor
from repro.serve.tracing import RequestLog, Span, Tracer, find_spans, stage_timings
from repro.serve.transport import RemoteShardExecutor

_REASONS = {
    200: "OK",
    201: "Created",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    422: "Unprocessable Entity",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

#: Routes whose duration feeds the latency percentiles.
_TIMED_ROUTES = ("/extract/", "/batch")

#: Header lines accepted per request.
_MAX_HEADERS = 100

#: Request body bytes accepted; a longer declared body gets a 413.
_MAX_BODY = 8 * 1024 * 1024


class _Rejected(Exception):
    """A request the server answers with ``status`` and then closes."""

    def __init__(self, status: int, error: str):
        super().__init__(error)
        self.status = status


async def _readline(reader, what: str) -> bytes:
    try:
        return await reader.readline()
    except ValueError:  # longer than the stream's line-length limit
        raise _Rejected(400, f"{what} line too long") from None


def _encode(payload) -> Tuple[bytes, str]:
    """A response body and its content type."""
    if isinstance(payload, str):
        # Text exposition (``/metrics?format=prometheus``).
        return (
            payload.encode("utf-8"),
            "text/plain; version=0.0.4; charset=utf-8",
        )
    return json.dumps(payload).encode("utf-8"), "application/json"


class ExtractionServer:
    """The serving stack wired together behind one asyncio listener."""

    def __init__(
        self,
        registry: WrapperRegistry,
        host: str = "127.0.0.1",
        port: int = 0,
        shards: int = 0,
        max_batch: int = 16,
        max_delay: float = 0.010,
        max_pending: int = 256,
        cache_size: int = 512,
        bypass_concurrency: int = 1,
        idle_timeout: float = 60.0,
        deadline_base: float = 2.0,
        deadline_per_mb: float = 5.0,
        max_retries: int = 3,
        retry_backoff: float = 0.02,
        quarantine_strikes: int = 3,
        health_interval: float = 1.0,
        breaker_threshold: int = 3,
        breaker_cooldown: float = 5.0,
        faults: Union[FaultPlan, str, None] = None,
        remote_shards: Optional[Sequence[str]] = None,
        tracing: bool = True,
        trace_buffer: int = 256,
        access_log: Union[str, object, None] = None,
    ):
        self.registry = registry
        self.host = host
        self.port = port  # 0 -> ephemeral; set to the bound port by start()
        self.metrics = ServeMetrics()
        #: Bounded trace store behind /debug/traces; ``None`` when tracing
        #: is disabled (hot path then carries ``span=None`` throughout).
        self.tracer: Optional[Tracer] = (
            Tracer(capacity=trace_buffer) if tracing else None
        )
        #: Structured per-request JSON log; ``None`` keeps the server
        #: silent (tests, embedded use).  ``__main__`` turns it on.
        self.request_log: Optional[RequestLog] = (
            RequestLog(access_log) if access_log is not None else None
        )
        self.cache = ResultCache(cache_size)
        self._shard_count = shards
        #: ``host:port`` shard daemon addresses; when given, evaluation
        #: runs on those remote boxes instead of local shards.
        self.remote_shards: List[str] = list(remote_shards or [])
        self._max_batch = max_batch
        self._max_delay = max_delay
        self._max_pending = max_pending
        self._bypass_concurrency = bypass_concurrency
        self.idle_timeout = idle_timeout
        #: Per-shard-call deadline: base + per-MB seconds of document.
        #: The kernel is linear in document size (the paper's Theorem
        #: 4.2/5.2 bound), so a linear budget is the honest contract.
        self.deadline_base = deadline_base
        self.deadline_per_mb = deadline_per_mb
        self.max_retries = max(0, max_retries)
        self.retry_backoff = retry_backoff
        self.health_interval = health_interval
        self._breaker_threshold = breaker_threshold
        self._breaker_cooldown = breaker_cooldown
        self.quarantine = Quarantine(strikes=quarantine_strikes)
        self.faults = (
            FaultPlan.parse(faults) if isinstance(faults, str) else faults
        )
        #: Backoff jitter: seeded, so test runs are reproducible.
        self._rng = random.Random(0x5EED)
        self.executor: Optional[ShardExecutor] = None
        self.batcher: Optional[MicroBatcher] = None
        self.supervisor: Optional[ShardSupervisor] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: set = set()
        self._stopping = False
        # Monotonic, so reported uptime never jumps on wall-clock steps
        # (mirrors ServeMetrics' clock choice).
        self._started = time.monotonic()

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Bind the listener and bring the executor + batcher up."""
        if self.remote_shards:
            # RemoteShardExecutor must be created on the serving loop
            # (its connections and tasks live there).
            self.executor = RemoteShardExecutor(
                self.remote_shards, faults=self.faults
            )
        else:
            self.executor = ShardExecutor(self._shard_count, faults=self.faults)
        self.supervisor = ShardSupervisor(
            self.executor,
            self.metrics,
            interval=self.health_interval,
            threshold=self._breaker_threshold,
            cooldown=self._breaker_cooldown,
        )
        self.batcher = MicroBatcher(
            self.executor,
            self.cache,
            self.metrics,
            max_batch=self._max_batch,
            max_delay=self._max_delay,
            max_pending=self._max_pending,
            bypass_concurrency=self._bypass_concurrency,
            quarantine=self.quarantine,
            supervisor=self.supervisor,
        )
        try:
            self._server = await asyncio.start_server(
                self._client_connected, self.host, self.port
            )
        except Exception:
            # A failed bind must not leak shard worker processes.
            executor, self.executor, self.batcher = self.executor, None, None
            await executor.aclose()
            raise
        self.port = self._server.sockets[0].getsockname()[1]
        self._started = time.monotonic()
        await self.supervisor.start()

    async def stop(self) -> None:
        """Graceful shutdown: stop accepting, drain, close the shards.

        New extraction work arriving on established keep-alive
        connections is rejected with 503 from this point, so the drain
        cannot be starved by a client that keeps posting.
        """
        self._stopping = True
        if self._server is not None:
            self._server.close()
        if self.supervisor is not None:
            await self.supervisor.stop()
        if self.batcher is not None:
            await self.batcher.drain()
        if self._connections:
            # Give in-flight responses a moment to finish, then cut idle
            # keep-alive connections loose.  (Handlers also force
            # ``Connection: close`` once _stopping is set.)
            _, pending = await asyncio.wait(
                set(self._connections), timeout=0.5
            )
            for task in pending:
                task.cancel()
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
        if self._server is not None:
            # All handlers are done, so this resolves immediately (on
            # 3.11 wait_closed blocks while connections are still live).
            await self._server.wait_closed()
            self._server = None
        if self.executor is not None:
            executor = self.executor
            self.executor = None
            await executor.aclose()

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        await self._server.serve_forever()

    @property
    def address(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- connection handling -------------------------------------------------

    async def _client_connected(self, reader, writer) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
            task.add_done_callback(self._connections.discard)
        try:
            await self._serve_connection(reader, writer)
        except asyncio.CancelledError:
            pass  # deliberate: stop() cancels idle keep-alive connections
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover - racy close
                pass

    async def _serve_connection(self, reader, writer) -> None:
        while True:
            # One idle deadline covers the whole request -- line, headers
            # and body -- so a client dripping bytes cannot hold a
            # connection task past ``idle_timeout``.
            try:
                request = await asyncio.wait_for(
                    self._read_request(reader, writer), self.idle_timeout
                )
            except _Rejected as exc:
                await self._respond(
                    writer, exc.status, _encode({"error": str(exc)})
                )
                return
            except (asyncio.TimeoutError, asyncio.IncompleteReadError, OSError):
                return
            if request is None:
                return
            method, target, version, headers, body = request
            keep_alive = (
                version == "HTTP/1.1"
                and headers.get("connection", "").lower() != "close"
                and not self._stopping
            )
            started = time.perf_counter()
            path = target.split("?", 1)[0]
            timed = method == "POST" and path.startswith(_TIMED_ROUTES)
            span: Optional[Span] = None
            # One read of self.tracer per request: a request started
            # while tracing was enabled finishes against the same
            # tracer even if tracing is toggled off mid-flight.
            tracer = self.tracer if timed else None
            if tracer is not None:
                span = tracer.start_trace(
                    "http.request", route=path, method=method
                )
            status, payload = await self._dispatch(method, target, body, span=span)
            if self._stopping:
                keep_alive = False
            encode_span: Optional[Span] = None
            if span is not None:
                if status >= 400 and isinstance(payload, dict):
                    span.fail(str(payload.get("error", status)))
                span.tag(status=status)
                if isinstance(payload, dict):
                    payload.setdefault("trace_id", span.tags["trace_id"])
                encode_span = span.child("http.encode")
            encoded = _encode(payload)
            elapsed = time.perf_counter() - started
            if span is not None:
                # The trace is stored before the response leaves, so a
                # client can fetch it as soon as it has the reply.
                encode_span.finish()
                trace_id = tracer.finish_trace(span)
                self._record_request(span, trace_id, status, elapsed)
            elif timed:
                self.metrics.observe_request(elapsed, None, {})
            ok = await self._respond(writer, status, encoded, keep_alive)
            if not ok or not keep_alive:
                return

    async def _read_request(self, reader, writer):
        """Read one request: ``(method, target, version, headers, body)``.

        ``None`` at a clean EOF before the request line.  A request the
        server must refuse raises :class:`_Rejected`; the caller bounds
        the whole read with one deadline."""
        request_line = await _readline(reader, "request")
        if not request_line:
            return None
        parts = request_line.decode("latin-1").strip().split()
        if len(parts) < 2:
            raise _Rejected(400, "malformed request line")
        headers: Dict[str, str] = {}
        # Lines, not distinct names, count against the cap: repeating one
        # header must not get round it.
        for _ in range(_MAX_HEADERS + 1):
            line = await _readline(reader, "header")
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        else:
            raise _Rejected(400, "too many headers")
        try:
            length = int(headers.get("content-length", "0") or "0")
        except ValueError:
            length = -1
        if length < 0:
            raise _Rejected(400, "bad content-length")
        if length > _MAX_BODY:
            raise _Rejected(413, "body too large")
        if "100-continue" in headers.get("expect", "").lower():
            # curl sends this for large bodies and waits ~1s for the
            # interim response before posting anyway.
            writer.write(b"HTTP/1.1 100 Continue\r\n\r\n")
            await writer.drain()
        body = await reader.readexactly(length) if length else b""
        version = parts[2] if len(parts) > 2 else "HTTP/1.0"
        return parts[0].upper(), parts[1], version, headers, body

    def _record_request(
        self, span: Span, trace_id: str, status: int, elapsed: float
    ) -> None:
        """Feed one finished request into histograms and the access log.

        Per-stage times come straight from the span tree, so the
        ``/metrics`` stage histograms and ``/debug/traces`` always agree
        about where a request spent its time."""
        wrapper = span.tags.get("wrapper")
        timings = stage_timings(span)
        self.metrics.observe_request(elapsed, wrapper, timings)
        if self.request_log is None:
            return
        root = span.to_dict()
        reroutes = sum(
            1 for s in find_spans(root, "ring.route") if s["tags"].get("rerouted")
        )
        failed_calls = sum(
            1 for s in find_spans(root, "shard.call") if s.get("error")
        )
        self.request_log.log(
            "request",
            trace_id=trace_id,
            route=span.tags.get("route"),
            wrapper=wrapper,
            status=status,
            elapsed_ms=round(elapsed * 1e3, 3),
            stages=timings,
            retries=span.tags.get("retries", 0),
            reroutes=reroutes,
            failed_shard_calls=failed_calls,
            quarantine_strikes=span.tags.get("quarantine_strikes", 0),
            error=root.get("error"),
        )

    async def _respond(self, writer, status, encoded, keep_alive=False) -> bool:
        data, content_type = encoded
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(data)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            "\r\n"
        ).encode("latin-1")
        try:
            writer.write(head + data)
            await writer.drain()
            return True
        except (ConnectionError, OSError):
            return False

    # -- deadlines and retries -----------------------------------------------

    def deadline_for(self, *documents: str) -> float:
        """The shard-call budget for a request, in seconds.

        Linear in total document size, because wrapper evaluation is
        (Theorem 4.2): a call that exceeds this is treated as hung."""
        total = sum(len(doc) for doc in documents)
        return self.deadline_base + self.deadline_per_mb * (total / 1_048_576)

    async def _with_retries(self, attempt_factory, span: Optional[Span] = None):
        """Run one extraction attempt, retrying retryable failures.

        ``attempt_factory`` builds a fresh coroutine per attempt.
        Retries use seeded jittered exponential backoff
        (``retry_backoff * 2^n * U[0.5, 1.5)``) so synchronized clients
        do not re-converge on a just-respawned shard.  Non-retryable
        errors (including :class:`~repro.errors.PoisonDocument` once a
        document crosses the quarantine threshold mid-retry) propagate
        immediately."""
        attempt = 0
        while True:
            try:
                result = await attempt_factory()
                if span is not None and attempt:
                    span.tag(retries=attempt)
                return result
            except RetryableServeError as exc:
                if attempt >= self.max_retries:
                    if span is not None and attempt:
                        span.tag(retries=attempt)
                    raise
                self.metrics.incr("retries")
                backoff = (
                    self.retry_backoff
                    * (2 ** attempt)
                    * (0.5 + self._rng.random())
                )
                attempt += 1
                await asyncio.sleep(backoff)

    # -- routing -------------------------------------------------------------

    async def _dispatch(
        self,
        method: str,
        target: str,
        body: bytes,
        span: Optional[Span] = None,
    ) -> Tuple[int, dict]:
        path, _, query = target.partition("?")
        self.metrics.incr("requests_total")
        try:
            if method == "GET":
                return self._dispatch_get(path, query)
            if method == "POST":
                return await self._dispatch_post(path, body, span=span)
            return 405, {"error": f"method {method} not allowed"}
        except PoisonDocument as exc:
            # Deliberately not retried and not a server fault: the
            # document itself is what keeps crashing workers.
            return 422, {"error": str(exc), "retryable": False}
        except RequestTimeout as exc:
            self.metrics.incr("errors")
            return 504, {"error": str(exc), "retryable": True}
        except ServerOverloaded as exc:
            return 503, {"error": str(exc), "retryable": True}
        except ShardCrashed as exc:
            # Retries exhausted on worker death; the shard respawns on
            # the next submission, so the client may retry later.
            self.metrics.incr("errors")
            message = str(exc) or "shard worker died; retry the request"
            return 503, {"error": message, "retryable": True}
        except ReproError as exc:
            # Library errors surfaced by client input (bad wrapper
            # source, unparsable registration, unknown patterns, ...).
            return 400, {"error": f"{type(exc).__name__}: {exc}"}
        except Exception as exc:  # defensive: never kill the connection loop
            self.metrics.incr("errors")
            return 500, {"error": f"{type(exc).__name__}: {exc}"}

    def _dispatch_get(self, path: str, query: str = "") -> Tuple[int, dict]:
        if path == "/healthz":
            assert self.batcher is not None
            shard_health = (
                self.supervisor.describe() if self.supervisor is not None else []
            )
            if self.executor is not None:
                # Per-shard transport state (local|remote, connected,
                # reconnects, draining) merged into the health entries.
                for entry in shard_health:
                    entry.update(self.executor.shard_state(entry["shard"]))
            degraded = any(s["state"] != "closed" for s in shard_health)
            return 200, {
                "status": "degraded" if degraded else "ok",
                "wrappers": len(self.registry),
                "pending_documents": self.batcher.pending,
                "max_pending": self.batcher.max_pending,
                "shards": self.executor.n_shards if self.executor else 0,
                "transport": self.executor.mode if self.executor else "none",
                "shard_health": shard_health,
                "ring": (
                    self.supervisor.describe_ring()
                    if self.supervisor is not None
                    else {}
                ),
                "quarantined_documents": len(self.quarantine),
                "uptime_s": round(time.monotonic() - self._started, 3),
            }
        if path == "/metrics":
            if self.supervisor is not None:
                states = [b.state for b in self.supervisor.breakers]
                self.metrics.set_gauge(
                    "breakers_open", states.count("open") + states.count("half_open")
                )
                self.metrics.set_gauge("ring_generation", self.supervisor.generation)
                self.metrics.set_gauge("ring_members", len(self.supervisor.members))
            if self.executor is not None:
                shards = [
                    self.executor.shard_state(index)
                    for index in range(self.executor.n_shards)
                ]
                self.metrics.set_gauge(
                    "shards_connected", sum(s["connected"] for s in shards)
                )
                self.metrics.set_gauge(
                    "reconnects_total", sum(s["reconnects_total"] for s in shards)
                )
            self.metrics.set_gauge("quarantined_documents", len(self.quarantine))
            if "format=prometheus" in query.split("&"):
                # Text exposition; _respond switches to text/plain for
                # string payloads.
                return 200, self.metrics.prometheus()
            return 200, self.metrics.snapshot()
        if path == "/debug/traces":
            if self.tracer is None:
                return 404, {"error": "tracing is disabled"}
            return 200, {"traces": self.tracer.list()}
        if path.startswith("/debug/traces/"):
            if self.tracer is None:
                return 404, {"error": "tracing is disabled"}
            trace_id = path[len("/debug/traces/") :]
            record = self.tracer.get(trace_id)
            if record is None:
                return 404, {"error": f"trace {trace_id!r} not retained"}
            return 200, record
        if path == "/wrappers":
            return 200, {"wrappers": self.registry.list()}
        if path == "/quarantine":
            return 200, self.quarantine.describe()
        return 404, {"error": f"no such route {path!r}"}

    async def _dispatch_post(
        self, path: str, body: bytes, span: Optional[Span] = None
    ) -> Tuple[int, dict]:
        assert self.batcher is not None
        if self._stopping:
            return 503, {"error": "server is shutting down"}
        if path.startswith("/extract/"):
            ref = path[len("/extract/") :]
            data = self._json_body(body)
            html = data.get("html")
            if not isinstance(html, str):
                return 400, {"error": "body must be {'html': '<...>'}"}
            doc_id = data.get("doc_id")
            if doc_id is not None and not isinstance(doc_id, str):
                return 400, {"error": "'doc_id' must be a string"}
            try:
                entry = self.registry.resolve(ref)
            except ServeError as exc:
                return 404, {"error": str(exc)}
            self.metrics.incr("extract_requests")
            if span is not None:
                span.tag(wrapper=f"{entry.name}@{entry.version}")
            timeout = self.deadline_for(html)
            # A doc_id takes the incremental warm path: the shard holding
            # the previous version's state re-derives only the changed
            # region.
            payload = await self._with_retries(
                lambda: self.batcher.submit(
                    entry, html, timeout=timeout, span=span, doc_id=doc_id or None
                ),
                span=span,
            )
            return 200, {
                "wrapper": entry.name,
                "version": entry.version,
                "result": payload,
            }
        if path == "/batch":
            data = self._json_body(body)
            ref = data.get("wrapper")
            documents = data.get("documents")
            if not isinstance(ref, str) or not isinstance(documents, list) or not all(
                isinstance(doc, str) for doc in documents
            ):
                return 400, {
                    "error": "body must be {'wrapper': ref, 'documents': [html, ...]}"
                }
            try:
                entry = self.registry.resolve(ref)
            except ServeError as exc:
                return 404, {"error": str(exc)}
            self.metrics.incr("batch_requests")
            if span is not None:
                span.tag(wrapper=f"{entry.name}@{entry.version}")
            # Budget the whole batch like one linear pass; retries only
            # recompute the documents that failed (successes are cached).
            timeout = self.deadline_for(*documents)
            results = await self._with_retries(
                lambda: self.batcher.run_batch(
                    entry, documents, timeout=timeout, span=span
                ),
                span=span,
            )
            return 200, {
                "wrapper": entry.name,
                "version": entry.version,
                "results": results,
            }
        if path == "/wrappers":
            data = self._json_body(body)
            name = data.get("name")
            source = data.get("source")
            patterns = data.get("patterns")
            version = data.get("version")
            if not isinstance(name, str) or not isinstance(source, str):
                return 400, {"error": "registration needs 'name' and 'source'"}
            if patterns is not None and (
                not isinstance(patterns, list)
                or not all(isinstance(p, str) for p in patterns)
            ):
                return 400, {"error": "'patterns' must be a list of strings"}
            if version is not None and not isinstance(version, int):
                return 400, {"error": "'version' must be an integer"}
            # Compilation and persistence are CPU/disk work: run them off
            # the event loop so in-flight extractions never stall.
            entry = await asyncio.get_running_loop().run_in_executor(
                None,
                functools.partial(
                    self.registry.register,
                    name,
                    source,
                    kind=data.get("kind", "elog"),
                    patterns=patterns,
                    version=version,
                ),
            )
            self.metrics.incr("registrations")
            # Pre-install the fresh wrapper and report which shards
            # acked: operators learn immediately whether the cluster can
            # serve it (a dead daemon simply does not appear here -- its
            # install self-heals when it comes back).  One deadline covers
            # the whole install set; an install it cuts off is cancelled
            # and not reported.
            shards_acked: List[int] = []
            if self.executor is not None:
                with contextlib.suppress(Exception):
                    installs = self.executor.ensure_installed(
                        entry.cache_key, entry.wrapper
                    )
                    with contextlib.suppress(asyncio.TimeoutError):
                        await asyncio.wait_for(
                            asyncio.gather(
                                *map(asyncio.wrap_future, installs),
                                return_exceptions=True,
                            ),
                            self.deadline_base,
                        )
                    shards_acked = self.executor.installed_on(entry.cache_key)
            return 201, dict(entry.describe(), shards_acked=shards_acked)
        if path == "/quarantine/release":
            data = self._json_body(body)
            doc_hash = data.get("hash")
            if not isinstance(doc_hash, str) or not doc_hash:
                return 400, {"error": "body must be {'hash': '<content hash>'}"}
            released = self.quarantine.release(doc_hash)
            return (200 if released else 404), {
                "hash": doc_hash,
                "released": released,
            }
        return 404, {"error": f"no such route {path!r}"}

    @staticmethod
    def _json_body(body: bytes) -> dict:
        if not body:
            return {}
        try:
            data = json.loads(body)
        except ValueError:
            raise ServeError("request body is not valid JSON") from None
        if not isinstance(data, dict):
            raise ServeError("request body must be a JSON object")
        return data


class ServerThread:
    """Run a service on a dedicated event-loop thread.

    The embedding harness used by the test suite, the benchmark driver and
    any synchronous caller, for an :class:`ExtractionServer` here and a
    shard daemon as :class:`~repro.serve.shard.DaemonThread`.  The
    service has ``host``/``port`` and async ``start()``/``stop()``:
    ``start()`` blocks until the port is bound (propagating startup
    errors), ``stop()`` performs the service's graceful shutdown and
    joins the thread.
    """

    def __init__(self, server):
        self.server = server
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()
        self._error: Optional[BaseException] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_event: Optional[asyncio.Event] = None

    def start(self) -> Tuple[str, int]:
        name = type(self.server).__name__
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self._main()), name=name, daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout=30):
            raise ServeError(f"{name} thread failed to start within 30s")
        if self._error is not None:
            raise ServeError(f"{name} failed to start: {self._error}")
        return self.server.host, self.server.port

    def stop(self) -> None:
        if self._thread is None:
            return
        if self._loop is not None and self._stop_event is not None:
            with contextlib.suppress(RuntimeError):  # loop already closed
                self._loop.call_soon_threadsafe(self._stop_event.set)
        self._thread.join(timeout=30)
        self._thread = None

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        try:
            await self.server.start()
        except Exception as exc:
            self._error = exc
            self._started.set()
            return
        self._started.set()
        await self._stop_event.wait()
        await self.server.stop()
