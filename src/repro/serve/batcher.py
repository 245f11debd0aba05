"""Micro-batching queue: coalesce concurrent requests into kernel batches.

Single-document requests arriving within a short window are queued per
wrapper and flushed together -- when the queue reaches ``max_batch`` or
when the oldest entry's deadline (``max_delay`` seconds) expires,
whichever comes first.  One flush turns into at most one
:class:`~repro.serve.executor.ShardExecutor` submission per shard, so
under concurrency the per-request shard round trip (pickling,
socket hand-off, wakeup) is amortized across the whole batch.  The
committed ``benchmarks/BENCH_serve.json`` (``bench_serve.py``, 2 cores)
reads 1.74x the naive one-request-one-submission path at concurrency 8
and 4.8x at concurrency 32 on its hot-page stream.

A request may name its document with a ``doc_id`` (a URL, a crawl key):
it then routes by ``content_hash(doc_id)`` instead of by content, so every
version of the document lands on the shard holding the previous
version's snapshot and derived masks, which re-derives only the changed
region.  Such requests queue, coalesce and fail over exactly like the
others: every shard call carries ``(html, doc_id | None)`` items and
returns the per-page stats alongside the outputs.

Two further document-level savings happen before anything is submitted:

* identical documents inside one batch are deduplicated by content hash
  (and ``doc_id``) and evaluated once;
* every document is first looked up in the shared
  :class:`~repro.serve.cache.ResultCache`; hits never leave the event
  loop.

Coalescing is *adaptive*: queueing only pays off when requests actually
overlap, and at concurrency 1 the ``max_delay`` wait is pure added
latency (the measured 0.26x-of-naive regression).  ``submit`` therefore
bypasses the queue and evaluates immediately whenever the observed
concurrency -- the number of documents already queued or in flight --
is below ``bypass_concurrency`` and no batch is forming for the same
wrapper.  Under load the pending count rises past the threshold within
one round trip and coalescing engages as before.

Backpressure is a bounded pending-document budget: when ``max_pending``
documents are queued or in flight, new work raises
:class:`~repro.errors.ServerOverloaded` (the HTTP layer maps it to 503).
The budget is released in ``finally`` blocks on every path, so a
crash-looping shard cannot leak the server into permanent 503s.

Fault tolerance (see also :mod:`repro.serve.supervisor`):

* every evaluation has one absolute deadline: ``timeout`` after the call
  starts for a bypassed request or ``POST /batch``, and for a coalesced
  flush the latest member's enqueue time plus its ``timeout``.  Each
  shard call (wrapper install included) and each bisection half gets
  only the time left until it; a call that overruns gets its worker
  **killed and respawned** and fails with the retryable
  :class:`~repro.errors.RequestTimeout`, so one hung evaluation can
  never wedge a coalesced batch, and a half with no time left fails
  without a shard call;
* shard replies are validated (one output dict and one stats dict per
  page); corruption is treated as a crash;
* when a *multi-document* shard call crashes, the batch is **bisected**
  and the halves re-submitted, isolating the offending document(s):
  innocent batch-mates still succeed, and each single-document crash
  earns the document a quarantine strike
  (:class:`~repro.serve.supervisor.Quarantine`) -- quarantined hashes
  are rejected with :class:`~repro.errors.PoisonDocument` before any
  shard is risked again;
* failures are per *document*: one poison page in a coalesced flush
  fails only its own future;
* when a :class:`~repro.serve.supervisor.ShardSupervisor` is attached,
  submissions route around shards whose circuit breaker is open and
  every call outcome feeds the breakers.

The batcher must be used from a single asyncio event loop.
"""

from __future__ import annotations

import asyncio
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.errors import (
    PoisonDocument,
    RequestTimeout,
    RetryableServeError,
    ServeError,
    ServerOverloaded,
    ShardCrashed,
)
from repro.serve.cache import ResultCache
from repro.serve.executor import ShardExecutor, content_hash
from repro.serve.faults import validate_reply
from repro.serve.metrics import ServeMetrics
from repro.serve.registry import RegisteredWrapper
from repro.serve.supervisor import Quarantine, ShardSupervisor
from repro.serve.tracing import Span

#: A per-document evaluation outcome: the payload, or the error that
#: should reach exactly that document's waiter.
Outcome = Union[dict, BaseException]

#: A document in flight: ``(html, content hash, doc_id or None)``.
Doc = Tuple[str, str, Optional[str]]

#: What one shard evaluation is keyed by: ``(content hash, doc_id)``.
#: Identical documents are evaluated once per batch, but versions named
#: by different doc_ids are not folded together (each owes its state).
Key = Tuple[str, Optional[str]]


def _now() -> float:
    return asyncio.get_running_loop().time()


def _deadline(timeout: Optional[float]) -> Optional[float]:
    """The absolute deadline ``timeout`` seconds from now (loop clock)."""
    return None if timeout is None else _now() + timeout


def _expired(deadline: Optional[float]) -> bool:
    return deadline is not None and deadline <= _now()


class _Queue:
    """Per-wrapper pending micro-batch."""

    __slots__ = ("entry", "items", "timer")

    def __init__(self, entry: RegisteredWrapper):
        self.entry = entry
        #: ``(doc, future, deadline, span, queue_span)`` tuples awaiting a
        #: flush; ``deadline`` is the enqueue time plus the request's
        #: ``timeout`` (loop clock, ``None`` for no bound), and the span
        #: pair is ``(None, None)`` when the request is untraced.
        self.items: List[
            Tuple[
                Doc,
                asyncio.Future,
                Optional[float],
                Optional[Span],
                Optional[Span],
            ]
        ] = []
        self.timer: Optional[asyncio.TimerHandle] = None


class MicroBatcher:
    """Coalesces requests, dedupes documents, fronts the shard executor."""

    def __init__(
        self,
        executor: ShardExecutor,
        cache: ResultCache,
        metrics: ServeMetrics,
        max_batch: int = 16,
        max_delay: float = 0.010,
        max_pending: int = 256,
        bypass_concurrency: int = 1,
        quarantine: Optional[Quarantine] = None,
        supervisor: Optional[ShardSupervisor] = None,
    ):
        self._executor = executor
        self._cache = cache
        self._metrics = metrics
        self.max_batch = max_batch
        self.max_delay = max_delay
        self.max_pending = max_pending
        self.bypass_concurrency = bypass_concurrency
        self.quarantine = quarantine if quarantine is not None else Quarantine()
        self.supervisor = supervisor
        self._queues: Dict[str, _Queue] = {}
        self._pending = 0
        #: Unresolved futures of queued/in-flight coalesced requests, so
        #: drain() can fail them explicitly instead of abandoning them.
        self._inflight: Set[asyncio.Future] = set()

    async def _content_hashes(self, pages: Sequence[str]) -> List[str]:
        """Content hashes for a batch, off the event loop when large.

        sha256 over megabytes of HTML is real CPU time; beyond ~1MB total
        it moves to the default thread pool so concurrent requests,
        health checks and flush timers keep running.
        """
        if sum(len(page) for page in pages) <= 1_000_000:
            return [content_hash(page) for page in pages]
        return await asyncio.get_running_loop().run_in_executor(
            None, lambda: [content_hash(page) for page in pages]
        )

    @property
    def pending(self) -> int:
        """Documents currently queued or in flight."""
        return self._pending

    def _route(self, routing_hash: str) -> Tuple[int, bool]:
        """``(shard, rerouted)`` for one routing key (doc content hash or
        doc_id hash), read off the executor's consistent-hash ring.

        Without a supervisor that is the key's home shard
        (``executor.shard_for``); with one, the first healthy ring
        member from the key's point, which is the same shard while every
        shard is healthy (membership change moves only the affected key
        intervals)."""
        if self.supervisor is not None:
            return self.supervisor.route_hash(routing_hash)
        return self._executor.shard_for(routing_hash), False

    # -- request entry points ------------------------------------------------

    async def submit(
        self,
        entry: RegisteredWrapper,
        html: str,
        timeout: Optional[float] = None,
        span: Optional[Span] = None,
        doc_id: Optional[str] = None,
    ) -> dict:
        """One document through the coalescing queue; returns its payload.

        ``timeout`` bounds the shard calls this document participates
        in; a call that exceeds it kills the hung worker and fails with
        :class:`~repro.errors.RequestTimeout` (retryable upstream).  A
        queued document waits for its coalesced call under its own
        ``timeout`` from enqueue: past it, this request alone fails with
        :class:`~repro.errors.RequestTimeout`, while the shared call runs
        on for its batch-mates (and caches their results) until the
        latest member's deadline.
        ``span``, when given, is the request's root span: the batcher
        hangs ``batcher.queue`` / ``batch.flush`` / ``ring.route`` /
        ``shard.call`` children off it as the document moves through.
        ``doc_id`` names the document across versions and takes the
        incremental warm path (see the module docstring); a state miss
        (first visit, evicted state, respawned worker) is simply a cold
        run, and the exact-match result cache still short-circuits
        unchanged re-crawls before any shard is touched.
        """
        doc_hash = (await self._content_hashes([html]))[0]
        # Quarantine outranks the cache: a poisoned hash is rejected
        # before it can touch any shared machinery again.
        self.quarantine.check(doc_hash)
        hit = self._cache.get((entry.cache_key, doc_hash))
        if hit is not None:
            self._metrics.incr("cache_hits")
            return hit
        if self._pending >= self.max_pending:
            self._metrics.incr("rejected")
            raise ServerOverloaded(
                f"serving queue full ({self._pending}/{self.max_pending} documents)"
            )
        doc = (html, doc_hash, doc_id)
        queue = self._queues.get(entry.cache_key)
        if self._pending < self.bypass_concurrency and (
            queue is None or not queue.items
        ):
            # Below the concurrency threshold coalescing cannot help (there
            # is nothing to coalesce with) and the flush delay is pure
            # latency: evaluate immediately on this task, skipping the
            # queue -- one document, one shard, one future.
            self._metrics.incr("bypassed")
            self._pending += 1
            try:
                outcome = (
                    await self._evaluate(entry, [doc], _deadline(timeout), span=span)
                )[0]
            finally:
                self._pending -= 1
            if isinstance(outcome, BaseException):
                raise outcome
            return outcome
        loop = asyncio.get_running_loop()
        if queue is None:
            queue = self._queues[entry.cache_key] = _Queue(entry)
        future: asyncio.Future = loop.create_future()
        self._inflight.add(future)
        future.add_done_callback(self._inflight.discard)
        queue_span = span.child("batcher.queue") if span is not None else None
        queue.items.append((doc, future, _deadline(timeout), span, queue_span))
        self._pending += 1
        if len(queue.items) >= self.max_batch:
            self._schedule_flush(entry.cache_key)
        elif queue.timer is None:
            queue.timer = loop.call_later(
                self.max_delay, self._schedule_flush, entry.cache_key
            )
        try:
            # The shield keeps the flush running for the batch-mates when
            # this waiter gives up.
            return await asyncio.wait_for(asyncio.shield(future), timeout)
        except asyncio.TimeoutError:
            # No waiter is left: _flush skips a cancelled future, so its
            # outcome is never set and never left unretrieved.
            future.cancel()
            self._metrics.incr("timeouts")
            raise RequestTimeout(
                f"coalesced shard call exceeded this request's {timeout:.3f}s "
                "budget; retry the request"
            ) from None

    async def run_batch(
        self,
        entry: RegisteredWrapper,
        pages: Sequence[str],
        timeout: Optional[float] = None,
        span: Optional[Span] = None,
    ) -> List[dict]:
        """An already-batched request (``POST /batch``): no coalescing
        wait, but the same cache, dedup, sharding and backpressure.

        All-or-nothing: if any document fails after isolation, the worst
        error propagates (retryable errors first, so an upstream retry
        can still complete the batch -- successes are already cached)."""
        if not pages:
            return []
        if len(pages) > self.max_pending:
            # Never satisfiable at this size: a client error, not load.
            raise ServeError(
                f"batch of {len(pages)} documents exceeds the server's "
                f"pending budget of {self.max_pending}; split the batch"
            )
        if self._pending + len(pages) > self.max_pending:
            self._metrics.incr("rejected")
            raise ServerOverloaded(
                f"serving queue full ({self._pending}+{len(pages)}"
                f"/{self.max_pending} documents)"
            )
        self._pending += len(pages)
        try:
            hashes = await self._content_hashes(pages)
            outcomes = await self._evaluate(
                entry,
                [(page, doc_hash, None) for page, doc_hash in zip(pages, hashes)],
                _deadline(timeout),
                span=span,
            )
        finally:
            self._pending -= len(pages)
        failure: Optional[BaseException] = None
        for outcome in outcomes:
            if isinstance(outcome, BaseException):
                if isinstance(outcome, RetryableServeError):
                    raise outcome
                failure = failure or outcome
        if failure is not None:
            raise failure
        return outcomes  # type: ignore[return-value]

    async def drain(self, timeout: float = 30.0) -> None:
        """Flush every pending queue and wait for the results (shutdown).

        Bounded: after ``timeout`` seconds, requests that still have not
        resolved are *failed explicitly* (each waiter gets a
        :class:`~repro.errors.ShardCrashed` -- retryable against the
        replacement server) and counted in the ``drain_abandoned``
        metric, rather than being silently dropped with the event loop.
        """
        flushes = [
            self._flush(key) for key in list(self._queues) if self._queues[key].items
        ]
        if flushes:
            await asyncio.gather(*flushes, return_exceptions=True)
        deadline = asyncio.get_running_loop().time() + timeout
        while self._pending and asyncio.get_running_loop().time() < deadline:
            await asyncio.sleep(0.005)
        if self._pending:
            abandoned = [f for f in list(self._inflight) if not f.done()]
            for future in abandoned:
                future.set_exception(
                    ShardCrashed(
                        "server shut down before this request completed; "
                        "retry against the replacement"
                    )
                )
            if abandoned:
                self._metrics.incr("drain_abandoned", len(abandoned))

    # -- internals -----------------------------------------------------------

    def _schedule_flush(self, key: str) -> None:
        queue = self._queues.get(key)
        if queue is None or not queue.items:
            return
        if queue.timer is not None:
            queue.timer.cancel()
            queue.timer = None
        asyncio.ensure_future(self._flush(key))

    async def _flush(self, key: str) -> None:
        queue = self._queues.pop(key, None)
        if queue is None or not queue.items:
            return
        if queue.timer is not None:
            queue.timer.cancel()
            queue.timer = None
        items = queue.items
        # One shard call serves the whole batch: it may run until the
        # latest member deadline, and no later -- past it every waiter
        # has gone.  Each member waits under its own deadline in
        # submit(), so a stricter one fails only its own request.
        deadlines = [deadline for _, _, deadline, _, _ in items]
        deadline = None if None in deadlines else max(deadlines)
        self._metrics.observe_batch(len(items))
        # One shared ``batch.flush`` span object, attached into *every*
        # traced member's tree: each trace shows the same flush (same
        # timings, same batch size) its request rode in.
        flush_span: Optional[Span] = None
        for _, _, _, span, queue_span in items:
            if queue_span is not None:
                queue_span.finish()
            if span is not None:
                if flush_span is None:
                    flush_span = Span("batch.flush", clock=span.clock)
                    flush_span.tag(batch_size=len(items))
                span.attach(flush_span)
        try:
            outcomes = await self._evaluate(
                queue.entry,
                [doc for doc, _, _, _, _ in items],
                deadline,
                span=flush_span,
            )
            for (_, future, _, _, _), outcome in zip(items, outcomes):
                if future.done():
                    continue
                if isinstance(outcome, BaseException):
                    future.set_exception(outcome)
                else:
                    future.set_result(outcome)
        except Exception as exc:  # defensive: propagate to every waiter
            for _, future, _, _, _ in items:
                if not future.done():
                    future.set_exception(exc)
        finally:
            if flush_span is not None:
                flush_span.finish()
            self._pending -= len(items)

    async def _evaluate(
        self,
        entry: RegisteredWrapper,
        docs: Sequence[Doc],
        deadline: Optional[float],
        span: Optional[Span] = None,
    ) -> List[Outcome]:
        """Resolve docs to per-document outcomes, via the cache, with
        in-batch dedup and one submission per healthy shard, all by
        ``deadline`` (loop clock, ``None`` for no bound).

        ``span`` is the parent for ``ring.route`` / ``shard.call``
        children: the request's root span on the bypass path, the shared
        ``batch.flush`` span for a coalesced flush."""
        results: List[Optional[Outcome]] = [None] * len(docs)
        misses: Dict[Key, List[int]] = {}
        for index, (_, doc_hash, doc_id) in enumerate(docs):
            if self.quarantine.is_quarantined(doc_hash):
                self._metrics.incr("poison_rejected")
                results[index] = PoisonDocument(
                    f"document {doc_hash[:12]} is quarantined; "
                    "POST /quarantine/release to retry it"
                )
                continue
            hit = self._cache.get((entry.cache_key, doc_hash))
            if hit is not None:
                self._metrics.incr("cache_hits")
                results[index] = hit
            else:
                misses.setdefault((doc_hash, doc_id), []).append(index)
        if misses:
            # Per *document*, like cache_hits, so hits + misses adds up
            # to documents and /metrics hit rates are meaningful.
            self._metrics.incr(
                "cache_misses", sum(len(indexes) for indexes in misses.values())
            )
            route_span = span.child("ring.route") if span is not None else None
            by_shard: Dict[int, List[Key]] = {}
            rerouted = 0
            for key in misses:
                doc_hash, doc_id = key
                routing_hash = doc_hash if doc_id is None else content_hash(doc_id)
                shard, moved = self._route(routing_hash)
                by_shard.setdefault(shard, []).append(key)
                rerouted += moved
            if route_span is not None:
                route_span.tag(shards=sorted(by_shard), rerouted=rerouted)
                if len(by_shard) == 1:
                    route_span.tag(shard=next(iter(by_shard)))
                route_span.finish()
            pages_by_key = {key: docs[indexes[0]][0] for key, indexes in misses.items()}
            groups = await asyncio.gather(
                *(
                    self._call_group(
                        entry, shard, keys, pages_by_key, deadline, span=span
                    )
                    for shard, keys in by_shard.items()
                )
            )
            for group in groups:
                for key, outcome in group.items():
                    if not isinstance(outcome, BaseException):
                        self._cache.put((entry.cache_key, key[0]), outcome)
                    for index in misses[key]:
                        results[index] = outcome
        self._metrics.incr("documents", len(docs))
        return results  # type: ignore[return-value]

    async def _call_group(
        self,
        entry: RegisteredWrapper,
        shard: int,
        keys: List[Key],
        pages_by_key: Dict[Key, str],
        deadline: Optional[float],
        span: Optional[Span] = None,
    ) -> Dict[Key, Outcome]:
        """One shard sub-batch, with crash bisection.

        Returns an outcome per key.  On a crash of a multi-document call
        with time left before ``deadline``, the batch is split and both
        halves re-run (the shard has respawned in between; ``_call_once``
        re-installs the wrapper), so only genuinely poisonous documents
        keep failing.  A single-document crash earns a quarantine
        strike.  A group with no time left fails with
        :class:`~repro.errors.RequestTimeout` without a shard call.
        Each attempt (including bisection halves) opens its own
        ``shard.call`` child span, so retries are visible per trace."""
        if _expired(deadline):
            late = RequestTimeout(
                "no time left before the request deadline for this shard "
                "call; retry the request"
            )
            return dict.fromkeys(keys, late)
        items = [(pages_by_key[key], key[1]) for key in keys]
        try:
            payloads = await self._call_once(
                entry, shard, items, deadline, span=span
            )
        except RetryableServeError as exc:
            if self.supervisor is not None:
                self.supervisor.record_failure(shard)
            if len(keys) > 1 and not _expired(deadline):
                self._metrics.incr("bisections")
                mid = len(keys) // 2
                left = await self._call_group(
                    entry, shard, keys[:mid], pages_by_key, deadline, span=span
                )
                right = await self._call_group(
                    entry, shard, keys[mid:], pages_by_key, deadline, span=span
                )
                left.update(right)
                return left
            # Strike only when the crash is attributable to this one
            # document: the worker died *while evaluating it*.  Blameless
            # crashes (install failures, a shard that was unreachable
            # before the pages were sent, wrapper-not-resident) and plain
            # timeouts never quarantine.
            if (
                len(keys) == 1
                and isinstance(exc, ShardCrashed)
                and not exc.blameless
            ):
                if self.quarantine.strike(keys[0][0]):
                    self._metrics.incr("quarantined")
                if span is not None:
                    span.tag(
                        quarantine_strikes=span.tags.get("quarantine_strikes", 0)
                        + 1
                    )
            return dict.fromkeys(keys, exc)
        if self.supervisor is not None:
            self.supervisor.record_success(shard)
        outcomes: Dict[Key, Outcome] = {}
        for key, payload in zip(keys, payloads):
            self.quarantine.absolve(key[0])
            outcomes[key] = payload
        return outcomes

    async def _call_once(
        self,
        entry: RegisteredWrapper,
        shard: int,
        items: List[Tuple[str, Optional[str]]],
        deadline: Optional[float],
        span: Optional[Span] = None,
    ) -> List[dict]:
        """One bounded shard call: install if needed, submit, validate.

        One deadline covers the install, the submission and the reply.
        Maps worker death to :class:`~repro.errors.ShardCrashed` and a
        deadline overrun to a worker kill + respawn +
        :class:`~repro.errors.RequestTimeout`.  Failures in the install
        phase -- before the pages ever reach a worker -- are marked
        ``blameless`` so an innocent document retrying into a shard that
        an *earlier* crash took down does not accumulate quarantine
        strikes.

        The reply's per-page stats feed the incremental metrics for
        ``doc_id`` items and, with ``span`` set, are grafted into the
        ``shard.call`` child span as ``snapshot.build`` / ``kernel.run``
        spans."""
        call_span = (
            span.child("shard.call", shard=shard, pages=len(items))
            if span is not None
            else None
        )
        trace = None if span is None else {"trace_id": span.tags.get("trace_id")}
        timeout = None if deadline is None else deadline - _now()
        try:
            try:
                result = await asyncio.wait_for(
                    self._install_and_wrap(entry, shard, items, trace), timeout
                )
            except asyncio.TimeoutError:
                self._metrics.incr("timeouts")
                # The worker is wedged (or just too slow for this budget):
                # kill it so the rest of its queue is not stuck behind it.
                self._executor.kill_shard(shard)
                raise RequestTimeout(
                    f"shard call exceeded its {timeout:.3f}s budget; "
                    "worker killed and respawned, retry the request"
                ) from None
            payloads, stats = validate_reply(result, len(items))
        except BaseException as exc:
            if call_span is not None:
                call_span.fail(f"{type(exc).__name__}: {exc}")
            raise
        for (_, doc_id), page_stats in zip(items, stats):
            if doc_id is None:
                continue
            if page_stats.get("snapshot_reused"):
                self._metrics.incr("snapshot_reuses")
            if page_stats.get("warm"):
                self._metrics.incr("incremental_hits")
            else:
                self._metrics.incr("incremental_misses")
        if call_span is not None:
            for page_stats in stats:
                call_span.graft_kernel_stats(page_stats)
            call_span.tag(warm=any(s.get("warm") for s in stats))
            call_span.finish()
        return payloads

    async def _install_and_wrap(
        self,
        entry: RegisteredWrapper,
        shard: int,
        items: List[Tuple[str, Optional[str]]],
        trace: Optional[dict],
    ):
        """Install the wrapper on ``shard`` if needed, then wrap ``items``.

        Runs under the caller's one deadline.  A crash before the pages
        reach the worker is marked ``blameless``."""
        try:
            for install in self._executor.ensure_installed(
                entry.cache_key, entry.wrapper, shard=shard
            ):
                await asyncio.wrap_future(install)
            submission = self._executor.submit(
                shard, entry.cache_key, items, trace=trace
            )
        except ShardCrashed as exc:
            exc.blameless = True
            raise
        return await asyncio.wrap_future(submission)
