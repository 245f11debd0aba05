"""Request tracing: per-request span trees, a bounded trace buffer,
and structured JSON request logging for the serving stack.

The paper's guarantee is that wrapper evaluation is linear in the
document (Theorem 4.2); the serve layer budgets deadlines on that
assumption.  Tracing is what makes the assumption *observable*: every
request gets a trace id and a tree of timed spans covering each stage it
passes through --

    http.request                the server's connection handler
      batcher.queue             time spent coalescing (queued requests)
      batch.flush               the shared flush a request rode in
        ring.route              consistent-hash routing (tags: shard,
                                rerouted)
        shard.call              one executor submission (local process,
                                inline thread, or remote daemon RPC)
          snapshot.build        HTML -> columnar snapshot, on the shard
          kernel.run            one kernel fixpoint, on the shard (tags:
                                engine, facts, and a warm run's reuse
                                counters)
      http.encode               JSON-encoding the response

-- so a slow request decomposes into *which stage* was slow, and
whether its kernel ran cold or warm is visible per request instead of
only in aggregate.

Spans are plain objects linked parent -> children; a span created for a
shared stage (one ``batch.flush`` serving many coalesced requests) is
attached to *every* member's tree -- serialization walks the shared
subtree once per trace.  Shards do not build spans at all:
every shard reply carries cheap per-page stats dicts, and the router
grafts them into the client-side trace as ``snapshot.build`` /
``kernel.run`` spans (see :meth:`Span.graft_kernel_stats`) -- tracing is
a router-side decision only.

The :class:`Tracer` keeps finished traces in a bounded ring buffer plus
two exemplar stores (the slowest N and the last N errored requests), so
``GET /debug/traces`` can still produce the *interesting* traces long
after the ring has rotated.  All of it is in-process and allocation-light;
the tracing-disabled path is ``span=None`` threaded through the stack
and costs one ``is not None`` test per stage (measured <= 5% end to end,
``benchmarks/bench_serve.py`` ``tracing_overhead`` row).

:class:`RequestLog` is the structured logging half: one JSON object per
line (trace id, route, status, stage timings, retries, reroutes,
quarantine strikes) replacing ad-hoc prints, to stderr or a file --
the same JSONL idiom as the fault-event log in :mod:`repro.serve.faults`.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
import threading
import time
from bisect import insort
from collections import OrderedDict, deque
from typing import Callable, Dict, List, Optional, Union

Clock = Callable[[], float]

#: Monotonic source for span timing; injectable per Tracer for tests.
_DEFAULT_CLOCK = time.perf_counter

#: Process-unique trace-id prefix + a counter: ids are unique without
#: any wall-clock or RNG dependency on the hot path.
_TRACE_PREFIX = os.urandom(4).hex()
_TRACE_COUNTER = itertools.count(1)


def new_trace_id() -> str:
    """A process-unique trace id (hex prefix + sequence number).

    >>> a, b = new_trace_id(), new_trace_id()
    >>> a != b and a.split("-")[0] == b.split("-")[0]
    True
    """
    return f"{_TRACE_PREFIX}-{next(_TRACE_COUNTER):06x}"


class Span:
    """One timed stage of a request; spans link into a tree.

    A span is *open* from construction until :meth:`finish`; children are
    created with :meth:`child` (sharing the parent's clock) or attached
    with :meth:`attach` (a span built elsewhere -- the shared
    ``batch.flush`` case).  ``tags`` carry small JSON-serializable facts
    (shard index, engine name, round count).

    Examples
    --------
    >>> now = [0.0]
    >>> root = Span("http.request", clock=lambda: now[0])
    >>> child = root.child("shard.call")
    >>> now[0] = 0.25
    >>> child.tag(shard=2); child.finish()
    >>> now[0] = 0.3
    >>> root.finish()
    >>> d = root.to_dict()
    >>> d["name"], d["elapsed_ms"], d["children"][0]["tags"]["shard"]
    ('http.request', 300.0, 2)
    >>> [s["name"] for s in root.find("shard.call")]
    ['shard.call']
    """

    __slots__ = ("name", "clock", "start", "end", "tags", "children", "error")

    def __init__(
        self, name: str, clock: Clock = _DEFAULT_CLOCK, tags: Optional[Dict] = None
    ):
        self.name = name
        self.clock = clock
        self.start = clock()
        self.end: Optional[float] = None
        self.tags: Dict = dict(tags) if tags else {}
        #: Child stages: Span objects, or already-serialized span dicts
        #: grafted from a remote shard's stats payload.
        self.children: List[Union["Span", dict]] = []
        self.error: Optional[str] = None

    def child(self, name: str, **tags) -> "Span":
        """Open a child span (inherits this span's clock)."""
        span = Span(name, clock=self.clock, tags=tags or None)
        self.children.append(span)
        return span

    def attach(self, span: Union["Span", dict]) -> None:
        """Attach an externally created span (or serialized span dict).

        The same object may be attached under several parents -- that is
        how one shared ``batch.flush`` appears in every member trace."""
        self.children.append(span)

    def tag(self, **tags) -> None:
        self.tags.update(tags)

    def fail(self, error: str) -> None:
        """Mark the span errored (also finishes it if still open)."""
        self.error = error
        if self.end is None:
            self.finish()

    def finish(self) -> None:
        if self.end is None:
            self.end = self.clock()

    @property
    def elapsed_ms(self) -> float:
        end = self.end if self.end is not None else self.clock()
        return (end - self.start) * 1e3

    def graft_kernel_stats(self, trace: dict) -> None:
        """Attach a shard-side per-page kernel-stats dict as child spans.

        ``trace`` is the cheap stats payload a (local or remote) shard
        returns per page: ``{"snapshot_build_ms", "kernel_ms", "runs":
        [per-plan stats dicts], ...}`` (see
        :meth:`repro.wrap.extraction.Wrapper.wrap_html_stateful`).
        Shards never build Span objects -- this is where their counters
        become ``snapshot.build`` and ``kernel.run`` spans in the
        client-side tree."""
        if not isinstance(trace, dict):
            return
        snapshot_ms = trace.get("snapshot_build_ms")
        if snapshot_ms is not None:
            self.children.append(
                {"name": "snapshot.build", "elapsed_ms": snapshot_ms, "tags": {}}
            )
        runs = trace.get("runs")
        kernel_ms = trace.get("kernel_ms")
        for run in runs if isinstance(runs, list) else []:
            tags = dict(run)
            self.children.append(
                {
                    "name": "kernel.run",
                    # One wrap may run several plans; the shard times
                    # them together, so the total is tagged on each.
                    "elapsed_ms": kernel_ms,
                    "tags": tags,
                }
            )

    def to_dict(self) -> dict:
        """Serialize the subtree (shared children are walked per parent)."""
        out = {
            "name": self.name,
            "elapsed_ms": round(self.elapsed_ms, 3),
            "tags": self.tags,
            "children": [
                c.to_dict() if isinstance(c, Span) else c for c in self.children
            ],
        }
        if self.error is not None:
            out["error"] = self.error
        return out

    def find(self, name: str) -> List[dict]:
        """Every span dict named ``name`` in this subtree (depth-first)."""
        return find_spans(self.to_dict(), name)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        state = "open" if self.end is None else f"{self.elapsed_ms:.1f}ms"
        return f"Span({self.name!r}, {state}, {len(self.children)} children)"


def find_spans(span_dict: dict, name: str) -> List[dict]:
    """Depth-first search of a serialized span tree by span name.

    >>> tree = {"name": "a", "children": [
    ...     {"name": "b", "children": [{"name": "b", "children": []}]}]}
    >>> len(find_spans(tree, "b"))
    2
    """
    found = []
    if span_dict.get("name") == name:
        found.append(span_dict)
    for child in span_dict.get("children", ()):
        if isinstance(child, dict):
            found.extend(find_spans(child, name))
    return found


class Tracer:
    """Bounded in-memory trace store with slow/error exemplar retention.

    Finished traces land in a ring of the most recent ``capacity``; on
    top of that, the slowest ``slow_exemplars`` and the last
    ``error_exemplars`` errored traces are pinned, so the interesting
    requests survive ring rotation.  ``GET /debug/traces`` lists the
    retained set; ``GET /debug/traces/<id>`` returns one full span tree.

    Examples
    --------
    >>> now = [0.0]
    >>> tracer = Tracer(capacity=2, slow_exemplars=1, clock=lambda: now[0])
    >>> ids = []
    >>> for ms in (5.0, 50.0, 1.0, 2.0):
    ...     span = tracer.start_trace("http.request", route="/extract/x")
    ...     now[0] += ms / 1e3
    ...     ids.append(tracer.finish_trace(span))
    >>> len(tracer.list()), tracer.get(ids[1])["root"]["elapsed_ms"]
    (3, 50.0)
    >>> err = tracer.start_trace("http.request")
    >>> err.fail("ShardCrashed: boom")
    >>> eid = tracer.finish_trace(err)
    >>> tracer.get(eid)["error"]
    'ShardCrashed: boom'
    """

    def __init__(
        self,
        capacity: int = 256,
        slow_exemplars: int = 16,
        error_exemplars: int = 16,
        clock: Clock = _DEFAULT_CLOCK,
    ):
        self.clock = clock
        self._lock = threading.Lock()
        self._recent: deque = deque(maxlen=max(1, capacity))
        #: trace id -> record, for every retained id.  ``record["root"]``
        #: holds the live Span until the first ``get`` serializes it.
        self._store: "OrderedDict[str, dict]" = OrderedDict()
        #: (elapsed_ms, trace id), ascending, capped at slow_exemplars.
        self._slow: List = []
        self._slow_cap = max(0, slow_exemplars)
        self._errors: deque = deque(maxlen=max(1, error_exemplars))
        #: Mirror sets of the three stores above: retention checks run
        #: once per request, so they must not scan a 256-entry deque.
        self._recent_ids: set = set()
        self._slow_ids: set = set()
        self._error_ids: set = set()

    def start_trace(self, name: str, **tags) -> Span:
        """Open a root span carrying a fresh trace id in its tags."""
        span = Span(name, clock=self.clock, tags=tags or None)
        span.tags["trace_id"] = new_trace_id()
        return span

    def finish_trace(self, span: Span) -> str:
        """Finish + store a root span; returns its trace id.

        The span tree is stored as is and serialized lazily on the first
        :meth:`get` -- the request hot path never walks the tree, it
        only appends to the ring and updates the exemplar stores."""
        span.finish()
        trace_id = span.tags.get("trace_id") or new_trace_id()
        elapsed_ms = (span.end - span.start) * 1e3
        record = {
            "trace_id": trace_id,
            "root": span,
            "elapsed_ms": round(elapsed_ms, 3),
        }
        if span.error is not None:
            record["error"] = span.error
        with self._lock:
            self._store[trace_id] = record
            # Enter the ring *before* exemplar bookkeeping so a trace that
            # loses an exemplar slot is still retained as a recent trace.
            evicted = []
            if len(self._recent) == self._recent.maxlen:
                old = self._recent[0]
                self._recent_ids.discard(old)
                evicted.append(old)
            self._recent.append(trace_id)
            self._recent_ids.add(trace_id)
            if span.error is not None:
                if len(self._errors) == self._errors.maxlen:
                    old = self._errors[0]
                    self._error_ids.discard(old)
                    evicted.append(old)
                self._errors.append(trace_id)
                self._error_ids.add(trace_id)
            else:
                self._note_slow(elapsed_ms, trace_id)
            for old in evicted:
                self._maybe_drop(old)
        return trace_id

    def _note_slow(self, elapsed_ms: float, trace_id: str) -> None:
        if not self._slow_cap:
            return
        slow = self._slow
        # Steady state: the store is full and most requests are faster
        # than the slowest-N floor -- two comparisons, no list motion.
        if len(slow) >= self._slow_cap and elapsed_ms <= slow[0][0]:
            return
        insort(slow, (elapsed_ms, trace_id))
        self._slow_ids.add(trace_id)
        while len(slow) > self._slow_cap:
            _, dropped = slow.pop(0)
            self._slow_ids.discard(dropped)
            self._maybe_drop(dropped)

    def _retained(self, trace_id: str) -> bool:
        return (
            trace_id in self._recent_ids
            or trace_id in self._error_ids
            or trace_id in self._slow_ids
        )

    def _maybe_drop(self, trace_id: str) -> None:
        if not self._retained(trace_id):
            self._store.pop(trace_id, None)

    def get(self, trace_id: str) -> Optional[dict]:
        """The full serialized trace, or ``None`` if not retained."""
        with self._lock:
            record = self._store.get(trace_id)
            if record is None:
                return None
            root = record["root"]
            if isinstance(root, Span):
                # First read: serialize once and cache the dict so the
                # debug endpoint never re-walks a retained trace.
                record["root"] = root.to_dict()
            return record

    def list(self) -> List[dict]:
        """Summaries of every retained trace, most recent first."""
        with self._lock:
            slow_ids = self._slow_ids
            error_ids = self._error_ids
            out = []
            for trace_id, record in reversed(self._store.items()):
                root = record["root"]
                if isinstance(root, Span):
                    name = root.name
                    route = root.tags.get("route")
                else:
                    name = root.get("name")
                    route = root.get("tags", {}).get("route")
                out.append(
                    {
                        "trace_id": trace_id,
                        "name": name,
                        "route": route,
                        "elapsed_ms": record["elapsed_ms"],
                        "error": record.get("error"),
                        "exemplar": (
                            "error"
                            if trace_id in error_ids
                            else "slow"
                            if trace_id in slow_ids
                            else None
                        ),
                    }
                )
            return out

    def __len__(self) -> int:
        with self._lock:
            return len(self._store)


class RequestLog:
    """Structured JSON logging: one object per line, machine-greppable.

    Replaces the serving stack's ad-hoc ``print`` lines.  ``sink`` is a
    file path (appended, like the fault-event log), a writable stream,
    or ``None`` for stderr.  Every record carries ``event`` and ``ts``
    (wall clock, for cross-box correlation) plus whatever fields the
    caller passes -- for request lines that is the trace id, route,
    status, stage timings, retry/reroute counts and quarantine strikes.

    >>> import io
    >>> stream = io.StringIO()
    >>> log = RequestLog(stream)
    >>> log.log("request", trace_id="ab-1", route="/extract/x", status=200)
    >>> record = json.loads(stream.getvalue())
    >>> record["event"], record["status"]
    ('request', 200)
    """

    def __init__(self, sink: Union[str, object, None] = None):
        self._lock = threading.Lock()
        self._path: Optional[str] = None
        self._stream = None
        if isinstance(sink, str):
            self._path = sink
        elif sink is not None:
            self._stream = sink

    def log(self, event: str, **fields) -> None:
        record = {"event": event, "ts": round(time.time(), 6)}
        record.update(fields)
        line = json.dumps(record, default=str)
        try:
            with self._lock:
                if self._path is not None:
                    with open(self._path, "a", encoding="utf-8") as handle:
                        handle.write(line + "\n")
                else:
                    stream = self._stream if self._stream is not None else sys.stderr
                    stream.write(line + "\n")
                    flush = getattr(stream, "flush", None)
                    if flush is not None:
                        flush()
        except (OSError, ValueError):  # pragma: no cover - sink unwritable
            pass


def stage_timings(root: Span) -> Dict[str, float]:
    """Aggregate per-stage elapsed milliseconds from one request's tree.

    Sums every span of the same name (a retried request has several
    ``shard.call`` children) -- the compact per-request timing summary
    the structured request log line carries.

    >>> now = [0.0]
    >>> root = Span("http.request", clock=lambda: now[0])
    >>> a = root.child("shard.call"); now[0] = 0.010; a.finish()
    >>> b = root.child("shard.call"); now[0] = 0.030; b.finish()
    >>> now[0] = 0.040; root.finish()
    >>> timings = stage_timings(root)
    >>> timings["http.request"], timings["shard.call"]
    (40.0, 30.0)
    """
    totals: Dict[str, float] = {}
    # Walk the live tree (Span objects mixed with grafted span dicts)
    # directly -- this runs once per request, so it must not pay for a
    # full to_dict serialization.
    stack: List[Union[Span, dict]] = [root]
    while stack:
        node = stack.pop()
        if isinstance(node, Span):
            # Slot reads, not the elapsed_ms property: this loop is the
            # single hottest traced-only code on the server thread.
            end = node.end
            if end is None:
                end = node.clock()
            name = node.name
            totals[name] = totals.get(name, 0.0) + (end - node.start) * 1e3
            stack.extend(node.children)
            continue
        name = node.get("name")
        elapsed = node.get("elapsed_ms")
        children = node.get("children", ())
        if isinstance(name, str) and isinstance(elapsed, (int, float)):
            totals[name] = totals.get(name, 0.0) + elapsed
        if isinstance(children, (list, tuple)):
            stack.extend(children)
    return {name: round(total, 3) for name, total in totals.items()}
