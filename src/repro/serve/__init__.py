"""``repro.serve``: the wrapper-serving subsystem.

The paper's wrappers were built to run continuously against live Web
pages; this package is the layer that actually *serves* them.  It sits on
top of the compile-once / kernel / streaming stack and is composed of
four pieces, each usable on its own:

* :mod:`repro.serve.registry` -- :class:`WrapperRegistry`: named and
  versioned compiled wrappers (Elog- or monadic datalog source ->
  :meth:`repro.wrap.extraction.Wrapper.compile`), persisted as one JSON
  spec per wrapper and compiled again from source on startup;
* :mod:`repro.serve.executor` -- :class:`ShardExecutor`: a fixed set of
  long-lived shards (the only place documents are evaluated in
  parallel), each a :class:`ShardDaemon` forked onto a Unix socket
  and reached over the same framed RPC as a remote daemon; each compiled
  wrapper is pickled to a shard exactly once and documents are routed to
  shards by content hash.  Every shard, local or remote, runs one
  operation on one :class:`ShardStore`: ``(html, doc_id | None)`` items
  in, ``{"pages", "kernel"}`` (outputs plus per-page stats) out;
* :mod:`repro.serve.batcher` -- :class:`MicroBatcher`: coalesces
  concurrent single-document requests into kernel batches (flush on size
  or deadline), dedupes identical documents inside a batch, and fronts
  everything with a content-hash LRU :class:`repro.serve.cache.ResultCache`
  so repeated documents skip parse + fixpoint entirely;
* :mod:`repro.serve.server` -- :class:`ExtractionServer`: a stdlib-only
  asyncio HTTP server exposing ``POST /extract/{wrapper}@{version}``,
  ``POST /batch``, ``GET/POST /wrappers``, ``GET /healthz`` and
  ``GET /metrics``, with bounded-queue backpressure (503) and graceful
  shutdown.  Run it as ``python -m repro.serve``.

Fault tolerance rides on top (``repro.serve.supervisor`` /
``repro.serve.faults``): size-derived per-request deadlines with hung
workers killed at the bound, automatic retry with jittered backoff for
crashed shards, poison-page quarantine (batch bisection isolates the
offending document; 422 after N strikes, ``/quarantine`` to inspect),
per-shard circuit breakers fed by a background health checker that
respawn sick shards and reroute their keys, and a deterministic fault
injector (kill / delay / hang / corrupt on the Nth call, poison-marker
pages, plus the network kinds drop_conn / delay_frame / garble_frame)
used by the chaos tests and the CI chaos jobs.

The cluster layer (``repro.serve.shard`` / ``repro.serve.transport`` /
``repro.serve.ring``) extends the same machinery across boxes: shard
daemons (``python -m repro.serve.shard --listen host:port``) speak a
length-prefixed frame protocol, :class:`RemoteShardExecutor` maps every
transport failure onto the error taxonomy above (so retries, breakers
and quarantine apply unchanged), and one static consistent-hash
:class:`HashRing` over the shards makes every shard choice; the
supervisor keeps shard health as a membership set over it, so a dead or
draining daemon moves only its own key interval.

Observability (``repro.serve.tracing`` / ``repro.serve.metrics``): every
request gets a :class:`~repro.serve.tracing.Span` tree --
``http.request`` down through batcher queueing, ring routing, shard RPC,
and the kernel run itself (engine, facts, warm reuse counters), grafted
from the per-page stats every shard reply carries.  A bounded :class:`Tracer` retains
recent traces plus slow/error exemplars behind ``GET /debug/traces``;
:class:`ServeMetrics` keeps fixed-bucket latency histograms per stage
and per wrapper version, exported as JSON (``/metrics``) or Prometheus
text exposition (``/metrics?format=prometheus``); and
:class:`RequestLog` emits one structured JSON line per request.

Quickstart::

    from repro.serve import ExtractionServer, WrapperRegistry

    registry = WrapperRegistry("var/wrappers")      # persistent, warm-loads
    registry.register("catalog", ELOG_SOURCE, kind="elog")
    server = ExtractionServer(registry, port=8421, shards=2)
    # await server.start() inside an event loop, or:
    #   python -m repro.serve --registry-dir var/wrappers --shards 2
"""

from repro.serve.batcher import MicroBatcher
from repro.serve.cache import ResultCache
from repro.serve.executor import ShardExecutor, ShardStore, content_hash
from repro.serve.faults import FaultInjector, FaultPlan
from repro.serve.metrics import ServeMetrics, parse_prometheus_text
from repro.serve.registry import RegisteredWrapper, WrapperRegistry
from repro.serve.ring import HashRing
from repro.serve.server import ExtractionServer, ServerThread
from repro.serve.supervisor import CircuitBreaker, Quarantine, ShardSupervisor
from repro.serve.tracing import RequestLog, Span, Tracer, find_spans, stage_timings
from repro.serve.transport import RemoteShardExecutor

__all__ = [
    "CircuitBreaker",
    "DaemonThread",
    "ExtractionServer",
    "FaultInjector",
    "FaultPlan",
    "HashRing",
    "MicroBatcher",
    "Quarantine",
    "RegisteredWrapper",
    "RemoteShardExecutor",
    "RequestLog",
    "ResultCache",
    "ServeMetrics",
    "ServerThread",
    "ShardDaemon",
    "ShardExecutor",
    "ShardStore",
    "ShardSupervisor",
    "Span",
    "Tracer",
    "WrapperRegistry",
    "content_hash",
    "find_spans",
    "parse_prometheus_text",
    "stage_timings",
]


def __getattr__(name: str):
    # The daemon module loads on first use, so that running it as
    # ``python -m repro.serve.shard`` does not find it imported already.
    if name in ("DaemonThread", "ShardDaemon"):
        from repro.serve import shard

        return getattr(shard, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
