"""Tests for request tracing, the trace buffer, and Prometheus export.

Covers the span primitives (:mod:`repro.serve.tracing`), the bounded
:class:`Tracer` with slow/error exemplar retention, stage-timing
aggregation, the fixed-bucket histograms and Prometheus text exposition
in :mod:`repro.serve.metrics` (round-tripped through the strict parser
the CI observability-smoke job uses), and the end-to-end story: a traced
``/extract`` against a local server and against a loopback remote
cluster must yield a retrievable trace whose ``kernel.run`` spans carry
the engine name and fact count shipped back from the shard -- and an
*old* daemon that ignores the trace frame field must degrade the trace
to a transport-only ``shard.call`` span without failing the request.
"""

import io
import json

import pytest

from repro.serve import (
    DaemonThread,
    ExtractionServer,
    RequestLog,
    ServeMetrics,
    ServerThread,
    ShardDaemon,
    Span,
    Tracer,
    find_spans,
    parse_prometheus_text,
    stage_timings,
)
from repro.serve.metrics import DEFAULT_BUCKETS, Histogram
from tests.test_serve import request
from tests.test_serve_faults import item_page, make_registry


def make_clock(start=0.0):
    now = [start]

    def clock():
        return now[0]

    return now, clock


# -- span primitives ---------------------------------------------------------


class TestSpan:
    def test_tree_timing_and_tags(self):
        now, clock = make_clock()
        root = Span("http.request", clock=clock)
        call = root.child("shard.call", shard=3)
        now[0] = 0.010
        call.finish()
        now[0] = 0.012
        root.finish()
        tree = root.to_dict()
        assert tree["elapsed_ms"] == 12.0
        assert tree["children"][0]["tags"]["shard"] == 3
        assert tree["children"][0]["elapsed_ms"] == 10.0

    def test_fail_finishes_and_serializes_error(self):
        _, clock = make_clock()
        span = Span("shard.call", clock=clock)
        span.fail("ShardCrashed: boom")
        assert span.end is not None
        assert span.to_dict()["error"] == "ShardCrashed: boom"

    def test_shared_child_appears_in_every_parent_tree(self):
        now, clock = make_clock()
        roots = [Span("http.request", clock=clock) for _ in range(3)]
        flush = Span("batch.flush", clock=clock, tags={"batch_size": 3})
        for root in roots:
            root.attach(flush)
        now[0] = 0.005
        flush.finish()
        for root in roots:
            root.finish()
            flushes = find_spans(root.to_dict(), "batch.flush")
            assert len(flushes) == 1
            assert flushes[0]["tags"]["batch_size"] == 3

    def test_graft_kernel_stats_builds_shard_side_spans(self):
        _, clock = make_clock()
        call = Span("shard.call", clock=clock)
        call.graft_kernel_stats(
            {
                "snapshot_build_ms": 4.2,
                "kernel_ms": 1.5,
                "runs": [
                    {"engine": "worklist", "facts": 12},
                    {"engine": "incremental", "facts": 12, "deleted": 3},
                ],
            }
        )
        call.finish()
        tree = call.to_dict()
        assert [c["name"] for c in tree["children"]] == [
            "snapshot.build",
            "kernel.run",
            "kernel.run",
        ]
        runs = find_spans(tree, "kernel.run")
        assert [s["tags"]["engine"] for s in runs] == ["worklist", "incremental"]
        assert runs[1]["tags"] == {"engine": "incremental", "facts": 12, "deleted": 3}

    def test_graft_tolerates_malformed_payloads(self):
        _, clock = make_clock()
        call = Span("shard.call", clock=clock)
        call.graft_kernel_stats("not a dict")
        call.graft_kernel_stats({})
        call.graft_kernel_stats({"runs": "nope"})
        assert call.children == []

    def test_stage_timings_sums_repeated_stages(self):
        now, clock = make_clock()
        root = Span("http.request", clock=clock)
        first = root.child("shard.call")
        now[0] = 0.010
        first.fail("ShardCrashed: died")
        retry = root.child("shard.call")
        now[0] = 0.025
        retry.finish()
        now[0] = 0.030
        root.finish()
        timings = stage_timings(root)
        assert timings["http.request"] == 30.0
        assert timings["shard.call"] == 25.0  # 10 + 15


# -- tracer retention --------------------------------------------------------


class TestTracer:
    def finish(self, tracer, now, ms, error=None):
        span = tracer.start_trace("http.request", route="/extract/items")
        now[0] += ms / 1e3
        if error:
            span.fail(error)
        return tracer.finish_trace(span)

    def test_ring_evicts_but_slow_exemplar_survives(self):
        now, clock = make_clock()
        tracer = Tracer(capacity=2, slow_exemplars=1, clock=clock)
        slow = self.finish(tracer, now, 100.0)
        for _ in range(5):
            self.finish(tracer, now, 1.0)
        assert tracer.get(slow) is not None  # pinned as slow exemplar
        summaries = tracer.list()
        assert len(summaries) == 3  # 2 recent + 1 slow
        by_id = {s["trace_id"]: s for s in summaries}
        assert by_id[slow]["exemplar"] == "slow"

    def test_error_exemplar_survives_rotation(self):
        now, clock = make_clock()
        tracer = Tracer(capacity=2, slow_exemplars=0, error_exemplars=2, clock=clock)
        errored = self.finish(tracer, now, 5.0, error="ShardCrashed: boom")
        for _ in range(4):
            self.finish(tracer, now, 1.0)
        record = tracer.get(errored)
        assert record is not None
        assert record["error"] == "ShardCrashed: boom"
        assert any(
            s["exemplar"] == "error" and s["trace_id"] == errored
            for s in tracer.list()
        )

    def test_fully_rotated_fast_trace_is_dropped(self):
        now, clock = make_clock()
        tracer = Tracer(capacity=1, slow_exemplars=1, clock=clock)
        self.finish(tracer, now, 50.0)  # takes the slow slot
        fast = self.finish(tracer, now, 1.0)
        self.finish(tracer, now, 2.0)  # rotates `fast` out of the ring
        assert tracer.get(fast) is None
        assert len(tracer) == 2

    def test_list_is_most_recent_first(self):
        now, clock = make_clock()
        tracer = Tracer(capacity=4, slow_exemplars=0, clock=clock)
        ids = [self.finish(tracer, now, 1.0) for _ in range(3)]
        assert [s["trace_id"] for s in tracer.list()] == list(reversed(ids))


# -- structured logging ------------------------------------------------------


class TestRequestLog:
    def test_one_json_object_per_line(self):
        stream = io.StringIO()
        log = RequestLog(stream)
        log.log("request", trace_id="x-1", status=200, stages={"kernel.run": 1.5})
        log.log("request", trace_id="x-2", status=504)
        lines = stream.getvalue().splitlines()
        assert len(lines) == 2
        first, second = (json.loads(line) for line in lines)
        assert first["stages"]["kernel.run"] == 1.5
        assert second["status"] == 504
        assert all("ts" in rec for rec in (first, second))

    def test_file_sink_appends(self, tmp_path):
        path = tmp_path / "access.log"
        log = RequestLog(str(path))
        log.log("request", trace_id="y-1")
        log.log("shutdown")
        events = [json.loads(line)["event"] for line in path.read_text().splitlines()]
        assert events == ["request", "shutdown"]


# -- histograms + prometheus round trip --------------------------------------


class TestHistogramsAndPrometheus:
    def test_histogram_quantiles_are_monotone_and_max_exact(self):
        hist = Histogram()
        for value in (0.001, 0.002, 0.004, 0.032):
            hist.observe(value)
        assert hist.count == 4
        # quantile() reports milliseconds, monotone in q, clamped so the
        # top quantile is the exact max rather than a bucket bound.
        assert hist.quantile(0.5) <= hist.quantile(0.95) <= hist.quantile(1.0)
        assert hist.quantile(1.0) == pytest.approx(32.0)

    def test_stage_and_wrapper_histograms_in_snapshot(self):
        metrics = ServeMetrics()
        metrics.observe_request(0.01, "items@1", {"kernel.run": 2.0})
        metrics.observe_request(0.01, None, {"kernel.run": 4.0})
        snap = metrics.snapshot()
        assert snap["stages"]["kernel.run"]["count"] == 2
        assert snap["wrappers"]["items@1"]["count"] == 1
        assert snap["latency"]["count"] == 2

    def test_prometheus_round_trips_strict_parser(self):
        metrics = ServeMetrics()
        metrics.incr("requests_total")
        metrics.set_gauge("breakers_open", 0)
        metrics.observe_batch(4)
        # Label escaping in the wrapper name.
        metrics.observe_request(0.012, 'it"ems\\@1', {"shard.call": 8.0})
        text = metrics.prometheus()
        parsed = parse_prometheus_text(text)
        names = {sample[0] for sample in parsed["samples"]}
        assert "repro_requests_total" in names
        assert "repro_stage_latency_seconds_bucket" in names
        # Histogram families are complete: +Inf bucket, _sum, _count.
        bucket_les = [
            labels.get("le")
            for name, labels, _ in parsed["samples"]
            if name == "repro_stage_latency_seconds_bucket"
        ]
        assert "+Inf" in bucket_les
        assert len(bucket_les) == len(DEFAULT_BUCKETS) + 1

    def test_parser_rejects_malformed_exposition(self):
        with pytest.raises(ValueError):
            parse_prometheus_text("repro_x{bad-label=\"1\"} 2\n")
        with pytest.raises(ValueError):
            parse_prometheus_text("repro_x 1")  # no trailing newline
        with pytest.raises(ValueError):
            parse_prometheus_text("repro_x nan_is_fine_but_this_is_not\n")


# -- end-to-end: local server ------------------------------------------------


@pytest.fixture
def traced_server(tmp_path):
    registry = make_registry()
    server = ExtractionServer(registry, port=0, shards=0)
    thread = ServerThread(server)
    host, port = thread.start()
    yield host, port, server
    thread.stop()


class TestServerTracing:
    def test_extract_returns_trace_id_and_trace_is_retrievable(
        self, traced_server
    ):
        host, port, server = traced_server
        status, payload = request(
            host, port, "POST", "/extract/items", {"html": item_page(1)}
        )
        assert status == 200
        trace_id = payload["trace_id"]
        status, record = request(host, port, "GET", f"/debug/traces/{trace_id}")
        assert status == 200
        root = record["root"]
        assert root["name"] == "http.request"
        assert root["tags"]["wrapper"] == "items@1"
        kernel_runs = find_spans(root, "kernel.run")
        assert kernel_runs, "trace must reach the kernel"
        assert kernel_runs[0]["tags"]["engine"] == "worklist"
        assert kernel_runs[0]["tags"]["facts"] >= 0
        assert find_spans(root, "snapshot.build")

    def test_response_encode_is_a_child_of_the_request_span(
        self, traced_server
    ):
        host, port, server = traced_server
        status, payload = request(
            host, port, "POST", "/extract/items", {"html": item_page(7)}
        )
        assert status == 200
        status, record = request(
            host, port, "GET", f"/debug/traces/{payload['trace_id']}"
        )
        root = record["root"]
        encodes = [c for c in root["children"] if c["name"] == "http.encode"]
        assert len(encodes) == 1, [c["name"] for c in root["children"]]
        assert 0.0 <= encodes[0]["elapsed_ms"] <= root["elapsed_ms"]
        status, snap = request(host, port, "GET", "/metrics")
        assert snap["stages"]["http.encode"]["count"] >= 1

    def test_trace_listing_and_stage_histograms_populate(self, traced_server):
        host, port, server = traced_server
        for i in range(3):
            request(host, port, "POST", "/extract/items", {"html": item_page(i)})
        status, listing = request(host, port, "GET", "/debug/traces")
        assert status == 200
        assert len(listing["traces"]) >= 3
        status, snap = request(host, port, "GET", "/metrics")
        assert snap["stages"]["shard.call"]["count"] >= 3
        assert snap["stages"]["kernel.run"]["count"] >= 3
        assert snap["wrappers"]["items@1"]["count"] >= 3

    def test_metrics_prometheus_format_round_trips(self, traced_server):
        host, port, server = traced_server
        request(host, port, "POST", "/extract/items", {"html": item_page(0)})
        import http.client

        conn = http.client.HTTPConnection(host, port, timeout=30)
        conn.request("GET", "/metrics?format=prometheus")
        response = conn.getresponse()
        body = response.read().decode("utf-8")
        conn.close()
        assert response.status == 200
        assert response.getheader("Content-Type", "").startswith("text/plain")
        parsed = parse_prometheus_text(body)
        assert any(
            name == "repro_request_latency_seconds_count"
            for name, _, _ in parsed["samples"]
        )

    def test_errored_request_becomes_error_exemplar(self, traced_server):
        host, port, server = traced_server
        status, payload = request(
            host, port, "POST", "/extract/items", {"html": 42}
        )
        assert status == 400
        trace_id = payload["trace_id"]
        record = server.tracer.get(trace_id)
        assert record is not None
        assert record["error"]
        assert any(
            s["exemplar"] == "error"
            for s in server.tracer.list()
            if s["trace_id"] == trace_id
        )

    def test_tracing_disabled_serves_without_traces(self, tmp_path):
        registry = make_registry()
        server = ExtractionServer(registry, port=0, shards=0, tracing=False)
        thread = ServerThread(server)
        host, port = thread.start()
        try:
            status, payload = request(
                host, port, "POST", "/extract/items", {"html": item_page(1)}
            )
            assert status == 200
            assert "trace_id" not in payload
            status, body = request(host, port, "GET", "/debug/traces")
            assert status == 404
            # Aggregate latency still lands in /metrics.
            status, snap = request(host, port, "GET", "/metrics")
            assert snap["latency"]["count"] >= 1
        finally:
            thread.stop()


# -- end-to-end: loopback remote cluster (satellite: trace propagation) ------


@pytest.fixture
def trace_cluster():
    daemons, threads, servers = [], [], []

    def boot(n_daemons=2):
        booted = [DaemonThread(ShardDaemon()) for _ in range(n_daemons)]
        daemons.extend(booted)
        addresses = [
            f"{host}:{port}" for host, port in (d.start() for d in booted)
        ]
        server = ExtractionServer(
            make_registry(), remote_shards=addresses, health_interval=0.1
        )
        thread = ServerThread(server)
        servers.append(server)
        threads.append(thread)
        host, port = thread.start()
        return booted, server, host, port

    yield boot
    for thread in threads:
        thread.stop()
    for daemon in daemons:
        daemon.stop()


class TestClusterTracePropagation:
    def test_remote_kernel_spans_attach_client_side(self, trace_cluster):
        daemons, server, host, port = trace_cluster()
        status, payload = request(
            host, port, "POST", "/extract/items", {"html": item_page(7)}
        )
        assert status == 200
        status, record = request(
            host, port, "GET", f"/debug/traces/{payload['trace_id']}"
        )
        assert status == 200
        root = record["root"]
        calls = find_spans(root, "shard.call")
        assert calls and all("degraded" not in c["tags"] for c in calls)
        kernel_runs = find_spans(root, "kernel.run")
        assert kernel_runs, "remote kernel spans must graft into the trace"
        assert kernel_runs[0]["tags"]["engine"] == "worklist"
        assert find_spans(root, "snapshot.build")
        assert find_spans(root, "ring.route")
        # The daemon side counted the traced RPC.
        assert sum(
            t.daemon.stats.get("traced_wraps", 0) for t in daemons
        ) >= 1

    def test_warm_path_trace_carries_route_and_call_spans(self, trace_cluster):
        daemons, server, host, port = trace_cluster()
        for version in range(2):
            status, payload = request(
                host,
                port,
                "POST",
                "/extract/items",
                {
                    "html": f"<ul><li>item v{version}</li></ul>",
                    "doc_id": "crawl://traced-url",
                },
            )
            assert status == 200
        status, record = request(
            host, port, "GET", f"/debug/traces/{payload['trace_id']}"
        )
        assert status == 200
        root = record["root"]
        routes = find_spans(root, "ring.route")
        assert routes and "shard" in routes[0]["tags"]
        calls = find_spans(root, "shard.call")
        assert calls and calls[0]["tags"].get("warm") is True
