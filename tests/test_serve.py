"""End-to-end tests for the wrapper-serving subsystem (:mod:`repro.serve`).

Covers the registry (versioning, spec-only persistence, warm load),
the shard executor's content-hash routing, and the asyncio HTTP server:
register -> /extract -> /batch round trips on an ephemeral port, cache-hit
behavior, 503 backpressure, registry persistence across a restart, the
request reader (framing, caps, one idle deadline per request) and the one
deadline per shard call, which a coalesced request waits on under its own
budget and which never outlives the latest member's deadline.
"""

import asyncio
import concurrent.futures
import http.client
import json
import logging
import socket
import threading
import time

import pytest

from repro.errors import RequestTimeout, ServeError
from repro.serve import (
    ExtractionServer,
    MicroBatcher,
    ResultCache,
    ServeMetrics,
    ServerThread,
    ShardExecutor,
    WrapperRegistry,
    content_hash,
)
from repro.serve.registry import build_wrapper, source_hash
from repro.serve.server import _MAX_BODY
from repro.workloads import CATALOG_WRAPPER, catalog_page

ITEM_DATALOG = "item(x) :- label_li(x)."

#: Ancestor-closure datalog: ``anc`` is binary, so seminaive evaluation
#: is quadratic in the nesting depth.
NON_MONADIC_DATALOG = (
    "anc(x, y) :- child(x, y). anc(x, z) :- anc(x, y), child(y, z). "
    "item(x) :- anc(y, x), label_li(x), root(y)."
)

#: A body constant in a rule with two ``child`` enumerations from one
#: node: the kernel lowers it through TMNF, so it registers.
CONSTANT_PROBE_DATALOG = (
    "p(x) :- child(y, x), child(y, z), label_li(z), child(x2, y), child(0, x2)."
)

#: Monadic programs the kernel refuses, each with the reason a
#: registration names.  Each would run on seminaive.
NON_KERNEL_DATALOG = {
    "item(0) :- label_li(x).": "holds a constant",
    "item(x) :- label_li(x), docorder(y, x), root(y).": "'docorder'",
    "item(x) :- label_li(x), child_star(y, x), root(y).": "'child_star'",
    "seen(x) :- label_ul(x).\nitem(x) :- seen, label_li(x).": "two arities",
}


def request(host, port, method, path, body=None, timeout=30):
    """One HTTP round trip on a fresh connection; returns (status, json)."""
    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        payload = json.dumps(body) if body is not None else None
        conn.request(method, path, payload)
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


@pytest.fixture
def running_server(tmp_path):
    """A server on an ephemeral port backed by a persistent registry."""
    registry = WrapperRegistry(tmp_path / "registry")
    server = ExtractionServer(registry, port=0, shards=0)
    thread = ServerThread(server)
    host, port = thread.start()
    yield host, port, server
    thread.stop()


class TestRegistry:
    def test_register_versions_and_resolve(self):
        registry = WrapperRegistry()
        first = registry.register(
            "items", ITEM_DATALOG, kind="datalog", patterns=["item"]
        )
        assert (first.name, first.version) == ("items", 1)
        second = registry.register(
            "items", "item(x) :- label_td(x).", kind="datalog", patterns=["item"]
        )
        assert second.version == 2
        assert registry.resolve("items").version == 2
        assert registry.resolve("items@1").source == ITEM_DATALOG
        assert [w["version"] for w in registry.list()] == [1, 2]
        assert len(registry) == 2

    def test_idempotent_reregistration_keeps_entry(self):
        registry = WrapperRegistry()
        first = registry.register(
            "items", ITEM_DATALOG, kind="datalog", patterns=["item"], version=1
        )
        again = registry.register(
            "items", ITEM_DATALOG, kind="datalog", patterns=["item"], version=1
        )
        assert again is first

    def test_reregister_with_default_patterns_replaces_narrower_entry(self):
        registry = WrapperRegistry()
        registry.register(
            "catalog", CATALOG_WRAPPER, kind="elog",
            patterns=["record"], version=1,
        )
        # patterns=None means "all defined patterns" and must not be
        # swallowed by the idempotency shortcut of the narrower entry.
        entry = registry.register("catalog", CATALOG_WRAPPER, kind="elog", version=1)
        assert entry.patterns == ("name", "price", "record")
        again = registry.register("catalog", CATALOG_WRAPPER, kind="elog", version=1)
        assert again is entry  # now a genuine no-op

    def test_invalid_registrations_raise(self):
        registry = WrapperRegistry()
        with pytest.raises(ServeError):
            registry.register("bad name!", ITEM_DATALOG, kind="datalog")
        with pytest.raises(ServeError):
            registry.register("x", ITEM_DATALOG, kind="sql")
        with pytest.raises(ServeError):
            registry.register("x", ITEM_DATALOG, kind="datalog", patterns=["ghost"])
        with pytest.raises(ServeError):
            registry.register("x", "", kind="datalog")
        with pytest.raises(ServeError, match="'anc'"):
            registry.register("x", NON_MONADIC_DATALOG, kind="datalog", patterns=["item"])
        with pytest.raises(ServeError):
            registry.resolve("nothere")
        with pytest.raises(ServeError):
            registry.resolve("items@zzz")

    def test_datalog_outside_the_kernel_is_refused_with_its_reason(self, tmp_path):
        cache_dir = tmp_path / "reg"
        registry = WrapperRegistry(cache_dir)
        for source, reason in NON_KERNEL_DATALOG.items():
            with pytest.raises(ServeError, match=reason):
                registry.register("x", source, kind="datalog", patterns=["item"])
        assert len(registry) == 0 and list(cache_dir.iterdir()) == []
        entry = registry.register(
            "probe", CONSTANT_PROBE_DATALOG, kind="datalog", patterns=["p"]
        )
        page = "<html><body><ul>" + "<li>a</li>" * 50 + "</ul></body></html>"
        assert len(entry.wrapper.wrap_html_many([page])[0].children) == 50
        # A spec persisted before the refusal existed is skipped on warm
        # load, and its file is left in place.
        source = next(iter(NON_KERNEL_DATALOG))
        stale = cache_dir / "old@1.json"
        stale.write_text(json.dumps({
            "name": "old", "version": 1, "kind": "datalog", "source": source,
            "patterns": ["item"],
            "source_hash": source_hash("datalog", source, ("item",)),
        }))
        reloaded = WrapperRegistry(cache_dir)
        assert [w["name"] for w in reloaded.list()] == ["probe"]
        assert stale.exists()

    def test_version_none_is_idempotent_for_unchanged_source(self, tmp_path):
        cache_dir = tmp_path / "reg"
        registry = WrapperRegistry(cache_dir)
        patterns = ["record", "name", "price"]
        first = registry.register(
            "catalog", CATALOG_WRAPPER, kind="elog", patterns=patterns
        )
        assert first.version == 1
        assert registry.register(
            "catalog", CATALOG_WRAPPER, kind="elog", patterns=patterns
        ) is first
        # A restart (warm load) followed by boot-time registration must
        # not allocate a new version either.
        reloaded = WrapperRegistry(cache_dir)
        again = reloaded.register(
            "catalog", CATALOG_WRAPPER, kind="elog", patterns=patterns
        )
        assert again.version == 1 and len(reloaded) == 1

    def test_elog_defaults_to_all_patterns(self):
        registry = WrapperRegistry()
        entry = registry.register("catalog", CATALOG_WRAPPER, kind="elog")
        assert entry.patterns == ("name", "price", "record")

    def test_persistence_and_warm_load(self, tmp_path):
        cache_dir = tmp_path / "wrappers"
        registry = WrapperRegistry(cache_dir)
        entry = registry.register(
            "catalog", CATALOG_WRAPPER, kind="elog",
            patterns=["record", "name", "price"],
        )
        assert [p.name for p in cache_dir.iterdir()] == ["catalog@1.json"]
        reloaded = WrapperRegistry(cache_dir)
        again = reloaded.resolve("catalog@1")
        assert again.source_hash == entry.source_hash
        page = catalog_page(seed=3, items=2)
        direct = entry.wrapper.wrap_html_many([page])[0].to_dict()
        assert again.wrapper.wrap_html_many([page])[0].to_dict() == direct

    def test_warm_load_compiles_from_the_spec_and_ignores_pickles(self, tmp_path):
        cache_dir = tmp_path / "wrappers"
        WrapperRegistry(cache_dir).register(
            "items", ITEM_DATALOG, kind="datalog", patterns=["item"]
        )
        # A compiled-wrapper cache left by an older release is not read.
        stale = cache_dir / "items@1.pkl"
        stale.write_bytes(b"not a pickle")
        entry = WrapperRegistry(cache_dir).resolve("items@1")
        assert entry.source_hash == source_hash(
            "datalog", ITEM_DATALOG, ("item",)
        )
        fresh, _ = build_wrapper("datalog", ITEM_DATALOG, ["item"])
        page = "<ul><li>a<li>b</ul>"
        out = entry.wrapper.wrap_html_many([page])[0]
        assert out.to_dict() == fresh.wrap_html_many([page])[0].to_dict()
        assert out.to_sexpr() == "result(item, item)"
        assert stale.read_bytes() == b"not a pickle"
        assert sorted(p.name for p in cache_dir.iterdir()) == [
            "items@1.json", "items@1.pkl"
        ]


class TestShardExecutor:
    def test_content_hash_routing_is_deterministic(self):
        executor = ShardExecutor(shards=0)
        try:
            pages = [catalog_page(seed=s, items=2) for s in range(8)]
            routes = [executor.shard_for(content_hash(p)) for p in pages]
            assert routes == [executor.shard_for(content_hash(p)) for p in pages]
            assert all(r == 0 for r in routes)  # single shard
        finally:
            executor.close()

    def test_inline_shard_runs_installed_wrapper(self):
        executor = ShardExecutor(shards=0)
        try:
            wrapper, _ = build_wrapper("datalog", ITEM_DATALOG, ["item"])
            for future in executor.ensure_installed("k", wrapper):
                future.result(timeout=10)
            # Installs are idempotent: no new futures the second time.
            assert executor.ensure_installed("k", wrapper) == []
            reply = executor.submit(0, "k", ["<ul><li>a</ul>"]).result(timeout=10)
            assert reply["pages"][0]["children"][0]["label"] == "item"
            assert reply["kernel"][0]["warm"] is False
        finally:
            executor.close()

    def test_process_shard_self_heals_after_worker_death(self):
        import asyncio
        import os
        import signal

        async def run():
            executor = ShardExecutor(shards=1)
            try:
                wrapper, _ = build_wrapper("datalog", ITEM_DATALOG, ["item"])
                for future in executor.ensure_installed("k", wrapper):
                    await future
                await executor.submit(0, "k", ["<ul><li>a</ul>"])
                child = executor._shards[0].process
                os.kill(child.pid, signal.SIGKILL)
                child.join(timeout=30)
                assert child.exitcode == -signal.SIGKILL
                for _ in range(10):
                    try:
                        for future in executor.ensure_installed("k", wrapper):
                            await future
                        out = await executor.submit(0, "k", ["<ul><li>b</ul>"])
                        break
                    except Exception:
                        await asyncio.sleep(0.05)
                else:
                    pytest.fail("the shard never healed after its daemon died")
                assert executor._shards[0].process.pid != child.pid
                return out
            finally:
                await executor.aclose()

        out = asyncio.run(run())
        assert out["pages"][0]["children"][0]["label"] == "item"

    def test_closing_leaves_no_shard_processes(self):
        import asyncio
        import os

        wrapper, _ = build_wrapper("datalog", ITEM_DATALOG, ["item"])

        async def run(close_from_thread):
            executor = ShardExecutor(shards=2)
            for future in executor.ensure_installed("k", wrapper):
                await future
            killed = executor._shards[0].process
            executor.kill_shard(0)
            for future in executor.ensure_installed("k", wrapper):
                await future
            out = await executor.submit(0, "k", ["<ul><li>a</ul>"])
            assert out["pages"][0]["children"][0]["label"] == "item"
            children = [killed] + [shard.process for shard in executor._shards]
            socket_dir = executor._socket_dir
            assert os.path.isdir(socket_dir)
            if close_from_thread:
                # How a caller outside the loop's thread closes it.
                await asyncio.get_running_loop().run_in_executor(
                    None, executor.close
                )
            else:
                await executor.aclose()
            return children, socket_dir

        for close_from_thread in (False, True):
            children, socket_dir = asyncio.run(run(close_from_thread))
            assert len({child.pid for child in children}) == 3
            for child in children:
                # Exited and reaped: not even a zombie is left.
                assert child.exitcode is not None
                with pytest.raises(ProcessLookupError):
                    os.kill(child.pid, 0)
            assert not os.path.exists(socket_dir)

    def test_installed_wrappers_are_lru_bounded(self):
        executor = ShardExecutor(shards=0, max_installed=2)
        try:
            wrapper, _ = build_wrapper("datalog", ITEM_DATALOG, ["item"])
            for key in ("k1", "k2", "k3"):
                for future in executor.ensure_installed(key, wrapper):
                    future.result(timeout=10)
            shard = executor._shards[0]
            assert list(shard.installed) == ["k2", "k3"]
            # The evicted key errors once, then re-installs on demand.
            with pytest.raises(ServeError):
                executor.submit(0, "k1", ["<ul><li>x</ul>"]).result(timeout=10)
            for future in executor.ensure_installed("k1", wrapper):
                future.result(timeout=10)
            out = executor.submit(0, "k1", ["<ul><li>x</ul>"]).result(timeout=10)
            assert out["pages"][0]["children"][0]["label"] == "item"
        finally:
            executor.close()

    def test_uninstalled_key_errors(self):
        executor = ShardExecutor(shards=0)
        try:
            with pytest.raises(ServeError):
                executor.submit(0, "ghost", ["<p>x</p>"]).result(timeout=10)
        finally:
            executor.close()


class TestResultCache:
    def test_lru_eviction_order(self):
        cache = ResultCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh "a"
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 1 and cache.get("c") == 3

    def test_zero_capacity_disables(self):
        cache = ResultCache(capacity=0)
        cache.put("a", 1)
        assert cache.get("a") is None and len(cache) == 0

    def test_overwrite_and_clear(self):
        cache = ResultCache(capacity=100)
        cache.put("a", 1)
        cache.put("a", 2)
        assert cache.get("a") == 2 and len(cache) == 1
        cache.clear()
        assert cache.get("a") is None and len(cache) == 0


class TestServerEndToEnd:
    def _register_catalog(self, host, port):
        status, data = request(
            host, port, "POST", "/wrappers",
            {
                "name": "catalog",
                "source": CATALOG_WRAPPER,
                "kind": "elog",
                "patterns": ["record", "name", "price"],
            },
        )
        assert status == 201, data
        assert data["name"] == "catalog" and data["version"] == 1
        return data

    def test_constant_probe_registers_and_extracts_a_wide_list(self, running_server):
        # Before body constants lowered through TMNF, this rule ran on
        # seminaive: quadratic in the list length, past the deadline of a
        # 1,000-item page.
        host, port, _ = running_server
        status, data = request(
            host, port, "POST", "/wrappers",
            {"name": "probe", "source": CONSTANT_PROBE_DATALOG, "kind": "datalog",
             "patterns": ["p"]},
        )
        assert status == 201, data
        page = "<html><body><ul>" + "<li>a</li>" * 1000 + "</ul></body></html>"
        status, body = request(host, port, "POST", "/extract/probe", {"html": page})
        assert status == 200, body
        assert len(body["result"]["children"]) == 1000

    def test_register_extract_batch_and_metrics(self, running_server):
        host, port, server = running_server
        self._register_catalog(host, port)

        status, listing = request(host, port, "GET", "/wrappers")
        assert status == 200
        assert [w["name"] for w in listing["wrappers"]] == ["catalog"]

        page = catalog_page(seed=7, items=3)
        status, data = request(
            host, port, "POST", "/extract/catalog", {"html": page}
        )
        assert status == 200
        wrapper, _ = build_wrapper(
            "elog", CATALOG_WRAPPER, ["record", "name", "price"]
        )
        expected = wrapper.wrap_html_many([page])[0].to_dict()
        assert data["result"] == expected
        assert data["wrapper"] == "catalog" and data["version"] == 1

        # Same document again: served from the content-hash cache.
        status, data2 = request(
            host, port, "POST", "/extract/catalog@1", {"html": page}
        )
        assert status == 200 and data2["result"] == expected
        status, metrics = request(host, port, "GET", "/metrics")
        assert metrics["counters"]["cache_hits"] >= 1
        assert metrics["counters"]["cache_misses"] == 1
        assert metrics["latency"]["count"] >= 2
        assert metrics["latency"]["p50_ms"] <= metrics["latency"]["p95_ms"]

        # /batch matches per-document wrapping, and dedupes repeats.
        pages = [catalog_page(seed=s, items=2) for s in (1, 2)] + [page]
        status, batch = request(
            host, port, "POST", "/batch",
            {"wrapper": "catalog", "documents": pages},
        )
        assert status == 200
        direct = [out.to_dict() for out in wrapper.wrap_html_many(pages)]
        assert batch["results"] == direct

        status, health = request(host, port, "GET", "/healthz")
        assert status == 200 and health["status"] == "ok"
        assert health["wrappers"] == 1

    def test_unknown_routes_wrappers_and_bad_bodies(self, running_server):
        host, port, _ = running_server
        assert request(host, port, "GET", "/nope")[0] == 404
        assert request(
            host, port, "POST", "/extract/ghost", {"html": "<p>x</p>"}
        )[0] == 404
        assert request(host, port, "POST", "/extract/ghost", {})[0] == 400
        assert request(
            host, port, "POST", "/batch", {"wrapper": 3, "documents": "x"}
        )[0] == 400
        assert request(host, port, "POST", "/wrappers", {"name": "x"})[0] == 400
        status, _ = request(
            host, port, "POST", "/wrappers",
            {"name": "bad name!", "source": ITEM_DATALOG, "kind": "datalog"},
        )
        assert status == 400
        # Unparsable wrapper source is a client error, not a 500.
        status, body = request(
            host, port, "POST", "/wrappers",
            {"name": "w", "source": "item(x :- label_li(x).", "kind": "datalog"},
        )
        assert status == 400, body
        # A binary intensional predicate leaves Thm 4.2's linear-time
        # fragment the deadlines rely on: refused, naming the predicate.
        status, body = request(
            host, port, "POST", "/wrappers",
            {"name": "w", "source": NON_MONADIC_DATALOG, "kind": "datalog"},
        )
        assert status == 400 and "'anc'" in str(body), body
        # So does a relation outside the tree signature, which would run
        # on seminaive.
        status, body = request(
            host, port, "POST", "/wrappers",
            {"name": "w", "source": "item(x) :- label_li(x), docorder(y, x), "
             "root(y).", "kind": "datalog"},
        )
        assert status == 400 and "'docorder'" in str(body), body
        assert request(host, port, "PUT", "/wrappers", {})[0] == 405

    def test_oversized_request_line_gets_400(self, running_server):
        import socket

        host, port, _ = running_server
        with socket.create_connection((host, port), timeout=10) as raw:
            raw.sendall(b"GET /" + b"a" * 70000 + b" HTTP/1.1\r\n\r\n")
            response = raw.recv(4096)
        assert b"400" in response.split(b"\r\n", 1)[0]
        # The server survived the oversized request.
        assert request(host, port, "GET", "/healthz")[0] == 200

    def test_backpressure_returns_503(self, tmp_path):
        registry = WrapperRegistry()
        registry.register("items", ITEM_DATALOG, kind="datalog", patterns=["item"])
        server = ExtractionServer(
            registry, port=0, shards=0,
            max_pending=2, max_batch=64, max_delay=0.5,
        )
        thread = ServerThread(server)
        host, port = thread.start()
        try:
            def one(i):
                return request(
                    host, port, "POST", "/extract/items",
                    {"html": f"<ul><li>doc {i}</li></ul>"},
                )[0]

            with concurrent.futures.ThreadPoolExecutor(6) as pool:
                statuses = list(pool.map(one, range(6)))
            assert statuses.count(503) >= 1, statuses
            assert statuses.count(200) >= 2, statuses
            status, metrics = request(host, port, "GET", "/metrics")
            assert metrics["counters"]["rejected"] >= 1
        finally:
            thread.stop()

    def test_extraction_rejected_once_shutdown_begins(self, running_server):
        host, port, server = running_server
        self._register_catalog(host, port)
        server._stopping = True
        try:
            status, body = request(
                host, port, "POST", "/extract/catalog",
                {"html": "<html><body><p>x</p></body></html>"},
            )
            assert status == 503, body
        finally:
            server._stopping = False

    def test_registry_persists_across_server_restart(self, tmp_path):
        cache_dir = tmp_path / "registry"
        page = "<ul><li>alpha<li>beta</ul>"

        first = ExtractionServer(WrapperRegistry(cache_dir), port=0, shards=0)
        thread = ServerThread(first)
        host, port = thread.start()
        try:
            status, _ = request(
                host, port, "POST", "/wrappers",
                {"name": "items", "source": ITEM_DATALOG, "kind": "datalog",
                 "patterns": ["item"]},
            )
            assert status == 201
            status, before = request(
                host, port, "POST", "/extract/items", {"html": page}
            )
            assert status == 200
        finally:
            thread.stop()

        # Fresh process-equivalent: a new registry recompiles the spec.
        second = ExtractionServer(WrapperRegistry(cache_dir), port=0, shards=0)
        thread = ServerThread(second)
        host, port = thread.start()
        try:
            status, listing = request(host, port, "GET", "/wrappers")
            assert status == 200
            assert [w["name"] for w in listing["wrappers"]] == ["items"]
            status, after = request(
                host, port, "POST", "/extract/items", {"html": page}
            )
            assert status == 200
            assert after["result"] == before["result"]
            status, metrics = request(host, port, "GET", "/metrics")
            assert metrics["counters"]["cache_misses"] == 1  # recomputed once
        finally:
            thread.stop()

    def test_process_shards_serve_and_shut_down(self):
        registry = WrapperRegistry()
        registry.register(
            "catalog", CATALOG_WRAPPER, kind="elog",
            patterns=["record", "name", "price"],
        )
        server = ExtractionServer(registry, port=0, shards=1)
        thread = ServerThread(server)
        host, port = thread.start()
        try:
            page = catalog_page(seed=11, items=2)
            status, data = request(
                host, port, "POST", "/extract/catalog", {"html": page}
            )
            assert status == 200
            labels = [c["label"] for c in data["result"]["children"]]
            assert labels.count("record") == 2
        finally:
            thread.stop()
        # The port is released after a graceful stop.
        with pytest.raises(OSError):
            probe = http.client.HTTPConnection(host, port, timeout=2)
            try:
                probe.request("GET", "/healthz")
                probe.getresponse()
            finally:
                probe.close()

    def test_micro_batching_coalesces_concurrent_requests(self):
        registry = WrapperRegistry()
        registry.register("items", ITEM_DATALOG, kind="datalog", patterns=["item"])
        server = ExtractionServer(
            registry, port=0, shards=0, max_batch=8, max_delay=0.05,
            max_pending=64,
        )
        thread = ServerThread(server)
        host, port = thread.start()
        try:
            def one(i):
                return request(
                    host, port, "POST", "/extract/items",
                    {"html": f"<ul><li>item {i}</li></ul>"},
                )

            with concurrent.futures.ThreadPoolExecutor(8) as pool:
                results = list(pool.map(one, range(8)))
            assert all(status == 200 for status, _ in results)
            texts = {
                body["result"]["children"][0]["text"] for _, body in results
            }
            assert texts == {f"item {i}" for i in range(8)}
            status, metrics = request(host, port, "GET", "/metrics")
            # Coalescing happened: fewer flushes than requests.
            assert metrics["batches"]["count"] < 8
            assert metrics["batches"]["max_size"] >= 2
        finally:
            thread.stop()

    def test_sequential_requests_bypass_coalescing(self):
        # Regression guard for the concurrency-1 latency bug: with no
        # overlapping work, /extract must not sit in the flush-delay queue.
        # A pathological max_delay makes any accidental queueing obvious.
        registry = WrapperRegistry()
        registry.register("items", ITEM_DATALOG, kind="datalog", patterns=["item"])
        server = ExtractionServer(
            registry, port=0, shards=0, max_delay=5.0, cache_size=0,
        )
        thread = ServerThread(server)
        host, port = thread.start()
        try:
            start = time.monotonic()
            for i in range(4):
                status, body = request(
                    host, port, "POST", "/extract/items",
                    {"html": f"<ul><li>item {i}</li></ul>"},
                )
                assert status == 200
                assert body["result"]["children"][0]["text"] == f"item {i}"
            elapsed = time.monotonic() - start
            assert elapsed < 5.0, "sequential requests waited on the batch timer"
            status, metrics = request(host, port, "GET", "/metrics")
            assert metrics["counters"]["bypassed"] == 4
            assert metrics["batches"]["count"] == 0
        finally:
            thread.stop()


def raw_exchange(host, port, data, timeout=5):
    """Send raw bytes on a fresh connection; read until the server closes."""
    with socket.create_connection((host, port), timeout=timeout) as raw:
        raw.sendall(data)
        chunks = []
        while True:
            chunk = raw.recv(65536)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


def status_of(response):
    return int(response.split(b" ", 2)[1])


class TestRequestReader:
    """The HTTP request head and body reader: framing, caps, deadline."""

    def test_bare_lf_head_is_served(self, running_server):
        host, port, _ = running_server
        response = raw_exchange(host, port, b"GET /healthz HTTP/1.0\n\n")
        assert status_of(response) == 200
        assert json.loads(response.split(b"\r\n\r\n", 1)[1])["status"] == "ok"

    def test_body_over_max_body_gets_413(self, running_server):
        host, port, server = running_server
        response = raw_exchange(
            host, port,
            b"POST /extract/x HTTP/1.1\r\n"
            b"Content-Length: %d\r\n\r\n" % (_MAX_BODY + 1),
        )
        assert status_of(response) == 413
        assert b"body too large" in response

    @pytest.mark.parametrize("length", [b"-1", b"twelve"])
    def test_bad_content_length_gets_400(self, running_server, length):
        host, port, _ = running_server
        response = raw_exchange(
            host, port,
            b"POST /extract/x HTTP/1.1\r\nContent-Length: " + length + b"\r\n\r\n",
        )
        assert status_of(response) == 400
        assert b"bad content-length" in response

    def test_expect_100_continue_gets_interim_response(self, running_server):
        host, port, _ = running_server
        body = json.dumps({"hash": "feed"}).encode()
        with socket.create_connection((host, port), timeout=5) as raw:
            raw.sendall(
                b"POST /quarantine/release HTTP/1.1\r\n"
                b"Connection: close\r\nExpect: 100-continue\r\n"
                b"Content-Length: %d\r\n\r\n" % len(body)
            )
            interim = b""
            while not interim.endswith(b"\r\n\r\n"):
                interim += raw.recv(1)
            assert interim == b"HTTP/1.1 100 Continue\r\n\r\n"
            raw.sendall(body)
            final = b""
            while True:
                chunk = raw.recv(65536)
                if not chunk:
                    break
                final += chunk
        assert status_of(final) == 404
        assert json.loads(final.split(b"\r\n\r\n", 1)[1])["released"] is False

    def test_too_many_distinct_headers_get_400(self, running_server):
        host, port, _ = running_server
        head = b"".join(b"X-H%d: v\r\n" % i for i in range(100))
        head += b"Connection: close\r\n"
        response = raw_exchange(host, port, b"GET /healthz HTTP/1.1\r\n" + head + b"\r\n")
        assert status_of(response) == 400
        assert b"too many headers" in response

    def test_header_cap_counts_lines_not_names(self, running_server):
        host, port, _ = running_server
        head = b"X-Same: v\r\n" * 100 + b"Connection: close\r\n"
        response = raw_exchange(host, port, b"GET /healthz HTTP/1.1\r\n" + head + b"\r\n")
        assert status_of(response) == 400
        assert b"too many headers" in response
        # One line fewer is within the cap.
        head = b"X-Same: v\r\n" * 99 + b"Connection: close\r\n"
        response = raw_exchange(host, port, b"GET /healthz HTTP/1.1\r\n" + head + b"\r\n")
        assert status_of(response) == 200

    def test_dripped_head_is_cut_at_one_idle_deadline(self, tmp_path):
        server = ExtractionServer(
            WrapperRegistry(), port=0, shards=0, idle_timeout=0.5
        )
        thread = ServerThread(server)
        host, port = thread.start()
        try:
            with socket.create_connection((host, port), timeout=5) as raw:
                raw.sendall(b"GET /healthz HTTP/1.1\r\n")
                start = time.monotonic()
                closed_after = None
                # One header line every 0.3s: each line is inside the idle
                # timeout, the whole head is not.
                for i in range(6):
                    try:
                        raw.sendall(b"X-Drip-%d: 1\r\n" % i)
                        raw.settimeout(0.3)
                        if raw.recv(4096) == b"":
                            closed_after = time.monotonic() - start
                            break
                    except socket.timeout:
                        continue
                    except (ConnectionError, OSError):
                        closed_after = time.monotonic() - start
                        break
            assert closed_after is not None, "dripping client kept its connection"
            assert closed_after < 1.0, closed_after
        finally:
            thread.stop()


class TestShardCallDeadline:
    class _SlowExecutor:
        """One fake shard whose install and wrap each take ``delay`` s."""

        def __init__(self, delay):
            self.delay = delay
            self.killed = []

        def shard_for(self, doc_hash):
            return 0

        def _later(self, value):
            future = concurrent.futures.Future()
            asyncio.get_running_loop().call_later(
                self.delay, lambda: future.done() or future.set_result(value)
            )
            return future

        def ensure_installed(self, key, wrapper, shard=None):
            return [self._later(True)]

        def submit(self, shard, key, items, trace=None):
            stats = [{}] * len(items)
            return self._later({"pages": stats, "kernel": stats})

        def kill_shard(self, shard):
            self.killed.append(shard)

    def test_install_and_wrap_share_one_budget(self):
        budget = 0.4
        registry = WrapperRegistry()
        entry = registry.register(
            "items", ITEM_DATALOG, kind="datalog", patterns=["item"]
        )
        executor = self._SlowExecutor(delay=0.6 * budget)
        metrics = ServeMetrics()
        batcher = MicroBatcher(executor, ResultCache(0), metrics)

        async def run():
            start = time.monotonic()
            with pytest.raises(RequestTimeout):
                await batcher.submit(entry, "<ul><li>x</li></ul>", timeout=budget)
            return time.monotonic() - start

        elapsed = asyncio.run(run())
        assert executor.killed == [0]
        assert metrics.snapshot()["counters"]["timeouts"] == 1
        assert elapsed < 1.5 * budget, elapsed


    class _SlowCallExecutor(_SlowExecutor):
        """One fake shard: installs at once, each call takes ``delay`` s
        and answers one output per page."""

        def ensure_installed(self, key, wrapper, shard=None):
            return []

        def submit(self, shard, key, items, trace=None):
            pages = [{"html": html} for html, _ in items]
            return self._later({"pages": pages, "kernel": [{}] * len(items)})

    def test_coalesced_request_keeps_its_own_budget(self):
        # Two pages coalesce into one 0.3 s shard call.  The page with a
        # 0.1 s budget times out on its own instead of waiting out its
        # batch-mate's 1.0 s budget; the call runs on, the batch-mate
        # succeeds, and no worker is killed.
        registry = WrapperRegistry()
        entry = registry.register(
            "items", ITEM_DATALOG, kind="datalog", patterns=["item"]
        )
        executor = self._SlowCallExecutor(delay=0.3)
        metrics = ServeMetrics()
        batcher = MicroBatcher(
            executor, ResultCache(0), metrics, max_delay=0.001, bypass_concurrency=0
        )

        async def timed(budget, html):
            start = time.monotonic()
            try:
                outcome = await batcher.submit(entry, html, timeout=budget)
            except RequestTimeout as exc:
                outcome = exc
            return outcome, time.monotonic() - start

        async def run():
            return await asyncio.gather(
                timed(0.1, "<ul><li>a</li></ul>"), timed(1.0, "<ul><li>b</li></ul>")
            )

        (strict, strict_s), (lenient, _) = asyncio.run(run())
        assert isinstance(strict, RequestTimeout), strict
        assert strict_s < 0.3, strict_s
        assert lenient == {"html": "<ul><li>b</li></ul>"}
        assert executor.killed == []
        snapshot = metrics.snapshot()
        assert snapshot["counters"]["timeouts"] == 1
        assert snapshot["batches"]["count"] == 1
        assert snapshot["batches"]["max_size"] == 2

    def test_flush_stops_at_the_latest_member_deadline(self, caplog):
        # Two pages coalesce into one 0.5 s shard call; their budgets
        # (0.1 s and 0.2 s) both end before it does.  The call is cut
        # once, at the later deadline: the worker is killed once, and the
        # timed-out batch is not bisected into fresh calls after every
        # waiter has gone.
        registry = WrapperRegistry()
        entry = registry.register(
            "items", ITEM_DATALOG, kind="datalog", patterns=["item"]
        )
        executor = self._SlowCallExecutor(delay=0.5)
        started = []
        submit = executor.submit

        def timed_submit(*args, **kwargs):
            started.append(time.monotonic())
            return submit(*args, **kwargs)

        executor.submit = timed_submit
        metrics = ServeMetrics()
        batcher = MicroBatcher(executor, ResultCache(0), metrics, bypass_concurrency=0)

        async def failed(budget, html):
            with pytest.raises(RequestTimeout):
                await batcher.submit(entry, html, timeout=budget)

        async def run():
            start = time.monotonic()
            await asyncio.gather(
                failed(0.1, "<ul><li>a</li></ul>"), failed(0.2, "<ul><li>b</li></ul>")
            )
            await asyncio.sleep(0.8)  # room for any call made after the deadline
            return start

        with caplog.at_level(logging.ERROR, logger="asyncio"):
            start = asyncio.run(run())
        assert len(started) <= 1, started
        assert all(at - start < 0.2 + 0.05 for at in started), started
        assert len(executor.killed) <= 1, executor.killed
        assert "never retrieved" not in caplog.text, caplog.text
        assert metrics.snapshot()["counters"].get("bisections", 0) == 0
