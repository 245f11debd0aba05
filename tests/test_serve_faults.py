"""Fault-tolerance tests for :mod:`repro.serve` under deterministic chaos.

Covers the fault-injection harness itself (counter-determinism, spec
round-trips), the quarantine/circuit-breaker policy objects, and the
serving stack under injected faults: worker kills absorbed by in-server
retries, hung calls cut off at the size-derived deadline (worker killed +
respawned), poison pages isolated by batch bisection and quarantined
after N strikes while their batch-mates succeed, bounded drain that fails
abandoned requests explicitly, and the pending-budget accounting staying
leak-free across crash loops.

The CI ``chaos-smoke`` job runs exactly this file with
``REPRO_SERVE_FAULT_LOG`` set and uploads the fault-event log as an
artifact.
"""

import asyncio
import concurrent.futures
import json
import time

import pytest

from repro.errors import (
    PoisonDocument,
    RequestTimeout,
    ServeError,
    ShardCrashed,
)
from repro.serve import (
    CircuitBreaker,
    ExtractionServer,
    FaultPlan,
    HashRing,
    MicroBatcher,
    Quarantine,
    ResultCache,
    ServeMetrics,
    ServerThread,
    ShardExecutor,
    WrapperRegistry,
    content_hash,
)
from repro.serve.faults import FaultInjector, validate_reply
from repro.serve.supervisor import ShardSupervisor
from repro.workloads import CATALOG_WRAPPER, catalog_page
from tests.test_serve import request

ITEM_DATALOG = "item(x) :- label_li(x)."

#: The deterministic poison marker: any page containing it crashes the
#: worker that evaluates it, every single time.
POISON = "#!POISON!#"


def item_page(i):
    return f"<ul><li>item {i}</li></ul>"


def make_registry():
    registry = WrapperRegistry()
    registry.register("items", ITEM_DATALOG, kind="datalog", patterns=["item"])
    return registry


def make_batcher(faults=None, **kwargs):
    """An inline-shard batcher wired for chaos (caller must close)."""
    executor = ShardExecutor(shards=0, faults=faults)
    metrics = ServeMetrics()
    batcher = MicroBatcher(
        executor,
        ResultCache(0),
        metrics,
        max_batch=kwargs.pop("max_batch", 16),
        max_delay=kwargs.pop("max_delay", 0.005),
        max_pending=kwargs.pop("max_pending", 64),
        **kwargs,
    )
    return executor, batcher, metrics


class TestFaultPlan:
    def test_spec_round_trip_and_defaults(self):
        plan = FaultPlan.parse("kill_every=5,delay_every=7,delay_s=0.25,phase=2")
        assert (plan.kill_every, plan.delay_every, plan.delay_s) == (5, 7, 0.25)
        assert plan.phase == 2 and plan.enabled
        assert FaultPlan.parse(plan.spec()).spec() == plan.spec()
        assert not FaultPlan.parse(None).enabled
        assert not FaultPlan.parse("").enabled

    def test_bad_specs_raise(self):
        with pytest.raises(ServeError):
            FaultPlan.parse("kill_every")
        with pytest.raises(ServeError):
            FaultPlan.parse("not_a_field=3")
        with pytest.raises(ServeError):
            FaultPlan.parse("kill_every=x")

    def test_injector_is_deterministic(self):
        """Two injectors over the same plan fault the exact same calls."""

        def crash_calls(plan):
            injector = FaultInjector(plan, hard=False)
            crashed = []
            for call in range(1, 21):
                try:
                    injector.before_call("k", [f"page {call}"])
                except ShardCrashed:
                    crashed.append(call)
            return crashed

        plan = FaultPlan(kill_every=5)
        first, second = crash_calls(plan), crash_calls(plan)
        assert first == second == [5, 10, 15, 20]
        # ``phase`` shifts the whole schedule, deterministically.
        assert crash_calls(FaultPlan(kill_every=5, phase=2)) == [3, 8, 13, 18]

    def test_poison_marker_always_crashes(self):
        injector = FaultInjector(FaultPlan(poison_marker=POISON), hard=False)
        for _ in range(3):
            with pytest.raises(ShardCrashed):
                injector.before_call("k", ["clean", f"<p>{POISON}</p>"])
        injector.before_call("k", ["clean page"])  # no marker: no fault

    def test_fault_events_are_logged_as_jsonl(self, tmp_path, monkeypatch):
        from repro.serve.faults import FAULT_LOG_ENV

        log = tmp_path / "faults.jsonl"
        monkeypatch.setenv(FAULT_LOG_ENV, str(log))
        injector = FaultInjector(
            FaultPlan(kill_every=2, delay_every=3, delay_s=0.0),
            hard=False,
            shard_tag="unit",
        )
        for _ in range(6):
            try:
                injector.before_call("k", ["page"])
            except ShardCrashed:
                pass
        events = [json.loads(line) for line in log.read_text().splitlines()]
        assert [e["event"] for e in events] == ["kill", "delay", "kill", "kill"]
        assert all(e["shard"] == "unit" and e["hard"] is False for e in events)
        assert [e["call"] for e in events] == [2, 3, 4, 6]

    def test_validate_shard_result_rejects_corruption(self):
        ok = {"pages": [{"a": 1}, {"b": 2}], "kernel": [{}, {}]}
        assert validate_reply(ok, 2) == ([{"a": 1}, {"b": 2}], [{}, {}])
        with pytest.raises(ShardCrashed):
            validate_reply({"pages": [{"a": 1}], "kernel": [{}]}, 2)  # wrong length
        with pytest.raises(ShardCrashed):
            validate_reply("garbage", 1)  # not a reply
        with pytest.raises(ShardCrashed):
            validate_reply({"pages": [{"__corrupt__": True}], "kernel": [{}]}, 1)  # marked


class TestQuarantine:
    def test_success_resets_the_strike_count(self):
        quarantine = Quarantine(strikes=2)
        assert not quarantine.strike("h")
        quarantine.absolve("h")  # a success in between: strikes not consecutive
        assert not quarantine.strike("h")
        assert quarantine.strike("h")  # two consecutive now: quarantined
        with pytest.raises(PoisonDocument):
            quarantine.check("h")
        quarantine.absolve("h")  # absolve never lifts quarantine
        assert quarantine.is_quarantined("h")
        assert len(quarantine) == 1
        assert quarantine.release("h") and not quarantine.is_quarantined("h")

    def test_describe_is_json_round_trippable(self):
        quarantine = Quarantine(strikes=1, clock=lambda: 123.0)
        quarantine.strike("abc")
        view = json.loads(json.dumps(quarantine.describe()))
        assert view["quarantined"] == ["abc"]
        assert view["entries"]["abc"]["strikes"] == 1


class TestCircuitBreaker:
    def test_half_open_probe_failure_reopens(self):
        now = [0.0]
        breaker = CircuitBreaker(threshold=2, cooldown=5.0, clock=lambda: now[0])
        breaker.record_failure()
        assert breaker.record_failure() is True  # opens
        assert not breaker.admits()
        now[0] += 5.1
        assert breaker.state == "half_open" and breaker.admits()
        breaker.record_failure()  # failed probe: back to open
        assert breaker.state == "open" and breaker.trips == 2
        now[0] += 5.1
        breaker.record_success()
        assert breaker.state == "closed" and breaker.failures == 0


class TestSupervisor:
    class _StubExecutor:
        """Two fake shards; shard 0 always fails its ping."""

        n_shards = 2
        ring = HashRing(range(2))

        def __init__(self):
            self.respawned = []

        def is_draining(self, shard):
            return False

        def ping(self, shard):
            future = concurrent.futures.Future()
            if shard == 0:
                future.set_exception(ShardCrashed("stub shard is sick"))
            else:
                future.set_result(True)
            return future

        def respawn_shard(self, shard):
            self.respawned.append(shard)

    def test_health_loop_trips_breaker_respawns_and_reroutes(self):
        async def run():
            executor = self._StubExecutor()
            metrics = ServeMetrics()
            supervisor = ShardSupervisor(
                executor, metrics, threshold=2, cooldown=60.0
            )
            for _ in range(3):
                await supervisor.check_once()
            return executor, metrics, supervisor

        executor, metrics, supervisor = asyncio.run(run())
        assert supervisor.breakers[0].state == "open"
        assert supervisor.breakers[1].state == "closed"
        assert executor.respawned == [0]  # respawned exactly when it opened
        # Keys homed on the sick shard reroute to its healthy neighbor.
        sample = list(map(str, range(200)))
        homed = [key for key in sample if executor.ring.node_for(key) == 0]
        assert homed and len(homed) < len(sample)
        for key in sample:
            home = executor.ring.node_for(key)
            assert supervisor.route_hash(key) == (1, home == 0)
        snapshot = metrics.snapshot()
        assert snapshot["counters"]["shard_respawns"] == 1
        assert snapshot["counters"]["rerouted"] >= 1
        health = supervisor.describe()
        assert health[0]["state"] == "open" and health[0]["respawns"] == 1


class TestBatcherUnderFaults:
    def test_bisection_isolates_poison_page_batch_mates_succeed(self):
        """One poison page in a coalesced flush fails alone; after the
        strike threshold it is quarantined and rejected up front."""

        async def run():
            registry = make_registry()
            entry = registry.resolve("items")
            executor, batcher, metrics = make_batcher(
                faults=FaultPlan(poison_marker=POISON),
                bypass_concurrency=0,  # force every request through the queue
                quarantine=Quarantine(strikes=2),
            )
            try:
                innocents = [item_page(i) for i in range(4)]
                poison = f"<ul><li>{POISON}</li></ul>"

                async def one(page):
                    try:
                        return await batcher.submit(entry, page, timeout=30.0)
                    except ServeError as exc:
                        return exc

                # Round 1: everything lands in one flush; the poisoned
                # shard call is bisected until only the poison page fails.
                outcomes = await asyncio.gather(*(one(p) for p in innocents + [poison]))
                for outcome in outcomes[:4]:
                    assert isinstance(outcome, dict), outcome
                    assert outcome["children"][0]["label"] == "item"
                assert isinstance(outcomes[4], ShardCrashed)
                assert metrics.snapshot()["counters"]["bisections"] >= 1

                # Round 2: second consecutive crash -> quarantined.
                assert isinstance(await one(poison), ShardCrashed)
                # Round 3: rejected before any shard is risked.
                assert isinstance(await one(poison), PoisonDocument)
                assert batcher.quarantine.is_quarantined(content_hash(poison))
                assert metrics.snapshot()["counters"]["quarantined"] == 1
                assert batcher.pending == 0
            finally:
                executor.close()

        asyncio.run(run())

    def test_hung_call_is_cut_at_deadline_and_worker_killed(self):
        async def run():
            registry = make_registry()
            entry = registry.resolve("items")
            # Every second call hangs "forever"; the deadline must cut it.
            executor, batcher, metrics = make_batcher(
                faults=FaultPlan(hang_every=2, hang_s=600.0)
            )
            try:
                assert await batcher.submit(entry, item_page(0), timeout=5.0)
                start = time.monotonic()
                with pytest.raises(RequestTimeout):
                    await batcher.submit(entry, item_page(1), timeout=0.2)
                assert time.monotonic() - start < 2.0  # cut off, not 600s
                # The killed worker respawned: the next call works.
                assert await batcher.submit(entry, item_page(2), timeout=5.0)
                assert metrics.snapshot()["counters"]["timeouts"] == 1
            finally:
                executor.close()

        asyncio.run(run())

    def test_crash_failure_path_releases_the_pending_budget(self):
        """A crash-looping shard must not leak the batcher into permanent
        503 backpressure: the budget is released on every failure."""

        async def run():
            registry = make_registry()
            entry = registry.resolve("items")
            executor, batcher, metrics = make_batcher(
                faults=FaultPlan(kill_every=1),  # every call crashes
                max_pending=4,
                quarantine=Quarantine(strikes=10_000),
            )
            try:
                for i in range(8):  # 2x the budget: leaks would 503 here
                    with pytest.raises(ShardCrashed):
                        await batcher.submit(entry, item_page(i), timeout=5.0)
                    assert batcher.pending == 0
            finally:
                executor.close()

        asyncio.run(run())

    def test_drain_fails_abandoned_requests_explicitly(self):
        async def run():
            registry = make_registry()
            entry = registry.resolve("items")
            executor, batcher, metrics = make_batcher(
                faults=FaultPlan(hang_every=1, hang_s=600.0),
                bypass_concurrency=0,
            )
            try:
                task = asyncio.ensure_future(
                    batcher.submit(entry, item_page(0))  # no timeout: hangs
                )
                await asyncio.sleep(0.05)  # let it queue and flush
                assert batcher.pending == 1
                await batcher.drain(timeout=0.1)
                with pytest.raises(ShardCrashed, match="shut down"):
                    await task
                counters = metrics.snapshot()["counters"]
                assert counters["drain_abandoned"] == 1
            finally:
                executor.close()

        asyncio.run(run())


@pytest.fixture
def fault_server():
    """Factory fixture: boot an ExtractionServer with a fault plan."""
    threads = []

    def boot(**kwargs):
        registry = kwargs.pop("registry", None) or make_registry()
        server = ExtractionServer(registry, port=0, **kwargs)
        thread = ServerThread(server)
        threads.append(thread)
        host, port = thread.start()
        return host, port, server

    yield boot
    for thread in threads:
        thread.stop()


class TestServerFaultTolerance:
    def test_worker_kills_are_absorbed_by_retries(self, fault_server):
        host, port, server = fault_server(
            shards=0, faults="kill_every=3", max_retries=3,
            quarantine_strikes=100, cache_size=0,
        )
        statuses = [
            request(host, port, "POST", "/extract/items", {"html": item_page(i)})[0]
            for i in range(12)
        ]
        assert statuses == [200] * 12  # zero client-visible 5xx
        _, metrics = request(host, port, "GET", "/metrics")
        assert metrics["counters"]["retries"] >= 3

    def test_retries_exhausted_surface_as_retryable_503(self, fault_server):
        host, port, server = fault_server(
            shards=0, faults="kill_every=1", max_retries=2,
            quarantine_strikes=100, cache_size=0, retry_backoff=0.001,
        )
        status, body = request(
            host, port, "POST", "/extract/items", {"html": item_page(0)}
        )
        assert status == 503 and body["retryable"] is True

    def test_hung_worker_cut_at_deadline_504_after_retries(self, fault_server):
        host, port, server = fault_server(
            shards=0, faults="hang_every=1,hang_s=600", max_retries=1,
            deadline_base=0.15, retry_backoff=0.001, cache_size=0,
        )
        start = time.monotonic()
        status, body = request(
            host, port, "POST", "/extract/items", {"html": item_page(0)}
        )
        assert status == 504 and body["retryable"] is True
        assert time.monotonic() - start < 5.0  # two bounded attempts, not 600s
        _, metrics = request(host, port, "GET", "/metrics")
        assert metrics["counters"]["timeouts"] >= 2

    def test_poison_page_quarantined_and_releasable(self, fault_server):
        host, port, server = fault_server(
            shards=0, faults=f"poison_marker={POISON}", max_retries=3,
            quarantine_strikes=2, retry_backoff=0.001, cache_size=0,
        )
        poison = f"<ul><li>{POISON}</li></ul>"
        # Strikes accrue across the in-request retries: 422 on the first
        # client round trip, not the Nth.
        status, body = request(
            host, port, "POST", "/extract/items", {"html": poison}
        )
        assert status == 422 and body["retryable"] is False

        status, listing = request(host, port, "GET", "/quarantine")
        poison_hash = content_hash(poison)
        assert status == 200 and listing["quarantined"] == [poison_hash]

        status, health = request(host, port, "GET", "/healthz")
        assert health["quarantined_documents"] == 1

        # Innocent pages still serve (zero collateral damage).
        status, _ = request(
            host, port, "POST", "/extract/items", {"html": item_page(1)}
        )
        assert status == 200

        # Operator release: the hash is forgotten (and immediately
        # re-earns its quarantine if retried, but that is its problem).
        status, body = request(
            host, port, "POST", "/quarantine/release", {"hash": poison_hash}
        )
        assert status == 200 and body["released"] is True
        status, listing = request(host, port, "GET", "/quarantine")
        assert listing["quarantined"] == []
        status, body = request(
            host, port, "POST", "/quarantine/release", {"hash": "nope"}
        )
        assert status == 404 and body["released"] is False

    def test_healthz_reports_shard_breaker_states(self, fault_server):
        host, port, server = fault_server(shards=0)
        status, health = request(host, port, "GET", "/healthz")
        assert status == 200 and health["status"] == "ok"
        assert [s["state"] for s in health["shard_health"]] == ["closed"]
        status, metrics = request(host, port, "GET", "/metrics")
        assert metrics["gauges"]["breakers_open"] == 0
        assert metrics["gauges"]["quarantined_documents"] == 0


class TestProcessShardRecovery:
    """Worker-death recovery against *real* process shards."""

    def test_real_worker_death_respawn_and_transparent_retry(self, fault_server):
        # Every 2nd shard call os._exit()s the worker mid-request; the
        # server must kill-respawn-reinstall-retry without the client
        # ever seeing it.
        host, port, server = fault_server(
            shards=1, faults="kill_every=2", max_retries=3,
            quarantine_strikes=100, cache_size=0,
        )
        from repro.serve.registry import build_wrapper

        wrapper, _ = build_wrapper("datalog", ITEM_DATALOG, ["item"])
        for i in range(4):
            page = item_page(i)
            status, body = request(
                host, port, "POST", "/extract/items", {"html": page}, timeout=120
            )
            assert status == 200, body
            expected = wrapper.wrap_html_many([page])[0].to_dict()
            assert body["result"] == expected  # correct, not just alive
        _, metrics = request(host, port, "GET", "/metrics")
        assert metrics["counters"]["retries"] >= 1

    def test_innocent_pages_never_quarantined_by_worker_kills(self, fault_server):
        # Regression: a worker kill used to strike its victim twice --
        # once for the crash, once when the retry's install hit the
        # still-broken pool -- so strikes=2 quarantined innocent pages.
        # Install-phase failures are blameless and must never strike.
        host, port, server = fault_server(
            shards=1, faults="kill_every=2", max_retries=3,
            quarantine_strikes=2, retry_backoff=0.001, cache_size=0,
        )
        for i in range(6):
            status, body = request(
                host, port, "POST", "/extract/items", {"html": item_page(i)},
                timeout=120,
            )
            assert status == 200, (i, body)
        status, listing = request(host, port, "GET", "/quarantine")
        assert listing["quarantined"] == [], listing

    def test_process_poison_page_is_quarantined(self, fault_server):
        # Strikes 1 and 2 come from the two attempts that actually
        # reached a worker (the attempt in between fails blameless on
        # the broken pool and does not count); attempt 4 is rejected by
        # the quarantine before risking another worker.
        host, port, server = fault_server(
            shards=1, faults=f"poison_marker={POISON}", max_retries=3,
            quarantine_strikes=2, retry_backoff=0.001, cache_size=0,
        )
        poison = f"<ul><li>{POISON}</li></ul>"
        status, body = request(
            host, port, "POST", "/extract/items", {"html": poison}, timeout=120
        )
        assert status == 422, body
        # The server survived two real worker deaths and still serves.
        status, _ = request(
            host, port, "POST", "/extract/items", {"html": item_page(1)},
            timeout=120,
        )
        assert status == 200


class TestHostilePage:
    def test_deep_tag_soup_served_inside_default_deadline(self, fault_server):
        # ~100 KB of tag soup 8000 elements deep: every <p> implies closing
        # the previous one, under the whole stack of unclosed <div>s.
        # Ingestion is linear, so the page fits its size-derived deadline
        # (~2.5 s) on the first attempt instead of being killed, retried
        # and quarantined as wedged.
        from repro.serve.registry import build_wrapper

        registry = WrapperRegistry()
        registry.register(
            "catalog", CATALOG_WRAPPER, kind="elog",
            patterns=["record", "name", "price"],
        )
        depth = 8000
        junk = "<div>" * depth + "".join(f"<p>r{i}" for i in range(depth))
        page = catalog_page(seed=3, items=64).replace(
            '<div id="footer">', '<div id="footer">' + junk, 1
        )
        assert len(page) > 100_000
        host, port, server = fault_server(registry=registry, shards=1)
        status, body = request(
            host, port, "POST", "/extract/catalog", {"html": page}, timeout=120
        )
        assert status == 200, body
        wrapper, _ = build_wrapper(
            "elog", CATALOG_WRAPPER, ["record", "name", "price"]
        )
        assert body["result"] == wrapper.wrap_html_many([page])[0].to_dict()
        _, metrics = request(host, port, "GET", "/metrics")
        assert metrics["counters"].get("retries", 0) == 0, metrics["counters"]
        assert metrics["counters"].get("timeouts", 0) == 0, metrics["counters"]
        status, listing = request(host, port, "GET", "/quarantine")
        assert status == 200 and listing["quarantined"] == []


class TestChaosAcceptance:
    def test_200_requests_under_kills_and_deadline_delays(self, fault_server):
        """The ISSUE's acceptance run: every 5th shard call killed, ~14%
        of calls delayed past the deadline, one deterministic poison
        page.  Zero client-visible 5xx for non-poison pages; the poison
        page is quarantined; hung calls are cut at the deadline."""
        host, port, server = fault_server(
            shards=0,
            faults=f"kill_every=5,delay_every=7,delay_s=0.6,poison_marker={POISON}",
            deadline_base=0.2,        # small pages: delay_s blows the budget
            max_retries=4,
            retry_backoff=0.002,
            quarantine_strikes=3,
            cache_size=0,
        )
        poison = f"<ul><li>{POISON} page</li></ul>"
        status, body = request(
            host, port, "POST", "/extract/items", {"html": poison}
        )
        # 3 consecutive crashes quarantine it mid-retry; the next
        # attempt is rejected up front -- one client round trip, one 422.
        assert status == 422, body

        statuses = [
            request(host, port, "POST", "/extract/items", {"html": item_page(i)})
            for i in range(200)
        ]
        non_200 = [(s, b) for s, b in statuses if s != 200]
        assert non_200 == [], f"client-visible failures: {non_200[:5]}"
        texts = [
            body["result"]["children"][0]["text"] for _, body in statuses
        ]
        assert texts == [f"item {i}" for i in range(200)]  # correct results

        _, metrics = request(host, port, "GET", "/metrics")
        counters = metrics["counters"]
        assert counters["retries"] >= 10, counters        # kills absorbed
        assert counters["timeouts"] >= 5, counters        # hangs cut off
        assert counters["quarantined"] == 1, counters     # poison isolated
        status, listing = request(host, port, "GET", "/quarantine")
        assert listing["quarantined"] == [content_hash(poison)]
        # The run left no residue: the budget is fully released.
        assert server.batcher.pending == 0
