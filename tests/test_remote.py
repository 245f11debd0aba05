"""Loopback remote-cluster tests: shard daemons behind the HTTP router.

Everything here runs on 127.0.0.1 but exercises the full cluster story:
the frame protocol and its fault mapping (connection refused / mid-call
death / garbling -> :class:`~repro.errors.ShardCrashed`), install-once
semantics per daemon, warm ``doc_id`` affinity under ring routing,
breaker trips on a SIGKILLed daemon, quarantine parity with local
shards, graceful drain (planned shutdown with zero client-visible
errors), and the 200-request chaos acceptance run that the CI
``cluster-chaos`` job repeats with the fault log uploaded as artifact.

In-process daemons (:class:`~repro.serve.shard.DaemonThread`) are used
where the test needs to read daemon-side stats; real subprocess daemons
(``python -m repro.serve.shard``) are used where the test needs to
SIGKILL a box.
"""

import asyncio
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.errors import ShardCrashed, WrapperNotResident
from repro.serve import (
    DaemonThread,
    ExtractionServer,
    RemoteShardExecutor,
    ServerThread,
    ShardDaemon,
    WrapperRegistry,
)
from repro.serve.transport import parse_address
from tests.test_serve import request
from tests.test_serve_faults import ITEM_DATALOG, POISON, item_page, make_registry


def wait_until(predicate, timeout=10.0, interval=0.05):
    deadline = time.time() + timeout
    while time.time() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


# -- harnesses ---------------------------------------------------------------


@pytest.fixture
def cluster():
    """Three in-process daemons + a router server, torn down in order."""
    daemons = []
    threads = []
    servers = []

    def boot(n_daemons=3, daemon_kwargs=None, **server_kwargs):
        cluster_daemons = [
            DaemonThread(ShardDaemon(**(daemon_kwargs or {})))
            for _ in range(n_daemons)
        ]
        daemons.extend(cluster_daemons)
        addresses = [
            f"{host}:{port}"
            for host, port in (daemon.start() for daemon in cluster_daemons)
        ]
        server_kwargs.setdefault("health_interval", 0.1)
        server_kwargs.setdefault("breaker_cooldown", 0.5)
        registry = server_kwargs.pop("registry", None) or make_registry()
        server = ExtractionServer(
            registry, remote_shards=addresses, **server_kwargs
        )
        thread = ServerThread(server)
        servers.append(server)
        threads.append(thread)
        host, port = thread.start()
        return cluster_daemons, server, host, port

    yield boot
    for thread in threads:
        thread.stop()
    for daemon in daemons:
        daemon.stop()


def spawn_daemon(port=0, faults=None):
    """A real shard daemon subprocess; returns (process, 'host:port')."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    command = [
        sys.executable,
        "-m",
        "repro.serve.shard",
        "--listen",
        f"127.0.0.1:{port}",
    ]
    if faults:
        command += ["--faults", faults]
    process = subprocess.Popen(
        command, env=env, stdout=subprocess.PIPE, text=True
    )
    for line in process.stdout:
        if "listening on" in line:
            return process, line.rsplit(" ", 1)[-1].strip()
    raise RuntimeError("shard daemon subprocess never reported its address")


@pytest.fixture
def daemon_processes():
    processes = []

    def boot(count=3, faults=None):
        booted = [spawn_daemon(faults=faults) for _ in range(count)]
        processes.extend(proc for proc, _ in booted)
        return booted

    yield boot
    for process in processes:
        if process.poll() is None:
            process.send_signal(signal.SIGKILL)
        process.wait(timeout=10)
        process.stdout.close()


# -- transport error mapping -------------------------------------------------


class TestTransportFaultMapping:
    def run_async(self, coroutine):
        return asyncio.run(coroutine)

    def test_connection_refused_is_blameless_shard_crashed(self):
        # Grab a port that nothing listens on.
        import socket

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()

        async def scenario():
            executor = RemoteShardExecutor([f"127.0.0.1:{port}"])
            with pytest.raises(ShardCrashed) as info:
                await executor.ping(0)
            assert info.value.blameless is True
            await executor.aclose()

        self.run_async(scenario())

    def test_daemon_death_mid_stream_is_attributable_crash(self):
        async def scenario():
            daemon = ShardDaemon()
            await daemon.start()
            executor = RemoteShardExecutor([daemon.address])
            assert await executor.ping(0) is True
            # The daemon vanishes without a drain notice (simulated
            # SIGKILL): the next call dies mid-stream.
            for writer, _ in list(daemon._peers):
                writer.transport.abort()
            if daemon._server is not None:
                daemon._server.close()
            with pytest.raises(ShardCrashed) as info:
                await executor.submit(0, "missing", ["<p>x</p>"])
            assert info.value.blameless is False
            await executor.aclose()
            await daemon.drain()

        self.run_async(scenario())

    def test_remote_wrapper_not_resident_round_trips(self):
        async def scenario():
            daemon = ShardDaemon()
            await daemon.start()
            executor = RemoteShardExecutor([daemon.address])
            with pytest.raises(WrapperNotResident):
                await executor.submit(0, "never-installed", ["<p>x</p>"])
            await executor.aclose()
            await daemon.drain()

        self.run_async(scenario())

    def test_timeout_then_kill_shard_reconnects_cleanly(self):
        async def scenario():
            daemon = ShardDaemon(faults="delay_every=1,delay_s=0.4")
            await daemon.start()
            executor = RemoteShardExecutor([daemon.address])
            wrapper = make_registry().resolve("items").wrapper
            for install in executor.ensure_installed("k", wrapper, shard=0):
                await install
            with pytest.raises(asyncio.TimeoutError):
                await asyncio.wait_for(
                    executor.submit(0, "k", [item_page(0)]), timeout=0.05
                )
            # What the batcher does next: sever the stream, reconnect.
            executor.kill_shard(0)
            assert await executor.ping(0) is True
            assert executor.shard_state(0)["reconnects_total"] == 1
            await executor.aclose()
            await daemon.drain()

        self.run_async(scenario())

    def test_injected_garble_frame_is_detected_and_mapped(self):
        async def scenario():
            daemon = ShardDaemon()
            await daemon.start()
            from repro.serve.faults import FaultPlan

            executor = RemoteShardExecutor(
                [daemon.address], faults=FaultPlan.parse("garble_frame_every=2")
            )
            assert await executor.ping(0) is True  # frame 1: clean
            with pytest.raises(ShardCrashed):
                await executor.ping(0)  # frame 2: garbled on the wire
            # The daemon dropped the untrustworthy connection; the next
            # frame (3) reconnects and is clean again.
            assert await executor.ping(0) is True
            assert daemon.stats["frame_errors"] == 1
            await executor.aclose()
            await daemon.drain()

        self.run_async(scenario())


# -- the cluster behind the HTTP router --------------------------------------


class TestRemoteCluster:
    def test_install_once_per_daemon_across_many_requests(self, cluster):
        daemons, server, host, port = cluster()
        for i in range(24):
            status, _ = request(
                host, port, "POST", "/extract/items", {"html": item_page(i)}
            )
            assert status == 200
        # One wrapper, three daemons: exactly one install each, however
        # many requests streamed through.
        installs = [thread.daemon.stats["installs"] for thread in daemons]
        assert installs == [1, 1, 1]
        assert sum(t.daemon.stats["pages"] for t in daemons) >= 24

    def test_warm_doc_id_affinity_lands_on_one_daemon(self, cluster):
        daemons, server, host, port = cluster()
        for version in range(6):
            status, _ = request(
                host,
                port,
                "POST",
                "/extract/items",
                {
                    "html": f"<ul><li>item v{version}</li></ul>",
                    "doc_id": "crawl://fixed-url",
                },
            )
            assert status == 200
        warm_counts = [t.daemon.stats["warm_wraps"] for t in daemons]
        # Every version of the document hit the same daemon's state store.
        assert sorted(warm_counts)[:2] == [0, 0]
        assert max(warm_counts) == 6
        status, metrics = request(host, port, "GET", "/metrics")
        assert metrics["incremental"]["hits"] >= 4

    def test_healthz_reports_remote_transport_and_ring(self, cluster):
        daemons, server, host, port = cluster()
        status, payload = request(host, port, "GET", "/healthz")
        assert status == 200
        assert payload["transport"] == "remote"
        assert payload["ring"]["members"] == [0, 1, 2]
        assert payload["ring"]["vnodes"] == 64
        for shard in payload["shard_health"]:
            assert shard["transport"] == "remote"
            assert "connected" in shard and "reconnects_total" in shard
            assert shard["in_ring"] is True

    def test_wrapper_registration_reports_acking_shards(self, cluster):
        daemons, server, host, port = cluster()
        status, payload = request(
            host,
            port,
            "POST",
            "/wrappers",
            {
                "name": "fresh",
                "source": ITEM_DATALOG,
                "kind": "datalog",
                "patterns": ["item"],
            },
        )
        assert status == 201
        assert payload["shards_acked"] == [0, 1, 2]

    def test_graceful_drain_is_invisible_to_clients(self, cluster):
        daemons, server, host, port = cluster()
        status, _ = request(
            host, port, "POST", "/extract/items", {"html": item_page(0)}
        )
        assert status == 200
        daemons[0].stop()

        def ring_shrunk():
            _, payload = request(host, port, "GET", "/healthz")
            return 0 not in payload["ring"]["members"]

        assert wait_until(ring_shrunk, timeout=10)
        for i in range(1, 16):
            status, payload = request(
                host, port, "POST", "/extract/items", {"html": item_page(i)}
            )
            assert status == 200, payload
        status, metrics = request(host, port, "GET", "/metrics")
        assert metrics["counters"].get("ring_left_draining", 0) >= 1
        # Planned shutdown: the breaker never tripped for it.
        assert metrics["counters"].get("shard_respawns", 0) == 0

    def test_remote_poison_quarantine_parity(self, cluster):
        daemons, server, host, port = cluster(
            daemon_kwargs={"faults": f"poison_marker={POISON}"},
            quarantine_strikes=2,
            max_retries=3,
        )
        status, payload = request(
            host,
            port,
            "POST",
            "/extract/items",
            {"html": f"<ul><li>{POISON}</li></ul>"},
        )
        # Crashes attributed to the document across retries -> 422, the
        # same policy as local shards.
        assert status == 422
        assert payload["retryable"] is False
        # Innocent documents still flow.
        status, _ = request(
            host, port, "POST", "/extract/items", {"html": item_page(1)}
        )
        assert status == 200


class TestDaemonCli:
    def test_cli_start_and_drain_print_no_warning(self):
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.serve.shard", "--listen", "127.0.0.1:0"],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            assert "listening on" in process.stdout.readline()
            process.send_signal(signal.SIGTERM)
            _, stderr = process.communicate(timeout=30)
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()
        assert process.returncode == 0
        assert "RuntimeWarning" not in stderr, stderr


class TestDeadDaemon:
    def test_sigkilled_daemon_trips_breaker_and_requests_reroute(
        self, daemon_processes, cluster
    ):
        booted = daemon_processes(count=3)
        addresses = [address for _, address in booted]
        registry = make_registry()
        server = ExtractionServer(
            registry,
            remote_shards=addresses,
            health_interval=0.1,
            breaker_threshold=3,
            breaker_cooldown=30.0,
            max_retries=5,
        )
        thread = ServerThread(server)
        host, port = thread.start()
        try:
            for i in range(6):
                status, _ = request(
                    host, port, "POST", "/extract/items", {"html": item_page(i)}
                )
                assert status == 200
            victim, victim_address = booted[1]
            victim.send_signal(signal.SIGKILL)
            victim.wait(timeout=10)

            def breaker_tripped():
                _, payload = request(host, port, "GET", "/healthz")
                shard = payload["shard_health"][1]
                return not shard["in_ring"] and shard["state"] != "closed"

            assert wait_until(breaker_tripped, timeout=10)
            # Every key reroutes; no client-visible failures.
            for i in range(16):
                status, payload = request(
                    host, port, "POST", "/extract/items", {"html": item_page(100 + i)}
                )
                assert status == 200, payload
            _, payload = request(host, port, "GET", "/healthz")
            assert payload["ring"]["members"] == [0, 2]
            assert payload["status"] == "degraded"
        finally:
            thread.stop()


class TestClusterChaosAcceptance:
    """The 200-request acceptance stream the CI cluster-chaos job runs."""

    def test_stream_survives_sigkill_and_rejoin_under_drop_conn(
        self, daemon_processes
    ):
        booted = daemon_processes(count=3)
        addresses = [address for _, address in booted]
        registry = make_registry()
        server = ExtractionServer(
            registry,
            remote_shards=addresses,
            health_interval=0.1,
            breaker_threshold=3,
            breaker_cooldown=0.5,
            max_retries=6,
            retry_backoff=0.01,
            faults="drop_conn_every=41,delay_frame_every=17,delay_frame_s=0.005",
        )
        thread = ServerThread(server)
        host, port = thread.start()
        victim, victim_address = booted[1]
        replacement = None
        statuses = []
        try:
            for i in range(200):
                body = {"html": item_page(i)}
                if i % 5 == 0:
                    body["doc_id"] = f"crawl://doc-{(i // 5) % 12}"
                status, payload = request(
                    host, port, "POST", "/extract/items", body, timeout=60
                )
                statuses.append(status)
                if i == 60:
                    victim.send_signal(signal.SIGKILL)
                    victim.wait(timeout=10)
                if i == 120:
                    # The box comes back on the same address.
                    host_part, port_part = parse_address(victim_address)
                    replacement, _ = spawn_daemon(port=port_part)
            assert all(status == 200 for status in statuses), statuses
            # The killed shard's keys were rerouted while it was down ...
            _, metrics = request(host, port, "GET", "/metrics")
            assert metrics["counters"].get("ring_rebalanced_keys", 0) >= 1

            # ... and the rejoined daemon serves again.
            def rejoined():
                _, payload = request(host, port, "GET", "/healthz")
                shard = payload["shard_health"][1]
                return shard["in_ring"] and shard["connected"]

            assert wait_until(rejoined, timeout=15)
            for i in range(200, 220):
                status, payload = request(
                    host, port, "POST", "/extract/items", {"html": item_page(i)}
                )
                assert status == 200, payload
            _, payload = request(host, port, "GET", "/healthz")
            assert payload["ring"]["members"] == [0, 1, 2]
        finally:
            thread.stop()
            if replacement is not None:
                if replacement.poll() is None:
                    replacement.send_signal(signal.SIGKILL)
                replacement.wait(timeout=10)
                replacement.stdout.close()
