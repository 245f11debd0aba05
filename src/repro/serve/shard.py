"""Standalone evaluation shard daemon: ``python -m repro.serve.shard``.

One daemon is one shard: a single-worker evaluation box speaking the
length-prefixed frame protocol of :mod:`repro.serve.transport` over a
listening socket.  Run from this CLI it is a remote shard on
``host:port``; a :class:`~repro.serve.executor.ShardExecutor` forks its
local shards as daemons on Unix sockets it owns.  A router installs each
compiled wrapper at most once per connection lifetime, then streams
pages; the daemon evaluates them on a dedicated worker thread (one at a
time, so a ping round trip proves the daemon is draining its queue).

Operations: ``install`` / ``uninstall`` (compiled-wrapper residency,
LRU-capped), ``wrap`` (the one shard operation, see
:meth:`~repro.serve.executor.ShardStore.wrap`: a page sub-batch with an
optional parallel ``doc_ids`` column -- a page with a doc id is wrapped
warm against the daemon's per-document
:class:`~repro.wrap.extraction.WrapperState` store, state-local to this
box -- answered with ``{"pages": [...], "kernel": [...]}``; an optional
``trace`` field carries the client's trace id into the daemon's log),
``ping`` (health + stats), and ``drain`` (operator-initiated graceful
shutdown).

**Graceful drain** (``SIGTERM``, or a ``drain`` frame): the daemon stops
accepting connections, pushes an unsolicited ``{"op": "drain"}`` notice
on every live connection -- so routers pull it from the consistent-hash
ring *before* the socket closes -- finishes the frames already in
flight, and only then exits.  A planned shutdown is therefore invisible
to clients: no request ever dies with the daemon.

Fault injection: ``--faults`` applies the *evaluation* fault kinds
(``kill_every``, ``delay_every``, ``hang_every``, ``corrupt_every``,
``poison_marker``) via a **soft** :class:`~repro.serve.faults.FaultInjector`
-- an injected kill raises :class:`~repro.errors.ShardCrashed`, which
travels back as a typed error frame and exercises the identical
retry/quarantine path as real worker death, deterministically and
without sacrificing the process.  (A local shard's daemon injects kills
hard: it really exits, and the executor forks a fresh one.)  *Real* daemon death (the SIGKILL chaos
runs) needs no injector at all; the network fault kinds
(``drop_conn``/``delay_frame``/``garble_frame``) belong to the router
side.

Example::

    python -m repro.serve.shard --listen 127.0.0.1:9101
    # ... and on the router box:
    python -m repro.serve --demo --remote-shard 127.0.0.1:9101
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import signal
import sys
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, Optional, Set, Tuple, Union

from repro.errors import ServeError
from repro.serve.executor import ShardStore
from repro.serve.faults import FaultInjector, FaultPlan, log_fault_event
from repro.serve.server import ServerThread
from repro.serve.transport import (
    FrameError,
    encode_error,
    read_frame,
    write_frame,
)


class ShardDaemon:
    """The shard daemon's asyncio core (embeddable; see also ``main``)."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        faults: Union[FaultPlan, str, None] = None,
        max_installed: int = 32,
        state_cap: int = 128,
        drain_grace: float = 5.0,
    ):
        self.host = host
        self.port = port  # 0 -> ephemeral; set to the bound port by start()
        plan = FaultPlan.parse(faults) if isinstance(faults, str) else faults
        self.store = ShardStore(
            injector=(
                FaultInjector(plan, hard=False, shard_tag=f"daemon:{port}")
                if plan is not None and plan.enabled
                else None
            ),
            max_installed=max(1, max_installed),
            state_cap=state_cap,
        )
        self.drain_grace = drain_grace
        self._pool = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-shard-daemon"
        )
        self.stats: Dict[str, int] = {
            "connections": 0,
            "installs": 0,
            "uninstalls": 0,
            "wraps": 0,
            "warm_wraps": 0,
            "traced_wraps": 0,
            "pages": 0,
            "pings": 0,
            "frame_errors": 0,
        }
        self.draining = False
        self._busy = 0
        self._server: Optional[asyncio.AbstractServer] = None
        #: Live connections: (writer, per-connection write lock).
        self._peers: Set[Tuple[asyncio.StreamWriter, asyncio.Lock]] = set()

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._client_connected, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        with contextlib.suppress(asyncio.CancelledError):
            await self._server.serve_forever()

    async def drain(self) -> None:
        """Graceful shutdown: notify routers, finish in-flight frames.

        Safe to call more than once.  After this returns the daemon has
        stopped listening, every router connection has seen a drain
        notice, no frame is mid-evaluation, and the worker pool is down.
        """
        if self.draining:
            return
        self.draining = True
        log_fault_event("daemon_drain", address=self.address)
        if self._server is not None:
            self._server.close()
        # Push the unsolicited notice on every live connection *before*
        # anything closes, so routers re-ring without a visible error.
        for writer, lock in list(self._peers):
            with contextlib.suppress(Exception):
                async with lock:
                    await write_frame(writer, {"op": "drain"})
        # Let in-flight frames finish (bounded by the grace period).
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.drain_grace
        while self._busy and loop.time() < deadline:
            await asyncio.sleep(0.01)
        for writer, _ in list(self._peers):
            with contextlib.suppress(Exception):
                writer.close()
        if self._server is not None:
            with contextlib.suppress(Exception):
                await self._server.wait_closed()
            self._server = None
        self._pool.shutdown(wait=True)

    #: The graceful shutdown :class:`DaemonThread` runs.
    stop = drain

    # -- connections ---------------------------------------------------------

    async def _client_connected(self, reader, writer) -> None:
        self.stats["connections"] += 1
        write_lock = asyncio.Lock()
        peer = (writer, write_lock)
        self._peers.add(peer)
        try:
            if self.draining:
                with contextlib.suppress(Exception):
                    async with write_lock:
                        await write_frame(writer, {"op": "drain"})
            await self._serve_peer(reader, writer, write_lock)
        except asyncio.CancelledError:
            pass  # loop shutdown while a peer was idle: a clean exit
        finally:
            self._peers.discard(peer)
            with contextlib.suppress(Exception, asyncio.CancelledError):
                writer.close()
                await writer.wait_closed()

    async def _serve_peer(self, reader, writer, write_lock) -> None:
        while True:
            try:
                message = await read_frame(reader)
            except (
                asyncio.IncompleteReadError,
                ConnectionError,
                EOFError,
                OSError,
            ):
                return  # client went away
            except FrameError as exc:
                # A garbled or desynchronized stream cannot be trusted:
                # drop the connection; the router reconnects fresh.
                self.stats["frame_errors"] += 1
                log_fault_event(
                    "daemon_frame_error", address=self.address, error=str(exc)
                )
                return
            rid = message.get("id")
            self._busy += 1
            try:
                value = await self._dispatch(message)
                reply = {"id": rid, "ok": True, "value": value}
            except asyncio.CancelledError:
                raise
            except BaseException as exc:
                reply = {"id": rid, "ok": False, "error": encode_error(exc)}
            finally:
                self._busy -= 1
            if self.draining:
                reply["draining"] = True
            try:
                async with write_lock:
                    await write_frame(writer, reply)
            except (ConnectionError, OSError):
                return

    # -- operations ----------------------------------------------------------

    async def _dispatch(self, message: dict):
        op = message.get("op")
        if op == "ping":
            self.stats["pings"] += 1
            return {"draining": self.draining, "stats": dict(self.stats)}
        if op == "install":
            self.stats["installs"] += 1
            return self.store.install(message["key"], message["wrapper"])
        if op == "uninstall":
            self.stats["uninstalls"] += 1
            return self.store.uninstall(message["key"])
        if op == "wrap":
            pages = message["pages"]
            items = list(zip(pages, message.get("doc_ids") or [None] * len(pages)))
            self.stats["wraps"] += 1
            self.stats["pages"] += len(items)
            if any(doc_id is not None for _, doc_id in items):
                self.stats["warm_wraps"] += 1
            trace = message.get("trace")
            if isinstance(trace, dict):
                # Log the client's trace id so a cross-box grep by trace
                # id finds the daemon-side line.
                self.stats["traced_wraps"] += 1
                log_fault_event(
                    "daemon_traced_wrap",
                    address=self.address,
                    trace_id=trace.get("trace_id"),
                    pages=len(items),
                )
            return await asyncio.get_running_loop().run_in_executor(
                self._pool, self.store.wrap, message["key"], items
            )
        if op == "drain":
            # Operator-initiated graceful shutdown over the wire; the
            # reply goes out first, the drain proceeds in the background.
            asyncio.ensure_future(self.drain())
            return True
        raise ServeError(f"unknown shard daemon operation {op!r}")


class DaemonThread(ServerThread):
    """Run a :class:`ShardDaemon` on a dedicated event-loop thread.

    The embedding harness for tests and benchmarks: ``start()`` blocks
    until the port is bound; ``stop()`` performs the graceful drain and
    joins the thread.
    """

    @property
    def daemon(self) -> ShardDaemon:
        return self.server


# -- the CLI -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve.shard",
        description="Run one remote evaluation shard daemon.",
    )
    parser.add_argument(
        "--listen",
        default="127.0.0.1:8521",
        metavar="HOST:PORT",
        help="address to bind (port 0 picks an ephemeral port)",
    )
    parser.add_argument(
        "--max-installed",
        type=int,
        default=32,
        help="resident compiled wrappers before LRU eviction",
    )
    parser.add_argument(
        "--drain-grace",
        type=float,
        default=5.0,
        help="seconds SIGTERM waits for in-flight frames before closing",
    )
    parser.add_argument(
        "--faults",
        default=None,
        metavar="SPEC",
        help=(
            "deterministic evaluation-fault injection, e.g. "
            "'kill_every=5,poison_marker=POISON' (soft: injected kills "
            "raise ShardCrashed back to the router; chaos testing only)"
        ),
    )
    return parser


async def _amain(args: argparse.Namespace) -> int:
    from repro.serve.transport import parse_address

    host, port = parse_address(args.listen)
    daemon = ShardDaemon(
        host=host,
        port=port,
        faults=args.faults,
        max_installed=args.max_installed,
        drain_grace=args.drain_grace,
    )
    await daemon.start()
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        with contextlib.suppress(NotImplementedError):  # pragma: no cover
            loop.add_signal_handler(signum, stop.set)
    if args.faults:
        print(f"FAULT INJECTION ACTIVE: {args.faults}", flush=True)
    print(f"repro.serve.shard listening on {daemon.address}", flush=True)
    await stop.wait()
    print("repro.serve.shard: draining and shutting down ...", flush=True)
    await daemon.drain()
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return asyncio.run(_amain(args))
    except KeyboardInterrupt:  # pragma: no cover - direct ^C fallback
        return 130


if __name__ == "__main__":
    sys.exit(main())
