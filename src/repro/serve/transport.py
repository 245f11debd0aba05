"""Fault-mapped socket transport: the one way a router reaches a shard.

Every process shard is a :class:`~repro.serve.shard.ShardDaemon` behind
this wire -- a remote box at ``host:port``, or a local daemon the
:class:`~repro.serve.executor.ShardExecutor` forked onto a Unix socket it
owns (:class:`_LocalShard`).  The shard protocol (install a wrapper once,
stream pages, ping, kill, respawn) travels as framed messages.  The
module has one design rule, inherited from the fault-tolerance layer:
**every transport failure must surface as one of the serving error
types**, so the batcher's retry/bisection, the supervisor's circuit
breakers, the quarantine, and the server's backoff loop work the same
against every shard:

* connection refused / unreachable daemon -> *blameless*
  :class:`~repro.errors.ShardCrashed` (the daemon was down before the
  documents ever reached it);
* connection reset / EOF / broken frame mid-call ->
  :class:`~repro.errors.ShardCrashed` (attributable: the documents in
  flight may be what killed the daemon, so they earn quarantine
  strikes);
* a call exceeding its size-derived deadline is cut off by the batcher's
  one ``asyncio.wait_for`` per shard call (install, submission and reply
  together); the cancellation closes the connection (a sequential frame
  stream that timed out can no longer be trusted) and the failure
  surfaces as :class:`~repro.errors.RequestTimeout`;
* a daemon-side evaluation error travels back as a typed error frame and
  is re-raised as the same :mod:`repro.errors` class (so
  ``WrapperNotResident`` after a daemon restart, or an injected
  ``ShardCrashed``, behave bit-for-bit like the inline shard's).

Frame format (both directions)::

    4 bytes big-endian payload length | 4 bytes CRC32 | pickled payload

The CRC turns line noise and injected garbling into a deterministic
:class:`FrameError` instead of an unpickling crash deep in a handler.
Payloads are pickled because compiled wrappers must travel to the daemon
exactly once -- which also means the transport is for **trusted
networks only** (a cluster-internal fabric), like any pickle RPC.

Requests and responses are matched by ``id``.  Each connection is
serialized by a lock (one outstanding request), matching the daemon's
single evaluation worker: a ping queued behind a long evaluation proves
the daemon is draining its queue, and a hung daemon fails its ping --
feeding the same breaker machinery.  The daemon may
interleave one unsolicited frame, ``{"op": "drain"}``, announcing a
planned shutdown; the client marks the shard draining so the supervisor
removes it from the consistent-hash ring before the socket closes.

Network fault injection (``drop_conn`` / ``delay_frame`` /
``garble_frame``, see :mod:`repro.serve.faults`) is applied here on the
router side of remote connections, counted per connection frame, so
chaos runs remain fully deterministic.
"""

from __future__ import annotations

import asyncio
import contextlib
import multiprocessing
import os
import pickle
import signal
import socket
import struct
import zlib
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

import repro.errors as _errors
from repro.errors import ServeError, ShardCrashed
from repro.serve.executor import Item, ShardSet
from repro.serve.faults import FaultInjector, FaultPlan, TransportFaultInjector

#: Header: payload length + CRC32, both unsigned 32-bit big-endian.
_HEADER = struct.Struct(">II")

#: Upper bound on one frame's payload; a length beyond this means a
#: desynchronized or hostile stream, not a real message.
MAX_FRAME = 64 * 1024 * 1024


class FrameError(ServeError):
    """A frame failed validation (bad length, checksum, or pickle)."""


def encode_frame(message: dict) -> bytes:
    """Serialize one message to ``header + payload`` bytes."""
    payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    if len(payload) > MAX_FRAME:
        raise FrameError(
            f"frame of {len(payload)} bytes exceeds the {MAX_FRAME}-byte cap"
        )
    return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def decode_payload(payload: bytes, crc: int) -> dict:
    """Validate and unpickle one frame payload.

    >>> raw = encode_frame({"op": "ping"})
    >>> length, crc = _HEADER.unpack(raw[:8])
    >>> decode_payload(raw[8:], crc)
    {'op': 'ping'}
    >>> decode_payload(b"garbage", crc)
    Traceback (most recent call last):
        ...
    repro.serve.transport.FrameError: frame checksum mismatch (garbled on the wire)
    """
    if zlib.crc32(payload) != crc:
        raise FrameError("frame checksum mismatch (garbled on the wire)")
    try:
        message = pickle.loads(payload)
    except Exception as exc:
        raise FrameError(f"frame payload does not unpickle: {exc}") from None
    if not isinstance(message, dict):
        raise FrameError(
            f"frame payload is {type(message).__name__}, expected a dict"
        )
    return message


async def read_frame(reader: asyncio.StreamReader) -> dict:
    """Read and validate one frame; raises :class:`FrameError` on junk."""
    header = await reader.readexactly(_HEADER.size)
    length, crc = _HEADER.unpack(header)
    if length > MAX_FRAME:
        raise FrameError(
            f"incoming frame claims {length} bytes (cap {MAX_FRAME}); "
            "stream desynchronized"
        )
    payload = await reader.readexactly(length)
    return decode_payload(payload, crc)


async def write_frame(
    writer: asyncio.StreamWriter, message: dict, garble: bool = False
) -> None:
    """Send one frame; ``garble=True`` flips payload bytes post-checksum.

    Garbling is the injected ``garble_frame`` network fault: the header
    stays intact so the receiver reads the right number of bytes, then
    fails the CRC check -- a deterministic model of line corruption.
    """
    data = encode_frame(message)
    if garble:
        body = bytes(b ^ 0xA5 for b in data[_HEADER.size :])
        data = data[: _HEADER.size] + body
    writer.write(data)
    await writer.drain()


# -- typed error frames -----------------------------------------------------


def encode_error(exc: BaseException) -> dict:
    """Serialize an exception for an error frame (type + message)."""
    return {
        "type": type(exc).__name__,
        "message": str(exc),
        "blameless": bool(getattr(exc, "blameless", False)),
    }


def decode_error(payload: object) -> Exception:
    """Rebuild the typed exception an error frame carries.

    Known :mod:`repro.errors` classes are reconstructed exactly (so the
    retry/quarantine policy treats remote failures like local ones);
    anything else degrades to :class:`~repro.errors.ServeError`.

    >>> err = decode_error({"type": "ShardCrashed", "message": "boom",
    ...                     "blameless": True})
    >>> type(err).__name__, err.blameless
    ('ShardCrashed', True)
    >>> type(decode_error({"type": "ValueError", "message": "x"})).__name__
    'ServeError'
    """
    if not isinstance(payload, dict):
        return ShardCrashed("remote shard sent a malformed error frame")
    name = payload.get("type", "")
    message = payload.get("message", "remote shard error")
    cls = getattr(_errors, str(name), None)
    if isinstance(cls, type) and issubclass(cls, _errors.ReproError):
        exc = cls(message)
    else:
        exc = ServeError(f"remote shard error {name}: {message}")
    if hasattr(exc, "blameless") and "blameless" in payload:
        try:
            exc.blameless = bool(payload["blameless"])
        except AttributeError:  # pragma: no cover - class-level property
            pass
    return exc


# -- the router-side shard client -------------------------------------------


def parse_address(address: str) -> Tuple[str, int]:
    """Split ``host:port``; raises :class:`~repro.errors.ServeError`.

    >>> parse_address("127.0.0.1:9001")
    ('127.0.0.1', 9001)
    """
    host, sep, port = address.rpartition(":")
    if not sep or not host:
        raise ServeError(f"remote shard address {address!r} is not host:port")
    try:
        return host, int(port)
    except ValueError:
        raise ServeError(
            f"remote shard address {address!r} has a non-numeric port"
        ) from None


class _RemoteShard:
    """One daemon connection: sequential framed RPC with fault mapping."""

    #: What ``shard_state`` reports as this shard's transport.
    transport = "remote"

    def __init__(
        self,
        address: str,
        injector: Optional[TransportFaultInjector] = None,
        connect_timeout: float = 5.0,
    ):
        self.address = address
        self.injector = injector
        self.connect_timeout = connect_timeout
        self.reader: Optional[asyncio.StreamReader] = None
        self.writer: Optional[asyncio.StreamWriter] = None
        self.lock = asyncio.Lock()
        self.connected = False
        self.draining = False
        self.connects = 0
        self.reconnects = 0
        #: Installed wrapper keys (client-side view; cleared on any drop,
        #: because a reconnected daemon may be a fresh process).
        self.installed: "OrderedDict[str, bool]" = OrderedDict()
        #: Stats from the daemon's last ping reply (installs, wraps, ...).
        self.last_stats: Dict = {}
        self._next_id = 0
        #: The loop the connection lives on (set on connect).
        self._loop: Optional[asyncio.AbstractEventLoop] = None

    def _open(self):
        """Open a stream pair to the daemon (awaitable)."""
        return asyncio.open_connection(*parse_address(self.address))

    async def _connect(self) -> None:
        try:
            self.reader, self.writer = await asyncio.wait_for(
                self._open(), self.connect_timeout
            )
        except (OSError, asyncio.TimeoutError, TimeoutError) as exc:
            crash = ShardCrashed(
                f"cannot connect to {self.transport} shard {self.address} "
                f"({exc!r}); retry the request"
            )
            # The daemon was unreachable before any page was sent: the
            # documents in this call cannot be at fault.
            crash.blameless = True
            raise crash from None
        self._loop = asyncio.get_running_loop()
        self.connects += 1
        if self.connects > 1:
            self.reconnects += 1
        self.connected = True
        # A fresh connection may be to a fresh daemon: nothing is resident
        # (drop() already cleared ``installed``; keys present now belong
        # to installs in flight on this very connection) and any old
        # drain notice is stale.
        self.draining = False

    def drop(self) -> None:
        """Close the connection (kill/respawn/timeout/chaos); lazily reopens."""
        if self.writer is not None:
            try:
                self.writer.close()
            except Exception:  # pragma: no cover - already-dead transport
                pass
        self.reader = None
        self.writer = None
        self.connected = False
        self.installed.clear()

    async def request(self, op: str, **payload):
        """One framed round trip; maps every transport failure.

        Serialized per connection: at most one outstanding request, so
        responses cannot interleave and a timed-out (cancelled) call
        drops the connection rather than leaving a stray response to
        desynchronize the next caller.
        """
        async with self.lock:
            self._next_id += 1
            rid = self._next_id
            try:
                if not self.connected:
                    await self._connect()
                fault, argument = (
                    self.injector.next_frame()
                    if self.injector is not None
                    else (None, None)
                )
                if fault == "delay":
                    await asyncio.sleep(argument)
                if fault == "drop":
                    self.drop()
                    crash = ShardCrashed(
                        f"connection to remote shard {self.address} dropped "
                        "(injected drop_conn); retry the request"
                    )
                    crash.blameless = True
                    raise crash
                await write_frame(
                    self.writer,
                    {"id": rid, "op": op, **payload},
                    garble=(fault == "garble"),
                )
                while True:
                    reply = await read_frame(self.reader)
                    if reply.get("op") == "drain":
                        # Unsolicited planned-shutdown notice: flag the
                        # shard so the supervisor pulls it from the ring.
                        self.draining = True
                        continue
                    if reply.get("id") == rid:
                        break
                    raise FrameError(
                        f"response id {reply.get('id')!r} does not match "
                        f"request id {rid} (stream desynchronized)"
                    )
            except ShardCrashed:
                raise
            except asyncio.CancelledError:
                # Deadline overrun (asyncio.wait_for) or shutdown: the
                # in-flight response can no longer be matched safely.
                self.drop()
                raise
            except (
                FrameError,
                asyncio.IncompleteReadError,
                ConnectionError,
                EOFError,
                OSError,
            ) as exc:
                self.drop()
                raise ShardCrashed(
                    f"{self.transport} shard {self.address} failed mid-call "
                    f"({type(exc).__name__}: {exc}); retry the request"
                ) from None
        if reply.get("draining"):
            self.draining = True
        if not reply.get("ok", False):
            raise decode_error(reply.get("error"))
        return reply.get("value")

    #: Frame fields of the operations :meth:`call` sends positionally.
    _FIELDS = {"install": ("key", "wrapper"), "uninstall": ("key",)}

    def call(self, op: str, *args) -> "asyncio.Task":
        """One shard-store operation as a framed round trip (a task)."""
        return asyncio.ensure_future(
            self.request(op, **dict(zip(self._FIELDS[op], args)))
        )

    def wrap(
        self, key: str, items: List[Item], trace: Optional[dict] = None
    ) -> "asyncio.Task":
        """The ``wrap`` frame: pages, a parallel ``doc_ids`` column and,
        when traced, the request's ``trace`` context for the daemon's log.
        The daemon answers ``{"pages": [...], "kernel": [...]}``."""
        fields = {
            "key": key,
            "pages": [html for html, _ in items],
            "doc_ids": [doc_id for _, doc_id in items],
        }
        if trace is not None:
            fields["trace"] = trace
        return asyncio.ensure_future(self.request("wrap", **fields))

    def ping(self) -> "asyncio.Task":
        """Health round trip; picks up the daemon's drain flag and stats."""

        async def _ping() -> bool:
            value = await self.request("ping")
            if isinstance(value, dict):
                self.draining = bool(value.get("draining", False))
                self.last_stats = value.get("stats", {})
            return True

        return asyncio.ensure_future(_ping())

    def evict(self, key: str) -> None:
        self.call("uninstall", key).add_done_callback(_consume_exception)

    #: A hung or timed-out call severs the connection: the daemon (on
    #: another box) survives; what matters is that *this* router stops
    #: trusting the stream and reconnects fresh.
    kill = drop

    def close(self) -> None:
        """Drop the connection; from another thread, on the connection's
        loop while it runs (a ``StreamWriter`` belongs to its loop)."""
        loop = self._loop
        if (
            loop is not None
            and loop.is_running()
            and asyncio._get_running_loop() is not loop
        ):
            with contextlib.suppress(RuntimeError):  # the loop closed meanwhile
                loop.call_soon_threadsafe(self.drop)
        else:
            self.drop()

    def state(self) -> Dict:
        return {
            "transport": self.transport,
            "address": self.address,
            "connected": self.connected,
            "draining": self.draining,
            "reconnects_total": self.reconnects,
            "installed_wrappers": len(self.installed),
            "daemon": dict(self.last_stats),
        }


def _serve_local_daemon(
    listener: socket.socket, faults: Optional[FaultPlan]
) -> None:
    """A local shard's child process: one ShardDaemon on ``listener``.

    The socket was bound and listening before the fork, so the router may
    connect as soon as the child exists.  Injected kills are *hard* here:
    they exit the child, as real worker death does.
    """
    from repro.serve.shard import ShardDaemon  # shard imports this module

    # Signals are the router's: it shuts its shards down itself, and a
    # handler inherited from its event loop must not fire in the child.
    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    daemon = ShardDaemon(host=listener.getsockname(), port=0)
    if faults is not None and faults.enabled:
        daemon.store.injector = FaultInjector(faults, hard=True, shard_tag="process")

    async def serve() -> None:
        # A router that dies without closing its shards takes them along.
        parent = multiprocessing.parent_process()
        asyncio.get_running_loop().add_reader(parent.sentinel, os._exit, 0)
        daemon._server = await asyncio.start_unix_server(
            daemon._client_connected, sock=listener
        )
        await daemon.serve_forever()

    asyncio.run(serve())


class _LocalShard(_RemoteShard):
    """A :class:`~repro.serve.shard.ShardDaemon` forked onto a Unix socket.

    The socket is bound before the fork, so the child serves it at once:
    no readiness handshake, no port race.  Local and remote shards
    differ in one place: the router owns this process.  :meth:`kill`
    SIGKILLs the child and forks a fresh daemon on the same socket, and
    connecting to a child that has exited respawns it first.
    """

    transport = "local"

    def __init__(self, path: str, faults: Optional[FaultPlan] = None):
        super().__init__(path)
        self.faults = faults
        self.closed = False
        self.listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.listener.bind(path)
        self.listener.listen()
        self._fork()

    def _fork(self) -> None:
        # Forked, so the child starts with the router's modules imported.
        self.process = multiprocessing.get_context("fork").Process(
            target=_serve_local_daemon,
            args=(self.listener, self.faults),
            daemon=True,
        )
        self.process.start()

    def _reap(self) -> None:
        self.process.kill()
        self.process.join()

    def _open(self):
        if self.closed:  # a call queued before close() must not respawn
            raise ConnectionRefusedError(f"shard {self.address} is closed")
        if not self.process.is_alive():
            self._reap()
            self._fork()
        return asyncio.open_unix_connection(self.address)

    def kill(self) -> None:
        """SIGKILL the child (hung past a deadline) and fork a fresh one.

        SIGKILL, not SIGTERM: a child stuck in C code or an injected hang
        must die unconditionally.  An in-flight call fails with
        :class:`~repro.errors.ShardCrashed`."""
        self._reap()
        self.drop()
        self._fork()

    def close(self) -> None:
        """Drop the connection, reap the child and close the socket."""
        self.closed = True
        super().close()
        self._reap()
        self.listener.close()


class RemoteShardExecutor(ShardSet):
    """The shard executor surface over ``host:port`` daemons.

    Drop-in for the batcher and supervisor: submissions return awaitable
    futures (``asyncio`` tasks -- ``asyncio.wrap_future`` passes them
    through), ``ping`` feeds the health loop, ``kill_shard`` /
    ``respawn_shard`` become connection drops with lazy reconnect, and
    every failure is one of the serving error types, so the retry,
    breaker, quarantine, and rerouting machinery upstream applies
    unchanged to a cluster of remote boxes.

    Must be used on one asyncio event loop (the server's).
    """

    mode = "remote"

    def __init__(
        self,
        addresses: List[str],
        faults: Optional[FaultPlan] = None,
        max_installed: int = 32,
        connect_timeout: float = 5.0,
    ):
        if not addresses:
            raise ServeError("RemoteShardExecutor needs at least one address")
        for address in addresses:
            parse_address(address)  # fail fast on a malformed address
        self.faults = faults
        super().__init__(
            [
                _RemoteShard(
                    address,
                    injector=(
                        TransportFaultInjector(faults, shard_tag=f"remote-{index}")
                        if faults is not None and faults.transport_enabled
                        else None
                    ),
                    connect_timeout=connect_timeout,
                )
                for index, address in enumerate(addresses)
            ],
            max_installed,
        )

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"RemoteShardExecutor({[s.address for s in self._shards]!r})"


def _consume_exception(task) -> None:
    """Done-callback that swallows background-task failures quietly."""
    if not task.cancelled():
        task.exception()
