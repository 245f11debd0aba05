"""Deterministic fault injection for the serving stack.

Chaos testing a server whose failures are *random* produces flaky
tests; this harness makes every fault a pure function of the shard-call
counter, so a given plan always kills, delays, hangs, or corrupts the
exact same calls.  There is no wall-clock randomness anywhere: the only
knob resembling a seed is ``phase``, which offsets the counter so two
runs of the same plan can exercise different call positions — equally
deterministically.

A :class:`FaultPlan` is parsed from a compact ``key=value`` spec string:

    kill_every=5,delay_every=10,delay_s=0.25,poison_marker=POISON,phase=0

Faults, all counter-based (``0`` disables each):

* ``kill_every=N``   — every Nth shard call kills the worker
  (``os._exit`` in a local shard's forked daemon, a simulated
  :class:`~repro.errors.ShardCrashed` in the inline shard and in remote
  daemons);
* ``delay_every=N`` / ``delay_s=S`` — every Nth call sleeps ``S`` seconds
  before evaluating (models a slow page / GC pause / noisy neighbor);
* ``hang_every=N`` / ``hang_s=S`` — every Nth call blocks for up to ``S``
  seconds (default effectively forever); the server's deadline
  enforcement is what must cut it off.  Inline-shard hangs wait on a
  module-level event so :func:`release_hangs` (called by shard kill and
  executor close) can unblock the worker thread;
* ``corrupt_every=N`` — every Nth call returns a malformed result (wrong
  length, non-dict entries) that the batcher must detect and treat as a
  crash;
* ``poison_marker=TEXT`` — any document containing ``TEXT`` *always*
  crashes the worker, regardless of counters: the deterministic poison
  page used to exercise quarantine.

Network faults, applied by the *router side* of the remote-shard
transport (:mod:`repro.serve.transport`) — counted per frame sent, one
counter per remote shard connection:

* ``drop_conn_every=N`` — every Nth frame drops the shard connection
  before the request completes (models a reset / flaky link); surfaces
  as a *blameless* :class:`~repro.errors.ShardCrashed` (the injector
  knows the documents did not kill anything) and the next attempt
  reconnects;
* ``delay_frame_every=N`` / ``delay_frame_s=S`` — every Nth frame is
  delayed ``S`` seconds before being sent (models latency spikes); a
  delay larger than the request deadline exercises the
  :class:`~repro.errors.RequestTimeout` path over the network;
* ``garble_frame_every=N`` — every Nth frame has its payload bytes
  flipped after the checksum is computed, so the daemon's frame
  validation rejects it and closes the connection (broken frame ->
  :class:`~repro.errors.ShardCrashed`, retry reconnects).

Every injected fault appends one JSON line to the file named by the
``REPRO_SERVE_FAULT_LOG`` environment variable (if set) — the artifact
the CI chaos jobs upload, and a debugging timeline for local runs.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Dict, List, Optional, Tuple

from repro.errors import ServeError, ShardCrashed

#: Environment variable naming the fault-event JSONL log (optional).
FAULT_LOG_ENV = "REPRO_SERVE_FAULT_LOG"

#: Inline-shard hangs wait on this event so they can be released when the
#: shard is killed or the executor closes (a sleeping thread would
#: otherwise block interpreter shutdown).
_HANG_RELEASE = threading.Event()


def release_hangs() -> None:
    """Unblock every in-progress inline-shard hang."""
    _HANG_RELEASE.set()
    _HANG_RELEASE.clear()


def log_fault_event(event: str, **extra) -> None:
    """Append one fault event to the JSONL log named by the environment.

    Shared by the shard-call injector and the transport injector so one
    chaos run yields one merged, ordered timeline."""
    path = os.environ.get(FAULT_LOG_ENV)
    if not path:
        return
    record = {"event": event, "pid": os.getpid()}
    record.update(extra)
    try:
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")
    except OSError:  # pragma: no cover - log path unwritable
        pass


class FaultPlan:
    """A parsed, immutable fault-injection configuration.

    Examples
    --------
    >>> plan = FaultPlan.parse("kill_every=5,delay_every=10,delay_s=0.25")
    >>> plan.kill_every, plan.delay_every, plan.delay_s
    (5, 10, 0.25)
    >>> FaultPlan.parse("").enabled
    False
    >>> plan.spec()
    'kill_every=5,delay_every=10,delay_s=0.25'
    >>> FaultPlan.parse(plan.spec()).kill_every
    5

    The network fault kinds round-trip through the same spec strings:

    >>> net = FaultPlan.parse(
    ...     "drop_conn_every=7,delay_frame_every=3,delay_frame_s=0.2,"
    ...     "garble_frame_every=11"
    ... )
    >>> net.drop_conn_every, net.delay_frame_every, net.garble_frame_every
    (7, 3, 11)
    >>> net.spec()
    'drop_conn_every=7,delay_frame_every=3,delay_frame_s=0.2,garble_frame_every=11'
    >>> FaultPlan.parse(net.spec()).delay_frame_s
    0.2
    >>> net.enabled, net.transport_enabled
    (True, True)
    >>> plan.transport_enabled          # evaluation faults only
    False
    """

    __slots__ = (
        "kill_every",
        "delay_every",
        "delay_s",
        "hang_every",
        "hang_s",
        "corrupt_every",
        "poison_marker",
        "drop_conn_every",
        "delay_frame_every",
        "delay_frame_s",
        "garble_frame_every",
        "phase",
    )

    def __init__(
        self,
        kill_every: int = 0,
        delay_every: int = 0,
        delay_s: float = 0.1,
        hang_every: int = 0,
        hang_s: float = 3600.0,
        corrupt_every: int = 0,
        poison_marker: str = "",
        drop_conn_every: int = 0,
        delay_frame_every: int = 0,
        delay_frame_s: float = 0.05,
        garble_frame_every: int = 0,
        phase: int = 0,
    ):
        self.kill_every = int(kill_every)
        self.delay_every = int(delay_every)
        self.delay_s = float(delay_s)
        self.hang_every = int(hang_every)
        self.hang_s = float(hang_s)
        self.corrupt_every = int(corrupt_every)
        self.poison_marker = poison_marker
        self.drop_conn_every = int(drop_conn_every)
        self.delay_frame_every = int(delay_frame_every)
        self.delay_frame_s = float(delay_frame_s)
        self.garble_frame_every = int(garble_frame_every)
        self.phase = int(phase)

    @property
    def enabled(self) -> bool:
        return bool(
            self.kill_every
            or self.delay_every
            or self.hang_every
            or self.corrupt_every
            or self.poison_marker
            or self.transport_enabled
        )

    @property
    def transport_enabled(self) -> bool:
        """Whether any *network* fault kind is active (router-side)."""
        return bool(
            self.drop_conn_every
            or self.delay_frame_every
            or self.garble_frame_every
        )

    @classmethod
    def parse(cls, spec: Optional[str]) -> "FaultPlan":
        """Parse a ``key=value,key=value`` spec string (``None``/"" -> off)."""
        plan = cls()
        if not spec:
            return plan
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            key, sep, value = part.partition("=")
            key = key.strip()
            if not sep or key not in cls.__slots__:
                raise ServeError(f"bad fault spec field {part!r}")
            current = getattr(plan, key)
            try:
                if isinstance(current, int):
                    setattr(plan, key, int(value))
                elif isinstance(current, float):
                    setattr(plan, key, float(value))
                else:
                    setattr(plan, key, value.strip())
            except ValueError:
                raise ServeError(f"bad fault spec value {part!r}") from None
        return plan

    def spec(self) -> str:
        """The compact spec string (round-trips through :meth:`parse`)."""
        defaults = FaultPlan()
        parts: List[str] = []
        for field in self.__slots__:
            value = getattr(self, field)
            if value != getattr(defaults, field):
                parts.append(f"{field}={value}")
        return ",".join(parts)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"FaultPlan({self.spec() or 'off'})"


class FaultInjector:
    """Applies a :class:`FaultPlan` to shard calls, deterministically.

    One injector lives per shard worker (the inline shard, or a shard
    daemon's store).  ``hard=True`` means real worker death
    (``os._exit``); ``hard=False`` simulates the crash
    by raising :class:`~repro.errors.ShardCrashed`, which exercises the
    identical recovery path without sacrificing a process.
    """

    def __init__(self, plan: FaultPlan, hard: bool, shard_tag: str = "?"):
        self.plan = plan
        self.hard = hard
        self.shard_tag = shard_tag
        self.calls = plan.phase
        self._lock = threading.Lock()

    def _log(self, event: str, **extra) -> None:
        log_fault_event(
            event,
            call=self.calls,
            shard=self.shard_tag,
            hard=self.hard,
            **extra,
        )

    def _due(self, every: int) -> bool:
        return every > 0 and self.calls % every == 0

    def _crash(self, reason: str) -> None:
        self._log("kill", reason=reason)
        if self.hard:
            os._exit(13)
        raise ShardCrashed(
            f"shard worker died (injected: {reason}); "
            "shard respawned, retry the request"
        )

    def before_call(self, key: str, pages: List[str]) -> None:
        """Run the pre-evaluation faults for one shard call.

        May sleep, hang, raise a simulated crash, or terminate the
        process.  Returns normally when the call should proceed.
        """
        if not self.plan.enabled:
            return
        with self._lock:
            self.calls += 1
        marker = self.plan.poison_marker
        if marker and any(marker in page for page in pages):
            self._crash(f"poison marker {marker!r}")
        if self._due(self.plan.kill_every):
            self._crash(f"kill_every={self.plan.kill_every}")
        if self._due(self.plan.hang_every):
            self._log("hang", seconds=self.plan.hang_s)
            _HANG_RELEASE.wait(self.plan.hang_s)
        elif self._due(self.plan.delay_every):
            self._log("delay", seconds=self.plan.delay_s)
            time.sleep(self.plan.delay_s)

    def after_call(self, key: str, result: List[dict]) -> List[dict]:
        """Run the post-evaluation faults; may corrupt the result."""
        if self._due(self.plan.corrupt_every):
            self._log("corrupt")
            return [{"__corrupt__": True}] * (len(result) + 1)
        return result


class TransportFaultInjector:
    """Applies the network fault kinds to one remote shard connection.

    Lives on the *router* side (one per :class:`~repro.serve.transport`
    connection), counting frames sent, so a chaos run's network faults
    are a pure function of each connection's frame sequence -- fully
    deterministic, like the shard-call injector above.

    :meth:`next_frame` advances the counter and returns the fault due
    for this frame: ``("drop", None)``, ``("delay", seconds)``,
    ``("garble", None)`` or ``(None, None)``.  The transport layer is
    what acts on it (closing the socket, sleeping, flipping payload
    bytes); this class only decides *when*, and logs each decision to
    the shared JSONL fault log.

    Examples
    --------
    >>> plan = FaultPlan.parse("drop_conn_every=2,garble_frame_every=3")
    >>> injector = TransportFaultInjector(plan, shard_tag="shard-0")
    >>> [injector.next_frame()[0] for _ in range(6)]
    [None, 'drop', 'garble', 'drop', None, 'drop']
    """

    def __init__(self, plan: FaultPlan, shard_tag: str = "?"):
        self.plan = plan
        self.shard_tag = shard_tag
        self.frames = plan.phase
        self._lock = threading.Lock()

    def _due(self, every: int) -> bool:
        return every > 0 and self.frames % every == 0

    def next_frame(self):
        """Advance the frame counter; return ``(fault, argument)``."""
        if not self.plan.transport_enabled:
            return None, None
        with self._lock:
            self.frames += 1
        if self._due(self.plan.drop_conn_every):
            log_fault_event("drop_conn", frame=self.frames, shard=self.shard_tag)
            return "drop", None
        if self._due(self.plan.garble_frame_every):
            log_fault_event("garble_frame", frame=self.frames, shard=self.shard_tag)
            return "garble", None
        if self._due(self.plan.delay_frame_every):
            log_fault_event(
                "delay_frame",
                frame=self.frames,
                shard=self.shard_tag,
                seconds=self.plan.delay_frame_s,
            )
            return "delay", self.plan.delay_frame_s
        return None, None


def validate_reply(result: object, expected: int) -> Tuple[List[Dict], List[Dict]]:
    """Validate one shard reply; returns ``(pages, stats)``.

    Every shard answers ``{"pages": [...], "kernel": [...]}``: one output
    dict and one per-page stats dict per page.  Anything else -- another
    shape, a wrong length, a non-dict entry, or a page the injector
    marked corrupt -- means the worker (or the transport) garbled the
    batch, and the safe response is the crash path: respawn + retry.

    >>> pages, stats = validate_reply(
    ...     {"pages": [{"a": 1}], "kernel": [{"kernel_ms": 0.5}]}, 1)
    >>> pages, stats[0]["kernel_ms"]
    ([{'a': 1}], 0.5)
    >>> validate_reply({"pages": [{}, {}], "kernel": [{}, {}]}, 1)
    Traceback (most recent call last):
        ...
    repro.errors.ShardCrashed: shard returned a malformed reply for 1 page(s); treating as a crash
    """
    columns = (
        (result.get("pages"), result.get("kernel"))
        if isinstance(result, dict)
        else (None, None)
    )
    for column in columns:
        if (
            not isinstance(column, list)
            or len(column) != expected
            or not all(isinstance(item, dict) for item in column)
        ):
            raise ShardCrashed(
                f"shard returned a malformed reply for {expected} page(s); "
                "treating as a crash"
            )
    pages, stats = columns
    if any("__corrupt__" in page for page in pages):
        raise ShardCrashed("shard returned a corrupted payload; treating as a crash")
    return pages, stats
