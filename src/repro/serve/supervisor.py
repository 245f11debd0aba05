"""Shard supervision: circuit breakers, health checks, poison quarantine.

Three cooperating pieces, all clock-injectable for deterministic tests:

* :class:`CircuitBreaker` — per-shard consecutive-failure breaker.
  ``closed`` (healthy) opens after ``threshold`` consecutive failures;
  while ``open`` the shard receives no routed work for ``cooldown``
  seconds, after which it goes ``half_open`` and a single probe decides
  whether it closes again or re-opens.
* :class:`Quarantine` — strike accounting per document content hash.  A
  document whose shard call crashes earns a strike; ``strikes``
  consecutive crashes (never interleaved with a success) quarantine the
  hash, and further requests for it are rejected with
  :class:`~repro.errors.PoisonDocument` before any shard is risked.
  Inspectable and releasable over HTTP (``GET /quarantine``,
  ``POST /quarantine/release``).
* :class:`ShardSupervisor` — the asyncio background task.  Every
  ``interval`` seconds it pings each shard (a trivial round trip bounded
  by ``ping_timeout``); failures feed the breaker, and a breaker that
  *opens* triggers a proactive respawn of the sick shard.  It also owns
  routing: :meth:`~ShardSupervisor.route_hash` walks the executor's
  static consistent-hash ring from a document's key to the first healthy
  ring member, so an open breaker reroutes keys to ring successors
  instead of failing requests.

The batcher reports per-call outcomes into the same breakers, so request
traffic and the health loop share one failure signal.
"""

from __future__ import annotations

import asyncio
import time
from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.errors import PoisonDocument
from repro.serve.metrics import ServeMetrics

Clock = Callable[[], float]


class CircuitBreaker:
    """Consecutive-failure breaker with open/half-open/closed states.

    Examples
    --------
    >>> now = [0.0]
    >>> breaker = CircuitBreaker(threshold=2, cooldown=5.0, clock=lambda: now[0])
    >>> breaker.state
    'closed'
    >>> breaker.record_failure()
    False
    >>> breaker.state
    'closed'
    >>> breaker.record_failure()   # threshold reached: the breaker opens
    True
    >>> breaker.state
    'open'
    >>> breaker.admits()
    False
    >>> now[0] += 5.1
    >>> breaker.state, breaker.admits()           # cooldown over: probe allowed
    ('half_open', True)
    >>> breaker.record_success(); breaker.state
    'closed'
    """

    __slots__ = ("threshold", "cooldown", "failures", "opened_at", "_clock", "trips")

    def __init__(
        self, threshold: int = 3, cooldown: float = 5.0, clock: Clock = time.monotonic
    ):
        self.threshold = max(1, threshold)
        self.cooldown = cooldown
        self.failures = 0
        self.opened_at: Optional[float] = None
        self.trips = 0
        self._clock = clock

    @property
    def state(self) -> str:
        if self.opened_at is None:
            return "closed"
        if self._clock() - self.opened_at >= self.cooldown:
            return "half_open"
        return "open"

    def admits(self) -> bool:
        """Whether routed work may reach this shard right now."""
        return self.state != "open"

    def record_failure(self) -> bool:
        """Count one failure; returns True when this call *opens* the breaker."""
        self.failures += 1
        if self.opened_at is None and self.failures >= self.threshold:
            self.opened_at = self._clock()
            self.trips += 1
            return True
        if self.opened_at is not None and self.state == "half_open":
            # The probe failed: re-open for another cooldown.
            self.opened_at = self._clock()
            self.trips += 1
        return False

    def record_success(self) -> None:
        self.failures = 0
        self.opened_at = None

    def describe(self) -> Dict:
        return {
            "state": self.state,
            "consecutive_failures": self.failures,
            "trips": self.trips,
        }


class Quarantine:
    """Strike ledger for documents that crash shard workers.

    Examples
    --------
    >>> quarantine = Quarantine(strikes=2)
    >>> quarantine.strike("h1")
    False
    >>> quarantine.strike("h1")   # second consecutive crash: quarantined
    True
    >>> quarantine.is_quarantined("h1")
    True
    >>> quarantine.absolve("h2"); quarantine.is_quarantined("h2")
    False
    >>> quarantine.release("h1")
    True
    >>> quarantine.is_quarantined("h1")
    False
    """

    def __init__(self, strikes: int = 3, clock: Clock = time.time):
        self.strikes = max(1, strikes)
        self._clock = clock
        #: hash -> {"strikes": int, "quarantined": bool, timestamps...}
        self._entries: Dict[str, Dict] = {}

    def is_quarantined(self, doc_hash: str) -> bool:
        entry = self._entries.get(doc_hash)
        return bool(entry and entry["quarantined"])

    def check(self, doc_hash: str) -> None:
        """Raise :class:`PoisonDocument` if ``doc_hash`` is quarantined."""
        if self.is_quarantined(doc_hash):
            raise PoisonDocument(
                f"document {doc_hash[:12]} is quarantined after "
                f"{self._entries[doc_hash]['strikes']} shard crashes; "
                "POST /quarantine/release to retry it"
            )

    def strike(self, doc_hash: str) -> bool:
        """Record one crash attributed to ``doc_hash``.

        Returns True when this strike crosses the threshold (the moment
        the document becomes quarantined).
        """
        now = self._clock()
        entry = self._entries.setdefault(
            doc_hash,
            {"strikes": 0, "quarantined": False, "first_strike": now, "last_strike": now},
        )
        entry["strikes"] += 1
        entry["last_strike"] = now
        if not entry["quarantined"] and entry["strikes"] >= self.strikes:
            entry["quarantined"] = True
            return True
        return False

    def absolve(self, doc_hash: str) -> None:
        """A successful extraction clears the document's strike count.

        Strikes must be *consecutive* to quarantine: a document that
        merely shared a batch with a scheduled worker kill succeeds on
        retry and is wiped clean here.  Quarantined entries stay
        quarantined (release is an explicit operator action)."""
        entry = self._entries.get(doc_hash)
        if entry is not None and not entry["quarantined"]:
            del self._entries[doc_hash]

    def release(self, doc_hash: str) -> bool:
        """Forget a hash entirely (operator override); True if it existed."""
        return self._entries.pop(doc_hash, None) is not None

    def describe(self) -> Dict:
        """JSON view for ``GET /quarantine``."""
        return {
            "strikes_to_quarantine": self.strikes,
            "quarantined": sorted(
                h for h, e in self._entries.items() if e["quarantined"]
            ),
            "entries": {
                h: dict(e) for h, e in sorted(self._entries.items())
            },
        }

    def __len__(self) -> int:
        return sum(1 for e in self._entries.values() if e["quarantined"])


class ShardSupervisor:
    """Background health checks + ring routing + breakers + respawns.

    Created (and started) by the server; the batcher consults
    :meth:`route_hash` for every shard submission and reports outcomes
    via :meth:`record_failure` / :meth:`record_success`.

    Routing reads the executor's one static consistent-hash ring
    (:class:`~repro.serve.ring.HashRing`, ``executor.ring``); health is
    the membership set :attr:`members` over it.  A document's key routes
    to its first ring successor that is a member, and membership tracks
    health -- a shard whose breaker trips *leaves* (moving only its own
    key interval onto ring successors), a shard announcing a planned
    drain leaves without breaker penalty, and a shard whose probe
    succeeds again *rejoins*, reclaiming exactly the interval it owned
    before.  With every shard a member, a key routes to
    ``executor.shard_for(key)``.  A moved key is at worst one cold miss
    on its new shard (warm state and resident wrappers re-materialize on
    first use), never a wrong answer.
    """

    def __init__(
        self,
        executor,
        metrics: ServeMetrics,
        interval: float = 1.0,
        ping_timeout: float = 5.0,
        threshold: int = 3,
        cooldown: float = 5.0,
        clock: Clock = time.monotonic,
    ):
        self._executor = executor
        self._metrics = metrics
        self.interval = interval
        self.ping_timeout = ping_timeout
        self.breakers: List[CircuitBreaker] = [
            CircuitBreaker(threshold=threshold, cooldown=cooldown, clock=clock)
            for _ in range(executor.n_shards)
        ]
        self.respawns = [0] * executor.n_shards
        #: Shards in the ring: health-driven membership over the
        #: executor's static ring (breaker trips and drain notices
        #: leave, recoveries rejoin), so routing moves only the affected
        #: key intervals.
        self.members: Set[int] = set(range(executor.n_shards))
        #: Monotonic membership-change counter (the "ring generation"
        #: reported by /healthz and /metrics).
        self.generation = 0
        #: Last routed shard per key, LRU-bounded -- the basis of the
        #: ``ring_rebalanced_keys`` counter (a key observed moving to a
        #: different shard after a membership change).
        self._last_route: "OrderedDict[str, int]" = OrderedDict()
        self._last_route_cap = 4096
        self._task: Optional[asyncio.Task] = None

    # -- routing ------------------------------------------------------------

    def route_hash(self, doc_hash: str) -> Tuple[int, bool]:
        """``(shard, rerouted)`` for work keyed by ``doc_hash``.

        Walks the executor's ring from the key's point and takes the
        first member whose breaker admits and that is not draining; if
        none qualifies, the first member gets the work, and with no
        member at all the key's home shard does (it doubles as the
        half-open probe).  ``rerouted`` says the shard is not the home
        shard.  A key observed moving between shards is counted in
        ``ring_rebalanced_keys``."""
        executor = self._executor
        home = first = chosen = None
        for shard in executor.ring.successors(doc_hash):
            if home is None:
                home = shard
            if shard not in self.members:
                continue
            if first is None:
                first = shard
            if self.breakers[shard].admits() and not executor.is_draining(shard):
                chosen = shard
                break
        if chosen is None:
            chosen = home if first is None else first
        rerouted = chosen != home
        if rerouted:
            self._metrics.incr("rerouted")
        self._note_route(doc_hash, chosen)
        return chosen, rerouted

    def _note_route(self, doc_hash: str, shard: int) -> None:
        prior = self._last_route.get(doc_hash)
        if prior is not None and prior != shard:
            self._metrics.incr("ring_rebalanced_keys")
        self._last_route[doc_hash] = shard
        self._last_route.move_to_end(doc_hash)
        while len(self._last_route) > self._last_route_cap:
            self._last_route.popitem(last=False)

    # -- ring membership -----------------------------------------------------

    def ring_leave(self, shard: int, reason: str) -> None:
        if shard in self.members:
            self.members.remove(shard)
            self.generation += 1
            self._metrics.incr(f"ring_left_{reason}")
            self._metrics.set_gauge("ring_members", len(self.members))

    def ring_join(self, shard: int) -> None:
        if shard not in self.members:
            self.members.add(shard)
            self.generation += 1
            self._metrics.incr("ring_rejoined")
            self._metrics.set_gauge("ring_members", len(self.members))

    # -- outcome reporting --------------------------------------------------

    def record_success(self, shard: int) -> None:
        self.breakers[shard].record_success()
        if shard not in self.members and not self._executor.is_draining(shard):
            self.ring_join(shard)

    def record_failure(self, shard: int) -> None:
        if self.breakers[shard].record_failure():
            # The breaker just opened: leave the ring (keys move to ring
            # successors) and proactively respawn the sick shard so the
            # cooldown is spent coming up, not crashing.
            self.ring_leave(shard, "tripped")
            self._respawn(shard)

    def _respawn(self, shard: int) -> None:
        self.respawns[shard] += 1
        self._metrics.incr("shard_respawns")
        self._executor.respawn_shard(shard)

    # -- the health loop ----------------------------------------------------

    async def start(self) -> None:
        if self._task is None:
            self._task = asyncio.ensure_future(self._run())

    async def stop(self) -> None:
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            self._task = None

    async def _run(self) -> None:
        while True:
            await asyncio.sleep(self.interval)
            await self.check_once()

    async def check_once(self) -> None:
        """One health sweep: ping every shard, feed the breakers.

        Drain notices picked up by the ping (a daemon announcing planned
        shutdown) pull the shard from the ring with *no* breaker penalty;
        a shard that stops draining -- or whose half-open probe succeeds
        -- rejoins and reclaims its old key interval."""
        for shard in range(self._executor.n_shards):
            if not self.breakers[shard].admits():
                continue  # open: let the cooldown elapse undisturbed
            try:
                future = self._executor.ping(shard)
                await asyncio.wait_for(
                    asyncio.wrap_future(future), timeout=self.ping_timeout
                )
                if self._executor.is_draining(shard):
                    # Planned shutdown, not a failure: stop routing new
                    # keys there before the socket closes.
                    self.ring_leave(shard, "draining")
                    continue
                self.record_success(shard)
            except asyncio.CancelledError:
                raise
            except Exception:
                if self._executor.is_draining(shard):
                    # The ping read the daemon's drain notice before the
                    # socket closed under it: a planned shutdown, not a
                    # failure.  Leave the ring without breaker penalty.
                    self.ring_leave(shard, "draining")
                    continue
                self._metrics.incr("health_check_failures")
                if self.breakers[shard].state == "half_open":
                    # A failed probe: re-open and respawn again.
                    self.breakers[shard].record_failure()
                    self.ring_leave(shard, "tripped")
                    self._respawn(shard)
                else:
                    self.record_failure(shard)

    def describe(self) -> List[Dict]:
        """Per-shard health for ``/healthz`` and ``/metrics``."""
        return [
            dict(
                breaker.describe(),
                shard=index,
                respawns=self.respawns[index],
                in_ring=index in self.members,
                draining=self._executor.is_draining(index),
            )
            for index, breaker in enumerate(self.breakers)
        ]

    def describe_ring(self) -> Dict:
        """Ring membership + generation for ``/healthz``."""
        return {
            "members": sorted(self.members),
            "generation": self.generation,
            "vnodes": self._executor.ring.vnodes,
        }
