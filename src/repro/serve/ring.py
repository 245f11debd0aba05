"""Consistent-hash ring: the one static page->shard map of the serving stack.

Every shard choice reads one :class:`HashRing` built over the shard
indices at startup.  A flat ``hash % n_shards`` map would remap almost
*every* key on any membership change (a shard trips, a daemon drains for
deploy), destroying at once all the per-shard affinity the serving stack
depends on -- warm ``doc_id`` states, resident compiled wrappers.  On the
ring each node owns ``vnodes`` points on a 64-bit circle and a key routes
to the first point at or after its own hash, so taking one node out of
consideration moves only the key intervals adjacent to that node's
points (about ``1/n`` of the keyspace).

The ring itself never changes.  Health is a membership *set* kept by the
supervisor: walking :meth:`HashRing.successors` and skipping non-members
picks exactly the owner a ring with those members removed would pick, so
minimal movement and exact rejoin hold without mutating the ring.

Everything is derived from SHA-256, so routing is deterministic across
processes, machines and Python versions -- a router can be restarted (or
run N-way redundant) and make the identical decisions.  A moved key is
therefore always *safe*: at worst it lands on a shard without its warm
state and takes one cold evaluation, never a wrong answer.

Examples
--------
>>> ring = HashRing(["a", "b", "c"], vnodes=8)
>>> ring.node_for("some-document-hash") in {"a", "b", "c"}
True
>>> def owner(key, members):
...     return next(n for n in ring.successors(key) if n in members)
>>> keys = list(map(str, range(100)))
>>> before = {k: owner(k, {"a", "b", "c"}) for k in keys}
>>> after = {k: owner(k, {"a", "c"}) for k in keys}   # "b" left
>>> all(after[k] == before[k] for k in keys if before[k] != "b")
True
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from typing import Hashable, Iterable, Iterator


def _point(data: str) -> int:
    """A deterministic 64-bit position on the ring circle."""
    return int.from_bytes(hashlib.sha256(data.encode("utf-8")).digest()[:8], "big")


class HashRing:
    """An immutable consistent-hash ring over hashable node ids.

    Parameters
    ----------
    nodes:
        The members (shard indices, addresses -- any hashable with a
        stable ``str()``).
    vnodes:
        Virtual nodes per member.  More vnodes -> better balance; at 64
        the max/ideal load ratio over random keys stays under 2x (see
        ``tests/test_ring.py``).

    Examples
    --------
    >>> ring = HashRing([0, 1], vnodes=4)
    >>> ring.node_for("k") in (0, 1)
    True
    >>> sorted(ring.successors("k"))
    [0, 1]
    """

    def __init__(self, nodes: Iterable[Hashable] = (), vnodes: int = 64):
        self.vnodes = max(1, int(vnodes))
        points = sorted(
            (
                (_point(f"{node!s}#vn{i}"), node)
                for node in dict.fromkeys(nodes)
                for i in range(self.vnodes)
            ),
            key=lambda pair: pair[0],
        )
        #: Sorted vnode points and the node owning each, kept aligned.
        self._points = [point for point, _ in points]
        self._owners = [owner for _, owner in points]

    def node_for(self, key: str) -> Hashable:
        """The member owning ``key`` (first vnode at/after its point).

        Raises :class:`LookupError` on an empty ring.
        """
        if not self._points:
            raise LookupError("consistent-hash ring has no members")
        index = bisect_right(self._points, _point(key))
        if index == len(self._points):
            index = 0
        return self._owners[index]

    def successors(self, key: str) -> Iterator[Hashable]:
        """Distinct members in ring order starting from ``key``'s point.

        The first yielded node is :meth:`node_for`; the rest are the
        fallback order a breaker-aware router walks when the owner is
        unhealthy -- deterministic, so every router agrees on the
        reroute target too.
        """
        count = len(self._points)
        if not count:
            return
        start = bisect_right(self._points, _point(key)) % count
        seen = set()
        for offset in range(count):
            owner = self._owners[(start + offset) % count]
            if owner not in seen:
                seen.add(owner)
                yield owner

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"HashRing({sorted(set(self._owners), key=str)!r}, vnodes={self.vnodes})"
