"""Consistent-hash ring: shard membership with minimal-movement routing.

The flat ``hash % n_shards`` routing the executor started with has a
fatal cluster property: any membership change (a shard joins, a shard
dies, a daemon drains for deploy) remaps almost *every* key, so all the
per-shard affinity the serving stack depends on -- warm ``doc_id``
states, resident compiled wrappers, result locality -- is destroyed at
once.  A consistent-hash ring confines the damage to the keys that
actually lived on the changed shard: each node owns ``vnodes`` points on
a 64-bit circle, a key routes to the first point at or after its own
hash, and adding or removing one node moves only the key intervals
adjacent to that node's points (about ``1/n`` of the keyspace).

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
>>> before = {k: ring.node_for(k) for k in map(str, range(100))}
>>> _ = ring.remove("b")
>>> after = {k: ring.node_for(k) for k in map(str, range(100))}
>>> all(after[k] == before[k] for k in after if before[k] != "b")
True
>>> ring.generation
1
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from typing import Dict, Hashable, Iterable, Iterator, List


def _point(data: str) -> int:
    """A deterministic 64-bit position on the ring circle."""
    return int.from_bytes(hashlib.sha256(data.encode("utf-8")).digest()[:8], "big")


class HashRing:
    """A consistent-hash ring over hashable node ids.

    Parameters
    ----------
    nodes:
        Initial members (shard indices, addresses -- any hashable with a
        stable ``str()``).
    vnodes:
        Virtual nodes per member.  More vnodes -> better balance; at 64
        the max/ideal load ratio over random keys stays under 2x (see
        ``tests/test_ring.py``).

    Examples
    --------
    >>> ring = HashRing([0, 1], vnodes=4)
    >>> sorted(ring.members), len(ring), 0 in ring
    ([0, 1], 2, True)
    >>> ring.add(2); sorted(ring.members)
    True
    [0, 1, 2]
    >>> ring.add(2)          # already present: no-op, no generation bump
    False
    >>> ring.generation
    1
    """

    def __init__(self, nodes: Iterable[Hashable] = (), vnodes: int = 64):
        self.vnodes = max(1, int(vnodes))
        #: Monotonic membership-change counter (the "ring generation"
        #: reported by /healthz and /metrics).
        self.generation = 0
        self._members: Dict[Hashable, List[int]] = {}
        #: Sorted vnode points and the node owning each, kept aligned.
        self._points: List[int] = []
        self._owners: List[Hashable] = []
        for node in nodes:
            self._insert(node)

    # -- membership ---------------------------------------------------------

    def _node_points(self, node: Hashable) -> List[int]:
        return [_point(f"{node!s}#vn{i}") for i in range(self.vnodes)]

    def _insert(self, node: Hashable) -> bool:
        if node in self._members:
            return False
        points = self._node_points(node)
        self._members[node] = points
        for point in points:
            index = bisect_right(self._points, point)
            self._points.insert(index, point)
            self._owners.insert(index, node)
        return True

    def add(self, node: Hashable) -> bool:
        """Join ``node``; True (and a generation bump) if it was absent."""
        if self._insert(node):
            self.generation += 1
            return True
        return False

    def remove(self, node: Hashable) -> bool:
        """Leave ``node``; True (and a generation bump) if it was present."""
        points = self._members.pop(node, None)
        if points is None:
            return False
        keep = [
            (point, owner)
            for point, owner in zip(self._points, self._owners)
            if owner != node
        ]
        self._points = [point for point, _ in keep]
        self._owners = [owner for _, owner in keep]
        self.generation += 1
        return True

    @property
    def members(self) -> List[Hashable]:
        return list(self._members)

    def __contains__(self, node: Hashable) -> bool:
        return node in self._members

    def __len__(self) -> int:
        return len(self._members)

    # -- routing ------------------------------------------------------------

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

    def describe(self) -> Dict:
        """JSON view for /healthz: members, generation, vnodes."""
        return {
            "members": sorted(self._members, key=str),
            "generation": self.generation,
            "vnodes": self.vnodes,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"HashRing({sorted(self._members, key=str)!r}, "
            f"vnodes={self.vnodes}, generation={self.generation})"
        )
