"""Property tests for the consistent-hash ring (:mod:`repro.serve.ring`).

The three properties the serving stack depends on:

* **balance** -- at 64 vnodes the most-loaded member of a multi-node
  ring stays within 2x of the ideal share over a large random key set;
* **minimal movement** -- the ring is static and the supervisor keeps
  shard health as a membership set over it: a shard leaving (a breaker
  trip, a drain) moves only the keys of that shard's own interval; every
  other key keeps its owner, and a shard that leaves and rejoins
  restores the original routing exactly;
* **determinism** -- routing is a pure function of (members, vnodes,
  key), stable across processes and interpreter runs, so every router
  replica makes identical decisions.

With every shard healthy the supervisor's route is the executor's home
shard, so a batcher built without a supervisor routes like the server.
"""

import hashlib
import subprocess
import sys

import pytest

from repro.serve.executor import ShardSet
from repro.serve.metrics import ServeMetrics
from repro.serve.ring import HashRing, _point
from repro.serve.supervisor import ShardSupervisor


def keys(n):
    return [f"doc-hash-{i:06d}" for i in range(n)]


class _Shard:
    """Just enough of a shard for routing: never draining, killable."""

    draining = False

    def kill(self):
        pass


def supervised(n_shards):
    """A supervisor over a routing-only executor of ``n_shards`` shards."""
    executor = ShardSet([_Shard() for _ in range(n_shards)], max_installed=1)
    return executor, ShardSupervisor(executor, ServeMetrics())


def routes(supervisor, sample):
    return {key: supervisor.route_hash(key)[0] for key in sample}


class TestBalance:
    def test_three_nodes_64_vnodes_within_2x_of_ideal(self):
        ring = HashRing([0, 1, 2], vnodes=64)
        counts = {0: 0, 1: 0, 2: 0}
        sample = keys(6000)
        for key in sample:
            counts[ring.node_for(key)] += 1
        ideal = len(sample) / 3
        assert max(counts.values()) <= 2 * ideal
        assert min(counts.values()) > 0

    @pytest.mark.parametrize("members", [2, 3, 5, 8])
    def test_every_member_owns_keys(self, members):
        ring = HashRing(range(members), vnodes=64)
        owners = {ring.node_for(key) for key in keys(2000)}
        assert owners == set(range(members))


class TestOneRing:
    @pytest.mark.parametrize("n_shards", [1, 2, 3, 5])
    def test_healthy_route_is_the_home_shard(self, n_shards):
        executor, supervisor = supervised(n_shards)
        for i in range(2000):
            doc_hash = hashlib.sha256(f"page-{i}".encode()).hexdigest()
            assert supervisor.route_hash(doc_hash) == (
                executor.shard_for(doc_hash),
                False,
            )

    def test_no_member_routes_to_the_home_shard(self):
        executor, supervisor = supervised(3)
        for shard in range(3):
            supervisor.ring_leave(shard, "tripped")
        assert supervisor.members == set()
        for key in keys(500):
            assert supervisor.route_hash(key) == (executor.shard_for(key), False)


class TestMinimalMovement:
    def test_remove_moves_only_the_removed_nodes_keys(self):
        _, supervisor = supervised(3)
        sample = keys(3000)
        before = routes(supervisor, sample)
        supervisor.ring_leave(1, "tripped")
        after = routes(supervisor, sample)
        for key in sample:
            if before[key] != 1:
                assert after[key] == before[key]
            else:
                assert after[key] in (0, 2)

    def test_add_steals_only_the_new_nodes_interval(self):
        _, supervisor = supervised(3)
        supervisor.ring_leave(2, "draining")
        sample = keys(3000)
        before = routes(supervisor, sample)
        supervisor.ring_join(2)
        after = routes(supervisor, sample)
        moved = [key for key in sample if after[key] != before[key]]
        # Everything that moved went *to* the rejoined shard, and it took
        # roughly its fair share (1/3), not the whole keyspace.
        assert moved
        assert all(after[key] == 2 for key in moved)
        assert len(moved) <= 2 * len(sample) / 3

    def test_leave_then_rejoin_restores_routing_exactly(self):
        _, supervisor = supervised(3)
        sample = keys(1500)
        before = routes(supervisor, sample)
        supervisor.ring_leave(2, "tripped")
        supervisor.ring_join(2)
        assert routes(supervisor, sample) == before
        assert supervisor.generation == 2

    def test_generation_counts_membership_changes_only(self):
        _, supervisor = supervised(3)
        assert supervisor.generation == 0
        supervisor.ring_join(0)          # already a member
        assert supervisor.generation == 0
        supervisor.ring_leave(9, "tripped")  # never a member
        assert supervisor.generation == 0
        supervisor.ring_leave(2, "draining")
        supervisor.ring_leave(0, "tripped")
        supervisor.ring_leave(0, "tripped")  # already gone
        assert supervisor.generation == 2
        supervisor.ring_join(2)
        assert supervisor.generation == 3


class TestDeterminism:
    def test_same_members_same_routing_across_instances(self):
        a = HashRing(["s0", "s1", "s2"], vnodes=64)
        b = HashRing(["s2", "s0", "s1"], vnodes=64)  # insertion order differs
        for key in keys(500):
            assert a.node_for(key) == b.node_for(key)

    def test_routing_is_stable_across_processes(self):
        sample = keys(200)
        local = [HashRing([0, 1, 2], vnodes=64).node_for(key) for key in sample]
        script = (
            "from repro.serve.ring import HashRing\n"
            "ring = HashRing([0, 1, 2], vnodes=64)\n"
            f"keys = [f'doc-hash-{{i:06d}}' for i in range({len(sample)})]\n"
            "print(','.join(str(ring.node_for(key)) for key in keys))\n"
        )
        output = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
        assert [int(x) for x in output.split(",")] == local

    def test_point_is_sha256_derived(self):
        # Pin the hash construction: a silent change would reshuffle
        # every deployed cluster's key placement on upgrade.
        import hashlib

        data = "node-a#vn3"
        expected = int.from_bytes(
            hashlib.sha256(data.encode()).digest()[:8], "big"
        )
        assert _point(data) == expected


class TestRoutingApi:
    def test_empty_ring_raises_lookup_error(self):
        ring = HashRing()
        with pytest.raises(LookupError):
            ring.node_for("anything")
        assert list(ring.successors("anything")) == []

    def test_successors_start_at_owner_and_cover_all_members(self):
        ring = HashRing([0, 1, 2, 3], vnodes=32)
        for key in keys(50):
            order = list(ring.successors(key))
            assert order[0] == ring.node_for(key)
            assert sorted(order) == [0, 1, 2, 3]

    def test_describe_is_json_shaped(self):
        _, supervisor = supervised(3)
        supervisor.ring_leave(1, "draining")
        assert supervisor.describe_ring() == {
            "members": [0, 2],
            "generation": 1,
            "vnodes": 64,
        }
