"""One wrap path from :class:`Wrapper` to the wire.

Every raw-HTML entry point of the library runs one per-page core, and
every shard flavor (inline thread, local process, remote daemon) runs
one operation on one store.  These tests pin that the paths that used to
be separate forks -- cold, traced, warm -- now agree with each other:

* the library entry points return the same outputs as the per-page core,
  and the core's warm runs equal cold ones;
* the one shard operation answers identically on every shard flavor,
  equals the direct library output, and reuses ``doc_id`` state;
* ``doc_id`` requests coalesce through the batcher like any other
  request, without folding different documents' states together.
"""

import asyncio
import pickle

import pytest

from repro.datalog import parse_program
from repro.elog import parse_elog
from repro.errors import ShardCrashed
from repro.serve import (
    DaemonThread,
    MicroBatcher,
    RemoteShardExecutor,
    ResultCache,
    ServeMetrics,
    ShardDaemon,
    ShardExecutor,
    ShardStore,
)
from repro.serve.faults import validate_reply
from repro.wrap import Document, Wrapper
from repro.workloads import FORUM_WRAPPER, forum_page
from tests.test_serve_faults import make_registry

STAT_KEYS = {
    "snapshot_build_ms", "snapshot_reused", "kernel_ms", "runs", "warm",
    "output_reused",
}


def forum_wrapper():
    program = parse_elog(FORUM_WRAPPER)
    wrapper = Wrapper()
    for pattern in ("thread", "comment", "body"):
        wrapper.add_elog(pattern, program, pattern=pattern)
    return wrapper.compile()


def versions():
    """A deep forum page and three small edits of it."""
    page = forum_page(seed=11, threads=3, depth=14)
    return [page] + [
        page.replace(f"Comment {t}.13 ", f"Comment {t}.13 (edit {t}) ")
        for t in range(3)
    ]


class TestPerPageCore:
    def test_entry_points_agree_with_the_core(self):
        wrapper = forum_wrapper()
        pages = versions()
        cold = [out.to_dict() for out in wrapper.wrap_html_many(pages)]
        state = None
        reuse = []
        for page, expected in zip(pages, cold):
            out, state, stats = wrapper.wrap_html_stateful(page, state)
            assert out.to_dict() == expected
            assert set(stats) == STAT_KEYS
            reuse.append(
                (stats["snapshot_reused"], stats["warm"], stats["output_reused"])
            )
        # The later versions changed only comment text: from the second
        # on, each reuses the previous snapshot's structure and the
        # previous answers; the second reads the output's shape, and from
        # the third on each reuses it.
        assert reuse == [(False, False, False), (True, True, False)] + [
            (True, True, True)
        ] * 2
        extracted = wrapper.extract_html_many(pages)
        assert extracted == [wrapper.extract(Document.from_html(p)) for p in pages]

    def test_cold_stats_carry_one_run_per_plan(self):
        items = parse_program("item(x) :- label_li(x).", query="item")
        other = parse_program("cell(x) :- label_td(x).", query="cell")
        wrapper = Wrapper().add_datalog("item", items).add_datalog("cell", other)
        _, _, stats = wrapper.wrap_html_stateful("<ul><li>a<li>b</ul>")
        assert len(stats["runs"]) == 2
        assert all("engine" in run for run in stats["runs"])
        assert stats["warm"] is False


async def _executor_replies(executor, wrapper, batches):
    """Run each batch through ``executor.submit`` (every shard flavor)."""
    try:
        for install in executor.ensure_installed("k", wrapper):
            await asyncio.wrap_future(install)
        return [
            await asyncio.wrap_future(executor.submit(0, "k", items))
            for items in batches
        ]
    finally:
        await executor.aclose()


async def _daemon_replies(wrapper, batches):
    daemon = DaemonThread(ShardDaemon())
    host, port = daemon.start()
    try:
        executor = RemoteShardExecutor([f"{host}:{port}"])
        return await _executor_replies(executor, wrapper, batches)
    finally:
        daemon.stop()


class TestOneShardOp:
    def test_every_shard_flavor_answers_alike(self):
        wrapper = forum_wrapper()
        pages = versions()
        # One cold page, then every version of one document, one batch
        # holding a bare page and a doc_id item side by side.
        batches = [[pages[0]], [(pages[0], "doc")]] + [
            [(page, "doc"), page] for page in pages[1:]
        ]
        # The wrapper runs here before it is pickled into the process
        # shard and the daemon: its last run must not travel with it.
        expected = [out.to_dict() for out in wrapper.wrap_html_many(pages)]
        replies = {
            "inline": asyncio.run(
                _executor_replies(ShardExecutor(shards=0), wrapper, batches)
            ),
            "process": asyncio.run(
                _executor_replies(ShardExecutor(shards=1), wrapper, batches)
            ),
            "daemon": asyncio.run(_daemon_replies(wrapper, batches)),
        }
        for flavor, flavor_replies in replies.items():
            pages_out = [reply["pages"] for reply in flavor_replies]
            assert pages_out[0] == [expected[0]] == pages_out[1], flavor
            for index, reply_pages in enumerate(pages_out[2:], start=1):
                assert reply_pages == [expected[index]] * 2, flavor
            warm = [[s["warm"] for s in reply["kernel"]] for reply in flavor_replies]
            # doc_id items reuse the document's state; bare pages never do.
            assert warm == [[False], [False]] + [[True, False]] * 3, flavor

    def test_reinstall_keeps_warm_states(self):
        """A router that reconnects re-sends its installs; the documents'
        warm states must survive that (a fresh copy of the wrapper is not
        the wrapper that made the state, so it would run cold)."""
        store = ShardStore()
        store.install("k", forum_wrapper())
        pages = versions()
        store.wrap("k", [(pages[0], "doc")])
        store.install("k", pickle.loads(pickle.dumps(forum_wrapper())))
        reply = store.wrap("k", [(pages[1], "doc")])
        assert reply["kernel"][0]["warm"] is True

    def test_reply_validation(self):
        pages, stats = validate_reply({"pages": [{"a": 1}], "kernel": [{}]}, 1)
        assert pages == [{"a": 1}] and stats == [{}]
        pages, _ = validate_reply(
            {"pages": [{"a": 1}, {"b": 2}], "kernel": [{}, {}]}, 2
        )
        assert pages == [{"a": 1}, {"b": 2}]
        for bad, expected in (
            ([{"a": 1}], 1),  # a bare page list: every shard sends stats
            ({"pages": [{"a": 1}], "kernel": [{}]}, 2),  # wrong length
            ({"pages": [{"a": 1}], "kernel": [{}, {}]}, 1),
            ({"pages": [{"a": 1}]}, 1),
            ({"pages": ["a"], "kernel": [{}]}, 1),  # a non-dict page
            ({"pages": [{"__corrupt__": True}], "kernel": [{}]}, 1),  # marked
            ("garbage", 1),
        ):
            with pytest.raises(ShardCrashed):
                validate_reply(bad, expected)


class TestWarmRequestsCoalesce:
    def test_doc_id_requests_share_a_flush_and_keep_their_own_state(self):
        async def run():
            entry = make_registry().resolve("items")
            executor = ShardExecutor(shards=0)
            metrics = ServeMetrics()
            batcher = MicroBatcher(
                executor, ResultCache(0), metrics, bypass_concurrency=0
            )
            try:
                same = "<ul><li>a<li>b</ul>"
                # Two documents with identical first versions: one flush,
                # evaluated per doc_id so each keeps its own state.
                first = await asyncio.gather(
                    batcher.submit(entry, same, doc_id="x"),
                    batcher.submit(entry, same, doc_id="y"),
                )
                second = await asyncio.gather(
                    batcher.submit(entry, "<ul><li>a<li>c</ul>", doc_id="x"),
                    batcher.submit(entry, "<ul><li>a<li>d</ul>", doc_id="y"),
                )
            finally:
                executor.close()
            return first, second, metrics.snapshot()

        first, second, snapshot = asyncio.run(run())
        assert first[0] == first[1]
        assert all(len(out["children"]) == 2 for out in first + second)
        assert snapshot["batches"]["mean_size"] == 2
        counters = snapshot["counters"]
        assert counters["incremental_misses"] == 2
        assert counters["incremental_hits"] == 2
