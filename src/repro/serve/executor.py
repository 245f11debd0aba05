"""Sharded long-lived evaluation for compiled wrappers.

The batch APIs of :mod:`repro.wrap.extraction` run serially in the
calling process; this module is where documents are evaluated in
parallel.  :class:`ShardExecutor` owns a fixed set of *shards* that live
for the whole server lifetime: each a
:class:`~repro.serve.shard.ShardDaemon` forked onto a Unix socket the
executor owns and reached over the framed RPC of
:mod:`repro.serve.transport`, the same connection code that reaches a
remote daemon.  A compiled wrapper is pickled and installed into each
shard exactly once (plans + kernel tables, a few KB); after that, only
HTML strings travel to a shard and only flat JSON-serializable output
dicts travel back.

Every shard -- a local daemon, the inline thread, or a remote
:class:`~repro.serve.shard.ShardDaemon` -- holds one :class:`ShardStore`
and runs one operation on it, :meth:`ShardStore.wrap`: a list of
``(html, doc_id | None)`` items in, ``{"pages": [...], "kernel": [...]}``
out, one output dict and one per-page stats dict per item.  An item with
a ``doc_id`` is wrapped warm against the state that document's previous
version left on the shard.

Documents are routed to shards by content hash (``doc_id`` requests by
the hash of the id) on one static consistent-hash ring over the shard
indices (:class:`~repro.serve.ring.HashRing`, ``ShardSet.ring``), so
identical documents always land on the same shard and a multi-document
batch splits into at most one sub-batch per shard.  The supervisor's
health routing walks the same ring, so with every shard healthy it
picks exactly :meth:`ShardSet.shard_for`.  ``shards=0`` selects the
*inline* mode -- a single thread-backed shard with no pickling -- used
by tests and by single-core boxes where process fan-out cannot pay for
itself.
"""

from __future__ import annotations

import asyncio
import hashlib
import os
import shutil
import tempfile
from collections import OrderedDict
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import ServeError, WrapperNotResident
from repro.serve.faults import FaultInjector, FaultPlan, release_hangs
from repro.serve.ring import HashRing
from repro.wrap.extraction import Wrapper, WrapperState

#: One unit of shard work: an HTML page and the document id it is a
#: version of (``None`` for a one-off page).
Item = Tuple[str, Optional[str]]


def content_hash(html: str) -> str:
    """Stable content hash of one document (routing and cache key)."""
    return hashlib.sha256(html.encode("utf-8", "surrogatepass")).hexdigest()


def as_items(items: Sequence[Union[str, Item]]) -> List[Item]:
    """Shard items as ``(html, doc_id)`` pairs; a bare page is ``(html, None)``.

    >>> as_items(["<p>a</p>", ("<p>b</p>", "doc-1")])
    [('<p>a</p>', None), ('<p>b</p>', 'doc-1')]
    """
    return [
        (item, None) if isinstance(item, str) else (item[0], item[1])
        for item in items
    ]


class ShardStore:
    """What one shard holds, and the one operation it runs on it.

    The store keeps the installed compiled wrappers and, per
    ``(wrapper key, doc_id)``, the :class:`WrapperState` the previous
    version of that document left behind (its snapshot, its page and
    rank table for the next version's comparison, and each plan's answer
    ids).  ``state_cap`` bounds the states LRU -- a state holds one
    snapshot and one page, a few times the document's size in memory --
    and ``max_installed`` (when set) bounds the
    wrappers.  Losing the store (worker death, respawn) is always safe:
    a missing wrapper is a retryable
    :class:`~repro.errors.WrapperNotResident`, a missing state a cold run.

    >>> from repro.datalog import parse_program
    >>> store = ShardStore()
    >>> store.install("k", Wrapper().add_datalog("item", parse_program(
    ...     "item(x) :- label_li(x).", query="item")))
    True
    >>> reply = store.wrap("k", [("<ul><li>a<li>b</ul>", "doc"),
    ...                          ("<ul><li>a<li>c</ul>", "doc")])
    >>> [len(page["children"]) for page in reply["pages"]]
    [2, 2]
    >>> [stats["warm"] for stats in reply["kernel"]]
    [False, True]
    """

    def __init__(
        self,
        injector: Optional[FaultInjector] = None,
        max_installed: Optional[int] = None,
        state_cap: int = 128,
    ):
        self.injector = injector
        self.max_installed = max_installed
        self.state_cap = state_cap
        self.wrappers: "OrderedDict[str, Wrapper]" = OrderedDict()
        self.states: "OrderedDict[Tuple[str, str], WrapperState]" = OrderedDict()

    def install(self, key: str, wrapper: Wrapper) -> bool:
        # A key names one compiled artifact (it carries the source hash),
        # so a re-install -- after a dropped connection, say -- keeps the
        # resident wrapper, and with it the warm states, whose kernel
        # lowerings belong to that wrapper object.
        self.wrappers.setdefault(key, wrapper)
        self.wrappers.move_to_end(key)
        cap = self.max_installed
        while cap is not None and len(self.wrappers) > cap:
            self.wrappers.popitem(last=False)
        return True

    def uninstall(self, key: str) -> bool:
        return self.wrappers.pop(key, None) is not None

    def ping(self) -> bool:
        """Health-check round trip: proves the worker is alive and draining."""
        return True

    def wrap(self, key: str, items: List[Item]) -> dict:
        """Wrap ``(html, doc_id)`` items with the wrapper installed as ``key``.

        Each page runs :meth:`Wrapper.wrap_html_stateful`, warm against
        its ``doc_id``'s stored state when it has one.  Returns
        ``{"pages": [output dicts], "kernel": [per-page stats]}``.  Fault
        injection applies to the pages only: the stats are observability
        metadata, so garbling faults target what the client consumes.
        """
        wrapper = self.wrappers.get(key)
        if wrapper is None:
            # Retryable: the wrapper was evicted or the worker respawned;
            # the next attempt re-installs it via ensure_installed.
            raise WrapperNotResident(
                f"wrapper {key!r} is not resident on this shard; retry the request"
            )
        self.wrappers.move_to_end(key)
        injector = self.injector
        if injector is not None:
            injector.before_call(key, [html for html, _ in items])
        pages: List[dict] = []
        kernel: List[dict] = []
        for html, doc_id in items:
            state_key = (key, doc_id)
            prior = self.states.get(state_key) if doc_id is not None else None
            output, state, stats = wrapper.wrap_html_stateful(html, prior)
            if doc_id is not None:
                self.states[state_key] = state
                self.states.move_to_end(state_key)
                while len(self.states) > self.state_cap:
                    self.states.popitem(last=False)
            pages.append(output.to_dict())
            kernel.append(stats)
        if injector is not None:
            pages = injector.after_call(key, pages)
        return {"pages": pages, "kernel": kernel}


def _forget_on_failure(shard, key: str):
    def callback(future) -> None:
        if future.cancelled() or future.exception() is not None:
            shard.installed.pop(key, None)

    return callback


class ShardSet:
    """The executor surface every shard transport shares.

    Routing, install-once bookkeeping, submission, health pings, kills
    and shutdown, over ``self._shards``: objects with an ``installed``
    LRU of wrapper keys, a ``draining`` flag, ``call(op, *args)`` (a
    future of one :class:`ShardStore` operation), ``wrap(key, items,
    trace)`` and ``ping()`` (futures of those operations), ``evict(key)``
    (fire-and-forget uninstall), ``kill()``, ``state()`` and ``close()``
    (safe from any thread).  :class:`ShardExecutor` runs local shards;
    :class:`~repro.serve.transport.RemoteShardExecutor` runs remote
    daemons.
    """

    def __init__(self, shards: list, max_installed: int):
        self._shards = shards
        self.max_installed = max(1, max_installed)
        self._closed = False
        #: The one page->shard map: every shard choice reads this ring.
        self.ring = HashRing(range(len(shards)))

    @property
    def n_shards(self) -> int:
        return len(self._shards)

    def shard_for(self, doc_hash: str) -> int:
        """The home shard of one routing key: its owner on :attr:`ring`."""
        return self.ring.node_for(doc_hash)

    def _shard(self, shard_index: int):
        if self._closed:
            raise ServeError("executor is closed")
        return self._shards[shard_index]

    def ensure_installed(
        self, key: str, wrapper: Wrapper, shard: Optional[int] = None
    ) -> list:
        """Install ``key`` on every shard that lacks it; pending futures.

        The wrapper is pickled to each shard at most once while it stays
        resident; callers await the returned futures before submitting
        work for ``key``.  With ``shard`` given, only that shard's install
        future is returned -- the caller's request depends on it alone;
        installs elsewhere still fire but heal in the background (their
        failures just forget the key for a later retry), and a draining
        shard, which will never be routed new keys, is skipped.  Shard
        stores are LRU-bounded by ``max_installed``: the least recently
        used key is uninstalled from the shard (safe -- its next request
        just re-installs), keeping shard memory flat however many
        registrations come and go.
        """
        if self._closed:
            raise ServeError("executor is closed")
        futures = []
        for index, target in enumerate(self._shards):
            if key in target.installed:
                target.installed.move_to_end(key)
                continue
            if target.draining and index != shard:
                continue
            future = target.call("install", key, wrapper)
            target.installed[key] = True
            # A failed install must not poison the shard: forget the
            # key again so the next request retries the install.
            future.add_done_callback(_forget_on_failure(target, key))
            if shard is None or index == shard:
                futures.append(future)
            while len(target.installed) > self.max_installed:
                stale, _ = target.installed.popitem(last=False)
                target.evict(stale)
        return futures

    def installed_on(self, key: str) -> List[int]:
        """Shard indices currently holding ``key`` (acked installs)."""
        return [
            index
            for index, shard in enumerate(self._shards)
            if key in shard.installed
        ]

    def is_draining(self, shard_index: int) -> bool:
        return self._shards[shard_index].draining

    def submit(
        self,
        shard_index: int,
        key: str,
        items: Sequence[Union[str, Item]],
        trace: Optional[dict] = None,
    ):
        """Wrap a sub-batch of items on one shard (see :meth:`ShardStore.wrap`).

        ``items`` are ``(html, doc_id)`` pairs or bare pages; the future
        resolves to ``{"pages": [...], "kernel": [...]}``.  The caller
        routes ``doc_id`` items by ``content_hash(doc_id)`` so successive
        versions of one document land on the shard holding its state.
        ``trace`` (the request's trace context) travels to daemons, which
        log it; the inline shard ignores it."""
        return self._shard(shard_index).wrap(key, as_items(items), trace)

    #: Every reply carries the per-page stats, so tracing needs no other call.
    submit_traced = submit

    def ping(self, shard_index: int):
        """Health-check round trip through one shard's queue."""
        return self._shard(shard_index).ping()

    def shard_state(self, shard_index: int) -> Dict:
        """Transport view of one shard for ``/healthz``."""
        return self._shards[shard_index].state()

    def kill_shard(self, shard_index: int) -> None:
        """Cut one shard off (a call hung past its deadline).

        Installed wrappers are forgotten; the next request re-installs.
        """
        if not self._closed:
            self._shards[shard_index].kill()

    def respawn_shard(self, shard_index: int) -> None:
        """Supervisor hook: proactively recycle one (sick) shard."""
        self.kill_shard(shard_index)

    def close(self) -> None:
        """Shut every shard down; safe to call from any thread."""
        if self._closed:
            return
        self._closed = True
        for shard in self._shards:
            shard.close()

    async def aclose(self) -> None:
        """:meth:`close` from the event loop (its blocking waits run off it)."""
        await asyncio.get_running_loop().run_in_executor(None, self.close)


class _InlineShard:
    """The ``shards=0`` shard: one worker thread over an in-memory store.

    The :class:`ShardStore` lives in the server's memory (no pickling).
    Faults are injected *softly* here (simulated crashes instead of
    process death), so the whole recovery stack is exercisable without
    spawning processes.
    """

    def __init__(self, faults: Optional[FaultPlan] = None) -> None:
        #: Survives respawns: an inline chaos run is one deterministic
        #: call sequence, so a plan combining ``kill_every`` with delays
        #: keeps firing *all* its faults instead of resetting to the
        #: kill-only prefix after every respawn.
        self.injector: Optional[FaultInjector] = (
            FaultInjector(faults, hard=False, shard_tag="inline")
            if faults is not None and faults.enabled
            else None
        )
        self._spawn()

    def _spawn(self) -> None:
        self.pool = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve-shard"
        )
        self.store = ShardStore(injector=self.injector)
        #: Installed wrapper keys in LRU order (see ensure_installed).
        self.installed: "OrderedDict[str, bool]" = OrderedDict()

    #: The inline shard never drains independently of the server.
    draining = False

    def call(self, op: str, *args) -> Future:
        """Queue one :class:`ShardStore` operation on the worker thread."""
        return self.pool.submit(getattr(self.store, op), *args)

    def wrap(self, key: str, items: List[Item], trace=None) -> Future:
        return self.call("wrap", key, items)

    def ping(self) -> Future:
        return self.call("ping")

    def evict(self, key: str) -> None:
        # Fire-and-forget: the single worker is FIFO, so any batch
        # already queued for ``key`` runs first.
        self.call("uninstall", key)

    def kill(self) -> None:
        """Drop the store (forcing re-install) and start a fresh worker.

        Any injected hang is released so the abandoned worker thread can
        exit."""
        release_hangs()
        old = self.pool
        self._spawn()
        old.shutdown(wait=False, cancel_futures=True)

    def state(self) -> Dict:
        return {
            "transport": "local",
            "mode": "inline",
            "connected": True,
            "draining": False,
            "reconnects_total": 0,
            "installed_wrappers": len(self.installed),
        }

    def close(self) -> None:
        release_hangs()
        self.pool.shutdown(wait=True, cancel_futures=True)


class ShardExecutor(ShardSet):
    """A fixed set of long-lived local evaluation shards.

    ``shards=N > 0`` forks ``N`` :class:`~repro.serve.shard.ShardDaemon`
    processes on Unix sockets in a private temporary directory, reached
    like remote daemons and so used on one event loop; :meth:`close`
    (from any thread) reaps them and removes the directory.

    Parameters
    ----------
    shards:
        Number of process shards; ``0`` (default) selects one inline
        thread-backed shard.
    max_installed:
        Cap on resident compiled wrappers per shard.  Superseded or
        rarely used registrations are evicted LRU from the shard's store
        (and transparently re-installed on their next request), so a
        server whose wrappers are re-registered over time cannot grow
        shard memory without bound.
    faults:
        Deterministic fault plan for chaos testing: injected softly in
        the inline shard, hard (real process exits) in process shards.

    Examples
    --------
    >>> executor = ShardExecutor(shards=0)
    >>> executor.mode, executor.n_shards
    ('inline', 1)
    >>> a = executor.shard_for(content_hash("<ul><li>x</ul>"))
    >>> a == executor.shard_for(content_hash("<ul><li>x</ul>"))
    True
    >>> executor.close()
    """

    def __init__(
        self,
        shards: int = 0,
        max_installed: int = 32,
        faults: Optional[FaultPlan] = None,
    ):
        self.faults = faults
        self._socket_dir: Optional[str] = None
        if shards <= 0:
            self.mode = "inline"
            local = [_InlineShard(faults)]
        else:
            # Imported here: the transport builds on this module.
            from repro.serve.transport import _LocalShard

            self.mode = "process"
            self._socket_dir = tempfile.mkdtemp(prefix="repro-shards-")
            local = [
                _LocalShard(os.path.join(self._socket_dir, f"{i}.sock"), faults)
                for i in range(shards)
            ]
        super().__init__(local, max_installed)

    def close(self) -> None:
        """Shut every shard down, reap the children, remove the sockets."""
        super().close()
        if self._socket_dir is not None:
            shutil.rmtree(self._socket_dir, ignore_errors=True)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"ShardExecutor({self.mode}, {self.n_shards} shards)"
