"""Content-hash LRU cache of extraction results.

Keys are ``(wrapper cache key, document content hash)`` pairs; values are
the JSON-serializable result payloads the shards produce.  A hit skips
tokenizing, snapshot building and the kernel fixpoint entirely -- the
whole request becomes one dictionary lookup.  Entries are treated as
immutable by every consumer (handlers serialize them straight to JSON),
so no defensive copying happens on either side.  Entries never go
stale: the serving layer's key already names the wrapper version, its
source hash and the document's content hash.

Beyond the entry-count capacity, an optional ``max_weight`` bounds the
total: each entry carries a caller-supplied weight (the serving layer
passes the source document's length), and the cache evicts in LRU order
until the total weight fits.  One huge page can therefore displace many
small ones but never pin the cache: an entry heavier than the whole
budget is simply not stored.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Hashable, Optional, Tuple


class ResultCache:
    """A bounded thread-safe LRU map with an optional weight budget.

    ``capacity <= 0`` disables caching entirely (every ``get`` misses).

    Examples
    --------
    >>> cache = ResultCache(capacity=2)
    >>> cache.put("a", 1); cache.put("b", 2)
    >>> cache.get("a")
    1
    >>> cache.put("c", 3)          # evicts "b" (least recently used)
    >>> cache.get("b") is None
    True
    >>> len(cache)
    2

    >>> heavy = ResultCache(capacity=8, max_weight=10)
    >>> heavy.put("small", 1, weight=4); heavy.put("big", 2, weight=9)
    >>> heavy.get("small") is None     # evicted: 4 + 9 > 10
    True
    >>> heavy.put("huge", 3, weight=11)  # over the whole budget: not stored
    >>> heavy.get("huge") is None and heavy.get("big") == 2
    True
    """

    def __init__(self, capacity: int = 512, max_weight: Optional[int] = None):
        self.capacity = capacity
        self.max_weight = max_weight
        #: key -> (value, weight)
        self._entries: "OrderedDict[Hashable, Tuple[object, int]]" = OrderedDict()
        self._weight = 0
        self._lock = threading.Lock()

    def get(self, key: Hashable) -> Optional[object]:
        if self.capacity <= 0:
            return None
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return None
            self._entries.move_to_end(key)
            return entry[0]

    def put(self, key: Hashable, value: object, weight: int = 1) -> None:
        if self.capacity <= 0:
            return
        weight = max(1, weight)
        if self.max_weight is not None and weight > self.max_weight:
            # Heavier than the entire budget: storing it would evict
            # everything else and then be evicted by the next put anyway.
            return
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self._weight -= old[1]
            self._entries[key] = (value, weight)
            self._weight += weight
            while len(self._entries) > self.capacity or (
                self.max_weight is not None and self._weight > self.max_weight
            ):
                _, (_, evicted_weight) = self._entries.popitem(last=False)
                self._weight -= evicted_weight

    @property
    def weight(self) -> int:
        """Total weight of the entries currently stored."""
        with self._lock:
            return self._weight

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._weight = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"ResultCache({len(self)}/{self.capacity})"
