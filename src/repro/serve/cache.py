"""Content-hash LRU cache of extraction results.

Keys are ``(wrapper cache key, document content hash)`` pairs; values are
the JSON-serializable result payloads the shards produce.  A hit skips
tokenizing, snapshot building and the kernel fixpoint entirely -- the
whole request becomes one dictionary lookup.  Entries are treated as
immutable by every consumer (handlers serialize them straight to JSON),
so no defensive copying happens on either side.  Entries never go
stale: the serving layer's key already names the wrapper version, its
source hash and the document's content hash.  The one bound is the
entry count, ``capacity``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Hashable, Optional


class ResultCache:
    """A bounded thread-safe LRU map.

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
    """

    def __init__(self, capacity: int = 512):
        self.capacity = capacity
        self._entries: "OrderedDict[Hashable, object]" = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key: Hashable) -> Optional[object]:
        if self.capacity <= 0:
            return None
        with self._lock:
            value = self._entries.get(key)
            if value is not None:
                self._entries.move_to_end(key)
            return value

    def put(self, key: Hashable, value: object) -> None:
        if self.capacity <= 0:
            return
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"ResultCache({len(self)}/{self.capacity})"
