"""Small bounded LRU mapping shared by the solver, engine and serve caches."""

from __future__ import annotations

import threading
from collections import OrderedDict


class LruDict:
    """Insertion-bounded mapping with least-recently-used eviction.

    ``max_entries <= 0`` keeps the mapping permanently empty, which callers
    use to disable caching while keeping the code path uniform.

    All operations take an internal lock, so a single instance may be shared
    between the asyncio event loop and executor threads (the serving layer
    does exactly that). The lock is re-entrant to keep subclass overrides
    that call back into the base class safe.
    """

    def __init__(self, max_entries: int, on_evict=None):
        self.max_entries = int(max_entries)
        self._data: OrderedDict = OrderedDict()
        self._lock = threading.RLock()
        # Optional ``on_evict(key, value)`` hook, called after the entry
        # has left the mapping (outside the critical section) so caches of
        # resource-owning values can release them (e.g. thread pools).
        self._on_evict = on_evict

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def __contains__(self, key) -> bool:
        with self._lock:
            return key in self._data

    def get(self, key):
        with self._lock:
            value = self._data.get(key)
            if value is not None:
                self._data.move_to_end(key)
            return value

    def put(self, key, value) -> None:
        evicted = []
        with self._lock:
            self._data[key] = value
            # Re-putting an existing key must also refresh its recency;
            # plain assignment leaves the key at its old position, so hot
            # entries would be evicted as if they were cold.
            self._data.move_to_end(key)
            while len(self._data) > max(self.max_entries, 0):
                evicted.append(self._data.popitem(last=False))
        if self._on_evict is not None:
            for evicted_key, evicted_value in evicted:
                self._on_evict(evicted_key, evicted_value)

    def keys(self) -> list:
        """Snapshot of the keys, oldest first."""
        with self._lock:
            return list(self._data.keys())

    def values(self) -> list:
        """Snapshot of the values, oldest first.

        Unlike :meth:`get`, reading values does not refresh recency —
        observers (metrics collectors) must not perturb eviction order.
        """
        with self._lock:
            return list(self._data.values())

    def clear(self) -> None:
        with self._lock:
            self._data.clear()
