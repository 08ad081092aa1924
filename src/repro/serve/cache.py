"""In-memory LRU cache for served explanation results.

The serving layer answers heavy repeated traffic over a fixed dataset, so
many requests are literal repeats of rows already explained.  The cache
stores one entry per (encoded row, desired class, pipeline fingerprint)
key; keying on the fingerprint automatically invalidates every entry when
the underlying artifact changes, so no explicit flush is needed on reload.

Every operation is atomic under an internal lock, so one cache instance
can be shared by concurrent request threads (for instance two threads
calling one service's ``explain_batch``): a ``get`` can never
observe a half-applied ``put``, eviction bookkeeping cannot double-count,
and :attr:`stats` returns a consistent snapshot of all counters.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from ..utils.validation import check_count

__all__ = ["LRUResultCache"]


class LRUResultCache:
    """Bounded least-recently-used mapping with hit/miss accounting.

    Parameters
    ----------
    capacity:
        Maximum number of entries; ``0`` disables caching entirely (every
        lookup misses, nothing is stored).
    """

    def __init__(self, capacity=4096):
        self.capacity = check_count(capacity, "capacity", 0)
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._entries = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self):
        with self._lock:
            return len(self._entries)

    def __contains__(self, key):
        with self._lock:
            return key in self._entries

    def get(self, key):
        """Return the cached value for ``key`` or ``None``, updating stats.

        A hit moves the entry to the most-recently-used position.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry

    def put(self, key, value):
        """Insert ``value`` under ``key``, evicting the LRU entry if full."""
        if self.capacity == 0:
            return
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = value
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    def items(self):
        """Snapshot of ``(key, value)`` pairs in LRU-to-MRU order.

        Reading through this view does not touch the hit/miss counters
        or recency — it exists for bulk maintenance (the serving
        rollover migration re-validates every entry), not for lookups.
        """
        with self._lock:
            return list(self._entries.items())

    def clear(self):
        """Drop every entry (statistics are kept)."""
        with self._lock:
            self._entries.clear()

    @property
    def stats(self):
        """Counters dict: size, capacity, hits, misses, evictions.

        Taken under the lock, so the size and counters are one
        consistent point-in-time snapshot even while other threads keep
        serving through the cache.
        """
        with self._lock:
            return {
                "size": len(self._entries),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }
