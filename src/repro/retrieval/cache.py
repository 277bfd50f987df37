"""A minimal bounded LRU mapping shared by the retrieval-layer caches.

One implementation for the feature-profile, schema-linking and
ambiguous-column caches, so the capacity bound is enforced in exactly one place.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Generic, TypeVar

K = TypeVar("K")
V = TypeVar("V")


class LruDict(Generic[K, V]):
    """Bounded mapping with least-recently-used eviction.

    ``max_size <= 0`` disables storage entirely (every ``get`` misses), which
    callers use as an "off" switch.
    """

    def __init__(self, max_size: int) -> None:
        self.max_size = max_size
        self._data: OrderedDict[K, V] = OrderedDict()

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: K) -> bool:
        return key in self._data

    def get(self, key: K) -> V | None:
        """Return the cached value (refreshing its recency), or ``None``."""
        value = self._data.get(key)
        if value is not None:
            self._data.move_to_end(key)
        return value

    def put(self, key: K, value: V) -> None:
        """Insert (or refresh) a value, evicting the oldest past capacity."""
        if self.max_size <= 0:
            return
        self._data[key] = value
        self._data.move_to_end(key)
        while len(self._data) > self.max_size:
            self._data.popitem(last=False)

    def clear(self) -> None:
        """Drop every cached entry."""
        self._data.clear()
