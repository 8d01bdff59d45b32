"""Cache hierarchy substrate: set-associative caches with FGD dirty masks, DBI."""

from repro.cache.dbi import DirtyBlockIndex
from repro.cache.hierarchy import CacheHierarchy, MemoryTraffic
from repro.cache.set_assoc import (
    CacheStats,
    Eviction,
    SetAssociativeCache,
    word_mask_for_store,
)

__all__ = [
    "CacheHierarchy",
    "CacheStats",
    "DirtyBlockIndex",
    "Eviction",
    "MemoryTraffic",
    "SetAssociativeCache",
    "word_mask_for_store",
]
