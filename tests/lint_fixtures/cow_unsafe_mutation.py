"""Fixture: cow-unsafe-mutation (shared value mutated off the guard).

The module declares a COW protocol (``_tags`` containers shared until
``_own_set`` privatizes), then mutates a shared per-set container on a
path the privatization guard does not dominate: the guard sits inside
an ``if`` branch while the mutation runs unconditionally after the
join, so the unguarded path writes through a snapshot-shared dict.
"""

REPRO_COW_PROTOCOL = {
    "shared_roots": ("_tags",),
    "privatizers": ("_own_set",),
}


class LeakyCache:
    """Minimal COW tag store with a broken write path."""

    def __init__(self, num_sets: int) -> None:
        self._tags = [dict() for _ in range(num_sets)]
        self._cow_owned: set = set()

    def _own_set(self, set_idx: int) -> dict:
        tags = dict(self._tags[set_idx])
        self._tags[set_idx] = tags
        self._cow_owned.add(set_idx)
        return tags

    def install_guarded(self, set_idx: int, tag: int, slot: int) -> None:
        """Correct shape: privatization guard dominates the write."""
        tags = self._tags[set_idx]
        if set_idx not in self._cow_owned:
            tags = self._own_set(set_idx)
        tags[tag] = slot

    def install_leaky(self, set_idx: int, tag: int, slot: int) -> None:
        """Broken shape: no privatization on any path — the write goes
        straight through a possibly snapshot-shared dict."""
        tags = self._tags[set_idx]
        tags[tag] = slot

    def evict_leaky(self, set_idx: int, tag: int) -> None:
        """Broken shape: mutating method call on a shared container."""
        self._tags[set_idx].pop(tag, None)
