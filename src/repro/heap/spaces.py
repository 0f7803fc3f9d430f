"""Heap spaces: contiguous address ranges with bump-pointer allocation."""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from typing import List, Optional

import numpy as np

from ..errors import ConfigError
from .object_model import SPACE_CODES, HeapObject, SpaceId


class Space:
    """A contiguous space: eden, a survivor, the old gen, or a G1 region.

    Objects are placed with a bump pointer, so ``objects`` stays sorted by
    address, which lets card scans locate the objects overlapping a card
    segment with binary search — the same trick real card-table scanning
    relies on (objects-per-card lookup via block-offset tables).  The
    search runs over ``_addrs``, the start addresses of ``_oids`` (the
    space's oids in address order); both are appended on every bump
    allocation alongside ``objects``, so no lookup ever rebuilds an index
    from handles.
    """

    def __init__(self, space_id: SpaceId, base: int, capacity: int, name: str = ""):
        if capacity < 0:
            raise ConfigError(f"space capacity must be non-negative: {capacity}")
        self.space_id = space_id
        self.base = base
        self.capacity = capacity
        self.top = base
        self.objects: List[HeapObject] = []
        #: oids and start addresses of ``objects``, same order, as flat
        #: int64 arrays; every mutation of ``objects`` keeps them in step
        self._oids = array("q")
        self._addrs = array("q")
        self.name = name or space_id.value
        self._oid_cache: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    @property
    def used(self) -> int:
        return self.top - self.base

    @property
    def free(self) -> int:
        return self.capacity - self.used

    @property
    def occupancy(self) -> float:
        return self.used / self.capacity if self.capacity else 1.0

    @property
    def end(self) -> int:
        return self.base + self.capacity

    def contains_address(self, address: int) -> bool:
        return self.base <= address < self.end

    def has_room(self, size: int) -> bool:
        return self.free >= size

    # ------------------------------------------------------------------
    def allocate(self, obj: HeapObject) -> bool:
        """Bump-allocate ``obj``; returns False when the space is full."""
        return self.place(obj._store, obj.oid)

    def place(self, store, oid: int) -> bool:
        """Bump-allocate row ``oid``: writes its address and space columns.

        Returns False when the space is full.
        """
        size = store.size[oid]
        top = self.top
        if self.capacity - (top - self.base) < size:
            return False
        store.address[oid] = top
        store.space[oid] = SPACE_CODES[self.space_id]
        self.top = top + size
        self.objects.append(store.handle(oid))
        self._oids.append(oid)
        self._addrs.append(top)
        self._oid_cache = None
        return True

    def reset(self) -> None:
        """Empty the space (end of scavenge for eden/from-space)."""
        self.top = self.base
        self.objects.clear()
        self._oids = array("q")
        self._addrs = array("q")
        self._oid_cache = None

    def install(self, store, oids) -> None:
        """Install an address-sorted population placed by a compaction.

        ``oids`` is any int sequence or array.  The bump pointer lands at
        the end of the last object (or the base when ``oids`` is empty).
        """
        idx = np.asarray(oids, dtype=np.int64)
        self._oids = array("q", idx.tobytes())
        if idx.size:
            self.objects = list(map(store.handle, self._oids))
            self._addrs = array("q", store.address_view()[idx].tobytes())
            last = self._oids[-1]
            self.top = store.address[last] + store.size[last]
        else:
            self.objects = []
            self._addrs = array("q")
            self.top = self.base
        self._oid_cache = None

    def live_bytes(self) -> int:
        if not self.objects:
            return 0
        store = self.objects[0]._store
        return store.sum_sizes(self.oid_array())

    # ------------------------------------------------------------------
    def oid_array(self) -> np.ndarray:
        """The space's oids in address order (batch-kernel input)."""
        if self._oid_cache is None:
            # A copy: a view would pin ``_oids`` against growth.
            self._oid_cache = np.array(self._oids, dtype=np.int64)
        return self._oid_cache

    def oids_overlapping(self, lo: int, hi: int) -> List[int]:
        """Oids of the objects whose extent intersects [lo, hi)."""
        oids = self._oids
        if not oids:
            return []
        store = self.objects[0]._store
        return overlapping(oids, self._addrs, store, lo, hi)

    def objects_overlapping(self, lo: int, hi: int) -> List[HeapObject]:
        """Objects whose extent intersects the address range [lo, hi)."""
        oids = self.oids_overlapping(lo, hi)
        return [self.objects[0]._store.handle(oid) for oid in oids]


def overlapping(oids, addrs, store, lo: int, hi: int) -> List[int]:
    """The oids of an address-sorted run whose extent meets [lo, hi).

    Binary search over ``addrs`` (the run's start addresses) narrows the
    candidates to the object starting at or before ``lo`` through the
    first starting at or after ``hi``; the extent test over the store's
    columns then keeps the ones that intersect.
    """
    start = bisect_right(addrs, lo) - 1
    if start < 0:
        start = 0
    stop = bisect_left(addrs, hi) + 1
    address = store.address
    size = store.size
    return [
        oid
        for oid in oids[start:stop]
        if address[oid] < hi and address[oid] + size[oid] > lo
    ]


class OldGeneration(Space):
    """The old generation, with an index of objects by card for barrier scans."""

    def __init__(self, base: int, capacity: int):
        super().__init__(SpaceId.OLD, base, capacity, name="old")

    def rebuild_after_compaction(self, survivors: List[HeapObject]) -> None:
        """Install the post-compaction object list (already address-sorted)."""
        store = survivors[0]._store if survivors else None
        self.install(store, [o.oid for o in survivors])
