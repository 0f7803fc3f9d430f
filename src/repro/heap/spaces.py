"""Heap spaces: contiguous address ranges with bump-pointer allocation."""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from itertools import accumulate
from typing import List, Optional, Sequence

import numpy as np

from ..errors import ConfigError
from .object_model import SPACE_CODES, HeapObject, SpaceId


class Space:
    """A contiguous space: eden, a survivor, the old gen, or a G1 region.

    Objects are placed with a bump pointer, so ``_oids`` (the space's
    oids) stays sorted by address, which lets card scans locate the
    objects overlapping a card segment with binary search — the same
    trick real card-table scanning relies on (objects-per-card lookup via
    block-offset tables).  The search runs over ``_addrs``, the start
    addresses of ``_oids``; both are appended on every bump allocation.
    ``objects`` is derived from ``_oids``: handles exist only for the
    callers that ask for them.
    """

    def __init__(self, space_id: SpaceId, base: int, capacity: int, name: str = ""):
        if capacity < 0:
            raise ConfigError(f"space capacity must be non-negative: {capacity}")
        self.space_id = space_id
        self.base = base
        self.capacity = capacity
        self.top = base
        #: oids and start addresses of the space's objects in address
        #: order, as flat int64 arrays
        self._oids = array("q")
        self._addrs = array("q")
        #: the store the oids index (set when the first row is placed)
        self._store = None
        self.name = name or space_id.value
        self._oid_cache: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    @property
    def objects(self) -> List[HeapObject]:
        """Handles of the space's objects, in address order."""
        if not self._oids:
            return []
        return list(map(self._store.handle, self._oids))

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
        self._store = store
        self._oids.append(oid)
        self._addrs.append(top)
        self._oid_cache = None
        return True

    def place_rows(self, store, oid: int, sizes: Sequence[int]) -> int:
        """Bump-allocate the consecutive new rows ``oid, oid + 1, ...``
        of ``sizes``, which the caller checked fit; returns their bytes.

        Writes only the address column: new rows are already eden rows,
        the one space this serves.
        """
        top = self.top
        count = len(sizes)
        addresses = array("q", accumulate(sizes, initial=top))
        end = addresses.pop()
        store.address[oid:oid + count] = addresses
        self._oids.extend(range(oid, oid + count))
        self._addrs.extend(addresses)
        self.top = end
        self._oid_cache = None
        self._store = store
        return end - top

    def reset(self) -> None:
        """Empty the space (end of scavenge for eden/from-space)."""
        self.top = self.base
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
            self._store = store
            self._addrs = array("q", store.address_view()[idx].tobytes())
            last = self._oids[-1]
            self.top = store.address[last] + store.size[last]
        else:
            self._addrs = array("q")
            self.top = self.base
        self._oid_cache = None

    def live_bytes(self) -> int:
        if not self._oids:
            return 0
        return self._store.sum_sizes(self.oid_array())

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
        return overlapping(oids, self._addrs, self._store, lo, hi)

    def objects_overlapping(self, lo: int, hi: int) -> List[HeapObject]:
        """Objects whose extent intersects the address range [lo, hi)."""
        oids = self.oids_overlapping(lo, hi)
        if not oids:
            return []
        return list(map(self._store.handle, oids))


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
