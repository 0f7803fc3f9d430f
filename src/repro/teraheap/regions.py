"""H2 regions and their DRAM-resident metadata (Section 3.3, Figure 2).

H2 is organised in virtual memory as fixed-size regions, each hosting an
object group with a similar lifetime.  All region metadata lives in DRAM:
a region array with start/top pointers and a live bit, plus a per-region
dependency list whose nodes each point at a (different) region referenced
by this region's objects.  Space is reclaimed *lazily*, a whole region at
a time — no object is ever compacted on the device.
"""

from __future__ import annotations

from array import array
from typing import Iterable, List, Optional, Set

import numpy as np

from ..errors import ConfigError
from ..heap.object_model import HeapObject
from ..heap.spaces import overlapping
from ..heap.store import SPACE_FREED, SPACE_H2
from ..units import TiB

# Figure 2 metadata, sized per region (measured on the authors' struct
# layout so that Table 5 reproduces exactly):
#   region array entry: head/start/top pointers + live bit + padding  = 64 B
#   allocator state: label hash, object/byte counters, buffer pointer = 89 B
#   dependency list: ~10 nodes on average (Section 3.3) x 24 B        = 240 B
#   promotion-buffer descriptor                                       = 24 B
PER_REGION_METADATA_BYTES = 64 + 89 + 10 * 24 + 24  # = 417

#: the oid array every empty region shares; never appended to
_NO_OIDS = array("q")


def metadata_bytes_per_tb(region_size: int) -> int:
    """DRAM metadata per TB of H2 for a given region size (Table 5).

    ``region_size`` is given in *real* bytes (e.g. ``1 * MiB``); the result
    is the metadata footprint for one TiB of H2 space.
    """
    if region_size <= 0:
        raise ConfigError("region size must be positive")
    regions_per_tb = TiB // region_size
    return regions_per_tb * PER_REGION_METADATA_BYTES


class Region:
    """One H2 region plus its DRAM metadata entry.

    The region's objects are kept as an int64 array of oids in placement
    (= address) order, appended on every placement; their addresses and
    sizes live in the heap store's columns.
    """

    __slots__ = (
        "index",
        "start",
        "capacity",
        "top",
        "live",
        "label",
        "deps",
        "allocated_epoch",
        "_store",
        "_oids",
        "_oid_cache",
    )

    def __init__(self, index: int, start: int, capacity: int):
        self.index = index
        #: start pointer (Figure 2)
        self.start = start
        self.capacity = capacity
        #: top (allocation) pointer; reset to ``start`` frees the region
        self.top = start
        #: live bit: region reachable from H1 this major GC (Section 3.3)
        self.live = False
        #: label of the object group placed here (regions are label-homogeneous
        #: so whole groups die together)
        self.label: Optional[str] = None
        #: dependency list: indices of regions referenced by objects here.
        #: The paper keeps direction — this set holds *outgoing* edges.
        self.deps: Set[int] = set()
        self.allocated_epoch = 0
        #: the heap store holding the placed objects' rows
        self._store = None
        #: oids of the placed objects (an empty region shares one empty
        #: array: thousands of reclaimed regions wait on the free list)
        self._oids = _NO_OIDS
        self._oid_cache: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    @property
    def used(self) -> int:
        return self.top - self.start

    @property
    def free_space(self) -> int:
        return self.capacity - self.used

    @property
    def end(self) -> int:
        return self.start + self.capacity

    @property
    def is_empty(self) -> bool:
        return self.top == self.start

    @property
    def objects(self) -> List[HeapObject]:
        """Handles of the placed objects, in address order."""
        if not self._oids:
            return []
        return list(map(self._store.handle, self._oids))

    @property
    def object_count(self) -> int:
        return len(self._oids)

    def contains_address(self, address: int) -> bool:
        return self.start <= address < self.end

    def has_room(self, size: int) -> bool:
        return self.free_space >= size

    # ------------------------------------------------------------------
    def allocate(self, obj: HeapObject) -> bool:
        """Append-only placement; objects never span regions (Section 3.4)."""
        return self.place(obj._store, obj.oid)

    def place(self, store, oid: int) -> bool:
        """Place row ``oid`` at the top: writes its address, space and
        region columns and bumps the top pointer."""
        size = store.size[oid]
        top = self.top
        if self.capacity - (top - self.start) < size:
            return False
        store.address[oid] = top
        store.space[oid] = SPACE_H2
        store.region_id[oid] = self.index
        self.top = top + size
        if not self._oids:
            self._oids = array("q")
            self._store = store
        self._oids.append(oid)
        self._oid_cache = None
        return True

    def oid_array(self) -> np.ndarray:
        """The region's oids in allocation (= address) order."""
        if self._oid_cache is None:
            # A copy: a view would pin ``_oids`` against growth.
            self._oid_cache = np.array(self._oids, dtype=np.int64)
        return self._oid_cache

    def live_object_stats(self, mark_epoch: int) -> "RegionLiveness":
        """Live-object and live-space fractions (Figure 10 inputs).

        An H2 object counts as live when its region was reached this epoch;
        at the statistics level we use per-object reachability recorded by
        the collector (``mark_epoch``) to measure intra-region garbage the
        way the paper's Figure 10 does.
        """
        total = len(self._oids)
        if total:
            store = self._store
            oids = self.oid_array()
            mask = store.epoch_view()[oids] >= mark_epoch
            live = int(mask.sum())
            live_bytes = int(store.size_view()[oids][mask].sum())
        else:
            live = 0
            live_bytes = 0
        return RegionLiveness(
            total_objects=total,
            live_objects=live,
            used_bytes=self.used,
            live_bytes=live_bytes,
            capacity=self.capacity,
        )

    def reclaim(self) -> List[HeapObject]:
        """Free the region in bulk: zero the allocation pointer, delete the
        dependency list (Section 3.3).  Returns the dropped objects."""
        dropped = self.objects
        reclaim_regions((self,))
        return dropped

    # ------------------------------------------------------------------
    def oids_overlapping(self, lo: int, hi: int) -> List[int]:
        """Oids of the objects intersecting [lo, hi) (card-segment scans)."""
        if not self._oids:
            return []
        store = self._store
        return overlapping(
            self._oids, _Starts(self._oids, store.address), store, lo, hi
        )

    def objects_overlapping(self, lo: int, hi: int) -> List[HeapObject]:
        """Objects intersecting [lo, hi) — used by card-segment scans."""
        return list(map(self._store.handle, self.oids_overlapping(lo, hi)))


class _Starts:
    """The start addresses of an oid run, read from the address column
    (a sequence the binary search can index without a copy)."""

    __slots__ = ("_oids", "_address")

    def __init__(self, oids, address):
        self._oids = oids
        self._address = address

    def __len__(self) -> int:
        return len(self._oids)

    def __getitem__(self, i: int) -> int:
        return self._address[self._oids[i]]


def reclaim_regions(regions: Iterable[Region]) -> None:
    """Free regions in bulk (Section 3.3).

    The space and region-id columns of every object in every region flip
    in one batched write; then each region's allocation pointer is
    zeroed, its live bit cleared and its dependency list deleted.
    """
    regions = list(regions)
    store = None
    oids: List[int] = []
    for region in regions:
        if region._oids:
            store = region._store
            oids.extend(region._oids)
    if store is not None:
        idx = np.array(oids, dtype=np.int64)
        store.space_view()[idx] = SPACE_FREED
        store.region_view()[idx] = -1
    for region in regions:
        region._oids = _NO_OIDS
        region._oid_cache = None
        region.top = region.start
        region.live = False
        region.label = None
        region.deps = set()


class RegionLiveness:
    """Per-region liveness statistics for the Figure 10 CDFs."""

    __slots__ = (
        "total_objects",
        "live_objects",
        "used_bytes",
        "live_bytes",
        "capacity",
    )

    def __init__(
        self,
        total_objects: int,
        live_objects: int,
        used_bytes: int,
        live_bytes: int,
        capacity: int,
    ):
        self.total_objects = total_objects
        self.live_objects = live_objects
        self.used_bytes = used_bytes
        self.live_bytes = live_bytes
        self.capacity = capacity

    @property
    def live_object_fraction(self) -> float:
        return self.live_objects / self.total_objects if self.total_objects else 0.0

    @property
    def live_space_fraction(self) -> float:
        return self.live_bytes / self.capacity if self.capacity else 0.0

    @property
    def unused_fraction(self) -> float:
        return 1.0 - self.used_bytes / self.capacity if self.capacity else 0.0
