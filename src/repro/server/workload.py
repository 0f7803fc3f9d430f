"""A steppable cached-analytics workload for co-located tenants.

The server scheduler interleaves tenants at *step* granularity (one
batch of chunk allocations + compute + cache re-reads), so workloads
must expose incremental progress rather than a monolithic ``run()``.
The shape mirrors the paper's iterative cached analytics (Section 7):
each iteration materialises a working set, tags it for H2, re-reads a
window of the previous iteration's cache (device traffic once the data
moved to H2), and drops iterations older than the sliding window.
"""

from __future__ import annotations

from typing import Dict, List

from ..devices.base import AccessPattern
from ..heap.object_model import HeapObject
from ..units import KiB


class CachedAnalyticsWorkload:
    """Iterative job: materialise, cache on H2, re-read, slide window.

    Deterministic by construction — the re-read sample is a fixed
    stride over the previous iteration's chunk list, no RNG anywhere —
    so two runs of the same box produce byte-identical schedules.
    """

    def __init__(
        self,
        vm,
        name: str,
        dataset_bytes: int,
        chunk_size: int = 8 * KiB,
        iterations: int = 3,
        batch_chunks: int = 16,
        reread_fraction: float = 1.0,
        compute_ops_per_chunk: int = 16,
    ):
        self.vm = vm
        self.name = name
        self.chunk_size = chunk_size
        self.chunks_total = max(1, dataset_bytes // chunk_size)
        self.iterations = iterations
        self.batch_chunks = batch_chunks
        self.reread_fraction = reread_fraction
        self.compute_ops_per_chunk = compute_ops_per_chunk
        self._iteration = 0
        self._cursor = 0
        self._anchors: Dict[int, HeapObject] = {}
        self._cached: Dict[int, List[HeapObject]] = {}
        self.done = False
        self.processed_bytes = 0
        self.steps = 0

    # ------------------------------------------------------------------
    def _label(self, iteration: int) -> str:
        return f"{self.name}-it{iteration}"

    def _begin_iteration(self) -> None:
        vm = self.vm
        anchor = vm.allocate(64, name=self._label(self._iteration))
        vm.roots.add(anchor)
        vm.h2_tag_root(anchor, self._label(self._iteration))
        self._anchors[self._iteration] = anchor
        self._cached[self._iteration] = []

    def _end_iteration(self) -> None:
        vm = self.vm
        vm.h2_move(self._label(self._iteration))
        # Slide the cache window: iteration i-2 is no longer needed.
        stale = self._iteration - 2
        if stale in self._anchors:
            anchor = self._anchors.pop(stale)
            vm.roots.remove(anchor)
            self._cached.pop(stale, None)
        # Job boundary: a full GC moves the tagged working set to H2 and
        # reclaims the dropped iteration's regions (the explicit System.gc()
        # Spark jobs issue between stages when offheap caching is on).
        vm.major_gc()
        self._iteration += 1
        self._cursor = 0
        if self._iteration >= self.iterations:
            self.done = True

    # ------------------------------------------------------------------
    def step(self) -> None:
        """Process one batch; advances the tenant's clock."""
        if self.done:
            return
        vm = self.vm
        if self._cursor == 0:
            self._begin_iteration()
        anchor = self._anchors[self._iteration]
        cache = self._cached[self._iteration]
        batch = min(self.batch_chunks, self.chunks_total - self._cursor)
        vm.stall_for_capacity(batch * self.chunk_size)
        oids = vm.allocate_linked(
            anchor, [self.chunk_size] * batch, [""] * batch, [1] * batch
        )
        cache.extend(map(vm.store.handle, oids))
        vm.compute(batch * self.compute_ops_per_chunk)
        # Re-read a window of the previous iteration's cache.  Once that
        # iteration moved to H2, these are device reads through the
        # shared page cache — the traffic the bandwidth arbiter carves.
        prev = self._cached.get(self._iteration - 1)
        if prev:
            rereads = max(1, int(batch * self.reread_fraction))
            vm.read_many(
                [
                    prev[(self.steps * 7 + j * 13) % len(prev)]
                    for j in range(rereads)
                ],
                AccessPattern.RANDOM,
            )
        self._cursor += batch
        self.processed_bytes += batch * self.chunk_size
        self.steps += 1
        if self._cursor >= self.chunks_total:
            self._end_iteration()
