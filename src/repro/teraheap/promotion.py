"""Promotion buffers: batched asynchronous writes of objects into H2.

Moving objects one ``write()`` at a time would cost a system call per
small object.  TeraHeap keeps a 2 MB promotion buffer per destination
region and flushes objects to the device in batches with explicit
asynchronous I/O (Section 3.2).  Objects of 1 MB or more bypass the buffer
and are written directly.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

from ..devices.mmap import MappedFile
from ..heap.object_model import HeapObject
from ..units import MiB

#: objects at or above this size skip the buffer (Section 3.2: "<1MB").
#: Simulated objects are coarse (one object stands for thousands of
#: paper-scale records), so the threshold is expressed in real bytes —
#: batching applies to anything smaller than the buffer itself.
DIRECT_WRITE_THRESHOLD = 1 * MiB

#: one object's bytes to write: ``(address, size, region_index)``
Span = Tuple[int, int, int]


class PromotionBuffer:
    """One region's promotion buffer: the bounds of what it has staged.

    Staged objects are tracked by their extent only — the lowest start
    and highest end address, an object count and a byte count — which is
    all a flush needs to issue its one write.
    """

    __slots__ = ("region_index", "lo", "hi", "count", "buffered_bytes", "flushes")

    def __init__(self, region_index: int):
        self.region_index = region_index
        self.lo = 0
        self.hi = 0
        self.count = 0
        self.buffered_bytes = 0
        self.flushes = 0


class PromotionManager:
    """All promotion buffers plus the flush path to the mapped file."""

    def __init__(self, mapping: MappedFile, buffer_capacity: int = 2 * MiB):
        self.mapping = mapping
        self.buffer_capacity = buffer_capacity
        self._buffers: Dict[int, PromotionBuffer] = {}
        self.objects_written = 0
        self.bytes_written = 0
        self.direct_writes = 0

    # ------------------------------------------------------------------
    def write_object(self, obj: HeapObject, region_index: int) -> None:
        """Stage ``obj`` (already assigned an H2 address) for device write."""
        self.write_spans(((obj.address, obj.size, region_index),))

    def reaches_device(self, size: int, region_index: int) -> bool:
        """Whether staging ``size`` bytes into the region's buffer issues
        a device write (a direct write, or a flush of a full buffer)."""
        if size >= DIRECT_WRITE_THRESHOLD:
            return True
        buffer = self._buffers.get(region_index)
        return (
            buffer is not None
            and buffer.count > 0
            and buffer.buffered_bytes + size > self.buffer_capacity
        )

    def write_spans(self, spans: Iterable[Span]) -> None:
        """Stage objects, given as ``(address, size, region)`` spans in
        write order.

        A small object joins its region's buffer, which is flushed first
        when the object would overflow it.  An object of at least
        :data:`DIRECT_WRITE_THRESHOLD` bytes goes straight to the device
        after its region's buffer is flushed, so no later flush span of
        that buffer can cover (and rewrite) the directly written bytes.
        """
        buffers = self._buffers
        capacity = self.buffer_capacity
        for address, size, region_index in spans:
            buffer = buffers.get(region_index)
            if size >= DIRECT_WRITE_THRESHOLD:
                # Large objects go straight to the device: one big
                # sequential write is already efficient.
                if buffer is not None:
                    self._flush(buffer)
                self.mapping.write_explicit(address, size)
                self.objects_written += 1
                self.bytes_written += size
                self.direct_writes += 1
                continue
            if buffer is None:
                buffer = PromotionBuffer(region_index)
                buffers[region_index] = buffer
            if buffer.buffered_bytes + size > capacity:
                self._flush(buffer)
            end = address + size
            if buffer.count == 0:
                buffer.lo = address
                buffer.hi = end
            else:
                if address < buffer.lo:
                    buffer.lo = address
                if end > buffer.hi:
                    buffer.hi = end
            buffer.count += 1
            buffer.buffered_bytes += size

    @staticmethod
    def _span(buffer: PromotionBuffer) -> Optional[Tuple[int, int]]:
        """The (address, nbytes) span the buffer's staged objects cover.

        Pure: the buffer is only emptied by :meth:`_commit` *after* the
        device write succeeds, so a failed (fault-injected) write leaves
        the staged objects in place and a retry re-issues the same span.
        """
        if not buffer.count:
            return None
        return (buffer.lo, buffer.hi - buffer.lo)

    def _commit(self, buffer: PromotionBuffer) -> None:
        self.objects_written += buffer.count
        self.bytes_written += buffer.buffered_bytes
        buffer.flushes += 1
        buffer.count = 0
        buffer.buffered_bytes = 0

    def _flush(self, buffer: PromotionBuffer) -> None:
        span = self._span(buffer)
        if span is not None:
            # One batched sequential write covering the staged objects.
            self.mapping.write_explicit(*span, safepoint="promotion_flush")
            self._commit(buffer)

    def flush_all(self) -> None:
        """Drain every buffer as one coalesced batch (end of compaction).

        Coalescing matters with huge pages: many small regions share one
        page, and a single large flush writes each page once.
        """
        spans = []
        pending = []
        for buffer in self._buffers.values():
            span = self._span(buffer)
            if span is not None:
                spans.append(span)
                pending.append(buffer)
        if spans:
            self.mapping.write_explicit_many(spans, safepoint="h2_flush")
        for buffer in pending:
            self._commit(buffer)
        self._buffers.clear()
