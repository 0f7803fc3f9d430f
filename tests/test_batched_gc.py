"""TeraHeap GC on store columns against the per-handle path it replaced.

The collector now selects, places, writes and reclaims H2 movers as oid
lists over :class:`~repro.heap.store.HeapStore` columns: movers are oid
lists, ``H2Heap.assign_addresses`` writes the placement columns, promotion
buffers hold ``(address, end)`` bounds, dead regions flip their columns
in one batched write, fenced forward references arrive as oids (one
liveness walk per region per marking pass), and the PS phases fold their
costs with ``BatchBuilder.add_many``.

``ReferenceCollector`` below is the per-handle path: every hook walks
``HeapObject`` handles one at a time, exactly as before the rewrite, with
the promotion-buffer fix (a direct write flushes its region's buffer
first) applied, and with brute-force card-overlap scans in place of the
address index.  Both run the same seeded workload on TeraHeap VMs small
enough that collections fire mid-workload, and every observable must
match: store columns, spaces, regions, the device call log, the durable
image, the clock bit for bit, the engine's phase log and the collector's
counters.
"""

from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from repro import JavaVM, SimulatedCrash, TeraHeapConfig, VMConfig, gb
from repro.clock import Bucket
from repro.config import GovernorConfig
from repro.errors import DeviceFullError, OutOfMemoryError, SegmentationFault
from repro.faults import FaultConfig
from repro.gc.base import GCCycle
from repro.gc.engine import TaskBag, chunked_sweep
from repro.gc.engine.tasks import BatchBuilder
from repro.gc.parallel_scavenge import PromotionFailure
from repro.heap.object_model import SpaceId
from repro.heap.store import (
    NO_SPACE,
    SPACE_EDEN,
    SPACE_FREED,
    SPACE_H2,
    SPACE_OLD,
    SPACE_TO,
    HeapStore,
)
from repro.teraheap.collector import TeraHeapCollector
from repro.teraheap.h2_card_table import CardState
from repro.teraheap.promotion import DIRECT_WRITE_THRESHOLD
from repro.teraheap.regions import RegionLiveness, reclaim_regions
from repro.units import KiB, MiB

from helpers import make_group

COLUMNS = (
    "size",
    "space",
    "address",
    "age",
    "region_id",
    "mark_epoch",
    "forward_address",
    "forward_space",
    "scan_factor",
    "flags",
)

_SPACE_RANK = (1, 2, 3, 0, 4, 4)


# ======================================================================
# The per-handle reference path
# ======================================================================
def _overlapping(objects, lo, hi):
    """Brute-force card overlap: every object whose extent meets [lo, hi)."""
    return [o for o in objects if o.address < hi and o.end_address() > lo]


class ReferencePromotion:
    """Promotion buffers holding handles, flushed over min/max extents."""

    def __init__(self, mapping, capacity):
        self.mapping = mapping
        self.buffer_capacity = capacity
        self._buffers = {}
        self.objects_written = 0
        self.bytes_written = 0
        self.direct_writes = 0

    def write_object(self, obj, region_index):
        if obj.size >= DIRECT_WRITE_THRESHOLD:
            buffer = self._buffers.get(region_index)
            if buffer is not None:
                self._flush(buffer)
            self.mapping.write_explicit(obj.address, obj.size)
            self.objects_written += 1
            self.bytes_written += obj.size
            self.direct_writes += 1
            return
        buffer = self._buffers.setdefault(region_index, [])
        if sum(o.size for o in buffer) + obj.size > self.buffer_capacity:
            self._flush(buffer)
        buffer.append(obj)

    @staticmethod
    def _span(buffer):
        if not buffer:
            return None
        lo = min(o.address for o in buffer)
        hi = max(o.end_address() for o in buffer)
        return (lo, hi - lo)

    def _commit(self, buffer):
        self.objects_written += len(buffer)
        self.bytes_written += sum(o.size for o in buffer)
        buffer.clear()

    def _flush(self, buffer):
        span = self._span(buffer)
        if span is not None:
            self.mapping.write_explicit(*span, safepoint="promotion_flush")
            self._commit(buffer)

    def flush_all(self):
        spans, pending = [], []
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


def reference_assign_address(h2, obj, label, epoch):
    if obj.size > h2.config.region_size:
        raise OutOfMemoryError(
            f"object of {obj.size} B exceeds H2 region size "
            f"{h2.config.region_size} B",
            requested=obj.size,
        )
    if (
        h2.config.size_aware_placement
        and obj.size >= h2.config.region_size // 4
    ):
        label = f"{label}:large"
    index = h2._open_by_label.get(label)
    region = h2.regions.get(index) if index is not None else None
    if region is None or region.label != label or not region.has_room(obj.size):
        region = h2._new_region(label, epoch)
        h2._open_by_label[label] = region.index
    region.allocate(obj)
    obj.label = label
    h2.objects_moved += 1
    h2.bytes_moved += obj.size
    return region


def reference_reclaim(h2, epoch):
    if h2.region_groups is not None:
        for region in h2.regions.values():
            if region.live:
                h2._live_group_roots.add(h2.region_groups.find(region.index))
        for region in h2.regions.values():
            if (
                not region.is_empty
                and h2.region_groups.find(region.index)
                in h2._live_group_roots
            ):
                region.live = True
    else:
        for region in list(h2.regions.values()):
            if region.live:
                h2.mark_region_live(region.index)
    reclaimed = []
    for region in h2.regions.values():
        if region.is_empty or region.live:
            continue
        h2.liveness_log.append(
            RegionLiveness(
                total_objects=len(region.objects),
                live_objects=0,
                used_bytes=region.used,
                live_bytes=0,
                capacity=region.capacity,
            )
        )
        h2.bytes_reclaimed += region.used
        h2.mapping.discard(region.start, region.capacity)
        h2.card_table.clear_range(region.start, region.end)
        for obj in region.objects:
            obj.space = SpaceId.FREED
            obj.region_id = -1
        region.reclaim()
        reclaimed.append(region.index)
    for index in reclaimed:
        h2._free_indices.append(index)
        for label, open_index in list(h2._open_by_label.items()):
            if open_index == index:
                del h2._open_by_label[label]
    if h2.region_groups is not None and reclaimed:
        h2.region_groups.remove(reclaimed)
    h2.regions_reclaimed += len(reclaimed)
    return len(reclaimed)


class ReferenceCollector(TeraHeapCollector):
    """TeraHeap + PS with every GC loop over ``HeapObject`` handles."""

    # -- PS core -------------------------------------------------------
    def minor_gc(self):
        heap = self.heap
        cost = self.cost
        eng_cfg = self.config.engine
        st = self.store
        space_arr = st.space
        epoch_arr = st.mark_epoch
        refs_arr = st.refs
        size_arr = st.size
        sf_arr = st.scan_factor
        age_arr = st.age
        addr_arr = st.address
        visit_cost = cost.gc_visit_cost
        ref_cost = cost.gc_ref_cost
        start = self.clock.now
        with self.clock.context(Bucket.MINOR_GC):
            epoch = self.next_epoch()
            self.begin_parallel_cycle()
            self.clock.charge(cost.gc_pause_overhead)
            bag = TaskBag()
            root_oids = []
            root_scan = bag.batcher("minor-roots", "root", 128)
            for obj in self.roots:
                root_scan.add(cost.gc_root_scan_cost)
                if space_arr[obj.oid] <= SPACE_TO:
                    root_oids.append(obj.oid)
            root_scan.flush()
            scanned_cards = []
            card_work = {}
            for card in heap.card_table.dirty_cards():
                lo, hi = heap.card_table.card_range(card)
                on_card = [
                    o.oid for o in _overlapping(heap.old.objects, lo, hi)
                ]
                scanned_cards.append((card, on_card))
                work = 0.0
                for old_oid in on_card:
                    targets = refs_arr[old_oid]
                    work += visit_cost
                    work += ref_cost * len(targets)
                    for t in targets:
                        if space_arr[t] <= SPACE_TO:
                            root_oids.append(t)
                card_work[card] = work
            chunked_sweep(
                bag,
                "h1-cards",
                heap.card_table.num_cards,
                cost.card_check_cost,
                eng_cfg.card_chunk_cards,
                extra=card_work,
            )
            self._run_phase(bag, "minor-roots")
            root_oids.extend(self.minor_h2_roots())
            bag = TaskBag()
            scan = bag.batcher(
                "minor-scan", "scan", self.batch.scan_batch_objects
            )
            live_young = []
            stack = [oid for oid in root_oids if space_arr[oid] <= SPACE_TO]
            while stack:
                oid = stack.pop()
                if epoch_arr[oid] >= epoch:
                    continue
                epoch_arr[oid] = epoch
                live_young.append(oid)
                targets = refs_arr[oid]
                scan.add(visit_cost * sf_arr[oid] + ref_cost * len(targets))
                for t in targets:
                    if space_arr[t] <= SPACE_TO and epoch_arr[t] < epoch:
                        stack.append(t)
            scan.flush()
            self._run_phase(bag, "minor-trace")
            copy_bag = TaskBag()
            copier = copy_bag.batcher(
                "minor-copy", "copy", self.batch.copy_batch_objects
            )
            to_space = heap.survivor_to
            promote = []
            survivors = []
            planned = 0
            tenuring = self.config.tenuring_threshold
            for oid in live_young:
                age_arr[oid] += 1
                size = size_arr[oid]
                if age_arr[oid] < tenuring and planned + size <= to_space.capacity:
                    survivors.append(oid)
                    planned += size
                else:
                    promote.append(oid)
            if st.sum_sizes(promote) > heap.old.free:
                raise PromotionFailure()
            handle = st.handle
            young = [o.oid for o in heap.eden.objects] + [
                o.oid for o in heap.survivor_from.objects
            ]
            dead = [oid for oid in young if epoch_arr[oid] != epoch]
            reclaimed = sum(size_arr[oid] for oid in dead)
            for oid in dead:
                space_arr[oid] = SPACE_FREED
            heap.eden.reset()
            heap.survivor_from.reset()
            to_space.reset()
            relocated = set()
            for oid in survivors:
                if not to_space.allocate(handle(oid)):
                    promote.append(oid)
                    continue
                copier.add(size_arr[oid] / cost.gc_copy_bw)
                relocated.add(oid)
            promoted_bytes = 0
            for oid in promote:
                if not heap.old.allocate(handle(oid)):
                    copier.flush()
                    self._run_phase(copy_bag, "minor-copy")
                    raise PromotionFailure()
                copier.add(size_arr[oid] / cost.gc_copy_bw)
                promoted_bytes += size_arr[oid]
                relocated.add(oid)
            heap.swap_survivors()
            copier.flush()
            self._run_phase(copy_bag, "minor-copy")
            for card, on_card in scanned_cards:
                if any(
                    space_arr[t] <= SPACE_TO
                    for old_oid in on_card
                    for t in refs_arr[old_oid]
                ):
                    continue
                heap.card_table.clear(card)
            for oid in promote:
                if any(space_arr[t] <= SPACE_TO for t in refs_arr[oid]):
                    heap.card_table.mark(addr_arr[oid])
            self.minor_h2_post_copy(relocated)
            duration = self.clock.now - start
            cycle = GCCycle(
                kind="minor",
                start_time=start,
                duration=duration,
                live_bytes=st.sum_sizes(live_young),
                reclaimed_bytes=reclaimed,
                promoted_bytes=promoted_bytes,
                old_occupancy_after=heap.old.occupancy,
            )
            self.apply_parallel_stats(cycle, self.config.gc_threads)
            self.stats.record(cycle)
            self.clock.record_event("minor_gc", duration)
            return cycle

    def major_gc(self):
        heap = self.heap
        cost = self.cost
        workers = self.major_workers()
        start = self.clock.now
        phases = {}
        with self.clock.context(Bucket.MAJOR_GC):
            epoch = self.next_epoch()
            self.begin_parallel_cycle()
            self.clock.charge(cost.gc_pause_overhead)
            t0 = self.clock.now
            with self.clock.sub_context("marking"):
                st = self.store
                space_arr = st.space
                epoch_arr = st.mark_epoch
                refs_arr = st.refs
                sf_arr = st.scan_factor
                visit_cost = cost.gc_visit_cost
                ref_cost = cost.gc_ref_cost
                handle = st.handle
                bag = TaskBag()
                mark = bag.batcher(
                    "major-mark", "scan", self.batch.scan_batch_objects
                )
                self.pre_major_mark()
                stack = []
                for obj in self.roots:
                    if obj.in_h1:
                        stack.append(obj.oid)
                    elif obj.space in (SpaceId.H2, SpaceId.FREED):
                        self.on_forward_reference(obj)
                stack.extend(self.major_h2_roots())
                live = []
                while stack:
                    oid = stack.pop()
                    if epoch_arr[oid] >= epoch or space_arr[oid] > SPACE_OLD:
                        continue
                    epoch_arr[oid] = epoch
                    live.append(oid)
                    targets = refs_arr[oid]
                    mark.add(visit_cost * sf_arr[oid] + ref_cost * len(targets))
                    for t in targets:
                        if space_arr[t] > SPACE_OLD:
                            self.on_forward_reference(handle(t))
                            continue
                        if epoch_arr[t] < epoch:
                            stack.append(t)
                mark.flush()
                self._run_phase(bag, "major-mark", workers=workers)
                live_bytes = st.sum_sizes(live)
                movers = self.select_h2_movers(live, live_bytes, epoch)
                self.after_marking(epoch)
            phases["marking"] = self.clock.now - t0

            t0 = self.clock.now
            with self.clock.sub_context("precompact"):
                movers = self.assign_h2_addresses(movers, epoch)
                mover_ids = {obj.oid for obj, _ in movers}
                size_arr = st.size
                addr_arr = st.address
                fwd_addr_arr = st.forward_address
                fwd_space_arr = st.forward_space
                stayers = sorted(
                    (oid for oid in live if oid not in mover_ids),
                    key=lambda oid: (
                        _SPACE_RANK[space_arr[oid]],
                        addr_arr[oid],
                    ),
                )
                bag = TaskBag()
                forward = bag.batcher(
                    "major-forward",
                    "precompact",
                    self.batch.precompact_batch_objects,
                )
                for _ in live:
                    forward.add(cost.gc_forward_cost)
                forward.flush()
                total_stay = st.sum_sizes(stayers)
                if total_stay > heap.old.capacity + heap.eden.capacity:
                    raise OutOfMemoryError(
                        "live data exceeds heap after full GC",
                        requested=total_stay,
                        available=heap.old.capacity + heap.eden.capacity,
                    )
                old_cursor = heap.old.base
                eden_cursor = heap.eden.base
                in_old, in_eden = [], []
                for oid in stayers:
                    size = size_arr[oid]
                    if old_cursor + size <= heap.old.end:
                        fwd_addr_arr[oid] = old_cursor
                        fwd_space_arr[oid] = SPACE_OLD
                        old_cursor += size
                        in_old.append(oid)
                    else:
                        fwd_addr_arr[oid] = eden_cursor
                        fwd_space_arr[oid] = SPACE_EDEN
                        eden_cursor += size
                        in_eden.append(oid)
                self._run_phase(bag, "major-precompact", workers=workers)
            phases["precompact"] = self.clock.now - t0

            t0 = self.clock.now
            with self.clock.sub_context("adjust"):
                bag = TaskBag()
                adjust = bag.batcher(
                    "major-adjust", "scan", self.batch.scan_batch_objects
                )
                for oid in live:
                    adjust.add(visit_cost + ref_cost * len(refs_arr[oid]))
                adjust.flush()
                self.adjust_h2_backward_refs()
                self.adjust_mover_references(movers, set(stayers))
                self._run_phase(bag, "major-adjust", workers=workers)
            phases["adjust"] = self.clock.now - t0

            t0 = self.clock.now
            with self.clock.sub_context("compact"):
                bag = TaskBag()
                compact = bag.batcher(
                    "major-compact", "compact", self.batch.copy_batch_objects
                )
                for oids, code in ((in_old, SPACE_OLD), (in_eden, SPACE_EDEN)):
                    for oid in oids:
                        fwd = fwd_addr_arr[oid]
                        moved = addr_arr[oid] != fwd
                        addr_arr[oid] = fwd
                        space_arr[oid] = code
                        fwd_addr_arr[oid] = -1
                        fwd_space_arr[oid] = NO_SPACE
                        if moved:
                            compact.add(size_arr[oid] / cost.gc_copy_bw)
                compact.flush()
                self._run_phase(bag, "major-compact", workers=workers)
                self.compact_movers(movers)
                for space in (
                    heap.eden,
                    heap.survivor_from,
                    heap.survivor_to,
                    heap.old,
                ):
                    for obj in space.objects:
                        if obj.mark_epoch != epoch:
                            space_arr[obj.oid] = SPACE_FREED
                heap.eden.reset()
                heap.survivor_from.reset()
                heap.survivor_to.reset()
                heap.old.rebuild_after_compaction(
                    [handle(oid) for oid in in_old]
                )
                for oid in in_eden:  # lands exactly at its forward address
                    assert heap.eden.allocate(handle(oid))
                heap.card_table.clear_all()
                if in_eden:
                    for oid in in_old:
                        if any(space_arr[t] <= SPACE_TO for t in refs_arr[oid]):
                            heap.card_table.mark(addr_arr[oid])
            phases["compact"] = self.clock.now - t0
            self.on_major_complete(epoch)
            duration = self.clock.now - start
            cycle = GCCycle(
                kind="major",
                start_time=start,
                duration=duration,
                live_bytes=live_bytes,
                moved_to_h2_bytes=sum(o.size for o, _ in movers),
                old_occupancy_after=heap.old.occupancy,
                phases=phases,
            )
            self.apply_parallel_stats(cycle, workers)
            self.stats.record(cycle)
            self.clock.record_event("major_gc", duration)
            return cycle

    # -- TeraHeap hooks ------------------------------------------------
    def _scan_h2_cards(self, major):
        table = self.h2.card_table
        cost = self.cost
        eng_cfg = self.config.engine
        parallelism = table.scan_parallelism(self.config.gc_threads)
        bag = TaskBag()
        chunked_sweep(
            bag,
            "h2-sweep",
            table.num_cards,
            cost.card_check_cost,
            eng_cfg.h2_sweep_chunk_cards,
        )
        cards = table.cards_to_scan(major=major)
        st = self.store
        roots, scanned, slice_work = [], [], {}
        for card in cards:
            lo, hi = table.card_range(card)
            region = self.h2.region_at(lo)
            if region is None or region.is_empty:
                table.set_state(card, CardState.CLEAN)
                continue
            on_card = [o.oid for o in _overlapping(region.objects, lo, hi)]
            self.h2.scan_load(lo, hi - lo)
            card_work = 0.0
            for oid in on_card:
                targets = st.refs[oid]
                card_work += cost.gc_visit_cost + cost.gc_ref_cost * len(
                    targets
                )
                own_region = st.region_id[oid]
                for t in targets:
                    code = st.space[t]
                    if code <= SPACE_OLD:
                        if major or code <= SPACE_TO:
                            roots.append(t)
                    elif code == SPACE_H2 and st.region_id[t] != own_region:
                        self.h2.record_cross_region_ref(
                            own_region, st.region_id[t]
                        )
            group = table.stripe_of_card(card) % eng_cfg.h2_slice_groups
            slice_work[group] = slice_work.get(group, 0.0) + card_work
            scanned.append((card, on_card))
        for group in sorted(slice_work):
            bag.add(
                f"h2-slice-{group}",
                slice_work[group],
                kind="h2scan",
                affinity=group,
            )
        phase = "h2-major-scan" if major else "h2-minor-scan"
        self._run_phase(bag, phase, workers=parallelism)
        return roots, scanned

    def major_h2_roots(self):
        roots, self._major_scanned = self._scan_h2_cards(major=True)
        return roots

    def on_forward_reference(self, target):
        if target.space is SpaceId.FREED:
            raise SegmentationFault(
                f"live H1 object references reclaimed H2 object #{target.oid}"
            )
        self.forward_refs_fenced += 1
        if target.region_id >= 0:
            self.h2.mark_region_live(target.region_id)

    def select_h2_movers(self, live_oids, live_bytes, epoch):
        res = self.h2.resilience
        if res is not None and res.degraded:
            return []
        cost = self.cost
        st = self.store
        handle = st.handle
        groups = {}
        bag = TaskBag()
        closure = bag.batcher(
            "h2-closure", "scan", self.batch.scan_batch_objects
        )
        for root in self.hints.tagged_roots():
            if root.mark_epoch < epoch or st.space[root.oid] > SPACE_OLD:
                continue
            label = root.label
            members = groups.setdefault(label, [])
            stack = [root]
            while stack:
                obj = stack.pop()
                if st.space[obj.oid] > SPACE_OLD:
                    continue
                if obj.label == label and obj is not root and obj.h2_candidate:
                    continue
                if obj.is_metadata or obj.is_reference:
                    continue
                if obj.label is not None and obj.label != label:
                    continue
                if obj.h2_candidate:
                    continue
                obj.label = label
                obj.h2_candidate = True
                members.append(obj)
                closure.add(
                    cost.gc_visit_cost + cost.gc_ref_cost * len(obj.refs)
                )
                for t in obj.refs:
                    if st.space[t.oid] <= SPACE_OLD and not t.h2_candidate:
                        stack.append(t)
        closure.flush()
        self._run_phase(bag, "h2-closure", workers=self.major_workers())
        grouped = {o.oid for members in groups.values() for o in members}
        for oid in live_oids:
            obj = handle(oid)
            if obj.h2_candidate and obj.label is not None and oid not in grouped:
                groups.setdefault(obj.label, []).append(obj)
                grouped.add(oid)
        decision = self.policy.decide(live_bytes)
        movers = []
        moved_labels = set()
        if decision.move_hinted:
            budget = decision.hinted_budget
            for label in list(groups):
                if budget is not None and budget <= 0:
                    break
                if self.hints.is_move_pending(label):
                    members = groups.pop(label)
                    taken = []
                    for obj in members:
                        if budget is not None and budget <= 0:
                            break
                        taken.append(obj)
                        if budget is not None:
                            budget -= obj.size
                    movers.extend((o, label) for o in taken)
                    if len(taken) == len(members):
                        moved_labels.add(label)
        if decision.move_unhinted and groups:
            budget = decision.unhinted_budget
            for label in list(groups):
                if budget is not None and budget <= 0:
                    break
                members = groups.pop(label)
                taken = []
                for obj in members:
                    if budget is not None and budget <= 0:
                        break
                    taken.append(obj)
                    if budget is not None:
                        budget -= obj.size
                movers.extend((o, label) for o in taken)
                if len(taken) == len(members):
                    moved_labels.add(label)
        self._moved_labels = moved_labels
        return [(o, lbl) for o, lbl in movers if o.mark_epoch >= epoch]

    def after_marking(self, epoch):
        reference_reclaim(self.h2, epoch)

    def assign_h2_addresses(self, movers, epoch):
        placed = []
        res = self.h2.resilience
        denied = 0
        abort = False
        for obj, label in movers:
            if abort or (res is not None and res.degraded):
                denied += 1
                continue
            try:
                reference_assign_address(self.h2, obj, label, epoch)
            except DeviceFullError as exc:
                denied += 1
                if self.governor is not None:
                    abort = True
                if getattr(exc, "budget_denial", False):
                    abort = True
                    continue
                if res is not None:
                    res.note_failure("h2_assign_address", exc)
                    continue
                raise
            obj.h2_candidate = False
            placed.append((obj, label))
        self.h2_transfers_denied += denied
        self._cycle_denied = denied
        self._cycle_placed_bytes = sum(o.size for o, _ in placed)
        return placed

    def adjust_mover_references(self, movers, stayers):
        st = self.store
        for obj, _ in movers:
            own = obj.region_id
            for t in obj.refs:
                if t.space is SpaceId.H2 and t.region_id != own:
                    self.h2.record_cross_region_ref(own, t.region_id)
                elif t.oid in stayers:
                    self.h2.card_table.mark_dirty(st.address[obj.oid])

    def adjust_h2_backward_refs(self):
        table = self.h2.card_table
        st = self.store
        for card, _ in self._major_scanned:
            lo, hi = table.card_range(card)
            region = self.h2.region_at(lo)
            if region is None or region.is_empty:
                table.set_state(card, CardState.CLEAN)
                continue
            oids = [o.oid for o in _overlapping(region.objects, lo, hi)]
            if any(
                st.space[t] <= SPACE_OLD or st.forward_space[t] != NO_SPACE
                for oid in oids
                for t in st.refs[oid]
            ):
                self.h2.scan_store(lo, hi - lo)
            for oid in oids:
                if st.space[oid] != SPACE_H2:
                    continue
                own = st.region_id[oid]
                for t in st.refs[oid]:
                    if st.space[t] == SPACE_H2 and st.region_id[t] != own:
                        self.h2.record_cross_region_ref(own, st.region_id[t])
            table.set_state(card, self._classify_after_major(oids))
        self._major_scanned = []

    def mover_copy_batches(self, movers):
        capacity = self.config.teraheap.promotion_buffer_size
        by_region = {}
        for obj, label in movers:
            by_region.setdefault(obj.region_id, []).append((obj, label))
        batches = []
        for run in by_region.values():
            batch, batch_bytes = [], 0
            for obj, label in run:
                if obj.size >= DIRECT_WRITE_THRESHOLD:
                    if batch:
                        batches.append(batch)
                        batch, batch_bytes = [], 0
                    batches.append([(obj, label)])
                    continue
                if batch and batch_bytes + obj.size > capacity:
                    batches.append(batch)
                    batch, batch_bytes = [], 0
                batch.append((obj, label))
                batch_bytes += obj.size
            if batch:
                batches.append(batch)
        return batches

    def compact_movers(self, movers):
        h2 = self.h2
        res = h2.resilience
        plan = res.plan if res is not None else None
        for seq, batch in enumerate(self.mover_copy_batches(movers)):
            if plan is not None and plan.crash_outcome("major_compact"):
                log = h2.page_cache.resilience_log
                if log is not None:
                    log.record_crash(
                        self.clock.now,
                        "major_compact",
                        f"batch {seq} of {len(batch)} objects",
                    )
                raise SimulatedCrash(
                    "simulated kill mid major-GC compaction "
                    f"(copy batch {seq})",
                    safepoint="major_compact",
                    op_index=plan.op_index,
                )
            for obj, _ in batch:
                h2._io(
                    "h2_write_object",
                    lambda o=obj: h2.promotion.write_object(o, o.region_id),
                )
        h2.finish_compaction()
        if self._moved_labels:
            self.hints.consume_moved(self._moved_labels)
            self._moved_labels = set()


def as_reference(vm):
    """Switch a freshly built TeraHeap VM onto the per-handle path."""
    vm.collector.__class__ = ReferenceCollector
    vm.h2.promotion = ReferencePromotion(
        vm.h2.mapping, vm.config.teraheap.promotion_buffer_size
    )
    return vm


# ======================================================================
# VMs, workload and observed state
# ======================================================================
def make_vm(case):
    big = case["big"]
    faults = None
    if case["faults"] is not None:
        faults = FaultConfig(seed=case["seed"], **case["faults"])
    config = VMConfig(
        heap_size=gb(32 if big else 2),
        young_fraction=case["young"],
        teraheap=TeraHeapConfig(
            enabled=True,
            h2_size=gb(256),
            region_size=4 * MiB if big else 64 * KiB,
            promotion_buffer_size=case["buffer"],
            size_aware_placement=case["size_aware"],
            writeback_policy=case["writeback"],
        ),
        page_cache_size=gb(64),
        faults=faults,
        governor=GovernorConfig() if case["governor"] else None,
    )
    vm = JavaVM(config, store=HeapStore())
    if case["budget"] is not None:
        vm.h2.byte_budget = case["budget"] * config.teraheap.region_size
    calls = []
    device = vm.h2.device
    for name in ("read", "write"):
        real = getattr(device, name)

        def logged(*args, _real=real, _name=name, **kwargs):
            calls.append((_name, args, tuple(sorted(kwargs.items()))))
            return _real(*args, **kwargs)

        setattr(device, name, logged)
    vm._device_calls = calls
    lives = []
    gc_major = vm.collector.on_major_complete

    def on_major_complete(epoch):
        lives.append(
            sorted((i, r.live) for i, r in vm.h2.regions.items())
        )
        gc_major(epoch)

    vm.collector.on_major_complete = on_major_complete
    vm._region_lives = lives
    tasks = []
    engine = vm.collector.engine
    run = engine.run

    def logged_run(bag, phase, *args, **kwargs):
        bag = list(bag)
        tasks.append(
            (phase, [(t.name, t.cost, t.kind, t.affinity) for t in bag])
        )
        return run(bag, phase, *args, **kwargs)

    engine.run = logged_run
    vm._engine_tasks = tasks
    return vm


def run_workload(vm, case):
    """Seeded group lifecycle: tagged groups with cross-group and
    backward references, garbage churn, drops and explicit GCs."""
    rng = Random(case["seed"])
    big = case["big"]
    small_sizes = [1 * KiB, 2 * KiB, 4 * KiB, 8 * KiB, 12 * KiB, 20 * KiB]
    table = vm.roots.add(vm.allocate(16 * KiB, name="table"))
    live = []
    for step in range(case["steps"]):
        if step < case["hoard"]:
            # Untagged long-lived H1 data: with a small old generation a
            # full GC spills stayers into eden.
            vm.roots.add(vm.allocate(24 * KiB, name=f"hoard{step}"))
        label = f"g{step}"
        key = vm.allocate(4 * KiB, name=f"key-{label}")
        vm.write_ref(table, key)
        for j in range(rng.randrange(3, 12)):
            if big and rng.random() < 0.15:
                size = MiB + rng.randrange(0, 256) * KiB
            else:
                size = rng.choice(small_sizes)
            member = vm.allocate(size, name=f"{label}-m{j}")
            vm.write_ref(key, member)
            if live and rng.random() < 0.1:
                vm.write_ref(member, rng.choice(live)[1])
        vm.h2_tag_root(key, label)
        if rng.random() < 0.75:
            vm.h2_move(label)
        live.append((label, key))
        for _ in range(rng.randrange(0, 24)):
            vm.allocate(rng.choice(small_sizes), name="tmp")
        resident = [k for _, k in live if k.in_h2]
        if resident and rng.random() < 0.4:
            young = vm.allocate(1 * KiB, name="backref")
            vm.write_ref(rng.choice(resident), young)
        if len(live) > case["window"]:
            _, dropped = live.pop(rng.randrange(len(live) - 1))
            vm.write_ref(table, None, remove=dropped)
        roll = rng.random()
        if roll < 0.25:
            vm.minor_gc()
        elif roll < 0.5:
            vm.major_gc()


def observe(vm, crashed=False):
    store = vm.store
    heap = vm.heap
    h2 = vm.h2
    col = vm.collector
    if not crashed:
        # The address indexes track every placement.  (A kill mid-GC
        # leaves a dead VM whose spaces were never re-installed.)
        for space in heap.spaces():
            assert list(space._oids) == [o.oid for o in space.objects]
            assert list(space._addrs) == [o.address for o in space.objects]
        for region in h2.regions.values():
            addresses = [o.address for o in region.objects]
            assert addresses == sorted(addresses)
    state = {
        "columns": [list(getattr(store, c)) for c in COLUMNS],
        "label": list(store.label),
        "refs": [list(r) for r in store.refs],
        "spaces": [
            (s.space_id, s.top, [o.oid for o in s.objects])
            for s in heap.spaces()
        ],
        "cards": sorted(heap.card_table.dirty_cards()),
        "regions": [
            (
                i,
                r.top,
                r.label,
                r.live,
                sorted(r.deps),
                r.allocated_epoch,
                [o.oid for o in r.objects],
            )
            for i, r in sorted(h2.regions.items())
        ],
        "open_by_label": list(h2._open_by_label.items()),
        "free": list(h2._free_indices),
        "h2": (
            h2.objects_moved,
            h2.bytes_moved,
            h2.regions_reclaimed,
            h2.bytes_reclaimed,
            h2.regions_allocated_total,
            h2.commits,
            [
                (e.total_objects, e.used_bytes, e.capacity)
                for e in h2.liveness_log
            ],
        ),
        "promotion": (
            h2.promotion.objects_written,
            h2.promotion.bytes_written,
            h2.promotion.direct_writes,
        ),
        "h2_cards": (dict(h2.card_table._states), h2.card_table.mutator_marks),
        "device_calls": list(vm._device_calls),
        "image": h2.page_cache.durable_image.digest(),
        "page_cache": (h2.page_cache.hits, h2.page_cache.misses),
        "breakdown": vm.clock.breakdown(),
        "sub": vm.clock.sub_breakdown(),
        "events": list(vm.clock.events),
        "cycles": list(col.stats.cycles),
        "phase_log": list(col.engine.phase_log),
        "engine_tasks": list(vm._engine_tasks),
        "collector": (
            col.forward_refs_fenced,
            col.h2_transfers_denied,
            col.h2_cards_scanned_minor,
        ),
        "region_lives": list(vm._region_lives),
        "hints": repr(sorted(vars(vm.hints).items(), key=lambda kv: kv[0])),
    }
    res = vm.resilience
    if res is not None:
        log = res.log
        state["resilience"] = (
            res.failures,
            res.degraded,
            res.plan.op_index,
            res.plan.schedule_digest(),
            dict(res.plan.safepoint_hits),
            [repr(e) for e in log.faults + log.retries + log.degradations],
            [repr(e) for e in log.crashes],
        )
    if vm.governor is not None:
        state["governor"] = vm.governor.describe()
    return state


def run_case(case, reference):
    vm = make_vm(case)
    if reference:
        as_reference(vm)
    outcome = None
    try:
        run_workload(vm, case)
    except (SimulatedCrash, OutOfMemoryError) as exc:
        outcome = (type(exc).__name__, str(exc))
    return outcome, observe(vm, crashed=outcome is not None)


def assert_same(case):
    new_outcome, new = run_case(case, reference=False)
    ref_outcome, ref = run_case(case, reference=True)
    assert new_outcome == ref_outcome
    assert new.keys() == ref.keys()
    for key in new:
        assert new[key] == ref[key], key
    return new_outcome, new


# ======================================================================
# Differential tests
# ======================================================================
def case_of(**overrides):
    case = {
        "seed": 1,
        "steps": 30,
        "window": 6,
        "big": False,
        "buffer": 2 * MiB,
        "size_aware": False,
        "writeback": "commit",
        "faults": None,
        "governor": False,
        "budget": None,
        "young": 1.0 / 3.0,
        "hoard": 0,
    }
    case.update(overrides)
    return case


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    buffer=st.sampled_from([4 * KiB, 16 * KiB, 2 * MiB]),
    size_aware=st.booleans(),
    writeback=st.sampled_from(["none", "commit", "flush"]),
    # A small old generation plus hoarded H1 data spills stayers to eden.
    layout=st.sampled_from([(1.0 / 3.0, 0), (0.8, 16)]),
)
def test_clean_runs_match_handle_path(
    seed, buffer, size_aware, writeback, layout
):
    young, hoard = layout
    outcome, state = assert_same(
        case_of(
            seed=seed,
            buffer=buffer,
            size_aware=size_aware,
            writeback=writeback,
            young=young,
            hoard=hoard,
        )
    )
    assert outcome is None
    assert state["h2"][0] > 0  # objects really moved to H2


def test_dead_regions_are_reclaimed():
    outcome, state = assert_same(case_of(seed=11, buffer=4 * KiB))
    assert outcome is None
    assert state["h2"][2] > 0  # regions died and were reclaimed
    assert state["collector"][0] > 0  # forward references were fenced


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000), size_aware=st.booleans())
def test_direct_writes_match_handle_path(seed, size_aware):
    outcome, state = assert_same(
        case_of(
            seed=seed,
            steps=12,
            big=True,
            buffer=64 * KiB,
            size_aware=size_aware,
        )
    )
    assert outcome is None


def test_direct_writes_happen():
    outcome, state = assert_same(
        case_of(seed=5, steps=12, big=True, buffer=64 * KiB)
    )
    assert outcome is None
    assert state["promotion"][2] > 0  # direct writes happened


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000), budget=st.integers(1, 6))
def test_byte_budget_denials_match_handle_path(seed, budget):
    assert_same(case_of(seed=seed, budget=budget))


def test_byte_budget_denies_movers():
    _, state = assert_same(case_of(seed=5, budget=2))
    assert state["collector"][1] > 0  # movers were denied


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    rate=st.sampled_from([0.2, 0.5]),
    governor=st.booleans(),
)
def test_injected_device_full_matches_handle_path(seed, rate, governor):
    assert_same(
        case_of(
            seed=seed,
            faults={"device_full_rate": rate, "failure_budget": 50},
            governor=governor,
        )
    )


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_degraded_policy_matches_handle_path(seed):
    assert_same(
        case_of(
            seed=seed,
            buffer=4 * KiB,
            faults={
                "write_error_rate": 0.3,
                "max_attempts": 2,
                "failure_budget": 3,
            },
        )
    )


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000), after=st.integers(1, 40))
def test_crash_at_major_compact_matches_handle_path(seed, after):
    assert_same(
        case_of(
            seed=seed,
            buffer=8 * KiB,
            faults={"crash_point": "major_compact", "crash_after": after},
        )
    )


def test_crash_at_major_compact_fires():
    outcome, state = assert_same(
        case_of(
            seed=3,
            buffer=8 * KiB,
            faults={"crash_point": "major_compact", "crash_after": 3},
        )
    )
    assert outcome is not None and outcome[0] == "SimulatedCrash"


def test_degraded_policy_degrades():
    _, state = assert_same(
        case_of(
            seed=5,
            buffer=4 * KiB,
            faults={
                "write_error_rate": 0.5,
                "max_attempts": 2,
                "failure_budget": 2,
            },
        )
    )
    assert state["resilience"][1]  # H2 degraded mid-run


def test_governor_device_full_aborts_the_cycle():
    _, state = assert_same(
        case_of(
            seed=9,
            faults={"device_full_rate": 0.5, "failure_budget": 50},
            governor=True,
        )
    )
    assert state["collector"][1] > 0


# ======================================================================
# Kernels
# ======================================================================
@settings(max_examples=200, deadline=None)
@given(
    batch=st.integers(1, 40),
    carried=st.lists(st.floats(0.0, 1e3), max_size=40),
    costs=st.lists(
        st.floats(0.0, 1e6, allow_subnormal=True), max_size=300
    ),
)
def test_add_many_is_bit_identical_to_add(batch, carried, costs):
    one, many = TaskBag(), TaskBag()
    single = BatchBuilder(one, "x", "scan", batch)
    batched = BatchBuilder(many, "x", "scan", batch)
    for cost in carried + costs:
        single.add(cost)
    for cost in carried:
        batched.add(cost)
    batched.add_many(costs)
    assert (batched._cost, batched._count) == (single._cost, single._count)
    single.flush()
    batched.flush()
    assert [(t.name, t.cost) for t in one] == [(t.name, t.cost) for t in many]
    assert all(type(t.cost) is float for t in many)


def test_add_many_folds_like_add():
    costs = [0.1 * (i % 7) + 1e-9 * i for i in range(1000)]
    one, many = TaskBag(), TaskBag()
    single = BatchBuilder(one, "x", "scan", 64)
    batched = BatchBuilder(many, "x", "scan", 64)
    for cost in costs[:5]:
        single.add(cost)
        batched.add(cost)  # a partial batch carried into add_many
    for cost in costs[5:]:
        single.add(cost)
    batched.add_many(costs[5:])
    single.flush()
    batched.flush()
    assert [(t.name, t.cost, t.kind) for t in one] == [
        (t.name, t.cost, t.kind) for t in many
    ]


def _h2_vm(**teraheap):
    config = VMConfig(
        heap_size=gb(2),
        teraheap=TeraHeapConfig(
            enabled=True, h2_size=gb(64), region_size=64 * KiB, **teraheap
        ),
        page_cache_size=gb(8),
    )
    return JavaVM(config, store=HeapStore())


def test_assign_addresses_stops_at_the_first_denial():
    vm = _h2_vm()
    h2 = vm.h2
    h2.byte_budget = 1 * vm.config.teraheap.region_size
    objs = [vm.allocate(24 * KiB, name=f"o{i}") for i in range(4)]
    end, error = h2.assign_addresses(
        [o.oid for o in objs], ["a"] * len(objs), epoch=1
    )
    # Two fit the one budgeted region; the third needs a second region.
    assert end == 2
    assert isinstance(error, DeviceFullError) and error.budget_denial
    assert [o.space for o in objs] == [SpaceId.H2] * 2 + [SpaceId.EDEN] * 2
    assert h2.objects_moved == 2
    assert h2.bytes_moved == 48 * KiB
    # Resuming after the denial places nothing more under the budget.
    end, error = h2.assign_addresses(
        [o.oid for o in objs], ["a"] * len(objs), epoch=1, start=3
    )
    assert end == 3 and error is not None


def test_assign_address_is_the_one_element_case():
    vm = _h2_vm(size_aware_placement=True)
    small = vm.allocate(4 * KiB, name="s")
    large = vm.allocate(16 * KiB, name="l")
    region = vm.h2.assign_address(small, "a", 1)
    assert region.label == "a" and small.label == "a"
    assert vm.h2.assign_address(large, "a", 1).label == "a:large"
    assert large.label == "a:large" and large.region_id != small.region_id
    with pytest.raises(OutOfMemoryError):
        vm.h2.assign_address(vm.allocate(128 * KiB, name="x"), "a", 1)


def test_fenced_regions_are_walked_once_per_marking_pass():
    vm = _h2_vm()
    root, children = make_group(vm, count=6, size=2 * KiB, name="a")
    vm.h2_tag_root(root, "a")
    vm.h2_move("a")
    vm.major_gc()
    assert root.in_h2 and all(c.in_h2 for c in children)
    # Only four H1 holders, with three edges each, keep the group alive.
    vm.roots.remove(root)
    for i in range(4):
        vm.roots.add(vm.allocate(1 * KiB, refs=children[i : i + 3]))
    calls = []
    real = vm.h2.mark_region_live

    def counting(index):
        calls.append(index)
        return real(index)

    vm.h2.mark_region_live = counting
    fenced = vm.collector.forward_refs_fenced
    vm.major_gc()
    # Every fenced edge still counts, but each region is walked once.
    assert vm.collector.forward_refs_fenced - fenced >= 12
    assert calls and len(calls) == len(set(calls))
    assert all(c.in_h2 for c in children)  # the region stayed live


def test_reclaim_regions_flips_columns_in_one_write():
    vm = _h2_vm()
    objs = [vm.allocate(24 * KiB, name=f"o{i}") for i in range(5)]
    vm.h2.assign_addresses(
        [o.oid for o in objs], ["a", "a", "b", "b", "c"], epoch=1
    )
    regions = sorted({o.region_id for o in objs})
    assert len(regions) == 3
    reclaim_regions([vm.h2.regions[i] for i in regions[:2]])
    assert [o.space for o in objs] == [SpaceId.FREED] * 4 + [SpaceId.H2]
    assert [o.region_id for o in objs] == [-1] * 4 + [regions[2]]
    for index in regions[:2]:
        region = vm.h2.regions[index]
        assert region.is_empty and not region.objects
        assert region.oids_overlapping(region.start, region.end) == []


def test_forward_reference_to_freed_object_segfaults():
    vm = _h2_vm()
    obj = vm.allocate(4 * KiB, name="x")
    vm.store.space[obj.oid] = SPACE_FREED
    with pytest.raises(SegmentationFault, match=f"#{obj.oid}"):
        vm.collector.on_forward_reference(obj.oid)
    assert vm.collector.forward_refs_fenced == 0


def test_write_objects_runs_one_resilience_op_per_device_write():
    vm = JavaVM(
        VMConfig(
            heap_size=gb(2),
            teraheap=TeraHeapConfig(
                enabled=True,
                h2_size=gb(64),
                region_size=64 * KiB,
                promotion_buffer_size=8 * KiB,
            ),
            page_cache_size=gb(8),
            faults=FaultConfig(seed=1),
        ),
        store=HeapStore(),
    )
    h2 = vm.h2
    objs = [vm.allocate(4 * KiB, name=f"o{i}") for i in range(7)]
    oids = [o.oid for o in objs]
    h2.assign_addresses(oids, ["a"] * len(oids), epoch=1)
    ops = []
    real = h2._io

    def recording(op, fn):
        ops.append(op)
        return real(op, fn)

    h2._io = recording
    h2.write_objects(oids)
    # 8 KiB buffers: objects 3, 5 and 7 each flush the two before them.
    assert ops == ["h2_write_object"] * 3
    assert h2.promotion.objects_written == 6


def test_every_copy_batch_consults_the_crash_safepoint():
    case = case_of(
        seed=2,
        buffer=8 * KiB,
        faults={"crash_point": "major_compact", "crash_after": 10**9},
    )
    vm = make_vm(case)
    batches = []
    real = vm.collector.mover_copy_batches

    def counting(movers):
        result = real(movers)
        batches.extend(result)
        return result

    vm.collector.mover_copy_batches = counting
    run_workload(vm, case)
    assert len(batches) > 1
    assert vm.resilience.plan.safepoint_hits["major_compact"] == len(batches)
