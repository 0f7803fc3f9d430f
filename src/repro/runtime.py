"""The simulated JVM: the public API frameworks program against.

``JavaVM`` wires together the managed heap (H1), the configured collector,
the optional TeraHeap second heap (H2) over a storage device, the write
barriers, and the simulated clock.  Frameworks allocate objects, update
references and read objects exclusively through this facade, so every
cost — allocation, barriers, GC, S/D, device I/O — is accounted.
"""

from __future__ import annotations

import os
from itertools import accumulate, islice, repeat
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .clock import Bucket, Clock
from .config import VMConfig
from .devices.base import AccessPattern, Device
from .devices.health import DeviceHealthMonitor
from .devices.nvme import NVMeSSD
from .errors import ConfigError, OutOfMemoryError, SegmentationFault
from .faults import (
    get_default_audit_level,
    get_default_fault_config,
    get_default_governor_config,
    register_auditor,
    register_policy,
    unregister_auditor,
    unregister_policy,
)
from .faults.plan import FaultConfig
from .faults.policy import ResiliencePolicy
from .heap.audit import HeapAuditor, make_auditor
from .heap.store import (
    MIN_OBJECT_SIZE,
    SPACE_FREED,
    SPACE_H2,
    SPACE_OLD,
    HeapStore,
    get_store,
    object_flags,
)
from .gc.parallel_scavenge import (
    ParallelScavenge,
    ParallelScavengeJDK11,
    PromotionFailure,
)
from .heap.barriers import WriteBarrier
from .heap.heap import ManagedHeap
from .heap.object_model import HeapObject
from .heap.roots import RootSet, StackFrame
from .serdes.serializer import KryoSerializer
from .teraheap.h2_heap import H2Heap
from .teraheap.hints import HintInterface
from .units import KiB

#: granularity of temporary-object allocation bursts (S/D pressure)
TEMP_CHUNK = 8 * KiB

class JavaVM:
    """One simulated JVM instance."""

    def __init__(
        self,
        config: VMConfig,
        h2_device: Optional[Device] = None,
        old_gen_device: Optional[Device] = None,
        store: Optional[HeapStore] = None,
        health: Optional[DeviceHealthMonitor] = None,
    ):
        self.config = config
        self.cost = config.cost
        self.clock = Clock()
        #: the struct-of-arrays store all of this VM's objects live in.
        #: ``None`` attaches the process-default store (the single-VM
        #: path, byte-identical to the historical singleton behaviour);
        #: co-located tenants pass a private ``HeapStore`` each so oid
        #: rows and handles can never alias across VMs and one tenant's
        #: store reset cannot invalidate a sibling's live objects.
        self.store = store if store is not None else get_store()
        self.roots = RootSet()
        self.hints = HintInterface()
        self.h2: Optional[H2Heap] = None
        self.old_gen_device = old_gen_device
        self.resilience: Optional[ResiliencePolicy] = None
        self.auditor: Optional[HeapAuditor] = None
        #: device-health watchdog + H2 circuit breaker (teraheap only).
        #: May be a *shared* monitor injected by the server layer, in
        #: which case this VM only owns its listener registrations.
        self.health: Optional[DeviceHealthMonitor] = None
        self._owns_health = True
        self.governor = None
        self._registered_policy = False
        self._registered_auditor = False
        #: callbacks ``fn(target_bytes) -> freed_bytes`` run under
        #: emergency backpressure (e.g. block-manager cache shedding)
        self.pressure_handlers = []
        #: allocation-stall rounds spent in emergency backpressure
        self.alloc_stalls = 0
        #: emergency full GCs run by the backpressure path
        self.emergency_gcs = 0
        #: set by :meth:`retire` once a successor VM replaced this one
        self.retired = False

        if config.collector == "g1":
            from .gc.g1 import G1Collector, G1Heap, G1WriteBarrier

            self.heap = G1Heap(config)
            self.collector = G1Collector(
                self.heap, self.roots, self.clock, config
            )
            self.barrier = G1WriteBarrier(
                self.collector, self.clock, self.cost
            )
        else:
            self.heap = ManagedHeap(config)
            if config.teraheap.enabled:
                if h2_device is None:
                    h2_device = NVMeSSD(self.clock)
                elif h2_device.clock is not self.clock:
                    # Rebind a caller-supplied device to this VM's clock
                    # on a copy: mutating the original would silently
                    # redirect the charges (and traffic counters) of any
                    # other VM still using it.
                    h2_device = h2_device.rebind(self.clock)
                fault_cfg = config.faults or get_default_fault_config()
                if fault_cfg is not None:
                    self.resilience = ResiliencePolicy(fault_cfg, self.clock)
                    if config.faults is None:
                        # Armed via the process-global default (the CLI's
                        # --faults flag): register for aggregate reporting.
                        register_policy(self.resilience)
                        self._registered_policy = True
                gov_cfg = config.governor or get_default_governor_config()
                if gov_cfg is not None and gov_cfg.enabled:
                    from .teraheap.governor import H2Governor

                    if self.resilience is None:
                        # The monitor is fed by the fault injectors; with
                        # no fault plan configured, wrap devices with a
                        # benign (inject-nothing) plan so timings still
                        # flow to the watchdog.
                        self.resilience = ResiliencePolicy(
                            FaultConfig(), self.clock
                        )
                    if health is not None:
                        # Shared monitor (co-located tenants watching one
                        # physical device): one EWMA set, one HEALTHY/
                        # DEGRADED/BROWNOUT classification every tenant's
                        # governor consults — not N divergent copies.
                        self.health = health
                        self._owns_health = False
                    else:
                        self.health = DeviceHealthMonitor(
                            self.clock, gov_cfg.health
                        )
                    log = self.resilience.log
                    self.health.add_listener(
                        lambda t: log.record_health(
                            t.time, t.device, t.old.value, t.new.value,
                            t.reason,
                        ),
                        owner=self,
                    )
                    self.resilience.attach_monitor(self.health)
                    self.governor = H2Governor(
                        gov_cfg, self.health, self.clock, log=log,
                        owner=self,
                    )
                self.h2 = H2Heap(
                    config.teraheap,
                    h2_device,
                    self.clock,
                    config.page_cache_size,
                    resilience=self.resilience,
                    store=self.store,
                )
                from .teraheap.collector import TeraHeapCollector

                self.collector = TeraHeapCollector(
                    self.heap,
                    self.roots,
                    self.clock,
                    config,
                    self.h2,
                    self.hints,
                    governor=self.governor,
                )
            elif config.collector == "panthera":
                from .gc.panthera import PantheraCollector

                if (
                    old_gen_device is not None
                    and old_gen_device.clock is not self.clock
                ):
                    old_gen_device = old_gen_device.rebind(self.clock)
                    self.old_gen_device = old_gen_device
                self.collector = PantheraCollector(
                    self.heap,
                    self.roots,
                    self.clock,
                    config,
                    nvm=old_gen_device,
                )
                if config.panthera is not None:
                    self.heap.pretenure_threshold = (
                        config.panthera.pretenure_threshold
                    )
            elif config.collector == "memmode":
                from .devices.nvm import NVMMemoryMode
                from .gc.memory_mode import MemoryModeCollector

                if old_gen_device is None:
                    old_gen_device = NVMMemoryMode(self.clock)
                elif old_gen_device.clock is not self.clock:
                    old_gen_device = old_gen_device.rebind(self.clock)
                self.old_gen_device = old_gen_device
                self.collector = MemoryModeCollector(
                    self.heap,
                    self.roots,
                    self.clock,
                    config,
                    device=old_gen_device,
                )
            elif config.collector == "ps11":
                self.collector = ParallelScavengeJDK11(
                    self.heap, self.roots, self.clock, config
                )
            else:
                self.collector = ParallelScavenge(
                    self.heap, self.roots, self.clock, config
                )
            self.barrier = WriteBarrier(
                self.heap,
                self.clock,
                self.cost,
                h2_card_table=self.h2.card_table if self.h2 else None,
                enable_teraheap=config.teraheap.enabled,
            )

        # Collectors default to the process-wide store; a VM built over a
        # private store re-attaches so trace kernels index its columns.
        self.collector.store = self.store
        self.serializer = KryoSerializer(
            self.clock, self.cost, allocate_temp=self.allocate_temp
        )
        self.oom = False
        #: per-label H1 anchors installed by recover_h2(), re-rooting
        #: rehydrated H2 objects so region liveness survives the crash
        self.h2_recovery_anchors: Dict[str, HeapObject] = {}

        audit_level = (
            config.audit
            or os.environ.get("REPRO_AUDIT")
            or get_default_audit_level()
        )
        if audit_level:
            self.auditor = make_auditor(self, audit_level)
            if self.auditor is not None and config.audit is None:
                register_auditor(self.auditor)
                self._registered_auditor = True

    # ==================================================================
    # Allocation
    # ==================================================================
    def allocate(
        self,
        size: int,
        refs: Iterable[HeapObject] = (),
        name: str = "",
        is_metadata: bool = False,
        is_reference: bool = False,
        serializable: bool = True,
    ) -> HeapObject:
        """Allocate one object, collecting as needed (may raise OOM):
        :meth:`allocate_many`'s one-element case."""
        first, _ = self._allocate(
            (size,),
            (name,),
            object_flags(is_metadata, is_reference, serializable),
            1.0,
            tuple(o.oid for o in refs) if refs else None,
            False,
            None,
        )
        return self.store.handle(first)

    def allocate_many(
        self,
        sizes: Iterable[int],
        names: Iterable[str],
        frame: Optional[StackFrame] = None,
        scan_factor: float = 1.0,
        refs: Iterable[HeapObject] = (),
        is_metadata: bool = False,
        is_reference: bool = False,
        serializable: bool = True,
        temporary: bool = False,
    ) -> List[HeapObject]:
        """Allocate one object per ``(size, name)`` pair, in order.

        The one allocation kernel: :meth:`allocate` is its one-element
        case, :meth:`allocate_temp` one call, and :meth:`allocate_linked`
        shares its loop.  Every object gets the same ``scan_factor``,
        flags and outgoing ``refs``, and its own ``alloc_cost`` charge.
        When the heap is a plain :class:`ManagedHeap` without pretenuring,
        each run of objects that fits in eden gets its store rows from
        one :meth:`HeapStore.new_objects` call and is bump-allocated in
        place; everything else (G1, Panthera pretenuring, large objects,
        a full eden) goes one object at a time through
        ``heap.try_allocate`` and the GC-escalation slow path.  Objects
        are pushed onto ``frame`` (when given) before anything that can
        collect, so a GC fired mid-batch sees the objects allocated so
        far as roots.  A size below ``MIN_OBJECT_SIZE`` or an OOM raises
        after every earlier object was allocated.
        """
        sizes = list(sizes)
        names = list(islice(names, len(sizes)))
        del sizes[len(names):]
        first, _ = self._allocate(
            sizes,
            names,
            object_flags(is_metadata, is_reference, serializable),
            scan_factor,
            tuple(o.oid for o in refs) if refs else None,
            temporary,
            frame,
        )
        return list(map(self.store.handle, range(first, first + len(sizes))))

    def allocate_linked(
        self,
        parent: HeapObject,
        sizes: Sequence[int],
        names: Sequence[str],
        groups: Sequence[int],
    ) -> List[int]:
        """Allocate groups of objects, storing each group into ``parent``.

        ``groups`` splits ``sizes`` (and ``names``) into consecutive
        groups.  A group of one is a plain object; a larger group is an
        array's pieces followed by its header, which references them.
        Each group's last object is stored into ``parent`` with
        :meth:`write_refs_many`'s semantics before the next object
        exists, and an unfinished group's pieces sit on a stack frame
        whenever a collection can fire.  A GC mid-batch therefore sees the
        same roots, frames, reference order and edges as allocating each
        group in a frame of its own and storing it with :meth:`write_ref`
        — which allocating everything first and linking afterwards would
        not give.  Returns the stored objects' oids; no handle is made
        for an object unless the slow path needs one.
        """
        if sum(groups) != len(sizes) or min(groups, default=1) < 1:
            raise ValueError("groups must split the sizes into non-empty runs")
        return self._allocate(
            sizes, names, object_flags(False, False, True), 1.0, None,
            False, None, parent.oid, groups,
        )[1]

    def _allocate(
        self,
        sizes: Sequence[int],
        names: Sequence[str],
        flags: int,
        scan_factor: float,
        ref_row: Optional[Tuple[int, ...]],
        temporary: bool,
        frame: Optional[StackFrame],
        parent: int = 0,
        groups: Sequence[int] = (),
    ) -> Tuple[int, List[int]]:
        """The loop behind :meth:`allocate_many` and
        :meth:`allocate_linked`: returns the first new oid and the oids
        stored into ``parent``.

        Runs of eden bump allocations alternate with single slow-path
        objects.  Inside a run charges land in program order — an
        ``alloc_cost`` per object and, after each group, its store's
        barrier — folded through :meth:`Clock.charge_many`.  A run never
        extends past anything that can raise or collect: a slow-path
        object, an undersized object and, when ``parent`` sits in H2 or
        was reclaimed, the run's first store (its mutator store can
        fault).  So no row ever exists ahead of a raise.
        """
        store = self.store
        clock = self.clock
        heap = self.heap
        space_col = store.space
        handle = store.handle
        alloc_cost = self.cost.alloc_cost
        count = len(sizes)
        first = len(store.size)
        if type(heap) is ManagedHeap and heap.pretenure_threshold is None:
            eden = heap.eden
            half = eden.capacity // 2
            eden_end = eden.base + eden.capacity
        else:
            eden = None
        # ends[g] is one past group g's last object; without a parent
        # every object is a group of one and nothing is stored.
        ends = list(accumulate(groups)) if parent else None
        linked: List[int] = []
        pushed = 0  # objects [0, pushed) are on ``frame``
        pieces_frame = None  # an unfinished group's pieces, as roots
        group = 0
        i = 0
        try:
            while i < count:
                stop = count
                hazard = False
                if parent:
                    code = space_col[parent]
                    hazard = code == SPACE_H2 or code == SPACE_FREED
                    if hazard:
                        stop = ends[group]
                j = i
                if eden is not None:
                    top = eden.top
                    while j < stop:
                        size = sizes[j]
                        if (
                            size < MIN_OBJECT_SIZE
                            or size > half
                            or top + size > eden_end
                        ):
                            break
                        top += size
                        j += 1
                if j > i:
                    # --- a run bump-allocated into eden ----------------
                    heads: List[int] = []
                    if parent:
                        rows = []
                        start = ends[group - 1] if group else 0
                        for k in range(i, j):
                            if k + 1 == ends[group]:
                                rows.append(
                                    tuple(range(first + start, first + k))
                                )
                                heads.append(first + k)
                                start = k + 1
                                group += 1
                            else:
                                rows.append(())
                    elif ref_row is not None:
                        rows = repeat(ref_row, j - i)
                    else:
                        rows = None
                    run_sizes = sizes[i:j]
                    oid = store.new_objects(
                        run_sizes, names[i:j], flags, scan_factor, rows
                    )
                    heap.allocated_bytes += eden.place_rows(
                        store, oid, run_sizes
                    )
                    heap.allocated_objects += j - i
                    if hazard:
                        # The run ends at its group's store (if the group
                        # completes): charge the allocations, then the
                        # store goes the full way.
                        clock.charge_many([alloc_cost] * (j - i), Bucket.OTHER)
                        if heads:
                            self.write_refs_many((parent,), heads)
                    else:
                        self._link_run(parent, heads, first, i, j)
                    linked.extend(heads)
                    i = j
                    continue
                # --- one object through the slow path -------------------
                size = sizes[i]
                if frame is not None:
                    frame.push_all(
                        map(handle, range(first + pushed, first + i))
                    )
                    pushed = i
                if size < MIN_OBJECT_SIZE:
                    raise ValueError(
                        f"object size {size} below minimum {MIN_OBJECT_SIZE}"
                    )
                start = (ends[group - 1] if group else 0) if parent else i
                last = parent and i + 1 == ends[group]
                row = ref_row
                if last:
                    row = tuple(range(first + start, first + i))
                oid = store.new_objects(
                    (size,), (names[i],), flags, scan_factor,
                    None if row is None else (row,),
                )
                clock.charge(alloc_cost, Bucket.OTHER)
                if start < i or pieces_frame is not None:
                    if pieces_frame is None:
                        pieces_frame = self.roots.open_frame()
                    pieces_frame.objects[:] = map(
                        handle, range(first + start, first + i)
                    )
                self._allocate_slow(handle(oid), size, temporary)
                i += 1
                if last:
                    if pieces_frame is not None:
                        pieces_frame.objects.clear()
                    group += 1
                    linked.append(oid)
                    self.write_refs_many((parent,), (oid,))
            if frame is not None:
                frame.push_all(
                    map(handle, range(first + pushed, first + count))
                )
        finally:
            if pieces_frame is not None:
                self.roots.close_frame(pieces_frame)
        return first, linked

    def _link_run(
        self, parent: int, heads: List[int], first: int, i: int, j: int
    ) -> None:
        """Charge a bump-allocated run ``[i, j)`` of a batch starting at
        oid ``first`` and store its ``heads`` into an H1 ``parent``.

        Program order is an ``alloc_cost`` per object, plus one barrier
        charge right after each head; nothing in between can fault or
        collect, so the stores themselves follow as one
        :meth:`_commit_stores` call.
        """
        clock = self.clock
        alloc_cost = self.cost.alloc_cost
        if not heads:
            clock.charge_many([alloc_cost] * (j - i), Bucket.OTHER)
            return
        barrier = self.barrier
        store_cost = barrier.store_cost
        # Barrier charges land in the current context, allocation charges
        # in OTHER: fold them together only when those are one bucket.
        fold = clock.current is Bucket.OTHER
        amounts: List[float] = []
        done = i
        for head in heads:
            amounts.extend(repeat(alloc_cost, head - first + 1 - done))
            done = head - first + 1
            if fold:
                amounts.append(store_cost)
            else:
                clock.charge_many(amounts, Bucket.OTHER)
                amounts = []
                clock.charge(store_cost)
        amounts.extend(repeat(alloc_cost, j - done))
        clock.charge_many(amounts, Bucket.OTHER)
        self._commit_stores([parent] * len(heads), heads, None, len(heads))

    def _commit_stores(
        self,
        srcs: Sequence[int],
        targets: Optional[Sequence[int]],
        remove: Optional[Sequence[int]],
        marked: int,
    ) -> None:
        """The reference updates and card marks of a run of stores, the
        tail every store shares (the caller checks sources and charges).

        In order, each store drops ``remove[i]`` from and appends
        ``targets[i]`` to its source's refs (each when nonzero).  Then the
        first ``marked`` stores get their barrier's card marks in one
        call; a store whose mapping write raised updated its refs but is
        not marked, as its barrier never ran.
        """
        store = self.store
        if targets is not None or remove is not None:
            for i, src in enumerate(srcs):
                target = targets[i] if targets is not None else 0
                dropped = remove[i] if remove is not None else 0
                if not (target or dropped):
                    continue
                row = store.mutable_refs(src)
                if dropped:
                    try:
                        row.remove(dropped)
                        store.edge_version += 1
                    except ValueError:
                        pass
                if target:
                    row.append(target)
                    store.edge_version += 1
        if marked:
            self.barrier.mark_stores(
                store,
                srcs[:marked],
                targets[:marked] if targets is not None else [0] * marked,
            )

    def _allocate_slow(
        self, obj: HeapObject, size: int, temporary: bool
    ) -> None:
        """Place ``obj`` through the heap, collecting as needed.

        Escalates from scavenge to full GC to emergency backpressure;
        raises :class:`OutOfMemoryError` when all of them fail.
        """
        heap = self.heap
        if heap.try_allocate(obj):
            return
        self.minor_gc()
        if heap.try_allocate(obj):
            return
        self.major_gc()
        if heap.try_allocate(obj):
            return
        if self._emergency_backpressure(obj):
            return
        self.oom = True
        if temporary:
            message = "temporary allocation failed"
            available = 0
        else:
            message = f"cannot allocate {size} B after full GC"
            available = heap.capacity - heap.used()
        context = self._degradation_context()
        if context:
            message = f"{message} ({context})"
        raise OutOfMemoryError(
            message,
            requested=size,
            available=available,
            context=context,
            heap_report=self.diagnostic_heap_report(),
        )

    def _degradation_context(self) -> str:
        """Resilience fallback description attached to OOM errors."""
        if self.resilience is None:
            return ""
        return self.resilience.degradation_context()

    # ==================================================================
    # Emergency backpressure (governor OPEN + H1 past the watermark)
    # ==================================================================
    def register_pressure_handler(self, fn) -> None:
        """Register ``fn(target_bytes) -> freed_bytes``, called when the
        VM applies emergency backpressure instead of raising OOM.

        Retired VMs refuse registrations: a handler rooted in a dead
        incarnation must never fire again."""
        if self.retired:
            return
        self.pressure_handlers.append(fn)

    def stall_for_capacity(self, nbytes: int) -> int:
        """Pre-allocation backpressure for bulk buffer producers.

        Shuffle buffers and streaming blocks arrive in partition-sized
        bursts; waiting for :meth:`allocate`'s per-object emergency path
        means the burst is already half landed when the stall hits.
        Callers that know they are about to produce ``nbytes`` call this
        first: if the governor reports an emergency (circuit OPEN and H1
        past the watermark), one stall round is charged — the thread
        parks (``Bucket.ALLOC_STALL``) while the registered pressure
        handlers shed cached bytes — before a single buffer byte exists.
        Returns the bytes the handlers freed; 0 when no emergency is
        active (the common, free case).
        """
        if self.governor is None or self.heap.capacity <= 0:
            return 0
        occupancy = self.heap.used() / self.heap.capacity
        if not self.governor.emergency_active(occupancy):
            return 0
        gov_cfg = self.governor.config
        self.alloc_stalls += 1
        self.clock.charge(gov_cfg.alloc_stall_wait, Bucket.ALLOC_STALL)
        self.clock.record_event("alloc_stall", gov_cfg.alloc_stall_wait)
        target = max(nbytes, int(0.05 * self.heap.capacity))
        freed = 0
        for handler in self.pressure_handlers:
            freed += handler(target)
        return freed

    def _emergency_backpressure(self, obj: HeapObject) -> bool:
        """Last line before OOM: stall, shed cached data, GC, retry.

        Only runs while the H2 governor has the circuit open and H1 sits
        past the emergency watermark — the situation where the device
        brownout (not the workload) pinned data in H1.  Each round parks
        the allocating thread (charged to ``Bucket.ALLOC_STALL``), asks
        the registered pressure handlers to shed droppable bytes, and
        runs an emergency full GC.  Returns True once ``obj`` allocated;
        False means true exhaustion and the caller raises OOM.
        """
        if self.governor is None:
            return False
        occupancy = self.heap.used() / self.heap.capacity
        if not self.governor.emergency_active(occupancy):
            return False
        gov_cfg = self.governor.config
        target = max(obj.size, int(0.05 * self.heap.capacity))
        for _ in range(gov_cfg.max_emergency_rounds):
            self.alloc_stalls += 1
            self.clock.charge(gov_cfg.alloc_stall_wait, Bucket.ALLOC_STALL)
            self.clock.record_event("alloc_stall", gov_cfg.alloc_stall_wait)
            freed = 0
            for handler in self.pressure_handlers:
                freed += handler(target)
            self.emergency_gcs += 1
            self.major_gc()
            if self.heap.try_allocate(obj):
                return True
            if freed == 0:
                # Nothing left to shed and GC cannot free more: more
                # rounds would only burn stall time before the same OOM.
                return False
        return False

    def diagnostic_heap_report(self) -> str:
        """Multi-line heap/governor/resilience state for OOM errors."""
        lines = [
            "== simulated heap report ==",
            (
                f"H1: {self.heap.used()}/{self.heap.capacity} B used "
                f"({self.heap.used() / self.heap.capacity:.0%})"
            ),
        ]
        if self.h2 is not None:
            lines.append(
                f"H2: {self.h2.used_bytes()}/{self.h2.config.h2_size} B used, "
                f"{len(self.h2.regions)} regions"
            )
        if self.governor is not None:
            lines.append(f"governor: {self.governor.describe()}")
        if self.health is not None:
            lines.append(f"devices: {self.health.describe()}")
        if self.resilience is not None:
            lines.append(
                f"resilience: failures={self.resilience.failures} "
                f"degraded={self.resilience.degraded}"
            )
        lines.append(
            f"backpressure: alloc_stalls={self.alloc_stalls} "
            f"emergency_gcs={self.emergency_gcs}"
        )
        return "\n".join(lines)

    def allocate_temp(self, nbytes: int) -> None:
        """Spray short-lived temporaries (S/D byte-stream buffers).

        ``nbytes`` is cut into ``TEMP_CHUNK`` pieces (the last one at
        least 16 B).  The objects are never rooted, so they die at the
        next scavenge — their only effect is the young-generation
        pressure the paper attributes to S/D (Section 2).
        """
        if nbytes <= 0:
            return
        full, rest = divmod(nbytes, TEMP_CHUNK)
        sizes = [TEMP_CHUNK] * full
        if rest:
            sizes.append(max(rest, MIN_OBJECT_SIZE))
        self.allocate_many(sizes, repeat("sd-temp"), temporary=True)

    # ==================================================================
    # Mutator object access
    # ==================================================================
    def write_ref(
        self,
        src: HeapObject,
        target: Optional[HeapObject],
        remove: Optional[HeapObject] = None,
    ) -> None:
        """``src.field = target`` with post-write barrier semantics."""
        self.write_refs_many(
            (src.oid,),
            (0 if target is None else target.oid,),
            None if remove is None else (remove.oid,),
        )

    def write_refs_many(
        self,
        srcs: Sequence[int],
        targets: Optional[Sequence[int]] = None,
        remove: Optional[Sequence[int]] = None,
        reads: Optional[Sequence[Sequence[int]]] = None,
    ) -> None:
        """Stores ``srcs[i].field = targets[i]``, in order, over oids.

        The one write kernel: :meth:`write_ref` is its one-element case.
        A target of 0 (or ``targets=None``) is a primitive store; a
        nonzero ``remove[i]`` drops that reference first.  With
        ``reads``, store ``i`` is a read-then-update step: the objects
        ``reads[i]`` are read first, exactly as :meth:`read_many` reads
        them.  Each store checks that its source was not reclaimed, goes
        through the mapping when the source lives in H2 (one
        ``h2_mutator_store`` operation each under a resilience policy)
        and charges the barrier; the barrier's card marks for the batch
        follow in one call.  A reclaimed source raises
        :class:`SegmentationFault` after every store before it completed.
        """
        self._access(reads, srcs, targets, remove, AccessPattern.SEQUENTIAL)

    def clear_refs(self, src: HeapObject) -> None:
        """Drop all outgoing references of ``src``."""
        src.refs = []

    def read_object(
        self,
        obj: HeapObject,
        pattern: AccessPattern = AccessPattern.SEQUENTIAL,
    ) -> None:
        """A mutator reads an object's contents."""
        self.read_many((obj,), pattern)

    def read_many(
        self,
        objs: Iterable[HeapObject],
        pattern: AccessPattern = AccessPattern.SEQUENTIAL,
    ) -> None:
        """A mutator reads each object's contents, in order.

        The one mutator read kernel (:meth:`write_refs_many` runs the
        same loop for its read-then-update steps).  Consecutive H2
        objects go down as ``(address, size)`` spans to one batched
        page-cache pass; every other object is charged in place (DRAM,
        or the NVM old generation under memory mode and Panthera),
        flushing the pending spans first so charges land in object
        order.  A reclaimed object raises :class:`SegmentationFault`
        after every object before it was read.
        """
        self._access(([obj.oid for obj in objs],), None, None, None, pattern)

    def _access(self, reads, srcs, targets, remove, pattern) -> None:
        """The loop behind :meth:`read_many` and :meth:`write_refs_many`.

        Step ``i`` reads ``reads[i]`` (when ``reads`` is given), then
        stores into ``srcs[i]`` (when ``srcs`` is given).  Charges and
        page-cache calls happen in step order; the stores' refs updates
        and card marks, which neither reads, follow in one
        :meth:`_commit_stores` call, also when a step raises.
        """
        store = self.store
        space = store.space
        address = store.address
        size_col = store.size
        h2 = self.h2
        charge = self.clock.charge
        dram_latency = self.cost.dram_latency
        dram_read_bw = self.cost.dram_read_bw
        device = self.old_gen_device
        memmode = panthera = None
        if device is not None:
            memmode = self.config.collector == "memmode"
            if self.config.collector == "panthera":
                from .gc.panthera import PantheraCollector

                if isinstance(self.collector, PantheraCollector):
                    panthera = self.collector
        if srcs is not None:
            steps = len(srcs)
            store_cost = self.barrier.store_cost
        else:
            steps = len(reads)
        spans: List[Tuple[int, int]] = []
        due = marked = 0  # stores whose refs update / barrier is due
        try:
            for i in range(steps):
                if reads is not None:
                    for oid in reads[i]:
                        code = space[oid]
                        if code == SPACE_H2 and h2 is not None:
                            spans.append((address[oid], size_col[oid]))
                            continue
                        if spans:
                            h2.mutator_load_spans(spans, pattern)
                            spans = []
                        if code == SPACE_FREED:
                            raise SegmentationFault(
                                f"read of reclaimed object #{oid}"
                            )
                        size = size_col[oid]
                        if memmode or (
                            panthera is not None
                            and code == SPACE_OLD
                            and address[oid] >= panthera.nvm_boundary
                        ):
                            # Memory mode: every heap access goes through
                            # the DRAM/NVM blend; Panthera: an old object
                            # on NVM.
                            device.read(size, pattern)
                        else:
                            charge(dram_latency + size / dram_read_bw)
                if srcs is None:
                    continue
                if spans:
                    h2.mutator_load_spans(spans, pattern)
                    spans = []
                src = srcs[i]
                code = space[src]
                if code == SPACE_FREED:
                    raise SegmentationFault(
                        f"write to reclaimed object #{src}"
                    )
                due = i + 1
                if code == SPACE_H2 and h2 is not None:
                    # Mutator update of a device-resident object: the
                    # store goes through the mapping (read-modify-write
                    # on a faulted page).
                    h2.mutator_store(store.handle(src))
                charge(store_cost)
                marked = i + 1
            if spans:
                h2.mutator_load_spans(spans, pattern)
        finally:
            if due:
                self._commit_stores(srcs[:due], targets, remove, marked)

    def compute(self, operations: int, parallel: bool = True) -> None:
        """Charge pure mutator work for ``operations`` record operations."""
        seconds = operations * self.cost.mutator_op_cost
        if parallel:
            seconds /= max(1.0, self.config.mutator_threads ** 0.9)
        self.clock.charge(seconds, Bucket.OTHER)

    # ==================================================================
    # TeraHeap hint interface (exported via Unsafe in the real JVM)
    # ==================================================================
    def h2_tag_root(self, obj: HeapObject, label: str) -> None:
        self.hints.h2_tag_root(obj, label)

    def h2_move(self, label: str) -> None:
        self.hints.h2_move(label)

    # ==================================================================
    # GC entry points
    # ==================================================================
    def minor_gc(self) -> None:
        kind = "minor"
        try:
            self.collector.minor_gc()
        except PromotionFailure:
            self.collector.major_gc()
            kind = "major"
        self._post_gc_audit(kind)

    def major_gc(self) -> None:
        self.collector.major_gc()
        self._post_gc_audit("major")

    def _post_gc_audit(self, kind: str) -> None:
        """Verify heap invariants after a completed GC cycle (if enabled)."""
        if self.auditor is not None:
            self.auditor.audit(kind, self.collector.mark_epoch)

    # ==================================================================
    # Crash recovery
    # ==================================================================
    def retire(self) -> None:
        """Tear down a dead VM so nothing of it leaks into a successor.

        A crashed executor's volatile state must not poison the restarted
        incarnation: registered pressure handlers (which close over the
        dead block manager), device-health listeners (which would keep
        feeding the dead governor), and the governor's own circuit state
        all die here.  The successor VM builds every one of these fresh —
        zero health observations, a CLOSED circuit, zero alloc-stall
        counters — which :meth:`~repro.frameworks.spark.context.SparkContext.restart`
        relies on.  Idempotent.

        Everything dropped here is scoped to *this* VM: on a shared
        health monitor only this VM's listeners detach (sibling tenants'
        governors keep theirs), and only this VM's policy/auditor leave
        the global registries — their counters folded into the aggregate
        so the CLI's end-of-run summary still tells the whole story.
        """
        self.retired = True
        self.pressure_handlers.clear()
        if self.health is not None:
            if self._owns_health:
                self.health.detach_listeners()
            else:
                self.health.detach_listeners(owner=self)
        if self._registered_policy and self.resilience is not None:
            unregister_policy(self.resilience)
            self._registered_policy = False
        if self._registered_auditor and self.auditor is not None:
            unregister_auditor(self.auditor)
            self._registered_auditor = False

    def recover_h2(self, image):
        """Recover a crashed process's durable H2 image into this VM.

        Must be called on a freshly built VM (the crash destroyed all
        volatile state; this VM *is* the restarted process).  Rebuilds
        the H2 metadata from the image via
        :meth:`~repro.teraheap.h2_heap.H2Heap.recover`, then re-primes
        the root set: one H1 anchor object per recovered label holds
        references to every rehydrated object of that label, so the
        next major GC re-establishes region liveness exactly as the
        workload's own roots would have.  Returns the
        :class:`~repro.teraheap.recovery.RecoveryReport`.
        """
        if self.h2 is None:
            raise ConfigError("recover_h2() requires TeraHeap enabled")
        report = self.h2.recover(image)
        by_label: Dict[str, List[HeapObject]] = {}
        for index in sorted(report.recovered):
            region = self.h2.regions[index]
            for obj in region.objects:
                by_label.setdefault(region.label or "", []).append(obj)
        for label in sorted(by_label):
            members = by_label[label]
            anchor = self.allocate(
                max(16, 8 * len(members)), name=f"h2-anchor:{label}"
            )
            # Installed directly, not via write_ref: the anchor stands in
            # for the crashed process's roots, and recovery must not
            # charge the mutator-store barrier path for it.
            anchor.refs = list(members)
            self.roots.add(anchor)
            self.h2_recovery_anchors[label] = anchor
        return report

    # ==================================================================
    # Reporting
    # ==================================================================
    def breakdown(self):
        return self.clock.breakdown()

    def elapsed(self) -> float:
        return self.clock.now
