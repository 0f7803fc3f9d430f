"""Giraph's batched mutator against the per-message and per-vertex loops.

The superstep mutator runs on three kernels: ``HeapStore.new_objects``
(one ``extend`` per column per run of rows), ``JavaVM.allocate_linked``
(each message batch is allocated and stored into the message store before
the next exists) and ``JavaVM.write_refs_many`` (reads, then a store with
its post-write barrier, per vertex).  ``ReferenceJob`` below keeps the
loops they replaced: one frame, ``_allocate_array`` and ``write_ref`` per
message, one ``read_object``/``read_many``/``write_ref`` chain per vertex.
Both run every program on TeraHeap, plain Parallel Scavenge and OOC
workers whose heaps are small enough that minor and major collections
fire mid-superstep; the store, the card tables, the clock (bit for bit),
the page caches, the devices and the GC history must come out identical.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import JavaVM, TeraHeapConfig, VMConfig, gb
from repro.clock import Bucket
from repro.devices.nvme import NVMeSSD
from repro.errors import OutOfMemoryError, SegmentationFault
from repro.faults.plan import FaultConfig
from repro.frameworks.giraph import GiraphConf, GiraphJob, GiraphMode
from repro.frameworks.giraph.job import EDGES_LABEL
from repro.frameworks.giraph.workloads import GIRAPH_PROGRAMS
from repro.heap.heap import ManagedHeap
from repro.heap.object_model import SpaceId
from repro.heap.store import SPACE_FREED, HeapStore
from repro.units import KiB
from repro.workloads.generators import make_graph

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


# ----------------------------------------------------------------------
# The loops the kernels replaced
# ----------------------------------------------------------------------
class ReferenceJob(GiraphJob):
    """A Giraph worker on the per-object mutator paths."""

    def load_graph(self) -> None:
        vm = self.vm
        n = self.graph.num_vertices
        parts = self.conf.num_partitions
        for pid in range(parts):
            root = vm.allocate(
                max(64, 8 * (n // parts + 1)), name=f"partition-{pid}"
            )
            vm.write_ref(self.runtime_root, root)
            self.partition_roots.append(root)
        for v in range(n):
            with vm.roots.frame() as frame:
                edges = self._allocate_array(
                    self._edge_sizes[v], f"edges-{v}", frame
                )
                vertex = vm.allocate(
                    self.graph.vertex_value_size,
                    refs=[edges],
                    name=f"vertex-{v}",
                )
                vm.write_ref(self.partition_roots[v % parts], vertex)
                self.vertex_objs[v] = vertex
                self.edge_roots[v] = edges
                if self.conf.mode is GiraphMode.TERAHEAP:
                    vm.h2_tag_root(edges, EDGES_LABEL)
            vm.compute(4)
            if v >= 64 and v % 2 == 0:
                recent = v - 1 - (v % 29)
                target = self.edge_roots[recent]
                if target is not None and target.space is not SpaceId.FREED:
                    with vm.roots.frame() as frame:
                        fragment = frame.push(
                            vm.allocate(64, name=f"edge-frag-{v}")
                        )
                        vm.write_ref(target, fragment)
            if self.ooc is not None and v % 32 == 31:
                self.ooc.maybe_offload()
        if self.conf.mode is GiraphMode.TERAHEAP and self.conf.use_move_hint:
            vm.h2_move(EDGES_LABEL)
        if self.ooc is not None:
            self.ooc.maybe_offload()

    def _fill_message_store(self, step, senders, received):
        vm = self.vm
        mask = senders[self._edge_sources]
        counts = np.bincount(
            self._edge_targets[mask], minlength=self.graph.num_vertices
        )
        current_root = vm.allocate(1024, name=f"msgstore-{step}")
        vm.write_ref(self.runtime_root, current_root)
        if self.conf.mode is GiraphMode.TERAHEAP:
            vm.h2_tag_root(current_root, f"msgs-{step}")
        msgs = {}
        targets = np.flatnonzero(received)
        for t in targets:
            if self.combiner is not None:
                payload = self.combiner.combined_bytes(
                    int(counts[t]), self.bytes_per_message
                )
            else:
                payload = int(counts[t]) * self.bytes_per_message
            nbytes = 64 + payload
            with vm.roots.frame() as frame:
                msg = self._allocate_array(nbytes, f"msg-{step}-{t}", frame)
                vm.write_ref(current_root, msg)
            msgs[int(t)] = msg.oid
            self.messages_sent += int(counts[t])
            self.message_store_bytes += nbytes
            if self.ooc is not None and len(msgs) % 256 == 0:
                self.ooc.maybe_offload()
        vm.compute(len(targets))
        return current_root, msgs

    def _compute_phase(self, step, senders):
        vm = self.vm
        active = np.flatnonzero(senders)
        vm.compute(len(active) * self.conf.ops_per_vertex)
        parts = self.conf.num_partitions
        active = active[np.argsort(active % parts, kind="stable")]
        for i, v in enumerate(active):
            v = int(v)
            self.current_partition = v % parts
            vertex = self._vertex_for_compute(v)
            vm.read_object(vertex)
            edges = self._edges_for_compute(v)
            msg = self.incoming_msgs.get(v)
            if msg is not None:
                msg = vm.store.handle(msg)
            vm.read_many([o for o in (edges, msg) if o is not None])
            if (
                msg is None
                and v in self.offloaded_msgs
                and self.ooc is not None
            ):
                self.ooc.reload(
                    self.offloaded_msgs.pop(v), key=("msg", step, v)
                )
            vm.write_ref(vertex, None)
            if self.ooc is not None and i % 128 == 127:
                self.ooc.maybe_offload()
        self.current_partition = None


# ----------------------------------------------------------------------
# Workers small enough to collect mid-superstep
# ----------------------------------------------------------------------
#: heap per worker mode: TeraHeap and OOC hold a share of the graph,
#: plain PS all of it (hub targets get multi-piece message batches)
HEAP_GB = {"teraheap": 2.5, "ps": 9.0, "ooc": 2.5}


def make_job(mode, program, job_cls, combiner=None):
    graph = make_graph(gb(4), num_vertices=300, avg_degree=6.0, seed=11)
    th = mode == "teraheap"
    vm = JavaVM(
        VMConfig(
            heap_size=gb(HEAP_GB[mode]),
            teraheap=TeraHeapConfig(
                enabled=th, h2_size=gb(64), region_size=64 * KiB
            ),
            page_cache_size=gb(0.05),
        ),
        store=HeapStore(),
    )
    if mode == "ooc":
        conf = GiraphConf(
            mode=GiraphMode.OOC,
            device=NVMeSSD(vm.clock),
            ooc_threshold=0.3,
            combiner=combiner,
        )
    else:
        # "ps" is the TeraHeap-mode worker on a plain Parallel Scavenge
        # heap: tags and hints with no H2 behind them, no OOC scheduler.
        conf = GiraphConf(mode=GiraphMode.TERAHEAP, combiner=combiner)
    job = job_cls(vm, conf, graph)
    job.load_graph()
    job.run(GIRAPH_PROGRAMS[program](graph))
    return job


def traffic(device):
    t = device.traffic
    return (t.bytes_read, t.bytes_written, t.read_ops, t.write_ops)


def cache_counters(cache):
    return (cache.hits, cache.misses, cache.evictions, cache.writebacks)


def vm_state(vm):
    store = vm.store
    heap = vm.heap
    state = {
        "columns": [bytes(getattr(store, c)) for c in COLUMNS],
        "label": list(store.label),
        "name": list(store.name),
        "refs": [tuple(r) for r in store.refs],
        "breakdown": vm.clock.breakdown(),
        "sub": vm.clock.sub_breakdown(),
        "events": list(vm.clock.events),
        "cycles": list(vm.collector.stats.cycles),
        "barrier": vm.barrier.barrier_count,
        "roots": vm.roots.oids(),
    }
    if isinstance(heap, ManagedHeap):
        state["spaces"] = [
            (s.space_id, s.top, list(s._oids)) for s in heap.spaces()
        ]
        state["h1_cards"] = sorted(heap.card_table.dirty_cards())
    if vm.h2 is not None:
        cards = vm.h2.card_table
        state["h2_cards"] = (dict(cards._states), cards.mutator_marks)
        state["h2_cache"] = cache_counters(vm.h2.page_cache)
        state["h2_device"] = traffic(vm.h2.device)
        state["h2"] = (vm.h2.used_bytes(), sorted(vm.h2.regions))
    return state


def job_state(job):
    state = vm_state(job.vm)
    state["job"] = (
        job.supersteps_run,
        job.messages_sent,
        job.message_store_bytes,
        sorted(job.incoming_msgs.items()),
    )
    if job.ooc is not None:
        ooc = job.ooc
        state["ooc"] = (
            ooc.offload_events,
            ooc.bytes_offloaded,
            ooc.bytes_reloaded,
            cache_counters(ooc.cache),
            traffic(job.conf.device),
        )
    return state


@pytest.mark.parametrize("program", sorted(GIRAPH_PROGRAMS))
@pytest.mark.parametrize("mode", ["teraheap", "ps", "ooc"])
def test_superstep_kernels_match_per_object_loops(mode, program):
    batched = make_job(mode, program, GiraphJob)
    looped = make_job(mode, program, ReferenceJob)
    assert job_state(batched) == job_state(looped)


def test_reference_workers_collect_mid_superstep_and_split_arrays():
    """The fixtures exercise what the kernels must get right."""
    job = make_job("teraheap", "PR", ReferenceJob)
    stats = job.vm.collector.stats
    assert stats.minor_count >= 1 and stats.major_count >= 1
    names = job.vm.store.name
    assert any(n.startswith("msg-") and "." in n for n in names)
    assert job.vm.h2.card_table.mutator_marks > 0
    ooc = make_job("ooc", "PR", ReferenceJob)
    assert ooc.ooc.offload_events > 0 and ooc.ooc.bytes_reloaded > 0


def test_combined_messages_match():
    batched = make_job("ooc", "SSSP", GiraphJob, combiner="min")
    looped = make_job("ooc", "SSSP", ReferenceJob, combiner="min")
    assert job_state(batched) == job_state(looped)


def test_message_rows_need_no_handles():
    job = make_job("ps", "PR", GiraphJob)
    store = job.vm.store
    msgs = [
        oid
        for oid, name in enumerate(store.name)
        if name.startswith("msg-")
    ]
    with_handles = [oid for oid in msgs if store.handles[oid] is not None]
    # Only the slow path (an allocation that had to collect first, and the
    # pieces it had to keep rooted) makes handles.
    cycles = len(job.vm.collector.stats.cycles)
    assert len(msgs) > 1000
    assert len(with_handles) <= cycles * (1 + 40 * KiB // (12 * KiB))
    # Leaf rows share the empty tuple: nothing for the cyclic GC to walk.
    assert any(store.refs[oid] == () for oid in msgs)


# ----------------------------------------------------------------------
# allocate_linked against frame + allocate + write_ref
# ----------------------------------------------------------------------
def reference_linked(vm, parent, sizes, names, groups):
    oids = []
    start = 0
    for count in groups:
        with vm.roots.frame() as frame:
            group_sizes = sizes[start:start + count]
            group_names = names[start:start + count]
            pieces = vm.allocate_many(
                group_sizes[:-1], group_names[:-1], frame=frame
            )
            head = frame.push(
                vm.allocate(group_sizes[-1], refs=pieces, name=group_names[-1])
            )
            vm.write_ref(parent, head)
        oids.append(head.oid)
        start += count
    return oids


def small_vm(teraheap=False, faults=None):
    return JavaVM(
        VMConfig(
            heap_size=gb(16),
            teraheap=TeraHeapConfig(
                enabled=teraheap, h2_size=gb(64), region_size=64 * KiB
            ),
            page_cache_size=gb(1),
            faults=faults,
        ),
        store=HeapStore(),
    )


GROUP = st.lists(
    st.one_of(st.integers(16, 4 * KiB), st.integers(4 * KiB, 40 * KiB)),
    min_size=1,
    max_size=4,
)


@given(
    batch=st.lists(GROUP, min_size=1, max_size=60),
    parent_space=st.sampled_from(["eden", "old", "h2"]),
    context=st.booleans(),
)
@settings(max_examples=30, deadline=None)
def test_allocate_linked_matches_frame_and_write_ref(
    batch, parent_space, context
):
    sizes = [s for group in batch for s in group]
    groups = [len(group) for group in batch]
    names = [f"o{i}" for i in range(len(sizes))]
    states = []
    for linked in (True, False):
        vm = small_vm(teraheap=parent_space == "h2")
        parent = vm.roots.add(vm.allocate(1024, name="parent"))
        if parent_space == "h2":
            vm.h2_tag_root(parent, "store")
            vm.h2_move("store")
        if parent_space != "eden":
            vm.major_gc()
            assert parent.space is SpaceId[parent_space.upper()]
        # Fill most of eden so the batch collects part-way through.
        eden = vm.heap.eden
        junk = (eden.capacity - eden.used) // (32 * KiB) - 1
        vm.allocate_many([32 * KiB] * junk, ["junk"] * junk)
        with vm.clock.context(Bucket.SD_IO if context else Bucket.OTHER):
            if linked:
                oids = vm.allocate_linked(parent, sizes, names, groups)
            else:
                oids = reference_linked(vm, parent, sizes, names, groups)
        states.append((oids, vm_state(vm)))
    assert states[0] == states[1]


def test_allocate_linked_collects_mid_batch_like_the_loop():
    sizes = [12 * KiB, 30 * KiB, 500] * 200
    groups = [3] * 100 + [1] * 300
    names = [f"o{i}" for i in range(len(sizes))]
    states = []
    for linked in (True, False):
        vm = small_vm()
        parent = vm.roots.add(vm.allocate(1024, name="parent"))
        if linked:
            oids = vm.allocate_linked(parent, sizes, names, groups)
        else:
            oids = reference_linked(vm, parent, sizes, names, groups)
        states.append((oids, vm_state(vm)))
    assert states[0] == states[1]
    assert vm.collector.stats.minor_count >= 1


def test_allocate_linked_into_h2_parent_and_freed_parent():
    for linked in (True, False):
        vm = small_vm(teraheap=True)
        parent = vm.allocate(1024, name="store")
        vm.roots.add(parent)
        vm.h2_tag_root(parent, "store")
        vm.h2_move("store")
        vm.major_gc()
        assert parent.space is SpaceId.H2
        sizes = [2 * KiB, 20 * KiB, 8 * KiB, 64]
        groups = [1, 2, 1]
        names = ["a", "b.0", "b", "c"]
        if linked:
            vm.allocate_linked(parent, sizes, names, groups)
        else:
            reference_linked(vm, parent, sizes, names, groups)
        # Reclaim the parent's region: the next store must fault.
        vm.roots.remove(parent)
        vm.major_gc()
        vm.store.space[parent.oid] = SPACE_FREED
        with pytest.raises(SegmentationFault, match="write to reclaimed"):
            if linked:
                vm.allocate_linked(parent, [64, 64], ["x", "y"], [1, 1])
            else:
                reference_linked(vm, parent, [64, 64], ["x", "y"], [1, 1])
        if linked:
            linked_state = vm_state(vm)
        else:
            assert vm_state(vm) == linked_state
    assert vm.h2.card_table.mutator_marks > 0


def test_allocate_linked_raises_after_the_prefix():
    sizes = [2 * KiB, 100 * KiB, 8, 4 * KiB]
    names = ["a", "b", "c", "d"]
    states = []
    for linked in (True, False):
        vm = small_vm()
        parent = vm.roots.add(vm.allocate(1024, name="parent"))
        with pytest.raises(ValueError, match="object size 8 below"):
            if linked:
                vm.allocate_linked(parent, sizes, names, [1, 1, 1, 1])
            else:
                reference_linked(vm, parent, sizes, names, [1, 1, 1, 1])
        states.append(vm_state(vm))
    assert states[0] == states[1]
    assert vm.store.object_count == 3  # parent, a, b: no row for "c"


def test_allocate_linked_oom_matches():
    states = []
    for linked in (True, False):
        vm = small_vm()
        parent = vm.roots.add(vm.allocate(1024, name="parent"))
        count = 2 * (2 * vm.heap.capacity // (12 * KiB))
        sizes = [12 * KiB] * count
        names = [f"c{i}" for i in range(count)]
        with pytest.raises(OutOfMemoryError):
            if linked:
                vm.allocate_linked(parent, sizes, names, [2] * (count // 2))
            else:
                reference_linked(vm, parent, sizes, names, [2] * (count // 2))
        states.append(vm_state(vm))
    assert states[0] == states[1]


def test_allocate_linked_rejects_groups_that_do_not_split_the_sizes():
    vm = small_vm()
    parent = vm.allocate(64)
    with pytest.raises(ValueError):
        vm.allocate_linked(parent, [64, 64], ["a", "b"], [1])
    with pytest.raises(ValueError):
        vm.allocate_linked(parent, [64], ["a"], [0, 1])


# ----------------------------------------------------------------------
# write_refs_many against a write_ref loop
# ----------------------------------------------------------------------
def populate(vm):
    """Objects in eden, the old generation and H2."""
    anchor = vm.roots.add(vm.allocate(4 * KiB, name="anchor"))
    olds = vm.allocate_many([512] * 6, [f"old{i}" for i in range(6)])
    for o in olds:
        vm.write_ref(anchor, o)
    tagged = vm.roots.add(vm.allocate(256, name="tagged"))
    h2s = vm.allocate_many([4 * KiB] * 6, [f"h2-{i}" for i in range(6)])
    for o in h2s:
        vm.write_ref(tagged, o)
    vm.h2_tag_root(tagged, "t")
    vm.h2_move("t")
    vm.major_gc()
    youngs = vm.allocate_many([256] * 6, [f"young{i}" for i in range(6)])
    for o in youngs:
        vm.write_ref(anchor, o)
    objs = olds + h2s + youngs + [anchor, tagged]
    assert {o.space for o in h2s} == {SpaceId.H2}
    assert {o.space for o in olds} == {SpaceId.OLD}
    return objs


STORES = st.lists(
    st.tuples(
        st.integers(0, 19),  # source
        st.integers(-1, 19),  # target (-1: a primitive store)
        st.integers(-1, 19),  # removed reference (-1: none)
    ),
    max_size=30,
)


@given(stores=STORES, freed=st.integers(-1, 19), faulty=st.booleans())
@settings(max_examples=40, deadline=None)
def test_write_refs_many_matches_write_ref_loop(stores, freed, faulty):
    faults = (
        FaultConfig(
            seed=5, read_error_rate=0.3, write_error_rate=0.3, sigbus_rate=0.3
        )
        if faulty
        else None
    )
    results = []
    for batched in (True, False):
        vm = small_vm(teraheap=True, faults=faults)
        objs = populate(vm)
        if freed >= 0:
            # A source whose H2 region was reclaimed: stores into it fault.
            vm.store.space[objs[freed].oid] = SPACE_FREED
        ops_before = (
            vm.resilience.plan.op_index if vm.resilience is not None else 0
        )
        error = None
        try:
            if batched:
                vm.write_refs_many(
                    [objs[s].oid for s, _, _ in stores],
                    [objs[t].oid if t >= 0 else 0 for _, t, _ in stores],
                    [objs[r].oid if r >= 0 else 0 for _, _, r in stores],
                )
            else:
                for s, t, r in stores:
                    vm.write_ref(
                        objs[s],
                        objs[t] if t >= 0 else None,
                        remove=objs[r] if r >= 0 else None,
                    )
        except SegmentationFault as exc:
            error = str(exc)
        ops = (
            vm.resilience.plan.op_index - ops_before
            if vm.resilience is not None
            else 0
        )
        results.append((error, ops, vm_state(vm)))
    assert results[0] == results[1]


def test_write_refs_many_reads_before_each_store():
    states = []
    for batched in (True, False):
        vm = small_vm(teraheap=True)
        objs = populate(vm)
        steps = [(objs[i], objs[6 + i], objs[12 + i]) for i in range(6)]
        if batched:
            vm.write_refs_many(
                [a.oid for a, _, _ in steps],
                reads=[(a.oid, b.oid, c.oid) for a, b, c in steps],
            )
        else:
            for a, b, c in steps:
                vm.read_object(a)
                vm.read_many([b, c])
                vm.write_ref(a, None)
        states.append(vm_state(vm))
    assert states[0] == states[1]
    assert vm.h2.page_cache.hits + vm.h2.page_cache.misses > 0


def test_write_refs_many_failed_mapping_write_keeps_the_refs_update():
    # A store whose mapping write raises has already updated its source's
    # refs but never ran its barrier: no charge and no card mark.
    results = []
    for batched in (True, False):
        vm = small_vm(teraheap=True)
        objs = populate(vm)
        mutator_store = vm.h2.mutator_store
        calls = []

        def failing(obj, nbytes=8):
            calls.append(obj.oid)
            if len(calls) == 3:
                raise RuntimeError("mapping write failed")
            mutator_store(obj, nbytes)

        vm.h2.mutator_store = failing
        stores = [(0, 12), (6, 13), (1, 14), (7, 15), (8, 16), (9, 17)]
        with pytest.raises(RuntimeError, match="mapping write failed"):
            if batched:
                vm.write_refs_many(
                    [objs[s].oid for s, _ in stores],
                    [objs[t].oid for _, t in stores],
                )
            else:
                for s, t in stores:
                    vm.write_ref(objs[s], objs[t])
        results.append((calls, vm_state(vm)))
    assert results[0] == results[1]
    assert objs[16].oid in vm.store.refs[objs[8].oid]
