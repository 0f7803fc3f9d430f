"""Batched allocation: ``JavaVM.allocate_many`` against the per-object path.

``allocate_many`` is the one allocation kernel: ``allocate`` is its
one-element case, ``allocate_temp`` one call, and on a plain ``ManagedHeap``
it bump-allocates into eden by writing store columns directly.  These
tests pin it against the per-object path it replaced — a ``HeapObject``
row, one ``alloc_cost`` charge, ``heap.try_allocate`` and the minor →
major → emergency-backpressure → OOM escalation — on every heap kind, with
heaps small enough that collections fire in the middle of a batch: same
store rows, same space lists, same clock bit for bit, same GC history.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro import JavaVM, OutOfMemoryError, TeraHeapConfig, VMConfig, gb
from repro.clock import Bucket
from repro.config import GovernorConfig, PantheraConfig
from repro.heap.heap import ManagedHeap
from repro.heap.object_model import HeapObject, SpaceId
from repro.heap.store import HeapStore
from repro.runtime import TEMP_CHUNK
from repro.units import KiB

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


def reference_allocate(
    vm, size, name="", frame=None, scan_factor=1.0, temporary=False
):
    """The per-object allocation path ``allocate_many`` replaces.

    Callers used to set ``scan_factor`` after ``allocate`` returned; it
    is set at creation here, as the kernel does.  The two differ only in
    the row of an object whose allocation raised OOM, which no space,
    root or collector ever sees.
    """
    obj = HeapObject(
        size, name=name, scan_factor=scan_factor, store=vm.store
    )
    vm.clock.charge(vm.cost.alloc_cost, Bucket.OTHER)
    heap = vm.heap
    if not heap.try_allocate(obj):
        vm.minor_gc()
        if not heap.try_allocate(obj):
            vm.major_gc()
            if not heap.try_allocate(obj) and not vm._emergency_backpressure(
                obj
            ):
                vm.oom = True
                if temporary:
                    message = "temporary allocation failed"
                else:
                    message = f"cannot allocate {size} B after full GC"
                raise OutOfMemoryError(message, requested=size)
    if frame is not None:
        frame.push(obj)
    return obj


def reference_temp(vm, nbytes):
    remaining = nbytes
    while remaining > 0:
        chunk = min(TEMP_CHUNK, max(remaining, 16))
        reference_allocate(vm, chunk, name="sd-temp", temporary=True)
        remaining -= chunk


def vm_state(vm):
    store = vm.store
    heap = vm.heap
    state = {
        "columns": [list(getattr(store, c)) for c in COLUMNS],
        "label": list(store.label),
        "name": list(store.name),
        "refs": [list(r) for r in store.refs],
        "handles": [h.oid if h is not None else None for h in store.handles],
        "allocated": (heap.allocated_objects, heap.allocated_bytes),
        "breakdown": vm.clock.breakdown(),
        "sub": vm.clock.sub_breakdown(),
        "events": list(vm.clock.events),
        "cycles": list(vm.collector.stats.cycles),
        "vm": (vm.alloc_stalls, vm.emergency_gcs, vm.oom),
        "frames": [
            [o.oid for o in frame.objects] for frame in vm.roots._frames
        ],
    }
    if isinstance(heap, ManagedHeap):
        state["spaces"] = [
            (s.space_id, s.top, [o.oid for o in s.objects])
            for s in heap.spaces()
        ]
        state["cards"] = sorted(heap.card_table.dirty_cards())
    else:
        state["spaces"] = [
            (r.state, r.top, [o.oid for o in r.objects])
            for r in heap.regions
        ]
    if vm.h2 is not None:
        cards = vm.h2.card_table
        state["h2"] = (
            dict(cards._states),
            cards.mutator_marks,
            vm.h2.used_bytes(),
            len(vm.h2.regions),
        )
    return state


def ps_vm():
    return JavaVM(VMConfig(heap_size=gb(1)), store=HeapStore())


def teraheap_vm():
    config = VMConfig(
        heap_size=gb(1),
        teraheap=TeraHeapConfig(
            enabled=True, h2_size=gb(64), region_size=16 * KiB
        ),
        page_cache_size=gb(1),
    )
    return JavaVM(config, store=HeapStore())


def g1_vm():
    return JavaVM(VMConfig(heap_size=gb(1), collector="g1"), store=HeapStore())


def panthera_vm():
    config = VMConfig(
        heap_size=gb(1),
        collector="panthera",
        panthera=PantheraConfig(
            dram_old_size=gb(0.1),
            nvm_old_size=gb(0.57),
            pretenure_threshold=20 * KiB,
        ),
    )
    return JavaVM(config, store=HeapStore())


def memmode_vm():
    return JavaVM(
        VMConfig(heap_size=gb(1), collector="memmode"), store=HeapStore()
    )


BUILDERS = {
    "ps": ps_vm,
    "teraheap": teraheap_vm,
    "g1": g1_vm,
    "panthera": panthera_vm,
    "memmode": memmode_vm,
}

# Mostly small and mid-sized chunks (some past Panthera's pretenure
# threshold and G1's humongous limit), a few larger than half of eden.
SMALL = st.integers(16, 4 * KiB)
MID = st.integers(4 * KiB, 40 * KiB)
SIZES = st.one_of(SMALL, SMALL, MID, MID, st.integers(100 * KiB, 160 * KiB))
OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("batch"),
            st.lists(SIZES, max_size=24),
            st.sampled_from([1.0, 2.5]),
            st.booleans(),
        ),
        st.tuples(st.just("temp"), st.integers(0, 100 * KiB)),
    ),
    max_size=8,
)


def run_ops(vm, ops, batched):
    """Apply ``ops``; returns the error that stopped them (or None)."""
    kept = []
    try:
        for op in ops:
            if op[0] == "temp":
                if batched:
                    vm.allocate_temp(op[1])
                else:
                    reference_temp(vm, op[1])
                continue
            _, sizes, scan_factor, keep = op
            frame = vm.roots.open_frame()
            names = [f"b{len(kept)}-c{i}" for i in range(len(sizes))]
            if batched:
                chunks = vm.allocate_many(
                    sizes, names, frame=frame, scan_factor=scan_factor
                )
            else:
                chunks = [
                    reference_allocate(vm, size, name, frame, scan_factor)
                    for size, name in zip(sizes, names)
                ]
            # A partition root over the batch, as RDD._compute builds it.
            frame.push(
                vm.allocate(max(64, 8 * len(chunks)), refs=chunks, name="r")
            )
            if keep:
                kept.append(frame)
                if len(kept) > 2:
                    vm.roots.close_frame(kept.pop(0))
            else:
                vm.roots.close_frame(frame)
    except OutOfMemoryError as exc:
        return str(exc).split(" (")[0]
    return None


@pytest.mark.parametrize("kind", sorted(BUILDERS))
@given(ops=OPS)
@settings(max_examples=30, deadline=None)
def test_allocate_many_matches_per_object_loop(kind, ops):
    batched_vm = BUILDERS[kind]()
    looped_vm = BUILDERS[kind]()
    batched_error = run_ops(batched_vm, ops, batched=True)
    looped_error = run_ops(looped_vm, ops, batched=False)
    assert batched_error == looped_error
    assert vm_state(batched_vm) == vm_state(looped_vm)


@pytest.mark.parametrize("kind", sorted(BUILDERS))
def test_fixture_vms_collect_mid_batch(kind):
    vm = BUILDERS[kind]()
    with vm.roots.frame() as frame:
        vm.allocate_many(
            [12 * KiB] * 40, [f"c{i}" for i in range(40)], frame=frame
        )
    assert len(vm.collector.stats.cycles) >= 1


def test_objects_early_in_a_batch_survive_a_later_gc_through_the_frame():
    vm = ps_vm()
    eden = vm.heap.eden.capacity
    count = 2 * eden // (16 * KiB)
    with vm.roots.frame() as frame:
        objs = vm.allocate_many(
            [16 * KiB] * count,
            [f"c{i}" for i in range(count)],
            frame=frame,
            scan_factor=3.0,
        )
        assert frame.objects == objs
        assert vm.collector.stats.count("minor") >= 1
        live = {o.oid for o in vm.heap.all_objects()}
        assert all(o.oid in live for o in objs)
        # The first object was allocated before the first scavenge and
        # was copied out of eden, not left behind as garbage.
        assert objs[0].space in (SpaceId.FROM, SpaceId.OLD)
        assert {o.scan_factor for o in objs} == {3.0}
    # Without a frame the same batch leaves nothing behind once the last
    # chunk is collected.
    vm = ps_vm()
    vm.allocate_many([16 * KiB] * count, [f"c{i}" for i in range(count)])
    vm.minor_gc()
    assert not vm.heap.all_objects()


def test_undersized_object_mid_batch_raises_after_the_prefix():
    sizes = [2 * KiB, 100 * KiB, 8, 4 * KiB]
    names = ["a", "b", "c", "d"]

    def build():
        vm = ps_vm()
        return vm, vm.roots.open_frame()

    batched_vm, batched_frame = build()
    with pytest.raises(ValueError, match="object size 8 below minimum 16"):
        batched_vm.allocate_many(sizes, names, frame=batched_frame)
    looped_vm, looped_frame = build()
    with pytest.raises(ValueError, match="object size 8 below minimum 16"):
        for size, name in zip(sizes, names):
            reference_allocate(looped_vm, size, name, looped_frame)
    prefix_vm, prefix_frame = build()
    prefix_vm.allocate_many(sizes[:2], names[:2], frame=prefix_frame)
    assert vm_state(batched_vm) == vm_state(looped_vm)
    assert vm_state(batched_vm) == vm_state(prefix_vm)
    assert [o.name for o in batched_frame.objects] == ["a", "b"]


@pytest.mark.parametrize("kind", ["ps", "g1", "panthera"])
def test_oom_mid_batch_matches_per_object_loop(kind):
    sizes = [12 * KiB] * 400
    names = [f"c{i}" for i in range(400)]
    batched_vm = BUILDERS[kind]()
    frame = batched_vm.roots.open_frame()
    with pytest.raises(OutOfMemoryError) as batched_exc:
        batched_vm.allocate_many(sizes, names, frame=frame)
    looped_vm = BUILDERS[kind]()
    frame = looped_vm.roots.open_frame()
    with pytest.raises(OutOfMemoryError) as looped_exc:
        for size, name in zip(sizes, names):
            reference_allocate(looped_vm, size, name, frame)
    assert batched_vm.oom
    assert str(batched_exc.value) == str(looped_exc.value)
    assert batched_exc.value.requested == 12 * KiB
    assert "simulated heap report" in batched_exc.value.heap_report
    assert vm_state(batched_vm) == vm_state(looped_vm)


def test_temporary_oom_keeps_its_message():
    vm = ps_vm()
    vm.heap.eden.top = vm.heap.eden.end  # a full eden that GC cannot empty
    vm.heap.old.top = vm.heap.old.end
    vm.minor_gc = vm.major_gc = lambda: None
    with pytest.raises(OutOfMemoryError) as exc:
        vm.allocate_temp(TEMP_CHUNK + 5)
    assert str(exc.value) == "temporary allocation failed"
    assert exc.value.requested == TEMP_CHUNK
    assert exc.value.available == 0


def governed_vm():
    vm = JavaVM(
        VMConfig(
            heap_size=gb(2),
            teraheap=TeraHeapConfig(
                enabled=True, h2_size=gb(64), region_size=32 * KiB
            ),
            page_cache_size=gb(2),
            governor=GovernorConfig(),
        ),
        store=HeapStore(),
    )
    for _ in range(4):  # BROWNOUT ratio: the circuit opens
        vm.health.observe("nvme", "write", 4096, 2e-4, 1e-4)
    hoard = []
    while (vm.heap.used() + 32 * KiB) / vm.heap.capacity < 0.9:
        hoard.append(vm.roots.add(vm.allocate(32 * KiB, name="pin")))

    def shed(target):
        freed = 0
        while hoard and freed < target:
            obj = hoard.pop()
            vm.roots.remove(obj)
            freed += obj.size
        return freed

    vm.register_pressure_handler(shed)
    return vm


def test_emergency_backpressure_mid_batch_matches_per_object_loop():
    sizes = [32 * KiB] * 8
    names = [f"p{i}" for i in range(8)]
    batched_vm = governed_vm()
    with batched_vm.roots.frame() as frame:
        batched_vm.allocate_many(sizes, names, frame=frame)
        batched_state = vm_state(batched_vm)
    looped_vm = governed_vm()
    with looped_vm.roots.frame() as frame:
        for size, name in zip(sizes, names):
            reference_allocate(looped_vm, size, name, frame)
        looped_state = vm_state(looped_vm)
    assert batched_vm.alloc_stalls >= 1
    assert batched_vm.alloc_stalls == looped_vm.alloc_stalls
    assert batched_state == looped_state


def test_allocate_is_the_one_element_case():
    batched_vm, looped_vm = ps_vm(), ps_vm()
    for vm in (batched_vm, looped_vm):
        vm.roots.add(vm.allocate(64, name="anchor", is_metadata=True))
    child = batched_vm.allocate(32, name="child")
    obj = batched_vm.allocate(
        128, refs=[child], name="x", is_reference=True, serializable=False
    )
    assert obj.is_reference and not obj.serializable
    assert list(obj.refs) == [child]
    reference_child = HeapObject(32, name="child", store=looped_vm.store)
    reference_obj = HeapObject(
        128,
        refs=[reference_child],
        name="x",
        is_reference=True,
        serializable=False,
        store=looped_vm.store,
    )
    for o in (reference_child, reference_obj):
        looped_vm.clock.charge(looped_vm.cost.alloc_cost, Bucket.OTHER)
        assert looped_vm.heap.try_allocate(o)
    assert vm_state(batched_vm) == vm_state(looped_vm)


def test_bump_allocation_keeps_eden_indexes_fresh():
    vm = ps_vm()
    eden = vm.heap.eden
    for count in (3, 5):
        eden.oid_array()  # warm the cache
        vm.allocate_many([1 * KiB] * count, ["x"] * count)
        assert list(eden.oid_array()) == [o.oid for o in eden.objects]
        assert list(eden._addrs) == [o.address for o in eden.objects]
        last = eden.objects[-1]
        assert eden.oids_overlapping(last.address, last.address + 1) == [
            last.oid
        ]
