"""Batched mutator reads: ``JavaVM.read_many`` and the page-cache kernel.

``read_many`` sends consecutive H2 objects down as ``(address, size)``
spans, ``MappedFile.load_spans`` touches each span with one page-cache
access, and ``PageCache.access`` inserts a span's missing pages and evicts
once.  These tests pin all three against the per-object and per-page
paths they replace: same clock charges bit for bit, same LRU order and
dirty flags, same counters and the same device calls.
"""

import pytest
from hypothesis import given, settings, strategies as st

from helpers import make_group
from repro import JavaVM, SegmentationFault, TeraHeapConfig, VMConfig, gb
from repro.clock import Bucket, Clock
from repro.config import PantheraConfig
from repro.devices.base import AccessPattern
from repro.devices.mmap import MappedFile
from repro.devices.nvm import NVM
from repro.devices.nvme import NVMeSSD
from repro.devices.page_cache import PageCache, _count_runs
from repro.faults import FaultConfig
from repro.heap.object_model import SpaceId
from repro.heap.store import HeapStore
from repro.units import KiB

PATTERNS = st.sampled_from(list(AccessPattern))


class RecordingSSD(NVMeSSD):
    """An NVMe SSD that logs every request it is charged for."""

    def __init__(self, clock):
        super().__init__(clock)
        self.calls = []

    def read(self, nbytes, pattern=AccessPattern.SEQUENTIAL, requests=1):
        self.calls.append(("read", nbytes, pattern, requests))
        return super().read(nbytes, pattern, requests)

    def write(self, nbytes, pattern=AccessPattern.SEQUENTIAL, requests=1):
        self.calls.append(("write", nbytes, pattern, requests))
        return super().write(nbytes, pattern, requests)


def reference_access(cache, pages, write, pattern):
    """The per-page algorithm the span kernel replaces: insert one missing
    page at the MRU end, evict down to the limit, repeat."""
    cached = cache._pages
    hits = 0
    miss_pages = []
    for page in pages:
        if page in cached:
            hits += 1
            cached.move_to_end(page)
            if write:
                cached[page] = True
        else:
            miss_pages.append(page)
    if miss_pages:
        cache.device.read(
            len(miss_pages) * cache.page_size,
            pattern,
            requests=_count_runs(miss_pages),
        )
        for page in miss_pages:
            cached[page] = write
            cached.move_to_end(page)
            cache._evict_over_limit()
    cache.hits += hits
    cache.misses += len(miss_pages)
    return hits, len(miss_pages)


def cache_state(cache):
    device = cache.device
    return (
        list(cache._pages.items()),
        cache.hits,
        cache.misses,
        cache.evictions,
        cache.writebacks,
        dict(cache.durable_image.pages),
        device.calls,
        vars(device.traffic),
        device.clock.breakdown(),
    )


def new_cache(pages=8):
    return PageCache(RecordingSSD(Clock()), capacity=pages * 4096)


# A batch is a list of page spans (some wider than the 8-page cache)
# touched with one write flag and pattern.
SPAN = st.tuples(st.integers(0, 40), st.integers(1, 20)).map(
    lambda t: range(t[0], t[0] + t[1])
)
BATCHES = st.lists(
    st.tuples(st.lists(SPAN, max_size=6), st.booleans(), PATTERNS),
    max_size=12,
)


@given(BATCHES)
@settings(max_examples=150, deadline=None)
def test_access_matches_per_page_reference(batches):
    batched, reference = new_cache(), new_cache()
    for spans, write, pattern in batches:
        for span in spans:
            got = batched.access(span, write, pattern)
            assert got == reference_access(reference, span, write, pattern)
        assert cache_state(batched) == cache_state(reference)


def test_wide_dirty_span_writes_back_in_lru_order():
    batched, reference = new_cache(4), new_cache(4)
    for cache in (batched, reference):
        cache.access(range(0, 4), write=True)
    batched.access(range(2, 12), False, AccessPattern.RANDOM)
    reference_access(reference, range(2, 12), False, AccessPattern.RANDOM)
    assert cache_state(batched) == cache_state(reference)
    assert batched.writebacks == 4
    assert batched.evictions == 8
    # Dirty pages 0 and 1 went first, then the re-touched 2 and 3.
    assert list(batched._pages) == [8, 9, 10, 11]


def test_access_accepts_non_range_pages():
    batched, reference = new_cache(), new_cache()
    for pages in ([5, 3, 4], (9,), [1, 2, 7]):
        batched.access(iter(pages), True, AccessPattern.SEQUENTIAL)
        reference_access(reference, pages, True, AccessPattern.SEQUENTIAL)
    assert cache_state(batched) == cache_state(reference)


def new_mapping():
    device = RecordingSSD(Clock())
    return MappedFile(device, 0x1000, 48 * 4096, PageCache(device, 8 * 4096))


# (address, nbytes) spans inside a 48-page mapping, some wider than its
# 8-page cache, and some sharing pages with their neighbours.
BYTE_SPANS = st.lists(
    st.tuples(st.integers(0, 40 * 4096), st.integers(0, 20 * 4096)).map(
        lambda t: (0x1000 + t[0], min(t[1], 48 * 4096 - t[0]))
    ),
    max_size=12,
)


@given(BYTE_SPANS, PATTERNS)
@settings(max_examples=100, deadline=None)
def test_load_spans_matches_load_loop(spans, pattern):
    batched, looped = new_mapping(), new_mapping()
    got = batched.load_spans(spans, pattern)
    hits = misses = 0
    for address, nbytes in spans:
        h, m = looped.load(address, nbytes, pattern)
        hits, misses = hits + h, misses + m
    assert got == (hits, misses)
    assert cache_state(batched.cache) == cache_state(looped.cache)
    assert batched.page_faults == looped.page_faults == misses


# ----------------------------------------------------------------------
# read_many against a per-object read_object loop
# ----------------------------------------------------------------------
def teraheap_vm(faults=None):
    config = VMConfig(
        heap_size=gb(8),
        teraheap=TeraHeapConfig(
            enabled=True, h2_size=gb(64), region_size=16 * KiB
        ),
        # 12 pages: the reads below evict, and write dirty pages back.
        page_cache_size=12 * 4096,
        faults=faults,
    )
    vm = JavaVM(config, store=HeapStore())
    objs = []
    for g in range(3):
        label = f"grp-{g}"
        root, children = make_group(vm, count=8, size=(3 + g) * KiB, name=label)
        vm.h2_tag_root(root, label)
        vm.h2_move(label)
        vm.major_gc()
        objs += [root] + children
    # Dirty some H2 pages through the mutator store path.
    for obj in objs[::5]:
        vm.write_ref(obj, None)
    return vm, objs + rooted(vm, [(2 + i % 3) * KiB for i in range(5)])


def rooted(vm, sizes):
    objs = [vm.allocate(size) for size in sizes]
    for obj in objs:
        vm.roots.add(obj)
    return objs


def sd_vm():
    vm = JavaVM(
        VMConfig(heap_size=gb(8), page_cache_size=gb(1)), store=HeapStore()
    )
    objs = rooted(vm, [(1 + i % 5) * KiB for i in range(20)])
    vm.minor_gc()
    return vm, objs


def memmode_vm():
    vm = JavaVM(
        VMConfig(heap_size=gb(4), collector="memmode"), store=HeapStore()
    )
    return vm, rooted(vm, [(2 + i % 3) * KiB for i in range(20)])


def panthera_vm():
    config = VMConfig(
        heap_size=gb(4),
        collector="panthera",
        panthera=PantheraConfig(
            dram_old_size=gb(0.01),
            nvm_old_size=gb(2.99),
            pretenure_threshold=32 * KiB,
        ),
        young_fraction=1.0 / 6.0,
    )
    vm = JavaVM(config, store=HeapStore())
    nvm = NVM(vm.clock)
    vm.old_gen_device = nvm
    vm.collector.nvm = nvm
    # Large objects pretenure to the old gen: the first stay in its DRAM
    # component, the rest land on NVM; small ones stay young.
    return vm, rooted(vm, [64 * KiB] * 4 + [1 * KiB] * 4)


def vm_state(vm):
    state = [vm.clock.breakdown(), vm.clock.sub_breakdown()]
    if vm.old_gen_device is not None:
        state.append(vars(vm.old_gen_device.traffic))
    if vm.h2 is not None:
        cache = vm.h2.page_cache
        state += [
            list(cache._pages.items()),
            cache.hits,
            cache.misses,
            cache.evictions,
            cache.writebacks,
            vm.h2.mapping.page_faults,
            vars(vm.h2.device.traffic),
        ]
    return state


BUILDERS = {
    "teraheap": teraheap_vm,
    "spark-sd": sd_vm,
    "memmode": memmode_vm,
    "panthera": panthera_vm,
}


@pytest.mark.parametrize("kind", sorted(BUILDERS))
@given(picks=st.lists(st.integers(0, 1000), max_size=40), pattern=PATTERNS)
@settings(max_examples=15, deadline=None)
def test_read_many_matches_read_object_loop(kind, picks, pattern):
    batched_vm, batched_objs = BUILDERS[kind]()
    looped_vm, looped_objs = BUILDERS[kind]()
    assert vm_state(batched_vm) == vm_state(looped_vm)
    order = [i % len(batched_objs) for i in picks]
    batched_vm.read_many([batched_objs[i] for i in order], pattern)
    for i in order:
        looped_vm.read_object(looped_objs[i], pattern)
    assert vm_state(batched_vm) == vm_state(looped_vm)


def test_fixture_vms_cover_every_read_branch():
    vm, objs = teraheap_vm()
    spaces = {obj.space for obj in objs}
    assert {SpaceId.H2, SpaceId.EDEN} <= spaces
    assert any(dirty for dirty in vm.h2.page_cache._pages.values())
    vm.read_many(objs * 2)
    assert vm.h2.page_cache.writebacks > 0
    vm, objs = panthera_vm()
    on_nvm = [vm.collector.on_nvm(obj) for obj in objs]
    assert any(on_nvm) and not all(on_nvm)


def test_freed_object_mid_batch_raises_after_the_prefix():
    def build():
        vm, objs = teraheap_vm()
        root, children = make_group(vm, count=4, size=2 * KiB, name="doomed")
        vm.h2_tag_root(root, "doomed")
        vm.h2_move("doomed")
        vm.major_gc()
        vm.roots.remove(root)
        vm.major_gc()
        assert children[0].space is SpaceId.FREED
        h2 = [obj for obj in objs if obj.space is SpaceId.H2]
        h1 = [obj for obj in objs if obj.space is not SpaceId.H2]
        return vm, h2[:3] + h1[:1] + h2[3:5] + [children[0]] + h2[5:8]

    batched_vm, batch = build()
    looped_vm, loop = build()
    with pytest.raises(SegmentationFault, match="reclaimed"):
        batched_vm.read_many(batch)
    with pytest.raises(SegmentationFault, match="reclaimed"):
        for obj in loop:
            looped_vm.read_object(obj)
    assert vm_state(batched_vm) == vm_state(looped_vm)
    # The objects after the freed one were never read.
    prefix_vm, batch = build()
    prefix_vm.read_many(batch[:6])
    assert vm_state(batched_vm) == vm_state(prefix_vm)


@pytest.mark.parametrize("seed", [3, 11, 42])
def test_read_many_keeps_per_span_fault_ops(seed):
    faults = FaultConfig(
        seed=seed,
        read_error_rate=0.15,
        sigbus_rate=0.3,
        latency_spike_rate=0.1,
    )
    batched_vm, batched_objs = teraheap_vm(faults)
    looped_vm, looped_objs = teraheap_vm(faults)
    batched_vm.read_many(batched_objs * 3, AccessPattern.RANDOM)
    for obj in looped_objs * 3:
        looped_vm.read_object(obj, AccessPattern.RANDOM)
    assert vm_state(batched_vm) == vm_state(looped_vm)
    assert batched_vm.resilience.plan.op_index == (
        looped_vm.resilience.plan.op_index
    )
    assert vars(batched_vm.resilience.log) == vars(looped_vm.resilience.log)
    assert batched_vm.h2.mapping.sigbus_count == (
        looped_vm.h2.mapping.sigbus_count
    )
    assert batched_vm.h2.mapping.sigbus_count > 0
    assert batched_vm.resilience.log.retries


def test_mapping_bounds_fault_mid_batch_keeps_the_prefix():
    def build():
        device = RecordingSSD(Clock())
        return MappedFile(device, 0x1000, 8 * 4096, PageCache(device, 4 * 4096))

    batched, looped = build(), build()
    spans = [(0x1000, 5000), (0x1000 + 6 * 4096, 100), (0x1000 + 8 * 4096, 1)]
    with pytest.raises(SegmentationFault, match="outside mapping"):
        batched.load_spans(spans)
    with pytest.raises(SegmentationFault, match="outside mapping"):
        for address, nbytes in spans:
            looped.load(address, nbytes)
    assert cache_state(batched.cache) == cache_state(looped.cache)
    assert batched.page_faults == looped.page_faults == 3


# ----------------------------------------------------------------------
# Clock buckets
# ----------------------------------------------------------------------
@given(
    st.lists(
        st.tuples(
            st.sampled_from([None] + list(Bucket)), st.floats(0, 1e3)
        ),
        max_size=60,
    )
)
def test_bucket_keys_keep_breakdown_order_and_sum(charges):
    clock = Clock()
    for bucket, seconds in charges:
        clock.charge(seconds, bucket)
    breakdown = clock.breakdown()
    assert list(breakdown) == [b.value for b in Bucket]
    assert clock.now == sum(breakdown.values())
    # Identity-hashed members still key dicts and sets like the enum.
    reversed_keys = {b: b.value for b in reversed(list(Bucket))}
    assert all(reversed_keys[b] == b.value for b in Bucket)
    assert Bucket("other") in {Bucket.OTHER}


@pytest.mark.parametrize("bad", ["other", SpaceId.OLD, 0, object()])
def test_charge_rejects_non_bucket_values(bad):
    with pytest.raises(ValueError, match="unknown clock bucket"):
        Clock().charge(1.0, bad)
