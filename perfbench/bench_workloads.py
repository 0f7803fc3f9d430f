"""The benchmark's four workloads: set-up, one job, and its outputs.

Each workload is a class whose constructor is the set-up (VM, context,
devices and input generation), whose :meth:`run` is the job, and whose
:meth:`outputs` are the simulated results the job is checked on.  Every
job is one closed-loop client running one job to completion; the page
cache starts empty because every job builds fresh VMs.

Why each workload was chosen is recorded in ``README.md`` beside this
file.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List

from repro import faults
from repro.clock import Bucket
from repro.experiments.configs import (
    GIRAPH_WORKLOADS_TABLE4,
    SPARK_WORKLOADS_TABLE3,
)
from repro.experiments.runner import build_giraph_vm, build_spark_vm
from repro.frameworks.giraph.workloads import make_giraph_graph, run_giraph
from repro.frameworks.spark.workloads import SPARK_WORKLOADS
from repro.server import ServerBox, ServerSpec
from repro.units import gb

#: Spark cells: PageRank at the Fig. 6 80 GB DRAM point, full iterations
SPARK_WORKLOAD = "PR"
SPARK_DRAM_GB = 80
SPARK_SCALE = 1.0
#: Giraph cell: PageRank on TeraHeap at 85 GB
GIRAPH_WORKLOAD = "PR"
GIRAPH_DRAM_GB = 85
#: server cell: 4 tenants on one NVMe, arbiter on, 1 GB mean dataset.
#: 30 iterations keep one job near a host second; at a 2 GB mean the box
#: OOMs beyond 3 iterations (two cached iterations of the largest tenant,
#: 3.2 GB each, overflow its 4 GB share of the 16 GB H2).
SERVER_TENANTS = 4
SERVER_MEAN_GB = 1.0
SERVER_SPREAD = 0.6
SERVER_ITERATIONS = 30


def _f(value: float) -> str:
    """Simulated seconds at the 9 decimals the repo's digests use."""
    return f"{value:.9f}"


def _traffic(prefix: str, device) -> Dict[str, int]:
    t = device.traffic
    return {
        f"{prefix}.bytes_read": t.bytes_read,
        f"{prefix}.bytes_written": t.bytes_written,
        f"{prefix}.read_ops": t.read_ops,
        f"{prefix}.write_ops": t.write_ops,
    }


def vm_outputs(vm) -> Dict[str, object]:
    """Buckets, GC counts, H2, page-cache and H2-device counters of a VM."""
    out: Dict[str, object] = {
        f"bucket.{name}": _f(seconds)
        for name, seconds in vm.breakdown().items()
    }
    stats = vm.collector.stats
    out.update(
        {
            "gc.minor": stats.minor_count,
            "gc.major": stats.major_count,
            "gc.tasks": stats.total_tasks(),
            "gc.steals": stats.total_steals(),
            "alloc_stalls": vm.alloc_stalls,
            "objects": vm.store.object_count,
        }
    )
    h2 = vm.h2
    if h2 is not None:
        pc = h2.page_cache
        out.update(
            {
                "h2.regions_allocated": h2.regions_allocated_total,
                "h2.regions_reclaimed": h2.regions_reclaimed,
                "h2.bytes_moved": h2.bytes_moved,
                "h2.objects_moved": h2.objects_moved,
                "h2.bytes_reclaimed": h2.bytes_reclaimed,
                "page_cache.hits": pc.hits,
                "page_cache.misses": pc.misses,
                "page_cache.evictions": pc.evictions,
                "page_cache.writebacks": pc.writebacks,
            }
        )
        out.update(_traffic("h2_device", h2.device))
    return out


def conservation_failures(vm, tag: str) -> List[str]:
    """Accounting laws that must hold for every seed."""
    failures = []
    total = sum(vm.breakdown().values())
    if vm.clock.now != total:
        failures.append(
            f"{tag}: clock.now {vm.clock.now!r} != sum(breakdown) {total!r}"
        )
    if vm.h2 is not None:
        pc = vm.h2.page_cache
        read = vm.h2.device.traffic.bytes_read
        if read != pc.misses * pc.page_size:
            failures.append(
                f"{tag}: H2 device read {read} B != page-cache misses "
                f"{pc.misses} x {pc.page_size} B"
            )
    return failures


def _config_hash(params: Dict[str, object], vm_configs: List[str]) -> str:
    blob = json.dumps(
        {"params": params, "vm_configs": vm_configs}, sort_keys=True
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


class Workload:
    """Common shape; subclasses build in ``__init__`` and run in ``run``."""

    #: True when the input depends on ``--seed``
    seeded = False
    params: Dict[str, object] = {}

    def __init__(self, seed: int):
        # Fresh process-default heap store and registries per job, so jobs
        # in one process do not inherit each other's oids.
        faults.reset_registries()

    @property
    def vms(self) -> list:
        raise NotImplementedError

    @property
    def devices(self) -> list:
        """Every device model the job's traffic goes through."""
        raise NotImplementedError

    @property
    def sim_s(self) -> float:
        raise NotImplementedError

    def run(self) -> None:
        raise NotImplementedError

    def outputs(self) -> Dict[str, object]:
        raise NotImplementedError

    def config_hash(self) -> str:
        return _config_hash(self.params, [repr(vm.config) for vm in self.vms])

    def conservation_failures(self) -> List[str]:
        failures = []
        for index, vm in enumerate(self.vms):
            failures += conservation_failures(vm, f"vm{index}")
        return failures

    def counters(self) -> Dict[str, float]:
        """Per-layer counters read from public state after the job."""
        vms = self.vms

        def total(fn):
            return sum(fn(vm) for vm in vms)

        h2s = [vm.h2 for vm in vms if vm.h2 is not None]
        caches = [h2.page_cache for h2 in h2s]
        hits = sum(pc.hits for pc in caches)
        misses = sum(pc.misses for pc in caches)
        allocated = sum(h2.regions_allocated_total for h2 in h2s)
        reclaimed = sum(h2.regions_reclaimed for h2 in h2s)
        traffic = [d.traffic for d in self.devices]
        return {
            "runtime.alloc_stalls": total(lambda vm: vm.alloc_stalls),
            "heap.objects_created": total(lambda vm: vm.store.object_count),
            "gc.minor.count": total(
                lambda vm: vm.collector.stats.minor_count
            ),
            "gc.major.count": total(
                lambda vm: vm.collector.stats.major_count
            ),
            "gc.minor.sim_s": total(
                lambda vm: vm.clock.total(Bucket.MINOR_GC)
            ),
            "gc.major.sim_s": total(
                lambda vm: vm.clock.total(Bucket.MAJOR_GC)
            ),
            "gc.tasks": total(lambda vm: vm.collector.stats.total_tasks()),
            "gc.steals": total(lambda vm: vm.collector.stats.total_steals()),
            "teraheap.bytes_moved": sum(h2.bytes_moved for h2 in h2s),
            "teraheap.objects_moved": sum(h2.objects_moved for h2 in h2s),
            "teraheap.regions_allocated": allocated,
            "teraheap.regions_reclaimed": reclaimed,
            "teraheap.reclaim_ratio": (
                reclaimed / allocated if allocated else 0.0
            ),
            "devices.page_cache.hits": hits,
            "devices.page_cache.misses": misses,
            "devices.page_cache.hit_ratio": (
                hits / (hits + misses) if hits + misses else 0.0
            ),
            "devices.page_cache.evictions": sum(
                pc.evictions for pc in caches
            ),
            "devices.bytes_read": sum(t.bytes_read for t in traffic),
            "devices.bytes_written": sum(t.bytes_written for t in traffic),
            "devices.read_ops": sum(t.read_ops for t in traffic),
            "devices.write_ops": sum(t.write_ops for t in traffic),
            "devices.sd_io.sim_s": total(
                lambda vm: vm.clock.total(Bucket.SD_IO)
            ),
        }


class SparkPageRank(Workload):
    system = ""

    def __init__(self, seed: int):
        super().__init__(seed)
        cfg = SPARK_WORKLOADS_TABLE3[SPARK_WORKLOAD]
        self.params = {
            "workload": SPARK_WORKLOAD,
            "system": self.system,
            "dram_gb": SPARK_DRAM_GB,
            "scale": SPARK_SCALE,
            "dataset_gb": cfg.dataset_gb,
        }
        self.dataset = gb(cfg.dataset_gb)
        self.vm, self.ctx = build_spark_vm(self.system, SPARK_DRAM_GB, cfg)

    @property
    def vms(self) -> list:
        return [self.vm]

    @property
    def devices(self) -> list:
        devices = [self.ctx.conf.offheap_device]
        if self.vm.h2 is not None:
            devices.append(self.vm.h2.device)
        return devices

    @property
    def sim_s(self) -> float:
        return self.vm.clock.now

    def run(self) -> None:
        SPARK_WORKLOADS[SPARK_WORKLOAD](
            self.ctx, self.dataset, scale=SPARK_SCALE
        )

    def outputs(self) -> Dict[str, object]:
        out = vm_outputs(self.vm)
        out["sim_s"] = _f(self.sim_s)
        out.update(_traffic("offheap_device", self.ctx.conf.offheap_device))
        return out


class SparkPageRankTeraHeap(SparkPageRank):
    system = "teraheap"


class SparkPageRankSD(SparkPageRank):
    system = "spark-sd"


class GiraphPageRankTeraHeap(Workload):
    seeded = True

    def __init__(self, seed: int):
        super().__init__(seed)
        cfg = GIRAPH_WORKLOADS_TABLE4[GIRAPH_WORKLOAD]
        self.params = {
            "workload": GIRAPH_WORKLOAD,
            "system": "giraph-th",
            "dram_gb": GIRAPH_DRAM_GB,
            "dataset_gb": cfg.dataset_gb,
        }
        self.vm, self.conf = build_giraph_vm(
            "giraph-th", GIRAPH_DRAM_GB, cfg
        )
        self.graph = make_giraph_graph(gb(cfg.dataset_gb), seed=seed)
        self.job = None

    @property
    def vms(self) -> list:
        return [self.vm]

    @property
    def devices(self) -> list:
        return [self.conf.device, self.vm.h2.device]

    @property
    def sim_s(self) -> float:
        return self.vm.clock.now

    def run(self) -> None:
        self.job = run_giraph(self.vm, self.conf, self.graph, GIRAPH_WORKLOAD)

    def outputs(self) -> Dict[str, object]:
        out = vm_outputs(self.vm)
        out["sim_s"] = _f(self.sim_s)
        out["supersteps"] = self.job.supersteps_run
        out.update(_traffic("ooc_device", self.conf.device))
        return out

    def counters(self) -> Dict[str, float]:
        out = super().counters()
        out["frameworks.giraph.supersteps"] = self.job.supersteps_run
        return out


class ServerFourTenants(Workload):
    def __init__(self, seed: int):
        super().__init__(seed)
        self.spec = ServerSpec(
            tenants=SERVER_TENANTS,
            mean_dataset_bytes=gb(SERVER_MEAN_GB),
            arbiter=True,
            spread=SERVER_SPREAD,
            iterations=SERVER_ITERATIONS,
        )
        self.params = {"spec": repr(self.spec)}
        self.box = ServerBox(self.spec)
        self.report = None

    @property
    def vms(self) -> list:
        return [tenant.vm for tenant in self.box.tenants]

    @property
    def devices(self) -> list:
        return [vm.h2.device for vm in self.vms]

    @property
    def sim_s(self) -> float:
        return self.report.makespan

    def run(self) -> None:
        self.report = self.box.run()

    def outputs(self) -> Dict[str, object]:
        out: Dict[str, object] = {}
        for tenant in self.box.tenants:
            for key, value in vm_outputs(tenant.vm).items():
                out[f"{tenant.name}.{key}"] = value
        report = self.report
        epoch_log = "\n".join(report.epoch_log).encode()
        out.update(
            {
                "sim_s": _f(report.makespan),
                "aggregate_throughput": _f(report.aggregate_throughput),
                "device_busy_fraction": _f(report.device_busy_fraction),
                "fairness_gap": _f(report.fairness_gap),
                "epochs": report.epochs,
                "epoch_log.sha256": hashlib.sha256(epoch_log).hexdigest(),
            }
        )
        return out

    def counters(self) -> Dict[str, float]:
        out = super().counters()
        report = self.report
        out.update(
            {
                "server.steps": sum(
                    t.workload.steps for t in self.box.tenants
                ),
                "server.epochs": report.epochs,
                "server.device_busy_fraction": report.device_busy_fraction,
                "server.fairness_gap": report.fairness_gap,
            }
        )
        return out


WORKLOADS = {
    "spark-pr-th": SparkPageRankTeraHeap,
    "spark-pr-sd": SparkPageRankSD,
    "giraph-pr-th": GiraphPageRankTeraHeap,
    "server-4t": ServerFourTenants,
}
