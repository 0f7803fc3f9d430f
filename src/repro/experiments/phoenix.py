"""Phoenix matrix: executor crash-restart vs lineage recompute.

Spark's fault story is *lineage*: lose an executor, recompute the lost
partitions from the RDD recipe.  TeraHeap adds a second story: cached
partitions living in H2 sit on a durable device, so a successor VM can
recover the committed image and **re-adopt** the blocks instead of
recomputing them.  This experiment measures exactly that trade, by
killing the executor at every interesting point of a cached three-stage
job and driving it to completion through the bounded-restart loop
(:func:`repro.frameworks.spark.recovery.run_job`):

- crash *before* the first durable commit (mid promotion flush, mid
  coalesced H2 flush, between major-GC copy batches): nothing to adopt,
  every persisted block is reported lost and recomputed from lineage;
- crash *after* a commit (mid second epoch commit, mid second header
  batch, at a task boundary of the final pass): the successor re-adopts
  every committed block and recomputes nothing;
- crash with nothing persisted: pure lineage recompute, the Spark
  baseline the paper's Section 2 compares against.

Acceptance, per crash cell: the kill fires, the job completes with
exactly one restart and the crash-free value, the adoption ledger
balances (``adopted + quarantined + lost == persisted blocks``,
``recomputed == quarantined + lost``), post-commit cells adopt
everything and beat the cold-recompute wall whenever they adopted
anything, and under ``--check`` the whole cell — walls included — is
byte-identical when run twice.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from functools import partial
from typing import List, Optional, Sequence, Tuple

from ..config import TeraHeapConfig, VMConfig
from ..errors import RetryExhausted, UnrecoverableCrash
from ..faults.plan import FaultConfig
from ..frameworks.spark import (
    CachePolicy,
    SparkConf,
    SparkContext,
    run_job,
)
from ..runtime import JavaVM
from ..units import KiB, gb
from . import harness

#: partitions per RDD (also tasks per pass)
NUM_PARTITIONS = 4
#: passes over the cached data; a major GC (and, under ``commit``/
#: ``flush`` writeback, a durable epoch commit) separates them
PASSES = 3
REGION_SIZE = 64 * KiB
PROMOTION_BUFFER = 32 * KiB
WORKLOAD_SEED = 11
FAULT_SEED = 2207

POLICIES: Tuple[str, ...] = ("commit", "flush")
#: persisted fraction of the lineage chain: 0.0 nothing, 0.5 the
#: expensive middle stage, 1.0 middle and top
FRACTIONS: Tuple[float, ...] = (0.0, 0.5, 1.0)


@dataclass(frozen=True)
class CrashSpec:
    """One cell of the sweep: where to kill, and what recovery owes us.

    ``adopts`` is the calibrated expectation: ``True`` when the kill
    lands after the first durable epoch commit (so every persisted
    block must be re-adopted), ``False`` when it lands before (so every
    persisted block must be reported lost and recomputed).
    """

    name: str
    crash_point: Optional[str] = None
    crash_after: int = 1
    crash_stage: Optional[str] = None
    crash_task: int = 1
    adopts: bool = False


#: visit counts calibrated against the 3-pass workload (see the probe
#: table in docs/resilience.md): commits land at the end of each major
#: GC, so the first ``h2_flush``/``promotion_flush``/``major_compact``
#: visits precede any commit while the *second* ``epoch_commit`` and
#: ``region_metadata_update`` visits interrupt commit 2 with commit 1
#: already durable
CRASH_POINTS: Tuple[CrashSpec, ...] = (
    CrashSpec("task-boundary", crash_stage="top", crash_task=10, adopts=True),
    CrashSpec("epoch_commit", crash_point="epoch_commit", crash_after=2,
              adopts=True),
    CrashSpec("region_metadata_update",
              crash_point="region_metadata_update", crash_after=2,
              adopts=True),
    CrashSpec("h2_flush", crash_point="h2_flush", crash_after=1),
    CrashSpec("promotion_flush", crash_point="promotion_flush",
              crash_after=8),
    CrashSpec("major_compact", crash_point="major_compact", crash_after=30),
)
#: with nothing persisted the GC safepoints never run; only the task
#: boundary can kill the executor
NOTHING_PERSISTED_POINTS: Tuple[CrashSpec, ...] = (
    CrashSpec("task-boundary", crash_stage="top", crash_task=10),
)


def make_vm(policy: str, fault: Optional[FaultConfig] = None) -> JavaVM:
    return JavaVM(
        VMConfig(
            heap_size=gb(8),
            teraheap=TeraHeapConfig(
                enabled=True,
                h2_size=gb(64),
                region_size=REGION_SIZE,
                promotion_buffer_size=PROMOTION_BUFFER,
                writeback_policy=policy,
            ),
            page_cache_size=gb(8),
            faults=fault,
            audit="full",
        )
    )


def make_ctx(policy: str, fault: Optional[FaultConfig] = None) -> SparkContext:
    return SparkContext(
        make_vm(policy, fault),
        SparkConf(
            cache_policy=CachePolicy.TERAHEAP, num_partitions=NUM_PARTITIONS
        ),
    )


def build_job(ctx: SparkContext, fraction: float):
    """The three-stage cached job: src -> mid (expensive) -> top.

    ``mid`` costs 10x the compute of the other stages, so losing its
    cached blocks is what hurts — exactly the asymmetry that makes H2
    block survival worth measuring against lineage recompute.
    """
    src = ctx.range_rdd(gb(1), compute_ops_per_chunk=200, name="src")
    mid = src.map(ops_per_chunk=2000, name="mid")
    top = mid.map(ops_per_chunk=200, name="top")
    if fraction >= 0.5:
        mid.persist()
    if fraction >= 1.0:
        top.persist()

    def job() -> int:
        total = 0
        for i in range(PASSES):
            total += top.evaluate()
            if i < PASSES - 1:
                ctx.vm.major_gc()
        return total

    return job


def persisted_blocks(fraction: float) -> int:
    persisted = (1 if fraction >= 0.5 else 0) + (1 if fraction >= 1.0 else 0)
    return persisted * NUM_PARTITIONS


@dataclass
class CellResult(harness.Cell):
    """One (crash point, policy, fraction) cell of the matrix."""

    point: str
    policy: str
    fraction: float
    #: the crash-free value and full-recompute wall of this
    #: (policy, fraction), and whether the kill lands after a commit
    baseline_value: int = 0
    cold_wall: float = 0.0
    adopts: bool = False
    crashed: bool = False
    restarts: int = 0
    value: int = 0
    adopted: int = 0
    quarantined: int = 0
    lost: int = 0
    recomputed: int = 0
    recovery_wall: float = 0.0
    error: str = ""
    report_digests: List[str] = field(default_factory=list)

    @property
    def label(self) -> str:
        return f"{self.point}/{self.policy}/{self.fraction:g}"

    def row(self) -> str:
        outcome = self.error.splitlines()[0] if self.error else "ok"
        speedup = (
            f"{self.cold_wall / self.recovery_wall:5.2f}x"
            if self.recovery_wall > 0
            else "    -"
        )
        return (
            f"{self.point:24s} {self.policy:7s} {self.fraction:4.1f} "
            f"{'crash' if self.crashed else 'ran':6s} "
            f"r={self.restarts} "
            f"adopt={self.adopted:2d} quar={self.quarantined:2d} "
            f"lost={self.lost:2d} recomp={self.recomputed:2d} "
            f"wall={self.recovery_wall:8.4f}s vs cold {speedup} "
            f"{outcome}"
        )


def run_cell(
    spec: CrashSpec,
    policy: str,
    fraction: float,
    baseline: Tuple[int, float],
    workload_seed: int = WORKLOAD_SEED,
    fault_seed: int = FAULT_SEED,
) -> CellResult:
    result = CellResult(
        point=spec.name,
        policy=policy,
        fraction=fraction,
        baseline_value=baseline[0],
        cold_wall=baseline[1],
        adopts=spec.adopts,
    )
    fault = FaultConfig(
        seed=workload_seed,
        fault_seed=fault_seed,
        crash_point=spec.crash_point,
        crash_after=spec.crash_after,
        crash_stage=spec.crash_stage,
        crash_task=spec.crash_task,
    )
    ctx = make_ctx(policy, fault)
    job = build_job(ctx, fraction)
    try:
        job_result = run_job(ctx, job)
    except (RetryExhausted, UnrecoverableCrash) as exc:
        result.error = f"{type(exc).__name__}: {exc}"
        result.crashed = True
        return result
    result.value = job_result.value
    result.restarts = job_result.restarts
    result.report_digests = [r.digest() for r in job_result.reports]
    log = ctx.vm.resilience.log
    result.crashed = log.crash_count > 0
    result.adopted = log.adoption_count("adopted")
    result.quarantined = log.adoption_count("quarantined")
    result.lost = log.adoption_count("lost")
    result.recomputed = log.adoption_count("recomputed")
    # The successor VM's clock starts at zero on restart, so its elapsed
    # time is exactly the recovery wall: recover + adopt + finish the
    # job.  Without a crash this is simply the job wall.
    result.recovery_wall = ctx.vm.clock.now
    return result


def run_baseline(
    policy: str, fraction: float, workload_seed: int = WORKLOAD_SEED
) -> Tuple[int, float]:
    """Crash-free cold run: (value, full-recompute wall)."""
    ctx = make_ctx(policy)
    job = build_job(ctx, fraction)
    return job(), ctx.vm.clock.now


def check_cell(cell: CellResult) -> List[str]:
    """The acceptance assertions for one crash cell."""
    where = cell.label
    failures: List[str] = []
    if not cell.crashed:
        return [f"{where}: crash never fired"]
    if cell.error:
        return [f"{where}: {cell.error}"]
    if cell.restarts != 1:
        failures.append(f"{where}: {cell.restarts} restarts, expected 1")
    if cell.value != cell.baseline_value:
        failures.append(
            f"{where}: value {cell.value} != crash-free "
            f"{cell.baseline_value}"
        )
    expected_blocks = persisted_blocks(cell.fraction)
    accounted = cell.adopted + cell.quarantined + cell.lost
    if accounted != expected_blocks:
        failures.append(
            f"{where}: adoption ledger unbalanced: "
            f"{accounted} accounted != {expected_blocks} persisted"
        )
    if cell.recomputed != cell.quarantined + cell.lost:
        failures.append(
            f"{where}: recomputed {cell.recomputed} != "
            f"quarantined+lost {cell.quarantined + cell.lost}"
        )
    if cell.adopts and cell.adopted != expected_blocks:
        failures.append(
            f"{where}: post-commit crash adopted {cell.adopted} of "
            f"{expected_blocks} committed blocks"
        )
    if not cell.adopts and cell.adopted != 0:
        failures.append(
            f"{where}: pre-commit crash adopted {cell.adopted} blocks "
            "that were never durable"
        )
    if cell.adopted > 0 and cell.recovery_wall >= cell.cold_wall:
        failures.append(
            f"{where}: recovery wall {cell.recovery_wall:.4f}s not below "
            f"cold recompute {cell.cold_wall:.4f}s despite "
            f"{cell.adopted} adopted blocks"
        )
    return failures


def cells_for(fraction: float, smoke: bool) -> Sequence[CrashSpec]:
    if fraction <= 0.0:
        return NOTHING_PERSISTED_POINTS
    if smoke:
        return tuple(
            s for s in CRASH_POINTS
            if s.name in ("task-boundary", "epoch_commit", "h2_flush")
        )
    return CRASH_POINTS


def matrix(args):
    """Crash point x policy x persisted fraction, one baseline per
    (policy, fraction)."""
    policies: Sequence[str] = ("commit",) if args.smoke else POLICIES
    fractions: Sequence[float] = (0.0, 1.0) if args.smoke else FRACTIONS
    for policy in policies:
        for fraction in fractions:
            baseline = run_baseline(policy, fraction, args.workload_seed)
            for spec in cells_for(fraction, args.smoke):
                yield partial(
                    run_cell,
                    spec,
                    policy,
                    fraction,
                    baseline,
                    args.workload_seed,
                    args.fault_seed,
                )


def check(args, cells: List[CellResult]) -> List[str]:
    return [msg for cell in cells for msg in check_cell(cell)]


def _add_arguments(parser) -> None:
    parser.add_argument("--workload-seed", type=int, default=WORKLOAD_SEED)
    parser.add_argument("--fault-seed", type=int, default=FAULT_SEED)


def artifacts(args) -> Tuple[str, str]:
    """Re-run one post-commit cell: its resilience-event CSV and chrome
    trace."""
    from ..metrics.chrome_trace import chrome_trace_json, vm_engine
    from ..metrics.trace import resilience_events_csv

    fault = FaultConfig(
        seed=args.workload_seed,
        fault_seed=args.fault_seed,
        crash_stage="top",
        crash_task=10,
    )
    ctx = make_ctx("commit", fault)
    run_job(ctx, build_job(ctx, 1.0))
    log = ctx.vm.resilience.log
    return resilience_events_csv(log), chrome_trace_json(
        vm_engine(ctx.vm), label="phoenix", resilience=log
    )


EXPERIMENT = harness.Experiment(
    prog="repro.experiments.phoenix",
    description=(
        "executor crash-restart matrix: H2 block adoption vs "
        "lineage recompute"
    ),
    smoke_help="smaller matrix ('commit' policy, fractions 0/1, 3 points)",
    matrix=matrix,
    check=check,
    header=lambda cells: (
        "crash_point              policy  frac fate   restarts "
        "blocks(adopt/quar/lost/recomp)  recovery_wall  outcome"
    ),
    success=(
        "all crash cells recovered: committed blocks re-adopted, lost "
        "partitions recomputed from lineage, values crash-free-exact"
    ),
    add_arguments=_add_arguments,
    artifacts=artifacts,
    csv_help="write the last cell's resilience-event CSV to this path",
    trace_help="write the last cell's chrome trace (with crash/restart/"
    "adoption instants) to this path",
)


if __name__ == "__main__":
    sys.exit(harness.run(EXPERIMENT))
