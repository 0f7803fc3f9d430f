"""Streamscale matrix: block streaming vs whole-RDD materialisation.

Whole-RDD evaluation materialises every lineage stage per task batch, so
the executor's live set scales with the *input*; the block-streaming
executor (:mod:`repro.frameworks.spark.streaming`) bounds it at
``max_inflight_blocks x target_block_bytes`` and spills in-flight blocks
to H2 under pressure instead of recomputing them.  That trade has a
crossover, and this experiment measures it by running the same cached
three-stage pipeline both ways over a sweep of input sizes and in-flight
budgets against one fixed heap:

- **small inputs**: everything fits; streaming's per-block dispatch tax
  is pure overhead and the whole-RDD run wins;
- **large inputs**: the whole-RDD live set (3x the input, pinned per
  task batch) drowns the collector in near-full-heap GCs, while the
  streaming run stays flat and wins despite its spill traffic.

Acceptance, per cell: both executions produce the identical action
value; the streaming run's peak in-flight bytes never exceed its budget
(and no admission was forced past it); the largest input of each budget
column streams *faster* than whole-RDD while the smallest streams
*slower* (the measurable overhead); and under ``--check`` every cell —
walls included — is byte-identical when run twice.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from functools import partial
from typing import List, Sequence, Tuple

from ..clock import Bucket
from ..config import TeraHeapConfig, VMConfig
from ..frameworks.spark import (
    CachePolicy,
    SparkConf,
    SparkContext,
    StreamingExecutor,
    StreamResult,
)
from ..runtime import JavaVM
from ..units import KiB, fmt_bytes, gb
from . import harness

#: partitions per RDD; with 8 mutator threads one batch covers them all,
#: which is exactly the whole-RDD pinning the streaming executor removes
NUM_PARTITIONS = 4
HEAP_BYTES = gb(4)
REGION_SIZE = 64 * KiB
PROMOTION_BUFFER = 32 * KiB
#: streamed block target: small enough that every sweep partition splits
#: into multiple blocks, so budgets and spills are actually exercised
TARGET_BLOCK_BYTES = 32 * KiB

#: input sweep (paper-scale GB) against the fixed heap: the smallest
#: cell fits trivially, the largest pins ~3x its bytes per task batch
INPUT_SIZES_GB: Tuple[float, ...] = (0.125, 0.5, 1.25)
#: in-flight budget sweep, in blocks
INFLIGHT_BLOCKS: Tuple[int, ...] = (2, 8)


def make_vm() -> JavaVM:
    return JavaVM(
        VMConfig(
            heap_size=HEAP_BYTES,
            teraheap=TeraHeapConfig(
                enabled=True,
                h2_size=gb(32),
                region_size=REGION_SIZE,
                promotion_buffer_size=PROMOTION_BUFFER,
            ),
            page_cache_size=gb(4),
        )
    )


def make_ctx(max_inflight_blocks: int) -> SparkContext:
    return SparkContext(
        make_vm(),
        SparkConf(
            cache_policy=CachePolicy.TERAHEAP,
            num_partitions=NUM_PARTITIONS,
            max_inflight_blocks=max_inflight_blocks,
            target_block_bytes=TARGET_BLOCK_BYTES,
        ),
    )


def build_pipeline(ctx: SparkContext, input_gb: float):
    """The cached pipeline: src -> mid -> top (persisted)."""
    src = ctx.range_rdd(gb(input_gb), compute_ops_per_chunk=64, name="src")
    mid = src.map(ops_per_chunk=64, name="mid")
    top = mid.map(ops_per_chunk=64, name="top")
    top.persist()
    return top


@dataclass
class CellResult(harness.Cell):
    """One (input size, in-flight budget) cell, both executions."""

    input_gb: float
    inflight_blocks: int
    budget_bytes: int = 0
    baseline_value: int = 0
    baseline_wall: float = 0.0
    baseline_gc: float = 0.0
    streaming_wall: float = 0.0
    streaming_gc: float = 0.0
    streaming: StreamResult = field(default_factory=StreamResult)

    @property
    def label(self) -> str:
        return f"{self.input_gb:g}GB/{self.inflight_blocks}blk"

    def row(self) -> str:
        stream = self.streaming
        ratio = (
            self.baseline_wall / self.streaming_wall
            if self.streaming_wall > 0
            else 0.0
        )
        return (
            f"{self.input_gb:6.3f} {self.inflight_blocks:3d} "
            f"{fmt_bytes(self.budget_bytes):>9s} "
            f"rdd={self.baseline_wall:8.4f}s (gc {self.baseline_gc:7.4f}s) "
            f"stream={self.streaming_wall:8.4f}s "
            f"(gc {self.streaming_gc:7.4f}s) "
            f"x{ratio:5.2f} "
            f"blk={stream.blocks:4d} "
            f"peak={fmt_bytes(stream.peak_inflight_bytes):>9s} "
            f"stall={stream.backpressure_stalls:3d} "
            f"spill={stream.spills:3d} unspill={stream.unspills:3d}"
        )


def gc_seconds(vm: JavaVM) -> float:
    clock = vm.clock
    return (
        clock.total(Bucket.MINOR_GC)
        + clock.total(Bucket.MAJOR_GC)
        + clock.total(Bucket.ALLOC_STALL)
    )


def run_cell(input_gb: float, inflight_blocks: int) -> CellResult:
    cell = CellResult(input_gb=input_gb, inflight_blocks=inflight_blocks)
    # Whole-RDD baseline: its own VM, so the streaming run sees an
    # identical cold executor.
    ctx = make_ctx(inflight_blocks)
    top = build_pipeline(ctx, input_gb)
    cell.baseline_value = top.evaluate()
    cell.baseline_wall = ctx.vm.clock.now
    cell.baseline_gc = gc_seconds(ctx.vm)
    # Streaming run.
    ctx = make_ctx(inflight_blocks)
    top = build_pipeline(ctx, input_gb)
    cell.budget_bytes = ctx.conf.inflight_budget_bytes
    cell.streaming = StreamingExecutor(ctx).run(top)
    cell.streaming_wall = ctx.vm.clock.now
    cell.streaming_gc = gc_seconds(ctx.vm)
    return cell


def check_cells(cells: List[CellResult]) -> List[str]:
    """Acceptance assertions over one completed matrix."""
    failures: List[str] = []
    by_budget = {}
    for cell in cells:
        by_budget.setdefault(cell.inflight_blocks, []).append(cell)
        where, stream = cell.label, cell.streaming
        if stream.total_bytes != cell.baseline_value:
            failures.append(
                f"{where}: streaming value {stream.total_bytes} != "
                f"whole-RDD {cell.baseline_value}"
            )
        if stream.forced_admissions:
            failures.append(
                f"{where}: {stream.forced_admissions} forced admissions "
                "past the budget"
            )
        if stream.peak_inflight_bytes > cell.budget_bytes:
            failures.append(
                f"{where}: peak in-flight {stream.peak_inflight_bytes} B "
                f"exceeds budget {cell.budget_bytes} B"
            )
    for blocks, column in by_budget.items():
        column = sorted(column, key=lambda c: c.input_gb)
        smallest, largest = column[0], column[-1]
        if smallest.streaming_wall <= smallest.baseline_wall:
            failures.append(
                f"{smallest.input_gb:g}GB/{blocks}blk: streaming "
                f"({smallest.streaming_wall:.4f}s) shows no overhead over "
                f"whole-RDD ({smallest.baseline_wall:.4f}s) at the "
                "smallest input"
            )
        if largest.streaming_wall >= largest.baseline_wall:
            failures.append(
                f"{largest.input_gb:g}GB/{blocks}blk: streaming "
                f"({largest.streaming_wall:.4f}s) does not beat whole-RDD "
                f"({largest.baseline_wall:.4f}s) at the largest input"
            )
    return failures


def _sweep(args) -> Tuple[Sequence[float], Sequence[int]]:
    if args.smoke:
        return (INPUT_SIZES_GB[0], INPUT_SIZES_GB[-1]), (INFLIGHT_BLOCKS[-1],)
    return INPUT_SIZES_GB, INFLIGHT_BLOCKS


def matrix(args):
    sizes, budgets = _sweep(args)
    for blocks in budgets:
        for input_gb in sizes:
            yield partial(run_cell, input_gb, blocks)


def artifacts(args) -> Tuple[str, str]:
    """Re-run the largest cell's streaming pass: its per-block CSV and
    chrome trace."""
    from ..metrics.chrome_trace import chrome_trace_json, vm_engine
    from ..metrics.trace import streaming_blocks_csv

    sizes, budgets = _sweep(args)
    ctx = make_ctx(budgets[-1])
    top = build_pipeline(ctx, sizes[-1])
    result = StreamingExecutor(ctx).run(top)
    return streaming_blocks_csv(result), chrome_trace_json(
        vm_engine(ctx.vm), label="streamscale", streaming=result
    )


EXPERIMENT = harness.Experiment(
    prog="repro.experiments.streamscale",
    description=(
        "block-streaming vs whole-RDD crossover: input size x "
        "in-flight budget"
    ),
    smoke_help="two sizes (smallest/largest) and one budget",
    matrix=matrix,
    check=lambda args, cells: check_cells(cells),
    header=lambda cells: (
        f"streamscale: heap {fmt_bytes(HEAP_BYTES)}, "
        f"{NUM_PARTITIONS} partitions, "
        f"block target {fmt_bytes(TARGET_BLOCK_BYTES)}\n"
        "input  blk    budget  whole-RDD wall (gc)        "
        "streaming wall (gc)      speedup  streaming counters"
    ),
    success=(
        "crossover reproduced: streaming holds its in-flight budget, "
        "pays a measurable dispatch tax on the smallest input and "
        "beats whole-RDD materialisation on the largest"
    ),
    artifacts=artifacts,
    csv_help="write the last streaming run's per-block CSV to this path",
    trace_help="write a chrome trace with the in-flight counter track",
)


if __name__ == "__main__":
    sys.exit(harness.run(EXPERIMENT))
