"""Serverscale matrix: co-located tenant VMs on one shared device.

The paper evaluates TeraHeap one JVM at a time; this experiment asks
the server question its motivation implies (Section 1): what happens
when N executor JVMs share one NVMe device and one DRAM budget?  A
:class:`~repro.server.box.ServerBox` boots N tenants — private heap
stores, per-tenant DRAM carves, one shared page-cache budget and one
bandwidth-arbitrated device — and runs heterogeneous cached-analytics
jobs under a deterministic min-clock scheduler.

Each cell of the (tenant count x mean dataset size) sweep runs three
boxes:

- a **uniform** box (equal datasets, arbiter on) measuring the
  aggregate-throughput and device-saturation curve as tenants are
  packed on;
- a **mixed** box (datasets spread ±60% around the mean, arbiter on)
  and its **control** twin (static 1/N bandwidth shares, static equal
  H2/DR2 budgets, fixed watermarks) measuring per-tenant fairness.

Acceptance: aggregate throughput grows from one tenant to two and ends
sublinear (the device saturates — busy fraction rises toward 1); the
work-conserving arbiter never loses aggregate throughput vs the static
control; and it *narrows* the max/min per-tenant progress-rate gap on
every mixed cell — heavy tenants borrow bandwidth the moment light
siblings finish instead of crawling at a frozen 1/N share.  Under
``--check`` every cell is byte-identical when run twice.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import partial
from typing import List, Sequence, Tuple

from ..server import ServerBox, ServerSpec
from ..server.box import BoxReport
from ..units import fmt_bytes, gb
from . import harness

#: tenant-count sweep (the x-axis of the saturation curve)
TENANT_COUNTS: Tuple[int, ...] = (1, 2, 4, 6)
#: mean per-tenant dataset sweep (paper-scale GB)
DATASET_SIZES_GB: Tuple[float, ...] = (0.5, 1.0)
#: dataset heterogeneity of the mixed/control boxes
SPREAD = 0.6


def make_spec(
    tenants: int, mean_gb: float, arbiter: bool, spread: float
) -> ServerSpec:
    return ServerSpec(
        tenants=tenants,
        mean_dataset_bytes=gb(mean_gb),
        arbiter=arbiter,
        spread=spread,
    )


@dataclass
class CellResult(harness.Cell):
    """One (tenant count, mean dataset) cell: uniform + mixed + control."""

    tenants: int
    mean_gb: float
    uniform: BoxReport
    mixed: BoxReport
    control: BoxReport

    @property
    def label(self) -> str:
        return f"{self.tenants}x{self.mean_gb:g}GB"

    def row(self) -> str:
        return (
            f"{self.tenants:3d} {self.mean_gb:5.2f}GB "
            f"agg={self.uniform.aggregate_throughput:11,.0f} B/s "
            f"busy={self.uniform.device_busy_fraction:5.3f} "
            f"gap: arbiter={self.mixed.fairness_gap:6.3f} "
            f"control={self.control.fairness_gap:6.3f} "
            f"p99: {_box_p99(self.mixed) * 1e3:7.2f}ms/"
            f"{_box_p99(self.control) * 1e3:7.2f}ms "
            f"epochs={self.mixed.epochs:3d}"
        )


def _box_p99(report: BoxReport) -> float:
    return max((t.p99_pause for t in report.tenants), default=0.0)


def run_cell(tenants: int, mean_gb: float) -> CellResult:
    def box(arbiter: bool, spread: float) -> BoxReport:
        return ServerBox(make_spec(tenants, mean_gb, arbiter, spread)).run()

    return CellResult(
        tenants=tenants,
        mean_gb=mean_gb,
        uniform=box(arbiter=True, spread=0.0),
        mixed=box(arbiter=True, spread=SPREAD),
        control=box(arbiter=False, spread=SPREAD),
    )


def check_cells(cells: List[CellResult]) -> List[str]:
    """Acceptance assertions over one completed matrix."""
    failures: List[str] = []
    by_mean = {}
    for cell in cells:
        by_mean.setdefault(cell.mean_gb, []).append(cell)
        mixed, control = cell.mixed, cell.control
        if cell.tenants > 1:
            if mixed.fairness_gap >= control.fairness_gap:
                failures.append(
                    f"{cell.label}: arbiter gap {mixed.fairness_gap:.3f} "
                    f"does not narrow the control's "
                    f"{control.fairness_gap:.3f}"
                )
            if (
                mixed.aggregate_throughput
                < 0.95 * control.aggregate_throughput
            ):
                failures.append(
                    f"{cell.label}: arbiter throughput "
                    f"{mixed.aggregate_throughput:,.0f} B/s loses >5% to "
                    f"the static control "
                    f"{control.aggregate_throughput:,.0f} B/s"
                )
    for mean_gb, column in by_mean.items():
        column = sorted(column, key=lambda c: c.tenants)
        first, last = column[0], column[-1]
        if len(column) < 2 or first.tenants == last.tenants:
            continue
        put = [c.uniform.aggregate_throughput for c in column]
        busy = [c.uniform.device_busy_fraction for c in column]
        if put[1] <= put[0]:
            failures.append(
                f"{mean_gb:g}GB: aggregate throughput does not grow from "
                f"{first.tenants} to {column[1].tenants} tenants "
                f"({put[0]:,.0f} -> {put[1]:,.0f} B/s)"
            )
        scaling = put[-1] / put[0]
        if scaling >= last.tenants / first.tenants:
            failures.append(
                f"{mean_gb:g}GB: throughput scaled {scaling:.2f}x over "
                f"{last.tenants / first.tenants:.0f}x tenants — no "
                "saturation"
            )
        if busy[-1] <= busy[0]:
            failures.append(
                f"{mean_gb:g}GB: device busy fraction fell from "
                f"{busy[0]:.3f} ({first.tenants} tenants) to "
                f"{busy[-1]:.3f} ({last.tenants} tenants)"
            )
        if put[-1] < 0.85 * max(put):
            failures.append(
                f"{mean_gb:g}GB: throughput collapses past saturation "
                f"({put[-1]:,.0f} B/s at {last.tenants} "
                f"tenants vs peak {max(put):,.0f} B/s)"
            )
    return failures


def _sweep(args) -> Tuple[Sequence[int], Sequence[float]]:
    if args.smoke:
        return (TENANT_COUNTS[0], TENANT_COUNTS[-2]), (DATASET_SIZES_GB[0],)
    return TENANT_COUNTS, DATASET_SIZES_GB


def matrix(args):
    counts, sizes = _sweep(args)
    for mean_gb in sizes:
        for tenants in counts:
            yield partial(run_cell, tenants, mean_gb)


def _header(cells) -> str:
    spec = ServerSpec()
    return (
        f"serverscale: shared H2 {fmt_bytes(spec.h2_capacity)}, "
        f"DR2 budget {fmt_bytes(spec.dr2_budget)}, "
        f"epoch {spec.epoch_seconds:g}s, spread ±{SPREAD:.0%}\n"
        "  N  dataset   uniform aggregate    device   "
        "fairness gap (mixed)     worst p99 pause"
    )


def artifacts(args) -> Tuple[str, str]:
    """Re-run the largest mixed box: its per-tenant CSV and chrome
    trace."""
    from ..metrics.chrome_trace import server_chrome_trace_json
    from ..metrics.trace import server_tenants_csv

    counts, sizes = _sweep(args)
    box = ServerBox(
        make_spec(counts[-1], sizes[-1], arbiter=True, spread=SPREAD)
    )
    report = box.run()
    return server_tenants_csv(report), server_chrome_trace_json(box)


EXPERIMENT = harness.Experiment(
    prog="repro.experiments.serverscale",
    description=(
        "multi-tenant server box: tenant count x dataset size, "
        "arbitrated vs static sharing"
    ),
    smoke_help="two tenant counts and one dataset size",
    matrix=matrix,
    check=lambda args, cells: check_cells(cells),
    header=_header,
    success=(
        "server shape reproduced: aggregate throughput grows then "
        "saturates as the shared device fills, and the work-conserving "
        "arbiter narrows the per-tenant progress gap on every mixed "
        "cell without losing aggregate throughput"
    ),
    artifacts=artifacts,
    csv_help="write the largest mixed box's per-tenant CSV to this path",
    trace_help="write a chrome trace with per-tenant lanes to this path",
)


if __name__ == "__main__":
    sys.exit(harness.run(EXPERIMENT))
