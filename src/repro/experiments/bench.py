"""Perf trajectory bench: pinned workload matrix with a checked-in baseline.

Three cells, chosen to exercise the layers the struct-of-arrays store
refactor touched:

- ``fig06``: one pinned Figure 6 cell (PR on TeraHeap at its large DRAM
  point, reduced iteration scale) — the full VM path: allocation,
  barriers, minor/major GC, H2 transfers.
- ``gcscale``: one steal-half sweep point on the task engine — the
  digest-gated order-preserving trace kernels.
- ``large_graph``: a synthetic pointer graph marked/swept ``ROUNDS``
  times twice — once with a faithful copy of the legacy per-object
  model (Python objects + handle-chasing loops), once with the store's
  vectorized batch kernels (CSR frontier BFS, ``mark_batch``, masked
  sweeps).  The ratio is the refactor's speedup and is gated at
  ``MIN_SPEEDUP``.

Every cell records best-of-``REPEATS`` wall-clock seconds and the
process peak RSS.  The result is written to ``BENCH_0007.json`` (schema
below, documented in EXPERIMENTS.md) and CI re-runs the matrix against
the checked-in file, failing on a >15% wall-clock regression (plus a
small absolute slack for sub-second cells) or a large-graph speedup
below the floor.

Schema (``BENCH_SCHEMA = 1``)::

    {
      "schema": 1,
      "cells": {"<name>": {"wall_s": float, "peak_rss_kib": int}, ...},
      "large_graph": {"nodes": int, "edges": int, "rounds": int,
                       "speedup": float, "live_bytes": int}
    }
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import time
from typing import Dict, List, Optional

import numpy as np

from ..heap.store import SPACE_FREED, HeapStore

BENCH_SCHEMA = 1
BENCH_FILE = "BENCH_0007.json"

#: large-graph workload pin (the acceptance cell)
GRAPH_NODES = 500_000
GRAPH_DEGREE = 8
GRAPH_ROUNDS = 5
GRAPH_SEED = 1007
#: fraction of newest nodes seeding each round's closure
GRAPH_ROOT_FRACTION = 0.01
#: survivor age at which a round's accounting counts an object tenured
TENURE_AGE = 3

#: required legacy/store wall-clock ratio on the large-graph cell
MIN_SPEEDUP = 5.0
#: per-cell wall-clock regression tolerance for --check
REGRESSION_TOLERANCE = 0.15
#: absolute slack added to every ceiling so sub-second cells do not
#: flake on scheduler noise (15% of 15ms is not a signal)
ABS_SLACK_S = 0.1
#: timing repeats per cell; the recorded wall clock is the minimum,
#: which is far more stable than a single run
REPEATS = 3

#: pinned fig06 cell: workload, system, DRAM point, iteration scale
FIG06_CELL = ("PR", "teraheap", 80, 0.2)
#: pinned gcscale cell: gc_threads, churn batches, steal policy
GCSCALE_CELL = (8, 24, "steal-half")


def peak_rss_kib() -> int:
    """Process peak resident set, KiB (ru_maxrss unit on Linux)."""
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


# ======================================================================
# Large synthetic graph: legacy per-object model vs store kernels
# ======================================================================
class _LegacyHeapObject:
    """The pre-refactor object model, kept verbatim for the comparison:
    one Python object per heap object, references as object lists."""

    __slots__ = (
        "oid", "size", "refs", "space", "age", "mark_epoch", "address"
    )

    def __init__(self, oid: int, size: int):
        self.oid = oid
        self.size = size
        self.refs: List["_LegacyHeapObject"] = []
        self.space = 0
        self.age = 0
        self.mark_epoch = 0
        self.address = -1


def _topology(nodes: int, degree: int, seed: int):
    """Deterministic graph shape shared by both models.

    Returns (sizes, targets): node ``i`` is ``sizes[i]`` bytes and
    references the earlier nodes in ``targets[i]``.
    """
    rng = random.Random(seed)
    sizes: List[int] = []
    targets: List[List[int]] = []
    for i in range(nodes):
        sizes.append(16 + 8 * rng.randrange(64))
        fanout = rng.randrange(degree + 1)
        targets.append(
            [rng.randrange(i) for _ in range(fanout)] if i else []
        )
    return sizes, targets


def _legacy_rounds(
    sizes: List[int],
    targets: List[List[int]],
    roots: List[int],
    rounds: int,
) -> Dict[str, float]:
    objects = [
        _LegacyHeapObject(i, size) for i, size in enumerate(sizes)
    ]
    for i, out in enumerate(targets):
        objects[i].refs = [objects[t] for t in out]
    root_objs = [objects[i] for i in roots]
    live_bytes = 0
    promoted_bytes = 0
    t0 = time.perf_counter()
    for r in range(rounds):
        epoch = r + 1
        # Mark: transitive closure from the roots.
        stack = list(root_objs)
        live: List[_LegacyHeapObject] = []
        while stack:
            obj = stack.pop()
            if obj.mark_epoch >= epoch:
                continue
            obj.mark_epoch = epoch
            live.append(obj)
            for ref in obj.refs:
                if ref.mark_epoch < epoch:
                    stack.append(ref)
        live_bytes = sum(o.size for o in live)
        for obj in live:
            obj.age += 1
        # Compaction planning: slide every survivor to a fresh address
        # and total the bytes old enough to tenure.
        cursor = 0
        promoted_bytes = 0
        for obj in live:
            obj.address = cursor
            cursor += obj.size
            if obj.age >= TENURE_AGE:
                promoted_bytes += obj.size
        # Sweep: everything unmarked this epoch is freed.
        for obj in objects:
            if obj.mark_epoch < epoch:
                obj.space = SPACE_FREED
    wall = time.perf_counter() - t0
    return {
        "wall_s": wall,
        "live_bytes": live_bytes,
        "promoted_bytes": promoted_bytes,
    }


def _store_rounds(
    sizes: List[int],
    targets: List[List[int]],
    roots: List[int],
    rounds: int,
) -> Dict[str, float]:
    store = HeapStore()
    # oids are 1-based (row 0 is the sentinel).
    store.new_objects(
        sizes,
        [""] * len(sizes),
        flags=0,
        scan_factor=1.0,
        refs=[tuple(t + 1 for t in out) for out in targets],
    )
    root_oids = np.asarray(roots, dtype=np.int64) + 1
    all_oids = np.arange(1, len(store), dtype=np.int64)
    # The edge table is static for this workload, so the CSR snapshot is
    # part of graph construction, not of the per-round GC work (the
    # legacy side likewise builds its object graph before the clock).
    store.edge_csr()
    live_bytes = 0
    promoted_bytes = 0
    t0 = time.perf_counter()
    for r in range(rounds):
        epoch = r + 1
        live = store.bfs_closure_csr(root_oids)
        store.mark_batch(live, epoch)
        live_bytes = store.sum_sizes(live)
        store.age_increment(live)
        # Compaction planning: exclusive prefix sum over survivor sizes
        # is the batch form of the legacy sliding-cursor loop.
        live_sizes = store.size_view()[live]
        store.address_view()[live] = np.cumsum(live_sizes) - live_sizes
        promoted_bytes = int(
            live_sizes[store.age_view()[live] >= TENURE_AGE].sum()
        )
        dead = all_oids[~store.live_mask(all_oids, epoch)]
        store.set_space_batch(dead, SPACE_FREED)
    wall = time.perf_counter() - t0
    return {
        "wall_s": wall,
        "live_bytes": int(live_bytes),
        "promoted_bytes": promoted_bytes,
    }


def run_large_graph(
    nodes: int = GRAPH_NODES,
    degree: int = GRAPH_DEGREE,
    rounds: int = GRAPH_ROUNDS,
    seed: int = GRAPH_SEED,
) -> Dict:
    sizes, targets = _topology(nodes, degree, seed)
    roots = list(
        range(nodes - max(1, int(nodes * GRAPH_ROOT_FRACTION)), nodes)
    )
    legacy = min(
        (_legacy_rounds(sizes, targets, roots, rounds)
         for _ in range(REPEATS)),
        key=lambda r: r["wall_s"],
    )
    store = min(
        (_store_rounds(sizes, targets, roots, rounds)
         for _ in range(REPEATS)),
        key=lambda r: r["wall_s"],
    )
    for key in ("live_bytes", "promoted_bytes"):
        if legacy[key] != store[key]:
            raise AssertionError(
                f"legacy and store kernels disagree on {key}: "
                f"{legacy[key]} vs {store[key]}"
            )
    return {
        "nodes": nodes,
        "edges": sum(len(t) for t in targets),
        "rounds": rounds,
        "legacy_wall_s": legacy["wall_s"],
        "store_wall_s": store["wall_s"],
        "live_bytes": store["live_bytes"],
        "speedup": legacy["wall_s"] / max(store["wall_s"], 1e-9),
    }


# ======================================================================
# Full-stack cells
# ======================================================================
def run_fig06_cell() -> Dict[str, float]:
    from .configs import SPARK_WORKLOADS_TABLE3
    from .runner import run_spark_workload

    workload, system, dram, scale = FIG06_CELL
    cfg = SPARK_WORKLOADS_TABLE3[workload]
    wall = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        result = run_spark_workload(
            workload, system, dram, cfg, scale=scale
        )
        wall = min(wall, time.perf_counter() - t0)
        if result.oom:
            raise AssertionError("pinned fig06 bench cell must not OOM")
    return {"wall_s": wall, "peak_rss_kib": peak_rss_kib()}


def run_gcscale_cell() -> Dict[str, float]:
    from . import gc_scaling as gs

    threads, batches, policy = GCSCALE_CELL
    wall = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        gs.run_scaling((threads,), batches, policy)
        wall = min(wall, time.perf_counter() - t0)
    return {"wall_s": wall, "peak_rss_kib": peak_rss_kib()}


def run_matrix(
    nodes: int = GRAPH_NODES, rounds: int = GRAPH_ROUNDS
) -> Dict:
    cells: Dict[str, Dict] = {}
    workload, system, dram, scale = FIG06_CELL
    cells[f"fig06.{workload}.{system}.d{dram}.s{scale}"] = (
        run_fig06_cell()
    )
    threads, batches, policy = GCSCALE_CELL
    cells[f"gcscale.{policy}.t{threads}.b{batches}"] = run_gcscale_cell()
    graph = run_large_graph(nodes=nodes, rounds=rounds)
    cells["large_graph.legacy"] = {
        "wall_s": graph["legacy_wall_s"],
        "peak_rss_kib": peak_rss_kib(),
    }
    cells["large_graph.store"] = {
        "wall_s": graph["store_wall_s"],
        "peak_rss_kib": peak_rss_kib(),
    }
    return {
        "schema": BENCH_SCHEMA,
        "cells": cells,
        "large_graph": {
            "nodes": graph["nodes"],
            "edges": graph["edges"],
            "rounds": graph["rounds"],
            "speedup": graph["speedup"],
            "live_bytes": graph["live_bytes"],
        },
    }


# ======================================================================
# Regression gate
# ======================================================================
def check_baseline(
    payload: Dict,
    baseline: Dict,
    tolerance: float = REGRESSION_TOLERANCE,
) -> List[str]:
    """Compare a fresh matrix against the checked-in baseline.

    The legacy large-graph cell is exempt from the wall-clock gate —
    it measures the *old* model and only feeds the speedup ratio.
    """
    failures: List[str] = []
    base_cells = baseline.get("cells", {})
    for name, cell in payload["cells"].items():
        if name == "large_graph.legacy":
            continue
        base = base_cells.get(name)
        if base is None:
            failures.append(f"{name}: no baseline cell (matrix changed?)")
            continue
        ceiling = base["wall_s"] * (1.0 + tolerance) + ABS_SLACK_S
        if cell["wall_s"] > ceiling:
            failures.append(
                f"{name}: wall-clock regressed: {cell['wall_s']:.3f}s vs "
                f"baseline {base['wall_s']:.3f}s "
                f"(+{tolerance:.0%} ceiling {ceiling:.3f}s)"
            )
    speedup = payload["large_graph"]["speedup"]
    if speedup < MIN_SPEEDUP:
        failures.append(
            f"large_graph: store speedup {speedup:.1f}x is below the "
            f"{MIN_SPEEDUP:.0f}x floor"
        )
    return failures


def format_payload(payload: Dict) -> str:
    lines = ["cell                                   wall_s  peak_rss_kib"]
    for name, cell in payload["cells"].items():
        lines.append(
            f"{name:38s} {cell['wall_s']:7.3f}  "
            f"{cell.get('peak_rss_kib', 0):12d}"
        )
    g = payload["large_graph"]
    lines.append(
        f"large_graph: {g['nodes']} nodes / {g['edges']} edges x "
        f"{g['rounds']} rounds -> store speedup {g['speedup']:.1f}x "
        f"(floor {MIN_SPEEDUP:.0f}x)"
    )
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.experiments.bench",
        description="Pinned perf-trajectory bench matrix",
    )
    parser.add_argument(
        "--out",
        default=BENCH_FILE,
        help=f"write the result payload here (default {BENCH_FILE})",
    )
    parser.add_argument(
        "--no-write",
        action="store_true",
        help="run and print only; do not write --out",
    )
    parser.add_argument(
        "--check",
        metavar="BASELINE",
        default=None,
        help="compare against a checked-in BENCH_*.json; exit 1 on "
        ">15%% wall-clock regression or a speedup below the floor",
    )
    parser.add_argument(
        "--nodes",
        type=int,
        default=GRAPH_NODES,
        help="large-graph node count",
    )
    parser.add_argument(
        "--rounds",
        type=int,
        default=GRAPH_ROUNDS,
        help="large-graph mark/sweep rounds",
    )
    args = parser.parse_args(argv)

    payload = run_matrix(nodes=args.nodes, rounds=args.rounds)
    print(format_payload(payload))
    status = 0
    if args.check is not None:
        with open(args.check) as fh:
            baseline = json.load(fh)
        failures = check_baseline(payload, baseline)
        if failures:
            for failure in failures:
                print(f"BENCH REGRESSION: {failure}")
            status = 1
        else:
            print("bench gate: all cells within tolerance")
    if not args.no_write and status == 0:
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.out}")
    return status


if __name__ == "__main__":  # pragma: no cover - CLI entry
    import sys

    sys.exit(main())
