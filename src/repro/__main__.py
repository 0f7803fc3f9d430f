"""Command-line entry point: run paper experiments from the shell.

Usage::

    python -m repro list
    python -m repro table5
    python -m repro barrier
    python -m repro fig06 --workloads PR LR --scale 0.5
    python -m repro fig07 --scale 0.5
    python -m repro fig08 --workloads SVM
    python -m repro fig09a
    python -m repro fig09b
    python -m repro fig10 --workloads PR BFS
    python -m repro fig11a
    python -m repro fig11b
    python -m repro fig12 --panel spark-mo
    python -m repro fig13a
    python -m repro fig13b --scale 0.5
    python -m repro gcscale              # 60 x --scale steal batches
    python -m repro chaoskill --fault-seed 7
    python -m repro brownout
    python -m repro phoenix --scale 0.5
    python -m repro streamscale
    python -m repro serverscale
    python -m repro bench                # writes BENCH_0007.json
"""

from __future__ import annotations

import argparse
import sys

from . import faults as faults_mod
from .faults.plan import FaultConfig
from .experiments import (
    barrier,
    bench,
    brownout,
    chaoskill,
    fig06,
    fig07,
    fig08,
    fig09,
    fig10,
    fig11,
    fig12,
    fig13,
    gc_scaling,
    harness,
    phoenix,
    serverscale,
    streamscale,
    table5,
)

EXPERIMENTS = [
    "table5",
    "barrier",
    "fig06",
    "fig07",
    "fig08",
    "fig09a",
    "fig09b",
    "fig10",
    "fig11a",
    "fig11b",
    "fig12",
    "fig13a",
    "fig13b",
    "gcscale",
    "chaoskill",
    "brownout",
    "phoenix",
    "streamscale",
    "serverscale",
    "bench",
]

#: name -> (driver, whether it takes ``--fault-seed``); each always runs
#: with ``--check`` (every cell twice), ``--smoke`` when ``--scale < 1``
MATRIX_EXPERIMENTS = {
    "chaoskill": (chaoskill.EXPERIMENT, True),
    "brownout": (brownout.EXPERIMENT, False),
    "phoenix": (phoenix.EXPERIMENT, True),
    "streamscale": (streamscale.EXPERIMENT, False),
    "serverscale": (serverscale.EXPERIMENT, False),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro", description="TeraHeap reproduction experiment runner"
    )
    parser.add_argument("experiment", choices=EXPERIMENTS + ["list"])
    parser.add_argument(
        "--workloads", nargs="*", default=None, help="subset of workloads"
    )
    parser.add_argument(
        "--scale", type=float, default=1.0, help="iteration-count scale"
    )
    parser.add_argument(
        "--panel",
        default="spark-sd",
        choices=["spark-sd", "spark-mo", "panthera"],
        help="figure 12 panel",
    )
    parser.add_argument(
        "--faults",
        type=int,
        default=None,
        metavar="SEED",
        help="inject deterministic H2 faults with this seed",
    )
    parser.add_argument(
        "--fault-rate",
        type=float,
        default=0.01,
        help="per-operation fault probability (with --faults)",
    )
    parser.add_argument(
        "--fault-seed",
        type=int,
        default=None,
        metavar="SEED",
        help="decouple the fault/crash schedule from the workload seed "
        "(default: derived from --faults)",
    )
    parser.add_argument(
        "--audit",
        choices=["cheap", "full"],
        default=None,
        help="verify heap invariants after every GC cycle",
    )
    args = parser.parse_args(argv)

    if args.experiment == "list":
        print("\n".join(EXPERIMENTS))
        return 0

    if args.faults is not None:
        rate = args.fault_rate
        faults_mod.set_default_fault_config(
            FaultConfig(
                seed=args.faults,
                fault_seed=args.fault_seed,
                read_error_rate=rate,
                write_error_rate=rate,
                latency_spike_rate=rate,
                sigbus_rate=rate / 4,
                device_full_rate=rate / 10,
            )
        )
    if args.audit is not None:
        faults_mod.set_default_audit_level(args.audit)
    status = 0
    if args.experiment == "table5":
        print(table5.format_results(table5.run()))
    elif args.experiment == "barrier":
        print(barrier.format_result(barrier.run()))
    elif args.experiment == "fig06":
        print(
            fig06.format_results(
                fig06.run_spark(workloads=args.workloads, scale=args.scale)
            )
        )
        if not args.workloads:
            print(fig06.format_results(fig06.run_giraph()))
    elif args.experiment == "fig07":
        print(fig07.format_results(fig07.run(scale=args.scale)))
    elif args.experiment == "fig08":
        print(
            fig08.format_results(
                fig08.run(workloads=args.workloads, scale=args.scale)
            )
        )
    elif args.experiment == "fig09a":
        print(fig09.format_pairs(fig09.run_hint_ablation(args.workloads)))
    elif args.experiment == "fig09b":
        print(fig09.format_pairs(fig09.run_low_threshold_ablation()))
    elif args.experiment == "fig10":
        print(fig10.format_results(fig10.run(workloads=args.workloads)))
    elif args.experiment == "fig11a":
        print(
            fig11.format_card_sweep(
                fig11.run_card_segment_sweep(workloads=args.workloads)
            )
        )
    elif args.experiment == "fig11b":
        print(
            fig11.format_phases(
                fig11.run_major_phase_breakdown(workloads=args.workloads)
            )
        )
    elif args.experiment == "fig12":
        print(
            fig12.format_pairs(
                fig12.run_panel(
                    args.panel, workloads=args.workloads, scale=args.scale
                )
            )
        )
    elif args.experiment == "fig13a":
        print(
            fig13.format_thread_scaling(
                fig13.run_thread_scaling(scale=args.scale)
            )
        )
    elif args.experiment == "gcscale":
        # The module's own CLI prints the full report: both steal
        # policies, the TeraHeap scan-cap series, and the adaptive
        # batch-sizing comparison.
        status = gc_scaling.main(
            ["--batches", str(max(1, int(60 * args.scale)))]
        )
    elif args.experiment in MATRIX_EXPERIMENTS:
        experiment, takes_fault_seed = MATRIX_EXPERIMENTS[args.experiment]
        matrix_args = ["--check"]
        if args.scale < 1.0:
            matrix_args.append("--smoke")
        if takes_fault_seed and args.fault_seed is not None:
            matrix_args.extend(["--fault-seed", str(args.fault_seed)])
        status = harness.run(experiment, matrix_args)
    elif args.experiment == "bench":
        # The pinned perf-trajectory matrix; writes BENCH_0007.json.
        status = bench.main([])
    elif args.experiment == "fig13b":
        results = fig13.run_dataset_scaling(scale=args.scale)
        for workload, per_system in results.items():
            for system, per_ds in per_system.items():
                row = "  ".join(
                    f"{ds}GB={'OOM' if r.oom else f'{r.total:.0f}s'}"
                    for ds, r in sorted(per_ds.items())
                )
                print(f"{workload} {system}: {row}")

    if args.faults is not None or args.audit is not None:
        summary = faults_mod.resilience_summary()
        print(
            "resilience: "
            f"faults_injected={summary['faults_injected']:.0f} "
            f"ops_retried={summary['ops_retried']:.0f} "
            f"retry_exhaustions={summary['retry_exhaustions']:.0f} "
            f"degradations={summary['degradations']:.0f} "
            f"crashes={summary['crashes']:.0f} "
            f"recoveries={summary['recoveries']:.0f} "
            f"audits_run={summary['audits_run']:.0f} "
            f"invariant_violations={summary['invariant_violations']:.0f}"
        )
        faults_mod.reset_defaults()
    return status


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
