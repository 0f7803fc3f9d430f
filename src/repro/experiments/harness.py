"""The experiment harness: matrix -> cells -> reruns -> checks -> report.

Each matrix experiment (chaoskill, brownout, phoenix, streamscale and
serverscale) describes itself with one :class:`Experiment` and runs
through :func:`run`, which owns the command line, the determinism
rerun, the report layout, the artifact files and the exit status.
Under ``--check`` every cell runs twice and its ``digest()`` must be
identical across the two runs; any drift or acceptance failure then
makes the exit status 1.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Sequence, Tuple


class Cell:
    """Base of a driver's ``@dataclass`` cell result.

    A subclass adds ``label`` (names the cell in failure messages) and
    ``row()`` (its report line).
    """

    def digest(self) -> str:
        """Canonical outcome: every field, floats at full precision."""
        return repr(self)


@dataclass(frozen=True)
class Experiment:
    prog: str
    description: str
    smoke_help: str
    #: one zero-argument callable per cell; calling it again reruns it
    matrix: Callable[[argparse.Namespace], Iterable[Callable[[], Cell]]]
    #: acceptance failures of the completed matrix
    check: Callable[[argparse.Namespace, List[Cell]], List[str]]
    #: report text above the cell rows
    header: Callable[[List[Cell]], str]
    #: printed in place of the failure list when nothing failed
    success: str
    add_arguments: Optional[Callable[[argparse.ArgumentParser], None]] = None
    #: ``args -> (csv text, chrome-trace JSON)`` of one representative
    #: run; only drivers with one get ``--csv-out`` and ``--trace-out``
    artifacts: Optional[Callable[[argparse.Namespace], Tuple[str, str]]] = None
    csv_help: str = ""
    trace_help: str = ""


def parse_args(
    experiment: Experiment, argv: Optional[Sequence[str]] = None
) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog=experiment.prog, description=experiment.description
    )
    parser.add_argument(
        "--smoke", action="store_true", help=experiment.smoke_help
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="run every cell twice and require identical digests; exit "
        "non-zero on any drift or acceptance failure",
    )
    if experiment.add_arguments is not None:
        experiment.add_arguments(parser)
    if experiment.artifacts is not None:
        parser.add_argument("--csv-out", help=experiment.csv_help)
        parser.add_argument("--trace-out", help=experiment.trace_help)
    return parser.parse_args(argv)


def evaluate(
    experiment: Experiment, args: argparse.Namespace
) -> Tuple[List[Cell], List[str]]:
    """Run the matrix; returns ``(cells, failures)``."""
    cells: List[Cell] = []
    failures: List[str] = []
    for run_cell in experiment.matrix(args):
        cell = run_cell()
        cells.append(cell)
        if args.check and run_cell().digest() != cell.digest():
            failures.append(f"{cell.label}: cell digest differs across reruns")
    return cells, failures + experiment.check(args, cells)


def run(experiment: Experiment, argv: Optional[Sequence[str]] = None) -> int:
    """Parse, evaluate, report, export; returns the exit status."""
    args = parse_args(experiment, argv)
    cells, failures = evaluate(experiment, args)
    lines = [experiment.header(cells)]
    lines.extend(cell.row() for cell in cells)
    lines.append("")
    if failures:
        lines.append(f"{len(failures)} failure(s):")
        lines.extend(f"  {msg}" for msg in failures)
    else:
        lines.append(experiment.success)
    print("\n".join(lines))
    if experiment.artifacts is not None and (args.csv_out or args.trace_out):
        csv_text, trace_json = experiment.artifacts(args)
        for path, text, what in (
            (args.csv_out, csv_text, "csv"),
            (args.trace_out, trace_json, "chrome trace"),
        ):
            if path:
                with open(path, "w", newline="") as f:
                    f.write(text)
                print(f"{what} -> {path}")
    return 1 if args.check and failures else 0
