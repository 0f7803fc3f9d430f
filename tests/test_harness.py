"""The experiment harness: reruns, failures, report layout, exit status."""

import json
from dataclasses import dataclass
from functools import partial

import pytest

from repro.experiments import (
    brownout,
    chaoskill,
    harness,
    phoenix,
    serverscale,
    streamscale,
)


@dataclass
class FakeCell(harness.Cell):
    label: str
    value: int

    def row(self) -> str:
        return f"{self.label} value={self.value}"


class Fake:
    """A two-cell experiment that records what the harness asked of it."""

    def __init__(self, drift=False, failures=(), artifacts=False):
        self.drift = drift
        self.failures = list(failures)
        self.runs = []
        self.exports = 0
        self.experiment = harness.Experiment(
            prog="fake",
            description="fake matrix",
            smoke_help="smaller",
            matrix=self.matrix,
            check=lambda args, cells: self.failures,
            header=lambda cells: f"fake header ({len(cells)} cells)",
            success="all fake cells fine",
            artifacts=self.artifacts if artifacts else None,
        )

    def artifacts(self, args):
        self.exports += 1
        return "a,b\n1,2\n", '{"traceEvents":[]}'

    def run_cell(self, label):
        self.runs.append(label)
        # With drift, a cell's value is how often it has run so far.
        return FakeCell(label, self.runs.count(label) if self.drift else 0)

    def matrix(self, args):
        for label in ("a", "b"):
            yield partial(self.run_cell, label)


def test_check_reruns_and_fails_on_digest_drift(capsys):
    fake = Fake(drift=True)
    assert harness.run(fake.experiment, ["--check"]) == 1
    assert fake.runs == ["a", "a", "b", "b"]
    out = capsys.readouterr().out
    assert "2 failure(s):\n  a: cell digest differs across reruns\n" in out
    assert "  b: cell digest differs across reruns" in out


def test_check_passes_when_every_digest_is_stable(capsys):
    fake = Fake()
    assert harness.run(fake.experiment, ["--check"]) == 0
    assert fake.runs == ["a", "a", "b", "b"]
    assert capsys.readouterr().out == (
        "fake header (2 cells)\n"
        "a value=0\n"
        "b value=0\n"
        "\n"
        "all fake cells fine\n"
    )


def test_check_fails_on_acceptance_failure(capsys):
    fake = Fake(failures=["b: value too small"])
    assert harness.run(fake.experiment, ["--check"]) == 1
    assert capsys.readouterr().out.endswith(
        "b value=0\n\n1 failure(s):\n  b: value too small\n"
    )


def test_without_check_no_rerun_and_exit_zero(capsys):
    fake = Fake(drift=True, failures=["a: broken"])
    assert harness.run(fake.experiment, []) == 0
    assert fake.runs == ["a", "b"]
    # Failures are still reported; only the exit status ignores them.
    assert "1 failure(s):\n  a: broken" in capsys.readouterr().out


def test_artifacts_are_written_only_when_asked(tmp_path, capsys):
    fake = Fake(artifacts=True)
    harness.run(fake.experiment, ["--smoke"])
    assert fake.exports == 0
    csv, trace = tmp_path / "cells.csv", tmp_path / "trace.json"
    harness.run(fake.experiment, ["--csv-out", str(csv)])
    assert fake.exports == 1
    assert csv.read_text() == "a,b\n1,2\n" and not trace.exists()
    harness.run(fake.experiment, ["--trace-out", str(trace)])
    assert trace.read_text() == '{"traceEvents":[]}'
    assert f"chrome trace -> {trace}" in capsys.readouterr().out


@pytest.mark.parametrize(
    "driver, exports",
    [
        (chaoskill, False),
        (brownout, False),
        (phoenix, True),
        (streamscale, True),
        (serverscale, True),
    ],
)
def test_driver_flags(driver, exports, capsys):
    # --check-determinism is gone: --check always reruns every cell.
    experiment = driver.EXPERIMENT
    args = harness.parse_args(experiment, ["--smoke", "--check"])
    assert args.smoke and args.check
    with pytest.raises(SystemExit):
        harness.parse_args(experiment, ["--check-determinism"])
    if exports:
        assert harness.parse_args(experiment, ["--trace-out", "t.json"])
    else:
        with pytest.raises(SystemExit):
            harness.parse_args(experiment, ["--trace-out", "t.json"])


@pytest.mark.parametrize("driver", [phoenix, streamscale, serverscale])
def test_driver_artifacts(driver, tmp_path, capsys):
    csv, trace = tmp_path / "rows.csv", tmp_path / "trace.json"
    argv = ["--smoke", "--csv-out", str(csv), "--trace-out", str(trace)]
    assert harness.run(driver.EXPERIMENT, argv) == 0
    assert len(csv.read_text().splitlines()) > 1
    assert json.loads(trace.read_text())["traceEvents"]

