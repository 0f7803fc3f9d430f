"""Self-tests of the benchmark: metric contract, pinned-value gate, controls.

Run from the repository root: ``python3 -m pytest -q perfbench/tests``.
Each test runs real jobs with a short ``--seconds``, so one job per run.
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload, trace, seed=42, cwd=ROOT):
    proc = subprocess.run(
        [
            sys.executable, str(Path(cwd) / "perfbench" / "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", "0.1", "--trace", str(trace),
        ],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def last_json(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def sd_untraced():
    return last_json(run_bench("spark-pr-sd", 0))


@pytest.fixture(scope="module")
def sd_traced():
    return last_json(run_bench("spark-pr-sd", 1))


@pytest.mark.parametrize(
    "fixture, section", [("sd_untraced", "end_to_end"), ("sd_traced", "per_layer")]
)
def test_every_named_metric_is_printed_with_its_unit(request, fixture, section):
    result = request.getfixturevalue(fixture)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    named = {m["name"]: m["unit"] for m in SPEC[section]}
    assert printed == named


def test_tampered_pin_fails_the_run(capsys):
    sys.path[:0] = [str(BENCH), str(ROOT / "src")]
    try:
        import run
        from bench_workloads import WORKLOADS
    finally:
        del sys.path[:2]
    pins = json.loads((BENCH / "pins.json").read_text())
    tampered = copy.deepcopy(pins)
    tampered["workloads"]["server-4t"]["vm1.bucket.other"] = "0.000000001"

    class Args:
        workload, seed, seconds, trace = "server-4t", 42, 0.1, 0

    run.run(Args, SPEC, tampered, WORKLOADS["server-4t"], [0.0])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["attempted"] >= 1
    assert result["failed"] == result["attempted"]
    assert result["correct"] is False


def test_spark_sd_is_the_teraheap_and_page_cache_control(sd_traced):
    metrics = sd_traced["metrics"]
    for name, metric in metrics.items():
        if name.startswith(("teraheap.", "devices.page_cache.")):
            assert metric["value"] == 0, name
    assert metrics["serdes.serialize.calls"]["value"] > 0


def test_spark_teraheap_goes_through_the_page_cache():
    metrics = last_json(run_bench("spark-pr-th", 1))["metrics"]
    assert metrics["devices.page_cache.accesses"]["value"] > 0
    assert metrics["teraheap.regions_allocated"]["value"] > 0


def test_refuses_to_run_without_the_simulator_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        BENCH, tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    proc = run_bench("spark-pr-th", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
