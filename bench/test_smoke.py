"""Smoke test of the benchmark itself (about two minutes):

    python3 -m pytest -q bench/test_smoke.py

Runs every workload for one second in both modes, checks that each metric
in BENCHMARK.json is reported with its unit and that every output check
passes, shows that a corrupted reference value is caught, and that the
benchmark refuses to run without the program's sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, trace, bench=ROOT / "bench"):
    return subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_reported(workload, trace):
    proc = run(workload, trace)
    result = result_of(proc)
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0, proc.stderr
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected}
    for name in result["metrics"]:
        assert f"\n{name} = " in proc.stdout


def copy_bench(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return tmp_path / "bench"


def test_corrupted_reference_is_caught(tmp_path):
    bench = copy_bench(tmp_path)
    reference = json.loads((bench / "reference.json").read_text())
    reference["rb-2q"]["compiled"]["p0"][0][5] += 1e-9
    (bench / "reference.json").write_text(json.dumps(reference))
    result = result_of(run("rb-2q", 0, bench))
    assert result["failed"] > 0 and not result["correct"]


def test_refuses_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    copy_bench(tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "census", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0 and proc.stdout == ""
