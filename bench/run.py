"""cliffcast benchmark: one workload, its metrics and its output checks.

    python3 bench/run.py --workload rb-2q --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the program is imported from ./src.  With
--trace 0 the end-to-end metrics are measured with tracing off; with
--trace 1 a traced run gives the per-layer metrics.  Each metric is printed
by name with its unit; the last line of stdout is one JSON object with
"correct", "attempted", "failed" and "metrics".  Reports and spans go to
.bench_out/.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from typing import NamedTuple

from calibration import NOMINAL_S

BENCH = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("rb-2q", "rb-wide", "census", "analysis")
SETUP_REPEATS = {0: 5, 1: 3}
# Time a run may take beyond --seconds, for its set-ups and warm-up.
MARGIN_S = 150.0
# One thread everywhere, so that runs on a shared machine compare.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")


class BenchError(Exception):
    pass


def child_env(root: str) -> dict:
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


class Setup(NamedTuple):
    result: dict  # the probe's JSON line
    stderr: str
    wall_s: float  # the probe's wall time without its calibration kernel
    calibrated_s: float  # wall_s at the calibration kernel's nominal speed


def run_setup(argv, env, deadline) -> Setup:
    result, err, wall = run_child(argv, env, deadline)
    wall -= result["cal_total_s"]
    return Setup(result, err, wall, wall / result["cal_s"] * NOMINAL_S)


def run_child(argv, env, deadline) -> tuple[dict, str, float]:
    """Run one child to completion; returns its JSON line, stderr and wall time."""
    t0 = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, *argv], env=env, capture_output=True,
                              text=True, timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{argv} did not finish in time")
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError(f"{argv} exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stderr, wall


def scipy_import_s(importtime: str) -> float:
    """Cumulative import time of the scipy subtrees in -X importtime output."""
    rows = []
    for line in importtime.splitlines():
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2].rstrip()
        rows.append((len(name) - len(name.lstrip()), name.strip(), int(parts[1])))
    total = 0
    for i, (depth, name, cumulative) in enumerate(rows):
        if name != "scipy" and not name.startswith("scipy."):
            continue
        parent = next((n for d, n, _ in rows[i + 1:] if d < depth), "")
        if parent != "scipy" and not parent.startswith("scipy."):
            total += cumulative
    return total * 1e-6


def git_commit(root: str) -> str:
    try:
        with open(os.path.join(root, ".git", "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(root, ".git", ref)) as f:
                return f.read().strip()
        except FileNotFoundError:
            with open(os.path.join(root, ".git", "packed-refs")) as f:
                return next(ln.split()[0] for ln in f if ln.rstrip().endswith(" " + ref))
    except (OSError, StopIteration):
        return "unknown"


def provenance(args, root: str) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "cpu": cpu,
        "python": platform.python_version(), "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"), "commit": git_commit(root),
        "setup_repeats": SETUP_REPEATS[args.trace],
    }


def tail(times: list[float]) -> tuple[float, float] | None:
    """Highest percentile with at least ten samples beyond it, and its value."""
    n = len(times)
    if n <= 10:
        return None
    rank = n - 10
    return 100.0 * rank / n, sorted(times)[rank - 1]


def measure(args, root: str) -> tuple[dict, dict]:
    deadline = time.monotonic() + args.seconds + MARGIN_S
    out_dir = os.path.join(root, ".bench_out")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(out_dir, f"tmp-{tag}-{os.getpid()}")
    os.makedirs(workdir)
    env = child_env(root)
    report = {"provenance": provenance(args, root), "loadavg_before": os.getloadavg()}
    setup_argv = [os.path.join(BENCH, "setup_probe.py"), "--workload", args.workload,
                  "--seed", str(args.seed), "--workdir", workdir]
    if args.trace:
        setup_argv = ["-X", "importtime", *setup_argv, "--cold-census"]
    repeats = SETUP_REPEATS[args.trace]
    try:
        # Half the set-ups before the workload and half after, so that their
        # median spans the run rather than one moment of the machine's speed.
        setups = [run_setup(setup_argv, env, deadline) for _ in range((repeats + 1) // 2)]
        worker, _, _ = run_child(
            [os.path.join(BENCH, "worker.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--workdir", workdir,
             "--spans", os.path.join(out_dir, f"{tag}-spans.npz")],
            env, deadline)
        setups += [run_setup(setup_argv, env, deadline) for _ in range(repeats // 2)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report["loadavg_after"] = os.getloadavg()

    attempted = worker["attempted"] + sum(s.result["attempted"] for s in setups)
    failed = worker["failed"] + sum(s.result["failed"] for s in setups)
    report["messages"] = worker["messages"] + [m for s in setups for m in s.result["messages"]]
    report.update(attempted=attempted, failed=failed, jobs=worker["jobs"],
                  error_rate=failed / attempted)
    if args.trace:
        metrics = dict(worker["layers"])
        for name, values in (
            ("cli.import_s", [s.result["import_s"] for s in setups]),
            ("cli.import_scipy_s", [scipy_import_s(s.stderr) for s in setups]),
            ("decomp.census_s", [s.result["decomp_census_s"] for s in setups]),
        ):
            metrics[name] = {"value": statistics.median(values), "unit": "s", "source": "setup"}
    else:
        times = worker["times"]
        wall_s = statistics.median(times)
        metrics = {
            "setup_s": {"value": statistics.median(s.calibrated_s for s in setups), "unit": "s"},
            "wall_cal": {"value": statistics.median(worker["cal_units"]), "unit": "cal"},
            "peak_rss_mb": {"value": worker["peak_rss_mb"], "unit": "MB"},
        }
        report["seconds"] = {
            "wall_s": wall_s, "wall_tail": tail(times),
            "work_name": worker["work_name"], "work_per_s": worker["work"] / sum(times),
            "cal_s": statistics.median(worker["calibrations"]),
            "setup_raw_s": statistics.median(s.wall_s for s in setups),
        }
        report["setups_s"] = [s.wall_s for s in setups]
        report["setups_calibrated_s"] = [s.calibrated_s for s in setups]
        report["job_times_s"] = times
        report["calibrations_s"] = worker["calibrations"]
    report["metrics"] = metrics
    with open(os.path.join(out_dir, f"{tag}.json"), "w") as f:
        json.dump(report, f, indent=1)
    return report, metrics


def print_report(report: dict, metrics: dict) -> None:
    print("provenance " + json.dumps(report["provenance"]))
    print(f"load average before {report['loadavg_before']} after {report['loadavg_after']}")
    for name, m in metrics.items():
        note = f"  [{m['source']}]" if "source" in m else ""
        print(f"{name} = {m['value']:.6g} {m['unit']}{note}")
    if "seconds" in report:
        sec = report["seconds"]
        print(f"cal_s = {sec['cal_s']:.6g} s (median time of the calibration kernel)")
        print(f"setup_raw_s = {sec['setup_raw_s']:.6g} s (median set-up wall time, "
              f"uncalibrated)")
        print(f"wall_s = {sec['wall_s']:.6g} s (median over {report['jobs']} jobs)")
        if sec["wall_tail"] is None:
            print(f"wall tail: n/a, {report['jobs']} jobs (needs 11)")
        else:
            pct, value = sec["wall_tail"]
            print(f"wall_p{pct:.0f}_s = {value:.6g} s over {report['jobs']} jobs")
        print(f"{sec['work_name']} = {sec['work_per_s']:.6g} 1/s")
    print(f"error_rate = {report['error_rate']:.6g} ({report['failed']} of "
          f"{report['attempted']} checks failed)")
    for message in report["messages"]:
        print(f"check failed: {message}", file=sys.stderr)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "cliffcast", "cli.py")):
        print("error: run from the root of a cliffcast checkout; src/cliffcast is missing",
              file=sys.stderr)
        return 2
    try:
        report, metrics = measure(args, root)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print_report(report, metrics)
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
