"""One workload in a fresh process: warm-up, timed jobs and their checks.

run.py starts this with cliffcast's sources on PYTHONPATH and one BLAS
thread.  It prints one JSON object: the job times, the work done, the peak
resident memory, the check counts and, when traced, the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import time

import workloads
from calibration import calibrate
from tracing import Instrumentation, Tracer, layer_metrics

# Share of a step's time spent on the calibration kernel next to it.
CALIBRATION_SHARE = 0.2
# Peak memory is read after the warm-up and this many jobs, so that it does
# not depend on how many jobs the machine's speed fits into the run.
RSS_JOBS = 3
REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def timed_job(wl, k):
    t0 = time.perf_counter()
    out = wl.job(k)
    return out, time.perf_counter() - t0


def calibrated_job(wl, k, last):
    """Job k with the calibration kernel between its steps and at both ends.
    Returns the outputs, the job's seconds, its calibrated time and the
    kernel times.  A step's calibrated time is its time over the median
    kernel time just before and just after it.  Between two steps the kernel
    runs for CALIBRATION_SHARE of the longer of them, taking the next step's
    time from the previous job (`last`, updated here)."""
    out, seconds, cal_units = [], 0.0, 0.0
    before = calibrate(CALIBRATION_SHARE * last.get(0, 0.0))
    cals = list(before)
    for i, step in enumerate(wl.steps(k)):
        t0 = time.perf_counter()
        out.append(step())
        dt = last[i] = time.perf_counter() - t0
        after = calibrate(CALIBRATION_SHARE * max(dt, last.get(i + 1, 0.0)))
        seconds += dt
        cal_units += dt / statistics.median(before + after)
        cals += after
        before = after
    return out, seconds, cal_units, cals


def run_untraced(wl, seconds, checks):
    """Calibrated jobs until the time is up, and at least RSS_JOBS."""
    times, cal_units, calibrations, work, last = [], [], [], 0, {}
    deadline = time.perf_counter() + seconds
    k = 0
    rss_mb = None
    while k < RSS_JOBS or time.perf_counter() < deadline:
        res = checks.call(f"job {k}", calibrated_job, wl, k, last)
        if res is not None:
            out, dt, units, cals = res
            times.append(dt)
            cal_units.append(units)
            calibrations += cals
            work += wl.work_per_job
            checks.call("checks", wl.check, k, out, checks)
        k += 1
        if k == RSS_JOBS:
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return times, cal_units, calibrations, work, rss_mb


def run_traced(wl, seconds, checks, spans_path):
    """Jobs run in pairs, one traced and one untraced, in alternating order,
    traced first, so the first traced job meets the caches as the warm-up
    left them.  The two jobs of a pair take different inputs, so that
    neither finds the other's results in the program's caches.  After the
    jobs, a probe runs every workload's set-up operation traced."""
    tracer = Tracer()
    instrumentation = Instrumentation(tracer)
    ratios, roots = [], []
    deadline = time.perf_counter() + seconds
    pair = 0
    while pair == 0 or time.perf_counter() < deadline:
        dts = {}
        for traced in ((True, False) if pair % 2 == 0 else (False, True)):
            k = 2 * pair + (not traced)
            if traced:
                with instrumentation:
                    root = tracer.open("job")
                    try:
                        res = checks.call(f"traced job {k}", timed_job, wl, k)
                    finally:
                        tracer.close(root)
                roots.append(root)
            else:
                res = checks.call(f"job {k}", timed_job, wl, k)
            if res is None:
                break
            out, dts[traced] = res
            checks.call("checks", wl.check, k, out, checks)
        if len(dts) == 2:
            ratios.append(dts[True] / dts[False])
        pair += 1
    with instrumentation:
        probe = tracer.open("probe")
        try:
            for cls in workloads.WORKLOADS.values():
                cls(wl.seed, None, wl.workdir).setup_op(checks)
        finally:
            tracer.close(probe)
    tracer.save(spans_path)
    layers = layer_metrics(tracer, roots, probe)
    layers["trace.overhead_ratio"] = {"value": statistics.median(ratios), "unit": "ratio",
                                      "source": "workload"}
    return layers, len(ratios)


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spans", required=True)
    args = ap.parse_args()
    workloads.check_sources()
    with open(REFERENCE) as f:
        reference = json.load(f)

    checks = workloads.Checks()
    wl = workloads.WORKLOADS[args.workload](args.seed, reference, args.workdir)
    wl.warmup(checks)
    result = {"work_name": wl.work_name}
    if args.trace:
        result["layers"], result["jobs"] = run_traced(wl, args.seconds, checks, args.spans)
    else:
        times, cal_units, calibrations, work, rss_mb = run_untraced(wl, args.seconds, checks)
        result.update(times=times, cal_units=cal_units, calibrations=calibrations,
                      work=work, jobs=len(times), peak_rss_mb=rss_mb)
    result.update(
        attempted=checks.attempted, failed=checks.failed, messages=checks.messages,
    )
    print(json.dumps(result))


if __name__ == "__main__":
    main()
