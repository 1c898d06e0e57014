"""Set-up of one workload in a fresh interpreter.

Imports cliffcast.cli and runs the workload's first, smallest operation;
run.py times the whole process.  Then runs the calibration kernel, in this
process, so that run.py can take the set-up's time in units of it.  Prints
one JSON object with the import time, the kernel's median and total time,
the check counts and, with --cold-census, the time of a cold decomposition
census taken right after the import.
"""

from __future__ import annotations

import argparse
import json
import statistics
import time

# Time the calibration kernel runs after the set-up.
CALIBRATION_S = 0.4


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--cold-census", action="store_true")
    args = ap.parse_args()

    t0 = time.perf_counter()
    import cliffcast.cli  # noqa: F401
    result = {"import_s": time.perf_counter() - t0}

    import workloads
    from calibration import calibrate

    workloads.check_sources()
    if args.cold_census:
        from cliffcast import decomp

        t0 = time.perf_counter()
        decomp.decomposition_census()
        result["decomp_census_s"] = time.perf_counter() - t0
    checks = workloads.Checks()
    workloads.WORKLOADS[args.workload](args.seed, None, args.workdir).setup_op(checks)
    t0 = time.perf_counter()
    cal = calibrate(CALIBRATION_S)
    result.update(cal_s=statistics.median(cal), cal_total_s=time.perf_counter() - t0)
    result.update(attempted=checks.attempted, failed=checks.failed, messages=checks.messages)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
