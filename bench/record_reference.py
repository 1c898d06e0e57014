"""Record the benchmarking reference curves that run.py checks against.

    PYTHONPATH=src python3 bench/record_reference.py

Re-records the "rb-2q" and "rb-wide" entries of bench/reference.json from
the current sources and keeps the census entries, which are exact values:
the full enumeration for n = 4, 5 and the exact optimum for n = 6..10.
Run it only when a change is meant to alter the simulated curves.
"""

import json
import os
import sys

import workloads

PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def main() -> None:
    with open(PATH) as f:
        reference = json.load(f)
    for cls in (workloads.RB2Q, workloads.RBWide):
        reference[cls.name] = {
            scheme: {"p0": [c.p0.tolist() for c in res.curves],
                     "mean_slots_per_round": res.mean_slots_per_round}
            for scheme, res in cls.reference_runs().items()
        }
    with open(PATH, "w") as f:
        json.dump(reference, f, indent=1)
        f.write("\n")
    print(f"wrote {PATH}", file=sys.stderr)


if __name__ == "__main__":
    main()
