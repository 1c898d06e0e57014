#!/usr/bin/env python3
"""Mean broadcast pulses per Clifford round versus qubit count.

Exact censuses for n = 1..--exact-max (any n >= 1; the exact census is
read from a frozen cost-by-size table, about 0.1 ms per n) and
Monte-Carlo estimates for --sampled-min..--sampled-max, by default the
same n = 5..10, so each estimate sits next to the exact value it
estimates; writes a CSV with one row per census, the same bytes on every
run (each census's wall time goes to its stderr progress line).  Both
converge to the five-pulse ceiling.

    python scripts/pulse_count_scaling.py --samples 20000 -o scaling.csv
    python scripts/pulse_count_scaling.py --exact-max 30  # exact up to n=30
"""

import argparse
import sys
import time

from cliffcast.compiler import mean_np_exact, mean_np_sampled


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--exact-max", type=int, default=10)
    ap.add_argument("--sampled-min", type=int, default=5)
    ap.add_argument("--sampled-max", type=int, default=10)
    ap.add_argument("--samples", type=int, default=20_000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("-o", "--output", default=None)
    args = ap.parse_args(argv)
    if args.exact_max < 1:
        ap.error("--exact-max must be >= 1")

    rows = ["n,mode,mean_np,stderr,samples"]
    for n in range(1, args.exact_max + 1):
        t0 = time.perf_counter()
        st = mean_np_exact(n)
        rows.append(f"{n},exact,{st.mean_np:.9g},0,{st.samples}")
        print(f"n={n} exact: {st.mean_np:.6f} ({time.perf_counter() - t0:.3f} s)",
              file=sys.stderr)
    for n in range(args.sampled_min, args.sampled_max + 1):
        t0 = time.perf_counter()
        st = mean_np_sampled(n, args.samples, args.seed + n)
        rows.append(f"{n},sampled,{st.mean_np:.9g},{st.stderr:.3g},{st.samples}")
        print(f"n={n} sampled: {st.mean_np:.4f} +- {st.stderr:.4f} "
              f"({time.perf_counter() - t0:.3f} s)", file=sys.stderr)
    text = "\n".join(rows) + "\n"
    if args.output:
        with open(args.output, "w", newline="") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
