"""Command-line front end.

Subcommands
-----------
compile   Clifford ids -> broadcast schedule JSON
stats     exact or sampled mean pulses per Clifford combination
rb        randomized benchmarking from a JSON config -> CSV + fit summary
allxy     the 21-pair diagnostic staircase -> CSV
calib     amplitude-calibration curve -> CSV
swap      two-qubit excitation swapping -> CSV
leakfit   fit the leakage saturation model to a CSV of (m, p2)

Times are nanoseconds throughout; the exchange coupling for `swap` is
given as J/2pi in kHz.  CSV output: header row, comma separators, LF line
endings, floats with 9 significant digits.  Exit codes: 0 success, 2 usage
errors, 3 config/validation errors, 4 numerical failures.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

import numpy as np

from . import compiler, fit, sim
from .compiler import SCHEMES, Schedule
from .sim import RB_SCHEMES, QubitModel

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VALIDATION = 3
EXIT_NUMERICAL = 4


class ValidationError(Exception):
    pass


def _fmt(x: float) -> str:
    return format(float(x), ".9g")


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="") as f:
            f.write(text)


def _csv(rows, header) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"


def _parse_combo(text: str) -> tuple[int, ...]:
    try:
        combo = tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"combo must be comma-separated integers, got {text!r}"
        )
    if not combo:
        raise argparse.ArgumentTypeError("combo must not be empty")
    return combo


def _verify_schedule(schedule: Schedule, combo) -> None:
    """Re-check every masked pulse product against its target before
    anything is written."""
    from .clifford import CANONICAL_UNITARIES, equal_up_to_phase, sequence_unitary

    for q, c in enumerate(combo):
        u = sequence_unitary(schedule.masked_pulses(q))
        if not equal_up_to_phase(u, CANONICAL_UNITARIES[c - 1]):
            raise RuntimeError(
                f"schedule verification failed for qubit {q} (target {c})"
            )


def cmd_compile(args) -> int:
    combo = args.combo
    for c in combo:
        if not 1 <= c <= 24:
            raise ValidationError(f"Clifford ids must be in 1..24, got {c}")
    schedule = compiler.compile_scheme(combo, args.scheme, round_parity=args.parity)
    _verify_schedule(schedule, combo)
    _write_text(args.output, schedule.to_json())
    return EXIT_OK


def cmd_stats(args) -> int:
    t0 = time.perf_counter()
    if args.exact:
        if args.n > 5:
            raise ValidationError(
                f"exact census for n={args.n} needs 24^{args.n} combinations; "
                "use --samples instead"
            )
        if args.n == 5 and not args.allow_long:
            raise ValidationError(
                "exact n=5 sweeps 24^5 combinations; pass --allow-long to run it"
            )
    elif args.samples is None:
        raise ValidationError("need --exact or --samples N")
    try:
        if args.exact:
            stats = compiler.mean_np_exact(args.n)
        else:
            stats = compiler.mean_np_sampled(args.n, args.samples, args.seed)
    except ValueError as exc:
        raise ValidationError(str(exc))
    payload = {
        "n": stats.n,
        "mean_np": stats.mean_np,
        "stderr": stats.stderr,
        "mode": stats.mode,
        "samples": stats.samples,
        "runtime_s": round(time.perf_counter() - t0, 3),
    }
    if args.csv:
        text = _csv(
            [(stats.n, float(stats.mean_np), float(stats.stderr), stats.mode,
              stats.samples)],
            header=["n", "mean_np", "stderr", "mode", "samples"],
        )
    else:
        text = json.dumps(payload, indent=2) + "\n"
    _write_text(args.output, text)
    return EXIT_OK


_CONFIG_KEYS = {"qubits", "scheme", "m_values", "n_seeds", "rng_seed",
                "csv_path", "summary_path"}
_QUBIT_KEYS = {"t1_ns", "slot_ns", "cross_ratio", "over_ratio"}


def _load_rb_config(path: str) -> dict:
    try:
        with open(path) as f:
            cfg = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValidationError(f"cannot read config {path}: {exc}")
    if not isinstance(cfg, dict):
        raise ValidationError("config must be a JSON object")
    unknown = set(cfg) - _CONFIG_KEYS
    if unknown:
        raise ValidationError(f"unknown config keys: {sorted(unknown)}")
    missing = {"qubits", "scheme", "m_values", "n_seeds", "rng_seed"} - set(cfg)
    if missing:
        raise ValidationError(f"missing config keys: {sorted(missing)}")
    if cfg["scheme"] not in RB_SCHEMES:
        raise ValidationError(
            f"scheme must be one of {RB_SCHEMES}, got {cfg['scheme']!r}"
        )
    if not isinstance(cfg["qubits"], list) or not cfg["qubits"]:
        raise ValidationError("qubits must be a non-empty list")
    for q in cfg["qubits"]:
        if not isinstance(q, dict):
            raise ValidationError("each qubit must be an object")
        unknown = set(q) - _QUBIT_KEYS
        if unknown:
            raise ValidationError(f"unknown qubit keys: {sorted(unknown)}")
    if (not isinstance(cfg["m_values"], list) or not cfg["m_values"]
            or not all(_is_int(m) and m >= 1 for m in cfg["m_values"])):
        raise ValidationError("m_values must be a list of integers >= 1")
    if not _is_int(cfg["n_seeds"]) or cfg["n_seeds"] < 1:
        raise ValidationError("n_seeds must be a positive integer")
    if not _is_int(cfg["rng_seed"]):
        raise ValidationError("rng_seed must be an integer")
    return cfg


def _is_int(value) -> bool:
    """A JSON integer; true and false are bools, which Python counts as ints."""
    return isinstance(value, int) and not isinstance(value, bool)


def _qubit_model(entry: dict) -> QubitModel:
    t1 = entry.get("t1_ns", None)
    return QubitModel(
        t1_ns=math.inf if t1 in (None, "inf") else float(t1),
        slot_ns=float(entry.get("slot_ns", compiler.SLOT_NS)),
        cross_ratio=float(entry.get("cross_ratio", 0.0)),
        over_ratio=float(entry.get("over_ratio", 1.0)),
    )


def cmd_rb(args) -> int:
    cfg = _load_rb_config(args.config)
    try:
        models = [_qubit_model(q) for q in cfg["qubits"]]
    except ValueError as exc:
        raise ValidationError(str(exc))
    result = sim.run_rb(
        models, cfg["scheme"], cfg["m_values"], cfg["n_seeds"], cfg["rng_seed"]
    )
    summary: dict = {
        "scheme": result.scheme,
        "n_seeds": result.n_seeds,
        "rng_seed": result.rng_seed,
        "mean_slots_per_round": result.mean_slots_per_round,
        # Counted per run, so the same config prints the same bytes in any
        # process: a round whose channel the run already used is a hit, its
        # first use a miss (what the round cache builds in a fresh process).
        "work": {
            "rounds": result.rounds,
            "slots": result.slots,
            "round_cache": {"hits": result.rounds - result.distinct_rounds,
                            "misses": result.distinct_rounds},
        },
        "qubits": [],
    }
    for q, (curve, model) in enumerate(zip(result.curves, models)):
        entry: dict = {"qubit": q}
        if len(curve.m_values) < 4:
            entry["fit"] = None
            entry["note"] = "fewer than 4 sequence lengths; decay not fitted"
        else:
            try:
                f = fit.fit_exp_offset(curve.m_values, curve.p0,
                                       y_err=curve.p0_stderr)
                fc = fit.fidelity_from_decay(f.decay)
                sigma_fc = f.stderr[1] / 2.0
                entry.update(
                    decay=f.decay,
                    offset=f.offset,
                    amplitude=f.amplitude,
                    clifford_fidelity=fc,
                    clifford_fidelity_stderr=sigma_fc,
                )
                prediction = fit.t1_limit_fidelity(
                    model.t1_ns, model.slot_ns, result.mean_slots_per_round
                )
                entry["t1_limit_fidelity"] = prediction
                entry["difference_sigma"] = (
                    abs(fc - prediction) / sigma_fc if sigma_fc > 0 else None
                )
            except (fit.FitError, ValueError) as exc:
                raise NumericalError(str(exc))
        summary["qubits"].append(entry)

    # Every fit has succeeded: only now is anything written.
    rows = []
    for q, curve in enumerate(result.curves):
        for m, p0, p1 in zip(curve.m_values, curve.p0, curve.p1):
            rows.append((m, q, float(p0), float(p1)))
    csv_text = _csv(rows, header=["m", "qubit", "p0", "p1"])
    _write_text(cfg.get("csv_path", args.output), csv_text)
    summary_text = json.dumps(summary, indent=2) + "\n"
    _write_text(cfg.get("summary_path", None), summary_text)
    return EXIT_OK


class NumericalError(Exception):
    pass


def cmd_allxy(args) -> int:
    try:
        p1 = sim.simulate_allxy(over_ratio=args.over, phase_rad=args.phase)
    except ValueError as exc:
        raise ValidationError(str(exc))
    ideal = sim.allxy_ideal()
    rows = [(i + 1, float(p1[i]), float(ideal[i])) for i in range(len(p1))]
    _write_text(args.output, _csv(rows, header=["id", "p1", "ideal_p1"]))
    return EXIT_OK


def cmd_calib(args) -> int:
    try:
        n_values, p1 = sim.simulate_amp_calibration(args.over, n_max=args.n_max)
    except ValueError as exc:
        raise ValidationError(str(exc))
    rows = [(int(n), float(p)) for n, p in zip(n_values, p1)]
    _write_text(args.output, _csv(rows, header=["n", "p1"]))
    return EXIT_OK


def cmd_swap(args) -> int:
    try:
        params = sim.ExchangeParams(
            j_over_2pi_khz=args.j_khz,
            t1_a_ns=math.inf if args.t1a_us is None else args.t1a_us * 1000.0,
            t1_b_ns=math.inf if args.t1b_us is None else args.t1b_us * 1000.0,
        )
        t, p1a, p1b = sim.exchange_swap(
            params, np.linspace(0.0, args.t_max_us * 1000.0, args.points))
    except ValueError as exc:
        raise ValidationError(str(exc))
    rows = [
        (float(ti), float(a), float(b), float(a + b))
        for ti, a, b in zip(t, p1a, p1b)
    ]
    _write_text(args.output, _csv(rows, header=["t_ns", "p1_a", "p1_b", "total"]))
    return EXIT_OK


def cmd_leakfit(args) -> int:
    try:
        with open(args.input) as f:
            lines = [ln.strip() for ln in f if ln.strip()]
    except OSError as exc:
        raise ValidationError(f"cannot read {args.input}: {exc}")
    if not lines or not lines[0].lower().replace(" ", "").startswith("m,"):
        raise ValidationError("input CSV must start with an 'm,p2' header row")
    try:
        data = [tuple(float(x) for x in ln.split(",")[:2]) for ln in lines[1:]]
    except ValueError:
        raise ValidationError("input CSV rows must be numeric")
    m = [row[0] for row in data]
    p2 = [row[1] for row in data]
    try:
        lfit = fit.fit_leakage(m, p2, np_mean=args.np_mean, tp_ns=args.tp_ns)
    except (ValueError, fit.FitError) as exc:
        raise NumericalError(str(exc))
    payload = {
        "kappa": lfit.kappa,
        "t21_ns": None if math.isinf(lfit.t21_ns) else lfit.t21_ns,
        "np_mean": lfit.np_mean,
        "tp_ns": lfit.tp_ns,
        "kappa_stderr": lfit.stderr[0],
        "t21_stderr": lfit.stderr[1],
        "unidentifiable": lfit.unidentifiable,
    }
    _write_text(args.output, json.dumps(payload, indent=2) + "\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cliffcast",
        description="Broadcast pulse compilation and benchmarking simulation "
        "for same-frequency qubits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="compile Clifford ids to a schedule")
    p.add_argument("combo", type=_parse_combo,
                   help="comma-separated Clifford ids, one per qubit (1..24)")
    p.add_argument("--scheme", choices=SCHEMES, default=compiler.SCHEME_COMPILED)
    p.add_argument("--parity", type=int, choices=(0, 1), default=0,
                   help="round parity for the symmetric five-primitive scheme")
    p.add_argument("-o", "--output", default=None, help="output file (default stdout)")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("stats", help="mean pulses per Clifford combination")
    p.add_argument("--n", type=int, required=True, help="number of qubits")
    p.add_argument("--exact", action="store_true")
    p.add_argument("--allow-long", action="store_true",
                   help="permit the long exact n=5 sweep")
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--csv", action="store_true", help="emit CSV instead of JSON")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("rb", help="randomized benchmarking from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("-o", "--output", default=None,
                   help="CSV output when the config gives no csv_path")
    p.set_defaults(func=cmd_rb)

    p = sub.add_parser("allxy", help="21-pair diagnostic staircase")
    p.add_argument("--over", type=float, default=1.0, help="rotation-angle scale")
    p.add_argument("--phase", type=float, default=0.0,
                   help="y-axis phase error in radians")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_allxy)

    p = sub.add_parser("calib", help="amplitude-calibration slope curve")
    p.add_argument("--over", type=float, required=True)
    p.add_argument("--n-max", type=int, default=49)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_calib)

    p = sub.add_parser("swap", help="two-qubit excitation swapping")
    p.add_argument("--j-khz", type=float, required=True, help="J/2pi in kHz")
    p.add_argument("--t1a-us", type=float, default=None)
    p.add_argument("--t1b-us", type=float, default=None)
    p.add_argument("--t-max-us", type=float, default=30.0)
    p.add_argument("--points", type=int, default=301)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_swap)

    p = sub.add_parser("leakfit", help="fit the leakage saturation model")
    p.add_argument("--input", required=True, help="CSV with m,p2 columns")
    p.add_argument("--np-mean", type=float, default=1.875)
    p.add_argument("--tp-ns", type=float, default=compiler.SLOT_NS)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_leakfit)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
