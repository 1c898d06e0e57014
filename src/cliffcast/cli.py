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
endings, floats with 9 significant digits; each table is formatted in one
% operation from its first row's types.

Each command returns its outputs as (path, text) pairs; `main` alone
writes them, all or none.  Exit codes: 0 success, 2 usage errors, 3 any
ValueError (an input the library or the checks here reject, or an
unwritable output) and any MemoryError (an input too large for memory),
4 only the numerical failures raised as NumericalError (schedule
verification, the `rb` decay fits, the `leakfit` fit).

The argument parser is built once per process, on the first call of `main`
(not at import), and reused: parsing makes a fresh namespace each call and
no default is mutable, so repeated in-process calls behave as fresh ones.
Each call is parsed once, by its command's own parser; the top-level parser
handles only help, unknown commands and leftover arguments.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import functools
import itertools
import json
import math
import os
import sys

import numpy as np

from . import compiler, fit, sim
from .compiler import SCHEMES
from .sim import QubitModel

EXIT_OK = 0
EXIT_VALIDATION = 3
EXIT_NUMERICAL = 4


class NumericalError(Exception):
    pass


def _write_outputs(outputs: list[tuple[str | None, str]]) -> None:
    """Write (path, text) pairs, a path of None or "-" meaning stdout.  Files
    go to temporary siblings, renamed over their targets once all are
    complete, so a failed write leaves none of them; stdout comes last.
    Two outputs to one file, or one to a directory, are rejected before
    anything is written."""
    files = [(path, f"{path}.{os.getpid()}-{i}.tmp", text)
             for i, (path, text) in enumerate(outputs) if path not in (None, "-")]
    targets = [os.path.realpath(path) for path, _, _ in files]
    if len(set(targets)) < len(targets):
        raise ValueError(f"two outputs name one file: {files[-1][0]}")
    for path, _, _ in files:
        if os.path.isdir(path):
            raise ValueError(f"cannot write {path}: {os.strerror(errno.EISDIR)}")
    try:
        for path, tmp, text in files:
            with open(tmp, "w", newline="") as f:
                f.write(text)
        for path, tmp, _ in files:
            os.replace(tmp, path)
    except OSError as exc:
        for _, tmp, _ in files:
            with contextlib.suppress(OSError):
                os.remove(tmp)
        raise ValueError(f"cannot write {path}: {exc.strerror}")
    for path, text in outputs:
        if path in (None, "-"):
            sys.stdout.write(text)


def _csv(rows, header) -> str:
    """The table as CSV text, formatted in one % operation: the first row's
    types give every row's template, %.9g for a float and %s otherwise."""
    head = ",".join(header)
    if not rows:
        return head + "\n"
    row = "\n" + ",".join("%.9g" if isinstance(v, float) else "%s" for v in rows[0])
    return head + row * len(rows) % tuple(itertools.chain.from_iterable(rows)) + "\n"


def _parse_combo(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"combo must be comma-separated integers, got {text!r}"
        )


def cmd_compile(args) -> list:
    schedule = compiler.compile_scheme(args.combo, args.scheme, round_parity=args.parity or 0)
    try:
        schedule.verify(args.combo)
    except ValueError as exc:
        raise NumericalError(str(exc))
    return [(args.output, schedule.to_json())]


def cmd_stats(args) -> list:
    if args.exact:
        stats = compiler.mean_np_exact(args.n)
    elif args.samples is None:
        raise ValueError("need --exact or --samples N")
    else:
        stats = compiler.mean_np_sampled(args.n, args.samples, args.seed or 0)
    payload = {
        "n": stats.n,
        "mean_np": stats.mean_np,
        "stderr": stats.stderr,
        "mode": stats.mode,
        "samples": stats.samples,
        # P(cost = c): the share of combinations charged c slots.
        "distribution": {str(c): p for c, p in enumerate(stats.distribution, start=1)},
    }
    with _unlimited_int_digits():
        if args.csv:
            text = _csv(
                [(stats.n, float(stats.mean_np), float(stats.stderr), stats.mode,
                  stats.samples)],
                header=["n", "mean_np", "stderr", "mode", "samples"],
            )
        else:
            text = json.dumps(payload, indent=2) + "\n"
    return [(args.output, text)]


@contextlib.contextmanager
def _unlimited_int_digits():
    """Lift Python's limit on converting long ints to text, which the
    exact census count 24^n exceeds from n = 3116 on (4,301 digits), and
    restore it afterwards.  Pythons without the limit have no setter."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


_CONFIG_KEYS = {"qubits", "scheme", "m_values", "n_seeds", "rng_seed",
                "csv_path", "summary_path"}
_QUBIT_KEYS = {"t1_ns", "slot_ns", "cross_ratio", "over_ratio"}


def _load_rb_config(path: str) -> dict:
    """The config, checked for the JSON types that run_rb does not check."""
    try:
        with open(path) as f:
            cfg = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read config {path}: {exc}")
    if not isinstance(cfg, dict):
        raise ValueError("config must be a JSON object")
    unknown = set(cfg) - _CONFIG_KEYS
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    missing = {"qubits", "scheme", "m_values", "n_seeds", "rng_seed"} - set(cfg)
    if missing:
        raise ValueError(f"missing config keys: {sorted(missing)}")
    if not isinstance(cfg["qubits"], list) or not cfg["qubits"]:
        raise ValueError("qubits must be a non-empty list")
    for q in cfg["qubits"]:
        if not isinstance(q, dict):
            raise ValueError("each qubit must be an object")
        unknown = set(q) - _QUBIT_KEYS
        if unknown:
            raise ValueError(f"unknown qubit keys: {sorted(unknown)}")
        for key, value in q.items():
            if not (_is_number(value) or key == "t1_ns" and value in (None, "inf")):
                raise ValueError(f"qubit field {key} must be a finite number, "
                                 f"got {value!r}")
    if (not isinstance(cfg["m_values"], list) or not cfg["m_values"]
            or not all(_is_number(m, int) and m >= 1 for m in cfg["m_values"])):
        raise ValueError("m_values must be a list of integers >= 1")
    if not _is_number(cfg["n_seeds"], int) or cfg["n_seeds"] < 1:
        raise ValueError("n_seeds must be a positive integer")
    if not _is_number(cfg["rng_seed"], int):
        raise ValueError("rng_seed must be an integer")
    for key in ("csv_path", "summary_path"):
        if not isinstance(cfg.get(key), (str, type(None))):
            raise ValueError(f"{key} must be a path or null, got {cfg[key]!r}")
    return cfg


def _is_number(value, types=(int, float)) -> bool:
    """A finite JSON number of the given types; true and false are bools,
    which Python counts as ints, and the NaN and Infinity tokens are not
    numbers here."""
    return (isinstance(value, types) and not isinstance(value, bool)
            and (not isinstance(value, float) or math.isfinite(value)))


def _qubit_model(entry: dict) -> QubitModel:
    t1 = entry.get("t1_ns", None)
    return QubitModel(
        t1_ns=math.inf if t1 in (None, "inf") else float(t1),
        slot_ns=float(entry.get("slot_ns", compiler.SLOT_NS)),
        cross_ratio=float(entry.get("cross_ratio", 0.0)),
        over_ratio=float(entry.get("over_ratio", 1.0)),
    )


def cmd_rb(args) -> list:
    cfg = _load_rb_config(args.config)
    models = [_qubit_model(q) for q in cfg["qubits"]]
    result = sim.run_rb(models, cfg["scheme"], cfg["m_values"], cfg["n_seeds"],
                        cfg["rng_seed"])
    summary: dict = {
        "scheme": result.scheme,
        "n_seeds": result.n_seeds,
        "rng_seed": result.rng_seed,
        "mean_slots_per_round": result.mean_slots_per_round,
        # Counted per run, so the same config prints the same bytes in any
        # process: a round the run already drew is a hit, and the misses
        # are the run's distinct rounds.
        "work": {
            "rounds": result.rounds,
            "slots": result.slots,
            "round_cache": {"hits": result.rounds - result.distinct_rounds,
                            "misses": result.distinct_rounds},
            # Distinct per-qubit slot signatures behind those rounds.
            "qubit_channels": result.qubit_channels,
        },
        "qubits": [],
    }
    curves = result.curves
    m_values = curves[0].m_values
    try:
        # One batched fit for the run; fewer than 4 lengths are not fitted.
        fits = (fit.fit_exp_offsets(m_values, [c.p0 for c in curves],
                                    [c.p0_stderr for c in curves])
                if len(m_values) >= 4 else [None] * len(curves))
        for q, (curve, model, f) in enumerate(zip(curves, models, fits)):
            # Seed scatter per length; the CSV keeps its four columns.
            entry: dict = {"qubit": q, "p0_stderr": curve.p0_stderr.tolist()}
            summary["qubits"].append(entry)
            if f is None:
                entry["fit"] = None
                entry["note"] = "fewer than 4 sequence lengths; decay not fitted"
                continue
            if "amplitude" in f.at_bound:
                raise NumericalError(
                    f"qubit {q}: decay fit amplitude ended on its bound "
                    f"({f.amplitude:g}), so these lengths do not determine the decay")
            if not all(map(math.isfinite, f.stderr)):
                raise NumericalError(
                    f"qubit {q}: decay fit standard errors are not finite, "
                    f"so these lengths do not determine the decay")
            fc = fit.fidelity_from_decay(f.decay)
            sigma_fc = f.stderr[1] / 2.0
            entry.update(
                decay=f.decay,
                offset=f.offset,
                amplitude=f.amplitude,
                residual_rms=f.residual_rms,
                at_bound=list(f.at_bound),
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
    except ValueError as exc:
        raise NumericalError(str(exc))

    # Every fit has succeeded, so main may write both outputs.
    rows = [(m, q, p0, p1) for q, c in enumerate(result.curves)
            for m, p0, p1 in zip(c.m_values, c.p0.tolist(), c.p1.tolist())]
    csv_text = _csv(rows, header=["m", "qubit", "p0", "p1"])
    summary_text = json.dumps(summary, indent=2) + "\n"
    return [(cfg.get("csv_path", args.output), csv_text),
            (cfg.get("summary_path", None), summary_text)]


def cmd_allxy(args) -> list:
    p1 = sim.simulate_allxy(over_ratio=args.over, phase_rad=args.phase)
    ideal = sim.allxy_ideal()
    rows = list(zip(range(1, len(p1) + 1), p1.tolist(), ideal.tolist()))
    return [(args.output, _csv(rows, header=["id", "p1", "ideal_p1"]))]


def cmd_calib(args) -> list:
    n_values, p1 = sim.simulate_amp_calibration(args.over, n_max=args.n_max)
    rows = list(zip(n_values.tolist(), p1.tolist()))
    return [(args.output, _csv(rows, header=["n", "p1"]))]


def cmd_swap(args) -> list:
    params = sim.ExchangeParams(
        j_over_2pi_khz=args.j_khz,
        t1_a_ns=math.inf if args.t1a_us is None else args.t1a_us * 1000.0,
        t1_b_ns=math.inf if args.t1b_us is None else args.t1b_us * 1000.0,
    )
    t_max_ns = args.t_max_us * 1000.0
    if not 0 <= t_max_ns < math.inf:
        raise ValueError(f"--t-max-us must be >= 0 and finite in ns, got {args.t_max_us!r}")
    t, p1a, p1b = sim.exchange_swap(params, np.linspace(0.0, t_max_ns, args.points))
    rows = np.column_stack([t, p1a, p1b, p1a + p1b]).tolist()
    return [(args.output, _csv(rows, header=["t_ns", "p1_a", "p1_b", "total"]))]


def cmd_leakfit(args) -> list:
    if not (0 < args.np_mean < math.inf and 0 < args.tp_ns < math.inf):
        raise ValueError("--np-mean and --tp-ns must be positive and finite")
    try:
        with open(args.input) as f:
            lines = [ln.strip() for ln in f if ln.strip()]
    except OSError as exc:
        raise ValueError(f"cannot read {args.input}: {exc}")
    if not lines or not lines[0].lower().replace(" ", "").startswith("m,"):
        raise ValueError("input CSV must start with an 'm,p2' header row")
    try:
        data = [tuple(float(x) for x in ln.split(",")) for ln in lines[1:]]
    except ValueError:
        raise ValueError("input CSV rows must be numeric")
    if any(len(row) != 2 for row in data):
        raise ValueError("input CSV rows need exactly two fields, m and p2")
    if any(not math.isfinite(x) for row in data for x in row) or any(r[0] < 0 for r in data):
        raise ValueError("input CSV values must be finite, with m >= 0")
    m = [row[0] for row in data]
    p2 = [row[1] for row in data]
    try:
        lfit = fit.fit_leakage(m, p2, np_mean=args.np_mean, tp_ns=args.tp_ns)
    except ValueError as exc:
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
    return [(args.output, json.dumps(payload, indent=2) + "\n")]


@functools.lru_cache(maxsize=1)
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
    p.add_argument("--parity", type=int, choices=(0, 1), default=None,
                   help="round parity for the symmetric five-primitive scheme "
                   "(default 0)")
    p.add_argument("-o", "--output", default=None, help="output file (default stdout)")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("stats", help="mean pulses per Clifford combination")
    p.add_argument("--n", type=int, required=True, help="number of qubits")
    p.add_argument("--exact", action="store_true")
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--seed", type=int, default=None,
                   help="sampling seed (default 0); not with --exact")
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


def _conflicting_flags(args) -> str | None:
    """Flags that parse but contradict each other, as a usage error."""
    if args.command == "stats" and args.exact and (args.samples, args.seed) != (None, None):
        return "stats --exact takes neither --samples nor --seed"
    if (args.command == "compile" and args.parity is not None
            and args.scheme != compiler.SCHEME_FIVE_SYMMETRIC):
        return (f"compile --parity applies only to --scheme "
                f"{compiler.SCHEME_FIVE_SYMMETRIC}")
    return None


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    (commands,) = [a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if argv and argv[0] in commands:  # the command's parser alone, as the top-level one calls it
        namespace = argparse.Namespace(command=argv[0])
        args, extras = commands[argv[0]].parse_known_args(argv[1:], namespace)
        if extras:
            parser.error(f"unrecognized arguments: {' '.join(extras)}")
    else:
        args = parser.parse_args(argv)
    conflict = _conflicting_flags(args)
    if conflict:
        parser.error(conflict)
    try:
        _write_outputs(args.func(args))
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except MemoryError:
        print("error: the input is too large for memory", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
