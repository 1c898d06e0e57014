"""The four benchmark workloads: seeded inputs, one job, and output checks.

Every call into cliffcast goes through a module attribute (``sim.run_rb``,
``cli.main``, ...) so that the tracer, which swaps those attributes, sees
it.  Only public functions and the CLI flags that the planned refactors
keep are used: no ``--allow-long``, no ``--dt-ns``/``dt_ns=``, no
``CLIFFCAST_LONG`` and no private names.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os

import numpy as np

from cliffcast import cli, clifford, compiler, decomp, fit, sim

# Jobs cycle through this many seeded inputs, so every input recurs within
# a run and the recurrence checks that the same input gives the same bytes
# (rb-wide excepted: its round cache would absorb the compiler, so each of
# its jobs takes a fresh input).
CYCLE = 4
REFERENCE_RNG_SEED = 7

README_M = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 800)
RB2Q_QUBITS = ({"t1_ns": 10000.0, "cross_ratio": 0.0076}, {"t1_ns": 10000.0})
RB2Q_SCHEMES = ("sequential", "compiled", "five-primitives-symmetric")
WIDE_M = (1, 2, 4, 8, 16, 32, 64, 128)
SETUP_M = WIDE_M[:6]  # fewer lengths can leave the decay fit without a minimum
WIDE_QUBITS = 8
WIDE_SEEDS = 2
CENSUS_SAMPLES = 5000
CENSUS_SAMPLED_N = (6, 7, 8, 9, 10)
CENSUS_BATCH = 48
SWAP_ARGS = ("swap", "--j-khz", "36", "--t1a-us", "7", "--t1b-us", "14")
LEAK_M = tuple(range(0, 1001, 25))
LEAK_NP_MEAN = 1.875
LEAK_TP_NS = 20.0

CSV_TOL = 1e-8  # CSV floats carry 9 significant digits


class Checks:
    """Counts output checks; a failed check or a raising call counts as failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def expect(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what)
        return ok

    def call(self, what: str, fn, *args):
        """Run fn(*args); a raise is one failed check and returns None."""
        try:
            return fn(*args)
        except Exception as exc:  # the benchmark must finish and report it
            self.expect(False, f"{what} raised {type(exc).__name__}: {exc}")
            return None


def check_sources() -> None:
    """Refuse to measure any cliffcast but the one under ./src."""
    src = os.path.realpath(os.path.join(os.getcwd(), "src")) + os.sep
    if not os.path.realpath(cli.__file__).startswith(src):
        raise SystemExit(f"cliffcast was imported from {cli.__file__}, not from {src}")


def run_cli(argv) -> str:
    """cliffcast's entry point with stdout captured; a non-zero exit raises."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(argv))
    except SystemExit as exc:  # argparse usage errors exit instead of returning
        code = exc.code
    if code != 0:
        raise RuntimeError(f"cliffcast {' '.join(argv)} exited with {code}")
    return buf.getvalue()


def parse_csv(text: str) -> tuple[list[str], np.ndarray]:
    lines = text.strip().splitlines()
    rows = [[float(x) for x in ln.split(",")] for ln in lines[1:]]
    return lines[0].split(","), np.array(rows)


def split_rb_output(text: str) -> tuple[np.ndarray, dict]:
    """`rb` writes its CSV and then its summary JSON to stdout."""
    at = text.index("\n{") + 1
    return parse_csv(text[:at])[1], json.loads(text[at:])


class Workload:
    name = ""
    work_name = ""  # what the work done per second is called on this workload
    work_per_job = 0

    def __init__(self, seed: int, reference: dict | None, workdir: str):
        self.seed = seed
        self.reference = reference
        self.workdir = workdir
        self.rng = np.random.default_rng([seed, sum(map(ord, self.name))])
        self._first: dict[int, bytes] = {}

    def setup_op(self, checks: Checks) -> None:
        """The workload's first, smallest operation."""
        raise NotImplementedError

    def warmup(self, checks: Checks) -> None:
        """Fill caches and check the reference input (untimed)."""
        raise NotImplementedError

    def steps(self, k: int) -> list:
        """The calls that make up job k, in order; the worker times each."""
        raise NotImplementedError

    def job(self, k: int) -> list:
        return [step() for step in self.steps(k)]

    def check(self, k: int, out, checks: Checks) -> None:
        raise NotImplementedError

    def check_repeat(self, k: int, blob: bytes, checks: Checks) -> None:
        first = self._first.setdefault(k % CYCLE, blob)
        if first is not blob:
            checks.expect(first == blob, f"{self.name}: input {k % CYCLE} gave different bytes")

    def check_close(self, checks: Checks, got, want, tol: float, what: str) -> None:
        got = np.asarray(got, dtype=float)
        want = np.asarray(want, dtype=float)
        ok = got.shape == want.shape and bool(np.all(np.abs(got - want) <= tol))
        checks.expect(ok, f"{self.name}: {what} differs from its reference by more than {tol:g}")

    def check_curves(self, checks: Checks, p0, p1, tol: float) -> None:
        p0 = np.asarray(p0)
        p1 = np.asarray(p1)
        checks.expect(bool(np.all((p0 >= 0) & (p0 <= 1))), f"{self.name}: p0 outside [0, 1]")
        checks.expect(bool(np.all(np.abs(p0 + p1 - 1) <= tol)), f"{self.name}: p0 + p1 != 1")


class RB2Q(Workload):
    """The README benchmarking config through `cliffcast rb`, three schemes."""

    name = "rb-2q"
    work_name = "rb_rounds_per_s"
    n_seeds = 1
    work_per_job = len(RB2Q_SCHEMES) * n_seeds * sum(m + 1 for m in README_M)

    def __init__(self, seed, reference, workdir):
        super().__init__(seed, reference, workdir)
        rng_seeds = [int(s) for s in self.rng.integers(0, 2**31, CYCLE)]
        self.configs = [[self._config(f"{k}-{s}", s, README_M, self.n_seeds, rs)
                         for s in RB2Q_SCHEMES] for k, rs in enumerate(rng_seeds)]

    def _config(self, tag, scheme, m_values, n_seeds, rng_seed) -> str:
        path = os.path.join(self.workdir, f"{self.name}-{tag}.json")
        cfg = {"qubits": list(RB2Q_QUBITS), "scheme": scheme, "m_values": list(m_values),
               "n_seeds": n_seeds, "rng_seed": rng_seed}
        with open(path, "w") as f:
            json.dump(cfg, f)
        return path

    @staticmethod
    def models():
        return [sim.QubitModel(**q) for q in RB2Q_QUBITS]

    def setup_op(self, checks):
        path = self._config("setup", "compiled", SETUP_M, 1, REFERENCE_RNG_SEED)
        out = checks.call("rb setup", run_cli, ["rb", "--config", path])
        if out is not None:
            self._check_output(out, len(SETUP_M), checks)

    @classmethod
    def reference_runs(cls) -> dict:
        return {s: sim.run_rb(cls.models(), s, README_M, 1, REFERENCE_RNG_SEED)
                for s in RB2Q_SCHEMES}

    def warmup(self, checks):
        paths = [self._config(f"ref-{s}", s, README_M, 1, REFERENCE_RNG_SEED)
                 for s in RB2Q_SCHEMES]
        checks.call("rb warm-up", lambda: [run_cli(["rb", "--config", p]) for p in paths])
        runs = checks.call("reference run_rb", self.reference_runs) or {}
        for scheme, res in runs.items():
            ref = self.reference[self.name][scheme]
            self.check_close(checks, [c.p0 for c in res.curves], ref["p0"], 1e-12,
                             f"{scheme} p0")
            checks.expect(res.mean_slots_per_round == ref["mean_slots_per_round"],
                          f"{self.name}: {scheme} slots per round changed")
            for c in res.curves:
                self.check_curves(checks, c.p0, c.p1, 1e-12)

    def steps(self, k):
        return [lambda p=p: run_cli(["rb", "--config", p]) for p in self.configs[k % CYCLE]]

    def _check_output(self, text, n_m, checks):
        rows, summary = split_rb_output(text)
        checks.expect(rows.shape == (2 * n_m, 4), f"{self.name}: wrong CSV shape")
        self.check_curves(checks, rows[:, 2], rows[:, 3], CSV_TOL)
        for entry in summary["qubits"]:
            fc = entry.get("clifford_fidelity")
            checks.expect(isinstance(fc, float) and 0.5 < fc <= 1.0,
                          f"{self.name}: qubit {entry['qubit']} has no valid fit")

    def check(self, k, out, checks):
        for text in out:
            self._check_output(text, len(README_M), checks)
        self.check_repeat(k, "".join(out).encode(), checks)


class RBWide(Workload):
    """Eight cross-driven qubits on the compiled scheme through run_rb.

    Every job takes a fresh rng seed, so that its rounds are new
    combinations and compile_optimal runs on each of them."""

    name = "rb-wide"
    work_name = "rb_rounds_per_s"
    work_per_job = WIDE_SEEDS * sum(m + 1 for m in WIDE_M)

    def rng_seed(self, k: int) -> int:
        rng = np.random.default_rng([self.seed, sum(map(ord, self.name)), k])
        return int(rng.integers(0, 2**31))

    @staticmethod
    def models():
        return [sim.QubitModel(t1_ns=10000.0, cross_ratio=0.0076)] * WIDE_QUBITS

    def _run(self, m_values, n_seeds, rng_seed):
        res = sim.run_rb(self.models(), "compiled", m_values, n_seeds, rng_seed)
        # Unweighted: with two seeds the seed-scatter weights are so noisy that
        # the weighted fit misses its evaluation limit on about 0.6 % of curves.
        fits = [fit.fit_exp_offset(c.m_values, c.p0) for c in res.curves]
        return res, fits

    def setup_op(self, checks):
        out = checks.call("run_rb setup", self._run, SETUP_M, 1, REFERENCE_RNG_SEED)
        if out is not None:
            self._check_output(out, checks)

    @classmethod
    def reference_runs(cls) -> dict:
        return {"compiled": sim.run_rb(cls.models(), "compiled", WIDE_M, 1,
                                       REFERENCE_RNG_SEED)}

    @staticmethod
    def _blob(out) -> bytes:
        res, fits = out
        blob = b"".join(c.p0.tobytes() for c in res.curves)
        return blob + np.array([[f.amplitude, f.decay, f.offset] for f in fits]).tobytes()

    def warmup(self, checks):
        # The reference input twice: first with cold caches, then warm.
        outs = [checks.call("run_rb warm-up", self._run, WIDE_M, WIDE_SEEDS,
                            REFERENCE_RNG_SEED) for _ in range(2)]
        if None not in outs:
            for out in outs:
                self._check_output(out, checks)
            checks.expect(self._blob(outs[0]) == self._blob(outs[1]),
                          f"{self.name}: the reference input gave different bytes")
        res = checks.call("reference run_rb", self.reference_runs)
        if res is not None:
            res = res["compiled"]
            ref = self.reference[self.name]["compiled"]
            self.check_close(checks, [c.p0 for c in res.curves], ref["p0"], 1e-12, "p0")
            checks.expect(res.mean_slots_per_round == ref["mean_slots_per_round"],
                          f"{self.name}: slots per round changed")
            for c in res.curves:
                self.check_curves(checks, c.p0, c.p1, 1e-12)

    def steps(self, k):
        rng_seed = self.rng_seed(k)
        return [lambda: self._run(WIDE_M, WIDE_SEEDS, rng_seed)]

    def _check_output(self, out, checks):
        res, fits = out
        for c, f in zip(res.curves, fits):
            self.check_curves(checks, c.p0, c.p1, 1e-12)
            checks.expect(0 < f.decay <= 1.0, f"{self.name}: decay {f.decay} outside (0, 1]")

    def check(self, k, out, checks):
        self._check_output(out[0], checks)


class Census(Workload):
    """Pulse-count censuses, exact and sampled, and verified schedules."""

    name = "census"
    work_name = "census_combos_per_s"
    work_per_job = 24**4 + 24**5 + CENSUS_SAMPLES * len(CENSUS_SAMPLED_N)

    def __init__(self, seed, reference, workdir):
        super().__init__(seed, reference, workdir)
        self.sample_seeds = [int(s) for s in self.rng.integers(0, 2**31, len(CENSUS_SAMPLED_N))]
        self.batch = [tuple(int(c) for c in row)
                      for row in self.rng.integers(1, 25, size=(CENSUS_BATCH, 8))]

    def setup_op(self, checks):
        combo = self.batch[0]
        checks.call("decomposition_census", decomp.decomposition_census)
        checks.call("mean_np_exact(2)", compiler.mean_np_exact, 2)
        checks.call("mean_np_sampled", compiler.mean_np_sampled, 6, 100, self.seed)
        cost = checks.call("min_broadcast_pulses", compiler.min_broadcast_pulses, combo)
        text = checks.call("compile", run_cli, self._compile_argv(combo))
        if text is not None and cost is not None:
            self._check_schedule(combo, text, cost, checks)

    @staticmethod
    def _compile_argv(combo):
        return ["compile", ",".join(map(str, combo)), "--scheme", "compiled"]

    def warmup(self, checks):
        # Builds the lazy tables; a full job would take seconds of the run
        # and check nothing that the timed jobs do not.
        self.setup_op(checks)

    def steps(self, k):
        return [
            lambda: compiler.mean_np_exact(4),
            lambda: compiler.mean_np_exact(5),
            *[lambda n=n, s=s: compiler.mean_np_sampled(n, CENSUS_SAMPLES, s)
              for n, s in zip(CENSUS_SAMPLED_N, self.sample_seeds)],
            lambda: decomp.decomposition_census(),
            lambda: [compiler.min_broadcast_pulses(c) for c in self.batch],
            lambda: [run_cli(self._compile_argv(c)) for c in self.batch],
        ]

    def _check_schedule(self, combo, text, cost, checks):
        sched = compiler.Schedule.from_json_dict(json.loads(text))
        for q, target in enumerate(combo):
            got = clifford.clifford_of_pulses(sched.masked_pulses(q))
            checks.expect(got == target, f"census: {combo} qubit {q} fires {got}, not {target}")
        checks.expect(sched.n_slots == cost,
                      f"census: {combo} takes {sched.n_slots} slots, optimum is {cost}")

    def check(self, k, out, checks):
        exact, sampled = out[:2], out[2:-3]
        (counts, mean), costs, schedules = out[-3:]
        ref = self.reference[self.name]
        for st in exact:
            checks.expect(st.mean_np == ref["exact"][str(st.n)],
                          f"census: exact n={st.n} gave {st.mean_np!r}")
        for st in sampled:
            want = ref["exact_optimum"][str(st.n)]
            checks.expect(abs(st.mean_np - want) <= 4 * st.stderr,
                          f"census: sampled n={st.n} gave {st.mean_np} +- {st.stderr}, "
                          f"exact optimum {want}")
        checks.expect(sum(counts.values()) == ref["decompositions"] and
                      mean == ref["decompositions"] / 24, "census: decomposition count changed")
        for combo, cost, text in zip(self.batch, costs, schedules):
            checks.call("schedule check", self._check_schedule, combo, text, cost, checks)
        blob = json.dumps([[s.mean_np for s in exact + sampled], costs, schedules]).encode()
        self.check_repeat(0, blob, checks)  # every census job has the same input


def exchange_closed_form(params, t_ns):
    """Excited populations from the single-excitation solution: psi(t) =
    expm(-i H t) |10> with H = J (flip-flop) - (i/2) diag(1/T1a, 1/T1b)."""
    j = params.j_rad_per_ns
    h = np.array([[-0.5j / params.t1_a_ns, j], [j, -0.5j / params.t1_b_ns]])
    w, v = np.linalg.eig(h)
    c = np.linalg.solve(v, np.array([1.0, 0.0], dtype=complex))
    psi = v @ (c[:, None] * np.exp(-1j * w[:, None] * np.asarray(t_ns)[None, :]))
    return np.abs(psi[0]) ** 2, np.abs(psi[1]) ** 2


class Analysis(Workload):
    """Exchange swapping, the diagnostic staircase, calibration and the leakage fit."""

    name = "analysis"
    work_name = "analysis_jobs_per_s"
    work_per_job = 1

    def __init__(self, seed, reference, workdir):
        super().__init__(seed, reference, workdir)
        self.overs = [float(x) for x in self.rng.choice([0.97, 0.98, 0.99, 1.01, 1.02, 1.03], CYCLE)]
        self.leaks = []
        for _ in range(CYCLE):
            kappa = float(self.rng.uniform(0.5e-6, 2e-6))
            t21 = float(self.rng.uniform(5000.0, 20000.0))
            clean = fit.leakage_model(LEAK_M, kappa, t21, LEAK_NP_MEAN, LEAK_TP_NS)
            noisy = clean + self.rng.normal(0.0, 1e-4 * float(clean.max()), clean.size)
            self.leaks.append((kappa, t21, noisy))

    def setup_op(self, checks):
        checks.call("swap", run_cli, [*SWAP_ARGS, "--t-max-us", "1", "--points", "11"])
        checks.call("allxy", run_cli, ["allxy"])
        checks.call("calib", run_cli, ["calib", "--over", "1.01", "--n-max", "4"])
        kappa, t21, p2 = self.leaks[0]
        lf = checks.call("fit_leakage", fit.fit_leakage, LEAK_M, p2, LEAK_NP_MEAN, LEAK_TP_NS)
        if lf is not None:
            self._check_leak(lf, kappa, t21, checks)

    def warmup(self, checks):
        params = sim.ExchangeParams(j_over_2pi_khz=36.0)
        out = checks.call("lossless swap", sim.exchange_swap, params,
                          [0.0, params.swap_return_ns])
        if out is not None:
            checks.expect(abs(out[1][-1] - 1.0) <= 1e-6,
                          f"analysis: lossless excitation returns to {out[1][-1]!r} at pi/J")
        out = checks.call("analysis warm-up", self.job, 0)
        if out is not None:
            self.check(0, out, checks)

    def steps(self, k):
        p2 = self.leaks[k % CYCLE][2]
        return [
            lambda: run_cli(SWAP_ARGS),
            lambda: run_cli(["allxy"]),
            lambda: run_cli(["calib", "--over", repr(self.overs[k % CYCLE])]),
            lambda: fit.fit_leakage(LEAK_M, p2, LEAK_NP_MEAN, LEAK_TP_NS),
        ]

    def _check_leak(self, lf, kappa, t21, checks):
        checks.expect(abs(lf.kappa / kappa - 1) < 0.02 and abs(lf.t21_ns / t21 - 1) < 0.02,
                      f"analysis: leakage fit gave kappa {lf.kappa:g}, T21 {lf.t21_ns:g}; "
                      f"seeded {kappa:g}, {t21:g}")

    def check(self, k, out, checks):
        swap, allxy, calib, lf = out
        params = sim.ExchangeParams(36.0, 7000.0, 14000.0)
        rows = parse_csv(swap)[1]
        pa, pb = exchange_closed_form(params, rows[:, 0])
        checks.expect(rows.shape == (301, 4), "analysis: swap grid changed")
        self.check_close(checks, rows[:, 1:3], np.stack([pa, pb], axis=1), 1e-3,
                         "damped swap against the closed form")
        self.check_close(checks, rows[:, 3], rows[:, 1] + rows[:, 2], 2 * CSV_TOL, "swap total")
        rows = parse_csv(allxy)[1]
        self.check_close(checks, rows[:, 1], rows[:, 2], CSV_TOL, "ideal staircase")
        rows = parse_csv(calib)[1]
        over = self.overs[k % CYCLE]
        slope = rows[1, 1] - rows[0, 1]
        checks.expect(math.copysign(1.0, slope) == math.copysign(1.0, over - 1.0),
                      f"analysis: calibration slope {slope} for over-drive {over}")
        kappa, t21, _ = self.leaks[k % CYCLE]
        self._check_leak(lf, kappa, t21, checks)
        blob = (swap + allxy + calib + repr((lf.kappa, lf.t21_ns))).encode()
        self.check_repeat(k, blob, checks)


WORKLOADS = {cls.name: cls for cls in (RB2Q, RBWide, Census, Analysis)}
