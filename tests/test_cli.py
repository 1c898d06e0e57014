import hashlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from cliffcast import cli, compiler, fit, sim
from cliffcast.cli import build_parser, main
from cliffcast.clifford import (
    CANONICAL_UNITARIES,
    Pulse,
    sequence_unitary,
)
from oracles import cli_main_parse_args, csv_text, equal_up_to_phase, exact_census
from test_cli_fuzz import BAD_VALUES, RB_TARGETS, WEIRD_NUMBERS, _mutate, _run, rb_summary


def run_cli(args):
    return main(args)


def test_compile_compiled_pair(tmp_path, capsys):
    out = tmp_path / "sched.json"
    assert run_cli(["compile", "2,13", "--scheme", "compiled", "-o", str(out)]) == 0
    d = json.loads(out.read_text())
    assert d["n_qubits"] == 2
    assert d["scheme"] == "compiled"
    assert len(d["events"]) == 3
    assert d["slot_ns"] == {"total": 20.0, "pulse_ns": 16.0, "buffer_ns": 4.0}
    # the emitted schedule must re-verify against the targets
    for q, target in enumerate((2, 13)):
        pulses = [
            Pulse.from_label(ev["pulse"]) for ev in d["events"] if ev["mask"][q]
        ]
        assert equal_up_to_phase(
            sequence_unitary(pulses), CANONICAL_UNITARIES[target - 1]
        )


def test_compile_five_primitives_identity(tmp_path):
    out = tmp_path / "sched.json"
    assert run_cli(["compile", "1", "--scheme", "five-primitives", "-o", str(out)]) == 0
    d = json.loads(out.read_text())
    assert d["n_slots"] == 5
    assert d["events"] == []


def test_compile_sequential_single_pi(capsys):
    assert run_cli(["compile", "4", "--scheme", "sequential"]) == 0
    d = json.loads(capsys.readouterr().out)
    assert len(d["events"]) == 1
    assert d["events"][0]["pulse"] == "X180"
    assert d["events"][0]["mask"] == [1]


def test_compile_malformed_ids_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["compile", "2,x", "--scheme", "compiled"])
    assert exc.value.code == 2


def test_compile_out_of_range_id_validation_error(capsys):
    assert run_cli(["compile", "25", "--scheme", "compiled"]) == 3


@pytest.mark.parametrize("case", ["short mask", "shared slot"])
def test_compile_malformed_schedule_is_numerical_failure(case, monkeypatch, capsys):
    """A compiled schedule that fails verification's structural checks is
    exit 4, naming the event, and nothing is written (before: a traceback
    for the short mask, exit 0 for the shared slot)."""
    from test_compiler import _malformed

    bad = _malformed(case)
    monkeypatch.setattr(compiler, "compile_scheme", lambda *args, **kw: bad)
    assert run_cli(["compile", "2,2"]) == 4
    captured = capsys.readouterr()
    assert captured.out == "" and "numerical failure: event 1 " in captured.err


def _outcome(capsys, run, argv):
    """(exit code, stdout, stderr) of one in-process call."""
    try:
        code = run(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _runs_in_process(capsys, runs, fresh):
    """_outcome of each argv, run one after another in this process; fresh
    builds a new parser for each run."""
    build_parser.cache_clear()
    results = []
    for argv in runs:
        if fresh:
            build_parser.cache_clear()
        results.append(_outcome(capsys, run_cli, argv))
    return results


def test_reused_parser_prints_what_a_fresh_one_prints(capsys):
    runs = [["compile", "2,13"], ["compile", "2,x"],
            ["stats", "--n", "3", "--samples", "200", "--seed", "4"], ["compile", "2,13"]]
    reused = _runs_in_process(capsys, runs, fresh=False)
    assert build_parser.cache_info().misses == 1
    assert reused == _runs_in_process(capsys, runs, fresh=True)
    assert [code for code, _, _ in reused] == [0, 2, 0, 0]
    assert reused[0] == reused[3]


# Argvs for the parse-once check, "{rb}" and "{leak}" standing for input files.
PARSE_GRID = {
    "compile": ["compile", "2,13"],
    "stats": ["stats", "--n", "3", "--exact"],
    "rb": ["rb", "--config", "{rb}"],
    "allxy": ["allxy", "--over", "1.01"],
    "calib": ["calib", "--over", "1.01", "--n-max", "3"],
    "swap": ["swap", "--j-khz", "36", "--t-max-us", "1", "--points", "5"],
    "leakfit": ["leakfit", "--input", "{leak}"],
    "validation error": ["compile", "25"],
    "top help": ["-h"],
    "top long help": ["--help"],
    "command help": ["compile", "-h"],
    "command help after args": ["stats", "--n", "2", "--help"],
    "empty": [],
    "unknown command": ["bogus"],
    "unknown option first": ["--bogus", "compile", "2,13"],
    "abbreviated command": ["comp", "2,13"],
    "help after unknown command": ["bogus", "-h"],
    "bad type": ["compile", "2,x"],
    "bad float": ["calib", "--over", "x"],
    "invalid choice": ["compile", "2,13", "--scheme", "nope"],
    "invalid int choice": ["compile", "2", "--parity", "2"],
    "missing required option": ["stats", "--exact"],
    "missing positional": ["compile"],
    "leftover option": ["compile", "2,13", "--bogus"],
    "leftover args": ["stats", "--n", "2", "--exact", "x", "--y", "z"],
    "leftover and bad type": ["compile", "2,x", "--bogus"],
    "opt=value": ["compile", "2,13", "--scheme=sequential"],
    "opt=value int": ["stats", "--n=2", "--exact"],
    "option abbreviation": ["compile", "2,13", "--sch", "five-primitives"],
    "flag abbreviation": ["stats", "--n", "2", "--ex"],
    "ambiguous abbreviation": ["stats", "--n", "2", "--s", "5"],
    "double dash": ["compile", "--", "2,13"],
    "option after double dash": ["compile", "2,13", "--", "--scheme"],
    "double dash before command": ["--", "compile", "2,13"],
    "conflicting stats flags": ["stats", "--n", "3", "--exact", "--samples", "5"],
    "conflicting compile flags": ["compile", "2,13", "--parity", "1"],
    "repeated option": ["compile", "2,13", "--scheme", "compiled", "--scheme", "sequential"],
    "repeated alias": ["compile", "2,13", "-o", "a", "--output", "b"],
    "negative value": ["allxy", "--phase", "-0.1"],
    "negative positional": ["compile", "-1"],
    "dash value": ["compile", "2,13", "-o", "-"],
    "empty positional": ["compile", ""],
    "repeated flag": ["stats", "--n", "2", "--exact", "--exact"],
    "missing value": ["rb", "--config"],
    "help after options": ["calib", "--over", "1.01", "-h"],
    "option as value": ["compile", "2,13", "-o", "--scheme"],
}


@pytest.mark.parametrize("case", PARSE_GRID)
def test_main_parses_as_top_level_parse_args(case, tmp_path, capsys, monkeypatch):
    """main, which reads a plain line through its command's own actions and
    leaves any other to parse_args, gives the exit code, stdout and stderr
    of the top-level parse_args.  Output files go to tmp_path."""
    monkeypatch.chdir(tmp_path)
    rb = tmp_path / "rb.json"
    rb.write_text(json.dumps({"qubits": [{"t1_ns": 10000}], "scheme": "compiled",
                              "m_values": [1, 2, 4, 8], "n_seeds": 1, "rng_seed": 7}))
    leak = tmp_path / "leak.csv"
    m = range(0, 1001, 100)
    leak.write_text(csv_text(list(zip(m, fit.leakage_model(m, 1e-6, 8000.0, 1.875, 20.0)
                                      .tolist())), ["m", "p2"]))
    argv = [arg.format(rb=rb, leak=leak) for arg in PARSE_GRID[case]]
    want = _outcome(capsys, cli_main_parse_args, argv)
    assert _outcome(capsys, main, argv) == want
    assert want[0] in (0, 2, 3)


def test_main_reads_sys_argv(monkeypatch, capsys):
    """main() with no argv parses sys.argv[1:], as the console script calls it."""
    monkeypatch.setattr(sys, "argv", ["cliffcast", "compile", "2,13"])
    assert main() == 0
    assert json.loads(capsys.readouterr().out)["n_qubits"] == 2
    monkeypatch.setattr(sys, "argv", ["cliffcast", "compile", "2,13", "--bogus"])
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == 2
    assert "cliffcast: error: unrecognized arguments: --bogus" in capsys.readouterr().err


def test_stats_exact_small(capsys):
    assert run_cli(["stats", "--n", "2", "--exact"]) == 0
    d = json.loads(capsys.readouterr().out)
    assert d["mode"] == "exact"
    assert abs(d["mean_np"] - 2.925347) < 5e-7
    assert run_cli(["stats", "--n", "1", "--exact"]) == 0
    d = json.loads(capsys.readouterr().out)
    assert d["mean_np"] == 1.875


def test_stats_exact_n6_matches_oracle(capsys):
    """The exact census has no qubit cap: n=6 runs and is exact."""
    assert run_cli(["stats", "--n", "6", "--exact"]) == 0
    d = json.loads(capsys.readouterr().out)
    assert d["mean_np"] == float(exact_census(6))
    assert d["samples"] == 24**6


def test_stats_removed_long_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["stats", "--n", "5", "--exact", "--allow-long"])
    assert exc.value.code == 2


@pytest.mark.parametrize("extra", [["--samples", "100"], ["--seed", "5"],
                                   ["--samples", "100", "--seed", "0"]])
def test_stats_exact_with_sampling_flag_is_usage_error(extra, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["stats", "--n", "2", "--exact", *extra])
    assert exc.value.code == 2
    assert "--exact takes neither" in capsys.readouterr().err


def test_stats_output_is_deterministic(tmp_path):
    """The data output carries no wall time, so repeated runs are identical."""
    outputs = []
    for i in range(2):
        out = tmp_path / f"stats{i}.json"
        assert run_cli(["stats", "--n", "4", "--exact", "-o", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    assert set(json.loads(outputs[0])) == {"n", "mean_np", "stderr", "mode", "samples",
                                           "distribution"}


def test_stats_exact_n23_is_deterministic(tmp_path):
    """From n = 23 on every target set occurs; the census is still exact."""
    outputs = []
    for i in range(2):
        out = tmp_path / f"stats{i}.json"
        assert run_cli(["stats", "--n", "23", "--exact", "-o", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    d = json.loads(outputs[0])
    assert d["mean_np"] == 4.999661069725701
    assert list(d["distribution"]) == ["1", "2", "3", "4", "5"]
    assert sum(d["distribution"].values()) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this Python converts ints of any length")
def test_stats_exact_prints_counts_past_the_int_digit_limit(capsys):
    """24^3116 has 4,301 digits, one more than Python converts by default;
    stats prints it whole and leaves the limit as it was."""
    limit = sys.get_int_max_str_digits()
    assert run_cli(["stats", "--n", "3116", "--exact"]) == 0
    text = capsys.readouterr().out
    assert run_cli(["stats", "--n", "3116", "--exact", "--csv"]) == 0
    row = capsys.readouterr().out.splitlines()[1].split(",")
    assert sys.get_int_max_str_digits() == limit
    sys.set_int_max_str_digits(0)
    try:
        d = json.loads(text)
        assert d["samples"] == 24**3116 == int(row[4])
    finally:
        sys.set_int_max_str_digits(limit)
    assert d["mean_np"] == 5.0
    assert len(row[4]) == 4301


def test_stats_sampled_seed_defaults_to_zero(capsys):
    assert run_cli(["stats", "--n", "3", "--samples", "500"]) == 0
    unset = capsys.readouterr().out
    assert run_cli(["stats", "--n", "3", "--samples", "500", "--seed", "0"]) == 0
    assert capsys.readouterr().out == unset


@pytest.mark.parametrize("scheme", ["sequential", "five-primitives", "compiled"])
def test_compile_parity_without_symmetric_scheme_is_usage_error(scheme, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["compile", "2,13", "--scheme", scheme, "--parity", "0"])
    assert exc.value.code == 2
    assert "--parity applies only to" in capsys.readouterr().err


def test_compile_parity_selects_symmetric_schedule(capsys):
    schedules = []
    for parity in ([], ["--parity", "0"], ["--parity", "1"]):
        assert run_cli(["compile", "2,13", "--scheme", "five-primitives-symmetric",
                        *parity]) == 0
        schedules.append(capsys.readouterr().out)
    assert schedules[0] == schedules[1] != schedules[2]
    assert all(json.loads(text)["scheme"] == "five-primitives-symmetric" for text in schedules)


def test_stats_sampled(capsys):
    assert run_cli(["stats", "--n", "6", "--samples", "2000", "--seed", "7"]) == 0
    d = json.loads(capsys.readouterr().out)
    assert d["mode"] == "sampled"
    assert d["samples"] == 2000
    assert 4.0 < d["mean_np"] <= 5.0
    assert d["stderr"] > 0


def test_stats_csv_output(capsys):
    assert run_cli(["stats", "--n", "2", "--exact", "--csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "n,mean_np,stderr,mode,samples"
    assert lines[1].startswith("2,2.92534722,")


def test_rb_roundtrip_and_determinism(tmp_path):
    cfg = {
        "qubits": [{"t1_ns": 10000.0}],
        "scheme": "minimal",
        "m_values": [1, 4, 16, 64, 128],
        "n_seeds": 4,
        "rng_seed": 5,
        "csv_path": str(tmp_path / "rb.csv"),
        "summary_path": str(tmp_path / "rb.json"),
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert run_cli(["rb", "--config", str(cfg_path)]) == 0
    csv_first = (tmp_path / "rb.csv").read_bytes()
    summary = json.loads((tmp_path / "rb.json").read_text())
    assert summary["qubits"][0]["clifford_fidelity"] < 1.0
    assert "t1_limit_fidelity" in summary["qubits"][0]
    assert 0 < summary["qubits"][0]["residual_rms"] < 0.05
    assert summary["qubits"][0]["at_bound"] == []
    lines = csv_first.decode().splitlines()
    assert lines[0] == "m,qubit,p0,p1"
    assert len(lines) == 1 + len(cfg["m_values"])
    assert b"\r" not in csv_first

    work = summary["work"]
    assert work["rounds"] == 4 * sum(m + 1 for m in cfg["m_values"])
    assert work["slots"] == round(summary["mean_slots_per_round"] * work["rounds"])
    cache = work["round_cache"]
    assert cache["hits"] + cache["misses"] == work["rounds"]
    assert 0 < cache["misses"] <= 24
    assert 0 < work["qubit_channels"] <= work["rounds"] * len(cfg["qubits"])

    # identical config and seed must reproduce byte-identical outputs, the
    # work counters included, although the round cache is now warm
    summary_first = (tmp_path / "rb.json").read_bytes()
    assert run_cli(["rb", "--config", str(cfg_path)]) == 0
    assert (tmp_path / "rb.csv").read_bytes() == csv_first
    assert (tmp_path / "rb.json").read_bytes() == summary_first


# SHA-256 over the CSV and summary bytes that `rb` writes on the README
# config (30 seeds, weighted fits) under each broadcast scheme, then on one
# 2-seed compiled run, recorded before the decay fits of a run were batched.
RB_BYTES_DIGEST = "7fc7951122cc925e7bfcd58fd08eaeb311a39e9a54df44959a0e4939c94291d9"


def test_rb_output_bytes_are_pinned(tmp_path):
    readme = {"qubits": [{"t1_ns": 10000, "cross_ratio": 0.0076}, {"t1_ns": 10000}],
              "m_values": [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 800],
              "csv_path": str(tmp_path / "rb.csv"),
              "summary_path": str(tmp_path / "rb.json")}
    h = hashlib.sha256()
    for scheme, n_seeds, rng_seed in [*((s, 30, 7) for s in compiler.SCHEMES),
                                      ("compiled", 2, 3)]:
        cfg = {**readme, "scheme": scheme, "n_seeds": n_seeds, "rng_seed": rng_seed}
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        assert run_cli(["rb", "--config", str(tmp_path / "cfg.json")]) == 0
        h.update((tmp_path / "rb.csv").read_bytes())
        h.update((tmp_path / "rb.json").read_bytes())
    assert h.hexdigest() == RB_BYTES_DIGEST


# SHA-256 over the stdout of the analysis commands and of `stats --csv` on
# the flag grid below, recorded before the CSV writer formatted whole tables
# and the staircase was pushed as one stack.
ANALYSIS_BYTES_DIGEST = "9052943904ec7e3814cd21d5c163118479a2731a969b5064828a4e43d96796d2"


def _analysis_argvs(tmp_path):
    """The grid of analysis and `stats --csv` command lines, in hash order;
    the leakfit inputs are written to tmp_path."""
    argvs = [["allxy", "--over", over, "--phase", phase]
             for over in ("0", "0.97", "1", "1.03") for phase in ("0", "0.1", "-0.3")]
    argvs += [["calib", "--over", over, "--n-max", n_max]
              for over in ("0.97", "1.01", "1.5") for n_max in ("1", "4", "49")]
    for j_khz, t1s in (("36", []), ("36", ["--t1a-us", "7", "--t1b-us", "14"]),
                       ("0", ["--t1a-us", "7", "--t1b-us", "14"]),
                       ("36", ["--t1a-us", "0.01"])):
        argvs += [["swap", "--j-khz", j_khz, *t1s, "--t-max-us", t_max, "--points", points]
                  for t_max in ("0", "1", "30") for points in ("1", "11", "301")]
    m = np.arange(0.0, 1001.0, 25.0)
    curves = {"clean": fit.leakage_model(m, 1e-6, 8000.0, 1.875, 20.0),
              "noisy": fit.leakage_model(m, 2e-6, 15000.0, 1.875, 20.0)
              + np.random.default_rng(5).normal(0.0, 1e-5, m.size),
              "zero": np.zeros_like(m)}
    for name, p2 in curves.items():
        path = tmp_path / f"{name}.csv"
        path.write_text("m,p2\n" + "".join(f"{a},{b}\n" for a, b in zip(m, p2)))
        argvs += [["leakfit", "--input", str(path), *flags]
                  for flags in ([], ["--np-mean", "2.5", "--tp-ns", "16"])]
    argvs += [["stats", "--n", n, "--exact", "--csv"] for n in ("1", "3", "40", "3000")]
    argvs += [["stats", "--n", n, "--samples", "200", "--seed", "4", "--csv"] for n in ("2", "9")]
    return argvs


def test_analysis_output_bytes_are_pinned(tmp_path, capsys):
    h = hashlib.sha256()
    for argv in _analysis_argvs(tmp_path):
        assert run_cli(argv) == 0, argv
        h.update(capsys.readouterr().out.encode())
    assert h.hexdigest() == ANALYSIS_BYTES_DIGEST


@pytest.mark.parametrize("n_seeds", [1, 3])
def test_rb_summary_carries_seed_scatter_per_length(tmp_path, n_seeds):
    """Each qubit entry of the summary carries the seed-scatter standard
    error of p0 at every length, as run_rb gives it; the CSV keeps its
    four columns."""
    qubits = [{"t1_ns": 9000.0, "cross_ratio": 0.0076}, {"t1_ns": 12000.0}]
    m_values = [1, 4, 16, 64, 256]
    cfg = {"qubits": qubits, "scheme": "sequential", "m_values": m_values,
           "n_seeds": n_seeds, "rng_seed": 3, "csv_path": str(tmp_path / "rb.csv"),
           "summary_path": str(tmp_path / "rb.json")}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    assert run_cli(["rb", "--config", str(tmp_path / "cfg.json")]) == 0
    summary = json.loads((tmp_path / "rb.json").read_text())
    res = sim.run_rb([sim.QubitModel(**q) for q in qubits], "sequential", m_values,
                     n_seeds, 3)
    for entry, curve in zip(summary["qubits"], res.curves, strict=True):
        assert entry["p0_stderr"] == curve.p0_stderr.tolist()
        assert len(entry["p0_stderr"]) == len(m_values)
        assert (max(entry["p0_stderr"]) > 0) == (n_seeds > 1)
    assert (tmp_path / "rb.csv").read_text().splitlines()[0] == "m,qubit,p0,p1"


def test_rb_qubit_channels_counted_per_run(tmp_path):
    """The per-qubit channel count does not depend on what earlier runs in
    the process built: another seed in between leaves the bytes alone."""
    def rb(rng_seed, name):
        cfg = {"qubits": [{"t1_ns": 9000.0, "cross_ratio": 0.01}, {}, {"over_ratio": 1.02}],
               "scheme": "compiled", "m_values": [1, 2, 4, 8, 16], "n_seeds": 2,
               "rng_seed": rng_seed, "csv_path": str(tmp_path / f"{name}.csv"),
               "summary_path": str(tmp_path / f"{name}.json")}
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        assert run_cli(["rb", "--config", str(tmp_path / "cfg.json")]) == 0
        return (tmp_path / f"{name}.json").read_bytes()

    first = rb(31, "a")
    rb(32, "b")
    assert rb(31, "c") == first
    work = json.loads(first)["work"]
    assert 0 < work["qubit_channels"] <= work["rounds"] * 3


def test_rb_noiseless_all_ground(tmp_path):
    cfg = {
        "qubits": [{}, {"t1_ns": "inf"}, {"t1_ns": None}],
        "scheme": "compiled",
        "m_values": [1, 8],
        "n_seeds": 2,
        "rng_seed": 1,
        "csv_path": str(tmp_path / "rb.csv"),
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert run_cli(["rb", "--config", str(cfg_path)]) == 0
    rows = (tmp_path / "rb.csv").read_text().splitlines()[1:]
    for row in rows:
        assert float(row.split(",")[2]) == pytest.approx(1.0, abs=1e-9)


def test_rb_unknown_key_rejected(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"qubits": [{}], "scheme": "minimal",
                                    "m_values": [1], "n_seeds": 1,
                                    "rng_seed": 0, "bogus": 1}))
    assert run_cli(["rb", "--config", str(cfg_path)]) == 3
    assert "bogus" in capsys.readouterr().err


@pytest.mark.parametrize("qubit, message", [
    (10000.0, "each qubit must be an object"),
    ([], "each qubit must be an object"),
    ({"t2_ns": 5000.0}, "unknown qubit keys: ['t2_ns']"),
])
def test_rb_malformed_qubit_rejected(tmp_path, capsys, qubit, message):
    cfg = {"qubits": [{}, qubit], "scheme": "compiled", "m_values": [1, 2, 4, 8],
           "n_seeds": 1, "rng_seed": 0, "csv_path": str(tmp_path / "rb.csv")}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert run_cli(["rb", "--config", str(cfg_path)]) == 3
    assert message in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_rb_fit_failure_writes_nothing(tmp_path, capsys):
    """A decay fit that fails (exit 4) leaves no CSV and no summary.  Here
    the box holds qubit 1's amplitude at 2: unbounded, its optimum runs off
    towards decay 1 with an ever larger amplitude."""
    cfg = {
        "qubits": [{"t1_ns": 10000.0, "cross_ratio": 0.0076}, {"t1_ns": 10000.0}],
        "scheme": "compiled",
        "m_values": [1, 2, 4, 8],
        "n_seeds": 1,
        "rng_seed": 21,
        "csv_path": str(tmp_path / "rb.csv"),
        "summary_path": str(tmp_path / "rb.json"),
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert run_cli(["rb", "--config", str(cfg_path)]) == 4
    err = capsys.readouterr().err
    assert "numerical failure" in err
    assert "qubit 1: decay fit amplitude ended on its bound (2)" in err
    assert not (tmp_path / "rb.csv").exists()
    assert not (tmp_path / "rb.json").exists()


def test_rb_first_failing_qubit_is_named(tmp_path, capsys):
    """Both qubits' amplitudes end on their bound; the one fit call of the
    run still reports qubit 0, the first, and writes nothing."""
    cfg = {"qubits": [{"t1_ns": 10000.0, "cross_ratio": 0.0076}, {"t1_ns": 10000.0}],
           "scheme": "compiled", "m_values": [1, 2, 4, 8], "n_seeds": 1, "rng_seed": 45,
           "csv_path": str(tmp_path / "rb.csv"), "summary_path": str(tmp_path / "rb.json")}
    models = [sim.QubitModel(**q) for q in cfg["qubits"]]
    curves = sim.run_rb(models, "compiled", cfg["m_values"], 1, 45).curves
    assert all("amplitude" in fit.fit_exp_offset(c.m_values, c.p0, c.p0_stderr).at_bound
               for c in curves)
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    assert run_cli(["rb", "--config", str(tmp_path / "cfg.json")]) == 4
    assert capsys.readouterr().err.startswith(
        "numerical failure: qubit 0: decay fit amplitude ended on its bound (2)")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_rb_fit_value_error_is_numerical_failure(tmp_path, capsys, monkeypatch):
    """A ValueError from the run's batched fit call is exit 4, not 3, and
    the run writes no file."""
    calls = []

    def failing(*args, **kwargs):
        calls.append(args)
        raise ValueError("lengths must be finite and non-negative, values finite")

    monkeypatch.setattr(fit, "fit_exp_offsets", failing)
    cfg = {"qubits": [{"t1_ns": 10000.0}, {"t1_ns": 9000.0}], "scheme": "compiled",
           "m_values": [1, 2, 4, 8, 16], "n_seeds": 2, "rng_seed": 3,
           "csv_path": str(tmp_path / "rb.csv"), "summary_path": str(tmp_path / "rb.json")}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    assert run_cli(["rb", "--config", str(tmp_path / "cfg.json")]) == 4
    assert capsys.readouterr().err == ("numerical failure: lengths must be finite and "
                                       "non-negative, values finite\n")
    assert len(calls) == 1 and len(calls[0][1]) == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


@pytest.mark.parametrize("key,value", [
    ("m_values", [1, True, 4]),
    ("n_seeds", True),
    ("rng_seed", False),
])
def test_rb_boolean_rejected(tmp_path, capsys, key, value):
    cfg = {"qubits": [{}], "scheme": "minimal", "m_values": [1, 2, 4, 8],
           "n_seeds": 1, "rng_seed": 0, "csv_path": str(tmp_path / "rb.csv")}
    cfg[key] = value
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert run_cli(["rb", "--config", str(cfg_path)]) == 3
    assert key in capsys.readouterr().err
    assert not (tmp_path / "rb.csv").exists()


def test_rb_failed_write_leaves_no_outputs(tmp_path, capsys):
    """A summary that cannot be written leaves no CSV either (exit 3)."""
    cfg = {"qubits": [{}], "scheme": "minimal", "m_values": [1, 2, 4, 8],
           "n_seeds": 1, "rng_seed": 0, "csv_path": str(tmp_path / "rb.csv"),
           "summary_path": str(tmp_path / "missing" / "rb.json")}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert run_cli(["rb", "--config", str(cfg_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


@pytest.mark.parametrize("paths,argv", [
    ({"csv_path": "out.csv", "summary_path": "adir"}, []),
    ({"csv_path": "adir", "summary_path": "out.json"}, []),
    ({"summary_path": "out.json"}, ["-o", "adir"]),
    ({"summary_path": "adir"}, ["-o", "out.csv"]),
], ids=["summary-dir", "csv-dir", "output-dir", "output-then-summary-dir"])
def test_rb_output_to_a_directory_writes_nothing(tmp_path, capsys, monkeypatch, paths, argv):
    """An output target that is an existing directory is exit 3, named as
    the rename would name it, and no other output is written first,
    whichever output names the directory."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "adir").mkdir()
    cfg = {"qubits": [{}], "scheme": "minimal", "m_values": [1, 2, 4, 8],
           "n_seeds": 1, "rng_seed": 0, **paths}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    assert run_cli(["rb", "--config", "cfg.json", *argv]) == 3
    assert capsys.readouterr().err == "error: cannot write adir: Is a directory\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["adir", "cfg.json"]
    assert not any((tmp_path / "adir").iterdir())


def _rb_exit(tmp_path, capsys, **paths):
    """The rb exit code on a small config with the given output paths,
    checked to end without a traceback."""
    cfg = {"qubits": [{}], "scheme": "minimal", "m_values": [1, 2, 4, 8],
           "n_seeds": 1, "rng_seed": 0, **paths}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    code = run_cli(["rb", "--config", str(cfg_path)])
    assert "Traceback" not in capsys.readouterr().err
    return code


def test_rb_outputs_sharing_one_path_leave_no_temporaries(tmp_path, capsys, monkeypatch):
    """Two outputs to one file are a validation error, however the path is
    spelled, and nothing is written: the summary no longer replaces the
    CSV."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    for second in ("rb.out", "./rb.out", "sub/../rb.out", str(tmp_path / "rb.out")):
        assert _rb_exit(tmp_path, capsys, csv_path="rb.out", summary_path=second) == 3
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "sub"]
        assert not any((tmp_path / "sub").iterdir())


@pytest.mark.parametrize("paths", [{"csv_path": 5}, {"summary_path": ["s.json"]},
                                   {"csv_path": True}, {"summary_path": {"a": 1}}])
def test_rb_output_path_must_be_a_string(tmp_path, capsys, monkeypatch, paths):
    """A path that is not a string (or null) is exit 3, names its key and
    leaves no file, not even a temporary beside the target."""
    monkeypatch.chdir(tmp_path)
    assert _rb_exit(tmp_path, capsys, **paths) == 3
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_rb_null_output_paths_go_to_stdout(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = {"qubits": [{}], "scheme": "minimal", "m_values": [1, 2, 4, 8],
           "n_seeds": 1, "rng_seed": 0, "csv_path": None, "summary_path": None}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    assert run_cli(["rb", "--config", "cfg.json"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("m,qubit,p0,p1\n") and '"scheme": "minimal"' in out
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_output_through_a_symlink_writes_its_target(tmp_path, capsys):
    """An output path that is a symlink stays a link, and its target gets
    the bytes: the file is staged beside the real path and renamed over it."""
    assert run_cli(["compile", "2,13"]) == 0
    want = capsys.readouterr().out
    (tmp_path / "link.json").symlink_to("target.json")
    assert run_cli(["compile", "2,13", "-o", str(tmp_path / "link.json")]) == 0
    assert (tmp_path / "link.json").is_symlink()
    assert (tmp_path / "target.json").read_text() == want
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.json", "target.json"]


def test_output_over_an_existing_file_keeps_its_mode(tmp_path, capsys):
    """An existing output file keeps its permission bits and gets the new
    bytes: its mode is copied onto the staged file before the rename."""
    assert run_cli(["compile", "2,13"]) == 0
    want = capsys.readouterr().out
    out = tmp_path / "out.json"
    out.write_text("old")
    out.chmod(0o600)
    assert run_cli(["compile", "2,13", "-o", str(out)]) == 0
    assert out.stat().st_mode & 0o777 == 0o600
    assert out.read_text() == want
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.json"]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
def test_output_to_a_fifo_is_written_in_place(tmp_path, capsys):
    """An output path that is a FIFO stays a FIFO, and its reader gets the
    bytes, as from the shell's >.  The read end is opened without blocking
    first, so the write does not wait for a reader."""
    assert run_cli(["compile", "2,13"]) == 0
    want = capsys.readouterr().out
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        assert run_cli(["compile", "2,13", "-o", str(fifo)]) == 0
        got = os.read(reader, 1 << 16)
    finally:
        os.close(reader)
    assert got.decode() == want
    assert fifo.is_fifo()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fifo"]


def test_rb_fit_with_standard_errors_that_are_not_finite_is_numerical_failure(
        tmp_path, capsys, monkeypatch):
    """The fit's own check names the undetermined curve, qubit 1's here,
    and the run is exit 4 with no output file: qubit 1's curve is replaced
    by points whose errors span [1e-100, 1e100], after the flat, unfitted
    curve of the lossless qubit 0."""
    run_rb = sim.run_rb

    def wide_errors(*args):
        result = run_rb(*args)
        m = np.array(result.curves[1].m_values, dtype=float)
        result.curves[1].p0 = 0.5 * 0.98**m + 0.5
        result.curves[1].p0_stderr = np.array([1e-100, 1e100, 1e-3, 1e-3, 1e-3, 1e-3])
        return result

    monkeypatch.setattr(sim, "run_rb", wide_errors)
    cfg = {"qubits": [{}, {"t1_ns": 9000.0}], "scheme": "compiled",
           "m_values": [1, 2, 4, 8, 16, 32], "n_seeds": 2, "rng_seed": 3,
           "csv_path": str(tmp_path / "rb.csv"), "summary_path": str(tmp_path / "rb.json")}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    assert run_cli(["rb", "--config", str(tmp_path / "cfg.json")]) == 4
    assert capsys.readouterr().err == (
        "numerical failure: curve 1: decay fit standard errors are not finite, "
        "so its points do not determine the decay\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_rb_qubit_model_reads_the_model_fields_and_defaults():
    """An rb qubit takes the model's own fields, each as a float, a t1_ns
    of null or "inf" as infinite, and the model's defaults for the rest."""
    assert cli._qubit_model({}) == sim.QubitModel()
    for t1 in (None, "inf"):
        model = cli._qubit_model({"t1_ns": t1, "over_ratio": 1, "slot_ns": 30})
        assert model == sim.QubitModel(over_ratio=1.0, slot_ns=30.0)
        assert type(model.over_ratio) is type(model.slot_ns) is float


def test_rb_singular_fit_is_numerical_failure(tmp_path, capsys):
    """Four copies of one length leave the decay undetermined, so the run
    is exit 4 and writes nothing (before: exit 0 with a NaN
    clifford_fidelity_stderr, then exit 4 on standard errors that are not
    finite)."""
    cfg = {"qubits": [{"t1_ns": 10000}], "scheme": "minimal", "m_values": [5, 5, 5, 5],
           "n_seeds": 3, "rng_seed": 1, "csv_path": str(tmp_path / "rb.csv"),
           "summary_path": str(tmp_path / "rb.json")}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    assert run_cli(["rb", "--config", str(tmp_path / "cfg.json")]) == 4
    err = capsys.readouterr().err
    assert err == "numerical failure: need at least 3 distinct lengths to fit a decay, got 1\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


@pytest.mark.parametrize("m_values", [[6, 6, 6, 6], [3, 3, 9, 9, 9]])
def test_rb_fit_needs_three_distinct_lengths(tmp_path, capsys, m_values):
    """A decay fit on fewer than 3 distinct lengths is exit 4 with no
    output, also where rounding leaves J^T J invertible: on [6, 6, 6, 6]
    this config exited 0 with a clifford_fidelity_stderr of 65,870."""
    cfg = {"qubits": [{"t1_ns": 100, "over_ratio": 0.9}, {"cross_ratio": 0.05}],
           "scheme": "compiled", "m_values": m_values, "n_seeds": 2, "rng_seed": 1,
           "csv_path": str(tmp_path / "rb.csv"), "summary_path": str(tmp_path / "rb.json")}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    assert run_cli(["rb", "--config", str(tmp_path / "cfg.json")]) == 4
    distinct = len(set(m_values))
    assert capsys.readouterr() == (
        "", f"numerical failure: need at least 3 distinct lengths to fit a decay, got {distinct}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


@pytest.mark.parametrize("target", RB_TARGETS)
@pytest.mark.parametrize("value", BAD_VALUES, ids=repr)
def test_rb_every_bad_config_value(tmp_path, monkeypatch, target, value):
    """Each value the rb fuzz draws as invalid, put into each field it
    targets of one small valid config: exit 0, 3 or 4, no traceback, no
    temporary, no output file unless the run succeeds, and then a summary
    of strict JSON."""
    monkeypatch.chdir(tmp_path)  # relative output paths land here
    cfg = {"qubits": [{"t1_ns": 10000, "cross_ratio": 0.0076}, {}], "scheme": "compiled",
           "m_values": [1, 2, 4, 8], "n_seeds": 2, "rng_seed": 3,
           "csv_path": "rb.csv", "summary_path": "rb.json"}
    _mutate(cfg, target, value)
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    code, stdout, _ = _run(["rb", "--config", "cfg.json"], str(tmp_path))
    assert code in (0, 3, 4)
    if code == 0:
        rb_summary(cfg, stdout)


@pytest.mark.parametrize("command", ["stats", "rb"])
def test_negative_seed_is_named(tmp_path, capsys, command):
    """A negative seed is exit 3 with a message that names it, and writes
    nothing (before: numpy's bare "expected non-negative integer")."""
    cfg = {"qubits": [{}], "scheme": "minimal", "m_values": [1, 2, 4, 8], "n_seeds": 1,
           "rng_seed": -1, "csv_path": str(tmp_path / "rb.csv"),
           "summary_path": str(tmp_path / "rb.json")}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    argv, name = {"stats": (["stats", "--n", "3", "--samples", "300", "--seed", "-1",
                             "-o", str(tmp_path / "out")], "seed"),
                  "rb": (["rb", "--config", str(tmp_path / "cfg.json")], "rng_seed")}[command]
    assert run_cli(argv) == 3
    assert capsys.readouterr() == ("", f"error: {name} must be an integer >= 0, got -1\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


# The invalid values that test_fuzz_stats and test_fuzz_compile draw.
BAD_N, BAD_SAMPLES, BAD_SEEDS = ["-1", "0", "x"], ["-5", "50", "x"], ["-1", "x"]
BAD_IDS = ["0", "25", "-3", "x", ""]
STATS_CASES = ([["--n", n, "--exact"] for n in BAD_N]
               + [["--n", n, "--samples", "300"] for n in BAD_N]
               + [["--n", "3", "--samples", s] for s in BAD_SAMPLES]
               + [["--n", "3", "--samples", "300", "--seed", s] for s in BAD_SEEDS])
COMPILE_CASES = ([[f"2,13,{c}", "--scheme", "compiled"] for c in BAD_IDS]
                 + [["2,13", "--scheme", "bogus"],
                    ["2,13", "--scheme", "five-primitives-symmetric", "--parity", "2"]]
                 + [["2,13", "--scheme", scheme, "--parity", parity] for parity in ("0", "1")
                    for scheme in compiler.SCHEMES if scheme != "five-primitives-symmetric"])


@pytest.mark.parametrize("args", [["stats", *a] for a in STATS_CASES]
                         + [["compile", *a] for a in COMPILE_CASES], ids=" ".join)
def test_stats_and_compile_every_bad_value(tmp_path, args):
    """Each invalid value the stats and compile fuzz draw, in one field of
    an otherwise valid command (a parity of 0 or 1 is invalid beside a
    scheme other than the symmetric one): exit 2 or 3, no traceback, no
    temporary and no output file."""
    code, _, _ = _run(args + ["-o", "out"], str(tmp_path))
    assert code in (2, 3, 4)


# The invalid values that test_fuzz_leakfit draws: flag values, data rows of
# the wrong length or with a non-finite, negative or non-numeric field, and
# headers that do not start with m.  Each goes into one field of a valid
# command (LEAK_ROWS fit with exit 0).
LEAK_ROWS = ["0,0.0", "25,1.1e-6", "50,2.0e-6", "100,3.3e-6", "200,4.4e-6", "400,4.9e-6"]
BAD_LEAK_FLAGS = ["nan", "inf", "-inf", "-1", "0", "1e308", "x", ""]
BAD_LEAK_FIELDS = ["nan", "inf", "-inf", "x", ""]
BAD_LEAK_ROWS = (["25", "25,1e-6,0", "-1,1e-6"] + [f"{v},1e-6" for v in BAD_LEAK_FIELDS]
                 + [f"25,{v}" for v in BAD_LEAK_FIELDS])
LEAKFIT_CASES = ([("m,p2", None, [flag, value]) for flag in ("--np-mean", "--tp-ns")
                  for value in BAD_LEAK_FLAGS]
                 + [("m,p2", row, []) for row in BAD_LEAK_ROWS]
                 + [(header, None, []) for header in ("p2,m", "")])


@pytest.mark.parametrize("header,row,flags", LEAKFIT_CASES,
                         ids=[" ".join(f) or (f"row {r}" if r else f"header {h}")
                              for h, r, f in LEAKFIT_CASES])
def test_leakfit_every_bad_value(tmp_path, header, row, flags):
    """Each invalid value the leakfit fuzz draws, in one field of an
    otherwise valid command: exit 3 or 4, or 2 for a flag value argparse
    cannot read; no traceback, no temporary and no output file."""
    rows = [header] + LEAK_ROWS + ([] if row is None else [row])
    (tmp_path / "leak.csv").write_text("".join(f"{line}\n" for line in rows))
    code, _, _ = _run(["leakfit", "--input", str(tmp_path / "leak.csv"), *flags, "-o", "out"],
                      str(tmp_path))
    unreadable = flags[1:] in (["x"], [""], ["-inf"])
    assert code == 2 if unreadable else code in (3, 4)


def test_leakfit_sweep_base_command_succeeds(tmp_path):
    """The sweep's valid command fits, so each case's failure is its value's."""
    (tmp_path / "leak.csv").write_text("".join(f"{line}\n" for line in ["m,p2"] + LEAK_ROWS))
    code, _, _ = _run(["leakfit", "--input", str(tmp_path / "leak.csv"), "-o", "out"],
                      str(tmp_path))
    assert code == 0
    assert json.loads((tmp_path / "out").read_text())["unidentifiable"] is False


# Sizes whose arrays exceed 128 TiB, past any address space, so allocation
# fails at once whatever the overcommit setting.
@pytest.mark.parametrize("args", [
    ["stats", "--n", "8", "--samples", "3000000000000"],
    ["swap", "--j-khz", "36", "--points", "100000000000000"],
    ["calib", "--over", "1.01", "--n-max", "100000000000000"],
    ["rb", "--config", "cfg.json", "-o", "rb.csv"],
])
def test_input_too_large_for_memory_is_validation_error(args, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    cfg = {"qubits": [{}], "scheme": "minimal", "m_values": [100_000_000_000_000],
           "n_seeds": 1, "rng_seed": 0}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    assert run_cli(args) == 3
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error: the input is too large for memory\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


@pytest.mark.parametrize("key", ["t1_ns", "slot_ns", "cross_ratio", "over_ratio"])
@pytest.mark.parametrize("value", [True, False, "20"])
def test_rb_qubit_field_must_be_number(tmp_path, capsys, key, value):
    cfg = {"qubits": [{key: value}], "scheme": "minimal", "m_values": [1, 2, 4, 8],
           "n_seeds": 1, "rng_seed": 0, "csv_path": str(tmp_path / "rb.csv")}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert run_cli(["rb", "--config", str(cfg_path)]) == 3
    assert key in capsys.readouterr().err
    assert not (tmp_path / "rb.csv").exists()


@pytest.mark.parametrize("key", ["over_ratio", "cross_ratio", "slot_ns"])
def test_rb_qubit_field_nan_is_validation_error(tmp_path, capsys, key):
    cfg = {"qubits": [{key: math.nan}], "scheme": "minimal", "m_values": [1, 2, 4, 8],
           "n_seeds": 1, "rng_seed": 0, "csv_path": str(tmp_path / "rb.csv")}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert "NaN" in cfg_path.read_text()
    assert run_cli(["rb", "--config", str(cfg_path)]) == 3
    assert key in capsys.readouterr().err
    assert not (tmp_path / "rb.csv").exists()


def test_import_does_not_load_scipy(tmp_path):
    """No command loads scipy, the fitting ones included: it is a test-only
    dependency."""
    cfg = {"qubits": [{"t1_ns": 10000.0, "cross_ratio": 0.0076}, {"t1_ns": 10000.0}],
           "scheme": "compiled", "m_values": [1, 4, 16, 64, 256], "n_seeds": 2,
           "rng_seed": 7, "csv_path": str(tmp_path / "rb.csv"),
           "summary_path": str(tmp_path / "rb.json")}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    (tmp_path / "leak.csv").write_text(
        "m,p2\n" + "".join(f"{m},{2e-3 * (1 - math.exp(-m / 300))}\n"
                           for m in range(0, 1001, 50)))
    code = (
        "import sys, cliffcast\n"
        "assert 'scipy' not in sys.modules, 'import cliffcast'\n"
        "from cliffcast.cli import main\n"
        f"assert main(['rb', '--config', {str(tmp_path / 'cfg.json')!r}]) == 0\n"
        f"assert main(['leakfit', '--input', {str(tmp_path / 'leak.csv')!r}, "
        f"'-o', {str(tmp_path / 'leak.json')!r}]) == 0\n"
        "sys.exit('scipy' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
    assert json.loads((tmp_path / "rb.json").read_text())["qubits"][1]["decay"] < 1.0
    assert json.loads((tmp_path / "leak.json").read_text())["t21_ns"] > 0


def test_rb_bad_scheme_rejected(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"qubits": [{}], "scheme": "nope",
                                    "m_values": [1], "n_seeds": 1,
                                    "rng_seed": 0}))
    assert run_cli(["rb", "--config", str(cfg_path)]) == 3


def test_allxy_ideal_staircase(capsys):
    assert run_cli(["allxy"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "id,p1,ideal_p1"
    values = [float(ln.split(",")[1]) for ln in lines[1:]]
    expected = [0.0] * 5 + [0.5] * 12 + [1.0] * 4
    assert values == pytest.approx(expected, abs=1e-12)


def test_calib_slope_signs(capsys):
    assert run_cli(["calib", "--over", "1.01"]) == 0
    lines = capsys.readouterr().out.splitlines()[1:]
    p1 = [float(ln.split(",")[1]) for ln in lines]
    assert p1[1] - p1[0] > 0
    assert run_cli(["calib", "--over", "0.99"]) == 0
    lines = capsys.readouterr().out.splitlines()[1:]
    p1 = [float(ln.split(",")[1]) for ln in lines]
    assert p1[1] - p1[0] < 0


def test_calib_bad_ratio(capsys):
    assert run_cli(["calib", "--over", "0"]) == 3


def test_swap_csv(capsys):
    assert run_cli(["swap", "--j-khz", "36", "--t-max-us", "14", "--points", "15"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "t_ns,p1_a,p1_b,total"
    first = [float(x) for x in lines[1].split(",")]
    assert first[1] == pytest.approx(1.0, abs=1e-9)
    totals = [float(ln.split(",")[3]) for ln in lines[1:]]
    assert all(abs(t - 1.0) < 1e-9 for t in totals)


@pytest.mark.parametrize("args,name", [
    (["--j-khz", "1e200"], "j_over_2pi_khz = 1e+200 is out of range"),
    (["--j-khz", "36", "--t1a-us", "1e-300"], "t1_a_ns = 1e-297 is out of range"),
    (["--j-khz", "1e150", "--t-max-us", "1e300"], "t_grid_ns reaches 1e+303 ns"),
], ids=["coupling", "damping", "grid"])
def test_swap_overflow_names_its_input(tmp_path, capsys, args, name):
    """A coupling or damping rate whose square overflows, or a grid on
    which the phase overflows, is exit 3 naming that input, and writes no
    file (before: nan and inf rows with exit 0)."""
    assert run_cli(["swap", *args, "--points", "3", "-o", str(tmp_path / "swap.csv")]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {name}")
    assert list(tmp_path.iterdir()) == []


def test_swap_damping_past_the_float_range_decays_to_zero(capsys):
    """Strong damping over a long grid takes the decay exponent past the
    float range: both populations are 0, with no overflow warning."""
    assert run_cli(["swap", "--j-khz", "36", "--t1a-us", "1e-100", "--t1b-us", "1e-100",
                    "--t-max-us", "1e300", "--points", "3"]) == 0
    out, err = capsys.readouterr()
    assert out.splitlines()[1:] == ["0,1,0,1", "5e+302,0,0,0", "1e+303,0,0,0"]
    assert err == ""


# The values that test_fuzz_simulations draws as weird or invalid, and the
# two overflowing swap rates, each in one flag of a valid command.  A value
# valid for its flag exits 0 with finite output; argparse cannot read "x",
# "" and "-inf" (exit 2); any other value is exit 3.
SIM_COMMANDS = {
    "allxy": ["allxy", "--over", "1.01", "--phase", "0.02"],
    "calib": ["calib", "--over", "1.01", "--n-max", "10"],
    "swap": ["swap", "--j-khz", "36", "--t1a-us", "7", "--t1b-us", "14", "--t-max-us", "30",
             "--points", "3"],
}
SIM_VALID = {("allxy", "--over"): {"0"}, ("allxy", "--phase"): {"-1", "0", "1e308"},
             ("swap", "--j-khz"): {"0"},
             ("swap", "--t1a-us"): {"inf", "1e308"}, ("swap", "--t1b-us"): {"inf", "1e308"},
             ("swap", "--t-max-us"): {"0"}}
SIM_EXTRA = {("swap", "--j-khz"): ["1e200"], ("swap", "--t1a-us"): ["1e-300"],
             ("swap", "--t1b-us"): ["1e-300"]}
SIM_CASES = [(command, flag, value)
             for command, argv in SIM_COMMANDS.items() for flag in argv[1::2]
             for value in (["-1", "0", "x"] if flag in ("--n-max", "--points")
                           else WEIRD_NUMBERS + SIM_EXTRA.get((command, flag), []))]


@pytest.mark.parametrize("command,flag,value", SIM_CASES,
                         ids=[f"{c} {f} {v}" for c, f, v in SIM_CASES])
def test_simulations_every_bad_value(tmp_path, command, flag, value):
    argv = list(SIM_COMMANDS[command])
    argv[argv.index(flag) + 1] = value
    code, _, _ = _run(argv + ["-o", "out"], str(tmp_path))
    if value in SIM_VALID.get((command, flag), ()):
        assert code == 0
        rows = (tmp_path / "out").read_text().splitlines()[1:]
        assert np.isfinite([[float(x) for x in row.split(",")] for row in rows]).all()
    else:
        assert code == (2 if value in ("x", "", "-inf") else 3)


@pytest.mark.parametrize("command", list(SIM_COMMANDS))
def test_simulations_sweep_base_commands_succeed(tmp_path, command):
    """The sweep's valid commands run, so each case's failure is its value's."""
    assert _run(SIM_COMMANDS[command] + ["-o", "out"], str(tmp_path))[0] == 0


@pytest.mark.parametrize("args", [
    ["stats", "--n", "0", "--exact"],
    ["stats", "--n", "3", "--samples", "10"],
    ["swap", "--j-khz", "36", "--points", "0"],
    ["allxy", "--over", "-1"],
    ["calib", "--over", "nan", "--n-max", "2"],
    ["swap", "--j-khz", "nan", "--points", "2"],
    ["swap", "--j-khz", "36", "--t-max-us", "nan", "--points", "2"],
    ["allxy", "--phase", "inf"],
    ["allxy", "--over", "nan"],
])
def test_rejected_library_input_is_validation_error(args, capsys):
    assert run_cli(args) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_leakfit_roundtrip(tmp_path, capsys):
    from cliffcast.fit import leakage_model

    m = np.array([1, 5, 10, 25, 50, 100, 200, 400, 800], dtype=float)
    p2 = leakage_model(m, 4.1e-6, 40_000.0, 1.875, 20.0)
    csv_path = tmp_path / "leak.csv"
    csv_path.write_text(
        "m,p2\n" + "\n".join(f"{mi},{pi}" for mi, pi in zip(m, p2)) + "\n"
    )
    assert run_cli(["leakfit", "--input", str(csv_path),
                    "--np-mean", "1.875", "--tp-ns", "20"]) == 0
    d = json.loads(capsys.readouterr().out)
    assert d["kappa"] == pytest.approx(4.1e-6, rel=1e-3)
    assert d["t21_ns"] == pytest.approx(40_000.0, rel=1e-3)


@pytest.mark.parametrize("row", ["-25,1e-6", "25,nan", "inf,1e-6", "25", "25,1e-6,garbage"])
def test_leakfit_invalid_row_rejected(tmp_path, capsys, row):
    csv_path = tmp_path / "leak.csv"
    csv_path.write_text("m,p2\n" + "".join(f"{m},{m * 1e-6}\n" for m in range(0, 100, 25))
                        + row + "\n")
    assert run_cli(["leakfit", "--input", str(csv_path)]) == 3
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("name", ["missing.csv", "."])
def test_leakfit_unreadable_input_rejected(tmp_path, capsys, name):
    """A missing file or a directory is a validation error, not a traceback."""
    assert run_cli(["leakfit", "--input", str(tmp_path / name)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot read ")


def test_leakfit_missing_header(tmp_path, capsys):
    csv_path = tmp_path / "leak.csv"
    csv_path.write_text("1,0.1\n2,0.2\n")
    assert run_cli(["leakfit", "--input", str(csv_path)]) == 3


@pytest.mark.parametrize("flag", ["--np-mean", "--tp-ns"])
@pytest.mark.parametrize("value", ["-1", "0", "nan", "inf"])
def test_leakfit_nonpositive_rate_inputs_rejected(tmp_path, capsys, flag, value):
    csv_path = tmp_path / "leak.csv"
    csv_path.write_text("m,p2\n" + "".join(f"{m},{m * 1e-4}\n" for m in range(1, 9)))
    assert run_cli(["leakfit", "--input", str(csv_path), flag, value]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_rb_minimal_with_several_qubits_is_validation_error(tmp_path, capsys):
    cfg = {"qubits": [{}, {}], "scheme": "minimal", "m_values": [1, 2, 4, 8],
           "n_seeds": 1, "rng_seed": 0, "csv_path": str(tmp_path / "rb.csv"),
           "summary_path": str(tmp_path / "rb.json")}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert run_cli(["rb", "--config", str(cfg_path)]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert "single-qubit" in captured.err
    assert captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def _strict_json(text):
    """Parse JSON, rejecting the NaN and Infinity tokens."""
    def reject(name):
        raise ValueError(f"non-finite JSON constant {name}")
    return json.loads(text, parse_constant=reject)


def test_leakfit_zero_plateau_is_flat_zero(tmp_path, capsys):
    """Data whose best plateau is 0 get the flat-zero result, not a rate."""
    csv_path = tmp_path / "leak.csv"
    csv_path.write_text("m,p2\n0,0\n25,-1e-6\n50,-2e-6\n75,-1e-6\n100,-3e-6\n")
    assert run_cli(["leakfit", "--input", str(csv_path)]) == 0
    d = _strict_json(capsys.readouterr().out)
    assert d["kappa"] == 0.0
    assert d["t21_ns"] is None
    assert d["unidentifiable"] is True
    assert d["kappa_stderr"] == d["t21_stderr"] == 0.0


@pytest.mark.parametrize("rows,flags", [
    ("5,0.1\n5,0.2\n5,0.1\n5,0.3\n", []),  # one length: the rate is free
    ("0,0\n1,0\n2,0.0078125\n0,0\n", ["--tp-ns", "1e308"]),  # overflowing round
])
def test_leakfit_undetermined_fit_is_numerical_failure(tmp_path, capsys, rows, flags):
    """A fit whose errors would be NaN or whose T21 would overflow exits 4
    and prints no JSON."""
    csv_path = tmp_path / "leak.csv"
    csv_path.write_text("m,p2\n" + rows)
    assert run_cli(["leakfit", "--input", str(csv_path)] + flags) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("numerical failure: ")


@pytest.mark.parametrize("argv, code", [
    (["stats", "--n", "3", "--exact"], 0),
    (["stats", "--n", "3", "--exact", "--samples", "5"], 2),
    (["compile", "25"], 3),
    (["leakfit", "--input", "{leak}"], 4),
])
def test_module_entry_point_exit_codes(tmp_path, argv, code):
    """python -m cliffcast.cli ends with each documented exit code and never
    with a traceback: a usage error (2), invalid input (3) and a fit that
    cannot succeed, here one on a single positive length (4)."""
    leak = tmp_path / "leak.csv"
    leak.write_text("m,p2\n0,0\n10,1e-4\n10,2e-4\n10,1.5e-4\n")
    argv = [a.format(leak=leak) for a in argv]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, "-m", "cliffcast.cli", *argv], env=env,
                          capture_output=True, text=True)
    assert done.returncode == code
    assert "Traceback" not in done.stderr
    if code == 0:
        assert json.loads(done.stdout)["mode"] == "exact"
    else:
        assert done.stdout == "" and done.stderr


def test_csv_floats_nine_significant_digits(capsys):
    assert run_cli(["allxy", "--over", "1.037"]) == 0
    lines = capsys.readouterr().out.splitlines()[1:]
    token = lines[1].split(",")[1]
    assert len(token.replace(".", "").replace("-", "").lstrip("0")) <= 9


_RANDOM_FLOATS = (np.random.default_rng(11).integers(0, 2**64, 20_000, dtype=np.uint64)
                  .view(np.float64).reshape(-1, 4).tolist())
CSV_TABLES = {
    "ints": ([(1, 2), (3, -4), (0, 24**3000)], ["a", "b"]),
    "floats": ([(math.inf, -math.inf, math.nan), (-0.0, 5e-324, 1e308),
                (0.1, -2.5e-7, 123456789.123)], ["x", "y", "z"]),
    "mixed": ([(3000, 4.0, 0.0, "exact", 0), (10, 4.77, 0.0422952585, "sampled", 100)],
              ["n", "mean_np", "stderr", "mode", "samples"]),
    "numpy floats": ([(1, np.float64(0.5), np.float64(-1e-300))], ["m", "p0", "p1"]),
    "random bits": (_RANDOM_FLOATS, ["a", "b", "c", "d"]),
    "no rows": ([], ["t_ns", "p1_a"]),
}


@pytest.mark.parametrize("case", sorted(CSV_TABLES))
def test_csv_matches_per_value_writer(case):
    """The one-operation CSV writer gives the per-value writer's bytes: ints
    of any length (24^3000 has 4,141 digits), every kind of float, strings
    and an empty table."""
    rows, header = CSV_TABLES[case]
    with cli._unlimited_int_digits():
        assert cli._csv(rows, header) == csv_text(rows, header)
