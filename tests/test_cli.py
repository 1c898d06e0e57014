import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from cliffcast.cli import main
from cliffcast.clifford import (
    CANONICAL_UNITARIES,
    Pulse,
    equal_up_to_phase,
    sequence_unitary,
)


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


def test_stats_exact_small(capsys):
    assert run_cli(["stats", "--n", "2", "--exact"]) == 0
    d = json.loads(capsys.readouterr().out)
    assert d["mode"] == "exact"
    assert abs(d["mean_np"] - 2.925347) < 5e-7
    assert run_cli(["stats", "--n", "1", "--exact"]) == 0
    d = json.loads(capsys.readouterr().out)
    assert d["mean_np"] == 1.875


def test_stats_exact_too_large_rejected(capsys):
    assert run_cli(["stats", "--n", "6", "--exact"]) == 3
    assert "24^6" in capsys.readouterr().err


def test_stats_exact_n5_needs_allow_long(capsys):
    assert run_cli(["stats", "--n", "5", "--exact"]) == 3


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

    # identical config and seed must reproduce byte-identical outputs, the
    # work counters included, although the round cache is now warm
    summary_first = (tmp_path / "rb.json").read_bytes()
    assert run_cli(["rb", "--config", str(cfg_path)]) == 0
    assert (tmp_path / "rb.csv").read_bytes() == csv_first
    assert (tmp_path / "rb.json").read_bytes() == summary_first


def test_rb_noiseless_all_ground(tmp_path):
    cfg = {
        "qubits": [{}, {}],
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


def test_rb_fit_failure_writes_nothing(tmp_path, capsys):
    """A decay fit that fails (exit 4) leaves no CSV and no summary."""
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
    assert "numerical failure" in capsys.readouterr().err
    assert not (tmp_path / "rb.csv").exists()
    assert not (tmp_path / "rb.json").exists()


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


def test_import_does_not_load_scipy():
    """scipy is loaded by the fitters only; compile and stats never pay for it."""
    code = "import sys, cliffcast.cli; sys.exit('scipy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


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


@pytest.mark.parametrize("args", [
    ["stats", "--n", "0", "--exact"],
    ["stats", "--n", "3", "--samples", "10"],
    ["swap", "--j-khz", "36", "--points", "0"],
    ["allxy", "--over", "-1"],
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


def test_leakfit_missing_header(tmp_path, capsys):
    csv_path = tmp_path / "leak.csv"
    csv_path.write_text("1,0.1\n2,0.2\n")
    assert run_cli(["leakfit", "--input", str(csv_path)]) == 3


def test_csv_floats_nine_significant_digits(capsys):
    assert run_cli(["allxy", "--over", "1.037"]) == 0
    lines = capsys.readouterr().out.splitlines()[1:]
    token = lines[1].split(",")[1]
    assert len(token.replace(".", "").replace("-", "").lstrip("0")) <= 9
