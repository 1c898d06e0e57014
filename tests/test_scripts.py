"""The example scripts under scripts/, run in-process."""

import importlib.util
import pathlib

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_pulse_count_scaling_csv_is_the_same_bytes_on_every_run(tmp_path, capsys):
    script = _load("pulse_count_scaling")
    args = ["--exact-max", "3", "--sampled-min", "2", "--sampled-max", "3",
            "--samples", "200"]
    texts = []
    for run in range(2):
        out = tmp_path / f"scaling{run}.csv"
        assert script.main(args + ["-o", str(out)]) == 0
        texts.append(out.read_bytes())
    assert texts[0] == texts[1]
    assert texts[0].splitlines()[0] == b"n,mode,mean_np,stderr,samples"
    assert len(texts[0].splitlines()) == 6
    assert capsys.readouterr().err.count(" s)\n") == 10  # five lines per run


def test_rb_scheme_comparison_is_the_same_bytes_on_every_run(tmp_path, capsys):
    script = _load("rb_scheme_comparison")
    runs = []
    for run in range(2):
        out = tmp_path / f"curves{run}.csv"
        assert script.main(["--seeds", "2", "-o", str(out)]) == 0
        runs.append((out.read_bytes(), capsys.readouterr().out))
    assert runs[0] == runs[1]
    lines = runs[0][0].splitlines()
    assert lines[0] == b"scheme,m,qubit,p0,p1"
    assert len(lines) == 1 + len(script.SCHEMES) * 2 * len(script.M_GRID)
    assert len(runs[0][1].splitlines()) == 1 + len(script.SCHEMES)  # header, one row each


def test_crossdrive_curves_is_the_same_bytes_on_every_run(tmp_path, capsys):
    script = _load("crossdrive_curves")
    texts = []
    for run in range(2):
        out = tmp_path / f"crossdrive{run}.csv"
        assert script.main(["-o", str(out)]) == 0
        texts.append(out.read_bytes())
    assert texts[0] == texts[1]
    lines = texts[0].splitlines()
    assert lines[0] == b"scheme,m,idle_p1,driven_p0"
    assert len(lines) == 1 + len(script.SCHEMES) * len(script.M_GRID)
    assert capsys.readouterr().err.count("idle p1 peak") == 2 * len(script.SCHEMES)
