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
