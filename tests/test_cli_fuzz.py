"""Property test of the command-line front end on drawn argv and configs.

Every subcommand is run in-process on arguments drawn from a mix of valid
and invalid values.  Whatever the input, a run must end with a documented
exit code (0, 2, 3 or 4), print no traceback, leave no temporary file, and
write no output file unless it succeeds; `leakfit` must print strict JSON,
without NaN or Infinity, and succeed only when every data row has exactly
two fields.

`test_fuzz_plain_args` draws whole command lines instead, options with
plain values and at most one odd piece (help, "=", "--", an abbreviation,
a repeat, a negative number, an option as a value), and checks that `cli._plain_args` gives
parse_args's namespace or declines, and that `main` ends exactly as the
oracle `cli_main_parse_args`, which parses every line with parse_args.

The draws are derandomized with a fixed example count, so the suite stays
deterministic.  Which cases they reach follows the test's source, so an
edit can move them: each test counts the exit codes of its runs and then
asserts that every code it is meant to reach came up a few times (and, for
`leakfit`, that rows of the wrong length met a valid header and valid
flags).  `rb` reaches exit 4 by construction: one of its mutations
repeats one sequence length, which a decay fit cannot resolve.  `leakfit`
draws at least two data rows, and a valid header and no bad row more
often than not, so that some of its fits run and succeed.

Sizes are bounded only to keep the run time to seconds, not because larger
values are invalid: at most 8 qubits for `compile` and 3 in an `rb`
config, sequence lengths up to 16 with at most 2 seeds, `--points` up to
50, `--n-max` up to 60, an exact `--n` up to 4 and up to 300 samples.
"""

import argparse
import collections
import contextlib
import io
import json
import math
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from cliffcast import cli
from cliffcast.cli import build_parser, main
from cliffcast.compiler import SCHEMES
from cliffcast.sim import RB_SCHEMES
from oracles import cli_main_parse_args

EXIT_CODES = {0, 2, 3, 4}

FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=100)

WEIRD_NUMBERS = ["nan", "inf", "-inf", "-1", "0", "1e308", "x", ""]

# Exit codes (and named cases) met by the runs of the test under way.
REACHED = collections.Counter()


def _reaching(*expected, at_least=3):
    """Run the decorated property test, then assert that each expected exit
    code or named case came up in at least `at_least` of its draws."""
    def decorate(prop):
        def test():
            REACHED.clear()
            prop()
            short = {k: REACHED[k] for k in expected if REACHED[k] < at_least}
            assert not short, (dict(REACHED), short)
        test.__name__ = test.__qualname__ = prop.__name__
        return test
    return decorate


def _number_text(lo, hi):
    return st.one_of(st.floats(lo, hi, allow_nan=False).map(repr),
                     st.integers(int(lo), int(hi)).map(str),
                     st.sampled_from(WEIRD_NUMBERS))


def _flag(name, values):
    """An optional flag: absent, or the flag with a drawn value."""
    return st.one_of(st.just([]), values.map(lambda v: [name, v]))


# An output target: stdout, a fresh file, or a path that cannot be written.
OUTPUTS = st.sampled_from([None, "-", "out", "missing/out", "."])


def _output_args(output):
    return [] if output is None else ["-o", output]


def _run(argv, workdir):
    """Run the CLI on argv in workdir, counting its exit code in REACHED;
    return (exit code, stdout, stderr)."""
    inputs = set(os.listdir(workdir))
    argv = [os.path.join(workdir, a) if a in ("out", "missing/out", ".") else a
            for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    stderr = err.getvalue()
    REACHED[code] += 1
    assert code in EXIT_CODES, (argv, code, stderr)
    assert "Traceback" not in stderr, (argv, stderr)
    left = set(os.listdir(workdir))
    assert not [f for f in left if f.endswith(".tmp")], (argv, left)
    if code != 0:
        assert left == inputs, (argv, code, left - inputs)
    return code, out.getvalue(), stderr


@_reaching(0, 2, 3)
@FUZZ
@given(ids=st.lists(st.integers(1, 24), min_size=1, max_size=8),
       bad=st.sampled_from([None, None, "0", "25", "-3", "x", ""]),
       scheme=st.sampled_from(SCHEMES + ("bogus",)),
       parity=st.sampled_from([None, "0", "1", "2"]),
       output=OUTPUTS)
def test_fuzz_compile(ids, bad, scheme, parity, output):
    ids = [str(c) for c in ids] + ([] if bad is None else [bad])
    argv = ["compile", ",".join(ids), "--scheme", scheme]
    argv += [] if parity is None else ["--parity", parity]
    with tempfile.TemporaryDirectory() as d:
        _run(argv + _output_args(output), d)


@_reaching(0, 2, 3)
@FUZZ
@given(n=st.sampled_from(["-1", "0", "1", "2", "3", "4", "x"]),
       exact=st.booleans(),
       samples=_flag("--samples", st.sampled_from(["-5", "50", "100", "300", "x"])),
       seed=_flag("--seed", st.sampled_from(["0", "7", "-1", "x"])),
       csv=st.booleans(),
       output=OUTPUTS)
def test_fuzz_stats(n, exact, samples, seed, csv, output):
    argv = ["stats", "--n", n] + (["--exact"] if exact else []) + samples + seed
    argv += (["--csv"] if csv else []) + _output_args(output)
    with tempfile.TemporaryDirectory() as d:
        _run(argv, d)


class _Drop:
    """Sentinel whose repr, and so its test id, is the same in every run
    (a bare object() would name its memory address)."""

    def __repr__(self):
        return "DROP"


# Values no config field accepts; DROP removes the field instead.
DROP = _Drop()
BAD_VALUES = [DROP, None, True, "x", -1, 0, 1.5, math.nan, math.inf, -math.inf, [], {}]
RB_TARGETS = ["qubits", "scheme", "m_values", "n_seeds", "rng_seed", "bogus",
              "qubit.t1_ns", "qubit.slot_ns", "qubit.cross_ratio", "qubit.over_ratio",
              "qubit.bogus", "m_value", "csv_path", "summary_path"]

QUBIT = st.fixed_dictionaries({}, optional={
    "t1_ns": st.one_of(st.floats(100.0, 2e4), st.sampled_from([None, "inf"])),
    "slot_ns": st.floats(1.0, 40.0),
    "cross_ratio": st.floats(0.0, 0.05),
    "over_ratio": st.floats(0.9, 1.1),
})


# A config gets at most one mutation: a value its field rejects (exit 3,
# or 0 where the value happens to be valid), or one length repeated four
# times.  Those lengths are valid, but a decay fit needs 3 distinct ones,
# so a run whose config is otherwise valid ends in exit 4.
MUTATIONS = st.one_of(st.none(),
                      st.integers(1, 16).map(lambda m: ("m_values", [m] * 4)),
                      st.tuples(st.sampled_from(RB_TARGETS), st.sampled_from(BAD_VALUES)))


def _mutate(cfg, target, value):
    """Put one mutated value into an otherwise valid config."""
    if target == "m_value":
        owner, key = cfg["m_values"], 0
    elif target.startswith("qubit."):
        owner, key = cfg["qubits"][0], target[len("qubit."):]
    else:
        owner, key = cfg, target
    if value is DROP:
        if isinstance(owner, dict):
            owner.pop(key, None)
    else:
        owner[key] = value


@_reaching(0, 3, 4)
@settings(FUZZ, max_examples=200)
@given(cfg=st.fixed_dictionaries(
           {"qubits": st.lists(QUBIT, min_size=1, max_size=3),
            "scheme": st.sampled_from(RB_SCHEMES),
            "m_values": st.lists(st.integers(1, 16), min_size=1, max_size=5),
            "n_seeds": st.integers(1, 2),
            "rng_seed": st.integers(0, 2**40)},
           optional={"csv_path": st.sampled_from(["out", "missing/out", "."]),
                     "summary_path": st.sampled_from(["summary", "missing/out"])}),
       mutation=MUTATIONS,
       text=st.sampled_from([None, None, None, "{", "[]"]),
       output=OUTPUTS)
def test_fuzz_rb(cfg, mutation, text, output):
    with tempfile.TemporaryDirectory() as d:
        for key in ("csv_path", "summary_path"):
            if key in cfg:
                cfg[key] = os.path.join(d, cfg[key])
        if mutation is not None:
            _mutate(cfg, *mutation)
        path = os.path.join(d, "cfg.json")
        with open(path, "w") as f:
            f.write(json.dumps(cfg) if text is None else text)
        code, stdout, _ = _run(["rb", "--config", path] + _output_args(output), d)
        if code == 0:
            rb_summary(cfg, stdout)


def rb_summary(cfg, stdout):
    """The summary of an rb run that succeeded, parsed as strict JSON: from
    its summary_path, else from stdout, where it follows any CSV."""
    if cfg.get("summary_path") is None:
        return json.loads(stdout[stdout.index("{"):], parse_constant=_reject_constant)
    with open(cfg["summary_path"]) as f:
        return json.load(f, parse_constant=_reject_constant)


@_reaching(0, 2, 3)
@FUZZ
@given(command=st.sampled_from(["allxy", "calib", "swap"]),
       over=_number_text(-2, 3), phase=_number_text(-7, 7),
       n_max=st.sampled_from(["-1", "0", "1", "60", "x"]),
       j=_number_text(-10, 1e4), t1=_number_text(-5, 1e3), t_max=_number_text(-5, 60),
       points=st.sampled_from(["-1", "0", "1", "50", "x"]),
       output=OUTPUTS)
def test_fuzz_simulations(command, over, phase, n_max, j, t1, t_max, points, output):
    argv = {
        "allxy": ["allxy", "--over", over, "--phase", phase],
        "calib": ["calib", "--over", over, "--n-max", n_max],
        "swap": ["swap", "--j-khz", j, "--t1a-us", t1, "--t1b-us", t1,
                 "--t-max-us", t_max, "--points", points],
    }[command]
    with tempfile.TemporaryDirectory() as d:
        _run(argv + _output_args(output), d)


# A bad row: two fields of any text, or one or three plain numbers, so that
# rows of the wrong length also meet a valid header and valid flags.
FIELD = st.integers(0, 800).map(str)
BAD_ROW = st.one_of(st.tuples(FIELD), st.tuples(FIELD, FIELD, FIELD),
                    st.tuples(_number_text(-10, 800), _number_text(-1, 1)))


@_reaching(0, 2, 3, 4, "wrong-length row")
@settings(FUZZ, max_examples=200)
@given(header=st.sampled_from(["m,p2", "m,p2", "m,p2", "p2,m", ""]),
       rows=st.lists(st.tuples(st.integers(0, 800).map(str),
                               st.floats(-1e-4, 1e-2).map(repr)), min_size=2, max_size=9),
       bad=st.one_of(st.none(), st.none(), BAD_ROW),
       np_mean=_flag("--np-mean", _number_text(-2, 4)),
       tp=_flag("--tp-ns", _number_text(-20, 40)),
       output=OUTPUTS)
def test_fuzz_leakfit(header, rows, bad, np_mean, tp, output):
    rows += [] if bad is None else [bad]
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "leak.csv")
        with open(path, "w") as f:
            f.write("".join(f"{line}\n" for line in [header] + [",".join(r) for r in rows]))
        code, stdout, stderr = _run(["leakfit", "--input", path] + np_mean + tp
                                    + _output_args(output), d)
        if "exactly two fields" in stderr:
            REACHED["wrong-length row"] += 1
        if code == 0:
            assert all(len(r) == 2 for r in rows), rows
            if output == "out":
                with open(os.path.join(d, "out")) as f:
                    stdout = f.read()
            json.loads(stdout, parse_constant=_reject_constant)


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


@_reaching(0, 2)
@FUZZ
@given(argv=st.lists(st.sampled_from(["compile", "stats", "rb", "leakfit", "--bogus",
                                      "-o", "--n", "1", "--exact", "--config", "-h"]),
                     max_size=4))
def test_fuzz_usage(argv):
    with tempfile.TemporaryDirectory() as d:
        _run(argv, d)


# Each command's parser; each option string of its actions but help, mapped
# to whether it is a flag (takes no value); and its number of positionals.
(SUBPARSERS,) = [a for a in build_parser()._actions if a.dest == "command"]
OPTIONS = {command: {s: a.nargs == 0 for a in p._actions if a.default != argparse.SUPPRESS
                     for s in a.option_strings}
           for command, p in SUBPARSERS.choices.items()}
POSITIONALS = {command: sum(not a.option_strings for a in p._actions)
               for command, p in SUBPARSERS.choices.items()}
REQUIRED = {command: [a.option_strings[-1] for a in p._actions if a.required and a.option_strings]
            for command, p in SUBPARSERS.choices.items()}
# Values small enough that every command runs in milliseconds: the plain
# ones parse as most options' types, the odd ones as few.
PLAIN_VALUES = ["1", "2", "0.5"]
ODD_VALUES = ["x", "", "compiled", "five-primitives-symmetric", "-1", "-0.1"]


@st.composite
def _argvs(draw):
    """A command, distinct options (each with a plain value, but flags; a
    required option in about half the draws that lack it) and its
    positionals in a drawn order, and in about half the draws one odd piece
    among them: an odd value, an option as a value, "--opt=v", "--op", a
    repeated option, help, an extra or odd positional, or "--"."""
    command = draw(st.sampled_from(sorted(OPTIONS)))
    options = OPTIONS[command]
    names = draw(st.lists(st.sampled_from(sorted(options)), max_size=4, unique=True))
    names += [o for o in REQUIRED[command] if o not in names and draw(st.booleans())]
    value = st.sampled_from(PLAIN_VALUES)
    parts = [[o] if options[o] else [o, draw(value)] for o in names]
    parts += [[draw(st.sampled_from(["2,13", "1"]))] for _ in range(POSITIONALS[command])]
    if draw(st.booleans()):
        option, odd = draw(st.sampled_from(sorted(options))), st.sampled_from(ODD_VALUES)
        parts.append(draw(st.sampled_from([
            [option, draw(odd)], [option, draw(st.sampled_from(sorted(options)))],
            [f"{option}={draw(value)}"], [option[:-1]], *parts[:1],
            ["-h"], ["--help"], ["2,13"], ["2,x"], ["-1"], [""], ["--"]])))
    return [command, *sum(draw(st.permutations(parts)), [])]


def _outcome(run, argv):
    """(exit code, stdout, stderr) of run(argv) in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@_reaching("accepted", "declined")
@FUZZ
@given(argv=_argvs())
def test_fuzz_plain_args(argv):
    """The plain-line reader gives parse_args's namespace or None, and main
    ends as main did with parse_args alone: same exit code, stdout and stderr."""
    args = cli._plain_args(SUBPARSERS, argv)
    REACHED["declined" if args is None else "accepted"] += 1
    if args is not None:
        assert vars(args) == vars(build_parser().parse_args(argv)), argv
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as d:
        os.chdir(d)  # output files land here
        try:
            assert _outcome(main, argv) == _outcome(cli_main_parse_args, argv), argv
        finally:
            os.chdir(cwd)
