"""Spans around every call into cliffcast, and the per-layer metrics they give.

A span is (name, start, end, parent).  Spans live in flat arrays while the
traced jobs run and are written out once, at the end.  A span's self time
is its duration minus the durations of its direct children; as the program
is single-threaded, children never overlap.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# (module, function) of every traced call; a span is named "module.function",
# except cli.main, which is named after its subcommand ("cli.rb").
TARGETS = (
    ("cli", "main"),
    ("sim", "run_rb"),
    ("sim", "apply_pulse"),
    ("sim", "relax"),
    ("sim", "exchange_swap"),
    ("sim", "simulate_allxy"),
    ("sim", "simulate_amp_calibration"),
    ("compiler", "compile_scheme"),
    ("compiler", "compile_optimal"),
    ("compiler", "min_broadcast_pulses"),
    ("compiler", "mean_np_exact"),
    ("compiler", "mean_np_sampled"),
    ("clifford", "rotation_unitary"),
    ("clifford", "recovery_clifford"),
    ("decomp", "decomposition_census"),
    ("fit", "fit_exp_offset"),
    ("fit", "fit_leakage"),
)


def _rb_counts(result):
    rounds = result.n_seeds * sum(m + 1 for m in result.curves[0].m_values)
    return rounds, round(result.mean_slots_per_round * rounds)


# Counts read from a call's result at the same boundary as its span.
RESULT_VALUES = {
    "sim.run_rb": _rb_counts,
    "compiler.compile_optimal": lambda sched: sched.n_slots,
    "compiler.mean_np_sampled": lambda stats: stats.samples,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("l")
        self.start = array("q")
        self.end = array("q")
        self.values: dict[int, object] = {}
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        nid = self.ids.get(name)
        if nid is None:
            nid = self.ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def save(self, path: str) -> None:
        np.savez(path, names=np.array(self.names), name=np.array(self.name),
                 parent=np.array(self.parent), start=np.array(self.start),
                 end=np.array(self.end))


def _wrap(tracer: Tracer, name: str, fn, value_of):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.open(f"cli.{args[0][0]}" if name == "cli.main" else name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if value_of is not None:
            tracer.values[idx] = value_of(result)
        return result

    return traced


class Instrumentation:
    """Context manager that swaps every traced cliffcast function for a
    span-recording wrapper in each cliffcast module that binds it."""

    def __init__(self, tracer: Tracer):
        modules = [m for n, m in list(sys.modules.items())
                   if n == "cliffcast" or n.startswith("cliffcast.")]
        self._patches = []
        for mod_name, fn_name in TARGETS:
            name = f"{mod_name}.{fn_name}"
            fn = getattr(sys.modules[f"cliffcast.{mod_name}"], fn_name)
            wrapper = _wrap(tracer, name, fn, RESULT_VALUES.get(name))
            for mod in modules:
                for attr, value in vars(mod).items():
                    if value is fn:
                        self._patches.append((mod, attr, fn, wrapper))

    def __enter__(self):
        for mod, attr, _, wrapper in self._patches:
            setattr(mod, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for mod, attr, fn, _ in self._patches:
            setattr(mod, attr, fn)
        return False


class Spans:
    """Array view of a tracer's spans, grouped under their root span."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.name = np.array(tracer.name, dtype=np.int64)
        self.parent = np.array(tracer.parent, dtype=np.int64)
        self.dur = np.array(tracer.end, dtype=np.int64) - np.array(tracer.start, dtype=np.int64)
        has_parent = self.parent >= 0
        child = np.bincount(self.parent[has_parent], weights=self.dur[has_parent],
                            minlength=self.dur.size)
        self.self_ = self.dur - child
        root = np.arange(self.dur.size)
        while True:
            up = self.parent[root]
            nxt = np.where(up >= 0, up, root)
            if np.array_equal(nxt, root):
                break
            root = nxt
        self.root = root

    def select(self, roots) -> "Region":
        return Region(self, np.isin(self.root, roots), len(roots))


class Region:
    """The spans under a set of root spans (traced jobs, or the probe)."""

    def __init__(self, spans: Spans, mask, n_roots: int):
        self.spans = spans
        self.mask = mask
        self.n_roots = n_roots

    def idx(self, name: str):
        nid = self.spans.tracer.ids.get(name, -1)
        return np.flatnonzero(self.mask & (self.spans.name == nid))

    def has(self, name: str) -> bool:
        return self.idx(name).size > 0

    def total(self, name: str, self_time: bool = False) -> float:
        t = self.spans.self_ if self_time else self.spans.dur
        return float(t[self.idx(name)].sum()) * 1e-9

    def per_call(self, name: str, self_time: bool = False) -> float:
        return self.total(name, self_time) / self.idx(name).size

    def per_root(self, name: str) -> float:
        return self.total(name) / self.n_roots

    def values(self, name: str) -> list:
        return [self.spans.tracer.values[int(i)] for i in self.idx(name)]

    def rb_totals(self) -> tuple[float, float, int, int]:
        """(run_rb seconds, of which compiling, rounds, slots)."""
        runs = self.idx("sim.run_rb")
        compiles = self.idx("compiler.compile_scheme")
        compiles = compiles[np.isin(self.spans.parent[compiles], runs)]
        counts = np.array(self.values("sim.run_rb"), dtype=np.int64).reshape(-1, 2)
        return (self.total("sim.run_rb"),
                float(self.spans.dur[compiles].sum()) * 1e-9,
                int(counts[:, 0].sum()), int(counts[:, 1].sum()))


def _round_us(r):
    t, _, rounds, _ = r.rb_totals()
    return t / rounds * 1e6


def _slot_us(r):
    t, compiling, _, slots = r.rb_totals()
    return (t - compiling) / slots * 1e6


def _fallback_ratio(r):
    slots = r.values("compiler.compile_optimal")
    return sum(s == 5 for s in slots) / len(slots)


def _sampled_us(r):
    name = "compiler.mean_np_sampled"
    return r.total(name) / sum(r.values(name)) * 1e6


def _per_call(unit: str, span: str, scale: float, self_time: bool = False):
    return unit, span, lambda r: r.per_call(span, self_time) * scale


# name -> (unit, span the metric needs, value from a region).  Times are per
# call unless the name says otherwise; self times exclude traced callees.
TIMES = {
    "sim.apply_pulse_us": _per_call("us", "sim.apply_pulse", 1e6, self_time=True),
    "sim.relax_us": _per_call("us", "sim.relax", 1e6, self_time=True),
    "sim.round_us": ("us", "sim.run_rb", _round_us),
    "sim.slot_us": ("us", "sim.run_rb", _slot_us),
    "sim.exchange_s": _per_call("s", "sim.exchange_swap", 1.0),
    "sim.allxy_ms": _per_call("ms", "sim.simulate_allxy", 1e3),
    "sim.calib_ms": _per_call("ms", "sim.simulate_amp_calibration", 1e3),
    "compiler.compile_optimal_us": _per_call("us", "compiler.compile_optimal", 1e6,
                                             self_time=True),
    "compiler.min_pulses_us": _per_call("us", "compiler.min_broadcast_pulses", 1e6,
                                        self_time=True),
    "compiler.exact_census_s": ("s", "compiler.mean_np_exact",
                                lambda r: r.per_root("compiler.mean_np_exact")),
    "compiler.sampled_us": ("us", "compiler.mean_np_sampled", _sampled_us),
    "clifford.rotation_unitary_us": _per_call("us", "clifford.rotation_unitary", 1e6,
                                              self_time=True),
    "clifford.recovery_us": _per_call("us", "clifford.recovery_clifford", 1e6, self_time=True),
    "fit.exp_ms": _per_call("ms", "fit.fit_exp_offset", 1e3),
    "fit.leakage_ms": _per_call("ms", "fit.fit_leakage", 1e3),
    "cli.rb_overhead_s": _per_call("s", "cli.rb", 1.0, self_time=True),
    "cli.compile_us": _per_call("us", "cli.compile", 1e6),
}

# Counts come from the first traced job alone, so they repeat exactly for a seed.
COUNTS = {
    "sim.rounds": ("count", "sim.run_rb", lambda r: r.rb_totals()[2]),
    "sim.slots": ("count", "sim.run_rb", lambda r: r.rb_totals()[3]),
    "compiler.slots_per_round": ("slot/round", "sim.run_rb",
                                 lambda r: r.rb_totals()[3] / r.rb_totals()[2]),
    "compiler.fallback_ratio": ("ratio", "compiler.compile_optimal", _fallback_ratio),
}


def layer_metrics(tracer: Tracer, job_roots: list[int], probe_root: int) -> dict:
    """Per-layer metrics of the traced jobs.  A metric whose calls the jobs
    never make is taken from the probe, so that every workload reports every
    metric; its entry then says so."""
    spans = Spans(tracer)
    jobs = spans.select(job_roots)
    first = spans.select(job_roots[:1])
    probe = spans.select([probe_root])
    out = {}
    for table, region in ((TIMES, jobs), (COUNTS, first)):
        for metric, (unit, needs, value) in table.items():
            source, r = ("workload", region) if region.has(needs) else ("probe", probe)
            out[metric] = {"value": value(r), "unit": unit, "source": source}
    return out
