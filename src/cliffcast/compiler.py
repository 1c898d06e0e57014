"""Broadcast compilation of simultaneous single-qubit Cliffords.

A schedule is an ordered list of pulse events.  Each event carries one
basis pulse and a per-qubit routing mask; a pulse is applied to every qubit
whose mask bit is on, so independent Cliffords are realized by firing, for
each qubit, a subsequence of the shared pulse stream.  Distinct pulses can
never share a time slot.

Schemes
-------
sequential
    Each qubit's minimal decomposition in turn, one qubit per event;
    identity Cliffords emit nothing.
five-primitives / five-primitives-symmetric
    A fixed five-slot round; each Clifford fires a subset of the slots,
    and a slot nobody fires emits no event but still takes its time.
    The symmetric variant alternates the normal round with its mirrored
    round on odd parities, which cancels most of the net drive seen by
    undriven qubits.
compiled
    The provably minimum number of events over all decomposition choices
    and pulse interleavings.

Round plans
-----------
Every scheme first builds a round plan (`round_plan`): the pulse of each
time slot, None where no qubit fires, and one fired-slot bitmask per qubit.
`Schedule`s are built from the plan, and the simulator reads it directly,
so a round has one representation.  The five-primitive bitmasks are read
from the frozen mask tables.

Optimal search
--------------
One cover table answers every shortest-cover question.  It lists every
pulse train of 1..4 basis pulses, in ascending length and then sequence
order, with the Clifford fired by each subset of the train (from
`decomp.sequence_products`, the one walk over the basis sequences) and the
complement of its target mask, as one int64 array.  One vectorised query
(`_first_cover`) finds the first train that misses none of a round's
targets: the shortest and, among those, the lexicographically first
cover.  `compile_optimal` and `round_plan` fire from that train, reading
each qubit's firing choice from its products.  A round's cost is that
train's length; cost queries (`min_broadcast_pulses`, the sampled census)
are batched (`_mask_costs`): each mask is tested against the table's 375
distinct uncovered masks, each with the length of its first train, 64
masks at a time.  If no train covers the targets, the five-primitive round
realizes any combination, so a combination costs at most 5.  A cost
depends only on the set of distinct non-identity targets, so the exact
census reads `CENSUS_COUNTS`, the number of sets of each size at each
cost, and weights each size by surjection counts instead of enumerating
the 24^n combinations or the sets.

Identity accounting
-------------------
An identity Clifford fires no pulses: its mask stays off during other
qubits' events.  Compiled schedules therefore emit nothing for identity
targets, and the all-identity combination compiles to an empty schedule.
The pulse-count census, however, charges one slot for a round in which
nothing fires at all (the lone I "pulse"), so an all-identity combination
is counted as one slot; this matches the single-qubit average of 1.875
pulses per Clifford with the identity row costing one pulse.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache, reduce
from operator import or_

import numpy as np

from .clifford import (
    CANONICAL_UNITARIES,
    FIVE_PRIMITIVE_MASKS,
    FIVE_PRIMITIVE_MASKS_INVERTED,
    FIVE_PRIMITIVES,
    FIVE_PRIMITIVES_INVERTED,
    MINIMAL_DECOMPOSITIONS,
    Pulse,
    equal_up_to_phase,
    sequence_unitary,
)
from .decomp import SEARCH_BASIS, sequence_products

SCHEME_SEQUENTIAL = "sequential"
SCHEME_FIVE = "five-primitives"
SCHEME_FIVE_SYMMETRIC = "five-primitives-symmetric"
SCHEME_COMPILED = "compiled"

SCHEMES = (SCHEME_SEQUENTIAL, SCHEME_FIVE, SCHEME_FIVE_SYMMETRIC, SCHEME_COMPILED)

SLOT_NS = 20.0
PULSE_NS = 16.0
BUFFER_NS = 4.0

FIVE_PRIMITIVES_BOUND = 5


@dataclass(frozen=True)
class PulseEvent:
    slot: int
    pulse: Pulse
    mask: tuple[bool, ...]

    def __post_init__(self):
        if not any(self.mask):
            raise ValueError("pulse event must be routed to at least one qubit")


@dataclass
class Schedule:
    n_qubits: int
    scheme: str
    events: list[PulseEvent]
    n_slots: int

    @property
    def n_pulses(self) -> int:
        return len(self.events)

    def masked_pulses(self, qubit: int) -> list[Pulse]:
        """Pulses routed to the given qubit, in slot order."""
        return [ev.pulse for ev in self.events if ev.mask[qubit]]

    def verify(self, combo) -> None:
        """Raise ValueError unless every qubit's masked pulse stream equals
        its target Clifford, checked against the canonical unitaries."""
        combo = _check_combo(combo)
        if len(combo) != self.n_qubits:
            raise ValueError(f"combo has {len(combo)} targets for {self.n_qubits} qubits")
        for q, c in enumerate(combo):
            u = sequence_unitary(self.masked_pulses(q))
            if not equal_up_to_phase(u, CANONICAL_UNITARIES[c - 1]):
                raise ValueError(f"schedule verification failed for qubit {q} (target {c})")

    def to_json_dict(self) -> dict:
        return {
            "n_qubits": self.n_qubits,
            "scheme": self.scheme,
            "n_slots": self.n_slots,
            "slot_ns": {"total": SLOT_NS, "pulse_ns": PULSE_NS, "buffer_ns": BUFFER_NS},
            "events": [
                {
                    "slot": ev.slot,
                    "pulse": ev.pulse.label,
                    "mask": [int(b) for b in ev.mask],
                }
                for ev in self.events
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2) + "\n"

    @classmethod
    def from_json_dict(cls, d: dict) -> "Schedule":
        events = [
            PulseEvent(
                slot=int(ev["slot"]),
                pulse=Pulse.from_label(ev["pulse"]),
                mask=tuple(bool(b) for b in ev["mask"]),
            )
            for ev in d["events"]
        ]
        return cls(
            n_qubits=int(d["n_qubits"]),
            scheme=str(d["scheme"]),
            events=events,
            n_slots=int(d["n_slots"]),
        )


@dataclass(frozen=True)
class NpStats:
    n: int
    mean_np: float
    stderr: float
    mode: str  # "exact" | "sampled"
    samples: int
    distribution: tuple[float, ...]  # P(cost = c) for c = 1..5


def _check_combo(combo) -> tuple[int, ...]:
    combo = tuple(map(int, combo))
    if not combo:
        raise ValueError("combo must contain at least one Clifford id")
    if min(combo) < 1 or max(combo) > 24:
        bad = next(c for c in combo if not 1 <= c <= 24)
        raise ValueError(f"Clifford id must be in 1..24, got {bad}")
    return combo


# --- round plans ----------------------------------------------------------

# Fired-slot bitmasks of the five-primitive rounds by Clifford id (entry 0
# unused), read from the frozen mask tables: normal round, mirrored round.
_FIVE_FIRES = tuple(
    (0, *(sum(b << s for s, b in enumerate(table[c])) for c in range(1, 25)))
    for table in (FIVE_PRIMITIVE_MASKS, FIVE_PRIMITIVE_MASKS_INVERTED)
)


def _emitted(train, fires) -> tuple:
    """The train with None in each slot that no qubit fires."""
    fired = reduce(or_, fires, 0)
    return tuple([p if fired >> s & 1 else None for s, p in enumerate(train)])


def _sequential_plan(combo) -> tuple:
    pulses: list[Pulse] = []
    fires = []
    for c in combo:
        fire = 0
        if c != 1:
            for p in MINIMAL_DECOMPOSITIONS[c]:
                fire |= 1 << len(pulses)
                pulses.append(p)
        fires.append(fire)
    return tuple(pulses), tuple(fires)


def _five_plan(combo, parity: int) -> tuple:
    table = _FIVE_FIRES[parity]
    fires = tuple(table[c] for c in combo)
    return _emitted(FIVE_PRIMITIVES_INVERTED if parity else FIVE_PRIMITIVES, fires), fires


def _optimal_plan(combo) -> tuple:
    """The first covering sequence of minimum length; each qubit fires the
    first subset, in binary counting, whose product is its target (subset
    code k + 1 fires entry k of the sequence's products).  Combinations no
    sequence of four pulses covers take the normal five-primitive round."""
    mask = _target_mask(combo)
    if mask == 0:
        return (), (0,) * len(combo)
    cover = _first_cover(mask)
    if cover is None:
        return _five_plan(combo, 0)
    seq, prods = cover
    fires = tuple(0 if c == 1 else prods.index(c) + 1 for c in combo)
    return _emitted(map(SEARCH_BASIS.__getitem__, seq), fires), fires


def round_plan(combo, scheme: str, parity: int = 0) -> tuple:
    """(pulses, fires) of one round: the pulse of each time slot, None where
    no qubit fires, and one fired-slot bitmask per qubit (bit s: slot s).
    parity alternates only the symmetric five-primitive scheme."""
    combo = _check_combo(combo)
    if scheme == SCHEME_SEQUENTIAL:
        return _sequential_plan(combo)
    if scheme == SCHEME_FIVE:
        return _five_plan(combo, 0)
    if scheme == SCHEME_FIVE_SYMMETRIC:
        return _five_plan(combo, parity % 2)
    if scheme == SCHEME_COMPILED:
        return _optimal_plan(combo)
    raise ValueError(f"unknown scheme {scheme!r}")


def _schedule(scheme: str, plan: tuple) -> Schedule:
    pulses, fires = plan
    events = [PulseEvent(slot=s, pulse=p, mask=tuple([f >> s & 1 == 1 for f in fires]))
              for s, p in enumerate(pulses) if p is not None]
    return Schedule(n_qubits=len(fires), scheme=scheme, events=events, n_slots=len(pulses))


# --- the cover table for the optimal search -------------------------------


@lru_cache(maxsize=1)
def _cover_index():
    """Every train of 1..4 basis pulses with its firing products (from
    decomp.sequence_products), in ascending length and then sequence order,
    and the complements of their target masks as one int64 array."""
    trains = [train for n in range(1, 5) for train in sequence_products(n)]
    return ~np.array([_target_mask(prods) for _, prods in trains], dtype=np.int64), trains


def _target_mask(combo) -> int:
    """Bit (c-1) marks non-identity Clifford c."""
    mask = 0
    for c in combo:
        if c != 1:
            mask |= 1 << (c - 1)
    return mask


def _first_cover(mask: int) -> tuple | None:
    """The first train (sequence, products) that misses none of the targets
    in the mask: the shortest and, among those, the lexicographically first
    cover.  None when no train of four pulses covers the mask."""
    uncovered, trains = _cover_index()
    missed = uncovered & mask  # the targets each train cannot fire
    first = int(missed.argmin())
    return None if missed[first] else trains[first]


@lru_cache(maxsize=1)
def _cost_columns():
    """The cover table's distinct uncovered masks, in order of their first
    train, with that train's length (the shortest with that mask).  A last
    column of 0, which every mask hits, prices the five-primitive round."""
    uncovered, trains = _cover_index()
    first: dict[int, int] = {}
    for complement, (seq, _) in zip(uncovered.tolist(), trains):
        first.setdefault(complement, len(seq))
    return np.array([*first, 0]), np.array([*first.values(), FIVE_PRIMITIVES_BOUND])


# Rows priced per step: a 64 x 376 int64 temporary is 192 KB.
_COST_CHUNK = 64


def _mask_costs(masks) -> np.ndarray:
    """Length of each target mask's first cover: 0 for no target, and 5
    (the five-primitive round) when no train of four pulses covers it."""
    cols, lengths = _cost_columns()
    masks = np.asarray(masks, dtype=np.int64)
    costs = np.empty(len(masks), dtype=np.int64)
    for start in range(0, len(masks), _COST_CHUNK):
        chunk = slice(start, start + _COST_CHUNK)
        # The first column that misses no target (a zero, the least value).
        costs[chunk] = lengths[(masks[chunk, None] & cols).argmin(axis=1)]
    costs[masks == 0] = 0
    return costs


def min_broadcast_pulses(combo) -> int:
    """Minimum number of emitted pulse events for the combination.

    Identity targets fire nothing and cost nothing here; see mean_np_exact
    for the census accounting of the all-identity round.
    """
    return int(_mask_costs([_target_mask(_check_combo(combo))])[0])


def compile_optimal(combo) -> Schedule:
    """Minimum-length broadcast schedule for one Clifford per qubit.

    Ties are broken deterministically: the lexicographically first covering
    pulse sequence wins, and each qubit fires the first matching subsequence
    in binary counting order.  Combinations that cannot be realized in four
    pulses fall back to the five-primitive round, which is then optimal.
    """
    return _schedule(SCHEME_COMPILED, _optimal_plan(_check_combo(combo)))


def compile_scheme(combo, scheme: str, round_parity: int = 0) -> Schedule:
    """The round's schedule in the given scheme, labelled with that scheme;
    round_parity alternates only the symmetric five-primitive scheme."""
    if scheme == SCHEME_COMPILED:
        return compile_optimal(combo)
    return _schedule(scheme, round_plan(combo, scheme, round_parity))


# --- pulse-count census ---------------------------------------------------


# CENSUS_COUNTS[k][c - 1]: how many k-sets of distinct non-identity Cliffords
# have a first cover of c = 1..4 pulses (row 0: the all-identity round,
# charged one slot); any other set costs 5, as no cover mask has over 15
# bits.  Frozen; tests/test_compiler.py rebuilds it from the cover table.
CENSUS_COUNTS: tuple[tuple[int, int, int, int], ...] = (
    (1, 0, 0, 0),
    (6, 13, 4, 0),
    (0, 45, 146, 62),
    (0, 19, 574, 1141),
    (0, 0, 834, 6993),
    (0, 0, 582, 22478),
    (0, 0, 198, 44855),
    (0, 0, 26, 59845),
    (0, 0, 0, 55351),
    (0, 0, 0, 36265),
    (0, 0, 0, 17091),
    (0, 0, 0, 5825),
    (0, 0, 0, 1430),
    (0, 0, 0, 250),
    (0, 0, 0, 30),
    (0, 0, 0, 2),
)


def mean_np_exact(n: int) -> NpStats:
    """Exact mean pulses per n-qubit Clifford combination over all 24^n,
    and the exact distribution of the cost.

    surj(n, k) = sum_i (-1)^(k-i) C(k, i) i^n n-tuples have a given k-set
    of distinct entries, so a k-set of non-identity targets occurs in
    surj(n, k) + surj(n, k + 1) tuples, without and with the identity.
    Exact integers, so runs agree bit for bit.  n is not capped: the
    integers have about n * log2(24) bits (0.1 ms at n <= 10, 0.08-0.13 s
    at n = 100 000; 2-core Intel Xeon VM, Python 3.11.7).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    sizes = len(CENSUS_COUNTS) + 1
    powers = [i**n for i in range(sizes)]
    surj = [sum((-1) ** (k - i) * math.comb(k, i) * powers[i] for i in range(k + 1))
            for k in range(sizes)]
    by_cost = [sum((surj[k] + surj[k + 1]) * row[c] for k, row in enumerate(CENSUS_COUNTS))
               for c in range(4)]
    count = 24**n
    by_cost.append(count - sum(by_cost))
    total = sum(c * tuples for c, tuples in enumerate(by_cost, start=1))
    return NpStats(n=n, mean_np=total / count, stderr=0.0, mode="exact", samples=count,
                   distribution=tuple(tuples / count for tuples in by_cost))


def mean_np_sampled(n: int, samples: int, seed: int) -> NpStats:
    """Monte-Carlo mean pulses per combination from uniform i.i.d. draws.

    Deterministic for a given seed (counter-based Philox generator).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if samples < 100:
        raise ValueError("need at least 100 samples")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    draws = rng.integers(1, 25, size=(samples, n))
    # Each draw c becomes bit c - 1 in place, as in _target_mask, and bit 0
    # (the identity) is cleared from each row's union.
    draws -= 1
    masks = np.bitwise_or.reduce(np.left_shift(1, draws, out=draws), axis=1) & ~1
    # A mask of zero is the all-identity round, charged one slot.
    costs = np.maximum(_mask_costs(masks), 1).astype(np.float64)
    mean = float(costs.mean())
    stderr = float(costs.std(ddof=1) / math.sqrt(samples))
    counts = np.bincount(costs.astype(np.intp), minlength=FIVE_PRIMITIVES_BOUND + 1)[1:]
    return NpStats(n=n, mean_np=mean, stderr=stderr, mode="sampled", samples=samples,
                   distribution=tuple(float(m) / samples for m in counts))
