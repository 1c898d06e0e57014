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
Every scheme plans its rounds in one batched call (`round_plans`): for a
(k, n) array of Clifford ids it returns each round's slot codes (0 where no
qubit fires, else 1 + the pulse's place in `Pulse`; see `SLOT_PULSES`),
each qubit's fired slots as booleans and each round's slot count, and
`Schedule`s are built from one-row calls, so a round has one
representation.  Sequential rounds are laid out from the minimal
decompositions.  Every other scheme plays one fixed train per round: a
column of the scheme's table (`_column_table`, chosen by `_columns`),
which the simulator reads by column and fired subset.  The single-qubit
`minimal` set of the benchmarks (1.875 pulses per Clifford) has one
column per Clifford, its minimal decomposition with the identity as its
one I pulse; it is in `RB_SCHEMES`, not among the broadcast `SCHEMES`.

Optimal search
--------------
One cover table answers every shortest-cover question.  It is read from
`decomp.train_products`, every pulse train of 1..4 basis pulses in
ascending length and then sequence order, with the Clifford fired by each
subset of the train.  Its columns are the complements of the trains'
target masks, distinct, in order of their first train and without those
an earlier one dominates (149 of 375), each with its train's length and
slot codes and, for each Clifford, the train's first subset in binary
counting whose product it is.  One lookup (`_first_columns`) finds a
mask's first column that misses no target, the column of its first
cover (the shortest and then lexicographically first train that fires
every target): the lowest bit set in both the row of its low 12 bits
and the row of its high 12 bits of two bitset tables (`_half_tables`).
A first column of -1 stands for the all-identity round (only mask 0
misses nothing of it), and a last column of 0 for the five-primitive
round, which realizes any combination, so a combination costs at most
5.  Cost queries (`min_broadcast_pulses`, the sampled census) read the
column's length, plan queries its slot codes and firing subsets.  A
cost depends only on the set of distinct non-identity targets, so the
exact census reads `CENSUS_COUNTS`, the number of sets of each size at
each cost, and weights each size by surjection counts instead of
enumerating the 24^n combinations.

Verification
------------
`Schedule.verify` checks that every mask has one entry per qubit and that
the event slots increase and stay below n_slots.  Qubits with equal targets
and mask columns share a verdict: the column's pulse tuple names its
Clifford in the bounded memo `sequence_clifford` (the unitary product
matched up to phase, once per tuple; about 200 tuples over any number of
compiled 8-qubit combinations), and a failing column names its first qubit.
`Schedule.to_json` fills json.dumps(indent=2)'s layout, one template per event.

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
import operator
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress

import numpy as np

from .clifford import (
    FIVE_PRIMITIVE_MASKS,
    FIVE_PRIMITIVE_MASKS_INVERTED,
    FIVE_PRIMITIVES,
    FIVE_PRIMITIVES_INVERTED,
    MINIMAL_DECOMPOSITIONS,
    Pulse,
    _check_int,
    sequence_clifford,
)
from .decomp import MAX_PULSES, SEARCH_BASIS, train_products

SCHEME_SEQUENTIAL = "sequential"
SCHEME_FIVE = "five-primitives"
SCHEME_FIVE_SYMMETRIC = "five-primitives-symmetric"
SCHEME_COMPILED = "compiled"

SCHEMES = (SCHEME_SEQUENTIAL, SCHEME_FIVE, SCHEME_FIVE_SYMMETRIC, SCHEME_COMPILED)
SCHEME_MINIMAL = "minimal"
RB_SCHEMES = (SCHEME_MINIMAL, *SCHEMES)
_COLUMN_SCHEMES = (SCHEME_MINIMAL, SCHEME_FIVE, SCHEME_FIVE_SYMMETRIC, SCHEME_COMPILED)

SLOT_NS = 20.0
PULSE_NS = 16.0
BUFFER_NS = 4.0

FIVE_PRIMITIVES_BOUND = 5

# Schedule.to_json's layout, as json.dumps(indent=2) writes it.
_SCHEDULE_JSON = ('{{\n  "n_qubits": {},\n  "scheme": {},\n  "n_slots": {},\n  "slot_ns": {{\n'
                  '    "total": %r,\n    "pulse_ns": %r,\n    "buffer_ns": %r\n  }},\n'
                  '  "events": {}\n}}\n' % (SLOT_NS, PULSE_NS, BUFFER_NS))
_EVENT_JSON = ('    {{\n      "slot": {},\n      "pulse": "{}",\n      "mask": [\n        {}\n'
               '      ]\n    }}')
_MASK_JSON = ",\n        "


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
        """Raise ValueError, naming the first bad event or qubit, unless every
        mask has one entry per qubit, the event slots increase and stay below
        n_slots, and each qubit's fired pulses give its target up to phase
        in the memo `sequence_clifford` (see the module docstring)."""
        combo = _check_combo(combo)
        n = self.n_qubits
        if len(combo) != n:
            raise ValueError(f"combo has {len(combo)} targets for {n} qubits")
        last = -1
        for i, ev in enumerate(self.events):
            if len(ev.mask) != n or not last < ev.slot < self.n_slots:
                raise ValueError(f"event {i} (slot {ev.slot}, {len(ev.mask)} mask entries) needs "
                                 f"{n} mask entries and a slot in {last + 1}..{self.n_slots - 1}")
            last = ev.slot
        pulses = [ev.pulse for ev in self.events]
        columns = list(zip(combo, *(ev.mask for ev in self.events)))
        for c, *fired in dict.fromkeys(columns):
            if sequence_clifford(tuple(compress(pulses, fired))) != c:
                q = columns.index((c, *fired))
                raise ValueError(f"schedule verification failed for qubit {q} (target {c})")

    def to_json(self) -> str:
        """The schedule as json.dumps(indent=2) writes it, plus a newline,
        filled in from one template per event."""
        events = ",\n".join(
            _EVENT_JSON.format(ev.slot, ev.pulse.label,
                               _MASK_JSON.join(["1" if b else "0" for b in ev.mask]))
            for ev in self.events)
        return _SCHEDULE_JSON.format(self.n_qubits, json.dumps(self.scheme), self.n_slots,
                                     f"[\n{events}\n  ]" if events else "[]")

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
    try:
        combo = tuple(map(operator.index, combo))  # ints, numpy ints; no floats
    except TypeError:
        raise ValueError("Clifford ids must be integers") from None
    if not combo:
        raise ValueError("combo must contain at least one Clifford id")
    if min(combo) < 1 or max(combo) > 24:
        bad = next(c for c in combo if not 1 <= c <= 24)
        raise ValueError(f"Clifford id must be in 1..24, got {bad}")
    return combo


# --- round plans ----------------------------------------------------------

# Slot codes: 0 for an empty slot, else 1 + the pulse's place in Pulse.
SLOT_PULSES: tuple[Pulse | None, ...] = (None, *Pulse)


def _slot_codes(pulses) -> list[int]:
    return [SLOT_PULSES.index(p) for p in pulses]


# The five-primitive rounds as one column table, (lengths, codes, fired),
# read-only: column parity * 32 + u is the normal (parity 0) or mirrored
# round in which the slots of the bits of u fire, all five slots long (a
# slot no qubit fires still takes its time), and fired[col, c] holds the
# slots of u that Clifford id c fires (none for id 0), by the mask tables.
_FIVE_BITS = np.array([[sum(b << s for s, b in enumerate(table.get(c, ()))) for c in range(25)]
                       for table in (FIVE_PRIMITIVE_MASKS, FIVE_PRIMITIVE_MASKS_INVERTED)])
_FIVE_COLUMNS = (
    np.full(64, FIVE_PRIMITIVES_BOUND),
    np.repeat([_slot_codes(FIVE_PRIMITIVES), _slot_codes(FIVE_PRIMITIVES_INVERTED)], 32, axis=0)
    * (np.arange(64)[:, None] >> np.arange(FIVE_PRIMITIVES_BOUND) & 1),
    (np.repeat(_FIVE_BITS, 32, axis=0) & np.arange(64)[:, None])[..., None]
    >> np.arange(FIVE_PRIMITIVES_BOUND) & 1 > 0)

# The minimal rounds as a column table: column c is Clifford c's minimal
# decomposition as slot codes, padded with empty slots (column 0 unused),
# and only id c fires it, in every slot.  The identity's is its one I pulse.
_MINIMAL_SLOT_CODES = np.zeros((25, max(map(len, MINIMAL_DECOMPOSITIONS.values()))),
                               dtype=np.int64)
for _c, _pulses in MINIMAL_DECOMPOSITIONS.items():
    _MINIMAL_SLOT_CODES[_c, :len(_pulses)] = _slot_codes(_pulses)
_MINIMAL_COLUMNS = (np.count_nonzero(_MINIMAL_SLOT_CODES, axis=1), _MINIMAL_SLOT_CODES,
                    np.eye(25, dtype=bool)[..., None] & (_MINIMAL_SLOT_CODES > 0)[:, None])
for _array in (*_FIVE_COLUMNS, *_MINIMAL_COLUMNS):
    _array.flags.writeable = False


def _sequential_plans(ids) -> tuple:
    """Each qubit's minimal decomposition in turn, none for the identity."""
    lengths = _MINIMAL_COLUMNS[0][ids] * (ids > 1)
    ends = np.cumsum(lengths, axis=1)
    n_slots = ends[:, -1]
    codes = np.zeros((len(ids), n_slots.max(initial=0)), dtype=np.int64)
    fired = np.zeros(ids.shape + codes.shape[1:], dtype=bool)
    r, q, j = np.nonzero(np.arange(_MINIMAL_SLOT_CODES.shape[1]) < lengths[..., None])
    slot = ends[r, q] - lengths[r, q] + j
    codes[r, slot] = _MINIMAL_SLOT_CODES[ids[r, q], j]
    fired[r, q, slot] = True
    return codes, fired, n_slots


def _column_table(scheme: str) -> tuple:
    """(lengths, codes, fired) of the columns of one of _COLUMN_SCHEMES,
    which play one fixed train per round, read-only: each column's slot
    count and codes, and fired[col, c], the slots Clifford id c fires."""
    return (_cover_table()[1:] if scheme == SCHEME_COMPILED
            else _MINIMAL_COLUMNS if scheme == SCHEME_MINIMAL else _FIVE_COLUMNS)


def _columns(ids: np.ndarray, scheme: str, parity=0) -> np.ndarray:
    """The _column_table column of each round of checked ids: the one id of
    a minimal round, the first cover of a compiled round, else the round's
    parity and the union of the slots its qubits fire.  An empty round takes
    column 0 at either parity: its slots are empty whichever round it is, so
    it gives each model one channel, not one per parity."""
    if scheme == SCHEME_MINIMAL:
        if ids.shape[1] != 1:
            raise ValueError(f"the minimal scheme plans one qubit, not {ids.shape[1]}")
        return ids[:, 0]
    if scheme == SCHEME_COMPILED:
        return _first_columns(_target_masks(ids))
    symmetric = scheme == SCHEME_FIVE_SYMMETRIC
    if symmetric and np.asarray(parity).dtype.kind not in "biu":
        raise ValueError(f"parity must be an integer or integers, got {parity!r}")
    parity = np.broadcast_to(np.asarray(parity) % 2 if symmetric else 0, len(ids))
    union = np.bitwise_or.reduce(_FIVE_BITS[parity[:, None], ids], axis=1)
    return np.where(union, 32 * parity + union, 0)


def round_plans(ids, scheme: str, parity=0) -> tuple:
    """(codes, fired, n_slots) of k rounds given as a (k, n) array of
    integer Clifford ids: the code of each time slot (k, S), 0 where no
    qubit fires (see SLOT_PULSES), each qubit's fired slots (k, n, S) and
    each round's slot count (k,); slots past a round's count are padding,
    empty and unfired.  scheme is one of RB_SCHEMES; the minimal scheme
    plans one qubit, whose identity is one fired I slot.  parity,
    one int or one per round, alternates only the symmetric five-primitive
    scheme."""
    ids = np.asarray(ids)
    if ids.ndim != 2 or ids.shape[1] == 0:
        raise ValueError("ids must be a (rounds, qubits) array with at least one qubit")
    if ids.size and not (ids.dtype.kind in "iu" and ids.min() >= 1 and ids.max() <= 24):
        raise ValueError("Clifford ids must be integers in 1..24")
    return _plans(ids.astype(np.int64, copy=False), scheme, parity)


def _plans(ids: np.ndarray, scheme: str, parity=0) -> tuple:
    """round_plans of checked ids."""
    if scheme == SCHEME_SEQUENTIAL:
        return _sequential_plans(ids)
    if scheme not in _COLUMN_SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    lengths, codes, fired = _column_table(scheme)
    columns = _columns(ids, scheme, parity)
    return codes[columns], fired[columns[:, None], ids], lengths[columns]


def _schedule(combo, scheme: str, parity: int = 0) -> Schedule:
    """The one-row round_plans as a schedule: an event for each slot that
    some qubit fires, routed to the qubits that fire it."""
    combo = _check_combo(combo)
    codes, fired, n_slots = _plans(np.array([combo]), scheme, parity)
    masks = fired[0].T.tolist()
    events = [PulseEvent(slot=s, pulse=SLOT_PULSES[c], mask=tuple(masks[s]))
              for s, c in enumerate(codes[0, :n_slots[0]].tolist()) if c]
    return Schedule(n_qubits=len(combo), scheme=scheme, events=events, n_slots=int(n_slots[0]))


# --- the cover table for the optimal search --------------------------------

# A target mask has bit c - 1 for each non-identity Clifford id c; id 0 is padding.
_TARGET_BITS = np.array([0, 0, *(1 << (c - 1) for c in range(2, 25))])


def _target_masks(ids) -> np.ndarray:
    """The target mask of each row of a (k, n) array of Clifford ids."""
    return np.bitwise_or.reduce(_TARGET_BITS[ids], axis=1)


@lru_cache(maxsize=1)
def _cover_table():
    """(columns, lengths, codes, fired), read-only, of the cover columns:
    the distinct uncovered masks of the trains of decomp.train_products
    (each the complement of its target mask), in order of their first
    train, with that train's length, its slot codes, padded with empty
    slots, and fired[col, c], the slots of the train's first subset, in
    binary counting, whose product is Clifford c (none for the identity
    and where no subset fires c).  A first column of -1 misses a target of
    every mask but 0: the all-identity round, of no slot.  A last column
    of 0, which every mask hits, is the normal five-primitive round.  A
    mask's first column fires every slot, or the train without it would be
    a shorter cover (X-180, Y-180 being X180, Y180 up to phase, for the
    five-primitive round).

    A column whose targets an earlier column all covers (its uncovered mask
    a superset of the earlier one's) is never the first that misses
    nothing, so it is left out: 149 of the 375 masks stay."""
    trains, prods = train_products()
    first: dict[int, int] = {}
    for t, complement in enumerate((~_target_masks(prods)).tolist()):
        first.setdefault(complement, t)
    kept: dict[int, int] = {}  # uncovered mask -> train
    for complement, t in first.items():
        if all(earlier & ~complement for earlier in kept):
            kept[complement] = t
    rows = np.array(list(kept.values()))
    codes = np.zeros((len(rows) + 2, FIVE_PRIMITIVES_BOUND), dtype=np.int64)
    codes[1:-1, :MAX_PULSES] = np.array([*_slot_codes(SEARCH_BASIS), 0])[trains[rows]]
    codes[-1] = _FIVE_COLUMNS[1][31]
    hit = prods[rows, :, None] == np.arange(2, 25)  # (train, subset code - 1, Clifford - 2)
    subset = np.where(hit.any(axis=1), hit.argmax(axis=1) + 1, 0)  # the first, or none
    fired = np.zeros((len(codes), 25, FIVE_PRIMITIVES_BOUND), dtype=bool)
    fired[1:-1, 2:] = subset[..., None] >> np.arange(FIVE_PRIMITIVES_BOUND) & 1
    fired[-1] = _FIVE_COLUMNS[2][31]
    table = np.array([-1, *kept, 0]), np.count_nonzero(codes, axis=1), codes, fired
    for array in table:
        array.setflags(write=False)
    return table


_LOOKUP_BLOCK = 1 << 16  # masks per lookup step: about 3 MB of temporaries


@lru_cache(maxsize=1)
def _half_tables() -> tuple:
    """(halves, first_bit), read-only.  halves[h, v] is the bitset, packed
    little-endian into 19 bytes, of the _cover_table columns with no bit of
    v among their bits 12h..12h + 11: row 0 holds every column, and row
    v | 1 << b, for v < 1 << b, is row v less the columns with bit 12h + b.
    first_bit[i, x] is 8 * i plus the lowest set bit of the byte x."""
    columns = _cover_table()[0][:, None]
    no_bit = np.packbits((columns >> np.arange(24) & 1) == 0, axis=0, bitorder="little").T
    halves = np.packbits(np.ones((2, 1, len(columns)), dtype=bool), axis=2, bitorder="little")
    for b in range(12):
        halves = np.concatenate([halves, halves & no_bit[b::12, None]], axis=1)
    lowest = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1, bitorder="little")
    first_bit = (8 * np.arange(halves.shape[2])[:, None] + lowest.argmax(axis=1)).astype(np.uint8)
    halves.flags.writeable = first_bit.flags.writeable = False
    return halves, first_bit


def _first_columns(masks) -> np.ndarray:
    """Index of each target mask's first column of _cover_table that
    misses no target: the column of its first cover, the first column for
    mask 0, or the last column when no train of four pulses covers it.
    It is the lowest bit set in the rows of both 12-bit halves of the mask
    (_half_tables); the last column, 0, is set in every row."""
    (low, high), first_bit = _half_tables()
    masks = np.asarray(masks, dtype=np.int64)
    first = np.empty(len(masks), dtype=np.intp)
    for s in range(0, len(masks), _LOOKUP_BLOCK):
        block = masks[s:s + _LOOKUP_BLOCK]
        covers = low.take(block & 0xFFF, axis=0)
        covers &= high.take(block >> 12, axis=0)
        byte = (covers != 0).argmax(axis=1)
        first[s:s + _LOOKUP_BLOCK] = first_bit[byte, covers[np.arange(len(block)), byte]]
    return first


def _mask_costs(masks) -> np.ndarray:
    """Length of each target mask's first cover: 0 for no target, and 5
    (the five-primitive round) when no train of four pulses covers it."""
    return _cover_table()[1][_first_columns(masks)]


def min_broadcast_pulses(combo) -> int:
    """Minimum number of emitted pulse events for the combination.

    Identity targets fire nothing and cost nothing here; see mean_np_exact
    for the census accounting of the all-identity round.
    """
    return int(_mask_costs(_target_masks(np.array([_check_combo(combo)])))[0])


def compile_optimal(combo) -> Schedule:
    """Minimum-length broadcast schedule for one Clifford per qubit.

    Ties are broken deterministically: the lexicographically first covering
    pulse sequence wins, and each qubit fires the first matching subsequence
    in binary counting order.  Combinations that cannot be realized in four
    pulses fall back to the five-primitive round, which is then optimal.
    """
    return _schedule(combo, SCHEME_COMPILED)


def compile_scheme(combo, scheme: str, round_parity: int = 0) -> Schedule:
    """The round's schedule in one of the broadcast SCHEMES, labelled with
    that scheme; round_parity alternates only the symmetric five-primitive
    scheme."""
    if scheme not in SCHEMES:
        raise ValueError(f"unknown broadcast scheme {scheme!r}")
    if scheme == SCHEME_COMPILED:
        return compile_optimal(combo)
    return _schedule(combo, scheme, round_parity)


# --- pulse-count census ---------------------------------------------------


# CENSUS_COUNTS[k][c - 1]: how many k-sets of distinct non-identity Cliffords
# have a first cover of c = 1..4 pulses (row 0: the all-identity round,
# charged one slot); any other set costs 5, as no train fires over 15
# Cliffords.  Frozen; tests/test_compiler.py rebuilds it from the trains.
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
    n = _check_int(n, "n", 1)  # a Python int: a numpy n would overflow 24**n
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
    _check_int(n, "n", 1)
    if _check_int(samples, "samples") < 100:
        raise ValueError("need at least 100 samples")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(_check_int(seed, "seed", 0))))
    draws = rng.integers(1, 25, size=(samples, n))
    # The rows' _target_masks without a copy: each draw c becomes bit c - 1
    # in place, and bit 0 (the identity) is cleared from each row's union.
    draws -= 1
    masks = np.bitwise_or.reduce(np.left_shift(1, draws, out=draws), axis=1) & ~1
    # A mask of zero is the all-identity round, charged one slot.
    costs = np.maximum(_mask_costs(masks), 1).astype(np.float64)
    mean = float(costs.mean())
    stderr = float(costs.std(ddof=1) / math.sqrt(samples))
    counts = np.bincount(costs.astype(np.intp), minlength=FIVE_PRIMITIVES_BOUND + 1)[1:]
    return NpStats(n=n, mean_np=mean, stderr=stderr, mode="sampled", samples=samples,
                   distribution=tuple(float(m) / samples for m in counts))
