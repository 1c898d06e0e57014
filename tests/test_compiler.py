import hashlib
import itertools
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliffcast import compiler
from cliffcast.clifford import (
    CANONICAL_UNITARIES,
    MINIMAL_DECOMPOSITIONS,
    Pulse,
    sequence_clifford,
    sequence_unitary,
)
from cliffcast.compiler import (
    CENSUS_COUNTS,
    SCHEME_COMPILED,
    SCHEME_FIVE,
    SCHEME_FIVE_SYMMETRIC,
    SCHEME_MINIMAL,
    SCHEME_SEQUENTIAL,
    SCHEMES,
    Schedule,
    compile_optimal,
    compile_scheme,
    mean_np_exact,
    mean_np_sampled,
    min_broadcast_pulses,
    SLOT_PULSES,
    round_plans,
    _LOOKUP_BLOCK,
    _cover_table,
    _first_columns,
    _half_tables,
    _mask_costs,
)
from cliffcast.decomp import train_products
from oracles import (
    _census_cost_counts,
    brute_force_min_pulses,
    cost_distribution,
    equal_up_to_phase,
    exact_census,
    first_columns_scan,
    first_cover,
    first_firing,
    plan_round,
    schedule_json_dict,
    verify_schedule,
)

I2 = np.eye(2)


def assert_schedule_correct(schedule: Schedule, combo):
    """Every qubit's masked pulse stream must compose to its Clifford."""
    for q, c in enumerate(combo):
        u = sequence_unitary(schedule.masked_pulses(q))
        assert equal_up_to_phase(u, CANONICAL_UNITARIES[c - 1]), (combo, q)


def test_sequential_example():
    sched = compile_scheme((2, 13), SCHEME_SEQUENTIAL)
    assert sched.n_pulses == 4
    labels = [(e.pulse.label, e.mask) for e in sched.events]
    assert labels == [
        ("Y90", (True, False)),
        ("X90", (True, False)),
        ("Y90", (False, True)),
        ("X180", (False, True)),
    ]
    assert_schedule_correct(sched, (2, 13))


def test_sequential_identities_emit_nothing():
    sched = compile_scheme((1, 1), SCHEME_SEQUENTIAL)
    assert sched.n_pulses == 0
    assert sched.n_slots == 0


def test_five_primitives_identity_round():
    sched = compile_scheme((1,), SCHEME_FIVE)
    assert sched.n_pulses == 0
    assert sched.n_slots == 5


def test_five_primitives_mask_example():
    sched = compile_scheme((18,), SCHEME_FIVE)
    assert sched.n_slots == 5
    fired = [(e.slot, e.pulse.label) for e in sched.events]
    assert fired == [(0, "X90"), (1, "Y90"), (2, "X90")]
    assert_schedule_correct(sched, (18,))


def test_five_primitives_inverted_round():
    sched = compile_scheme((18,), SCHEME_FIVE_SYMMETRIC, 1)
    assert sched.n_slots == 5
    assert_schedule_correct(sched, (18,))


def test_symmetric_full_double_round_is_identity():
    normal = compile_scheme((21,), SCHEME_FIVE)
    inverted = compile_scheme((21,), SCHEME_FIVE_SYMMETRIC, 1)
    # all masks on for Clifford 21 in the normal round; firing both rounds
    # fully must cancel
    pulses = [e.pulse for e in normal.events] + [e.pulse for e in inverted.events]
    u = sequence_unitary(pulses)
    # the two rounds each implement C21; together they give C21 twice
    assert equal_up_to_phase(
        u, CANONICAL_UNITARIES[20] @ CANONICAL_UNITARIES[20]
    )


def test_compiled_pair_example_is_three_events():
    sched = compile_optimal((2, 13))
    assert sched.n_pulses == 3
    assert_schedule_correct(sched, (2, 13))


def test_compiled_identity_combos_are_empty():
    for n in (1, 2, 4):
        sched = compile_optimal((1,) * n)
        assert sched.n_pulses == 0


def test_compiled_equal_targets_share_everything():
    for c in range(2, 25):
        sched = compile_optimal((c, c))
        assert sched.n_pulses == min_broadcast_pulses((c,))
        for ev in sched.events:
            assert ev.mask == (True, True)
        assert_schedule_correct(sched, (c, c))


def test_compiled_correctness_random_combos():
    rng = np.random.default_rng(99)
    for _ in range(300):
        n = int(rng.integers(1, 5))
        combo = tuple(int(c) for c in rng.integers(1, 25, size=n))
        sched = compile_optimal(combo)
        assert_schedule_correct(sched, combo)
        assert sched.n_pulses <= 5


def test_all_schemes_correct_random_combos():
    rng = np.random.default_rng(7)
    schemes = (SCHEME_SEQUENTIAL, SCHEME_FIVE, SCHEME_FIVE_SYMMETRIC, SCHEME_COMPILED)
    for _ in range(100):
        n = int(rng.integers(1, 5))
        combo = tuple(int(c) for c in rng.integers(1, 25, size=n))
        for scheme in schemes:
            parity = int(rng.integers(0, 2))
            sched = compile_scheme(combo, scheme, round_parity=parity)
            assert_schedule_correct(sched, combo)


def test_compiled_matches_brute_force_on_pairs():
    rng = np.random.default_rng(1234)
    for _ in range(200):
        combo = tuple(int(c) for c in rng.integers(1, 25, size=2))
        assert compile_optimal(combo).n_pulses == brute_force_min_pulses(combo), combo


def test_compiled_never_beaten_by_other_schemes():
    rng = np.random.default_rng(5)
    for _ in range(100):
        n = int(rng.integers(1, 5))
        combo = tuple(int(c) for c in rng.integers(1, 25, size=n))
        n_opt = compile_optimal(combo).n_pulses
        assert n_opt <= compile_scheme(combo, SCHEME_SEQUENTIAL).n_pulses
        assert n_opt <= 5


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 24), min_size=2, max_size=5), st.randoms())
def test_subset_monotonicity(combo, rnd):
    """Dropping a qubit can never increase the minimum pulse count."""
    full = min_broadcast_pulses(combo)
    drop = rnd.randrange(len(combo))
    sub = combo[:drop] + combo[drop + 1:]
    assert min_broadcast_pulses(sub) <= full if sub else True


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 24), min_size=1, max_size=5), st.randoms())
def test_permutation_invariance(combo, rnd):
    shuffled = list(combo)
    rnd.shuffle(shuffled)
    assert min_broadcast_pulses(combo) == min_broadcast_pulses(shuffled)


def test_mean_np_exact_small_n():
    assert mean_np_exact(1).mean_np == pytest.approx(1.875, abs=1e-12)
    assert mean_np_exact(2).mean_np == pytest.approx(2.925347, abs=5e-7)
    assert mean_np_exact(3).mean_np == pytest.approx(3.521050, abs=5e-7)


def test_mean_np_exact_rejects_zero_qubits():
    with pytest.raises(ValueError):
        mean_np_exact(0)


@pytest.mark.parametrize("n", [*range(1, 11), 23, 50])
def test_mean_np_exact_matches_oracle(n):
    assert mean_np_exact(n).mean_np == float(exact_census(n))


def _length_tiers() -> dict[int, list[int]]:
    """The trains' target masks (decomp.train_products, the non-identity
    Cliffords each train fires) grouped by train length and pruned to
    the dominance-maximal ones: a set's cost is the shortest length whose
    tier holds a superset of it."""
    trains, prods = train_products()
    masks = {n: set() for n in range(1, 5)}
    for seq, row in zip(trains.tolist(), prods.tolist()):
        masks[4 - seq.count(-1)].add(sum({1 << (c - 1) for c in row if c > 1}))
    tiers = {n: [] for n in masks}
    for n, found in masks.items():
        for bm in sorted(found, key=lambda b: -bin(b).count("1")):
            if not any(bm & k == bm for k in tiers[n]):
                tiers[n].append(bm)
    return tiers


def test_census_counts_rebuilt_from_tiers():
    """The frozen table is the submask closure of the cover table's length
    tiers, each set counted at the shortest length whose tier covers it,
    and equals the oracle's counts over all 2^23 target sets."""
    tiers = _length_tiers()
    counts = [[0] * 4 for _ in range(16)]
    counts[0][0] = 1  # the all-identity round is charged one slot
    seen = set()
    for length in range(1, 5):
        for tier_mask in tiers[length]:
            sub = tier_mask
            while sub:
                if sub not in seen:
                    seen.add(sub)
                    counts[bin(sub).count("1")][length - 1] += 1
                sub = (sub - 1) & tier_mask
    assert len(seen) == 254_065
    assert tuple(map(tuple, counts)) == CENSUS_COUNTS
    oracle = _census_cost_counts()
    assert tuple(row[1:5] for row in oracle[:16]) == CENSUS_COUNTS
    assert all(row[1:5] == (0, 0, 0, 0) for row in oracle[16:])


@pytest.mark.parametrize("n", [1, 4, 8, 23])
def test_mean_np_exact_distribution_matches_oracle(n):
    st_ = mean_np_exact(n)
    assert st_.distribution == tuple(float(p) for p in cost_distribution(n))


def test_mean_np_sampled_distribution_is_the_cost_histogram():
    st_ = mean_np_sampled(3, 2_000, seed=5)
    counts = [round(p * st_.samples) for p in st_.distribution]
    assert st_.distribution == tuple(m / st_.samples for m in counts)
    assert len(counts) == 5 and sum(counts) == st_.samples
    mean = sum(c * n for c, n in enumerate(counts, start=1)) / st_.samples
    assert mean == pytest.approx(st_.mean_np, abs=1e-12)


def test_mean_np_exact_deterministic():
    a = mean_np_exact(2)
    b = mean_np_exact(2)
    assert a.mean_np == b.mean_np
    assert a.stderr == 0.0
    assert a.mode == "exact"


def test_mean_np_sampled_matches_exact_at_n1():
    stats = mean_np_sampled(1, 20_000, seed=3)
    assert abs(stats.mean_np - 1.875) <= 3 * stats.stderr
    assert stats.mode == "sampled"


# SHA-256 over repr((mean_np, stderr, distribution)) of
# mean_np_sampled(n, 1_000, seed=2015 + n) for n = 1..10, recorded before
# the cost query read the cover table.
SAMPLED_CENSUS_DIGEST = "55369538e0caf90b7c644ca9edf29b8ee21aca11576159c2ff34ef1f330f8494"


def test_mean_np_sampled_outputs_frozen():
    h = hashlib.sha256()
    for n in range(1, 11):
        st_ = mean_np_sampled(n, 1_000, seed=2015 + n)
        h.update(repr((st_.mean_np, st_.stderr, st_.distribution)).encode())
    assert h.hexdigest() == SAMPLED_CENSUS_DIGEST


def test_min_broadcast_pulses_is_the_compiled_slot_count():
    """The cost query and the compiled schedule read the same first cover:
    all 600 one- and two-qubit combos and 2,000 eight-qubit Philox draws."""
    combos = [(a,) for a in range(1, 25)] + list(itertools.product(range(1, 25), repeat=2))
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(2016)))
    combos += [tuple(r) for r in rng.integers(1, 25, size=(2_000, 8)).tolist()]
    for combo in combos:
        assert min_broadcast_pulses(combo) == compile_optimal(combo).n_slots, combo


def _first_cover_cost(mask: int) -> int:
    """The cost of one mask from one first-cover query: 0 for no target,
    5 when no train of four pulses covers it."""
    if mask == 0:
        return 0
    cover = first_cover(mask)
    return 5 if cover is None else len(cover[0])


def test_batched_cost_query_is_the_first_cover_length():
    """_mask_costs prices a batch as one first-cover query per mask would:
    all 2,048 sets of at most three non-identity targets, 5,000 ten-qubit
    Philox draws, and batches on each side of the 64-row edges the column
    scan once chunked at and of the half-mask lookup's 65,536-mask step."""
    small = [sum(1 << b for b in bits)
             for k in range(4) for bits in itertools.combinations(range(1, 24), k)]
    assert len(small) == 2_048
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(2017)))
    drawn = [sum({1 << (c - 1) for c in row if c != 1})
             for row in rng.integers(1, 25, size=(5_000, 10)).tolist()]
    pool = [m for pair in zip(small, drawn) for m in pair]  # mask 0 first
    cost = {m: _first_cover_cost(m) for m in set(small + drawn)}
    sizes = (0, 1, 63, 64, 65, 129, _LOOKUP_BLOCK - 1, _LOOKUP_BLOCK, _LOOKUP_BLOCK + 1)
    batches = [small, drawn] + [list(itertools.islice(itertools.cycle(pool), size))
                                for size in sizes]
    for masks in batches:
        costs = _mask_costs(np.array(masks, dtype=np.int64))
        assert costs.dtype == np.int64
        assert costs.tolist() == [cost[m] for m in masks], len(masks)
    assert {cost[m] for m in pool[:129]} == {0, 1, 2, 3, 4, 5}
    assert len(_cover_table()[0]) == 2 + 149  # the undominated masks and two sentinels


def test_half_mask_lookup_is_the_column_scan_on_every_mask():
    """_first_columns equals the oracle's argmin over all 151 cover columns
    on every one of the 2^23 target masks (bit 0, the identity, clear),
    checked 2^20 masks at a time; its tables are read-only and hold under
    200 KB."""
    columns = _cover_table()[0]
    for start in range(0, 1 << 24, 1 << 21):
        masks = np.arange(start, start + (1 << 21), 2, dtype=np.int64)
        assert np.array_equal(_first_columns(masks), first_columns_scan(masks, columns)), start
    tables = _half_tables()
    assert not any(table.flags.writeable for table in tables)
    assert tables[0].shape == (2, 4_096, 19) and tables[0].dtype == np.uint8
    assert sum(table.nbytes for table in tables) < 200_000


def test_sampled_census_peak_memory_is_not_above_the_column_scan():
    """A million-draw sampled census allocates at its peak (tracemalloc) no
    more with the half-mask lookup than with the 64-mask column scan it
    replaced, and gives the same statistics."""
    def peak():
        _half_tables()  # the cached tables are not part of the query's peak
        tracemalloc.start()
        try:
            return mean_np_sampled(10, 10**6, 1), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    lookup, lookup_peak = peak()
    columns = _cover_table()[0]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(compiler, "_first_columns", lambda m: first_columns_scan(m, columns))
        scan, scan_peak = peak()
    assert lookup == scan
    assert lookup_peak <= scan_peak, (lookup_peak, scan_peak)


def test_cover_columns_are_their_first_covers():
    """Both cached tables are read-only, and each cover column but the two
    sentinels is the uncovered mask of the oracle's first cover of the
    targets it covers, with that train's length, slot codes and, for each
    Clifford, first firing subset in binary counting."""
    columns, lengths, codes, fired = table = _cover_table()
    for array in (*train_products(), *table):
        assert not array.flags.writeable
    assert columns[0] == -1 and columns[-1] == 0 and lengths[[0, -1]].tolist() == [0, 5]
    assert not codes[0].any() and not fired[0].any() and not fired[:, 1].any()
    every = sum(1 << (c - 1) for c in range(2, 25))
    for col, column in enumerate(columns[1:-1].tolist(), start=1):
        train, cliffs = first_cover(~column & every)
        assert column == ~sum({1 << (c - 1) for c in cliffs if c != 1}), col
        assert lengths[col] == len(train)
        assert [SLOT_PULSES[c] for c in codes[col]] == [*train, *[None] * (5 - len(train))]
        for c in range(2, 25):
            code = cliffs.index(c) + 1 if c in cliffs else 0
            assert fired[col, c].tolist() == [bool(code >> s & 1) for s in range(5)], (col, c)


def test_mean_np_sampled_deterministic():
    a = mean_np_sampled(4, 5_000, seed=11)
    b = mean_np_sampled(4, 5_000, seed=11)
    assert a.mean_np == b.mean_np and a.stderr == b.stderr


def test_mean_np_sampled_guards():
    with pytest.raises(ValueError):
        mean_np_sampled(2, 10, seed=0)


@pytest.mark.parametrize("args, name", [
    ((2.5, 1_000, 0), "n"), ((2, 1_000.0, 0), "samples"), ((2, 1_000, 1.5), "seed"),
])
def test_mean_np_sampled_rejects_non_integer_counts(args, name):
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        mean_np_sampled(*args)
    got = mean_np_sampled(np.int64(2), np.int32(1_000), np.uint8(3))
    assert got == mean_np_sampled(2, 1_000, 3)


def test_mean_np_exact_rejects_a_non_integer_n():
    """A float n is no census (before: 3.2669 for 2.5 qubits), and a numpy
    integer n counts in Python ints (before: 24**n overflowed to -inf)."""
    for n in (2.5, 3.0, "3"):
        with pytest.raises(ValueError, match="^n must be an integer"):
            mean_np_exact(n)
    for n in (np.int64(30), np.uint8(3)):
        assert mean_np_exact(n) == mean_np_exact(int(n))
        assert type(mean_np_exact(n).n) is int


def test_np_stats_bounds():
    for n in (1, 2, 3):
        st_ = mean_np_exact(n)
        assert 1.0 <= st_.mean_np <= 5.0


def test_schedule_json_roundtrip():
    sched = compile_optimal((2, 13, 5))
    d = json.loads(sched.to_json())
    assert d["n_qubits"] == 3
    assert d["scheme"] == "compiled"
    assert d["slot_ns"] == {"total": 20.0, "pulse_ns": 16.0, "buffer_ns": 4.0}
    for ev in d["events"]:
        assert set(ev) == {"slot", "pulse", "mask"}
        assert len(ev["mask"]) == 3
    back = Schedule.from_json_dict(d)
    assert back.n_qubits == sched.n_qubits
    assert back.events == sched.events
    assert back.n_slots == sched.n_slots


def test_event_requires_nonempty_mask():
    from cliffcast.compiler import PulseEvent

    with pytest.raises(ValueError):
        PulseEvent(slot=0, pulse=Pulse.X90, mask=(False, False))


def test_slot_indices_strictly_increasing():
    rng = np.random.default_rng(21)
    for _ in range(50):
        combo = tuple(int(c) for c in rng.integers(1, 25, size=3))
        for scheme in (SCHEME_SEQUENTIAL, SCHEME_FIVE, SCHEME_COMPILED):
            sched = compile_scheme(combo, scheme)
            slots = [e.slot for e in sched.events]
            assert slots == sorted(set(slots))
            assert all(0 <= s < sched.n_slots for s in slots)


# SHA-256 over compile_optimal(c).to_json() for the 24 one-qubit and 576
# two-qubit combos, then 200 eight-qubit combos drawn from Philox seed 2015;
# recorded before the coverage tables were derived from the decompositions'
# train walk (now decomp.train_products).
COMPILE_OPTIMAL_DIGEST = "83cdd70357528840e63feb6c37d4ead51a0f6ab276392eb2173e65aa87b1439b"


def test_compile_optimal_outputs_frozen():
    combos = [(a,) for a in range(1, 25)] + list(itertools.product(range(1, 25), repeat=2))
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(2015)))
    combos += [tuple(r) for r in rng.integers(1, 25, size=(200, 8)).tolist()]
    h = hashlib.sha256()
    for combo in combos:
        h.update(compile_optimal(combo).to_json().encode())
    assert h.hexdigest() == COMPILE_OPTIMAL_DIGEST
    assert {n: len(t) for n, t in _length_tiers().items()} == {1: 6, 2: 19, 3: 42, 4: 74}


# SHA-256 over to_json() of the fixed-round schedules for the 24 one-qubit
# and 576 two-qubit combos, recorded before schedules were built from
# compiler round plans.  With COMPILE_OPTIMAL_DIGEST they pin every scheme.
SCHEDULE_DIGESTS = {
    "sequential": "553967862eff35b7fa15c0373b754fe0ff9a2a99ebed0ec9ef76037c38e52190",
    "five-primitives": "4f9ee6cdf98400818a8c21c9a1ef60091595077129ad274eae46397f17652a57",
    "five-primitives-symmetric":
        "918ce7fb1028f7661fbae328669587e529f16a4a2d345e6852d59eea7cc9f1a6",
}


@pytest.mark.parametrize("scheme", list(SCHEDULE_DIGESTS))
def test_fixed_round_schedules_frozen(scheme):
    # Parity 1 selects the mirrored round, which only the symmetric scheme reads.
    combos = [(a,) for a in range(1, 25)] + list(itertools.product(range(1, 25), repeat=2))
    h = hashlib.sha256()
    for combo in combos:
        h.update(compile_scheme(combo, scheme, round_parity=1).to_json().encode())
    assert h.hexdigest() == SCHEDULE_DIGESTS[scheme]


def _plan_rows(plans) -> list[tuple]:
    """The (pulses, fires) tuples of every row of round_plans' arrays, after
    checking that the slots past each row's count are empty and unfired:
    the pulse of each slot, None where no qubit fires, and one fired-slot
    bitmask per qubit (bit s: slot s)."""
    codes, fired, n_slots = plans
    rows = []
    for r, count in enumerate(n_slots.tolist()):
        assert not codes[r, count:].any() and not fired[r, :, count:].any()
        pulses = tuple(SLOT_PULSES[c] for c in codes[r, :count].tolist())
        rows.append((pulses, tuple(sum(1 << s for s in np.flatnonzero(f).tolist())
                                   for f in fired[r])))
    return rows


def round_plan(combo, scheme: str, parity: int = 0) -> tuple:
    """One round's (pulses, fires), from a one-row round_plans call."""
    return _plan_rows(round_plans([combo], scheme, parity))[0]


@pytest.mark.parametrize("scheme", [SCHEME_SEQUENTIAL, SCHEME_FIVE, SCHEME_FIVE_SYMMETRIC,
                                    SCHEME_COMPILED])
def test_round_plan_matches_compile_scheme(scheme):
    """The plan the simulator reads is the schedule, slot for slot: a pulse
    where some qubit fires, None elsewhere, and each qubit's mask bits."""
    rng = np.random.default_rng(9)
    for k in range(60):
        combo = tuple(int(c) for c in rng.integers(1, 25, size=int(rng.integers(1, 9))))
        pulses, fires = round_plan(combo, scheme, k)
        sched = compile_scheme(combo, scheme, round_parity=k)
        events = {ev.slot: ev for ev in sched.events}
        assert len(pulses) == sched.n_slots and len(fires) == len(combo)
        for s, p in enumerate(pulses):
            ev = events.get(s)
            assert p == (ev and ev.pulse)
            assert tuple(bool(f >> s & 1) for f in fires) == (ev.mask if ev else
                                                              (False,) * len(combo))
    with pytest.raises(ValueError):
        round_plan((2,), "bogus")
    with pytest.raises(ValueError, match="broadcast"):  # planned, but not broadcast
        compile_scheme((2,), SCHEME_MINIMAL)


@pytest.mark.parametrize("scheme", [SCHEME_MINIMAL, SCHEME_SEQUENTIAL, SCHEME_FIVE,
                                    SCHEME_FIVE_SYMMETRIC, SCHEME_COMPILED])
def test_round_plans_match_the_per_round_oracle(scheme):
    """The batched planner plans 5,000 Philox rounds of 1-17 qubits, with
    all-identity rows and either parity, as the per-round walk over the
    trains (oracles.plan_round) does; the single-qubit minimal scheme plans
    all 24 ids at both parities.  Each compiled round with a cover of 1-4
    pulses also fires as oracles.first_firing does, from unitaries alone."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(2018)))
    sizes = np.bincount(rng.integers(1, 18, size=5_000), minlength=18)
    batches = []
    for n in range(1, 18):
        ids = rng.integers(1, 25, size=(sizes[n] + 2, n))
        ids[:2] = 1  # all-identity rounds
        batches.append((ids, rng.integers(0, 2, size=len(ids))))
    if scheme == SCHEME_MINIMAL:
        batches = [(np.arange(1, 25).repeat(2)[:, None], np.tile([0, 1], 24))]
    checked = 0
    for ids, parity in batches:
        plans = round_plans(ids, scheme, parity)
        assert plans[0].shape[0] == len(ids) and plans[1].shape[:2] == ids.shape
        for combo, p, row in zip(ids.tolist(), parity.tolist(), _plan_rows(plans)):
            assert row == plan_round(combo, scheme, p), (combo, p)
            if scheme == SCHEME_COMPILED and 0 < len(row[0]) < 5 and checked < 1_500:
                train, fired = first_firing(combo, len(row[0]))
                assert all(p in (None, t) for p, t in zip(row[0], train)), combo
                assert [tuple(s for s in range(len(train)) if f >> s & 1)
                        for f in row[1]] == list(fired), combo
                checked += 1
    assert sizes.sum() == 5_000
    assert checked == (1_500 if scheme == SCHEME_COMPILED else 0)


def test_round_plans_of_the_all_identity_round_and_bad_input():
    codes, fired, n_slots = round_plans(np.ones((3, 4), dtype=np.int64), SCHEME_COMPILED)
    assert not codes.any() and not fired.any() and n_slots.tolist() == [0] * 3
    assert codes.shape[0] == 3 and fired.shape[:2] == (3, 4)
    for scheme in SCHEMES:
        assert round_plans(np.ones((0, 2)), scheme)[1].shape[:2] == (0, 2)
    for ids in ([[0, 2]], [[25]], [[]], [1, 2]):
        with pytest.raises(ValueError):
            round_plans(ids, SCHEME_SEQUENTIAL)


def test_minimal_round_plans_take_one_qubit():
    """A minimal round is one column of the minimal table, the one qubit's
    Clifford id; rounds of 2 or more qubits are rejected (before, a 2-qubit
    round was planned as a sequential one with identities of one pulse)."""
    for n in (2, 3, 8):
        with pytest.raises(ValueError, match="one qubit"):
            round_plans(np.full((3, n), 2), SCHEME_MINIMAL)
        with pytest.raises(ValueError, match="one qubit"):
            compiler._columns(np.full((3, n), 2), SCHEME_MINIMAL)
    ids = np.arange(1, 25)[:, None]
    assert compiler._columns(ids, SCHEME_MINIMAL).tolist() == list(range(1, 25))
    lengths, codes, fired = compiler._column_table(SCHEME_MINIMAL)
    assert not any(a.flags.writeable for a in (lengths, codes, fired))
    assert lengths[0] == 0 and lengths[1:].mean() == 1.875
    assert (fired.any(axis=2) == np.eye(25, dtype=bool) * (lengths > 0)).all()
    assert (fired[ids[:, 0], ids[:, 0]] == (codes[1:] > 0)).all()


@pytest.mark.parametrize("parity", [1.5, [1.5], np.array([0.0, 1.0]), "1"])
def test_round_plans_rejects_a_non_integer_parity(parity):
    """The symmetric round's parity must be integers (before: an IndexError
    from the firing table); numpy integers and booleans still pass."""
    with pytest.raises(ValueError, match="parity"):
        round_plans([[2, 4], [7, 1]], SCHEME_FIVE_SYMMETRIC, parity)
    want = round_plans([[2, 4], [7, 1]], SCHEME_FIVE_SYMMETRIC, [1, 0])
    got = round_plans([[2, 4], [7, 1]], SCHEME_FIVE_SYMMETRIC, np.array([True, False]))
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


def test_compile_scheme_rejects_a_non_integer_parity():
    with pytest.raises(ValueError, match="parity"):
        compile_scheme((2, 4), SCHEME_FIVE_SYMMETRIC, 1.5)
    assert (compile_scheme((2, 4), SCHEME_FIVE_SYMMETRIC, np.int64(1)).to_json()
            == compile_scheme((2, 4), SCHEME_FIVE_SYMMETRIC, 1).to_json())


def test_round_plans_rejects_non_integer_ids():
    """Float, string and boolean ids are rejected, not truncated; numpy
    integer arrays of any width plan as int64 does."""
    for ids in ([[2.7, 4]], [[2.0]], np.full((2, 3), 5.0), [["5", "3"]], [[True]]):
        with pytest.raises(ValueError, match="integers"):
            round_plans(ids, SCHEME_COMPILED)
    want = round_plans([[2, 4], [7, 1]], SCHEME_COMPILED)
    for dtype in (np.int8, np.uint8, np.int32):
        got = round_plans(np.array([[2, 4], [7, 1]], dtype=dtype), SCHEME_COMPILED)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))


# Each entry point that takes a combination must reject these with a
# ValueError, instead of compiling int(id).
_NON_INTEGER_COMBOS = [(2.7, 4), (2.0, 4), ("5", 3), ["5", 3.9]]


@pytest.mark.parametrize("combo", _NON_INTEGER_COMBOS)
def test_compile_optimal_rejects_non_integer_ids(combo):
    with pytest.raises(ValueError, match="integers"):
        compile_optimal(combo)
    assert compile_optimal(np.array([2, 4])).to_json() == compile_optimal((2, 4)).to_json()


@pytest.mark.parametrize("combo", _NON_INTEGER_COMBOS)
def test_schedule_verify_rejects_non_integer_ids(combo):
    sched = compile_optimal((2, 4))
    with pytest.raises(ValueError, match="integers"):
        sched.verify(combo)
    sched.verify(np.array([2, 4], dtype=np.int16))


@pytest.mark.parametrize("combo", _NON_INTEGER_COMBOS)
def test_min_broadcast_pulses_rejects_non_integer_ids(combo):
    with pytest.raises(ValueError, match="integers"):
        min_broadcast_pulses(combo)
    assert min_broadcast_pulses(np.array([5, 3], dtype=np.int8)) == min_broadcast_pulses((5, 3))


def test_sequential_round_past_63_slots():
    """24 qubits whose Cliffords each take three pulses need 72 slots, past
    the 63 that one int64 bitmask per qubit could hold."""
    three = [c for c in range(2, 25) if len(MINIMAL_DECOMPOSITIONS[c]) == 3]
    combo = tuple(three[q % len(three)] for q in range(24))
    sched = compile_scheme(combo, SCHEME_SEQUENTIAL)
    assert sched.n_slots == sched.n_pulses == 72
    sched.verify(combo)
    pulses, fires = round_plan(combo, SCHEME_SEQUENTIAL)
    assert fires == tuple(0b111 << 3 * q for q in range(24))
    assert (pulses, fires) == plan_round(combo, SCHEME_SEQUENTIAL)


def test_compiled_firing_is_first_matching_subset():
    """Each qubit fires the first subset, in binary counting, of the first
    covering train whose product is its target, with the products taken
    from unitaries (oracles.first_firing), not from the compose table."""
    rng = np.random.default_rng(2024)
    checked = 0
    for _ in range(120):
        combo = tuple(int(c) for c in rng.integers(1, 25, size=int(rng.integers(1, 6))))
        sched = compile_optimal(combo)
        if not 0 < sched.n_slots < 5:
            continue
        train, fired = first_firing(combo, sched.n_slots)
        for ev in sched.events:
            assert ev.pulse == train[ev.slot], combo
        for q in range(len(combo)):
            assert tuple(ev.slot for ev in sched.events if ev.mask[q]) == fired[q], combo
        checked += 1
    assert checked >= 60


def test_schedule_verify_rejects_one_flipped_mask_bit():
    from dataclasses import replace

    for combo in [(2, 13), (5, 9, 17), (3, 3, 24, 11)]:
        sched = compile_optimal(combo)
        sched.verify(combo)
        for i, ev in enumerate(sched.events):
            for q in range(len(combo)):
                mask = tuple(b != (k == q) for k, b in enumerate(ev.mask))
                if not any(mask):
                    continue
                bad = replace(sched, events=sched.events[:i] + [replace(ev, mask=mask)]
                              + sched.events[i + 1:])
                with pytest.raises(ValueError, match=f"qubit {q}"):
                    bad.verify(combo)


def _malformed(case: str) -> Schedule:
    """compile_optimal((2, 2)), Y90 then X90 on both qubits, with its second
    event (event 1) broken in one way."""
    from dataclasses import replace

    sched = compile_optimal((2, 2))
    ev = sched.events[1]
    bad = {"short mask": replace(ev, mask=(True,)),
           "long mask": replace(ev, mask=(True, True, False)),
           "shared slot": replace(ev, slot=sched.events[0].slot),
           "slot past the round": replace(ev, slot=sched.n_slots)}[case]
    return replace(sched, events=[sched.events[0], bad])


def test_schedule_verify_rejects_a_combo_of_the_wrong_length():
    sched = compile_optimal((2, 4))
    for combo in ((2,), (2, 4, 4)):
        with pytest.raises(ValueError, match=f"combo has {len(combo)} targets for 2 qubits"):
            sched.verify(combo)


def test_compile_optimal_rejects_an_empty_combo():
    with pytest.raises(ValueError, match="at least one"):
        compile_optimal(())


@pytest.mark.parametrize("case", ["short mask", "long mask", "shared slot",
                                  "slot past the round"])
def test_schedule_verify_rejects_a_malformed_event(case):
    """A mask without one entry per qubit and two events in one slot or an
    event past the round's slots are ValueErrors naming the event (before:
    an IndexError for the short mask, and the others were accepted)."""
    compile_optimal((2, 2)).verify((2, 2))
    with pytest.raises(ValueError, match="^event 1 "):
        _malformed(case).verify((2, 2))


def _mutants(sched: Schedule, combo: tuple, rng):
    """(schedule, combo, kind): the schedule as compiled, then with one
    changed target and, in one random event, a flipped mask bit, another
    pulse, a mask one entry short or long, the previous event's slot and a
    slot past the round."""
    from dataclasses import replace

    n, events = len(combo), sched.events
    yield sched, combo, "compiled"
    q = int(rng.integers(n))
    other = combo[:q] + (1 + (combo[q] + int(rng.integers(23))) % 24,) + combo[q + 1:]
    yield sched, other, "target"
    if not events:
        return
    i = int(rng.integers(len(events)))
    ev = events[i]

    def changed(**fields):
        return replace(sched, events=events[:i] + [replace(ev, **fields)] + events[i + 1:])

    flipped = tuple(b != (k == q) for k, b in enumerate(ev.mask))
    if any(flipped):
        yield changed(mask=flipped), combo, "mask bit"
    pulse = list(Pulse)[(list(Pulse).index(ev.pulse) + int(rng.integers(1, 9))) % 9]
    yield changed(pulse=pulse), combo, "pulse"
    if any(ev.mask[:-1]):
        yield changed(mask=ev.mask[:-1]), combo, "short mask"
    yield changed(mask=ev.mask + (bool(rng.integers(2)),)), combo, "long mask"
    if i:
        yield changed(slot=events[i - 1].slot), combo, "shared slot"
    yield changed(slot=sched.n_slots + int(rng.integers(2))), combo, "late slot"


def _verify_message(sched: Schedule, combo) -> str | None:
    try:
        sched.verify(combo)
    except ValueError as exc:
        return str(exc)
    return None


def test_schedule_verify_agrees_with_the_oracle():
    """Schedule.verify accepts and rejects as oracles.verify_schedule does,
    naming the same malformed event or the same first failing qubit, on
    2,048 Philox schedules (every scheme and parity, 1-17 qubits, some
    all-identity) and their mutants."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(2026)))
    sequence_clifford.cache_clear()
    outcomes, checked = {}, []
    for k in range(2_048):
        scheme, parity = SCHEMES[k % 4], k // 4 % 2
        combo = tuple(rng.integers(1, 25, size=int(rng.integers(1, 18))).tolist())
        if k % 64 < 4:
            combo = (1,) * len(combo)
        sched = compile_scheme(combo, scheme, round_parity=parity)
        for bad, target, kind in _mutants(sched, combo, rng):
            want = verify_schedule(bad, target)
            got = _verify_message(bad, target)
            if want is None:
                assert got is None, (scheme, combo, kind)
            elif want[0] == "event":
                assert got.startswith(f"event {want[1]} "), (scheme, combo, kind, got)
            else:
                q = want[1]
                assert got == f"schedule verification failed for qubit {q} (target {target[q]})"
            outcomes.setdefault(kind, set()).add(want and want[0])
            checked.append((bad, target, got))
    # Again in reverse, from a memo the first pass filled in another order.
    for bad, target, got in reversed(checked):
        assert _verify_message(bad, target) == got, (bad, target)
    assert outcomes["compiled"] == {None}
    for kind in ("target", "mask bit", "pulse"):
        assert "qubit" in outcomes[kind], kind
    for kind in ("short mask", "long mask", "shared slot", "late slot"):
        assert outcomes[kind] == {"event"}, kind


def test_schedule_json_is_json_dumps():
    """to_json writes json.dumps(indent=2) of the schedule's fields byte for
    byte, and parses back to those fields: every scheme and parity, 1-17
    qubits, the empty schedule, a scheme label that JSON escapes and a mask
    of numpy booleans."""
    from cliffcast.compiler import PulseEvent

    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(2027)))
    numpy_mask = PulseEvent(slot=0, pulse=Pulse.X90, mask=tuple(np.array([True, False])))
    schedules = [compile_optimal((1, 1)),
                 Schedule(n_qubits=1, scheme='a "b"\\é', events=[], n_slots=0),
                 Schedule(n_qubits=2, scheme="compiled", events=[numpy_mask], n_slots=1)]
    for scheme in SCHEMES:
        for parity in (0, 1):
            for n in range(1, 18):
                for combo in (tuple(rng.integers(1, 25, size=n).tolist()), (1,) * n):
                    schedules.append(compile_scheme(combo, scheme, round_parity=parity))
    assert not schedules[0].events
    for sched in schedules:
        fields = schedule_json_dict(sched)
        assert sched.to_json() == json.dumps(fields, indent=2) + "\n"
        assert json.loads(sched.to_json()) == fields


@pytest.mark.parametrize("scheme", SCHEMES)
def test_verify_memo_holds_one_entry_per_fired_sequence(scheme):
    """Verifying 1,000 Philox 8-qubit schedules leaves one memo entry per
    distinct fired pulse tuple, counted here from the events: not one per
    combination, and (X90, Y90) apart from (Y90, X90)."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([28, SCHEMES.index(scheme)])))
    combos = [tuple(rng.integers(1, 25, size=8).tolist()) for _ in range(1_000)]
    scheds = [compile_scheme(c, scheme, round_parity=k % 2) for k, c in enumerate(combos)]
    fired = {tuple(ev.pulse for ev in s.events if ev.mask[q]) for s in scheds for q in range(8)}
    assert len({tuple(sorted(f, key=str)) for f in fired}) < len(fired) < len(combos)
    sequence_clifford.cache_clear()
    for sched, combo in zip(scheds, combos):
        sched.verify(combo)
    info = sequence_clifford.cache_info()
    assert info.currsize == info.misses == len(fired) < info.maxsize
