"""Single-qubit Clifford group algebra over x/y rotation pulses.

The 24 single-qubit Cliffords are represented by integer ids 1..24.  Each id
is defined by its canonical decomposition into pulses from the set
{I, X180, Y180, X90, Y90, X-180, Y-180, X-90, Y-90} (left-to-right
application), and the group tables (composition, inversion) are derived from
the resulting 2x2 unitaries at import time.

Conventions
-----------
* Rotation sign: a pulse with axis a and angle theta implements
  exp(-1j * theta * sigma_a / 2).  Any consistent convention gives the same
  observable results; this one is fixed so tables are reproducible.
* Unitaries are compared up to global phase via |tr(U^dag V)| == 2.
* Pulse sequences act left to right: [p, q] means p first, so the matrix is
  U_q @ U_p.

Besides the minimal decompositions this module carries the five-primitive
broadcast tables: a fixed ordered round (X90, Y90, X90, X-180, Y-180) from
which every Clifford is obtained by firing a subset of the five slots, plus
the mirrored round (X180, Y180, X-90, Y-90, X-90) whose subset table is
derived here by exhaustive search and frozen below.
"""

from __future__ import annotations

import enum
import math
import numbers
import operator
from functools import lru_cache

import numpy as np

PHASE_TOL = 1e-9


class Pulse(enum.Enum):
    """The nine primitive rotations (axis, angle in units of pi)."""

    I = ("i", 0.0)
    X180 = ("x", 1.0)
    Y180 = ("y", 1.0)
    X90 = ("x", 0.5)
    Y90 = ("y", 0.5)
    XM180 = ("x", -1.0)
    YM180 = ("y", -1.0)
    XM90 = ("x", -0.5)
    YM90 = ("y", -0.5)

    __hash__ = object.__hash__  # singletons hash by identity, not by Enum's hash of the name

    @property
    def axis(self) -> str:
        return self.value[0]

    @property
    def angle(self) -> float:
        """Rotation angle in radians."""
        return self.value[1] * np.pi

    @property
    def label(self) -> str:
        return _LABELS[self]

    @classmethod
    def from_label(cls, label: str) -> "Pulse":
        try:
            return _BY_LABEL[label]
        except KeyError:
            raise ValueError(f"unknown pulse label {label!r}") from None


# A pulse's label is its name with M (minus) written as "-": X-90 for XM90.
_LABELS = {p: p.name.replace("M", "-") for p in Pulse}
_BY_LABEL = {v: k for k, v in _LABELS.items()}

_I2 = np.eye(2, dtype=complex)
_I2.flags.writeable = False

# Azimuth of each rotation axis in the equatorial plane.
_AZIMUTH = {"x": 0.0, "y": math.pi / 2}


@lru_cache(maxsize=256)
def rotation_unitary(axis: str, angle: float, phase: float = 0.0) -> np.ndarray:
    """exp(-1j*angle*sigma/2) about the equatorial axis
    sigma = cos(a)*sigma_x + sin(a)*sigma_y, with a the azimuth of axis 'x'
    (0) or 'y' (pi/2) plus phase (a drive phase error); identity for axis
    'i' or a zero angle.

    Built entry by entry from math scalars and memoised: a repeated call
    returns the same read-only array, and the identity is the read-only _I2.
    """
    if axis == "i" or angle == 0.0:
        return _I2
    azimuth = _AZIMUTH[axis] + phase
    c = math.cos(angle / 2)
    s = math.sin(angle / 2)
    sx = s * math.cos(azimuth)
    sy = s * math.sin(azimuth)
    u = np.array([[c, complex(-sy, -sx)], [complex(sy, -sx), c]])
    u.flags.writeable = False
    return u


def pulse_unitary(p: Pulse) -> np.ndarray:
    return rotation_unitary(p.axis, p.angle)


def sequence_unitary(pulses) -> np.ndarray:
    """Left-to-right product of a pulse sequence."""
    u = _I2.copy()
    for p in pulses:
        u = pulse_unitary(p) @ u
    return u


# Minimal decompositions of the 24 Cliffords (left-to-right pulse order).
MINIMAL_DECOMPOSITIONS: dict[int, tuple[Pulse, ...]] = {
    1: (Pulse.I,),
    2: (Pulse.Y90, Pulse.X90),
    3: (Pulse.XM90, Pulse.YM90),
    4: (Pulse.X180,),
    5: (Pulse.YM90, Pulse.XM90),
    6: (Pulse.X90, Pulse.YM90),
    7: (Pulse.Y180,),
    8: (Pulse.YM90, Pulse.X90),
    9: (Pulse.X90, Pulse.Y90),
    10: (Pulse.X180, Pulse.Y180),
    11: (Pulse.Y90, Pulse.XM90),
    12: (Pulse.XM90, Pulse.Y90),
    13: (Pulse.Y90, Pulse.X180),
    14: (Pulse.XM90,),
    15: (Pulse.X90, Pulse.YM90, Pulse.XM90),
    16: (Pulse.YM90,),
    17: (Pulse.X90,),
    18: (Pulse.X90, Pulse.Y90, Pulse.X90),
    19: (Pulse.YM90, Pulse.X180),
    20: (Pulse.X90, Pulse.Y180),
    21: (Pulse.X90, Pulse.YM90, Pulse.X90),
    22: (Pulse.Y90,),
    23: (Pulse.XM90, Pulse.Y180),
    24: (Pulse.X90, Pulse.Y90, Pulse.XM90),
}

# Five-primitive broadcast round and the per-Clifford firing masks
# (bit i fires FIVE_PRIMITIVES[i]; masks realize the Clifford left to right).
FIVE_PRIMITIVES: tuple[Pulse, ...] = (
    Pulse.X90,
    Pulse.Y90,
    Pulse.X90,
    Pulse.XM180,
    Pulse.YM180,
)

FIVE_PRIMITIVE_MASKS: dict[int, tuple[int, ...]] = {
    1: (0, 0, 0, 0, 0),
    2: (0, 1, 1, 0, 0),
    3: (1, 1, 0, 1, 0),
    4: (0, 0, 0, 1, 0),
    5: (0, 1, 1, 0, 1),
    6: (1, 1, 0, 0, 1),
    7: (0, 0, 0, 0, 1),
    8: (0, 1, 1, 1, 1),
    9: (1, 1, 0, 0, 0),
    10: (0, 0, 0, 1, 1),
    11: (0, 1, 1, 1, 0),
    12: (1, 1, 0, 1, 1),
    13: (0, 1, 0, 1, 0),
    14: (0, 0, 1, 1, 0),
    15: (1, 1, 1, 0, 1),
    16: (0, 1, 0, 0, 1),
    17: (0, 0, 1, 0, 0),
    18: (1, 1, 1, 0, 0),
    19: (0, 1, 0, 1, 1),
    20: (1, 0, 0, 0, 1),
    21: (1, 1, 1, 1, 1),
    22: (0, 1, 0, 0, 0),
    23: (1, 0, 0, 1, 1),
    24: (1, 1, 1, 1, 0),
}

# Mirrored round: the element-wise inverses of the normal round in reverse
# order compose (all fired) to the inverse of the full normal round.  The
# round is listed in the fixed hardware order used for odd parity.
FIVE_PRIMITIVES_INVERTED: tuple[Pulse, ...] = (
    Pulse.X180,
    Pulse.Y180,
    Pulse.XM90,
    Pulse.YM90,
    Pulse.XM90,
)

# The first matching subset in binary order (bit 0 = first primitive), frozen;
# tests/oracles.py::derive_inverted_masks regenerates them by subset search.
FIVE_PRIMITIVE_MASKS_INVERTED: dict[int, tuple[int, ...]] = {
    1: (0, 0, 0, 0, 0),
    2: (1, 0, 0, 1, 1),
    3: (0, 0, 1, 1, 0),
    4: (1, 0, 0, 0, 0),
    5: (0, 0, 0, 1, 1),
    6: (1, 0, 1, 1, 0),
    7: (0, 1, 0, 0, 0),
    8: (1, 1, 0, 1, 1),
    9: (0, 1, 1, 1, 0),
    10: (1, 1, 0, 0, 0),
    11: (0, 1, 0, 1, 1),
    12: (1, 1, 1, 1, 0),
    13: (1, 0, 0, 1, 0),
    14: (0, 0, 1, 0, 0),
    15: (1, 0, 1, 1, 1),
    16: (0, 0, 0, 1, 0),
    17: (1, 0, 1, 0, 0),
    18: (0, 0, 1, 1, 1),
    19: (1, 1, 0, 1, 0),
    20: (0, 1, 1, 0, 0),
    21: (1, 1, 1, 1, 1),
    22: (0, 1, 0, 1, 0),
    23: (1, 1, 1, 0, 0),
    24: (0, 1, 1, 1, 1),
}


CANONICAL_UNITARIES: list[np.ndarray] = [sequence_unitary(MINIMAL_DECOMPOSITIONS[c])
                                         for c in range(1, 25)]
_CANONICAL_CONJ = np.conj(CANONICAL_UNITARIES)


def _check_int(value, name: str, low: int | None = None) -> int:
    """value as an int (Python and numpy integers), else a ValueError naming
    it, as is an int below low."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if low is not None and value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value}")
    return value


def _check_id(c: int) -> None:
    if not (isinstance(c, numbers.Integral) and 1 <= c <= 24):
        raise ValueError(f"Clifford id must be an integer in 1..24, got {c!r}")


def _overlaps(u: np.ndarray) -> np.ndarray:
    """|tr(U_c^dag u)| against each canonical unitary c (last axis), for u
    of shape (..., 2, 2); 2 means equal up to phase."""
    return np.abs(np.einsum("cij,...ij->...c", _CANONICAL_CONJ, u))


def match_unitary(u: np.ndarray) -> int | None:
    """Return the Clifford id whose unitary equals u up to phase, else None."""
    overlap = _overlaps(u)
    c = int(overlap.argmax())
    return c + 1 if abs(overlap[c] - 2.0) < PHASE_TOL else None


@lru_cache(maxsize=4096)
def sequence_clifford(pulses: tuple[Pulse, ...]) -> int | None:
    """match_unitary(sequence_unitary(pulses)), memoised by pulse tuple."""
    return match_unitary(sequence_unitary(pulses))


def clifford_of_pulses(pulses) -> int:
    """Id of the Clifford of any iterable of pulses (left to right), memoised.

    Every product of the primitive pulses is a Clifford; a failed match
    therefore indicates a corrupted table and raises.
    """
    c = sequence_clifford(tuple(pulses))
    if c is None:
        raise RuntimeError("pulse product did not match any canonical Clifford")
    return c


def _build_tables() -> tuple[np.ndarray, np.ndarray]:
    """Compose and inverse tables (index 0 unused).  All 576 products
    U_b @ U_a (a applied first) are matched in one overlap test; the
    inverse of a is the b whose product with a is the identity."""
    canon = np.array(CANONICAL_UNITARIES)
    overlap = _overlaps(np.einsum("bij,ajk->abik", canon, canon))
    if not np.all(np.abs(overlap.max(axis=-1) - 2.0) < PHASE_TOL):
        raise RuntimeError("Clifford group not closed; table corrupt")
    compose = np.zeros((25, 25), dtype=np.int8)
    compose[1:, 1:] = overlap.argmax(axis=-1) + 1
    inverse = np.zeros(25, dtype=np.int8)
    inverse[1:] = (compose[1:, 1:] == 1).argmax(axis=1) + 1
    return compose, inverse


_COMPOSE_TABLE, _INVERSE_TABLE = _build_tables()


def compose(a: int, b: int) -> int:
    """Clifford implementing 'a then b' (unitary U_b @ U_a)."""
    _check_id(a)
    _check_id(b)
    return int(_COMPOSE_TABLE[a, b])


def inverse(a: int) -> int:
    _check_id(a)
    return int(_INVERSE_TABLE[a])


def recovery_clifford(sequence):
    """Clifford that inverts the cumulative effect of the sequence.

    Appending the result to the sequence yields the identity; the empty
    sequence recovers with the identity Clifford (id 1).  A 1-d sequence
    returns an int; a (k, m) array of k sequences returns their k
    recoveries as an int64 array.  The product is reduced pairwise over the
    compose table, each level halving the length, which is exact because
    the group is associative.
    """
    acc = np.asarray(sequence)
    if acc.ndim not in (1, 2):
        raise ValueError("expected one sequence or a (k, m) array of sequences")
    if acc.size:
        if acc.dtype.kind not in "iu":
            raise ValueError(f"Clifford ids must be integers, got {acc.dtype}")
        if acc.min() < 1 or acc.max() > 24:
            raise ValueError("Clifford ids must be in 1..24")
    else:
        acc = np.ones(acc.shape[:-1] + (1,), dtype=np.int64)
    while acc.shape[-1] > 1:
        m = acc.shape[-1]
        pairs = _COMPOSE_TABLE[acc[..., 0:m - 1:2], acc[..., 1:m:2]]
        acc = np.concatenate([pairs, acc[..., m - 1:]], axis=-1) if m & 1 else pairs
    rec = _INVERSE_TABLE[acc[..., 0]].astype(np.int64)
    return int(rec) if rec.ndim == 0 else rec


def minimal_decomposition(a: int) -> list[Pulse]:
    _check_id(a)
    return list(MINIMAL_DECOMPOSITIONS[a])


def five_primitive_mask(a: int, inverted: bool = False) -> tuple[int, ...]:
    """Firing mask over the five-slot round realizing Clifford a.

    With inverted=True the mask refers to FIVE_PRIMITIVES_INVERTED.
    """
    _check_id(a)
    table = FIVE_PRIMITIVE_MASKS_INVERTED if inverted else FIVE_PRIMITIVE_MASKS
    return table[a]
