"""State factories and Werner-state closed forms used as oracles throughout."""

from __future__ import annotations

import math
import threading
from collections.abc import Iterator
from typing import NamedTuple

import numpy as np

from .core import TwoQubitState, _angle, _array, _integer, _real, _row_dot, validate_state
from .errors import NotAProbabilityVector, OutOfRange

KET_HH = np.array([1, 0, 0, 0], dtype=complex)
KET_HV = np.array([0, 1, 0, 0], dtype=complex)
KET_VH = np.array([0, 0, 1, 0], dtype=complex)
KET_VV = np.array([0, 0, 0, 1], dtype=complex)

# Bell basis, fixed order: Phi+, Phi-, Psi+, Psi-.
BELL_KETS = (
    (KET_HH + KET_VV) / math.sqrt(2),
    (KET_HH - KET_VV) / math.sqrt(2),
    (KET_HV + KET_VH) / math.sqrt(2),
    (KET_HV - KET_VH) / math.sqrt(2),
)

# Positivity bounds of the Werner family p*|Psi-><Psi-| + (1-p)/4 * 1.
WERNER_P_MIN = -1.0 / 3.0
WERNER_P_MAX = 1.0

# Each thread's one Philox generator, which _philox_streams resets for every
# stream.  Building a Philox reads OS entropy, which costs more than a
# trial's draws; a reset sets the whole state, so no draw carries over.
_THREAD = threading.local()


class WernerPrediction(NamedTuple):
    """Closed-form knowledge quantities of a Werner state at given analyzer angles."""

    K: float
    K_prime: float
    P: float
    P_prime: float
    b_max: float


def _werner_p(p: float) -> float:
    """``p`` by :func:`core._real`; OutOfRange outside [-1/3, 1], the positivity interval."""
    p = _real(p, "werner parameter p")
    if not (WERNER_P_MIN - 1e-12 <= p <= WERNER_P_MAX + 1e-12):
        raise OutOfRange(f"werner parameter p = {p} outside [-1/3, 1]")
    return p


def werner(p: float) -> TwoQubitState:
    """Werner state: singlet fraction ``p``, an int or float, mixed with white noise.

    Valid over the full positivity interval -1/3 <= p <= 1 (negative p flips
    the sign of the correlation matrix); OutOfRange outside it.
    """
    p = _werner_p(p)
    singlet = np.outer(BELL_KETS[3], BELL_KETS[3].conj())
    return validate_state(p * singlet + (1.0 - p) / 4.0 * np.eye(4))


def bell_diagonal(lambdas) -> TwoQubitState:
    """Mixture of the four Bell projectors, 4 real weights in the order Phi+, Phi-, Psi+, Psi-."""
    lams = _array(lambdas, "Bell weight vector", (4,), error=NotAProbabilityVector)
    # Written so that a NaN fails each check; a sum that overflows is inf.
    if not np.all(lams >= 0.0):
        raise NotAProbabilityVector(f"weights must be non-negative, got {lams.tolist()}")
    with np.errstate(over="ignore"):
        total = lams.sum()
    if not abs(total - 1.0) <= 1e-10:
        raise NotAProbabilityVector(f"weights sum to {total:.12f}, expected 1 (limit 1e-10)")
    rho = np.zeros((4, 4), dtype=complex)
    for lam, ket in zip(lams, BELL_KETS):
        rho += lam * np.outer(ket, ket.conj())
    return validate_state(rho)


def _density_stack(normals: np.ndarray, d: int) -> np.ndarray:
    """Unvalidated mixed states (N, 4, 4) induced from Gaussian-random pure
    states on a 4 x d system, from ``normals`` (N, 8d): the real, then the
    imaginary amplitudes of each row.  A row's norm dots the strided real and
    imaginary views as ``np.linalg.norm`` does, the same bit for bit in any stack."""
    amplitudes = normals[:, : 4 * d] + 1j * normals[:, 4 * d :]
    re, im = amplitudes.real, amplitudes.imag
    amplitudes /= np.sqrt(_row_dot(re, re) + _row_dot(im, im))[:, None]
    amplitudes = amplitudes.reshape(-1, 4, d)
    return amplitudes @ amplitudes.conj().swapaxes(1, 2)


def _philox_streams(seed: int, words) -> Iterator[np.random.Generator]:
    """A generator for each stream word in turn: Philox keyed by
    ``(seed % 2**64, word)``, at counter 0.

    Philox is counter-based, so a stream is fully set by its key.  Each
    thread keeps one Philox, and it is reset for every word by assigning its
    whole state: the key, a zero counter, an empty output buffer and no held
    32-bit half, as plain Python ints in one state dict in which only the
    word changes.  The generator yielded is then the one that
    ``Generator(Philox(key=(seed % 2**64, word)))`` would be, whatever the
    previous stream read.  It is the same object for every word and every
    call in the thread, so a stream is valid only until the thread takes
    the next one, from this iterator or any other.
    """
    try:
        rng = _THREAD.rng
    except AttributeError:
        rng = _THREAD.rng = np.random.Generator(np.random.Philox(key=0))
    philox = rng.bit_generator
    key = [int(seed) % 2**64, 0]
    state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": key},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    for word in words:
        key[1] = word
        philox.state = state
        yield rng


def random_state(seed: int, ancilla_dim: int) -> TwoQubitState:
    """Deterministic random mixed state of rank <= ``ancilla_dim``.

    Draws from the Philox stream keyed by (seed, ancilla_dim), opened by
    :func:`_philox_streams`, so the same arguments produce bit-identical
    states on every platform.  Both must be integers, the seed of any size.
    """
    seed, ancilla_dim = _integer(seed, "seed"), _integer(ancilla_dim, "ancilla_dim")
    if not 1 <= ancilla_dim <= 4:
        raise ValueError(f"ancilla_dim must be in 1..4, got {ancilla_dim}")
    (rng,) = _philox_streams(seed, [ancilla_dim])
    return validate_state(_density_stack(rng.normal(size=(1, 8 * ancilla_dim)), ancilla_dim)[0])


def werner_prediction(p: float, theta_deg: float, theta_prime_deg: float) -> WernerPrediction:
    """Theoretical knowledge quantities for a Werner state, ``p`` as in :func:`werner`.

    K is evaluated for the H/V signal basis with the meter analyzer at
    ``theta``; K' for the X/Y basis at ``theta_prime`` (finite ints or floats):
    K = p|cos 2theta|, K' = p|sin 2theta'|, P = P' = 0, B_max = 2 sqrt(2) p.
    """
    p = _werner_p(p)
    theta, theta_prime = _angle(theta_deg, "theta_deg"), _angle(theta_prime_deg, "theta_prime_deg")
    return _werner_prediction(p, theta, theta_prime)


def _werner_prediction(p: float, theta_deg: float, theta_prime_deg: float) -> WernerPrediction:
    """:func:`werner_prediction` of a float ``p`` and angles already checked; the sweep's too."""
    theta, theta_prime = math.radians(theta_deg), math.radians(theta_prime_deg)
    return WernerPrediction(
        K=abs(p * math.cos(2 * theta)),
        K_prime=abs(p * math.sin(2 * theta_prime)),
        P=0.0,
        P_prime=0.0,
        b_max=abs(p) * 2.0 * math.sqrt(2.0),
    )
