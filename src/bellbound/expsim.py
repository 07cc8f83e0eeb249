"""Coincidence-counting experiment simulator and count-based estimators.

Count sign convention: in ``C^{ab}`` the first sign is the meter outcome and
the second the signal outcome.  Shot noise is modeled as an independent
Poisson draw per outcome channel with a flat accidental-coincidence term; the
generator is counter-based (Philox) with one stream per (point, channel), so
fixed seeds give bit-identical counts on every platform, and each point's
counts depend only on the seed and the point's stream index.

Every simulation path evaluates its points as one stack: the Born-rule
probabilities of up to ``BLOCK`` points come from one broadcast Kronecker
product, one stacked matrix product and one stacked trace, with the same
floating-point operations per point as :func:`coincidence_probs` on its own.
One Philox generator is then reset to each (point, channel) stream in turn,
so the counts are those of a generator built fresh for that stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    ID2,
    PAULI,
    VALIDATION_TOL,
    QubitMeasurement,
    TwoQubitState,
    measurement_from_polarization_angle,
    validate_state,
)
from .errors import EmptyRecord, OutOfRange, TraceNotOne
from .factories import (
    BELL_KETS,
    KET_HH,
    KET_HV,
    KET_VH,
    KET_VV,
    _philox_streams,
    werner,
    werner_prediction,
)

# Meter/signal analyzer angle pairs (degrees) used for the Bell-factor estimate.
BELL_ANGLE_PAIRS = ((22.5, 45.0), (67.5, 45.0), (22.5, 0.0), (67.5, 0.0))

SIGNAL_BASES = ("hv", "xy")

# Points evaluated together; transient memory is O(BLOCK), not O(points).
BLOCK = 1024
# Bell records draw from the four streams from here on, above the streams of
# the sweep points that share their seed.
BELL_STREAM_OFFSET = 1_000_000
# numpy's Generator.poisson refuses a larger mean (about 9.2e18).
POISSON_MEAN_MAX = float(np.iinfo(np.int64).max) - 10.0 * math.sqrt(np.iinfo(np.int64).max)


@dataclass(frozen=True)
class CountRecord:
    """Four coincidence counts; first index sign = meter outcome, second = signal."""

    c_pp: int
    c_pm: int
    c_mp: int
    c_mm: int

    def __post_init__(self):
        for name in ("c_pp", "c_pm", "c_mp", "c_mm"):
            value = getattr(self, name)
            if int(value) != value or value < 0:
                raise ValueError(f"count {name} must be a non-negative integer, got {value!r}")
            object.__setattr__(self, name, int(value))

    @property
    def total(self) -> int:
        return self.c_pp + self.c_pm + self.c_mp + self.c_mm


@dataclass(frozen=True)
class ExperimentConfig:
    """Noise model parameters for one measurement point.

    ``pair_rate`` is the detected coincidence-pair rate (detector efficiency
    already folded in) and ``dark_coincidence_rate`` the accidental rate per
    outcome channel, both in 1/s.
    """

    pair_rate: float
    duration: float
    dark_coincidence_rate: float = 0.0
    seed: int = 0

    def __post_init__(self):
        # Written so that a NaN fails each check.
        for name in ("pair_rate", "duration", "dark_coincidence_rate"):
            value = getattr(self, name)
            if not 0 <= value < math.inf:
                raise ValueError(f"{name} must be a finite non-negative number, got {value!r}")


@dataclass(frozen=True)
class MixingModel:
    """Three-component preparation of a noisy singlet.

    ``visibility`` is the two-photon interference visibility of the singlet
    component; the weights are the effective mixing fractions (proportional
    to rate x duration of each input configuration) of the interferometric
    component and the two parallel-polarization components.
    """

    visibility: float
    w_singlet: float
    w_hh: float
    w_vv: float

    def __post_init__(self):
        if not -1e-12 <= self.visibility <= 1.0 + 1e-12:
            raise ValueError(f"visibility must lie in [0, 1], got {self.visibility}")
        weights = (self.w_singlet, self.w_hh, self.w_vv)
        if not all(weight >= -1e-12 for weight in weights):
            raise ValueError(f"mixing weights must be non-negative, got {weights}")
        if not abs(sum(weights) - 1.0) <= 1e-10:
            raise ValueError(f"mixing weights must sum to 1, got {sum(weights)!r}")


@dataclass(frozen=True)
class SweepPoint:
    """Estimates at one analyzer angle of a simulated (or exact) sweep."""

    theta_deg: float
    basis: str
    counts: CountRecord | None
    k_hat: float
    p_hat: float
    dk_hat: float
    dk_theory: float


def signal_measurement(basis: str) -> QubitMeasurement:
    """The H/V or X/Y signal analyzer."""
    if basis == "hv":
        return measurement_from_polarization_angle(0.0)
    if basis == "xy":
        return measurement_from_polarization_angle(45.0)
    raise ValueError(f"unknown signal basis {basis!r}, expected one of {SIGNAL_BASES}")


def _polarization_axes(thetas_deg) -> np.ndarray:
    """Bloch axes of linear-polarization analyzers, shape (N, 3)."""
    axes = [measurement_from_polarization_angle(theta).axis for theta in thetas_deg]
    return np.array(axes).reshape(-1, 3)


def _projector_stack(axes: np.ndarray) -> np.ndarray:
    """The (+, -) projectors ``(1 +- a.sigma)/2`` of N axes, shape (N, 2, 2, 2)."""
    a_sigma = np.einsum("Nk,kij->Nij", axes, PAULI)
    return np.stack([0.5 * (ID2 + a_sigma), 0.5 * (ID2 - a_sigma)], axis=1)


def _coincidence_stack(
    state: TwoQubitState, meter_axes: np.ndarray, signal_axes: np.ndarray
) -> np.ndarray:
    """:func:`coincidence_probs` for N (meter, signal) axis pairs, shape (N, 4).

    Raises TraceNotOne for the first point whose probabilities do not sum to 1.
    """
    probs = np.empty((len(meter_axes), 4))
    for start in range(0, len(probs), BLOCK):
        block = slice(start, start + BLOCK)
        met = _projector_stack(meter_axes[block])
        sig = _projector_stack(signal_axes[block])
        # np.kron(sig[b], met[a]) for channel 2a + b, broadcast as np.kron does:
        # axes (point, a, b, signal row, meter row, signal col, meter col).
        ops = sig[:, None, :, :, None, :, None] * met[:, :, None, None, :, None, :]
        probs[block] = np.trace(ops.reshape(-1, 4, 4, 4) @ state.matrix, axis1=2, axis2=3).real
        totals = probs[block].sum(axis=1)
        bad = np.abs(totals - 1.0) >= VALIDATION_TOL
        if bad.any():
            raise TraceNotOne(float(totals[np.argmax(bad)]))
    return probs


def coincidence_probs(
    state: TwoQubitState, pi_meter: QubitMeasurement, pi_signal: QubitMeasurement
) -> np.ndarray:
    """Born-rule channel probabilities in the order (++, +-, -+, --).

    Index order matches :class:`CountRecord`: first sign meter, second signal.
    """
    return _coincidence_stack(state, pi_meter.axis[np.newaxis], pi_signal.axis[np.newaxis])[0]


def _simulate_stack(
    state: TwoQubitState,
    meter_axes: np.ndarray,
    signal_axes: np.ndarray,
    config: ExperimentConfig,
    streams,
) -> list[CountRecord]:
    """:func:`simulate_counts` for N points; point ``i`` draws from RNG stream
    ``streams[i]``, channel ``c`` of it from Philox key ``(seed, stream << 2 | c)``."""
    probs = _coincidence_stack(state, meter_axes, signal_axes)
    with np.errstate(over="ignore", invalid="ignore"):
        means = probs * config.pair_rate * config.duration + config.dark_coincidence_rate * config.duration
    # Written so that an overflow to inf or a NaN fails the check.
    if not np.all(means <= POISSON_MEAN_MAX):
        raise ValueError(
            "coincidence means (pair_rate * p + dark_coincidence_rate) * duration must be at most"
            f" {POISSON_MEAN_MAX:.3g}, the Poisson draw's limit: lower --pair-rate, --duration"
            " or --dark-rate"
        )
    words = ((int(stream) << 2) | channel for stream in streams for channel in range(4))
    counts = [
        int(rng.poisson(max(mean, 0.0)))
        for rng, mean in zip(_philox_streams(config.seed, words), means.ravel().tolist())
    ]
    return [CountRecord(*counts[i : i + 4]) for i in range(0, len(counts), 4)]


def simulate_counts(
    state: TwoQubitState,
    pi_meter: QubitMeasurement,
    pi_signal: QubitMeasurement,
    config: ExperimentConfig,
    stream: int = 0,
) -> CountRecord:
    """Poisson coincidence counts for one measurement point.

    Channel means are ``p_ab * pair_rate * duration + dark_rate * duration``;
    ``stream`` selects the RNG stream so distinct points stay independent.
    """
    return _simulate_stack(
        state, pi_meter.axis[np.newaxis], pi_signal.axis[np.newaxis], config, [stream]
    )[0]


def exact_counts(
    state: TwoQubitState,
    pi_meter: QubitMeasurement,
    pi_signal: QubitMeasurement,
    total: int = 10**8,
) -> CountRecord:
    """Noise-free counts: channel probabilities scaled to ``total`` and rounded."""
    probs = coincidence_probs(state, pi_meter, pi_signal)
    return CountRecord(*(int(round(total * p)) for p in probs))


def _require_counts(record: CountRecord, context: str = "") -> int:
    total = record.total
    if total <= 0:
        raise EmptyRecord(f"count record has zero total{context}")
    return total


def estimate_knowledge(counts: CountRecord) -> float:
    """Knowledge from measured rates: (|C++ - C+-| + |C-+ - C--|) / total."""
    total = _require_counts(counts)
    return (abs(counts.c_pp - counts.c_pm) + abs(counts.c_mp - counts.c_mm)) / total


def estimate_apriori(counts: CountRecord) -> float:
    """A-priori knowledge from rates: |(C++ + C-+) - (C+- + C--)| / total."""
    total = _require_counts(counts)
    return abs((counts.c_pp + counts.c_mp) - (counts.c_pm + counts.c_mm)) / total


def estimate_correlation(counts: CountRecord) -> float:
    """Correlation function from rates: (C++ + C-- - C+- - C-+) / total."""
    total = _require_counts(counts)
    return (counts.c_pp + counts.c_mm - counts.c_pm - counts.c_mp) / total


def estimate_bell_max(records) -> float:
    """Bell factor from four count records at the angle pairs
    ``BELL_ANGLE_PAIRS``: |C(22.5,45) + C(67.5,45) + C(22.5,0) - C(67.5,0)|."""
    records = tuple(records)
    if len(records) != 4:
        raise ValueError(f"expected 4 count records, got {len(records)}")
    correlations = []
    for index, (record, angles) in enumerate(zip(records, BELL_ANGLE_PAIRS)):
        _require_counts(record, context=f" (record {index} at meter/signal angles {angles})")
        correlations.append(estimate_correlation(record))
    c1, c2, c3, c4 = correlations
    return abs(c1 + c2 + c3 - c4)


def mixed_state_from_model(model: MixingModel) -> TwoQubitState:
    """State prepared by the three-component mixing protocol.

    The interferometric component contributes the singlet with weight ``V``
    and the distinguishable-photon mixture of |HV> and |VH> with weight
    ``1 - V``; the parallel-polarization inputs contribute |HH> and |VV>.
    """
    singlet = np.outer(BELL_KETS[3], BELL_KETS[3].conj())
    hv = np.outer(KET_HV, KET_HV.conj())
    vh = np.outer(KET_VH, KET_VH.conj())
    hh = np.outer(KET_HH, KET_HH.conj())
    vv = np.outer(KET_VV, KET_VV.conj())
    v = model.visibility
    rho = (
        model.w_singlet * (v * singlet + (1.0 - v) * 0.5 * (hv + vh))
        + model.w_hh * hh
        + model.w_vv * vv
    )
    return validate_state(rho)


def mixing_model_from_schedule(visibility: float, durations, rates) -> MixingModel:
    """Effective mixing weights of a three-configuration measurement schedule.

    Entries are ordered (interferometric, HH, VV); each weight is proportional
    to that configuration's coincidence rate times its measurement duration.
    Unequal durations compensate configuration-dependent losses.
    """
    durations = np.asarray(durations, dtype=float).reshape(-1)
    rates = np.asarray(rates, dtype=float).reshape(-1)
    if durations.shape != (3,) or rates.shape != (3,):
        raise ValueError("expected 3 durations and 3 rates (interferometric, HH, VV)")
    for name, values in (("durations", durations), ("rates", rates)):
        if not np.all(values >= 0):
            raise ValueError(f"schedule {name} must be non-negative, got {values.tolist()}")
    # An overflow or inf * 0 leaves a total that fails the check below.
    with np.errstate(over="ignore", invalid="ignore"):
        weights = durations * rates
        total = weights.sum()
    if not 0 < total < math.inf:
        raise ValueError(f"schedule yields total weight {total}, expected a positive finite number")
    weights = weights / total
    return MixingModel(
        visibility=float(visibility), w_singlet=weights[0], w_hh=weights[1], w_vv=weights[2]
    )


def werner_mixing_model(p: float) -> MixingModel:
    """Mixing-protocol parameters that prepare a Werner state of parameter ``p``.

    Inverse of :func:`mixed_state_from_model` on the Werner family:
    V = 2p/(1+p), w_singlet = (1+p)/2, w_hh = w_vv = (1-p)/4.
    """
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise OutOfRange(f"mixing protocol requires 0 <= p <= 1, got {p}")
    return MixingModel(
        visibility=2.0 * p / (1.0 + p),
        w_singlet=(1.0 + p) / 2.0,
        w_hh=(1.0 - p) / 4.0,
        w_vv=(1.0 - p) / 4.0,
    )


def run_sweep_experiment(p: float, angles, config: ExperimentConfig) -> list[SweepPoint]:
    """Simulate a sweep over meter analyzer angles for a Werner state.

    ``angles`` is a sequence of ``(theta_deg, basis)`` pairs with basis "hv"
    or "xy".  Point ``i`` uses RNG stream ``i``.
    """
    state = werner(p)
    angles = list(angles)
    signal_axes = {basis: signal_measurement(basis).axis for basis in {b for _, b in angles}}
    records = _simulate_stack(
        state,
        _polarization_axes([theta for theta, _ in angles]),
        np.array([signal_axes[basis] for _, basis in angles]).reshape(-1, 3),
        config,
        range(len(angles)),
    )
    points = []
    for (theta_deg, basis), counts in zip(angles, records):
        k_hat = estimate_knowledge(counts)
        p_hat = estimate_apriori(counts)
        prediction = werner_prediction(p, theta_deg, theta_deg)
        theory = prediction.K if basis == "hv" else prediction.K_prime
        points.append(
            SweepPoint(float(theta_deg), basis, counts, k_hat, p_hat, k_hat - p_hat, theory)
        )
    return points


def simulate_bell_records(
    state: TwoQubitState, config: ExperimentConfig, stream_offset: int = BELL_STREAM_OFFSET
) -> tuple[CountRecord, ...]:
    """Simulated counts at the four Bell-angle pairs (streams offset to avoid
    colliding with sweep points)."""
    meter_degs, signal_degs = zip(*BELL_ANGLE_PAIRS)
    streams = range(stream_offset, stream_offset + len(BELL_ANGLE_PAIRS))
    return tuple(
        _simulate_stack(
            state, _polarization_axes(meter_degs), _polarization_axes(signal_degs), config, streams
        )
    )


def bell_estimate_stderr(records) -> float:
    """Binomial standard error of the Bell-factor estimate from four records."""
    variance = 0.0
    for record in records:
        total = _require_counts(record)
        correlation = estimate_correlation(record)
        variance += max(0.0, 1.0 - correlation * correlation) / total
    return math.sqrt(variance)
