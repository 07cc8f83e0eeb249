"""Coincidence-counting experiment simulator and count-based estimators.

Count sign convention: in ``C^{ab}`` the first sign is the meter outcome and
the second the signal outcome.  Shot noise is modeled as an independent
Poisson draw per outcome channel with a flat accidental-coincidence term; the
generator is counter-based (Philox) with one stream per (point, channel), so
fixed seeds give bit-identical counts on every platform, and each point's
counts depend only on the seed and the point's stream index.

Every simulation path evaluates its points as one stack: the state is read
once as its correlation matrix ``R_ij = tr[rho (sigma_i x sigma_j)]``, and the
Born-rule probabilities of all points come from one einsum over R and the
points' analyzer axes, the same operations per point as
:func:`coincidence_probs` on its own.  One Philox generator is then reset to
each (point, channel) stream in turn, so the counts are those of a generator
built fresh for that stream.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .core import (
    QubitMeasurement,
    TwoQubitState,
    _analyzer_directions,
    _array,
    _correlation_stack,
    _Frozen,
    _integer,
    _is_integer,
    _real,
    _set,
    _unit_axes,
    measurement_from_polarization_angle,
    validate_state,
)
from .errors import EmptyRecord, OutOfRange
from .factories import (
    BELL_KETS,
    KET_HH,
    KET_HV,
    KET_VH,
    KET_VV,
    _philox_streams,
    _werner_prediction,
    werner,
)

# Meter/signal analyzer angle pairs (degrees) used for the Bell-factor estimate.
BELL_ANGLE_PAIRS = ((22.5, 45.0), (67.5, 45.0), (22.5, 0.0), (67.5, 0.0))

SIGNAL_BASES = ("hv", "xy")

# Bell records draw from the four streams from here on, above the streams of
# the sweep points that share their seed.
BELL_STREAM_OFFSET = 1_000_000
# A stream's four channel words, stream << 2 | channel, must fit in 64 bits.
STREAM_LIMIT = 2**62
# numpy's Generator.poisson refuses a larger mean (about 9.2e18).
POISSON_MEAN_MAX = float(np.iinfo(np.int64).max) - 10.0 * math.sqrt(np.iinfo(np.int64).max)


class CountRecord(_Frozen):
    """Four coincidence counts; first index sign = meter outcome, second = signal."""

    __slots__ = ("c_pp", "c_pm", "c_mp", "c_mm")

    def __init__(self, c_pp: int, c_pm: int, c_mp: int, c_mm: int):
        for name, value in zip(self.__slots__, (c_pp, c_pm, c_mp, c_mm)):
            # An integer or an integral float such as 3.0; not a bool, an inf or a NaN.
            integral = isinstance(value, (float, np.floating)) and value.is_integer()
            if not (_is_integer(value) or integral) or value < 0:
                raise ValueError(f"count {name} must be a non-negative integer, got {value!r}")
            _set(self, name, int(value))

    @property
    def total(self) -> int:
        return self.c_pp + self.c_pm + self.c_mp + self.c_mm


class ExperimentConfig(_Frozen):
    """Noise model parameters for one measurement point.

    ``pair_rate``, the detected pair rate (detector efficiency folded in), and
    ``dark_coincidence_rate``, the accidental rate per outcome channel, are in
    1/s; they and ``duration`` are finite ints or floats >= 0, ``seed`` any integer.
    """

    __slots__ = ("pair_rate", "duration", "dark_coincidence_rate", "seed")

    def __init__(
        self, pair_rate: float, duration: float, dark_coincidence_rate: float = 0.0, seed: int = 0
    ):
        # Written so that a NaN fails each check.
        for name, value in zip(self.__slots__, (pair_rate, duration, dark_coincidence_rate)):
            value = _real(value, name)
            if not 0 <= value < math.inf:
                raise ValueError(f"{name} must be a finite non-negative number, got {value!r}")
            _set(self, name, value)
        _set(self, "seed", _integer(seed, "seed"))


class MixingModel(_Frozen):
    """Three-component preparation of a noisy singlet.

    ``visibility`` is the two-photon interference visibility of the singlet
    component; the weights are the effective mixing fractions (proportional
    to rate x duration of each input configuration) of the interferometric
    component and the two parallel-polarization components, each an int or float.
    """

    __slots__ = ("visibility", "w_singlet", "w_hh", "w_vv")

    def __init__(self, visibility: float, w_singlet: float, w_hh: float, w_vv: float):
        visibility, *weights = map(_real, (visibility, w_singlet, w_hh, w_vv), self.__slots__)
        if not -1e-12 <= visibility <= 1.0 + 1e-12:
            raise ValueError(f"visibility must lie in [0, 1], got {visibility}")
        if not all(weight >= -1e-12 for weight in weights):
            raise ValueError(f"mixing weights must be non-negative, got {tuple(weights)}")
        if not abs(sum(weights) - 1.0) <= 1e-10:
            raise ValueError(f"mixing weights must sum to 1, got {sum(weights)!r}")
        for name, value in zip(self.__slots__, (visibility, *weights)):
            _set(self, name, value)


class SweepPoint(NamedTuple):
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


def _outcome_rows(axes: np.ndarray) -> np.ndarray:
    """The rows ``(1, +a)`` and ``(1, -a)`` of N axes, shape (N, 2, 4)."""
    rows = np.ones((len(axes), 2, 4))
    rows[:, 0, 1:] = axes
    rows[:, 1, 1:] = -axes
    return rows


def _coincidence_stack(
    state: TwoQubitState, meter_axes: np.ndarray, signal_axes: np.ndarray
) -> np.ndarray:
    """:func:`coincidence_probs` for N (meter, signal) axis pairs, shape (N, 4).

    With the state's ``R_ij = tr[rho (sigma_i x sigma_j)]`` (``sigma_0 = 1``,
    signal index first), meter outcome ``a`` and signal outcome ``b`` (both
    +-1) along axes ``m`` and ``s`` have ``p_ab = 1/4 (1, b s) R (1, a m)^T``,
    in channel ``2a + b`` with + read as 0 and - as 1.  The four sum to
    ``R_00 = tr rho = 1``.
    """
    corr = _correlation_stack(state.matrix[np.newaxis])[0]
    signal_rows, meter_rows = _outcome_rows(signal_axes), _outcome_rows(meter_axes)
    return 0.25 * np.einsum("Nbi,ij,Naj->Nab", signal_rows, corr, meter_rows).reshape(-1, 4)


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
    ``streams[i]``, channel ``c`` of it from Philox key ``(seed, stream << 2 | c)``.
    There must be one stream per point, each an integer in ``[0, 2**62)`` so
    that its four channel words fit in 64 bits."""
    probs = _coincidence_stack(state, meter_axes, signal_axes)
    streams = list(streams)
    if len(streams) != len(probs):
        raise ValueError(
            f"expected one RNG stream per point: {len(probs)} points, {len(streams)} streams"
        )
    for stream in streams:
        if not (_is_integer(stream) and 0 <= stream < STREAM_LIMIT):
            raise ValueError(f"RNG stream must be an integer in [0, 2**62), got {stream!r}")
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
    return [CountRecord._of(*counts[i : i + 4]) for i in range(0, len(counts), 4)]


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
    """Noise-free counts: channel probabilities scaled to ``total`` (>= 0) and rounded."""
    if _integer(total, "total") < 0:
        raise ValueError(f"total must be >= 0, got {total}")
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


def _bell_records(records) -> tuple[CountRecord, ...]:
    """The four records of ``BELL_ANGLE_PAIRS``; EmptyRecord names the first with no counts."""
    records = tuple(records)
    if len(records) != 4:
        raise ValueError(f"expected 4 count records, got {len(records)}")
    for index, (record, angles) in enumerate(zip(records, BELL_ANGLE_PAIRS)):
        _require_counts(record, context=f" (record {index} at meter/signal angles {angles})")
    return records


def estimate_bell_max(records) -> float:
    """Bell factor from four count records at the angle pairs
    ``BELL_ANGLE_PAIRS``: |C(22.5,45) + C(67.5,45) + C(22.5,0) - C(67.5,0)|."""
    c1, c2, c3, c4 = (estimate_correlation(record) for record in _bell_records(records))
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

    Both hold 3 real numbers, ordered (interferometric, HH, VV); each weight is proportional
    to that configuration's coincidence rate times its measurement duration.
    Unequal durations compensate configuration-dependent losses.
    """
    durations = _array(durations, "schedule duration vector", (3,))
    rates = _array(rates, "schedule rate vector", (3,))
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
    return MixingModel(visibility, *weights)


def werner_mixing_model(p: float) -> MixingModel:
    """Mixing-protocol parameters that prepare a Werner state of parameter ``p``.

    Inverse of :func:`mixed_state_from_model` on the Werner family:
    V = 2p/(1+p), w_singlet = (1+p)/2, w_hh = w_vv = (1-p)/4, for an int or float p.
    """
    p = _real(p, "p")
    if not 0.0 <= p <= 1.0:
        raise OutOfRange(f"mixing protocol requires 0 <= p <= 1, got {p}")
    return MixingModel(
        visibility=2.0 * p / (1.0 + p),
        w_singlet=(1.0 + p) / 2.0,
        w_hh=(1.0 - p) / 4.0,
        w_vv=(1.0 - p) / 4.0,
    )


def run_sweep_experiment(
    p: float, angles, config: ExperimentConfig | None, streams=None
) -> list[SweepPoint]:
    """Sweep points over meter analyzer angles for a Werner state.

    ``angles`` is a sequence of ``(theta_deg, basis)`` pairs with basis "hv"
    or "xy".  With a ``config``, each point's counts are simulated and its
    knowledge estimated from them; point ``i`` draws from RNG stream
    ``streams[i]`` (by default ``i``), so callers that interleave several
    sweeps on one seed keep each point's counts apart.  With ``config=None``
    the points are exact: ``counts`` is None and ``k_hat`` and ``p_hat`` are
    the closed-form knowledge and a-priori knowledge of the state, which is
    decomposed once and evaluated as one stack; ``streams`` is then unused.
    """
    state = werner(p)
    angles = list(angles)
    signal_axes = {basis: signal_measurement(basis).axis for basis in {b for _, b in angles}}
    meters = _unit_axes(_analyzer_directions([theta for theta, _ in angles]))
    signals = np.array([signal_axes[basis] for _, basis in angles]).reshape(-1, 3)
    if config is None:
        from .knowledge import _knowledge_stack, _one

        records = [None] * len(angles)
        estimates = zip(*(x.tolist() for x in _knowledge_stack(*_one(state), meters, signals)))
    else:
        streams = range(len(angles)) if streams is None else streams
        records = _simulate_stack(state, meters, signals, config, streams)
        estimates = [(estimate_knowledge(c), estimate_apriori(c)) for c in records]
    points = []
    for (theta_deg, basis), counts, (k_hat, p_hat) in zip(angles, records, estimates):
        prediction = _werner_prediction(float(p), theta_deg, theta_deg)
        theory = prediction.K if basis == "hv" else prediction.K_prime
        points.append(
            SweepPoint(float(theta_deg), basis, counts, k_hat, p_hat, k_hat - p_hat, theory)
        )
    return points


def simulate_bell_records(state: TwoQubitState, config: ExperimentConfig) -> tuple[CountRecord, ...]:
    """Simulated counts at the four Bell-angle pairs, from the streams at
    ``BELL_STREAM_OFFSET`` on (above those of the sweep points)."""
    meters, signals = (_unit_axes(_analyzer_directions(degs)) for degs in zip(*BELL_ANGLE_PAIRS))
    streams = range(BELL_STREAM_OFFSET, BELL_STREAM_OFFSET + len(BELL_ANGLE_PAIRS))
    return tuple(_simulate_stack(state, meters, signals, config, streams))


def bell_estimate_stderr(records) -> float:
    """Binomial standard error of the Bell-factor estimate from the four
    records of :func:`estimate_bell_max`."""
    variance = 0.0
    for record in _bell_records(records):
        correlation = estimate_correlation(record)
        variance += max(0.0, 1.0 - correlation * correlation) / record.total
    return math.sqrt(variance)
