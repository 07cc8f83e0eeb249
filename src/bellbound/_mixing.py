"""The three-component mixing protocol that prepares a noisy singlet, and the
mixing weights of a measurement schedule.

A module of its own, apart from :mod:`bellbound.expsim`, so that the commands
that prepare no state by a schedule do not compile it; ``simulate`` imports
it when it is given a schedule.
"""

from __future__ import annotations

import math

import numpy as np

from .core import TwoQubitState, _array, _Frozen, _real, validate_state
from .errors import OutOfRange
from .factories import BELL_KETS, KET_HH, KET_HV, KET_VH, KET_VV


class MixingModel(_Frozen):
    """Three-component preparation of a noisy singlet.

    ``visibility`` is the two-photon interference visibility of the singlet
    component; the weights are the effective mixing fractions (proportional
    to rate x duration of each input configuration) of the interferometric
    component and the two parallel-polarization components, each an int or float.
    """

    __slots__ = ("visibility", "w_singlet", "w_hh", "w_vv")
    _rules = dict.fromkeys(__slots__, _real)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        visibility, *weights = self._values()
        if not -1e-12 <= visibility <= 1.0 + 1e-12:
            raise ValueError(f"visibility must lie in [0, 1], got {visibility}")
        if not all(weight >= -1e-12 for weight in weights):
            raise ValueError(f"mixing weights must be non-negative, got {tuple(weights)}")
        if not abs(sum(weights) - 1.0) <= 1e-10:
            raise ValueError(f"mixing weights must sum to 1, got {sum(weights)!r}")


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
