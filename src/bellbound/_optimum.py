"""The excess-sum optimizer behind :func:`bellbound.knowledge.optimize_excess_sum`.

It maximizes the excess sum over measurements in four steps: it certifies the
seed frame against ``(B_max/2)^2``, reduces the problem to a profile over one
angle of a ridge, decides in closed form whether that profile is flat
(``_flat``), and only otherwise runs the search (``_ridge``); it imports each
module when a state first needs it.  A module of its own, which
``optimize_excess_sum`` imports when it is first called, so that the commands
that never optimize (``sweep``, ``surface``, ``simulate`` and ``verify``)
do not compile it.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .core import QubitMeasurement, TwoQubitState, _bloch_split, _frozen, _unit_axes
from .knowledge import (
    BoundCheck,
    _bell_max_stack,
    _bound_check,
    _distinguishability_stack,
    _excess_along,
    _first,
    _helstrom_stack,
    _meter_along,
    _require_complementary,
)

# A frame whose sum is within CERTIFY_TOL of the bound is within CERTIFY_TOL of
# the optimum, the accuracy the library promises (slacks are floored at -1e-9).
# It covers filtered states: the filter leaves |n| within its tolerance (1e-10;
# the closed form leaves ~1e-15), which puts the seed at most ~1e-10 below the bound.
CERTIFY_TOL = 1e-9


class ExcessOptimum(NamedTuple):
    """Measurement quadruple maximizing the excess sum, plus the bound check,
    the step of :func:`optimize_excess_sum` that returned it (``path``), the
    number of ridge angles alpha its search profiled (``evaluations``; each
    profile maximizes over the other angle exactly, 0 unless searched) and
    the largest distance from the check's sum to the optimum that the step
    leaves open (``gap_bound``; infinite for a value built by hand)."""

    pi_s: QubitMeasurement
    pi_s_prime: QubitMeasurement
    pi_m: QubitMeasurement
    pi_m_prime: QubitMeasurement
    check: BoundCheck
    path: str = "certified"
    evaluations: int = 0
    gap_bound: float = math.inf


def _optimize_excess_sum(state: TwoQubitState) -> ExcessOptimum:
    """Maximize deltaK^2 + deltaK'^2 over complementary signal pairs and meters.

    The meter measurements are always Helstrom-optimal given the signal axes,
    so the excess of axis s is ``D - P = max(0, |T^T s| - |n.s|)`` and the
    search runs over the signal frame ``(s, s')`` alone, in four steps.

    1. Certify: the seed frame, the two leading singular directions of the
       correlation matrix, is returned at once when its sum of ``(D - P)^2``
       is within ``CERTIFY_TOL`` (1e-9) of ``(B_max/2)^2``.  No frame exceeds the bound,
       so the seed is then optimal to that accuracy.  This covers every state
       with ``n = 0`` (Werner, Bell-diagonal), where the seed attains the
       bound, and the output of ``canonical.filter_normal_form``.
    2. Profile: otherwise an optimum lies on the ridge ``n.s' = 0``.  Where
       both excesses of a frame are positive, turning the frame in its own
       plane until one axis is perpendicular to ``n`` does not lower the
       sum; where one excess is 0, turning that axis about the other until
       it is perpendicular to ``n`` does not either.  A ridge frame has two
       angles: alpha turns ``s'`` about ``n`` and beta tilts ``s`` from ``n``
       towards the plane perpendicular to it.  The maximum over beta at
       fixed alpha is exact: it lies at a root of one quartic in ``tan
       beta`` or at beta = pi/2, the double ridge ``n.s = n.s' = 0``, whose
       frames all have the sum ``D0 = tr(T T^T) - n^T T T^T n / |n|^2``.
       That leaves the profile ``F(alpha) >= D0``, a function of one angle.
    3. Flat: ``_flat._is_flat`` decides in closed form whether ``F(alpha) =
       D0`` for every alpha, with a margin.  If so, every double-ridge frame
       is optimal, and one is returned with no search.
    4. Search in alpha: F is screened on 32 angles plus one closed-form
       angle where a narrow bump of F can rise off the double ridge, all in
       one numpy pass, and the best screened angle is refined by bracketed
       secant steps on the closed-form ``dF/dalpha``.  The best profiled
       frame is returned.

    The result's ``check`` is :func:`check_bound` with :func:`optimal_meter`
    meters on the returned signal pair, with B_max and each Helstrom
    direction computed once; ``path`` says which step returned it
    (``"certified"``, ``"flat"`` or ``"searched"``) and ``evaluations``
    counts the angles alpha profiled (0 unless searched).  ``gap_bound`` is
    what the step proves of the distance from the sum to the optimum: the
    bound less the sum (at least 0) when certified or searched, and the
    rounding ``|D0 - sum|`` when flat.
    """
    n, _, t = _bloch_split(state.matrix[None])
    b = _bell_max_stack(t)
    bound = (float(b[0]) / 2.0) ** 2
    seeds = np.ascontiguousarray(np.linalg.svd(t[0])[0][:, :2].T)
    excess = np.subtract(*_distinguishability_stack(n, t, seeds))
    evaluations = 0
    if (excess**2).sum() >= bound - CERTIFY_TOL:
        frame, path = seeds, "certified"
    else:
        # The flat test and the search are compiled only in the processes that run them.
        from . import _flat

        basis = np.linalg.svd(n)[2]
        m = basis @ t[0] @ t[0].T @ basis.T
        nu2 = float(n[0] @ n[0])
        if _flat._is_flat(m, nu2):
            frame, path = basis[1:], "flat"
        else:
            from . import _ridge

            frame, evaluations = _ridge._search(basis, m, nu2)
            path = "searched"
    s = _unit_axes(frame)
    _require_complementary(s[:1], s[1:])
    directions = _helstrom_stack(t, s)
    rows, degenerate = _meter_along(directions)
    axes = _frozen(np.concatenate([s, _unit_axes(rows)]))
    excess = _excess_along(n, directions, axes[2:], s)
    check = _first(_bound_check(excess[:1], excess[1:], b))
    if path == "flat":
        gap_bound = abs(float(m[1, 1] + m[2, 2]) - check.sum_of_squares)
    else:
        gap_bound = max(check.slack, 0.0)
    pis = map(QubitMeasurement._of, axes, (False, False, *map(bool, degenerate)))
    return ExcessOptimum(*pis, check, path, evaluations, gap_bound)
