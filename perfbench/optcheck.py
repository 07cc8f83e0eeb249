"""Independent reference for ``optimize_excess_sum``: does the optimizer miss?

For each state it takes the best ``check_bound`` sum, with ``optimal_meter``
meters, over a fixed, deterministic set of signal frames: 20000 frames from a
fixed-seed uniform draw on SO(3), plus the six ordered pairs of singular
directions of the correlation matrix.  Frames are ranked by the closed form
``(D - P)^2 + (D' - P')^2`` and the best four are evaluated with
``check_bound``, so the reference is a sum the library itself certifies as
attainable.  A state is a miss when the optimizer's sum falls below the
reference by more than 1e-9.  ``optimize_excess_sum`` is never called.

Reads ``{"states": [{"seed", "rank", "sum"}, ...]}`` on standard input and
prints ``{"misses", "base", "worst_gap", "missed"}``.
"""

from __future__ import annotations

import itertools
import json
import sys

import numpy as np

FRAME_SEED = 20040611
FRAME_COUNT = 20000
CONFIRMED = 4
MISS_MARGIN = 1e-9


def _rotations(q: np.ndarray) -> np.ndarray:
    """Rotation matrices of unit quaternions (w, x, y, z), shape (N, 3, 3)."""
    w, x, y, z = q.T
    return np.stack(
        [
            np.stack([1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)], -1),
            np.stack([2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)], -1),
            np.stack([2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)], -1),
        ],
        axis=1,
    )


def fixed_signal_pairs() -> tuple[np.ndarray, np.ndarray]:
    q = np.random.default_rng(FRAME_SEED).normal(size=(FRAME_COUNT, 4))
    frames = _rotations(q / np.linalg.norm(q, axis=1, keepdims=True))
    return frames[:, :, 0], frames[:, :, 1]


def reference_sum(state, signals: np.ndarray, signals_prime: np.ndarray) -> float:
    from bellbound import QubitMeasurement, check_bound, decompose, optimal_meter

    form = decompose(state)
    u = np.linalg.svd(form.T)[0]
    pairs = list(itertools.permutations(range(3), 2))
    s = np.vstack([signals, u[:, [i for i, _ in pairs]].T])
    s_prime = np.vstack([signals_prime, u[:, [j for _, j in pairs]].T])

    def excess(axes: np.ndarray) -> np.ndarray:
        return np.maximum(0.0, np.linalg.norm(axes @ form.T, axis=1) - np.abs(axes @ form.n))

    closed_form = excess(s) ** 2 + excess(s_prime) ** 2
    best = -np.inf
    for index in np.argsort(-closed_form)[:CONFIRMED]:
        pi_s = QubitMeasurement(s[index])
        pi_s_prime = QubitMeasurement(s_prime[index])
        check = check_bound(
            state,
            pi_s,
            pi_s_prime,
            optimal_meter(state, pi_s),
            optimal_meter(state, pi_s_prime),
        )
        best = max(best, check.sum_of_squares)
    return best


def main() -> int:
    from bellbound import random_state

    records = [r for r in json.load(sys.stdin)["states"] if "sum" in r]
    signals, signals_prime = fixed_signal_pairs()
    missed = []
    worst_gap = 0.0
    for record in records:
        reference = reference_sum(
            random_state(record["seed"], record["rank"]), signals, signals_prime
        )
        gap = reference - record["sum"]
        worst_gap = max(worst_gap, gap)
        if gap > MISS_MARGIN:
            missed.append(f"{record['seed']}:{record['rank']}")
    result = {"misses": len(missed), "base": len(records), "worst_gap": worst_gap, "missed": missed}
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
