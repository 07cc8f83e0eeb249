"""Fixed calibration work: how fast the host runs right now.

run.py starts this script as a process after every operation.  It does no
bellbound work: it imports numpy and scipy.optimize, as every bellbound
process does, then runs a fixed mix of the program's kinds of work (4x4
linear algebra, Philox draws, float formatting, a small Nelder-Mead).  Its
CPU time changes only with the host's speed, so run.py divides the
program's CPU times by it.  It prints a checksum of its results.

    python3 perfbench/calibrate.py
"""

from __future__ import annotations

import numpy as np
import scipy.optimize

ROUNDS = 30


def linear_algebra(matrices: list[np.ndarray]) -> float:
    total = 0.0
    for m in matrices:
        h = m @ m.T
        w, v = np.linalg.eigh(h)
        k = np.kron(m[:2, :2], m[2:, 2:])
        total += float(w[-1] + abs(v[0, 0]) + np.trace(k))
    return total


def draws(seed: int) -> float:
    rng = np.random.Generator(np.random.Philox(seed))
    return float(rng.poisson(50.0, size=2000).sum() + rng.random(2000).sum())


def formatting(values: np.ndarray) -> int:
    lines = [",".join(format(float(x), ".17g") for x in row) for row in values]
    return len("\n".join(lines))


def nelder_mead(shift: float) -> float:
    def objective(x: np.ndarray) -> float:
        return float(np.sum((x - shift) ** 2) + np.cos(x).sum())

    return float(scipy.optimize.minimize(objective, np.zeros(3), method="Nelder-Mead").fun)


def main() -> None:
    rng = np.random.default_rng(0)
    matrices = [rng.standard_normal((4, 4)) for _ in range(64)]
    values = rng.standard_normal((200, 8))
    checksum = 0.0
    for r in range(ROUNDS):
        checksum += linear_algebra(matrices) + draws(r) + formatting(values)
        checksum += nelder_mead(0.1 * r)
    print(f"{checksum:.6f}")


if __name__ == "__main__":
    main()
