"""Shared raw-numpy oracles, kept independent of the library's own code paths."""

from __future__ import annotations

import numpy as np
import pytest

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
PAULI = [SX, SY, SZ]
I2 = np.eye(2, dtype=complex)


def axis_projectors(axis):
    """(+, -) projectors of a Bloch-axis measurement, built from scratch."""
    a_sigma = axis[0] * SX + axis[1] * SY + axis[2] * SZ
    return 0.5 * (I2 + a_sigma), 0.5 * (I2 - a_sigma)


def polarization_ket(theta_deg):
    theta = np.radians(theta_deg)
    return np.array([np.cos(theta), np.sin(theta)], dtype=complex)


def partial_trace_meter(rho):
    """Trace out the meter (second) qubit of a 4x4 matrix."""
    return rho.reshape(2, 2, 2, 2).trace(axis1=1, axis2=3)


def partial_trace_signal(rho):
    """Trace out the signal (first) qubit of a 4x4 matrix."""
    return rho.reshape(2, 2, 2, 2).trace(axis1=0, axis2=2)


def locally_acted(rho, a_signal, a_meter):
    """``(A_s x A_m) rho (A_s x A_m)^dag`` by np.kron, for 2x2 ``A``: the reference
    for a local unitary or filter, independent of the library's rotation of R."""
    big = np.kron(a_signal, a_meter)
    return big @ rho @ big.conj().T


def trace_oracle(rho, s_axis, m_axis):
    """(K, P, D) by the raw trace path, gamma = tr_S[((S+ - S-) x 1) rho]."""
    s_plus, s_minus = axis_projectors(s_axis)
    gamma = partial_trace_signal((np.kron(s_plus, I2) - np.kron(s_minus, I2)) @ rho)
    m_plus, m_minus = axis_projectors(m_axis)
    k = abs(np.trace(m_plus @ gamma).real) + abs(np.trace(m_minus @ gamma).real)
    p = abs(np.trace(gamma).real)
    d = float(np.sum(np.abs(np.linalg.eigvalsh(gamma))))
    return k, p, d


def coincidence_oracle(rho, m_axis, s_axis):
    """Channel probabilities (++, +-, -+, --), meter sign first, one
    ``tr[(S_b x M_a) rho]`` at a time."""
    sig, met = axis_projectors(s_axis), axis_projectors(m_axis)
    return np.array(
        [np.trace(np.kron(sig[b], met[a]) @ rho).real for a, b in ((0, 0), (0, 1), (1, 0), (1, 1))]
    )


def quaternion_rotation(q):
    """Rotation matrix of a quaternion (w, x, y, z) divided by its
    ``np.linalg.norm``, entry by entry in float64 scalars."""
    w, x, y, z = q / np.linalg.norm(q)
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def scalar_knowledge(form, m, s):
    """(K, P, D) of one meter axis ``m`` and signal axis ``s`` by the scalar
    closed forms on a Bloch form, with 1-D numpy and Python float operations:
    P = |n.s|, K = max(P, |(T^T s).m|), D = max(P, |T^T s|)."""
    p = abs(float(form.n @ s))
    direction = form.T.T @ s
    return max(p, abs(float(direction @ m))), p, max(p, float(np.linalg.norm(direction)))


def scalar_bell_max(form):
    """B_max = 2 sqrt of the two largest eigenvalues of T^T T, by a 2-D eigvalsh."""
    eigenvalues = np.linalg.eigvalsh(form.T.T @ form.T)
    return 2.0 * float(np.sqrt(max(eigenvalues[-1], 0.0) + max(eigenvalues[-2], 0.0)))


def scalar_checks(form, s, s_prime, m, m_prime):
    """The two bound checks of one instance as (sum, bound, slack, b_max)
    tuples, by the scalar closed forms: ``dK^2 + dK'^2`` against
    ``(B_max/2)^2`` (Python's float power), and ``dK(m->s)^2 + dK(m->s')^2``
    against 1.  The axes must be complementary."""

    def excess(meter, signal):
        k, p, _ = scalar_knowledge(form, meter, signal)
        return k - p

    b = scalar_bell_max(form)
    dk, dk_prime, dk_same = excess(m, s), excess(m_prime, s_prime), excess(m, s_prime)
    total, same = dk * dk + dk_prime * dk_prime, dk * dk + dk_same * dk_same
    bound = (b / 2.0) ** 2
    return (total, bound, bound - total, b), (same, 1.0, 1.0 - same, b)


def _excess_sum(form, s, s_prime):
    """Closed-form ``(D - P)^2 + (D' - P')^2`` of the frames ``(s, s')``, by row."""

    def excess(axes):
        return np.maximum(0.0, np.linalg.norm(axes @ form.T, axis=1) - np.abs(axes @ form.n))

    return excess(s) ** 2 + excess(s_prime) ** 2


def _rotation(axis, angle):
    """Rotations by ``angle`` (shape (k,)) about the unit ``axis``, shape (k, 3, 3)."""
    cross = np.array([[0.0, -axis[2], axis[1]], [axis[2], 0.0, -axis[0]], [-axis[1], axis[0], 0.0]])
    c, s = np.cos(angle)[:, None, None], np.sin(angle)[:, None, None]
    return np.eye(3) + s * cross + (1.0 - c) * (cross @ cross)


def _golden_polish(form, frames, sweeps=8, width=0.2, steps=40):
    """Raise the excess sum of each frame (rows ``R`` of shape (k, 3, 3),
    columns ``s``, ``s'``, ``s x s'``) by coordinate-wise golden-section
    searches.  The coordinates are turns of the frame about its own three
    axes and about ``n``; a turn about ``s`` or ``s'`` and one about ``n``
    keep ``n.s`` or ``n.s'``, so a frame can move along a kink of the sum.
    Each sweep takes every coordinate in turn, at the best angle in
    ``[-width, width]`` that ``steps`` golden-section steps find, and halves
    ``width`` for the next.  A turn is kept only where it raises the sum, so
    no frame gets worse."""
    ratio = (np.sqrt(5.0) - 1.0) / 2.0
    k = len(frames)
    turns = [lambda angle, e=e: frames @ _rotation(e, angle) for e in np.eye(3)]
    norm = np.linalg.norm(form.n)
    if norm > 1e-12:
        turns.append(lambda angle: _rotation(form.n / norm, angle) @ frames)

    def value(rotated):
        return _excess_sum(form, rotated[:, :, 0], rotated[:, :, 1])

    for _ in range(sweeps):
        for turn in turns:
            lo, hi = np.full(k, -width), np.full(k, width)
            for _ in range(steps):
                left, right = hi - ratio * (hi - lo), lo + ratio * (hi - lo)
                keep_left = value(turn(left)) > value(turn(right))
                hi = np.where(keep_left, right, hi)
                lo = np.where(keep_left, lo, left)
            candidate = turn((lo + hi) / 2.0)
            better = value(candidate) > value(frames)
            frames = np.where(better[:, None, None], candidate, frames)
        width /= 2.0
    return frames


def reference_excess_sum(state, frames=20000, polished=16, confirmed=4):
    """Best ``check_bound`` sum, with Helstrom meters, over signal frames found
    without the library's optimizer.  A fixed-seed uniform draw on SO(3), plus
    the six ordered pairs of singular directions of T, is ranked by the closed
    form ``(D - P)^2 + (D' - P')^2``; the best ``polished`` frames are raised
    by ``_golden_polish``, and the best ``confirmed`` of those are checked, so
    the result is a sum the library certifies as attainable."""
    import bellbound as bb

    q = np.random.default_rng(19950706).normal(size=(frames, 4))
    w, x, y, z = (q / np.linalg.norm(q, axis=1, keepdims=True)).T
    s = np.stack([1 - 2 * (y * y + z * z), 2 * (x * y + w * z), 2 * (x * z - w * y)], axis=1)
    s_prime = np.stack([2 * (x * y - w * z), 1 - 2 * (x * x + z * z), 2 * (y * z + w * x)], axis=1)
    form = bb.decompose(state)
    u = np.linalg.svd(form.T)[0]
    pairs = [(i, j) for i in range(3) for j in range(3) if i != j]
    s = np.vstack([s, [u[:, i] for i, _ in pairs]])
    s_prime = np.vstack([s_prime, [u[:, j] for _, j in pairs]])

    best = np.argsort(-_excess_sum(form, s, s_prime))[:polished]
    frames = np.stack([s[best], s_prime[best], np.cross(s[best], s_prime[best])], axis=2)
    frames = _golden_polish(form, frames)
    s, s_prime = frames[:, :, 0], frames[:, :, 1]
    result = -np.inf
    for index in np.argsort(-_excess_sum(form, s, s_prime))[:confirmed]:
        pi_s, pi_s_prime = bb.QubitMeasurement(s[index]), bb.QubitMeasurement(s_prime[index])
        check = bb.check_bound(
            state, pi_s, pi_s_prime, bb.optimal_meter(state, pi_s), bb.optimal_meter(state, pi_s_prime)
        )
        result = max(result, check.sum_of_squares)
    return result


def _projector(ket):
    ket = np.asarray(ket, dtype=complex)
    return np.outer(ket, ket.conj())


def defective_mixtures():
    """``1/2 |psi><psi| + 1/2 |HH><HH|`` with ``psi = (|HV> +- |VH>)/sqrt(2)``:
    the states whose ``eta R eta R^T`` is defective, so that filtering
    reaches Bell-diagonal form only in the limit of an infinite boost."""
    hh, hv, vh, _ = np.eye(4)
    return [0.5 * _projector((hv + sign * vh) / np.sqrt(2)) + 0.5 * _projector(hh) for sign in (1, -1)]


def filter_edge_states(floor):
    """``(id, matrix)`` for states at the edges of the filter's domain.

    A reduced state's smaller eigenvalue just below and just above ``floor``,
    on the signal side (``(1 - e)|HH><HH| + e|VV><VV|``) and on the meter side
    (``1/2 x ((1 - e)|H><H| + e|V><V|)``); rank-1 product states; the Werner
    states at ``p = -1/3`` and ``p = 1``; and the first of
    :func:`defective_mixtures`, ``psi-plus-with-hh``.
    """
    hh, hv, vh, vv = np.eye(4)
    singlet = _projector((hv - vh) / np.sqrt(2))
    rng = np.random.default_rng(19720101)
    cases = []
    for factor in (0.5, 0.999, 1.001, 2.0):
        e = factor * floor
        signal = (1 - e) * _projector(hh) + e * _projector(vv)
        cases.append((f"signal-{factor}-floor", signal))
        meter = np.kron(I2 / 2, np.diag([1 - e, e]))
        cases.append((f"meter-{factor}-floor", meter))
    for i in range(3):
        kets = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        kets /= np.linalg.norm(kets, axis=1, keepdims=True)
        cases.append((f"product-{i}", _projector(np.kron(kets[0], kets[1]))))
    cases.append(("product-hh", _projector(hh)))
    for p in (-1 / 3, 1.0):
        cases.append((f"werner-{p:.3f}", p * singlet + (1 - p) / 4 * np.eye(4)))
    cases.append(("psi-plus-with-hh", defective_mixtures()[0]))
    return cases


def turned_near_floor_draws(count=300):
    """``(e, matrix)`` for ``diag(1 - e, 0, 0, e)`` with ``e = 10**u``, u uniform
    on [-7, -6.3), turned by ``U_s x U_m``; each U is Haar, the Q of the QR of
    a complex Gaussian matrix with R's diagonal phases divided out.  The
    boosts amplify R's rounding by about 1/e, so some filtered states end just
    past the positivity limit (``default_rng(7)``, draws 4, 21 and 49)."""
    rng = np.random.default_rng(7)

    def haar():
        z = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))) / np.sqrt(2)
        q, r = np.linalg.qr(z)
        return q * (np.diag(r) / np.abs(np.diag(r)))

    draws = []
    for _ in range(count):
        e = 10 ** rng.uniform(-7, -6.3)
        draws.append((e, locally_acted(np.diag([1 - e, 0, 0, e]), haar(), haar())))
    return draws


def random_unit_vector(rng, dim=3):
    v = rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_unitary(rng):
    """Haar-ish random 2x2 unitary via QR of a complex Gaussian matrix."""
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
