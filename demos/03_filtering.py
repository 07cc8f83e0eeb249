"""Walkthrough: canonical form and the local-filtering normal form.

Local unitaries diagonalize the correlation matrix; stochastic local filters
go further and make both marginals maximally mixed (a Bell-diagonal state)
while never decreasing the Bell factor.  The filters are read off in closed
form, as the boosts of the Lorentz singular value decomposition of the
correlation matrix R.  After filtering, the excess-sum bound can always be
saturated by a suitable measurement choice.
"""

import numpy as np

import bellbound as bb

np.set_printoptions(precision=4, suppress=True)

# --- canonical form -----------------------------------------------------------
state = bb.random_state(seed=21, ancilla_dim=3)
cf = bb.canonical_form(state)
print("random mixed state:")
print("  T:\n", bb.decompose(state).T)
print("  canonical diagonal:", cf.diag)
assert np.allclose(
    bb.apply_local_unitary(cf.state_bar, cf.u_signal, cf.u_meter).matrix, state.matrix, atol=1e-12
)
print("  Bell factor before/after rotation:", bb.bell_max(state), bb.bell_max(cf.state_bar))

# --- filtering a partially entangled pure state ---------------------------------
# cos(a)|HH> + sin(a)|VV> filters into a maximally entangled state
alpha = np.radians(25.0)
ket = np.zeros(4, dtype=complex)
ket[0], ket[3] = np.cos(alpha), np.sin(alpha)
pure = bb.validate_state(np.outer(ket, ket.conj()))
result = bb.filter_normal_form(pure)
print("\npartially entangled pure state (alpha = 25 deg):")
print(f"  B_max {result.b_max_in:.4f} -> {result.b_max_out:.4f} (2*sqrt(2) = {2*np.sqrt(2):.4f})")
print(f"  success probability {result.success_probability:.4f}")
# A pure state's decomposition is not unique; the filter takes the smallest
# signal boost, so here the meter filter does all the work.
print("  meter filter:\n", result.f_meter)

# --- filtering a generic mixed state ---------------------------------------------
mixed = bb.random_state(seed=4, ancilla_dim=4)
result, check = bb.saturate_after_filter(mixed)
print("\nrandom full-rank mixed state:")
print(f"  filtered in closed form, {result.iterations} polish round(s)")
print(f"  B_max {result.b_max_in:.4f} -> {result.b_max_out:.4f} (never decreases)")
print(
    f"  post-filter optimized excess sum = {check.sum_of_squares:.6f} vs bound "
    f"{check.bound:.6f} (slack {check.slack:.2e})"
)
print("The filtered state is Bell diagonal, so the bound is saturated exactly.")

# --- where the normal form does not exist ------------------------------------------
hh = np.zeros((4, 4), dtype=complex)
hh[0, 0] = 1.0
try:
    bb.filter_normal_form(bb.validate_state(hh))
except bb.SingularReduction as err:
    print("\npure product input:", err)

# 1/2 |Psi-><Psi-| + 1/2 |HH><HH| has a defective Lorentz spectrum: its normal
# form is reached only with an infinite boost, so the filter stops at once.
singlet = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2)
try:
    bb.filter_normal_form(bb.validate_state(0.5 * np.outer(singlet, singlet) + 0.5 * hh))
except bb.SingularReduction as err:
    print("singlet mixed with |HH>:", err)
