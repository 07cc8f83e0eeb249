"""Exception types raised by the library.

Every validation error names the failed check and the offending magnitude so
that callers (and the CLI) can report actionable diagnostics.  A message
quotes the tolerance its check reads, imported when the message is built,
since ``core`` and ``canonical`` import this module.
"""

from __future__ import annotations


class BellboundError(Exception):
    """Base class for all library-specific errors."""


class StateValidationError(BellboundError):
    """A candidate density matrix failed validation."""


class NotHermitian(StateValidationError):
    def __init__(self, deviation: float):
        from .core import VALIDATION_TOL as limit
        self.deviation = float(deviation)
        super().__init__(
            f"matrix is not Hermitian: max |A - A^dag| = {self.deviation:.6e} (limit {limit})"
        )


class TraceNotOne(StateValidationError):
    def __init__(self, trace: float):
        from .core import VALIDATION_TOL as limit
        self.trace = float(trace)
        super().__init__(
            f"matrix trace is not one: |tr - 1| = {abs(self.trace - 1.0):.6e} (limit {limit})"
        )


class NotPositive(StateValidationError):
    def __init__(self, min_eigenvalue: float):
        from .core import VALIDATION_TOL as limit
        self.min_eigenvalue = float(min_eigenvalue)
        super().__init__(
            f"matrix is not positive semidefinite: min eigenvalue = {self.min_eigenvalue:.6e}"
            f" (limit {-limit})"
        )


class NotUnitary(BellboundError):
    def __init__(self, deviation: float):
        from .core import VALIDATION_TOL as limit
        self.deviation = float(deviation)
        super().__init__(
            f"matrix is not unitary: max |U^dag U - 1| = {self.deviation:.6e} (limit {limit})"
        )


class NotRotation(BellboundError):
    def __init__(self, message: str):
        super().__init__(f"matrix is not a proper rotation: {message}")


class NotComplementary(BellboundError):
    def __init__(self, dot: float):
        from .core import COMPLEMENTARITY_TOL as limit
        self.dot = float(dot)
        super().__init__(
            f"signal measurements are not complementary: |a . a'| = {abs(self.dot):.6e}"
            f" (limit {limit})"
        )


class OutOfRange(BellboundError):
    """A scalar parameter lies outside its physical range."""


class NotAProbabilityVector(BellboundError):
    """Mixture weights are negative or do not sum to one."""


class SingularReduction(BellboundError):
    def __init__(self, side: str, min_eigenvalue: float, state: str = "reduced state"):
        from .canonical import REDUCTION_EIGENVALUE_FLOOR as limit
        self.side = side
        self.min_eigenvalue = float(min_eigenvalue)
        super().__init__(
            f"{side} {state} is rank deficient: min eigenvalue = {self.min_eigenvalue:.6e}"
            f" (floor {limit}); the filtering normal form degenerates"
        )


class NoConvergence(BellboundError):
    def __init__(self, iterations: int, deviation: float):
        self.iterations = int(iterations)
        self.deviation = float(deviation)
        super().__init__(
            f"filter iteration did not converge after {self.iterations} iterations"
            f" (residual deviation {self.deviation:.6e})"
        )


class EmptyRecord(BellboundError):
    """A coincidence-count record with zero total was passed to an estimator."""
