"""Exception types shared across the package."""


class InputError(ValueError):
    """Raised when an operation rejects its input (bad domain, bad shape)."""


class PoisednessError(RuntimeError):
    """Raised when a collocation matrix is singular to working precision.

    ``condition_estimate`` is infinite for an exactly singular matrix
    (invalid input) and finite but past the float64 limit for a
    conditioning collapse; ``pivot_min`` is the smallest singular value
    among the solver's diagonal blocks.
    """

    def __init__(self, message: str, pivot_min: float, condition_estimate: float):
        self.pivot_min = pivot_min
        self.condition_estimate = condition_estimate
        super().__init__(message)


class WeightSumError(RuntimeError):
    """Raised when computed cubature weights miss the sum 2 in float64.

    The latitudes were valid; the moment solve lost the digits (its
    weights grow into the 1e2..1e10 range on equispaced or jittered
    latitudes from m = 16), so this is a numerical limit, not bad input.
    """


class InternalInconsistencyError(RuntimeError):
    """Raised when a guaranteed factorization step fails numerically."""
