"""Shared exception types.

Domain errors (bad arguments) are plain ValueError; the classes here mark
numerical failures that callers may want to catch and react to.
"""


class NumericalError(RuntimeError):
    """Base class for numerical failures (as opposed to bad arguments);
    ``key`` names the function, of several evaluated together, that failed:
    a ``locate_zeros`` key or the order of an order-array call, or None."""

    def __init__(self, *args, key=None):
        super().__init__(*args)
        self.key = key


class QuadratureError(NumericalError):
    """Adaptive quadrature did not reach the requested tolerance.

    Carries the best estimate and the achieved error bound so a caller can
    decide whether the partial result is still usable.
    """

    def __init__(self, message, estimate=None, achieved_error=None):
        super().__init__(message)
        self.estimate = estimate
        self.achieved_error = achieved_error


class BoundaryConflictError(NumericalError):
    """A zero is suspected on (or too close to) a contour used for winding.

    The winding number is undefined in that situation; callers should perturb
    the contour and retry.
    """


class EvaluationOverflowError(NumericalError):
    """A special-function value exceeded double range.

    Raised instead of silently returning inf so that callers never mistake a
    saturated value for a finite one.
    """
