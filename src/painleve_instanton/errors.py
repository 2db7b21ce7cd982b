"""Exception types raised across the library."""


class PainleveInstantonError(Exception):
    """Base class for all library errors."""


# -- 2x2 / 3x3 kernel ------------------------------------------------------

class DegenerateMatrix(PainleveInstantonError):
    """Eigen-decomposition requested for a (near-)nilpotent traceless matrix."""


class SingularMatrix(PainleveInstantonError):
    """3x3 solve hit a (near-)singular matrix."""


# -- integrator ------------------------------------------------------------

class StepSizeUnderflow(PainleveInstantonError):
    """An integrator's step fell below the roundoff of t: the right-hand
    side is singular there or not finite (NaN or infinite), or, in the BVP
    sweep, a component is so small against its own Taylor terms that the
    bound relative to it admits no step.  The message names the independent
    variable as `variable` (x on the twistor line, t in the propagation
    oracle and the BVP sweep) and gives its value as a plain float."""

    def __init__(self, t, h, variable="t"):
        super().__init__(f"step size {h:.3e} below the roundoff of {variable}={float(t)}: "
                         "singular or non-finite right-hand side")
        self.t = t
        self.h = h


class StepLimitExceeded(PainleveInstantonError):
    """An integrator took its limit of steps without reaching the end of
    its interval, at t (named `variable` in the message, a plain float)."""

    def __init__(self, t, limit, variable="t"):
        super().__init__(f"step limit of {limit} steps exceeded at {variable}={float(t)}")
        self.t = t
        self.limit = limit


# -- reduced duality ODE ---------------------------------------------------

class PoleAtEndpoint(PainleveInstantonError):
    """A coefficient function was evaluated at one of its poles."""


class DegenerateCoefficient(PainleveInstantonError):
    """A coefficient function vanished where the ODE needs to divide by it."""


class NoAnalyticBranch(PainleveInstantonError):
    """Endpoint series recursion hit an inconsistent resonance."""

    def __init__(self, order, defect):
        super().__init__(f"no analytic branch: resonance at order {order} inconsistent "
                         f"(defect {defect:.3e})")
        self.order = order
        self.defect = defect


class ShotFailed(PainleveInstantonError):
    """A boundary-value shot failed on one side: "t0" if the t = 0 series
    overflowed; "t1" if the t = 1 series overflowed, its launch state or
    the swept state has a1 = 0 or a3 = 0 (underflow), the sweep from it
    blew up, the sweep's step no longer moved t, or the swept state missed
    the t = 0 series by more than truncation can (the match defect)."""

    def __init__(self, side, reason):
        super().__init__(f"shot from {side} failed: {reason}")
        self.side = side
        self.reason = reason


# -- twistor-line geometry -------------------------------------------------

class DegenerateLine(PainleveInstantonError):
    """The line meets the divisor in fewer than four distinct points."""


class OnDivisor(PainleveInstantonError):
    """Evaluation requested at a point of the divisor (Delta = 0)."""


class QuadratureFailure(PainleveInstantonError):
    """Contour quadrature did not stabilise under radius refinement."""


# -- deformation / transcendent extraction ---------------------------------

class ReducibleSystem(PainleveInstantonError):
    """All off-diagonal couplings vanish: common eigenvector everywhere."""


class IndeterminateY(PainleveInstantonError):
    """The apparent-singularity position is not determined (or excluded)."""


class SingularArgument(PainleveInstantonError):
    """The direct PVI integrator reached x within 1e-12 of the fixed
    singular point 0 or 1."""


class SingularityEncountered(PainleveInstantonError):
    """Integration approached y in {0, 1, x} (movable/fixed singularity)."""

    def __init__(self, x, y):
        super().__init__(f"integration stopped near a singularity at x={x}, y={y}")
        self.x = x
        self.y = y


class PathTooClose(PainleveInstantonError):
    """Requested deformation path passes too close to {0, 1}."""
