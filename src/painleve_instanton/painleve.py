"""The sixth Painleve equation: right-hand side, residual evaluation of a
transcendent sampled with its exact derivatives in x, a direct integrator
usable as an independent oracle, seeded with the exact slope, and the
parameter law in n (with the other published delta variant, which the
report tells apart from it).
"""

from __future__ import annotations

from dataclasses import astuple, dataclass

import numpy as np

from .errors import SingularArgument, SingularityEncountered
from .stepper import rk45_path


@dataclass(frozen=True)
class PviParams:
    """(alpha, beta, gamma, delta): real on the line family, complex
    allowed; numbers, or arrays for a stack of samples."""

    alpha: complex
    beta: complex
    gamma: complex
    delta: complex


@dataclass(frozen=True)
class PviSample:
    """Sampled transcendent: points (x_k, y_k), monotone in the underlying
    t, with y' and y'' in x where they are known (`from_jets`).  `trace`
    and `pvi-integrate` write t, x and y as the `columns.TRANSCENDENT`
    columns."""

    ts: np.ndarray
    xs: np.ndarray
    ys: np.ndarray
    yp: np.ndarray | None = None
    ypp: np.ndarray | None = None

    @classmethod
    def from_jets(cls, ts, x, y):
        """The sample of y(x) from x and y as `Jet`s in t: y' = y_t/x_t and
        y'' = (y_tt - y' x_tt)/x_t^2, the Jets' rows holding f_t and f_tt/2."""
        (x0, x1, x2), (y0, y1, y2) = x.rows, y.rows
        yp = y1 / x1
        return cls(ts, x0, y0, yp, 2.0 * (y2 - yp * x2) / (x1 * x1))

    def integrate(self, params, k, stop=None):
        """The direct integrator's sample at k..stop-1, seeded with this
        sample's y_k and y'_k."""
        ys, _ = pvi_integrate(params, self.xs[k:stop], self.ys[k], self.yp[k])
        return PviSample(self.ts[k:stop], self.xs[k:stop], ys)


def pvi_second_derivative(params, x, y, yp):
    """d2y/dx2 from the Painleve VI right-hand side, elementwise, on Python
    numbers (the direct integrator's stages, where coercing to arrays costs
    more than the arithmetic) or on arrays (the residual check).  Pure
    arithmetic: `pvi_integrate`'s flow guards the points it chooses, and a
    residual sample near {0, 1, x} fails by value.
    """
    first = 0.5 * (1.0 / y + 1.0 / (y - 1.0) + 1.0 / (y - x)) * yp * yp
    second = (1.0 / x + 1.0 / (x - 1.0) + 1.0 / (y - x)) * yp
    bracket = (params.alpha
               + params.beta * x / (y * y)
               + params.gamma * (x - 1.0) / ((y - 1.0) ** 2)
               + params.delta * x * (x - 1.0) / ((y - x) ** 2))
    tail = bracket * y * (y - 1.0) * (y - x) / (x * x * (x - 1.0) ** 2)
    return first - second + tail


def pvi_residual(sample, params):
    """y'' minus the PVI right-hand side at every sample."""
    return sample.ypp - pvi_second_derivative(params, sample.xs, sample.ys, sample.yp)


def max_pvi_residual(sample, params):
    return float(np.max(np.abs(pvi_residual(sample, params))))


def pvi_integrate(params, xs, y0, yp0):
    """Integrate PVI as a first-order system from (xs[0], y0, y'0) through
    the strictly monotone real nodes xs in one sweep.

    Steps are rejected (SingularityEncountered) when y drifts within 1e-8
    of {0, 1, x} or past the float range, a stage at x within 1e-12 of the
    fixed singular point 0 or 1 is SingularArgument, and a non-finite state
    ends in StepSizeUnderflow, without numpy warnings.  Returns the arrays (y, y')
    at the nodes.  The state's dtype follows the seed, so a real seed
    integrates in reals, and the parameters reach the flow as Python numbers.
    """
    params = PviParams(*np.array(astuple(params)).tolist())

    def flow(x, state):
        y, yp = state.tolist()
        if min(abs(y), abs(y - 1.0), abs(y - x)) < 1e-8:
            raise SingularityEncountered(x, y)
        if min(abs(x), abs(x - 1.0)) < 1e-12:
            raise SingularArgument(f"excluded coincidence at x={x}, y={y}")
        try:
            return [yp, pvi_second_derivative(params, x, y, yp)]
        except OverflowError:
            raise SingularityEncountered(x, y) from None

    with np.errstate(over="ignore", invalid="ignore"):
        states = np.array(rk45_path(flow, xs, np.array([y0, yp0])))
    return states[:, 0], states[:, 1]


def params_from_n(n, variant="intro", branch="plus"):
    """The parameter law of instanton label n: u.u = -n^2/16 in the forms of
    `isomonodromy.jimbo_miwa_params`, since u.u is a first integral.

    branch selects the sign in alpha = (n +- 2)^2 / 8; the delta variant is
    "intro" for the law's -(n^2-4)/8 and "theorem" for -(n^2-1)/8, the other
    published value.
    """
    if n % 2 == 0:
        raise ValueError("n must be odd")
    s = {"plus": 1.0, "minus": -1.0}[branch]
    if variant == "intro":
        delta = -(n * n - 4.0) / 8.0
    elif variant == "theorem":
        delta = -(n * n - 1.0) / 8.0
    else:
        raise ValueError(f"unknown delta variant {variant!r}")
    return PviParams(alpha=(n + s * 2.0) ** 2 / 8.0, beta=-n * n / 8.0,
                     gamma=n * n / 8.0, delta=delta)


# how near a measured delta must lie to a published variant to realise it
DELTA_VARIANT_TOL = 1e-6


def select_delta_variant(measured, n):
    """Which published delta variant of `params_from_n` the measured value
    realises: "intro", "theorem", or None when within DELTA_VARIANT_TOL of
    neither, or equally near both (a measurement, not a configuration error)."""
    gap = {v: abs(measured - params_from_n(n, v).delta) for v in ("intro", "theorem")}
    near, far = sorted(gap, key=gap.get)
    return near if gap[near] <= DELTA_VARIANT_TOL and gap[near] < gap[far] else None
