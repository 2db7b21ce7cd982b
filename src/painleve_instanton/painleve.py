"""The sixth Painleve equation: right-hand side, residual evaluation of a
sampled transcendent and a direct integrator usable as an independent oracle,
both on the `Stencil` of its grid, and the closed-form parameter families in
n (both published delta variants; the library measures which one is realised).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .columns import Rows, csv_blocks
from .errors import SingularArgument, SingularityEncountered
from .stepper import Stencil, rk45_path


@dataclass(frozen=True)
class PviParams:
    alpha: complex
    beta: complex
    gamma: complex
    delta: complex

    def as_dict(self):
        return {k: {"re": float(getattr(self, k).real), "im": float(getattr(self, k).imag)}
                for k in ("alpha", "beta", "gamma", "delta")}


@dataclass(frozen=True)
class PviSample:
    """Sampled transcendent: points (x_k, y_k), monotone in the underlying t."""

    ts: np.ndarray
    xs: np.ndarray
    ys: np.ndarray

    COLUMNS = ("t", "x_re", "x_im", "y_re", "y_im", "residual_abs")
    JSON_ROW = dict.fromkeys(COLUMNS)

    def __len__(self):
        return len(self.xs)

    def _columns(self, residuals):
        """The `COLUMNS` as arrays."""
        return (self.ts, self.xs.real, self.xs.imag, self.ys.real, self.ys.imag,
                residuals)

    def to_csv(self, residuals):
        return csv_blocks(self.COLUMNS, self._columns(residuals))

    def json_array(self, residuals):
        """The CSV rows as `Rows` of objects keyed by `COLUMNS`."""
        return Rows(self.JSON_ROW, self._columns(residuals))

    def integrate(self, params, stencil, k, stop=None):
        """The direct integrator's sample at k..stop-1, seeded with this
        sample's y_k and its slope y'_k from the x grid's `Stencil`, at the
        stencil's interior sample k."""
        yp = stencil.derivative(self.ys, 1)[k - stencil.INNER.start]
        ys, _ = pvi_integrate(params, self.xs[k:stop].real, self.ys[k], yp)
        return PviSample(self.ts[k:stop], self.xs[k:stop], ys)


# the argument types pvi_second_derivative computes on without coercion
_NUMBERS = (int, float, complex)


def pvi_second_derivative(params, x, y, yp):
    """d2y/dx2 from the Painleve VI right-hand side, elementwise.

    Python numbers are computed on as they are: the direct integrator calls
    this once per stage, where coercing to arrays costs more than the
    arithmetic.  Anything else is coerced to complex arrays.
    """
    if type(x) in _NUMBERS and type(y) in _NUMBERS and type(yp) in _NUMBERS:
        if min(abs(y), abs(y - 1.0), abs(y - x), abs(x), abs(x - 1.0)) < 1e-12:
            raise SingularArgument(f"excluded coincidence at x={x}, y={y}")
    else:
        x, y, yp = (np.asarray(v, dtype=complex) for v in (x, y, yp))
        gap = np.minimum.reduce([abs(y), abs(y - 1.0), abs(y - x), abs(x), abs(x - 1.0)])
        excluded = gap < 1e-12
        if excluded.any():
            k = np.argmax(np.ravel(excluded))
            raise SingularArgument(f"excluded coincidence at x={np.ravel(x)[k]}, "
                                   f"y={np.ravel(y)[k]}")
    first = 0.5 * (1.0 / y + 1.0 / (y - 1.0) + 1.0 / (y - x)) * yp * yp
    second = (1.0 / x + 1.0 / (x - 1.0) + 1.0 / (y - x)) * yp
    bracket = (params.alpha
               + params.beta * x / (y * y)
               + params.gamma * (x - 1.0) / ((y - 1.0) ** 2)
               + params.delta * x * (x - 1.0) / ((y - x) ** 2))
    tail = bracket * y * (y - 1.0) * (y - x) / (x * x * (x - 1.0) ** 2)
    return first - second + tail


def pvi_residual(sample, params, stencil=None):
    """y'' minus the PVI right-hand side at the interior samples of the x
    grid's `Stencil` (built if not given), which gives y' and y''."""
    stencil = stencil or Stencil(sample.xs.real)
    yp, ypp = (stencil.derivative(sample.ys, order) for order in (1, 2))
    k = Stencil.INNER
    return ypp - pvi_second_derivative(params, sample.xs[k], sample.ys[k], yp)


def max_pvi_residual(sample, params, stencil=None):
    return float(np.max(np.abs(pvi_residual(sample, params, stencil))))


def pvi_integrate(params, xs, y0, yp0):
    """Integrate PVI as a first-order system from (xs[0], y0, y'0) through
    the strictly monotone real nodes xs in one sweep.

    Steps are rejected (SingularityEncountered) when y drifts within 1e-8
    of {0, 1, x}.  Returns the arrays (y, y') at the nodes.
    """

    def flow(x, state):
        y, yp = state.tolist()
        if min(abs(y), abs(y - 1.0), abs(y - x)) < 1e-8:
            raise SingularityEncountered(x, y)
        return np.array([yp, pvi_second_derivative(params, x, y, yp)])

    states = np.array(rk45_path(flow, xs, np.array([y0, yp0], dtype=complex),
                                rtol=1e-11, atol=1e-13))
    return states[:, 0], states[:, 1]


def params_from_n(n, variant="intro", branch="plus"):
    """Closed-form parameter quadruple for instanton label n.

    branch selects the sign in alpha = (n +- 2)^2 / 8; the delta variant is
    "intro" for -(n^2-4)/8 and "theorem" for -(n^2-1)/8 (the two published
    values; the measured one is "intro").
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


def select_delta_variant(measured, n, tol=1e-6):
    """Which published delta variant the measured value realises: "intro",
    "theorem", or None if it is within tol of neither (a measurement, not
    a configuration error)."""
    intro = -(n * n - 4.0) / 8.0
    theorem = -(n * n - 1.0) / 8.0
    d_intro = abs(measured - intro)
    d_theorem = abs(measured - theorem)
    if d_intro <= tol and d_intro < d_theorem:
        return "intro"
    if d_theorem <= tol and d_theorem < d_intro:
        return "theorem"
    return None
