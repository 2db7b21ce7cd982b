"""The sixth Painleve equation: right-hand side, residual evaluation of a
sampled transcendent, a direct integrator usable as an independent oracle,
and the closed-form parameter families in the instanton label n (both
published delta variants; the library measures which one is realised).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SingularArgument, SingularityEncountered
from .stepper import fd_weights, rk45


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

    def __len__(self):
        return len(self.xs)

    def _rows(self, residuals=None):
        """One `COLUMNS` tuple per sample; residual_abs is NaN if not given."""
        for k in range(len(self.xs)):
            r = float("nan") if residuals is None else residuals[k]
            yield (self.ts[k], self.xs[k].real, self.xs[k].imag,
                   self.ys[k].real, self.ys[k].imag, r)

    def to_csv(self, residuals=None):
        lines = [",".join(self.COLUMNS)]
        lines += [",".join(f"{v:.17g}" for v in row) for row in self._rows(residuals)]
        return "\n".join(lines) + "\n"

    def to_json_rows(self, residuals):
        """The CSV rows as dicts keyed by `COLUMNS`."""
        return [{c: float(v) for c, v in zip(self.COLUMNS, row)}
                for row in self._rows(residuals)]

    def stencil(self, k, order):
        """Fornberg weights (rows 0..order) and y values of the 5-point
        stencil centred on sample k."""
        if not 2 <= k <= len(self) - 3:
            raise IndexError("5-point stencil needs 2 <= k <= len-3")
        window = slice(k - 2, k + 3)
        return fd_weights(self.xs[window].real, self.xs[k].real, order), self.ys[window]

    def slope(self, k):
        """dy/dx at sample k from the 5-point stencil centred on it."""
        w, ys = self.stencil(k, 1)
        return np.dot(w[1], ys)


def pvi_second_derivative(params, x, y, yp):
    """d2y/dx2 from the Painleve VI right-hand side."""
    x = complex(x)
    y = complex(y)
    yp = complex(yp)
    if min(abs(y), abs(y - 1.0), abs(y - x)) < 1e-12 or min(abs(x), abs(x - 1.0)) < 1e-12:
        raise SingularArgument(f"excluded coincidence at x={x}, y={y}")
    first = 0.5 * (1.0 / y + 1.0 / (y - 1.0) + 1.0 / (y - x)) * yp * yp
    second = (1.0 / x + 1.0 / (x - 1.0) + 1.0 / (y - x)) * yp
    bracket = (params.alpha
               + params.beta * x / (y * y)
               + params.gamma * (x - 1.0) / ((y - 1.0) ** 2)
               + params.delta * x * (x - 1.0) / ((y - x) ** 2))
    tail = bracket * y * (y - 1.0) * (y - x) / (x * x * (x - 1.0) ** 2)
    return first - second + tail


def pvi_residual(sample, params, k):
    """y'' (5-point finite differences in x) minus the PVI right-hand side."""
    w, ys = sample.stencil(k, 2)
    yp = np.dot(w[1], ys)
    ypp = np.dot(w[2], ys)
    return ypp - pvi_second_derivative(params, sample.xs[k], sample.ys[k], yp)


def max_pvi_residual(sample, params):
    return max(abs(pvi_residual(sample, params, k))
               for k in range(2, len(sample) - 2))


def pvi_integrate(params, x0, y0, yp0, x1, rtol=1e-11, atol=1e-13):
    """Integrate PVI as a first-order system from (x0, y0, y'0) to x1.

    Steps are rejected (SingularityEncountered) when y drifts within 1e-8
    of {0, 1, x}.  Returns (y(x1), y'(x1)).
    """

    def flow(x, state):
        y, yp = state
        if min(abs(y), abs(y - 1.0), abs(y - x)) < 1e-8:
            raise SingularityEncountered(x, y)
        return np.array([yp, pvi_second_derivative(params, x, y, yp)])

    if x1 == x0:
        return complex(y0), complex(yp0)
    state = rk45(flow, x0, np.array([y0, yp0], dtype=complex), x1,
                 rtol=rtol, atol=atol)
    return complex(state[0]), complex(state[1])


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
    """Which published delta variant the measured value realises."""
    intro = -(n * n - 4.0) / 8.0
    theorem = -(n * n - 1.0) / 8.0
    d_intro = abs(measured - intro)
    d_theorem = abs(measured - theorem)
    if d_intro <= tol and d_intro < d_theorem:
        return "intro"
    if d_theorem <= tol and d_theorem < d_intro:
        return "theorem"
    raise ValueError(f"measured delta {measured} matches neither variant "
                     f"({intro} / {theorem})")
