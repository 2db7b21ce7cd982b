"""Per-line twistor data for the family of rational lines parametrised by
t in (0, 1): the infinitesimal-action matrix, its inverse (in closed form
on the line's tangent direction), the four divisor poles and the Moebius
normalisation to {0, 1, x, infinity} (for the oracles), the cross ratio x(t)
and the residues of the scalar 1-forms in closed form in t (the pipeline's),
and assembly of the rank-2 Fuchsian residues from a profile.

The residues have Klein-four structure: alpha_{i,p} = alpha_{i,0} SIGNS[i-1, p].
With u = a * alpha_{.,0} (profile values times the base column), the
Fuchsian residues are A_p = m_p.X with m_p = -SIGNS[:, p] * u, all of
determinant u.u, and y and the PVI parameters are closed forms in u.

The family is carried in its real form (`liealg`): alpha_{1,0} and
alpha_{2,0} are imaginary and alpha_{3,0} is real, so alpha_{.,0} =
REAL_FORM * w_hat (`residue_closed_form` returns the real w_hat), and with
real a every u = REAL_FORM * w, w = a * w_hat real, and u.u = -w1^2 - w2^2
+ w3^2.  x(t) is real too, in (1, infinity) for t in (0, 1).  No command
builds a complex number for the residues: `cli` fills the JSON trace's
2x2 residues' nonzero cells (`columns.TWISTOR_ROW`) straight from the real
m_p, and only `FuchsianData.residues`, which the tests compare against,
builds the complex matrices.

Conventions fixed here (and relied on everywhere downstream):

* the action matrix is stored in the complex basis
  {-i X1, (X2 + i X3)/2, -(X2 - i X3)/2}; columns act on that basis, rows
  are (d/dlam, d/dmu, d/dzeta) components;
* det(alpha) = -Delta(t, lam) on the line holds exactly;
* mu_plus * mu_minus = 1 is enforced by computing mu_plus = 1/mu_minus
  (the difference form suffers catastrophic cancellation as t -> 0);
* square roots of the negative reals mu_+- are taken with negative
  imaginary part, so the pole sent to infinity lies in the lower half
  plane; with this labelling the residue alpha_{2,inf} tends to +i/4 as
  t -> 1;
* the line geometry, the residue column and `fuchsian_data` broadcast over
  an array of t: leading axes index samples, trailing axes are the object's
  own (3 profile components, the 3 column entries and w, the 4 x 3 residue
  vectors).  A float t stays in Python floats (square roots are `** 0.5`,
  not np.sqrt).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DegenerateLine, OnDivisor, QuadratureFailure
from .instanton import ODE_EXPONENTS, ROOTS
from .liealg import METRIC, REAL_FORM, solve3, stack_trailing, su2_combination
from .stepper import Jet

SQRT3 = math.sqrt(3.0)

# columns: coordinates of X1, X2, X3 in the complex basis
COMPLEX_BASIS = np.array([[1j, 0, 0], [0, 1, -1j], [0, -1, -1j]])
COMPLEX_BASIS.setflags(write=False)

# residue of alpha_i at pole p = (0, 1, x, inf) over the base column entry
# alpha_{i,0}; each row sums to zero (residue theorem)
SIGNS = np.array([[1, -1, -1, 1], [1, 1, -1, -1], [1, -1, 1, -1]])
SIGNS.setflags(write=False)


def alpha_matrix(lam, mu, zeta):
    """3x3 matrix of the infinitesimal action at (lam, mu, zeta)."""
    return np.array([
        [-6.0 * lam, SQRT3 * zeta, -SQRT3 * lam * mu],
        [-2.0 * mu, SQRT3, 2.0 * zeta - SQRT3 * mu * mu],
        [-4.0 * zeta, 2.0 * mu, SQRT3 * lam - SQRT3 * mu * zeta],
    ], dtype=complex)


def delta(t, lam):
    """Quartic whose roots are the four divisor poles of the line."""
    S = t**4 + 18.0 * t * t - 27.0
    return (8.0 * t**3 * lam**4 - 2.0 * S * lam * lam + 8.0 * t**3) / 3.0


def line_point(t, lam):
    """Affine coordinates of the line point with parameter lam."""
    return lam, t * lam / SQRT3, t / SQRT3


def line_tangent(t, lam):
    """Velocity of the line point under d/dlam."""
    return np.array([1.0, t / SQRT3, 0.0], dtype=complex)


def line_transverse(t, lam):
    """Velocity of the line point under d/dt at fixed lam."""
    return np.array([0.0, lam / SQRT3, 1.0 / SQRT3], dtype=complex)


def alpha_inv(t, lam, vec):
    """Coefficients on (X1, X2, X3) of the action-inverse of `vec`."""
    m = alpha_matrix(*line_point(t, lam)) @ COMPLEX_BASIS
    return solve3(m, vec)


def alpha_inv_tangent(t, lam):
    """Closed-form coefficients (c1, c2, c3) of alpha^{-1} on the tangent.

    Cross-validated against the 3x3 solve route in the test suite; raises
    OnDivisor when Delta vanishes (the point lies on the divisor).
    """
    d = delta(t, lam)
    if abs(d) <= 1e-13:
        raise OnDivisor(f"Delta({t}, {lam}) = {d}")
    c1 = 1j * (t * t - 1.0) * (t * t - 9.0) * lam / (3.0 * d)
    c2 = -2.0 * t * (t + 1.0) * (t - 3.0) * (lam * lam + 1.0) / (3.0 * d)
    c3 = 2j * t * (t - 1.0) * (t + 3.0) * (1.0 - lam * lam) / (3.0 * d)
    return np.array([c1, c2, c3])


# --------------------------------------------------------------------------
# line geometry
# --------------------------------------------------------------------------

def _require_inside(t, what):
    """Raises DegenerateLine naming the first t outside (0, 1); a float
    inside passes on one comparison, a tenth of the numpy test's cost."""
    if isinstance(t, float) and 0.0 < t < 1.0:
        return
    inside = np.logical_and(0.0 < t, t < 1.0)
    if not inside.all():
        raise DegenerateLine(f"{what} at t = {np.asarray(t)[~inside][0]}")


def mu_pair(t):
    """(mu_plus, mu_minus): both negative real with product exactly 1."""
    _require_inside(t, "line meets the divisor in two points")
    S = t**4 + 18.0 * t * t - 27.0
    D = (t * t - 1.0) * (t * t - 9.0) ** 3
    mu_minus = (S - D**0.5) / (8.0 * t**3)
    return 1.0 / mu_minus, mu_minus


def _sqrt_neg(x):
    """Branch convention: sqrt of a negative real with Im < 0."""
    return -1j * (-x) ** 0.5


@dataclass(frozen=True)
class LineGeometry:
    t: np.ndarray
    mu_plus: np.ndarray
    mu_minus: np.ndarray
    poles_lambda: tuple  # (z1, z2, z3, z4)
    mobius: tuple        # (a, b, c, d): T(z) = (a z + b)/(c z + d)
    x: np.ndarray


def poles(t):
    """Divisor intersection data of the line at parameter t."""
    mu_p, mu_m = mu_pair(t)
    z1 = -_sqrt_neg(mu_m)
    z2 = -_sqrt_neg(mu_p)
    z3, z4 = -z2, -z1
    mob = mobius_from_poles(z1, z2, z4)
    x = mobius_apply(mob, z3)
    return LineGeometry(t=t, mu_plus=mu_p, mu_minus=mu_m,
                        poles_lambda=(z1, z2, z3, z4), mobius=mob, x=x)


def cross_ratio(t):
    """Cross ratio x(t) = (t+1)(t-3)^3 / ((t-1)(t+3)^3) of the four poles
    under z1,z2,z4 -> 0,1,inf: real, increasing from 1 to infinity on (0, 1)."""
    _require_inside(t, "cross ratio undefined")
    return (t + 1.0) * (t - 3.0) ** 3 / ((t - 1.0) * (t + 3.0) ** 3)


_X_EXPONENTS = np.array([0.0, -1.0, 1.0, 3.0, -3.0])  # x's powers of t - a, a in ROOTS


def dlog_x(t):
    """x'(t)/x(t) = 1/(t+1) + 3/(t-3) - 1/(t-1) - 3/(t+3)
    = 16 t^2 / ((t^2 - 1)(t^2 - 9)), the logarithmic derivative of `cross_ratio`."""
    return 16.0 * t * t / ((t * t - 1.0) * (t * t - 9.0))


def mobius_from_poles(z1, z2, z4):
    """Coefficients of T(z) = ((z - z1)(z2 - z4)) / ((z - z4)(z2 - z1))."""
    if (np.minimum(np.minimum(abs(z1 - z2), abs(z1 - z4)), abs(z2 - z4)) < 1e-12).any():
        raise DegenerateLine("coincident poles")
    return (z2 - z4, -z1 * (z2 - z4), z2 - z1, -z4 * (z2 - z1))


def mobius_apply(co, z):
    a, b, c, d = co
    return (a * z + b) / (c * z + d)


def _inverse_pack(t):
    """Inverse-map coefficients lam(w) = (A w + B)/(C w + D)."""
    z1, z2, _, z4 = poles(t).poles_lambda
    return z4 * (z2 - z1), -z1 * (z2 - z4), z2 - z1, -(z2 - z4)


def lambda_of_normalized(t, w):
    A, B, C, D = _inverse_pack(t)
    return (A * w + B) / (C * w + D)


def dlambda_dw(t, w):
    A, B, C, D = _inverse_pack(t)
    return (A * D - B * C) / (C * w + D) ** 2


# --------------------------------------------------------------------------
# residues of the scalar 1-forms
# --------------------------------------------------------------------------

def residue_closed_form(t):
    """Closed-form residues at pole 0, the base column alpha_{.,0} =
    REAL_FORM * w_hat, as the real w_hat (..., 3):

        alpha_{1,0} = -i/4 sqrt((1-t)(1+t) / ((3-t)(3+t)))
        alpha_{2,0} = -i/4 sqrt((1+t) / (t (3-t)))
        alpha_{3,0} =  1/4 sqrt((1-t) / (t (3+t)))

    Derivation.  The poles give alpha_{1,0} = -i (t^2-1)(t^2-9)/(16 t^3 mu),
    alpha_{2,0} = (mu_- + 1) t (t+1)(t-3)/(8 t^3 mu z1) and alpha_{3,0} =
    i (mu_+ - 1) t (t-1)(t+3)/(8 t^3 mu z2), with mu = mu_+ - mu_-,
    z1^2 = mu_- and z2^2 = mu_+ (`poles`).  The mu quadratic
    8 t^3 mu^2 - 2 S mu + 8 t^3 = 0 gives mu_+ + mu_- = S/(4 t^3) and
    mu_+ mu_- = 1, and S +- 8 t^3 = (t +- 3)^3 (t -+ 1), so
    mu^2 = (t^2-1)(t^2-9)^3/(16 t^6), (mu_- + 1)^2/mu_- = (t+3)^3 (t-1)/(4 t^3)
    and (mu_+ - 1)^2/mu_+ = (t-3)^3 (t+1)/(4 t^3): each entry squared is
    rational in t, and the branch of z1 and z2 fixes the signs.  No mu_+-
    difference is taken, so nothing cancels as t -> 1.  The residue of
    alpha_i at pole p is REAL_FORM[i-1] * w_hat[i-1] * SIGNS[i-1, p];
    alpha_{1,0} is purely imaginary, so the conjugation relating its poles
    is negation.
    """
    _require_inside(t, "line meets the divisor in two points")
    w1 = -0.25 * ((1.0 - t) * (1.0 + t) / ((3.0 - t) * (3.0 + t))) ** 0.5
    w2 = -0.25 * ((1.0 + t) / (t * (3.0 - t))) ** 0.5
    w3 = 0.25 * ((1.0 - t) / (t * (3.0 + t))) ** 0.5
    return stack_trailing([w1, w2, w3])


def residue_table_printed(t):
    """Verbatim transcription of the published base column (for the
    discrepancy diagnostics; `residue_closed_form` is the authoritative
    column, validated against contour quadrature)."""
    g = poles(t)
    mu = g.mu_plus - g.mu_minus
    z1 = g.poles_lambda[0]
    a10 = 1j * (t * t - 1.0) * (t * t - 9.0) / (16.0 * t**3 * mu)
    a20 = (g.mu_minus + 1.0) * t * (t + 1.0) * (t - 3.0) / (8.0 * t * t * mu * z1)
    a30 = 1j * (g.mu_plus - 1.0) * t * (t - 1.0) * (t + 3.0) / (8.0 * t * t * mu * z1)
    return stack_trailing([a10, a20, a30])


def residue_numeric(t, i, p, n_points=256):
    """Contour-quadrature residue of the scalar form alpha_i at pole p,
    indexed (0, 1, x, inf) as the columns of SIGNS.

    The form is pulled back to the normalised coordinate (poles at 0, 1, x,
    infinity; the infinity residue is taken in the chart w = 1/zeta) and the
    coefficients are obtained by the 3x3-solve route, so this is independent
    of the closed-form residues on both counts.  Two radii are compared; a
    drift above 1e-7 raises QuadratureFailure.
    """
    g = poles(t)
    x = g.x
    finite = (0.0, 1.0, x)
    seps = [abs(a - b) for idx, a in enumerate(finite) for b in finite[idx + 1:]]
    base_radius = 1e-2 * min(seps)

    def contour_value(radius):
        theta = 2.0 * np.pi * (np.arange(n_points) + 0.5) / n_points
        ring = radius * np.exp(1j * theta)
        if p == 3:
            # chart zeta = 1/w: d zeta/dw = -1/w^2, times the offset w
            zeta, weight = 1.0 / ring, -1.0 / ring
        else:
            zeta, weight = finite[p] + ring, ring
        lams = lambda_of_normalized(t, zeta)
        c = np.array([alpha_inv(t, lam, line_tangent(t, lam))[i - 1] for lam in lams])
        return np.sum(c * dlambda_dw(t, zeta) * weight) / n_points

    v1 = contour_value(base_radius)
    v2 = contour_value(base_radius / 2.0)
    if abs(v1 - v2) > 1e-7:
        raise QuadratureFailure(f"residue quadrature drift {abs(v1 - v2):.3e} "
                                f"at t={t}, i={i}, pole={p}")
    return v2


# --------------------------------------------------------------------------
# connection family
# --------------------------------------------------------------------------

def connection_form(profile, t, lam):
    """Matrix -sum_i a_i c_i X_i of the flat connection along the line at
    parameter lam, c the action inverse on the tangent."""
    return su2_combination(*(-profile.oriented_jet(t).rows[0] * alpha_inv_tangent(t, lam)))


@dataclass(frozen=True)
class FuchsianData:
    """The normalised rank-2 Fuchsian system at one t, or at a stack of
    samples along the line family (t and the real x of shape (S,), the real
    w (S, 3), u = REAL_FORM * w); `len` and indexing reach the samples.  The
    residues are carried as the real forms of their coefficient vectors on
    (X1, X2, X3), m_p = -SIGNS[:, p] * w (`vectors`); `fuchsian_data` adds
    x and w as `Jet`s in t (`jets`).  `trace` writes a stack from `vectors`
    and `trace_squares`.  Only `residues` builds the complex 2x2 matrices,
    for the tests; no command calls it."""

    t: np.ndarray
    x: np.ndarray
    w: np.ndarray
    jets: tuple | None = None

    def __len__(self):
        return len(self.t)

    def __getitem__(self, k):
        jets = None if self.jets is None else tuple(j[k] for j in self.jets)
        return replace(self, t=self.t[k], x=self.x[k], w=self.w[k], jets=jets)

    def vectors(self):
        """The real m_p for the poles (0, 1, x, inf), shape (..., 4, 3)."""
        return -self.w[..., None, :] * SIGNS.T

    def residues(self):
        """The matrices A_p = (REAL_FORM * m_p).X, as a tuple over the four poles."""
        return tuple(su2_combination(*m)
                     for m in np.moveaxis(REAL_FORM * self.vectors(), (-2, -1), (0, 1)))

    def first_integral(self):
        """u.u = -w1^2 - w2^2 + w3^2 = det A_p at every pole, shape (...,)."""
        return np.sum(METRIC * self.w * self.w, axis=-1)

    def trace_squares(self):
        """tr(A_p^2) = -2 u.u, as a tuple over the four poles."""
        return (-2.0 * self.first_integral(),) * 4


def fuchsian_data(profile, t):
    """The residue model u = a * alpha_{.,0} of the four residues
    A_p = -sum_i a_i alpha_{i,p} X_i, in its real form w = a * w_hat, with
    the `jets` of w and x: a's from the profile's `oriented_jet`.  Each entry
    of w_hat, and x, is a product of powers k_a of t - a over a in
    `instanton.ROOTS`, so its logarithmic derivative is sum_a k_a/(t - a):
    w_hat_i'/w_hat_i = Q_i/P_i of the ODE (`instanton.ODE_EXPONENTS`), and
    x'/x is `dlog_x`."""
    w_hat = residue_closed_form(t)  # first: it rejects t outside (0, 1)
    e = 1.0 / (np.asarray(t, dtype=float)[..., None] - ROOTS)
    e2 = -e * e
    w = profile.oriented_jet(t) * Jet.from_log_derivative(
        w_hat, e @ ODE_EXPONENTS, e2 @ ODE_EXPONENTS)
    x = Jet.from_log_derivative(cross_ratio(t), e @ _X_EXPONENTS, e2 @ _X_EXPONENTS)
    return FuchsianData(t=t, x=x.rows[0], w=w.rows[0], jets=(x, w))
