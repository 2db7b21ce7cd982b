"""Per-line twistor data for the family of rational lines parametrised by
t in (0, 1): the infinitesimal-action matrix, its inverse (in closed form
on the line's tangent direction), the four divisor poles, the Moebius
normalisation to {0, 1, x, infinity}, the residues of the scalar 1-forms,
and assembly of the rank-2 Fuchsian residues from a profile.

The residues have Klein-four structure: alpha_{i,p} = alpha_{i,0} SIGNS[i-1, p].
With u = a * alpha_{.,0} (profile values times the base column), the
Fuchsian residues are A_p = -sum_i SIGNS[i-1, p] u_i X_i, all of determinant
u.u, and y and the PVI parameters are closed forms in u.

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
  own (3 profile components, the 3 column entries and u, 2x2 matrices).  A float
  t stays in Python floats (square roots are `** 0.5`, not np.sqrt).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .columns import csv_text
from .errors import DegenerateLine, OnDivisor, QuadratureFailure
from .liealg import solve3, stack_trailing, su2_combination, trace_sq

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
    """Raises DegenerateLine naming the first t outside (0, 1)."""
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
    """Cross ratio of the four poles under the normalisation z1,z2,z4 -> 0,1,inf."""
    _require_inside(t, "cross ratio undefined")
    return ((t + 1.0) * (t - 3.0) ** 3 / ((t - 1.0) * (t + 3.0) ** 3)) + 0j


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
    """Closed-form residues at pole 0, the base column (..., 3):

        alpha_{1,0} = -i (t^2-1)(t^2-9) / (16 t^3 mu)
        alpha_{2,0} = (mu_- + 1) t (t+1)(t-3) / (8 t^3 mu z1)
        alpha_{3,0} = i (mu_+ - 1) t (t-1)(t+3) / (8 t^3 mu z2)

    with mu = mu_plus - mu_minus.  The residue of alpha_i at pole p is
    column[i-1] * SIGNS[i-1, p]: alpha_{1,0} is purely imaginary, so the
    conjugation relating its poles is negation.
    """
    g = poles(t)
    mu = g.mu_plus - g.mu_minus
    z1, z2, _, _ = g.poles_lambda
    a10 = -1j * (t * t - 1.0) * (t * t - 9.0) / (16.0 * t**3 * mu)
    a20 = (g.mu_minus + 1.0) * t * (t + 1.0) * (t - 3.0) / (8.0 * t**3 * mu * z1)
    a30 = 1j * (g.mu_plus - 1.0) * t * (t - 1.0) * (t + 3.0) / (8.0 * t**3 * mu * z2)
    return stack_trailing([a10, a20, a30])


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

def form_matrix(a, c):
    """The matrix -sum_i a_i c_i X_i of profile values a and scalar
    coefficients c on (X1, X2, X3): a connection form or, with a = u and
    c a column of SIGNS, the residue at that pole."""
    ac = -a * c
    return su2_combination(ac[..., 0], ac[..., 1], ac[..., 2])


def connection_form(profile, t, lam):
    """Matrix of the flat connection along the line at parameter lam."""
    return form_matrix(profile.oriented_values(t), alpha_inv_tangent(t, lam))


@dataclass(frozen=True)
class FuchsianData:
    """Residues of the normalised rank-2 Fuchsian system at one t, or at a
    stack of samples along the line family (t and x of shape (S,), residues
    (S, 2, 2), u (S, 3)); `len` and indexing reach the samples.  u is None
    on quadruples built from matrices alone."""

    t: np.ndarray
    x: np.ndarray
    A0: np.ndarray
    A1: np.ndarray
    Ax: np.ndarray
    Ainf: np.ndarray
    u: np.ndarray = None

    CSV_COLUMNS = ("t", "x_re", "x_im", "trA0sq", "trA1sq", "trAxsq", "trAinfsq")

    def __len__(self):
        return len(self.t)

    def __getitem__(self, k):
        return replace(self, t=self.t[k], x=self.x[k], A0=self.A0[k],
                       A1=self.A1[k], Ax=self.Ax[k], Ainf=self.Ainf[k],
                       u=None if self.u is None else self.u[k])

    def residues(self):
        return self.A0, self.A1, self.Ax, self.Ainf

    def trace_squares(self):
        return tuple(trace_sq(m) for m in self.residues())

    def to_csv(self):
        """The twistor trace of a stack: x and tr(A_p^2) per sample."""
        cols = (self.t, self.x.real, self.x.imag) + tuple(
            v.real for v in self.trace_squares())
        return csv_text(self.CSV_COLUMNS, cols)

    def to_json_rows(self):
        """One dict per sample of a stack, each residue as 2x2 [re, im] pairs."""
        mats = [np.stack((A.real, A.imag), -1).tolist() for A in self.residues()]
        return [{"t": t, "x": {"re": xr, "im": xi},
                 "residues": {"p0": a0, "p1": a1, "px": ax, "pinf": ainf}}
                for t, xr, xi, a0, a1, ax, ainf
                in zip(self.t.tolist(), self.x.real.tolist(), self.x.imag.tolist(),
                       *mats)]


def fuchsian_data(profile, t):
    """Assemble the four residues A_p = -sum_i a_i alpha_{i,p} X_i from
    u = a * alpha_{.,0}."""
    u = profile.oriented_values(t) * residue_closed_form(t)
    A0, A1, Ax, Ainf = (form_matrix(u, SIGNS[:, p]) for p in range(4))
    return FuchsianData(t=t, x=cross_ratio(t), A0=A0, A1=A1, Ax=Ax, Ainf=Ainf, u=u)
