"""Deformation machinery for the Fuchsian residue family: the Schlesinger
vector field and its verification by stencils (`Stencil`), conserved-quantity
drift, and the apparent-singularity position y(x) and parameters of the
sixth Painleve equation, both as closed forms in the residue model u (see
`extract_y`).

The residues as the line geometry gives them ("line" gauge) carry the
reality pairing Ax = -A0^dagger, Ainf = -A1^dagger.  The transverse
component of the flat family connection is -x'(t) Ax/(w - x) + C(t) in the
normalised coordinate w, with C in closed form (`gauge_rate`), so the
Schlesinger-gauge residues are A^S_p = g^-1 A_p g with g' = -C g, and
dA^S_p/dt = g^-1 (A_p' + [C, A_p]) g.  The Schlesinger field is
conjugation-equivariant, so the deformation equations hold in that gauge
exactly when dA_p/dx + [C, A_p]/x' = Schl_p(A) on the line family itself,
which `schlesinger_residual` checks; g is never integrated.  The flow also
commutes with constant conjugation, so propagating a line-gauge sample lands
on a conjugate of a later one, with the same `pair_invariants`.

Residues are carried as coefficient vectors m_p on (X1, X2, X3), C = c.X,
and every bracket is one cross product, [m.X, n.X] = 2 (m x n).X: exact to
one rounding on the line family, whose m_p are signed copies of one u.
`schlesinger_field` is the one Schlesinger field, called on Python numbers
by the propagation oracle `schlesinger_integrate` and on sample arrays by
`schlesinger_residual`.
"""

from __future__ import annotations

import numpy as np

from .errors import (BadDeformationParameter, IndeterminateY, PathTooClose,
                     ReducibleSystem)
from .liealg import cross, stack_trailing
from .painleve import PviParams
from .stepper import Stencil, rk45
from .twistor import SIGNS, fuchsian_data, mu_pair


def gauge_rate(profile, t):
    """Vector c of the constant term C(t) = c.X of the transverse connection
    in the normalised coordinate w, in closed form: c = -a * (g1, 0, g3) with

        g1 = i t^2 (mu_+ - mu_-) / ((t+3)^3 (t-1)),
        g3 = -2 (mu_+ - 1) / ((t+1)(t-3)(mu_+ - mu_-) sqrt(-mu_+))
           = -16 t^2 alpha_{3,0} / ((t^2-1)(t^2-9)).

    Derivation.  At fixed w the flat family connection along t is
    B(w) = -sum_i a_i (c_T + c_L dlam/dt)_i X_i, with c_T, c_L the action
    inverse on `line_transverse` and `line_tangent` at lam = lam(t, w), the
    inverse of the normalisation.  The normalisation pins the poles 0, 1 and
    infinity, so B has a pole in w only at the moving x, with residue
    -x' Ax: B(w) + x' Ax/(w - x) is holomorphic on the w-sphere, hence
    constant, and that constant is C(t).  With the poles at +-i v, +-i/v,
    v = sqrt(-mu_-), and dv/dt from the mu quadratic
    8 t^3 mu^2 - 2 S mu + 8 t^3 = 0 (S = t^4 + 18 t^2 - 27), the numerator
    of B(w) + x' Ax/(w - x) - C reduces to zero modulo that quadratic, read
    as a quartic in v, for every w (checked with sympy); the X2 coefficient
    vanishes.
    """
    mu_p, mu_m = mu_pair(t)
    mu = mu_p - mu_m
    g1 = 1j * t * t * mu / ((t + 3.0) ** 3 * (t - 1.0))
    g3 = -2.0 * (mu_p - 1.0) / ((t + 1.0) * (t - 3.0) * mu * (-mu_p) ** 0.5)
    return -profile.oriented_values(t) * stack_trailing([g1, 0.0 * g1, g3])


def make_family(profile, ts):
    """Sample the line-gauge residue family at the increasing ts, as one
    FuchsianData stack."""
    fam = fuchsian_data(profile, np.asarray(ts, dtype=float))
    if not np.all(np.diff(fam.x.real) > 0):
        raise ValueError("deformation parameter x is not strictly monotone")
    return fam


# --------------------------------------------------------------------------
# Schlesinger equations
# --------------------------------------------------------------------------

def schlesinger_field(x, m0, m1, mx):
    """(dm0, dm1, dmx)/dx of the Schlesinger system on residue vectors:
    dm0/dx = 2 m0 x mx / x, dm1/dx = 2 m1 x mx / (x - 1).  x and the
    components are Python numbers in the propagation oracle, where coercing
    to arrays costs more than the arithmetic, or sample arrays."""
    if isinstance(x, np.ndarray):
        near = np.minimum(abs(x), abs(x - 1.0)) < 1e-12
        if near.any():
            raise BadDeformationParameter(f"x = {x[near][0]} touches a fixed singular point")
    elif min(abs(x), abs(x - 1.0)) < 1e-12:
        raise BadDeformationParameter(f"x = {x} touches a fixed singular point")
    d0 = [2.0 * c / x for c in cross(m0, mx)]
    d1 = [2.0 * c / (x - 1.0) for c in cross(m1, mx)]
    return d0, d1, [-p - q for p, q in zip(d0, d1)]


def schlesinger_residual(profile, fam, stencil=None):
    """Frobenius-norm defect of the deformation equations in their line-gauge
    form dA_p/dx + [C, A_p]/x' = Schl_p(A) (module docstring), at the
    interior samples of the x grid's `Stencil` (built if not given), on
    coefficient vectors: the Frobenius norm of r.X is sqrt(2) |r|.
    dm_p/dx = -SIGNS[:, p] * du/dx, the stencils applied to the columns of u;
    C is `gauge_rate`, and x'/x = 1/(t+1) + 3/(t-3) - 1/(t-1) - 3/(t+3) the
    logarithmic derivative of `cross_ratio`."""
    stencil = stencil or Stencil(fam.x.real)
    du = stencil.derivative(fam.u.T, 1)
    inner = fam[Stencil.INNER]
    t = inner.t
    xdot = inner.x * (1.0 / (t + 1.0) + 3.0 / (t - 3.0) - 1.0 / (t - 1.0) - 3.0 / (t + 3.0))
    c = gauge_rate(profile, t).T / xdot
    moving = np.moveaxis(inner.vectors(), (-2, -1), (0, 1))[:3]
    total = 0.0
    for p, (m, want) in enumerate(zip(moving, schlesinger_field(inner.x, *moving),
                                      strict=True)):
        r = -SIGNS[:, p, None] * du + 2.0 * np.array(cross(c, m)) - np.array(want)
        total = total + np.sqrt(2.0 * np.sum(np.abs(r) ** 2, axis=0))
    return total


def max_schlesinger_residual(profile, fam, stencil=None):
    return float(np.max(schlesinger_residual(profile, fam, stencil)))


def isospectral_drift(fam):
    """For each of the four poles, max over the family of
    |tr(A_p^2)(t) - tr(A_p^2)(t_0)|, t_0 the first sample.  The four entries
    are one quantity by construction: tr(A_p^2) = -2 u.u at every pole."""
    traces = np.stack(fam.trace_squares(), axis=-1)
    return tuple(float(d) for d in np.max(np.abs(traces - traces[0]), axis=0))


def pair_invariants(m):
    """Conjugation invariants tr(A_i A_j) = -2 m_i.m_j for all pole pairs
    (..., 4, 4) of residue vectors m (..., 4, 3)."""
    return -2.0 * np.einsum("...ik,...jk->...ij", m, m)


def schlesinger_integrate(F0, x_target):
    """Propagate the residues of the one-sample F0 along the Schlesinger
    flow to x_target, and return their vectors (4, 3) there.

    The flow runs along the real x axis, as the line families do:
    non-real x is a ValueError.  The interval must keep distance > 1e-3
    from the fixed singular points {0, 1} (PathTooClose).  Used as an
    independent oracle: the result must agree with direct construction in
    all conjugation invariants.
    """
    x0, x1 = complex(F0.x), complex(x_target)
    if x0.imag != 0.0 or x1.imag != 0.0:
        raise ValueError(f"the flow runs along real x, got {x0} -> {x1}")
    x0, x1 = x0.real, x1.real
    for c in (0.0, 1.0):
        if min(x0, x1) - 1e-3 <= c <= max(x0, x1) + 1e-3:
            raise PathTooClose(f"path {x0} -> {x1} passes near {c}")
    m = F0.vectors().astype(complex)
    if x0 == x1:
        return m

    def flow(x, vec):
        v = vec.tolist()
        d0, d1, dx = schlesinger_field(x, v[:3], v[3:6], v[6:])
        return np.array(d0 + d1 + dx)

    m0, m1, mx = rk45(flow, x0, m[:3].ravel(), x1, rtol=1e-11, atol=1e-13).reshape(3, 3)
    return np.array([m0, m1, mx, -(m0 + m1 + mx)])


# --------------------------------------------------------------------------
# Jimbo-Miwa extraction, in closed form in u
# --------------------------------------------------------------------------

def _branch_root(F, branch):
    """(u.u, sigma lam): lam is the canonical root of -u.u (Re >= 0, ties
    by Im >= 0) and sigma = +1 on "plus", -1 on "minus"; sigma lam is the
    eigenvalue of Ainf on the branch's eigenvector."""
    sigma = {"plus": 1.0, "minus": -1.0}.get(branch)
    if sigma is None:
        raise ValueError("branch must be 'plus' or 'minus'")
    uu = np.sum(F.u * F.u, axis=-1)
    lam = np.sqrt(-uu + 0j)
    return uu, sigma * np.where((lam.real == 0) & (lam.imag < 0), -lam, lam)


def _require(ok, error, what, F, branch):
    """Raise `error` naming the t of the first sample where `ok` fails."""
    bad = ~np.ravel(ok)
    if bad.any():
        raise error(f"{what} at t = {np.ravel(F.t)[np.argmax(bad)]} ({branch} branch)")


def extract_y(F, branch="plus"):
    """Position y of the apparent singularity on the chosen eigen-branch,
    y = x / (x + (1 - x) rho), rho = u3 (u1 u3 + sigma lam u2) / (u1 (u2^2 + u3^2)).

    Derivation (Jimbo & Miwa, Physica D 2, 1981).  y is where the sigma-lam
    eigenvector v of Ainf is also an eigenvector of A(z) = A0/z + A1/(z-1)
    + Ax/(z-x).  With r the covector annihilating v and b_p = r A_p v, that
    is the root of b0 (z-1)(z-x) + b1 z(z-x) + bx z(z-1), whose z^2 term
    -b_inf vanishes: y = b0 x / (b0 x - b1 (1-x)).  N = v r is nilpotent, N = n.X with
    n.n = 0 and tr(Ainf N) = 0; the Killing form is diagonal in the X basis
    (tr(Xi Xj) = -2 delta_ij), so b_p = tr(A_p N) is proportional to m_p.e
    for A_p = m_p.X, m_p = -SIGNS[:, p] * u, and e the null vector
    orthogonal to m_inf, scaled to e1 = 1.  m_inf.e = 0 reads
    u2 e2 + u3 e3 = u1, so b0 = -2 u1, b1 = 2 u3 e3, bx = 2 (u1 - u3 e3);
    e.e = 0 leaves (u2^2 + u3^2) e3^2 - 2 u1 u3 e3 + u1^2 + u2^2 = 0, and
    [Ainf, N] = 2 sigma lam N picks its root e3 = (u1 u3 + sigma lam u2) /
    (u2^2 + u3^2).  No matrix entry is read back, so nothing cancels.

    Raises ReducibleSystem when all couplings vanish, and IndeterminateY
    when u1 does (y on the pole 0) or the denominator does, naming the t of
    the first such sample.  Only exact zeros and non-finite values count
    (NaN fails every comparison): no floor relative to max|u|, because u1
    and u3 shrink like (1 - t)^((n-1)/2) toward t = 1 while u2 stays near n.
    """
    _, lam = _branch_root(F, branch)
    u1, u2, u3 = np.moveaxis(F.u, -1, 0)
    u3e3 = u3 * (u1 * u3 + lam * u2) / (u2 * u2 + u3 * u3)
    _require(np.maximum(np.abs(u1), np.abs(u3e3)) > 0.0, ReducibleSystem,
             "all couplings vanish", F, branch)
    _require(np.abs(u1) > 0.0, IndeterminateY, "u1 = 0, y on the pole 0", F, branch)
    den = F.x + (1.0 - F.x) * u3e3 / u1
    _require(np.abs(den) > 1e-12, IndeterminateY, "vanishing denominator", F, branch)
    return F.x / den


def jimbo_miwa_params(F, branch="plus"):
    """Painleve VI parameters per eigen-branch of Ainf: det A_p = u.u at
    every pole gives beta, gamma and delta, and alpha = (2 sigma lam - 1)^2 / 2."""
    uu, lam = _branch_root(F, branch)
    return PviParams(alpha=0.5 * (2.0 * lam - 1.0) ** 2, beta=2.0 * uu,
                     gamma=-2.0 * uu, delta=0.5 * (1.0 + 4.0 * uu))
