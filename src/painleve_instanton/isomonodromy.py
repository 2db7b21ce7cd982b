"""Deformation machinery for the Fuchsian residue family: the Schlesinger
vector field and its verification on the family's exact derivatives in t
(its `jets`), conserved-quantity drift, and the apparent-singularity
position y(x) and parameters of the sixth Painleve equation, both as closed
forms in the residue model u, in its real form w (see `extract_y`), whose
formula runs on the same jets to give y's derivatives.

The residues as the line geometry gives them ("line" gauge) carry the
reality pairing Ax = -A0^dagger, Ainf = -A1^dagger.  The transverse
component of the flat family connection is -x'(t) Ax/(z - x) + C(t) in the
normalised coordinate z, with C = c.X and c a rational multiple of u
(`gauge_rate`).  The Schlesinger-gauge residues are A^S_p = g^-1 A_p g with
g' = -C g, and dA^S_p/dt = g^-1 (A_p' + [C, A_p]) g.  The Schlesinger field
is conjugation-equivariant, so the deformation equations hold in that gauge
exactly when dA_p/dx + [C, A_p]/x' = Schl_p(A) on the line family itself,
which `schlesinger_residual` checks from the family and its jets alone;
g is never integrated.  The flow also commutes with constant conjugation,
so propagating a line-gauge sample lands on a conjugate of a later one,
with the same `pair_invariants`.

Residues are carried as the real forms m_p of their coefficient vectors
on (X1, X2, X3), A_p = (REAL_FORM * m_p).X with m_p = -SIGNS[:, p] * w
(`liealg`), and so is C = (REAL_FORM * c).X.  Every bracket is one
Lorentzian cross product, [A, B] = 2 (REAL_FORM * lorentz_cross(m, n)).X,
exact to one rounding on the line family, whose m_p are signed copies of
one w, and every invariant is the Killing form u.v = -p1 q1 - p2 q2 +
p3 q3: all of it on floats.  `schlesinger_field` is the one Schlesinger
field, called on Python numbers by the propagation oracle
`schlesinger_integrate`, which integrates it in the family's own parameter
t, and on sample arrays by `schlesinger_residual`, which checks it in x.
"""

from __future__ import annotations

import numpy as np

from .errors import (BadDeformationParameter, IndeterminateY, PathTooClose,
                     ReducibleSystem)
from .liealg import METRIC, lorentz_cross, stack_trailing
from .painleve import PviParams
from .stepper import Jet, rk45
from .twistor import SIGNS, cross_ratio, dlog_x, fuchsian_data


def gauge_rate(F):
    """Real form c of the constant term C(t) = (REAL_FORM * c).X of the
    transverse connection in the normalised coordinate z, for the family F
    (or one sample of it): a rational multiple of its w,

        c = ((t-3)^2 w1 / (t (t+3)(t-1)), 0, 16 t^2 w3 / ((t^2-1)(t^2-9))),

    the same multiple of u = REAL_FORM * w as of w.

    Derivation.  At fixed z the flat family connection along t is
    B(z) = -sum_i a_i (c_T + c_L dlam/dt)_i X_i, with c_T, c_L the action
    inverse on `line_transverse` and `line_tangent` at lam = lam(t, z), the
    inverse of the normalisation.  The normalisation pins the poles 0, 1 and
    infinity, so B has a pole in z only at the moving x, with residue
    -x' Ax: B(z) + x' Ax/(z - x) is holomorphic on the z-sphere, hence
    constant, and that constant is C(t).  With the poles at +-i v, +-i/v,
    v = sqrt(-mu_-), and dv/dt from the mu quadratic
    8 t^3 mu^2 - 2 S mu + 8 t^3 = 0 (S = t^4 + 18 t^2 - 27), the numerator
    of B(z) + x' Ax/(z - x) - C reduces to zero modulo that quadratic, read
    as a quartic in v, for every z (checked with sympy), for
    c = -a * (i t^2 (mu_+ - mu_-)/((t+3)^3 (t-1)), 0,
    -16 t^2 alpha_{3,0}/((t^2-1)(t^2-9))).  With u = a * alpha_{.,0} and
    the pole form of alpha_{1,0} and (mu_+ - mu_-)^2 in `residue_closed_form`,
    that is the c above.
    """
    t = F.t
    w1, _, w3 = np.moveaxis(F.w, -1, 0)
    c1 = (t - 3.0) ** 2 * w1 / (t * (t + 3.0) * (t - 1.0))
    c3 = 16.0 * t * t * w3 / ((t - 1.0) * (t + 1.0) * (t - 3.0) * (t + 3.0))
    return stack_trailing([c1, 0.0 * c1, c3])


def make_family(profile, ts):
    """Sample the line-gauge residue family at the increasing ts, as one
    FuchsianData stack."""
    fam = fuchsian_data(profile, np.asarray(ts, dtype=float))
    if not np.all(np.diff(fam.x) > 0):
        raise ValueError("deformation parameter x is not strictly monotone")
    return fam


# --------------------------------------------------------------------------
# Schlesinger equations
# --------------------------------------------------------------------------

def schlesinger_field(x, m, rate=1.0):
    """dm/ds of the Schlesinger system for a parameter s with dx/ds = rate
    (1: s is x), on one flat 9-row m = (m0, m1, mx) of real-form residue
    vectors, returned as the flat 9-row (dm0, dm1, dmx): dm0/dx =
    2 L(m0, mx) / x, dm1/dx = 2 L(m1, mx) / (x - 1) and dmx = -dm0 - dm1,
    with L = `lorentz_cross`.  In the propagation oracle m is the state's
    list of 9 Python numbers and x and rate are Python numbers, where
    coercing to arrays costs more than the arithmetic, and the returned
    list is the state's derivative as `rk45` stores it; in the residual
    check m is a (9, S) array of samples and x has shape (S,)."""
    if isinstance(x, np.ndarray):
        near = np.minimum(abs(x), abs(x - 1.0)) < 1e-12
        if near.any():
            raise BadDeformationParameter(f"x = {x[near][0]} touches a fixed singular point")
    elif min(abs(x), abs(x - 1.0)) < 1e-12:
        raise BadDeformationParameter(f"x = {x} touches a fixed singular point")
    k0, k1 = 2.0 * rate / x, 2.0 * rate / (x - 1.0)
    mx = m[6:]
    d1, d2, d3 = lorentz_cross(m[:3], mx)
    e1, e2, e3 = lorentz_cross(m[3:6], mx)
    d1, d2, d3, e1, e2, e3 = k0 * d1, k0 * d2, k0 * d3, k1 * e1, k1 * e2, k1 * e3
    return [d1, d2, d3, e1, e2, e3, -d1 - e1, -d2 - e2, -d3 - e3]


def schlesinger_residual(fam):
    """Frobenius-norm defect of the deformation equations in their line-gauge
    form dA_p/dx + [C, A_p]/x' = Schl_p(A) (module docstring), at every
    sample, on real-form vectors: the Frobenius norm of (REAL_FORM * r).X
    is sqrt(2) |r|.  dm_p/dx = -SIGNS[:, p] * dw/dx, with dw/dx = w'/x' and
    x' = x `dlog_x` from the family's `jets`, and C is `gauge_rate`."""
    x, w = fam.jets
    dw = w.rows[1].T / x.rows[1]
    c = gauge_rate(fam).T / x.rows[1]
    moving = np.moveaxis(fam.vectors(), (-2, -1), (0, 1))[:3]
    field = np.reshape(schlesinger_field(fam.x, moving.reshape(9, -1)), moving.shape)
    total = 0.0
    for p, (m, want) in enumerate(zip(moving, field, strict=True)):
        r = -SIGNS[:, p, None] * dw + 2.0 * np.array(lorentz_cross(c, m)) - want
        total = total + np.sqrt(2.0 * np.sum(r * r, axis=0))
    return total


def max_schlesinger_residual(fam):
    return float(np.max(schlesinger_residual(fam)))


def isospectral_drift(fam):
    """For each of the four poles, max over the family of |tr(A_p^2)(t) -
    tr(A_p^2)(t_0)|, t_0 the first sample: one quantity by construction,
    since tr(A_p^2) = -2 u.u at every pole (`FuchsianData.trace_squares`)."""
    trace = fam.trace_squares()[0]
    return (float(np.max(np.abs(trace - trace[0]))),) * 4


def pair_invariants(m):
    """Conjugation invariants tr(A_i A_j) = -2 u_i.u_j for all pole pairs
    (..., 4, 4) of real-form residue vectors m (..., 4, 3)."""
    return -2.0 * np.einsum("...ik,...jk->...ij", METRIC * m, m)


def schlesinger_integrate(F0, t_target):
    """Propagate the residues of the one-sample F0 along the Schlesinger
    flow to the line at t_target, and return their real-form vectors (4, 3)
    there.

    The flow is integrated in the family's own parameter t, on 9 reals:
    dm/dt = x'(t) Schl(m, x(t)), with x(t) the cross ratio.  Its fixed
    singular points x = 1 and x = infinity are t = 0 and t = 1, and x(t)
    lies in (1, infinity) between them, so the path check is one on t:
    both ends must keep distance > 1e-3 from 0 and 1 (PathTooClose), and
    non-real t is a ValueError.  Used as an independent oracle: the result
    must agree with direct construction in all conjugation invariants.
    """
    t0, t1 = complex(F0.t), complex(t_target)
    if t0.imag != 0.0 or t1.imag != 0.0:
        raise ValueError(f"the flow runs along real t, got {t0} -> {t1}")
    t0, t1 = t0.real, t1.real
    if not 1e-3 < min(t0, t1) <= max(t0, t1) < 1.0 - 1e-3:
        raise PathTooClose(f"path t = {t0} -> {t1} passes near t = 0 or 1")
    m = F0.vectors()
    if t0 == t1:
        return m

    def flow(t, vec):
        x = cross_ratio(t)
        return schlesinger_field(x, vec.tolist(), x * dlog_x(t))

    m0, m1, mx = rk45(flow, t0, m[:3].ravel(), t1).reshape(3, 3)
    return np.array([m0, m1, mx, -(m0 + m1 + mx)])


# --------------------------------------------------------------------------
# Jimbo-Miwa extraction, in closed form in w
# --------------------------------------------------------------------------

def _branch_root(F, branch):
    """(u.u, sigma lam): lam = sqrt(-u.u) = sqrt(w1^2 + w2^2 - w3^2) and
    sigma = +1 on "plus", -1 on "minus"; sigma lam is the eigenvalue of
    Ainf on the branch's eigenvector.  lam is real (n/4 on the family,
    where u.u = -n^2/16) unless some u.u > 0, as at points of the phase
    space off the family: then lam is complex, i sqrt(u.u) there."""
    sigma = {"plus": 1.0, "minus": -1.0}.get(branch)
    if sigma is None:
        raise ValueError("branch must be 'plus' or 'minus'")
    uu = F.first_integral()
    lam = np.sqrt(-uu) if (uu <= 0.0).all() else np.sqrt(-uu + 0j)
    return uu, sigma * lam


def _value(v):
    """The value row of a `Jet`, or v itself."""
    return v.rows[0] if isinstance(v, Jet) else v


def _require(ok, error, what, F, branch):
    """Raise `error` naming the t of the first sample where `ok` fails."""
    bad = ~np.ravel(ok)
    if bad.any():
        raise error(f"{what} at t = {np.ravel(F.t)[np.argmax(bad)]} ({branch} branch)")


def extract_y(F, branch="plus"):
    """Position y of the apparent singularity on the chosen eigen-branch,
    y = x / (x + (1 - x) rho), rho = w3 (w1 w3 + sigma lam w2) / (w1 (w3^2 - w2^2)),
    real where lam is (`_branch_root`).

    Derivation (Jimbo & Miwa, Physica D 2, 1981).  y is where the sigma-lam
    eigenvector v of Ainf is also an eigenvector of A(z) = A0/z + A1/(z-1)
    + Ax/(z-x).  With r the covector annihilating v and b_p = r A_p v, that
    is the root of b0 (z-1)(z-x) + b1 z(z-x) + bx z(z-1), whose z^2 term
    -b_inf vanishes: y = b0 x / (b0 x - b1 (1-x)).  N = v r is nilpotent, N = n.X with
    n.n = 0 and tr(Ainf N) = 0; the Killing form is diagonal in the X basis
    (tr(Xi Xj) = -2 delta_ij), so b_p = tr(A_p N) is proportional to u_p.e
    for A_p = u_p.X, u_p = -SIGNS[:, p] * u, and e the null vector
    orthogonal to u_inf, scaled to e1 = 1.  u_inf.e = 0 reads
    u2 e2 + u3 e3 = u1, so b0 = -2 u1, b1 = 2 u3 e3, bx = 2 (u1 - u3 e3);
    e.e = 0 leaves (u2^2 + u3^2) e3^2 - 2 u1 u3 e3 + u1^2 + u2^2 = 0, and
    [Ainf, N] = 2 sigma lam N picks its root e3 = (u1 u3 + sigma lam u2) /
    (u2^2 + u3^2).  In the real form u = (i w1, i w2, w3) that is
    (b0, b1, bx) = 2i (-w1, q, w1 - q) with q = w3 (w1 w3 + sigma lam w2) /
    (w3^2 - w2^2), so rho = q / w1.  No matrix entry is read back, so
    nothing cancels.

    On an F that carries its `jets`, as `fuchsian_data` builds it, the
    formula runs on them and y is returned as a `Jet` in t, whose value row
    is the y of F's values, to the bit; lam enters as each sample's
    constant, since u.u is a first integral of the family
    (`test_uu_is_a_first_integral`).
    Raises ReducibleSystem when all couplings vanish, and IndeterminateY
    when u1 does (y on the pole 0) or the denominator does, naming the t of
    the first such sample.  Only exact zeros and non-finite values count
    (NaN fails every comparison): no floor relative to max|w|, because w1
    and w3 shrink like (1 - t)^((n-1)/2) toward t = 1 while w2 stays near n.
    """
    _, lam = _branch_root(F, branch)
    x, w = (F.x, F.w) if F.jets is None else F.jets
    w1, w2, w3 = (w[..., i] for i in range(3))
    q = w3 * (w1 * w3 + lam * w2) / (w3 * w3 - w2 * w2)
    _require(np.maximum(np.abs(_value(w1)), np.abs(_value(q))) > 0.0, ReducibleSystem,
             "all couplings vanish", F, branch)
    _require(np.abs(_value(w1)) > 0.0, IndeterminateY, "u1 = 0, y on the pole 0", F, branch)
    den = x + (1.0 - x) * q / w1
    _require(np.abs(_value(den)) > 1e-12, IndeterminateY, "vanishing denominator", F, branch)
    return x / den


def jimbo_miwa_params(F, branch="plus"):
    """Painleve VI parameters per eigen-branch of Ainf, real where lam is
    (`_branch_root`): det A_p = u.u at every pole gives beta, gamma and
    delta, and alpha = (2 sigma lam - 1)^2 / 2."""
    uu, lam = _branch_root(F, branch)
    return PviParams(alpha=0.5 * (2.0 * lam - 1.0) ** 2, beta=2.0 * uu,
                     gamma=-2.0 * uu, delta=0.5 * (1.0 + 4.0 * uu))
