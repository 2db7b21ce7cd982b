"""Deformation machinery for the Fuchsian residue family: the Schlesinger
vector field and finite-difference verification, the gauge normalisation in
which the deformation equations hold, conserved-quantity drift, extraction
of the apparent-singularity position y(x), and the parameter map to the
sixth Painleve equation.

The raw per-t residues ("line" gauge) carry the reality pairing
Ax = -A0^dagger, Ainf = -A1^dagger but are not in Schlesinger gauge: the
transverse component of the flat family connection has, in the normalised
coordinate, the form -dx/dt * Ax/(w - x) + C(t).  Conjugating by the
solution of dG/dt = -C(t) G removes the constant term; the resulting
"schlesinger" gauge has constant Ainf and satisfies the deformation
equations, which the residual check verifies by finite differences.  All
trace invariants, determinants and y(x) are conjugation-invariant and agree
between the two gauges.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (BadDeformationParameter, IndeterminateY, PathTooClose,
                     ReducibleSystem)
from .liealg import commutator, det2, eigen2, inv2, stack_trailing
from .painleve import PviParams
from .stepper import fd_weights, rk45, rk45_path
from .twistor import FuchsianData, form_matrix, fuchsian_data, mu_pair


def gauge_rate(profile, t):
    """Constant term C(t) of the transverse connection in the normalised
    coordinate w, in closed form: C = form_matrix(a, (g1, 0, g3)) with

        g1 = i t^2 (mu_+ - mu_-) / ((t+3)^3 (t-1)),
        g3 = -2 (mu_+ - 1) / ((t+1)(t-3)(mu_+ - mu_-) sqrt(-mu_+))
           = -16 t^2 alpha_{3,0} / ((t^2-1)(t^2-9)).

    Derivation.  At fixed w the flat family connection along t is
    B(w) = form_matrix(a, c_T + c_L dlam/dt), with c_T, c_L the action
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
    return form_matrix(profile.oriented_values(t), stack_trailing([g1, 0.0 * g1, g3]))


def make_family(profile, ts, gauge="line"):
    """Sample the residue family at the increasing ts, as one FuchsianData
    stack; gauge is "line" (raw) or "schlesinger"."""
    ts = np.asarray(ts, dtype=float)
    raw = fuchsian_data(profile, ts)
    if not np.all(np.diff(raw.x.real) > 0):
        raise ValueError("deformation parameter x is not strictly monotone")
    if gauge == "line":
        return raw
    if gauge != "schlesinger":
        raise ValueError(f"unknown gauge {gauge!r}")

    def flow(t, g):
        return (-gauge_rate(profile, t) @ g.reshape(2, 2)).ravel()

    gs = rk45_path(flow, ts, np.eye(2, dtype=complex).ravel(), rtol=1e-12, atol=1e-14)
    return raw.conjugated(np.reshape(gs, (-1, 2, 2)))


# --------------------------------------------------------------------------
# Schlesinger equations
# --------------------------------------------------------------------------

def schlesinger_field(x, A0, A1, Ax):
    """(dA0, dA1, dAx)/dx of the Schlesinger system."""
    x = np.asarray(x)[..., None, None]
    near = np.minimum(abs(x), abs(x - 1.0)) < 1e-12
    if near.any():
        raise BadDeformationParameter(f"x = {x[near][0]} touches a fixed singular point")
    d0 = commutator(A0, Ax) / x
    d1 = commutator(A1, Ax) / (x - 1.0)
    return d0, d1, -d0 - d1


def schlesinger_residual(fam):
    """Frobenius-norm defect of the finite-difference x-derivatives of
    (A0, A1, Ax) against the Schlesinger right-hand side, at every interior
    sample k = 2..len-3 (5-point stencils centred on k)."""
    xs = fam.x.real
    w = fd_weights(sliding_window_view(xs, 5), xs[2:-2], 1)[:, 1, None, None, :]
    inner = fam[2:-2]
    rhs = schlesinger_field(inner.x, inner.A0, inner.A1, inner.Ax)
    total = 0.0
    for A, want in zip(fam.residues(), rhs):
        got = np.sum(w * sliding_window_view(A, 5, axis=0), axis=-1)
        total = total + np.sqrt(np.sum(np.abs(got - want) ** 2, axis=(-2, -1)))
    return total


def max_schlesinger_residual(fam):
    return float(np.max(schlesinger_residual(fam)))


def isospectral_drift(fam):
    """max - min of tr(A_p^2) over the family, for each of the four poles."""
    traces = np.stack(fam.trace_squares(), axis=-1)
    return tuple(float(d) for d in np.max(np.abs(traces - traces[0]), axis=0))


def pair_invariants(F):
    """Conjugation invariants tr(A_i A_j) for all pole pairs (..., 4, 4)."""
    mats = np.stack(F.residues(), axis=-3)
    return np.einsum("...iab,...jba->...ij", mats, mats)


def schlesinger_integrate(F0, x_target, rtol=1e-11):
    """Propagate (A0, A1, Ax) along the Schlesinger flow to x_target.

    The straight path must keep distance > 1e-3 from the fixed singular
    points {0, 1}.  Used as an independent oracle: the result must agree
    with direct construction in all conjugation invariants.
    """
    x0 = complex(F0.x)
    x1 = complex(x_target)
    for c in (0.0, 1.0):
        seg = x1 - x0
        s = 0.0 if seg == 0 else max(0.0, min(1.0, ((c - x0) / seg).real))
        if abs(x0 + s * seg - c) <= 1e-3:
            raise PathTooClose(f"path {x0} -> {x1} passes near {c}")
    if x0 == x1:
        return F0

    def flow(x, vec):
        return np.concatenate(schlesinger_field(x, *vec.reshape(3, 2, 2))).ravel()

    y0 = np.concatenate([m.ravel() for m in (F0.A0, F0.A1, F0.Ax)]).astype(complex)
    y1 = rk45(flow, x0.real, y0, x1.real, rtol=rtol, atol=1e-13)
    A0, A1, Ax = y1.reshape(3, 2, 2)
    return FuchsianData(t=float("nan"), x=x1, A0=A0, A1=A1, Ax=Ax,
                        Ainf=-(A0 + A1 + Ax))


# --------------------------------------------------------------------------
# Jimbo-Miwa extraction
# --------------------------------------------------------------------------

def _branch_frame(F, branch):
    lam, v_plus, v_minus = eigen2(F.Ainf)
    if branch == "minus":
        lam, v_plus, v_minus = -lam, v_minus, v_plus
    elif branch != "plus":
        raise ValueError("branch must be 'plus' or 'minus'")
    P = np.stack([v_plus, v_minus], axis=-1)
    return lam, P, inv2(P)


def extract_y(F, branch="plus"):
    """Position y of the apparent singularity for the chosen eigen-branch.

    In the frame diagonalising Ainf = diag(lam, -lam), y is the zero of the
    numerator c2 z^2 + c1 z + c0 of the (2,1) entry of the residue sum
    A(zeta); there the lam-eigenvector of Ainf is a common eigenvector of
    A(y) and Ainf.  On a consistent quadruple, Ainf = -(A0 + A1 + Ax), the
    leading coefficient c2 = -(P^-1 Ainf P)_21 vanishes and y = -c0/c1; a
    quadruple with |c2| above roundoff of the residues raises, naming the t
    of the first such sample.
    """
    lam, P, Pi = _branch_frame(F, branch)
    x = F.x
    b = [(Pi @ A @ P)[..., 1, 0] for A in (F.A0, F.A1, F.Ax)]
    size = np.maximum(1.0, np.max(np.abs(np.stack(F.residues(), -3)), axis=(-3, -2, -1)))
    scale = np.max(np.abs(b), axis=0)
    c2 = b[0] + b[1] + b[2]
    c1 = -b[0] * (1.0 + x) - b[1] * x - b[2]
    faults = ((scale < 1e-12 * size, ReducibleSystem, "all off-diagonal couplings vanish"),
              (np.abs(c2) > 1e-12 * size, IndeterminateY, "inconsistent residues"),
              (np.abs(c1) < 1e-12 * scale, IndeterminateY, "degenerate numerator"))
    bad = np.ravel(np.logical_or.reduce([mask for mask, _, _ in faults]))
    if bad.any():
        k = np.argmax(bad)
        error, what = next(f[1:] for f in faults if np.ravel(f[0])[k])
        raise error(f"{what} at t = {np.ravel(F.t)[k]} ({branch} branch): "
                    f"|c2| = {np.ravel(np.abs(c2))[k]:.3e}")
    return -b[0] * x / c1


def jimbo_miwa_params(F, branch="plus"):
    """Painleve VI parameters of the deformation, per eigen-branch of Ainf."""
    lam, _, _ = _branch_frame(F, branch)
    return PviParams(
        alpha=0.5 * (2.0 * lam - 1.0) ** 2,
        beta=2.0 * det2(F.A0),
        gamma=-2.0 * det2(F.A1),
        delta=0.5 * (1.0 + 4.0 * det2(F.Ax)),
    )
