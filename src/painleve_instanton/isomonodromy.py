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

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (BadDeformationParameter, IndeterminateY, OnDivisor,
                     PathTooClose, ReducibleSystem)
from .liealg import commutator, det2, eigen2, trace_sq
from .painleve import PviParams
from .stepper import fd_weights, rk45, rk45_path
from .twistor import (FuchsianData, connection_form, cross_ratio,
                      cross_ratio_derivative, form_matrix, fuchsian_data,
                      lambda_and_dt_at_normalized, residue_closed_form,
                      transverse_form)


@dataclass(frozen=True)
class FuchsianFamily:
    """Fuchsian residue data sampled along the line family, ordered by t."""

    gauge: str
    ts: np.ndarray
    samples: tuple  # of FuchsianData

    def __post_init__(self):
        xs = self.xs
        if not np.all(np.diff(xs.real) > 0):
            raise ValueError("deformation parameter x is not strictly monotone")

    @cached_property
    def xs(self):
        return np.array([F.x for F in self.samples])

    def __len__(self):
        return len(self.samples)


_PROBES = (0.37 + 0.41j, -0.83 + 0.29j, 1.72 - 0.63j)


def gauge_rate(profile, t):
    """Constant term C(t) of the transverse connection in the normalised
    coordinate; computed at a probe point and independent of it."""
    x = cross_ratio(t)
    xd = cross_ratio_derivative(t)
    Ax = form_matrix(profile.oriented_values(t), residue_closed_form(t).column("x"))
    for probe in _PROBES:
        lam, lam_t = lambda_and_dt_at_normalized(t, probe)
        try:
            B = transverse_form(profile, t, lam) + connection_form(profile, t, lam) * lam_t
        except OnDivisor:
            continue
        return B + xd * Ax / (probe - x)
    raise RuntimeError(f"no usable probe point at t = {t}")


def make_family(profile, ts, gauge="line"):
    """Sample the residue family; gauge is "line" (raw) or "schlesinger"."""
    ts = np.asarray(ts, dtype=float)
    raw = [fuchsian_data(profile, t) for t in ts]
    if gauge == "line":
        return FuchsianFamily(gauge="line", ts=ts, samples=tuple(raw))
    if gauge != "schlesinger":
        raise ValueError(f"unknown gauge {gauge!r}")

    def flow(t, g):
        return (-gauge_rate(profile, t) @ g.reshape(2, 2)).ravel()

    gs = rk45_path(flow, ts, np.eye(2, dtype=complex).ravel(), rtol=1e-12, atol=1e-14)
    samples = tuple(F.conjugated(g.reshape(2, 2)) for F, g in zip(raw, gs))
    return FuchsianFamily(gauge="schlesinger", ts=ts, samples=samples)


# --------------------------------------------------------------------------
# Schlesinger equations
# --------------------------------------------------------------------------

def schlesinger_field(x, A0, A1, Ax):
    """(dA0, dA1, dAx)/dx of the Schlesinger system."""
    if min(abs(x), abs(x - 1.0)) < 1e-12:
        raise BadDeformationParameter(f"x = {x} touches a fixed singular point")
    d0 = commutator(A0, Ax) / x
    d1 = commutator(A1, Ax) / (x - 1.0)
    return d0, d1, -d0 - d1


def schlesinger_rhs(F):
    """The Schlesinger field at the sample F."""
    return schlesinger_field(F.x, F.A0, F.A1, F.Ax)


def schlesinger_residual(fam, k):
    """Frobenius-norm defect of the finite-difference x-derivatives of
    (A0, A1, Ax) against the Schlesinger right-hand side at sample k."""
    if not 2 <= k <= len(fam) - 3:
        raise IndexError("5-point stencil needs 2 <= k <= len-3")
    xs = fam.xs
    window = slice(k - 2, k + 3)
    w = fd_weights(xs[window].real, xs[k].real, 1)[1]
    rhs = schlesinger_rhs(fam.samples[k])
    total = 0.0
    for p, want in zip(range(3), rhs):
        mats = [fam.samples[k - 2 + j].residues()[p] for j in range(5)]
        got = sum(wj * m for wj, m in zip(w, mats))
        total += float(np.sqrt(np.sum(np.abs(got - want) ** 2)))
    return total


def max_schlesinger_residual(fam):
    return max(schlesinger_residual(fam, k) for k in range(2, len(fam) - 2))


def isospectral_drift(fam):
    """max - min of tr(A_p^2) over the family, for each of the four poles."""
    traces = np.array([[trace_sq(m) for m in F.residues()] for F in fam.samples])
    return tuple(float(np.max(np.abs(traces[:, p] - traces[0, p])))
                 for p in range(4))


def pair_invariants(F):
    """Conjugation invariants tr(A_i A_j) for all pole pairs (4x4)."""
    mats = F.residues()
    out = np.empty((4, 4), dtype=complex)
    for i in range(4):
        for j in range(4):
            out[i, j] = np.trace(mats[i] @ mats[j])
    return out


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
                        Ainf=-(A0 + A1 + Ax), gauge=F0.gauge)


# --------------------------------------------------------------------------
# Jimbo-Miwa extraction
# --------------------------------------------------------------------------

def _branch_frame(F, branch):
    lam, v_plus, v_minus = eigen2(F.Ainf)
    if branch == "minus":
        lam, v_plus, v_minus = -lam, v_minus, v_plus
    elif branch != "plus":
        raise ValueError("branch must be 'plus' or 'minus'")
    P = np.column_stack([v_plus, v_minus])
    det = P[0, 0] * P[1, 1] - P[0, 1] * P[1, 0]
    Pi = np.array([[P[1, 1], -P[0, 1]], [-P[1, 0], P[0, 0]]]) / det
    return lam, P, Pi


def extract_y(F, branch="plus"):
    """Position y of the apparent singularity for the chosen eigen-branch.

    In the frame diagonalising Ainf = diag(lam, -lam), y is the zero of the
    numerator c2 z^2 + c1 z + c0 of the (2,1) entry of the residue sum
    A(zeta); there the lam-eigenvector of Ainf is a common eigenvector of
    A(y) and Ainf.  On a consistent quadruple, Ainf = -(A0 + A1 + Ax), the
    leading coefficient c2 = -(P^-1 Ainf P)_21 vanishes and y = -c0/c1; a
    quadruple with |c2| above roundoff of the residues raises.
    """
    lam, P, Pi = _branch_frame(F, branch)
    x = F.x
    b = [(Pi @ A @ P)[1, 0] for A in (F.A0, F.A1, F.Ax)]
    size = max(1.0, float(max(np.max(np.abs(A)) for A in F.residues())))
    scale = max(abs(v) for v in b)
    if scale < 1e-12 * size:
        raise ReducibleSystem("all off-diagonal couplings vanish")
    c2 = b[0] + b[1] + b[2]
    if abs(c2) > 1e-12 * size:
        raise IndeterminateY(f"inconsistent residues at t = {F.t} ({branch} branch): "
                             f"|c2| = {abs(c2):.3e}")
    c1 = -b[0] * (1.0 + x) - b[1] * x - b[2]
    if abs(c1) < 1e-12 * scale:
        raise IndeterminateY("numerator polynomial is degenerate")
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
