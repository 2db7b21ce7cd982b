"""Reduced (anti-)self-duality ODE system for the invariant profile functions
(a1, a2, a3)(t) on (0, 1), its closed-form solutions, and a singular
two-point boundary-value solver.

The anti-self-dual branch is

    -K_i(t)/2 * da_i/dt = a_j a_k - a_i     (i,j,k cyclic),

with the coefficient pairing (K1, K2, K3).  The self-dual branch has +1 on
the left and pairs the second and third components with (K3, K2) instead:
orientation reversal exchanges those two axes.  Both conventions are
anchored by the closed forms, which solve their branches identically: the
self-dual Hopf profile fixes the + branch, and the globally negated
anti-self-dual closed form fixes the - branch.  Both endpoints are singular (K1 has
a pole at t=0, K2 at t=1), so the solver launches on analytic endpoint
series and shoots from both ends to a matching point with the closed-form
shooting parameters.

Boundary data used by the solver: a1(0) = 1, a2(0) = a3(0) (regularity),
and (a1, a2, a3)(1) = (0, n, 0); the sign of a2(1) is conventional (pairs of
sign flips are gauge), fixed so that n = 1 yields the constant profile
(1, 1, 1) exactly.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .columns import csv_text, json_text
from .errors import (DegenerateCoefficient, NoAnalyticBranch, PoleAtEndpoint,
                     SeriesBelowResonance, ShotFailed)
from .liealg import det2, stack_trailing
from .stepper import rk45, step_polynomial


class DualitySign(enum.Enum):
    SELF_DUAL = 1
    ANTI_SELF_DUAL = -1


# The ODE itself: the branch -K_i/2 * a_i' = a_j a_k - a_i is the polynomial
# identity P_i(t) a_i' = Q_i(t) (a_j a_k - a_i), so K_i = -2 P_i / Q_i.  Per
# i, P_i and Q_i as (leading coefficient, integer roots).
_ODE = (((-1.0, (1, -1, 3, -3)), (8.0, (0,))),
        ((-2.0, (0, 3, -1)), (1.0, (-3, 1))),
        ((-2.0, (0, -3, 1)), (1.0, (3, -1))))


def coeff_K(index, t):
    """Metric coefficients K1, K2, K3 of the reduced duality system,
    evaluated in factored form; PoleAtEndpoint where Q_index(t) = 0."""
    if index not in (1, 2, 3):
        raise ValueError(f"index must be 1, 2 or 3, got {index}")
    (p_lead, p_roots), (q_lead, q_roots) = _ODE[index - 1]
    num, den = -2.0 * p_lead, q_lead
    for root in p_roots:
        num *= t - root
    for root in q_roots:
        den *= t - root
    if den == 0.0:
        raise PoleAtEndpoint(f"K{index} has a pole at t = {t}")
    return num / den


def _coeff_order(sign):
    # orientation reversal exchanges the second and third axes
    return (1, 2, 3) if sign is DualitySign.ANTI_SELF_DUAL else (1, 3, 2)


def _duality_terms(sign, t, a):
    """Coefficients sigma*K_i/2 and sources a_j a_k - a_i of the branch
    sigma*K_i/2 * da_i/dt = a_j a_k - a_i, for one t, as two 3-sequences."""
    half = 0.5 * sign.value
    coef = []
    for index in _coeff_order(sign):
        K = coeff_K(index, t)
        if abs(K) < 1e-14:
            raise DegenerateCoefficient(f"K{index}({t}) = {K}")
        coef.append(half * K)
    a1, a2, a3 = a
    return coef, (a2 * a3 - a1, a3 * a1 - a2, a1 * a2 - a3)


def asd_rhs(sign, t, a):
    """Right-hand side (da1, da2, da3)/dt of the chosen duality branch."""
    coef, source = _duality_terms(sign, float(t), [float(v) for v in a])
    return np.array([s / c for s, c in zip(source, coef)])


# --------------------------------------------------------------------------
# profiles
# --------------------------------------------------------------------------

class ProfileKind(enum.Enum):
    TRIVIAL = "trivial"
    HOPF_SD = "hopf_sd"
    E_MINUS_3 = "e_minus_3"
    NUMERIC = "numeric"


def _closed_values(kind, t):
    d = t * t + 3.0
    if kind is ProfileKind.TRIVIAL:
        return np.ones(np.shape(t) + (3,))
    if kind is ProfileKind.HOPF_SD:
        return stack_trailing([(t * t - 9.0) / d,
                               -2.0 * t * (t + 3.0) / d,
                               -2.0 * t * (t - 3.0) / d])
    if kind is ProfileKind.E_MINUS_3:
        return stack_trailing([3.0 * (1.0 - t * t) / d,
                               -6.0 * (t + 1.0) / d,
                               -6.0 * (t - 1.0) / d])
    raise ValueError(kind)


def _closed_derivative(kind, t):
    d2 = (t * t + 3.0) ** 2
    if kind is ProfileKind.TRIVIAL:
        return np.zeros(np.shape(t) + (3,))
    if kind is ProfileKind.HOPF_SD:
        return stack_trailing([24.0 * t / d2,
                               6.0 * (t - 3.0) * (t + 1.0) / d2,
                               -6.0 * (t + 3.0) * (t - 1.0) / d2])
    if kind is ProfileKind.E_MINUS_3:
        return stack_trailing([-24.0 * t / d2,
                               6.0 * (t + 3.0) * (t - 1.0) / d2,
                               6.0 * (t - 3.0) * (t + 1.0) / d2])
    raise ValueError(kind)


@dataclass(frozen=True)
class ProfileTriple:
    """Profile functions (a1, a2, a3) on (0, 1), closed-form or numeric.

    A numeric profile is one piecewise polynomial on [0, 1]: piece k covers
    [breaks[k], breaks[k+1]] and is sum_j coeffs[k, j] (t - origins[k])^j.
    `component_signs` records sign flips applied relative to the printed
    closed form (pairs of flips are gauge).
    """

    kind: ProfileKind
    n: int
    breaks: np.ndarray | None = None  # shape (P + 1,)
    origins: np.ndarray | None = None  # shape (P,)
    coeffs: np.ndarray | None = None  # shape (P, degree + 1, 3)
    component_signs: tuple = (1, 1, 1)
    sign_convention: str = "printed"
    meta: dict = field(default_factory=dict)

    COLUMNS = ("t", "a1", "a2", "a3")
    JSON_ROW = dict.fromkeys(COLUMNS)

    def __post_init__(self):
        if self.kind is ProfileKind.NUMERIC:
            if any(v is None for v in (self.breaks, self.origins, self.coeffs)):
                raise ValueError("numeric profiles need breaks, origins and coeffs")
            if not (np.all(np.diff(self.breaks) > 0) and self.breaks[0] == 0.0
                    and self.breaks[-1] == 1.0):
                raise ValueError("breaks must increase strictly from 0 to 1")

    def _local(self, t):
        """Piece index k and offset t - origins[k] of each t (the end pieces
        extend beyond [0, 1])."""
        t = np.asarray(t, dtype=float)
        k = np.clip(np.searchsorted(self.breaks, t, side="right") - 1,
                    0, len(self.origins) - 1)
        return k, t - self.origins[k]

    def values(self, t):
        """(a1, a2, a3) at t, shape (..., 3) for t of shape (...)."""
        if self.kind is not ProfileKind.NUMERIC:
            return _closed_values(self.kind, t) * np.asarray(self.component_signs)
        k, s = self._local(t)
        powers = s[..., None] ** np.arange(self.coeffs.shape[1])
        return np.einsum("...j,...jc->...c", powers, self.coeffs[k])

    def oriented_values(self, t):
        """Components in the anti-self-dual orientation used by the twistor
        machinery: self-dual profiles couple with axes 2 and 3 exchanged."""
        a = self.values(t)
        if self.kind is ProfileKind.HOPF_SD:
            return a[..., [0, 2, 1]]
        return a

    def derivative(self, t):
        """da/dt, shape (..., 3) for t of shape (...): exact for closed
        forms, and the derivative of its piece for numeric profiles."""
        if self.kind is not ProfileKind.NUMERIC:
            return _closed_derivative(self.kind, t) * np.asarray(self.component_signs)
        k, s = self._local(t)
        j = np.arange(1, self.coeffs.shape[1])
        powers = j * s[..., None] ** (j - 1)
        return np.einsum("...j,...jc->...c", powers, self.coeffs[k, 1:])

    # -- serialization ------------------------------------------------------

    def to_csv(self, ts):
        return csv_text(self.COLUMNS, (ts, self.values(np.asarray(ts))))

    def to_json(self, ts):
        points = (self.JSON_ROW, (ts, self.values(np.asarray(ts))))
        return json_text({"n": self.n, "kind": self.kind.value,
                          "sign_convention": self.sign_convention},
                         {"points": points})


def closed_form_profile(kind):
    """The three closed-form profiles, with the printed formulas verbatim."""
    kind = ProfileKind(kind) if not isinstance(kind, ProfileKind) else kind
    if kind is ProfileKind.NUMERIC:
        raise ValueError("numeric profiles come from solve_bvp")
    n = {ProfileKind.TRIVIAL: 1, ProfileKind.HOPF_SD: 3, ProfileKind.E_MINUS_3: 3}[kind]
    return ProfileTriple(kind=kind, n=n)


def asd_closed_profile(n):
    """Anti-self-dual closed-form representative with a1(0)=1, a2(1)=+n.

    For n=3 this is the printed E-3 profile with the a2 sign flipped (an
    odd number of flips: the printed form itself solves the ASD branch only
    after global negation).
    """
    if n == 1:
        return closed_form_profile(ProfileKind.TRIVIAL)
    if n == 3:
        return ProfileTriple(kind=ProfileKind.E_MINUS_3, n=3,
                             component_signs=(1, -1, 1),
                             sign_convention="a2-flipped vs printed")
    raise ValueError(f"no closed form for n = {n}")


def duality_residual(profile, sign, t, global_negation=False):
    """Residuals r_i = sigma*K_i/2 * da_i - (a_j a_k - a_i) at t.

    Closed forms use exact derivatives, numeric profiles the derivative of
    their piecewise polynomial.  With global_negation the test is applied
    to (-a1, -a2, -a3).
    """
    a = profile.values(t)
    da = profile.derivative(t)
    if global_negation:
        a, da = -a, -da
    coef, source = _duality_terms(sign, t, a)
    return np.multiply(coef, da) - source


# --------------------------------------------------------------------------
# endpoint series
# --------------------------------------------------------------------------


def _local_polynomials(origin):
    """P and Q of the ODE table in the local variable s = t - origin (s = t
    at the left end, s = t - 1 at the right end): coefficient tuples in
    increasing powers of s, Python floats (+ 0.0 turns -0.0 into 0.0)."""
    def coefficients(lead, roots):
        return tuple(float(v) + 0.0
                     for v in lead * np.poly(np.subtract(roots, origin))[::-1])
    return (tuple(coefficients(*P) for P, _ in _ODE),
            tuple(coefficients(*Q) for _, Q in _ODE))


# Per side: P, Q, the chain row (P_i(0) != 0: its order-(m-1) equation
# fixes a_i's order-m coefficient alone), the pair rows (P_i(0) = 0: their
# order-m equations form a 2x2 system in the same two components' order-m
# coefficients) and the unit kernel of that system at the resonant order.
_SIDES = {"t0": (*_local_polynomials(0), 0, (1, 2), np.array([1.0, -1.0]) / math.sqrt(2.0)),
          "t1": (*_local_polynomials(1), 1, (0, 2), np.array([1.0, 1.0]) / math.sqrt(2.0))}


def _coefficient(P, Q, c, i, m):
    """Order-m coefficient of P_i a_i' - Q_i (a_j a_k - a_i) for the
    coefficient rows c (3 lists), each sum taken in increasing index order."""
    ci, cj, ck = c[i], c[(i + 1) % 3], c[(i + 2) % 3]
    top = len(ci) - 1
    lhs = 0.0
    for d in range(max(0, m + 1 - top), min(len(P[i]) - 1, m) + 1):
        lhs += P[i][d] * ((m + 1 - d) * ci[m + 1 - d])
    rhs = 0.0
    for d in range(min(len(Q[i]) - 1, m) + 1):
        e = m - d
        prod = 0.0
        for u in range(e + 1):
            prod += cj[u] * ck[e - u]
        rhs += Q[i][d] * (prod - ci[e])
    return lhs - rhs


@dataclass(frozen=True)
class EndpointSeries:
    """Truncated analytic solution branch at a singular endpoint.

    side "t0": two free parameters (p, r) -- p = a2(0) = a3(0), r = the
    order-1 resonance amplitude along a2 - a3.  side "t1": one parameter q,
    the kernel amplitude at the resonant order (n-1)/2 (the boundary value
    a1(1) = a3(1) itself for n = 1).
    """

    side: str
    coeffs: np.ndarray  # (3, order+1) in the local variable

    def eval(self, t):
        s = t if self.side == "t0" else t - 1.0
        return np.array([np.polyval(c[::-1], s) for c in self.coeffs])


def endpoint_series(n, side, order, params=None):
    """Analytic endpoint branch of the anti-self-dual system, order by order.

    params: (p, r) for side "t0" (default (1, 0)); (q,) for side "t1"
    (default 0).  At each order m the chain row's order-(m-1) equation gives
    its component by one division by P_i(0) m.  The pair rows (a, b) give
    L_m x = -b_m in their order-m coefficients x, b_m being their order-m
    equations at x = 0 and, with c0 the chain component at the endpoint,
    L_m = [[m P_a'(0) + Q_a(0), -Q_a(0) c0], [-Q_b(0) c0, m P_b'(0) + Q_b(0)]].
    At the resonant order L_m is exactly singular: a minimum-norm solution is
    taken, its kernel component replaced by the shooting parameter, and an
    inconsistent resonance raises NoAnalyticBranch.  Coefficients that
    overflow (a wild shooting parameter) raise OverflowError at the first
    order that is not finite.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    if side == "t0":
        p, amount = params if params is not None else (1.0, 0.0)
        start, resonant = (1.0, p, p), 1
    elif side == "t1":
        (amount,) = params if params is not None else (0.0,)
        resonant = (n - 1) // 2
        start = (amount, float(n), amount) if resonant == 0 else (0.0, float(n), 0.0)
    else:
        raise ValueError("side must be 't0' or 't1'")
    P, Q, chain, pair, kernel = _SIDES[side]
    c = [[v] + [0.0] * order for v in start]
    (pa, qa), (pb, qb) = ((P[row][1], Q[row][0]) for row in pair)
    c0 = start[chain]
    with np.errstate(all="ignore"):  # a non-finite order raises below
        for m in range(1, order + 1):
            c[chain][m] = -_coefficient(P, Q, c, chain, m - 1) / (P[chain][0] * m)
            b = np.array([_coefficient(P, Q, c, row, m) for row in pair])
            L = np.array([[m * pa + qa, -qa * c0], [-qb * c0, m * pb + qb]])
            if m != resonant:
                det = det2(L)
                sol = ((-b[0] * L[1, 1] + b[1] * L[0, 1]) / det,
                       (-b[1] * L[0, 0] + b[0] * L[1, 0]) / det)
            else:
                sol, *_ = np.linalg.lstsq(L, -b, rcond=None)
                defect = float(np.max(np.abs(L @ sol + b)))
                if defect > 1e-8 * max(1.0, float(np.max(np.abs(b)))):
                    raise NoAnalyticBranch(m, defect)
                sol = sol - (sol @ kernel) * kernel + amount * math.sqrt(2.0) * kernel
            c[pair[0]][m], c[pair[1]][m] = (float(v) for v in sol)
            if not all(math.isfinite(row[m]) for row in c):
                raise OverflowError(f"endpoint series not finite at order {m}")
    return EndpointSeries(side, np.array(c))


# --------------------------------------------------------------------------
# boundary-value solver
# --------------------------------------------------------------------------

MATCH_POINT = 0.5
SERIES_ORDER = 20
RTOL = 1e-12


def _seed(n):
    """Closed-form shooting parameters (p, r, q) for odd n, with k = (n-1)/2:

        p = prod_j (3j+1)/(3j-1),   r = 2/3 (prod_j (3j+2)/(3j-2) - p),
        q = prod_j -(2j+1)/(2j),    j = 1..k.

    Exact for n = 1, 3, 5; for larger n the shot from them misses the match
    by the sweeps' integration error only (it falls with RTOL; relative to
    |a| it is 1.4e-13 at n = 7, 8.6e-12 at 21 and 1.2e-9 at 31), so
    `solve_bvp` takes them as the solution.  Integer products keep each
    value one correctly rounded division.
    """
    js = range(1, (n - 1) // 2 + 1)
    p_num, p_den = math.prod(3 * j + 1 for j in js), math.prod(3 * j - 1 for j in js)
    s_num, s_den = math.prod(3 * j + 2 for j in js), math.prod(3 * j - 2 for j in js)
    r = 2 * (s_num * p_den - p_num * s_den) / (3 * s_den * p_den)
    q = (-1) ** len(js) * math.prod(2 * j + 1 for j in js) / math.prod(2 * j for j in js)
    return p_num / p_den, r, q


def _asd_flow(t, a):
    a1, a2, a3 = a.tolist()
    # the comparisons are False for NaN and infinities as well
    if not (abs(a1) <= 1e8 and abs(a2) <= 1e8 and abs(a3) <= 1e8):
        raise OverflowError("profile trajectory blow-up")
    return asd_rhs(DualitySign.ANTI_SELF_DUAL, t, (a1, a2, a3))


_DEPTHS = (0.15, 0.1, 0.05, 0.02, 0.01, 1e-3, 1e-4)


def _launch_depth(series):
    """Deepest interior launch at which the series tail is at machine level.

    Integrating from the very endpoint amplifies noise along the resonant
    modes (factor (s/eps)^(n-1)/2 on the t1 side), so the launch goes as far
    inside as the truncated series stays accurate; the last entry of
    _DEPTHS if no depth qualifies.
    """
    c = series.coeffs
    order = c.shape[1] - 1
    for s in _DEPTHS:
        tail = sum(float(np.max(np.abs(c[:, m]))) * s**m
                   for m in range(max(order - 2, 1), order + 1))
        if tail < 1e-14 * max(1.0, float(np.max(np.abs(c[:, 0]))) + 1.0):
            return s
    return _DEPTHS[-1]


def _shoot(n, side, params, pieces):
    """a(MATCH_POINT) shot from the endpoint series of one side with its
    parameters ((p, r) for "t0", (q,) for "t1"), in one rk45 sweep from the
    launch point.  Appends that side's pieces to the list as (left edge,
    origin, coefficients): the series from the endpoint to the launch
    point, then the continuous extension of every accepted step.
    ShotFailed names the side if its series or sweep blows up or hits a
    degenerate coefficient, or if a(MATCH_POINT) is not finite."""
    def on_step(t, y, y_new, h, K, t_new):
        pieces.append((min(t, t_new), t, step_polynomial(_asd_flow, t, y, y_new, h, K)))

    origin = 0.0 if side == "t0" else 1.0
    try:
        series = endpoint_series(n, side, SERIES_ORDER, params)
        depth = _launch_depth(series)
        t_launch = depth if side == "t0" else 1.0 - depth
        pieces.append((min(origin, t_launch), origin, series.coeffs.T))
        # purely relative: a1 and a3 vanish like (1 - t)^((n-1)/2) toward t = 1
        a = rk45(_asd_flow, t_launch, series.eval(t_launch), MATCH_POINT,
                 rtol=RTOL, atol=0.0, on_step=on_step)
    except (OverflowError, DegenerateCoefficient) as exc:
        raise ShotFailed(side, str(exc)) from exc
    if not np.all(np.isfinite(a)):
        raise ShotFailed(side, f"a({MATCH_POINT}) = {a} is not finite")
    return a


def solve_bvp(n):
    """Two-sided shooting solve of the anti-self-dual boundary-value problem
    from the closed-form shooting parameters `_seed(n)`.

    Launches on the endpoint series near t = 0 (with p, r) and t = 1 (with
    q) and integrates each branch once to MATCH_POINT.  There is no
    iteration: the seed law is the solution, and the shot misses the match
    only by the sweeps' integration error.  meta["match_defect"] is that
    miss relative to the solution's size, ||a_left - a_right|| /
    max|a_left|, for the report's `match` check to bound.
    The profile is the shot kept as its piecewise polynomial: the two
    endpoint series and the continuous extension of every accepted step of
    both sweeps.  Its jump at MATCH_POINT is the unscaled defect.
    """
    if n < 1 or n % 2 == 0:
        raise ValueError(f"n must be odd and positive (|n| label), got {n}")
    if (n - 1) // 2 > SERIES_ORDER:
        # below its resonant order the t1 series never sees q
        raise SeriesBelowResonance(f"endpoint series at t1: order {SERIES_ORDER} "
                                   f"is below the resonant order {(n - 1) // 2}")
    p, r, q = _seed(n)
    pieces = []
    left = _shoot(n, "t0", (p, r), pieces)
    right = _shoot(n, "t1", (q,), pieces)
    defect = float(np.linalg.norm(left - right)) / float(np.max(np.abs(left)))

    pieces.sort(key=lambda piece: piece[0])
    coeffs = np.zeros((len(pieces), max(len(c) for *_, c in pieces), 3))
    for k, (_, _, c) in enumerate(pieces):
        coeffs[k, :len(c)] = c
    lefts, origins, _ = zip(*pieces)
    return ProfileTriple(
        kind=ProfileKind.NUMERIC, n=n, breaks=np.array(lefts + (1.0,)),
        origins=np.array(origins), coeffs=coeffs,
        sign_convention="a1(0)=1, a2(1)=+n",
        meta={"match_defect": defect},
    )


def conserved_tr(profile, t):
    """tr(A_inf^2)(t) = -2 sum_i a_i(t)^2 alpha_{i,inf}(t)^2 = -2 u.u.

    Cross terms vanish because tr(X_i X_j) = 0 for i != j, and the signs
    from alpha_{i,0} to alpha_{i,inf} square away; constancy in t is the
    executable form of the deformation invariant.
    """
    from .twistor import residue_closed_form

    val = -2.0 * np.sum((profile.oriented_values(t) * residue_closed_form(t)) ** 2)
    return float(val.real) if abs(val.imag) < 1e-9 * max(1.0, abs(val)) else val
