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
a pole at t=0, K2 at t=1), so the solver takes analytic endpoint series
with the closed-form shooting parameters and sweeps from the t = 1 series
down to the t = 0 series' launch point, where the two are matched.  The
system is polynomial, so one recurrence gives its Taylor coefficients about
any point: the endpoint series at t = 0 and t = 1, and the steps of the
sweep in between.

Boundary data used by the solver: a1(0) = 1, a2(0) = a3(0) (regularity),
and (a1, a2, a3)(1) = (0, n, 0); the sign of a2(1) is conventional (pairs of
sign flips are gauge), fixed so that n = 1 yields the constant profile
(1, 1, 1) exactly.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .columns import csv_text, json_text
from .errors import (DegenerateCoefficient, NoAnalyticBranch, PoleAtEndpoint,
                     ShotFailed, StepSizeUnderflow)
from .liealg import det2, stack_trailing


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


def _horner(c, s):
    """sum_j c[j] s^j by Horner's rule over the first axis of c: lists of
    Python floats in the sweep, arrays that broadcast against s elsewhere."""
    acc = c[-1]
    for row in c[-2::-1]:
        acc = acc * s + row
    return acc


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
        return _horner(self.coeffs.swapaxes(0, 1)[:, k], s[..., None])

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
        slopes = self.coeffs[:, 1:] * np.arange(1.0, self.coeffs.shape[1])[:, None]
        return _horner(slopes.swapaxes(0, 1)[:, k], s[..., None])

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
        c = [float(lead)]
        for root in roots:  # times (s + origin - root)
            shift = origin - root
            c = [u * shift + v for u, v in zip(c + [0.0], [0.0] + c)]
        return tuple(v + 0.0 for v in c)
    return (tuple(coefficients(*P) for P, _ in _ODE),
            tuple(coefficients(*Q) for _, Q in _ODE))


# Per side: P, Q, the chain row (P_i(0) != 0: its order-(m-1) equation
# fixes a_i's order-m coefficient alone), the pair rows (P_i(0) = 0: their
# order-m equations form a 2x2 system in the same two components' order-m
# coefficients) and the unit kernel of that system at the resonant order.
_SIDES = {"t0": (*_local_polynomials(0), 0, (1, 2), np.array([1.0, -1.0]) / math.sqrt(2.0)),
          "t1": (*_local_polynomials(1), 1, (0, 2), np.array([1.0, 1.0]) / math.sqrt(2.0))}


def _sources(c, m):
    """Order-m coefficients of the sources a_j a_k - a_i for the coefficient
    rows c (3 lists), each Cauchy product summed in increasing index order."""
    return tuple(sum(map(operator.mul, c[j][:m + 1], c[k][m::-1])) - c[i][m]
                 for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)))


def _equation(P, Q, c, g, i, m):
    """Order-m coefficient of P_i a_i' - Q_i (a_j a_k - a_i) for the
    coefficient rows c and the source coefficients g (g[e] from _sources)."""
    ci = c[i]
    lhs = 0.0
    for d in range(max(0, m + 2 - len(ci)), min(len(P[i]) - 1, m) + 1):
        lhs += P[i][d] * ((m + 1 - d) * ci[m + 1 - d])
    rhs = 0.0
    for d in range(min(len(Q[i]) - 1, m) + 1):
        rhs += Q[i][d] * g[m - d][i]
    return lhs - rhs


def _chain_order(P, Q, c, g, rows, m):
    """One order of the recurrence: form the order-(m-1) sources once, into
    g[m - 1] (replacing a provisional entry), and give each chain row i
    (P_i(0) != 0) its order-m coefficient from its order-(m-1) equation, by
    one division by P_i(0) m."""
    g[m - 1:] = [_sources(c, m - 1)]
    for i in rows:
        c[i][m] = -_equation(P, Q, c, g, i, m - 1) / (P[i][0] * m)


def endpoint_series(n, side, order, params=None):
    """Analytic endpoint branch of the anti-self-dual system, order by order:
    its coefficients as a (3, order + 1) array in increasing powers of the
    local variable s = t (side "t0") or s = t - 1 (side "t1").

    side "t0" has two free parameters (p, r), default (1, 0): p = a2(0) =
    a3(0), r = the order-1 resonance amplitude along a2 - a3.  side "t1" has
    one, (q,), default 0: the kernel amplitude at the resonant order
    (n-1)/2 (the boundary value a1(1) = a3(1) itself for n = 1).

    At each order m the chain row's order-(m-1) equation gives its
    component by one division by P_i(0) m (`_chain_order`, which the
    interior Taylor steps share).  The pair rows (a, b) give
    L_m x = -b_m in their order-m coefficients x, b_m being their order-m
    equations at x = 0 and, with c0 the chain component at the endpoint,
    L_m = [[m P_a'(0) + Q_a(0), -Q_a(0) c0], [-Q_b(0) c0, m P_b'(0) + Q_b(0)]].
    At the resonant order L_m is exactly singular: a minimum-norm solution is
    taken, its kernel component replaced by the shooting parameter, and an
    inconsistent resonance raises NoAnalyticBranch.  Coefficients that
    overflow (a wild shooting parameter) raise OverflowError at the first
    order that is not finite.  A t1 series with params below its resonant
    order (n-1)/2 would never see q: that is a ValueError.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    if side == "t0":
        p, amount = params if params is not None else (1.0, 0.0)
        start, resonant = (1.0, p, p), 1
    elif side == "t1":
        (amount,) = params if params is not None else (0.0,)
        resonant = (n - 1) // 2
        if params is not None and order < resonant:
            raise ValueError(f"t1 series order {order} is below the resonant "
                             f"order {resonant}, where q enters")
        start = (amount, float(n), amount) if resonant == 0 else (0.0, float(n), 0.0)
    else:
        raise ValueError("side must be 't0' or 't1'")
    P, Q, chain, pair, kernel = _SIDES[side]
    c = [[v] + [0.0] * order for v in start]
    g = []
    (pa, qa), (pb, qb) = ((P[row][1], Q[row][0]) for row in pair)
    c0 = start[chain]
    with np.errstate(all="ignore"):  # a non-finite order raises below
        for m in range(1, order + 1):
            _chain_order(P, Q, c, g, (chain,), m)
            # provisional: the pair rows' order-m coefficients are still 0
            g.append(_sources(c, m))
            b = np.array([_equation(P, Q, c, g, row, m) for row in pair])
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
    return np.array(c)


# --------------------------------------------------------------------------
# boundary-value solver
# --------------------------------------------------------------------------

SERIES_ORDER = 20
RTOL = 1e-12


def _seed(n):
    """Closed-form shooting parameters (p, r, q) for odd n, with k = (n-1)/2:

        p = prod_j (3j+1)/(3j-1),   r = 2/3 (prod_j (3j+2)/(3j-2) - p),
        q = prod_j -(2j+1)/(2j),    j = 1..k.

    Exact for n = 1, 3, 5; for larger n the shot from them misses the match
    by the sweep's truncation error only (it falls with RTOL; relative to
    |a| it is 9.4e-15 at n = 7, 4.6e-14 at 21 and <= 6.2e-14 for every odd
    n <= 85 and n = 91, 101), so `solve_bvp` takes them as the solution.
    Integer products keep each value one correctly rounded division.
    """
    js = range(1, (n - 1) // 2 + 1)
    p_num, p_den = math.prod(3 * j + 1 for j in js), math.prod(3 * j - 1 for j in js)
    s_num, s_den = math.prod(3 * j + 2 for j in js), math.prod(3 * j - 2 for j in js)
    r = 2 * (s_num * p_den - p_num * s_den) / (3 * s_den * p_den)
    q = (-1) ** len(js) * math.prod(2 * j + 1 for j in js) / math.prod(2 * j for j in js)
    return p_num / p_den, r, q


# The deepest launch of either endpoint series.  `_step_size` alone would
# launch the t = 1 series at about 0.3 for n = 19, which raised the
# profile's error inside [0.5, 0.95] from 2e-15 to 9e-13; at n = 1, where
# every term beyond the constant is zero, it gives no bound at all.
MAX_LAUNCH_DEPTH = 0.15


def _taylor(origin, a, order):
    """Coefficients (3 lists, increasing powers of t - origin) of the
    solution through a(origin) = a up to `order`, for an origin inside
    (0, 1): there every P_i(origin) != 0, so all three rows are chain rows."""
    P, Q = _local_polynomials(origin)
    c = [[v] + [0.0] * order for v in a]
    g = []
    for m in range(1, order + 1):
        _chain_order(P, Q, c, g, (0, 1, 2), m)
    return c


def _step_size(c):
    """Largest |h| at which each component's last two terms (rows of c, in
    increasing powers of h) stay below RTOL times its leading nonzero term:
    the one rule for every Taylor step and both launch depths.  Purely
    relative, because a1 and a3 vanish like (1 - t)^((n-1)/2) toward t = 1
    and an absolute bound would swamp them; where no component is zero the
    leading term is the constant a_i.  Infinite if every such term is zero."""
    h = math.inf
    for row in c:
        lead = next((m for m, v in enumerate(row) if v != 0.0), len(row))
        for m in range(max(lead + 1, len(row) - 2), len(row)):
            if row[m] != 0.0:
                h = min(h, (RTOL * abs(row[lead]) / abs(row[m])) ** (1.0 / (m - lead)))
    return h


def _sweep(t, a, t_end, pieces):
    """a(t_end) from a(t) = a by Taylor steps of order SERIES_ORDER, each
    sized by `_step_size`, evaluated by `_horner` and appended to pieces as
    (left edge, origin, coefficients).  OverflowError once a component is
    not finite or exceeds 1e8 (a blow-up), including at t_end;
    StepSizeUnderflow once a step no longer moves t."""
    while True:
        # the comparisons are False for NaN and infinities as well
        if not all(abs(v) <= 1e8 for v in a):
            raise OverflowError(f"profile trajectory blow-up at t = {t}")
        if t == t_end:
            return np.array(a)
        c = _taylor(t, a, SERIES_ORDER)
        h = _step_size(c)
        if 0.1 * h <= math.ulp(1.0) * abs(t):
            raise StepSizeUnderflow(t, h)
        t_new = t_end if h >= abs(t_end - t) else t + math.copysign(h, t_end - t)
        pieces.append((min(t, t_new), t, np.array(c).T))
        a = [_horner(row, t_new - t) for row in c]
        t = t_new


def solve_bvp(n):
    """Shooting solve of the anti-self-dual boundary-value problem from the
    closed-form shooting parameters `_seed(n)`.

    Each endpoint series is launched at the depth `_step_size` gives it,
    at most MAX_LAUNCH_DEPTH: as far inside as its truncation stays below
    RTOL, because a launch at the very endpoint amplifies noise along the
    resonant modes (factor (s/eps)^((n-1)/2) on the t1 side).  The left
    state is the t = 0 series (with p, r) at its launch depth.  The t = 1
    series (with q, at order SERIES_ORDER + (n-1)/2, so that q always
    enters) is swept once from its launch point down to that left state by
    Taylor steps: toward t = 0 is the stable direction, since a1 and a3
    decay like (1 - t)^((n-1)/2) toward t = 1.  There is no iteration: the
    seed law is the solution, and the shot misses the match only by the
    sweep's truncation error.  meta["match_defect"] is that miss relative
    to the solution's size, ||a_left - a_right|| / max|a_left|, for the
    report's `match` check to bound.
    The profile is the shot kept as its piecewise polynomial: the two
    endpoint series and the Taylor polynomial of every step, zero-padded to
    the t = 1 series' degree.  Its jump at breaks[1] is the unscaled defect.
    ShotFailed names the side: "t0" if its series overflows, "t1" if its
    series or the sweep blows up or a step no longer moves t.
    """
    if n < 1 or n % 2 == 0:
        raise ValueError(f"n must be odd and positive (|n| label), got {n}")
    p, r, q = _seed(n)
    try:
        left = endpoint_series(n, "t0", SERIES_ORDER, (p, r))
    except OverflowError as exc:
        raise ShotFailed("t0", str(exc)) from exc
    t_left = min(_step_size(left), MAX_LAUNCH_DEPTH)
    a_left = _horner(left.T, t_left)
    steps = []
    try:
        right = endpoint_series(n, "t1", SERIES_ORDER + (n - 1) // 2, (q,))
        t_right = 1.0 - min(_step_size(right), MAX_LAUNCH_DEPTH)
        a_right = _sweep(t_right, _horner(right.T, t_right - 1.0).tolist(), t_left, steps)
    except (OverflowError, StepSizeUnderflow) as exc:
        raise ShotFailed("t1", str(exc)) from exc
    defect = float(np.linalg.norm(a_left - a_right)) / float(np.max(np.abs(a_left)))

    pieces = [(0.0, 0.0, left.T), *reversed(steps), (t_right, 1.0, right.T)]
    lefts, origins, blocks = zip(*pieces)
    coeffs = np.zeros((len(blocks), len(blocks[-1]), 3))
    for k, block in enumerate(blocks):
        coeffs[k, :len(block)] = block
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
