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
sweep in between.  The recurrence (`_chain_order`) keeps the coefficients
and the sources a_j a_k - a_i as three per-component rows, so each order is
a few sums of products over slices of Python numbers: floats in the solve,
Fractions in the exactness tests.  Each sum keeps one fixed order, so the
rounding, and every profile coefficient, is the same however the rows are
laid out.

Boundary data used by the solver: a1(0) = 1, a2(0) = a3(0) (regularity),
and (a1, a2, a3)(1) = (0, n, 0); the sign of a2(1) is conventional (pairs of
sign flips are gauge), fixed so that n = 1 yields the constant profile
(1, 1, 1) exactly.
"""

from __future__ import annotations

import enum
import math
from operator import mul
from dataclasses import dataclass, field

import numpy as np

from .errors import (DegenerateCoefficient, NoAnalyticBranch, PoleAtEndpoint,
                     ShotFailed, StepSizeUnderflow)
from .stepper import Jet


class DualitySign(enum.Enum):
    SELF_DUAL = 1
    ANTI_SELF_DUAL = -1


# The ODE itself: the branch -K_i/2 * a_i' = a_j a_k - a_i is the polynomial
# identity P_i(t) a_i' = Q_i(t) (a_j a_k - a_i), so K_i = -2 P_i / Q_i.  Per
# i, P_i and Q_i as (integer leading coefficient, integer roots).
_ODE = (((-1, (1, -1, 3, -3)), (8, (0,))),
        ((-2, (0, 3, -1)), (1, (-3, 1))),
        ((-2, (0, -3, 1)), (1, (3, -1))))

# Q_i/P_i = sum_a ODE_EXPONENTS[a, i] / (t - a) over the roots a of the P_i
# (partial fractions, P_i having simple roots): Q_i(a)/P_i'(a).  The residue
# column has w_hat_i'/w_hat_i = Q_i/P_i, so these are its powers of t - a.
ROOTS = (0, 1, -1, 3, -3)
ODE_EXPONENTS = np.array([[q_lead * math.prod(a - r for r in q_roots)
                           / (p_lead * math.prod(a - r for r in p_roots if r != a))
                           if a in p_roots else 0.0
                           for (p_lead, p_roots), (q_lead, q_roots) in _ODE]
                          for a in ROOTS])


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


# The closed forms are a_i = N_i(t) / (t^2 + 3): row j holds the t^j
# coefficients of (N_1, N_2, N_3), as printed.
_NUMERATORS = {
    ProfileKind.TRIVIAL: ((3.0, 3.0, 3.0), (0.0, 0.0, 0.0), (1.0, 1.0, 1.0)),
    ProfileKind.HOPF_SD: ((-9.0, 0.0, 0.0), (0.0, -6.0, 6.0), (1.0, -2.0, -2.0)),
    ProfileKind.E_MINUS_3: ((3.0, -6.0, 6.0), (0.0, -6.0, -6.0), (-3.0, 0.0, 0.0)),
}


def _horner(c, s):
    """sum_j c[j] s^j by Horner's rule over the first axis of c: lists of
    Python floats in the sweep, arrays that broadcast against s elsewhere."""
    acc = c[-1]
    for row in c[-2::-1]:
        acc = acc * s + row
    return acc


def _taylor_rows(c, s):
    """(p, p', p''/2) at s for p = sum_j c[j] s^j, stacked on a leading
    axis, by Horner's rule with three accumulators over the first axis of
    c, updated together; p is `_horner`'s, to the bit."""
    p = np.zeros((3,) + np.broadcast_shapes(np.shape(c[-1]), np.shape(s)))
    p[0] = c[-1]
    for row in c[-2::-1]:
        q = p * s
        q[1:] += p[:2]
        q[0] += row
        p = q
    return p


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

    def jet(self, t):
        """(a, a', a''/2) at t as a `Jet` of rows of shape (..., 3) for t of
        shape (...), in one pass of `_taylor_rows`: on the closed form's
        numerator N, then divided by t^2 + 3, or on the piece of each t, up
        to the highest degree of the pieces from the first to the last (the
        zero-padded rows above it would only add exact zeros), with the
        samples on the last axis."""
        if self.kind is not ProfileKind.NUMERIC:
            t = np.asarray(t, dtype=float)[..., None]
            N = Jet(_taylor_rows(np.array(_NUMERATORS[self.kind]), t))
            return N / Jet(np.stack([t * t + 3.0, 2.0 * t, np.ones_like(t)])) * self.component_signs
        k, s = self._local(t)
        used = self.coeffs[np.min(k):np.max(k) + 1].any(axis=(0, 2))
        top = np.flatnonzero(used).max(initial=1)
        c = np.take(self.coeffs[:, :top + 1].transpose(1, 2, 0), k, axis=-1)
        return Jet(np.moveaxis(_taylor_rows(c, s), 1, -1))

    def values(self, t):
        """(a1, a2, a3) at t, shape (..., 3) for t of shape (...)."""
        return self.jet(t).rows[0]

    def oriented_jet(self, t):
        """`jet` in the anti-self-dual orientation used by the twistor
        machinery: self-dual profiles couple with axes 2 and 3 exchanged."""
        a = self.jet(t)
        return a[..., [0, 2, 1]] if self.kind is ProfileKind.HOPF_SD else a


def closed_form_profile(kind):
    """The three closed-form profiles, as printed, over t^2 + 3."""
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

    The derivatives are the profile's `jet`: exact for closed forms, the
    piece's own for numeric profiles.  With global_negation the test is
    applied to (-a1, -a2, -a3).
    """
    a, da, _ = profile.jet(t).rows
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
    increasing powers of s, integers at the ends and Python floats inside
    (+ 0 turns -0.0 into 0.0)."""
    def coefficients(lead, roots):
        c = [lead]
        for root in roots:  # times (s + origin - root)
            shift = origin - root
            c = [u * shift + v for u, v in zip(c + [0], [0] + c)]
        return tuple(v + 0 for v in c)
    return (tuple(coefficients(*P) for P, _ in _ODE),
            tuple(coefficients(*Q) for _, Q in _ODE))


# Per side: P, Q, the chain row (P_i(0) != 0: its order-(m-1) equation
# fixes a_i's order-m coefficient alone), the pair rows (P_i(0) = 0) and
# the ratio rho = P_i'(0)/Q_i(0) that both pair rows share.
_SIDES = {"t0": (*_local_polynomials(0), 0, (1, 2), -2),
          "t1": (*_local_polynomials(1), 1, (0, 2), 2)}


# (i, j, k) of each source a_j a_k - a_i
_CYCLIC = ((0, 1, 2), (1, 2, 0), (2, 0, 1))


def _sources(c, g, m):
    """Set the order-m coefficients g[i][m] of the sources a_j a_k - a_i
    from the coefficient rows c.  c and g are three per-component rows
    (lists indexed by order), so component i's equation reads its source
    row g[i], reversed, as one slice.  Each Cauchy product is summed in
    increasing index order of its first factor: the one order the
    coefficients are rounded in, which the outputs are pinned to."""
    for i, j, k in _CYCLIC:
        g[i][m] = sum(map(mul, c[j][:m + 1], c[k][m::-1])) - c[i][m]


def _equation(P, Q, c, g, i, m):
    """Order-m coefficient of P_i a_i' - Q_i (a_j a_k - a_i) for the
    coefficient rows c and the source rows g (`_sources`)."""
    ci = c[i]
    top = min(m + 1, len(ci) - 1)  # a_i's highest coefficient in the order-m term
    return (sum(map(mul, P[i][m + 1 - top:], map(mul, range(top, 0, -1), ci[top:0:-1])))
            - sum(map(mul, Q[i], g[i][m::-1])))


def _chain_order(P, Q, c, g, rows, m):
    """One order of the recurrence: form the order-(m-1) sources once, into
    g[.][m - 1] (replacing a provisional entry), and give each chain row i
    (P_i(0) != 0) its order-m coefficient x from its order-(m-1) equation,

        P_i(0) m x + sum_{d>=1} P_i[d] (m-d) c_i[m-d]
                   - sum_d Q_i[d] g_i[m-1-d] = 0,

    formed inline by one division by P_i(0) m.  The two sums run in
    `_equation`'s order (x's term, still an exact 0 there, drops out), so
    the coefficients are `_equation`'s to the bit, and on Fractions exact."""
    e = m - 1
    _sources(c, g, e)
    for i in rows:
        ci, Pi = c[i], P[i]
        ci[m] = -(sum(map(mul, Pi[1:], map(mul, range(e, 0, -1), ci[e:0:-1])))
                  - sum(map(mul, Q[i], g[i][e::-1]))) / (Pi[0] * m)


def endpoint_series(n, side, order, params=None):
    """Analytic endpoint branch of the anti-self-dual system for odd n >= 1,
    order by order: its coefficients as a (3, order + 1) array in increasing
    powers of the local variable s = t (side "t0") or s = t - 1 (side "t1").

    side "t0" has two free parameters (p, r), default (1, 0): p = a2(0) =
    a3(0), r = the order-1 resonance amplitude along a2 - a3.  side "t1" has
    one, (q,), default 0: the amplitude along a1 + a3 at the resonant order
    (n-1)/2 (the boundary value a1(1) = a3(1) itself for n = 1).

    At each order m the chain row's order-(m-1) equation gives its
    component by one division by P_i(0) m (`_chain_order`, which the
    interior Taylor steps share).  The pair rows (a, b) share one ratio
    rho = P_i'(0)/Q_i(0), so over Q_i(0) their order-m equations read
    (rho m + 1) x_a - c0 x_b = u_a and (rho m + 1) x_b - c0 x_a = u_b in
    their order-m coefficients x (c0: the chain component's endpoint
    value), and x_a + x_b and x_a - x_b take one division each, by
    rho m + 1 - c0 and rho m + 1 + c0.  At the resonant order one divisor
    is 0: its equation is a consistency condition (NoAnalyticBranch) and
    the shooting parameter sets that combination to 2r or 2q.  Every
    constant is an integer, so Fraction params give the exact series.
    OverflowError at the first order that is not finite (a wild shooting
    parameter); ValueError for an n that is not odd and positive, or for
    a t1 series given params below its resonant order, never seeing q.
    """
    if n < 1 or n % 2 == 0:
        raise ValueError(f"n must be odd and positive (|n| label), got {n}")
    if order < 1:
        raise ValueError("order must be >= 1")
    if side == "t0":
        p, amount = params if params is not None else (1.0, 0.0)
        start = (1, p, p)
    elif side == "t1":
        (amount,) = params if params is not None else (0.0,)
        resonant = (n - 1) // 2
        if params is not None and order < resonant:
            raise ValueError(f"t1 series order {order} is below the resonant "
                             f"order {resonant}, where q enters")
        start = (amount, n, amount) if resonant == 0 else (0, n, 0)
    else:
        raise ValueError("side must be 't0' or 't1'")
    P, Q, chain, pair, rho = _SIDES[side]
    c = [[v] + [0] * order for v in start]
    g = [[0] * (order + 1) for _ in start]
    c0 = start[chain]
    for m in range(1, order + 1):
        _chain_order(P, Q, c, g, (chain,), m)
        # provisional: the pair rows' order-m coefficients are still 0
        _sources(c, g, m)
        b = [_equation(P, Q, c, g, row, m) for row in pair]
        u_a, u_b = (-e / Q[row][0] for e, row in zip(b, pair))
        x = []  # x_a + x_b, x_a - x_b
        for rhs, eigenvalue in ((u_a + u_b, rho * m + 1 - c0), (u_a - u_b, rho * m + 1 + c0)):
            if eigenvalue:
                x.append(rhs / eigenvalue)
            elif abs(rhs) > 1e-8 * max(1, *map(abs, b)):
                raise NoAnalyticBranch(m, float(abs(rhs)))
            else:
                x.append(2 * amount)
        total, diff = x
        c[pair[0]][m], c[pair[1]][m] = (total + diff) / 2, (total - diff) / 2
        if not all(math.isfinite(row[m]) for row in c):
            raise OverflowError(f"endpoint series not finite at order {m}")
    return np.array(c)


# --------------------------------------------------------------------------
# boundary-value solver
# --------------------------------------------------------------------------

SERIES_ORDER = 20
RTOL = 1e-12
# The largest match defect a solve returns, which is also the report's
# `match` tolerance.  Truncation stays far below it: at most 3.95e-13 over
# odd n <= 101 and n = 151, 201, ..., 455 at RTOL, and 9e-11 at RTOL = 1e-9.
# A larger miss is a shot off the seed law, and `profile` must not write it.
MAX_MATCH_DEFECT = 1e-9


def _seed(n):
    """Closed-form shooting parameters (p, r, q) for odd n, with k = (n-1)/2:

        p = prod_j (3j+1)/(3j-1),   r = (9n^2 - 1 - 8p^2) / (12p),
        q = prod_j -(2j+1)/(2j),    j = 1..k;

    r is the first integral u.u = -n^2/16 read at t = 0.  Exact for n = 1,
    3, 5; for larger n the shot from them misses the match by the sweep's
    truncation error only (it falls with RTOL; relative to |a| it is
    9.4e-15 at n = 7, 4.6e-14 at 21 and <= 6.2e-14 for every odd n <= 85
    and n = 91, 101), so `solve_bvp` takes them as the solution.  Integer
    products keep each value one correctly rounded division.
    """
    js = range(1, (n - 1) // 2 + 1)
    p_num, p_den = math.prod(3 * j + 1 for j in js), math.prod(3 * j - 1 for j in js)
    r = ((9 * n * n - 1) * p_den * p_den - 8 * p_num * p_num) / (12 * p_num * p_den)
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
    (0, 1): there every P_i(origin) != 0, so all three rows are chain rows.
    The rows are padded with an exact 0, which no order reads before
    setting it; Fraction origins and states give the exact coefficients."""
    P, Q = _local_polynomials(origin)
    c = [[v] + [0] * order for v in a]
    g = [[0] * order for _ in a]
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


def _require_coupled(t, a):
    """ShotFailed("t1") if the t = 1 shot's state a at t has a1 = 0 or a3 = 0."""
    if a[0] == 0.0 or a[2] == 0.0:
        raise ShotFailed("t1", f"a1 = {float(a[0])}, a3 = {float(a[2])} at t = {t} "
                               "(underflow)")


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
    to the solution's size, ||a_left - a_right|| / max|a_left|, at most
    MAX_MATCH_DEFECT, and meta["launch_depths"] is {"t0": ..., "t1": ...},
    each series' launch depth from its endpoint.
    The profile is the shot kept as its piecewise polynomial: the two
    endpoint series and the Taylor polynomial of every step, zero-padded to
    the t = 1 series' degree.  Its jump at breaks[1] is the unscaled defect.
    ShotFailed names the side: "t0" if its series overflows, "t1" if its
    series or the sweep blows up, a step no longer moves t, a1 or a3 is 0
    at the launch or at the end of the sweep, or the defect exceeds
    MAX_MATCH_DEFECT.  A zero a1 or a3 is underflow, not the solution,
    which vanishes only at t = 1: from n = 473 on, q s^((n-1)/2) at the
    launch depth s is below the smallest subnormal, and a sweep from
    a1 = a3 = 0 stays on that invariant plane.  An n that is not odd and
    positive is `endpoint_series`' ValueError.
    """
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
        launch = _horner(right.T, t_right - 1.0).tolist()
        _require_coupled(t_right, launch)
        a_right = _sweep(t_right, launch, t_left, steps)
    except (OverflowError, StepSizeUnderflow) as exc:
        raise ShotFailed("t1", str(exc)) from exc
    _require_coupled(t_left, a_right)
    defect = float(np.linalg.norm(a_left - a_right)) / float(np.max(np.abs(a_left)))
    if not defect <= MAX_MATCH_DEFECT:
        raise ShotFailed("t1", f"match defect {defect:.3e} at t = {t_left} exceeds "
                               f"{MAX_MATCH_DEFECT:g} (not truncation)")

    pieces = [(0.0, 0.0, left.T), *reversed(steps), (t_right, 1.0, right.T)]
    lefts, origins, blocks = zip(*pieces)
    coeffs = np.zeros((len(blocks), len(blocks[-1]), 3))
    for k, block in enumerate(blocks):
        coeffs[k, :len(block)] = block
    return ProfileTriple(
        kind=ProfileKind.NUMERIC, n=n, breaks=np.array(lefts + (1.0,)),
        origins=np.array(origins), coeffs=coeffs,
        sign_convention="a1(0)=1, a2(1)=+n",
        meta={"match_defect": defect,
              "launch_depths": {"t0": float(t_left), "t1": float(1.0 - t_right)}},
    )
