"""The parameter law in n, alpha+- = (n +- 2)^2/8, beta = -n^2/8, gamma = n^2/8,
delta = -(n^2 - 4)/8 (`params_from_n`), as identities that hold for every n:

- u.u = sum_i a_i^2 alpha_{i,0}^2 is a first integral of the anti-self-dual
  system, and it is -n^2/16 at t = 1, where a = (0, n, 0);
- Painleve VI holds at every point (t, a) of the phase space, with the
  parameters `jimbo_miwa_params` reads off u.u;
- at t = 0 the first integral is the seed law's r = (9n^2 - 1 - 8p^2)/(12p).
"""

import math
import random
from dataclasses import astuple
from fractions import Fraction

import mpmath
import numpy as np
import sympy

from painleve_instanton import instanton
from painleve_instanton.isomonodromy import extract_y, jimbo_miwa_params
from painleve_instanton.painleve import PviParams, params_from_n, pvi_second_derivative
from painleve_instanton.liealg import METRIC
from painleve_instanton.twistor import FuchsianData, cross_ratio, residue_closed_form

T = sympy.Symbol("t")
# alpha_{i,0}^2, the squares of `residue_closed_form`'s column
ALPHA_SQ = (-(1 - T) * (1 + T) / (16 * (3 - T) * (3 + T)),
            -(1 + T) / (16 * T * (3 - T)),
            (1 - T) / (16 * T * (3 + T)))


def ode_ratio(i, t):
    """Q_i/P_i of the ODE P_i a_i' = Q_i (a_j a_k - a_i), for any t that
    takes integer offsets and products."""
    (p_lead, p_roots), (q_lead, q_roots) = instanton._ODE[i]
    return (q_lead * math.prod(t - root for root in q_roots)
            / (p_lead * math.prod(t - root for root in p_roots)))


def test_seed_r_is_the_first_integral_at_t0():
    law = {}
    for n in range(1, 202, 2):
        js = range(1, (n - 1) // 2 + 1)
        p = Fraction(math.prod(3 * j + 1 for j in js), math.prod(3 * j - 1 for j in js))
        law[n] = p, (9 * n * n - 1 - 8 * p * p) / (12 * p)
        # the product form the law was first found in, a second derivation
        s = Fraction(math.prod(3 * j + 2 for j in js), math.prod(3 * j - 2 for j in js))
        assert 2 * (s - p) / 3 == law[n][1], n
        assert instanton._seed(n)[:2] == tuple(map(float, law[n])), n
    # u.u of the exact t = 0 series, truncated at order 1, at t -> 0: the
    # 1/t terms of alpha_{2,0}^2 and alpha_{3,0}^2 bring in r
    for n in (1, 3, 5, 7, 9, 21):
        c = instanton.endpoint_series(n, "t0", 1, law[n]).tolist()
        uu = sum((sympy.Rational(c0.numerator, c0.denominator)
                  + sympy.Rational(c1.numerator, c1.denominator) * T) ** 2 * sq
                 for (c0, c1), sq in zip(c, ALPHA_SQ))
        assert sympy.cancel(uu).subs(T, 0) == sympy.Rational(-n * n, 16), n


def test_uu_is_a_first_integral():
    # alpha_{i,0}'/alpha_{i,0} = Q_i/P_i, and sum_i alpha_{i,0}^2 Q_i/P_i = 0
    for i, sq in enumerate(ALPHA_SQ):
        assert sympy.cancel(sympy.diff(sq, T) / (2 * sq) - ode_ratio(i, T)) == 0, i
    assert sympy.cancel(sum(sq * ode_ratio(i, T) for i, sq in enumerate(ALPHA_SQ))) == 0
    # hence d(u.u)/dt = 2 a1 a2 a3 sum_i alpha_{i,0}^2 Q_i/P_i = 0 on every solution
    a = sympy.symbols("a1:4")
    uu = sum(a_i ** 2 * sq for a_i, sq in zip(a, ALPHA_SQ))
    slope = [ode_ratio(i, T) * (a[(i + 1) % 3] * a[(i + 2) % 3] - a[i]) for i in range(3)]
    assert sympy.cancel(sympy.diff(uu, T) + sum(
        sympy.diff(uu, a_i) * s for a_i, s in zip(a, slope))) == 0
    # at t = 1 only alpha_{2,0} survives, alpha_{2,0}(1)^2 = -1/16: with
    # a(1) = (0, n, 0), u.u = -n^2/16
    assert [sq.subs(T, 1) for sq in ALPHA_SQ] == [0, sympy.Rational(-1, 16), 0]
    # the squares are the pipeline's real column w_hat, alpha_{.,0} =
    # REAL_FORM * w_hat, in the Killing form's signature; alpha_{2,0}(1) is
    # -i/4, so w_hat_2(1) = -1/4
    for t in (0.05, 0.3, 0.6, 0.95):
        assert np.allclose(METRIC * residue_closed_form(t) ** 2,
                           [float(sq.subs(T, t)) for sq in ALPHA_SQ], rtol=1e-14, atol=0)
    assert abs(residue_closed_form(1.0 - 1e-13)[1] + 0.25) < 1e-12
    # and jimbo_miwa_params turns u.u = -n^2/16 into the law, exactly
    for n in range(1, 102, 2):
        F = FuchsianData(t=1.0, x=None, w=np.array([0.0, -0.25 * n, 0.0]))
        for branch, alpha_side in (("plus", "minus"), ("minus", "plus")):
            assert (astuple(jimbo_miwa_params(F, branch))
                    == astuple(params_from_n(n, "intro", alpha_side))), (n, branch)


class Jet:
    """Taylor coefficients (c0, c1, c2) of a function of t at one point."""

    def __init__(self, c):
        self.c = tuple(c)

    @staticmethod
    def of(v):
        return v if isinstance(v, Jet) else Jet((v, 0, 0))

    def __add__(self, other):
        return Jet(u + v for u, v in zip(self.c, Jet.of(other).c))

    __radd__ = __add__

    def __neg__(self):
        return Jet(-u for u in self.c)

    def __sub__(self, other):
        return self + -Jet.of(other)

    def __rsub__(self, other):
        return Jet.of(other) + -self

    def __mul__(self, other):
        (a0, a1, a2), (b0, b1, b2) = self.c, Jet.of(other).c
        return Jet((a0 * b0, a0 * b1 + a1 * b0, a0 * b2 + a1 * b1 + a2 * b0))

    __rmul__ = __mul__

    def __truediv__(self, other):
        (a0, a1, a2), (b0, b1, b2) = self.c, Jet.of(other).c
        c0 = a0 / b0
        c1 = (a1 - c0 * b1) / b0
        return Jet((c0, c1, (a2 - c0 * b2 - c1 * b1) / b0))

    def __rtruediv__(self, other):
        return Jet.of(other) / self

    def __pow__(self, k):
        return math.prod([self] * (k - 1), start=self)

    def sqrt(self):
        s0 = mpmath.sqrt(self.c[0])
        s1 = self.c[1] / (2 * s0)
        return Jet((s0, s1, (self.c[2] - s1 * s1) / (2 * s0)))


def phase_point(t, a, sigma):
    """x, y and u.u as order-2 jets in t through the phase-space point
    (t, a): a's jets from the ODE, the column alpha_{.,0} of
    `residue_closed_form`, x of `cross_ratio`, y by `extract_y`'s rho."""
    tj = Jet((t, 1, 0))
    ratios = [ode_ratio(i, tj) for i in range(3)]
    aj = [Jet.of(v) for v in a]
    for _ in range(2):  # each pass fixes one more order
        slope = [ratios[i] * (aj[(i + 1) % 3] * aj[(i + 2) % 3] - aj[i]) for i in range(3)]
        aj = [Jet((v, s.c[0], s.c[1] / 2)) for v, s in zip(a, slope)]
    alpha = (-0.25j * ((1 - tj) * (1 + tj) / ((3 - tj) * (3 + tj))).sqrt(),
             -0.25j * ((1 + tj) / (tj * (3 - tj))).sqrt(),
             0.25 * ((1 - tj) / (tj * (3 + tj))).sqrt())
    u1, u2, u3 = (a_i * al for a_i, al in zip(aj, alpha))
    uu = u1 * u1 + u2 * u2 + u3 * u3
    lam = sigma * (-uu).sqrt()
    x = (tj + 1) * (tj - 3) ** 3 / ((tj - 1) * (tj + 3) ** 3)
    rho = u3 * (u1 * u3 + lam * u2) / (u1 * (u2 * u2 + u3 * u3))
    return x, x / (x + (1 - x) * rho), uu


def pvi_terms(params, x, y, yp):
    """The three terms of Painleve VI's right-hand side."""
    alpha, beta, gamma, delta = params
    return (0.5 * (1 / y + 1 / (y - 1) + 1 / (y - x)) * yp * yp,
            -(1 / x + 1 / (x - 1) + 1 / (y - x)) * yp,
            (alpha + beta * x / y ** 2 + gamma * (x - 1) / (y - 1) ** 2
             + delta * x * (x - 1) / (y - x) ** 2) * y * (y - 1) * (y - x)
            / (x ** 2 * (x - 1) ** 2))


def test_pvi_holds_on_the_phase_space():
    rng = random.Random(20261019)
    with mpmath.workdps(50):
        for _ in range(50):
            t = mpmath.mpf(rng.uniform(0.05, 0.95))
            a = [mpmath.mpf(rng.uniform(-2.0, 2.0)) for _ in range(3)]
            F = FuchsianData(t=float(t), x=cross_ratio(float(t)),
                             w=np.array([float(v) for v in a]) * residue_closed_form(float(t)))
            for sigma, branch in ((1, "plus"), (-1, "minus")):
                x, y, uu = phase_point(t, a, sigma)
                assert abs(uu.c[1]) <= 1e-40
                lam = sigma * mpmath.sqrt(-uu.c[0])
                params = ((2 * lam - 1) ** 2 / 2, 2 * uu.c[0], -2 * uu.c[0],
                          (1 + 4 * uu.c[0]) / 2)
                yp = y.c[1] / x.c[1]
                ypp = (2 * y.c[2] - yp * 2 * x.c[2]) / x.c[1] ** 2
                terms = pvi_terms(params, x.c[0], y.c[0], yp)
                scale = max(abs(ypp), *map(abs, terms))
                assert abs(ypp - sum(terms)) <= 1e-40 * scale, (t, a, branch)
                # the rejected delta, 3/8 lower, fails at every point (the
                # smallest of these relative residuals is 4.1e-5)
                control = pvi_terms(params[:3] + (params[3] - 0.375,), x.c[0], y.c[0], yp)
                assert abs(ypp - sum(control)) >= 1e-6 * scale, (t, a, branch)
                # the jets start from the pipeline's own float values
                assert abs(complex(y.c[0]) - extract_y(F, branch)) <= 1e-11 * abs(y.c[0])
                jm = jimbo_miwa_params(F, branch)
                assert np.allclose([complex(v) for v in params],
                                   [jm.alpha, jm.beta, jm.gamma, jm.delta],
                                   rtol=1e-12, atol=1e-12)
                rhs = pvi_second_derivative(PviParams(*map(complex, params)), complex(x.c[0]),
                                            complex(y.c[0]), complex(yp))
                assert abs(rhs - complex(sum(terms))) <= 1e-9 * scale
