import numpy as np
import pytest

from painleve_instanton.errors import (SingularArgument,
                                       SingularityEncountered)
from painleve_instanton.isomonodromy import jimbo_miwa_params
from painleve_instanton.painleve import (PviParams, max_pvi_residual,
                                         params_from_n, pvi_integrate,
                                         pvi_second_derivative,
                                         select_delta_variant)
from painleve_instanton.report import transcendent


def test_pvi_rhs_zero_case():
    p = PviParams(0, 0, 0, 0)
    assert pvi_second_derivative(p, 2.0, 0.4, 0.0) == 0


def test_pvi_rhs_constant_not_solution():
    p = PviParams(1.0, 1.0, 1.0, 1.0)
    assert abs(pvi_second_derivative(p, 2.0, 0.3, 0.0)) > 1e-3


def test_pvi_rhs_singular_argument():
    # the right-hand side is pure arithmetic: the direct integrator's flow
    # stops at x in {0, 1}, on real and on complex seeds
    p = PviParams(1.0, 1.0, 1.0, 1.0)
    for x in (0.0, 1.0):
        for kind in (float, complex):
            with pytest.raises(SingularArgument) as exc:
                pvi_integrate(p, [x, x + 0.1], kind(0.5), kind(0.1))
            assert str(exc.value) == f"excluded coincidence at x={x}, y={kind(0.5)}"


def test_pvi_rhs_double_transcription(rng):
    """Independent sympy re-derivation evaluated at random points."""
    import sympy as sp

    al, be, ga, de, x, y, yp = sp.symbols("al be ga de x y yp")
    rhs = (sp.Rational(1, 2) * (1 / y + 1 / (y - 1) + 1 / (y - x)) * yp**2
           - (1 / x + 1 / (x - 1) + 1 / (y - x)) * yp
           + (al + be * x / y**2 + ga * (x - 1) / (y - 1) ** 2
              + de * x * (x - 1) / (y - x) ** 2)
           * y * (y - 1) * (y - x) / (x**2 * (x - 1) ** 2))
    f = sp.lambdify((al, be, ga, de, x, y, yp), sp.expand(rhs), "numpy")
    worst = 0.0
    for _ in range(1000):
        vals = rng.uniform(-2, 2, 4) + 1j * rng.uniform(-2, 2, 4)
        xx = rng.uniform(1.2, 5.0)
        yy = rng.uniform(-1.5, 3.5) + 1j * rng.uniform(0.2, 1.0)
        dd = rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)
        p = PviParams(*vals)
        mine = pvi_second_derivative(p, xx, yy, dd)
        ref = f(*vals, xx, yy, dd)
        worst = max(worst, abs(mine - ref) / max(1.0, abs(ref)))
    assert worst < 1e-12


def test_pvi_residual_instanton_family(fam3_raw):
    for branch in ("plus", "minus"):
        sample, params = transcendent(fam3_raw, branch)
        assert max_pvi_residual(sample, params) < 1e-5


def test_pvi_residual_negative_control(fam3_raw):
    sample, good = transcendent(fam3_raw, "plus")
    bad = PviParams(good.alpha, good.beta + 0.1, good.gamma, good.delta)
    assert max_pvi_residual(sample, bad) > 1e-3


def test_pvi_integrate_zero_length():
    p = PviParams(1 / 8, -9 / 8, 9 / 8, -5 / 8)
    y, yp = pvi_integrate(p, [2.0], 0.5 + 0j, 0.1 + 0j)
    assert y[0] == 0.5 and yp[0] == 0.1


def test_pvi_integrate_single_step(fam1_raw, fam3_raw):
    for fam in (fam1_raw, fam3_raw):
        sample, params = transcendent(fam, "plus")
        k = 100
        y_end = pvi_integrate(params, sample.xs[[k, k + 1]].real, sample.ys[k],
                              sample.yp[k])[0][-1]
        assert abs(y_end - sample.ys[k + 1]) < 1e-6


def test_parameter_route_consistency(fam1_raw, fam3_raw):
    # the deformation-measured parameters match the closed family in n;
    # the eigen-branch 'plus' (lam = +n/4) carries alpha = (n-2)^2/8, i.e.
    # the minus sign of the (n +- 2) formula
    for fam, n in ((fam1_raw, 1), (fam3_raw, 3)):
        measured = jimbo_miwa_params(fam[100], "plus")
        closed = params_from_n(n, "intro", "minus")
        assert abs(measured.alpha - closed.alpha) < 1e-7
        assert abs(measured.beta - closed.beta) < 1e-7
        assert abs(measured.gamma - closed.gamma) < 1e-7
        assert select_delta_variant(measured.delta.real, n) == "intro"
        measured_m = jimbo_miwa_params(fam[100], "minus")
        closed_p = params_from_n(n, "intro", "plus")
        assert abs(measured_m.alpha - closed_p.alpha) < 1e-7


def test_pvi_integrate_delta_discrimination(fam3_raw):
    sample, good = transcendent(fam3_raw, "plus")
    bad = PviParams(good.alpha, good.beta, good.gamma, -1.0)  # rejected variant
    k0, k1 = 100, 120
    yp = sample.yp[k0]
    y_good = pvi_integrate(good, sample.xs[[k0, k1]].real, sample.ys[k0], yp)[0][-1]
    y_bad = pvi_integrate(bad, sample.xs[[k0, k1]].real, sample.ys[k0], yp)[0][-1]
    assert abs(y_good - sample.ys[k1]) < 1e-6
    assert abs(y_bad - sample.ys[k1]) > 1e-4


def test_pvi_integrate_singularity_detection():
    p = PviParams(1 / 8, -9 / 8, 9 / 8, -5 / 8)
    with pytest.raises(SingularityEncountered):
        pvi_integrate(p, [2.0, 2.5], 2.0 + 1e-9 + 0j, 0.0)


def test_pvi_integrate_overflow_is_a_singularity():
    # (y - 1)^2 on Python floats raises OverflowError past the float range,
    # at the first stage here; the integrator names the singularity instead
    p = PviParams(1 / 8, -9 / 8, 9 / 8, -5 / 8)
    with pytest.raises(SingularityEncountered, match="x=2.0"):
        pvi_integrate(p, [2.0, 2.5], 1e200, 0.0)


def test_params_from_n():
    p = params_from_n(1, "intro", "plus")
    assert (p.alpha, p.beta, p.gamma, p.delta) == (9 / 8, -1 / 8, 1 / 8, 3 / 8)
    p = params_from_n(3, "theorem", "minus")
    assert (p.alpha, p.beta, p.gamma, p.delta) == (1 / 8, -9 / 8, 9 / 8, -1.0)
    p = params_from_n(5, "intro", "plus")
    assert (p.alpha, p.beta, p.gamma, p.delta) == (49 / 8, -25 / 8, 25 / 8, -21 / 8)
    with pytest.raises(ValueError):
        params_from_n(4)


def test_select_delta_variant():
    assert select_delta_variant(-5 / 8, 3) == "intro"
    assert select_delta_variant(-1.0, 3) == "theorem"
    # a measured value near neither variant is a failed measurement
    assert select_delta_variant(-0.8, 3) is None

