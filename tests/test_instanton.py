import time
from collections import Counter

import numpy as np
import pytest

from painleve_instanton import instanton
from painleve_instanton.errors import (DegenerateCoefficient, PoleAtEndpoint,
                                      ShotFailed)
from painleve_instanton.instanton import (DualitySign, ProfileKind,
                                          ProfileTriple, asd_closed_profile,
                                          asd_rhs, closed_form_profile,
                                          coeff_K, conserved_tr,
                                          duality_residual, endpoint_series,
                                          solve_bvp)
from painleve_instanton.report import build_verification_report

SD = DualitySign.SELF_DUAL
ASD = DualitySign.ANTI_SELF_DUAL


def test_coeff_K_values():
    assert abs(coeff_K(1, 0.5) - 105 / 32) < 1e-15
    assert coeff_K(3, 1.0) == 0.0
    # every zero of Q_i: t = 0 for K1, t = -3 and 1 for K2, t = 3 and -1 for K3
    for index, t in ((1, 0.0), (2, -3.0), (2, 1.0), (3, 3.0), (3, -1.0)):
        with pytest.raises(PoleAtEndpoint):
            coeff_K(index, t)


def test_asd_rhs_fixed_point():
    assert np.allclose(asd_rhs(SD, 0.37, (1.0, 1.0, 1.0)), 0.0)
    assert np.allclose(asd_rhs(ASD, 0.37, (1.0, 1.0, 1.0)), 0.0)


def test_asd_rhs_hopf_slope():
    hopf = closed_form_profile(ProfileKind.HOPF_SD)
    rhs = asd_rhs(SD, 0.5, hopf.values(0.5))
    assert abs(rhs[0] - 192 / 169) < 1e-13
    assert np.allclose(rhs, hopf.derivative(0.5), atol=1e-13)


def test_asd_rhs_direct_value():
    rhs = asd_rhs(ASD, 0.5, (1.0, 0.0, 0.0))
    assert abs(rhs[0] - 64 / 105) < 1e-15


def test_asd_rhs_coefficient_guards():
    # K1 and K2 vanish at t = 3; K1 has its pole at t = 0
    for sign in (SD, ASD):
        with pytest.raises(DegenerateCoefficient):
            asd_rhs(sign, 3.0, (1.0, 2.0, 3.0))
        with pytest.raises(PoleAtEndpoint):
            asd_rhs(sign, 0.0, (1.0, 2.0, 3.0))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e9])
@pytest.mark.parametrize("slot", [0, 1, 2])
def test_asd_flow_blow_up_guard(bad, slot):
    a = np.array([0.5, 1.0, 2.0])
    a[slot] = bad
    with pytest.raises(OverflowError):
        instanton._asd_flow(0.3, a)


def test_closed_form_values():
    triv = closed_form_profile(ProfileKind.TRIVIAL)
    for t in (0.1, 0.5, 0.9):
        assert np.array_equal(triv.values(t), [1.0, 1.0, 1.0])
    em3 = closed_form_profile(ProfileKind.E_MINUS_3)
    assert np.allclose(em3.values(1.0), [0.0, -3.0, 0.0])
    hopf = closed_form_profile(ProfileKind.HOPF_SD)
    assert np.allclose(hopf.values(0.0), [-3.0, 0.0, 0.0])


def test_closed_form_derivatives_match_fd(rng):
    h = 1e-6
    for kind in ProfileKind:
        if kind is ProfileKind.NUMERIC:
            continue
        prof = closed_form_profile(kind)
        for t in rng.uniform(0.1, 0.9, 5):
            fd = (prof.values(t + h) - prof.values(t - h)) / (2 * h)
            assert np.max(np.abs(prof.derivative(t) - fd)) < 1e-8


def test_duality_residuals_closed_forms(rng):
    triv = closed_form_profile(ProfileKind.TRIVIAL)
    hopf = closed_form_profile(ProfileKind.HOPF_SD)
    em3 = closed_form_profile(ProfileKind.E_MINUS_3)
    for t in rng.uniform(0.05, 0.95, 100):
        assert np.allclose(duality_residual(triv, SD, t), 0.0)
        assert np.allclose(duality_residual(triv, ASD, t), 0.0)
        assert np.max(np.abs(duality_residual(hopf, SD, t))) < 1e-12
        assert np.max(np.abs(duality_residual(em3, ASD, t, global_negation=True))) < 1e-12


def test_sign_orbit_property(rng):
    # flipping exactly two signs of a solution preserves the branch
    for signs in ((-1, -1, -1), (1, 1, -1), (1, -1, 1), (-1, 1, 1)):
        prof = ProfileTriple(kind=ProfileKind.E_MINUS_3, n=3,
                             component_signs=signs)
        for t in rng.uniform(0.05, 0.95, 20):
            assert np.max(np.abs(duality_residual(prof, ASD, t))) < 1e-12


def test_endpoint_series_t0():
    s = endpoint_series(1, "t0", 2, (1.0, 0.0))
    assert np.allclose(s.coeffs[:, 0], [1.0, 1.0, 1.0])
    # p is the shared value a2(0) = a3(0)
    s = endpoint_series(3, "t0", 2, (2.0, 2.0))
    assert np.allclose(s.coeffs[:, 0], [1.0, 2.0, 2.0])


def test_endpoint_series_t1():
    s = endpoint_series(3, "t1", 1, (-1.5,))
    assert np.allclose(s.coeffs[:, 0], [0.0, 3.0, 0.0])


def test_endpoint_series_matches_closed_form():
    ref = asd_closed_profile(3)
    s0 = endpoint_series(3, "t0", 12, (2.0, 2.0))
    s1 = endpoint_series(3, "t1", 12, (-1.5,))
    for t in (0.02, 0.08):
        assert np.max(np.abs(s0.eval(t) - ref.values(t))) < 1e-12
    for t in (0.92, 0.98):
        assert np.max(np.abs(s1.eval(t) - ref.values(t))) < 1e-12


@pytest.mark.parametrize("n", [5, 9, 13, 21, 57, 101])
@pytest.mark.parametrize("side, power", [("t0", 2), ("t1", 1)])
def test_endpoint_series_residual_order(side, power, n):
    # the ODE-form residual of the order-2 series scales like s^2 at t = 0
    # and like s at t = 1 (Q2 vanishes there: K2 has its pole); at order 40
    # it is at roundoff level, as it is at order 8 up to n = 13 (the t0
    # series' radius of convergence shrinks with n: at n = 21 the order-8
    # truncation at s = 0.01 is 3e-10)
    p, r, q = instanton._seed(n)
    params = (p, r) if side == "t0" else (q,)

    def residual(series, s):
        t, local = (s, s) if side == "t0" else (1.0 - s, -s)
        da = np.array([np.polyval(np.polyder(c[::-1]), local) for c in series.coeffs])
        a = series.eval(t)
        return max(abs(-0.5 * coeff_K(i + 1, t) * da[i]
                       - (a[(i + 1) % 3] * a[(i + 2) % 3] - a[i]))
                   for i in range(3))

    low = endpoint_series(n, side, 2, params)
    assert residual(low, 0.02) / residual(low, 0.004) > 0.5 * 5.0**power
    if n <= 13:
        high = endpoint_series(n, side, 8, params)
        assert residual(high, 0.01) < 1e-10
    high = endpoint_series(n, side, 40, params)
    assert residual(high, 0.01) < 1e-10


def test_solve_bvp_n1():
    prof = solve_bvp(1)
    for t in np.linspace(0.05, 0.95, 21):
        assert np.max(np.abs(prof.values(t) - 1.0)) < 1e-8


def test_solve_bvp_n3_matches_closed_form():
    prof = solve_bvp(3)
    ref = closed_form_profile(ProfileKind.E_MINUS_3)
    # discover the per-component sign pattern, then compare sup-norm
    signs = np.sign(prof.values(0.5) * ref.values(0.5))
    worst = 0.0
    for t in np.linspace(0.05, 0.95, 41):
        worst = max(worst, np.max(np.abs(prof.values(t) - signs * ref.values(t))))
    assert worst < 1e-7
    # the discovered pattern is an odd number of flips of the printed form
    assert int(np.sum(signs < 0)) % 2 == 1


def test_solve_bvp_grid_residual(prof5):
    # at piece midpoints: at a step's start the derivative is f(t, a) by
    # construction, so the residual there is zero and shows nothing
    for prof in (solve_bvp(3), prof5):
        mids = (prof.breaks[:-1] + prof.breaks[1:]) / 2
        for t in mids[(1e-3 < mids) & (mids < 1 - 1e-3)]:
            # beyond those bounds: the pole-adjacent boundary layer, where
            # roundoff is multiplied by the K poles
            assert np.max(np.abs(duality_residual(prof, ASD, t))) < 1e-8


def test_solve_bvp_boundary_data(prof5):
    a0 = prof5.values(0.0)
    a1 = prof5.values(1.0)
    assert abs(a0[0] - 1.0) < 1e-8
    assert abs(a0[1] - a0[2]) < 1e-8
    assert np.max(np.abs(a1 - np.array([0.0, 5.0, 0.0]))) < 1e-8


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_solve_bvp_no_convergence(monkeypatch):
    monkeypatch.setattr(instanton, "_seed", lambda n: (40.0, -30.0, 55.0))
    start = time.perf_counter()
    with pytest.raises(ShotFailed) as err:
        solve_bvp(3)
    # the t0 sweep blows up, and the error names that side and why
    assert err.value.side == "t0" and "blow-up" in err.value.reason
    assert time.perf_counter() - start < 5.0


def test_endpoint_series_overflow_is_named():
    # a shooting parameter whose series leaves the float range in exact
    # arithmetic: the order-2 coefficients of a2, a3 are already ~p^3 = 1e300
    with pytest.raises(OverflowError, match="not finite at order"):
        endpoint_series(3, "t0", instanton.SERIES_ORDER, (1e100, 0.0))


def test_bvp_config_validation():
    with pytest.raises(ValueError):
        solve_bvp(2)
    with pytest.raises(ValueError):
        solve_bvp(-1)


def test_seed_law_closed_forms():
    # the closed-form seeds of n = 1, 3, 5 are exact
    assert instanton._seed(1) == (1.0, 0.0, 1.0)
    assert instanton._seed(3) == (2.0, 2.0, -1.5)
    assert instanton._seed(5) == (2.8, 4.8, 1.875)


@pytest.fixture(scope="module")
def prof7_counted():
    # solve n = 7 once, counting the endpoint-series builds of the shots and
    # the right-hand-side evaluations of their sweeps
    calls = Counter()
    mp = pytest.MonkeyPatch()
    for name in ("endpoint_series", "asd_rhs"):
        real = getattr(instanton, name)
        mp.setattr(instanton, name,
                   lambda *args, _name=name, _real=real: calls.update([_name]) or _real(*args))
    try:
        return solve_bvp(7), calls
    finally:
        mp.undo()


def test_solve_bvp_endpoint_series_count(prof7_counted):
    # one series per side for the one shot from the seed law
    assert prof7_counted[1]["endpoint_series"] == 2


def test_solve_bvp_asd_rhs_count(prof7_counted):
    assert prof7_counted[1]["asd_rhs"] <= 1_000


@pytest.mark.parametrize("n", [5, 7, 9, 11, 13, 15, 21, 25, 31])
def test_seed_shot_misses_by_integration_error(monkeypatch, n):
    # the seed law is the solve up to the sweeps' error: the match defect
    # of the shot from _seed(n) falls with the sweeps' RTOL (measured 82x
    # to 709x for 1e-9 -> 1e-12)
    defects = []
    for rtol in (1e-9, 1e-12):
        monkeypatch.setattr(instanton, "RTOL", rtol)
        defects.append(solve_bvp(n).meta["match_defect"])
    assert defects[0] > 50.0 * defects[1]


def jumps(prof):
    """Interior breakpoints of a numeric profile and the jump of its values
    across each: the left piece one ulp below against the right piece."""
    inner = prof.breaks[1:-1]
    jump = prof.values(np.nextafter(inner, 0.0)) - prof.values(inner)
    return inner, np.max(np.abs(jump), axis=-1)


def test_solve_bvp_launch_depths(prof7_counted):
    # the first and last pieces are the endpoint series, up to the depths
    # `_launch_depth` chose; the report carries the same two numbers
    prof = prof7_counted[0]
    assert prof.breaks[1] == 0.1 and prof.breaks[-2] == 1.0 - 0.15
    assert build_verification_report(7)["launch_depths"] == {
        "t0": 0.1, "t1": 1.0 - (1.0 - 0.15)}


def test_solve_bvp_no_seam(prof7_counted):
    # the profile is the shot itself: the two sweeps' pieces meet at the
    # matching point with no jump beyond the defect, which is relative to
    # max|a| of the t0 sweep there
    prof = prof7_counted[0]
    assert prof.meta["match_defect"] < 1e-12
    inner, jump = jumps(prof)
    seam = jump[inner == instanton.MATCH_POINT]
    scale = np.max(np.abs(prof.values(np.nextafter(instanton.MATCH_POINT, 0.0))))
    assert len(seam) == 1 and seam[0] <= prof.meta["match_defect"] * scale + 1e-13


def test_numeric_profile_continuous(prof5, prof7_counted):
    # series to sweep at the launch points, and step to step inside a sweep
    for prof in (prof5, prof7_counted[0]):
        inner, jump = jumps(prof)
        assert np.max(jump[inner != instanton.MATCH_POINT]) < 1e-13


@pytest.mark.parametrize("n", [7, 9, 11, 13, 15, 17, 19])
def test_verify_passes_bvp(n):
    rep = build_verification_report(n)
    assert rep["passed"], {k: v for k, v in rep["checks"].items() if not v}


@pytest.mark.parametrize("n, factors", [(7, (1 + 1e-3, 1.0, 1.0)),
                                        (13, (1.0, 1.0, 1 + 1e-6))],
                         ids=["n7-p", "n13-q"])
def test_verify_match_check_catches_wrong_seed(monkeypatch, n, factors):
    # verify's window [0.5, 0.95] reads only the t1 sweep, whose residuals
    # barely see q: a seed off the law fails through the match check alone
    law = instanton._seed
    monkeypatch.setattr(instanton, "_seed",
                        lambda n: tuple(v * f for v, f in zip(law(n), factors)))
    rep = build_verification_report(n)
    assert [k for k, ok in rep["checks"].items() if not ok] == ["match"]
    assert rep["passed"] is False


def test_conserved_tr_values():
    triv = closed_form_profile(ProfileKind.TRIVIAL)
    em3 = closed_form_profile(ProfileKind.E_MINUS_3)
    for t in (0.2, 0.5, 0.8):
        assert abs(conserved_tr(triv, t) - 1 / 8) < 1e-12
        assert abs(conserved_tr(em3, t) - 9 / 8) < 1e-12


def test_conserved_tr_hopf_constant():
    hopf = closed_form_profile(ProfileKind.HOPF_SD)
    assert abs(conserved_tr(hopf, 0.3) - conserved_tr(hopf, 0.7)) < 1e-9


def test_conserved_tr_drift_over_grid():
    for prof in (closed_form_profile(ProfileKind.TRIVIAL),
                 closed_form_profile(ProfileKind.E_MINUS_3),
                 closed_form_profile(ProfileKind.HOPF_SD)):
        vals = [conserved_tr(prof, t) for t in np.linspace(0.05, 0.95, 50)]
        assert max(vals) - min(vals) < 1e-6 * abs(vals[0])


def test_profile_serialization():
    prof = closed_form_profile(ProfileKind.TRIVIAL)
    csv = prof.to_csv([0.25, 0.5])
    assert csv.splitlines()[0] == "t,a1,a2,a3"
    assert csv.splitlines()[1] == "0.25,1,1,1"
    js = prof.to_json([0.5])
    assert '"kind": "trivial"' in js and '"sign_convention"' in js
