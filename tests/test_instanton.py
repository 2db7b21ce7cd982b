import time
from collections import Counter

import numpy as np
import pytest

from painleve_instanton import instanton
from painleve_instanton.errors import (DegenerateCoefficient, PoleAtEndpoint,
                                      ShotFailed, StepSizeUnderflow)
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


def test_taylor_order_one_is_asd_rhs(rng):
    # the recurrence's first-order coefficients are the right-hand side
    for t, a in zip(rng.uniform(0.01, 0.99, 50), rng.uniform(-3.0, 3.0, (50, 3))):
        c = np.array(instanton._taylor(t, a.tolist(), instanton.SERIES_ORDER))
        np.testing.assert_allclose(c[:, 1], asd_rhs(ASD, t, a), rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e9])
@pytest.mark.parametrize("slot", [0, 1, 2])
def test_asd_flow_blow_up_guard(bad, slot):
    a = [0.5, 1.0, 2.0]
    a[slot] = bad
    pieces = []
    with pytest.raises(OverflowError, match="blow-up"):
        instanton._sweep(0.3, a, 0.5, pieces)
    assert pieces == []


class NoStep(list):
    def append(self, piece):
        raise AssertionError(f"a step was taken from t = {piece[1]}")


def test_sweep_step_underflow():
    # a1 = 1e-300 with a1' near 2: the bound relative to a1 admits no step,
    # which raises instead of looping on steps that do not move t
    with pytest.raises(StepSizeUnderflow):
        instanton._sweep(0.3, [1e-300, 1.0, 2.0], 0.5, NoStep())


def test_sweep_steps_from_zero_component():
    # a1 = 0 with a1' != 0: the bound is relative to a1's leading nonzero
    # term, a1' h, so the sweep steps on; it lands where the sweep from the
    # state it reached on the way lands
    pieces = []
    end = instanton._sweep(0.3, [0.0, 1.0, 2.0], 0.5, pieces)
    assert len(pieces) >= 2 and pieces[0][1] == 0.3
    t_mid = pieces[1][1]
    mid = instanton._horner(pieces[0][2], t_mid - 0.3)
    again = instanton._sweep(t_mid, mid.tolist(), 0.5, [])
    np.testing.assert_allclose(again, end, rtol=1e-12, atol=0.0)


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
    assert s.shape == (3, 3) and np.allclose(s[:, 0], [1.0, 1.0, 1.0])
    # p is the shared value a2(0) = a3(0)
    s = endpoint_series(3, "t0", 2, (2.0, 2.0))
    assert np.allclose(s[:, 0], [1.0, 2.0, 2.0])


def test_endpoint_series_t1():
    s = endpoint_series(3, "t1", 1, (-1.5,))
    assert s.shape == (3, 2) and np.allclose(s[:, 0], [0.0, 3.0, 0.0])
    # at n = 9 q enters at order 4: a shorter series given q is refused
    with pytest.raises(ValueError, match="order 2 is below the resonant order 4"):
        endpoint_series(9, "t1", 2, (1.0,))
    endpoint_series(9, "t1", 4, (1.0,))


def test_endpoint_series_matches_closed_form():
    ref = asd_closed_profile(3)
    s0 = endpoint_series(3, "t0", 12, (2.0, 2.0))
    s1 = endpoint_series(3, "t1", 12, (-1.5,))
    for t in (0.02, 0.08):
        assert np.max(np.abs(instanton._horner(s0.T, t) - ref.values(t))) < 1e-12
    for t in (0.92, 0.98):
        assert np.max(np.abs(instanton._horner(s1.T, t - 1.0) - ref.values(t))) < 1e-12


@pytest.mark.parametrize("n", [5, 9, 13, 21, 57, 101])
@pytest.mark.parametrize("side, power", [("t0", 2), ("t1", 1)])
def test_endpoint_series_residual_order(side, power, n):
    # the ODE-form residual of the order-2 series scales like s^2 at t = 0
    # and like s at t = 1 (Q2 vanishes there: K2 has its pole); at order 40
    # it is at roundoff level, as it is at order 8 up to n = 13 (the t0
    # series' radius of convergence shrinks with n: at n = 21 the order-8
    # truncation at s = 0.01 is 3e-10)
    # below the resonant order (n-1)/2 a t1 series never sees q, so those
    # calls pass no params (the coefficients are the same)
    p, r, q = instanton._seed(n)

    def params(order):
        if side == "t0":
            return p, r
        return (q,) if order >= (n - 1) // 2 else None

    def residual(series, s):
        t, local = (s, s) if side == "t0" else (1.0 - s, -s)
        da = np.array([np.polyval(np.polyder(c[::-1]), local) for c in series])
        a = instanton._horner(series.T, local)
        return max(abs(-0.5 * coeff_K(i + 1, t) * da[i]
                       - (a[(i + 1) % 3] * a[(i + 2) % 3] - a[i]))
                   for i in range(3))

    low = endpoint_series(n, side, 2, params(2))
    assert residual(low, 0.02) / residual(low, 0.004) > 0.5 * 5.0**power
    if n <= 13:
        high = endpoint_series(n, side, 8, params(8))
        assert residual(high, 0.01) < 1e-10
    high = endpoint_series(n, side, 40, params(40))
    assert residual(high, 0.01) < 1e-10


def test_solve_bvp_n1():
    prof = solve_bvp(1)
    for t in np.linspace(0.05, 0.95, 21):
        assert np.max(np.abs(prof.values(t) - 1.0)) < 1e-8


def test_solve_bvp_n3_matches_closed_form():
    prof = solve_bvp(3)
    ref = closed_form_profile(ProfileKind.E_MINUS_3)
    # discover the per-component sign pattern, then compare each component
    # relative to its size (none vanishes inside (0, 1))
    signs = np.sign(prof.values(0.5) * ref.values(0.5))
    ts = np.linspace(0.001, 0.999, 2001)
    exact = signs * ref.values(ts)
    assert np.max(np.abs(prof.values(ts) - exact) / np.abs(exact)) < 1e-12
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


@pytest.mark.parametrize("seed, side, reason", [
    ((40.0, -30.0, 55.0), "t1", "blow-up at t = 0.65"),
    ((1e100, 0.0, -1.5), "t0", "not finite at order 3")], ids=["wild", "overflow"])
def test_solve_bvp_no_convergence(monkeypatch, seed, side, reason):
    # the wild seed blows up the sweep from t = 1; p = 1e100 (with the seed
    # law's q) overflows the t = 0 series.  The error names the side and why
    monkeypatch.setattr(instanton, "_seed", lambda n: seed)
    start = time.perf_counter()
    with pytest.raises(ShotFailed) as err:
        solve_bvp(3)
    assert err.value.side == side and reason in err.value.reason
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
    # the right-hand-side evaluations (the Taylor sweep makes none)
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
    assert prof7_counted[1]["asd_rhs"] == 0


def test_solve_bvp_piece_count(prof7_counted):
    # the two endpoint series and four Taylor steps
    assert len(prof7_counted[0].origins) <= 10


@pytest.mark.parametrize("n", [7, 21, 31])
def test_sweep_piece_residual(n):
    # the ODE-form residual of every Taylor step across the whole step,
    # relative to the size of the sources a_j a_k (measured <= 4e-12; the
    # largest sit near t = 0, where the pole of K1 multiplies roundoff)
    prof = solve_bvp(n)
    inner = np.flatnonzero((prof.origins > 0.0) & (prof.origins < 1.0))
    assert len(inner) >= 3
    for k in inner:
        for t in np.linspace(prof.breaks[k], prof.breaks[k + 1], 9):
            local = t - prof.origins[k]
            rows = [c[::-1] for c in prof.coeffs[k].T]
            a = np.array([np.polyval(c, local) for c in rows])
            da = np.array([np.polyval(np.polyder(c), local) for c in rows])
            worst = max(abs(-0.5 * coeff_K(i + 1, t) * da[i]
                            - (a[(i + 1) % 3] * a[(i + 2) % 3] - a[i]))
                        for i in range(3))
            assert worst < 1e-10 * max(1.0, float(np.max(np.abs(a))) ** 2)


@pytest.mark.parametrize("n", [5, 7, 9, 11, 13, 15, 21, 25, 31])
def test_seed_shot_misses_by_integration_error(monkeypatch, n):
    # the seed law is the solve up to the sweep's error: the match defect
    # of the shot from _seed(n) falls with the sweep's RTOL (measured 181x
    # to 3584x for 1e-9 -> 1e-12)
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


def launch_depths(n):
    """min(_step_size(series), MAX_LAUNCH_DEPTH) for the two endpoint series
    of solve_bvp(n), t0 side first."""
    p, r, q = instanton._seed(n)
    series = (endpoint_series(n, "t0", instanton.SERIES_ORDER, (p, r)),
              endpoint_series(n, "t1", instanton.SERIES_ORDER + (n - 1) // 2, (q,)))
    return [min(instanton._step_size(s), instanton.MAX_LAUNCH_DEPTH) for s in series]


def test_solve_bvp_launch_depths(prof7_counted):
    # the first and last pieces are the endpoint series, up to the depths
    # the step rule gives them, both at the cap for n = 7; the report
    # carries the same two numbers
    prof = prof7_counted[0]
    assert launch_depths(7) == [0.15, 0.15]
    assert prof.breaks[1] == 0.15 and prof.breaks[-2] == 1.0 - 0.15
    assert build_verification_report(7)["launch_depths"] == {
        "t0": 0.15, "t1": 1.0 - (1.0 - 0.15)}


@pytest.mark.parametrize("n, below_cap", [(5, (False, False)), (21, (True, False)),
                                          (101, (True, True))])
def test_launch_depths_follow_step_rule(n, below_cap):
    # the t0 depth falls below the cap from n = 9 on (0.076 at n = 21), the
    # t1 depth from n = 85 on (0.135 at n = 101): a1 and a3 vanish to high
    # order at t = 1, and the rule bounds each by its own leading term
    depths = launch_depths(n)
    assert tuple(d < instanton.MAX_LAUNCH_DEPTH for d in depths) == below_cap
    prof = solve_bvp(n)
    assert prof.breaks[1] == depths[0] and prof.breaks[-2] == 1.0 - depths[1]


def test_solve_bvp_no_seam(prof7_counted):
    # the profile is the shot itself: the sweep's last step meets the t0
    # series at its launch point, breaks[1], with no jump beyond the defect,
    # which is relative to max|a| of the t0 series there
    prof = prof7_counted[0]
    assert prof.meta["match_defect"] < 1e-12
    inner, jump = jumps(prof)
    seam = jump[inner == prof.breaks[1]]
    scale = np.max(np.abs(prof.values(np.nextafter(prof.breaks[1], 0.0))))
    assert len(seam) == 1 and seam[0] <= prof.meta["match_defect"] * scale + 1e-13


def test_numeric_profile_continuous(prof5, prof7_counted):
    # series to sweep at the t1 launch point, and step to step inside the
    # sweep
    for prof in (prof5, prof7_counted[0]):
        inner, jump = jumps(prof)
        assert np.max(jump[inner != prof.breaks[1]]) < 1e-13


@pytest.mark.parametrize("n", [7, 9, 11, 13, 15, 17, 19, 21, 31, 43, 63])
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
