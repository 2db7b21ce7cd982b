import json
import math

import numpy as np
import pytest

from painleve_instanton.cli import trace_files
from painleve_instanton.errors import DegenerateLine, OnDivisor
from painleve_instanton.instanton import (ProfileKind, asd_closed_profile,
                                          closed_form_profile)
from painleve_instanton.liealg import REAL_FORM, trace_sq
from painleve_instanton.report import line_family, transcendent
from painleve_instanton.twistor import (COMPLEX_BASIS, SIGNS, SQRT3,
                                        alpha_inv, alpha_inv_tangent,
                                        alpha_matrix, connection_form,
                                        cross_ratio, delta, fuchsian_data,
                                        line_point, line_tangent, mobius_apply,
                                        mu_pair, poles,
                                        residue_closed_form, residue_numeric,
                                        residue_table_printed)


def test_alpha_matrix_at_origin():
    m = alpha_matrix(0.0, 0.0, 0.0)
    want = np.zeros((3, 3), dtype=complex)
    want[1, 1] = SQRT3
    assert np.array_equal(m, want)


def test_alpha_matrix_det_is_minus_delta(rng):
    for _ in range(100):
        t = rng.uniform(0.05, 0.95)
        lam = rng.normal() + 1j * rng.normal()
        m = alpha_matrix(*line_point(t, lam))
        d = delta(t, lam)
        assert abs(np.linalg.det(m) + d) < 1e-10 * max(1.0, abs(d))


def test_alpha_matrix_finite_point():
    t = 0.5
    m = alpha_matrix(1.0, t / SQRT3, t / SQRT3)
    assert np.all(np.isfinite(m))
    assert abs(np.linalg.det(m)) > 1e-3


def test_delta_values():
    for t in (0.2, 0.5, 0.9):
        assert abs(delta(t, 0.0) - 8 * t**3 / 3) < 1e-15
    # roots of the quartic sit at lambda^2 = mu_pm
    mu_p, mu_m = mu_pair(0.5)
    for mu in (mu_p, mu_m):
        lam = np.sqrt(complex(mu))
        assert abs(delta(0.5, lam)) < 1e-10


def test_alpha_inv_tangent_closed_form(rng):
    assert abs(alpha_inv_tangent(0.4, 0.0)[0]) == 0.0  # c1 ~ lambda
    for _ in range(50):
        t = rng.uniform(0.05, 0.95)
        lam = rng.normal() + 1j * rng.normal()
        try:
            c = alpha_inv_tangent(t, lam)
        except OnDivisor:
            continue
        c2 = alpha_inv(t, lam, line_tangent(t, lam))
        assert np.max(np.abs(c - c2)) < 1e-10
        # applying the action matrix recovers the tangent vector
        m = alpha_matrix(*line_point(t, lam))
        back = m @ (COMPLEX_BASIS @ c)
        assert np.max(np.abs(back - line_tangent(t, lam))) < 1e-9


def test_alpha_inv_tangent_on_divisor():
    g = poles(0.5)
    with pytest.raises(OnDivisor):
        alpha_inv_tangent(0.5, g.poles_lambda[2])


def test_mu_pair_product_and_quadratic():
    for t in np.linspace(0.001, 0.999, 1000):
        mu_p, mu_m = mu_pair(t)
        assert abs(mu_p * mu_m - 1.0) < 1e-12
        S = t**4 + 18 * t * t - 27
        for mu in (mu_p, mu_m):
            q = 8 * t**3 * mu * mu - 2 * S * mu + 8 * t**3
            assert abs(q) < 1e-9 * max(1.0, abs(8 * t**3 * mu * mu))
        assert mu_p < 0 and mu_m < 0


def test_mu_pair_frozen_value():
    mu_p, mu_m = mu_pair(0.5)
    root = 35 * math.sqrt(105)
    assert abs(mu_m - (-359 - root) / 16) < 1e-12
    assert abs(mu_p - (-359 + root) / 16) < 1e-12


def test_delta_roots_are_poles(rng):
    for t in rng.uniform(0.02, 0.98, 100):
        g = poles(t)
        S = t**4 + 18 * t * t - 27
        for z in g.poles_lambda:
            # scale by the size of the quartic's individual terms
            scale = (8 * t**3 * abs(z) ** 4 + 2 * abs(S) * abs(z) ** 2
                     + 8 * t**3) / 3.0
            assert abs(delta(t, z)) < 1e-10 * scale


def test_poles_structure():
    g = poles(0.5)
    z1, z2, z3, z4 = g.poles_lambda
    assert z3 == -z2 and z4 == -z1
    assert abs(z1 * z1 - g.mu_minus) < 1e-12
    assert abs(z2 * z2 - g.mu_plus) < 1e-12
    with pytest.raises(DegenerateLine):
        poles(1.0)
    with pytest.raises(DegenerateLine):
        poles(0.0)


def test_cross_ratio_values():
    assert abs(cross_ratio(0.5) - 375 / 343) < 1e-15
    assert abs(cross_ratio(1e-6) - 1.0) < 1e-9


@pytest.mark.parametrize("t", [0.0, 1.0, 1.5])
def test_cross_ratio_checks_t(t):
    # a float takes a shorter check than an array: both reject t outside (0, 1)
    with pytest.raises(DegenerateLine, match=f"at t = {t}"):
        cross_ratio(t)
    with pytest.raises(DegenerateLine, match=f"at t = {t}"):
        cross_ratio(np.array([0.5, t, 0.25]))


def test_cross_ratio_matches_pole_cross_ratio(rng):
    for t in rng.uniform(0.02, 0.98, 100):
        g = poles(t)
        assert abs(g.x - cross_ratio(t)) < 1e-10


def test_mobius_normalize():
    g = poles(0.37)
    co = g.mobius
    z1, z2, z3, z4 = g.poles_lambda
    assert abs(mobius_apply(co, z1)) < 1e-11
    assert abs(mobius_apply(co, z2) - 1.0) < 1e-11
    assert abs(mobius_apply(co, z3) - g.x) < 1e-11
    a, b, c, d = co
    assert abs(c * z4 + d) < 1e-13 * max(abs(c), abs(d))  # z4 -> infinity
    inv = (d, -b, -c, a)
    for z in (0.3 + 0.4j, -1.0 + 2.0j):
        assert abs(mobius_apply(inv, mobius_apply(co, z)) - z) < 1e-11


def test_residue_closed_form_relations():
    ts = np.linspace(0.05, 0.95, 19)
    w_hat = residue_closed_form(ts)
    assert w_hat.shape == (19, 3) and w_hat.dtype == np.float64
    column = REAL_FORM * w_hat
    # alpha_{1,0} is purely imaginary, so the conjugate that relates its
    # poles (x = 1 = conjugate of 0) is its negative: SIGNS row 1
    assert np.all(column[:, 0].real == 0)
    assert np.array_equal(np.conj(column[:, 0]), -column[:, 0])
    # residue theorem: each row of the sign table sums to zero
    assert np.array_equal(SIGNS.sum(axis=1), np.zeros(3))
    assert not SIGNS.flags.writeable


def test_residue_closed_form_near_t1():
    # against a 40-digit evaluation of the pole formulas, on the same float
    # t: alpha_{1,0} = -i (t^2-1)(t^2-9)/(16 t^3 mu), alpha_{2,0} =
    # (mu_- + 1) t (t+1)(t-3)/(8 t^3 mu z1), alpha_{3,0} = i (mu_+ - 1)
    # t (t-1)(t+3)/(8 t^3 mu z2), mu = mu_+ - mu_-, z_k = i sqrt(-mu_-+);
    # in floats mu_+ - mu_- cancels as t -> 1
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        for t in (1 - 1e-4, 1 - 1e-6, 1 - 1e-8):
            s = mp.mpf(t)
            S = s**4 + 18 * s * s - 27
            mu_m = (S - mp.sqrt((s * s - 1) * (s * s - 9) ** 3)) / (8 * s**3)
            mu_p = 1 / mu_m
            mu = mu_p - mu_m
            z1, z2 = 1j * mp.sqrt(-mu_m), 1j * mp.sqrt(-mu_p)
            want = (-1j * (s * s - 1) * (s * s - 9) / (16 * s**3 * mu),
                    (mu_m + 1) * s * (s + 1) * (s - 3) / (8 * s**3 * mu * z1),
                    1j * (mu_p - 1) * s * (s - 1) * (s + 3) / (8 * s**3 * mu * z2))
            for got, exact in zip(REAL_FORM * residue_closed_form(t), want, strict=True):
                assert abs(mp.mpc(got) - exact) <= 1e-15 * abs(exact)


def test_residue_closed_vs_quadrature():
    column = REAL_FORM * residue_closed_form(0.4)
    worst = 0.0
    for i in (1, 2, 3):
        total = 0.0
        for p in range(4):
            q = residue_numeric(0.4, i, p)
            total += q
            worst = max(worst, abs(q - column[i - 1] * SIGNS[i - 1, p]))
        assert abs(total) < 1e-10  # residue theorem
    assert worst < 1e-8


def test_residue_quadrature_point_doubling():
    a = residue_numeric(0.4, 2, 3, n_points=256)
    b = residue_numeric(0.4, 2, 3, n_points=512)
    assert abs(a - b) < 1e-10


def test_residue_limits_toward_right_end():
    # quadratic extrapolation in s = sqrt(1 - t)
    svals = np.array([0.03, 0.02, 0.01])
    at_inf = REAL_FORM * residue_closed_form(1.0 - svals * svals) * SIGNS[:, 3]
    lim1, lim2, lim3 = np.polyfit(svals, at_inf, 2)[-1]
    assert abs(lim2 - 0.25j) < 1e-6
    assert abs(lim1) < 1e-6
    assert abs(lim3) < 1e-6


def test_printed_residue_table_discrepancy():
    """The published table reproduces the sign/conjugation relations but its
    leading entries deviate from the true residues by fixed factors; keep the
    characterisation pinned so the discrepancy stays visible."""
    for t in (0.4, 0.5, 0.7):
        _, mu_m = mu_pair(t)
        r1, r2, r3 = REAL_FORM * residue_closed_form(t) / residue_table_printed(t)
        print(f"printed-table ratios at t={t}: row1 {r1:.6g} row2 {r2:.6g} row3 {r3:.6g}")
        assert abs(r1 + 1.0) < 1e-12                # sign flip
        assert abs(r2 - 1.0 / t) < 1e-12            # 8t^2 vs 8t^3
        assert abs(r3 - (-mu_m / t)) < 1e-9 * abs(mu_m / t)  # wrong pole and power


def test_connection_form_structure():
    triv = closed_form_profile(ProfileKind.TRIVIAL)
    m = connection_form(triv, 0.5, 0.0)
    assert abs(m[0, 0]) < 1e-15  # X1 component carries a factor lambda
    # linearity under profile scaling
    class Doubled:
        def oriented_jet(self, t):
            return 2.0 * triv.oriented_jet(t)
    m2 = connection_form(Doubled(), 0.5, 0.3 + 0.1j)
    m1 = connection_form(triv, 0.5, 0.3 + 0.1j)
    assert np.max(np.abs(m2 - 2 * m1)) < 1e-14


def test_connection_residues_match_table():
    # contour integral of the connection around each pole reproduces the
    # assembled residue -sum_i a_i alpha_{i,p} X_i
    prof = asd_closed_profile(3)
    t = 0.45
    g = poles(t)
    F = fuchsian_data(prof, t)
    sep = min(abs(a - b) for i, a in enumerate(g.poles_lambda)
              for b in g.poles_lambda[i + 1:])
    radius = 0.05 * sep
    npts = 512
    for z, residue in zip(g.poles_lambda, F.residues()):
        theta = 2 * np.pi * (np.arange(npts) + 0.5) / npts
        ring = z + radius * np.exp(1j * theta)
        total = np.zeros((2, 2), dtype=complex)
        for w in ring:
            total += connection_form(prof, t, w) * (w - z)
        total /= npts
        assert np.max(np.abs(total - residue)) < 1e-8


def test_fuchsian_data_invariants(prof3):
    for prof, target in ((asd_closed_profile(1), 1 / 8), (prof3, 9 / 8)):
        for t in (0.3, 0.6, 0.85):
            F = fuchsian_data(prof, t)
            A0, A1, Ax, Ainf = F.residues()
            assert abs(trace_sq(Ainf) - target) < 1e-12
            s = A0 + A1 + Ax + Ainf
            assert np.max(np.abs(s)) < 1e-10
            assert np.max(np.abs(Ax + A0.conj().T)) < 1e-9
            assert np.max(np.abs(Ainf + A1.conj().T)) < 1e-9
            assert abs(F.x - cross_ratio(t)) == 0.0


def test_trace_constancy_all_poles(prof3):
    vals = np.array([fuchsian_data(prof3, t).trace_squares()
                     for t in np.linspace(0.05, 0.95, 50)])
    for p in range(4):
        col = vals[:, p]
        assert np.max(np.abs(col - col[0])) < 1e-6 * abs(col[0])


def test_fuchsian_json_schema():
    # the `columns.TWISTOR_ROW` rows `trace --format json` writes
    ts = np.array([0.5, 0.7])
    _, fam = line_family(3, 0.5, 0.7, 2)
    sample, params = transcendent(fam, "plus")
    assert np.array_equal(fam.t, ts)
    rows = json.loads("".join(trace_files("json", 3, fam, sample, params)[""]))["twistor"]
    assert len(rows) == 2
    for t, d in zip(ts, rows):
        assert set(d) == {"t", "x", "residues"} and d["t"] == t
        assert set(d["x"]) == {"re", "im"}
        assert list(d["residues"]) == ["p0", "p1", "px", "pinf"]
        for m in d["residues"].values():
            assert np.shape(m) == (2, 2, 2)  # 2x2 of [re, im] pairs
            assert all(type(v) is float for row in m for pair in row for v in pair)
