from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from painleve_instanton import isomonodromy, twistor
from painleve_instanton.errors import (BadDeformationParameter, IndeterminateY,
                                       PathTooClose, ReducibleSystem)
from painleve_instanton.isomonodromy import (extract_y, gauge_rate,
                                             isospectral_drift,
                                             jimbo_miwa_params,
                                             max_schlesinger_residual,
                                             pair_invariants,
                                             schlesinger_field,
                                             schlesinger_integrate,
                                             schlesinger_residual)
from painleve_instanton.liealg import eigen2, trace_sq
from painleve_instanton.twistor import (SIGNS, FuchsianData, alpha_inv,
                                        connection_form, cross_ratio,
                                        form_matrix, fuchsian_data,
                                        lambda_of_normalized, line_tangent,
                                        line_transverse)


def _synthetic(A0, A1, Ax, x=2.5):
    A0, A1, Ax = (np.asarray(m, dtype=complex) for m in (A0, A1, Ax))
    return FuchsianData(t=float("nan"), x=complex(x), A0=A0, A1=A1, Ax=Ax,
                        Ainf=-(A0 + A1 + Ax))


def test_schlesinger_rhs_commuting():
    F = _synthetic(np.diag([1, -1]), np.diag([0.5, -0.5]), np.diag([-0.2, 0.2]))
    for d in schlesinger_field(F.x, F.A0, F.A1, F.Ax):
        assert np.max(np.abs(d)) == 0.0


def test_schlesinger_rhs_identities(fam3_raw):
    F = fam3_raw[50]
    d0, d1, dx = schlesinger_field(F.x, F.A0, F.A1, F.Ax)
    assert np.max(np.abs(d0 + d1 + dx)) < 1e-14          # Ainf is preserved
    assert abs(np.trace(F.A0 @ d0)) < 1e-14              # tr(A0^2) conserved


def test_schlesinger_rhs_bad_parameter():
    F = _synthetic(np.diag([1, -1]), np.diag([0.5, -0.5]), np.diag([-0.2, 0.2]), x=1.0)
    with pytest.raises(BadDeformationParameter):
        schlesinger_field(F.x, F.A0, F.A1, F.Ax)


def _central(f, t, h=3e-5):
    # 4th-order central difference
    return (f(t - 2 * h) - 8 * f(t - h) + 8 * f(t + h) - f(t + 2 * h)) / (12 * h)


def test_gauge_rate_against_connection_route(prof1, prof3, prof5):
    # C(t) = B(w) + x' Ax/(w - x), with B the connection along t at fixed w
    # from the 3x3-solve action inverse on both line directions
    for prof in (prof1, prof3, prof5):
        for t in np.linspace(0.05, 0.95, 19):
            a = prof.oriented_values(t)
            xd = _central(cross_ratio, t)
            F = fuchsian_data(prof, t)
            want = gauge_rate(prof, t)
            for w in (0.37 + 0.41j, -0.83 + 0.29j, 1.72 - 0.63j):
                lam = lambda_of_normalized(t, w)
                lam_t = _central(lambda s: lambda_of_normalized(s, w), t)
                c = (alpha_inv(t, lam, line_transverse(t, lam))
                     + alpha_inv(t, lam, line_tangent(t, lam)) * lam_t)
                got = form_matrix(a, c) + xd * F.Ax / (w - F.x)
                assert np.max(np.abs(got - want)) <= 1e-8 * max(1.0, np.max(np.abs(want)))


def test_gauge_transport_evaluates_line_geometry_once(prof3, ts_default, monkeypatch):
    # the stacked fuchsian_data evaluates the poles; gauge_rate needs only mu
    calls = []
    real = twistor.poles

    def counted(t):
        calls.append(t)
        return real(t)

    monkeypatch.setattr(twistor, "poles", counted)
    isomonodromy.make_family(prof3, ts_default, "schlesinger")
    assert len(calls) == 1


def test_gauge_transport_evaluation_count(prof3, ts_default, monkeypatch):
    # one DOP853 sweep over the window, not a restart per sample
    calls = []

    def counted(profile, t):
        calls.append(t)
        return gauge_rate(profile, t)

    monkeypatch.setattr(isomonodromy, "gauge_rate", counted)
    isomonodromy.make_family(prof3, ts_default, gauge="schlesinger")
    assert len(ts_default) == 201
    assert len(calls) < 400


def test_schlesinger_residual_gauged(fam1_gauged, fam3_gauged):
    assert max_schlesinger_residual(fam1_gauged) < 1e-6
    assert max_schlesinger_residual(fam3_gauged) < 1e-6


def test_schlesinger_residual_needs_gauge(fam3_raw):
    # the raw line-gauge family is isomonodromic only modulo conjugation;
    # the literal deformation equations fail there by orders of magnitude
    assert max_schlesinger_residual(fam3_raw) > 1e-2


def test_schlesinger_residual_perturbation(fam3_gauged):
    k = 100
    A0 = fam3_gauged.A0.copy()
    A0[k] += 1e-3
    fam = replace(fam3_gauged, A0=A0)
    assert schlesinger_residual(fam)[k - 2] > 1e-4


def test_gauged_ainf_constant(fam3_gauged):
    ainfs = fam3_gauged.Ainf
    drift = max(np.max(np.abs(a - ainfs[0])) for a in ainfs)
    assert drift < 1e-9


def test_gauge_preserves_invariants(fam3_raw, fam3_gauged):
    for k in (10, 100, 190):
        raw = pair_invariants(fam3_raw[k])
        gauged = pair_invariants(fam3_gauged[k])
        assert np.max(np.abs(raw - gauged)) < 1e-9


def test_isospectral_drift(fam1_raw, fam3_raw):
    for fam, val in ((fam1_raw, 1 / 8), (fam3_raw, 9 / 8)):
        drifts = isospectral_drift(fam)
        assert max(drifts) < 1e-8
        assert abs(trace_sq(fam[0].Ainf) - val) < 1e-10


def test_isospectral_drift_negative_control(fam3_raw):
    F = fam3_raw
    s = (1 + F.t)[:, None, None]
    fam = FuchsianData(t=F.t, x=F.x, A0=s * F.A0, A1=s * F.A1, Ax=s * F.Ax,
                       Ainf=s * F.Ainf)
    assert max(isospectral_drift(fam)) > 0.1


def test_extract_y_region(fam3_raw):
    for k in range(0, len(fam3_raw), 20):
        F = fam3_raw[k]
        for branch in ("plus", "minus"):
            y = extract_y(F, branch)
            assert min(abs(y), abs(y - 1.0), abs(y - F.x)) > 1e-3
            assert abs(y) < 1e3
    # the two branches give distinct roots
    F = fam3_raw[100]
    assert abs(extract_y(F, "plus") - extract_y(F, "minus")) > 1e-3


def test_extract_y_common_eigenvector(prof3, fam3_raw):
    k = 120
    F = fam3_raw[k]
    for branch in ("plus", "minus"):
        y = extract_y(F, branch)
        # the Ainf eigenvector of this branch is shared with A(y)
        _, v_plus, v_minus = eigen2(F.Ainf)
        v = v_plus if branch == "plus" else v_minus
        lam = lambda_of_normalized(F.t, y)
        M = connection_form(prof3, F.t, lam)
        eta = np.conj(v) @ (M @ v)
        assert np.linalg.norm(M @ v - eta * v) < 1e-8


_entries = st.floats(-1.0, 1.0)


@settings(max_examples=60, deadline=None)
@given(n=st.sampled_from((1, 3, 5)), k=st.integers(0, 200),
       branch=st.sampled_from(("plus", "minus")),
       re=st.lists(_entries, min_size=4, max_size=4),
       im=st.lists(_entries, min_size=4, max_size=4))
def test_extract_y_invariance(fam1_raw, fam3_raw, fam5_raw, n, k, branch, re, im):
    # y is a conjugation invariant: the closed form in u, checked against
    # the definition on the conjugated matrices, where the eigenvector of
    # Ainf for the branch (eigen2) is an eigenvector of A(y)
    g = np.eye(2) + 0.5 * (np.array(re) + 1j * np.array(im)).reshape(2, 2)
    assume(np.linalg.cond(g) < 10.0)
    F = {1: fam1_raw, 3: fam3_raw, 5: fam5_raw}[n][k]
    G = F.conjugated(g)
    y = extract_y(G, branch)
    _, v_plus, v_minus = eigen2(G.Ainf)
    v = v_plus if branch == "plus" else v_minus
    M = G.A0 / y + G.A1 / (y - 1.0) + G.Ax / (y - G.x)
    Mv = M @ v
    assert np.linalg.norm(Mv - (np.conj(v) @ Mv) * v) <= 1e-8 * np.linalg.norm(M)


def _from_u(u, x=2.5):
    """A quadruple built from the residue model u alone."""
    u = np.asarray(u, dtype=complex)
    A0, A1, Ax, Ainf = (form_matrix(u, SIGNS[:, p]) for p in range(4))
    return FuchsianData(t=0.7, x=complex(x), A0=A0, A1=A1, Ax=Ax, Ainf=Ainf, u=u)


def test_extract_y_reducible():
    # u1 = 0 and one of u2, u3 zero: every residue is a multiple of the same
    # X_i, so the residues commute and all couplings vanish
    for u in ((0.0, 0.5, 0.0), (0.0, 0.0, 0.5)):
        with pytest.raises(ReducibleSystem, match=r"t = 0.7 \(plus branch\)"):
            extract_y(_from_u(u), "plus")


def test_extract_y_on_the_pole_zero():
    # u1 = 0 with u2 u3 != 0: b0 = 0 and y falls on the pole 0
    for branch in ("plus", "minus"):
        with pytest.raises(IndeterminateY, match=f"u1 = 0.*{branch} branch"):
            extract_y(_from_u((0.0, 0.4, 0.7)), branch)


def test_extract_y_vanishing_denominator():
    # choose x where x + (1 - x) rho = 0, from rho computed here
    u1, u2, u3 = u = (1.0, 0.5, 0.7)
    lam = np.sqrt(complex(-(u1 * u1 + u2 * u2 + u3 * u3)))
    rho = u3 * (u1 * u3 + lam * u2) / (u1 * (u2 * u2 + u3 * u3))
    F = _from_u(u, x=rho / (rho - 1.0))
    with pytest.raises(IndeterminateY, match="denominator.*plus branch"):
        extract_y(F, "plus")
    assert np.isfinite(extract_y(F, "minus"))


def test_unknown_branch(fam3_raw):
    for fn in (extract_y, jimbo_miwa_params):
        with pytest.raises(ValueError):
            fn(fam3_raw[100], "both")


def test_jimbo_miwa_parameters(fam1_raw, fam3_raw):
    for fam, n in ((fam1_raw, 1), (fam3_raw, 3)):
        F = fam[100]
        alphas = set()
        for branch in ("plus", "minus"):
            p = jimbo_miwa_params(F, branch)
            alphas.add(round(p.alpha.real, 9))
            assert abs(p.beta - (-n * n / 8)) < 1e-7
            assert abs(p.gamma - n * n / 8) < 1e-7
            assert abs(p.delta - (-(n * n - 4) / 8)) < 1e-7
        assert alphas == {round((n - 2) ** 2 / 8, 9), round((n + 2) ** 2 / 8, 9)}


def test_schlesinger_integrate_zero_length(fam3_gauged):
    F = fam3_gauged[50]
    assert schlesinger_integrate(F, F.x) is F


def test_schlesinger_integrate_oracle(fam3_gauged, fam1_gauged):
    for fam in (fam1_gauged, fam3_gauged):
        k0, k1 = 40, 160
        prop = schlesinger_integrate(fam[k0], fam[k1].x)
        direct = fam[k1]
        assert np.max(np.abs(pair_invariants(prop) - pair_invariants(direct))) < 1e-7
        for p in range(4):
            before = trace_sq(fam[k0].residues()[p])
            after = trace_sq(prop.residues()[p])
            assert abs(before - after) < 1e-10


def test_schlesinger_integrate_path_check(fam3_gauged):
    with pytest.raises(PathTooClose):
        schlesinger_integrate(fam3_gauged[50], 0.5 + 0j)


def test_x_monotone(fam3_raw):
    xs = fam3_raw.x.real
    assert np.all(np.diff(xs) > 0)


def test_family_rejects_nonmonotone(prof3, fam3_raw):
    with pytest.raises(ValueError):
        isomonodromy.make_family(prof3, fam3_raw.t[[0, 2, 1]], gauge="line")
