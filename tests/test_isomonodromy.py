from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from painleve_instanton import (cli, instanton, isomonodromy, painleve, report,
                                stepper, twistor)
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
from painleve_instanton.liealg import cross, eigen2, su2_combination, trace_sq
from painleve_instanton.stepper import Stencil, fd_weights
from painleve_instanton.twistor import (FuchsianData, alpha_inv,
                                        connection_form, cross_ratio,
                                        fuchsian_data,
                                        lambda_of_normalized, line_tangent,
                                        line_transverse)


# diag(1, -1), diag(0.5, -0.5) and diag(-0.2, 0.2): multiples of X1
_DIAGONAL = ([-1j, 0.0, 0.0], [-0.5j, 0.0, 0.0], [0.2j, 0.0, 0.0])


def test_schlesinger_rhs_commuting():
    for d in schlesinger_field(2.5 + 0j, *_DIAGONAL):
        assert max(abs(c) for c in d) == 0.0


def test_schlesinger_rhs_identities(fam3_raw):
    F = fam3_raw[50]
    d0, d1, dx = schlesinger_field(F.x, *F.vectors()[:3])
    assert max(abs(p + q + r) for p, q, r in zip(d0, d1, dx)) < 1e-14  # Ainf is preserved
    A0 = F.residues()[0]
    assert abs(np.trace(A0 @ su2_combination(*d0))) < 1e-14  # tr(A0^2) conserved


def test_schlesinger_rhs_bad_parameter():
    with pytest.raises(BadDeformationParameter):
        schlesinger_field(1.0 + 0j, *_DIAGONAL)
    # the sample-array path checks every sample
    stack = [[np.full(2, c) for c in m] for m in _DIAGONAL]
    with pytest.raises(BadDeformationParameter):
        schlesinger_field(np.array([2.5, 1.0]), *stack)


def test_schlesinger_field_conditioning():
    # at n = 75 the couplings are ~1e-9 of the X2 components: the field of
    # the family sample at t = 0.6125 (k = 50 of verify's window) agrees with
    # a 50-digit cross product of the same float inputs.  The commutator of
    # the 2x2 entries lost 14 % of [A0, Ax] here.
    mp = pytest.importorskip("mpmath")
    F = isomonodromy.make_family(instanton.solve_bvp(75), np.linspace(0.5, 0.95, 201))[50]
    m = F.vectors()
    with mp.workdps(50):
        v = [[mp.mpc(c) for c in row] for row in m[:3]]
        x = mp.mpc(F.x)

        def field(a, b, scale):
            return [2 * (a[(i + 1) % 3] * b[(i + 2) % 3] - a[(i + 2) % 3] * b[(i + 1) % 3])
                    / scale for i in range(3)]

        want = (field(v[0], v[2], x), field(v[1], v[2], x - 1))
        for got, exact in zip(schlesinger_field(F.x, *m[:3]), want):
            size = mp.sqrt(sum(abs(e) ** 2 for e in exact))
            err = mp.sqrt(sum(abs(mp.mpc(g) - e) ** 2 for g, e in zip(got, exact)))
            assert size > 0 and err <= 1e-12 * size


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
            want = su2_combination(*gauge_rate(prof, t))
            for w in (0.37 + 0.41j, -0.83 + 0.29j, 1.72 - 0.63j):
                lam = lambda_of_normalized(t, w)
                lam_t = _central(lambda s: lambda_of_normalized(s, w), t)
                c = (alpha_inv(t, lam, line_transverse(t, lam))
                     + alpha_inv(t, lam, line_tangent(t, lam)) * lam_t)
                got = su2_combination(*(-a * c)) + xd * F.residues()[2] / (w - F.x)
                assert np.max(np.abs(got - want)) <= 1e-8 * max(1.0, np.max(np.abs(want)))


def test_gauge_bracket_is_the_matrix_commutator(prof3, prof5):
    # the residual's [C, A_p] = 2 (c x m_p).X, against CA - AC
    for prof in (prof3, prof5):
        ts = np.linspace(0.5, 0.95, 7)
        c = gauge_rate(prof, ts)
        F = fuchsian_data(prof, ts)
        C = su2_combination(*c.T)
        for A, m in zip(F.residues(), np.moveaxis(F.vectors(), -2, 0)):
            got = su2_combination(*(2.0 * np.array(cross(c.T, m.T))))
            want = C @ A - A @ C
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(c)) * np.max(np.abs(m))


def test_schlesinger_residual_matches_matrix_form(prof3, prof5, fam3_raw, fam5_raw):
    # the Frobenius norm of the matrix defect dA_p/dx + [C, A_p]/x' - Schl_p,
    # with every bracket AB - BA and the stencil on the matrix entries
    for prof, fam in ((prof3, fam3_raw), (prof5, fam5_raw)):
        xs = fam.x.real
        inner = fam[2:-2]
        t = inner.t
        w = fd_weights(sliding_window_view(xs, 5), xs[2:-2], 1)[:, 1]
        xdot = inner.x * (1 / (t + 1) + 3 / (t - 3) - 1 / (t - 1) - 3 / (t + 3))
        C = su2_combination(*gauge_rate(prof, t).T) / xdot[:, None, None]
        derivs = [np.stack([np.sum(w * sliding_window_view(R[:, i, j], 5), -1)
                            for i in (0, 1) for j in (0, 1)], -1).reshape(-1, 2, 2)
                  for R in fam.residues()[:3]]
        A0, A1, Ax = inner.residues()[:3]
        x = inner.x[:, None, None]
        schl0 = (A0 @ Ax - Ax @ A0) / x
        schl1 = (A1 @ Ax - Ax @ A1) / (x - 1)
        want = sum(np.sqrt(np.sum(np.abs(dA + C @ R - R @ C - s) ** 2, axis=(1, 2)))
                   for dA, R, s in zip(derivs, (A0, A1, Ax), (schl0, schl1, -schl0 - schl1)))
        # the two differ by the stencils' roundoff, about 3e-13 against
        # residuals of 3e-7 (the stencils' truncation error)
        got = schlesinger_residual(prof, fam)
        assert np.max(np.abs(got - want)) <= 1e-5 * np.max(want)


def count_calls(monkeypatch, names):
    """Counter of the calls of each named function, through every module of
    the package that binds it."""
    calls = Counter()
    for module in (cli, instanton, isomonodromy, painleve, report, stepper, twistor):
        for name in names:
            real = getattr(module, name, None)
            if real is not None:
                def counted(*args, _name=name, _real=real, **kwargs):
                    calls.update([_name])
                    return _real(*args, **kwargs)
                monkeypatch.setattr(module, name, counted)
    return calls


def test_verify_evaluates_each_stage_once(monkeypatch):
    # one line family, one vectorised gauge term over the inner samples, no
    # gauge transport (the two rk45_path sweeps are the step oracle's), no
    # 2x2 matrix (the checks run on the residue vectors), and one stencil
    # table for every derivative check and oracle seed
    calls = count_calls(monkeypatch, ("gauge_rate", "rk45_path", "residue_closed_form",
                                      "su2_combination", "fd_weights"))
    report.build_verification_report(3)
    assert calls == {"gauge_rate": 1, "rk45_path": 2, "residue_closed_form": 1,
                     "fd_weights": 1}


def test_schlesinger_residual_gauged(prof1, prof3, fam1_raw, fam3_raw):
    assert max_schlesinger_residual(prof1, fam1_raw) < 1e-6
    assert max_schlesinger_residual(prof3, fam3_raw) < 1e-6


def test_schlesinger_residual_needs_gauge(prof3, fam3_raw, monkeypatch):
    # negative control: the line-gauge family is isomonodromic only modulo
    # conjugation, and without the gauge term the deformation equations
    # fail by orders of magnitude
    real = gauge_rate
    monkeypatch.setattr(isomonodromy, "gauge_rate", lambda profile, t: 0.0 * real(profile, t))
    assert max_schlesinger_residual(prof3, fam3_raw) > 1e-2


def test_schlesinger_residual_perturbation(prof3, fam3_raw):
    k = 100
    u = fam3_raw.u.copy()
    u[k] += 1e-3
    fam = replace(fam3_raw, u=u)
    assert schlesinger_residual(prof3, fam)[k - 2] > 1e-4


def test_isospectral_drift(fam1_raw, fam3_raw):
    for fam, val in ((fam1_raw, 1 / 8), (fam3_raw, 9 / 8)):
        drifts = isospectral_drift(fam)
        assert max(drifts) < 1e-8
        assert abs(trace_sq(fam[0].residues()[3]) - val) < 1e-10


def test_isospectral_drift_negative_control(fam3_raw):
    F = fam3_raw
    fam = FuchsianData(t=F.t, x=F.x, u=(1 + F.t)[:, None] * F.u)
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
        _, v_plus, v_minus = eigen2(F.residues()[3])
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
    gi = np.linalg.inv(g)
    A0, A1, Ax, Ainf = (gi @ A @ g for A in F.residues())
    y = extract_y(F, branch)
    _, v_plus, v_minus = eigen2(Ainf)
    v = v_plus if branch == "plus" else v_minus
    M = A0 / y + A1 / (y - 1.0) + Ax / (y - F.x)
    Mv = M @ v
    assert np.linalg.norm(Mv - (np.conj(v) @ Mv) * v) <= 1e-8 * np.linalg.norm(M)


def _from_u(u, x=2.5):
    """A quadruple built from the residue model u alone."""
    return FuchsianData(t=0.7, x=complex(x), u=np.asarray(u, dtype=complex))


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


def test_schlesinger_integrate_zero_length(fam3_raw):
    F = fam3_raw[50]
    assert np.array_equal(schlesinger_integrate(F, F.x), F.vectors())


def test_schlesinger_integrate_oracle(fam3_raw, fam1_raw):
    # the flow commutes with constant conjugation, so the line family's
    # invariants are those of the Schlesinger-gauge family
    for fam in (fam1_raw, fam3_raw):
        k0, k1 = 40, 160
        prop = schlesinger_integrate(fam[k0], fam[k1].x)
        direct = fam[k1].vectors()
        assert np.max(np.abs(pair_invariants(prop) - pair_invariants(direct))) < 1e-7
        for p in range(4):
            before = trace_sq(fam[k0].residues()[p])
            after = trace_sq(su2_combination(*prop[p]))
            assert abs(before - after) < 1e-10


def test_schlesinger_integrate_flow_count(monkeypatch, fam3_raw):
    # the report's oracle span, quarter to three-quarter sample: the count of
    # field evaluations is fixed by the step sequence, not by their cost
    calls = count_calls(monkeypatch, ("schlesinger_field",))
    k0, k1 = len(fam3_raw) // 4, (3 * len(fam3_raw)) // 4
    schlesinger_integrate(fam3_raw[k0], fam3_raw[k1].x)
    assert calls == {"schlesinger_field": 241}


@pytest.mark.parametrize("samples, evaluations", [(201, 37), (801, 25)])
def test_step_oracle_evaluation_count(monkeypatch, samples, evaluations):
    # the report's step oracle integrates PVI over one inter-sample step
    # (6.8e-3 and 1.7e-3 in x): rk45's first step is its 1e-3 cap, not a
    # hundredth of the span that the step control then has to grow
    _, fam, sample, params = report.line_transcendent(3, 0.5, 0.95, samples)
    calls = count_calls(monkeypatch, ("pvi_second_derivative",))
    report._step_oracle_error(sample, params, Stencil(fam.x.real), len(fam) // 2)
    assert calls == {"pvi_second_derivative": evaluations}


def test_schlesinger_integrate_path_check(fam3_raw):
    with pytest.raises(PathTooClose):
        schlesinger_integrate(fam3_raw[50], 0.5 + 0j)


@pytest.mark.parametrize("start, target", [(0.0, 0.5j), (0.0, -3.0j), (0.1j, 0.0)],
                         ids=["target-up", "target-down", "start"])
def test_schlesinger_integrate_rejects_complex_x(fam3_raw, start, target):
    # the flow runs along real x: a non-real end is refused, not integrated
    # along its real part and labelled with the complex value
    F = fam3_raw[50]
    F = replace(F, x=F.x + start)
    with pytest.raises(ValueError, match="real x"):
        schlesinger_integrate(F, 2.0 + target)


def test_x_monotone(fam3_raw):
    xs = fam3_raw.x.real
    assert np.all(np.diff(xs) > 0)


def test_family_rejects_nonmonotone(prof3, fam3_raw):
    with pytest.raises(ValueError):
        isomonodromy.make_family(prof3, fam3_raw.t[[0, 2, 1]])
