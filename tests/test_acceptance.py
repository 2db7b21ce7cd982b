"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Finite-difference residual checks run on the default verification window
(uniform t in [0.5, 0.95]); pointwise identities run across the full
parameter range.
"""

import time

import numpy as np

from painleve_instanton.instanton import (DualitySign, ProfileKind,
                                          closed_form_profile,
                                          duality_residual)
from painleve_instanton.isomonodromy import (isospectral_drift,
                                             jimbo_miwa_params, make_family,
                                             max_schlesinger_residual,
                                             pair_invariants,
                                             schlesinger_integrate)
from painleve_instanton.liealg import trace_sq
from painleve_instanton.painleve import (PviParams, max_pvi_residual,
                                         pvi_integrate, select_delta_variant)
from painleve_instanton.report import (build_verification_report,
                                       extract_transcendent)
from painleve_instanton.stepper import fd_weights
from painleve_instanton.twistor import (SIGNS, mu_pair, residue_closed_form,
                                        residue_numeric)


def report(k, ok, detail):
    print(f"ACCEPTANCE {k}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_closed_form_duality():
    start = time.time()
    rng = np.random.default_rng(1)
    hopf = closed_form_profile(ProfileKind.HOPF_SD)
    em3 = closed_form_profile(ProfileKind.E_MINUS_3)
    worst = 0.0
    for t in rng.uniform(0.05, 0.95, 100):
        worst = max(worst, np.max(np.abs(
            duality_residual(hopf, DualitySign.SELF_DUAL, t))))
        worst = max(worst, np.max(np.abs(
            duality_residual(em3, DualitySign.ANTI_SELF_DUAL, t,
                             global_negation=True))))
    elapsed = time.time() - start
    report(1, worst < 1e-12 and elapsed < 1.0,
           f"closed-form duality residual {worst:.3e} in {elapsed:.2f}s")


def test_criterion_2_mu_product():
    start = time.time()
    worst = 0.0
    for t in np.linspace(0.001, 0.999, 1000):
        mu_p, mu_m = mu_pair(t)
        worst = max(worst, abs(mu_p * mu_m - 1.0))
        # mu_pm must actually be the two quartic roots in lambda^2
        S = t**4 + 18 * t * t - 27
        worst = max(worst, abs(8 * t**3 * (mu_p + mu_m) - 2 * S)
                    / max(1.0, abs(2 * S)))
    elapsed = time.time() - start
    report(2, worst < 1e-12 and elapsed < 1.0,
           f"mu identity error {worst:.3e} in {elapsed:.2f}s")


def test_criterion_3_residue_oracle():
    start = time.time()
    worst = 0.0
    for t in np.linspace(0.1, 0.9, 9):
        column = residue_closed_form(t)
        for i in (1, 2, 3):
            for p in range(4):
                worst = max(worst, abs(residue_numeric(t, i, p)
                                       - column[i - 1] * SIGNS[i - 1, p]))
    svals = np.array([0.03, 0.02, 0.01])
    at_inf = residue_closed_form(1.0 - svals * svals) * SIGNS[:, 3]
    lim1, lim2, lim3 = np.polyfit(svals, at_inf, 2)[-1]
    lim_err = max(abs(lim2 - 0.25j), abs(lim1), abs(lim3))
    elapsed = time.time() - start
    report(3, worst < 1e-8 and lim_err < 1e-6 and elapsed < 10.0,
           f"closed-vs-quadrature {worst:.3e}, limit error {lim_err:.3e} "
           f"in {elapsed:.1f}s")


def test_criterion_4_conserved_quantities(fam1_raw, fam3_raw):
    start = time.time()
    worst_drift, worst_val = 0.0, 0.0
    for fam, n in ((fam1_raw, 1), (fam3_raw, 3)):
        worst_drift = max(worst_drift, max(isospectral_drift(fam)))
        tr = trace_sq(fam[len(fam) // 2].Ainf)
        worst_val = max(worst_val, abs(tr - n * n / 8))
    elapsed = time.time() - start
    report(4, worst_drift < 1e-8 and worst_val < 1e-8 and elapsed < 5.0,
           f"drift {worst_drift:.3e}, tr(Ainf^2) error {worst_val:.3e} "
           f"in {elapsed:.1f}s")


def test_criterion_5_schlesinger(prof1, prof3, fam1_raw, fam3_raw):
    start = time.time()
    res = max(max_schlesinger_residual(prof1, fam1_raw),
              max_schlesinger_residual(prof3, fam3_raw))
    inv_err = 0.0
    for fam in (fam1_raw, fam3_raw):
        k0, k1 = len(fam) // 4, (3 * len(fam)) // 4
        prop = schlesinger_integrate(fam[k0], fam[k1].x)
        inv_err = max(inv_err, float(np.max(np.abs(
            pair_invariants(prop) - pair_invariants(fam[k1])))))
    elapsed = time.time() - start
    report(5, res < 1e-6 and inv_err < 1e-7 and elapsed < 30.0,
           f"max residual {res:.3e} (201-pt grids), propagation oracle "
           f"{inv_err:.3e} in {elapsed:.1f}s")


def test_criterion_6_parameters(fam3_raw):
    start = time.time()
    mid = len(fam3_raw) // 2
    alphas = sorted(jimbo_miwa_params(fam3_raw[mid], b).alpha.real
                    for b in ("plus", "minus"))
    p = jimbo_miwa_params(fam3_raw[mid], "plus")
    alpha_ok = abs(alphas[0] - 1 / 8) < 1e-7 and abs(alphas[1] - 25 / 8) < 1e-7
    beta_ok = abs(p.beta + 9 / 8) < 1e-7
    gamma_ok = abs(p.gamma - 9 / 8) < 1e-7
    deltas = jimbo_miwa_params(fam3_raw, "plus").delta
    variant = select_delta_variant(deltas[mid].real, 3)
    spread = float(np.max(np.abs(deltas - deltas[mid])))
    # selection must be unambiguous: far from the rejected variant (-1)
    unambiguous = abs(deltas[mid].real - (-5 / 8)) < 1e-7 \
        and abs(deltas[mid].real - (-1.0)) > 0.1
    elapsed = time.time() - start
    report(6, alpha_ok and beta_ok and gamma_ok and variant == "intro"
           and unambiguous and spread < 1e-7 and elapsed < 5.0,
           f"alphas {alphas[0]:.6f}/{alphas[1]:.6f}, beta {p.beta.real:.6f}, "
           f"gamma {p.gamma.real:.6f}, delta {deltas[mid].real:.6f} -> "
           f"{variant} (spread {spread:.2e}) in {elapsed:.1f}s")


def test_criterion_7_pvi_closure(fam3_raw):
    start = time.time()
    worst_res, worst_step = 0.0, 0.0
    rejected_res = np.inf
    rejected_step = np.inf
    for branch in ("plus", "minus"):
        sample = extract_transcendent(fam3_raw, branch)
        params = jimbo_miwa_params(fam3_raw[100], branch)
        worst_res = max(worst_res, max_pvi_residual(sample, params))
        k = 100
        w1 = fd_weights(sample.xs[k - 2:k + 3].real, sample.xs[k].real, 1)[1]
        yp = np.dot(w1, sample.ys[k - 2:k + 3])
        y_end = pvi_integrate(params, sample.xs[[k, k + 1]].real, sample.ys[k],
                              yp)[0][-1]
        worst_step = max(worst_step, abs(y_end - sample.ys[k + 1]))
        # discriminating run with the rejected delta variant (-1 for n=3)
        bad = PviParams(params.alpha, params.beta, params.gamma, -1.0)
        rejected_res = min(rejected_res, max_pvi_residual(sample, bad))
        y_bad = pvi_integrate(bad, sample.xs[[k, k + 20]].real, sample.ys[k],
                              yp)[0][-1]
        rejected_step = min(rejected_step, abs(y_bad - sample.ys[k + 20]))
    elapsed = time.time() - start
    ok = (worst_res < 1e-5 and worst_step < 1e-6
          and rejected_res > 1e-4 and rejected_step > 1e-4 and elapsed < 30.0)
    report(7, ok,
           f"residual {worst_res:.3e}, step agreement {worst_step:.3e}; "
           f"rejected-delta residual {rejected_res:.3e}, leg mismatch "
           f"{rejected_step:.3e} in {elapsed:.1f}s")


def test_criterion_8_bvp_n5(prof5):
    start = time.time()
    a0 = prof5.values(0.0)
    a1 = prof5.values(1.0)
    boundary = max(abs(a0[0] - 1.0), abs(a0[1] - a0[2]), abs(a1[0]),
                   abs(a1[1] - 5.0), abs(a1[2]))
    rep = build_verification_report(5)
    tr_err = abs(rep["trace_ainf_sq"] - 25 / 8)
    analogues = (rep["schlesinger_max_residual"] < 1e-5
                 and max(rep["isospectral_drift"]) < 1e-5
                 and max(rep["pvi_max_residual"].values()) < 1e-5
                 and max(rep["pvi_step_error"].values()) < 1e-5
                 and rep["propagation_invariant_error"] < 1e-5
                 and rep["delta_variant"] == "intro")
    elapsed = time.time() - start
    report(8, boundary < 1e-8 and tr_err < 1e-6 and analogues
           and elapsed < 300.0,
           f"boundary {boundary:.3e}, tr error {tr_err:.3e}, "
           f"schl {rep['schlesinger_max_residual']:.3e}, "
           f"pvi {max(rep['pvi_max_residual'].values()):.3e} in {elapsed:.1f}s")


def test_criterion_9_convergence_order(prof3):
    start = time.time()
    schl, pvi = [], []
    sizes = (51, 101, 201)
    for n_samples in sizes:
        ts = np.linspace(0.5, 0.95, n_samples)
        raw = make_family(prof3, ts)
        schl.append(max_schlesinger_residual(prof3, raw))
        sample = extract_transcendent(raw, "plus")
        params = jimbo_miwa_params(raw[n_samples // 2], "plus")
        pvi.append(max_pvi_residual(sample, params))
    hs = np.log([1.0 / (n - 1) for n in sizes])
    slope_schl = np.polyfit(hs, np.log(schl), 1)[0]
    slope_pvi = np.polyfit(hs, np.log(pvi), 1)[0]
    elapsed = time.time() - start
    report(9, slope_schl >= 3.0 and slope_pvi >= 3.0,
           f"convergence slopes: schlesinger {slope_schl:.2f}, "
           f"pvi {slope_pvi:.2f} (need >= 3) in {elapsed:.1f}s")
