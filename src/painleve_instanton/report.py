"""End-to-end verification pipeline for one instanton label n: build the
profile, sample the residue family, run the Schlesinger / conserved-trace /
parameter / Painleve-VI checks and assemble a machine-readable report."""

from __future__ import annotations

import numpy as np

from .columns import Rows
from .errors import StepSizeUnderflow
from .instanton import asd_closed_profile, solve_bvp
from .isomonodromy import (extract_y, isospectral_drift, jimbo_miwa_params,
                           make_family, max_schlesinger_residual,
                           pair_invariants, schlesinger_integrate)
from .painleve import PviSample, max_pvi_residual, select_delta_variant
from .stepper import Stencil


def profile_for(n):
    """Profile used by the pipelines: closed form for n in {1, 3}, else BVP."""
    return asd_closed_profile(n) if n in (1, 3) else solve_bvp(n)


def default_tolerances(n):
    """Every threshold the report's checks use, by check."""
    if n <= 3:
        per_n = {"schlesinger": 1e-6, "drift": 1e-8, "trace": 1e-8,
                 "pvi": 1e-5, "step": 1e-6, "invariants": 1e-7}
    else:
        per_n = {"schlesinger": 1e-5, "drift": 1e-5, "trace": 1e-6,
                 "pvi": 1e-5, "step": 1e-5, "invariants": 1e-5}
    return {**per_n, "delta": 1e-7, "delta_variant": 1e-6, "boundary": 1e-8,
            "match": 1e-9}


def extract_transcendent(fam, branch):
    return PviSample(ts=fam.t, xs=fam.x, ys=extract_y(fam, branch))


def line_transcendent(n, t_min, t_max, samples):
    """The stage shared by verify, trace and pvi-integrate: profile ->
    line-gauge residue family on `samples` evenly spaced t in [t_min, t_max]
    -> y(x) on the "plus" eigen-branch, with the PVI parameters of the
    middle sample.

    Returns (profile, family, sample, params).
    """
    profile = profile_for(n)
    fam = make_family(profile, np.linspace(t_min, t_max, samples))
    params = jimbo_miwa_params(fam[len(fam) // 2], "plus")
    return profile, fam, extract_transcendent(fam, "plus"), params


def _step_oracle_error(sample, params, stencil, k):
    """Integrate PVI over one inter-sample step and compare with extraction."""
    return abs(sample.integrate(params, stencil, k, k + 2).ys[-1] - sample.ys[k + 1])


def build_verification_report(n, t_min=0.5, t_max=0.95, samples=201,
                              tol_override=None):
    """Run the verification suite for one n and return the report dict."""
    tols = default_tolerances(n)
    if tol_override is not None:
        tols = {k: tol_override for k in tols}

    profile, raw, plus, params_plus = line_transcendent(n, t_min, t_max, samples)
    stencil = Stencil(raw.x.real)  # every derivative check and oracle seed reads it

    schl = max_schlesinger_residual(profile, raw, stencil)
    drift = isospectral_drift(raw)
    mid = len(raw) // 2
    tr_ainf = raw[mid].trace_squares()[3].real
    tr_target = n * n / 8.0

    # propagation oracle: quarter -> three-quarter sample, invariants only
    # (the flow commutes with constant conjugation, so the line gauge serves)
    k0, k1 = len(raw) // 4, (3 * len(raw)) // 4
    try:
        prop = schlesinger_integrate(raw[k0], raw[k1].x)
        inv_err = float(np.max(np.abs(pair_invariants(prop)
                                     - pair_invariants(raw[k1].vectors()))))
    except StepSizeUnderflow as exc:
        inv_err, failure = None, f"StepSizeUnderflow at x = {exc.t!r}"

    # parameters, both eigen-branches; report alpha_plus = (n+2)^2/8 side
    params_by_branch = {"plus": params_plus,
                        "minus": jimbo_miwa_params(raw[mid], "minus")}
    a_by_branch = {b: params_by_branch[b].alpha.real for b in ("plus", "minus")}
    hi_branch = max(a_by_branch, key=a_by_branch.get)
    lo_branch = min(a_by_branch, key=a_by_branch.get)

    deltas = jimbo_miwa_params(raw, "plus").delta
    delta_measured = complex(deltas[mid])
    variant = select_delta_variant(delta_measured.real, n, tols["delta_variant"])
    delta_spread = float(np.max(np.abs(deltas - deltas[mid])))

    pvi_max = {}
    step_err = {}
    for b in ("plus", "minus"):
        sample = plus if b == "plus" else extract_transcendent(raw, b)
        pvi_max[b] = float(max_pvi_residual(sample, params_by_branch[b], stencil))
        step_err[b] = float(_step_oracle_error(sample, params_by_branch[b], stencil, mid))

    report = {
        "n": n,
        "profile_kind": profile.kind.value,
        "window": {"t_min": t_min, "t_max": t_max, "samples": samples},
        "schlesinger_max_residual": float(schl),
        "isospectral_drift": [float(d) for d in drift],
        "trace_ainf_sq": float(tr_ainf),
        "trace_target": tr_target,
        "propagation_invariant_error": inv_err,
        "params": {
            "alpha_plus": float(a_by_branch[hi_branch]),
            "alpha_minus": float(a_by_branch[lo_branch]),
            "beta": float(params_by_branch["plus"].beta.real),
            "gamma": float(params_by_branch["plus"].gamma.real),
            "delta": float(delta_measured.real),
        },
        "branch_pairing": {
            "alpha_plus_from_eigen_branch": hi_branch,
            "alpha_minus_from_eigen_branch": lo_branch,
        },
        "delta_variant": variant,
        "delta_spread": delta_spread,
        "pvi_max_residual": pvi_max,
        "pvi_step_error": step_err,
        "y_samples": Rows(dict.fromkeys(("x_re", "x_im", "y_re", "y_im")),
                          (plus.xs.real, plus.xs.imag, plus.ys.real, plus.ys.imag)),
        "tolerances": tols,
    }
    checks = {
        "schlesinger": bool(schl < tols["schlesinger"]),
        "drift": bool(max(drift) < tols["drift"]),
        "trace": bool(abs(tr_ainf - tr_target) < tols["trace"]),
        "propagation": inv_err is not None and inv_err < tols["invariants"],
        "delta_stable": bool(delta_spread < tols["delta"]),
        "delta_variant": variant is not None,
        "pvi": bool(max(pvi_max.values()) < tols["pvi"]),
        "pvi_step": bool(max(step_err.values()) < tols["step"]),
    }
    if inv_err is None:
        report["propagation_failure"] = failure
    if profile.kind.value == "numeric":
        a0 = profile.values(0.0)
        a1 = profile.values(1.0)
        boundary_err = max(abs(a0[0] - 1.0), abs(a0[1] - a0[2]),
                           abs(a1[0]), abs(a1[1] - n), abs(a1[2]))
        report["boundary_error"] = float(boundary_err)
        report["match_defect"] = profile.meta["match_defect"]
        report["a2_at_1"] = float(a1[1])
        checks["boundary"] = bool(boundary_err < tols["boundary"])
        checks["match"] = bool(report["match_defect"] < tols["match"])
        # the first and last pieces are the endpoint series
        report["launch_depths"] = {"t0": float(profile.breaks[1]),
                                   "t1": float(1.0 - profile.breaks[-2])}
    report["checks"] = checks
    report["passed"] = bool(all(checks.values()))
    return report
