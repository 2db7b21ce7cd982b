"""End-to-end verification pipeline for one instanton label n: the profile
and its residue family (`line_family`), y(x) on each eigen-branch
(`transcendent`), the Schlesinger / conserved-trace / parameter / Painleve-VI
checks, with both integrating oracles behind one guard (`_oracle`), and a
machine-readable report."""

from __future__ import annotations

import numpy as np

from .columns import TRANSCENDENT, Rows
from .errors import PainleveInstantonError
from .instanton import MAX_MATCH_DEFECT, asd_closed_profile, solve_bvp
from .isomonodromy import (extract_y, isospectral_drift, jimbo_miwa_params,
                           make_family, max_schlesinger_residual,
                           pair_invariants, schlesinger_integrate)
from .painleve import (DELTA_VARIANT_TOL, PviSample, max_pvi_residual, params_from_n,
                       select_delta_variant)


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
    return {**per_n, "delta": 1e-7, "delta_variant": DELTA_VARIANT_TOL, "boundary": 1e-8,
            "match": MAX_MATCH_DEFECT}


def line_family(n, t_min, t_max, samples):
    """(profile, family) for verify, trace and pvi-integrate: the profile and
    its line-gauge residue family on `samples` evenly spaced t in [t_min, t_max]."""
    profile = profile_for(n)
    return profile, make_family(profile, np.linspace(t_min, t_max, samples))


def transcendent(fam, branch):
    """y(x) on the eigen-branch, with y' and y'' from the family's `jets`,
    and the PVI parameters of the middle sample.  Returns (sample, params)."""
    params = jimbo_miwa_params(fam[len(fam) // 2], branch)
    return PviSample.from_jets(fam.t, fam.jets[0], extract_y(fam, branch)), params


def _oracle(failures, key, run):
    """run(), an integrating oracle's error, as a float; or None when the
    oracle's own run raises a package error, with failures[key] =
    "<ErrorClass>: <message>", whose message names where the run stopped."""
    try:
        return float(run())
    except PainleveInstantonError as exc:
        failures[key] = f"{type(exc).__name__}: {exc}"
        return None


def build_verification_report(n, t_min=0.5, t_max=0.95, samples=201):
    """Run the verification suite for one n and return the report dict,
    every check against its `default_tolerances(n)` threshold."""
    tols = default_tolerances(n)

    profile, raw = line_family(n, t_min, t_max, samples)

    schl = max_schlesinger_residual(raw)
    drift = isospectral_drift(raw)
    mid = len(raw) // 2
    tr_ainf = raw[mid].trace_squares()[3]
    tr_target = params_from_n(n).gamma  # tr(Ainf^2) = -2 u.u = gamma

    # propagation oracle: quarter -> three-quarter sample, invariants only
    # (the flow commutes with constant conjugation, so the line gauge serves)
    k0, k1 = len(raw) // 4, (3 * len(raw)) // 4
    failures = {"propagation_failure": None, "pvi_step_failure": {}}  # by report key
    inv_err = _oracle(failures, "propagation_failure", lambda: np.max(np.abs(
        pair_invariants(schlesinger_integrate(raw[k0], raw[k1].t))
        - pair_invariants(raw[k1].vectors()))))

    # each eigen-branch; the step oracle integrates PVI one step from the middle
    by_branch = {b: transcendent(raw, b) for b in ("plus", "minus")}
    pvi_max, step_err = {}, {}
    for b, (sample, params) in by_branch.items():
        pvi_max[b] = float(max_pvi_residual(sample, params))
        step_err[b] = _oracle(failures["pvi_step_failure"], b, lambda: abs(
            sample.integrate(params, mid, mid + 2).ys[-1] - sample.ys[mid + 1]))

    # report alpha_plus = (n+2)^2/8 side
    a_by_branch = {b: params.alpha for b, (_, params) in by_branch.items()}
    lo_branch, hi_branch = sorted(a_by_branch, key=a_by_branch.get)

    deltas = jimbo_miwa_params(raw, "plus").delta
    delta_measured = float(deltas[mid])
    variant = select_delta_variant(delta_measured, n)
    delta_spread = float(np.max(np.abs(deltas - deltas[mid])))
    plus, plus_params = by_branch["plus"]

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
            "beta": float(plus_params.beta),
            "gamma": float(plus_params.gamma),
            "delta": delta_measured,
        },
        "branch_pairing": {
            "alpha_plus_from_eigen_branch": hi_branch,
            "alpha_minus_from_eigen_branch": lo_branch,
        },
        "delta_variant": variant,
        "delta_spread": delta_spread,
        "pvi_max_residual": pvi_max,
        "pvi_step_error": step_err,
        "y_samples": Rows(dict.fromkeys(TRANSCENDENT[1:5]),
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
        "pvi": all(r < tols["pvi"] for r in pvi_max.values()),
        "pvi_step": all(e is not None and e < tols["step"] for e in step_err.values()),
    }
    report.update({key: failure for key, failure in failures.items() if failure})
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
        report["launch_depths"] = profile.meta["launch_depths"]
    report["checks"] = checks
    report["passed"] = bool(all(checks.values()))
    return report
