"""Output gates for the pipeline benchmark.

Every gate recomputes what the output must say from the instanton label n
alone and never imports the program, so it does not depend on the program's
own verdict.  A gate returns a list of error strings; an empty list means
the output is correct.

The tolerances are those of the verification suite at the commit that
introduced the benchmark.  They are frozen here on purpose: a change that
loosens the program's own thresholds still has to meet these.
"""

from __future__ import annotations

import csv
import json
import math
import os

# per-n thresholds of the verification suite (n <= 3: closed forms)
TOLERANCES = {
    "closed": {"schlesinger": 1e-6, "drift": 1e-8, "trace": 1e-8,
               "pvi": 1e-5, "step": 1e-6, "invariants": 1e-7},
    "numeric": {"schlesinger": 1e-5, "drift": 1e-5, "trace": 1e-6,
                "pvi": 1e-5, "step": 1e-5, "invariants": 1e-5},
}
DELTA_SPREAD_TOL = 1e-7
BOUNDARY_TOL = 1e-8
MU_PRODUCT_TOL = 1e-12
# |y_integrated - y_extracted| of pvi-integrate; the largest value seen on the
# benchmark's inputs was 3.6e-8 (n = 1, 201 samples)
PVI_AGREEMENT_BOUND = 1e-6


def tolerances(n):
    return TOLERANCES["closed" if n <= 3 else "numeric"]


def expected_params(n):
    """Painleve VI parameters realised by label n (the "intro" delta)."""
    return {"alpha_plus": (n + 2) ** 2 / 8.0, "alpha_minus": (n - 2) ** 2 / 8.0,
            "beta": -n * n / 8.0, "gamma": n * n / 8.0,
            "delta": -(n * n - 4.0) / 8.0}


def _below(errors, name, value, bound):
    # written so that NaN and missing values fail
    if not (isinstance(value, (int, float)) and abs(value) < bound):
        errors.append(f"{name} = {value!r} not below {bound:g}")


def _near(errors, name, value, want, tol):
    if not (isinstance(value, (int, float)) and abs(value - want) <= tol):
        errors.append(f"{name} = {value!r}, expected {want!r} +- {tol:g}")


def check_verify_report(path, n, samples):
    """Gate for `verify --out path`."""
    if not os.path.exists(path):
        return ["no report written"]
    with open(path) as fh:
        r = json.load(fh)
    tol = tolerances(n)
    errors = []
    if r.get("n") != n:
        errors.append(f"report is for n = {r.get('n')!r}, expected {n}")
    _near(errors, "trace_ainf_sq", r.get("trace_ainf_sq"), n * n / 8.0, tol["trace"])
    params = r.get("params", {})
    for key, want in expected_params(n).items():
        _near(errors, f"params.{key}", params.get(key), want, tol["invariants"])
    if r.get("delta_variant") != "intro":
        errors.append(f"delta_variant = {r.get('delta_variant')!r}, expected 'intro'")
    _below(errors, "schlesinger_max_residual", r.get("schlesinger_max_residual"),
           tol["schlesinger"])
    for p, d in enumerate(r.get("isospectral_drift") or [None]):
        _below(errors, f"isospectral_drift[{p}]", d, tol["drift"])
    _below(errors, "propagation_invariant_error",
           r.get("propagation_invariant_error"), tol["invariants"])
    _below(errors, "delta_spread", r.get("delta_spread"), DELTA_SPREAD_TOL)
    for branch in ("plus", "minus"):
        _below(errors, f"pvi_max_residual.{branch}",
               r.get("pvi_max_residual", {}).get(branch), tol["pvi"])
        _below(errors, f"pvi_step_error.{branch}",
               r.get("pvi_step_error", {}).get(branch), tol["step"])
    if r.get("profile_kind") == "numeric":
        _below(errors, "boundary_error", r.get("boundary_error"), BOUNDARY_TOL)
    ys = r.get("y_samples", [])
    if len(ys) != samples:
        errors.append(f"{len(ys)} y_samples, expected {samples}")
    if not all(math.isfinite(pt[k]) for pt in ys for k in ("x_re", "x_im", "y_re", "y_im")):
        errors.append("non-finite y sample")
    # the report's verdict must agree with the independent one
    if r.get("passed") is not (not errors):
        errors.append(f"passed = {r.get('passed')!r} disagrees with the gate")
    return errors


def _read_csv(path, header):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != header:
        raise ValueError(f"{os.path.basename(path)}: bad header")
    body = rows[1:]
    if any(len(row) != len(header) for row in body):
        raise ValueError(f"{os.path.basename(path)}: ragged row")
    return [[float(v) for v in row] for row in body]


def _column_constant(errors, name, values, want, tol):
    spread = max(values) - min(values)
    if not (spread <= tol and abs(values[0] - want) <= tol):
        errors.append(f"{name}: spread {spread:.3g}, first {values[0]!r}, "
                      f"expected constant {want!r} +- {tol:g}")


def check_trace_csv(stem, n, samples):
    """Gate for `trace --out stem` (three CSV files)."""
    tol = tolerances(n)
    errors = []
    tw = _read_csv(stem + ".twistor.csv",
                   ["t", "x_re", "x_im", "trA0sq", "trA1sq", "trAxsq", "trAinfsq"])
    mu = _read_csv(stem + ".mu.csv", ["t", "mu_plus", "mu_minus", "mu_product"])
    pvi = _read_csv(stem + ".pvi.csv",
                    ["t", "x_re", "x_im", "y_re", "y_im", "residual_abs"])
    for name, rows in (("twistor", tw), ("mu", mu), ("pvi", pvi)):
        if len(rows) != samples:
            errors.append(f"{name}.csv has {len(rows)} rows, expected {samples}")
    if errors:
        return errors
    if not all(a[0] == b[0] == c[0] for a, b, c in zip(tw, mu, pvi)):
        errors.append("t columns differ between the three files")
    for col, label in zip(range(3, 7), ("0", "1", "x", "inf")):
        _column_constant(errors, f"tr(A_{label}^2)", [row[col] for row in tw],
                         n * n / 8.0, tol["trace"])
    bad_mu = [row[0] for row in mu if not abs(row[3] - 1.0) <= MU_PRODUCT_TOL]
    if bad_mu:
        errors.append(f"mu_product != 1 at {len(bad_mu)} rows (first t = {bad_mu[0]})")
    if not all(math.isfinite(v) for row in pvi for v in row[:5]):
        errors.append("non-finite transcendent sample")
    return errors


def check_trace_json(path, n, samples):
    """Gate for `trace --format json --out path`."""
    tol = tolerances(n)
    with open(path) as fh:
        doc = json.load(fh)
    errors = []
    exp = expected_params(n)
    params = {k: v["re"] for k, v in doc["params"].items()}
    alpha_ok = any(abs(params["alpha"] - exp[k]) <= tol["invariants"]
                   for k in ("alpha_plus", "alpha_minus"))
    if not alpha_ok:
        errors.append(f"params.alpha = {params['alpha']!r} is neither alpha+ nor alpha-")
    for key in ("beta", "gamma", "delta"):
        _near(errors, f"params.{key}", params[key], exp[key], tol["invariants"])
    if doc["delta_variant"] != "intro":
        errors.append(f"delta_variant = {doc['delta_variant']!r}, expected 'intro'")
    for key in ("twistor", "mu", "pvi"):
        if len(doc[key]) != samples:
            errors.append(f"{key} has {len(doc[key])} entries, expected {samples}")
    if errors:
        return errors
    for label in ("p0", "p1", "px", "pinf"):
        traces = []
        for F in doc["twistor"]:
            (a, b), (c, d) = [[complex(*z) for z in row] for row in F["residues"][label]]
            traces.append((a * a + d * d + 2 * b * c).real)
        _column_constant(errors, f"tr({label}^2)", traces, n * n / 8.0, tol["trace"])
    bad_mu = [m["t"] for m in doc["mu"]
              if not abs(m["mu_plus"] * m["mu_minus"] - 1.0) <= MU_PRODUCT_TOL]
    if bad_mu:
        errors.append(f"mu_product != 1 at {len(bad_mu)} points (first t = {bad_mu[0]})")
    if not all(math.isfinite(p[k]) for p in doc["pvi"] for k in ("x_re", "y_re", "y_im")):
        errors.append("non-finite transcendent sample")
    return errors


def check_pvi_integrate(path, n, samples):
    """Gate for `pvi-integrate --out path`: finite rows, agreement bounded."""
    rows = _read_csv(path, ["t", "x_re", "x_im", "y_re", "y_im", "residual_abs"])
    errors = []
    # the integrator starts at the third sample (5-point derivative stencil)
    if len(rows) != samples - 2:
        errors.append(f"{len(rows)} rows, expected {samples - 2}")
    if not all(math.isfinite(v) for row in rows for v in row):
        errors.append("non-finite row")
    elif rows:
        worst = max(row[5] for row in rows)
        _below(errors, "max residual_abs", worst, PVI_AGREEMENT_BOUND)
    if any(b[0] <= a[0] for a, b in zip(rows, rows[1:])):
        errors.append("t is not increasing")
    return errors


CHECKS = {
    "verify": check_verify_report,
    "trace-csv": check_trace_csv,
    "trace-json": check_trace_json,
    "pvi-integrate": check_pvi_integrate,
}


def run_check(kind, path, n, samples):
    """Run one gate; a malformed file is a failed check, not a crash."""
    try:
        return CHECKS[kind](path, n, samples)
    except (OSError, ValueError, KeyError, TypeError, IndexError,
            AttributeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
