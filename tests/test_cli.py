import argparse
import contextlib
import io
import itertools
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from painleve_instanton import cli, instanton, painleve, report, stepper
from painleve_instanton.cli import main
from painleve_instanton.errors import (BadDeformationParameter, SingularityEncountered,
                                      StepSizeUnderflow)
from painleve_instanton.liealg import trace_sq


def run(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_profile_trivial(capsys):
    code, out, _ = run(capsys, "profile", "--n", "1", "--samples", "5")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,a1,a2,a3"
    for line in lines[1:]:
        assert line.endswith(",1,1,1")


@pytest.mark.parametrize("value", ["basic_format", "verbose", ""])
def test_log_variable_must_name_a_level(monkeypatch, capsys, value):
    # `logging` has attributes that are no level (BASIC_FORMAT is a format
    # string): anything but a level name is a configuration error, not a
    # traceback and not a silent ERROR
    monkeypatch.setenv("PAINLEVE_INSTANTON_LOG", value)
    code, out, err = run(capsys, "profile", "--n", "1", "--samples", "5")
    assert code == 1 and out == ""
    assert "configuration error" in err and "PAINLEVE_INSTANTON_LOG" in err


@pytest.mark.parametrize("value", ["debug", "INFO", "Warning", "error"])
def test_log_variable_accepts_level_names(monkeypatch, capsys, value):
    monkeypatch.setenv("PAINLEVE_INSTANTON_LOG", value)
    code, out, _ = run(capsys, "profile", "--n", "1", "--samples", "5")
    assert code == 0 and out.startswith("t,a1,a2,a3")


def test_log_variable_applies_on_every_call(monkeypatch, caplog, tmp_path):
    # the root logger has a handler here (caplog's), as in any host that
    # configured logging, so the variable must reach the package logger on
    # every call, the second one included
    path = str(tmp_path / "p.csv")
    argv = ["profile", "--n", "1", "--samples", "5", "--out", path]
    monkeypatch.setenv("PAINLEVE_INSTANTON_LOG", "info")
    assert main(argv) == 0
    assert [r.getMessage() for r in caplog.records] == [f"wrote {path}"]
    caplog.clear()
    monkeypatch.setenv("PAINLEVE_INSTANTON_LOG", "error")
    assert main(argv) == 0
    assert caplog.records == []


def test_log_variable_prints_in_a_fresh_process(tmp_path):
    # a fresh process has no handler on the root logger: main adds one on
    # stderr
    path = str(tmp_path / "p.csv")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PAINLEVE_INSTANTON_LOG": "info", "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-m", "painleve_instanton.cli", "profile",
                           "--n", "1", "--samples", "5", "--out", path],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0 and proc.stderr == f"INFO:painleve_instanton:wrote {path}\n"


def test_profile_rejects_bad_samples(capsys):
    code, _, err = run(capsys, "profile", "--n", "7", "--samples", "3")
    assert code == 1
    assert "samples" in err


def test_profile_rejects_inverted_window(capsys):
    code, _, err = run(capsys, "profile", "--n", "3", "--t-min", "0.9", "--t-max", "0.5")
    assert code == 1
    assert "t-min" in err


def test_profile_rejects_even_n(capsys):
    code, _, _ = run(capsys, "profile", "--n", "4")
    assert code == 1


def test_profile_json_matches_closed_form(capsys):
    code, out, _ = run(capsys, "profile", "--n", "3", "--format", "json",
                       "--samples", "7")
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 3 and len(doc["points"]) == 7


def test_profile_deterministic(capsys):
    _, out1, _ = run(capsys, "profile", "--n", "3", "--samples", "11")
    _, out2, _ = run(capsys, "profile", "--n", "3", "--samples", "11")
    assert out1 == out2


def test_verify_n1(capsys):
    code, out, _ = run(capsys, "verify", "--n", "1")
    assert code == 0
    rep = json.loads(out)
    assert rep["passed"] is True
    assert abs(rep["params"]["beta"] + 1 / 8) < 1e-9
    assert abs(rep["params"]["gamma"] - 1 / 8) < 1e-9
    assert rep["delta_variant"] == "intro"


def _measured(rep):
    """check name -> (the measured value it compares, its tolerance key)."""
    out = {
        "schlesinger": (rep["schlesinger_max_residual"], "schlesinger"),
        "drift": (max(rep["isospectral_drift"]), "drift"),
        "trace": (abs(rep["trace_ainf_sq"] - rep["trace_target"]), "trace"),
        "propagation": (rep["propagation_invariant_error"], "invariants"),
        "delta_stable": (rep["delta_spread"], "delta"),
        "delta_variant": (min(abs(rep["params"]["delta"] + (rep["n"] ** 2 - c) / 8)
                              for c in (4, 1)), "delta_variant"),
        "pvi": (max(rep["pvi_max_residual"].values()), "pvi"),
        "pvi_step": (max(rep["pvi_step_error"].values()), "step"),
    }
    if "boundary_error" in rep:
        out["boundary"] = (rep["boundary_error"], "boundary")
        out["match"] = (rep["match_defect"], "match")
    return out


# n = 61 on [0.05, 0.95] fails `propagation` and n = 3 on [0.01, 0.95]
# fails `schlesinger` and `pvi`: failing verdicts of a numeric and a
# closed-form profile
@pytest.mark.parametrize("argv", [("--n", "3"), ("--n", "61", "--t-min", "0.05"),
                                  ("--n", "3", "--t-min", "0.01")],
                         ids=["n3", "n61-wide", "n3-near-0"])
def test_verify_checks_follow_tolerances(capsys, argv):
    # every verdict is its measured value against the reported threshold
    _, out, _ = run(capsys, "verify", *argv)
    rep = json.loads(out)
    measured = _measured(rep)
    assert rep["checks"]["delta_variant"] is (rep["delta_variant"] is not None)
    assert set(rep["checks"]) == set(measured)
    for name, (value, key) in measured.items():
        assert rep["checks"][name] is (value < rep["tolerances"][key]), name


@pytest.mark.parametrize("argv", [("pvi-integrate", "--format", "json"),
                                  ("verify", "--format", "json")],
                         ids=["pvi-integrate-format", "verify-format"])
def test_option_of_another_subcommand_is_rejected(capsys, argv):
    # each subcommand takes only the options it reads
    with pytest.raises(SystemExit) as exit_:
        main(list(argv))
    assert exit_.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def scaled_n3(monkeypatch):
    """Make the pipelines read the n = 3 closed form scaled by 1.001, whose
    delta (-0.627...) is near neither published variant."""
    from dataclasses import replace

    prof = instanton.asd_closed_profile(3)
    scaled = replace(prof, component_signs=tuple(1.001 * s for s in prof.component_signs))
    monkeypatch.setattr(report, "profile_for", lambda n: scaled)


def test_verify_delta_matching_neither_variant(capsys, monkeypatch):
    # a failed measurement, not a configuration error: exit 2 with the report
    scaled_n3(monkeypatch)
    code, out, err = run(capsys, "verify", "--n", "3")
    assert code == 2 and err == ""
    rep = json.loads(out)
    assert rep["delta_variant"] is None and abs(rep["params"]["delta"] + 0.627) < 1e-3
    assert rep["checks"]["delta_variant"] is False and rep["passed"] is False


def test_trace_delta_matching_neither_variant(capsys, monkeypatch):
    scaled_n3(monkeypatch)
    code, out, _ = run(capsys, "trace", "--n", "3", "--samples", "21", "--format", "json")
    assert code == 0 and json.loads(out)["delta_variant"] is None


def test_verify_impossible_tolerance(capsys):
    # the n = 61 propagation oracle's invariant error, 9.2e-4 on this
    # window, cannot meet its 1e-5
    code, out, _ = run(capsys, "verify", "--n", "61", "--t-min", "0.05")
    assert code == 2
    rep = json.loads(out)
    assert rep["passed"] is False
    assert any(v is False for v in rep["checks"].values())


def test_trace_files(tmp_path, capsys):
    stem = str(tmp_path / "tr")
    code, _, _ = run(capsys, "trace", "--n", "3", "--samples", "21",
                     "--t-min", "0.5", "--out", stem)
    assert code == 0
    tw = (tmp_path / "tr.twistor.csv").read_text().splitlines()
    assert tw[0] == "t,x_re,x_im,trA0sq,trA1sq,trAxsq,trAinfsq"
    xs = np.array([float(r.split(",")[1]) for r in tw[1:]])
    assert np.all(np.diff(xs) > 0)  # x strictly increasing
    mu = (tmp_path / "tr.mu.csv").read_text().splitlines()
    assert mu[0] == "t,mu_plus,mu_minus,mu_product"
    for row in mu[1:]:
        assert abs(float(row.split(",")[3]) - 1.0) < 1e-12
    pvi = (tmp_path / "tr.pvi.csv").read_text().splitlines()
    assert pvi[0] == "t,x_re,x_im,y_re,y_im,residual_abs"


def test_trace_csv_needs_out(capsys):
    code, _, err = run(capsys, "trace", "--n", "3", "--samples", "11")
    assert code == 1
    assert "--out" in err


def test_trace_deterministic_files(tmp_path, capsys):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    run(capsys, "trace", "--n", "1", "--samples", "11", "--t-min", "0.5", "--out", a)
    run(capsys, "trace", "--n", "1", "--samples", "11", "--t-min", "0.5", "--out", b)
    for suffix in (".twistor.csv", ".mu.csv", ".pvi.csv"):
        assert (tmp_path / ("a" + suffix)).read_bytes() == \
               (tmp_path / ("b" + suffix)).read_bytes()


def test_verify_no_convergence(capsys, monkeypatch):
    # the wild seed's shot from t1 blows up: the solver error is exit code 2
    # with the error and the failed side named in JSON on stderr
    monkeypatch.setattr(instanton, "_seed", lambda n: (40.0, -30.0, 55.0))
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", "--n", "5")
    assert code == 2 and out == ""
    error = json.loads(err)
    assert error["error"] == "ShotFailed" and "shot from t1" in error["detail"]
    assert time.perf_counter() - start < 5.0


def test_underflowed_shot_exits_2_naming_the_solve(capsys):
    # from n = 473 on, the t = 1 series' a1 and a3 underflow to 0 at its
    # launch, and a sweep from there stays on a1 = a3 = 0: the solve fails
    # on that side instead of returning a zero profile
    for command in ("profile", "verify"):
        code, out, err = run(capsys, command, "--n", "501")
        assert code == 2 and out == ""
        error = json.loads(err)
        assert error["error"] == "ShotFailed"
        assert error["detail"].startswith("shot from t1 failed: a1 = 0.0, a3 = 0.0 at t = ")


def test_oversize_match_defect_exits_2_naming_the_solve(monkeypatch, capsys):
    # q off the seed law by 1e-6 misses the match by 5.9e-7 at n = 7, far
    # above truncation: neither command writes that profile
    law = instanton._seed
    monkeypatch.setattr(instanton, "_seed", lambda n: (*law(n)[:2], law(n)[2] * (1 + 1e-6)))
    for command in ("profile", "verify"):
        code, out, err = run(capsys, command, "--n", "7")
        assert code == 2 and out == ""
        error = json.loads(err)
        assert error["error"] == "ShotFailed"
        prefix = "shot from t1 failed: match defect "
        assert error["detail"].startswith(prefix)
        assert 5e-7 < float(error["detail"][len(prefix):].split()[0]) < 7e-7
        assert error["detail"].endswith("exceeds 1e-09 (not truncation)")


def test_solver_errors_print_plain_numbers(capsys):
    # at n = 457 the sweep's step no longer moves t: the message gives t as
    # a number, not as a numpy scalar's repr
    code, out, err = run(capsys, "verify", "--n", "457")
    assert code == 2 and out == ""
    detail = json.loads(err)["detail"]
    assert "np." not in detail
    prefix = "shot from t1 failed: step size 0.000e+00 below the roundoff of t="
    assert detail.startswith(prefix)
    assert 0.95 < float(detail[len(prefix):].split(":")[0]) < 0.96


@pytest.mark.parametrize("command", ["pvi-integrate", "verify"])
def test_step_limit_exits_2_with_the_error_named(monkeypatch, capsys, command):
    # the DOP853 step limit is a solver failure: exit 2, no traceback.
    # pvi-integrate stops in the direct PVI integrator, an x-flow: JSON on
    # stderr naming x, which exceeds 1 on the line.  verify's propagation
    # oracle runs in the family's t in (0, 1); the report fails that check
    # alone and names the error, as "<ErrorClass>: <message>", and its t
    monkeypatch.setattr(stepper, "MAX_STEPS", 3)
    code, out, err = run(capsys, command, "--n", "3")
    assert code == 2
    if command == "pvi-integrate":
        assert out == ""
        error = json.loads(err)
        assert error["error"] == "StepLimitExceeded"
        prefix = "step limit of 3 steps exceeded at x="
        assert error["detail"].startswith(prefix)
        assert float(error["detail"][len(prefix):]) > 1.0
    else:
        assert err == ""
        rep = json.loads(out)
        assert [k for k, ok in rep["checks"].items() if not ok] == ["propagation"]
        prefix = "StepLimitExceeded: step limit of 3 steps exceeded at t="
        assert rep["propagation_failure"].startswith(prefix)
        assert 0.0 < float(rep["propagation_failure"][len(prefix):]) < 1.0


def test_grinding_propagation_ends_at_the_step_limit(capsys):
    # at n = 101 on [0.1, 0.95] the propagation oracle's steps shrink
    # toward t = 0.679 without underflowing for 270,447 steps (12-29 s);
    # the step budget ends it in well under a second, and the report
    # names the limit
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", "--n", "101", "--t-min", "0.1")
    assert time.perf_counter() - start < 5.0
    assert code == 2 and err == ""
    rep = json.loads(out)
    assert rep["checks"]["propagation"] is False
    assert rep["propagation_failure"].startswith(
        "StepLimitExceeded: step limit of 10000 steps exceeded at t=0.679")


def underflowing_propagation(monkeypatch):
    # what the real oracle does at n = 101 on [0.1, 0.95], after about 30 s
    # (at t = 0.679); a numpy t is reported as a plain number
    def underflow(F0, t_target):
        raise StepSizeUnderflow(np.float64(0.62), 3e-17)
    monkeypatch.setattr(report, "schlesinger_integrate", underflow)


def test_report_names_a_propagation_underflow(monkeypatch):
    underflowing_propagation(monkeypatch)
    rep = report.build_verification_report(3)
    assert rep["propagation_invariant_error"] is None
    assert rep["propagation_failure"] == ("StepSizeUnderflow: step size 3.000e-17 below the "
                                          "roundoff of t=0.62: singular or non-finite "
                                          "right-hand side")
    assert rep["checks"]["propagation"] is False and rep["passed"] is False
    assert all(rep["checks"][c] for c in rep["checks"] if c != "propagation")


def test_verify_propagation_underflow_exits_2_with_the_report(monkeypatch, capsys):
    underflowing_propagation(monkeypatch)
    code, out, err = run(capsys, "verify", "--n", "3")
    assert code == 2 and err == ""
    rep = json.loads(out)
    assert rep["checks"]["propagation"] is False
    assert rep["propagation_failure"].startswith(
        "StepSizeUnderflow: step size 3.000e-17 below the roundoff of t=0.62:")


def test_verify_names_any_package_error_of_an_oracle(monkeypatch, capsys):
    # the guard catches the package's base error class: a named error from
    # an oracle's own run, of any class, is that oracle's failed check
    def bad_x(F0, t_target):
        raise BadDeformationParameter("x = 1.0 touches a fixed singular point")
    monkeypatch.setattr(report, "schlesinger_integrate", bad_x)
    code, out, err = run(capsys, "verify", "--n", "3")
    assert code == 2 and err == ""
    rep = json.loads(out)
    assert rep["checks"]["propagation"] is False
    assert rep["propagation_failure"].startswith("BadDeformationParameter: ")


def test_report_names_a_step_oracle_singularity(monkeypatch):
    # a step oracle's run that stops at a movable singularity fails that
    # check on each branch where it stopped, named with its x and y
    def singular(params, xs, y0, yp0):
        raise SingularityEncountered(1.5, 1e-9)
    monkeypatch.setattr(painleve, "pvi_integrate", singular)
    rep = report.build_verification_report(3)
    assert rep["pvi_step_error"] == {"plus": None, "minus": None}
    assert rep["pvi_step_failure"] == dict.fromkeys(
        ("plus", "minus"),
        "SingularityEncountered: integration stopped near a singularity at x=1.5, y=1e-09")
    assert [k for k, ok in rep["checks"].items() if not ok] == ["pvi_step"]


def test_non_finite_pvi_residual_fails_on_either_branch(monkeypatch):
    # a NaN residual fails the pvi check on whichever branch it occurs:
    # max() over the branches kept a NaN only when it came first
    real = report.max_pvi_residual
    for nan_branch in ("plus", "minus"):
        branches = iter(("plus", "minus"))

        def residual(sample, params):
            return float("nan") if next(branches) == nan_branch else real(sample, params)
        monkeypatch.setattr(report, "max_pvi_residual", residual)
        rep = report.build_verification_report(3)
        assert [k for k, ok in rep["checks"].items() if not ok] == ["pvi"]


def test_propagation_path_too_close_is_a_failed_check(capsys):
    # on [0.9975, 0.9999] the propagation oracle's quarter samples lie
    # within 1e-3 of t = 1, so its run refuses the path; every other check
    # passes, and the report names the refusal and the path
    code, out, err = run(capsys, "verify", "--n", "1", "--t-min", "0.9975",
                         "--t-max", "0.9999")
    assert code == 2 and err == ""
    rep = json.loads(out)
    assert [k for k, ok in rep["checks"].items() if not ok] == ["propagation"]
    assert rep["propagation_invariant_error"] is None
    assert rep["propagation_failure"].startswith("PathTooClose: path t = 0.9981 -> 0.9993")
    assert "pvi_step_failure" not in rep


def test_step_oracle_underflow_is_a_failed_check(capsys):
    # at n = 455 on 21 samples the step oracle's run underflows on both
    # eigen-branches, just past the middle sample's x, where every other
    # check passes: the report names each branch's failure and its x, and
    # fails that check alone
    code, out, err = run(capsys, "verify", "--n", "455", "--samples", "21")
    assert code == 2 and err == ""
    rep = json.loads(out)
    assert [k for k, ok in rep["checks"].items() if not ok] == ["pvi_step"]
    assert rep["pvi_step_error"] == {"plus": None, "minus": None}
    prefix = "StepSizeUnderflow: step size "
    for branch, x in (("plus", 1.4966), ("minus", 1.4943)):
        failure = rep["pvi_step_failure"][branch]
        assert failure.startswith(prefix)
        assert abs(float(failure.split("roundoff of x=")[1].split(":")[0]) - x) < 1e-4
    assert "propagation_failure" not in rep


def test_passing_report_has_no_propagation_failure(capsys):
    code, out, _ = run(capsys, "verify", "--n", "1")
    rep = json.loads(out)
    assert code == 0 and not {"propagation_failure", "pvi_step_failure"} & set(rep)


def test_io_failure_exit_code(capsys):
    code, _, err = run(capsys, "profile", "--n", "1", "--samples", "5",
                       "--out", "/nonexistent-dir/x.csv")
    assert code == 3


def test_no_partial_file_on_failure(tmp_path, capsys):
    # atomic rename: a crash between temp write and rename leaves no target
    target = tmp_path / "out.csv"
    code, _, _ = run(capsys, "profile", "--n", "1", "--samples", "5",
                     "--out", str(target))
    assert code == 0 and target.exists()
    leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".tmp-")]
    assert leftovers == []


def test_out_file_mode_is_what_open_gives(tmp_path, capsys):
    # the output, new or replaced, has the mode `open` gives under the umask
    for mask in (0o022, 0o077):
        umask = os.umask(mask)
        try:
            sibling = tmp_path / f"sibling-{mask:o}.json"
            with open(sibling, "w"):
                pass
            target = tmp_path / f"r-{mask:o}.json"
            for _ in range(2):
                code, _, _ = run(capsys, "verify", "--n", "1", "--out", str(target))
                assert code == 0
                assert target.stat().st_mode == sibling.stat().st_mode
        finally:
            os.umask(umask)


def test_failure_mid_stream_leaves_the_target_alone(tmp_path):
    target = tmp_path / "out.csv"
    target.write_text("old\n")

    def blocks():
        yield "t,a1\n"
        raise RuntimeError("spelling failed")

    with pytest.raises(RuntimeError):
        cli._atomic_write(str(target), blocks())
    assert target.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


def test_pvi_integrate_command(capsys):
    # seeded with the exact slope of the extracted y
    code, out, _ = run(capsys, "pvi-integrate", "--n", "3", "--samples", "201",
                       "--t-min", "0.5")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,x_re,x_im,y_re,y_im,residual_abs"
    final_residual = float(lines[-1].split(",")[5])
    assert final_residual < 1e-5


def test_pvi_integrate_seed_slope_is_exact(capsys):
    # at its defaults the integration from the exact seed stays on the
    # extracted y to 4.2e-9; a 5-point stencil's seed slope drifted to 1.3e-4
    code, out, _ = run(capsys, "pvi-integrate", "--n", "5")
    assert code == 0
    assert np.max(_csv_rows(out)[:, 5]) <= 1e-6


def test_verify_passes_on_the_wide_window(capsys):
    # on [0.05, 0.95], where the poles 1 and x close in toward t = 0, the
    # exact derivatives keep every residual within its tolerance; 5-point
    # stencils there gave schlesinger 31 and pvi 40
    code, out, _ = run(capsys, "verify", "--n", "3", "--t-min", "0.05")
    report = json.loads(out)
    assert code == 0 and report["passed"], report["checks"]
    assert report["window"] == {"t_min": 0.05, "t_max": 0.95, "samples": 201}


def _csv_rows(text):
    return np.array([[float(v) for v in line.split(",")]
                     for line in text.strip().splitlines()[1:]])


TRACE_WINDOW = ("--n", "3", "--samples", "21", "--t-min", "0.5")


def test_trace_json_matches_csv(tmp_path, capsys):
    stem = str(tmp_path / "tr")
    assert run(capsys, "trace", *TRACE_WINDOW, "--out", stem)[0] == 0
    code, out, _ = run(capsys, "trace", *TRACE_WINDOW, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["twistor"]) == 21

    # per sample: t and x exactly, tr(A_p^2) of the [re, im] residue matrices
    twistor_csv = _csv_rows((tmp_path / "tr.twistor.csv").read_text())
    tx_json = np.array([[row["t"], row["x"]["re"], row["x"]["im"]]
                        for row in doc["twistor"]])
    np.testing.assert_array_equal(tx_json, twistor_csv[:, :3])
    residues = []
    for j, p in enumerate(("p0", "p1", "px", "pinf")):
        m = np.array([row["residues"][p] for row in doc["twistor"]])
        residues.append(m[..., 0] + 1j * m[..., 1])
        tr = trace_sq(residues[-1]).real
        np.testing.assert_allclose(tr, twistor_csv[:, 3 + j], rtol=1e-14, atol=0)
    # tr(A_p^2) is the same at every pole; the residues also sum to zero
    assert np.max(np.abs(sum(residues))) < 1e-12

    pvi_csv = _csv_rows((tmp_path / "tr.pvi.csv").read_text())
    cols = ("t", "x_re", "x_im", "y_re", "y_im", "residual_abs")
    pvi_json = np.array([[row[c] for c in cols] for row in doc["pvi"]])
    np.testing.assert_array_equal(pvi_json, pvi_csv)
    # every sample has a residual, the end samples too
    assert np.isfinite(pvi_csv[:, 5]).all()

    mu_csv = _csv_rows((tmp_path / "tr.mu.csv").read_text())
    mu_json = np.array([[row[c] for c in ("t", "mu_plus", "mu_minus")]
                        for row in doc["mu"]])
    np.testing.assert_array_equal(mu_json, mu_csv[:, :3])


def test_pvi_integrate_starts_on_trace_samples(tmp_path, capsys):
    stem = str(tmp_path / "tr")
    assert run(capsys, "trace", *TRACE_WINDOW, "--out", stem)[0] == 0
    code, out, _ = run(capsys, "pvi-integrate", *TRACE_WINDOW)
    assert code == 0
    traced = _csv_rows((tmp_path / "tr.pvi.csv").read_text())[2:]
    integrated = _csv_rows(out)
    np.testing.assert_array_equal(integrated[:, :3], traced[:, :3])  # t, x
    np.testing.assert_array_equal(integrated[0, 3:5], traced[0, 3:5])  # seed y
    assert integrated[0, 5] == 0.0


def argparse_reference():
    """The argparse tree built from the option table, with each summary as
    its subcommand's help and each default as its option's help: the parse
    and the help `cli.parse_args` follows."""
    parser = argparse.ArgumentParser(prog=cli.PROG)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, summary, options) in cli._COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        for flag, (dest, kind, default) in options.items():
            if isinstance(kind, tuple):
                p.add_argument(flag, dest=dest, choices=kind, default=default,
                               help="default: %(default)s")
            else:
                p.add_argument(flag, dest=dest, type=kind, default=default,
                               help="default: %(default)s")
    return parser.parse_args


def test_option_table_defaults():
    # the options, types and defaults argparse had, per subcommand
    shared = {"n": 3, "t_max": 0.95, "out": None}
    expected = {
        "profile": dict(t_min=0.05, samples=101, fmt="csv"),
        "trace": dict(t_min=0.05, samples=101, fmt="csv"),
        "verify": dict(t_min=0.5, samples=201),
        "pvi-integrate": dict(t_min=0.5, samples=201),
    }
    for command, defaults in expected.items():
        assert vars(cli.parse_args([command])) == {"command": command, **shared, **defaults}
    kinds = {dest: kind for _, _, options in cli._COMMANDS.values()
             for dest, kind, _ in options.values()}
    assert kinds == {"n": int, "t_min": float, "t_max": float, "samples": int, "out": str,
                     "fmt": ("csv", "json")}


# argv -> None when it parses, 0 for help, else a phrase of the usage error
PARSE_CASES = [
    (["profile"], None),
    (["trace"], None),
    (["verify"], None),
    (["pvi-integrate"], None),
    (["verify", "--n", "5", "--samples", "401", "--out", "r.json"], None),
    (["profile", "--n=5", "--t-max=0.9", "--format=json", "--out="], None),
    (["profile", "--sam", "11", "--form", "json", "--t-ma=0.8"], None),
    (["trace", "--f", "json", "--t-mi", "1e-3"], None),
    (["verify", "--t", "0.3"], "ambiguous option: --t could match"),
    (["verify", "--t-m=0.3"], "ambiguous option: --t-m=0.3 could match"),
    (["verify", "--t-min", "-0.5", "--t-max", "-1"], None),
    (["verify", "--t-max", "-.5", "--n", "-3"], None),
    (["verify", "--n", "3", "--n", "7", "--n=9"], None),
    (["profile", "--format", "json", "--format=csv"], None),
    (["trace", "--out", "-"], None),
    (["verify", "--bogus"], "unrecognized arguments: --bogus"),
    (["verify", "--n", "3", "extra", "--bogus=1"], "unrecognized arguments: extra --bogus=1"),
    (["verify", "-x", "1"], "unrecognized arguments: -x 1"),
    (["pvi-integrate", "--format", "json"], "unrecognized arguments: --format json"),
    # verify's thresholds are default_tolerances(n) and its checks are fixed
    (["verify", "--tol", "1"], "unrecognized arguments: --tol 1"),
    (["verify", "--delta-variant", "intro"], "unrecognized arguments: --delta-variant intro"),
    (["verify", "--n", "three"], "argument --n: invalid int value: 'three'"),
    (["verify", "--samples", "2.5"], "argument --samples: invalid int value: '2.5'"),
    (["trace", "--t-min", "zero"], "argument --t-min: invalid float value: 'zero'"),
    (["verify", "--n", "x", "--bogus"], "invalid int value"),
    (["profile", "--format", "xml"], "argument --format: invalid choice: 'xml'"),
    (["profile", "--format="], "argument --format: invalid choice: ''"),
    (["verify", "--n"], "argument --n: expected one argument"),
    (["verify", "--out", "--n", "3"], "argument --out: expected one argument"),
    (["verify", "--t-min", "-1e-3"], "argument --t-min: expected one argument"),
    (["verify", "--n", "3", "--", "--n", "5"], "unrecognized arguments: -- --n 5"),
    ([], "the following arguments are required: command"),
    (["solve"], "argument command: invalid choice: 'solve'"),
    (["-h"], 0),
    (["--help"], 0),
    (["--he"], 0),
    (["verify", "-h"], 0),
    (["trace", "--help", "--bogus"], 0),
    (["profile", "--n", "5", "--he"], 0),
]


def parse_outcome(parse, argv):
    """(the namespace's value reprs or the exit code, stdout, stderr) of one
    parse; reprs tell 3 from 3.0 and make NaN equal to NaN."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = {k: repr(v) for k, v in vars(parse(list(argv))).items()}
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv, expected", PARSE_CASES,
                         ids=[" ".join(argv) or "empty" for argv, _ in PARSE_CASES])
def test_parse_matches_argparse(monkeypatch, argv, expected):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to the terminal
    ours, out, err = parse_outcome(cli.parse_args, argv)
    reference, ref_out, ref_err = parse_outcome(argparse_reference(), argv)
    assert (ours, out, err) == (reference, ref_out, ref_err)
    if expected is None:
        assert isinstance(ours, dict) and out == err == ""
    elif expected == 0:
        assert ours == 0 and err == ""
        command = argv[0] if argv[0] in cli._COMMANDS else None
        for flag in cli._COMMANDS[command][2] if command else cli._COMMANDS:
            assert flag in out
    else:
        assert ours == 2 and out == ""
        assert expected in err


FLAGS = sorted({flag for _, _, options in cli._COMMANDS.values() for flag in options})
VALUES = st.one_of(
    st.integers(-20, 20).map(str),
    st.floats().map(repr),  # nan, inf, -0.0, 1e-300 and the like
    st.sampled_from(["csv", "json", "auto", "intro", "theorem", "xml", "three", "",
                     "2.5", ".5", "-.5", "1e-3", "-1e-3", "-", "r.json"]),
    st.text("-=.e0123 xn", max_size=4),
)
EXACT_PAIR = st.tuples(st.sampled_from(FLAGS), VALUES)
TOKENS = st.one_of(
    EXACT_PAIR,
    st.tuples(st.sampled_from(FLAGS), st.integers(3, 8), VALUES).map(
        lambda p: (p[0][:p[1]], p[2])),  # a prefix of a flag, or all of it
    EXACT_PAIR.map(lambda p: ("=".join(p),)),
    st.sampled_from([("--",), ("-h",), ("--help",)]),
    VALUES.map(lambda v: (v,)),
)
COMMAND = st.sampled_from([*cli._COMMANDS, "solve", "-h", "--help"])


def exact_pairs(command):
    """`command` with `--flag value` pairs of its own flags: each value of
    the flag's type or one of its choices, though it may start with "-",
    and then at most one pair whose value is any of `VALUES`."""
    options = cli._COMMANDS[command][2]

    def typed(flag):
        kind = options[flag][1]
        if isinstance(kind, tuple):
            return st.tuples(st.just(flag), st.sampled_from(kind))
        value = {int: st.integers(-5, 500), float: st.floats(), str: VALUES}[kind]
        return st.tuples(st.just(flag), value.map(str))

    flags = st.sampled_from(list(options))
    return st.tuples(st.lists(flags.flatmap(typed), max_size=4),
                     st.lists(st.tuples(flags, VALUES), max_size=1)).map(
        lambda pairs: [command, *itertools.chain.from_iterable(pairs[0] + pairs[1])])


ARGV = st.one_of(
    st.tuples(COMMAND, st.lists(TOKENS, max_size=6)).map(
        lambda c: [c[0], *itertools.chain.from_iterable(c[1])]),
    st.sampled_from(list(cli._COMMANDS)).flatmap(exact_pairs))


@settings(max_examples=300, deadline=None)
@given(ARGV)
def test_parse_matches_argparse_on_generated_argv(argv):
    # exact pairs, prefixes, "=" forms, repeats, negative numbers, bad
    # values and choices, "--" and help: the namespace, or the exit code
    # and what is printed, are argparse's
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        assert parse_outcome(cli.parse_args, argv) == parse_outcome(argparse_reference(), argv)


def test_cli_does_not_import_argparse(tmp_path):
    # a fresh interpreter, since this one has imported argparse for the
    # tests; every argv of exact pairs is read without it
    argvs = [["verify", "--n", "1"],
             ["trace", "--n", "3", "--samples", "21", "--format", "json"],
             ["pvi-integrate", "--n", "1"],
             ["profile", "--n", "1"]]
    argvs = [[*argv, "--out", str(tmp_path / argv[0])] for argv in argvs]
    child = ("import contextlib, io, sys\n"
             "import painleve_instanton.cli as cli\n"
             f"for argv in {argvs!r}:\n"
             "    with contextlib.redirect_stdout(io.StringIO()):\n"
             "        assert cli.main(argv) == 0, argv\n"
             "assert 'argparse' not in sys.modules\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-c", child], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
