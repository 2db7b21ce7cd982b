import json
import os
import time

import numpy as np
import pytest

from painleve_instanton import cli, instanton
from painleve_instanton.cli import main
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


@pytest.mark.parametrize("argv", [("--n", "3"), ("--n", "5", "--tol", "1e-30"),
                                  ("--n", "3", "--tol", "1e-30")],
                         ids=["n3", "n5-tol", "n3-tol"])
def test_verify_checks_follow_tolerances(capsys, argv):
    # every verdict is its measured value against the reported threshold
    _, out, _ = run(capsys, "verify", *argv)
    rep = json.loads(out)
    measured = _measured(rep)
    assert rep["checks"]["delta_variant"] is (rep["delta_variant"] is not None)
    assert set(rep["checks"]) == set(measured)
    for name, (value, key) in measured.items():
        assert rep["checks"][name] is (value < rep["tolerances"][key]), name


@pytest.mark.parametrize("argv", [("pvi-integrate", "--tol", "1e-30"),
                                  ("profile", "--delta-variant", "theorem"),
                                  ("verify", "--format", "json")],
                         ids=["pvi-integrate-tol", "profile-delta-variant",
                              "verify-format"])
def test_option_of_another_subcommand_is_rejected(capsys, argv):
    # each subcommand takes only the options it reads
    with pytest.raises(SystemExit) as exit_:
        main(list(argv))
    assert exit_.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_verify_delta_variant_preference(capsys):
    # n = 1 measures the "intro" delta, so a stated "theorem" preference fails
    code, out, _ = run(capsys, "verify", "--n", "1", "--delta-variant", "theorem")
    assert code == 2
    rep = json.loads(out)
    assert rep["delta_variant"] == "intro"
    assert rep["checks"]["delta_variant_preference"] is False
    assert rep["passed"] is False


def scaled_n3(monkeypatch):
    """Make the pipelines read the n = 3 closed form scaled by 1.001, whose
    delta (-0.627...) is near neither published variant."""
    from dataclasses import replace

    from painleve_instanton import report
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
    code, out, _ = run(capsys, "verify", "--n", "3", "--tol", "1e-30")
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
    # the temporary file's 0600 must not reach the output, new or replaced
    umask = os.umask(0o022)
    try:
        with open(tmp_path / "sibling.json", "w"):
            pass
        target = tmp_path / "r.json"
        for _ in range(2):
            code, _, _ = run(capsys, "verify", "--n", "1", "--out", str(target))
            assert code == 0
            assert target.stat().st_mode == (tmp_path / "sibling.json").stat().st_mode
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
    # the seed slope comes from a 5-point stencil, so the end-to-end drift
    # improves at 4th order with the sampling density
    code, out, _ = run(capsys, "pvi-integrate", "--n", "3", "--samples", "201",
                       "--t-min", "0.5")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,x_re,x_im,y_re,y_im,residual_abs"
    final_residual = float(lines[-1].split(",")[5])
    assert final_residual < 1e-5


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
    np.testing.assert_array_equal(pvi_json, pvi_csv)  # NaN matches NaN
    assert np.isnan(pvi_csv[:2, 5]).all() and np.isnan(pvi_csv[-2:, 5]).all()

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
