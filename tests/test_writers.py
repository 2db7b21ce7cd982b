"""The column writers against the per-sample writers they replaced: every
`trace` file (three CSV schemas and the JSON document) and both `profile`
formats, byte for byte.  The reference formats each numpy scalar on its own
(`f"{v:.17g}"`, `float(v)`), one sample at a time; the trace outputs
include the NaN `residual_abs` ends, and a direct test of `csv_text` pins
its `-0`, `nan` and 17-digit cells."""

import json

import numpy as np
import pytest

from painleve_instanton.cli import main
from painleve_instanton.columns import csv_text
from painleve_instanton.painleve import pvi_residual, select_delta_variant
from painleve_instanton.report import line_transcendent, profile_for
from painleve_instanton.twistor import mu_pair

SAMPLES = 21


def csv_line(row):
    return ",".join(f"{v:.17g}" for v in row)


def csv_file(header, rows):
    return "\n".join([header] + [csv_line(row) for row in rows]) + "\n"


def fuchsian_json_dict(F):
    def mat(m):
        return [[[float(v.real), float(v.imag)] for v in row] for row in m]
    return {"t": float(F.t),
            "x": {"re": float(F.x.real), "im": float(F.x.imag)},
            "residues": {"p0": mat(F.A0), "p1": mat(F.A1),
                         "px": mat(F.Ax), "pinf": mat(F.Ainf)}}


def pvi_rows(sample, residuals):
    for k in range(len(sample.xs)):
        yield (sample.ts[k], sample.xs[k].real, sample.xs[k].imag,
               sample.ys[k].real, sample.ys[k].imag, residuals[k])


def reference_trace(n, t_min, t_max):
    """suffix -> text of `trace --out`, and the `--format json` text."""
    _, fam, sample, params = line_transcendent(n, t_min, t_max, SAMPLES)
    mus = np.column_stack((sample.ts,) + mu_pair(sample.ts))
    residuals = np.full(len(sample), np.nan)
    residuals[2:-2] = np.abs(pvi_residual(sample, params))
    cols = (fam.t, fam.x.real, fam.x.imag) + tuple(v.real for v in fam.trace_squares())
    files = {
        ".twistor.csv": csv_file("t,x_re,x_im,trA0sq,trA1sq,trAxsq,trAinfsq",
                                 np.column_stack(cols)),
        ".mu.csv": csv_file("t,mu_plus,mu_minus,mu_product",
                            [(t, mp, mm, mp * mm) for t, mp, mm in mus]),
        ".pvi.csv": csv_file("t,x_re,x_im,y_re,y_im,residual_abs",
                             pvi_rows(sample, residuals)),
    }
    keys = ("t", "x_re", "x_im", "y_re", "y_im", "residual_abs")
    payload = {
        "params": params.as_dict(),
        "delta_variant": select_delta_variant(params.delta.real, n),
        "twistor": [fuchsian_json_dict(fam[k]) for k in range(len(fam))],
        "mu": [{"t": float(t), "mu_plus": float(mp), "mu_minus": float(mm)}
               for t, mp, mm in mus],
        "pvi": [{c: float(v) for c, v in zip(keys, row)}
                for row in pvi_rows(sample, residuals)],
    }
    return files, json.dumps(payload) + "\n"


def reference_profile(n, t_min, t_max):
    """(csv, json) text of `profile`."""
    prof = profile_for(n)
    ts = np.linspace(t_min, t_max, SAMPLES)
    rows = np.column_stack([ts, prof.values(ts)])
    points = [{"t": float(t), "a1": float(a1), "a2": float(a2), "a3": float(a3)}
              for t, a1, a2, a3 in rows]
    doc = json.dumps({"n": prof.n, "kind": prof.kind.value,
                      "sign_convention": prof.sign_convention, "points": points})
    return csv_file("t,a1,a2,a3", rows), doc + "\n"


def cli_bytes(capsys, *argv):
    assert main([*argv]) == 0
    return capsys.readouterr().out.encode()


def test_csv_text_signed_zero_nan_and_rounding():
    # the cells the per-sample writer produced for each awkward value
    col = np.array([-0.0, np.nan, 0.1])
    text = csv_text(("v", "w"), (col, -col))
    assert text == "v,w\n-0,0\nnan,nan\n0.10000000000000001,-0.10000000000000001\n"
    assert text == csv_file("v,w", np.column_stack((col, -col)))


@pytest.mark.parametrize("n", [1, 3, 5])
def test_trace_files_match_per_sample_writers(n, tmp_path, capsys):
    window = ("--n", str(n), "--samples", str(SAMPLES), "--t-min", "0.5")
    files, doc = reference_trace(n, 0.5, 0.95)
    assert "nan" in files[".pvi.csv"]
    assert "NaN" in doc and "-0.0" in doc
    assert main(["trace", *window, "--out", str(tmp_path / "tr")]) == 0
    for suffix, text in files.items():
        assert (tmp_path / ("tr" + suffix)).read_bytes() == text.encode(), suffix
    assert cli_bytes(capsys, "trace", *window, "--format", "json") == doc.encode()


@pytest.mark.parametrize("n", [1, 3, 5])
def test_profile_matches_per_sample_writers(n, capsys):
    csv, doc = reference_profile(n, 0.05, 0.95)
    window = ("--n", str(n), "--samples", str(SAMPLES))
    assert cli_bytes(capsys, "profile", *window) == csv.encode()
    assert cli_bytes(capsys, "profile", *window, "--format", "json") == doc.encode()
