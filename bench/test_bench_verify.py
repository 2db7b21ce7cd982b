"""Per-stage timings of `verify`, for BENCH_verify.json.

Run from the repository root (not part of the tier-1 suite, whose
`testpaths` is `tests`):

    PYTHONPATH=src python -m pytest bench --benchmark-json=BENCH_verify.json

Each window is `verify`'s default t in [0.5, 0.95], at n = 1, 3, 5, 7, 9
with 201 samples and n = 3 with 801.  The stages are the ones a report
runs, each on the same inputs as in the report: the BVP solve (at n = 5,
7, 9, 21, 63, 101, 201 and 451, with its piece count), the line family
(at n = 1, 3 and 7 with 201 samples and n = 3 with 801, with its residue
column and the Schlesinger residual's gauge term on their own), the
profile's derivative rows (its `jet`), the Schlesinger residual, the `y`
extraction on its jets on each eigen-branch (at n = 3 and 7 with 201 and
2001 samples), the PVI residual on each
eigen-branch, the one-step PVI oracle on both branches, the Schlesinger
propagation oracle, `pvi-integrate`'s sweep of the direct PVI integrator
(at n = 1 with 201 samples and n = 3 with 801), the whole report, the
command line's parse of one `verify` argv, and the files of
`trace --n 3 --samples 2001` (its JSON document, and its three CSVs) and
of `pvi-integrate --n 3 --samples 801` (its CSV), built from the
transcendent and written to a null sink.  Each benchmark's
`extra_info` records the count that does not move with machine noise:
profile pieces, right-hand-side evaluations of the
integrating oracles and the direct integrator, and the writers' blocks,
the values spelled through orjson and through `json.dumps`, and the
trace files' `tracemalloc` peak of one run (kB).  The JSON
keeps each benchmark's summary statistics, not its raw rounds
(`bench/conftest.py`).
"""

import os
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from painleve_instanton import (cli, columns, instanton, isomonodromy, painleve, report,
                                stepper, twistor)
from painleve_instanton.isomonodromy import (extract_y, gauge_rate, make_family,
                                             schlesinger_integrate, schlesinger_residual)
from painleve_instanton.painleve import pvi_residual
from painleve_instanton.report import build_verification_report, line_family, transcendent
from painleve_instanton.twistor import residue_closed_form

WINDOWS = [(1, 201), (3, 201), (5, 201), (7, 201), (9, 201), (3, 801)]
IDS = [f"n{n}-{samples}" for n, samples in WINDOWS]
LINE_WINDOWS = [(1, 201), (3, 201), (7, 201), (3, 801)]
LINE_IDS = [f"n{n}-{samples}" for n, samples in LINE_WINDOWS]
Y_WINDOWS = [(3, 201), (7, 201), (3, 2001), (7, 2001)]
Y_IDS = [f"n{n}-{samples}" for n, samples in Y_WINDOWS]
PVI_WINDOWS = [(1, 201), (3, 801)]
PVI_IDS = [f"n{n}-{samples}" for n, samples in PVI_WINDOWS]
_CACHE = {}


def window(n, samples):
    """The report's inputs for one window, built once per session: profile,
    line family, the sample on each branch with its parameters, and the
    middle sample."""
    key = (n, samples)
    if key not in _CACHE:
        profile, fam = line_family(n, 0.5, 0.95, samples)
        by_branch = {b: transcendent(fam, b) for b in ("plus", "minus")}
        _CACHE[key] = {
            "profile": profile, "fam": fam, "mid": len(fam) // 2,
            "sample": {b: sample for b, (sample, _) in by_branch.items()},
            "params": {b: params for b, (_, params) in by_branch.items()},
        }
    return _CACHE[key]


def count(monkeypatch, name, fn):
    """Calls of the package function `name` during one fn() call, outside
    any timing, through every module that binds it."""
    calls = Counter()
    with monkeypatch.context() as m:
        for module in (cli, columns, instanton, isomonodromy, painleve, report, stepper,
                       twistor):
            real = getattr(module, name, None)
            if real is not None:
                def counted(*args, _real=real, **kwargs):
                    calls[name] += 1
                    return _real(*args, **kwargs)
                m.setattr(module, name, counted)
        fn()
    return calls[name]


def spelled(monkeypatch, fn):
    """Values `columns._words` spelled during one fn() call, through orjson
    and through `json.dumps`."""
    sizes = Counter()
    with monkeypatch.context() as m:
        def words(values, _real=columns._words):
            sizes["words"] += len(values)
            return _real(values)
        m.setattr(columns, "_words", words)

        def dumps(obj, *args, _real=columns.orjson.dumps, **kwargs):
            sizes["orjson"] += len(obj)
            return _real(obj, *args, **kwargs)
        m.setattr(columns.orjson, "dumps", dumps)
        fn()
    return {"spelled_orjson": sizes["orjson"],
            "spelled_json_dumps": sizes["words"] - sizes["orjson"]}


@pytest.mark.parametrize("n", [5, 7, 9, 21, 63, 101, 201, 451])
def test_solve_bvp(benchmark, n):
    profile = benchmark(instanton.solve_bvp, n)
    benchmark.extra_info["pieces"] = len(profile.origins)
    assert profile.meta["match_defect"] < 1e-9


@pytest.mark.parametrize("n, samples", LINE_WINDOWS, ids=LINE_IDS)
def test_line_family(benchmark, n, samples):
    w = window(n, samples)
    fam = benchmark(make_family, w["profile"], w["fam"].t)
    assert np.array_equal(fam.w, w["fam"].w)


@pytest.mark.parametrize("n, samples", LINE_WINDOWS, ids=LINE_IDS)
def test_residue_column(benchmark, n, samples):
    column = benchmark(residue_closed_form, window(n, samples)["fam"].t)
    assert column.shape == (samples, 3)


@pytest.mark.parametrize("n, samples", LINE_WINDOWS, ids=LINE_IDS)
def test_gauge_term(benchmark, n, samples):
    c = benchmark(gauge_rate, window(n, samples)["fam"])
    assert c.shape == (samples, 3)


@pytest.mark.parametrize("n, samples", WINDOWS, ids=IDS)
def test_derivative_rows(benchmark, n, samples):
    # the profile's Taylor rows (a, a', a''/2), the one derivative source
    w = window(n, samples)
    t = w["fam"].t
    jet = benchmark(w["profile"].oriented_jet, t)
    assert jet.rows.shape == (3, samples, 3)
    assert np.array_equal(jet.rows[0] * residue_closed_form(t), w["fam"].w)


@pytest.mark.parametrize("n, samples", WINDOWS, ids=IDS)
def test_schlesinger_residual(benchmark, n, samples):
    w = window(n, samples)
    residual = benchmark(schlesinger_residual, w["fam"])
    assert np.all(np.isfinite(residual))


@pytest.mark.parametrize("branch", ["plus", "minus"])
@pytest.mark.parametrize("n, samples", Y_WINDOWS, ids=Y_IDS)
def test_extract_y(benchmark, n, samples, branch):
    w = window(n, samples)
    ys = benchmark(extract_y, w["fam"], branch)
    assert np.array_equal(ys.rows[0], w["sample"][branch].ys)


@pytest.mark.parametrize("branch", ["plus", "minus"])
@pytest.mark.parametrize("n, samples", WINDOWS, ids=IDS)
def test_pvi_residual(benchmark, n, samples, branch):
    w = window(n, samples)
    residual = benchmark(pvi_residual, w["sample"][branch], w["params"][branch])
    assert np.all(np.isfinite(residual))


@pytest.mark.parametrize("n, samples", WINDOWS, ids=IDS)
def test_step_oracle(benchmark, monkeypatch, n, samples):
    w = window(n, samples)
    k = w["mid"]

    def both_branches():
        return [w["sample"][b].integrate(w["params"][b], k, k + 2)
                for b in ("plus", "minus")]

    benchmark.extra_info["pvi_second_derivative_calls"] = count(
        monkeypatch, "pvi_second_derivative", both_branches)
    benchmark(both_branches)


@pytest.mark.parametrize("n, samples", WINDOWS, ids=IDS)
def test_propagation_oracle(benchmark, monkeypatch, n, samples):
    fam = window(n, samples)["fam"]
    k0, k1 = len(fam) // 4, (3 * len(fam)) // 4

    def propagate():
        return schlesinger_integrate(fam[k0], fam[k1].t)

    benchmark.extra_info["schlesinger_field_calls"] = count(
        monkeypatch, "schlesinger_field", propagate)
    benchmark(propagate)


@pytest.mark.parametrize("n, samples", PVI_WINDOWS, ids=PVI_IDS)
def test_pvi_integrate(benchmark, monkeypatch, n, samples):
    # pvi-integrate's sweep: the "plus" sample from the third sample to
    # the end, seeded with the exact slope there
    w = window(n, samples)
    sample, k = w["sample"]["plus"], 2
    seed = (w["params"]["plus"], sample.xs[k:].real, sample.ys[k], sample.yp[k])

    benchmark.extra_info["pvi_second_derivative_calls"] = count(
        monkeypatch, "pvi_second_derivative", lambda: painleve.pvi_integrate(*seed))
    ys, _ = benchmark(painleve.pvi_integrate, *seed)
    assert np.max(np.abs(ys - sample.ys[k:])) < 1e-6


@pytest.mark.parametrize("n, samples", WINDOWS, ids=IDS)
def test_report(benchmark, n, samples):
    def verify():
        return build_verification_report(n, samples=samples)

    assert benchmark(verify)["passed"]


def test_parse_args(benchmark):
    args = benchmark(cli.parse_args, ["verify", "--n", "3", "--samples", "801"])
    assert (args.command, args.n, args.samples) == ("verify", 3, 801)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_trace_files(benchmark, monkeypatch, fmt):
    # `trace`'s residual and mu columns, its rows and their spelling, from
    # the transcendent: one `_fill` call per block of rows
    cfg = cli.parse_args(["trace", "--n", "3", "--samples", "2001", "--format", fmt])
    _, fam = line_family(cfg.n, cfg.t_min, cfg.t_max, cfg.samples)
    sample, params = transcendent(fam, "plus")
    with open(os.devnull, "w") as sink:
        def write():
            for blocks in cli.trace_files(fmt, cfg.n, fam, sample, params).values():
                sink.writelines(blocks)

        benchmark.extra_info["blocks"] = count(monkeypatch, "_fill", write)
        benchmark.extra_info.update(spelled(monkeypatch, write))
        tracemalloc.start()
        try:
            write()
            benchmark.extra_info["tracemalloc_peak_kb"] = tracemalloc.get_traced_memory()[1] // 1000
        finally:
            tracemalloc.stop()
        benchmark(write)


def test_pvi_integrate_file(benchmark, monkeypatch):
    # `pvi-integrate --n 3 --samples 801`'s CSV, from the integrated sample:
    # its residual column, its rows and their spelling
    w = window(3, 801)
    sample, k = w["sample"]["plus"], 2
    integrated = sample.integrate(w["params"]["plus"], k)
    with open(os.devnull, "w") as sink:
        def write():
            pvi = cli._transcendent(integrated, np.abs(integrated.ys - sample.ys[k:]))
            sink.writelines(columns.csv_blocks(columns.TRANSCENDENT, pvi))

        benchmark.extra_info["blocks"] = count(monkeypatch, "_fill", write)
        benchmark.extra_info.update(spelled(monkeypatch, write))
        benchmark(write)
