"""Per-stage timings of `verify`, for BENCH_verify.json.

Run from the repository root (not part of the tier-1 suite, whose
`testpaths` is `tests`):

    PYTHONPATH=src python -m pytest bench --benchmark-json=BENCH_verify.json

Each window is `verify`'s default t in [0.5, 0.95], at n = 1, 3, 5, 7, 9
with 201 samples and n = 3 with 801.  The stages are the ones a report
runs, each on the same inputs as in the report: the grid's stencil table,
the Schlesinger residual, the PVI residual on each eigen-branch, the
one-step PVI oracle on both branches, the Schlesinger propagation oracle,
and the whole report.  Each benchmark's `extra_info` records the count
that does not move with machine noise: stencil tables built, and
right-hand-side evaluations of the integrating oracles.
"""

from collections import Counter

import numpy as np
import pytest

from painleve_instanton import (cli, instanton, isomonodromy, painleve, report, stepper,
                                twistor)
from painleve_instanton.isomonodromy import (jimbo_miwa_params, schlesinger_integrate,
                                             schlesinger_residual)
from painleve_instanton.painleve import pvi_residual
from painleve_instanton.report import (build_verification_report, extract_transcendent,
                                       line_transcendent)
from painleve_instanton.stepper import Stencil

WINDOWS = [(1, 201), (3, 201), (5, 201), (7, 201), (9, 201), (3, 801)]
IDS = [f"n{n}-{samples}" for n, samples in WINDOWS]
_CACHE = {}


def window(n, samples):
    """The report's inputs for one window, built once per session: profile,
    line family, its stencil, the sample on each branch with its parameters,
    and the middle sample."""
    key = (n, samples)
    if key not in _CACHE:
        profile, fam, plus, params_plus = line_transcendent(n, 0.5, 0.95, samples)
        mid = len(fam) // 2
        _CACHE[key] = {
            "profile": profile, "fam": fam, "mid": mid, "stencil": Stencil(fam.x.real),
            "sample": {"plus": plus, "minus": extract_transcendent(fam, "minus")},
            "params": {"plus": params_plus,
                       "minus": jimbo_miwa_params(fam[mid], "minus")},
        }
    return _CACHE[key]


def count(monkeypatch, name, fn):
    """Calls of the package function `name` during one fn() call, outside
    any timing, through every module that binds it."""
    calls = Counter()
    with monkeypatch.context() as m:
        for module in (cli, instanton, isomonodromy, painleve, report, stepper, twistor):
            real = getattr(module, name, None)
            if real is not None:
                def counted(*args, _real=real, **kwargs):
                    calls[name] += 1
                    return _real(*args, **kwargs)
                m.setattr(module, name, counted)
        fn()
    return calls[name]


@pytest.mark.parametrize("n, samples", WINDOWS, ids=IDS)
def test_stencil_table(benchmark, n, samples):
    xs = window(n, samples)["fam"].x.real
    table = benchmark(Stencil, xs)
    assert table.weights.shape == (samples - 4, 3, 5)


@pytest.mark.parametrize("n, samples", WINDOWS, ids=IDS)
def test_schlesinger_residual(benchmark, n, samples):
    w = window(n, samples)
    residual = benchmark(schlesinger_residual, w["profile"], w["fam"], w["stencil"])
    assert np.all(np.isfinite(residual))


@pytest.mark.parametrize("branch", ["plus", "minus"])
@pytest.mark.parametrize("n, samples", WINDOWS, ids=IDS)
def test_pvi_residual(benchmark, n, samples, branch):
    w = window(n, samples)
    residual = benchmark(pvi_residual, w["sample"][branch], w["params"][branch],
                         w["stencil"])
    assert np.all(np.isfinite(residual))


@pytest.mark.parametrize("n, samples", WINDOWS, ids=IDS)
def test_step_oracle(benchmark, monkeypatch, n, samples):
    w = window(n, samples)
    k = w["mid"]

    def both_branches():
        return [w["sample"][b].integrate(w["params"][b], w["stencil"], k, k + 2)
                for b in ("plus", "minus")]

    benchmark.extra_info["pvi_second_derivative_calls"] = count(
        monkeypatch, "pvi_second_derivative", both_branches)
    benchmark(both_branches)


@pytest.mark.parametrize("n, samples", WINDOWS, ids=IDS)
def test_propagation_oracle(benchmark, monkeypatch, n, samples):
    fam = window(n, samples)["fam"]
    k0, k1 = len(fam) // 4, (3 * len(fam)) // 4

    def propagate():
        return schlesinger_integrate(fam[k0], fam[k1].x)

    benchmark.extra_info["schlesinger_field_calls"] = count(
        monkeypatch, "schlesinger_field", propagate)
    benchmark(propagate)


@pytest.mark.parametrize("n, samples", WINDOWS, ids=IDS)
def test_report(benchmark, monkeypatch, n, samples):
    def verify():
        return build_verification_report(n, samples=samples)

    benchmark.extra_info["fd_weights_calls"] = count(monkeypatch, "fd_weights", verify)
    assert benchmark(verify)["passed"]
