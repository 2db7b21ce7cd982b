"""The numerical kernels broadcast over leading sample axes: a call on a stack
equals the stack of the calls on its samples, and the report's checks cost a
fixed number of kernel calls whatever the sample count."""

from collections import Counter

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from painleve_instanton import (instanton, isomonodromy, liealg, painleve,
                                report, stepper, twistor)
from painleve_instanton.instanton import closed_form_profile
from painleve_instanton.isomonodromy import (extract_y, jimbo_miwa_params,
                                             schlesinger_field)
from painleve_instanton.liealg import REAL_FORM, eigen2, su2_combination
from painleve_instanton.painleve import PviParams, pvi_second_derivative
from painleve_instanton.stepper import fd_weights
from painleve_instanton.twistor import fuchsian_data


def assert_stack_matches(stack, singles, rtol):
    """Per sample, the largest entry difference is within rtol of the
    sample's largest entry."""
    stack, singles = np.asarray(stack), np.asarray(singles)
    assert stack.shape == singles.shape
    axes = tuple(range(1, singles.ndim))
    err = np.max(np.abs(stack - singles), axis=axes) if axes else np.abs(stack - singles)
    size = np.max(np.abs(singles), axis=axes) if axes else np.abs(singles)
    assert np.all(err <= rtol * size), float(np.max(err / size))


window_ts = st.lists(st.floats(0.05, 0.95), min_size=1, max_size=8).map(np.array)


@settings(max_examples=40, deadline=None)
@given(ts=window_ts)
def test_profile_values_and_residues_broadcast(prof1, prof3, prof5, ts):
    for prof in (prof1, prof3, prof5):
        assert_stack_matches(prof.values(ts), [prof.values(t) for t in ts], 1e-14)
        F = fuchsian_data(prof, ts)
        singles = [fuchsian_data(prof, t) for t in ts]
        assert_stack_matches(F.x, [G.x for G in singles], 1e-14)
        assert_stack_matches(F.w, [G.w for G in singles], 1e-14)
        # the derivative rows sum the log-derivative's partial fractions by
        # a matrix product, whose order of summation may differ for one sample
        for jet, single in zip(F.jets, zip(*(G.jets for G in singles))):
            for order in (1, 2):
                assert_stack_matches(jet.rows[order], [j.rows[order] for j in single], 1e-13)
        for p, A in enumerate(F.residues()):
            assert_stack_matches(A, [G.residues()[p] for G in singles], 1e-14)
        lam, v_plus, v_minus = eigen2(F.residues()[3])
        eig = [eigen2(G.residues()[3]) for G in singles]
        for j, got in enumerate((lam, v_plus, v_minus)):
            assert_stack_matches(got, [e[j] for e in eig], 1e-14)
        for branch in ("plus", "minus"):
            params = jimbo_miwa_params(F, branch)
            each = [jimbo_miwa_params(G, branch) for G in singles]
            for name in ("alpha", "beta", "gamma", "delta"):
                assert_stack_matches(getattr(params, name),
                                     [getattr(q, name) for q in each], 1e-14)


@settings(max_examples=40, deadline=None)
@given(ts=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8).map(np.array))
def test_profile_derivative_broadcast(prof5, ts):
    # every Taylor row of the closed forms, and of the pieces of a numeric
    # profile, whose end pieces extend beyond [0, 1]
    for prof in (*map(closed_form_profile, ("trivial", "hopf_sd", "e_minus_3")), prof5):
        rows = prof.jet(ts).rows
        for order in (1, 2):
            assert_stack_matches(rows[order], [prof.jet(t).rows[order] for t in ts], 1e-14)


@settings(max_examples=40, deadline=None)
@given(ts=window_ts)
def test_extract_y_broadcast(prof1, prof3, ts):
    # y amplifies the roundoff of the residues (about 7e3 at n = 3); each
    # of its Taylor rows
    for prof in (prof1, prof3):
        F = fuchsian_data(prof, ts)
        for branch in ("plus", "minus"):
            singles = [extract_y(F[k], branch).rows for k in range(len(F))]
            for order, row in enumerate(extract_y(F, branch).rows):
                assert_stack_matches(row, [s[order] for s in singles], 1e-10)


finite = st.floats(-2.0, 2.0)


@settings(max_examples=60, deadline=None)
@given(vals=st.lists(st.tuples(finite, finite, finite, finite, finite, finite),
                     min_size=1, max_size=8),
       coeffs=st.tuples(finite, finite, finite, finite))
def test_pvi_second_derivative_broadcast(vals, coeffs):
    v = np.array(vals)
    x = 1.5 + v[:, 0] ** 2
    y = v[:, 1] + 1j * (0.1 + v[:, 2] ** 2)
    yp = v[:, 3] + 1j * v[:, 4]
    params = PviParams(*coeffs)
    assert_stack_matches(pvi_second_derivative(params, x, y, yp),
                         [pvi_second_derivative(params, *s) for s in zip(x, y, yp)],
                         1e-14)


def pvi_term_scale(params, x, y, yp):
    """Per element, a bound on the largest term of the PVI right-hand side,
    from the kernel itself: the y'^2 and y' terms at zero parameters and
    +-y', each parameter's term alone at y' = 0."""
    coeffs = (params.alpha, params.beta, params.gamma, params.delta)
    zero = PviParams(0.0, 0.0, 0.0, 0.0)
    calls = [(zero, yp), (zero, -yp)] + [
        (PviParams(*(c if j == i else 0.0 for j, c in enumerate(coeffs))), 0.0 * yp)
        for i in range(4)]
    return np.max([np.abs(pvi_second_derivative(q, x, y, d)) for q, d in calls], axis=0)


@settings(max_examples=60, deadline=None)
@given(vals=st.lists(st.tuples(*[finite] * 6), min_size=1, max_size=8),
       coeffs=st.tuples(*[finite] * 8))
def test_pvi_second_derivative_python_scalars(vals, coeffs):
    # the direct integrator's path: Python complex scalars are computed on
    # without coercion and agree with the array call.  Python and numpy round
    # complex division differently, so the tolerance is relative to the
    # largest term of the right-hand side, which the terms' sum can undercut
    v = np.array(vals)
    x = 1.5 + v[:, 0] ** 2 - 1j * v[:, 5] ** 2
    y = v[:, 1] + 1j * (0.1 + v[:, 2] ** 2)
    yp = v[:, 3] + 1j * v[:, 4]
    params = PviParams(*(complex(a, b) for a, b in zip(coeffs[:4], coeffs[4:])))
    stack = pvi_second_derivative(params, x, y, yp)
    scale = pvi_term_scale(params, x, y, yp)
    for k, s in enumerate(zip(x.tolist(), y.tolist(), yp.tolist())):
        single = pvi_second_derivative(params, *s)
        assert type(single) is complex
        assert abs(single - stack[k]) <= 1e-14 * scale[k]


@settings(max_examples=60, deadline=None)
@given(vals=st.lists(st.tuples(*[finite] * 11), min_size=1, max_size=8))
def test_schlesinger_field_python_scalars(vals):
    # the propagation oracle's path: one flat row (m0, m1, mx) of real-form
    # residue vectors and x and the rate dx/ds as Python floats give the
    # residual check's call on a (9, S) array of samples bit for bit (both
    # round the same float operations), and both are the matrix field
    # rate [A0, Ax]/x, rate [A1, Ax]/(x - 1) of AB - BA, to a tolerance
    # relative to the largest product of components over the nearer pole
    v = np.array(vals)
    z = v[:, :9]
    x, rate = 1.5 + v[:, 9] ** 2, 0.25 + v[:, 10] ** 2
    scale = np.max(np.abs(z), axis=1) ** 2 * rate / np.minimum(abs(x), abs(x - 1))
    stack = schlesinger_field(x, z.T, rate)  # one (9, S) array of samples
    assert len(stack) == 9
    A0, A1, Ax = (su2_combination(*(REAL_FORM[:, None] * m))
                  for m in z.T.reshape(3, 3, -1))
    want0 = (A0 @ Ax - Ax @ A0) * (rate / x)[:, None, None]
    want1 = (A1 @ Ax - Ax @ A1) * (rate / (x - 1.0))[:, None, None]
    for d, want in zip(np.reshape(stack, (3, 3, -1)), (want0, want1, -want0 - want1),
                       strict=True):
        got = su2_combination(*(REAL_FORM[:, None] * d))
        err = np.max(np.abs(got - want), axis=(1, 2))
        assert np.all(err <= 1e-14 * scale)
    for k, (xk, rk, row) in enumerate(zip(x.tolist(), rate.tolist(), z.tolist())):
        single = schlesinger_field(xk, row, rk)  # one flat row of Python floats
        assert type(single) is list
        for c, c_stack in zip(single, stack, strict=True):
            assert type(c) is float
            assert c == c_stack[k]


@settings(max_examples=60, deadline=None)
@given(gaps=st.lists(st.lists(st.floats(0.01, 1.0), min_size=4, max_size=4),
                     min_size=1, max_size=6),
       order=st.integers(0, 4))
def test_fd_weights_broadcast_bit_identical(gaps, order):
    nodes = np.cumsum(np.column_stack([np.zeros(len(gaps)), gaps]), axis=1)
    x0 = nodes[:, 2]
    table = fd_weights(nodes, x0, order)
    assert table.shape == (len(gaps), order + 1, 5)
    for k in range(len(gaps)):
        assert np.array_equal(table[k], fd_weights(nodes[k], x0[k], order))


def test_check_calls_do_not_grow_with_samples(monkeypatch):
    # every check runs once over the whole window, not once per sample
    names = ("fuchsian_data", "extract_y", "schlesinger_residual", "pvi_residual")
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module in (liealg, stepper, twistor, instanton, isomonodromy,
                   painleve, report):
        for name in names:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))

    counts = {}
    for samples in (201, 801):
        calls.clear()
        report.build_verification_report(3, samples=samples)
        counts[samples] = dict(calls)
    assert set(counts[201]) == set(names)
    assert counts[201] == counts[801]
