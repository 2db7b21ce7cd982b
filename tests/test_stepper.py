import time

import numpy as np
import pytest

from painleve_instanton import stepper
from painleve_instanton.errors import StepLimitExceeded, StepSizeUnderflow
from painleve_instanton.stepper import rk45, rk45_path

# y' = M y with M = [[a, b], [-b, a]]: y(t) = e^{a t} R(b t) y(0), with R the
# (complex-angle) rotation, so every node has a closed-form reference.
A, B = -0.3 + 0.5j, 1.2 - 0.4j
M = np.array([[A, B], [-B, A]])
Y0 = np.array([1.0 - 0.5j, 0.25 + 2.0j])


def exact(t):
    c, s = np.cos(B * t), np.sin(B * t)
    return np.exp(A * t) * (np.array([[c, s], [-s, c]]) @ Y0)


class Counted:
    def __init__(self):
        self.calls = 0

    def __call__(self, t, y):
        self.calls += 1
        return M @ y


# right-hand-side evaluations the step control takes on this system; pinned
# so that a change to the stage arithmetic cannot silently move it
EVALUATIONS = {(0.0, 2.0): 217, (2.0, -0.5): 253}


@pytest.mark.parametrize("t0, t1", [(0.0, 2.0), (2.0, -0.5)])
def test_rk45_matches_closed_form(t0, t1):
    f = Counted()
    y = rk45(f, t0, exact(t0), t1)
    assert np.max(np.abs(y - exact(t1))) < 1e-10
    assert f.calls == EVALUATIONS[t0, t1]


@pytest.mark.parametrize("t0, t1", [(0.0, 2.0), (2.0, -0.5)])
@pytest.mark.parametrize("nodes", [3, 1001])
def test_rk45_path_matches_closed_form(t0, t1, nodes):
    # 3 nodes are sparser and 1001 nodes denser than the accepted steps
    ts = np.linspace(t0, t1, nodes)
    ys = rk45_path(Counted(), ts, exact(t0))
    assert len(ys) == nodes
    assert max(np.max(np.abs(y - exact(t))) for t, y in zip(ts, ys)) < 1e-10


@pytest.mark.parametrize("t0, t1", [(0.0, 2.0), (2.0, -0.5)])
def test_rk45_path_is_one_sweep(t0, t1, monkeypatch):
    # the sweep takes rk45's accepted steps and ends on rk45's result; only a
    # step that covers an interior node pays the three extra stages of the
    # continuous extension (3 nodes: one such step; 1001 nodes: every step
    # but the first, whose h = 1e-3 falls short of the node spacing)
    single, single_steps = Counted(), []
    y1 = rk45(single, t0, exact(t0), t1,
              on_step=lambda t, y, y_new, h, K, t_new: single_steps.append((t, t_new)))
    sweep_steps = []

    def recording(f, a, y0, b, on_step):
        def record(t, y, y_new, h, K, t_new):
            sweep_steps.append((t, t_new))
            on_step(t, y, y_new, h, K, t_new)
        return rk45(f, a, y0, b, on_step=record)

    monkeypatch.setattr(stepper, "rk45", recording)
    sign = np.sign(t1 - t0)
    for nodes, expected in ((3, 1), (1001, len(single_steps) - 1)):
        ts = np.linspace(t0, t1, nodes)
        sweep = Counted()
        sweep_steps.clear()
        ys = rk45_path(sweep, ts, exact(t0))
        assert sweep_steps == single_steps
        assert np.array_equal(ys[-1], y1)
        inner = ts[1:-1]
        covering = sum(bool(np.any(((inner - a) * sign > 0) & ((inner - b) * sign <= 0)))
                       for a, b in single_steps)
        assert covering == expected
        assert sweep.calls == single.calls + 3 * covering


@pytest.mark.parametrize("t0, t1", [(0.0, 2.0), (2.0, -0.5)])
def test_list_rhs_is_bit_identical(t0, t1):
    # f may return a sequence: the stage array's assignment converts it, so
    # every result is bit for bit the array-returning f's
    def as_list(t, y):
        return (M @ y).tolist()

    y0 = exact(t0)
    assert np.array_equal(rk45(as_list, t0, y0, t1), rk45(Counted(), t0, y0, t1))
    ts = np.linspace(t0, t1, 101)
    for a, b in zip(rk45_path(as_list, ts, y0), rk45_path(Counted(), ts, y0), strict=True):
        assert np.array_equal(a, b)


def test_on_step_gets_the_stage_array():
    # on_step sees the (16, d) K: rows 0-12 are the step's stages, f at the
    # tableau's times and arguments (row 12 at the new solution), and rows
    # 13-15 are free, so filling them moves nothing
    A, C = stepper._A, stepper._C

    def f(t, y):
        return (1.0 + t) * (M @ y)

    steps = []

    def check(t, y, y_new, h, K, t_new):
        assert K.shape == (16, 2)
        for i in range(12):
            want = f(t + C[i] * h, y + h * (A[i, :i] @ K[:i]))
            assert np.allclose(K[i], want, rtol=1e-14, atol=0)
        assert np.array_equal(K[12], f(t_new, y_new))
        K[13:] = np.nan
        steps.append(t_new)

    y = rk45(f, 0.0, Y0, 2.0, on_step=check)
    assert len(steps) > 10 and steps[-1] == 2.0
    assert np.array_equal(y, rk45(f, 0.0, Y0, 2.0))


def test_rk45_path_nodes_are_the_nested_extension():
    # rk45_path weights F0..F6 by running products of x, 1-x, x, ...; the
    # extension's nested form, evaluated node by node, agrees to roundoff
    ts = np.linspace(0.0, 2.0, 1001)
    ys = rk45_path(Counted(), ts, Y0)
    nested = {}

    def horner(t, y, y_new, h, K, t_new):
        F = stepper._dense_terms(Counted(), t, y, y_new, h, K)
        for k in np.flatnonzero((ts > t) & (ts <= t_new) & (ts < ts[-1])):
            x = (ts[k] - t) / h
            acc = F[6]
            for m in range(5, -1, -1):
                acc = F[m] + (x if m % 2 else 1 - x) * acc
            nested[k] = y + x * acc

    rk45(Counted(), 0.0, Y0, 2.0, on_step=horner)
    assert sorted(nested) == list(range(1, 1000))
    for k, y in nested.items():
        assert np.max(np.abs(ys[k] - y)) <= 2 * np.finfo(float).eps * np.max(np.abs(y))


def test_dop853_tableau():
    # consistency of every stage, the quadrature order conditions of the
    # 8th-order weights, and error estimates that vanish on constants
    A, B, C = stepper._A, stepper._B, np.array(stepper._C)
    assert A.shape == (16, 16) and np.all(np.triu(A) == 0)
    # to the roundoff of summing each row
    assert np.all(np.abs(A.sum(axis=1) - C) <= 4e-16 * np.abs(A).sum(axis=1))
    for k in range(8):
        assert abs(B @ C[:12] ** k - 1 / (k + 1)) < 1e-15
    e5, e3 = stepper._E
    assert abs(e5.sum()) < 1e-15 and abs(e3.sum()) < 1e-15


def test_rk45_path_single_node_and_bad_nodes():
    ys = rk45_path(Counted(), [0.3], Y0)
    assert len(ys) == 1 and np.array_equal(ys[0], Y0)
    with pytest.raises(ValueError):
        rk45_path(Counted(), [0.0, 1.0, 0.5, 2.0], Y0)


def test_rk45_step_limit(monkeypatch):
    monkeypatch.setattr(stepper, "MAX_STEPS", 3)
    with pytest.raises(StepLimitExceeded, match="step limit of 3 steps") as info:
        rk45(Counted(), 0.0, Y0, 2.0)
    assert info.value.limit == 3 and 0.0 < info.value.t < 2.0


def test_rk45_nan_rhs_stops_at_its_onset():
    # NaN stages are rejected until h no longer moves t; the step-size test
    # stops there instead of taking zero-length steps up to MAX_STEPS
    def f(t, y):
        return M @ y if t <= 0.5 else np.full_like(y, np.nan)

    start = time.perf_counter()
    with pytest.raises(StepSizeUnderflow) as info, np.errstate(invalid="ignore"):
        rk45(f, 0.0, Y0, 2.0)
    assert time.perf_counter() - start < 1.0
    assert abs(info.value.t - 0.5) < 1e-12
    assert 0 < abs(info.value.h) < 1e-14


def test_rk45_zero_length_returns_copy():
    y = rk45(Counted(), 1.0, Y0, 1.0)
    assert np.array_equal(y, Y0) and y is not Y0


def test_jet_rows_are_the_taylor_coefficients():
    # f, f' and f''/2 of a rational expression built with every operation,
    # constants on either side, against sympy; the value row is the float
    # expression's own, bit for bit
    sympy = pytest.importorskip("sympy")
    T = sympy.Symbol("t")

    def f(t):
        return (2.0 * t - 1.0) * (t * t + 3.0) / (t - 4.0) + 1.5 - t * t * t + (0.5 - t) * 3.0

    ts = np.linspace(0.1, 0.9, 9)
    jet = f(stepper.Jet(np.stack([ts, np.ones_like(ts), np.zeros_like(ts)])))
    assert np.array_equal(jet.rows[0], f(ts))
    exact = f(T)
    for order, row in enumerate(jet.rows):
        want = [float(sympy.diff(exact, T, order).subs(T, t)) / (1, 1, 2)[order] for t in ts]
        assert np.allclose(row, want, rtol=1e-13, atol=1e-13)
    # indexing reaches every row, and ndarray operands defer to the Jet
    assert np.array_equal(jet[2:4].rows, jet.rows[:, 2:4])
    assert isinstance(np.ones(9) * jet, stepper.Jet)


def test_jet_from_log_derivative():
    # f = t^3 / (t - 2): f'/f = 3/t - 1/(t - 2), (f'/f)' = -3/t^2 + 1/(t - 2)^2
    t = np.array([0.3, 0.7])
    jet = stepper.Jet.from_log_derivative(t ** 3 / (t - 2.0), 3 / t - 1 / (t - 2.0),
                                          -3 / t ** 2 + 1 / (t - 2.0) ** 2)
    d1 = (2 * t ** 3 - 6 * t ** 2) / (t - 2.0) ** 2
    d2 = (2 * t ** 3 - 12 * t ** 2 + 24 * t) / (t - 2.0) ** 3
    assert np.allclose(jet.rows[1], d1, rtol=1e-14)
    assert np.allclose(jet.rows[2], d2 / 2, rtol=1e-14)


def test_fd_weights_are_exact_on_quartics():
    # the tests' stencil oracle: 5 non-uniform nodes differentiate every
    # polynomial of degree <= 4 exactly, up to roundoff
    nodes = np.array([0.1, 0.13, 0.2, 0.22, 0.3])
    w = stepper.fd_weights(nodes, 0.2, 2)
    c = np.array([0.7, -1.3, 2.1, 0.4, -3.0])
    values = np.polynomial.polynomial.polyval(nodes, c)
    for order in range(3):
        want = np.polynomial.polynomial.polyval(0.2, np.polynomial.polynomial.polyder(c, order))
        assert abs(w[order] @ values - want) <= 1e-9 * max(1.0, abs(want))
