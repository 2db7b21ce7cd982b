import time

import numpy as np
import pytest

from painleve_instanton import stepper
from painleve_instanton.errors import StepSizeUnderflow
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

    def recording(f, a, y0, b, rtol, atol, on_step):
        def record(t, y, y_new, h, K, t_new):
            sweep_steps.append((t, t_new))
            on_step(t, y, y_new, h, K, t_new)
        return rk45(f, a, y0, b, rtol, atol, on_step=record)

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
    with pytest.raises(RuntimeError, match="step limit"):
        rk45(Counted(), 0.0, Y0, 2.0)


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


def test_stencil_is_the_one_window_stencils():
    # on a non-uniform grid, each interior sample k = 2..len-3 gets the
    # 5-point stencil centred on it, row 1 for d/dx and row 2 for d2/dx2;
    # the table's rows 0-1 are the order-1 table's, bit for bit, so one
    # order-2 table serves both derivatives
    xs = np.cumsum(np.linspace(0.01, 0.05, 40))
    values = np.exp(1j * xs) * xs[None, :] ** np.arange(3)[:, None]
    stencil = stepper.Stencil(xs)
    assert xs[stencil.INNER].tolist() == xs[2:-2].tolist()
    for order in (1, 2):
        got = stencil.derivative(values, order)
        assert got.shape == (3, len(xs) - 4)
        for k in range(2, len(xs) - 2):
            w = stepper.fd_weights(xs[k - 2:k + 3], xs[k], order)
            assert np.array_equal(stencil.weights[k - 2, :order + 1], w)
            assert np.array_equal(got[:, k - 2], np.sum(w[order] * values[:, k - 2:k + 3], -1))
    # exact on quadratics, up to roundoff
    assert np.allclose(stencil.derivative(xs * xs, 1), 2 * xs[2:-2], rtol=1e-12)
    assert np.allclose(stencil.derivative(xs * xs, 2), 2.0, rtol=1e-9)
