"""Shared numerical kernels: embedded Runge-Kutta 5(4), finite-difference
weights on arbitrary nodes, and Chebyshev-type grids with barycentric
evaluation.

The integrator is a plain Dormand-Prince pair working on (possibly complex)
numpy vectors; it propagates the 5th-order solution and controls the step
with the embedded 4th-order error estimate.  A step keeps its seven stages
in one preallocated (7, d) array, so each stage, the solution and the error
estimate are one small matrix product with the tableau, and the last stage
is reused as the next step's first (FSAL).  `rk45_path` reads intermediate
nodes from the pair's continuous extension instead of stopping at them.
The same kernel drives the BVP shooting sweeps, the Schlesinger gauge
transport and the Painleve VI oracle.
"""

from __future__ import annotations

import math

import numpy as np

# Dormand-Prince 5(4) tableau: stage i is y + h * (_AM[i, :i] @ K[:i]) for the
# (7, d) stage array K; the 5th-order solution is y + h * (_B5 @ K) and the
# error estimate h * (_E @ K)
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_AM = np.array([
    [0.0, 0, 0, 0, 0, 0, 0],
    [1 / 5, 0, 0, 0, 0, 0, 0],
    [3 / 40, 9 / 40, 0, 0, 0, 0, 0],
    [44 / 45, -56 / 15, 32 / 9, 0, 0, 0, 0],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0, 0, 0],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0, 0],
    [35 / 384, 0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0],
])
_B5 = _AM[6]
_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200,
                187 / 2100, 1 / 40])
_E = _B5 - _B4


# Dormand-Prince 4th-order continuous extension (Hairer, Norsett & Wanner,
# Solving ODEs I, II.6): y(t + theta h) = y + h (K @ _P) @ [theta, ..., theta^4]
# with K the seven stages; row sums give _B5 and the theta-derivative at 1 is
# the FSAL stage, so the interpolant is C^1 across steps.
_P = np.array([
    [1.0, -8048581381 / 2820520608, 8663915743 / 2820520608,
     -12715105075 / 11282082432],
    [0.0, 0.0, 0.0, 0.0],
    [0.0, 131558114200 / 32700410799, -68118460800 / 10900136933,
     87487479700 / 32700410799],
    [0.0, -1754552775 / 470086768, 14199869525 / 1410260304,
     -10690763975 / 1880347072],
    [0.0, 127303824393 / 49829197408, -318862633887 / 49829197408,
     701980252875 / 199316789632],
    [0.0, -282668133 / 205662961, 2019193451 / 616988883,
     -1453857185 / 822651844],
    [0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
])


MAX_STEPS = 1_000_000


def rk45(f, t0, y0, t1, rtol=1e-11, atol=1e-12, on_step=None):
    """Integrate dy/dt = f(t, y) from t0 to t1, returning y(t1).

    Works for real or complex state vectors; t may run backwards.  After
    each accepted step from (t, y) to t_new with step h, calls
    on_step(t, y, h, K, t_new) if given, with K the (7, d) stage array; K is
    overwritten by the next step, so on_step must not keep it.
    """
    y = np.array(y0, copy=True)
    t = float(t0)
    t1 = float(t1)
    if t1 == t:
        return y
    direction = 1.0 if t1 > t else -1.0
    span = abs(t1 - t)
    h = direction * min(1e-2 * span, 1e-3)
    k1 = np.asarray(f(t, y))
    K = np.empty((7,) + k1.shape, dtype=np.result_type(y, k1))
    K[0] = k1
    steps = 0
    while (t1 - t) * direction > 0:
        steps += 1
        if steps > MAX_STEPS:
            raise RuntimeError(f"rk45: step limit exceeded at t={t}")
        if (t + h - t1) * direction > 0:
            h = t1 - t
        for i in range(1, 7):
            K[i] = f(t + _C[i] * h, y + h * (_AM[i, :i] @ K[:i]))
        y5 = y + h * (_B5 @ K)
        scale = atol + rtol * np.maximum(np.abs(y), np.abs(y5))
        e = h * (_E @ K) / scale
        err = math.sqrt(np.vdot(e, e).real / e.size) + 1e-300
        if err <= 1.0:
            t_new = t1 if abs(t + h - t1) < 1e-15 * span else t + h
            if on_step is not None:
                on_step(t, y, h, K, t_new)
            t = t_new
            y = y5
            K[0] = K[6]  # FSAL
        h *= min(5.0, max(0.2, 0.9 * err ** -0.2))
    return y


def rk45_path(f, ts, y0, rtol=1e-11, atol=1e-12):
    """Integrate once from ts[0] to ts[-1], returning y at every node.

    The nodes must be strictly monotone (either direction).  Steps are not
    clipped at interior nodes: each is read from the 4th-order continuous
    extension of the step that covers it.  The last node is exactly rk45's
    y(ts[-1]).
    """
    ts = np.asarray(ts, dtype=float)
    out = [np.array(y0, copy=True)]
    if len(ts) < 2:
        return out
    direction = 1.0 if ts[-1] > ts[0] else -1.0
    if not np.all(np.diff(ts) * direction > 0):
        raise ValueError("rk45_path: nodes must be strictly monotone")
    last = len(ts) - 1

    def read_nodes(t, y, h, K, t_new):
        j = len(out)
        covered = j
        while covered < last and (ts[covered] - t_new) * direction <= 0:
            covered += 1
        if covered == j:
            return
        KP = K.T @ _P
        for node in ts[j:covered]:
            theta = (node - t) / h
            out.append(y + h * (KP @ (theta ** np.arange(1, 5))))

    out.append(rk45(f, ts[0], y0, ts[-1], rtol, atol, on_step=read_nodes))
    return out


def fd_weights(nodes, x0, order):
    """Fornberg weights at x0 over `nodes`: row m of the returned
    (..., order + 1, n) table gives the m-th derivative, m = 0..order, for
    nodes of shape (..., n) and x0 of shape (...), one stencil per sample."""
    nodes = np.asarray(nodes)
    n = nodes.shape[-1]
    w = np.zeros(nodes.shape[:-1] + (order + 1, n), dtype=nodes.dtype)
    w[..., 0, 0] = 1.0
    c1 = 1.0
    c4 = nodes[..., 0] - x0
    for i in range(1, n):
        mn = min(i, order)
        c2 = 1.0
        c5 = c4
        c4 = nodes[..., i] - x0
        for j in range(i):
            c3 = nodes[..., i] - nodes[..., j]
            c2 = c2 * c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    w[..., k, i] = c1 * (k * w[..., k - 1, i - 1] - c5 * w[..., k, i - 1]) / c2
                w[..., 0, i] = -c1 * c5 * w[..., 0, i - 1] / c2
            for k in range(mn, 0, -1):
                w[..., k, j] = (c4 * w[..., k, j] - k * w[..., k - 1, j]) / c3
            w[..., 0, j] = c4 * w[..., 0, j] / c3
        c1 = c2
    return w


def cos_nodes(a, b, n):
    """n nodes on [a, b] with Chebyshev-like clustering toward both ends."""
    k = np.arange(n)
    return a + (b - a) * (1.0 - np.cos(np.pi * k / (n - 1))) / 2.0


def barycentric(nodes, values, t):
    """Barycentric interpolation on cos_nodes grids (weights (-1)^k, halved ends).

    `values` has shape (m, n); returns shape (..., m) at t of shape (...).
    """
    nodes = np.asarray(nodes)
    n = len(nodes)
    w = np.ones(n)
    w[1::2] = -1.0
    w[0] *= 0.5
    w[-1] *= 0.5
    q = np.asarray(t, dtype=float)[..., None] - nodes
    # a t on a node takes that node's values exactly: one-hot weights
    hit = (q > -1e-15) & (q < 1e-15)
    q[hit] = 1.0
    np.divide(w, q, out=q)
    on_node = hit.any(axis=-1)
    q[on_node] = hit[on_node]
    return (np.asarray(values) @ q[..., None])[..., 0] / np.sum(q, axis=-1, keepdims=True)
