"""Shared numerical kernels: the embedded Runge-Kutta pair DOP853 with its
continuous extension, `Jet`, the order-2 Taylor arithmetic that carries
the derivatives of the profile through the line family to y(x), and
finite-difference weights on arbitrary nodes, which the tests check
those derivatives against: no stage differentiates sampled data.

The integrator is Dormand and Prince's 8th-order pair working on (possibly
complex) numpy vectors; it propagates the 8th-order solution and controls
the step with Hairer's combined 5th/3rd-order error estimate.  A step keeps
y and its stages in one preallocated (17, d) array, y in row 0, and folds h
into one copy of the tableau per step, cast once to the state's dtype, so
each stage's argument and the solution are one vector-matrix product, and
f at the new solution is reused as the next step's first stage (FSAL).
f may return any sequence: the stage array's row assignment converts it,
so a right-hand side on Python numbers need not build an array.
`rk45_path` reads intermediate nodes from the pair's 7th-order continuous
extension instead of stopping at them.  One kernel at one RTOL and ATOL
drives the Schlesinger propagation oracle and the Painleve VI oracle.
"""

from __future__ import annotations

import inspect
import math

import numpy as np

from .errors import StepLimitExceeded, StepSizeUnderflow

# DOP853 (Hairer, Norsett & Wanner, Solving ODEs I, II.5 and II.6).  The
# coefficients are those of SciPy's scipy/integrate/_ivp/dop853_coefficients.py
# (BSD-3-Clause; Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy
# Developers).  Stage i of the (16, d) stage array K is
# f(t + _C[i] h, y + h * (_A[i, :i] @ K[:i])).  Stages 0-11 make the step,
# row 12 of _A is the 8th-order weights _B (so stage 12 is f at the new
# solution, the next step's first stage), and stages 13-15 feed only the
# continuous extension.  Rows of _E give the 5th- and 3rd-order error
# estimates; _D gives the top four coefficients of the 7th-order extension.
_C = (0.0, 0.526001519587677318785587544488e-01,
      0.789002279381515978178381316732e-01, 0.118350341907227396726757197510,
      0.281649658092772603273242802490, 0.333333333333333333333333333333, 0.25,
      0.307692307692307692307692307692, 0.651282051282051282051282051282, 0.6,
      0.857142857142857142857142857142, 1.0, 1.0, 0.1, 0.2,
      0.777777777777777777777777777778)
_A = np.array([row + [0.0] * (16 - len(row)) for row in [
    [],
    [5.26001519587677318785587544488e-2],
    [1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2],
    [2.95875854768068491816892993775e-2, 0, 8.87627564304205475450678981324e-2],
    [2.41365134159266685502369798665e-1, 0,
     -8.84549479328286085344864962717e-1, 9.24834003261792003115737966543e-1],
    [3.7037037037037037037037037037e-2, 0, 0,
     1.70828608729473871279604482173e-1, 1.25467687566822425016691814123e-1],
    [3.7109375e-2, 0, 0, 1.70252211019544039314978060272e-1,
     6.02165389804559606850219397283e-2, -1.7578125e-2],
    [3.70920001185047927108779319836e-2, 0, 0,
     1.70383925712239993810214054705e-1, 1.07262030446373284651809199168e-1,
     -1.53194377486244017527936158236e-2, 8.27378916381402288758473766002e-3],
    [6.24110958716075717114429577812e-1, 0, 0,
     -3.36089262944694129406857109825, -8.68219346841726006818189891453e-1,
     2.75920996994467083049415600797e1, 2.01540675504778934086186788979e1,
     -4.34898841810699588477366255144e1],
    [4.77662536438264365890433908527e-1, 0, 0,
     -2.48811461997166764192642586468, -5.90290826836842996371446475743e-1,
     2.12300514481811942347288949897e1, 1.52792336328824235832596922938e1,
     -3.32882109689848629194453265587e1, -2.03312017085086261358222928593e-2],
    [-9.3714243008598732571704021658e-1, 0, 0, 5.18637242884406370830023853209,
     1.09143734899672957818500254654, -8.14978701074692612513997267357,
     -1.85200656599969598641566180701e1, 2.27394870993505042818970056734e1,
     2.49360555267965238987089396762, -3.0467644718982195003823669022],
    [2.27331014751653820792359768449, 0, 0, -1.05344954667372501984066689879e1,
     -2.00087205822486249909675718444, -1.79589318631187989172765950534e1,
     2.79488845294199600508499808837e1, -2.85899827713502369474065508674,
     -8.87285693353062954433549289258, 1.23605671757943030647266201528e1,
     6.43392746015763530355970484046e-1],
    [5.42937341165687622380535766363e-2, 0, 0, 0, 0,
     4.45031289275240888144113950566, 1.89151789931450038304281599044,
     -5.8012039600105847814672114227, 3.1116436695781989440891606237e-1,
     -1.52160949662516078556178806805e-1, 2.01365400804030348374776537501e-1,
     4.47106157277725905176885569043e-2],
    [5.61675022830479523392909219681e-2, 0, 0, 0, 0, 0,
     2.53500210216624811088794765333e-1, -2.46239037470802489917441475441e-1,
     -1.24191423263816360469010140626e-1, 1.5329179827876569731206322685e-1,
     8.20105229563468988491666602057e-3, 7.56789766054569976138603589584e-3,
     -8.298e-3],
    [3.18346481635021405060768473261e-2, 0, 0, 0, 0,
     2.83009096723667755288322961402e-2, 5.35419883074385676223797384372e-2,
     -5.49237485713909884646569340306e-2, 0, 0,
     -1.08347328697249322858509316994e-4, 3.82571090835658412954920192323e-4,
     -3.40465008687404560802977114492e-4, 1.41312443674632500278074618366e-1],
    [-4.28896301583791923408573538692e-1, 0, 0, 0, 0,
     -4.69762141536116384314449447206, 7.68342119606259904184240953878,
     4.06898981839711007970213554331, 3.56727187455281109270669543021e-1, 0, 0,
     0, -1.39902416515901462129418009734e-3, 2.9475147891527723389556272149,
     -9.15095847217987001081870187138],
]])
_B = _A[12, :12]
_E = np.array([
    [0.1312004499419488073250102996e-1, 0, 0, 0, 0,
     -0.1225156446376204440720569753e+1, -0.4957589496572501915214079952,
     0.1664377182454986536961530415e+1, -0.3503288487499736816886487290,
     0.3341791187130174790297318841, 0.8192320648511571246570742613e-1,
     -0.2235530786388629525884427845e-1],
    _B - np.array([0.244094488188976377952755905512, 0, 0, 0, 0, 0, 0, 0,
                   0.733846688281611857341361741547, 0, 0,
                   0.220588235294117647058823529412e-1]),
])
_D = np.array([
    [-0.84289382761090128651353491142e+1, 0, 0, 0, 0,
     0.56671495351937776962531783590, -0.30689499459498916912797304727e+1,
     0.23846676565120698287728149680e+1, 0.21170345824450282767155149946e+1,
     -0.87139158377797299206789907490, 0.22404374302607882758541771650e+1,
     0.63157877876946881815570249290, -0.88990336451333310820698117400e-1,
     0.18148505520854727256656404962e+2, -0.91946323924783554000451984436e+1,
     -0.44360363875948939664310572000e+1],
    [0.10427508642579134603413151009e+2, 0, 0, 0, 0,
     0.24228349177525818288430175319e+3, 0.16520045171727028198505394887e+3,
     -0.37454675472269020279518312152e+3, -0.22113666853125306036270938578e+2,
     0.77334326684722638389603898808e+1, -0.30674084731089398182061213626e+2,
     -0.93321305264302278729567221706e+1, 0.15697238121770843886131091075e+2,
     -0.31139403219565177677282850411e+2, -0.93529243588444783865713862664e+1,
     0.35816841486394083752465898540e+2],
    [0.19985053242002433820987653617e+2, 0, 0, 0, 0,
     -0.38703730874935176555105901742e+3, -0.18917813819516756882830838328e+3,
     0.52780815920542364900561016686e+3, -0.11573902539959630126141871134e+2,
     0.68812326946963000169666922661e+1, -0.10006050966910838403183860980e+1,
     0.77771377980534432092869265740, -0.27782057523535084065932004339e+1,
     -0.60196695231264120758267380846e+2, 0.84320405506677161018159903784e+2,
     0.11992291136182789328035130030e+2],
    [-0.25693933462703749003312586129e+2, 0, 0, 0, 0,
     -0.15418974869023643374053993627e+3, -0.23152937917604549567536039109e+3,
     0.35763911791061412378285349910e+3, 0.93405324183624310003907691704e+2,
     -0.37458323136451633156875139351e+2, 0.10409964950896230045147246184e+3,
     0.29840293426660503123344363579e+2, -0.43533456590011143754432175058e+2,
     0.96324553959188282948394950600e+2, -0.39177261675615439165231486172e+2,
     -0.14972683625798562581422125276e+3],
])


# Steps (accepted or rejected) of one integration.  Passing runs take at
# most 29 in verify (odd n <= 101, 201 and 801 samples) and 294 in
# pvi-integrate (n <= 17, windows down to t = 0.01 and up to 0.99); runs that
# end in StepSizeUnderflow or SingularityEncountered take at most 882 before
# it.  A run past this budget is grinding: at n = 101 on [0.1, 0.95] the
# propagation oracle took 270,447 steps before its step underflowed.
MAX_STEPS = 10_000
RTOL, ATOL = 1e-11, 1e-13  # the step control's relative and absolute tolerances
# unit roundoff of the step-size test
_UROUND = math.ulp(1.0)


def rk45(f, t0, y0, t1, on_step=None):
    """Integrate dy/dt = f(t, y) from t0 to t1 with DOP853, returning y(t1).

    Works for real or complex state vectors; t may run backwards; f may
    return an array or any sequence of d numbers.  y and the stages share
    one (17, d) array, y in row 0, and h is folded into the step's copy of
    the tableau, so each stage's argument is one product of a tableau row
    with that array.  Raises StepSizeUnderflow when the step control drives
    h below the roundoff of t, as it does at a singularity or a non-finite
    right-hand side, and StepLimitExceeded after MAX_STEPS steps; both name
    the independent variable as f names its first parameter.  After each
    accepted step from (t, y) to (t_new, y_new) with step h, calls
    on_step(t, y, y_new, h, K, t_new) if given, with K the (16, d) stage
    array below y: rows 0-12 hold the step's stages (row 12 is f(t_new,
    y_new)), and rows 13-15 are free for the continuous extension's stages.
    K is overwritten by the next step, so on_step must not keep it.
    """
    y = np.array(y0, copy=True)
    t = float(t0)
    t1 = float(t1)
    if t1 == t:
        return y
    direction = 1.0 if t1 > t else -1.0
    span = abs(t1 - t)
    h = direction * min(span, 1e-3)
    k1 = np.asarray(f(t, y))
    # YK is y above the stages K; Z is refilled once per step with a 1 for y
    # and h times _A's rows 0-12, so stage i's argument is the one product
    # Z[i, :i+1] . YK[:i+1], and row 12's is the 8th-order solution
    YK = np.empty((17,) + k1.shape, dtype=np.result_type(y, k1))
    YK[0], YK[1] = y, k1
    K = YK[1:]
    Z = np.ones((13, 13), dtype=YK.dtype)
    E = _E.astype(YK.dtype)
    stages = [(i, _C[i], Z[i, :i + 1], YK[:i + 1]) for i in range(1, 12)]
    steps = 0
    while (t1 - t) * direction > 0:
        steps += 1
        if steps > MAX_STEPS:
            raise StepLimitExceeded(t, MAX_STEPS, _variable(f))
        # Hairer's test (Solving ODEs I, II.4): shorter steps no longer move
        # t, so rejected NaN or infinite stages would shrink h to zero and
        # zero-length steps would run up to MAX_STEPS
        if 0.1 * abs(h) <= _UROUND * abs(t):
            raise StepSizeUnderflow(t, h, _variable(f))
        if (t + h - t1) * direction > 0:
            h = t1 - t
        np.multiply(_A[:13, :12], h, out=Z[:, 1:])
        for i, c, z, yk in stages:
            K[i] = f(t + c * h, z.dot(yk))
        y_new = Z[12].dot(YK[:13])
        scale = ATOL + RTOL * np.maximum(np.abs(y), np.abs(y_new))
        n5, n3 = (np.abs(E.dot(K[:12]) / scale) ** 2).sum(axis=1).tolist()
        err = abs(h) * n5 / (math.sqrt((n5 + 0.01 * n3) * y.size) or 1.0) + 1e-300
        if err <= 1.0:
            t_new = t1 if abs(t + h - t1) < 1e-15 * span else t + h
            K[12] = f(t_new, y_new)
            if on_step is not None:
                on_step(t, y, y_new, h, K, t_new)
            t = t_new
            y = YK[0] = y_new
            K[0] = K[12]  # FSAL
        h *= min(5.0, max(0.2, 0.9 * err ** -0.125))
    return y


def _variable(f):
    """The name f gives its independent variable, for an integrator's error
    ("t" where f's signature cannot be read)."""
    try:
        return next(iter(inspect.signature(f).parameters), "t")
    except (TypeError, ValueError):
        return "t"


def _dense_terms(f, t, y, y_new, h, K):
    """Evaluate the three extra stages of one accepted step (rk45's on_step
    arguments) into K and return the (7, d) terms F0..F6 of its 7th-order
    continuous extension

        y(t + x h) = y + x (F0 + (1-x) (F1 + x (F2 + ... (F5 + x F6)))).

    As in rk45, the extra stages' tableau rows carry h.
    """
    for s, z in enumerate(h * _A[13:], 13):
        K[s] = f(t + _C[s] * h, y + z[:s].dot(K[:s]))
    dy = y_new - y
    return np.array([dy, h * K[0] - dy, 2 * dy - h * (K[0] + K[12]),
                     *(h * _D).dot(K)])


# the extension's nested factors x, 1-x, x, ... from the outside in: their
# running products weight F0..F6
_ODD = np.arange(7) % 2 == 1


def rk45_path(f, ts, y0):
    """Integrate once from ts[0] to ts[-1], returning y at every node.

    The nodes must be strictly monotone (either direction).  Steps are not
    clipped at interior nodes: a step that covers any evaluates the three
    extra stages of the 7th-order continuous extension and reads all of its
    nodes in one product of their basis weights with its terms.  The last
    node is exactly rk45's y(ts[-1]).
    """
    ts = np.asarray(ts, dtype=float)
    out = [np.array(y0, copy=True)]
    if len(ts) < 2:
        return out
    direction = 1.0 if ts[-1] > ts[0] else -1.0
    if not np.all(np.diff(ts) * direction > 0):
        raise ValueError("rk45_path: nodes must be strictly monotone")
    nodes = ts.tolist()
    last = len(ts) - 1

    def read_nodes(t, y, y_new, h, K, t_new):
        j = len(out)
        covered = j
        while covered < last and (nodes[covered] - t_new) * direction <= 0:
            covered += 1
        if covered == j:
            return
        F = _dense_terms(f, t, y, y_new, h, K)
        x = ((ts[j:covered] - t) / h)[:, None]
        out.extend(y + np.cumprod(np.where(_ODD, 1 - x, x), axis=1).dot(F))

    out.append(rk45(f, ts[0], y0, ts[-1], on_step=read_nodes))
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


class Jet:
    """Order-2 Taylor rows (f, f', f''/2) of a function of t, stacked on the
    leading axis of `rows`, in Taylor arithmetic (Griewank & Walther,
    Evaluating Derivatives, 2nd ed., ch. 13): +, -, * and / with Jets, a
    constant on the right of + and either side of - and *, and indexing of
    every row.  Each value row takes the operations of the expression on
    values, in the same order, so it rounds the same."""

    __array_ufunc__ = None

    def __init__(self, rows):
        self.rows = rows

    @classmethod
    def from_log_derivative(cls, f, dlog, dlog_t):
        """The Jet of a function with value f, f'/f = dlog and (f'/f)' = dlog_t."""
        first = f * dlog
        return cls(np.stack([f, first, 0.5 * (f * dlog_t + first * dlog)]))

    def __getitem__(self, key):
        return Jet(self.rows[(slice(None),) + np.index_exp[key]])

    def __neg__(self):
        return Jet(-self.rows)

    def __add__(self, other):
        if isinstance(other, Jet):
            return Jet(self.rows + other.rows)
        return Jet(np.concatenate(([self.rows[0] + other], self.rows[1:])))

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.rows * other)
        a, b = self.rows, other.rows
        c = a[0] * b
        c[1:] += a[1] * b[:2]
        c[2] += a[2] * b[0]
        return Jet(c)

    __rmul__ = __mul__

    def __truediv__(self, other):
        a, b = self.rows, other.rows
        q = a / b[0]
        d = b[1:] / b[0]
        q[1] -= q[0] * d[0]
        q[2] -= q[0] * d[1] + q[1] * d[0]
        return Jet(q)
