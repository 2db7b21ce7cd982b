"""The real form of the line family (`liealg`): every residue is u.X with
u = (i w1, i w2, w3) and w real.  At random real vectors the real kernels
agree with su(2) on the complex vectors and on the matrices of
`liealg.X1..X3`: the bracket, the pair invariants and the y extraction."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from painleve_instanton.isomonodromy import extract_y, pair_invariants
from painleve_instanton.liealg import X1, X2, X3, lorentz_cross
from painleve_instanton.twistor import FuchsianData

reals = st.floats(-2.0, 2.0, allow_subnormal=False)
vectors = st.tuples(reals, reals, reals)


def complex_vector(w):
    """u = (i w1, i w2, w3)."""
    return np.array([1j * w[0], 1j * w[1], w[2]])


def matrix(w):
    """u.X = (i w1) X1 + (i w2) X2 + w3 X3, from the basis matrices."""
    u1, u2, u3 = complex_vector(w)
    return u1 * X1 + u2 * X2 + u3 * X3


@settings(max_examples=200, deadline=None)
@given(p=vectors, q=vectors)
def test_lorentz_cross_is_the_su2_bracket(p, q):
    # [P, Q] = 2 R, with R the real-form matrix of lorentz_cross(p, q),
    # relative to the largest product (floored where products go subnormal)
    P, Q = matrix(p), matrix(q)
    scale = max(max(map(abs, p)) * max(map(abs, q)), 1e-290)
    err = np.max(np.abs(P @ Q - Q @ P - 2.0 * matrix(lorentz_cross(p, q))))
    assert err <= 1e-14 * scale


@settings(max_examples=200, deadline=None)
@given(m=st.lists(vectors, min_size=4, max_size=4))
def test_pair_invariants_are_the_killing_form_of_the_complex_vectors(m):
    # -2 m_i.m_j of the complex vectors, and tr(A_i A_j) of the matrices
    got = pair_invariants(np.array(m))
    assert got.dtype == np.float64
    u = [complex_vector(w) for w in m]
    scale = max(1.0, np.max(np.abs(m))) ** 2
    want = -2.0 * np.array([[np.sum(a * b) for b in u] for a in u])
    assert np.max(np.abs(got - want)) <= 1e-14 * scale
    traces = np.array([[np.trace(matrix(a) @ matrix(b)) for b in m] for a in m])
    assert np.max(np.abs(got - traces)) <= 1e-14 * scale


def complex_y(w, x, sigma):
    """y by the complex formula the extraction used before the real form:
    rho = u3 (u1 u3 + sigma lam u2) / (u1 (u2^2 + u3^2)), lam the root of
    -u.u with Re >= 0 (ties by Im >= 0); also returns rho."""
    u1, u2, u3 = complex_vector(w)
    lam = np.sqrt(-(u1 * u1 + u2 * u2 + u3 * u3) + 0j)
    if lam.real == 0 and lam.imag < 0:
        lam = -lam
    rho = u3 * (u1 * u3 + sigma * lam * u2) / (u1 * (u2 * u2 + u3 * u3))
    return x / (x + (1.0 - x) * rho), rho


@settings(max_examples=200, deadline=None)
@given(w=vectors, x=st.floats(1.05, 20.0), branch=st.sampled_from(("plus", "minus")))
def test_real_extract_y_is_the_complex_formula(w, x, branch):
    # on and off the family: where u.u > 0, lam and y are complex
    assume(abs(w[0]) >= 0.05 and abs(w[2] ** 2 - w[1] ** 2) >= 0.05)
    want, rho = complex_y(w, x, 1.0 if branch == "plus" else -1.0)
    # away from the vanishing denominator, whose conditioning is not the
    # formula's
    assume(abs(x + (1.0 - x) * rho) >= 0.05 * (abs(x) + abs((1.0 - x) * rho)))
    got = extract_y(FuchsianData(t=0.5, x=x, w=np.array(w)), branch)
    assert abs(got - want) <= 1e-12 * abs(want)
    if w[0] ** 2 + w[1] ** 2 >= w[2] ** 2:
        assert np.isrealobj(got)
