import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from painleve_instanton.errors import DegenerateMatrix, SingularMatrix
from painleve_instanton.liealg import (REAL_FORM, X1, X2, X3, eigen2,
                                       lorentz_cross, solve3, su2_combination,
                                       trace_sq)


def bracket(a, b):
    """[A, B] = AB - BA of two 2x2 matrices."""
    return a @ b - b @ a


def real_matrix(p):
    """(REAL_FORM * p).X = (i p1) X1 + (i p2) X2 + p3 X3 of real p."""
    return su2_combination(*(REAL_FORM * np.asarray(p)))


def vector_bracket(p, q):
    """[P, Q] of the real-form matrices through the Lorentzian cross
    product: 2 (REAL_FORM * lorentz_cross(p, q)).X."""
    return real_matrix(2.0 * np.array(lorentz_cross(p, q)))


def test_basis_matrices():
    assert np.array_equal(X1, np.array([[1j, 0], [0, -1j]]))
    assert np.array_equal(X2, np.array([[0, 1], [-1, 0]]))
    assert np.array_equal(X3, np.array([[0, 1j], [1j, 0]]))
    for X in (X1, X2, X3):
        assert trace_sq(X) == -2
    for n in (1, 3, 5):
        m = (n / 4) * 1j * X2  # eigenvalues +-n/4
        assert abs(trace_sq(m) - n * n / 8) < 1e-14


def test_basis_commutators():
    assert np.array_equal(bracket(X1, X1), np.zeros((2, 2)))
    assert np.array_equal(bracket(X1, X2), 2 * X3)
    assert np.array_equal(bracket(X2, X3), 2 * X1)
    assert np.array_equal(bracket(X3, X1), 2 * X2)
    # the same brackets on real-form vectors (i X1, i X2, X3): the
    # Lorentzian cross product, whose third component changes sign
    e1, e2, e3 = np.eye(3)
    assert lorentz_cross(e1, e1) == (0.0, 0.0, 0.0)
    assert lorentz_cross(e1, e2) == (0.0, 0.0, -1.0)
    assert lorentz_cross(e2, e3) == (1.0, 0.0, 0.0)
    assert lorentz_cross(e3, e1) == (0.0, 1.0, 0.0)
    for a, b in ((e1, e2), (e2, e3), (e3, e1)):
        assert np.array_equal(vector_bracket(a, b), bracket(real_matrix(a), real_matrix(b)))


def test_trace_sq_examples():
    assert trace_sq(X2) == -2
    assert trace_sq(np.zeros((2, 2))) == 0


def test_eigen2_diagonal():
    lam, vp, vm = eigen2(X1)
    assert lam == 1j
    assert np.allclose(np.abs(vp), [1, 0])
    assert np.allclose(np.abs(vm), [0, 1])


def test_eigen2_rotation():
    lam, vp, vm = eigen2(X2)
    assert lam == 1j
    # eigenvectors (1, i)/sqrt2 and (1, -i)/sqrt2 up to phase
    assert abs(abs(vp @ np.conj([1, 1j]) / np.sqrt(2)) - 1) < 1e-12
    assert abs(abs(vm @ np.conj([1, -1j]) / np.sqrt(2)) - 1) < 1e-12


def test_eigen2_nilpotent_raises():
    with pytest.raises(DegenerateMatrix):
        eigen2(np.array([[0, 1], [0, 0]], dtype=complex))
    with pytest.raises(DegenerateMatrix):
        eigen2(np.zeros((2, 2), dtype=complex))


def test_solve3_examples():
    b = np.array([1.0, 2.0, -0.5], dtype=complex)
    assert np.allclose(solve3(np.eye(3), b), b)
    assert np.allclose(solve3(np.diag([2.0, 3.0, 4.0]), [2, 3, 4]), [1, 1, 1])
    with pytest.raises(SingularMatrix):
        solve3(np.array([[1, 2, 3], [2, 4, 6], [0, 1, 1]], dtype=complex),
               [1, 1, 1])


def test_solve3_against_closed_inverse():
    # the 3x3 solve route reproduces the closed-form action inverse
    from painleve_instanton.twistor import alpha_inv, alpha_inv_tangent, line_tangent
    t = 0.5
    for lam in (1.0, 0.3 + 0.7j, -1.2 + 0.1j):
        c_closed = alpha_inv_tangent(t, lam)
        c_solved = alpha_inv(t, lam, line_tangent(t, lam))
        assert np.max(np.abs(c_closed - c_solved)) < 1e-10


def _random_traceless(draw_floats):
    a, b, c, d, e, f = draw_floats
    return np.array([[a + 1j * b, c + 1j * d], [e + 1j * f, -(a + 1j * b)]])


floats = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)


@given(st.tuples(floats, floats, floats, floats, floats, floats))
@settings(max_examples=200, deadline=None)
def test_det_trace_identity(vals):
    m = _random_traceless(vals)
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    assert abs(det + trace_sq(m) / 2.0) < 1e-12


@given(st.tuples(floats, floats, floats, floats, floats, floats))
@settings(max_examples=100, deadline=None)
def test_eigen_reconstruction(vals):
    m = _random_traceless(vals)
    try:
        lam, vp, vm = eigen2(m)
    except DegenerateMatrix:
        return
    P = np.column_stack([vp, vm])
    rec = P @ np.diag([lam, -lam]) @ np.linalg.inv(P)
    assert np.max(np.abs(rec - m)) < 1e-10 * max(1.0, np.max(np.abs(m)))


@given(st.tuples(floats, floats, floats), st.tuples(floats, floats, floats),
       st.tuples(floats, floats, floats))
@settings(max_examples=100, deadline=None)
def test_commutator_antisymmetry_jacobi(v1, v2, v3):
    # `lorentz_cross` on real vectors is the bracket AB - BA of the
    # real-form matrices, on Python numbers and on arrays alike, and a Lie
    # bracket: antisymmetric, with the Jacobi identity
    a, b, c = (np.array(v) for v in (v1, v2, v3))
    assert np.max(np.abs(vector_bracket(a, b) - bracket(real_matrix(a), real_matrix(b)))) < 1e-14
    assert lorentz_cross(a.tolist(), b.tolist()) == tuple(lorentz_cross(a, b))
    assert np.max(np.abs(np.add(lorentz_cross(a, b), lorentz_cross(b, a)))) == 0.0
    jac = (np.array(lorentz_cross(a, lorentz_cross(b, c)))
           + np.array(lorentz_cross(b, lorentz_cross(c, a)))
           + np.array(lorentz_cross(c, lorentz_cross(a, b))))
    assert np.max(np.abs(jac)) < 1e-13


def test_su2_combination_traceless():
    m = su2_combination(0.3 + 1j, -2.0, 0.5j)
    assert m[0, 0] + m[1, 1] == 0
