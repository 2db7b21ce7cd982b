"""Exact-size complex matrix kernel: 2x2 traceless arithmetic, closed-form
eigen-decomposition, and a pivoted 3x3 solve.

Matrices are plain numpy arrays used as immutable values; nothing here calls
numpy.linalg. The su(2) basis is

    X1 = [[i, 0], [0, -i]],  X2 = [[0, 1], [-1, 0]],  X3 = [[0, i], [i, 0]],

with tr(Xk^2) = -2 and [X1, X2] = 2 X3 cyclically.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateMatrix, SingularMatrix

TOL = 1e-10

X1 = np.array([[1j, 0], [0, -1j]])
X2 = np.array([[0, 1], [-1, 0]], dtype=complex)
X3 = np.array([[0, 1j], [1j, 0]])
for _m in (X1, X2, X3):
    _m.setflags(write=False)


def su2_combination(c1, c2, c3):
    """c1*X1 + c2*X2 + c3*X3 (traceless by construction)."""
    return np.array([[1j * c1, c2 + 1j * c3], [-c2 + 1j * c3, -1j * c1]])


def commutator(a, b):
    return a @ b - b @ a


def det2(a):
    return a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]


def trace_sq(a):
    """tr(A^2); equals 2*lambda^2 for traceless A with eigenvalues ±lambda."""
    return (a[0, 0] * a[0, 0] + a[1, 1] * a[1, 1] + 2 * a[0, 1] * a[1, 0])


def _canonical_sqrt(z):
    """Square root with Re >= 0, ties broken by Im >= 0."""
    w = np.sqrt(complex(z))
    if w.real < 0 or (w.real == 0 and w.imag < 0):
        w = -w
    return w


def eigen2(a, tol=TOL):
    """Eigen-decomposition of a traceless 2x2 matrix.

    Returns (lam, v_plus, v_minus) with lam the canonical root of tr(A^2)/2
    (Re(lam) >= 0, ties by Im(lam) >= 0) and unit eigenvectors for +lam, -lam.

    Raises DegenerateMatrix when |tr(A^2)| is below tolerance (zero or
    nilpotent input), where the eigenvector basis does not exist.
    """
    t2 = trace_sq(a)
    scale = float(np.max(np.abs(a))) ** 2
    if abs(t2) <= tol * max(1.0, scale):
        raise DegenerateMatrix(f"|tr(A^2)| = {abs(t2):.3e} below tolerance")
    lam = _canonical_sqrt(t2 / 2.0)

    def unit_kernel_vector(l):
        # rows of (A - l) are both orthogonal to the eigenvector
        r1 = (a[0, 0] - l, a[0, 1])
        r2 = (a[1, 0], a[1, 1] - l)
        v1 = np.array([-r1[1], r1[0]])
        v2 = np.array([-r2[1], r2[0]])
        v = v1 if max(abs(v1[0]), abs(v1[1])) >= max(abs(v2[0]), abs(v2[1])) else v2
        return v / np.sqrt(abs(v[0]) ** 2 + abs(v[1]) ** 2)

    return lam, unit_kernel_vector(lam), unit_kernel_vector(-lam)


def solve3(m, b, tol=TOL):
    """Solve a 3x3 complex system by Gaussian elimination with partial pivoting.

    Raises SingularMatrix when |det| <= tol * norm(M)^3 (norm = max entry),
    which downstream marks points on the degeneracy divisor.
    """
    a = np.array(m, dtype=complex)
    x = np.array(b, dtype=complex)
    norm = float(np.max(np.abs(a)))
    det = 1.0 + 0j
    for col in range(3):
        piv = col + int(np.argmax(np.abs(a[col:, col])))
        if piv != col:
            a[[col, piv]] = a[[piv, col]]
            x[[col, piv]] = x[[piv, col]]
            det = -det
        det *= a[col, col]
        if a[col, col] == 0:
            break
        for row in range(col + 1, 3):
            f = a[row, col] / a[col, col]
            a[row, col:] -= f * a[col, col:]
            x[row] -= f * x[col]
    if abs(det) <= tol * max(norm, 1e-300) ** 3:
        raise SingularMatrix(f"|det| = {abs(det):.3e} below tolerance")
    out = np.zeros(3, dtype=complex)
    for row in (2, 1, 0):
        out[row] = (x[row] - a[row, row + 1:] @ out[row + 1:]) / a[row, row]
    return out
