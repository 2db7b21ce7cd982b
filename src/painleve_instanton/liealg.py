"""Exact-size complex matrix kernel: 2x2 traceless arithmetic, closed-form
eigen-decomposition, and a pivoted 3x3 solve.

Matrices are plain numpy arrays used as immutable values; nothing here calls
numpy.linalg.  The 2x2 kernels broadcast: leading axes index samples, the
trailing two are the matrix. The su(2) basis is

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


def stack_trailing(rows):
    """np.array(rows) for a list, or a list of lists, of equally shaped
    entries, with the entries' own (sample) axes leading and the one or two
    axes of the list trailing."""
    m = np.array(rows)
    k = 2 if isinstance(rows[0], list) else 1
    return m.transpose(tuple(range(k, m.ndim)) + tuple(range(k)))


def su2_combination(c1, c2, c3):
    """c1*X1 + c2*X2 + c3*X3 (traceless by construction)."""
    return stack_trailing([[1j * c1, c2 + 1j * c3], [-c2 + 1j * c3, -1j * c1]])


def commutator(a, b):
    return a @ b - b @ a


def det2(a):
    return a[..., 0, 0] * a[..., 1, 1] - a[..., 0, 1] * a[..., 1, 0]


def trace_sq(a):
    """tr(A^2); equals 2*lambda^2 for traceless A with eigenvalues ±lambda."""
    return (a[..., 0, 0] * a[..., 0, 0] + a[..., 1, 1] * a[..., 1, 1]
            + 2 * a[..., 0, 1] * a[..., 1, 0])


def eigen2(a, tol=TOL):
    """Eigen-decomposition of a traceless 2x2 matrix.

    Returns (lam, v_plus, v_minus) with lam the canonical root of tr(A^2)/2
    (Re(lam) >= 0, ties by Im(lam) >= 0) and unit eigenvectors for +lam, -lam.

    Raises DegenerateMatrix when |tr(A^2)| is below tolerance (zero or
    nilpotent input), where the eigenvector basis does not exist.
    """
    t2 = trace_sq(a)
    scale = np.max(np.abs(a), axis=(-2, -1)) ** 2
    low = np.abs(t2) <= tol * np.maximum(1.0, scale)
    if low.any():
        first = np.asarray(np.abs(t2))[low][0]
        raise DegenerateMatrix(f"|tr(A^2)| = {first:.3e} below tolerance")
    lam = np.sqrt(np.asarray(t2 / 2.0, dtype=complex))
    # canonical root: Re >= 0, ties broken by Im >= 0
    lam = np.where((lam.real < 0) | ((lam.real == 0) & (lam.imag < 0)), -lam, lam)

    def unit_kernel_vector(l):
        # rows of (A - l) are both orthogonal to the eigenvector
        v1 = stack_trailing([-a[..., 0, 1], a[..., 0, 0] - l])
        v2 = stack_trailing([-(a[..., 1, 1] - l), a[..., 1, 0]])
        first = np.max(np.abs(v1), axis=-1) >= np.max(np.abs(v2), axis=-1)
        v = np.where(first[..., None], v1, v2)
        return v / np.sqrt(np.abs(v[..., :1]) ** 2 + np.abs(v[..., 1:]) ** 2)

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
