"""Reference checkers on rows of Python numbers, without numpy: the cyclic
Jacobi eigensolver that `verify` and the tests hold the closed form against,
and the Hermitian/PSD check of a density matrix. The bound never imports it:
`states` loads it for the PSD check and `verify` for Jacobi.
"""

from __future__ import annotations

from math import copysign, hypot, isfinite, sqrt
from operator import itemgetter

HERMITIAN_TOL = 1e-12
PSD_TOL = 1e-9

# Jacobi sweep termination: off-diagonal Frobenius norm relative to the
# matrix scale, with a hard sweep cap (a 3x3 converges in a handful).
_JACOBI_REL_TOL = 1e-14
_JACOBI_MAX_SWEEPS = 50


def sym3_eigen_jacobi(a) -> tuple[tuple, tuple]:
    """Eigendecomposition of a symmetric 3x3 matrix by cyclic Jacobi sweeps.

    Takes any finite 3x3 rows of numbers (or an ndarray); off-diagonal
    pairs are averaged first. Returns (eigenvalues, eigenvectors) with
    eigenvalues sorted descending (stable on ties) and eigenvectors as the
    orthonormal columns of rows V: sum_k a[j][k] V[k][i] = w[i] V[j][i].
    """
    try:
        a = [list(map(float, row)) for row in a]
    except TypeError:
        raise ValueError("expected a 3x3 matrix") from None
    if list(map(len, a)) != [3, 3, 3]:
        raise ValueError(f"expected a 3x3 matrix, got rows of lengths {list(map(len, a))}")
    if not all(map(isfinite, a[0] + a[1] + a[2])):
        raise ValueError("matrix has non-finite entries")
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = a
    m01, m02, m12 = 0.5 * (a01 + a10), 0.5 * (a02 + a20), 0.5 * (a12 + a21)
    m = [[a00, m01, m02], [m01, a11, m12], [m02, m12, a22]]
    v = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    scale = hypot(a00, a11, a22, m01, m01, m02, m02, m12, m12)
    for _ in range(_JACOBI_MAX_SWEEPS):
        if sqrt(2.0) * hypot(m[0][1], m[0][2], m[1][2]) <= _JACOBI_REL_TOL * scale:
            break
        for p, q in ((0, 1), (0, 2), (1, 2)):
            apq = m[p][q]
            if apq == 0.0:
                continue
            theta = (m[q][q] - m[p][p]) / (2.0 * apq)
            t = 1.0 if theta == 0.0 else copysign(1.0, theta) / (abs(theta) + sqrt(theta * theta + 1.0))
            c = 1.0 / sqrt(t * t + 1.0)
            s = t * c
            # m <- R^T m R and v <- v R, with R the identity but for
            # R[p][p] = R[q][q] = c and R[p][q] = -R[q][p] = s
            rp, rq = m[p], m[q]
            for j in range(3):
                rp[j], rq[j] = c * rp[j] - s * rq[j], s * rp[j] + c * rq[j]
            for row in m + v:
                row[p], row[q] = c * row[p] - s * row[q], s * row[p] + c * row[q]
    w = (m[0][0], m[1][1], m[2][2])
    pick = itemgetter(*sorted(range(3), key=w.__getitem__, reverse=True))  # a stable sort, so ties keep their order
    return pick(w), tuple(map(pick, v))


def hermitian_psd_check(m) -> bool:
    """True iff the Hermitian matrix m (rows of numbers, or an ndarray) has
    all eigenvalues >= -PSD_TOL, i.e. iff every pivot of the LDL^H elimination
    (Cholesky without square roots) of m + PSD_TOL I is > 0. Its backward error
    is ~n eps ||m|| (Higham, Accuracy and Stability, 2nd ed., 10.1).

    Raises ValueError when m is not Hermitian within HERMITIAN_TOL: a
    malformed input is a validation failure, not a "not PSD" verdict.
    """
    try:
        a = [list(map(complex, row)) for row in m]
    except TypeError:
        raise ValueError("expected a square matrix") from None
    n = len(a)
    if not n or any(len(row) != n for row in a):
        raise ValueError("expected a square matrix")
    if not all(abs(a[i][j] - a[j][i].conjugate()) <= HERMITIAN_TOL for i in range(n) for j in range(i, n)):
        raise ValueError("density matrix is not Hermitian")
    pivots, low = [], []  # low[i][k] = L[i][k] for k < i; L has a unit diagonal
    for i, a_row in enumerate(a):
        row, scaled = [], []  # row[k] = L[i][k] and scaled[k] = L[i][k] * pivots[k]
        for k in range(i):
            x = a_row[k]
            for q in range(k):
                x -= scaled[q] * low[k][q].conjugate()
            scaled.append(x)
            row.append(x / pivots[k])
        pivot = a_row[i].real + PSD_TOL
        for q in range(i):
            pivot -= (scaled[q] * row[q].conjugate()).real
        if not pivot > 0.0:
            return False
        pivots.append(pivot)
        low.append(row)
    return True
