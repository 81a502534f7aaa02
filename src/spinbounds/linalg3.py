"""Reference checkers on rows of Python numbers, without numpy: the cyclic
Jacobi eigensolver that `verify` and the tests hold the closed form against,
and the Hermitian/PSD check of a 4x4 density matrix, a straight-line LDL^H.
The bound never imports it: `states` loads it for the PSD check and `verify`
for Jacobi.
"""

from __future__ import annotations

from math import copysign, hypot, isfinite, sqrt
from operator import itemgetter

from .incompat import _ROWS, _float, _plain

HERMITIAN_TOL = 1e-12
PSD_TOL = 1e-9
_AS_GIVEN = frozenset((float, complex))  # the PSD check computes on rows of these as they are

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
        a = [list(map(_float, row)) for row in a]
    except (TypeError, OverflowError):
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
    """True iff the Hermitian 4x4 matrix m (rows of numbers, or an ndarray) has all
    eigenvalues >= -PSD_TOL, i.e. iff every pivot of the LDL^H elimination (Cholesky
    without square roots) of m + PSD_TOL I is > 0. Its backward error is ~n eps ||m||
    (Higham, Accuracy and Stability, 2nd ed., 10.1). The elimination is written out for
    n = 4, in the order of the n x n loop, on a row of Python floats and complex numbers
    as given; a row with any other number (a numpy scalar, an int) is read as complex.

    Raises ValueError("expected a 4x4 matrix") for any other shape, an entry that is no
    number (text too) or a number past a float's range, and ValueError when m is not
    Hermitian within HERMITIAN_TOL, a pair whose difference overflows abs() included:
    a malformed input is a validation failure, not a "not PSD" verdict.
    """
    try:  # one read of all 16 entries; text, None or a list has no .real
        (a00, a01, a02, a03), (a10, a11, a12, a13), (a20, a21, a22, a23), (a30, a31, a32, a33) = [
            row if isinstance(row, _ROWS) and _AS_GIVEN.issuperset(map(type, row))
            else [complex(x.real, x.imag) for x in _plain(row)] for row in _plain(m)]
    except (AttributeError, TypeError, ValueError, OverflowError):
        raise ValueError("expected a 4x4 matrix") from None
    try:  # the 10 pairs (i, j >= i), in row order
        hermitian = (
            abs(a00 - a00.conjugate()) <= HERMITIAN_TOL and abs(a01 - a10.conjugate()) <= HERMITIAN_TOL
            and abs(a02 - a20.conjugate()) <= HERMITIAN_TOL and abs(a03 - a30.conjugate()) <= HERMITIAN_TOL
            and abs(a11 - a11.conjugate()) <= HERMITIAN_TOL and abs(a12 - a21.conjugate()) <= HERMITIAN_TOL
            and abs(a13 - a31.conjugate()) <= HERMITIAN_TOL and abs(a22 - a22.conjugate()) <= HERMITIAN_TOL
            and abs(a23 - a32.conjugate()) <= HERMITIAN_TOL and abs(a33 - a33.conjugate()) <= HERMITIAN_TOL
        )
    except OverflowError:  # a difference past ~1.8e308 in modulus
        hermitian = False
    if not hermitian:
        raise ValueError("density matrix is not Hermitian")
    # row i below the diagonal: s_ik = a_ik - sum_q s_iq conj(l_kq) and l_ik = s_ik / p_k (s_i0 = a_i0),
    # then the pivot p_i = Re a_ii + PSD_TOL - sum_k Re(s_ik conj(l_ik)), each sum subtracted term by term
    p0 = a00.real + PSD_TOL
    if not p0 > 0.0:
        return False
    l10 = a10 / p0
    p1 = a11.real + PSD_TOL - (a10 * l10.conjugate()).real
    if not p1 > 0.0:
        return False
    l20, s21 = a20 / p0, a21 - a20 * l10.conjugate()
    l21 = s21 / p1
    p2 = a22.real + PSD_TOL - (a20 * l20.conjugate()).real - (s21 * l21.conjugate()).real
    if not p2 > 0.0:
        return False
    l30, s31 = a30 / p0, a31 - a30 * l10.conjugate()
    l31 = s31 / p1
    s32 = a32 - a30 * l20.conjugate() - s31 * l21.conjugate()
    l32 = s32 / p2
    p3 = a33.real + PSD_TOL - (a30 * l30.conjugate()).real - (s31 * l31.conjugate()).real - (s32 * l32.conjugate()).real
    return p3 > 0.0
