"""Small fixed-size linear algebra: 3x3 symmetric spectral tools and
Hermitian/PSD checks.

The closed-form spectrum, its certificate, the reference Jacobi solver and
the Hermitian/PSD check run on rows of Python numbers, without numpy.
"""

from __future__ import annotations

from math import acos, atan2, copysign, cos, frexp, hypot, isfinite, ldexp, pi, sin, sqrt
from operator import itemgetter
from typing import NamedTuple

HERMITIAN_TOL = 1e-12
PSD_TOL = 1e-9

_TWO_PI_3 = 2.0 * pi / 3.0
# Deflate when 1 - |beta/alpha^3| falls below this: outside the band the
# trig roots of the closest pair lose at most ~1e-16/sqrt(band) of alpha.
_DEFLATE_BAND = 1e-4

# Jacobi sweep termination: off-diagonal Frobenius norm relative to the
# matrix scale, with a hard sweep cap (a 3x3 converges in a handful).
_JACOBI_REL_TOL = 1e-14
_JACOBI_MAX_SWEEPS = 50


def sym3_traces(a) -> tuple[float, float, float]:
    """Trace powers (tr A, tr A^2, tr A^3) of a symmetric 3x3 matrix (rows).

    Computed directly from the entries, not via eigenvalues. Raises
    ValueError when tr A^3 overflows.
    """
    (a00, a01, a02), (_, a11, a12), (_, _, a22) = a
    d2 = a01 * a01, a02 * a02, a12 * a12
    t1 = a00 + a11 + a22
    t2 = a00 * a00 + a11 * a11 + a22 * a22 + 2.0 * (d2[0] + d2[1] + d2[2])
    t3 = (
        a00 * a00 * a00 + a11 * a11 * a11 + a22 * a22 * a22
        + 3.0 * (d2[0] * (a00 + a11) + d2[1] * (a00 + a22) + d2[2] * (a11 + a22))
        + 6.0 * a01 * a02 * a12
    )
    if not isfinite(t3):
        raise ValueError("tr A^3 overflows: entries of A above ~5.6e102 (directions longer than ~2.4e51)")
    return t1, t2, t3


class Sym3Spectrum(NamedTuple):
    """Eigenvalues of a symmetric 3x3 matrix A, descending, and the
    coefficients (alpha, beta) of its depressed characteristic cubic
    z^3 - 3 alpha^2 z - 2 beta, z = lambda - tr A / 3."""

    lam_max: float
    lam_mid: float
    lam_min: float
    alpha: float
    beta: float


def cubic_roots(alpha: float, ratio: float) -> tuple[float, float, float]:
    """Roots, descending, of z^3 - 3 alpha^2 z - 2 alpha^3 ratio.

    Trigonometric solution z_k = 2 alpha cos((acos(ratio) - 2 pi k)/3);
    the ratio is clamped to [-1, 1] because roundoff can push it
    marginally outside the all-real-roots region.
    """
    phi = acos(min(1.0, max(-1.0, ratio))) / 3.0
    two_alpha = 2.0 * alpha
    return (
        two_alpha * cos(phi),
        two_alpha * cos(phi - _TWO_PI_3),
        two_alpha * cos(phi + _TWO_PI_3),
    )


def sym3_spectrum(a) -> Sym3Spectrum:
    """Closed-form eigenvalues of a symmetric 3x3 matrix (rows, upper triangle read).

    Works on the shifted matrix B = A - (tr A / 3) I scaled by its largest
    absolute entry s, so alpha^2 = tr B^2 / 6 and beta = det B / 2 carry no
    tau1^3 cancellation and never overflow (Smith, CACM 4(4):168, 1961).
    Where the ratio beta/alpha^3 is within _DEFLATE_BAND of +-1, two roots
    nearly coincide and acos turns roundoff into an error of ~1e-8 alpha;
    there only the well-separated root is taken from the trig formula, and
    the other two come exactly from the 2x2 block of B on its eigenvector's
    orthogonal complement (Kopp, arXiv:physics/0610206).
    """
    (a00, a01, a02), (_, a11, a12), (_, _, a22) = a
    shift = (a00 + a11 + a22) / 3.0
    b00, b11, b22 = a00 - shift, a11 - shift, a22 - shift
    s = max(abs(b00), abs(b11), abs(b22), abs(a01), abs(a02), abs(a12))
    if s == 0.0:
        return Sym3Spectrum(shift, shift, shift, 0.0, 0.0)
    b00, b11, b22, b01, b02, b12 = b00 / s, b11 / s, b22 / s, a01 / s, a02 / s, a12 / s
    alpha = sqrt((b00 * b00 + b11 * b11 + b22 * b22 + 2.0 * (b01 * b01 + b02 * b02 + b12 * b12)) / 6.0)
    beta = 0.5 * (
        b00 * (b11 * b22 - b12 * b12) - b01 * (b01 * b22 - b12 * b02) + b02 * (b01 * b12 - b11 * b02)
    )
    ratio = beta / alpha**3
    roots = cubic_roots(alpha, ratio)
    if abs(ratio) > 1.0 - _DEFLATE_BAND:
        z = roots[0] if ratio > 0.0 else roots[2]
        hi, lo = _split(((b00, b01, b02), (b01, b11, b12), (b02, b12, b22)), z)[3:]
        roots = (z, hi, lo) if ratio > 0.0 else (hi, lo, z)
    return Sym3Spectrum(
        shift + s * roots[0], shift + s * roots[1], shift + s * roots[2], s * alpha, s * s * s * beta
    )


def sym3_certificate(a, lams) -> tuple[tuple, float]:
    """Orthonormal eigenvector rows V of symmetric `a` for its claimed
    eigenvalues `lams` (descending), and a bound on every |lambda_k(A) -
    lams[k]|: ||E||_F + tr|A| ||G||_F with E = V A V^T - diag(lams) and
    G = V V^T - I (Weyl's inequality and Ostrowski's theorem; Parlett, The
    Symmetric Eigenvalue Problem, sections 4 and 11).

    Any V makes the bound valid; a good one makes it small. V is built from
    the better separated outer eigenvalue (the top one on a tie) by `_split`,
    which fixes the choice in a degenerate eigenspace: A = lambda I gives
    V[0] = e_z.
    """
    k = 0 if lams[0] - lams[1] >= lams[1] - lams[2] else 2
    v, p, q = _split(a, lams[k])[:3]
    v0, v1, v2 = (v, p, q) if k == 0 else (p, q, v)
    av0, av1, av2 = _matvec(a, v0), _matvec(a, v1), _matvec(a, v2)
    e_diag = (_dot(v0, av0) - lams[0], _dot(v1, av1) - lams[1], _dot(v2, av2) - lams[2])
    e_off = (_dot(v0, av1), _dot(v0, av2), _dot(v1, av2))
    g_diag = (_dot(v0, v0) - 1.0, _dot(v1, v1) - 1.0, _dot(v2, v2) - 1.0)
    g_off = (_dot(v0, v1), _dot(v0, v2), _dot(v1, v2))
    e_norm = sqrt(_dot(e_diag, e_diag) + 2.0 * _dot(e_off, e_off))
    g_norm = sqrt(_dot(g_diag, g_diag) + 2.0 * _dot(g_off, g_off))
    return (v0, v1, v2), e_norm + (abs(a[0][0]) + abs(a[1][1]) + abs(a[2][2])) * g_norm


def _split(b, z):
    """(v, p, q, hi, lo): v is the unit eigenvector of symmetric B (rows
    `b`) for its simple eigenvalue z, and (hi, p), (lo, q) are the
    eigenpairs of B on v's orthogonal complement.

    v is the longest cross product of two rows of B - zI (Kopp), or e_z
    where all three vanish; a power-of-two rescale of B, which changes no
    bit of v, keeps their squares from overflowing or underflowing. The 2x2 block on the complement
    (u, w) is solved with hypot, so a near-double pair keeps its tiny gap;
    a scalar block keeps p = u.
    """
    (b00, b01, b02), (_, b11, b12), (_, _, b22) = b
    r0, r1, r2 = (b00 - z, b01, b02), (b01, b11 - z, b12), (b02, b12, b22 - z)
    crosses = (_cross(r0, r1), _cross(r0, r2), _cross(r1, r2))
    lengths = [_dot(x, x) for x in crosses]
    length = max(lengths)
    e = 0 if 1e-250 < length < 1e250 else -frexp(max(map(abs, r0 + r1 + r2)))[1]
    if e:  # rows of B - zI near unit size are never rescaled, so this recurses once
        v, p, q, hi, lo = _split([[ldexp(x, e) for x in row] for row in b], ldexp(z, e))
        return v, p, q, ldexp(hi, -e), ldexp(lo, -e)
    v = _scale(crosses[lengths.index(length)], 1.0 / sqrt(length)) if length else (0.0, 0.0, 1.0)
    u = (-v[2], 0.0, v[0]) if abs(v[0]) > abs(v[1]) else (0.0, v[2], -v[1])
    u = _scale(u, 1.0 / sqrt(_dot(u, u)))
    w = _cross(v, u)
    bu, bw = _matvec(b, u), _matvec(b, w)
    m_uu, m_ww, m_uw = _dot(u, bu), _dot(w, bw), _dot(w, bu)
    mean, half_gap = 0.5 * (m_uu + m_ww), hypot(0.5 * (m_uu - m_ww), m_uw)
    t = 0.5 * atan2(2.0 * m_uw, m_uu - m_ww)  # the rotation that diagonalizes the block
    cs, sn = cos(t), sin(t)
    p = (cs * u[0] + sn * w[0], cs * u[1] + sn * w[1], cs * u[2] + sn * w[2])
    q = (cs * w[0] - sn * u[0], cs * w[1] - sn * u[1], cs * w[2] - sn * u[2])
    return v, p, q, mean + half_gap, mean - half_gap


def _dot(p, q) -> float:
    return p[0] * q[0] + p[1] * q[1] + p[2] * q[2]


def _cross(p, q) -> tuple[float, float, float]:
    return (p[1] * q[2] - p[2] * q[1], p[2] * q[0] - p[0] * q[2], p[0] * q[1] - p[1] * q[0])


def _scale(p, f) -> tuple[float, float, float]:
    return (p[0] * f, p[1] * f, p[2] * f)


def _matvec(b, x) -> tuple[float, float, float]:
    return (_dot(b[0], x), _dot(b[1], x), _dot(b[2], x))


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


def hermitian_psd_check(m, tol: float = PSD_TOL) -> bool:
    """True iff the Hermitian matrix m (rows of numbers, or an ndarray) has
    all eigenvalues >= -tol, i.e. iff every pivot of the LDL^H elimination
    (Cholesky without square roots) of m + tol I is > 0. Its backward error
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
        pivot = a_row[i].real + tol
        for q in range(i):
            pivot -= (scaled[q] * row[q].conjugate()).real
        if not pivot > 0.0:
            return False
        pivots.append(pivot)
        low.append(row)
    return True
