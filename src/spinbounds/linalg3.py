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
_ROWS = (list, tuple)  # the kernels read these as is and any other matrix (an ndarray) as rows of floats


def sym3_traces(a) -> tuple[float, float, float]:
    """Trace powers (tr A, tr A^2, tr A^3) of a symmetric 3x3 matrix (rows).

    Computed directly from the entries, not via eigenvalues. Raises
    ValueError when tr A^3 overflows.
    """
    if not isinstance(a, _ROWS):  # an ndarray: compute on Python floats
        a = [list(map(float, row)) for row in a]
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
    if not isinstance(a, _ROWS):  # an ndarray: compute on Python floats
        a = [list(map(float, row)) for row in a]
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
    if not isinstance(a, _ROWS):  # an ndarray: compute on Python floats
        a = [list(map(float, row)) for row in a]
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = a
    l0, l1, l2 = float(lams[0]), float(lams[1]), float(lams[2])
    top = l0 - l1 >= l1 - l2
    v, p, q = _split(a, l0 if top else l2)[:3]
    (x0, y0, z0), (x1, y1, z1), (x2, y2, z2) = vecs = (v, p, q) if top else (p, q, v)
    # the columns (r_k, s_k, t_k) of A V^T, then the diagonal and upper triangle of E and G
    r0, s0, t0 = a00 * x0 + a01 * y0 + a02 * z0, a10 * x0 + a11 * y0 + a12 * z0, a20 * x0 + a21 * y0 + a22 * z0
    r1, s1, t1 = a00 * x1 + a01 * y1 + a02 * z1, a10 * x1 + a11 * y1 + a12 * z1, a20 * x1 + a21 * y1 + a22 * z1
    r2, s2, t2 = a00 * x2 + a01 * y2 + a02 * z2, a10 * x2 + a11 * y2 + a12 * z2, a20 * x2 + a21 * y2 + a22 * z2
    e0, e1, e2 = x0 * r0 + y0 * s0 + z0 * t0 - l0, x1 * r1 + y1 * s1 + z1 * t1 - l1, x2 * r2 + y2 * s2 + z2 * t2 - l2
    e01, e02, e12 = x0 * r1 + y0 * s1 + z0 * t1, x0 * r2 + y0 * s2 + z0 * t2, x1 * r2 + y1 * s2 + z1 * t2
    g0, g1, g2 = x0 * x0 + y0 * y0 + z0 * z0 - 1.0, x1 * x1 + y1 * y1 + z1 * z1 - 1.0, x2 * x2 + y2 * y2 + z2 * z2 - 1.0
    g01, g02, g12 = x0 * x1 + y0 * y1 + z0 * z1, x0 * x2 + y0 * y2 + z0 * z2, x1 * x2 + y1 * y2 + z1 * z2
    e_norm = sqrt(e0 * e0 + e1 * e1 + e2 * e2 + 2.0 * (e01 * e01 + e02 * e02 + e12 * e12))
    g_norm = sqrt(g0 * g0 + g1 * g1 + g2 * g2 + 2.0 * (g01 * g01 + g02 * g02 + g12 * g12))
    return vecs, e_norm + (abs(a00) + abs(a11) + abs(a22)) * g_norm


def _split(b, z):
    """(v, p, q, hi, lo): v is the unit eigenvector of symmetric B (rows
    `b`) for its simple eigenvalue z, and (hi, p), (lo, q) are the
    eigenpairs of B on v's orthogonal complement.

    v is the longest cross product of two rows of B - zI (Kopp), the first
    on a tie, or e_z where all three vanish; a power-of-two rescale of B,
    which changes no bit of v, keeps their squares from overflowing or
    underflowing. The 2x2 block on the complement (u, w) is solved with
    hypot, so a near-double pair keeps its tiny gap; a scalar block keeps
    p = u.
    """
    (b00, b01, b02), (b10, b11, b12), (b20, b21, b22) = b
    d0, d1, d2 = b00 - z, b11 - z, b22 - z  # B - zI has rows (d0, b01, b02), (b01, d1, b12), (b02, b12, d2)
    vx, vy, vz = b01 * b12 - b02 * d1, b02 * b01 - d0 * b12, d0 * d1 - b01 * b01  # row 0 x row 1
    length = vx * vx + vy * vy + vz * vz
    cx, cy, cz = b01 * d2 - b02 * b12, b02 * b02 - d0 * d2, d0 * b12 - b01 * b02  # row 0 x row 2
    if (n := cx * cx + cy * cy + cz * cz) > length:
        vx, vy, vz, length = cx, cy, cz, n
    cx, cy, cz = d1 * d2 - b12 * b12, b12 * b02 - b01 * d2, b01 * b12 - d1 * b02  # row 1 x row 2
    if (n := cx * cx + cy * cy + cz * cz) > length:
        vx, vy, vz, length = cx, cy, cz, n
    if not 1e-250 < length < 1e250:
        e = -frexp(max(abs(d0), abs(b01), abs(b02), abs(d1), abs(b12), abs(d2)))[1]
        if e:  # rows of B - zI near unit size are never rescaled, so this recurses once
            v, p, q, hi, lo = _split([[ldexp(x, e) for x in row] for row in b], ldexp(z, e))
            return v, p, q, ldexp(hi, -e), ldexp(lo, -e)
    f = 1.0 / sqrt(length) if length else 0.0
    vx, vy, vz = (vx * f, vy * f, vz * f) if length else (0.0, 0.0, 1.0)
    ux, uy, uz = (-vz, 0.0, vx) if abs(vx) > abs(vy) else (0.0, vz, -vy)
    f = 1.0 / sqrt(ux * ux + uy * uy + uz * uz)
    ux, uy, uz = ux * f, uy * f, uz * f
    wx, wy, wz = vy * uz - vz * uy, vz * ux - vx * uz, vx * uy - vy * ux  # w = v x u
    bux, buy, buz = b00 * ux + b01 * uy + b02 * uz, b10 * ux + b11 * uy + b12 * uz, b20 * ux + b21 * uy + b22 * uz
    bwx, bwy, bwz = b00 * wx + b01 * wy + b02 * wz, b10 * wx + b11 * wy + b12 * wz, b20 * wx + b21 * wy + b22 * wz
    m_uu, m_ww, m_uw = ux * bux + uy * buy + uz * buz, wx * bwx + wy * bwy + wz * bwz, wx * bux + wy * buy + wz * buz
    mean, half_gap = 0.5 * (m_uu + m_ww), hypot(0.5 * (m_uu - m_ww), m_uw)
    t = 0.5 * atan2(2.0 * m_uw, m_uu - m_ww)  # the rotation that diagonalizes the block
    cs, sn = cos(t), sin(t)
    p = (cs * ux + sn * wx, cs * uy + sn * wy, cs * uz + sn * wz)
    q = (cs * wx - sn * ux, cs * wy - sn * uy, cs * wz - sn * uz)
    return (vx, vy, vz), p, q, mean + half_gap, mean - half_gap


def _dot(p, q) -> float:
    return p[0] * q[0] + p[1] * q[1] + p[2] * q[2]


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
