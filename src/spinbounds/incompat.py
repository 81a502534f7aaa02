"""State-independent lower bound of additive variance sums for spin
observables ("incompatibility").

For directions n_1..n_N the minimum over all qubit states of
sum_i Var(n_i . sigma) equals tau1 - lambda_max(A), where
A = sum_i n_i n_i^T and tau1 = tr A. lambda_max has a closed form via the
trigonometric solution of the depressed characteristic cubic: the kernel
`sym3_spectrum` and its residual certificate `sym3_certificate`, at the end
of this module, on rows of Python numbers. `import spinbounds` compiles
this module alone; the reference checkers in `linalg3` load on first use.
"""

from __future__ import annotations

import sys
from itertools import chain
from math import acos, atan2, copysign, cos, frexp, hypot, isfinite, ldexp, pi, sin, sqrt
from typing import NamedTuple

_UNIT_TOL = 2e-9  # | |n|^2 - 1 | allowed where a direction must be unit length
_GRAM_PSD_TOL = 1e-9
# The certificate must bound the closed form's error by this fraction of tr A.
_CERTIFICATE_RTOL = 1e-9
_TWO_PI_3 = 2.0 * pi / 3.0
# Deflate when 1 - |beta/alpha^3| falls below this: outside the band the
# trig roots of the closest pair lose at most ~1e-16/sqrt(band) of alpha.
_DEFLATE_BAND = 1e-4
_ROWS = (list, tuple)  # the kernels read these as is and any other matrix (an ndarray) as rows of floats


class Sym3Spectrum(NamedTuple):
    """Eigenvalues of a symmetric 3x3 matrix A, descending, and the
    coefficients (alpha, beta) of its depressed characteristic cubic
    z^3 - 3 alpha^2 z - 2 beta, z = lambda - tr A / 3."""

    lam_max: float
    lam_mid: float
    lam_min: float
    alpha: float
    beta: float


class IncompatibilityResult(NamedTuple):  # `incompat --json` prints these fields, in this order
    value: float
    lambda_max: float
    optimizer: tuple[float, float, float]  # unit Bloch vector achieving the bound
    alpha: float  # (alpha, beta) of the depressed cubic z^3 - 3a^2 z - 2b
    beta: float
    traces: tuple[float, float, float]


def _plain(x):
    """An ndarray as nested lists of Python scalars (~20x faster to read than its
    scalars; complex stays complex); text or a dict raises TypeError; else as given."""
    if type(x) not in _ROWS:  # most calls pass a list or a tuple: they skip the numpy lookup
        np = sys.modules.get("numpy")
        x = x.tolist() if np is not None and isinstance(x, np.ndarray) else x
        if isinstance(x, (str, bytes, bytearray, memoryview, dict)):  # not a sequence of its characters or keys
            raise TypeError(f"a {type(x).__name__} is not a sequence of numbers")
    return x


def _float(x) -> float:
    """float(x) of a number, a bool too: text ("1" too) raises float()'s ValueError, an
    int past a float's range its OverflowError, and a numpy complex scalar its TypeError
    for a Python complex, where float() would drop the imaginary part with a warning."""
    if type(x) is not float and isinstance(x, (str, bytes, bytearray)):  # the type test spares floats the tuple
        raise ValueError(f"could not convert string to float: {x!r}")
    np = sys.modules.get("numpy")
    return float(complex(x) if np is not None and isinstance(x, np.complexfloating) else x)


def validate_directions(directions) -> list[tuple[float, float, float]]:
    """Validate directions: N >= 1 rows of 3 finite components, no zero row.

    Every input, an ndarray too, comes back as a list of 3-tuples of Python
    floats. An ndarray, or an ndarray row, is read through `tolist()`, so a
    complex one stays complex and is rejected as that list would be, and so
    is a numpy complex scalar.
    """
    try:
        d = [tuple(map(_float, _plain(row))) for row in _plain(directions)]
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"expected N x 3 directions: {exc}") from None
    shape = (len(d), *sorted({len(row) for row in d}))
    if 0 in shape:
        raise ValueError("need at least one direction")
    if len(shape) != 2 or shape[1] != 3:
        raise ValueError(f"expected N x 3 directions, got shape {shape}")
    if not all(map(isfinite, chain.from_iterable(d))):
        raise ValueError("directions have non-finite components")
    if not all(map(any, d)):
        raise ValueError(f"direction {next(i for i, row in enumerate(d) if not any(row))} has zero length")
    return d


def moment_matrix(directions) -> tuple[tuple, tuple[float, float, float]]:
    """Second-moment matrix A = sum_i n_i n_i^T = D^T D, as rows of floats,
    and its trace powers, in one pass: a real 2-D ndarray takes D^T D, other
    input is summed in floats as its rows are read. A non-finite diagonal, a
    row that is not 3 numbers, a zero row or no row at all sends the input to
    `validate_directions`, which words the rejection."""
    np = sys.modules.get("numpy")
    array = np is not None and isinstance(directions, np.ndarray)
    # D^T D takes ~9-12 us at any N; tolist() and the float loop take 3 us at N = 2 but 37 us at N = 128 (timeit)
    if array and directions.ndim == 2 and directions.dtype.kind in "biuf":
        d = np.asarray(directions, dtype=float)
        with np.errstate(invalid="ignore", over="ignore"):  # syrk: exactly symmetric; the checks below catch inf
            a = (d.T @ d).tolist() if d.shape[1] == 3 and np.count_nonzero(d.any(axis=1)) == len(d) else None
    else:  # validate_directions reads an iterable once, and any other ndarray through tolist()
        d = directions if isinstance(directions, _ROWS) else validate_directions(directions)
        a = None
        try:
            xx = xy = xz = yy = yz = zz = 0.0  # each sum adds in row order from 0.0, as sum() did before 3.12
            for row in d:
                x, y, z = row if isinstance(row, _ROWS) else _plain(row)
                if not (type(x) is float and type(y) is float and type(z) is float):
                    x, y, z = _float(x), _float(y), _float(z)
                if not (x or y or z):
                    break
                xx, xy, xz = xx + x * x, xy + x * y, xz + x * z
                yy, yz, zz = yy + y * y, yz + y * z, zz + z * z
            else:
                a = ((xx, xy, xz), (xy, yy, yz), (xz, yz, zz))
        except (TypeError, ValueError, OverflowError):
            pass
    if not (a and len(d) and isfinite(a[0][0] + a[1][1] + a[2][2])):
        validate_directions(d)  # raises, unless every component is finite and A overflowed
    return a, sym3_traces(a)  # sym3_traces also rejects an A or a tr A^3 that overflowed


def lambda_max_from_traces(traces: tuple[float, float, float]) -> float:
    """Largest eigenvalue of a 3x3 symmetric PSD matrix from its traces.

    tau1/3 + 2 alpha cos(acos(beta/alpha^3) / 3), with alpha = sqrt((3 tau2
    - tau1^2)/18) and beta = tau1^3/27 + tau3/6 - tau1 tau2/6; a radicand
    that roundoff pushed below zero, by at most 1e-12 tau1^2, clamps to
    zero. These coefficients cancel near double roots (an error up to
    ~1.1e-8 tau1), so the package takes lambda_max from `sym3_spectrum`;
    this entry stays only because `bench/baseline.py` times it.
    """
    t1, t2, t3 = traces
    radicand = (3.0 * t2 - t1 * t1) / 18.0
    if radicand < -1e-12 * t1 * t1:
        raise ValueError(f"inconsistent traces: 3*tau2 - tau1^2 = {18 * radicand:.3e} < 0")
    alpha = sqrt(max(radicand, 0.0))
    if alpha <= 1e-12 * abs(t1):  # a triple eigenvalue tau1/3: beta/alpha^3 would be 0/0
        return t1 / 3.0
    beta = t1 * t1 * t1 / 27.0 + t3 / 6.0 - t1 * t2 / 6.0
    return t1 / 3.0 + cubic_roots(alpha, beta / alpha**3)[0]


def optimal_bloch(directions) -> tuple[float, float, float]:
    """Unit Bloch vector of a pure state attaining the minimum variance sum
    (`IncompatibilityResult.optimizer`); kept only because
    `bench/baseline.py` times it."""
    return incompatibility(directions).optimizer


def _certified_spectrum(a, trace: float) -> tuple[Sym3Spectrum, tuple]:
    """`sym3_spectrum(a)` and its certified eigenvector rows, or ArithmeticError (see `incompatibility`)."""
    spec = sym3_spectrum(a)
    vecs, bound = sym3_certificate(a, spec)
    if not bound <= _CERTIFICATE_RTOL * trace:
        raise ArithmeticError(f"closed-form eigenvalue {spec[0]!r} fails its residual certificate: "
                              f"the spectrum may be off by {bound:.3e} > {_CERTIFICATE_RTOL} * tr A")
    return spec, vecs


def incompatibility(directions) -> IncompatibilityResult:
    """Minimum over all qubit states of the summed variances of n_i . sigma.

    Closed-form spectral value; `sym3_certificate` must place the
    whole closed-form spectrum within 1e-9 of tr A, else ArithmeticError.
    The optimizer is the certificate's top eigenvector (its rule picks one
    in a double or triple top eigenspace, e_z for A = I), sign-fixed so its
    first nonzero component is positive (both signs are equivalent).
    """
    a, traces = moment_matrix(directions)
    (lam, _, _, alpha, beta), vecs = _certified_spectrum(a, traces[0])
    x, y, z = vecs[0]
    sign = -1.0 if (x or y or z) < 0.0 else 1.0
    optimizer = (sign * x + 0.0, sign * y + 0.0, sign * z + 0.0)  # + 0.0 turns -0.0 into 0.0
    return IncompatibilityResult(traces[0] - lam, lam, optimizer, alpha, beta, traces)


def incompatibility_pair(n1, n2) -> float:
    """Two-direction bound: n1^2 + n2^2 - lambda_max of the 2x2 Gram matrix.

    For unit directions this reduces to 1 - |n1 . n2|. Arbitrary nonzero
    lengths are allowed up to ~1.3e154, where a squared length overflows.
    """
    v1, v2 = validate_directions([n1, n2])
    s1, s2, dot = _dot(v1, v1), _dot(v2, v2), _dot(v1, v2)
    if not (isfinite(s1) and isfinite(s2)):
        raise ValueError("squared direction length overflows: directions longer than ~1.3e154")
    return 0.5 * s1 + 0.5 * s2 - hypot(0.5 * (s1 - s2), dot)


def _gram_spectrum(theta1: float, theta2: float, theta3: float) -> Sym3Spectrum:
    """Spectrum of the Gram matrix of three unit vectors with the given
    pairwise angles; raises unless every angle is finite and the Gram matrix
    is PSD (the triple is realizable)."""
    for i, theta in enumerate((theta1, theta2, theta3), 1):
        if not isfinite(theta):
            raise ValueError(f"angle theta{i} = {theta} is not finite")
    c1, c2, c3 = cos(theta1), cos(theta2), cos(theta3)
    spec = sym3_spectrum(((1.0, c3, c2), (c3, 1.0, c1), (c2, c1, 1.0)))
    if spec.lam_min < -_GRAM_PSD_TOL:
        raise ValueError(
            f"angle triple is not realizable by unit vectors: "
            f"Gram eigenvalue {spec.lam_min:.6g} < 0"
        )
    return spec


def incompatibility_from_angles(theta1: float, theta2: float, theta3: float) -> float:
    """Bound for three unit directions given only their pairwise angles.

    The moment matrix and the Gram matrix share their nonzero spectrum, so
    the bound is 3 - lambda_max(Gram), without reconstructing vectors.
    Rejects a non-finite angle and angle triples not realizable by unit
    vectors in 3-space (Gram matrix not PSD).
    """
    return 3.0 - _gram_spectrum(theta1, theta2, theta3).lam_max


def directions_from_angles(theta1: float, theta2: float, theta3: float) -> list[tuple[float, float, float]]:
    """Explicit unit vectors (rows) with the given pairwise angles (one choice).

    Raises for non-finite angles and non-realizable triples, same
    conditions as `incompatibility_from_angles`.
    """
    _gram_spectrum(theta1, theta2, theta3)
    c1, c2, c3 = cos(theta1), cos(theta2), cos(theta3)
    n1 = (1.0, 0.0, 0.0)
    s3 = sqrt(max(1.0 - c3 * c3, 0.0))
    if s3 == 0.0:
        n2 = (copysign(1.0, c3), 0.0, 0.0)
    else:
        n2 = (c3, s3, 0.0)
    x = c2
    y = (c1 - c3 * c2) / s3 if s3 > 0.0 else 0.0
    z = sqrt(max(1.0 - x * x - y * y, 0.0))
    return [n1, n2, (x, y, z)]


def sym3_traces(a) -> tuple[float, float, float]:
    """Trace powers (tr A, tr A^2, tr A^3) of a symmetric 3x3 matrix (rows).

    Computed directly from the entries, not via eigenvalues. Raises
    ValueError when tr A^3 overflows, or an entry (an int) lies past a float's range.
    """
    try:
        if not isinstance(a, _ROWS):  # an ndarray: compute on Python floats
            a = [list(map(_float, row)) for row in a]
        (a00, a01, a02), (_, a11, a12), (_, _, a22) = a
        d2 = a01 * a01, a02 * a02, a12 * a12
        t1 = a00 + a11 + a22
        t2 = a00 * a00 + a11 * a11 + a22 * a22 + 2.0 * (d2[0] + d2[1] + d2[2])
        t3 = (a00 * a00 * a00 + a11 * a11 * a11 + a22 * a22 * a22
              + 3.0 * (d2[0] * (a00 + a11) + d2[1] * (a00 + a22) + d2[2] * (a11 + a22)) + 6.0 * a01 * a02 * a12)
    except OverflowError as exc:  # an int past a float's range in a list
        raise ValueError(f"expected a 3x3 matrix in a float's range: {exc}") from None
    if not isfinite(t3):
        raise ValueError("tr A^3 overflows: entries of A above ~5.6e102 (directions longer than ~2.4e51)")
    return t1, t2, t3


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
    orthogonal complement (Kopp, arXiv:physics/0610206). A non-finite eigenvalue
    raises ValueError; beta = s^3 det(B / s) / 2, returned as it is, overflows
    past s ~ 5.6e102 (inf, or NaN where det B = 0) with finite eigenvalues.
    """
    try:
        if not isinstance(a, _ROWS):  # an ndarray: compute on Python floats
            a = [list(map(_float, row)) for row in a]
        (a00, a01, a02), (_, a11, a12), (_, _, a22) = a
        shift = (a00 + a11 + a22) / 3.0
        b00, b11, b22 = a00 - shift, a11 - shift, a22 - shift
        s = max(abs(b00), abs(b11), abs(b22), abs(a01), abs(a02), abs(a12))
        if s == 0.0:
            return Sym3Spectrum(shift, shift, shift, 0.0, 0.0)
        b00, b11, b22, b01, b02, b12 = b00 / s, b11 / s, b22 / s, a01 / s, a02 / s, a12 / s
        alpha = sqrt((b00 * b00 + b11 * b11 + b22 * b22 + 2.0 * (b01 * b01 + b02 * b02 + b12 * b12)) / 6.0)
        beta = 0.5 * (b00 * (b11 * b22 - b12 * b12) - b01 * (b01 * b22 - b12 * b02) + b02 * (b01 * b12 - b11 * b02))
        ratio = beta / alpha**3
        roots = cubic_roots(alpha, ratio)
        if abs(ratio) > 1.0 - _DEFLATE_BAND:
            z = roots[0] if ratio > 0.0 else roots[2]
            hi, lo = _split(((b00, b01, b02), (b01, b11, b12), (b02, b12, b22)), z)[3:]
            roots = (z, hi, lo) if ratio > 0.0 else (hi, lo, z)
        l0, l1, l2 = shift + s * roots[0], shift + s * roots[1], shift + s * roots[2]
        if 0.0 * l0 * l1 * l2 != 0.0:  # +-0.0 times x stays +-0.0 only while x is finite
            raise ValueError("expected a 3x3 matrix in a float's range: an eigenvalue is not finite")
        return Sym3Spectrum(l0, l1, l2, s * alpha, s * s * s * beta)
    except OverflowError as exc:  # an int past a float's range in a list
        raise ValueError(f"expected a 3x3 matrix in a float's range: {exc}") from None


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
    try:
        if not isinstance(a, _ROWS):  # an ndarray: compute on Python floats
            a = [list(map(_float, row)) for row in a]
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
    except OverflowError as exc:  # an int past a float's range in a list, or an eigenvalue past it
        raise ValueError(f"expected a 3x3 matrix in a float's range: {exc}") from None


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
