"""State-independent lower bound of additive variance sums for spin
observables ("incompatibility").

For directions n_1..n_N the minimum over all qubit states of
sum_i Var(n_i . sigma) equals tau1 - lambda_max(A), where
A = sum_i n_i n_i^T and tau1 = tr A. lambda_max has a closed form via the
trigonometric solution of the depressed characteristic cubic: the kernel
`sym3_spectrum`, at the end of this module, on rows of Python numbers, takes
its three trigonometric roots inline, and `incompatibility_from_angles` calls
it once on the Gram matrix of an angle triple.
`_certified_spectrum` certifies lambda_max alone, not the whole spectrum,
within 1e-9 tr A: an LDL^T inertia test (`_pd`) bounds it above, and the
optimizer's Rayleigh quotient bounds it below, or, for the criteria, which
need no optimizer, a second inertia test. `import spinbounds` compiles this
module alone; the reference checkers in `linalg3` load on first use.
"""

from __future__ import annotations

import sys
from itertools import chain
from math import acos, atan2, cos, frexp, hypot, inf, isfinite, ldexp, pi, sin, sqrt
from typing import NamedTuple

_UNIT_TOL = 2e-9  # | |n|^2 - 1 | allowed where a direction must be unit length
_GRAM_PSD_TOL = 1e-9
# The certificate must bound the closed form's error by this fraction of tr A.
_CERTIFICATE_RTOL = 1e-9
_TWO_PI_3 = 2.0 * pi / 3.0
# Deflate when 1 - |beta/alpha^3| falls below this: outside the band the
# trig roots of the closest pair lose at most ~1e-16/sqrt(band) of alpha.
_DEFLATE_BAND = 1e-4
_DEFLATE_EDGE = 1.0 - _DEFLATE_BAND  # |beta/alpha^3| past which the kernel deflates
_FEW_ROWS = 12  # an ndarray of at most this many rows is checked on its tolist(): faster than numpy up to N ~ 12
_ROWS = (list, tuple)  # the readers take these as they are and any other sequence (an ndarray) through `_plain`


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
    """Second-moment matrix A = sum_i n_i n_i^T = D^T D, as rows of floats, and its
    trace powers, in one pass: a real 2-D ndarray takes D^T D, its rows checked on
    its tolist() up to _FEW_ROWS rows, else by numpy; other input is summed as its
    rows are read. A non-finite diagonal, a row that is not 3 numbers, a zero row or
    no row at all sends the input to `validate_directions`, which words the rejection."""
    np = sys.modules.get("numpy")
    array = np is not None and isinstance(directions, np.ndarray)
    # timeit: numpy's checks ~6.5 us at any N, the row check 5 us at N = 4 + 0.3 us a row, the loop 3-37 us (N 2-128)
    if array and directions.ndim == 2 and directions.dtype.kind in "biuf":
        d = np.asarray(directions, dtype=float)
        rows = d.tolist() if len(d) <= _FEW_ROWS and d.shape[1] == 3 else ()
        if rows and all(map(any, rows)) and sum(map(abs, chain.from_iterable(rows))) < 1e150:  # a NaN fails too
            a = (d.T @ d).tolist()  # no zero row, no inf or NaN, and |A_ij| < 1e300: no check or errstate needed
        else:
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
    return t1 / 3.0 + 2.0 * alpha * cos(acos(min(1.0, max(-1.0, beta / alpha**3))) / 3.0)


def optimal_bloch(directions) -> tuple[float, float, float]:
    """Unit Bloch vector of a pure state attaining the minimum variance sum
    (`IncompatibilityResult.optimizer`); kept only because
    `bench/baseline.py` times it."""
    return incompatibility(directions).optimizer


def _pd(a, t: float) -> bool:
    """tI - A is positive definite: the LDL^T pivots of tI - A are all positive. They are
    in ratio form, as a01 * a01 underflows where A is ~1e-160; a NaN fails each test."""
    (a00, a01, a02), (_, a11, a12), (_, _, a22) = a
    d0 = t - a00
    if not d0 > 0.0:
        return False
    r1, r2 = a01 / d0, a02 / d0
    d1, c = t - a11 - r1 * a01, a12 + r2 * a01
    return d1 > 0.0 and t - a22 - r2 * a02 - c / d1 * c > 0.0


def _certified_spectrum(a, trace: float, vector: bool = True) -> tuple[Sym3Spectrum, tuple | None]:
    """`sym3_spectrum(a)` and its top unit eigenvector v (None unless `vector`), or ArithmeticError.

    With tol = 1e-9 tr A: `_pd(a, l0 + tol)`, so no eigenvalue exceeds
    l0 + tol (Sylvester's law of inertia); some eigenvalue reaches l0 - tol:
    v's Rayleigh quotient, at most lambda_max, is at least l0 - tol, or,
    without v, `_pd(a, l0 - tol)` fails; l0 + l1 + l2 is tr A within tol; and
    alpha and beta are finite. No spectral gap enters.
    v is `_eigvec`'s for l0 when l0 - l1 >= l1 - l2, else `_split`'s p for l2.
    """
    spec = sym3_spectrum(a)
    l0, l1, l2, alpha, beta = spec
    tol = _CERTIFICATE_RTOL * trace
    if abs(l0 + l1 + l2 - trace) <= tol and 0.0 * alpha * beta == 0.0 and _pd(a, l0 + tol):  # a NaN fails each test
        if not vector:
            if not _pd(a, l0 - tol):
                return spec, None
        else:
            x, y, z = v = _eigvec(a, l0)[0] if l0 - l1 >= l1 - l2 else _split(a, l2)[1]
            (a00, a01, a02), (_, a11, a12), (_, _, a22) = a
            if (x * (a00 * x + a01 * y + a02 * z) + y * (a01 * x + a11 * y + a12 * z)
                    + z * (a02 * x + a12 * y + a22 * z) >= (l0 - tol) * (x * x + y * y + z * z)):
                return spec, v
    raise ArithmeticError(f"closed-form eigenvalue {l0!r} fails its residual certificate: lambda_max is not bracketed, "
                          f"or the spectrum does not sum to tr A, within {_CERTIFICATE_RTOL} * tr A, or alpha or beta "
                          f"is not finite")


def incompatibility(directions) -> IncompatibilityResult:
    """Minimum over all qubit states of the summed variances of n_i . sigma.

    Closed-form spectral value, certified by `_certified_spectrum` to
    tol = 1e-9 tr A, else ArithmeticError: lambda_max lies within tol, up to
    the LDL^T test's own backward error of ~1e-15 tr A (Higham, Accuracy and
    Stability of Numerical Algorithms, ch. 10); the optimizer attains the
    bound within 2 tol; and the spectrum sums to tr A within tol. The other
    two eigenvalues are not certified one by one. The optimizer is that
    function's top eigenvector (its rule picks one in a double or triple top
    eigenspace, e_z for A = I), sign-fixed so its first nonzero component is
    positive (both signs are equivalent).
    """
    a, traces = moment_matrix(directions)
    (lam, _, _, alpha, beta), (x, y, z) = _certified_spectrum(a, traces[0])
    sign = -1.0 if (x or y or z) < 0.0 else 1.0
    optimizer = (sign * x + 0.0, sign * y + 0.0, sign * z + 0.0)  # + 0.0 turns -0.0 into 0.0
    return tuple.__new__(IncompatibilityResult, (traces[0] - lam, lam, optimizer, alpha, beta, traces))


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


def incompatibility_from_angles(theta1: float, theta2: float, theta3: float) -> float:
    """Bound for three unit directions given only their pairwise angles.

    The moment matrix and the Gram matrix share their nonzero spectrum, so
    the bound is 3 - lambda_max(Gram), without reconstructing vectors.
    Rejects a non-finite angle and angle triples not realizable by unit
    vectors in 3-space (Gram matrix not PSD).
    """
    if not (type(theta1) is type(theta2) is type(theta3) is float
            and isfinite(theta1) and isfinite(theta2) and isfinite(theta3)):  # else read each, up to the first bad one
        for i, theta in enumerate((theta1, theta2, theta3), 1):
            try:  # text raises _float's ValueError, and a complex, a numpy one too, its TypeError
                theta = _float(theta)
            except OverflowError as exc:  # an int past a float's range
                raise ValueError(f"angle theta{i} is not in a float's range: {exc}") from None
            if not isfinite(theta):
                raise ValueError(f"angle theta{i} = {theta} is not finite")
    c1, c2, c3 = cos(theta1), cos(theta2), cos(theta3)
    lam_max, _, lam_min, _, _ = sym3_spectrum(((1.0, c3, c2), (c3, 1.0, c1), (c2, c1, 1.0)))
    if lam_min < -_GRAM_PSD_TOL:
        raise ValueError(f"angle triple is not realizable by unit vectors: Gram eigenvalue {lam_min:.6g} < 0")
    return 3.0 - lam_max


def directions_from_angles(theta1: float, theta2: float, theta3: float) -> list[tuple[float, float, float]]:
    """Explicit unit vectors (rows) with the given pairwise angles (one choice).

    Raises for non-finite angles and non-realizable triples, same
    conditions as `incompatibility_from_angles`. The frame is built on the
    pair whose angle has the largest |sin| (n1, n2 on a tie): that pair
    spans the xy-plane, its first vector along x, and the third vector's
    y-component divides by that sine. A third row that rounding leaves
    longer than 1 is scaled to unit length in the xy-plane.
    """
    incompatibility_from_angles(theta1, theta2, theta3)
    cosines, sines = (cos(theta1), cos(theta2), cos(theta3)), (abs(sin(theta1)), abs(sin(theta2)), abs(sin(theta3)))
    k = max((2, 1, 0), key=sines.__getitem__)  # theta_{k+1} is the angle between n_i and n_j, the rows other than k
    i, j = ((1, 2), (0, 2), (0, 1))[k]
    c, s, x = cosines[k], sines[k], cosines[j]  # x = cos of the angle between n_i and n_k
    y = (cosines[i] - c * x) / s if s else 0.0  # s = 0 only where every angle is 0
    zz = 1.0 - x * x - y * y
    if zz < 0.0:  # a triple accepted within the Gram tolerance
        h = hypot(x, y)
        x, y, zz = x / h, y / h, 0.0
    rows = [None] * 3
    rows[i], rows[j], rows[k] = (1.0, 0.0, 0.0), (c, s, 0.0), (x, y, sqrt(zz))
    return rows


def sym3_traces(a) -> tuple[float, float, float]:
    """Trace powers (tr A, tr A^2, tr A^3) of a symmetric 3x3 matrix (rows,
    upper triangle read): unless its six entries are all Python floats, each
    is read through `_float`, so an ndarray, an int or a numpy scalar computes
    in float arithmetic. Computed directly from the entries, not via
    eigenvalues. Raises ValueError when tr A^3 overflows (a +inf diagonal entry
    reads so), an entry is NaN or infinite, or an int lies past a float's range.
    """
    try:
        (a00, a01, a02), (_, a11, a12), (_, _, a22) = a
        if not (type(a00) is type(a01) is type(a02) is type(a11) is type(a12) is type(a22) is float):
            a00, a01, a02, a11, a12, a22 = map(_float, (a00, a01, a02, a11, a12, a22))
        d2 = a01 * a01, a02 * a02, a12 * a12
        t1 = a00 + a11 + a22
        t2 = a00 * a00 + a11 * a11 + a22 * a22 + 2.0 * (d2[0] + d2[1] + d2[2])
        t3 = (a00 * a00 * a00 + a11 * a11 * a11 + a22 * a22 * a22
              + 3.0 * (d2[0] * (a00 + a11) + d2[1] * (a00 + a22) + d2[2] * (a11 + a22)) + 6.0 * a01 * a02 * a12)
    except OverflowError as exc:  # an int past a float's range in a list
        raise ValueError(f"expected a 3x3 matrix in a float's range: {exc}") from None
    if not isfinite(t3):  # so is t3 for a NaN or an infinite entry; tr A = inf where the sums of D^T D overflowed
        raise ValueError("tr A^3 overflows: entries of A above ~5.6e102 (directions longer than ~2.4e51)"
                         if t1 == inf or all(map(isfinite, (a00, a01, a02, a11, a12, a22)))
                         else "expected a 3x3 matrix of finite entries: an entry is NaN or infinite")
    return t1, t2, t3


def sym3_spectrum(a) -> Sym3Spectrum:
    """Closed-form eigenvalues of a symmetric 3x3 matrix, read as `sym3_traces` reads it.

    Works on the shifted matrix B = A - (tr A / 3) I scaled by its largest
    absolute entry s, so alpha^2 = tr B^2 / 6 and beta = det B / 2 carry no
    tau1^3 cancellation and never overflow (Smith, CACM 4(4):168, 1961).
    Where the ratio beta/alpha^3 is within _DEFLATE_BAND of +-1, two roots
    nearly coincide and acos turns roundoff into an error of ~1e-8 alpha;
    there only the well-separated root is taken from the trig formula, and
    the other two come exactly from the 2x2 block of B on its eigenvector's
    orthogonal complement (Kopp, arXiv:physics/0610206), by `_block`, without
    `_split`'s rotation. A NaN entry or a non-finite eigenvalue raises ValueError;
    beta = s^3 det(B / s) / 2, returned as it is, overflows past s ~ 5.6e102
    (inf, or NaN where det B = 0) with finite eigenvalues.
    """
    try:
        (a00, a01, a02), (_, a11, a12), (_, _, a22) = a
        if not (type(a00) is type(a01) is type(a02) is type(a11) is type(a12) is type(a22) is float):
            a00, a01, a02, a11, a12, a22 = map(_float, (a00, a01, a02, a11, a12, a22))
        shift = (a00 + a11 + a22) / 3.0
        b00, b11, b22 = a00 - shift, a11 - shift, a22 - shift
        s = max(abs(b00), abs(b11), abs(b22), abs(a01), abs(a02), abs(a12))
        if s == 0.0:  # A = shift I, unless max() skipped a NaN (one not its first argument): it goes on as s
            if a01 == a02 == a12:
                return tuple.__new__(Sym3Spectrum, (shift, shift, shift, 0.0, 0.0))
            s = a01 + a02 + a12
        b00, b11, b22, b01, b02, b12 = b00 / s, b11 / s, b22 / s, a01 / s, a02 / s, a12 / s
        alpha = sqrt((b00 * b00 + b11 * b11 + b22 * b22 + 2.0 * (b01 * b01 + b02 * b02 + b12 * b12)) / 6.0)
        beta = 0.5 * (b00 * (b11 * b22 - b12 * b12) - b01 * (b01 * b22 - b12 * b02) + b02 * (b01 * b12 - b11 * b02))
        ratio = beta / alpha**3
        # the trig roots z_k = 2 alpha cos((acos(ratio) - 2 pi k) / 3), descending; roundoff can push the ratio
        # marginally outside [-1, 1], so it is clamped (a NaN to -1)
        phi = acos(ratio if -1.0 <= ratio <= 1.0 else 1.0 if ratio > 1.0 else -1.0) / 3.0
        two_alpha = 2.0 * alpha
        z0, z1, z2 = two_alpha * cos(phi), two_alpha * cos(phi - _TWO_PI_3), two_alpha * cos(phi + _TWO_PI_3)
        if abs(ratio) > _DEFLATE_EDGE:  # a NaN ratio skips the deflation
            b = ((b00, b01, b02), (b01, b11, b12), (b02, b12, b22))
            if ratio > 0.0:  # the top root is the separated one
                z1, z2 = _block(b, z0)[-2:]
            else:
                z0, z1 = _block(b, z2)[-2:]
        l0, l1, l2 = shift + s * z0, shift + s * z1, shift + s * z2
        if 0.0 * l0 * l1 * l2 != 0.0:  # +-0.0 times x stays +-0.0 only while x is finite
            raise ValueError("expected a 3x3 matrix in a float's range: an eigenvalue is not finite")
        return tuple.__new__(Sym3Spectrum, (l0, l1, l2, s * alpha, s * s * s * beta))  # the namedtuple's own call
    except OverflowError as exc:  # an int past a float's range in a list
        raise ValueError(f"expected a 3x3 matrix in a float's range: {exc}") from None


def _eigvec(b, z):
    """(v, b, e): v is the unit eigenvector of symmetric B (rows `b`) for its
    simple eigenvalue z: the longest cross product of two rows of B - zI
    (Kopp), the first on a tie, or e_z where all three vanish. Where their
    squares would overflow or underflow, v is computed on 2^e B, a rescale
    that changes no bit of v, and that B's rows come back as `b`; else e = 0.
    """
    (b00, b01, b02), (_, b11, b12), (_, _, b22) = b
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
            v, b, inner = _eigvec([[ldexp(x, e) for x in row] for row in b], ldexp(z, e))
            return v, b, e + inner
    f = 1.0 / sqrt(length) if length else 0.0
    return ((vx * f, vy * f, vz * f) if length else (0.0, 0.0, 1.0)), b, 0


def _block(b, z):
    """(v, u, w, m_uu - m_ww, m_uw, hi, lo): `_eigvec`'s unit eigenvector v of symmetric B (rows `b`)
    for its simple eigenvalue z, an orthonormal basis (u, w) of its complement, and of the 2x2 block
    M of that B (the one v was computed on) on (u, w) its diagonal difference, off-diagonal entry and
    eigenvalues hi >= lo, solved with hypot, so a near-double pair keeps its tiny gap."""
    (vx, vy, vz), b, e = _eigvec(b, z)
    (b00, b01, b02), (b10, b11, b12), (b20, b21, b22) = b
    ux, uy, uz = (-vz, 0.0, vx) if abs(vx) > abs(vy) else (0.0, vz, -vy)
    f = 1.0 / sqrt(ux * ux + uy * uy + uz * uz)
    ux, uy, uz = ux * f, uy * f, uz * f
    wx, wy, wz = vy * uz - vz * uy, vz * ux - vx * uz, vx * uy - vy * ux  # w = v x u
    bux, buy, buz = b00 * ux + b01 * uy + b02 * uz, b10 * ux + b11 * uy + b12 * uz, b20 * ux + b21 * uy + b22 * uz
    bwx, bwy, bwz = b00 * wx + b01 * wy + b02 * wz, b10 * wx + b11 * wy + b12 * wz, b20 * wx + b21 * wy + b22 * wz
    m_uu, m_ww, m_uw = ux * bux + uy * buy + uz * buz, wx * bwx + wy * bwy + wz * bwz, wx * bux + wy * buy + wz * buz
    mean, half_gap = 0.5 * (m_uu + m_ww), hypot(0.5 * (m_uu - m_ww), m_uw)
    hi, lo = ldexp(mean + half_gap, -e), ldexp(mean - half_gap, -e)
    return (vx, vy, vz), (ux, uy, uz), (wx, wy, wz), m_uu - m_ww, m_uw, hi, lo


def _split(b, z):
    """(v, p, q, hi, lo): `_block`'s v, and (hi, p), (lo, q) the eigenpairs of B on v's orthogonal
    complement: `_block` rotated onto the eigenvectors of its block; a scalar block keeps p = u."""
    v, (ux, uy, uz), (wx, wy, wz), diff, m_uw, hi, lo = _block(b, z)
    t = 0.5 * atan2(2.0 * m_uw, diff)  # the rotation that diagonalizes the block
    cs, sn = cos(t), sin(t)
    p = (cs * ux + sn * wx, cs * uy + sn * wy, cs * uz + sn * wz)
    q = (cs * wx - sn * ux, cs * wy - sn * uy, cs * wz - sn * uz)
    return v, p, q, hi, lo


def _dot(p, q) -> float:
    return p[0] * q[0] + p[1] * q[1] + p[2] * q[2]
