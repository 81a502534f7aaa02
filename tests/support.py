"""Constants and helpers that more than one test module uses, in one copy.

Imports no numpy: `random_unit` imports it when called, so the modules that
run without numpy can import this one (see README).
"""

import math

from spinbounds.criteria import steering_test
from spinbounds.incompat import Sym3Spectrum, _block, _float, _split
from spinbounds.linalg3 import HERMITIAN_TOL, PSD_TOL

HUGE = 10**400  # an int too large for a float
XYZ = [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)]
XYZ_SETTINGS = [(d, d) for d in XYZ]
TWO_PI_3 = 2.0 * math.pi / 3.0
DEFLATE_BAND = 1e-4  # the kernel deflates where 1 - |beta/alpha^3| falls below this
EXAMPLE4 = [  # the paper's four-direction example
    (1.0, 0.0, 0.0),
    (0.5, math.sqrt(3) / 2, 0.0),
    (0.5, 0.5, 1 / math.sqrt(2)),
    (1 / math.sqrt(3),) * 3,
]


def random_unit(rng):
    """A unit 3-vector from a numpy Generator."""
    import numpy as np

    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def random_set(rng, n, unit=False):
    dirs = [random_unit(rng) for _ in range(n)]
    if not unit:
        dirs = [d * rng.uniform(0.2, 2.0) for d in dirs]
    return dirs


def inference_variance(state, a, b):
    """Bob's minimal inference variance along `b` given Alice's outcome along `a`."""
    return steering_test(state, [(a, b)]).inference_variances[0]


def sum311(values):
    """sum() as CPython 3.11 adds floats: from 0, left to right."""
    total = 0
    for v in values:
        total += v
    return total


def dot(p, q):
    return p[0] * q[0] + p[1] * q[1] + p[2] * q[2]


def variance_sum(directions, r):
    """The variance sum at the Bloch vector r, sum_i |n_i|^2 - (n_i . r)^2,
    added left to right from 0.0: the tests' reference for the bound's physics."""
    total = 0.0
    for n in directions:
        total += dot(n, n) - dot(n, r) ** 2
    return total


def cross(p, q):
    return (p[1] * q[2] - p[2] * q[1], p[2] * q[0] - p[0] * q[2], p[0] * q[1] - p[1] * q[0])


def matvec(b, x):
    return (dot(b[0], x), dot(b[1], x), dot(b[2], x))


def bits(x):
    """Every float in nested tuples, lists, reports and states, a complex
    number's two parts too, as hex: -0.0 and 0.0 differ, nan matches."""
    if hasattr(x, "__dict__"):
        x = tuple(vars(x).values())
    if isinstance(x, complex):
        x = (x.real, x.imag)
    if isinstance(x, (tuple, list)):
        return [h for y in x for h in bits(y)]
    return [repr(x)] if isinstance(x, bool) else [float.hex(x)]


def outcome(fn, *args):
    """The bits of fn(*args), or the type and message of what it raised."""
    try:
        return bits(fn(*args))
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)


def shift(m, delta):
    """Square rows m + delta I."""
    return [[z + delta if i == j else z for j, z in enumerate(row)] for i, row in enumerate(m)]


def reference_psd_check(m):
    """`hermitian_psd_check` as the n x n loop it was before it was written
    out for 4x4: the same tolerances and the same operations in the same order."""
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


def sym3_certificate(a, lams) -> tuple[tuple, float]:
    """Orthonormal eigenvector rows V of symmetric `a` for its claimed
    eigenvalues `lams` (descending), and a bound on every |lambda_k(A) -
    lams[k]|: ||E||_F + tr|A| ||G||_F with E = V A V^T - diag(lams) and
    G = V V^T - I (Weyl's inequality and Ostrowski's theorem; Parlett, The
    Symmetric Eigenvalue Problem, sections 4 and 11).

    Any V makes the bound valid; a good one makes it small. V is built from
    the better separated outer eigenvalue (the top one on a tie) by `_split`,
    which fixes the choice in a degenerate eigenspace: A = lambda I gives
    V[0] = e_z. V[0] is the optimizer that `incompatibility` returns.

    The package certified the whole spectrum this way before it certified
    lambda_max alone; the tests keep it as the full-spectrum reference.
    """
    try:
        a = [[x if type(x) is float else _float(x) for x in row] for row in a]  # each entry as a float, as the kernels read it
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
        e_norm = math.sqrt(e0 * e0 + e1 * e1 + e2 * e2 + 2.0 * (e01 * e01 + e02 * e02 + e12 * e12))
        g_norm = math.sqrt(g0 * g0 + g1 * g1 + g2 * g2 + 2.0 * (g01 * g01 + g02 * g02 + g12 * g12))
        return vecs, e_norm + (abs(a00) + abs(a11) + abs(a22)) * g_norm
    except OverflowError as exc:  # an int past a float's range in a list, or an eigenvalue past it
        raise ValueError(f"expected a 3x3 matrix in a float's range: {exc}") from None


def cubic_roots(alpha: float, ratio: float) -> tuple[float, float, float]:
    """Roots, descending, of z^3 - 3 alpha^2 z - 2 alpha^3 ratio.

    Trigonometric solution z_k = 2 alpha cos((acos(ratio) - 2 pi k)/3);
    the ratio is clamped to [-1, 1] because roundoff can push it
    marginally outside the all-real-roots region.
    """
    phi = math.acos(min(1.0, max(-1.0, ratio))) / 3.0
    two_alpha = 2.0 * alpha
    return (
        two_alpha * math.cos(phi),
        two_alpha * math.cos(phi - TWO_PI_3),
        two_alpha * math.cos(phi + TWO_PI_3),
    )


def reference_sym3_spectrum(a) -> Sym3Spectrum:
    """`sym3_spectrum` as it was while it took its roots from `cubic_roots`: the
    same operations in the same order, so its five floats and its rejections are
    the bits the kernel must keep."""
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
        alpha = math.sqrt((b00 * b00 + b11 * b11 + b22 * b22 + 2.0 * (b01 * b01 + b02 * b02 + b12 * b12)) / 6.0)
        beta = 0.5 * (b00 * (b11 * b22 - b12 * b12) - b01 * (b01 * b22 - b12 * b02) + b02 * (b01 * b12 - b11 * b02))
        ratio = beta / alpha**3
        roots = cubic_roots(alpha, ratio)
        if abs(ratio) > 1.0 - DEFLATE_BAND:
            z = roots[0] if ratio > 0.0 else roots[2]
            hi, lo = _block(((b00, b01, b02), (b01, b11, b12), (b02, b12, b22)), z)[-2:]
            roots = (z, hi, lo) if ratio > 0.0 else (hi, lo, z)
        l0, l1, l2 = shift + s * roots[0], shift + s * roots[1], shift + s * roots[2]
        if 0.0 * l0 * l1 * l2 != 0.0:  # +-0.0 times x stays +-0.0 only while x is finite
            raise ValueError("expected a 3x3 matrix in a float's range: an eigenvalue is not finite")
        return tuple.__new__(Sym3Spectrum, (l0, l1, l2, s * alpha, s * s * s * beta))  # the namedtuple's own call
    except OverflowError as exc:  # an int past a float's range in a list
        raise ValueError(f"expected a 3x3 matrix in a float's range: {exc}") from None
