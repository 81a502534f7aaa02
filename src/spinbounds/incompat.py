"""State-independent lower bound of additive variance sums for spin
observables ("incompatibility").

For directions n_1..n_N the minimum over all qubit states of
sum_i Var(n_i . sigma) equals tau1 - lambda_max(A), where
A = sum_i n_i n_i^T and tau1 = tr A. lambda_max has a closed form via the
trigonometric solution of the depressed characteristic cubic
(`linalg3.sym3_spectrum`).
"""

from __future__ import annotations

import sys
from itertools import chain, combinations
from math import copysign, cos, hypot, isfinite, sqrt
from typing import NamedTuple

from .linalg3 import _ROWS, Sym3Spectrum, _dot, cubic_roots, sym3_certificate, sym3_spectrum, sym3_traces

_UNIT_TOL = 2e-9  # | |n|^2 - 1 | allowed where a direction must be unit length
_GRAM_PSD_TOL = 1e-9
# The certificate must bound the closed form's error by this fraction of tr A.
_CERTIFICATE_RTOL = 1e-9


class CubicCoefficients(NamedTuple):
    """Coefficients (alpha, beta) of the depressed cubic z^3 - 3a^2 z - 2b."""

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
    """An ndarray as nested lists of Python scalars (~20x faster to read than
    its scalars; complex stays complex); text raises TypeError; else as given."""
    np = sys.modules.get("numpy")
    x = x.tolist() if np is not None and isinstance(x, np.ndarray) else x
    if isinstance(x, (str, bytes, bytearray, memoryview)):  # not a sequence of its characters
        raise TypeError(f"a {type(x).__name__} is not a sequence of numbers")
    return x


def validate_directions(directions) -> list[tuple[float, float, float]]:
    """Validate directions: N >= 1 rows of 3 finite components, no zero row.

    Every input, an ndarray too, comes back as a list of 3-tuples of Python
    floats. An ndarray, or an ndarray row, is read through `tolist()`, so a
    complex one stays complex and is rejected as that list would be.
    """
    try:
        d = [tuple(map(float, _plain(row))) for row in _plain(directions)]
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
                x, y, z = float(x), float(y), float(z)
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


def cubic_coefficients_unit(directions) -> CubicCoefficients:
    """(alpha, beta) from pairwise dot products of unit directions only.

    The paper's formula; the tests check `sym3_spectrum`'s coefficients
    against it. Requires every direction to be unit length.
    """
    vecs = validate_directions(directions)
    for i, v in enumerate(vecs):
        if abs(_dot(v, v) - 1.0) > _UNIT_TOL:
            raise ValueError(f"direction {i} is not unit length")
    n = len(vecs)
    pair_sq = 0.0  # both sums add left to right from 0.0, as sum() did before 3.12
    for j, h in combinations(range(n), 2):
        pair_sq += _dot(vecs[j], vecs[h]) ** 2
    radicand = (pair_sq - n * (n - 3) / 6.0) / 3.0
    if radicand < -1e-9:
        raise ValueError("inconsistent pair sums for unit directions")
    alpha = sqrt(max(radicand, 0.0))
    triple = 0.0
    for h, j, t in combinations(range(n), 3):
        triple += _dot(vecs[h], vecs[j]) * _dot(vecs[t], vecs[h]) * _dot(vecs[j], vecs[t])
    # pair term: for unit directions tau3 = N + 6*pair_sq + 6*triple, which
    # makes the coefficient of pair_sq in beta -(N-3)/3
    beta = triple - (n - 3) / 3.0 * pair_sq + n * (2 * n - 3) * (n - 3) / 54.0
    return CubicCoefficients(alpha, beta)


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


def incompatibility(directions) -> IncompatibilityResult:
    """Minimum over all qubit states of the summed variances of n_i . sigma.

    Closed-form spectral value; `linalg3.sym3_certificate` must place the
    whole closed-form spectrum within 1e-9 of tr A, else ArithmeticError.
    The optimizer is the certificate's top eigenvector (its rule picks one
    in a double or triple top eigenspace, e_z for A = I), sign-fixed so its
    first nonzero component is positive (both signs are equivalent).
    """
    a, traces = moment_matrix(directions)
    spec = sym3_spectrum(a)
    vecs, bound = sym3_certificate(a, spec)
    lam, _, _, alpha, beta = spec
    if not bound <= _CERTIFICATE_RTOL * traces[0]:
        raise ArithmeticError(
            f"closed-form eigenvalue {lam!r} fails its residual certificate: "
            f"the spectrum may be off by {bound:.3e} > {_CERTIFICATE_RTOL} * tr A"
        )
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
