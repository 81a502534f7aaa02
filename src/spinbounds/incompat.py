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
from operator import mul
from typing import TYPE_CHECKING, NamedTuple

from .linalg3 import Sym3Spectrum, _dot, cubic_roots, sym3_certificate, sym3_spectrum, sym3_traces

if TYPE_CHECKING:
    import numpy as np

# alpha below this fraction of tau1 means a triple eigenvalue tau1/3; the
# trig ratio beta/alpha^3 is then numerically 0/0 and must be bypassed.
_ALPHA_DEGENERATE = 1e-12
_UNIT_TOL = 1e-9
_GRAM_PSD_TOL = 1e-9
# The certificate must bound the closed form's error by this fraction of tr A.
_CERTIFICATE_RTOL = 1e-9


class CubicCoefficients(NamedTuple):
    """Coefficients (alpha, beta) of the depressed cubic z^3 - 3a^2 z - 2b."""

    alpha: float
    beta: float


class IncompatibilityResult(NamedTuple):
    value: float
    lambda_max: float
    optimizer: tuple[float, float, float]  # unit Bloch vector achieving the bound
    coefficients: CubicCoefficients
    traces: tuple[float, float, float]
    method: str = "closed_form"


def validate_directions(directions) -> np.ndarray | list[tuple[float, float, float]]:
    """Validate directions: N >= 1 rows of 3 finite components, no zero row.

    An ndarray comes back as an N x 3 float array; any other input as a
    list of 3-tuples of Python floats, without importing numpy.
    """
    np = sys.modules.get("numpy")
    if np is not None and isinstance(directions, np.ndarray):
        d = np.asarray(directions, dtype=float)
        shape = d.shape
    else:
        try:
            d = [tuple(map(float, row)) for row in directions]
        except (TypeError, OverflowError) as exc:
            raise ValueError(f"expected N x 3 directions: {exc}") from None
        shape = (len(d), *sorted({len(row) for row in d}))
    if 0 in shape:
        raise ValueError("need at least one direction")
    if len(shape) != 2 or shape[1] != 3:
        raise ValueError(f"expected N x 3 directions, got shape {shape}")
    if isinstance(d, list):
        finite, nonzero = all(map(isfinite, chain.from_iterable(d))), [any(row) for row in d]
    else:
        finite, nonzero = np.isfinite(d).all(), d.any(axis=1).tolist()
    if not finite:
        raise ValueError("directions have non-finite components")
    if not all(nonzero):
        raise ValueError(f"direction {nonzero.index(False)} has zero length")
    return d


def moment_matrix(directions) -> tuple[tuple, tuple[float, float, float]]:
    """Second-moment matrix A = sum_i n_i n_i^T = D^T D, as rows of floats,
    and its trace powers."""
    d = validate_directions(directions)
    if isinstance(d, list):
        x, y, z = zip(*d)
        xy, xz, yz = sum(map(mul, x, y)), sum(map(mul, x, z)), sum(map(mul, y, z))
        a = ((sum(map(mul, x, x)), xy, xz), (xy, sum(map(mul, y, y)), yz), (xz, yz, sum(map(mul, z, z))))
    else:
        a = (d.T @ d).tolist()  # exactly symmetric: numpy evaluates X.T @ X as one triangle (syrk)
    return a, sym3_traces(a)  # sym3_traces also rejects an A or a tr A^3 that overflowed


def cubic_coefficients(traces: tuple[float, float, float]) -> CubicCoefficients:
    """(alpha, beta) of the depressed characteristic cubic, from the traces.

    alpha = sqrt((3 tau2 - tau1^2)/18); beta = tau1^3/27 + tau3/6
    - tau1 tau2 / 6. Valid for any traces coming from a real symmetric
    matrix; a radicand that roundoff pushed below zero, by at most 1e-12
    tau1^2, clamps to zero.
    """
    t1, t2, t3 = traces
    radicand = (3.0 * t2 - t1 * t1) / 18.0
    if radicand < -1e-12 * t1 * t1:
        raise ValueError(f"inconsistent traces: 3*tau2 - tau1^2 = {18 * radicand:.3e} < 0")
    alpha = sqrt(max(radicand, 0.0))
    beta = t1 * t1 * t1 / 27.0 + t3 / 6.0 - t1 * t2 / 6.0
    return CubicCoefficients(alpha, beta)


def cubic_coefficients_unit(directions) -> CubicCoefficients:
    """(alpha, beta) from pairwise dot products of unit directions only.

    Cross-check path for the trace-based `cubic_coefficients`; requires
    every direction to be unit length.
    """
    vecs = validate_directions(directions)
    for i, v in enumerate(vecs):
        if abs(_dot(v, v) - 1.0) > 2.0 * _UNIT_TOL:
            raise ValueError(f"direction {i} is not unit length")
    n = len(vecs)
    pair_sq = sum(_dot(vecs[j], vecs[h]) ** 2 for j, h in combinations(range(n), 2))
    radicand = (pair_sq - n * (n - 3) / 6.0) / 3.0
    if radicand < -1e-9:
        raise ValueError("inconsistent pair sums for unit directions")
    alpha = sqrt(max(radicand, 0.0))
    triple = sum(
        _dot(vecs[h], vecs[j]) * _dot(vecs[t], vecs[h]) * _dot(vecs[j], vecs[t])
        for h, j, t in combinations(range(n), 3)
    )
    # pair term: for unit directions tau3 = N + 6*pair_sq + 6*triple, which
    # makes the coefficient of pair_sq in beta -(N-3)/3
    beta = triple - (n - 3) / 3.0 * pair_sq + n * (2 * n - 3) * (n - 3) / 54.0
    return CubicCoefficients(alpha, float(beta))


def lambda_max_from_traces(traces: tuple[float, float, float]) -> float:
    """Largest eigenvalue of a 3x3 symmetric PSD matrix from its traces.

    tau1/3 + 2 alpha cos(acos(beta/alpha^3) / 3), the same trig root as
    `sym3_spectrum`. For callers that hold only traces; the trace
    coefficients cancel at extreme scales, so a matrix in hand should go
    through `sym3_spectrum` instead.
    """
    t1 = traces[0]
    coeff = cubic_coefficients(traces)
    if coeff.alpha <= _ALPHA_DEGENERATE * abs(t1):
        return t1 / 3.0
    return t1 / 3.0 + cubic_roots(coeff.alpha, coeff.beta / coeff.alpha**3)[0]


def optimal_bloch(directions) -> tuple[float, float, float]:
    """Unit Bloch vector of a pure state attaining the minimum variance sum
    (see `IncompatibilityResult.optimizer`)."""
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
    vecs, bound = sym3_certificate(a, spec[:3])
    if not bound <= _CERTIFICATE_RTOL * traces[0]:
        raise ArithmeticError(
            f"closed-form eigenvalue {spec.lam_max!r} fails its residual certificate: "
            f"the spectrum may be off by {bound:.3e} > {_CERTIFICATE_RTOL} * tr A"
        )
    top = vecs[0]
    sign = -1.0 if next(x for x in top if x != 0.0) < 0.0 else 1.0
    return IncompatibilityResult(
        value=traces[0] - spec.lam_max,
        lambda_max=spec.lam_max,
        optimizer=tuple(sign * x + 0.0 for x in top),  # + 0.0 turns -0.0 into 0.0
        coefficients=CubicCoefficients(spec.alpha, spec.beta),
        traces=traces,
    )


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
