"""State-independent lower bound of additive variance sums for spin
observables ("incompatibility").

For directions n_1..n_N the minimum over all qubit states of
sum_i Var(n_i . sigma) equals tau1 - lambda_max(A), where
A = sum_i n_i n_i^T and tau1 = tr A. lambda_max has a closed form via the
trigonometric solution of the depressed characteristic cubic
(`linalg3.sym3_spectrum`).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import cos, isfinite, sqrt

import numpy as np

from .linalg3 import Sym3Spectrum, cubic_roots, sym3_spectrum, sym3_traces

# alpha below this fraction of tau1 means a triple eigenvalue tau1/3; the
# trig ratio beta/alpha^3 is then numerically 0/0 and must be bypassed.
_ALPHA_DEGENERATE = 1e-12
_UNIT_TOL = 1e-9
_GRAM_PSD_TOL = 1e-9
# The closed form must match numpy's eigh to this fraction of tr A.
_CROSS_CHECK_RTOL = 1e-9


@dataclass(frozen=True)
class CubicCoefficients:
    """Coefficients (alpha, beta) of the depressed cubic z^3 - 3a^2 z - 2b."""

    alpha: float
    beta: float


@dataclass(frozen=True)
class IncompatibilityResult:
    value: float
    lambda_max: float
    optimizer: np.ndarray  # unit Bloch vector achieving the bound
    coefficients: CubicCoefficients
    traces: tuple[float, float, float]
    method: str = "closed_form"


def validate_directions(directions) -> np.ndarray:
    """Validate a direction list as an N x 3 float array: N >= 1, finite,
    no zero row."""
    d = np.asarray(directions, dtype=float)
    if d.size == 0:
        raise ValueError("need at least one direction")
    if d.ndim != 2 or d.shape[1] != 3:
        raise ValueError(f"expected N x 3 directions, got shape {d.shape}")
    if not np.isfinite(d).all():
        raise ValueError("directions have non-finite components")
    nonzero = d.any(axis=1)
    if not nonzero.all():
        raise ValueError(f"direction {int(np.argmin(nonzero))} has zero length")
    return d


def moment_matrix(directions) -> tuple[np.ndarray, tuple[float, float, float]]:
    """Second-moment matrix A = sum_i n_i n_i^T = D^T D and its trace powers."""
    d = validate_directions(directions)
    a = d.T @ d  # exactly symmetric: numpy evaluates X.T @ X as one triangle (syrk)
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
        if abs(np.dot(v, v) - 1.0) > 2.0 * _UNIT_TOL:
            raise ValueError(f"direction {i} is not unit length")
    n = len(vecs)
    pair_sq = sum(np.dot(vecs[j], vecs[h]) ** 2 for j, h in combinations(range(n), 2))
    radicand = (pair_sq - n * (n - 3) / 6.0) / 3.0
    if radicand < -1e-9:
        raise ValueError("inconsistent pair sums for unit directions")
    alpha = sqrt(max(radicand, 0.0))
    triple = sum(
        np.dot(vecs[h], vecs[j]) * np.dot(vecs[t], vecs[h]) * np.dot(vecs[j], vecs[t])
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


def optimal_bloch(directions) -> np.ndarray:
    """Unit Bloch vector of a pure state attaining the minimum variance sum
    (see `IncompatibilityResult.optimizer`)."""
    return incompatibility(directions).optimizer


def incompatibility(directions) -> IncompatibilityResult:
    """Minimum over all qubit states of the summed variances of n_i . sigma.

    Closed-form spectral value, cross-checked against numpy's eigh; the
    two must agree to 1e-9 of tr A. The optimizer is eigh's top
    eigenvector, sign-fixed so its first nonzero component is positive
    (both signs are physically equivalent).
    """
    a, traces = moment_matrix(directions)
    spec = sym3_spectrum(a)
    w, v = np.linalg.eigh(a)
    if abs(spec.lam_max - w[-1]) > _CROSS_CHECK_RTOL * traces[0]:
        raise ArithmeticError(
            f"closed-form eigenvalue {spec.lam_max!r} disagrees with eigh {w[-1]!r}"
        )
    top = v[:, -1]
    if top[top != 0.0][0] < 0.0:
        top = -top
    return IncompatibilityResult(
        value=traces[0] - spec.lam_max,
        lambda_max=spec.lam_max,
        optimizer=top,
        coefficients=CubicCoefficients(spec.alpha, spec.beta),
        traces=traces,
    )


def incompatibility_pair(n1, n2) -> float:
    """Two-direction bound: n1^2 + n2^2 - lambda_max of the 2x2 Gram matrix.

    For unit directions this reduces to 1 - |n1 . n2|. Arbitrary nonzero
    lengths are allowed.
    """
    v1, v2 = validate_directions([n1, n2])
    s1 = float(np.dot(v1, v1))
    s2 = float(np.dot(v2, v2))
    dot = float(np.dot(v1, v2))
    lam = 0.5 * (s1 + s2 + sqrt((s1 - s2) ** 2 + 4.0 * dot * dot))
    return s1 + s2 - lam


def _gram_spectrum(theta1: float, theta2: float, theta3: float) -> Sym3Spectrum:
    """Spectrum of the Gram matrix of three unit vectors with the given
    pairwise angles; raises unless every angle is finite and the Gram matrix
    is PSD (the triple is realizable)."""
    for i, theta in enumerate((theta1, theta2, theta3), 1):
        if not isfinite(theta):
            raise ValueError(f"angle theta{i} = {theta} is not finite")
    c1, c2, c3 = cos(theta1), cos(theta2), cos(theta3)
    spec = sym3_spectrum(np.array([[1.0, c3, c2], [c3, 1.0, c1], [c2, c1, 1.0]]))
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


def directions_from_angles(theta1: float, theta2: float, theta3: float) -> np.ndarray:
    """Explicit unit vectors (rows) with the given pairwise angles (one choice).

    Raises for non-finite angles and non-realizable triples, same
    conditions as `incompatibility_from_angles`.
    """
    _gram_spectrum(theta1, theta2, theta3)
    c1, c2, c3 = cos(theta1), cos(theta2), cos(theta3)
    n1 = (1.0, 0.0, 0.0)
    s3 = sqrt(max(1.0 - c3 * c3, 0.0))
    if s3 == 0.0:
        n2 = (np.sign(c3) or 1.0, 0.0, 0.0)
    else:
        n2 = (c3, s3, 0.0)
    x = c2
    y = (c1 - c3 * c2) / s3 if s3 > 0.0 else 0.0
    z = sqrt(max(1.0 - x * x - y * y, 0.0))
    return np.array([n1, n2, (x, y, z)])
