"""Independent checks of the variance bound, on Python floats.

Brute force: direct minimization over pure qubit states. Independent of the
spectral path, it sums Q = sum_i n_i n_i^T itself (not by `moment_matrix`)
and minimizes tau1 - r^T Q r exactly on each great circle through e_z, and
through e_x, searching the circles' azimuth in one dimension. The paper's
overlap formula for (alpha, beta), `cubic_coefficients_unit`, cross-checks
the kernel's coefficients in the tests."""

from __future__ import annotations

from itertools import combinations
from math import atan2, cos, pi, sin, sqrt
from operator import index
from typing import NamedTuple

from .incompat import _UNIT_TOL, _dot, validate_directions

_REFINE_MIN_STEP = 1e-7
_HALF_SQRT2 = sqrt(0.5)


class CubicCoefficients(NamedTuple):
    """Coefficients (alpha, beta) of the depressed cubic z^3 - 3a^2 z - 2b."""

    alpha: float
    beta: float


class OracleResult(NamedTuple):
    value: float
    argmin: tuple[float, float, float]
    points_evaluated: int


def _variance_form(directions):
    """The variance sum r -> tau1 - r^T Q r of the validated directions, r a 3-tuple."""
    qxx = qyy = qzz = qxy = qxz = qyz = 0.0
    for x, y, z in validate_directions(directions):
        qxx, qyy, qzz = qxx + x * x, qyy + y * y, qzz + z * z
        qxy, qxz, qyz = qxy + x * y, qxz + x * z, qyz + y * z
    tau1 = qxx + qyy + qzz
    qxy, qxz, qyz = 2.0 * qxy, 2.0 * qxz, 2.0 * qyz

    def variance_sum(r) -> float:
        x, y, z = r
        return tau1 - (x * (qxx * x + qxy * y + qxz * z) + y * (qyy * y + qyz * z) + qzz * z * z)

    return variance_sum


def _circle_search(variance_sum, circles: int):
    """(value, r, evaluations) of the search about the pole e_z; see `sphere_grid_min`."""
    f_pole, evaluated = variance_sum((0.0, 0.0, 1.0)), 1

    def circle_min(phi):
        nonlocal evaluated
        evaluated += 3
        c, s = cos(phi), sin(phi)
        f_eq = variance_sum((c, s, 0.0))
        f_mid = variance_sum((_HALF_SQRT2 * c, _HALF_SQRT2 * s, _HALF_SQRT2))
        t = 0.5 * atan2(f_pole + f_eq - 2.0 * f_mid, f_eq - f_pole)
        r = (sin(t) * c, sin(t) * s, cos(t))
        return variance_sum(r), r

    step = pi / circles
    best, r, phi = min(((*circle_min(k * step), k * step) for k in range(circles)), key=lambda c: c[0])
    while (step := 0.5 * step) >= _REFINE_MIN_STEP:
        for move in (step, -step):
            start = phi
            while (cand := circle_min(phi + move))[0] < best:
                (best, r), phi = cand, phi + move
            if phi != start:  # the other direction leads back uphill
                break
    return best, r, evaluated


def sphere_grid_min(directions, num_points: int = 120) -> OracleResult:
    """Minimum variance sum f over pure states, by exact searches on great circles.

    On r(t) = cos t p + sin t d, d the unit vector normal to the pole p at
    azimuth phi, f is c - a cos 2t - b sin 2t; f at p, d and (p + d)/sqrt(2)
    gives a and b, so t = atan2(b, a)/2 is the circle's exact minimum. About
    p = e_z and about p = e_x, the best of num_points // 6 equally spaced
    azimuths in [0, pi) seeds a search in phi whose step halves down to 1e-7;
    candidates compare by value only, and the lower of the two is returned.
    The best-circle value is flat, and the search can stall, only where the
    circle's minimum stays at the pole: the pole at or near the middle
    eigenvector of Q, which e_z and e_x cannot both be. points_evaluated
    counts every evaluation: about num_points for the seeds, then the refinement's."""
    try:  # an integer, a numpy one as its int, in a float's range, where pi / (num_points // 6) reads it
        float(num_points := index(num_points))
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"num_points must be an integer in a float's range: {exc}") from None
    if num_points < 12:
        raise ValueError("need num_points >= 12: num_points // 6 seed circles about each of two poles")
    variance_sum = _variance_form(directions)
    value, r, count = _circle_search(variance_sum, num_points // 6)
    x_value, (y, z, x), x_count = _circle_search(lambda q: variance_sum((q[2], q[0], q[1])), num_points // 6)
    if x_value < value:
        value, r = x_value, (x, y, z)
    return OracleResult(value, r, count + x_count)


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
    # with |n_i|^2 = 1 + d_i the radicand is alpha^2 + ((2n - 6) sum d + (sum d)^2 - 3 sum d^2)/18, which the
    # unit check lets sit n |n - 3| _UNIT_TOL/9 below zero; one more _UNIT_TOL covers rounding and the d^2 terms
    if radicand < -(n * abs(n - 3) / 9.0 + 1.0) * _UNIT_TOL:
        raise ValueError("inconsistent pair sums for unit directions")
    alpha = sqrt(max(radicand, 0.0))
    triple = 0.0
    for h, j, t in combinations(range(n), 3):
        triple += _dot(vecs[h], vecs[j]) * _dot(vecs[t], vecs[h]) * _dot(vecs[j], vecs[t])
    # pair term: for unit directions tau3 = N + 6*pair_sq + 6*triple, which
    # makes the coefficient of pair_sq in beta -(N-3)/3
    beta = triple - (n - 3) / 3.0 * pair_sq + n * (2 * n - 3) * (n - 3) / 54.0
    return CubicCoefficients(alpha, beta)
