"""Brute-force verification of the variance bound by direct minimization
over pure qubit states.

Independent of the spectral path: evaluates the variance sum
tau1 - r^T Q r, with Q = sum_i n_i n_i^T summed here rather than by
`moment_matrix`, on a Fibonacci lattice of Bloch vectors, then refines the
best point by derivative-free coordinate descent in spherical coordinates.
Runs on Python floats and streams the lattice, so it needs no numpy and
its memory does not grow with the number of points.
"""

from __future__ import annotations

import random
from itertools import islice
from math import acos, atan2, cos, pi, sin, sqrt
from typing import Iterator, NamedTuple

from .incompat import validate_directions

_GOLDEN_ANGLE = pi * (3.0 - sqrt(5.0))
_REFINE_MIN_STEP = 1e-7


class OracleResult(NamedTuple):
    value: float
    argmin: tuple[float, float, float]
    points_evaluated: int


def fibonacci_sphere(num_points: int) -> Iterator[tuple[float, float, float]]:
    """Near-uniform lattice of unit vectors (golden-angle spiral), yielded
    one 3-tuple at a time."""
    for k in range(num_points):
        z = 1.0 - (2.0 * k + 1.0) / num_points  # |z| <= 1 - 1/num_points, so 1 - z^2 > 0
        radius = sqrt(1.0 - z * z)
        phi = _GOLDEN_ANGLE * k
        yield radius * cos(phi), radius * sin(phi), z


def _variance_form(directions):
    """The variance sum r -> tau1 - r^T Q r of the validated directions,
    for r a 3-tuple."""
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


def _spherical(theta: float, phi: float) -> tuple[float, float, float]:
    return (sin(theta) * cos(phi), sin(theta) * sin(phi), cos(theta))


def sphere_grid_min(directions, num_points: int = 20_000) -> OracleResult:
    """Minimum variance sum over pure states, by lattice search + refinement.

    Deterministic: the lattice is fixed, ties go to the lowest lattice
    index, and the coordinate descent halves its step from
    2*pi/sqrt(num_points) down to 1e-7.
    """
    if num_points < 12:
        raise ValueError("need at least 12 lattice points")
    variance_sum = _variance_form(directions)

    x, y, z = min(fibonacci_sphere(num_points), key=variance_sum)  # min keeps the first of equal keys
    best = variance_sum((x, y, z))
    evaluated = num_points

    theta, phi = acos(z), atan2(y, x)
    step = 2.0 * pi / sqrt(num_points)
    while step >= _REFINE_MIN_STEP:
        improved = True
        while improved:
            improved = False
            for d_theta, d_phi in ((step, 0.0), (-step, 0.0), (0.0, step), (0.0, -step)):
                cand = variance_sum(_spherical(theta + d_theta, phi + d_phi))
                evaluated += 1
                if cand < best:
                    best = cand
                    theta += d_theta
                    phi += d_phi
                    improved = True
        step *= 0.5

    x, y, z = _spherical(theta, phi)
    norm = sqrt(x * x + y * y + z * z)
    return OracleResult(best, (x / norm, y / norm, z / norm), evaluated)


def _ball_points(uniform) -> Iterator[tuple[float, float, float]]:
    """Endless points uniform in the unit ball, by rejection from the cube [-1, 1]^3."""
    while True:
        r = (2.0 * uniform() - 1.0, 2.0 * uniform() - 1.0, 2.0 * uniform() - 1.0)
        if r[0] * r[0] + r[1] * r[1] + r[2] * r[2] <= 1.0:
            yield r


def mixed_sample_floor(directions, count: int, seed: int = 0) -> float:
    """Minimum variance sum over `count` seeded random mixed states.

    Bloch vectors are drawn uniformly from the unit ball with
    `random.Random(seed)`; reproducible for a fixed seed. Sanity check that
    mixed states never beat the bound.
    """
    if count < 1:
        raise ValueError("need at least one sample")
    variance_sum = _variance_form(directions)
    return min(map(variance_sum, islice(_ball_points(random.Random(seed).random), count)))
