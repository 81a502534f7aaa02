"""Brute-force verification of the variance bound by direct minimization
over pure qubit states.

Independent of the spectral path: evaluates the variance sum on a
Fibonacci lattice of Bloch vectors, then refines the best point by
derivative-free coordinate descent in spherical coordinates.
Each function imports numpy when called, so importing this module does not.
"""

from __future__ import annotations

from math import cos, pi, sin, sqrt
from typing import TYPE_CHECKING, NamedTuple

from .incompat import validate_directions

if TYPE_CHECKING:
    import numpy as np

_GOLDEN_ANGLE = pi * (3.0 - sqrt(5.0))
_REFINE_MIN_STEP = 1e-7

# Conservative covering radius of the Fibonacci lattice, ~3.2/sqrt(K); the
# objective is quadratic around its minimum so the grid error is
# tau1 * radius^2.
_COVERING_COEFF = 3.2


class OracleResult(NamedTuple):
    value: float
    argmin: np.ndarray
    points_evaluated: int
    resolution_bound: float


def fibonacci_sphere(num_points: int) -> np.ndarray:
    """Near-uniform lattice of unit vectors (golden-angle spiral)."""
    import numpy as np

    k = np.arange(num_points)
    z = 1.0 - (2.0 * k + 1.0) / num_points
    radius = np.sqrt(np.maximum(1.0 - z * z, 0.0))
    phi = _GOLDEN_ANGLE * k
    return np.column_stack((radius * np.cos(phi), radius * np.sin(phi), z))


def _variance_sum_many(dirs: np.ndarray, points: np.ndarray) -> np.ndarray:
    # sum_i n_i^2 - (n_i . r)^2, vectorized over rows of `points`; squaring
    # in place keeps one K x N array alive instead of two
    tau1 = float((dirs * dirs).sum())
    prod = points @ dirs.T
    prod *= prod
    return tau1 - prod.sum(axis=1)


def _spherical(theta: float, phi: float) -> tuple[float, float, float]:
    return (sin(theta) * cos(phi), sin(theta) * sin(phi), cos(theta))


def sphere_grid_min(directions, num_points: int = 20_000) -> OracleResult:
    """Minimum variance sum over pure states, by lattice search + refinement.

    Deterministic: the lattice is fixed, ties go to the lowest lattice
    index, and the coordinate descent halves its step from
    2*pi/sqrt(num_points) down to 1e-7.
    """
    import numpy as np

    if num_points < 12:
        raise ValueError("need at least 12 lattice points")
    dirs = np.asarray(validate_directions(directions))
    tau1 = float(np.sum(dirs * dirs))

    lattice = fibonacci_sphere(num_points)
    values = _variance_sum_many(dirs, lattice)
    best_idx = int(np.argmin(values))  # lowest index on ties
    evaluated = num_points

    def objective(theta: float, phi: float) -> float:
        r = _spherical(theta, phi)
        return float(tau1 - np.square(dirs @ r).sum())

    x, y, z = lattice[best_idx]
    theta = float(np.arccos(np.clip(z, -1.0, 1.0)))
    phi = float(np.arctan2(y, x))
    best = float(values[best_idx])

    step = 2.0 * pi / sqrt(num_points)
    while step >= _REFINE_MIN_STEP:
        improved = True
        while improved:
            improved = False
            for d_theta, d_phi in ((step, 0.0), (-step, 0.0), (0.0, step), (0.0, -step)):
                cand = objective(theta + d_theta, phi + d_phi)
                evaluated += 1
                if cand < best:
                    best = cand
                    theta += d_theta
                    phi += d_phi
                    improved = True
        step *= 0.5

    argmin = np.array(_spherical(theta, phi))
    argmin /= np.linalg.norm(argmin)
    radius = _COVERING_COEFF / sqrt(num_points)
    return OracleResult(
        value=best,
        argmin=argmin,
        points_evaluated=evaluated,
        resolution_bound=tau1 * radius * radius + 1e-9,
    )


def mixed_sample_floor(directions, count: int, seed: int = 0) -> float:
    """Minimum variance sum over `count` seeded random mixed states.

    Bloch vectors are drawn uniformly from the unit ball; reproducible for
    a fixed seed. Sanity check that mixed states never beat the bound.
    """
    import numpy as np

    if count < 1:
        raise ValueError("need at least one sample")
    dirs = np.asarray(validate_directions(directions))
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(count, 3))
    points /= np.linalg.norm(points, axis=1, keepdims=True)
    points *= rng.uniform(size=(count, 1)) ** (1.0 / 3.0)
    return float(np.min(_variance_sum_many(dirs, points)))
