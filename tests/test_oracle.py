import math

import numpy as np
import pytest

from spinbounds.incompat import incompatibility
from spinbounds.oracle import fibonacci_sphere, mixed_sample_floor, sphere_grid_min
from spinbounds.states import QubitState, uncertainty_sum

XYZ = [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)]
EXAMPLE4 = [
    (1.0, 0.0, 0.0),
    (0.5, math.sqrt(3) / 2, 0.0),
    (0.5, 0.5, 1 / math.sqrt(2)),
    (1 / math.sqrt(3),) * 3,
]


def random_set(rng, n):
    dirs = rng.normal(size=(n, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return dirs * rng.uniform(0.2, 2.0, size=(n, 1))


def test_lattice_is_unit_and_spread():
    points = np.asarray(list(fibonacci_sphere(500)))
    assert np.allclose(np.linalg.norm(points, axis=1), 1.0, atol=1e-12)
    # crude uniformity: centroid near the origin
    assert np.linalg.norm(points.mean(axis=0)) < 0.01


def test_grid_min_orthonormal_triple():
    res = sphere_grid_min(XYZ, 1000)
    assert res.value == pytest.approx(2.0, abs=1e-6)


def test_grid_min_half_overlap_pair():
    pair = [(1.0, 0.0, 0.0), (0.5, math.sqrt(3) / 2, 0.0)]
    res = sphere_grid_min(pair, 1000)
    assert res.value == pytest.approx(0.5, abs=1e-5)


def test_grid_min_four_directions():
    res = sphere_grid_min(EXAMPLE4, 20_000)
    assert res.value == pytest.approx(0.94955, abs=1e-4)


def test_grid_min_argmin_consistency():
    res = sphere_grid_min(EXAMPLE4, 5000)
    assert np.linalg.norm(res.argmin) == pytest.approx(1.0, abs=1e-10)
    achieved = uncertainty_sum(EXAMPLE4, QubitState(res.argmin))
    assert achieved == pytest.approx(res.value, abs=1e-10)


def test_grid_min_determinism():
    a = sphere_grid_min(EXAMPLE4, 3000)
    b = sphere_grid_min(EXAMPLE4, 3000)
    assert a.value == b.value
    assert np.array_equal(a.argmin, b.argmin)
    assert a.points_evaluated == b.points_evaluated


def test_grid_min_rejects_tiny_lattice():
    with pytest.raises(ValueError):
        sphere_grid_min(XYZ, 6)


def test_grid_min_matches_closed_form_within_resolution():
    rng = np.random.default_rng(19)
    for _ in range(60):
        dirs = random_set(rng, int(rng.integers(2, 7)))
        closed = incompatibility(dirs).value
        res = sphere_grid_min(dirs, 2000)
        assert abs(res.value - closed) <= 1e-5
        assert res.value >= closed - 1e-10


def test_mixed_sample_floor_examples():
    assert mixed_sample_floor(XYZ, 2000, seed=1) >= 2.0 - 1e-10
    assert mixed_sample_floor([(0.0, 0.0, 1.0)], 2000, seed=1) >= 0.0
    parallel = [(0.0, 0.0, 1.0), (0.0, 0.0, 1.0)]
    floor = mixed_sample_floor(parallel, 5000, seed=1)
    assert 0.0 <= floor < 0.5


def test_mixed_sample_floor_reproducible():
    a = mixed_sample_floor(EXAMPLE4, 1000, seed=42)
    b = mixed_sample_floor(EXAMPLE4, 1000, seed=42)
    assert a == b


def test_mixed_sample_floor_respects_bound():
    rng = np.random.default_rng(31)
    for seed in range(40):
        dirs = random_set(rng, int(rng.integers(1, 6)))
        bound = incompatibility(dirs).value
        assert mixed_sample_floor(dirs, 500, seed=seed) >= bound - 1e-10
