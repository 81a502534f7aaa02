"""The brute-force oracle against the closed form. Imports no numpy, so it
runs on a CPython without it (see README)."""

import math
import random

import pytest

from spinbounds.incompat import incompatibility
from spinbounds.oracle import sphere_grid_min
from support import EXAMPLE4, XYZ, variance_sum


def scaled(v, s):
    return (s * v[0], s * v[1], s * v[2])


def unit(rng):
    while True:
        v = (rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0))
        norm = math.hypot(*v)
        if norm > 1e-3:
            return scaled(v, 1.0 / norm)


def random_set(rng, n):
    return [scaled(unit(rng), rng.uniform(0.2, 2.0)) for _ in range(n)]


def frame(rng, top):
    """An orthonormal frame (top, v2, v3) for a unit vector `top`."""
    u = unit(rng)
    dot = sum(a * b for a, b in zip(u, top))
    v2 = tuple(a - dot * b for a, b in zip(u, top))
    v2 = scaled(v2, 1.0 / math.hypot(*v2))
    v3 = (top[1] * v2[2] - top[2] * v2[1], top[2] * v2[0] - top[0] * v2[2], top[0] * v2[1] - top[1] * v2[0])
    return top, v2, v3


def with_spectrum(spectrum, vectors):
    """Three directions whose moment matrix has these eigenvalues and eigenvectors."""
    return [scaled(v, math.sqrt(lam)) for lam, v in zip(spectrum, vectors)]


def log_uniform(rng, low, high):
    return 10.0 ** rng.uniform(math.log10(low), math.log10(high))


def spread(rng):
    """Eigenvalues 1 > l2 > l3 > 0 with gaps of at least 0.05."""
    l2 = rng.uniform(0.3, 0.95)
    return 1.0, l2, rng.uniform(0.05, l2 - 0.05)


def near_pole(rng):
    eps, phi = log_uniform(rng, 1e-12, 1e-1), rng.uniform(0.0, 2.0 * math.pi)
    top = (math.sin(eps) * math.cos(phi), math.sin(eps) * math.sin(phi), math.cos(eps))
    return with_spectrum(spread(rng), frame(rng, top))


def near_equator(rng):
    eps, phi = log_uniform(rng, 1e-12, 1e-1) * rng.choice((-1.0, 1.0)), rng.uniform(0.0, 2.0 * math.pi)
    top = (math.cos(eps) * math.cos(phi), math.cos(eps) * math.sin(phi), math.sin(eps))
    return with_spectrum(spread(rng), frame(rng, top))


def middle_at_an_axis(rng):
    """The middle eigenvector at or near an axis and the top one 1e-8 to 1e-3
    above it, at any azimuth: about that axis the best-circle value is flat
    except in a basin narrower than the seed circles' spacing."""
    eps = rng.choice((0.0, log_uniform(rng, 1e-12, 1e-1)))
    psi, a = rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.0, math.pi)
    middle = (math.sin(eps) * math.cos(psi), math.sin(eps) * math.sin(psi), math.cos(eps))
    dot = math.cos(a) * middle[0] + math.sin(a) * middle[1]
    top = (math.cos(a) - dot * middle[0], math.sin(a) - dot * middle[1], -dot * middle[2])
    top = scaled(top, 1.0 / math.hypot(*top))
    m, t = middle, top
    bottom = (m[1] * t[2] - m[2] * t[1], m[2] * t[0] - m[0] * t[2], m[0] * t[1] - m[1] * t[0])
    dirs = with_spectrum((1.0, 1.0 - log_uniform(rng, 1e-8, 1e-3), rng.uniform(0.05, 0.6)), (top, middle, bottom))
    shift = rng.randrange(3)
    return [v[shift:] + v[:shift] for v in dirs]


def top_pair_gap(rng):
    gap = log_uniform(rng, 1e-12, 0.3)
    return with_spectrum((1.0, 1.0 - gap, rng.uniform(0.01, 0.6)), frame(rng, unit(rng)))


def bottom_pair_gap(rng):
    gap, l2 = log_uniform(rng, 1e-12, 0.3), rng.uniform(0.35, 0.9)
    return with_spectrum((1.0, l2, l2 - gap), frame(rng, unit(rng)))


def repeated_eigenvalues(rng):
    spectrum = rng.choice(((1.0, 1.0, 1.0), (2.0, 1.0, 1.0), (1.0, 1.0, 0.5), (3.0, 3.0, 3.0)))
    vectors = XYZ if rng.random() < 0.5 else frame(rng, unit(rng))
    return with_spectrum(spectrum, vectors)


def planar(rng):
    _, u, w = frame(rng, unit(rng))
    angles = [rng.uniform(0.0, math.pi) for _ in range(rng.randint(2, 12))]
    return [tuple(math.cos(a) * p + math.sin(a) * q for p, q in zip(u, w)) for a in angles]


def rescaled(rng):
    s = log_uniform(rng, 1e-9, 1e9)
    return [scaled(v, s) for v in random_set(rng, rng.randint(1, 8))]


FAMILIES = {
    "random": lambda rng: random_set(rng, rng.randint(1, 40)),
    "planar": planar,
    "top_pair_gap": top_pair_gap,
    "bottom_pair_gap": bottom_pair_gap,
    "repeated_eigenvalues": repeated_eigenvalues,
    "near_pole": near_pole,
    "near_equator": near_equator,
    "middle_at_an_axis": middle_at_an_axis,
    "rescaled": rescaled,
}


@pytest.mark.parametrize("family", FAMILIES)
def test_grid_min_is_sharp_at_verify_default(family):
    rng = random.Random(f"oracle-{family}")
    for _ in range(100):
        dirs = FAMILIES[family](rng)
        closed = incompatibility(dirs)
        scale = max(1.0, closed.traces[0] / len(dirs))
        res = sphere_grid_min(dirs)
        assert abs(res.value - closed.value) <= 1e-9 * scale, dirs
        assert res.points_evaluated <= 500


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
    assert math.hypot(*res.argmin) == pytest.approx(1.0, abs=1e-10)
    achieved = variance_sum(EXAMPLE4, res.argmin)
    assert achieved == pytest.approx(res.value, abs=1e-10)


def test_grid_min_determinism():
    a = sphere_grid_min(EXAMPLE4, 3000)
    b = sphere_grid_min(EXAMPLE4, 3000)
    assert a.value == b.value
    assert a.argmin == b.argmin
    assert a.points_evaluated == b.points_evaluated


def test_grid_min_rejects_tiny_lattice():
    with pytest.raises(ValueError):
        sphere_grid_min(XYZ, 6)


def test_grid_min_matches_closed_form_within_resolution():
    rng = random.Random(19)
    for _ in range(60):
        dirs = random_set(rng, rng.randint(2, 6))
        closed = incompatibility(dirs).value
        res = sphere_grid_min(dirs, 2000)
        assert abs(res.value - closed) <= 1e-9
        assert res.value >= closed - 1e-10

