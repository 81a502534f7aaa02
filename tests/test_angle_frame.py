"""The frame that `directions_from_angles` builds, on triples with a nearly
parallel or antiparallel pair.

The frame is built on the pair whose angle has the largest |sin|, so the
third row never divides by the sine of a pair that rounding has blurred.
The bound of the rows must be `incompatibility_from_angles`'s, and every
row unit length. Imports no numpy: the triples come from `random.Random`.
"""

import json
import math
import random

import pytest

from spinbounds.cli import EXIT_OK, main
from spinbounds.incompat import directions_from_angles, incompatibility, incompatibility_from_angles
from support import cross, dot

# measured from unit vectors, one pair 1.7e-8 apart: with the frame on (n1, n2), whose angle is
# that 1.7e-8, the third row came back 1.152 long and the bound 1.31957 instead of 0.99469
NEAR_PARALLEL = (1.5191024480724855, 1.5191024308986525, 1.8058100816672733e-08)


def norm(p):
    return math.sqrt(dot(p, p))


def angle(p, q):
    return math.atan2(norm(cross(p, q)), dot(p, q))


def unit(rng):
    while True:
        v = (rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0))
        if norm(v) > 1e-3:
            return tuple(x / norm(v) for x in v)


def near_pair_triples(seed, count):
    """Angle triples of three random unit vectors, two of them 1e-12 to 1e-1 (log-uniform) from parallel
    or antiparallel, the pair placed at random among the three; each angle measured by atan2."""
    rng = random.Random(seed)
    for _ in range(count):
        u, w = unit(rng), unit(rng)
        p = cross(u, unit(rng))
        p = tuple(x / norm(p) for x in p)
        eps, sign = 10.0 ** rng.uniform(-12.0, -1.0), rng.choice((1.0, -1.0))
        rows = [u, tuple(sign * (math.cos(eps) * a + math.sin(eps) * b) for a, b in zip(u, p)), w]
        rng.shuffle(rows)
        n1, n2, n3 = rows
        yield angle(n2, n3), angle(n1, n3), angle(n1, n2)


def assert_rows_match_the_bound(angles):
    rows = directions_from_angles(*angles)
    assert all(abs(x * x + y * y + z * z - 1.0) <= 1e-12 for x, y, z in rows), rows
    assert incompatibility(rows).value == pytest.approx(incompatibility_from_angles(*angles), abs=1e-9)


def test_a_nearly_parallel_pair_gives_the_bound_of_its_angles(capsys):
    assert_rows_match_the_bound(NEAR_PARALLEL)
    assert main(["incompat", "--angles", *map(repr, NEAR_PARALLEL), "--json"]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["value"] == pytest.approx(0.9946884554808086, abs=1e-9)
    assert out["traces"][0] == pytest.approx(3.0, abs=1e-12)


def test_seeded_near_parallel_sweep():
    # 20,000 triples; at the frame on (n1, n2) about 1.2% of them missed the bound by more than 1e-9
    # (worst 0.44) and 0.2% had a row off unit length by more than 1e-12
    for angles in near_pair_triples(2026, 20_000):
        assert_rows_match_the_bound(angles)


def test_the_frame_stays_on_n1_n2_where_its_sine_is_largest():
    for angles in ((math.pi / 2,) * 3, (math.pi / 3,) * 3, (0.0, 0.0, 0.0), (1.0, 1.2, 1.5)):
        n1, n2, _ = directions_from_angles(*angles)
        assert n1 == (1.0, 0.0, 0.0)
        assert n2 == (math.cos(angles[2]), abs(math.sin(angles[2])), 0.0)


@pytest.mark.parametrize("k", [0, 1])
def test_the_frame_moves_to_the_pair_with_the_largest_sine(k):
    angles = [0.7, 0.7, 0.7]
    angles[k] = 1.2  # the angle between the two rows other than row k
    rows = directions_from_angles(*angles)
    i, j = [m for m in range(3) if m != k]
    assert rows[i] == (1.0, 0.0, 0.0) and rows[j] == (math.cos(1.2), math.sin(1.2), 0.0)
    assert_rows_match_the_bound(angles)
