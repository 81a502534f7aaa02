"""The builders skip the density-matrix check and lose nothing by it.

`werner` and `product_state` hand `TwoQubitState` rows and Bloch tensors
that they built themselves, with no Hermiticity, trace or PSD test: their
states are density matrices by construction. Each state they return is
rebuilt here from its own `rho` by `TwoQubitState(rho)`, which runs the
full check, reads the 16 entries and sums (a, b, T) itself. The rebuild must
accept it and give the same `rho`, `a`, `b` and `T` bit for bit, signed zeros
included. The checks that stay, `werner`'s range test on p and the Bloch
vector's norm test, still refuse what they refused.

The Werner parameters are the edges of [0, 1], the floats next to them and
next to 1/3, and values drawn from a seeded `random.Random`; the product
states pair Bloch vectors of norm 0, 1, a random norm and the largest norm
the norm test lets through, |r|^2 = 1 + 1e-12. The module imports no numpy.
"""

import math
import random

import pytest

from spinbounds.states import TwoQubitState, product_state, werner
from support import bits

WERNER_EDGES = [0, 1, 0.0, 1.0, 5e-324, math.nextafter(1.0, 0.0), 0.5, 1 / 3,
                math.nextafter(1 / 3, 0.0), math.nextafter(1 / 3, 1.0)]


def assert_rebuilt_bit_for_bit(state):
    # bits() reads a complex entry as two floats, so a float in the builder's rho would not match either
    assert bits(TwoQubitState(state.rho)) == bits(state)


@pytest.mark.parametrize("seed", range(4))
def test_werner_is_its_own_checked_rebuild(seed):
    rng = random.Random(f"werner-{seed}")
    for p in WERNER_EDGES + [rng.random() for _ in range(500)]:
        assert_rebuilt_bit_for_bit(werner(p))


@pytest.mark.parametrize("p", [-5e-324, math.nextafter(1.0, 2.0), -1, 2, math.nan, math.inf])
def test_werner_still_refuses_a_parameter_outside_the_unit_interval(p):
    with pytest.raises(ValueError, match=r"^Werner parameter must lie in \[0, 1\], got "):
        werner(p)


def bloch_vector_of_norm(rng, norm):
    """A random direction scaled to `norm`; `None` asks for the largest norm the norm test accepts."""
    u = [rng.gauss(0.0, 1.0) for _ in range(3)]
    length = math.sqrt(sum(x * x for x in u))
    scale = math.sqrt(1.0 + 1e-12) if norm is None else norm
    r = tuple(x / length * scale for x in u)
    while r[0] * r[0] + r[1] * r[1] + r[2] * r[2] > 1.0 + 1e-12:  # rounded past the test's limit: step back
        r = tuple(math.nextafter(x, 0.0) for x in r)
    return r


@pytest.mark.parametrize("seed", range(4))
def test_product_state_is_its_own_checked_rebuild(seed):
    rng = random.Random(f"product-{seed}")
    fixed = [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, -1.0, 0.0), (0.0, 0.0, 1.0), (-0.0, 0.0, -1.0)]
    for _ in range(150):
        r_a, r_b = (rng.choice(fixed) if rng.random() < 0.2 else
                    bloch_vector_of_norm(rng, rng.choice([0.0, rng.random(), 1.0, None])) for _ in range(2))
        assert_rebuilt_bit_for_bit(product_state(r_a, r_b))


def test_product_state_still_refuses_a_bloch_vector_past_the_unit_ball():
    r = (0.0, 0.0, math.sqrt(1.0 + 3e-12))
    for pair in ((r, (0.0, 0.0, 1.0)), ((1.0, 0.0, 0.0), r), ((1.001, 0.0, 0.0), (0.0, 0.0, 1.0))):
        with pytest.raises(ValueError, match=r"^Bloch vector norm .* exceeds 1$"):
            product_state(*pair)
