"""The package's float sums add left to right from 0.0, on every CPython.

`steering_test`'s total is compared as `float.hex` with a reference that
adds in an explicit loop, on a panel drawn from a seeded `random.Random`.
`sum()` of floats is compensated from Python 3.12 on, so a result that went
through `sum()` would match this reference on 3.10 and 3.11 only; shadowing
`sum` with `math.fsum` in the package's namespaces must not move a bit on
any version. This module imports no numpy, so it runs on a CPython without
it (see README).
"""

import math
import random

from spinbounds import criteria, incompat, states
from spinbounds.oracle import cubic_coefficients_unit
from spinbounds.criteria import entanglement_witness, steering_test
from spinbounds.states import TwoQubitState, product_state, werner
from support import inference_variance, sum311


def unit(rng):
    while True:
        v = (rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0))
        norm = math.hypot(*v)
        if norm > 1e-3:
            return (v[0] / norm, v[1] / norm, v[2] / norm)


def ball(rng):
    x, y, z = unit(rng)
    r = rng.random() ** (1.0 / 3.0)
    return (r * x, r * y, r * z)


def mixed(rng, rank):
    """A random 4x4 density matrix of the given rank, G G^H / tr(G G^H)."""
    g = [[complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)) for _ in range(rank)] for _ in range(4)]
    rho = [[sum311(g[i][k] * g[j][k].conjugate() for k in range(rank)) for j in range(4)] for i in range(4)]
    trace = sum311(rho[i][i].real for i in range(4))
    return [[z / trace for z in row] for row in rho]


def two_qubit_panel(seed=16):
    rng = random.Random(seed)
    states_ = [werner(p) for p in (0.0, 1.0 / 3.0, 0.5, 0.8, 1.0)]
    states_ += [werner(rng.random()) for _ in range(10)]
    states_ += [product_state(ball(rng), ball(rng)) for _ in range(20)]
    states_ += [TwoQubitState(mixed(rng, rank)) for rank in (1, 2, 3, 4) for _ in range(5)]
    for state in states_:
        for n in range(1, 10):
            yield state, [(unit(rng), unit(rng)) for _ in range(n)]


def unit_panel(seed=18):
    rng = random.Random(seed)
    for _ in range(300):
        yield [unit(rng) for _ in range(rng.randint(1, 12))]


def hexes(*values):
    return [float.hex(v) for v in values]


def test_steering_total_adds_left_to_right():
    for state, settings in two_qubit_panel():
        report = steering_test(state, settings)
        variances = [inference_variance(state, a, b) for a, b in settings]
        total = sum311(variances)
        assert hexes(*report.inference_variances) == hexes(*variances)
        assert hexes(report.total, report.margin) == hexes(total, report.bound - total)
        assert report.violated == (total < report.bound - 1e-10)


def panel_bits():
    out = []
    for state, settings in two_qubit_panel():
        alice, bob = [a for a, _ in settings], [b for _, b in settings]
        report = steering_test(state, settings)
        witness = entanglement_witness(state, alice, bob)
        out += hexes(*state.a, *state.b, *(x for row in state.T for x in row))
        out += hexes(report.total, report.bound, witness.variance_sum, witness.bound)
    for dirs in unit_panel():
        out += hexes(*cubic_coefficients_unit(dirs))
    return out


def test_no_result_goes_through_sum(monkeypatch):
    # math.fsum rounds the exact sum once, as sum() nearly does from 3.12 on
    before = panel_bits()
    for module in (criteria, states, incompat):
        monkeypatch.setattr(module, "sum", math.fsum, raising=False)
    after = panel_bits()
    assert after == before

