"""The straight-line two-qubit path against the code it replaced.

`TwoQubitState` sums its Bloch tensors in straight lines, the steering
statistics run on unpacked floats without per-branch records, and the
witness computes one bound when Bob's directions equal Alice's. The code
they replaced is copied here as the reference: the `_BLOCH` gather table,
the per-branch conditional statistics that the inference variance was
summed from (`reference_branches`), and the witness with two bound calls.
Every float they return must keep its bits, signed zeros included.

The references add with `sum311`, an explicit loop from 0, as `sum()`
added floats before Python 3.12 and as the package does on every version.
"""

import math
from operator import itemgetter

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from spinbounds.criteria import entanglement_witness, inference_variance_min, steering_test
from spinbounds.incompat import incompatibility
from spinbounds.linalg3 import _dot
from spinbounds.states import TwoQubitState, product_state, werner

# Nonzero entries (row, column, value) of I, sigma_x, sigma_y, sigma_z.
_PAULI = (((0, 0, 1), (1, 1, 1)), ((0, 1, 1), (1, 0, 1)), ((0, 1, -1j), (1, 0, 1j)), ((0, 0, 1), (1, 1, -1)))
_PART = {1: 0, -1j: 1, -1: 2, 1j: 3}  # Re(v z) = (Re z, Im z, -Re z, -Im z)[_PART[v]]
# _BLOCH[4 mu + nu - 1] gathers the terms Re(v rho[i][j]) of tr(rho sigma_mu (x) sigma_nu),
# (mu, nu) != (0, 0), in rho's row-major order
_BLOCH = [
    itemgetter(*(16 * _PART[v] + 4 * i + j for i, j, v in sorted(
        (2 * c + d, 2 * r + s, u * w) for r, c, u in _PAULI[mu] for s, d, w in _PAULI[nu])))
    for mu in range(4) for nu in range(4)
][1:]


def sum311(values):
    """sum() as CPython 3.11 adds floats: from 0, left to right."""
    total = 0
    for v in values:
        total += v
    return total


def reference_bloch(rho):
    re, im = [z.real for row in rho for z in row], [z.imag for row in rho for z in row]
    parts = re + im + [-x for x in re] + [-x for x in im]
    m = [sum311(g(parts)) for g in _BLOCH]
    return tuple(m[3:12:4]), tuple(m[0:3]), (tuple(m[4:7]), tuple(m[8:11]), tuple(m[12:15]))


def _matvec(b, x):
    return (_dot(b[0], x), _dot(b[1], x), _dot(b[2], x))


def vec(d):
    return tuple(map(float, d))


def reference_witness(state, alice_dirs, bob_dirs):
    alice, bob = list(map(vec, alice_dirs)), list(map(vec, bob_dirs))
    variance_sum = sum311(
        _dot(n, n) + _dot(m, m) + 2.0 * _dot(n, _matvec(state.T, m)) - (_dot(n, state.a) + _dot(m, state.b)) ** 2
        for n, m in zip(alice, bob)
    )
    bound = incompatibility(alice).value + incompatibility(bob).value
    return variance_sum, bound, variance_sum < bound - 1e-10, bound - variance_sum


def reference_branches(state, a_dir):
    """(outcome, probability, Bob's conditional Bloch vector), +1 first;
    outcomes below probability 1e-12 are omitted."""
    n = vec(a_dir)
    mean_a = _dot(n, state.a)
    steered = _matvec(tuple(zip(*state.T)), n)
    branches = []
    for outcome in (+1, -1):
        p = 0.5 * (1.0 + outcome * mean_a)
        if p < 1e-12:
            continue
        bloch = tuple((b + outcome * s) / (2.0 * p) for b, s in zip(state.b, steered))
        branches.append((outcome, p, bloch))
    return tuple(branches)


def reference_inference_variance(state, a_dir, b_dir):
    b = vec(b_dir)
    total = 0.0
    for _, probability, bob_bloch in reference_branches(state, a_dir):
        mean = _dot(b, bob_bloch)
        total += probability * (1.0 - mean * mean)
    return total


def reference_steering(state, settings):
    variances = tuple(reference_inference_variance(state, a, b) for a, b in settings)
    total = sum311(variances)
    bound = incompatibility([b for _, b in settings]).value
    return variances, total, bound, total < bound - 1e-10, bound - total


def bits(x):
    """Every float in nested tuples and reports, as hex: -0.0 and 0.0 differ."""
    if hasattr(x, "_fields"):
        x = tuple(vars(x).values())
    if isinstance(x, (tuple, list)):
        return [h for y in x for h in bits(y)]
    return [repr(x)] if isinstance(x, bool) else [float.hex(x)]


def assert_bit_identical(state, alice, bob, pairs):
    assert bits((state.a, state.b, state.T)) == bits(reference_bloch(state.rho))
    assert bits(entanglement_witness(state, alice, bob)) == bits(reference_witness(state, alice, bob))
    assert bits(steering_test(state, pairs)) == bits(reference_steering(state, pairs))
    for a, b in pairs:
        assert bits(inference_variance_min(state, a, b)) == bits(reference_inference_variance(state, a, b))


def flip_zeros(dirs):
    return [tuple(-x if x == 0.0 else x for x in d) for d in dirs]


def directions(rng, n):
    """n unit directions as tuples; each component is zeroed with chance 1/3
    (as 0.0 or -0.0, with the sign of the normal draw it replaces)."""
    out = []
    while len(out) < n:
        d = rng.normal(size=3) * (rng.uniform(size=3) > 1.0 / 3.0)
        if d.any():
            out.append(tuple((d / np.linalg.norm(d)).tolist()))
    return out


def ball(rng):
    d = rng.normal(size=3)
    return d / np.linalg.norm(d) * rng.uniform() ** (1.0 / 3.0)


def mixed(rng, rank):
    g = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def seeded_states(rng):
    for p in (0.0, 1.0 / 3.0, 0.5, 1.0 / math.sqrt(3.0), 0.8, 1.0, *rng.uniform(size=8)):
        yield werner(float(p))
    for _ in range(15):
        yield product_state(ball(rng), ball(rng))
    yield product_state((0, 0, 1), (0, 0, -1))
    for rank in (1, 2, 3, 4, 4, 4):
        rho = mixed(rng, rank)
        yield TwoQubitState(rho)
        yield TwoQubitState(rho.tolist())


def test_two_qubit_path_is_bit_identical_on_a_seeded_panel():
    rng = np.random.default_rng(14)
    for state in seeded_states(rng):
        for n in (1, 2, 3, 4):
            alice = directions(rng, n)
            pairs = list(zip(directions(rng, n), directions(rng, n)))
            for bob in (alice, flip_zeros(alice), directions(rng, n), np.array(alice)):
                assert_bit_identical(state, alice, bob, pairs)


def test_bloch_tensors_of_signed_zero_entries_are_bit_identical():
    # every zero part of rho as 0.0 or -0.0 at random: the sums start from
    # 0.0, as sum() did, so a -0.0 term rounds as it did
    rng = np.random.default_rng(3)
    real = [werner(0.5).rho, werner(1.0).rho, product_state((0, 0, 1), (1, 0, 0)).rho, np.diag([0.25] * 4)]
    for rho in real:
        for _ in range(64):
            signed = [
                [complex(*(rng.choice((0.0, -0.0)) if x == 0.0 else x for x in (z.real, z.imag))) for z in row]
                for row in rho
            ]
            state = TwoQubitState(signed)
            assert bits((state.a, state.b, state.T)) == bits(reference_bloch(state.rho))
            alice = directions(rng, 3)
            assert_bit_identical(state, alice, alice, list(zip(alice, alice)))


def test_skipped_branch_is_bit_identical():
    # a . n = +-1 on a pure product state: one outcome has probability ~0 and
    # its branch is skipped
    rng = np.random.default_rng(41)
    units = [(0, 0, 1), (1, 0, 0), (0, 1, 0), (0.6, 0.8, 0.0), (3 / 13, 4 / 13, 12 / 13), *directions(rng, 6)]
    for r_a in units:
        r_a = vec(r_a)
        state = product_state(r_a, ball(rng))
        for sign in (1.0, -1.0):
            n = tuple(sign * x for x in r_a)
            assert len(reference_branches(state, n)) == 1
            pairs = [(n, m) for m in directions(rng, 3)]
            assert_bit_identical(state, [n], [n], pairs)


def test_bob_equal_to_alice_but_for_signed_zeros_is_bit_identical():
    sets = [
        [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)],
        [(1.0, -0.0, 0.0), (-0.0, 1.0, -0.0), (0.0, -0.0, -1.0)],
        [(math.cos(t), math.sin(t), 0.0) for t in (0.0, 2 * math.pi / 3, 4 * math.pi / 3)],
        [(0.0, math.sqrt(0.5), -math.sqrt(0.5)), (-0.0, 0.0, 1.0)],
    ]
    rng = np.random.default_rng(7)
    for alice in sets:
        bob = flip_zeros(alice)
        assert bob == alice and bits(bob) != bits(alice)
        for state in (werner(0.8), product_state(ball(rng), ball(rng)), TwoQubitState(mixed(rng, 4))):
            assert_bit_identical(state, alice, bob, list(zip(alice, bob)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(("werner", "product", "mixed")),
    p=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 4),
    bob_kind=st.sampled_from(("same", "flipped", "other")),
)
def test_two_qubit_path_is_bit_identical(kind, p, seed, n, bob_kind):
    rng = np.random.default_rng(seed)
    if kind == "werner":
        state = werner(p)
    elif kind == "product":
        state = product_state(ball(rng), ball(rng))
    else:
        state = TwoQubitState(mixed(rng, int(rng.integers(1, 5))))
    alice = directions(rng, n)
    bob = {"same": alice, "flipped": flip_zeros(alice), "other": directions(rng, n)}[bob_kind]
    assert_bit_identical(state, alice, bob, list(zip(directions(rng, n), directions(rng, n))))
