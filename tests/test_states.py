import math

import numpy as np
import pytest

from spinbounds import states
from spinbounds.incompat import incompatibility
from spinbounds.states import TwoQubitState, product_state, singlet, werner
from support import XYZ, random_unit, variance_sum

# The Pauli matrices, written out: the reference the two-qubit tests check against.
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def random_mixed(rng):
    """The Bloch vector of a random mixed qubit state."""
    return random_unit(rng) * rng.uniform(0.0, 1.0)


def test_variance_sum_examples():
    rng = np.random.default_rng(2)
    for _ in range(20):
        r = random_unit(rng)
        assert variance_sum(XYZ, r) == pytest.approx(2.0, abs=1e-12)
    assert variance_sum(XYZ, (0, 0, 0)) == pytest.approx(3.0)

    n1 = np.array([1.0, 0.0, 0.0])
    n2 = np.array([0.5, math.sqrt(3) / 2, 0.0])
    got = variance_sum([n1, n2], n1)
    assert got == pytest.approx(1.0 - float(np.dot(n1, n2)) ** 2, abs=1e-12)


def test_variance_sum_never_undercuts_bound():
    rng = np.random.default_rng(13)
    for _ in range(2000):
        dirs = [random_unit(rng) * rng.uniform(0.2, 2.0) for _ in range(int(rng.integers(1, 6)))]
        bound = incompatibility(dirs).value
        assert variance_sum(dirs, random_mixed(rng)) >= bound - 1e-10


def test_variance_concavity_in_state():
    rng = np.random.default_rng(37)
    for _ in range(500):
        dirs = [random_unit(rng) for _ in range(3)]
        r1, r2 = random_mixed(rng), random_mixed(rng)
        p = rng.uniform()
        lhs = variance_sum(dirs, p * r1 + (1 - p) * r2)
        rhs = p * variance_sum(dirs, r1) + (1 - p) * variance_sum(dirs, r2)
        assert lhs >= rhs - 1e-10


def test_make_state_fixtures():
    assert np.allclose(werner(1.0).rho, singlet().rho, atol=1e-15)
    assert np.allclose(werner(0.0).rho, np.eye(4) / 4.0)
    zz = product_state((0, 0, 1), (0, 0, 1))
    assert np.allclose(zz.rho, np.diag([1.0, 0.0, 0.0, 0.0]))


def test_make_state_rejects_bad_parameters():
    with pytest.raises(ValueError):
        werner(1.5)
    with pytest.raises(ValueError):
        product_state((2, 0, 0), (0, 0, 0))


def test_two_qubit_state_validation():
    with pytest.raises(ValueError, match="Hermitian"):
        m = np.eye(4, dtype=complex) / 4.0
        m[0, 1] = 0.5
        TwoQubitState(m)
    with pytest.raises(ValueError, match="trace"):
        TwoQubitState(np.eye(4, dtype=complex))
    with pytest.raises(ValueError, match="positive"):
        TwoQubitState(np.diag([1.1, -0.1, 0.0, 0.0]).astype(complex))


def test_two_qubit_state_checks_hermiticity_at_1e12_with_one_psd_check(monkeypatch):
    rho = np.eye(4, dtype=complex) / 4.0
    rho[0, 1] = 1e-11j  # anti-Hermitian part of size 1e-11
    with pytest.raises(ValueError, match="Hermitian"):
        TwoQubitState(rho)
    calls = []
    check = states.hermitian_psd_check
    monkeypatch.setattr(states, "hermitian_psd_check", lambda m: calls.append(m) or check(m))
    TwoQubitState(np.eye(4) / 4.0)
    assert len(calls) == 1


def random_full_rank(rng):
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = g @ g.conj().T
    return TwoQubitState(rho / np.trace(rho).real)


def test_bloch_tensors_fixtures():
    s = singlet()
    assert np.allclose(s.a, 0.0, atol=1e-15) and np.allclose(s.b, 0.0, atol=1e-15)
    assert np.allclose(s.T, -np.eye(3), atol=1e-15)
    assert np.allclose(werner(0.3).T, -0.3 * np.eye(3), atol=1e-15)
    r_a, r_b = np.array([0.2, -0.5, 0.1]), np.array([0.0, 0.6, -0.7])
    prod = product_state(r_a, r_b)
    assert np.allclose(prod.a, r_a, atol=1e-15)
    assert np.allclose(prod.b, r_b, atol=1e-15)
    assert np.allclose(prod.T, np.outer(r_a, r_b), atol=1e-15)


def test_bloch_tensors_reconstruct_rho():
    rng = np.random.default_rng(79)
    sigma = (np.eye(2), SX, SY, SZ)
    for _ in range(200):
        state = random_full_rank(rng)
        m = np.empty((4, 4))
        m[0, 0] = 1.0
        m[1:, 0], m[0, 1:], m[1:, 1:] = state.a, state.b, state.T
        rho = sum(m[i, j] * np.kron(sigma[i], sigma[j]) for i in range(4) for j in range(4)) / 4.0
        assert np.max(np.abs(rho - state.rho)) <= 1e-14
