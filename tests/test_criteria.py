import warnings

import numpy as np
import pytest

from spinbounds.criteria import (
    entanglement_witness,
    inference_variance_min,
    steering_test,
)
from spinbounds import criteria, states
from spinbounds.incompat import incompatibility
from spinbounds.states import TwoQubitState, product_state, singlet, werner

XYZ = [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)]
XYZ_SETTINGS = [(d, d) for d in XYZ]


def random_unit(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def random_ball(rng):
    return random_unit(rng) * rng.uniform() ** (1.0 / 3.0)


# Dense 4x4 reference: Kronecker-product observables on the density matrix,
# independent of the Bloch tensors the criteria use.
SIGMA = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)
I2 = np.eye(2)


def spin(n):
    return sum(c * s for c, s in zip(n, SIGMA))


def dense_variance(m, rho):
    mean = np.trace(m @ rho).real
    return np.trace(m @ m @ rho).real - mean * mean


def dense_branches(rho, n):
    """(outcome, probability, Bob's Bloch vector) for Alice measuring n."""
    out = []
    for outcome in (+1, -1):
        proj = 0.5 * (I2 + outcome * spin(n))
        bob = np.trace((np.kron(proj, I2) @ rho).reshape(2, 2, 2, 2), axis1=0, axis2=2)
        p = np.trace(bob).real
        out.append((outcome, p, np.array([np.trace(bob @ s).real for s in SIGMA]) / p))
    return out


def random_state(rng, kind):
    if kind == "werner":
        return werner(rng.uniform())
    if kind == "product":
        return product_state(random_ball(rng), random_ball(rng))
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = g @ g.conj().T
    return TwoQubitState(rho / np.trace(rho).real)


def test_witness_singlet():
    report = entanglement_witness(singlet(), XYZ, XYZ)
    assert report.variance_sum == pytest.approx(0.0, abs=1e-12)
    assert report.bound == pytest.approx(4.0, abs=1e-12)
    assert report.violated
    assert report.margin == pytest.approx(4.0, abs=1e-10)


def test_witness_product_zz_saturates():
    report = entanglement_witness(product_state((0, 0, 1), (0, 0, 1)), XYZ, XYZ)
    assert report.variance_sum == pytest.approx(4.0, abs=1e-10)
    assert report.margin == pytest.approx(0.0, abs=1e-10)
    assert not report.violated


def test_witness_werner_half():
    report = entanglement_witness(werner(0.5), XYZ, XYZ)
    # <sigma_i x sigma_i> = -p, so the sum is 6 - 6p
    assert report.variance_sum == pytest.approx(3.0, abs=1e-10)
    assert report.violated


def test_witness_rejects_mismatched_lengths():
    with pytest.raises(ValueError):
        entanglement_witness(singlet(), XYZ, XYZ[:2])


def test_witness_never_flags_product_states():
    rng = np.random.default_rng(61)
    for _ in range(1000):
        state = product_state(random_ball(rng), random_ball(rng))
        n = int(rng.integers(1, 5))
        alice = [random_unit(rng) for _ in range(n)]
        bob = [random_unit(rng) for _ in range(n)]
        report = entanglement_witness(state, alice, bob)
        assert not report.violated
        assert report.variance_sum >= report.bound - 1e-9


def test_witness_margin_monotone_in_werner_parameter():
    margins = [
        entanglement_witness(werner(p), XYZ, XYZ).margin
        for p in np.arange(0.0, 1.0 + 1e-12, 0.01)
    ]
    assert all(b >= a - 1e-12 for a, b in zip(margins, margins[1:]))


def test_witness_crossing_at_one_third():
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if entanglement_witness(werner(mid), XYZ, XYZ).margin > 0:
            hi = mid
        else:
            lo = mid
    assert 0.5 * (lo + hi) == pytest.approx(1.0 / 3.0, abs=1e-3)


# Bob's statistics conditioned on Alice's outcome, read through the inference variance


def test_conditional_stats_singlet():
    # Alice's outcome along z leaves Bob at -outcome z: no spread along +-z
    z = (0.0, 0.0, 1.0)
    for m in (z, (0.0, 0.0, -1.0)):
        assert inference_variance_min(singlet(), z, m) == pytest.approx(0.0, abs=1e-12)


def test_conditional_stats_maximally_mixed():
    rng = np.random.default_rng(61)
    for n, m in [((1, 0, 0), (1, 0, 0))] + [(random_unit(rng), random_unit(rng)) for _ in range(100)]:
        assert inference_variance_min(werner(0.0), n, m) == pytest.approx(1.0, abs=1e-12)


def test_conditional_stats_product_state_uncorrelated():
    # Bob's conditional state is r_b whatever Alice measures
    rng = np.random.default_rng(63)
    r_b = np.array([0.3, -0.4, 0.5])
    state = product_state((0.2, 0.1, -0.3), r_b)
    for n, m in [((0, 1, 0), (0, 0, 1))] + [(random_unit(rng), random_unit(rng)) for _ in range(100)]:
        expected = 1.0 - float(np.dot(m, r_b)) ** 2
        assert inference_variance_min(state, n, m) == pytest.approx(expected, abs=1e-10)


def test_conditional_stats_invariants_random():
    # conditioning on Alice's outcome cannot raise Bob's variance 1 - (m . b)^2
    rng = np.random.default_rng(67)
    for _ in range(1000):
        state = werner(rng.uniform()) if rng.uniform() < 0.5 else product_state(
            random_ball(rng), random_ball(rng)
        )
        n, m = random_unit(rng), random_unit(rng)
        value = inference_variance_min(state, n, m)
        assert -1e-10 <= value <= 1.0 - float(np.dot(m, state.b)) ** 2 + 1e-10


def test_inference_variance_fixtures():
    z = (0.0, 0.0, 1.0)
    assert inference_variance_min(singlet(), z, z) == pytest.approx(0.0, abs=1e-12)
    assert inference_variance_min(werner(0.0), z, z) == pytest.approx(1.0, abs=1e-12)
    for p in (0.2, 0.5, 0.9):
        got = inference_variance_min(werner(p), z, z)
        assert got == pytest.approx(1.0 - p * p, abs=1e-10)


def test_steering_singlet():
    report = steering_test(singlet(), XYZ_SETTINGS)
    assert report.total == pytest.approx(0.0, abs=1e-12)
    assert report.bound == pytest.approx(2.0, abs=1e-12)
    assert report.violated


def test_steering_werner_fixtures():
    report = steering_test(werner(0.8), XYZ_SETTINGS)
    assert report.total == pytest.approx(3 * (1 - 0.64), abs=1e-10)
    assert report.violated

    report = steering_test(werner(0.5), XYZ_SETTINGS)
    assert report.total == pytest.approx(2.25, abs=1e-10)
    assert not report.violated


def test_steering_rejects_empty_settings():
    with pytest.raises(ValueError):
        steering_test(singlet(), [])


HUGE = 10**400  # an int too large for a float


@pytest.mark.parametrize("call", [
    lambda: states.QubitState((HUGE, 0, 0)),
    lambda: product_state((0, 0, 1), (0, HUGE, 0)),
    lambda: entanglement_witness(singlet(), [(0, 0, HUGE)], [(0, 0, 1)]),
    lambda: steering_test(singlet(), [((HUGE, 0, 0), (1, 0, 0))]),
], ids=["QubitState", "product_state", "entanglement_witness", "steering_test"])
def test_overflowing_vector_is_a_value_error(call):
    # as `validate_directions` does for a direction set
    with pytest.raises(ValueError, match="expected a 3-vector: int too large to convert to float"):
        call()


NAN = float("nan")
Z = (0.0, 0.0, 1.0)
# Bad input given as nested lists; each test also passes the same input as an ndarray.
BAD_VECTORS = {  # where one 3-vector is expected
    "complex": [0.5 + 1j, 0.0, 0.0],
    "nan": [NAN, 0.0, 0.0],
    "wrong-length": [0.0, 1.0],
    "2-D": [[0.0, 0.0, 1.0]],
}
BAD_SETS = {  # where a list of directions is expected
    "complex": [[1.0, 0.0, 0.0], [0.0, 1j, 0.0]],
    "nan": [[1.0, 0.0, 0.0], [0.0, NAN, 1.0]],
    "wrong-length": [[1.0, 0.0], [0.0, 1.0]],
    "1-D": [0.0, 0.0, 1.0],
}
BAD_SETTINGS = {  # where (alice, bob) pairs are expected
    "complex": [[[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]], [[0.0, 1j, 0.0], [0.0, 1.0, 0.0]]],
    "nan": [[[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]], [[NAN, 1.0, 0.0], [0.0, 1.0, 0.0]]],
    "wrong-length": [[[1.0, 0.0], [1.0, 0.0]], [[0.0, 1.0], [0.0, 1.0]]],
    "1-D": [0.0, 0.0, 1.0],
}
PARITY = [(name, case, bad[case], call, as_array) for name, bad, call, as_array in [
    ("QubitState", BAD_VECTORS, lambda x: states.QubitState(x), np.array),
    ("product_state", BAD_VECTORS, lambda x: product_state(Z, x), np.array),
    ("inference_variance_min-alice", BAD_VECTORS, lambda x: inference_variance_min(singlet(), x, Z), np.array),
    ("inference_variance_min-bob", BAD_VECTORS, lambda x: inference_variance_min(singlet(), Z, x), np.array),
    ("entanglement_witness-alice", BAD_SETS, lambda x: entanglement_witness(singlet(), x, XYZ[:2]), np.array),
    ("entanglement_witness-bob", BAD_SETS, lambda x: entanglement_witness(singlet(), XYZ[:2], x), np.array),
    ("steering_test", BAD_SETTINGS, lambda x: steering_test(singlet(), x), np.array),
    # the form the benchmark uses: a list of pairs of 1-D arrays
    ("steering_test-pairs", BAD_SETTINGS, lambda x: steering_test(singlet(), x),
     lambda x: [(np.array(a), np.array(b)) for a, b in x]),
] for case in bad if (name, case) != ("steering_test-pairs", "1-D")]


def raised(call, x):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's ComplexWarning, when a complex scalar is cut to its real part
        try:
            call(x)
        except (TypeError, ValueError) as exc:
            return type(exc), str(exc)
    return None


@pytest.mark.parametrize("case, bad, call, as_array", [p[1:] for p in PARITY], ids=[f"{p[0]}-{p[1]}" for p in PARITY])
def test_ndarray_and_list_inputs_fail_alike(case, bad, call, as_array):
    # an ndarray is read through tolist(), so it fails as the list does: a
    # complex one is rejected, not cut to its real part
    from_list = raised(call, bad)
    assert from_list is not None
    if case == "complex":
        assert from_list == (ValueError, "expected a 3-vector: float() argument must be a string or a real number, not 'complex'")
    assert raised(call, as_array(bad)) == from_list


def test_steering_total_monotone_in_werner_parameter():
    totals = [
        steering_test(werner(p), XYZ_SETTINGS).total
        for p in np.arange(0.0, 1.0 + 1e-12, 0.01)
    ]
    assert all(b <= a + 1e-12 for a, b in zip(totals, totals[1:]))


def test_steering_crossing_at_inverse_sqrt3():
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if steering_test(werner(mid), XYZ_SETTINGS).margin > 0:
            hi = mid
        else:
            lo = mid
    assert 0.5 * (lo + hi) == pytest.approx(1.0 / np.sqrt(3.0), abs=1e-3)


def test_steering_sound_on_product_states():
    # Bob's conditional state is outcome-independent for a product state,
    # so the total reduces to a plain variance sum, which cannot undercut
    # the bound for the measured directions.
    rng = np.random.default_rng(73)
    for _ in range(300):
        r_b = random_ball(rng)
        state = product_state(random_ball(rng), r_b)
        settings = [(random_unit(rng), random_unit(rng)) for _ in range(3)]
        report = steering_test(state, settings)
        expected = sum(1.0 - float(np.dot(b, r_b)) ** 2 for _, b in settings)
        assert report.total == pytest.approx(expected, abs=1e-10)
        assert report.total >= report.bound - 1e-9
        assert not report.violated


@pytest.mark.parametrize("kind", ["werner", "product", "full_rank"])
def test_witness_matches_dense_reference(kind):
    rng = np.random.default_rng(83)
    for _ in range(100):
        state = random_state(rng, kind)
        n = int(rng.integers(1, 5))
        alice = [random_unit(rng) for _ in range(n)]
        bob = [random_unit(rng) for _ in range(n)]
        dense = sum(
            dense_variance(np.kron(spin(a), I2) + np.kron(I2, spin(b)), state.rho)
            for a, b in zip(alice, bob)
        )
        report = entanglement_witness(state, alice, bob)
        assert abs(report.variance_sum - dense) <= 1e-12


@pytest.mark.parametrize("kind", ["werner", "product", "full_rank"])
def test_steering_statistics_match_dense_reference(kind):
    rng = np.random.default_rng(89)
    for _ in range(100):
        state = random_state(rng, kind)
        for _ in range(int(rng.integers(1, 5))):
            a, b = random_unit(rng), random_unit(rng)
            dense = dense_branches(state.rho, a)
            expected = sum(p * (1.0 - float(b @ r) ** 2) for _, p, r in dense)
            assert abs(inference_variance_min(state, a, b) - expected) <= 1e-12


def test_werner_checks_positivity_once(monkeypatch):
    calls = []

    def counting(m, tol):
        calls.append(tol)
        return check(m, tol)

    check = states.hermitian_psd_check
    monkeypatch.setattr(states, "hermitian_psd_check", counting)
    werner(0.5)
    assert len(calls) == 1


def test_witness_computes_one_bound_when_bob_equals_alice(monkeypatch):
    calls = []
    bound = criteria.incompatibility
    monkeypatch.setattr(criteria, "incompatibility", lambda d: calls.append(d) or bound(d))
    for bob, count in [(XYZ, 1), (np.array(XYZ), 1), ([(1.0, -0.0, -0.0)] + XYZ[1:], 1), (XYZ[::-1], 2)]:
        calls.clear()
        entanglement_witness(werner(0.8), XYZ, bob)
        assert len(calls) == count
