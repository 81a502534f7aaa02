import math
import re
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinbounds.incompat import (
    Sym3Spectrum,
    directions_from_angles,
    incompatibility,
    incompatibility_from_angles,
    incompatibility_pair,
    lambda_max_from_traces,
    moment_matrix,
    optimal_bloch,
    sym3_spectrum,
    validate_directions,
)
from spinbounds import incompat
from spinbounds.criteria import entanglement_witness, steering_test
from spinbounds.linalg3 import sym3_eigen_jacobi
from spinbounds.oracle import cubic_coefficients_unit
from spinbounds.states import TwoQubitState, werner
import support
from support import EXAMPLE4, XYZ, bits, outcome, random_set, random_unit, sym3_certificate, variance_sum


def random_rotation(rng):
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def test_moment_matrix_examples():
    a, t = moment_matrix(XYZ)
    assert np.allclose(a, np.eye(3))
    assert t == pytest.approx((3.0, 3.0, 3.0))

    a, t = moment_matrix([(1.0, 0.0, 0.0)])
    assert np.allclose(a, np.diag([1.0, 0.0, 0.0]))
    assert t == pytest.approx((1.0, 1.0, 1.0))

    n = np.array([0.6, 0.8, 0.0])
    a, t = moment_matrix([n, n])
    assert np.allclose(a, 2.0 * np.outer(n, n))
    assert t == pytest.approx((2.0, 4.0, 8.0))


def test_moment_matrix_rejects_zero_direction():
    with pytest.raises(ValueError, match="zero length"):
        moment_matrix([(1.0, 0.0, 0.0), (0.0, 0.0, 0.0)])


def test_cubic_coefficients_examples():
    c = incompatibility(XYZ)  # traces (3, 3, 3)
    assert c.alpha == pytest.approx(0.0, abs=1e-14)
    assert c.beta == pytest.approx(0.0, abs=1e-14)

    n = (0.6, 0.8, 0.0)
    c = incompatibility([n, n])  # traces (2, 4, 8)
    assert c.alpha == pytest.approx(2.0 / 3.0)
    assert c.beta == pytest.approx(8.0 / 27.0)

    # spectrum (1,0,0): shifted roots are (2/3, -1/3, -1/3)
    c = incompatibility([(1.0, 0.0, 0.0)])  # traces (1, 1, 1)
    assert c.alpha == pytest.approx(1.0 / 3.0)
    assert c.beta == pytest.approx(1.0 / 27.0)
    for z in (2.0 / 3.0, -1.0 / 3.0):
        assert z**3 - 3 * c.alpha**2 * z - 2 * c.beta == pytest.approx(0.0, abs=1e-15)


def test_cubic_coefficients_rejects_inconsistent_traces():
    with pytest.raises(ValueError, match="inconsistent"):
        lambda_max_from_traces((3.0, 1.0, 1.0))


def test_cubic_coefficients_unit_orthonormal():
    c = cubic_coefficients_unit(XYZ)
    assert c.alpha == pytest.approx(0.0, abs=1e-14)
    assert c.beta == pytest.approx(0.0, abs=1e-14)


def test_cubic_coefficients_unit_equal_overlaps():
    # three unit vectors with all pairwise dots c: alpha^2 = c^2, beta = c^3
    t1, t2, t3 = math.pi / 3, math.pi / 3, math.pi / 3
    dirs = directions_from_angles(t1, t2, t3)
    c = cubic_coefficients_unit(dirs)
    assert c.alpha**2 == pytest.approx(0.25, abs=1e-12)
    assert c.beta == pytest.approx(0.125, abs=1e-12)


def test_cubic_coefficients_unit_matches_kernel():
    via_kernel = incompatibility(EXAMPLE4)
    via_dots = cubic_coefficients_unit(EXAMPLE4)
    assert via_dots.alpha == pytest.approx(via_kernel.alpha, abs=1e-10)
    assert via_dots.beta == pytest.approx(via_kernel.beta, abs=1e-10)


def test_cubic_coefficients_unit_random_agreement():
    rng = np.random.default_rng(23)
    for _ in range(1000):
        dirs = random_set(rng, int(rng.integers(3, 7)), unit=True)
        a = incompatibility(dirs)
        b = cubic_coefficients_unit(dirs)
        assert b.alpha == pytest.approx(a.alpha, abs=1e-10)
        assert b.beta == pytest.approx(a.beta, abs=1e-10)


@pytest.mark.parametrize("copies", range(2, 13))
def test_cubic_coefficients_unit_accepts_what_its_unit_check_accepts(copies):
    # |n|^2 = 1 - 2e-9 passes the unit check, and puts the radicand of copies x XYZ (an isotropic set, alpha = 0)
    # n (n - 3) 2e-9/9 below zero: -4e-9 at two copies, which the fixed -1e-9 threshold rejected
    s = 1.0 - 1e-9
    assert cubic_coefficients_unit([(s, 0.0, 0.0), (0.0, s, 0.0), (0.0, 0.0, s)] * copies).alpha == 0.0


def test_cubic_coefficients_unit_rejects_non_unit():
    with pytest.raises(ValueError, match="direction 1"):
        cubic_coefficients_unit([(1.0, 0.0, 0.0), (0.0, 2.0, 0.0), (0.0, 0.0, 1.0)])


def test_lambda_max_examples():
    assert incompatibility(XYZ).lambda_max == pytest.approx(1.0)
    n = (0.6, 0.8, 0.0)
    assert incompatibility([n, n]).lambda_max == pytest.approx(2.0)
    res = incompatibility(EXAMPLE4)
    assert res.traces[0] == pytest.approx(4.0)
    assert res.lambda_max == pytest.approx(3.05045, abs=1e-5)


def test_incompatibility_examples():
    assert incompatibility(XYZ).value == pytest.approx(2.0, abs=1e-12)
    assert incompatibility(EXAMPLE4).value == pytest.approx(0.94955, abs=1e-5)
    pair = [(1.0, 0.0, 0.0), (0.5, math.sqrt(3) / 2, 0.0)]
    assert incompatibility(pair).value == pytest.approx(0.5, abs=1e-12)


def test_incompatibility_closed_form_matches_jacobi():
    rng = np.random.default_rng(5)
    for _ in range(1000):
        dirs = random_set(rng, int(rng.integers(1, 7)))
        w, _ = sym3_eigen_jacobi(moment_matrix(dirs)[0])
        assert incompatibility(dirs).lambda_max == pytest.approx(w[0], abs=1e-9)


def test_incompatibility_rotation_invariance():
    rng = np.random.default_rng(17)
    for _ in range(100):
        dirs = random_set(rng, 4)
        rot = random_rotation(rng)
        base = incompatibility(dirs).value
        rotated = incompatibility([rot @ d for d in dirs]).value
        assert rotated == pytest.approx(base, abs=1e-10)


def test_incompatibility_sign_and_permutation_invariance():
    rng = np.random.default_rng(29)
    for _ in range(100):
        dirs = random_set(rng, 4)
        base = incompatibility(dirs).value
        flipped = [d.copy() for d in dirs]
        flipped[1] = -flipped[1]
        assert incompatibility(flipped).value == pytest.approx(base, abs=1e-12)
        perm = [dirs[2], dirs[0], dirs[3], dirs[1]]
        assert incompatibility(perm).value == pytest.approx(base, abs=1e-12)


def test_incompatibility_range_for_unit_directions():
    rng = np.random.default_rng(41)
    for _ in range(200):
        n = int(rng.integers(1, 7))
        dirs = random_set(rng, n, unit=True)
        value = incompatibility(dirs).value
        assert -1e-12 <= value <= 2 * n / 3 + 1e-9
    # maximum is attained exactly when A = (N/3) * I
    assert incompatibility(XYZ).value == pytest.approx(2.0, abs=1e-12)


def test_single_direction_gives_zero():
    res = incompatibility([(0.0, 0.0, 1.5)])
    assert res.value == pytest.approx(0.0, abs=1e-12)


def test_result_invariants():
    rng = np.random.default_rng(131)
    for _ in range(200):
        res = incompatibility(random_set(rng, int(rng.integers(1, 7))))
        assert res.value == pytest.approx(res.traces[0] - res.lambda_max, abs=1e-12)
        assert np.linalg.norm(res.optimizer) == pytest.approx(1.0, abs=1e-10)
        assert res.value >= -1e-12


def test_incompatibility_pair_examples():
    assert incompatibility_pair((1, 0, 0), (0, 1, 0)) == pytest.approx(1.0)
    assert incompatibility_pair((0, 0, 1), (0, 0, 1)) == pytest.approx(0.0, abs=1e-14)
    # diag(1, 4, 0) spectrum: I = 5 - 4
    assert incompatibility_pair((1, 0, 0), (0, 2, 0)) == pytest.approx(1.0)


def test_incompatibility_pair_unit_closed_form():
    rng = np.random.default_rng(59)
    for _ in range(1000):
        n1, n2 = random_unit(rng), random_unit(rng)
        expected = 1.0 - abs(float(np.dot(n1, n2)))
        assert incompatibility_pair(n1, n2) == pytest.approx(expected, abs=1e-12)


def test_incompatibility_pair_past_the_square_overflow():
    # (s1 - s2) ** 2 raised OverflowError at length 1e78 and gave NaN at 1e160.
    # incompatibility() rejects 1e78 itself (tr A^3 overflows past ~2.4e51),
    # so the pair is compared with it through scale covariance, I(s n) = s^2 I(n).
    n1, n2 = (0.6, 0.8, 0.0), (0.0, 0.56, 1.92)
    s = 1e78
    got = incompatibility_pair([s * x for x in n1], [s * x for x in n2])
    s1_plus_s2 = s * s * (1.0 + 4.0)
    assert abs(got - s * s * incompatibility([n1, n2]).value) <= 1e-12 * s1_plus_s2
    for big in ([1e160, 0.0, 0.0], [0.0, 1e160, 0.0]):
        for pair in ((big, n2), (n1, big)):
            with pytest.raises(ValueError, match="overflows"):
                incompatibility_pair(*pair)


def test_incompatibility_pair_rejects_zero_vector():
    with pytest.raises(ValueError):
        incompatibility_pair((0, 0, 0), (1, 0, 0))


def test_from_angles_orthonormal():
    val = incompatibility_from_angles(math.pi / 2, math.pi / 2, math.pi / 2)
    assert val == pytest.approx(2.0, abs=1e-12)


def test_from_angles_equilateral():
    # all pairwise angles pi/3: Gram spectrum (2, 1/2, 1/2), bound 3 - 2
    val = incompatibility_from_angles(math.pi / 3, math.pi / 3, math.pi / 3)
    assert val == pytest.approx(1.0, abs=1e-12)


def test_from_angles_rejects_unrealizable():
    with pytest.raises(ValueError, match="Gram eigenvalue"):
        incompatibility_from_angles(math.pi / 9, math.pi / 9, math.pi / 3)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("position", [0, 1, 2])
def test_from_angles_rejects_non_finite_angle(position, bad):
    # a NaN angle used to give a NaN bound and NaN direction rows
    angles = [math.pi / 2] * 3
    angles[position] = bad
    for fn in (incompatibility_from_angles, directions_from_angles):
        with pytest.raises(ValueError, match=f"theta{position + 1} = {bad} is not finite"):
            fn(*angles)


def test_from_angles_matches_reconstruction():
    rng = np.random.default_rng(71)
    checked = 0
    while checked < 200:
        t1, t2, t3 = rng.uniform(0.1, math.pi, size=3)
        try:
            val = incompatibility_from_angles(t1, t2, t3)
        except ValueError:
            continue
        dirs = directions_from_angles(t1, t2, t3)
        gram = np.array([[float(np.dot(a, b)) for b in dirs] for a in dirs])
        assert gram[1, 2] == pytest.approx(math.cos(t1), abs=1e-9)
        assert gram[0, 2] == pytest.approx(math.cos(t2), abs=1e-9)
        assert gram[0, 1] == pytest.approx(math.cos(t3), abs=1e-9)
        assert incompatibility(dirs).value == pytest.approx(val, abs=1e-9)
        checked += 1


def test_optimal_bloch_examples():
    v = optimal_bloch([(1.0, 0.0, 0.0)])
    assert np.allclose(np.abs(v), [1.0, 0.0, 0.0], atol=1e-12)

    pair = [(1.0, 0.0, 0.0), (0.5, math.sqrt(3) / 2, 0.0)]
    v = optimal_bloch(pair)
    assert np.allclose(np.abs(v), [math.sqrt(3) / 2, 0.5, 0.0], atol=1e-10)

    # degenerate case: any unit vector is fine as long as it attains the bound
    v = optimal_bloch(XYZ)
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-10)
    assert variance_sum(XYZ, v) == pytest.approx(2.0, abs=1e-9)


def test_optimal_bloch_achieves_bound():
    rng = np.random.default_rng(83)
    for _ in range(300):
        dirs = random_set(rng, int(rng.integers(1, 7)))
        res = incompatibility(dirs)
        achieved = variance_sum(dirs, res.optimizer)
        assert achieved == pytest.approx(res.value, abs=1e-9)


def test_validate_directions_returns_checked_array():
    d = validate_directions([(1, 0, 0), (0, 2, 0)])
    assert d == [(1.0, 0.0, 0.0), (0.0, 2.0, 0.0)] and all(type(x) is float for row in d for x in row)
    with pytest.raises(ValueError, match="direction 2 has zero length"):
        validate_directions([(1, 0, 0), (0, 1, 0), (0, 0, 0)])
    with pytest.raises(ValueError, match="non-finite"):
        validate_directions([(1, 0, math.nan)])
    with pytest.raises(ValueError, match="N x 3"):
        validate_directions([(1, 0)])
    with pytest.raises(ValueError, match="at least one"):
        validate_directions([])


def test_validate_directions_reads_an_ndarray_as_its_list():
    # one path for every input: an ndarray comes back as the float tuples of its tolist()
    rng = np.random.default_rng(16)
    arrays = [
        rng.normal(size=(5, 3)),
        np.array([[1, 0, -2], [3, 4, 0]]),
        np.array([[True, False, False], [False, True, True]]),
        rng.normal(size=(4, 3)).astype(np.float32),
        np.array([[-0.0, 1.0, 0.0]]),
    ]
    for a in arrays:
        d = validate_directions(a)
        assert type(d) is list and d == validate_directions(a.tolist())
        assert all(type(row) is tuple and len(row) == 3 for row in d)
        assert all(type(x) is float for row in d for x in row)
        assert [float.hex(x) for row in d for x in row] == [float.hex(float(x)) for x in a.ravel()]


def test_cubic_coefficients_unit_rejects_an_overflowing_ndarray_without_a_warning():
    # the rows were numpy arrays, whose squared length overflowed with a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for d in (np.array([[1e200, 0, 0]]), np.array([[1e200, 0, 0], [0, 1, 0]])):
            with pytest.raises(ValueError, match="direction 0 is not unit length"):
                cubic_coefficients_unit(d)


def test_complex_directions_are_rejected_as_an_ndarray_and_as_a_list():
    # an ndarray was cast to float with a ComplexWarning, which dropped the
    # imaginary part and returned 1.0
    d = np.array([[1 + 1j, 0, 0], [0, 1, 0]])
    for directions in (d, d.tolist()):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="expected N x 3 directions: .*complex"):
                incompatibility(directions)


def test_text_is_not_a_direction():
    # each string was read as a vector of its characters: the set gave 2.0 and the pair 1.0
    digits = ["100", "010", "001"]
    encoded = [s.encode() for s in digits]
    for call in (lambda: incompatibility(digits), lambda: incompatibility(np.array(digits)),
                 lambda: incompatibility(encoded), lambda: incompatibility([bytearray(s) for s in encoded]),
                 lambda: incompatibility([memoryview(s) for s in encoded]), lambda: incompatibility_pair(*digits[:2])):
        with pytest.raises(
            ValueError, match=r"^expected N x 3 directions: a (str|bytes|bytearray|memoryview) is not a sequence of numbers$"
        ):
            call()


@pytest.mark.parametrize("call, message", [
    (lambda: incompatibility([{"1": 0, "0": 0, "2": 0}]), "expected N x 3 directions: a dict is not a sequence of numbers"),
    (lambda: incompatibility({(1, 0, 0): 1, (0, 1, 0): 1}), "expected N x 3 directions: a dict is not a sequence of numbers"),
    (lambda: TwoQubitState([{"0.25": 0, "0": 0, "-0": 0, "0.0": 0}, *werner(0.0).rho[1:]]),
     "two-qubit state must be a 4x4 matrix"),
], ids=["row", "set", "two-qubit-row"])
def test_a_dict_is_not_a_vector(call, message):
    # a dict was read as its keys: the row as the direction (1, 0, 2), the set as x and y (bound 1.0),
    # and the row of rho as (0.25, 0, -0, 0), which made I/4
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def _bad_direction_sets():
    d = np.array([[1.0, 0.0, 0.0], [0.6, 0.8, 0.0], [0.0, 0.6, 0.8]])
    for bad in (math.nan, math.inf, -math.inf):
        for col in range(3):
            x = d.copy()
            x[1, col] = bad
            yield pytest.param(x, id=f"{bad}-in-column-{col}")
    for row in range(3):
        x = d.copy()
        x[row] = 0.0
        yield pytest.param(x, id=f"zero-row-{row}")
    for shape in ((0, 3), (3,), (2, 2), (2, 4)):
        yield pytest.param(np.ones(shape), id=f"shape-{shape}")
    yield pytest.param(d.astype(complex), id="complex")
    units = np.array([random_unit(np.random.default_rng(seed)) for seed in range(3)])
    for scale in (1e52, 1e152):
        yield pytest.param(units * scale, id=f"overflow-{scale:g}")


@pytest.mark.parametrize("x", list(_bad_direction_sets()))
def test_ndarray_and_list_rejections_agree(x):
    errors = []
    for directions in (x, x.tolist()):
        with pytest.raises(ValueError) as info:
            incompatibility(directions)
        errors.append((type(info.value), str(info.value)))
    assert errors[0] == errors[1]


# --- properties over the whole domain: degenerate spectra, any rotation, any scale

DEGENERATE_FAMILIES = (
    "orthogonal_pair",
    "planar_trine",
    "planar_square",
    "spectrum_11x",
    "isotropic_xyz",
)
PROPERTY_SETTINGS = settings(max_examples=300, deadline=None, derandomize=True)
SEEDS = st.integers(0, 2**32 - 1)


def planar(*degrees):
    return np.array([(math.cos(math.radians(t)), math.sin(math.radians(t)), 0.0) for t in degrees])


def degenerate_family(name, x):
    """(directions, exact bound) of a set whose moment matrix has a
    repeated eigenvalue; x in (0, 4] sets the odd one of spectrum (1, 1, x)."""
    if name == "orthogonal_pair":
        return np.eye(3)[:2], 1.0
    if name == "planar_trine":
        return planar(0, 120, 240), 1.5
    if name == "planar_square":
        return planar(0, 45, 90, 135), 2.0
    if name == "spectrum_11x":
        return np.diag([1.0, 1.0, math.sqrt(x)]), 2.0 + x - max(1.0, x)
    return np.eye(3), 2.0


@st.composite
def direction_sets(draw):
    """A generic set of 1-8 directions or a Haar-rotated degenerate family."""
    rng = np.random.default_rng(draw(SEEDS))
    name = draw(st.sampled_from(("generic",) + DEGENERATE_FAMILIES))
    if name == "generic":
        return rng.normal(size=(draw(st.integers(1, 8)), 3))
    d, _ = degenerate_family(name, draw(st.floats(0.01, 4.0)))
    return d @ random_rotation(rng).T


@PROPERTY_SETTINGS
@given(name=st.sampled_from(DEGENERATE_FAMILIES), x=st.floats(0.01, 4.0), seed=SEEDS)
def test_degenerate_families_under_rotation(name, x, seed):
    d, exact = degenerate_family(name, x)
    d = d @ random_rotation(np.random.default_rng(seed)).T
    res = incompatibility(d)
    assert res.value == pytest.approx(exact, abs=1e-12 * res.traces[0])
    achieved = variance_sum(d, res.optimizer)
    assert achieved == pytest.approx(res.value, abs=1e-12 * res.traces[0])


@PROPERTY_SETTINGS
@given(d=direction_sets(), k=st.floats(-9.0, 9.0))
def test_scale_covariance(d, k):
    s = 10.0**k
    base = incompatibility(d)
    scaled = incompatibility(d * s)
    assert scaled.value == pytest.approx(s * s * base.value, abs=1e-9 * s * s * base.traces[0])


@PROPERTY_SETTINGS
@given(d=direction_sets(), data=st.data())
def test_sign_and_permutation_invariance_on_every_family(d, data):
    n = len(d)
    signs = np.array(data.draw(st.lists(st.sampled_from((-1.0, 1.0)), min_size=n, max_size=n)))
    perm = data.draw(st.permutations(range(n)))
    base = incompatibility(d)
    moved = incompatibility((d * signs[:, None])[perm])
    assert moved.value == pytest.approx(base.value, abs=1e-12 * base.traces[0])


def test_fixed_regressions_extreme_scale_and_coincident_directions():
    # large scale: the trace path rejected this as "inconsistent traces"
    assert incompatibility(np.eye(3) * 1e6).value == pytest.approx(2e12, rel=1e-12)
    # small scale: an absolute isotropy threshold returned 6.7e-15 here
    res = incompatibility([(1e-7, 0.0, 0.0)])
    assert abs(res.value) <= 1e-9 * res.traces[0]
    # three equal unit vectors: Gram matrix all ones, spectrum (3, 0, 0)
    assert incompatibility_from_angles(0.0, 0.0, 0.0) == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(directions_from_angles(0.0, 0.0, 0.0), [(1.0, 0.0, 0.0)] * 3)


def test_trace_path_holds_at_every_scale():
    # the radicand tolerance is relative to tau1^2: an absolute one rejected
    # the traces of xyz * 1e6 and of any rotated xyz scaled by 100 or more
    rng = np.random.default_rng(97)
    families = [degenerate_family(name, x)[0] for name in DEGENERATE_FAMILIES for x in (0.25, 4.0)]
    families += [np.ones((3, 3)) / math.sqrt(3.0), rng.normal(size=(4, 3))]
    for d in families:
        for k in range(-9, 10):
            for _ in range(3):
                a, traces = moment_matrix(d @ random_rotation(rng).T * 10.0**k)
                exact = np.linalg.eigvalsh(a)[-1]
                assert abs(lambda_max_from_traces(traces) - exact) <= 1e-7 * traces[0]
    assert lambda_max_from_traces(moment_matrix(np.eye(3) * 1e6)[1]) == pytest.approx(1e12, rel=1e-7)


def test_directions_past_the_cube_overflow_are_rejected():
    # tr A^3 overflows once an entry of A passes ~5.6e102, i.e. for directions
    # longer than ~2.4e51; a float ** raised OverflowError there instead
    d = np.array([random_unit(np.random.default_rng(seed)) for seed in range(3)])
    a, traces = moment_matrix(d * 1e51)
    exact = traces[0] - np.linalg.eigvalsh(a)[-1]
    assert abs(incompatibility(d * 1e51).value - exact) <= 1e-12 * traces[0]
    for scale in (1e52, 1e152):
        for fn in (moment_matrix, incompatibility):
            with pytest.raises(ValueError, match="tr A\\^3 overflows"):
                fn(d * scale)


# --- the residual certificate that replaced the eigh cross-check

CERTIFICATE_SETS = {
    "generic": np.random.default_rng(3).normal(size=(5, 3)),
    "orthogonal_pair": np.eye(3)[:2] @ random_rotation(np.random.default_rng(4)).T,
    "planar_square": planar(0, 45, 90, 135) @ random_rotation(np.random.default_rng(5)).T,
    "isotropic_xyz": np.eye(3),
}


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("field", ["lam_max", "lam_mid", "lam_min"])
@pytest.mark.parametrize("name", list(CERTIFICATE_SETS))
def test_certificate_rejects_a_kernel_off_by_1e8_of_tr_a(name, field, sign, monkeypatch):
    d = CERTIFICATE_SETS[name]
    incompatibility(d)  # the true kernel passes

    def wrong_kernel(a):
        spec = sym3_spectrum(a)
        tr_a = a[0][0] + a[1][1] + a[2][2]
        return spec._replace(**{field: getattr(spec, field) + sign * 1e-8 * tr_a})

    monkeypatch.setattr(incompat, "sym3_spectrum", wrong_kernel)
    with pytest.raises(ArithmeticError, match="closed-form eigenvalue .* fails its residual certificate"):
        incompatibility(d)


# A = diag(3, 1, 2) in some order: LDL^T's first, second or third pivot is the one that goes negative
TOP_AXIS_SETS = {f"top_{axis}": np.diag(np.sqrt(np.roll([3.0, 1.0, 2.0], k))) for k, axis in enumerate("xyz")}


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("name", list(CERTIFICATE_SETS) + list(TOP_AXIS_SETS))
def test_certificate_rejects_a_lambda_max_off_by_1e8_of_tr_a_whose_spectrum_keeps_its_sum(name, sign, monkeypatch):
    # lam_min moves the other way, so only the Rayleigh quotient (sign +1) or a pivot (sign -1) can reject it
    d = {**CERTIFICATE_SETS, **TOP_AXIS_SETS}[name]
    incompatibility(d)

    def wrong_kernel(a):
        spec = sym3_spectrum(a)
        delta = sign * 1e-8 * (a[0][0] + a[1][1] + a[2][2])
        return spec._replace(lam_max=spec.lam_max + delta, lam_min=spec.lam_min - delta)

    monkeypatch.setattr(incompat, "sym3_spectrum", wrong_kernel)
    with pytest.raises(ArithmeticError, match="closed-form eigenvalue .* fails its residual certificate"):
        incompatibility(d)


@PROPERTY_SETTINGS
@given(d=direction_sets(), k=st.floats(-9.0, 9.0))
def test_certificate_holds_on_every_family_at_every_scale(d, k):
    a, traces = moment_matrix(d * 10.0**k)
    spec = sym3_spectrum(a)
    vecs, bound = sym3_certificate(a, spec[:3])
    assert bound <= 1e-9 * traces[0]
    # the bound is sound: numpy's spectrum lies within it, up to eigvalsh's own error
    exact = np.linalg.eigvalsh(np.array(a))[::-1]
    assert np.abs(exact - spec[:3]).max() <= bound + 1e-14 * traces[0]
    assert np.abs(np.array(vecs) @ np.array(vecs).T - np.eye(3)).max() <= 1e-15


@pytest.mark.parametrize("fixed_k", [None, -150, -80, 50])
@PROPERTY_SETTINGS
@given(d=direction_sets(), k=st.floats(-9.0, 9.0))
def test_lambda_max_is_certified_and_the_optimizer_attains_the_bound(fixed_k, d, k):
    # scales 10^k, k in [-9, 9], and A near 1e-300, 1e-160 and 1e100
    d = d * 10.0 ** (k if fixed_k is None else fixed_k)
    res = incompatibility(d)
    a, tol = np.array(moment_matrix(d)[0]), 1e-9 * res.traces[0]
    assert abs(res.lambda_max - np.linalg.eigvalsh(a)[-1]) <= tol
    r = np.array(res.optimizer)
    assert abs(res.traces[0] - r @ a @ r - res.value) <= 2.0 * tol


@pytest.mark.parametrize("field", Sym3Spectrum._fields)
@pytest.mark.parametrize("name", list(CERTIFICATE_SETS))
def test_a_kernel_returning_nan_in_any_field_raises_arithmetic_error(name, field, monkeypatch):
    d = CERTIFICATE_SETS[name]
    units = (d / np.linalg.norm(d, axis=1)[:, None]).tolist()
    kernel = incompat.sym3_spectrum
    monkeypatch.setattr(incompat, "sym3_spectrum", lambda a: kernel(a)._replace(**{field: math.nan}))
    state = werner(0.8)
    calls = (lambda: incompatibility(d), lambda: entanglement_witness(state, units, units),
             lambda: steering_test(state, list(zip(units, units))))
    for call in calls:
        with pytest.raises(ArithmeticError, match="^closed-form eigenvalue .* fails its residual certificate: "):
            call()


@PROPERTY_SETTINGS
@given(d=direction_sets())
def test_the_criteria_certify_every_family_and_keep_the_bits_of_incompatibility(d):
    # normalized, every degenerate family is a double or a triple top, where a two-sided test could reject a
    # correct kernel: neither criterion may raise there, and each bound is incompatibility's value to the bit
    units = [tuple(row) for row in (d / np.linalg.norm(d, axis=1)[:, None]).tolist()]
    value, reversed_value = incompatibility(units).value, incompatibility(units[::-1]).value
    state = werner(0.8)
    assert bits(entanglement_witness(state, units, units).bound) == bits(2.0 * value)
    assert bits(entanglement_witness(state, units, units[::-1]).bound) == bits(value + reversed_value)
    assert bits(steering_test(state, list(zip(units, units))).bound) == bits(value)


def test_optimizer_has_no_negative_zero_and_a_positive_lead():
    rng = np.random.default_rng(7)
    sets = [np.eye(3), np.eye(3)[:2], [(0.0, -1.0, 0.0)], [(0.0, 0.0, -2.0), (0.0, -1.0, 0.0)]]
    sets += [rng.normal(size=(int(rng.integers(1, 6)), 3)) for _ in range(200)]
    for d in sets:
        opt = incompatibility(d).optimizer
        assert type(opt) is tuple and len(opt) == 3
        assert next(x for x in opt if x != 0.0) > 0.0
        assert all(math.copysign(1.0, x) > 0.0 for x in opt if x == 0.0)


# --- a small ndarray is checked on its rows before one BLAS D^T D

SMALL = incompat._FEW_ROWS
OVERFLOW = "tr A^3 overflows: entries of A above ~5.6e102 (directions longer than ~2.4e51)"


def _small_arrays():
    """(array, the message that numpy's checks gave it, or None where they accepted it): each takes
    the row check or, where that fails, numpy's checks; an accepted array's A is (D^T D).tolist()."""
    d = np.random.default_rng(34).normal(size=(5, 3))
    for row in (0, 2, 4):
        x = d.copy()
        x[row] = 0.0
        yield pytest.param(x, f"direction {row} has zero length", id=f"zero-row-{row}")
    for bad in (math.nan, math.inf, -math.inf, 1e200, -1e200):
        x = d.copy()
        x[2, 1] = bad
        message = "directions have non-finite components" if not math.isfinite(bad) else OVERFLOW
        yield pytest.param(x, message, id=f"{bad:g}")
    yield pytest.param(np.array([[1, 0, -2], [3, 4, 0], [0, 0, 5]]), None, id="int")
    yield pytest.param(np.array([[1, 0, -2], [0, 0, 0]]), "direction 1 has zero length", id="int-zero-row")
    yield pytest.param(np.array([[True, False, False], [False, True, True]]), None, id="bool")
    yield pytest.param(np.array([[True, False, False], [False, False, False]]), "direction 1 has zero length",
                       id="bool-zero-row")
    yield pytest.param(d[:, :2], "expected N x 3 directions, got shape (5, 2)", id="shape-(5,2)")
    yield pytest.param(np.zeros((0, 3)), "need at least one direction", id="shape-(0,3)")
    for n in (SMALL, SMALL + 1):
        x = np.random.default_rng(n).normal(size=(n, 3))
        yield pytest.param(x, None, id=f"n{n}")
        zero, nan = x.copy(), x.copy()
        zero[-1], nan[-1, 0] = 0.0, math.nan
        yield pytest.param(zero, f"direction {n - 1} has zero length", id=f"n{n}-zero-last")
        yield pytest.param(nan, "directions have non-finite components", id=f"n{n}-nan-last")


def numpy_moment_matrix(d):
    """A = (D^T D).tolist() of the float array and its traces, as numpy's checks take an array they accept."""
    d = np.asarray(d, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        a = (d.T @ d).tolist()
    return a, incompat.sym3_traces(a)


@pytest.mark.parametrize("d, message", list(_small_arrays()))
def test_a_small_ndarray_keeps_its_rejection_and_raises_no_warning(d, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if message is None:
            assert bits(moment_matrix(d)) == bits(numpy_moment_matrix(d))
        else:
            for fn in (moment_matrix, incompatibility):
                with pytest.raises(ValueError) as info:
                    fn(d)
                assert str(info.value) == message


def test_only_a_small_clean_ndarray_skips_errstate(monkeypatch):
    entered = []
    errstate = np.errstate
    monkeypatch.setattr(np, "errstate", lambda **kw: entered.append(kw) or errstate(**kw))
    d = np.random.default_rng(9).normal(size=(SMALL, 3))
    moment_matrix(d)
    assert entered == []
    trips = {"more-rows": np.vstack([d, d[:1]]), "zero-row": np.vstack([d[:-1], np.zeros((1, 3))]),
             "nan": np.where(np.eye(SMALL, 3, dtype=bool), math.nan, d), "guard": d / np.abs(d).sum() * 1e150}
    for name, x in trips.items():
        entered.clear()
        try:
            moment_matrix(x)
        except ValueError:
            pass
        assert len(entered) == 1, name


@PROPERTY_SETTINGS
@given(seed=SEEDS, n=st.integers(1, SMALL + 1), k=st.floats(-9.0, 9.0),
       guard=st.sampled_from([None, 1.0 - 2.0**-52, 1.0, 1.0 + 2.0**-52, 1e3, 1e10]))
def test_a_small_ndarray_takes_the_bits_of_d_t_d(seed, n, k, guard):
    # the scale 10^k, or one that puts the sum of |d_ij| just below, at or above the row check's 1e150,
    # or at 1e160, where D^T D overflows
    d = np.random.default_rng(seed).normal(size=(n, 3))
    d = d * 10.0**k if guard is None else d / np.abs(d).sum() * (guard * 1e150)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert outcome(moment_matrix, d) == outcome(numpy_moment_matrix, d)


# --- the kernel's deflation solves the 2x2 block for its eigenvalues alone

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import workloads  # noqa: E402


def test_the_deflation_takes_the_eigenvalues_of_split_without_its_rotation(monkeypatch):
    # on every pool input whose kernel deflates, the two eigenvalues of the block are _split's to the bit
    calls = []
    block = incompat._block
    monkeypatch.setattr(incompat, "_block", lambda b, z: calls.append((b, z)) or block(b, z))
    deflated = 0
    for seed in (7919, 41, 42):
        for item in workloads.direction_sets(seed).passes[0]:
            a = moment_matrix(item.args[0])[0]
            calls.clear()
            spec = sym3_spectrum(a)
            if not calls:
                continue
            deflated += 1
            (b, z), = calls
            (a00, a01, a02), (_, a11, a12), (_, _, a22) = a
            shift = (a00 + a11 + a22) / 3.0
            s = max(abs(a00 - shift), abs(a11 - shift), abs(a22 - shift), abs(a01), abs(a02), abs(a12))
            hi, lo = incompat._split(b, z)[3:]
            pair = spec[1:3] if spec.lam_max == shift + s * z else spec[0:2]
            assert bits(pair) == bits((shift + s * hi, shift + s * lo))
    assert deflated > 100


def test_the_deflation_calls_no_atan2(monkeypatch):
    calls = []
    monkeypatch.setattr(incompat, "atan2", lambda y, x: calls.append((y, x)) or math.atan2(y, x))
    # an orthogonal pair and x, x, y, z, rotated: spectra (1, 1, 0) and (2, 1, 1), the ratio -1 and +1 branches
    for d in (np.eye(3)[:2], np.eye(3)[[0, 0, 1, 2]]):
        a = moment_matrix(d @ random_rotation(np.random.default_rng(3)).T)[0]
        sym3_spectrum(a)
        assert calls == []
        incompat._split(a, sym3_spectrum(a).lam_max)
        assert len(calls) == 1
        calls.clear()


# --- the kernel takes its trigonometric roots inline: every float and every rejection of the kernel
# --- that took them from `cubic_roots`, which `support.reference_sym3_spectrum` keeps


def assert_kernel_bits(a):
    assert outcome(sym3_spectrum, a) == outcome(support.reference_sym3_spectrum, a)


def reference_from_angles(theta1, theta2, theta3):
    c1, c2, c3 = math.cos(theta1), math.cos(theta2), math.cos(theta3)
    spec = support.reference_sym3_spectrum(((1.0, c3, c2), (c3, 1.0, c1), (c2, c1, 1.0)))
    if spec.lam_min < -1e-9:
        raise ValueError(f"angle triple is not realizable by unit vectors: Gram eigenvalue {spec.lam_min:.6g} < 0")
    return 3.0 - spec.lam_max


def test_the_angle_bound_keeps_its_bits_and_messages_on_the_angle_grid_pools():
    for seed in (7919, 41):
        for item in workloads.angle_grid(seed).passes[0]:
            assert outcome(incompatibility_from_angles, *item.args) == outcome(reference_from_angles, *item.args)


@PROPERTY_SETTINGS
@given(cell=st.tuples(*[st.integers(0, 11)] * 3), jitter=st.tuples(*[st.floats(0.0, 1.0)] * 3))
def test_the_kernel_keeps_its_bits_on_the_gram_matrices_of_a_jittered_angle_sweep(cell, jitter):
    # realizable or not: about two thirds of the [0, pi]^3 cells are not
    angles = [(i + u) * math.pi / 12.0 for i, u in zip(cell, jitter)]
    c1, c2, c3 = map(math.cos, angles)
    assert_kernel_bits(((1.0, c3, c2), (c3, 1.0, c1), (c2, c1, 1.0)))
    assert outcome(incompatibility_from_angles, *angles) == outcome(reference_from_angles, *angles)


@PROPERTY_SETTINGS
@given(name=st.sampled_from(DEGENERATE_FAMILIES + ("rank_one", "spectrum_211")), x=st.floats(0.01, 4.0),
       seed=SEEDS, k=st.floats(-9.0, 9.0))
def test_the_kernel_keeps_its_bits_on_rotated_degenerate_families_at_every_scale(name, x, seed, k):
    d = {"rank_one": np.eye(3)[:1], "spectrum_211": np.eye(3)[[0, 0, 1, 2]]}.get(name)
    d = degenerate_family(name, x)[0] if d is None else d
    a = moment_matrix(d @ random_rotation(np.random.default_rng(seed)).T * 10.0**k)[0]
    assert_kernel_bits(a)


def near_unit_ratio(sign, delta, seed, k, shift):
    """Rows of 10^k (R diag(z) R^T + shift I), z the roots for alpha = 1 and ratio sign (1 - delta)."""
    phi = math.acos(sign * (1.0 - delta)) / 3.0
    z = [2.0 * math.cos(phi - 2.0 * math.pi * j / 3.0) for j in range(3)]
    r = random_rotation(np.random.default_rng(seed))
    return (((r * z) @ r.T + shift * np.eye(3)) * 10.0**k).tolist()


@PROPERTY_SETTINGS
@given(sign=st.sampled_from((1.0, -1.0)), delta=st.floats(0.0, 2e-4), seed=SEEDS, k=st.floats(-9.0, 9.0),
       shift=st.floats(-3.0, 3.0))
def test_the_kernel_keeps_its_bits_where_the_ratio_is_near_one(sign, delta, seed, k, shift):
    assert_kernel_bits(near_unit_ratio(sign, delta, seed, k, shift))


def test_the_near_unit_ratios_lie_on_both_sides_of_the_band_edge(monkeypatch):
    calls = []
    block = incompat._block
    monkeypatch.setattr(incompat, "_block", lambda b, z: calls.append(z) or block(b, z))
    sides = set()
    for sign in (1.0, -1.0):
        for delta in (0.0, 1e-12, 5e-5, 0.99e-4, 1.01e-4, 2e-4):
            calls.clear()
            a = near_unit_ratio(sign, delta, 5, 0.0, 0.5)
            assert_kernel_bits(a)
            sides.add((sign, delta < 1e-4, len(calls)))
    assert sides == {(s, near, int(near)) for s in (1.0, -1.0) for near in (True, False)}


@PROPERTY_SETTINGS
@given(bad=st.sampled_from((math.nan, math.inf, -math.inf)), where=st.sets(st.integers(0, 5), min_size=1),
       seed=SEEDS, scalar=st.booleans())
def test_the_kernel_keeps_its_rejections_of_nan_and_infinite_entries(bad, where, seed, scalar):
    # a scalar diagonal with a NaN past max()'s first argument goes on as s = NaN
    rng = np.random.default_rng(seed)
    m = np.eye(3) * rng.normal() if scalar else rng.normal(size=(3, 3))
    m = (m + m.T).tolist()
    for p in where:
        i, j = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))[p]
        m[i][j] = m[j][i] = bad
    assert_kernel_bits(m)


@PROPERTY_SETTINGS
@given(kind=st.sampled_from(("int", "huge_int", "bool", "float64", "float32", "int64", "ndarray")), seed=SEEDS)
def test_the_kernel_keeps_its_bits_on_int_and_numpy_scalar_entries(kind, seed):
    rng = np.random.default_rng(seed)
    ints = rng.integers(-4, 5, size=(3, 3))
    m = (ints + ints.T).tolist()
    if kind == "huge_int":
        m[0][1] = m[1][0] = support.HUGE
    elif kind == "bool":
        m = [[bool(x % 2) for x in row] for row in m]
    elif kind == "ndarray":
        m = np.array(m, dtype=float) * rng.uniform(0.1, 10.0)
    elif kind != "int":
        m = [[getattr(np, kind)(x) * getattr(np, kind)(rng.uniform(0.1, 10.0)) for x in row] for row in m]
    assert_kernel_bits(m)


def test_the_kernel_and_the_angle_bound_call_no_cubic_roots(monkeypatch):
    roots, kernel = support.cubic_roots, incompat.sym3_spectrum
    root_calls, kernel_calls = [], []
    monkeypatch.setattr(support, "cubic_roots", lambda *args: root_calls.append(args) or roots(*args))
    monkeypatch.setattr(incompat, "sym3_spectrum", lambda a: kernel_calls.append(a) or kernel(a))
    gram = ((1.0, 0.5, 0.5), (0.5, 1.0, 0.5), (0.5, 0.5, 1.0))
    support.reference_sym3_spectrum(gram)
    assert len(root_calls) == 1  # the counter sees the reference's call
    root_calls.clear()
    kernel(gram)
    assert root_calls == [] and not hasattr(incompat, "cubic_roots")
    for angles, realizable in (((1.0, 1.2, 1.5), True), ((math.pi / 9, math.pi / 9, math.pi / 3), False)):
        for fn in (incompatibility_from_angles, directions_from_angles):
            kernel_calls.clear()
            if realizable:
                fn(*angles)
            else:
                with pytest.raises(ValueError, match="not realizable"):
                    fn(*angles)
            assert len(kernel_calls) == 1 and root_calls == []
