import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinbounds.incompat import (
    cubic_coefficients_unit,
    directions_from_angles,
    incompatibility,
    incompatibility_from_angles,
    incompatibility_pair,
    lambda_max_from_traces,
    moment_matrix,
    optimal_bloch,
    validate_directions,
)
from spinbounds import incompat
from spinbounds.linalg3 import sym3_certificate, sym3_eigen_jacobi, sym3_spectrum
from spinbounds.states import QubitState, uncertainty_sum

XYZ = [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)]
EXAMPLE4 = [
    (1.0, 0.0, 0.0),
    (0.5, math.sqrt(3) / 2, 0.0),
    (0.5, 0.5, 1 / math.sqrt(2)),
    (1 / math.sqrt(3),) * 3,
]


def random_unit(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def random_set(rng, n, unit=False):
    dirs = [random_unit(rng) for _ in range(n)]
    if not unit:
        dirs = [d * rng.uniform(0.2, 2.0) for d in dirs]
    return dirs


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
    c = incompatibility(XYZ).coefficients  # traces (3, 3, 3)
    assert c.alpha == pytest.approx(0.0, abs=1e-14)
    assert c.beta == pytest.approx(0.0, abs=1e-14)

    n = (0.6, 0.8, 0.0)
    c = incompatibility([n, n]).coefficients  # traces (2, 4, 8)
    assert c.alpha == pytest.approx(2.0 / 3.0)
    assert c.beta == pytest.approx(8.0 / 27.0)

    # spectrum (1,0,0): shifted roots are (2/3, -1/3, -1/3)
    c = incompatibility([(1.0, 0.0, 0.0)]).coefficients  # traces (1, 1, 1)
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
    via_kernel = incompatibility(EXAMPLE4).coefficients
    via_dots = cubic_coefficients_unit(EXAMPLE4)
    assert via_dots.alpha == pytest.approx(via_kernel.alpha, abs=1e-10)
    assert via_dots.beta == pytest.approx(via_kernel.beta, abs=1e-10)


def test_cubic_coefficients_unit_random_agreement():
    rng = np.random.default_rng(23)
    for _ in range(1000):
        dirs = random_set(rng, int(rng.integers(3, 7)), unit=True)
        a = incompatibility(dirs).coefficients
        b = cubic_coefficients_unit(dirs)
        assert b.alpha == pytest.approx(a.alpha, abs=1e-10)
        assert b.beta == pytest.approx(a.beta, abs=1e-10)


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
    assert uncertainty_sum(XYZ, QubitState(v)) == pytest.approx(2.0, abs=1e-9)


def test_optimal_bloch_achieves_bound():
    rng = np.random.default_rng(83)
    for _ in range(300):
        dirs = random_set(rng, int(rng.integers(1, 7)))
        res = incompatibility(dirs)
        achieved = uncertainty_sum(dirs, QubitState(res.optimizer))
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


def test_complex_directions_are_rejected_as_an_ndarray_and_as_a_list():
    # an ndarray was cast to float with a ComplexWarning, which dropped the
    # imaginary part and returned 1.0
    d = np.array([[1 + 1j, 0, 0], [0, 1, 0]])
    for directions in (d, d.tolist()):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="expected N x 3 directions: .*complex"):
                incompatibility(directions)


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
    achieved = uncertainty_sum(d, QubitState(res.optimizer))
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


def test_optimizer_has_no_negative_zero_and_a_positive_lead():
    rng = np.random.default_rng(7)
    sets = [np.eye(3), np.eye(3)[:2], [(0.0, -1.0, 0.0)], [(0.0, 0.0, -2.0), (0.0, -1.0, 0.0)]]
    sets += [rng.normal(size=(int(rng.integers(1, 6)), 3)) for _ in range(200)]
    for d in sets:
        opt = incompatibility(d).optimizer
        assert type(opt) is tuple and len(opt) == 3
        assert next(x for x in opt if x != 0.0) > 0.0
        assert all(math.copysign(1.0, x) > 0.0 for x in opt if x == 0.0)
