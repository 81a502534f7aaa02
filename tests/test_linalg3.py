import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinbounds.incompat import _split, sym3_spectrum, sym3_traces
from spinbounds.linalg3 import PSD_TOL, hermitian_psd_check, sym3_eigen_jacobi
from spinbounds.states import TwoQubitState
from support import bits, cross, cubic_roots, dot, matvec, sym3_certificate


def random_sym3(rng):
    m = rng.uniform(-2.0, 2.0, size=(3, 3))
    return 0.5 * (m + m.T)


def test_traces_identity():
    assert sym3_traces(np.eye(3)) == (3.0, 3.0, 3.0)


def test_traces_diagonal():
    assert sym3_traces(np.diag([3.0, 2.0, 1.0])) == (6.0, 14.0, 36.0)


def test_traces_rank1_projector():
    n = np.array([1.0, 2.0, 2.0]) / 3.0
    t = sym3_traces(np.outer(n, n))
    assert t == pytest.approx((1.0, 1.0, 1.0), abs=1e-14)






def test_jacobi_identity():
    w, v = map(np.asarray, sym3_eigen_jacobi(np.eye(3)))
    assert np.allclose(w, 1.0)
    assert np.allclose(v @ v.T, np.eye(3), atol=1e-12)


def test_jacobi_diagonal():
    w, v = sym3_eigen_jacobi(np.diag([3.0, 2.0, 1.0]))
    assert np.allclose(w, [3.0, 2.0, 1.0])
    assert np.allclose(np.abs(v), np.eye(3), atol=1e-12)


def test_jacobi_projector():
    n = np.array([2.0, -1.0, 2.0]) / 3.0
    w, v = map(np.asarray, sym3_eigen_jacobi(np.outer(n, n)))
    assert np.allclose(w, [1.0, 0.0, 0.0], atol=1e-12)
    assert np.allclose(np.abs(v[:, 0] @ n), 1.0, atol=1e-10)


def test_jacobi_random_properties():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        a = random_sym3(rng)
        t1, t2, t3 = sym3_traces(a)
        w, v = map(np.asarray, sym3_eigen_jacobi(a))
        assert w[0] >= w[1] >= w[2]
        assert np.sum(w) == pytest.approx(t1, abs=1e-9)
        assert np.sum(w**2) == pytest.approx(t2, abs=1e-9)
        assert np.sum(w**3) == pytest.approx(t3, abs=1e-8)
        # eigenpairs and reconstruction
        for i in range(3):
            assert np.allclose(a @ v[:, i], w[i] * v[:, i], atol=1e-10)
        assert np.allclose(v.T @ v, np.eye(3), atol=1e-10)
        assert np.allclose((v * w) @ v.T, a, atol=1e-9)








def test_psd_check():
    assert hermitian_psd_check(np.eye(4) / 4.0)
    assert not hermitian_psd_check(np.diag([1.1, -0.1, 0.0, 0.0]))
    psi = np.array([0, 1, -1, 0]) / np.sqrt(2)
    assert hermitian_psd_check(np.outer(psi, psi))


def test_psd_check_rejects_non_hermitian():
    m = np.eye(4, dtype=complex)
    m[0, 1] = 1e-3
    with pytest.raises(ValueError):
        hermitian_psd_check(m)


def test_psd_check_tests_hermiticity_at_1e12():
    # the Hermiticity test does not take the PSD tolerance
    m = np.eye(4, dtype=complex) / 4.0
    m[0, 1] = 1e-11j
    with pytest.raises(ValueError, match="not Hermitian"):
        hermitian_psd_check(m)
    m[0, 1] = 1e-13j
    assert hermitian_psd_check(m)


@pytest.mark.parametrize(
    "a, message",
    [
        (5, "expected a 3x3 matrix"),
        ([[1.0, 0.0]] * 3, "expected a 3x3 matrix, got rows of lengths [2, 2, 2]"),
        ([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], "expected a 3x3 matrix, got rows of lengths [3, 3]"),
        ([[1.0, 0.0, 0.0], [0.0, math.nan, 0.0], [0.0, 0.0, 1.0]], "matrix has non-finite entries"),
    ],
    ids=["scalar", "rows-of-2", "two-rows", "nan"],
)
def test_jacobi_rejects_what_is_not_a_finite_3x3(a, message):
    with pytest.raises(ValueError) as exc:
        sym3_eigen_jacobi(a)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "m", [[], [[1, 0], [0]], 5, [[1, 0], [0, 1]], np.eye(3)], ids=["empty", "ragged", "scalar", "2x2", "3x3"]
)
def test_psd_check_rejects_what_is_not_square(m):
    with pytest.raises(ValueError) as exc:
        hermitian_psd_check(m)
    assert str(exc.value) == "expected a 4x4 matrix"


def test_psd_check_rejects_a_pair_whose_difference_overflows_as_not_hermitian():
    # abs() of the difference raised OverflowError("absolute value too large")
    m = np.eye(4, dtype=complex) / 4.0
    m[0, 1] = 1.5e308 + 1.5e308j
    for rows in (m, m.tolist(), m.T.tolist()):
        with pytest.raises(ValueError) as exc:
            hermitian_psd_check(rows)
        assert str(exc.value) == "density matrix is not Hermitian"
        with pytest.raises(ValueError) as exc:
            TwoQubitState(rows)
        assert str(exc.value) == "density matrix is not Hermitian"


def test_kernels_reject_a_complex_ndarray():
    # each ndarray row was read through float(), which kept the real part with a ComplexWarning
    for a in (np.array([[1 + 1j, 0, 0], [0, 1, 0], [0, 0, 1]]), np.eye(3, dtype=complex)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in (lambda: sym3_traces(a), lambda: sym3_spectrum(a), lambda: sym3_certificate(a, (1.0, 1.0, 1.0))):
                with pytest.raises(TypeError, match="not 'complex'"):
                    call()
            with pytest.raises(ValueError) as exc:
                sym3_eigen_jacobi(a)
            assert str(exc.value) == "expected a 3x3 matrix"


@pytest.mark.parametrize(
    "lam_min", [-1e-9 * (1 + 1e-4), -1e-9 * (1 - 1e-4), 0.0, 1e-3, -1e-3, "rank1", "rank2", "rank3"]
)
def test_psd_check_agrees_with_eigvalsh_near_the_tolerance(lam_min):
    # random 4x4 Hermitian matrices of trace 1 with the smallest eigenvalue
    # placed 1e-13 to either side of -PSD_TOL = -1e-9, at 0, at +-1e-3, or with rank 1-3
    assert PSD_TOL == 1e-9
    rng = np.random.default_rng(101)
    for _ in range(300):
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        if isinstance(lam_min, str):
            rank = int(lam_min[-1])
            lams = np.concatenate([rng.dirichlet(np.ones(rank)), np.zeros(4 - rank)])
        else:
            lams = np.concatenate([[lam_min], rng.dirichlet(np.ones(3)) * (1.0 - lam_min)])
        m = (q * lams) @ q.conj().T
        m = 0.5 * (m + m.conj().T)
        expected = bool(np.linalg.eigvalsh(m)[0] >= -PSD_TOL)
        assert hermitian_psd_check(m) is expected
        assert hermitian_psd_check(m.tolist()) is expected


def test_jacobi_is_scale_invariant():
    # the stopping rule is relative: a near-double pair at scale 1e-9 keeps
    # its digits (an absolute rule stopped up to 5e-7 relative short)
    rng = np.random.default_rng(3)
    for _ in range(200):
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        a = 1e-9 * (q * [1.0, 1.0 + 1e-6, 0.5]) @ q.T
        a = 0.5 * (a + a.T)
        w, _ = sym3_eigen_jacobi(a)
        assert w == pytest.approx(np.linalg.eigvalsh(a)[::-1], rel=1e-13, abs=0.0)


def test_cubic_roots_examples():
    # spectrum (2, 0, 0): B = diag(4/3, -2/3, -2/3), alpha = 2/3, ratio = 1
    assert cubic_roots(2.0 / 3.0, 1.0) == pytest.approx((4.0 / 3.0, -2.0 / 3.0, -2.0 / 3.0))
    # ratio 0: roots +-sqrt(3) alpha and 0; ratios outside [-1, 1] are clamped
    assert cubic_roots(1.0, 0.0) == pytest.approx((np.sqrt(3.0), 0.0, -np.sqrt(3.0)), abs=1e-15)
    assert cubic_roots(1.0, -1.0 - 1e-12) == cubic_roots(1.0, -1.0)


def test_sym3_spectrum_examples():
    assert sym3_spectrum(np.eye(3)) == (1.0, 1.0, 1.0, 0.0, 0.0)
    assert sym3_spectrum(np.zeros((3, 3))) == (0.0, 0.0, 0.0, 0.0, 0.0)
    spec = sym3_spectrum(np.ones((3, 3)))  # double bottom root, ratio +1
    assert spec[:3] == pytest.approx((3.0, 0.0, 0.0), abs=1e-15)
    assert (spec.alpha, spec.beta) == pytest.approx((1.0, 1.0))
    spec = sym3_spectrum(np.diag([1.0, 1.0, 0.0]))  # double top root, ratio -1
    assert spec[:3] == pytest.approx((1.0, 1.0, 0.0), abs=1e-15)


def test_sym3_spectrum_matches_jacobi_on_every_spectrum_shape():
    """Random, double-top (ratio -1), double-bottom (ratio +1), near-double
    and triple spectra, rotated and scaled from 1e-9 to 1e9."""
    rng = np.random.default_rng(13)
    shapes = (
        lambda x: x,
        lambda x: np.array([1.0, 1.0, x[2]]),
        lambda x: np.array([x[0], 1.0, 1.0]),
        lambda x: np.array([1.0, 1.0 + 1e-9 * x[1], x[2]]),
        lambda x: np.ones(3),
    )
    for _ in range(400):
        for shape in shapes:
            q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
            scale = 10.0 ** rng.uniform(-9.0, 9.0)
            a = scale * (q * shape(rng.uniform(-2.0, 2.0, size=3))) @ q.T
            a = 0.5 * (a + a.T)
            spec = sym3_spectrum(a)
            w, _ = sym3_eigen_jacobi(a)
            assert spec[:3] == pytest.approx(tuple(w), abs=1e-13 * np.abs(w).max())
            t1, t2, t3 = sym3_traces(a)
            # 3 alpha^2 = tr B^2 / 2 and 2 beta = det B, B = A - (t1/3) I
            assert 6.0 * spec.alpha**2 == pytest.approx(t2 - t1 * t1 / 3.0, abs=1e-12 * t2)
            assert 2.0 * spec.beta == pytest.approx(
                np.prod(np.array(w) - t1 / 3.0), abs=1e-12 * (abs(t1) + np.abs(w).max()) ** 3
            )


def test_spectrum_beyond_cube_overflow_does_not_raise():
    # s**3 raised OverflowError past ~5.6e102; now beta overflows to inf and
    # the eigenvalues, which stay representable, are unaffected
    spec = sym3_spectrum(np.diag([1e200, 0.0, 0.0]))
    assert (spec.lam_max, spec.lam_mid, spec.lam_min) == pytest.approx((1e200, 0.0, 0.0), rel=1e-15, abs=1e185)
    assert spec.beta == math.inf


@pytest.mark.parametrize("scale", [1e-100, 1.0, 1e100])
def test_certificate_is_sound_for_wrong_claims_and_extreme_scales(scale):
    # the true spectrum is (1, 0, 0) * scale up to 1e-130; the claim (0, 0, 0)
    # makes A - 0 I nearly rank one, where the rows' cross products are ~1e-130
    a = [[scale, 1e-65 * scale, 0.0], [1e-65 * scale, 0.0, 0.0], [0.0, 0.0, 0.0]]
    vecs, bound = sym3_certificate(a, (0.0, 0.0, 0.0))
    assert bound >= (1.0 - 1e-12) * scale
    vecs, bound = sym3_certificate(a, sym3_spectrum(a)[:3])
    assert bound <= 1e-15 * scale
    assert np.abs(np.array(vecs) @ np.array(vecs).T - np.eye(3)).max() <= 1e-15


def test_spectrum_and_traces_of_an_ndarray_are_python_floats():
    # an ndarray is read as rows of floats: no numpy.float64 fields, and beta
    # overflows to inf without a RuntimeWarning, as it does for a list
    a = np.diag([2.0, 1.0, 0.5])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        spec, traces = sym3_spectrum(a), sym3_traces(a)
        big = sym3_spectrum(np.diag([1e200, 0.0, 0.0]))
        vecs, bound = sym3_certificate(a, (2.0, 1.0, 0.5))
        claimed = sym3_certificate(a.tolist(), np.array([2.0, 1.0, 0.5]))  # numpy-scalar claims
    assert spec == sym3_spectrum(a.tolist()) and traces == sym3_traces(a.tolist())
    assert all(type(x) is float for x in spec + traces + big)
    assert big.beta == math.inf
    assert (vecs, bound) == sym3_certificate(a.tolist(), (2.0, 1.0, 0.5)) == claimed
    for vecs, bound in ((vecs, bound), claimed):
        assert all(type(x) is float for x in (bound, *vecs[0], *vecs[1], *vecs[2]))


# --- the straight-line `_split` and certificate against the helper-call code
# they replaced, which is copied here as the reference: every float they
# return must keep its bits, signed zeros included


def _scale(p, f):
    return (p[0] * f, p[1] * f, p[2] * f)


def reference_split(b, z):
    (b00, b01, b02), (_, b11, b12), (_, _, b22) = b
    r0, r1, r2 = (b00 - z, b01, b02), (b01, b11 - z, b12), (b02, b12, b22 - z)
    crosses = (cross(r0, r1), cross(r0, r2), cross(r1, r2))
    lengths = [dot(x, x) for x in crosses]
    length = max(lengths)
    e = 0 if 1e-250 < length < 1e250 else -math.frexp(max(map(abs, r0 + r1 + r2)))[1]
    if e:
        v, p, q, hi, lo = reference_split([[math.ldexp(x, e) for x in row] for row in b], math.ldexp(z, e))
        return v, p, q, math.ldexp(hi, -e), math.ldexp(lo, -e)
    v = _scale(crosses[lengths.index(length)], 1.0 / math.sqrt(length)) if length else (0.0, 0.0, 1.0)
    u = (-v[2], 0.0, v[0]) if abs(v[0]) > abs(v[1]) else (0.0, v[2], -v[1])
    u = _scale(u, 1.0 / math.sqrt(dot(u, u)))
    w = cross(v, u)
    bu, bw = matvec(b, u), matvec(b, w)
    m_uu, m_ww, m_uw = dot(u, bu), dot(w, bw), dot(w, bu)
    mean, half_gap = 0.5 * (m_uu + m_ww), math.hypot(0.5 * (m_uu - m_ww), m_uw)
    t = 0.5 * math.atan2(2.0 * m_uw, m_uu - m_ww)
    cs, sn = math.cos(t), math.sin(t)
    p = (cs * u[0] + sn * w[0], cs * u[1] + sn * w[1], cs * u[2] + sn * w[2])
    q = (cs * w[0] - sn * u[0], cs * w[1] - sn * u[1], cs * w[2] - sn * u[2])
    return v, p, q, mean + half_gap, mean - half_gap


def reference_certificate(a, lams):
    k = 0 if lams[0] - lams[1] >= lams[1] - lams[2] else 2
    v, p, q = reference_split(a, lams[k])[:3]
    v0, v1, v2 = (v, p, q) if k == 0 else (p, q, v)
    av0, av1, av2 = matvec(a, v0), matvec(a, v1), matvec(a, v2)
    e_diag = (dot(v0, av0) - lams[0], dot(v1, av1) - lams[1], dot(v2, av2) - lams[2])
    e_off = (dot(v0, av1), dot(v0, av2), dot(v1, av2))
    g_diag = (dot(v0, v0) - 1.0, dot(v1, v1) - 1.0, dot(v2, v2) - 1.0)
    g_off = (dot(v0, v1), dot(v0, v2), dot(v1, v2))
    e_norm = math.sqrt(dot(e_diag, e_diag) + 2.0 * dot(e_off, e_off))
    g_norm = math.sqrt(dot(g_diag, g_diag) + 2.0 * dot(g_off, g_off))
    return (v0, v1, v2), e_norm + (abs(a[0][0]) + abs(a[1][1]) + abs(a[2][2])) * g_norm


def assert_bit_identical(a, lams):
    for z in lams:
        assert bits(_split(a, z)) == bits(reference_split(a, z))
    assert bits(sym3_certificate(a, lams)) == bits(reference_certificate(a, lams))


FAMILIES = ("generic", "orthogonal_pair", "planar_trine", "planar_square", "spectrum_11x", "isotropic_xyz")


def family_moment_matrix(name, x, rng, k, rotate=True):
    """Rows of floats: A = D^T D for a set of the family (spectrum (1, 1, x)
    for spectrum_11x), rotated unless `rotate` is false, scaled by 10^k."""
    if name == "generic":
        d = rng.normal(size=(int(rng.integers(1, 9)), 3))
    elif name == "orthogonal_pair":
        d = np.eye(3)[:2]
    elif name in ("planar_trine", "planar_square"):
        t = np.radians((0, 120, 240) if name == "planar_trine" else (0, 45, 90, 135))
        d = np.stack([np.cos(t), np.sin(t), np.zeros_like(t)], axis=1)
    elif name == "spectrum_11x":
        d = np.diag([1.0, 1.0, math.sqrt(x)])
    else:
        d = np.eye(3)
    if rotate:
        d = d @ np.linalg.qr(rng.normal(size=(3, 3)))[0].T
    return (d.T @ d * 10.0**k).tolist()


def test_straight_line_kernel_is_bit_identical_on_a_seeded_panel():
    # every family, rotated and not, at direction scales 1e-150 to 1e150
    # (A at 1e-300 to 1e300 reaches the rescale), and the wrong claims of
    # test_certificate_is_sound_for_wrong_claims_and_extreme_scales
    rng = np.random.default_rng(12)
    for name in FAMILIES:
        for k in (-300.0, -200.0, -100.0, -18.0, -1.0, 0.0, 1.0, 18.0, 100.0, 200.0, 300.0):
            for rotate in (False, True, True, True):
                a = family_moment_matrix(name, rng.uniform(0.01, 4.0), rng, k, rotate)
                assert_bit_identical(a, sym3_spectrum(a)[:3])
    for scale in (1e-100, 1.0, 1e100):
        a = [[scale, 1e-65 * scale, 0.0], [1e-65 * scale, 0.0, 0.0], [0.0, 0.0, 0.0]]
        assert_bit_identical(a, (0.0, 0.0, 0.0))
        assert_bit_identical(a, sym3_spectrum(a)[:3])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    name=st.sampled_from(FAMILIES),
    x=st.floats(0.01, 4.0),
    seed=st.integers(0, 2**32 - 1),
    k=st.floats(-300.0, 300.0),
    rotate=st.booleans(),
)
def test_straight_line_kernel_is_bit_identical(name, x, seed, k, rotate):
    a = family_moment_matrix(name, x, np.random.default_rng(seed), k, rotate)
    assert_bit_identical(a, sym3_spectrum(a)[:3])
