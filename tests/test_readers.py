"""The library's readers of directions, vectors and matrices take numbers only.

A number is an int, a float or a complex (a bool counts as an int); text is
refused, "1" included, and so is an int past a float's range. The fuzz feeds
nested JSON values, bounded in size, and where numpy is present ndarrays and
numpy scalars on the real paths and numpy scalars, complex ones too, in a plain
4x4 list, to every public function that reads
directions, a vector or a matrix. Each call must return, or raise ValueError
or TypeError: never OverflowError, ZeroDivisionError or IndexError, and never
a warning. It is derandomized, as the CLI's fuzz is.

The `sym3_*` kernels take rows of Python numbers as given, as the bound hands
them over: they are fuzzed with JSON rows and, where numpy is present,
ndarrays; a finite matrix whose closed-form eigenvalues leave a float's range
is a ValueError there too. Left out: numpy scalars in their plain lists, which compute in
numpy's arithmetic and warn where it overflows; and the scalar parameters
(the angles, `werner`'s p and `sphere_grid_min`'s num_points), which
`float()` and plain comparisons still read as given. Both stay open under
ROADMAP item 13.

The module imports no numpy at module level, so it runs in the numpy-free CI
job as well; without numpy its fuzz feeds only the JSON values.
"""

import math
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinbounds import linalg3, states
from spinbounds.criteria import entanglement_witness, steering_test
from spinbounds.incompat import (
    incompatibility, incompatibility_pair, moment_matrix, sym3_certificate, sym3_spectrum, sym3_traces, validate_directions,
)
from spinbounds.linalg3 import hermitian_psd_check, sym3_eigen_jacobi
from spinbounds.oracle import cubic_coefficients_unit, sphere_grid_min
from spinbounds.states import QubitState, TwoQubitState, as_vec3, product_state, uncertainty_sum, werner
from support import HUGE

try:
    import numpy as np
except ImportError:
    np = None

TEXT_NUMBERS = ["1", "0", "0.25", "-1e-3", "1e400", "nan", "inf", " 1 ", "1_0", "1+0j"]
READER_SCALARS = (
    st.integers(-3, 3) | st.integers() | st.floats(-2.0, 2.0) | st.floats()
    | st.sampled_from([0.0, -0.0, 0.25, 1e-300, 5e-324, 1e154, 1e300, HUGE, -HUGE, 2**1024, True, False])
    | st.complex_numbers(max_magnitude=2.0) | st.none() | st.sampled_from(TEXT_NUMBERS) | st.text(max_size=2)
)
READER_JSON = st.recursive(
    READER_SCALARS, lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=2), inner, max_size=3),
    max_leaves=12,
)
EDGE = st.sampled_from([HUGE, -HUGE, "1", b"0.25", None, float("nan"), 1e308])
UNIT = st.sampled_from([[1, 0, 0], [0.0, 1.0, 0.0], [0, 0, -1], [0.6, 0.8, 0.0]])


def rows_of(n, entries):
    """n x n rows: three times in four the identity / n with one entry, or a symmetric pair, replaced by
    an edge value or a draw from `entries`, its first diagonal entry -1 (a first pivot <= 0) half the time;
    else all n x n entries drawn from `entries`."""

    def replaced(i, j, x, pair, first):
        m = [[float(r == c) / n for c in range(n)] for r in range(n)]
        m[0][0] = first
        m[i][j] = x
        m[j][i] = x if pair else m[j][i]
        return m

    full = st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)
    edge_or_entry = st.booleans().flatmap(lambda edge: EDGE if edge else entries)  # `|` would flatten to 1 in 10
    one = st.builds(replaced, st.integers(0, n - 1), st.integers(0, n - 1), edge_or_entry, st.booleans(),
                    st.sampled_from([1 / n, -1.0]))
    return st.integers(0, 3).flatmap(lambda k: one if k else full)


VECTOR = UNIT | st.lists(READER_SCALARS, min_size=3, max_size=3) | READER_JSON
DIRECTIONS = st.lists(VECTOR, min_size=1, max_size=5) | READER_JSON
MATRIX4 = rows_of(4, READER_SCALARS) | READER_JSON
MATRIX3 = rows_of(3, READER_SCALARS) | READER_JSON
KERNEL3 = MATRIX3  # the sym3_* kernels: JSON rows on their list path, and ndarrays where numpy is present

if np is not None:  # numpy scalars and ndarrays on the real paths
    NP_SCALARS = st.builds(lambda kind, x: kind(x), st.sampled_from([np.float64, np.float32, np.int64]),
                           st.integers(-3, 3)) | st.sampled_from(
        [np.float64(1e300), np.float32(3e38), np.bool_(True), np.str_("1"), np.complex128(1 + 1j), np.float64("nan")])
    REAL_ENTRIES = READER_SCALARS | NP_SCALARS
    NP_COMPLEX = st.sampled_from([np.complex64(0.25 + 1j), np.complex128(-1j), np.int8(-128), np.float32(0.5)])

    def as_array(x):
        """x as an ndarray where numpy makes one of it without a warning, else x."""
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                return np.array(x)
        except Exception:
            return x

    VECTOR |= st.lists(REAL_ENTRIES, min_size=3, max_size=3) | st.lists(REAL_ENTRIES, min_size=3, max_size=3).map(as_array)
    DIRECTIONS |= st.lists(VECTOR, min_size=1, max_size=5).map(as_array) | st.lists(VECTOR.map(as_array), max_size=4)
    MATRIX4 |= rows_of(4, READER_SCALARS).map(as_array) | rows_of(4, REAL_ENTRIES | NP_COMPLEX)
    MATRIX3 |= rows_of(3, REAL_ENTRIES) | rows_of(3, REAL_ENTRIES).map(as_array)
    KERNEL3 |= rows_of(3, REAL_ENTRIES).map(as_array)

STATE = werner(0.8)
IDENTITY3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
CALLS = {
    "incompatibility": (incompatibility, DIRECTIONS),
    "moment_matrix": (moment_matrix, DIRECTIONS),
    "validate_directions": (validate_directions, DIRECTIONS),
    "incompatibility_pair": (incompatibility_pair, VECTOR, VECTOR),
    "uncertainty_sum": (lambda d, v: uncertainty_sum(d, QubitState(v)), DIRECTIONS, VECTOR),
    "as_vec3": (as_vec3, VECTOR),
    "product_state": (product_state, VECTOR, VECTOR),
    "TwoQubitState": (TwoQubitState, MATRIX4),
    "hermitian_psd_check": (hermitian_psd_check, MATRIX4),
    "entanglement_witness": (lambda a, b: entanglement_witness(STATE, a, b), DIRECTIONS, DIRECTIONS),
    "steering_test": (lambda s: steering_test(STATE, s), st.lists(st.tuples(VECTOR, VECTOR), max_size=3) | READER_JSON),
    "sym3_eigen_jacobi": (sym3_eigen_jacobi, MATRIX3),
    "sym3_traces": (sym3_traces, KERNEL3),
    "sym3_spectrum": (sym3_spectrum, KERNEL3),
    "sym3_certificate": (lambda a: sym3_certificate(a, (1.0, 1.0, 1.0)), KERNEL3),
    "sphere_grid_min": (sphere_grid_min, DIRECTIONS),
    "cubic_coefficients_unit": (cubic_coefficients_unit, st.lists(UNIT | VECTOR, min_size=1, max_size=8) | READER_JSON),
}


@pytest.mark.parametrize("name", CALLS)
@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(data=st.data())
def test_every_reader_returns_or_raises_value_or_type_error(name, data):
    fn, *strategies = CALLS[name]
    args = [data.draw(s, label=f"arg{i}") for i, s in enumerate(strategies)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            fn(*args)
        except (ValueError, TypeError):
            pass


TEXT_CALLS = {
    "incompatibility": lambda v: incompatibility([v, [0, 1, 0]]),
    "moment_matrix": lambda v: moment_matrix([v, [0, 1, 0]]),
    "moment_matrix-iterator": lambda v: moment_matrix(iter([v, [0, 1, 0]])),
    "validate_directions": lambda v: validate_directions([v]),
    "incompatibility_pair": lambda v: incompatibility_pair(v, [0, 1, 0]),
    "uncertainty_sum": lambda v: uncertainty_sum([v], QubitState((0.0, 0.0, 1.0))),
    "QubitState": QubitState,
    "as_vec3": as_vec3,
    "product_state": lambda v: product_state(v, (0, 0, 1)),
    "criteria._unit": lambda v: steering_test(STATE, [(v, (1, 0, 0))]),
    "steering_test": lambda v: steering_test(STATE, [((1, 0, 0), v)]),
    "entanglement_witness": lambda v: entanglement_witness(STATE, [v], [(1, 0, 0)]),
    "sym3_eigen_jacobi": lambda v: sym3_eigen_jacobi([v, [0, 1, 0], [0, 0, 1]]),
    "sphere_grid_min": lambda v: sphere_grid_min([v]),
    "cubic_coefficients_unit": lambda v: cubic_coefficients_unit([v]),
}


@pytest.mark.parametrize("text", ["1", b"1", bytearray(b"1")], ids=["str", "bytes", "bytearray"])
@pytest.mark.parametrize("call", TEXT_CALLS.values(), ids=TEXT_CALLS)
def test_text_is_not_a_number(call, text):
    # float() read each of these as 1.0, so the vector (1, 0, 0) was taken
    with pytest.raises(ValueError, match=r"^could not convert string to float: (b'1'|bytearray\(b'1'\)|'1')$"):
        call([text, 0, 0])


def test_text_in_a_density_matrix_is_not_a_number():
    # complex() read the text, so this was the maximally mixed state
    rows = [["0.25" if r == c else "0" for c in range(4)] for r in range(4)]
    for call in (TwoQubitState, hermitian_psd_check):
        with pytest.raises(ValueError, match=r"^expected a 4x4 matrix$"):
            call(rows)


@pytest.mark.parametrize("at", [(0, 0), (1, 1), (3, 3), (0, 1), (2, 3), (3, 0)])
def test_an_int_past_a_floats_range_is_a_value_error_in_the_4x4(at):
    # complex() raised OverflowError("int too large to convert to float") for each
    i, j = at
    one = [[HUGE if (r, c) == at else 0.25 * (r == c) for c in range(4)] for r in range(4)]
    pair = [[HUGE if {r, c} == {i, j} else x for c, x in enumerate(row)] for r, row in enumerate(one)]
    # the read refuses it before any verdict: alone, in a Hermitian pair, and behind a first pivot <= 0
    behind = [[-1.0 if r == c == 0 else x for c, x in enumerate(row)] for r, row in enumerate(pair)]
    for m in (one, pair, behind) if at != (0, 0) else (one, pair):
        for call in (TwoQubitState, hermitian_psd_check):
            with pytest.raises(ValueError, match="^expected a 4x4 matrix$"):
                call(m)


def test_every_entry_is_read_before_the_hermiticity_test():
    # a non-Hermitian pair ahead of an entry that is no number: the entry is named, not the pair
    for bad in (None, "0.25", [0.25], HUGE):
        m = [[0.25 * (r == c) for c in range(4)] for r in range(4)]
        m[0][1], m[3][3] = 1.0, bad
        for call in (TwoQubitState, hermitian_psd_check):
            with pytest.raises(ValueError, match="^expected a 4x4 matrix$"):
                call(m)


def test_other_numbers_are_read_as_python_complex_numbers():
    # Decimal and Fraction entries compute in double arithmetic, as complex() read them before
    from decimal import Decimal
    from fractions import Fraction

    for kind in (Decimal, Fraction):
        rows = [[kind(1) / kind(4) if r == c else kind(0) for c in range(4)] for r in range(4)]
        assert hermitian_psd_check(rows) is True
        assert TwoQubitState(rows).rho == TwoQubitState([[0.25 * (r == c) for c in range(4)] for r in range(4)]).rho


def test_numpy_scalars_in_a_list_compute_in_double_arithmetic():
    np = pytest.importorskip("numpy", exc_type=ImportError)
    # in float32 arithmetic PSD_TOL vanishes beside 0.5, so this Bell state's last pivot came out 0.0: not PSD
    f = np.float32
    bell = [[f(0.5), f(0), f(0), f(0.5)], [f(0)] * 4, [f(0)] * 4, [f(0.5), f(0), f(0), f(0.5)]]
    assert hermitian_psd_check(bell) is True
    assert TwoQubitState(bell).rho == TwoQubitState([[float(x) for x in row] for row in bell]).rho
    # in int8 arithmetic abs(-128 - 0) wraps to -128 <= 1e-12, so this pair passed as Hermitian
    m = [[0.25 * (r == c) for c in range(4)] for r in range(4)]
    m[0][1], m[1][0] = np.int8(-128), np.int8(0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (TwoQubitState, hermitian_psd_check):
            with pytest.raises(ValueError, match="^density matrix is not Hermitian$"):
                call(m)


@pytest.mark.parametrize("at", [(0, 0), (0, 1), (1, 1), (1, 2), (2, 2)])
def test_an_int_past_a_floats_range_is_a_value_error_in_the_kernels(at):
    # the list path's float arithmetic raised OverflowError("int too large to convert to float")
    upper = [[HUGE if (r, c) == at else int(r == c) for c in range(3)] for r in range(3)]
    lower = [list(column) for column in zip(*upper)]  # only the certificate reads the lower triangle
    calls = [lambda: sym3_traces(upper), lambda: sym3_spectrum(upper), lambda: sym3_certificate(upper, (1.0, 1.0, 1.0)),
             lambda: sym3_certificate(lower, (1.0, 1.0, 1.0)), lambda: sym3_certificate(IDENTITY3, (HUGE, 1.0, 1.0))]
    for call in calls:
        with pytest.raises(ValueError, match=r"^expected a 3x3 matrix in a float's range: int too large to convert to float$"):
            call()


# finite symmetric matrices whose closed form overflows: an eigenvalue past a float's range, or B = A - (tr A / 3) I
OVERFLOWING_SPECTRA = {
    "eigenvalue_3.4e308": [[1.7e308, 1.7e308, 0.0], [1.7e308, 1.7e308, 0.0], [0.0, 0.0, 1.0]],
    "shifted_matrix": [[1.7e308, 0.0, 0.0], [0.0, -1.7e308, 0.0], [0.0, 0.0, -1.7e308]],
    "eigenvalue_2e308": [[0.0, 1e308, 1e308], [1e308, 0.0, 1e308], [1e308, 1e308, 0.0]],
}


@pytest.mark.parametrize("a", OVERFLOWING_SPECTRA.values(), ids=OVERFLOWING_SPECTRA)
def test_a_spectrum_past_a_floats_range_is_a_value_error(a):
    # the kernel returned NaN eigenvalues for the first two and lam_max = inf for the third
    with pytest.raises(ValueError, match=r"^expected a 3x3 matrix in a float's range: an eigenvalue is not finite$"):
        sym3_spectrum(a)


def test_beta_past_a_floats_range_leaves_the_eigenvalues_finite():
    # beta = s^3 det(B / s) / 2 overflows past s ~ 5.6e102: inf here, and NaN where det B = 0
    lam_max, lam_mid, lam_min, _, beta = sym3_spectrum([[1e104, 0, 0], [0, 0, 0], [0, 0, 0]])
    assert beta == math.inf and lam_max == pytest.approx(1e104, rel=1e-15) and abs(lam_mid) + abs(lam_min) < 1e89
    lam_max, lam_mid, lam_min, _, beta = sym3_spectrum([[1e103, 0, 0], [0, 0, 0], [0, 0, -1e103]])
    assert math.isnan(beta) and (lam_max, lam_min) == pytest.approx((1e103, -1e103), rel=1e-15) and abs(lam_mid) < 1e88


@pytest.mark.parametrize("at", [(0, 0), (1, 2), (2, 1)])
def test_an_int_past_a_floats_range_is_a_value_error_in_jacobi(at):
    a = [[HUGE if (r, c) == at else float(r == c) for c in range(3)] for r in range(3)]
    with pytest.raises(ValueError, match=r"^expected a 3x3 matrix$"):
        sym3_eigen_jacobi(a)


def test_the_state_converts_each_entry_once_and_the_check_none(monkeypatch):
    counts = {states: 0, linalg3: 0}

    def counting(module):
        def complex_(*args):
            counts[module] += 1
            return complex(*args)
        return complex_

    for module in counts:
        monkeypatch.setattr(module, "complex", counting(module), raising=False)
    rows = [[0.25, 0.0, 0.0, 0.1j], [0.0, 0.25, 0.0, 0.0], [0.0, 0.0, 0.25, 0.0], [-0.1j, 0.0, 0.0, 0.25]]
    for make, built in ((lambda: TwoQubitState(rows), 1), (lambda: werner(0.3), 1),
                        (lambda: TwoQubitState(werner(0.6).rho), 2)):
        counts.update(dict.fromkeys(counts, 0))
        make()
        assert counts == {states: 16 * built, linalg3: 0}
    # a row with a number that is no Python float or complex (here an int) is read once more, by the check
    counts.update(dict.fromkeys(counts, 0))
    TwoQubitState([[0.25, 0.0, 0.0, 0.1j], [0.0, 0.25, 0, 0.0], [0.0, 0.0, 0.25, 0.0], [-0.1j, 0.0, 0.0, 0.25]])
    assert counts == {states: 16, linalg3: 4}
