"""The library's readers of directions, vectors and matrices take numbers only.

A number is an int, a float or a complex (a bool counts as an int); text is
refused, "1" included, and so is an int past a float's range. The fuzz feeds
nested JSON values, bounded in size, and where numpy is present ndarrays and
numpy scalars on the real paths and numpy scalars, complex ones too, in a plain
4x4 or 3x3 list, to every public function that reads
directions, a vector or a matrix. Each call must return, or raise ValueError
or TypeError: never OverflowError, ZeroDivisionError or IndexError, and never
a warning. It is derandomized, as the CLI's fuzz is.

The `sym3_*` kernels read the six entries of the upper triangle, each
through `_float` unless all six are Python floats (the bound hands them
floats). They are fuzzed with JSON rows and, where numpy is present, numpy
scalars in plain lists and ndarrays; a finite matrix whose closed-form
eigenvalues leave a float's range is a ValueError there too. The scalar
parameters, the angles and `werner`'s p, are checked case by case on text,
ints past a float's range and numpy scalars, and so is `sphere_grid_min`'s
num_points, which is read as an integer: a float, a numpy float and text are refused.

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
    directions_from_angles, incompatibility, incompatibility_from_angles, incompatibility_pair, moment_matrix,
    sym3_spectrum, sym3_traces, validate_directions,
)
from spinbounds.linalg3 import hermitian_psd_check, sym3_eigen_jacobi
from spinbounds.oracle import cubic_coefficients_unit, sphere_grid_min
from spinbounds.states import TwoQubitState, as_vec3, product_state, werner
from support import EXAMPLE4, HUGE, bits, outcome, sym3_certificate

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
    MATRIX3 |= rows_of(3, REAL_ENTRIES) | rows_of(3, NP_SCALARS | NP_COMPLEX) | rows_of(3, REAL_ENTRIES).map(as_array)

STATE = werner(0.8)
IDENTITY3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
CALLS = {
    "incompatibility": (incompatibility, DIRECTIONS),
    "moment_matrix": (moment_matrix, DIRECTIONS),
    "validate_directions": (validate_directions, DIRECTIONS),
    "incompatibility_pair": (incompatibility_pair, VECTOR, VECTOR),
    "as_vec3": (as_vec3, VECTOR),
    "product_state": (product_state, VECTOR, VECTOR),
    "TwoQubitState": (TwoQubitState, MATRIX4),
    "hermitian_psd_check": (hermitian_psd_check, MATRIX4),
    "entanglement_witness": (lambda a, b: entanglement_witness(STATE, a, b), DIRECTIONS, DIRECTIONS),
    "steering_test": (lambda s: steering_test(STATE, s), st.lists(st.tuples(VECTOR, VECTOR), max_size=3) | READER_JSON),
    "sym3_eigen_jacobi": (sym3_eigen_jacobi, MATRIX3),
    "sym3_traces": (sym3_traces, MATRIX3),
    "sym3_spectrum": (sym3_spectrum, MATRIX3),
    "sym3_certificate": (lambda a: sym3_certificate(a, (1.0, 1.0, 1.0)), MATRIX3),
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


KERNELS = {"sym3_traces": sym3_traces, "sym3_spectrum": sym3_spectrum,
           "sym3_certificate": lambda a: sym3_certificate(a, (1.0, 1.0, 1.0))}
KERNEL_SCALARS = {"float32": ("float32", 2.0), "float32-tenth": ("float32", 0.1), "float16": ("float16", 0.3),
                  "float64-1e300": ("float64", 1e300), "int8": ("int8", -128), "bool": ("bool_", True)}


@pytest.mark.parametrize("at", [(2, 2), (0, 1)], ids=["diagonal", "off-diagonal"])
@pytest.mark.parametrize("name", KERNEL_SCALARS)
def test_the_kernels_read_a_numpy_scalar_in_a_list_as_a_python_float(name, at):
    # they computed in its arithmetic: float32 eigenvalues, and an overflow warning for 1e300 or int8
    np = pytest.importorskip("numpy", exc_type=ImportError)
    kind, x = KERNEL_SCALARS[name]
    given = [[1.0, 0.25, 0.0], [0.25, 1.0, 0.0], [0.0, 0.0, 2.0]]
    given[at[0]][at[1]] = given[at[1]][at[0]] = getattr(np, kind)(x)
    floats = [[float(x) for x in row] for row in given]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for kernel in KERNELS.values():
            assert outcome(kernel, given) == outcome(kernel, floats)


@pytest.mark.parametrize("kind", ["complex", "complex128", "complex64"])
def test_the_kernels_refuse_a_complex_entry_in_a_list(kind):
    # sym3_traces returned complex traces for a numpy complex, with no error
    z = 2 + 1j if kind == "complex" else getattr(pytest.importorskip("numpy", exc_type=ImportError), kind)(2 + 1j)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for kernel in KERNELS.values():
            with pytest.raises(TypeError, match=r"^float\(\) argument must be a string or a real number, not 'complex'$"):
                kernel([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, z]])


# the scalar parameters, each with the message for an int past a float's range
SCALAR_CALLS = {
    "werner": (werner, r"Werner parameter must lie in \[0, 1\], got -?10{400}"),
    "incompatibility_from_angles": (lambda t: incompatibility_from_angles(1.0, t, 1.0),
                                    "angle theta2 is not in a float's range: int too large to convert to float"),
    "directions_from_angles": (lambda t: directions_from_angles(1.0, 1.0, t),
                               "angle theta3 is not in a float's range: int too large to convert to float"),
}


@pytest.mark.parametrize("x", ["0.5", b"0.5", bytearray(b"0.5"), HUGE, -HUGE], ids=["str", "bytes", "bytearray", "huge", "-huge"])
@pytest.mark.parametrize("name", SCALAR_CALLS)
def test_a_scalar_parameter_is_a_number_in_a_floats_range(name, x):
    # the angles raised TypeError for text and OverflowError for the int; werner TypeError for text
    call, huge = SCALAR_CALLS[name]
    expected = huge if isinstance(x, int) else r"could not convert string to float: (b'0.5'|bytearray\(b'0.5'\)|'0.5')"
    with pytest.raises(ValueError, match=f"^{expected}$"):
        call(x)


@pytest.mark.parametrize("kind, x", [("float32", 0.8), ("float16", 0.3), ("float64", 0.5), ("int64", 1), ("bool_", True)])
@pytest.mark.parametrize("name", SCALAR_CALLS)
def test_a_numpy_scalar_parameter_gives_the_bits_of_its_python_float(name, kind, x):
    # werner computed in the scalar's precision: float32(0.8) gave trace 0.999999970198, a ValueError
    np = pytest.importorskip("numpy", exc_type=ImportError)
    call, z = SCALAR_CALLS[name][0], getattr(np, kind)(x)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert bits(call(z)) == bits(call(float(z)))


@pytest.mark.parametrize("kind", ["complex", "complex128", "complex64"])
@pytest.mark.parametrize("name", SCALAR_CALLS)
def test_a_complex_scalar_parameter_is_a_type_error_without_a_warning(name, kind):
    # werner built a complex state from a numpy complex, and the angles cut it to its real part with a warning
    z = 0.5 + 1j if kind == "complex" else getattr(pytest.importorskip("numpy", exc_type=ImportError), kind)(0.5 + 1j)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TypeError, match=r"^float\(\) argument must be a string or a real number, not 'complex'$"):
            SCALAR_CALLS[name][0](z)


# sphere_grid_min's num_points is an integer in a float's range (pi / (num_points // 6) reads it), a numpy one as its int
NUM_POINTS_REFUSED = {
    "float": 100.5, "str": "100", "bytes": b"100", "huge": HUGE, "-huge": -HUGE, "float32": ("float32", 300),
}


@pytest.mark.parametrize("x", NUM_POINTS_REFUSED.values(), ids=NUM_POINTS_REFUSED)
def test_num_points_is_an_integer_in_a_floats_range(x):
    # the float, the text and float32 raised assorted TypeErrors, and the int past a float's range an OverflowError
    if isinstance(x, tuple):
        x = getattr(pytest.importorskip("numpy", exc_type=ImportError), x[0])(x[1])
    with pytest.raises(ValueError, match=r"^num_points must be an integer in a float's range: "):
        sphere_grid_min([(1.0, 0.0, 0.0)], x)


@pytest.mark.parametrize("kind", ["int64", "int32", "uint16"])
def test_a_numpy_integer_num_points_gives_the_bits_of_its_int(kind):
    z = getattr(pytest.importorskip("numpy", exc_type=ImportError), kind)(120)
    res, ref = sphere_grid_min(EXAMPLE4, z), sphere_grid_min(EXAMPLE4, 120)
    assert (bits(res[:2]), res.points_evaluated) == (bits(ref[:2]), ref.points_evaluated)


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


UPPER_TRIANGLE = [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]


@pytest.mark.parametrize("diagonal", [1.0, 0.0], ids=["identity", "zero"])
@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("at", UPPER_TRIANGLE, ids=[f"{r}{c}" for r, c in UPPER_TRIANGLE])
def test_a_nan_or_infinite_entry_is_a_value_error_in_the_kernels(at, x, diagonal):
    # max() skips a NaN that is not its first argument, so the kernel took a NaN off-diagonal entry for A = I:
    # it returned (1, 1, 1, 0, 0) over the identity and zeros over a zero diagonal
    a = [[diagonal if r == c else 0.0 for c in range(3)] for r in range(3)]
    a[at[0]][at[1]] = x
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^expected a 3x3 matrix in a float's range: an eigenvalue is not finite$"):
            sym3_spectrum(a)
        # +inf on the diagonal is what D^T D holds where its sums overflowed: it keeps moment_matrix's wording
        overflowed = x == math.inf and at[0] == at[1]
        with pytest.raises(ValueError) as info:
            sym3_traces(a)
    assert str(info.value) == ("tr A^3 overflows: entries of A above ~5.6e102 (directions longer than ~2.4e51)"
                               if overflowed else "expected a 3x3 matrix of finite entries: an entry is NaN or infinite")


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
    werner_rows = werner(0.6).rho
    # werner converts its three distinct entries q, d and x, and runs no check
    for make, converted in ((lambda: TwoQubitState(rows), 16), (lambda: werner(0.3), 3),
                            (lambda: TwoQubitState(werner_rows), 16)):
        counts.update(dict.fromkeys(counts, 0))
        make()
        assert counts == {states: converted, linalg3: 0}
    # a row with a number that is no Python float or complex (here an int) is read once more, by the check
    counts.update(dict.fromkeys(counts, 0))
    TwoQubitState([[0.25, 0.0, 0.0, 0.1j], [0.0, 0.25, 0, 0.0], [0.0, 0.0, 0.25, 0.0], [-0.1j, 0.0, 0.0, 0.25]])
    assert counts == {states: 16, linalg3: 4}
