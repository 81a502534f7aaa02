"""Independent reference results and the checks that compare the program's
outcomes with them.

Everything here is plain numpy (`eigvalsh`, Kronecker products of Pauli
matrices, the Bloch-tensor formulas) and shares no code with the package
under test. It runs outside the timed region.

A check returns None when the outcome is right and a short failure reason
otherwise. An outcome is either the value the op returned or
`Raised(type, message)` when the op raised.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

# Tolerances are the package's own documented contracts: the closed form
# agrees with an eigensolver to 1e-9 of tr A, angle triples with a Gram
# eigenvalue below -1e-9 are rejected, a verdict needs a margin over 1e-10,
# and `verify` accepts the sphere search within 1e-5.
VALUE_RTOL = 1e-9
GRAM_TOL = 1e-9
VIOLATION_SLACK = 1e-10
STAT_ATOL = 1e-9
ORACLE_ATOL = 1e-5
BRANCH_EPS = 1e-12
ROUND5_ATOL = 5e-6 + 1e-12  # a 5-decimal cell is within half a unit of the value
CLI_DEFAULT_GRID = [k * math.pi / 9 for k in (1, 2, 3, 4, 5)]

_PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)
_I2 = np.eye(2, dtype=complex)


@dataclass(frozen=True)
class Raised:
    type: str
    message: str


@dataclass(frozen=True)
class Witness:
    variance_sum: float
    bound: float
    violated: bool


@dataclass(frozen=True)
class Steering:
    variances: tuple
    total: float
    bound: float
    violated: bool


def incompat(dirs) -> tuple[float, float]:
    """(tr A - lambda_max(A), tr A) with A = D^T D."""
    d = np.asarray(dirs, dtype=float)
    a = d.T @ d
    trace = float(np.trace(a))
    return trace - float(np.linalg.eigvalsh(a)[-1]), trace


def _gram(t1: float, t2: float, t3: float) -> np.ndarray:
    c1, c2, c3 = math.cos(t1), math.cos(t2), math.cos(t3)
    return np.array([[1.0, c3, c2], [c3, 1.0, c1], [c2, c1, 1.0]])


def gram_min_eigenvalue(t1: float, t2: float, t3: float) -> float:
    return float(np.linalg.eigvalsh(_gram(t1, t2, t3))[0])


def angles_value(t1: float, t2: float, t3: float):
    """Bound for three unit vectors with these pairwise angles, or None when
    no such vectors exist. D D^T is the Gram matrix, so A = D^T D shares its
    spectrum and tr A = 3."""
    w = np.linalg.eigvalsh(_gram(t1, t2, t3))
    if w[0] < -GRAM_TOL:
        return None
    return 3.0 - float(w[-1])


def _bloch_rho(r) -> np.ndarray:
    return 0.5 * (_I2 + sum(c * s for c, s in zip(r, _PAULI)))


def state_rho(kind: str, params) -> np.ndarray:
    if kind == "werner":
        psi = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0)
        return params * np.outer(psi, psi).astype(complex) + (1.0 - params) * np.eye(4) / 4.0
    if kind == "product":
        return np.kron(_bloch_rho(params[0]), _bloch_rho(params[1]))
    return np.asarray(params, dtype=complex)


def bloch_tensor(rho: np.ndarray):
    """(a, b, T) with rho = (I + a.s x I + I x b.s + sum T_ij s_i x s_j)/4."""
    a = np.array([np.trace(rho @ np.kron(s, _I2)).real for s in _PAULI])
    b = np.array([np.trace(rho @ np.kron(_I2, s)).real for s in _PAULI])
    t = np.array([[np.trace(rho @ np.kron(si, sj)).real for sj in _PAULI] for si in _PAULI])
    return a, b, t


def witness(rho, alice, bob) -> Witness:
    a, b, t = bloch_tensor(rho)
    total = 0.0
    for n, m in zip(np.asarray(alice, float), np.asarray(bob, float)):
        total += n @ n + m @ m + 2.0 * n @ t @ m - (n @ a + m @ b) ** 2
    bound = incompat(alice)[0] + incompat(bob)[0]
    return Witness(float(total), bound, bool(total < bound - VIOLATION_SLACK))


def steering(rho, settings) -> Steering:
    a, b, t = bloch_tensor(rho)
    variances = []
    for n, m in settings:
        n, m = np.asarray(n, float), np.asarray(m, float)
        v = 0.0
        for sign in (1.0, -1.0):
            p = 0.5 * (1.0 + sign * (n @ a))
            if p < BRANCH_EPS:
                continue
            r = (b + sign * (t.T @ n)) / (2.0 * p)
            v += p * (1.0 - (m @ r) ** 2)
        variances.append(float(v))
    total = float(sum(variances))
    bound = incompat([m for _, m in settings])[0]
    return Steering(tuple(variances), total, bound, bool(total < bound - VIOLATION_SLACK))


def _raised(outcome: Raised) -> str:
    return f"raised {outcome.type}"


def _close(got, want, atol: float) -> bool:
    return abs(float(got) - want) <= atol


# --- library workloads -----------------------------------------------------


def expect_direction_set(item):
    return incompat(item.args[0])


def check_direction_set(expected, outcome) -> str | None:
    value, trace = expected
    if isinstance(outcome, Raised):
        return _raised(outcome)
    return None if _close(outcome, value, VALUE_RTOL * trace) else "wrong value"


def expect_angle_triple(item):
    return angles_value(*item.args)


def check_angle_triple(expected, outcome) -> str | None:
    if expected is None:
        if isinstance(outcome, Raised):
            return None if outcome.type == "ValueError" else _raised(outcome)
        return "missed rejection"
    if isinstance(outcome, Raised):
        return "wrong rejection" if outcome.type == "ValueError" else _raised(outcome)
    return None if _close(outcome, expected, VALUE_RTOL * 3.0) else "wrong value"


def expect_two_qubit(item):
    kind, params, alice, settings = item.args
    rho = state_rho(kind, params)
    return witness(rho, alice, alice), steering(rho, settings)


def _check_witness(want: Witness, got: dict) -> str | None:
    if not _close(got["variance_sum"], want.variance_sum, STAT_ATOL):
        return "wrong variance sum"
    # both sides have at most 4 unit directions, so tr A <= 4 on each
    if not _close(got["bound"], want.bound, VALUE_RTOL * 8.0):
        return "wrong bound"
    return None if got["violated"] == want.violated else "wrong verdict"


def _check_steering(want: Steering, got: dict) -> str | None:
    variances = got["inference_variances"]
    if len(variances) != len(want.variances) or not all(
        _close(g, w, STAT_ATOL) for g, w in zip(variances, want.variances)
    ):
        return "wrong inference variance"
    if not _close(got["total"], want.total, STAT_ATOL):
        return "wrong inference total"
    if not _close(got["bound"], want.bound, VALUE_RTOL * 4.0):
        return "wrong bound"
    return None if got["violated"] == want.violated else "wrong verdict"


def check_two_qubit(expected, outcome) -> str | None:
    if isinstance(outcome, Raised):
        return _raised(outcome)
    want_w, want_s = expected
    got_w, got_s = outcome  # the package's WitnessReport and SteeringReport
    return _check_witness(want_w, vars(got_w)) or _check_steering(want_s, vars(got_s))


# --- cli workload ----------------------------------------------------------


def _load_dirs(path: str) -> np.ndarray:
    with open(path) as fh:
        return np.asarray(json.load(fh)["directions"], dtype=float)


def _load_rho(spec: str) -> np.ndarray:
    if spec.startswith("werner:"):
        return state_rho("werner", float(spec.split(":", 1)[1]))
    if spec.startswith("product:"):
        _, ra, rb = spec.split(":")
        return state_rho("product", ([float(x) for x in ra.split(",")], [float(x) for x in rb.split(",")]))
    with open(spec) as fh:
        data = json.load(fh)
    return np.asarray(data["re"], float) + 1j * np.asarray(data["im"], float)


def _option(argv, name: str) -> str:
    return argv[argv.index(name) + 1]


def expect_cli(item):
    return item.kind, _expect_cli(item)


def _expect_cli(item):
    argv = item.args
    if item.kind in ("incompat_dirs", "verify"):
        return incompat(_load_dirs(_option(argv, "--dirs")))
    if item.kind == "incompat_angles":
        t = [float(x) for x in argv[2:5]]
        return angles_value(*t), 3.0
    if item.kind == "table":
        t3 = float(_option(argv, "--theta3"))
        return [[angles_value(t1, t2, t3) for t1 in CLI_DEFAULT_GRID] for t2 in CLI_DEFAULT_GRID]
    rho = _load_rho(_option(argv, "--state"))
    if item.kind == "witness":
        return witness(rho, _load_dirs(_option(argv, "--alice")), _load_dirs(_option(argv, "--bob")))
    with open(_option(argv, "--settings")) as fh:
        raw = json.load(fh)["settings"]
    return steering(rho, [(s["alice"], s["bob"]) for s in raw])


def _check_table(expected, stdout: str) -> str | None:
    rows = [line.split(",") for line in stdout.strip().splitlines()[1:]]
    if len(rows) != len(expected) or any(len(r) != len(expected[0]) + 1 for r in rows):
        return "malformed table"
    for row, want_row in zip(rows, expected):
        for cell, want in zip(row[1:], want_row):
            if (cell == "n/a") != (want is None):
                return "wrong rejection" if cell == "n/a" else "missed rejection"
            if want is not None and not _close(cell, want, ROUND5_ATOL):
                return "wrong value"
    return None


def check_cli(expected, outcome) -> str | None:
    """`outcome` is (exit code, stdout, stderr) or Raised for an in-process
    call that raised out of `cli.main`."""
    kind, expected = expected
    if isinstance(outcome, Raised):
        return _raised(outcome)
    code, stdout, stderr = outcome
    if "Traceback (most recent call last)" in stderr:
        return "traceback"
    if code != 0:
        return f"exit code {code}"
    if kind == "table":
        return _check_table(expected, stdout)
    try:
        payload = json.loads(stdout)
    except json.JSONDecodeError:
        return "bad json"
    if kind in ("incompat_dirs", "incompat_angles"):
        value, trace = expected
        return None if _close(payload["value"], value, VALUE_RTOL * trace) else "wrong value"
    if kind == "verify":
        value, trace = expected
        if not payload["pass"]:
            return "verify failed"
        if not _close(payload["closed_form"], value, VALUE_RTOL * trace):
            return "wrong value"
        return None if _close(payload["oracle"], value, ORACLE_ATOL) else "wrong oracle value"
    if kind == "witness":
        return _check_witness(expected, payload)
    return _check_steering(expected, payload)
