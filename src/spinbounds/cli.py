"""Command-line front end.

Subcommands:
    incompat   bound for a direction set (--dirs FILE) or an angle triple
    table      grid of bounds over (theta1, theta2) at fixed theta3
    verify     three-path agreement: closed form vs eigensolver vs oracle
    witness    entanglement test on a two-qubit state
    steer      EPR-steering test on a two-qubit state

Exit codes: 0 success, 1 input/validation error, 3 verify failure,
4 --assert-violation failed. An ArithmeticError (the closed form failing
its residual certificate inside the library) is a verify failure:
it is reported as `error: ...` with exit code 3, never as a traceback.
No subcommand imports numpy: `verify`'s Jacobi reference and its oracle
searches run on Python floats too.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from typing import TYPE_CHECKING

from .incompat import (
    directions_from_angles,
    incompatibility,
    incompatibility_from_angles,
    moment_matrix,
    validate_directions,
)
from .linalg3 import sym3_eigen_jacobi

if TYPE_CHECKING:
    from .states import TwoQubitState

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_VERIFY_FAIL = 3
EXIT_ASSERTION = 4

_DEFAULT_GRID = ["pi/9", "2*pi/9", "pi/3", "4*pi/9", "5*pi/9"]

_ANGLE_RE = re.compile(r"^\s*(?:(\d+)\s*\*\s*)?pi\s*(?:/\s*(\d+))?\s*$")


class InputError(Exception):
    pass


def parse_angle(text: str) -> float:
    """Parse a finite angle: `k*pi/m`, `pi/m`, `k*pi`, `pi`, or a decimal literal."""
    m = _ANGLE_RE.match(text)
    try:
        value = int(m.group(1) or 1) * math.pi / int(m.group(2) or 1) if m else float(text)
    except ZeroDivisionError:
        raise InputError(f"zero denominator in angle {text!r}") from None
    except ValueError:
        raise InputError(
            f"malformed angle {text!r}: expected k*pi/m, pi/m, k*pi, pi, "
            f"or a decimal literal"
        ) from None
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise InputError(f"angle {text!r} is not finite")
    return value


def round5(x: float) -> float:
    """Round to 5 decimals, half away from zero (display convention)."""
    return math.copysign(math.floor(abs(x) * 1e5 + 0.5) / 1e5, x)


def _read_json_object(path: str, what: str) -> dict:
    """Parse a JSON file whose top level must be an object."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:  # ValueError covers bad JSON and bad UTF-8
        raise InputError(f"cannot read {what} file {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise InputError(f"{path}: expected a JSON object, got {type(data).__name__}")
    return data


def load_directions(path: str) -> list[tuple[float, float, float]]:
    """Read `{"directions": [[x,y,z], ...]}` from a JSON file as a list of
    finite, nonzero directions."""
    data = _read_json_object(path, "direction")
    dirs = data.get("directions")
    if not isinstance(dirs, list) or not dirs:
        raise InputError(f"{path}: expected a non-empty 'directions' list")
    try:
        return validate_directions(dirs)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{path}: malformed direction entry: {exc}") from exc


def load_state(spec: str) -> TwoQubitState:
    """Load a two-qubit state from a builtin spec or a JSON file.

    Builtins: `singlet`, `werner:p`, `product:ax,ay,az:bx,by,bz`. Anything
    else is treated as a path to `{"dim": 4, "re": [...], "im": [...]}`.
    """
    from .states import TwoQubitState, product_state, singlet, werner

    if spec == "singlet":
        return singlet()
    if spec.startswith("werner:"):
        try:
            return werner(float(spec.split(":", 1)[1]))
        except ValueError as exc:
            raise InputError(f"bad werner parameter in {spec!r}: {exc}") from exc
    if spec.startswith("product:"):
        parts = spec.split(":")
        if len(parts) != 3:
            raise InputError("product state spec is product:ax,ay,az:bx,by,bz")
        try:
            r_a = [float(t) for t in parts[1].split(",")]
            r_b = [float(t) for t in parts[2].split(",")]
            return product_state(r_a, r_b)
        except ValueError as exc:
            raise InputError(f"bad product state spec {spec!r}: {exc}") from exc
    data = _read_json_object(spec, "state")
    if data.get("dim") != 4:
        raise InputError(f"{spec}: only dim=4 states are accepted here")
    try:
        rows = zip(data["re"], data["im"], strict=True)
        return TwoQubitState([[complex(float(x), float(y)) for x, y in zip(*row, strict=True)] for row in rows])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"{spec}: invalid state: {exc}") from exc


def load_settings(path: str) -> list[tuple[tuple[float, ...], tuple[float, ...]]]:
    """Read `{"settings": [{"alice": [...], "bob": [...]}, ...]}`."""
    data = _read_json_object(path, "settings")
    raw = data.get("settings")
    if not isinstance(raw, list) or not raw:
        raise InputError(f"{path}: expected a non-empty 'settings' list")
    try:
        return [(tuple(map(float, entry["alice"])), tuple(map(float, entry["bob"]))) for entry in raw]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"{path}: malformed setting entry: {exc}") from exc


def _emit(args, payload: dict, lines: list[str]) -> int:
    """Print `payload` as one JSON line under --json, else the text `lines`;
    EXIT_ASSERTION if --assert-violation is set and nothing was violated."""
    print(json.dumps(payload) if getattr(args, "json", False) else "\n".join(lines))
    if getattr(args, "assert_violation", False) and not payload["violated"]:
        return EXIT_ASSERTION
    return EXIT_OK


def cmd_incompat(args) -> int:
    if (args.dirs is None) == (args.angles is None):
        raise InputError("provide exactly one of --dirs or --angles")
    if args.dirs is not None:
        dirs = load_directions(args.dirs)
    else:
        # materialize vectors so the full result (optimizer etc.) is available
        dirs = directions_from_angles(*(parse_angle(t) for t in args.angles))
    res = incompatibility(dirs)
    payload = {
        "value": res.value,
        "lambda_max": res.lambda_max,
        "optimizer": list(res.optimizer),
        "alpha": res.coefficients.alpha,
        "beta": res.coefficients.beta,
        "traces": list(res.traces),
    }
    lines = [
        f"incompatibility: {round5(res.value):.5f}",
        f"lambda_max:      {round5(res.lambda_max):.5f}",
        f"alpha:           {round5(res.coefficients.alpha):.5f}",
        f"beta:            {round5(res.coefficients.beta):.5f}",
        "optimizer bloch: ({:.6f}, {:.6f}, {:.6f})".format(*res.optimizer),
    ]
    return _emit(args, payload, lines)


def cmd_table(args) -> int:
    theta3 = parse_angle(args.theta3)
    labels = args.grid.split(",") if args.grid else _DEFAULT_GRID
    angles = [parse_angle(t) for t in labels]
    labels = [t.strip() for t in labels]
    rows = []
    footnotes = []
    for t2_label, t2 in zip(labels, angles):
        row = []
        for t1_label, t1 in zip(labels, angles):
            try:
                row.append(f"{round5(incompatibility_from_angles(t1, t2, theta3)):.5f}")
            except ValueError as exc:
                row.append("n/a")
                footnotes.append(f"({t1_label}, {t2_label}): {exc}")
        rows.append(row)
    if args.csv:
        lines = ["theta2\\theta1," + ",".join(labels)]
        lines += [label + "," + ",".join(row) for label, row in zip(labels, rows)]
    else:
        width = max(9, max(len(t) for t in labels) + 2)
        lines = [" " * 12 + "".join(t.rjust(width) for t in labels)]
        lines += [label.ljust(12) + "".join(c.rjust(width) for c in row) for label, row in zip(labels, rows)]
    _emit(args, {}, lines)
    for note in footnotes:
        print(f"n/a {note}", file=sys.stderr)
    return EXIT_OK


def cmd_verify(args) -> int:
    from .oracle import mixed_sample_floor, sphere_grid_min

    dirs = load_directions(args.dirs)
    res = incompatibility(dirs)
    # independent path: the hand-written Jacobi solver, not the closed form
    a, traces = moment_matrix(dirs)
    w, _ = sym3_eigen_jacobi(a)
    jacobi_value = traces[0] - float(w[0])
    # fixed effort: the 20 000-point lattice plus descent, and 1000 mixed states from seed 0
    oracle = sphere_grid_min(dirs)
    floor = mixed_sample_floor(dirs, 1000)

    d_jacobi = abs(res.value - jacobi_value)
    d_oracle = abs(res.value - oracle.value)
    # absolute tolerances for unit directions, scaled by the mean squared direction length
    scale = max(1.0, traces[0] / len(dirs))
    ok = d_jacobi <= 1e-9 * scale and d_oracle <= 1e-5 * scale and floor >= res.value - 1e-10 * scale
    payload = {
        "closed_form": res.value,
        "jacobi": jacobi_value,
        "oracle": oracle.value,
        "delta_jacobi": d_jacobi,
        "delta_oracle": d_oracle,
        "mixed_floor": floor,
        "pass": ok,
    }
    lines = [
        f"closed form: {res.value:.10f}",
        f"jacobi:      {jacobi_value:.10f}  (delta {d_jacobi:.3e})",
        f"oracle:      {oracle.value:.10f}  (delta {d_oracle:.3e})",
        f"mixed floor: {floor:.10f}",
        "PASS" if ok else "FAIL",
    ]
    _emit(args, payload, lines)
    return EXIT_OK if ok else EXIT_VERIFY_FAIL


def cmd_witness(args) -> int:
    from .criteria import entanglement_witness

    state = load_state(args.state)
    alice = load_directions(args.alice)
    bob = load_directions(args.bob)
    report = entanglement_witness(state, alice, bob)
    payload = {
        "variance_sum": report.variance_sum,
        "bound": report.bound,
        "margin": report.margin,
        "violated": report.violated,
    }
    lines = [
        f"variance sum: {report.variance_sum:.10f}",
        f"bound:        {report.bound:.10f}",
        f"margin:       {report.margin:.10f}",
        "ENTANGLED (bound violated)" if report.violated else "no violation",
    ]
    return _emit(args, payload, lines)


def cmd_steer(args) -> int:
    from .criteria import steering_test

    state = load_state(args.state)
    settings = load_settings(args.settings)
    report = steering_test(state, settings)
    payload = {
        "inference_variances": list(report.inference_variances),
        "total": report.total,
        "bound": report.bound,
        "margin": report.margin,
        "violated": report.violated,
    }
    lines = [f"setting {i}: inference variance {v:.10f}" for i, v in enumerate(report.inference_variances)]
    lines += [
        f"total: {report.total:.10f}",
        f"bound: {report.bound:.10f}",
        "STEERING (bound violated)" if report.violated else "no violation",
    ]
    return _emit(args, payload, lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinbounds",
        description="State-independent variance bounds for qubit spin observables",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    as_json = argparse.ArgumentParser(add_help=False)
    as_json.add_argument("--json", action="store_true")
    state_test = argparse.ArgumentParser(add_help=False)
    state_test.add_argument("--state", required=True, help="file or singlet|werner:p|product:..")
    state_test.add_argument("--assert-violation", action="store_true")

    p = sub.add_parser("incompat", parents=[as_json], help="bound for a direction set or angle triple")
    p.add_argument("--dirs", help="JSON direction file")
    p.add_argument("--angles", nargs=3, metavar="THETA", help="three pairwise angles")
    p.set_defaults(func=cmd_incompat)

    p = sub.add_parser("table", help="grid of bounds over (theta1, theta2)")
    p.add_argument("--theta3", default="pi/3")
    p.add_argument("--grid", help="comma-separated angles (default pi/9..5*pi/9)")
    p.add_argument("--csv", action="store_true")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("verify", parents=[as_json], help="closed form vs eigensolver vs oracle")
    p.add_argument("--dirs", required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("witness", parents=[state_test, as_json], help="entanglement test")
    p.add_argument("--alice", required=True, help="JSON direction file")
    p.add_argument("--bob", required=True, help="JSON direction file")
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("steer", parents=[state_test, as_json], help="EPR-steering test")
    p.add_argument("--settings", required=True, help="JSON settings file")
    p.set_defaults(func=cmd_steer)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InputError, ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAIL if isinstance(exc, ArithmeticError) else EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
