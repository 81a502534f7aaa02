import argparse
import json
import math
import os
import subprocess
import sys

import pytest

from spinbounds import cli
from spinbounds.cli import (
    EXIT_ASSERTION,
    EXIT_INPUT,
    EXIT_OK,
    EXIT_VERIFY_FAIL,
    InputError,
    main,
    parse_angle,
    round5,
)


@pytest.fixture
def xyz_file(tmp_path):
    path = tmp_path / "xyz.json"
    path.write_text(json.dumps({"directions": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}))
    return str(path)


@pytest.fixture
def example4_file(tmp_path):
    dirs = [
        [1, 0, 0],
        [0.5, math.sqrt(3) / 2, 0],
        [0.5, 0.5, 1 / math.sqrt(2)],
        [1 / math.sqrt(3)] * 3,
    ]
    path = tmp_path / "example4.json"
    path.write_text(json.dumps({"directions": dirs}))
    return str(path)


@pytest.fixture
def settings_file(tmp_path):
    settings = [
        {"alice": [1, 0, 0], "bob": [1, 0, 0]},
        {"alice": [0, 1, 0], "bob": [0, 1, 0]},
        {"alice": [0, 0, 1], "bob": [0, 0, 1]},
    ]
    path = tmp_path / "settings.json"
    path.write_text(json.dumps({"settings": settings}))
    return str(path)


@pytest.mark.parametrize(
    "text,expected",
    [
        ("pi/9", math.pi / 9),
        ("2*pi/9", 2 * math.pi / 9),
        ("pi", math.pi),
        ("3*pi", 3 * math.pi),
        ("0.5", 0.5),
        (" pi / 3 ", math.pi / 3),
    ],
)
def test_parse_angle(text, expected):
    assert parse_angle(text) == pytest.approx(expected, abs=0)


@pytest.mark.parametrize("text", ["two*pi", "pi/", "pi/0", "1/2*pi", "", "nan", "inf", "-inf", "1e400"])
def test_parse_angle_rejects_malformed(text):
    with pytest.raises(InputError):
        parse_angle(text)


def test_round5_half_away_from_zero():
    assert round5(0.000005) == 0.00001
    assert round5(-0.000005) == -0.00001
    assert round5(1.234564) == 1.23456


def test_incompat_dirs(xyz_file, capsys):
    assert main(["incompat", "--dirs", xyz_file]) == EXIT_OK
    out = capsys.readouterr().out
    assert "incompatibility: 2.00000" in out


def test_incompat_example4_json(example4_file, capsys):
    assert main(["incompat", "--dirs", example4_file, "--json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["value"] == pytest.approx(0.94955, abs=1e-4)
    assert payload["lambda_max"] == pytest.approx(3.05045, abs=1e-4)
    assert len(payload["optimizer"]) == 3


def test_incompat_angles(capsys):
    assert main(["incompat", "--angles", "pi/2", "pi/2", "pi/2"]) == EXIT_OK
    assert "incompatibility: 2.00000" in capsys.readouterr().out


def test_incompat_requires_exactly_one_input(xyz_file, capsys):
    assert main(["incompat"]) == EXIT_INPUT
    assert (
        main(["incompat", "--dirs", xyz_file, "--angles", "pi", "pi", "pi"])
        == EXIT_INPUT
    )


def test_incompat_unrealizable_angles(capsys):
    assert main(["incompat", "--angles", "pi/9", "pi/9", "pi/3"]) == EXIT_INPUT
    assert "not realizable" in capsys.readouterr().err


def test_incompat_dirs_rotated_orthogonal_pair(tmp_path, capsys):
    # a Haar-rotated orthogonal pair: a double top eigenvalue, which the
    # trig root alone gets wrong by ~1e-8
    np = pytest.importorskip("numpy", exc_type=ImportError)
    rng = np.random.default_rng(0)
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    dirs = (np.eye(3)[:2] @ (q * np.sign(np.diag(r))).T).tolist()
    path = tmp_path / "pair.json"
    path.write_text(json.dumps({"directions": dirs}))
    assert main(["incompat", "--dirs", str(path), "--json"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["value"] == pytest.approx(1.0, abs=1e-12)


def test_incompat_cross_check_failure_exits_3_without_traceback(xyz_file, capsys, monkeypatch):
    from spinbounds import incompat

    kernel = incompat.sym3_spectrum
    monkeypatch.setattr(
        incompat, "sym3_spectrum", lambda a: kernel(a)._replace(lam_max=kernel(a).lam_max + 1.0)
    )
    assert main(["incompat", "--dirs", xyz_file]) == EXIT_VERIFY_FAIL
    err = capsys.readouterr().err
    assert err.startswith("error: closed-form eigenvalue")
    assert "Traceback" not in err


def test_incompat_missing_file(capsys):
    assert main(["incompat", "--dirs", "/nonexistent.json"]) == EXIT_INPUT
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["table", "--grid", "nan"],
        ["table", "--grid", "pi/2", "--theta3", "1e400"],
        ["incompat", "--angles", "inf", "pi/2", "pi/2"],
        ["incompat", "--angles", "pi/2", "9" * 400 + "*pi", "pi/2"],
    ],
    ids=["table-grid-nan", "table-theta3-1e400", "incompat-inf", "incompat-huge-k"],
)
def test_non_finite_angle_is_input_error(argv, capsys):
    assert main(argv) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: angle") and err.rstrip().endswith("is not finite")


@pytest.mark.parametrize("command", ["incompat", "verify"])
def test_directions_past_the_cube_overflow_are_input_error(command, tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"directions": [[1e52 if i == j else 0.0 for j in range(3)] for i in range(3)]}))
    assert main([command, "--dirs", str(path)]) == EXIT_INPUT
    assert capsys.readouterr().err.startswith("error: tr A^3 overflows")


@pytest.mark.parametrize("command", ["incompat", "verify"])
def test_integer_too_large_for_a_float_is_input_error(command, tmp_path, capsys):
    # json reads a 401-digit integer as an int, which float() cannot convert
    path = tmp_path / "bigint.json"
    path.write_text('{"directions": [[1' + "0" * 400 + ', 0, 0]]}')
    assert main([command, "--dirs", str(path)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: malformed direction entry:") and "too large" in err


def test_table_default_grid(capsys):
    assert main(["table", "--csv"]) == EXIT_OK
    captured = capsys.readouterr()
    rows = [line.split(",") for line in captured.out.strip().splitlines()]
    assert len(rows) == 6  # header + 5 rows
    body = [row[1:] for row in rows[1:]]
    # symmetry in (theta1, theta2), shared cells computed identically
    for i in range(5):
        for j in range(5):
            assert body[i][j] == body[j][i]
    # the three unrealizable cells are rendered n/a and footnoted on stderr
    assert {(i, j) for i in range(5) for j in range(5) if body[i][j] == "n/a"} == {
        (0, 0), (0, 4), (4, 0)
    }
    footnotes = [line for line in captured.err.splitlines() if line.startswith("n/a ")]
    assert len(footnotes) == 3
    assert all("Gram eigenvalue" in line for line in footnotes)
    # realizable diagonal cell: all pairwise angles pi/3
    assert body[2][2] == "1.00000"


def test_table_single_cell(capsys):
    assert main(["table", "--grid", "pi/2", "--theta3", "pi/2"]) == EXIT_OK
    assert "2.00000" in capsys.readouterr().out


def test_table_bad_angle(capsys):
    assert main(["table", "--grid", "bogus"]) == EXIT_INPUT


def test_verify_pass(example4_file, capsys):
    code = main(
        ["verify", "--dirs", example4_file, "--json"]
    )
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["pass"] is True
    assert payload["closed_form"] == pytest.approx(0.94955, abs=1e-4)
    assert payload["delta_jacobi"] <= 1e-9
    assert payload["delta_oracle"] <= 1e-5


def test_verify_fail_exit_code(example4_file, capsys, monkeypatch):
    # force a disagreement to exercise the failure exit code
    from spinbounds import oracle

    monkeypatch.setattr(
        oracle,
        "sphere_grid_min",
        lambda dirs: oracle.OracleResult(0.0, (0.0, 0.0, 1.0), 20_000),
    )
    assert main(["verify", "--dirs", example4_file]) == EXIT_VERIFY_FAIL
    assert "FAIL" in capsys.readouterr().out


# Every option string of every subcommand: a new or removed option must edit this on purpose.
OPTIONS = {
    "incompat": {"-h", "--help", "--json", "--dirs", "--angles"},
    "table": {"-h", "--help", "--theta3", "--grid", "--csv"},
    "verify": {"-h", "--help", "--json", "--dirs"},
    "witness": {"-h", "--help", "--state", "--assert-violation", "--json", "--alice", "--bob"},
    "steer": {"-h", "--help", "--state", "--assert-violation", "--json", "--settings"},
}


def test_option_inventory():
    (subcommands,) = (a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    found = {
        name: {s for action in sub._actions for s in action.option_strings}
        for name, sub in subcommands.choices.items()
    }
    assert found == OPTIONS


@pytest.mark.parametrize("flag", ["--grid-points", "--samples", "--seed"])
def test_verify_search_flags_are_usage_errors(example4_file, capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--dirs", example4_file, flag, "1"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err


def test_verify_bad_input(capsys):
    assert main(["verify", "--dirs", "/nonexistent.json"]) == EXIT_INPUT


def test_verify_scales_its_tolerances_with_direction_length(tmp_path, capsys, monkeypatch):
    # values ~5e6: an absolute 1e-9 on the Jacobi delta once failed this correct result
    np = pytest.importorskip("numpy", exc_type=ImportError)
    path = tmp_path / "long.json"
    path.write_text(json.dumps({"directions": (1e3 * np.random.default_rng(11).normal(size=(6, 3))).tolist()}))
    assert main(["verify", "--dirs", str(path), "--json"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["pass"] is True
    exact = cli.incompatibility
    monkeypatch.setattr(cli, "incompatibility", lambda d: exact(d)._replace(value=exact(d).value * (1.0 + 1e-6)))
    assert main(["verify", "--dirs", str(path), "--json"]) == EXIT_VERIFY_FAIL
    assert json.loads(capsys.readouterr().out)["pass"] is False


def test_witness_singlet(xyz_file, capsys):
    code = main(
        ["witness", "--state", "singlet", "--alice", xyz_file, "--bob", xyz_file,
         "--json"]
    )
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["violated"] is True
    assert payload["margin"] == pytest.approx(4.0, abs=1e-10)


def test_witness_werner(xyz_file, capsys):
    code = main(
        ["witness", "--state", "werner:0.5", "--alice", xyz_file, "--bob", xyz_file,
         "--json"]
    )
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["violated"] is True
    assert payload["margin"] == pytest.approx(1.0, abs=1e-10)


def test_witness_product_not_violated_assertion(xyz_file, capsys):
    args = [
        "witness", "--state", "product:0,0,1:0,0,1",
        "--alice", xyz_file, "--bob", xyz_file,
    ]
    assert main(args) == EXIT_OK
    assert main(args + ["--assert-violation"]) == EXIT_ASSERTION


def test_witness_state_file(tmp_path, xyz_file, capsys):
    rho = [[0.25, 0, 0, 0], [0, 0.25, 0, 0], [0, 0, 0.25, 0], [0, 0, 0, 0.25]]
    zeros = [[0.0] * 4 for _ in range(4)]
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps({"dim": 4, "re": rho, "im": zeros}))
    code = main(["witness", "--state", str(path), "--alice", xyz_file,
                 "--bob", xyz_file, "--json"])
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["variance_sum"] == pytest.approx(6.0, abs=1e-10)
    assert payload["violated"] is False


def test_witness_invalid_state_file(tmp_path, xyz_file, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dim": 4, "re": [[1.0] * 4] * 4, "im": [[0.0] * 4] * 4}))
    assert main(["witness", "--state", str(path), "--alice", xyz_file,
                 "--bob", xyz_file]) == EXIT_INPUT


MIXED = [[0.25 * (i == j) for j in range(4)] for i in range(4)]
ZEROS = [[0.0] * 4 for _ in range(4)]


@pytest.mark.parametrize(
    "state",
    [
        {"dim": 4, "re": [row[: 4 - (i == 2)] for i, row in enumerate(MIXED)], "im": ZEROS},
        {"dim": 4, "re": MIXED, "im": [row[:3] for row in ZEROS]},
        {"dim": 4, "re": MIXED[:3], "im": ZEROS[:3]},
        {"dim": 4, "re": MIXED, "im": ZEROS[:3]},
        {"dim": 4, "re": [["x"] * 4] + MIXED[1:], "im": ZEROS},
        {"dim": 4, "re": MIXED, "im": [[None] * 4] + ZEROS[1:]},
        {"dim": 4, "re": [[[0.25]] * 4] + MIXED[1:], "im": ZEROS},
        {"dim": 4, "re": None, "im": ZEROS},
        {"dim": 4, "re": MIXED, "im": None},
        {"dim": 4, "re": MIXED},
    ],
    ids=["ragged-re", "ragged-im", "3x4", "im-3x4", "string-entry", "null-entry", "list-entry",
         "null-re", "null-im", "missing-im"],
)
@pytest.mark.parametrize("command", ["witness", "steer"])
def test_malformed_state_file_is_input_error(command, state, tmp_path, xyz_file, settings_file, capsys):
    path = tmp_path / "state.json"
    path.write_text(json.dumps(state))
    tail = ["--alice", xyz_file, "--bob", xyz_file] if command == "witness" else ["--settings", settings_file]
    assert main([command, "--state", str(path), *tail]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: invalid state:") and "Traceback" not in err


def test_steer_fixtures(settings_file, capsys):
    code = main(["steer", "--state", "singlet", "--settings", settings_file, "--json"])
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["total"] == pytest.approx(0.0, abs=1e-12)
    assert payload["bound"] == pytest.approx(2.0, abs=1e-12)
    assert payload["violated"] is True

    code = main(["steer", "--state", "werner:0.8", "--settings", settings_file,
                 "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == EXIT_OK
    assert payload["total"] == pytest.approx(1.08, abs=1e-10)
    assert payload["violated"] is True

    code = main(["steer", "--state", "werner:0.5", "--settings", settings_file,
                 "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert payload["total"] == pytest.approx(2.25, abs=1e-10)
    assert payload["violated"] is False


def test_steer_assertion_flag(settings_file):
    args = ["steer", "--state", "werner:0.5", "--settings", settings_file]
    assert main(args) == EXIT_OK
    assert main(args + ["--assert-violation"]) == EXIT_ASSERTION


def test_steer_bad_settings(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"settings": []}))
    assert main(["steer", "--state", "singlet", "--settings", str(path)]) == EXIT_INPUT


NESTED = "[" * 100000 + "]" * 100000  # past the parser's recursion limit


@pytest.mark.parametrize("content", ["[[1, 0, 0]]", "3", "null", pytest.param(NESTED, id="nested")])
@pytest.mark.parametrize(
    "argv",
    [
        ["incompat", "--dirs", "BAD"],
        ["verify", "--dirs", "BAD"],
        ["witness", "--state", "BAD", "--alice", "XYZ", "--bob", "XYZ"],
        ["witness", "--state", "singlet", "--alice", "BAD", "--bob", "XYZ"],
        ["witness", "--state", "singlet", "--alice", "XYZ", "--bob", "BAD"],
        ["steer", "--state", "BAD", "--settings", "SETTINGS"],
        ["steer", "--state", "singlet", "--settings", "BAD"],
    ],
    ids=["incompat-dirs", "verify-dirs", "witness-state", "witness-alice",
         "witness-bob", "steer-state", "steer-settings"],
)
def test_json_file_without_top_level_object_is_input_error(
    argv, content, tmp_path, xyz_file, settings_file, capsys
):
    bad = tmp_path / "bad.json"
    bad.write_text(content)
    paths = {"BAD": str(bad), "XYZ": xyz_file, "SETTINGS": settings_file}
    assert main([paths.get(a, a) for a in argv]) == EXIT_INPUT
    assert capsys.readouterr().err.startswith("error: cannot read" if content == NESTED else "error:")


def test_subprocess_end_to_end(xyz_file):
    # the child imports the package under test, whether or not it is installed
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}
    proc = subprocess.run(
        [sys.executable, "-m", "spinbounds", "incompat", "--dirs", xyz_file,
         "--json"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == EXIT_OK
    assert json.loads(proc.stdout)["value"] == pytest.approx(2.0, abs=1e-12)

    proc = subprocess.run(
        [sys.executable, "-m", "spinbounds", "incompat", "--dirs", "/missing.json"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == EXIT_INPUT
    assert proc.stderr.strip()


# The full stdout, stderr and exit code of every subcommand in each output
# mode and of the main error paths. Run from a directory holding the fixture
# files, so the paths in messages are fixed. The fixtures are small and
# symmetric, so every printed value is exact or within a few ulps of exact.
GOLDEN = {
    "incompat --dirs xyz.json": (
        0,
        """\
incompatibility: 2.00000
lambda_max:      1.00000
alpha:           0.00000
beta:            0.00000
optimizer bloch: (0.000000, 0.000000, 1.000000)
""",
        "",
    ),
    "incompat --dirs xyz.json --json": (
        0,
        """\
{"value": 2.0, "lambda_max": 1.0, "optimizer": [0.0, 0.0, 1.0], "alpha": 0.0, "beta": 0.0, "traces": [3.0, 3.0, 3.0]}
""",
        "",
    ),
    "incompat --angles pi/3 pi/3 pi/3": (
        0,
        """\
incompatibility: 1.00000
lambda_max:      2.00000
alpha:           0.50000
beta:            0.12500
optimizer bloch: (0.816497, 0.471405, 0.333333)
""",
        "",
    ),
    "incompat --angles 0 0 0 --json": (
        0,
        """\
{"value": 0.0, "lambda_max": 3.0, "optimizer": [1.0, 0.0, 0.0], "alpha": 1.0, "beta": 1.0, "traces": [3.0, 9.0, 27.0]}
""",
        "",
    ),
    "verify --dirs xyz.json": (
        0,
        """\
closed form: 2.0000000000
jacobi:      2.0000000000  (delta 0.000e+00)
oracle:      2.0000000000  (delta 4.441e-16)
mixed floor: 2.0004258550
PASS
""",
        "",
    ),
    "verify --dirs xyz.json --json": (
        0,
        """\
{"closed_form": 2.0, "jacobi": 2.0, "oracle": 1.9999999999999996, "delta_jacobi": 0.0, "delta_oracle": 4.440892098500626e-16, "mixed_floor": 2.000425854953523, "pass": true}
""",
        "",
    ),
    "witness --state singlet --alice xyz.json --bob xyz.json": (
        0,
        """\
variance sum: 0.0000000000
bound:        4.0000000000
margin:       4.0000000000
ENTANGLED (bound violated)
""",
        "",
    ),
    "witness --state werner:0.5 --alice xyz.json --bob xyz.json --json": (
        0,
        """\
{"variance_sum": 3.000000000000001, "bound": 4.0, "margin": 0.9999999999999991, "violated": true}
""",
        "",
    ),
    "witness --state product:0,0,1:0,0,1 --alice xyz.json --bob xyz.json --assert-violation": (
        4,
        """\
variance sum: 4.0000000000
bound:        4.0000000000
margin:       0.0000000000
no violation
""",
        "",
    ),
    "steer --state singlet --settings settings.json": (
        0,
        """\
setting 0: inference variance 0.0000000000
setting 1: inference variance 0.0000000000
setting 2: inference variance 0.0000000000
total: 0.0000000000
bound: 2.0000000000
STEERING (bound violated)
""",
        "",
    ),
    "steer --state werner:0.5 --settings settings.json --json --assert-violation": (
        4,
        """\
{"inference_variances": [0.7500000000000001, 0.7500000000000001, 0.7500000000000001], "total": 2.2500000000000004, "bound": 2.0, "margin": -0.25000000000000044, "violated": false}
""",
        "",
    ),
    "table": (
        0,
        """\
                 pi/9   2*pi/9     pi/3   4*pi/9   5*pi/9
pi/9              n/a  0.51519  0.68118  0.85721      n/a
2*pi/9        0.51519  0.63818  0.81280  1.00000  1.15798
pi/3          0.68118  0.81280  1.00000  1.20076  1.37441
4*pi/9        0.85721  1.00000  1.20076  1.39956  1.50000
5*pi/9            n/a  1.15798  1.37441  1.50000  1.39956
""",
        """\
n/a (pi/9, pi/9): angle triple is not realizable by unit vectors: Gram eigenvalue -0.102237 < 0
n/a (5*pi/9, pi/9): angle triple is not realizable by unit vectors: Gram eigenvalue -0.142788 < 0
n/a (pi/9, 5*pi/9): angle triple is not realizable by unit vectors: Gram eigenvalue -0.142788 < 0
""",
    ),
    "table --csv": (
        0,
        """\
theta2\\theta1,pi/9,2*pi/9,pi/3,4*pi/9,5*pi/9
pi/9,n/a,0.51519,0.68118,0.85721,n/a
2*pi/9,0.51519,0.63818,0.81280,1.00000,1.15798
pi/3,0.68118,0.81280,1.00000,1.20076,1.37441
4*pi/9,0.85721,1.00000,1.20076,1.39956,1.50000
5*pi/9,n/a,1.15798,1.37441,1.50000,1.39956
""",
        """\
n/a (pi/9, pi/9): angle triple is not realizable by unit vectors: Gram eigenvalue -0.102237 < 0
n/a (5*pi/9, pi/9): angle triple is not realizable by unit vectors: Gram eigenvalue -0.142788 < 0
n/a (pi/9, 5*pi/9): angle triple is not realizable by unit vectors: Gram eigenvalue -0.142788 < 0
""",
    ),
    "incompat": (
        1,
        "",
        """\
error: provide exactly one of --dirs or --angles
""",
    ),
    "incompat --dirs list.json": (
        1,
        "",
        """\
error: list.json: expected a JSON object, got list
""",
    ),
    "incompat --angles pi/9 pi/9 pi/3": (
        1,
        "",
        """\
error: angle triple is not realizable by unit vectors: Gram eigenvalue -0.102237 < 0
""",
    ),
}


@pytest.mark.parametrize("command", list(GOLDEN))
def test_golden_cli_output(command, xyz_file, settings_file, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "list.json").write_text("[1, 0, 0]")
    code, out, err = GOLDEN[command]
    assert main(command.split()) == code
    assert capsys.readouterr() == (out, err)
