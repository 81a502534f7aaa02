import argparse
import contextlib
import inspect
import io
import json
import math
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinbounds import cli
from spinbounds.cli import (
    EXIT_ASSERTION,
    EXIT_INPUT,
    EXIT_OK,
    EXIT_VERIFY_FAIL,
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
    with pytest.raises(ValueError):
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


@pytest.mark.parametrize("command", ["witness", "steer"])
def test_criteria_certificate_failure_exits_3_without_traceback(command, xyz_file, settings_file, capsys, monkeypatch):
    from spinbounds import incompat

    kernel = incompat.sym3_spectrum  # lambda_max off by 1e-8 tr A, as in test_incompat.py
    monkeypatch.setattr(incompat, "sym3_spectrum",
                        lambda a: kernel(a)._replace(lam_max=kernel(a).lam_max + 1e-8 * (a[0][0] + a[1][1] + a[2][2])))
    tail = ["--alice", xyz_file, "--bob", xyz_file] if command == "witness" else ["--settings", settings_file]
    assert main([command, "--state", "werner:0.8", *tail]) == EXIT_VERIFY_FAIL
    out, err = capsys.readouterr()
    assert not out and err.startswith("error: closed-form eigenvalue") and "Traceback" not in err


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


@pytest.mark.parametrize("grid", ["bogus", pytest.param("", id="empty")])
def test_table_bad_angle(grid, capsys):
    # an empty --grid is one empty angle, as `--grid ,` is two; it is not the default grid
    assert main(["table", "--grid", grid]) == EXIT_INPUT
    assert capsys.readouterr().err.startswith(f"error: malformed angle {grid!r}")


def test_verify_pass(example4_file, capsys):
    code = main(
        ["verify", "--dirs", example4_file, "--json"]
    )
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["pass"] is True
    assert payload["closed_form"] == pytest.approx(0.94955, abs=1e-4)
    assert payload["delta_jacobi"] <= 1e-9
    assert payload["delta_oracle"] <= 1e-9


def test_verify_is_sharp_when_the_top_pair_is_near_degenerate(tmp_path, capsys):
    # lambda_1 - lambda_2 << lambda_1 - lambda_3: a flat valley that a 2-D descent
    # on the sphere crawls along for seconds and leaves ~1e-9 short of the minimum
    dirs = [
        [0.25031883843264824, 0.027745486077215817, -0.9677658121302224],
        [0.627997993577512, -0.7654275172861602, 0.14049118915153436],
        [0.22105713751842912, 0.19287691482064162, 0.06270755681279001],
    ]
    path = tmp_path / "flat.json"
    path.write_text(json.dumps({"directions": dirs}))
    assert main(["verify", "--dirs", str(path), "--json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["pass"] is True
    assert payload["delta_oracle"] <= 1e-12


@pytest.mark.parametrize("a", [0.32, 0.37])
def test_verify_is_sharp_when_the_middle_eigenvector_is_at_the_pole(a, tmp_path, capsys):
    # lambda_2 at e_z, 1e-4 below lambda_1 at azimuth a: about e_z the best-circle value
    # is flat at the pole's except in a basin +-0.014 rad wide, which no azimuth k pi/20,
    # k pi/32 or k pi/64 meets for a = 0.37
    dirs = [[math.cos(a), math.sin(a), 0.0], [-0.7 * math.sin(a), 0.7 * math.cos(a), 0.0], [0.0, 0.0, 0.99995]]
    path = tmp_path / "pole.json"
    path.write_text(json.dumps({"directions": dirs}))
    assert main(["verify", "--dirs", str(path), "--json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["pass"] is True
    assert payload["delta_oracle"] <= 1e-12


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


@pytest.mark.parametrize("shift", [-1e-8, 1e-8], ids=["down", "up"])
@pytest.mark.parametrize("dirs_file", ["xyz_file", "example4_file"])
def test_verify_fails_a_closed_form_moved_either_way_at_unit_scale(dirs_file, shift, request, capsys, monkeypatch):
    # the Jacobi and oracle checks alone catch a value 1e-8 tr A below the true minimum as well as above it
    path = request.getfixturevalue(dirs_file)
    exact = cli.incompatibility
    monkeypatch.setattr(cli, "incompatibility", lambda d: (r := exact(d))._replace(value=r.value + shift * r.traces[0]))
    assert main(["verify", "--dirs", path, "--json"]) == EXIT_VERIFY_FAIL
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


def test_a_pair_whose_difference_overflows_is_not_hermitian(tmp_path, xyz_file, capsys):
    # abs() of the pair's difference overflowed: the error read "invalid state: absolute value too large"
    re, im = [row[:] for row in MIXED], [row[:] for row in ZEROS]
    re[0][1] = im[0][1] = 1.5e308
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps({"dim": 4, "re": re, "im": im}))
    assert main(["witness", "--state", str(path), "--alice", xyz_file, "--bob", xyz_file]) == EXIT_INPUT
    out, err = capsys.readouterr()
    assert not out and err == f"error: {path}: invalid state: density matrix is not Hermitian\n"


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


BAD_BUILTIN_STATES = {  # spec -> the start of its error message
    **{f"werner:{p}": "bad werner parameter in" for p in ("abc", "", "1.5", "nan", "1e400")},
    **{f"product:{s}": "product state spec is product:ax,ay,az:bx,by,bz" for s in ("0,0,1", "0,0,1:0,0,1:")},
    **{f"product:{s}:0,0,1": "bad product state spec" for s in ("a,0,0", "0,0", "2,0,0", "nan,0,0")},
}


@pytest.mark.parametrize("spec", BAD_BUILTIN_STATES)
@pytest.mark.parametrize("command", ["witness", "steer"])
def test_malformed_builtin_state_is_input_error(command, spec, xyz_file, settings_file, capsys):
    tail = ["--alice", xyz_file, "--bob", xyz_file] if command == "witness" else ["--settings", settings_file]
    assert main([command, "--state", spec, *tail]) == EXIT_INPUT
    out, err = capsys.readouterr()
    assert not out and err.startswith(f"error: {BAD_BUILTIN_STATES[spec]}") and "Traceback" not in err


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


TEXT_FILES = {  # each string was read as a vector of its characters, and the run exited 0
    "dirs": {"directions": ["100", "010", "001"]},
    "settings": {"settings": [{"alice": "100", "bob": "100"}]},
    "state": {"dim": 4, "re": ["1000", "0000", "0000", "0000"], "im": ["0000"] * 4},  # |00><00|
}


@pytest.mark.parametrize(
    "argv",
    [
        ["incompat", "--dirs", "dirs"],
        ["witness", "--state", "singlet", "--alice", "dirs", "--bob", "XYZ"],
        ["witness", "--state", "singlet", "--alice", "XYZ", "--bob", "dirs"],
        ["steer", "--state", "singlet", "--settings", "settings"],
        ["steer", "--state", "state", "--settings", "SETTINGS"],
    ],
    ids=["dirs", "alice", "bob", "settings", "state"],
)
def test_text_where_numbers_belong_is_input_error(argv, tmp_path, xyz_file, settings_file, capsys):
    paths = {"XYZ": xyz_file, "SETTINGS": settings_file}
    for name, content in TEXT_FILES.items():
        paths[name] = str(tmp_path / f"{name}.json")
        (tmp_path / f"{name}.json").write_text(json.dumps(content))
    assert main([paths.get(a, a) for a in argv]) == EXIT_INPUT
    err = capsys.readouterr().err
    bad = next(paths[a] for a in argv if a in TEXT_FILES)
    assert err.startswith(f"error: {bad}: ") and "is not a sequence of numbers" in err and "Traceback" not in err


NON_NUMBERS = {  # (a unit x, a first row of I/4 as {"re"|"im": row}, the message's end); float() read each one
    "string": (["1", 0, 0], {"re": ["0.25", 0, 0, 0]}, "is a string, not a JSON number"),
    "boolean": ([True, 0, 0], {"im": [False, 0, 0, 0]}, "is a boolean, not a JSON number"),
    "object": ({"1": 0, "0": 0, "-0": 0}, {"re": {"0.25": 0, "0": 0, "-0": 0, "0.0": 0}}, "an object is not a sequence of numbers"),
}


@pytest.mark.parametrize("kind", NON_NUMBERS)
@pytest.mark.parametrize(
    "argv",
    [
        ["incompat", "--dirs", "dirs"],
        ["witness", "--state", "singlet", "--alice", "dirs", "--bob", "XYZ"],
        ["witness", "--state", "singlet", "--alice", "XYZ", "--bob", "dirs"],
        ["steer", "--state", "singlet", "--settings", "settings"],
        ["steer", "--state", "state", "--settings", "SETTINGS"],
    ],
    ids=["dirs", "alice", "bob", "settings", "state"],
)
def test_a_component_that_is_not_a_json_number_is_input_error(argv, kind, tmp_path, xyz_file, settings_file, capsys):
    vector, first_row, message = NON_NUMBERS[kind]
    contents = {  # each file is valid but for one component, and the run exited 0
        "dirs": {"directions": [vector, [0, 1, 0], [0, 0, 1]]},
        "settings": {"settings": [{"alice": vector, "bob": [1, 0, 0]}, {"alice": [0, 1, 0], "bob": [0, 1, 0]}]},
        "state": {"dim": 4, **{part: [first_row.get(part, row[0]), *row[1:]] for part, row in (("re", MIXED), ("im", ZEROS))}},
    }
    paths = {"XYZ": xyz_file, "SETTINGS": settings_file}
    for name, content in contents.items():
        paths[name] = str(tmp_path / f"{name}.json")
        (tmp_path / f"{name}.json").write_text(json.dumps(content))
    assert main([paths.get(a, a) for a in argv]) == EXIT_INPUT
    err = capsys.readouterr().err
    bad = next(paths[a] for a in argv if a in contents)
    assert err.startswith(f"error: {bad}: ") and err.rstrip().endswith(message)


# Arbitrary JSON for one file flag; the other flags get valid files. The shapes that each loader looks
# for (an object with the right keys, 3-vectors of numbers, I/4 with one entry replaced) come up
# often enough that some runs reach the library and exit 0.
NUMBERS = st.integers(-3, 3) | st.floats(-1e200, 1e200) | st.floats(-1e-200, 1e-200)
SCALARS = (
    NUMBERS | st.none() | st.booleans() | st.floats() | st.text(max_size=3)
    | st.sampled_from([10**20, 10**400, -(10**400), 2**1024])
)
JSON = st.recursive(SCALARS, lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
                    max_leaves=12)
VECTOR = st.sampled_from([[1, 0, 0], [0, 1, 0], [0, 0, -1]]) | st.lists(NUMBERS, min_size=3, max_size=3)
VECTORS = st.lists(VECTOR, min_size=3, max_size=3) | st.lists(VECTOR | st.lists(SCALARS, max_size=5) | JSON, max_size=5) | JSON


def one_entry_replaced(diagonal):
    """A 4x4 list `diagonal` * I with one entry replaced: by 0, 0.25, any scalar or any JSON."""
    return st.builds(lambda i, j, x: [[x if (r, c) == (i, j) else diagonal * (r == c) for c in range(4)] for r in range(4)],
                     st.integers(0, 3), st.integers(0, 3), st.sampled_from([0, 0.25]) | SCALARS | JSON)


FUZZED = {
    "dirs": JSON | st.fixed_dictionaries({"directions": VECTORS}),
    "settings": JSON | st.fixed_dictionaries(
        {"settings": st.lists(st.fixed_dictionaries({"alice": VECTOR, "bob": VECTOR}) | JSON, min_size=1, max_size=3) | JSON}),
    "state": JSON | st.fixed_dictionaries(
        {"dim": st.just(4) | JSON, "re": one_entry_replaced(0.25) | VECTORS, "im": one_entry_replaced(0.0) | VECTORS}),
}
FUZZ_ARGVS = {
    "incompat-dirs": ["incompat", "--dirs", "dirs", "--json"],
    "verify-dirs": ["verify", "--dirs", "dirs"],
    "witness-state": ["witness", "--state", "state", "--alice", "XYZ", "--bob", "XYZ"],
    "witness-alice": ["witness", "--state", "werner:0.8", "--alice", "dirs", "--bob", "XYZ"],
    "witness-bob": ["witness", "--state", "werner:0.8", "--alice", "XYZ", "--bob", "dirs", "--assert-violation"],
    "steer-state": ["steer", "--state", "state", "--settings", "SETTINGS", "--json"],
    "steer-settings": ["steer", "--state", "werner:0.8", "--settings", "settings", "--assert-violation"],
}


@pytest.mark.parametrize("argv", FUZZ_ARGVS.values(), ids=FUZZ_ARGVS)
@settings(derandomize=True, max_examples=60, deadline=None)
@given(data=st.data())
def test_any_json_file_exits_with_a_contract_code(argv, data):
    flag = next(a for a in argv if a in FUZZED)
    content = data.draw(FUZZED[flag], label=flag)
    with tempfile.TemporaryDirectory() as tmp:
        paths = {"XYZ": os.path.join(tmp, "xyz.json"), "SETTINGS": os.path.join(tmp, "settings.json"), flag: os.path.join(tmp, "fuzz.json")}
        for path, value in ((paths["XYZ"], {"directions": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}),
                            (paths["SETTINGS"], {"settings": [{"alice": [1, 0, 0], "bob": [1, 0, 0]}]}),
                            (paths[flag], content)):
            with open(path, "w") as fh:
                json.dump(value, fh)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main([paths.get(a, a) for a in argv])
    assert code in (EXIT_OK, EXIT_INPUT, EXIT_VERIFY_FAIL, EXIT_ASSERTION)


def test_witness_and_steer_json_is_the_reports_fields_verdict_last(xyz_file, settings_file, monkeypatch, capsys):
    from spinbounds import criteria

    for argv, test, report in [
        (["witness", "--state", "werner:0.8", "--alice", xyz_file, "--bob", xyz_file], "entanglement_witness",
         criteria.WitnessReport),
        (["steer", "--state", "werner:0.8", "--settings", settings_file], "steering_test", criteria.SteeringReport),
    ]:
        assert main([*argv, "--json"]) == EXIT_OK
        fields = list(inspect.signature(report).parameters)
        verdict_last = (*(f for f in fields if f != "violated"), "violated")
        assert tuple(json.loads(capsys.readouterr().out)) == verdict_last

        class Extended(report):  # a field added to the report reaches the JSON with no CLI edit
            def __init__(self, *fields, budget):
                super().__init__(*fields)
                self.budget = budget

        with monkeypatch.context() as m:
            m.setattr(criteria, test, lambda *a, real=getattr(criteria, test): Extended(*vars(real(*a)).values(), budget=0.5))
            assert main([*argv, "--json"]) == EXIT_OK
        assert tuple(json.loads(capsys.readouterr().out)) == (*verdict_last[:-1], "budget", "violated")


def test_incompat_json_is_the_results_fields(xyz_file, monkeypatch, capsys):
    from collections import namedtuple

    from spinbounds.incompat import IncompatibilityResult, incompatibility

    assert main(["incompat", "--dirs", xyz_file, "--json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert tuple(payload) == IncompatibilityResult._fields
    assert payload == json.loads(json.dumps(incompatibility([(1, 0, 0), (0, 1, 0), (0, 0, 1)])._asdict()))

    # a field added to the result reaches the JSON with no CLI edit
    Diagnosed = namedtuple("Diagnosed", (*IncompatibilityResult._fields, "diagnostics"))
    monkeypatch.setattr(cli, "incompatibility", lambda d: Diagnosed(*incompatibility(d), {"branch": "isotropic"}))
    assert main(["incompat", "--dirs", xyz_file, "--json"]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert tuple(out) == (*IncompatibilityResult._fields, "diagnostics")
    assert out == {**payload, "diagnostics": {"branch": "isotropic"}}


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
oracle:      2.0000000000  (delta 2.220e-16)
PASS
""",
        "",
    ),
    "verify --dirs xyz.json --json": (
        0,
        """\
{"closed_form": 2.0, "jacobi": 2.0, "oracle": 1.9999999999999998, "delta_jacobi": 0.0, "delta_oracle": 2.220446049250313e-16, "pass": true}
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
