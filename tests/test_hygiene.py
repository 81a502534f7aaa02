"""Source hygiene that needs no linter: every module of the package uses
each name it imports (`__init__.py`, which re-exports, and `from __future__`
imports are exempt); no CLI subcommand imports numpy; and the package
serves every public name."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "spinbounds"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements in `source` that no expression reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"line {line}: {name}" for name, line in imported.items() if name not in used)


def test_unused_imports_detector():
    source = (
        "from __future__ import annotations\n"
        "import os.path\nimport numpy as np\nfrom math import cos, sin\n"
        "def f(x: np.ndarray):\n    return cos(x)\n"
    )
    assert unused_imports(source) == ["line 2: os", "line 4: sin"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


# --- the CLI runs without numpy; the package serves every name

SRC = PACKAGE.parent
EXPORTS = {
    "criteria": (
        "ConditionalBranch", "ConditionalDistribution", "SteeringReport", "WitnessReport",
        "conditional_stats", "entanglement_witness", "inference_variance_min", "steering_test",
    ),
    "incompat": (
        "CubicCoefficients", "IncompatibilityResult", "cubic_coefficients", "cubic_coefficients_unit",
        "directions_from_angles", "incompatibility", "incompatibility_from_angles",
        "incompatibility_pair", "lambda_max_from_traces", "moment_matrix", "optimal_bloch",
    ),
    "linalg3": ("hermitian_psd_check", "pauli_matrices", "sym3_eigen_jacobi", "sym3_spectrum", "sym3_traces"),
    "oracle": ("OracleResult", "fibonacci_sphere", "mixed_sample_floor", "sphere_grid_min"),
    "states": ("QubitState", "TwoQubitState", "product_state", "singlet", "uncertainty_sum", "werner"),
}


def test_incompat_table_and_verify_never_import_numpy(tmp_path):
    dirs = tmp_path / "dirs.json"
    dirs.write_text(json.dumps({"directions": [[1, 0, 0], [0.5, 0.5, 0.5], [0, 0, 2]]}))
    argvs = [
        ["incompat", "--dirs", str(dirs)],
        ["incompat", "--dirs", str(dirs), "--json"],
        ["incompat", "--angles", "pi/3", "pi/4", "pi/2", "--json"],
        ["table", "--csv"],
        ["verify", "--dirs", str(dirs)],
        ["verify", "--dirs", str(dirs), "--json"],
    ]
    child = (
        "import sys\n"
        "from spinbounds import cli\n"
        f"codes = [cli.main(argv) for argv in {argvs!r}]\n"
        "print('RESULT', codes, 'numpy' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", child], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "RESULT [0, 0, 0, 0, 0, 0] False"


def test_witness_and_steer_never_import_numpy(tmp_path):
    xyz = tmp_path / "xyz.json"
    xyz.write_text(json.dumps({"directions": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}))
    settings = tmp_path / "settings.json"
    settings.write_text(json.dumps({"settings": [{"alice": [1, 0, 0], "bob": [0, 0, 1]}, {"alice": [0, 1, 0], "bob": [0, 1, 0]}]}))
    state = tmp_path / "state.json"
    state.write_text(json.dumps({"dim": 4, "re": [[0.5, 0, 0, 0.5], [0, 0, 0, 0], [0, 0, 0, 0], [0.5, 0, 0, 0.5]],
                                 "im": [[0.0] * 4] * 4}))
    argvs = []
    for spec in ("singlet", "werner:0.7", "product:0,0.6,0.8:0.1,-0.2,0.3", str(state)):
        argvs.append(["witness", "--state", spec, "--alice", str(xyz), "--bob", str(xyz)])
        argvs.append(["steer", "--state", spec, "--settings", str(settings), "--json"])
    child = (
        "import sys\n"
        "from spinbounds import cli\n"
        f"codes = [cli.main(argv) for argv in {argvs!r}]\n"
        "print('RESULT', codes, 'numpy' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", child], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == f"RESULT {[0] * len(argvs)} False"


def test_every_exported_name_resolves_to_its_module_object():
    import spinbounds

    names = dir(spinbounds)
    for module_name, exported in EXPORTS.items():
        module = importlib.import_module(f"spinbounds.{module_name}")
        assert getattr(spinbounds, module_name) is module
        assert module_name in names
        for name in exported:
            assert getattr(spinbounds, name) is getattr(module, name), name
            assert name in names
    with pytest.raises(AttributeError, match="no attribute 'not_a_name'"):
        spinbounds.not_a_name  # noqa: B018
