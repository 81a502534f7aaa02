"""Source hygiene that needs no linter: every module of the package uses
each name it imports (`__init__.py`, which re-exports, and `from __future__`
imports are exempt); no module imports numpy outside `if TYPE_CHECKING:`;
every CLI subcommand and public library call runs with numpy blocked;
importing the CLI leaves the oracle unloaded; and the package serves every
public name."""

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


def imports(tree: ast.AST):
    """(node, bound name, imported module) for each name an import
    statement under `tree` binds, `from __future__` imports excepted."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node, alias.asname or alias.name.partition(".")[0], alias.name
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield node, alias.asname or alias.name, node.module or ""


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements in `source` that no expression reads."""
    tree = ast.parse(source)
    imported = {name: node.lineno for node, name, _ in imports(tree)}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"line {line}: {name}" for name, line in imported.items() if name not in used)


def numpy_imports(source: str) -> list[str]:
    """Imports of numpy in `source` outside an `if TYPE_CHECKING:` block."""
    tree = ast.parse(source)
    exempt = {
        id(node) for block in ast.walk(tree)
        if isinstance(block, ast.If) and isinstance(block.test, ast.Name) and block.test.id == "TYPE_CHECKING"
        for stmt in block.body for node in ast.walk(stmt)
    }
    return sorted({
        f"line {node.lineno}: {module}" for node, _, module in imports(tree)
        if id(node) not in exempt and module.partition(".")[0] == "numpy"
    })


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


def test_numpy_imports_detector():
    source = (
        "from typing import TYPE_CHECKING\nif TYPE_CHECKING:\n    import numpy as np\n"
        "def f():\n    import numpy.linalg\n    from numpy import eye\n    import numpyro\n"
    )
    assert numpy_imports(source) == ["line 5: numpy.linalg", "line 6: numpy"]


@pytest.mark.parametrize("path", [*MODULES, PACKAGE / "__init__.py"], ids=lambda p: p.name)
def test_no_numpy_imports(path):
    # catches imports on code paths that the numpy-blocked runs below never reach
    assert numpy_imports(path.read_text()) == []


# --- the CLI and the library run with numpy blocked; the CLI loads the oracle only for verify;
# --- the package serves every name

SRC = PACKAGE.parent
EXPORTS = {
    "criteria": ("SteeringReport", "WitnessReport", "entanglement_witness", "inference_variance_min", "steering_test"),
    "incompat": (
        "CubicCoefficients", "IncompatibilityResult", "cubic_coefficients_unit", "directions_from_angles",
        "incompatibility", "incompatibility_from_angles", "incompatibility_pair", "lambda_max_from_traces",
        "moment_matrix", "optimal_bloch",
    ),
    "linalg3": ("hermitian_psd_check", "sym3_eigen_jacobi", "sym3_spectrum", "sym3_traces"),
    "oracle": ("OracleResult", "fibonacci_sphere", "mixed_sample_floor", "sphere_grid_min"),
    "states": ("QubitState", "TwoQubitState", "product_state", "singlet", "uncertainty_sum", "werner"),
}


# Prepended to each child's code: from then on any import of numpy or of a
# numpy submodule raises, whoever asks for it.
BLOCK_NUMPY = """\
import sys


class BlockNumpy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" or name.startswith("numpy."):
            raise ImportError(f"importing {name} is blocked")


sys.meta_path.insert(0, BlockNumpy())
"""


def run_without_numpy(code: str) -> str:
    """Run `code` in a child interpreter with numpy blocked; its last line of output."""
    proc = subprocess.run(
        [sys.executable, "-c", BLOCK_NUMPY + code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


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
        "from math import pi\n"
        "from spinbounds import (\n"
        "    QubitState, cli, directions_from_angles, incompatibility, incompatibility_from_angles,\n"
        "    incompatibility_pair, moment_matrix, sphere_grid_min, sym3_eigen_jacobi, uncertainty_sum)\n"
        f"codes = [cli.main(argv) for argv in {argvs!r}]\n"
        "dirs = [(1, 0, 0), (0.5, 0.5, 0.5), (0, 0, 2)]\n"
        "res = incompatibility(dirs)\n"
        "checks = [\n"
        "    abs(uncertainty_sum(dirs, QubitState(res.optimizer)) - res.value) < 1e-9,\n"
        "    abs(incompatibility_pair((1, 0, 0), (0, 1, 0)) - 1.0) < 1e-12,\n"
        "    abs(incompatibility_from_angles(pi / 2, pi / 2, pi / 2) - 2.0) < 1e-12,\n"
        "    abs(incompatibility(directions_from_angles(pi / 3, pi / 4, pi / 2)).value\n"
        "        - incompatibility_from_angles(pi / 3, pi / 4, pi / 2)) < 1e-9,\n"
        "    abs(sym3_eigen_jacobi(moment_matrix(dirs)[0])[0][0] - res.lambda_max) < 1e-9,\n"
        "    abs(sphere_grid_min(dirs, 2000).value - res.value) < 1e-9,\n"
        "]\n"
        "print('RESULT', codes, checks, 'numpy' in sys.modules)\n"
    )
    assert run_without_numpy(child) == f"RESULT {[0] * len(argvs)} {[True] * 6} False"


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
        "from spinbounds import (\n"
        "    TwoQubitState, cli, entanglement_witness, inference_variance_min, product_state, singlet,\n"
        "    steering_test, werner)\n"
        f"codes = [cli.main(argv) for argv in {argvs!r}]\n"
        "xyz = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]\n"
        "phi_plus = TwoQubitState([[0.5, 0, 0, 0.5], [0, 0, 0, 0], [0, 0, 0, 0], [0.5, 0, 0, 0.5]])\n"
        "checks = [\n"
        "    entanglement_witness(singlet(), xyz, xyz).violated,\n"
        "    not entanglement_witness(product_state((0, 0, 1), (0.6, 0, 0.8)), xyz, xyz).violated,\n"
        "    steering_test(werner(0.9), [(d, d) for d in xyz]).violated,\n"
        "    abs(inference_variance_min(phi_plus, (0, 0, 1), (0, 0, 1))) < 1e-12,\n"
        "]\n"
        "print('RESULT', codes, checks, 'numpy' in sys.modules)\n"
    )
    assert run_without_numpy(child) == f"RESULT {[0] * len(argvs)} {[True] * 4} False"


def test_cli_import_leaves_the_oracle_unloaded():
    # only verify searches the sphere; the other subcommands need not compile the oracle
    assert run_without_numpy("import spinbounds.cli\nprint('RESULT', 'spinbounds.oracle' in sys.modules)\n") == "RESULT False"


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
