"""Source hygiene that needs no linter: every module of the package and of
the tests uses each name it imports (`__init__.py`, which re-exports, and
`from __future__` imports are exempt); a private name is imported only from
the module that defines it; no module imports numpy outside `if TYPE_CHECKING:`;
every CLI subcommand and public library call runs with numpy blocked;
importing the package loads only `incompat`, and importing the CLI leaves
the oracle and the checkers unloaded; the package serves every public
name; no two test modules define the same helper or constant; and the
numpy-free CI job and README's numpy-free command list exactly the test
modules that import no numpy at module level."""

import ast
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "spinbounds"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TESTS = Path(__file__).resolve().parent


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


def borrowed_private_names(path: Path) -> list[str]:
    """`from .module import _name` in `path` where `module` does not itself
    define `_name` (by def, class or assignment at its top level)."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            owner = ast.parse((PACKAGE / f"{node.module}.py").read_text()).body
            defined = {s.name for s in owner if isinstance(s, (ast.FunctionDef, ast.ClassDef))} | {
                t.id for s in owner if isinstance(s, (ast.Assign, ast.AnnAssign))
                for t in (s.targets if isinstance(s, ast.Assign) else [s.target]) if isinstance(t, ast.Name)
            }
            found += [f"line {node.lineno}: {a.name} from {node.module}" for a in node.names
                      if a.name.startswith("_") and a.name not in defined]
    return found


@pytest.mark.parametrize("path", [*MODULES, PACKAGE / "__init__.py"], ids=lambda p: p.name)
def test_private_names_are_imported_from_their_owner(path):
    assert borrowed_private_names(path) == []


def test_unused_imports_detector():
    source = (
        "from __future__ import annotations\n"
        "import os.path\nimport numpy as np\nfrom math import cos, sin\n"
        "def f(x: np.ndarray):\n    return cos(x)\n"
    )
    assert unused_imports(source) == ["line 2: os", "line 4: sin"]


@pytest.mark.parametrize("path", [*MODULES, *sorted(TESTS.glob("*.py"))], ids=lambda p: p.name)
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


# --- the numpy-free lists name every test module that collects without numpy, and no other

REPO = TESTS.parent


def imports_numpy_at_module_level(source: str) -> bool:
    """True when an import statement at the top level of `source` imports numpy; an
    import inside a function, a `try:` or an `if TYPE_CHECKING:` block leaves collection without it."""
    top = ast.parse(source).body
    return any(numpy_imports(ast.unparse(stmt)) for stmt in top if isinstance(stmt, (ast.Import, ast.ImportFrom)))


def test_module_level_numpy_imports_detector():
    imports_numpy = ["import numpy as np\n", "import os, numpy.linalg\n", "from numpy import eye\n"]
    numpy_free = [
        "import numpyro\nfrom numpy_financial import npv\n",
        "try:\n    import numpy as np\nexcept ImportError:\n    np = None\n",
        "def f():\n    import numpy\n",
        "from typing import TYPE_CHECKING\nif TYPE_CHECKING:\n    import numpy\n",
    ]
    assert [imports_numpy_at_module_level(s) for s in imports_numpy + numpy_free] == [True] * 3 + [False] * 4


def test_numpy_free_lists_name_every_module_that_collects_without_numpy():
    modules = sorted(TESTS.glob("test_*.py"))
    free = [f"tests/{p.name}" for p in modules if not imports_numpy_at_module_level(p.read_text())]
    workflow = (REPO / ".github" / "workflows" / "tests.yml").read_text()
    job = re.search(r"^  numpy-free:\n(.*?)(?=^  \S|\Z)", workflow, re.M | re.S).group(1)
    readme = (REPO / "README.md").read_text()
    command = re.search(r"collect without numpy.*?```sh\n(.*?)```", readme, re.S).group(1)
    for listed in (job, command):
        names = re.findall(r"tests/test_\w+\.py", listed)
        assert sorted(names) == free and len(set(names)) == len(names)


# --- the tests keep one copy of each helper and constant they share, in support.py


def definitions(source: str):
    """(code, name) for each top-level function and UPPER_CASE constant in
    `source`: a function's code leaves out its name and docstring."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef):
            if ast.get_docstring(node) is not None:
                node.body = node.body[1:]
            name, node.name = node.name, ""
            yield ast.dump(node), name
        elif isinstance(node, ast.Assign) and len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
            if node.targets[0].id.isupper():
                yield ast.dump(node.value), node.targets[0].id


def shared_definitions(sources: dict[str, str]) -> list[str]:
    """Definitions with the same code in two or more of `sources` (module -> source)."""
    owners = {}
    for module, source in sources.items():
        for code, name in definitions(source):
            owners.setdefault(code, {}).setdefault(module, name)
    return sorted(" = ".join(f"{m}.{n}" for m, n in sorted(found.items())) for found in owners.values() if len(found) > 1)


def test_shared_definitions_detector():
    sources = {
        "a": 'XYZ = [1, 2]\nTOL = 1e-9\ndef dot(p, q):\n    """Docstring."""\n    return p[0] * q[0]\n',
        "b": "XYZ = [1, 2]\ntol = 1e-9\ndef _dot(p, q):\n    return p[0] * q[0]\ndef f(u, v):\n    return u[0] * v[0]\n",
        "c": "TOL = 1e-8\nTWICE = [1, 2]\nTWICE = [1, 2]\n",
    }
    assert shared_definitions(sources) == ["a.XYZ = b.XYZ = c.TWICE", "a.dot = b._dot"]


def test_no_two_test_modules_define_the_same_helper_or_constant():
    assert shared_definitions({p.stem: p.read_text() for p in sorted(TESTS.glob("*.py"))}) == []


# --- the CLI and the library run with numpy blocked; the CLI loads the oracle only for verify;
# --- the package serves every name

SRC = PACKAGE.parent
EXPORTS = {
    "criteria": ("SteeringReport", "WitnessReport", "entanglement_witness", "steering_test"),
    "incompat": (
        "IncompatibilityResult", "directions_from_angles", "incompatibility", "incompatibility_from_angles",
        "incompatibility_pair", "moment_matrix", "sym3_spectrum", "sym3_traces",
    ),
    "linalg3": ("hermitian_psd_check", "sym3_eigen_jacobi"),
    "oracle": ("CubicCoefficients", "OracleResult", "cubic_coefficients_unit", "sphere_grid_min"),
    "states": ("TwoQubitState", "product_state", "singlet", "werner"),
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
    """Run `code` in a child interpreter with numpy blocked, the package and the
    tests' `support` on its path; its last line of output."""
    proc = subprocess.run(
        [sys.executable, "-c", BLOCK_NUMPY + code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join((str(SRC), str(TESTS)))},
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
        "    cli, directions_from_angles, incompatibility, incompatibility_from_angles,\n"
        "    incompatibility_pair, moment_matrix, sphere_grid_min, sym3_eigen_jacobi)\n"
        "from support import variance_sum\n"
        f"codes = [cli.main(argv) for argv in {argvs!r}]\n"
        "dirs = [(1, 0, 0), (0.5, 0.5, 0.5), (0, 0, 2)]\n"
        "res = incompatibility(dirs)\n"
        "checks = [\n"
        "    abs(variance_sum(dirs, res.optimizer) - res.value) < 1e-9,\n"
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
        "    TwoQubitState, cli, entanglement_witness, product_state, singlet, steering_test, werner)\n"
        f"codes = [cli.main(argv) for argv in {argvs!r}]\n"
        "xyz = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]\n"
        "phi_plus = TwoQubitState([[0.5, 0, 0, 0.5], [0, 0, 0, 0], [0, 0, 0, 0], [0.5, 0, 0, 0.5]])\n"
        "checks = [\n"
        "    entanglement_witness(singlet(), xyz, xyz).violated,\n"
        "    not entanglement_witness(product_state((0, 0, 1), (0.6, 0, 0.8)), xyz, xyz).violated,\n"
        "    steering_test(werner(0.9), [(d, d) for d in xyz]).violated,\n"
        "    abs(steering_test(phi_plus, [((0, 0, 1), (0, 0, 1))]).inference_variances[0]) < 1e-12,\n"
        "]\n"
        "print('RESULT', codes, checks, 'numpy' in sys.modules)\n"
    )
    assert run_without_numpy(child) == f"RESULT {[0] * len(argvs)} {[True] * 4} False"


def test_cli_import_leaves_the_oracle_unloaded():
    # only verify searches the sphere; the other subcommands need not compile the oracle
    assert run_without_numpy("import spinbounds.cli\nprint('RESULT', 'spinbounds.oracle' in sys.modules)\n") == "RESULT False"


def test_import_compiles_only_the_bound_and_the_checkers_load_on_first_use():
    # a fresh interpreter without bytecode compiles every module it imports; the bound needs only incompat
    child = (
        "import spinbounds\n"
        "loaded = sorted(name for name in sys.modules if name.partition('.')[0] == 'spinbounds')\n"
        "import spinbounds.cli\n"
        "checkers = 'spinbounds.linalg3' in sys.modules\n"
        "names = (spinbounds.sym3_eigen_jacobi, spinbounds.hermitian_psd_check, spinbounds.cubic_coefficients_unit)\n"
        "print('RESULT', loaded, checkers, [f.__module__ for f in names])\n"
    )
    assert run_without_numpy(child) == (
        "RESULT ['spinbounds', 'spinbounds.incompat'] False ['spinbounds.linalg3', 'spinbounds.linalg3', 'spinbounds.oracle']"
    )


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
