"""State-independent variance bounds for qubit spin observables, with
entanglement-witness and EPR-steering criteria built on top.

Only `incompat`, the bound and its closed-form kernel, loads with the
package. `linalg3` (the Jacobi reference and the density-matrix check),
`states`, `criteria` and `oracle` load on first access (PEP 562): the bound
needs none of them, and compiling them would slow every import that
compiles from source. No module imports numpy.
"""

from importlib import import_module

from .incompat import (
    IncompatibilityResult,
    directions_from_angles,
    incompatibility,
    incompatibility_from_angles,
    incompatibility_pair,
    moment_matrix,
    sym3_spectrum,
    sym3_traces,
)

__version__ = "0.1.0"

# name -> the lazily loaded module that defines it; None marks the modules themselves
_LAZY = dict.fromkeys(("criteria", "linalg3", "oracle", "states"))
_LAZY.update(dict.fromkeys(("hermitian_psd_check", "sym3_eigen_jacobi"), "linalg3"))
_LAZY.update(dict.fromkeys(("CubicCoefficients", "OracleResult", "cubic_coefficients_unit", "sphere_grid_min"), "oracle"))
_LAZY.update(dict.fromkeys(
    ("SteeringReport", "WitnessReport", "entanglement_witness", "steering_test"), "criteria"))
_LAZY.update(dict.fromkeys(("TwoQubitState", "product_state", "singlet", "werner"), "states"))


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f".{_LAZY[name] or name}", __name__)
    if _LAZY[name] is None:
        return module  # importing a submodule binds it here
    value = globals()[name] = getattr(module, name)  # later lookups skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
