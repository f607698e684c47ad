"""The export lists: every module's ``__all__`` names what it defines, and
the package namespace imports only exported names.

A function deleted from a module but left in its ``__all__``, or imported
into ``photonlab`` without being exported, fails here, and so does a
deleted name that reappears in its module or in the package, or a removed
parameter that reappears in its function's signature.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import photonlab

MODULES = sorted(m.name for m in pkgutil.iter_modules(photonlab.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(f"photonlab.{name}")
    assert module.__all__ and len(set(module.__all__)) == len(module.__all__)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_imports_only_exported_names():
    tree = ast.parse(Path(photonlab.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        assert node.level == 1, ast.unparse(node)
        exported = importlib.import_module(f"photonlab.{node.module}").__all__
        assert [a.name for a in node.names if a.name not in exported] == []


@pytest.mark.parametrize("name", MODULES)
def test_star_import_works(name):
    namespace: dict = {}
    exec(f"from photonlab.{name} import *", namespace)
    module = importlib.import_module(f"photonlab.{name}")
    assert set(module.__all__) <= set(namespace)


# Names deleted from the library, by the module that defined them: each
# must stay gone from that module and from the package namespace.
DELETED = {
    "audit": ["component_mass", "monotonicity_scan", "MonotonicityScan"],
    "conformal": ["conformal_end_mass_estimate", "conformal_scalar_prediction"],
    "curvature": [
        "SurfaceGeometry",
        "surface_geometry",
        "convergence_study",
        "identity_residuals",
    ],
    "geodesics": ["fermat_profile", "launch_with_momenta", "write_trajectory_csv"],
    "gluing": [
        "neck_parameters",
        "_collar_normal_derivative",
        "_signed_mean_curvature",
        "collar_function",
        "_mirrored_scans",
    ],
    "pipeline": ["_field_names"],
    "radial": ["interpolation_error_bound"],
}


@pytest.mark.parametrize(
    "module, name", [(m, n) for m, names in DELETED.items() for n in names]
)
def test_deleted_name_stays_gone(module, name):
    assert not hasattr(importlib.import_module(f"photonlab.{module}"), name)
    assert not hasattr(photonlab, name)


# Parameters removed from public functions, each fixed at the value every
# caller passed: a parameter that reappears here fails.
REMOVED_PARAMETERS = {
    ("geodesics", "photon_sphere_search"): ["r_lo", "r_hi", "rtol"],
    ("geodesics", "trapping_report"): ["affine_window", "trap_tol", "tol", "E"],
    ("geodesics", "tangential_launch"): ["E", "L"],
    ("pipeline", "run_rigidity_pipeline"): ["flat_tol", "mass_tol"],
    ("gluing", "psi_bound_check"): ["n_samples"],
    ("gluing", "psi_harmonicity_max"): ["n_per_chart"],
}


@pytest.mark.parametrize("module, function", list(REMOVED_PARAMETERS))
def test_removed_parameters_stay_gone(module, function):
    parameters = inspect.signature(
        getattr(importlib.import_module(f"photonlab.{module}"), function)
    ).parameters
    assert [p for p in REMOVED_PARAMETERS[module, function] if p in parameters] == []


def test_deleted_members_stay_gone():
    from photonlab.conformal import __all__ as conformal_exports
    from photonlab.curvature import CurvatureSample
    from photonlab.pipeline import PipelineReport
    from photonlab.radial import _Read, _View

    assert not hasattr(PipelineReport, "psi_bound_ok")
    # the oracle's convergence study was the field-wise difference's one caller
    assert not hasattr(CurvatureSample, "difference")
    # a view reads its construction's read; it holds no leaf callables
    assert "_d" not in vars(_View)
    # a table's read keeps its own knots; no other read has any
    assert "knots" not in vars(_Read)
    # the ADM extrapolation's helper is private to photonlab.conformal
    assert "richardson_limit" not in conformal_exports
    assert not hasattr(photonlab, "richardson_limit")
