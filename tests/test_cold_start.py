"""Cold start: importing the package, every closed-form verdict and every
read of a tabulated profile load numpy but not scipy, which only the
tests' reference checks use.  The import loads no ``numpy.polynomial``
either."""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys

import numpy as np

import photonlab

_PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(photonlab.__file__)))

_CHILD = """
import sys

import numpy as np

import photonlab as pl


def scipy_modules():
    return sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")


print("import", scipy_modules(), "numpy.polynomial" in sys.modules)
report = pl.run_rigidity_pipeline(pl.make_schwarzschild_family(1.0, 3.0, 100.0))
assert report.verdict == "schwarzschild_rigid", report.verdict
wide = pl.make_schwarzschild_family(1.0, 2.1, 100.0)
(root,) = pl.photon_sphere_search(wide)
assert pl.audit_sphere(wide, root).max_residual() <= 1e-12
print("closed-form", scipy_modules())

r = np.geomspace(2.1, 100.0, 400)
table = pl.make_tabulated(r, wide.N(r), wide.A(r), wide.Rareal(r))
loaded = pl.load_profile(pl.dump_profile(table))
pl.curvature_at(loaded, 7.0)
(root,) = pl.photon_sphere_search(loaded)
assert pl.trapping_report(loaded, root).verdict == "trapped"
print("tabulated", scipy_modules())
"""


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (_PACKAGE_ROOT, env.get("PYTHONPATH")))
    )
    return env


def test_no_library_module_imports_scipy():
    package = os.path.dirname(os.path.abspath(photonlab.__file__))
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package, name), encoding="utf-8") as f:
            tree = ast.parse(f.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            assert all(m.partition(".")[0] != "scipy" for m in modules), name


def test_closed_form_verdicts_do_not_import_scipy():
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD],
        capture_output=True, text=True, env=_env(), check=True,
    )
    assert proc.stdout.splitlines() == [
        "import [] False", "closed-form []", "tabulated []",
    ]


def _cli_imports(*args):
    """stdout of a CLI run and every module it imported."""
    # -X importtime lists every module the interpreter imports on stderr
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "photonlab.cli", *args],
        capture_output=True, text=True, env=_env(), check=True,
    )
    imported = [
        line.rpartition("|")[2].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    ]
    assert "photonlab.geodesics" in imported
    return proc.stdout.strip(), [m for m in imported if m.partition(".")[0] == "scipy"]


def test_cli_photon_search_does_not_import_scipy():
    assert _cli_imports("photon-search", "--mass", "1") == ("3.0000000000", [])


def test_cli_photon_search_on_a_table_does_not_import_scipy(tmp_path):
    wide = photonlab.make_schwarzschild_family(1.0, 2.1, 100.0)
    r = np.geomspace(2.1, 100.0, 400)
    table = photonlab.make_tabulated(r, wide.N(r), wide.A(r), wide.Rareal(r))
    doc = tmp_path / "table.json"
    doc.write_text(json.dumps(photonlab.dump_profile(table)), encoding="utf-8")
    out, scipy_modules = _cli_imports("photon-search", "--metric", str(doc))
    assert abs(float(out) - 3.0) < 1e-5
    assert scipy_modules == []
