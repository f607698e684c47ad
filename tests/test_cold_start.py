"""Cold start: importing the package and every closed-form verdict load numpy
but not scipy, which only tabulated profiles and monotonicity scans need."""

from __future__ import annotations

import os
import subprocess
import sys

import photonlab

_PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(photonlab.__file__)))

_CHILD = """
import sys

import numpy as np

import photonlab as pl


def scipy_modules():
    return sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")


report = pl.run_rigidity_pipeline(pl.make_schwarzschild_family(1.0, 3.0, 100.0))
assert report.verdict == "schwarzschild_rigid", report.verdict
wide = pl.make_schwarzschild_family(1.0, 2.1, 100.0)
(root,) = pl.photon_sphere_search(wide)
assert pl.audit_sphere(wide, root).max_residual() <= 1e-12
print("closed-form", scipy_modules())

r = np.geomspace(2.1, 100.0, 64)
pl.make_tabulated(r, wide.N(r), wide.A(r), wide.Rareal(r))
print("tabulated", "scipy.interpolate" in sys.modules)
"""


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (_PACKAGE_ROOT, env.get("PYTHONPATH")))
    )
    return env


def test_closed_form_verdicts_do_not_import_scipy():
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD],
        capture_output=True, text=True, env=_env(), check=True,
    )
    assert proc.stdout.splitlines() == ["closed-form []", "tabulated True"]


def test_cli_photon_search_does_not_import_scipy():
    # -X importtime lists every module the interpreter imports on stderr
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "photonlab.cli",
         "photon-search", "--mass", "1"],
        capture_output=True, text=True, env=_env(), check=True,
    )
    assert proc.stdout.strip() == "3.0000000000"
    imported = [
        line.rpartition("|")[2].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    ]
    assert "photonlab.geodesics" in imported
    assert [m for m in imported if m.partition(".")[0] == "scipy"] == []
