"""Golden digests of the pipeline reports and the demos' output, frozen bit for bit.

The JSON document of ``run_rigidity_pipeline`` on the closed-form exterior
``make_schwarzschild_family(m, 3m, r_hi)`` is hashed at eight (m, r_hi)
cases that span small and large masses and short and long exteriors, and
each demo script's stdout is hashed as it prints it.  Every certificate of
the verdict, its location and its sample count is in the report, so a
change below the pipeline that moves any bit of any of them shows here.

m = 1e3 is not among the cases: its pipeline raises a numpy
``RuntimeWarning``, which the warning-as-error test run refuses.

The pipeline runs the finite-difference oracle, and so do the demos in
``ORACLE_DEMOS``; those digests are of x87 80-bit extended precision (the
``np.longdouble`` of x86-64 Linux), as in ``test_cli_golden.py``.  The
other demos compute in float64 only.
"""

from __future__ import annotations

import hashlib
import runpy
from pathlib import Path

import numpy as np
import pytest

from photonlab.pipeline import run_rigidity_pipeline
from photonlab.radial import make_schwarzschild_family
from photonlab.reports import json_document

_X87 = np.finfo(np.longdouble).nmant == 63

PIPELINE_GOLDEN = {
    (0.5, 50.0): "4af7d1aba7166f16393446a1a889b01c7dc0618fc807ba92825b9a8593447e1f",
    (1.0, 100.0): "2e82133c4a3e9c3547089f9a8f8b81f293b5895c8a1d640c3a04f096cb99bf58",
    (2.0, 200.0): "a0ab56eedba7bd8eecf2925fd56253b1a09af70ede06472cce1978a3c0d92228",
    (0.1, 10.0): "d83f927f9a4f3ecc594aad9d24aaba390a2fbca299e88a74ac8c78fe97dcbf18",
    (20.0, 2e3): "b1f6b97b1ca596a79ed02d9bc296d71270f09b749db44c7adb6998db1e8188bc",
    (1.0, 1e3): "62ab474ab321c320415f4a151e956e41ed4297dfb1f10562a6bcfd0b0d4e0157",
    (1.0, 1e4): "ea66b8109e5f5aa387187aecc3a2a2adaf0a3d4ff6a581075e9aa74d9d1e3c83",
    (33.6, 3360.0): "93dbf082fa76a4eefbf96c565c56c73332a079507254719ad3a749c223f4825b",
}

DEMO_GOLDEN = {
    "01_curvature_verification.py": "2c9d50b657bc42a528904f5b5c2152e46b4bfaf3420851e88508db9e50667815",
    "02_photon_sphere_hunt.py": "e4bee2a257d9c14c91ce405bcbf4148b71d421313973fa10e9ea65296847eb47",
    "03_sphere_audit.py": "730a0f7f71d5d2b58544498b20419830366dcdde31eeae665b4fcdae2752c291",
    "04_rigidity_walkthrough.py": "a169bc775439325ca1e680c7c1ff99768874ecddb1e7ad72ce806c6a806e2b29",
    "05_compact_star.py": "0d00162475fb90050767aabb07a4c253d15e2c92aa179e2737819a6d2781ab58",
}

ORACLE_DEMOS = ("01_curvature_verification.py", "04_rigidity_walkthrough.py")

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("m, r_hi", list(PIPELINE_GOLDEN))
def test_pipeline_report_matches_frozen_digest(m, r_hi):
    if not _X87:
        pytest.skip("pipeline digests are of x87 80-bit extended precision")
    report = run_rigidity_pipeline(make_schwarzschild_family(m, 3.0 * m, r_hi))
    assert _sha(json_document(report)) == PIPELINE_GOLDEN[(m, r_hi)]


@pytest.mark.parametrize("demo", list(DEMO_GOLDEN))
def test_demo_stdout_matches_frozen_digest(capsys, demo):
    if demo in ORACLE_DEMOS and not _X87:
        pytest.skip("oracle digests are of x87 80-bit extended precision")
    runpy.run_path(str(DEMOS / demo), run_name="__main__")
    assert _sha(capsys.readouterr().out) == DEMO_GOLDEN[demo]
