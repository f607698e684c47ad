"""Acceptance criteria for the laboratory, one test per criterion.

Each test prints a single ``ACCEPTANCE nn PASS|FAIL`` line with the measured
quantity next to its tolerance, then asserts, so a verbose run reads as a
14-line scorecard."""

from __future__ import annotations

import math
import os
import subprocess
import sys

import numpy as np
import pytest

import photonlab
from photonlab.audit import audit_sphere, monotonicity_scan
from photonlab.conformal import (
    adm_mass_estimate,
    compactification_check,
    conformal_scalar_residual,
)
from photonlab.curvature import convergence_study, curvature_at
from photonlab.geodesics import photon_sphere_search
from photonlab.gluing import (
    glue_neck,
    match_report,
    psi_bound_check,
    psi_harmonicity_max,
)
from photonlab.pipeline import reconstruct_schwarzschild
from photonlab.radial import (
    BuchdahlError,
    buchdahl_ratio,
    make_composite_star,
    make_schwarzschild_family,
)

INV_SQRT3 = 0.5773502691896258
_PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(photonlab.__file__)))


def _report(n: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {n:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {n}: {detail}"


def test_criterion_01_static_vacuum_residuals():
    worst = -1.0
    for mass in (-1.0, 0.0, 0.5, 1.0, 2.0):
        r_lo = 3.0 * mass if mass > 0 else 1.0
        r_hi = 100.0 * mass if mass > 0 else 100.0
        p = make_schwarzschild_family(mass, r_lo, r_hi)
        rs = np.linspace(r_lo + 1e-6, r_hi - 1e-6, 512)
        worst = max(
            worst,
            max(curvature_at(p, float(r)).max_vacuum_residual() for r in rs),
        )
    _report(1, worst <= 1e-12, f"max vacuum residual {worst:.3e} <= 1e-12 "
            "(512 samples, masses -1, 0, 0.5, 1, 2)")


def test_criterion_02_oracle_second_order_convergence(exterior_m1):
    study = convergence_study(exterior_m1, 5.0)
    rate = study["rate"]
    _report(2, 1.8 <= rate <= 2.2, f"finite-difference rate {rate:.4f} in [1.8, 2.2]")


def test_criterion_03_photon_sphere_search():
    window = make_schwarzschild_family(1.0, 2.1, 100.0)
    roots = photon_sphere_search(window)
    err = abs(roots[0] - 3.0) if len(roots) == 1 else math.inf
    empty = all(
        photon_sphere_search(make_schwarzschild_family(m, 1.0, 100.0)) == []
        for m in (0.0, -1.0)
    )
    ok = len(roots) == 1 and err <= 1e-10 and empty
    _report(3, ok, f"root error {err:.3e} <= 1e-10; no roots for mass <= 0: {empty}")


def test_criterion_04_sphere_identities(exterior_m1):
    rep = audit_sphere(exterior_m1, 3.0)
    worst = rep.max_residual()
    ok = worst <= 1e-12 and rep.H_positive
    _report(4, ok, f"identity residuals {worst:.3e} <= 1e-12, H positive: {rep.H_positive}")


def test_criterion_05_mass_identities(exterior_m1):
    rep = audit_sphere(exterior_m1, 3.0)
    err = max(abs(rep.mass_i - 1.0), abs(rep.mass_from_H - 1.0))
    _report(5, err <= 1e-12, f"both mass routes within {err:.3e} of 1 (tol 1e-12)")


def test_criterion_06_ratio_monotonicity(exterior_m1):
    scan = monotonicity_scan(exterior_m1, 3.0, 100.0, n=256)
    ok = scan.nonincreasing and scan.max_upward_violation == 0.0
    _report(6, ok, "H/N nonincreasing along the flow, 256 samples, "
            f"max upward violation {scan.max_upward_violation:.3e}")


def test_criterion_07_neck_match(glued_m1):
    rep = match_report(glued_m1, "photon_sphere")
    worst = rep.max_jump
    corrupted = glue_neck(
        make_schwarzschild_family(1.0, 3.0, 100.0), 3.0, mu_override=0.9
    )
    jump = abs(match_report(corrupted, "photon_sphere").jumps["nu_psi"])
    ok = worst <= 1e-10 and jump >= 1e-3
    _report(7, ok, f"all 7 jumps <= {worst:.3e} (tol 1e-10); 10% neck-mass "
            f"corruption moves the normal derivative by {jump:.3e} >= 1e-3")


def test_criterion_08_collar_bound_and_harmonicity(doubled_m1):
    bound = psi_bound_check(doubled_m1)
    harm = psi_harmonicity_max(doubled_m1)
    ok = bound.strict_bound and bound.max_abs_psi < 1.0 and harm <= 1e-10
    _report(8, ok, f"max |psi| {bound.max_abs_psi:.10f} < 1 at 10^4 samples; "
            f"harmonicity residual {harm:.3e} <= 1e-10")


def test_criterion_09_sealed_scalar_flatness(conformal_m1):
    rep = conformal_scalar_residual(conformal_m1, n_samples=512)
    worst = rep["max_abs_scalar"]
    _report(9, worst <= 1e-8, f"max |scalar curvature| {worst:.3e} <= 1e-8 "
            "(512 guarded samples)")


def test_criterion_10_adm_masses(doubled_m1, conformal_m1):
    outward = adm_mass_estimate(doubled_m1, "exterior", radii=(50.0, 100.0, 200.0, 400.0))
    sealed = adm_mass_estimate(conformal_m1, "exterior_reflected")
    err_out = abs(outward["mass"] - 1.0)
    err_seal = abs(sealed["mass"])
    ok = err_out <= 1e-3 and err_seal <= 1e-3
    _report(10, ok, f"outward end mass 1.000 within {err_out:.3e}; sealed end "
            f"mass 0.000 within {err_seal:.3e} (tol 1e-3)")


def test_criterion_11_pipeline_flatness_and_reconstruction(pipeline_m1):
    flat = pipeline_m1.flatness_max_curvature
    mass, radius, lapse = reconstruct_schwarzschild(pipeline_m1)
    err = max(abs(mass - 1.0), abs(radius - 3.0), abs(lapse - INV_SQRT3))
    ok = flat <= 1e-6 and err <= 1e-10
    _report(11, ok, f"flatness {flat:.3e} <= 1e-6; reconstructed "
            f"(mass, radius, lapse) within {err:.3e} of (1, 3, 1/sqrt3)")


def test_criterion_12_compactification(conformal_m1):
    rep = compactification_check(conformal_m1)
    fine = compactification_check(conformal_m1, R_schedule=(0.02, 0.01, 0.005, 0.0025))
    ratios = []
    for factors in (fine.radial_factor, fine.tangential_factor):
        errs = [abs(f - 0.0625) for f in factors]
        ratios.extend(b / a for a, b in zip(errs, errs[1:]))
    halving = all(0.4 <= q <= 0.6 for q in ratios)
    ok = (
        rep.converged
        and abs(rep.limit - 0.0625) <= 1e-5
        and 0.75 <= rep.rate <= 1.25
        and halving
    )
    _report(12, ok, f"inverted-end metric -> (m/2)^4: limit {rep.limit:.7f}, "
            f"rate {rep.rate:.3f}, error ratio per halving in "
            f"[{min(ratios):.3f}, {max(ratios):.3f}]")


def test_criterion_13_star_census():
    star = make_composite_star(1.0, 2.5)
    accepted = []
    for piece in star.pieces:
        for root in photon_sphere_search(piece):
            rep = audit_sphere(piece, root)
            if rep.max_residual() <= 1e-10 and rep.H_positive:
                accepted.append(root)
    try:
        make_composite_star(1.0, 2.2)
        gate = False
    except BuchdahlError:
        gate = True
    ok = (
        buchdahl_ratio(1.0, 2.5) == 0.8
        and gate
        and len(accepted) == 1
        and abs(accepted[0] - 3.0) <= 1e-9
        and 2.5 < accepted[0]
    )
    _report(13, ok, "surface 2.5 accepted (ratio 0.8), surface 2.2 refused; "
            f"exactly one audited photon sphere at {accepted[0]:.10f}" if accepted
            else "no photon sphere accepted")


def test_criterion_14_deterministic_reports(tmp_path):
    outputs = []
    for threads in ("1", "4"):
        env = dict(os.environ)
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = threads
        # the child imports the same package as this process, installed or not
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, (_PACKAGE_ROOT, env.get("PYTHONPATH")))
        )
        out_path = tmp_path / "report.json"
        proc = subprocess.run(
            [sys.executable, "-m", "photonlab.cli", "pipeline",
             "--mass", "1.0", "--samples", "64", "--out", str(out_path)],
            capture_output=True,
            env=env,
            check=True,
        )
        outputs.append(
            (proc.stdout, out_path.read_bytes(),
             (tmp_path / "report.csv").read_bytes())
        )
    ok = outputs[0] == outputs[1]
    _report(14, ok, "stdout, JSON report, and CSV table byte-identical "
            "across repeated runs under 1 and 4 BLAS/OpenMP threads")
