"""End-to-end rigidity pipeline: audit -> glue -> double -> seal -> certify,
then reconstruct the unique exterior the certificates allow."""

from __future__ import annotations

import dataclasses
import math
from dataclasses import replace

import pytest

from photonlab import gluing, pipeline
from photonlab.audit import audit_sphere
from photonlab.gluing import GluingRefusal
from photonlab.pipeline import (
    FLAT_TOL,
    MASS_TOL,
    VERDICT_NOT_RIGID,
    VERDICT_RIGID,
    _all_finite,
    reconstruct_schwarzschild,
    run_rigidity_pipeline,
)
from photonlab.radial import DomainError, make_schwarzschild_family

INV_SQRT3 = 0.5773502691896258


def _assert_rigid(report, mass):
    assert report.verdict == VERDICT_RIGID
    assert report.rigid
    assert report.max_match_jump <= 1e-10
    assert report.psi_bound.strict_bound
    assert report.psi_harmonicity <= 1e-10
    assert report.conformal_scalar_max <= 1e-8
    assert abs(report.adm_exterior["mass"] - mass) <= MASS_TOL * max(1.0, mass)
    assert abs(report.adm_conformal_end["mass"]) <= MASS_TOL
    assert report.compactification.converged
    assert abs(report.compactification.limit - (mass / 2.0) ** 4) <= 1e-3
    assert report.flatness_max_curvature <= FLAT_TOL
    assert abs(report.reconstructed_mass - mass) <= 1e-10 * max(1.0, mass)


def test_pipeline_unit_mass(pipeline_m1):
    _assert_rigid(pipeline_m1, 1.0)
    surfaces = sorted(m.surface_id for m in pipeline_m1.match_reports)
    assert surfaces == ["minimal_boundary", "photon_sphere", "photon_sphere_reflected"]
    assert pipeline_m1.tolerances == {
        "match_tol": 1e-8,
        "flat_tol": 1e-6,
        "mass_tol": 1e-3,
    }
    assert pipeline_m1.boundary_audit.area_radius == 3.0
    assert abs(pipeline_m1.boundary_audit.spacetime_H - INV_SQRT3) <= 1e-15


@pytest.mark.parametrize("mass", [0.5, 2.0])
def test_pipeline_scaled_masses(mass):
    ext = make_schwarzschild_family(mass, 3.0 * mass, 100.0 * mass)
    report = run_rigidity_pipeline(ext)
    _assert_rigid(report, mass)


def test_pipeline_refuses_non_photon_sphere_boundary():
    ext = make_schwarzschild_family(1.0, 2.9, 100.0)
    with pytest.raises(GluingRefusal) as err:
        run_rigidity_pipeline(ext)
    assert err.value.failing == "res_rH"


def test_pipeline_audits_the_boundary_once(exterior_m1, pipeline_m1, monkeypatch):
    calls = []

    def counting(profile, r0):
        calls.append(r0)
        return audit_sphere(profile, r0)

    monkeypatch.setattr(gluing, "audit_sphere", counting)
    monkeypatch.setattr(pipeline, "audit_sphere", counting)
    report = run_rigidity_pipeline(exterior_m1)
    assert calls == [3.0]
    assert repr(report.boundary_audit) == repr(audit_sphere(exterior_m1, 3.0))
    assert repr(report) == repr(pipeline_m1)


def test_reconstruction_triple(pipeline_m1):
    mass, radius, lapse = reconstruct_schwarzschild(pipeline_m1)
    assert abs(mass - 1.0) <= 1e-10
    assert abs(radius - 3.0) <= 1e-10
    assert abs(lapse - INV_SQRT3) <= 1e-10


@pytest.mark.parametrize("mass", [0.5, 2.0])
def test_reconstruction_scales(mass):
    ext = make_schwarzschild_family(mass, 3.0 * mass, 100.0 * mass)
    report = run_rigidity_pipeline(ext)
    m_hat, r_ps, lapse = reconstruct_schwarzschild(report)
    assert abs(m_hat - mass) <= 1e-10
    assert abs(r_ps - 3.0 * mass) <= 1e-10
    assert abs(lapse - 1.0 / (math.sqrt(3.0) * mass)) <= 1e-10


@pytest.mark.parametrize("field", ["mass_i", "mass_from_H", "area_radius", "spacetime_H"])
def test_reconstruction_checks_each_audit_value(pipeline_m1, field):
    # each cross-check fires on its own: shift one audited value by 1e-9, or
    # make it NaN (a NaN gap fails every comparison, so it must be refused)
    audit = pipeline_m1.boundary_audit
    for value in (getattr(audit, field) + 1e-9, math.nan):
        shifted = replace(audit, **{field: value})
        with pytest.raises(DomainError, match="disagree with the boundary audit"):
            reconstruct_schwarzschild(replace(pipeline_m1, boundary_audit=shifted))


def test_reconstruction_requires_rigid_verdict(pipeline_m1):
    demoted = replace(pipeline_m1, verdict=VERDICT_NOT_RIGID)
    with pytest.raises(DomainError):
        reconstruct_schwarzschild(demoted)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_unconverged_compactification_is_not_rigid():
    """At m = 1e3 the absolute x-schedule of the compactification check
    reaches inside the horizon: the check does not converge and its mass
    gap is infinite, and the verdict must say so."""
    report = run_rigidity_pipeline(make_schwarzschild_family(1e3, 3e3, 1e5))
    assert not report.compactification.converged
    assert not math.isfinite(report.compactification.mass_gap)
    assert report.verdict == VERDICT_NOT_RIGID


def test_mass_tolerance_gates_the_verdict(exterior_m1, monkeypatch):
    """The measured exterior ADM mass is off by 4.3e-8 relative at m = 1:
    inside MASS_TOL, outside 1e-9."""
    monkeypatch.setattr(pipeline, "MASS_TOL", 1e-9)
    report = run_rigidity_pipeline(exterior_m1)
    assert 1e-9 < abs(report.adm_exterior["mass"] - 1.0) < 1e-7
    assert report.tolerances["mass_tol"] == 1e-9
    assert report.verdict == VERDICT_NOT_RIGID


def test_finiteness_gate_reaches_nested_floats(pipeline_m1):
    assert _all_finite(pipeline_m1)
    for bad in (math.nan, math.inf, -math.inf):
        compact = replace(pipeline_m1.compactification, radial_factor=(0.1, bad))
        assert not _all_finite(replace(pipeline_m1, compactification=compact))
        adm = dict(pipeline_m1.adm_exterior, integrand=[1.0, bad])
        assert not _all_finite(replace(pipeline_m1, adm_exterior=adm))


def test_finiteness_gate_reads_field_names_once_per_class(pipeline_m1, monkeypatch):
    # the gate visits ~170 values a report; dataclasses.fields ran at every
    # dataclass among them
    assert _all_finite(pipeline_m1)
    calls = []
    fields = dataclasses.fields
    monkeypatch.setattr(dataclasses, "fields", lambda obj: calls.append(obj) or fields(obj))
    assert _all_finite(pipeline_m1)
    compact = replace(pipeline_m1.compactification, rate=math.nan)
    assert not _all_finite(replace(pipeline_m1, compactification=compact))
    assert calls == []
