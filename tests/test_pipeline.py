"""End-to-end rigidity pipeline: audit -> glue -> double -> seal -> certify,
then reconstruct the unique exterior the certificates allow."""

from __future__ import annotations

import dataclasses
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from photonlab import gluing, pipeline
from photonlab.audit import audit_sphere
from photonlab.gluing import GluingRefusal, double, glue_neck, guarded_chart_samples
from photonlab.pipeline import (
    FLAT_TOL,
    MASS_TOL,
    VERDICT_NOT_RIGID,
    VERDICT_RIGID,
    _all_finite,
    reconstruct_schwarzschild,
    run_rigidity_pipeline,
)
from photonlab.radial import DomainError, RadialFunction, make_schwarzschild_family

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


def test_finiteness_alone_gates_a_nan_only_the_fd_scalar_reads():
    # A is NaN on (r + h/2, r + 3h/2), r the first guarded exterior radius
    # >= 40 and h = 2e-5 r its finite-difference step: only the FD scalar's
    # stencil radius r + h reaches it, so every other condition passes and
    # the NaN scalar, which gates nothing itself, is caught by finiteness
    base = make_schwarzschild_family(1.0, 3.0, 100.0)
    rs = guarded_chart_samples(double(glue_neck(base, 3.0)).chart("exterior"), 128)
    r = float(rs[np.searchsorted(rs, 40.0)])
    h = 2e-5 * r

    def window(x):
        return np.where((x > r + 0.5 * h) & (x < r + 1.5 * h), np.nan, 0.0 * x)

    nan_a = RadialFunction.expression(lambda x: base.A(x) + RadialFunction(
        window, window, window)(x))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        report = run_rigidity_pipeline(replace(base, A=nan_a))
    mass_i = report.boundary_audit.mass_i
    assert 0.0 < report.flatness_max_curvature <= 1e-9 < FLAT_TOL
    assert 0.0 < report.psi_harmonicity <= 1e-15
    assert report.max_match_jump == 0.0
    assert report.psi_bound.strict_bound
    assert report.compactification.converged
    assert abs(report.adm_exterior["mass"] / mass_i - 1.0) <= 1e-7 < MASS_TOL
    assert abs(report.adm_conformal_end["mass"]) / mass_i <= 1e-8 < MASS_TOL
    assert math.isnan(report.conformal_scalar_max)
    assert report.conformal_scalar_argmax == ("exterior", r)
    assert report.verdict == VERDICT_NOT_RIGID


def _bumped(profile, channel, rp, width, height):
    """``profile`` with height * (1 - t^2)^3, t = (r - rp)/width, added to
    one channel on |t| < 1, a C^2 bump given with both derivatives."""
    base = getattr(profile, channel)

    def leaf(nu):
        def f(r):
            t = np.clip((r - rp) / width, -1.0, 1.0)
            q = 1.0 - t * t
            bump = (q ** 3, -6.0 * t * q * q / width, 6.0 * (4.0 * t * t * q - q * q) / width ** 2)
            return base(r, nu) + height * bump[nu]
        return f

    return replace(profile, **{channel: RadialFunction(leaf(0), leaf(1), leaf(2))})


def _quiet_pipeline(exterior, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        return run_rigidity_pipeline(exterior, **kwargs)


@pytest.mark.parametrize("delta, verdict", [(6e-13, VERDICT_NOT_RIGID), (2e-13, VERDICT_RIGID)])
def test_match_jump_alone_gates_a_lapse_tilted_at_the_sphere(delta, verdict):
    # N gains delta s (1 - s)^3 on s = r - 3 in [0, 1]: N' grows by delta
    # at the sphere, so the audit reads res_NH = -2 delta / sqrt(3) and the
    # collar value psi jumps by 3 delta across the neck.  At match_tol =
    # 1e-12, delta = 6e-13 passes the gluing audit (6.9e-13) but not the
    # jump (1.8e-12); 2e-13 passes both.  The tolerance is small because
    # the flatness scan amplifies the tilt's N'' (-6 delta at the sphere)
    # about 2.7e3-fold: at the default 1e-8, delta = 6e-9 reads flatness
    # 9.8e-5, and the flatness bound fails too.
    base = make_schwarzschild_family(1.0, 3.0, 100.0)

    def tilted(nu):
        def f(r):
            s = np.clip(r - 3.0, 0.0, 1.0)
            c = 1.0 - s
            tilt = (s * c ** 3, c * c * (1.0 - 4.0 * s), 12.0 * s * c - 6.0 * c)
            return base.N(r, nu) + delta * tilt[nu]
        return f

    tol = 1e-12
    tilted_n = RadialFunction(tilted(0), tilted(1), tilted(2))
    report = _quiet_pipeline(replace(base, N=tilted_n), match_tol=tol)
    mass_i = report.boundary_audit.mass_i
    assert report.boundary_audit.max_residual() <= tol
    assert (report.max_match_jump > tol) == (verdict == VERDICT_NOT_RIGID)
    assert report.flatness_max_curvature <= 1e-7 < FLAT_TOL
    assert report.psi_bound.strict_bound
    assert report.compactification.converged
    assert abs(report.adm_exterior["mass"] / mass_i - 1.0) <= 1e-7 < MASS_TOL
    assert abs(report.adm_conformal_end["mass"]) / mass_i <= 1e-8 < MASS_TOL
    assert _all_finite(report)
    assert report.verdict == verdict


def test_psi_bound_alone_gates_a_lapse_lifted_between_flatness_samples():
    # N gains 0.02 within 1e-3 of the point rp of the |psi| scan's exterior
    # grid in (60, 80) farthest from the flatness and FD scalar samples
    # (1.07 away): N(rp) = 0.987 + 0.02 > 1, so only the |psi| scan reads
    # psi = +-N above 1; the sphere at 3 and the mass schedule radii 50,
    # 100, 200 and 400 are far from the bump
    base = make_schwarzschild_family(1.0, 3.0, 100.0)
    rs = guarded_chart_samples(double(glue_neck(base, 3.0)).chart("exterior"), 128)
    grid = np.linspace(3.0, 100.0, 2500)
    grid = grid[(grid > 60.0) & (grid < 80.0)]
    rp = float(grid[np.argmax(np.min(np.abs(grid[:, None] - rs), axis=1))])
    report = _quiet_pipeline(_bumped(base, "N", rp, 1e-3, 0.02))
    mass_i = report.boundary_audit.mass_i
    assert report.psi_bound.max_abs_psi > 1.0
    assert report.psi_bound.argmax == ("exterior_reflected", rp)
    assert report.max_match_jump == 0.0
    assert report.flatness_max_curvature <= 1e-8 < FLAT_TOL
    assert report.compactification.converged
    assert abs(report.adm_exterior["mass"] / mass_i - 1.0) <= 1e-7 < MASS_TOL
    assert abs(report.adm_conformal_end["mass"]) / mass_i <= 1e-8 < MASS_TOL
    assert _all_finite(report)
    assert report.verdict == VERDICT_NOT_RIGID


@pytest.mark.parametrize(
    "channel, rp, height, failing",
    [("A", 50.0, 1e-3, "exterior"), ("N", 400.0, 5e-4, "conformal_end")],
)
def test_each_mass_condition_alone_gates_a_bump_on_a_schedule_radius(channel, rp, height, failing):
    # Both masses read the schedule radii 50, 100, 200 and 400, but weigh
    # them differently.  A bump on A at 50, narrower (1e-3 rp) than the
    # flatness samples' spacing there, moves the exterior mass by 2.4e-3
    # and the conformal-end mass by 2.6e-7.  A bump on N at 400, beyond the
    # chart's r_hi where no scan but the masses reads, moves only the
    # conformal-end mass, through u = (1 - N)/2: by 1.4e-3.
    base = make_schwarzschild_family(1.0, 3.0, 100.0)
    report = _quiet_pipeline(_bumped(base, channel, rp, 1e-3 * rp, height))
    mass_i = report.boundary_audit.mass_i
    gaps = {
        "exterior": abs(report.adm_exterior["mass"] / mass_i - 1.0),
        "conformal_end": abs(report.adm_conformal_end["mass"]) / mass_i,
    }
    assert gaps.pop(failing) > MASS_TOL
    assert max(gaps.values()) <= 1e-6
    assert report.psi_bound.strict_bound
    assert report.max_match_jump == 0.0
    assert report.flatness_max_curvature <= 1e-8 < FLAT_TOL
    assert report.compactification.converged
    assert _all_finite(report)
    assert report.verdict == VERDICT_NOT_RIGID


def test_finiteness_gate_builds_no_field_list(pipeline_m1, monkeypatch):
    # the gate visits ~170 values a report and reads a dataclass's fields
    # from its instance dictionary; dataclasses.fields ran at every one
    assert _all_finite(pipeline_m1)
    calls = []
    fields = dataclasses.fields
    monkeypatch.setattr(dataclasses, "fields", lambda obj: calls.append(obj) or fields(obj))
    assert _all_finite(pipeline_m1)
    compact = replace(pipeline_m1.compactification, rate=math.nan)
    assert not _all_finite(replace(pipeline_m1, compactification=compact))
    assert calls == []
