"""Neck gluing, doubling, match reports, and the collar-function
certificates (bound, harmonicity, reflection antisymmetry)."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from photonlab.gluing import (
    MATCH_FIELDS,
    GluingRefusal,
    MatchReport,
    PiecewiseManifold,
    double,
    glue_neck,
    guarded_chart_samples,
    largest_jump,
    match_report,
    psi_bound_check,
    psi_harmonicity_max,
)
from photonlab.radial import (
    DomainError,
    RadialFunction,
    make_schwarzschild_family,
    make_tabulated,
)

INV_SQRT3 = 0.5773502691896258


# ---------------------------------------------------------------------------
# Gluing
# ---------------------------------------------------------------------------


def test_glue_structure(glued_m1):
    ids = [c.chart_id for c in glued_m1.charts]
    assert ids == ["neck", "exterior"]
    neck, ext = glued_m1.charts
    assert (neck.profile.r_lo, neck.profile.r_hi) == (2.0, 3.0)
    assert (ext.profile.r_lo, ext.profile.r_hi) == (3.0, 100.0)
    assert neck.collar_scale == 1.0  # 3 m_i / r_i at m_i = 1, r_i = 3
    assert ext.collar_scale == 1.0
    assert glued_m1.boundary == ("neck", 2.0)
    g = glued_m1.gluings[0]
    assert g.kind == "photon_sphere" and g.area_radius == 3.0


def test_collar_continuity_value(glued_m1):
    neck, ext = glued_m1.charts
    psi_neck = float(neck.psi_scale * neck.profile.N(3.0))
    psi_ext = float(ext.psi_scale * ext.profile.N(3.0))
    assert abs(psi_neck - INV_SQRT3) <= 1e-15
    assert psi_neck == psi_ext


def test_glue_scale_covariance():
    ext = make_schwarzschild_family(2.0, 6.0, 200.0)
    man = glue_neck(ext, 6.0)
    neck = man.chart("neck")
    assert (neck.profile.r_lo, neck.profile.r_hi) == (4.0, 6.0)
    assert abs(float(neck.psi_scale * neck.profile.N(6.0)) - INV_SQRT3) <= 1e-15


def test_glue_restricts_wider_exterior():
    ext = make_schwarzschild_family(1.0, 2.5, 100.0)
    man = glue_neck(ext, 3.0)
    assert man.chart("exterior").profile.r_lo == 3.0


def test_glue_refuses_non_photon_sphere_boundary():
    ext = make_schwarzschild_family(1.0, 2.9, 100.0)
    with pytest.raises(GluingRefusal) as err:
        glue_neck(ext, 2.9)
    assert err.value.failing == "res_rH"
    assert abs(err.value.value - (-0.09195402298850593)) <= 1e-12
    assert "res_rH" in str(err.value)


def test_glue_refuses_a_nan_residual():
    # N' is NaN at the sphere, so res_NH and mass_i are NaN while res_rH
    # reads 4.4e-16: the neck must not be built with a NaN collar scale
    base = make_schwarzschild_family(1.0, 3.0, 100.0)
    n = base.N

    def slope(r):
        return np.where(r < 3.01, np.nan, n(r, 1))

    profile = replace(base, N=RadialFunction(lambda r: n(r), slope, lambda r: n(r, 2)))
    with pytest.raises(GluingRefusal) as err:
        glue_neck(profile, 3.0)
    assert err.value.failing == "res_NH"
    assert math.isnan(err.value.value)


# ---------------------------------------------------------------------------
# Match reports
# ---------------------------------------------------------------------------


def test_match_at_photon_sphere_is_exact(glued_m1):
    rep = match_report(glued_m1, "photon_sphere")
    assert set(rep.jumps) == set(MATCH_FIELDS)
    assert rep.max_jump <= 1e-12
    assert abs(rep.left["psi"] - INV_SQRT3) <= 1e-15
    assert abs(rep.left["nu_psi"] - 1.0 / 9.0) <= 1e-16
    assert rep.left["area_radius"] == 3.0


@pytest.mark.parametrize("field", ["psi", "nu_psi", "area_radius"])
def test_max_jump_is_nan_when_any_jump_is(field):
    jumps = {"psi": 1e-17, "nu_psi": 0.0, "area_radius": 0.0, field: math.nan}
    rep = MatchReport("s", "photon_sphere", {}, {}, jumps)
    assert math.isnan(rep.max_jump)
    finite = MatchReport("t", "photon_sphere", {}, {}, {"psi": 2e-17})
    assert math.isnan(largest_jump([finite, rep]))
    assert largest_jump([finite, replace(rep, jumps={"psi": -1e-17})]) == 2e-17


def test_match_detects_wrong_neck_mass():
    ext = make_schwarzschild_family(1.0, 3.0, 100.0)
    man = glue_neck(ext, 3.0, mu_override=0.9)
    rep = match_report(man, "photon_sphere")
    assert abs(rep.jumps["nu_psi"]) >= 1e-3


def _tabulated_exterior(corrupt: str | None = None, factor: float = 1.001):
    src = make_schwarzschild_family(1.0, 3.0, 100.0)
    r = np.linspace(3.0, 100.0, 2000)
    cols = {
        "N": np.asarray(src.N(r), dtype=float),
        "A": np.asarray(src.A(r), dtype=float),
        "Rareal": np.asarray(src.Rareal(r), dtype=float),
    }
    if corrupt is not None:
        cols[corrupt] = cols[corrupt] * factor
    return make_tabulated(r, cols["N"], cols["A"], cols["Rareal"])


@pytest.mark.parametrize(
    "channel,field",
    [("N", "psi"), ("A", "nu_psi"), ("Rareal", "area_radius")],
)
def test_corrupting_matched_quantity_moves_its_jump(glued_m1, channel, field):
    # relative corruption of 1e-3 in one metric channel must surface as a
    # jump of at least 1e-4 in the corresponding matched field
    corrupted = _tabulated_exterior(corrupt=channel)
    ext = glued_m1.chart("exterior")
    man = PiecewiseManifold(
        charts=(glued_m1.chart("neck"), replace(ext, profile=corrupted)),
        gluings=glued_m1.gluings,
        ends=glued_m1.ends,
        boundary=glued_m1.boundary,
    )
    rep = match_report(man, "photon_sphere")
    assert abs(rep.jumps[field]) >= 1e-4
    # and the clean tabulated control stays well under that signal
    clean = PiecewiseManifold(
        charts=(glued_m1.chart("neck"), replace(ext, profile=_tabulated_exterior())),
        gluings=glued_m1.gluings,
        ends=glued_m1.ends,
        boundary=glued_m1.boundary,
    )
    assert abs(match_report(clean, "photon_sphere").jumps[field]) <= 1e-5


@pytest.mark.parametrize("mass", [0.5, 1.0, 2.0, 3.3])
def test_audited_boundaries_always_match(mass):
    # audited boundary (residuals <= 1e-10) implies every jump <= 1e-8
    ext = make_schwarzschild_family(mass, 3.0 * mass, 100.0 * mass)
    man = glue_neck(ext, 3.0 * mass, match_tol=1e-10)
    rep = match_report(man, "photon_sphere")
    assert rep.max_jump <= 1e-8


# ---------------------------------------------------------------------------
# Doubling
# ---------------------------------------------------------------------------


def test_double_combinatorics(doubled_m1):
    assert len(doubled_m1.charts) == 4
    assert len(doubled_m1.gluings) == 3
    assert doubled_m1.ends == ("exterior_reflected", "exterior")
    assert doubled_m1.boundary is None
    kinds = sorted(g.kind for g in doubled_m1.gluings)
    assert kinds == ["minimal_boundary", "photon_sphere", "photon_sphere"]


def test_reflection_antisymmetry_is_exact(doubled_m1, rng):
    for chart_id in ("neck", "exterior"):
        chart = doubled_m1.chart(chart_id)
        mirror = doubled_m1.chart(chart_id + "_reflected")
        lo, hi = chart.profile.r_lo, chart.profile.r_hi
        rs = rng.uniform(lo, hi, size=1000)
        vals = np.asarray(chart.psi_scale * chart.profile.N(rs), dtype=float)
        vals_m = np.asarray(mirror.psi_scale * mirror.profile.N(rs), dtype=float)
        assert np.all(vals_m == -vals)  # bitwise
        # mirrored points carry identical geometry
        assert np.all(
            np.asarray(chart.profile.Rareal(rs)) ==
            np.asarray(mirror.profile.Rareal(rs))
        )


def test_match_at_minimal_boundary(doubled_m1):
    rep = match_report(doubled_m1, "minimal_boundary")
    assert rep.max_jump <= 1e-12
    assert rep.left["psi"] == 0.0 and rep.right["psi"] == 0.0


def test_all_doubled_surfaces_match(doubled_m1):
    for g in doubled_m1.gluings:
        assert match_report(doubled_m1, g.surface_id).max_jump <= 1e-10


def test_double_requires_boundary(doubled_m1):
    from photonlab.radial import DomainError

    with pytest.raises(DomainError):
        double(doubled_m1)  # already doubled: no exposed boundary


# ---------------------------------------------------------------------------
# Collar certificates
# ---------------------------------------------------------------------------


def test_psi_bound(doubled_m1):
    rep = psi_bound_check(doubled_m1)
    assert rep.strict_bound
    assert abs(rep.max_abs_psi - math.sqrt(0.98)) <= 1e-15
    assert rep.argmax[0] in ("exterior", "exterior_reflected")
    assert rep.argmax[1] == 100.0
    for val in rep.boundary_lapse.values():
        assert abs(val - INV_SQRT3) <= 1e-15


def test_neck_psi_range(doubled_m1):
    neck = doubled_m1.chart("neck")
    rs = np.linspace(2.0, 3.0, 500)
    psi = np.asarray(neck.psi_scale * neck.profile.N(rs), dtype=float)
    assert psi.min() >= 0.0
    assert psi.max() <= INV_SQRT3 + 1e-15


def test_psi_harmonicity(doubled_m1):
    assert psi_harmonicity_max(doubled_m1) <= 1e-10


def test_psi_harmonicity_surfaces_nan(doubled_m1):
    # a lapse that is NaN on part of one chart must be reported, not skipped
    def f(r):
        return np.where((r > 30.0) & (r < 60.0), np.nan, 0.0 * r)

    ext = doubled_m1.chart("exterior")
    n, nan_window = ext.profile.N, RadialFunction(f, f, f)
    lapse = RadialFunction.expression(lambda r: n(r) + nan_window(r))
    poisoned = replace(ext, profile=replace(ext.profile, N=lapse))
    charts = tuple(poisoned if c is ext else c for c in doubled_m1.charts)
    assert math.isnan(psi_harmonicity_max(replace(doubled_m1, charts=charts)))


def test_psi_bound_surfaces_nan(doubled_m1):
    # a lapse that is NaN on part of one chart must fail the bound, not be
    # passed over for the finite maximum on the reflected end
    def f(r):
        return np.where((r > 40.0) & (r < 41.0), np.nan, 0.0 * r)

    ext = doubled_m1.chart("exterior")
    n, nan_window = ext.profile.N, RadialFunction(f, f, f)
    lapse = RadialFunction.expression(lambda r: n(r) + nan_window(r))
    poisoned = replace(ext, profile=replace(ext.profile, N=lapse))
    charts = tuple(poisoned if c is ext else c for c in doubled_m1.charts)
    rep = psi_bound_check(replace(doubled_m1, charts=charts))
    assert math.isnan(rep.max_abs_psi)
    assert rep.argmax[0] == "exterior" and 40.0 < rep.argmax[1] < 41.0
    assert not rep.strict_bound
    assert rep.n_samples == psi_bound_check(doubled_m1).n_samples


def test_end_lookup_by_orientation(glued_m1, doubled_m1):
    assert doubled_m1.end("outward") == "exterior"
    assert doubled_m1.end("reflected") == "exterior_reflected"
    with pytest.raises(DomainError, match="no reflected end"):
        glued_m1.end("reflected")


def test_guarded_samples_avoid_surfaces(doubled_m1):
    for chart in doubled_m1.charts:
        rs = guarded_chart_samples(chart, 64)
        lo, hi = chart.profile.r_lo, chart.profile.r_hi
        pad_lo = 1e-3 * max(abs(lo), 1.0)
        pad_hi = 1e-3 * max(abs(hi), 1.0)
        assert np.all(rs >= lo + 0.999 * pad_lo)
        assert np.all(rs <= hi - 0.999 * pad_hi)
