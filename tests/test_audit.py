"""Photon-sphere identity audit: residual system, the two mass routes,
monotonicity of H/N, and positivity gates."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from photonlab.audit import (
    audit_sphere,
    component_mass,
    component_mass_quadrature,
    monotonicity_scan,
    positivity_check,
)
from photonlab.curvature import surface_geometry
from photonlab.radial import (
    DomainError,
    RadialFunction,
    make_composite_star,
    make_schwarzschild_family,
    make_tabulated,
)

INV_SQRT3 = 0.5773502691896258


@pytest.fixture(scope="module")
def wide_m1():
    return make_schwarzschild_family(1.0, 2.5, 100.0)


def test_audit_passes_at_photon_sphere(wide_m1):
    rep = audit_sphere(wide_m1, 3.0)
    assert rep.max_residual() <= 1e-12
    assert rep.H_positive
    assert abs(rep.mass_i - 1.0) <= 1e-12
    assert abs(rep.mass_from_H - 1.0) <= 1e-12
    assert abs(rep.spacetime_H - INV_SQRT3) <= 1e-15
    assert rep.chain_residual() <= 1e-12  # N = sqrt(3) m / r on the sphere


def test_audit_residuals_off_sphere(wide_m1):
    rep29 = audit_sphere(wide_m1, 2.9)
    # (r H)^2 - 4/3 = 4 (1 - 2/2.9) - 4/3, derived by hand
    assert abs(rep29.res_rH - (4.0 * (1.0 - 2.0 / 2.9) - 4.0 / 3.0)) <= 1e-14
    assert abs(rep29.res_rH - (-0.09195402298850593)) <= 1e-14
    rep4 = audit_sphere(wide_m1, 4.0)
    assert abs(rep4.res_rH - (2.0 - 4.0 / 3.0)) <= 1e-14
    assert rep4.max_residual() > 0.1


def test_worst_residual_keeps_sign_and_breaks_ties_to_the_first_field(wide_m1):
    rep29 = audit_sphere(wide_m1, 2.9)
    name, value = rep29.worst_residual()
    assert value == getattr(rep29, name) and abs(value) == rep29.max_residual()
    assert name == "res_rH" and value < 0.0  # negative below the sphere
    tied = replace(rep29, res_umbilic=0.5, res_NH=-0.5, res_rH=0.5, res_sigmaR=-0.5)
    assert tied.worst_residual() == ("res_umbilic", 0.5)
    assert replace(tied, res_umbilic=0.0).worst_residual() == ("res_NH", -0.5)


def test_audit_flat_slice():
    flat = make_schwarzschild_family(0.0, 1.0, 100.0)
    rep = audit_sphere(flat, 5.0)
    assert rep.mass_i == 0.0
    assert abs(rep.res_rH - 8.0 / 3.0) <= 1e-14  # (rH)^2 = 4 for N = 1
    neg = make_schwarzschild_family(-1.0, 1.0, 100.0)
    rep_neg = audit_sphere(neg, 3.0)
    assert rep_neg.H_positive  # positive H, yet no photon sphere:
    assert rep_neg.max_residual() > 0.1  # residuals say so


def test_component_mass_is_flux_conserved(wide_m1):
    assert abs(component_mass(wide_m1, 3.0) - 1.0) <= 1e-12
    assert abs(component_mass(wide_m1, 10.0) - 1.0) <= 1e-12
    assert abs(component_mass(wide_m1, 77.0) - 1.0) <= 1e-12
    flat = make_schwarzschild_family(0.0, 1.0, 100.0)
    assert component_mass(flat, 9.0) == 0.0


def test_component_mass_quadrature_agrees(wide_m1):
    # the midpoint rule integrates sin(theta) to ~pi^3/(24 n^2) = 7.7e-8
    # at 4096 panels; the two mass routes agree to that quadrature floor
    for r0 in (3.0, 10.0):
        q = component_mass_quadrature(wide_m1, r0)
        assert abs(q - component_mass(wide_m1, r0)) <= 1e-7


def test_component_mass_quadrature_tabulated():
    src = make_schwarzschild_family(1.0, 2.5, 20.0)
    r = np.linspace(2.5, 20.0, 800)
    tab = make_tabulated(r, src.N(r), src.A(r), src.Rareal(r))
    assert abs(component_mass_quadrature(tab, 3.0) - 1.0) <= 1e-6


def test_monotonicity_schwarzschild(wide_m1):
    scan = monotonicity_scan(wide_m1, 3.0, 100.0, n=256)
    assert scan.nonincreasing
    assert scan.max_upward_violation == 0.0
    assert abs(scan.ratio[0] - 2.0 / 3.0) <= 1e-14  # H/N = 2/r
    assert abs(scan.ratio[-1] - 2.0 / 100.0) <= 1e-14
    # flow parameter is arclength: integral of A exceeds the coordinate span
    assert scan.flow_parameter[-1] > 97.0
    assert np.all(np.diff(scan.flow_parameter) > 0.0)


def test_monotonicity_flat_and_composite():
    flat = make_schwarzschild_family(0.0, 1.0, 100.0)
    assert monotonicity_scan(flat, 3.0, 100.0).nonincreasing
    star = make_composite_star(1.0, 2.5)
    scan = monotonicity_scan(star, 2.5, 100.0, n=128)
    assert scan.nonincreasing
    with pytest.raises(DomainError):
        monotonicity_scan(flat, 5.0, 5.0)


@pytest.mark.parametrize("n", [1, 0])
def test_monotonicity_refuses_fewer_than_two_samples(wide_m1, n):
    # one sample has no comparison, so nonincreasing=True would prove nothing
    with pytest.raises(DomainError, match="n must be at least 2"):
        monotonicity_scan(wide_m1, 3.0, 100.0, n=n)


def test_monotonicity_fails_on_a_nan_ratio():
    base = make_schwarzschild_family(1.0, 3.0, 100.0)

    def holed(order):
        def f(r):
            return np.where((r > 40.0) & (r < 50.0), np.nan, base.N(r, order))
        return f

    profile = replace(base, N=RadialFunction(holed(0), holed(1), holed(2)))
    scan = monotonicity_scan(profile, 3.0, 100.0, n=64)
    assert np.isnan(scan.ratio).any() and not np.isnan(scan.ratio[0])
    assert math.isnan(scan.max_upward_violation)
    assert not scan.nonincreasing


def test_monotonicity_ratios_match_a_per_radius_read():
    cases = (
        (make_schwarzschild_family(1.0, 3.0, 100.0), 3.0, 100.0),
        (make_schwarzschild_family(-1.0, 1.0, 100.0), 1.0, 100.0),
        (make_composite_star(1.0, 2.5), 0.5, 100.0),
        (make_composite_star(1.0, 3.5), 0.5, 100.0),
    )
    for profile, lo, hi in cases:
        scan = monotonicity_scan(profile, lo, hi, n=97)
        piece_at = getattr(profile, "piece_at", lambda r: profile)
        ref = [
            float(piece_at(r).sphere_mean_curvature(r) / piece_at(r).N(r))
            for r in map(float, scan.r)
        ]
        assert np.array_equal(scan.ratio, ref)


def test_monotonicity_refuses_radii_outside_a_composite():
    star = make_composite_star(1.0, 2.5)
    with pytest.raises(DomainError):
        monotonicity_scan(star, 1.0, 101.0)


def test_mass_routes_share_one_formula(wide_m1):
    r = np.geomspace(3.0, 100.0, 300)
    tab = make_tabulated(r, wide_m1.N(r), wide_m1.A(r), wide_m1.Rareal(r))
    theta = (np.arange(4096) + 0.5) * (np.pi / 4096)
    for profile in (wide_m1, tab):
        for r0 in (3.0, 10.0, 77.0):
            geom = surface_geometry(profile, r0)
            mass = geom.area_radius ** 2 * geom.nu_N
            assert audit_sphere(profile, r0).mass_i == component_mass(profile, r0) == mass
            # the flux integrand written out in full
            flux = 2.0 * np.pi * np.sum(
                geom.nu_N * geom.area_radius ** 2 * np.sin(theta)
            ) * (np.pi / 4096)
            assert component_mass_quadrature(profile, r0) == float(flux / (4.0 * np.pi))


def test_positivity_check_both_forms(wide_m1):
    rep = audit_sphere(wide_m1, 3.0)
    gates = positivity_check(rep)
    assert gates["pass"] and gates["H_positive"] and gates["sigma_scalar_positive"]
    gates2 = positivity_check(wide_m1, 3.0)
    assert gates2 == gates
    with pytest.raises(DomainError):
        positivity_check(wide_m1)  # radius required with a profile
