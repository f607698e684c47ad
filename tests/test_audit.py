"""Photon-sphere identity audit: residual system, the component mass and
monotonicity of H/N."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from photonlab.audit import audit_sphere
from photonlab.radial import (
    DomainError,
    EndpointDegeneracyError,
    RadialFunction,
    make_composite_star,
    make_interior_fluid,
    make_schwarzschild_family,
    make_schwarzschild_neck,
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


def test_audit_reads_the_photon_sphere_geometry(wide_m1):
    rep = audit_sphere(wide_m1, 3.0)
    assert abs(rep.H - 2.0 / (3.0 * math.sqrt(3.0))) <= 1e-15
    assert abs(rep.H - 0.3849001794597505) <= 1e-15
    assert abs(rep.nu_N - 1.0 / 9.0) <= 1e-16
    assert abs(rep.sigma_scalar - 2.0 / 9.0) <= 1e-16
    assert rep.res_umbilic == 0.0  # the trace-free second fundamental form
    assert rep.area_radius == 3.0
    rep10 = audit_sphere(wide_m1, 10.0)
    assert abs(rep10.H - 2.0 * math.sqrt(0.8) / 10.0) <= 1e-15
    assert abs(rep10.H - 0.17888543819998318) <= 1e-15


def test_audit_at_a_horizon_endpoint_reads_a_minimal_sphere():
    # H has the one-sided limit 0 at the neck's horizon: audited, not refused
    rep = audit_sphere(make_schwarzschild_neck(1.0), 2.0)
    assert rep.H == 0.0 and rep.res_umbilic == 0.0 and not rep.H_positive
    assert rep.area_radius == 2.0 and rep.sigma_scalar == 0.5
    assert rep.nu_N == 0.25  # m / r^2


def test_audit_refuses_the_centre_of_a_fluid_ball():
    with pytest.raises(EndpointDegeneracyError):
        audit_sphere(make_interior_fluid(1.0, 2.5), 0.0)


def _constant(c):
    return RadialFunction(lambda r: c + 0.0 * r, lambda r: 0.0 * r, lambda r: 0.0 * r)


@pytest.mark.parametrize("a", [0.0, 5e-324])
def test_audit_refuses_an_infinite_shape_operator(wide_m1, a):
    # inf - inf in the trace-free norm warned; A = 0 raised ZeroDivisionError
    with pytest.raises(DomainError, match=r"shape operator k .* is infinite at r = 3.0"):
        audit_sphere(replace(wide_m1, A=_constant(a)), 3.0)


def test_audit_refuses_an_infinite_normal_lapse_derivative(wide_m1):
    # k = 1/(3A) stays finite at A = 1e-300, but N'/A overflows for N = 1e10 N
    n = wide_m1.N
    lapse = RadialFunction.expression(lambda r: 1e10 * n(r))
    profile = replace(wide_m1, N=lapse, A=_constant(1e-300))
    with pytest.raises(DomainError, match=r"nu\(N\) = N'/A is infinite at r = 3.0"):
        audit_sphere(profile, 3.0)


def test_audit_reads_an_overflowing_residual_as_inf(wide_m1):
    # (area_radius H)^2 overflows at A = 1e-300: the float power raised
    rep = audit_sphere(replace(wide_m1, A=_constant(1e-300)), 3.0)
    assert rep.res_rH == math.inf and rep.res_sigmaR == -math.inf
    assert rep.res_umbilic == 0.0 and math.isfinite(rep.mass_i)
    assert rep.worst_residual() == ("res_rH", math.inf)


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


def test_worst_residual_names_the_first_nan(wide_m1):
    # builtin max(key=abs) never picks a NaN, so the audit passed one
    rep = audit_sphere(wide_m1, 2.9)  # res_rH = -0.092 is the largest number
    name, value = replace(rep, res_sigmaR=math.nan).worst_residual()
    assert name == "res_sigmaR" and math.isnan(value)
    both = replace(rep, res_NH=math.nan, res_sigmaR=math.nan)
    assert both.worst_residual()[0] == "res_NH"
    assert math.isnan(both.max_residual())


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
    for r0 in (3.0, 10.0, 77.0):
        assert abs(audit_sphere(wide_m1, r0).mass_i - 1.0) <= 1e-12
    flat = make_schwarzschild_family(0.0, 1.0, 100.0)
    assert audit_sphere(flat, 9.0).mass_i == 0.0


def test_monotonicity_schwarzschild(wide_m1):
    # H/N = 2/r decreases in r, and so along the outward flow (A > 0)
    rs = np.linspace(3.0, 100.0, 256)
    ratio = wide_m1.sphere_mean_curvature(rs) / wide_m1.N(rs)
    assert np.all(np.diff(ratio) < 0.0)
    assert abs(ratio[0] - 2.0 / 3.0) <= 1e-14
    assert abs(ratio[-1] - 2.0 / 100.0) <= 1e-14


def test_monotonicity_flat_and_composite():
    star = make_composite_star(1.0, 2.5)
    cases = (
        (make_schwarzschild_family(0.0, 1.0, 100.0), 3.0, 100.0),
        (star.pieces[0], 0.5, 2.5),
        (star.pieces[1], 2.5, 100.0),
    )
    for profile, lo, hi in cases:
        rs = np.linspace(lo, hi, 128)
        assert np.all(np.diff(profile.sphere_mean_curvature(rs) / profile.N(rs)) < 0.0)


@pytest.mark.parametrize("m", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("start", [3.0, 2.1, 2.0001])
def test_ratio_is_two_over_r_down_to_the_horizon(m, start):
    # A > 0 on the range, so the outward flow orders the spheres as r does;
    # H/N = 2/(r A N) = 2/r since A N = 1, also where A is large
    lo, hi = start * m, 100.0 * m
    p = make_schwarzschild_family(m, lo, hi)
    rs = np.linspace(lo, hi, 256)
    assert np.all(p.A(rs) > 0.0)
    ratio = p.sphere_mean_curvature(rs) / p.N(rs)
    assert np.all(np.abs(ratio * rs / 2.0 - 1.0) <= 1e-14)
    assert np.all(np.diff(ratio) < 0.0)


def test_monotonicity_fails_on_a_nan_ratio():
    # a NaN lapse reads through to H/N, and the criterion's largest rise
    # of the ratio is then NaN, which fails ``rise <= 0``
    base = make_schwarzschild_family(1.0, 3.0, 100.0)

    def holed(order):
        def f(r):
            return np.where((r > 40.0) & (r < 50.0), np.nan, base.N(r, order))
        return f

    profile = replace(base, N=RadialFunction(holed(0), holed(1), holed(2)))
    rs = np.linspace(3.0, 100.0, 64)
    ratio = profile.sphere_mean_curvature(rs) / profile.N(rs)
    assert np.isnan(ratio).any() and not np.isnan(ratio[0])
    rise = float(np.diff(ratio).max())
    assert math.isnan(rise)
    assert not rise <= 0.0


def test_monotonicity_ratios_match_a_per_radius_read():
    # the array read of H/N is the float read at each radius, bit for bit;
    # a composite is read piece by piece
    cases = (
        (make_schwarzschild_family(1.0, 3.0, 100.0), 3.0, 100.0),
        (make_schwarzschild_family(-1.0, 1.0, 100.0), 1.0, 100.0),
        (make_composite_star(1.0, 2.5), 0.5, 100.0),
        (make_composite_star(1.0, 3.5), 0.5, 100.0),
    )
    for profile, lo, hi in cases:
        rs = np.linspace(lo, hi, 97)
        piece_at = getattr(profile, "piece_at", lambda r: profile)
        pieces = [piece_at(r) for r in map(float, rs)]
        ratio = np.empty_like(rs)
        for piece in {id(q): q for q in pieces}.values():
            on = np.array([q is piece for q in pieces])
            ratio[on] = piece.sphere_mean_curvature(rs[on]) / piece.N(rs[on])
        ref = [
            float(q.sphere_mean_curvature(r) / q.N(r))
            for q, r in zip(pieces, map(float, rs))
        ]
        assert np.array_equal(ratio, ref)


def test_mass_routes_share_one_formula(wide_m1):
    r = np.geomspace(3.0, 100.0, 300)
    tab = make_tabulated(r, wide_m1.N(r), wide_m1.A(r), wide_m1.Rareal(r))
    for profile in (wide_m1, tab):
        for r0 in (3.0, 10.0, 77.0):
            mass = float(profile.Rareal(r0)) ** 2 * float(profile.nu_N(r0))
            assert audit_sphere(profile, r0).mass_i == mass
