"""Photon-sphere identity audit: residual system, the component mass and
monotonicity of H/N."""

from __future__ import annotations

import bisect
import math
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from photonlab.audit import (
    _GAUSS_NODES,
    audit_sphere,
    monotonicity_scan,
)
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
    # the centre: the fluid piece refuses r = 0, where H/N = 2/r divides by zero
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(EndpointDegeneracyError):
            monotonicity_scan(star, 0.0, 100.0)


def test_monotonicity_refuses_radii_outside_a_closed_form_domain():
    # below r = 2 the lapse is the root of a negative number: the scan must
    # refuse the range, not sample it with numpy's warning
    ext = make_schwarzschild_family(1.0, 3.0, 100.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(DomainError, match="outside profile domain"):
            monotonicity_scan(ext, 1.0, 200.0)


def test_monotonicity_refuses_radii_outside_a_table():
    # past the last node the end cubic extrapolates (H/N would read 0.005314
    # at r = 400 against 2/r = 0.005) and the scan would still pass
    src = make_schwarzschild_family(1.0, 3.0, 100.0)
    r = np.geomspace(3.0, 100.0, 400)
    tab = make_tabulated(r, src.N(r), src.A(r), src.Rareal(r))
    with pytest.raises(DomainError, match="outside profile domain"):
        monotonicity_scan(tab, 50.0, 400.0)


def _schwarzschild_arclength(m, r):
    """Integral of A = (1 - 2m/r)^(-1/2) dr, up to a constant."""
    return np.sqrt(r * (r - 2.0 * m)) + 2.0 * m * np.log(np.sqrt(r) + np.sqrt(r - 2.0 * m))


def _assert_arclength(scan, ref):
    # within 1e-12 of the total arclength at every sample
    assert np.all(np.abs(scan.flow_parameter - ref) <= 1e-12 * ref[-1])


@pytest.mark.parametrize("m", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("start", [3.0, 2.1, 2.0001])
def test_flow_parameter_is_schwarzschild_arclength(m, start):
    lo = start * m
    scan = monotonicity_scan(make_schwarzschild_family(m, lo, 100.0 * m), lo, 100.0 * m)
    F = _schwarzschild_arclength
    _assert_arclength(scan, F(m, scan.r) - F(m, lo))


def test_flow_parameter_is_the_radius_on_flat_space():
    scan = monotonicity_scan(make_schwarzschild_family(0.0, 1.0, 100.0), 3.0, 100.0)
    _assert_arclength(scan, scan.r - 3.0)


def test_flow_parameter_on_a_fluid_piece_and_across_a_star_surface():
    star = make_composite_star(1.0, 2.5)
    fluid = star.pieces[0]
    k = fluid.meta["curvature_k"]

    def F(r):  # integral of A = (1 - k r^2)^(-1/2) dr
        return np.arcsin(math.sqrt(k) * r) / math.sqrt(k)

    scan = monotonicity_scan(fluid, 0.5, 2.5, n=64)
    _assert_arclength(scan, F(scan.r) - F(0.5))
    # 128 radii from 0.5 put no sample on the surface r = 2.5
    scan = monotonicity_scan(star, 0.5, 100.0, n=128)
    assert 2.5 not in scan.r
    S = _schwarzschild_arclength
    out = np.maximum(scan.r, 2.5)
    ref = F(np.minimum(scan.r, 2.5)) - F(0.5) + S(1.0, out) - S(1.0, 2.5)
    _assert_arclength(scan, ref)


def test_flow_parameter_on_a_table_is_its_spline_integral():
    CubicSpline = pytest.importorskip("scipy.interpolate").CubicSpline
    src = make_schwarzschild_family(1.0, 2.1, 100.0)
    r = np.geomspace(2.1, 100.0, 400)
    tab = make_tabulated(r, src.N(r), src.A(r), src.Rareal(r))
    scan = monotonicity_scan(tab, 2.1, 100.0)
    spline = CubicSpline(r, src.A(r))
    _assert_arclength(scan, np.array([spline.integrate(2.1, x) for x in scan.r]))


def test_flow_parameter_on_a_table_is_exact_per_sample_interval():
    # the rule runs between the table's knots, where A is a cubic it
    # integrates exactly: every increment is the interval's exact spline
    # integral (in rationals, from the coefficients) to 1e-14, plus 2 ulp
    # of the running sum for the rounding of the sum itself
    src = make_schwarzschild_family(1.0, 2.1, 100.0)
    x = np.geomspace(2.1, 100.0, 400)
    tab = make_tabulated(x, src.N(x), src.A(x), src.Rareal(x))
    scan = monotonicity_scan(tab, 2.1, 100.0, n=256)
    coefficients = tab._read().arrays[1].T.tolist()  # A's, per interval
    knots = [Fraction(k) for k in x.tolist()]

    def primitive(i, end):  # of interval i's cubic, from its left knot
        s = end - knots[i]
        return sum(Fraction(c) * s ** (4 - k) / (4 - k) for k, c in enumerate(coefficients[i]))

    def exact(a, b):
        total, i = Fraction(0), bisect.bisect_right(knots, a) - 1
        while i < len(coefficients) and knots[i] < b:
            total += primitive(i, min(b, knots[i + 1])) - primitive(i, max(a, knots[i]))
            i += 1
        return total

    t, r = scan.flow_parameter, [Fraction(v) for v in scan.r.tolist()]
    for j in range(len(r) - 1):
        want = exact(r[j], r[j + 1])
        got = Fraction(t[j + 1]) - Fraction(t[j])
        assert abs(got - want) <= Fraction(1e-14) * want + 2 * Fraction(np.spacing(t[j + 1]))


def test_flow_parameter_reads_nan_from_a_nan_interval_on():
    base = make_schwarzschild_family(1.0, 3.0, 100.0)

    def holed(order):
        def f(r):
            return np.where((r > 40.0) & (r < 50.0), np.nan, base.A(r, order))
        return f

    profile = replace(base, A=RadialFunction(holed(0), holed(1), holed(2)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scan = monotonicity_scan(profile, 3.0, 100.0, n=64)
    t = scan.flow_parameter
    first = int(np.argmax(np.isnan(t)))
    assert 40.0 < scan.r[first] and scan.r[first - 1] < 50.0
    assert np.isnan(t[first:]).all() and np.isfinite(t[:first]).all()


def test_flow_parameter_keeps_a_nan_first_estimate():
    # A is NaN at one node of the first estimate on [3, 100] only, so the
    # halves' sum is finite; the segment must still read NaN, not that sum
    x = np.polynomial.legendre.leggauss(_GAUSS_NODES)[0]
    node = 51.5 + 48.5 * x[3]
    base = make_schwarzschild_family(1.0, 3.0, 100.0)

    def holed(r):
        return np.where(r == node, np.nan, base.A(r))

    profile = replace(base, A=RadialFunction(holed, holed, holed))
    scan = monotonicity_scan(profile, 3.0, 100.0, n=2)
    assert scan.flow_parameter[0] == 0.0 and math.isnan(scan.flow_parameter[1])


def test_flow_parameter_refuses_a_segment_that_does_not_converge():
    # A = (r - 3)^(-1/2) is integrable, but each halving of the first segment
    # is a scaled copy of it, so its estimate never settles; two samples keep
    # the halved segments far wider than the spacing of floats near r = 3
    def spike(r):
        r = np.asarray(r, dtype=float)
        return np.divide(1.0, np.sqrt(r - 3.0), out=np.full(r.shape, np.inf), where=r > 3.0)

    base = make_schwarzschild_family(1.0, 3.0, 100.0)
    profile = replace(base, A=RadialFunction(spike, spike, spike))
    with pytest.raises(DomainError, match=r"did not converge on \[3\.0, "):
        monotonicity_scan(profile, 3.0, 100.0, n=2)


def test_mass_routes_share_one_formula(wide_m1):
    r = np.geomspace(3.0, 100.0, 300)
    tab = make_tabulated(r, wide_m1.N(r), wide_m1.A(r), wide_m1.Rareal(r))
    for profile in (wide_m1, tab):
        for r0 in (3.0, 10.0, 77.0):
            mass = float(profile.Rareal(r0)) ** 2 * float(profile.nu_N(r0))
            assert audit_sphere(profile, r0).mass_i == mass
