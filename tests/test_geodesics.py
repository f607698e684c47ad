"""Null geodesics: the optical rescaling, root search, orbit integration,
trapping verdicts, and trajectory export."""

from __future__ import annotations

import math

import numpy as np
import pytest

from photonlab.geodesics import (
    _brent,
    _refine_root,
    fermat_geodesy_residual,
    fermat_profile,
    impact_parameter,
    integrate_null_geodesic,
    launch_with_momenta,
    photon_sphere_search,
    tangential_launch,
    trapping_report,
    write_trajectory_csv,
)
from photonlab.radial import (
    DomainError,
    make_composite_star,
    make_schwarzschild_family,
    make_tabulated,
)

B_CRIT = 3.0 * math.sqrt(3.0)  # 5.196152422706632


@pytest.fixture(scope="module")
def wide_m1():
    return make_schwarzschild_family(1.0, 2.1, 100.0)


# ---------------------------------------------------------------------------
# Optical rescaling
# ---------------------------------------------------------------------------


def test_fermat_profile_values(wide_m1):
    opt = fermat_profile(wide_m1)
    assert abs(float(opt.Rareal(3.0)) - B_CRIT) <= 1e-14
    assert abs(float(opt.Rareal(3.0, 1))) <= 1e-14  # critical point at 3m
    flat = make_schwarzschild_family(0.0, 1.0, 50.0)
    opt_flat = fermat_profile(flat)
    assert float(opt_flat.A(7.0)) == float(flat.A(7.0))
    assert float(opt_flat.Rareal(7.0)) == float(flat.Rareal(7.0))


def test_impact_parameter(wide_m1):
    assert abs(impact_parameter(wide_m1, 3.0) - B_CRIT) <= 1e-14
    flat = make_schwarzschild_family(0.0, 1.0, 50.0)
    assert impact_parameter(flat, 7.0) == 7.0
    # stationary exactly at the photon sphere
    h = 1e-6
    db = (impact_parameter(wide_m1, 3.0 + h) - impact_parameter(wide_m1, 3.0 - h)) / (
        2.0 * h
    )
    assert abs(db) <= 1e-9


# ---------------------------------------------------------------------------
# Root search
# ---------------------------------------------------------------------------


def test_search_finds_photon_sphere(wide_m1):
    roots = photon_sphere_search(wide_m1)
    assert len(roots) == 1
    assert abs(roots[0] - 3.0) <= 1e-10
    assert abs(fermat_geodesy_residual(wide_m1, roots[0])) <= 1e-12


def test_search_empty_for_nonpositive_mass():
    assert photon_sphere_search(make_schwarzschild_family(0.0, 1.0, 100.0)) == []
    assert photon_sphere_search(make_schwarzschild_family(-1.0, 1.0, 100.0)) == []


def test_search_scale_covariance():
    base = photon_sphere_search(make_schwarzschild_family(1.0, 2.1, 100.0))
    for m in (0.5, 2.0, 3.7):
        scaled = photon_sphere_search(
            make_schwarzschild_family(m, 2.1 * m, 100.0 * m)
        )
        assert len(scaled) == len(base) == 1
        assert abs(scaled[0] - m * base[0]) <= 1e-9 * m


def test_search_window_validation(wide_m1):
    with pytest.raises(DomainError):
        photon_sphere_search(wide_m1, r_lo=50.0, r_hi=10.0)
    assert photon_sphere_search(wide_m1, r_lo=5.0, r_hi=50.0) == []


def _scan_brackets(profile, n_scan=1024):
    """The sign-change brackets photon_sphere_search hands to the refiner."""
    lo, hi = profile.interior_window(pad=1e-7)
    grid = np.linspace(lo, hi, n_scan)
    vals = np.asarray(fermat_geodesy_residual(profile, grid), dtype=float)
    for i in range(n_scan - 1):
        if vals[i] != 0.0 and vals[i] * vals[i + 1] < 0.0:
            yield float(grid[i]), float(grid[i + 1]), vals[i], vals[i + 1]


def _bracket_profiles(m):
    exact = make_schwarzschild_family(m, 2.1 * m, 100.0 * m)
    r = np.geomspace(2.1 * m, 100.0 * m, 400)
    star = make_composite_star(m, 2.6 * m)  # enclosed: light rings inside
    return {
        "closed": exact,
        "tabulated": make_tabulated(r, exact.N(r), exact.A(r), exact.Rareal(r)),
        "star_vacuum": star.vacuum_piece(),
        "star_interior": star.pieces[0],
    }


@pytest.mark.parametrize("m", [0.5, 1.0, 1.862462730120386, 3.3])
def test_refiner_matches_scipy_brentq_bitwise(m):
    brentq = pytest.importorskip("scipy.optimize").brentq
    rtol = 1e-14
    for kind, profile in _bracket_profiles(m).items():

        def fun(x):
            return float(fermat_geodesy_residual(profile, x))

        brackets = list(_scan_brackets(profile))
        assert brackets, kind
        for lo, hi, flo, fhi in brackets:
            ref = brentq(fun, lo, hi, xtol=rtol * max(abs(lo), abs(hi), 1.0), rtol=rtol)
            assert _refine_root(fun, lo, hi, flo, fhi, rtol) == ref, (kind, lo, hi)


def test_refiner_returns_exact_zero_endpoints_unevaluated():
    def fun(x):
        raise AssertionError("an endpoint zero needs no evaluation")

    assert _refine_root(fun, 2.5, 4.0, 0.0, 1.0, 1e-14) == 2.5
    assert _refine_root(fun, 2.5, 4.0, -1.0, 0.0, 1e-14) == 4.0


def test_refiner_failures_raise_domain_error(wide_m1):
    def fun(x):
        return float(fermat_geodesy_residual(wide_m1, x))

    lo, hi = 2.5, 4.0
    assert _brent(fun, lo, hi, 1e-14, 1e-14) == pytest.approx(3.0)

    def step(x):
        # with zero tolerances the stopping test never passes and the
        # residual is never exactly zero, so every iteration is spent
        return -1.0 if x < math.pi else 1.0

    with pytest.raises(DomainError, match="did not converge in 100 iterations"):
        _brent(step, lo, hi, 0.0, 0.0)

    def holed(x):
        return math.nan if abs(x - 3.0) < 0.1 else x - 3.0

    with pytest.raises(DomainError, match="NaN"):
        _refine_root(holed, lo, hi, -0.5, 1.0, 1e-14)


# ---------------------------------------------------------------------------
# Integration
# ---------------------------------------------------------------------------


def test_circular_orbit_conservation(wide_m1):
    y0 = tangential_launch(wide_m1, 3.0, E=1.0)
    res = integrate_null_geodesic(wide_m1, y0, 100.0, tol=1e-12)
    assert res.termination == "window"
    assert res.max_constraint <= 1e-10  # null constraint, units of E^2
    assert res.E_drift <= 1e-10
    assert res.L_drift <= 1e-10
    # The circular orbit is exponentially unstable, so the tight radial
    # budget applies on the calibrated affine window, not arbitrarily far.
    res50 = integrate_null_geodesic(wide_m1, y0, 50.0, tol=1e-12)
    assert float(np.max(np.abs(res50.radii - 3.0))) <= 1e-3


def test_trapping_verdicts(wide_m1):
    on = trapping_report(wide_m1, 3.0)
    assert on.verdict == "trapped"
    assert on.max_radial_deviation <= 1e-3
    off = trapping_report(wide_m1, 4.0)
    assert off.verdict != "trapped"
    assert off.max_radial_deviation > 0.1
    inner = trapping_report(wide_m1, 2.5)
    assert inner.verdict == "fell_in"


def test_window_end_rounding_is_not_step_underflow():
    # At this mass the accepted steps add up to 7.1e-15 short of the affine
    # window, below the step floor: the run ends at the window, on sphere.
    m = 1.032153118055396
    profile = make_schwarzschild_family(m, 2.1 * m, 100.0 * m)
    (root,) = photon_sphere_search(profile)
    rep = trapping_report(profile, root)
    assert rep.max_radial_deviation == 0.0
    assert rep.termination == "window"
    assert rep.verdict == "trapped"


def test_launch_with_momenta_is_null_and_directed(wide_m1):
    e, ell = 1.0, 4.0  # below the critical 3*sqrt(3) E: radial motion at r = 5
    for outgoing, sign in ((True, 1.0), (False, -1.0)):
        y0 = launch_with_momenta(wide_m1, 5.0, e, ell, outgoing=outgoing)
        state = integrate_null_geodesic(wide_m1, y0, 1e-3).states[0]
        assert abs(state.constraint) <= 1e-12 * e * e
        assert state.E == pytest.approx(e, rel=1e-15)
        assert state.L == pytest.approx(ell, rel=1e-15)
        assert math.copysign(1.0, state.p_r) == sign and state.p_r != 0.0
    with pytest.raises(DomainError, match="incompatible"):
        launch_with_momenta(wide_m1, 5.0, e, 7.0)  # b = 7 > R/N = 6.45 at r = 5


def test_flat_space_ray_escapes():
    flat = make_schwarzschild_family(0.0, 1.0, 1000.0)
    rep = trapping_report(flat, 7.0, affine_window=100.0)
    assert rep.verdict == "escaped"
    y0 = tangential_launch(flat, 7.0)
    res = integrate_null_geodesic(flat, y0, 100.0, tol=1e-12)
    radii = res.radii
    turn = int(np.argmin(radii))
    assert np.all(np.diff(radii[turn:]) >= -1e-12)  # monotone after approach


def test_non_null_initial_data_rejected(wide_m1):
    y0 = tangential_launch(wide_m1, 3.0)
    y0[3] *= 1.5  # break the null constraint
    with pytest.raises(DomainError):
        integrate_null_geodesic(wide_m1, y0, 10.0, tol=1e-12)


def test_trajectory_csv_shape(tmp_path, wide_m1):
    y0 = tangential_launch(wide_m1, 3.0)
    res = integrate_null_geodesic(wide_m1, y0, 5.0, tol=1e-10)
    out = tmp_path / "orbit.csv"
    write_trajectory_csv(out, res)
    lines = out.read_text().splitlines()
    assert lines[0] == "lambda,r,phi,p_r,constraint"
    assert len(lines) == len(res.states) + 1
