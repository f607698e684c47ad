"""Null geodesics: the optical residual, root search, orbit integration and
trapping verdicts."""

from __future__ import annotations

import dataclasses
import hashlib
import math
import re

import numpy as np
import pytest

from photonlab import geodesics
from photonlab.geodesics import (
    NullGeodesicState,
    _brent,
    _refine_root,
    fermat_geodesy_residual,
    impact_parameter,
    integrate_null_geodesic,
    photon_sphere_search,
    tangential_launch,
    trapping_report,
)
from photonlab.radial import (
    DomainError,
    RadialFunction,
    make_composite_star,
    make_schwarzschild_family,
    make_tabulated,
)

B_CRIT = 3.0 * math.sqrt(3.0)  # 5.196152422706632


@pytest.fixture(scope="module")
def wide_m1():
    return make_schwarzschild_family(1.0, 2.1, 100.0)


# ---------------------------------------------------------------------------
# Impact parameter
# ---------------------------------------------------------------------------


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


@pytest.mark.parametrize("n_scan", [1, 0, -3])
def test_search_refuses_fewer_than_two_scan_radii(wide_m1, n_scan):
    # one radius has no bracket, so [] would falsely read "no photon sphere"
    with pytest.raises(DomainError, match="n_scan"):
        photon_sphere_search(wide_m1, n_scan=n_scan)
    (root,) = photon_sphere_search(wide_m1, n_scan=2)  # the window's ends bracket it
    assert abs(root - 3.0) <= 1e-12


@pytest.mark.parametrize("n_scan", [2, 64, 1024])
def test_search_roots_match_a_per_node_bracket_loop(n_scan):
    for kind, profile in _bracket_profiles(1.0).items():

        def fun(x):
            return float(fermat_geodesy_residual(profile, x))

        brackets = list(_scan_brackets(profile, n_scan))
        ref = [_refine_root(fun, *bracket, 1e-14) for bracket in brackets]
        assert photon_sphere_search(profile, n_scan=n_scan) == ref, kind


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
    y0 = tangential_launch(wide_m1, 3.0)
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


def test_trapping_window_and_budget_scale_with_the_launch_radius(wide_m1):
    # 50 and 1e-3 in units of r0/3, the mass whose photon sphere is at r0
    for r0 in (3.0, 6.0):
        rep, scale = trapping_report(wide_m1, r0), r0 / 3.0
        assert (rep.affine_window, rep.trap_tol) == (50.0 * scale, 1e-3 * scale)


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


# sha256 over the repr of every recorded state, the termination, the
# constraint maximum and the drifts of the launches on, 1% outside and 1%
# inside the outermost photon sphere.  Frozen from the integrator that
# built its stages as numpy arrays and evaluated seven stages per step:
# the float stepper with first-same-as-last reuse must reproduce every
# trajectory bit for bit.  m = 1.862462730120386 has a tabulated on-sphere
# launch that ends within the step floor of its window.
GOLDEN_TRAJECTORIES = {
    ("closed", 0.7):
        "8dfea0d6d880b32625af7448a5ae221961e27b3d467e7acefd1dd70177fe90d3",
    ("tabulated", 0.7):
        "84e07d5686903207532f7c6a20b662721b717c9ffb8aeb0b12e31218ca26067d",
    ("star_vacuum", 0.7):
        "4ff5ac0c2c677dfd1e6396c836b83995a42a6e8a90e363ee043ba17885bdce57",
    ("closed", 1.862462730120386):
        "d289cf41cf4459f4ee3614b4def9949b910766c18647bfd123848596a21a150a",
    ("tabulated", 1.862462730120386):
        "11d9d9e3aa3bb60f478108b19810a442aa40f54ef89a49e1ec854d31816799d2",
    ("star_vacuum", 1.862462730120386):
        "34539f9cceb0ad42d1ac61f46e93ccaa07365011209a233d27bfd5be10c5245d",
}


def _trajectory_profiles(m):
    exact = make_schwarzschild_family(m, 2.1 * m, 100.0 * m)
    r = np.geomspace(2.1 * m, 100.0 * m, 400)
    return {
        "closed": exact,
        "tabulated": make_tabulated(r, exact.N(r), exact.A(r), exact.Rareal(r)),
        "star_vacuum": make_composite_star(m, 2.6 * m).vacuum_piece(),
    }


def _trajectory_digest(profile):
    root = photon_sphere_search(profile)[-1]
    digest = hashlib.sha256()
    for f in (1.0, 1.01, 0.99):
        r0 = root * f
        y0 = tangential_launch(profile, r0)
        res = integrate_null_geodesic(profile, y0, 50.0 * r0 / 3.0)
        fields = (res.states, res.termination, res.max_constraint,
                  res.E_drift, res.L_drift)
        digest.update(repr(fields).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("kind, m", sorted(GOLDEN_TRAJECTORIES))
def test_trajectories_match_frozen_digests(kind, m):
    digest = _trajectory_digest(_trajectory_profiles(m)[kind])
    assert digest == GOLDEN_TRAJECTORIES[kind, m]


def test_tabulated_trapping_verdicts():
    m = 1.0
    exact = make_schwarzschild_family(m, 2.1 * m, 100.0 * m)
    r = np.geomspace(2.1 * m, 100.0 * m, 400)
    table = make_tabulated(r, exact.N(r), exact.A(r), exact.Rareal(r))
    (root,) = photon_sphere_search(table)
    on = trapping_report(table, root)
    assert on.verdict != "fell_in"
    assert on.termination not in ("domain_exit_inner", "domain_exit_outer")
    assert trapping_report(table, 1.01 * root).verdict == "escaped"
    assert trapping_report(table, 0.99 * root).verdict == "fell_in"


def test_step_budget_ends_as_step_limit(wide_m1, monkeypatch):
    monkeypatch.setattr(geodesics, "_MAX_STEPS", 5)
    res = integrate_null_geodesic(wide_m1, tangential_launch(wide_m1, 3.0), 50.0)
    assert res.termination == "step_limit"
    assert 1 < len(res.states) <= 6
    rep = trapping_report(wide_m1, 3.0)
    assert (rep.termination, rep.verdict) == ("step_limit", "escaped")


def test_non_finite_profile_ends_as_non_finite_and_refuses_a_verdict(wide_m1):
    # N is NaN on (3.1, 3.2); a ray launched tangentially at 1.01 * 3m moves
    # outward into the window, which is neither an inner nor an outer exit
    n = wide_m1.N

    def order(nu):
        return lambda r: np.where((r > 3.1) & (r < 3.2), np.nan, n(r, nu))

    holed = dataclasses.replace(wide_m1, N=RadialFunction(order(0), order(1), order(2)))
    res = integrate_null_geodesic(holed, tangential_launch(holed, 3.03), 50.0)
    assert res.termination == "non_finite"
    last = res.states[-1].r
    assert 3.03 < last <= 3.1
    with pytest.raises(DomainError, match=re.escape(f"r = {last!r}")):
        trapping_report(holed, 3.03)


def test_flat_space_ray_escapes():
    flat = make_schwarzschild_family(0.0, 1.0, 1000.0)
    rep = trapping_report(flat, 7.0)
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


def _no_constructor(cls, *args, **kwargs):
    raise AssertionError("NullGeodesicState's constructor ran")


@pytest.mark.parametrize("kind", ["closed", "tabulated", "star_vacuum"])
def test_trapping_builds_state_records_without_their_constructor(kind, monkeypatch):
    profile = _trajectory_profiles(1.0)[kind]
    root = photon_sphere_search(profile)[-1]
    monkeypatch.setattr(NullGeodesicState, "__new__", _no_constructor)
    # the stand-in is live: a constructor call raises
    with pytest.raises(AssertionError, match="constructor"):
        NullGeodesicState(*[0.0] * 7)
    reports = [trapping_report(profile, root * f) for f in (1.0, 1.01, 0.99)]
    assert [rep.verdict for rep in reports[1:]] == ["escaped", "fell_in"]
    res = integrate_null_geodesic(profile, tangential_launch(profile, root), 1.0)
    assert all(type(s) is NullGeodesicState for s in res.states)


@pytest.mark.parametrize("kind", ["closed", "tabulated", "star_vacuum"])
def test_state_records_are_named_tuples_read_by_radii(kind):
    profile = _trajectory_profiles(1.0)[kind]
    root = photon_sphere_search(profile)[-1]
    res = integrate_null_geodesic(profile, tangential_launch(profile, 1.01 * root), 50.0)
    states = res.states
    assert len(states) > 100
    names = ("lam", "r", "phi", "p_r", "E", "L", "constraint")
    assert NullGeodesicState._fields == names
    for s in states:
        assert type(s) is NullGeodesicState
        assert all(type(v) is float for v in s)
        assert tuple(getattr(s, k) for k in names) == tuple(s)
        built = NullGeodesicState(**s._asdict())
        assert s == built and repr(s) == repr(built) and hash(s) == hash(built)
    with pytest.raises(AttributeError):
        states[0].r = 0.0
    assert res.radii.dtype == np.float64
    assert res.radii.tolist() == [s.r for s in states]


# ---------------------------------------------------------------------------
# Evaluation counts and argument refusals
# ---------------------------------------------------------------------------


def _counting_rhs(monkeypatch):
    calls = []
    rhs = geodesics._geodesic_rhs

    def counting(read, r, td, rd, pd):
        calls.append(r)
        return rhs(read, r, td, rd, pd)

    monkeypatch.setattr(geodesics, "_geodesic_rhs", counting)
    return calls


def test_closed_form_on_sphere_counts(wide_m1, monkeypatch):
    calls = _counting_rhs(monkeypatch)
    res = integrate_null_geodesic(wide_m1, tangential_launch(wide_m1, 3.0), 50.0)
    accepted = len(res.states) - 1
    assert res.rhs_evals == len(calls)
    # first same as last: six evaluations per attempt, plus the initial one
    assert res.rhs_evals == 1 + 6 * (accepted + res.rejected_steps)


@pytest.mark.parametrize("kind, f", [("tabulated", 1.01), ("closed", 0.99)])
def test_counts_match_a_counting_wrapper(kind, f, monkeypatch):
    # tabulated steps are rejected at spline knots; the inner launch falls
    # in and retries steps whose stages leave the chart after a few of six
    profile = _trajectory_profiles(1.0)[kind]
    root = photon_sphere_search(profile)[-1]
    calls = _counting_rhs(monkeypatch)
    res = integrate_null_geodesic(profile, tangential_launch(profile, root * f), 50.0)
    assert res.rhs_evals == len(calls)
    assert res.rejected_steps > 0
    accepted = len(res.states) - 1
    assert 6 * accepted < res.rhs_evals - 1 <= 6 * (accepted + res.rejected_steps)


# (rhs_evals, rejected_steps, len(states)) of the tangential launches at
# f * 3m, m = 1, over the default trapping window 50 r0/3.  Steps that cross
# a spline knot see the jump in its third derivative and are rejected, so a
# table costs more evaluations than the closed form; a faster stepper must
# not change how many it takes.
STEP_COUNTS = {
    ("closed", 0.99): (1862, 7, 310),
    ("closed", 1.0): (427, 9, 63),
    ("closed", 1.01): (1933, 0, 323),
    ("tabulated", 0.99): (2160, 46, 322),
    ("tabulated", 1.0): (3991, 211, 455),
    ("tabulated", 1.01): (3619, 207, 397),
}


@pytest.mark.parametrize("kind, f", sorted(STEP_COUNTS))
def test_step_counts_are_pinned(kind, f):
    profile = _trajectory_profiles(1.0)[kind]
    r0 = 3.0 * f
    y0 = tangential_launch(profile, r0)
    res = integrate_null_geodesic(profile, y0, 50.0 * r0 / 3.0)
    assert (res.rhs_evals, res.rejected_steps, len(res.states)) == STEP_COUNTS[kind, f]


# reads (N, N', A, A', Rareal, Rareal') with a zero N, A or Rareal, the
# velocity (dt, dr, dphi) at r = 4, and what numpy scalars make of them
_ZERO_READS = [
    (
        (0.0, 0.5, 2.0, 0.25, 3.0, 1.0), (1.0, 0.5, 0.1),
        (-math.inf, -0.02375, -0.03333333333333333),
        ["divide by zero encountered in scalar divide"],
    ),
    (
        (0.0, 0.0, 2.0, 0.25, 3.0, 1.0), (1.0, 0.5, 0.1),
        (math.nan, -0.02375, -0.03333333333333333),
        ["invalid value encountered in scalar divide"],
    ),
    (
        (0.75, 0.5, 0.0, 0.25, 3.0, 1.0), (1.0, 0.5, 0.1),
        (-0.6666666666666666, -math.inf, -0.03333333333333333),
        ["divide by zero encountered in scalar divide"] * 2,
    ),
    (
        (0.75, 0.5, 0.0, 0.25, 3.0, 1.0), (1.0, 0.5, 1.0),
        (-0.6666666666666666, math.nan, -0.3333333333333333),
        ["divide by zero encountered in scalar divide"] * 2
        + ["invalid value encountered in scalar subtract"],
    ),
    (
        (0.75, 0.5, 2.0, 0.25, 0.0, 1.0), (1.0, 0.5, 0.1),
        (-0.6666666666666666, -0.125, -math.inf),
        ["divide by zero encountered in scalar divide"],
    ),
]


@pytest.mark.parametrize("values, velocity, want, messages", _ZERO_READS)
def test_zero_denominator_takes_numpy_values_as_floats(
    values, velocity, want, messages
):
    with pytest.warns(RuntimeWarning) as record:
        got = geodesics._geodesic_rhs(lambda r: values, 4.0, *velocity)
    assert [str(w.message) for w in record] == messages
    assert all(type(v) is float for v in got)
    # the accelerations, then the read's own N, A and Rareal
    assert repr(got) == repr(want + values[::2])


@pytest.mark.parametrize("value", [0.0, -1e-12, math.nan, math.inf])
def test_integration_refuses_tol_and_window(wide_m1, value, monkeypatch):
    # tol = 0 or NaN rejected every attempt until the step budget ran out
    monkeypatch.setattr(geodesics, "_MAX_STEPS", 50)
    y0 = tangential_launch(wide_m1, 4.0)
    with pytest.raises(DomainError, match="tol"):
        integrate_null_geodesic(wide_m1, y0, 10.0, tol=value)
    with pytest.raises(DomainError, match="lam_max"):
        integrate_null_geodesic(wide_m1, y0, value)


@pytest.mark.parametrize("index", range(6))
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_integration_refuses_non_finite_initial_data(wide_m1, index, value):
    # a NaN radius failed the null test's `>` and ended as domain_exit_inner
    y0 = [0.0, 3.0, 0.0, 1.0, 0.0, 0.1]
    y0[index] = value
    with pytest.raises(DomainError, match="initial data must be finite"):
        integrate_null_geodesic(wide_m1, y0, 1.0)


def test_zero_momentum_launch_is_refused(wide_m1):
    # E = 0 gave a zero tangent vector, and the L drift divided by zero
    with pytest.raises(DomainError, match="E must be nonzero"):
        integrate_null_geodesic(wide_m1, [0.0, 3.0, 0.0, 0.0, 0.0, 0.0], 1.0)
