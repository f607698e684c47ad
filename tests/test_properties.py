"""Property-based checks: scale covariance, chart-independent identities,
and the collar bound under randomized inputs."""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from photonlab.curvature import curvature_at, identity_residuals
from photonlab.geodesics import photon_sphere_search
from photonlab.gluing import double, glue_neck
from photonlab.radial import (
    buchdahl_ratio,
    load_profile,
    dump_profile,
    make_interior_fluid,
    make_schwarzschild_exterior,
    make_schwarzschild_family,
)

MASSES = st.floats(min_value=0.3, max_value=4.0, allow_nan=False)


@settings(max_examples=40, deadline=None)
@given(mass=MASSES)
def test_photon_sphere_search_scale_covariance(mass):
    profile = make_schwarzschild_family(mass, 2.1 * mass, 10.0 * mass)
    roots = photon_sphere_search(profile)
    assert len(roots) == 1
    assert abs(roots[0] - 3.0 * mass) <= 1e-9 * mass


@settings(max_examples=40, deadline=None)
@given(mass=MASSES, frac=st.floats(min_value=0.05, max_value=0.95))
def test_trace_identity_everywhere(mass, frac):
    profile = make_schwarzschild_family(mass, 2.5 * mass, 50.0 * mass)
    r = 2.5 * mass + frac * (50.0 - 2.5) * mass
    s = curvature_at(profile, r)
    assert abs(s.scalar - (2.0 * s.ric_nn + 4.0 * s.ric_tt)) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(mass=MASSES, frac=st.floats(min_value=0.05, max_value=0.95))
def test_vacuum_residuals_vanish_for_the_exterior_family(mass, frac):
    profile = make_schwarzschild_exterior(mass, 2.2 * mass, 80.0 * mass)
    r = (2.2 + frac * (80.0 - 2.2)) * mass
    assert curvature_at(profile, r).max_vacuum_residual() <= 1e-11


@settings(max_examples=25, deadline=None)
@given(
    mass=st.floats(min_value=0.5, max_value=2.0),
    compactness=st.floats(min_value=0.15, max_value=0.85),
    frac=st.floats(min_value=0.1, max_value=0.9),
)
def test_chart_independent_identities_hold_inside_fluids(mass, compactness, frac):
    star_radius = 2.0 * mass / compactness
    assert buchdahl_ratio(mass, star_radius) < 8.0 / 9.0
    fluid = make_interior_fluid(mass, star_radius)
    lo, hi = fluid.interior_window(pad=0.02)
    r = lo + frac * (hi - lo)
    res = identity_residuals(fluid, r)
    assert max(abs(v) for v in res.values()) <= 1e-8


@settings(max_examples=25, deadline=None)
@given(mass=MASSES, frac=st.floats(min_value=0.0, max_value=1.0))
def test_collar_bound_on_random_doubles(mass, frac):
    ext = make_schwarzschild_family(mass, 3.0 * mass, 60.0 * mass)
    doubled = double(glue_neck(ext, 3.0 * mass))
    for chart in doubled.charts:
        lo, hi = chart.profile.r_lo, chart.profile.r_hi
        r = lo + frac * (hi - lo)
        assert abs(float(chart.psi_scale * chart.profile.N(r))) < 1.0


@settings(max_examples=40, deadline=None)
@given(
    mass=MASSES,
    lo_frac=st.floats(min_value=2.05, max_value=4.0),
    span=st.floats(min_value=1.0, max_value=200.0),
)
def test_profile_documents_round_trip(mass, lo_frac, span):
    r_lo = lo_frac * mass
    profile = make_schwarzschild_exterior(mass, r_lo, r_lo + span)
    clone = load_profile(dump_profile(profile))
    assert clone.mass == profile.mass
    assert (clone.r_lo, clone.r_hi) == (profile.r_lo, profile.r_hi)
    mid = 0.5 * (r_lo + r_lo + span)
    assert float(clone.N(mid)) == float(profile.N(mid))


@settings(max_examples=40, deadline=None)
@given(mass=MASSES)
def test_canonical_sphere_lapse_is_scale_free(mass):
    profile = make_schwarzschild_family(mass, 3.0 * mass, 50.0 * mass)
    lapse = float(profile.N(3.0 * mass))
    assert abs(lapse - 1.0 / math.sqrt(3.0)) <= 1e-14
