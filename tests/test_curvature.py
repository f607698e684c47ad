"""Curvature layer: closed forms against the finite-difference oracle,
vacuum residuals, and the two chart-free identities."""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
import warnings

import numpy as np
import pytest

from photonlab.conformal import (
    _inverted_profile,
    _neck_isotropic_profile,
    conformal_transform,
)
from photonlab.curvature import (
    _SIN_EQUATOR,
    ORACLE_DTYPE,
    VACUUM_FIELDS,
    CurvatureSample,
    _fd_scalars,
    _stencil_sines,
    convergence_study,
    curvature_at,
    fd_curvature_oracle,
    identity_residuals,
    vacuum_residual_scan,
)
from photonlab.geodesics import fermat_geodesy_residual, photon_sphere_search
from photonlab.gluing import double, glue_neck
from photonlab.radial import (
    DomainError,
    EndpointDegeneracyError,
    RadialFunction,
    make_interior_fluid,
    make_schwarzschild_family,
    make_schwarzschild_neck,
    make_tabulated,
)

# Frozen closed-form targets at (m=1, r=3), derived independently:
# with areal radius r the normal-normal Ricci is -2m/r^3 and the
# tangential one +m/r^3; the scalar vanishes.
RIC_NN_AT_3 = -2.0 / 27.0
RIC_TT_AT_3 = 1.0 / 27.0


def test_schwarzschild_curvature_closed_form_values():
    p = make_schwarzschild_family(1.0, 2.5, 100.0)
    s = curvature_at(p, 3.0)
    assert abs(s.ric_nn - RIC_NN_AT_3) <= 1e-15
    assert abs(s.ric_tt - RIC_TT_AT_3) <= 1e-15
    assert abs(s.scalar) <= 1e-15
    assert s.max_vacuum_residual() <= 1e-12


@pytest.mark.parametrize("mass", [-1.0, 0.0, 0.5, 1.0, 2.0])
def test_vacuum_residuals_all_masses(mass):
    r_lo = 3.0 * mass if mass > 0 else 1.0
    r_hi = 100.0 * mass if mass > 0 else 100.0
    p = make_schwarzschild_family(mass, r_lo, r_hi)
    rs = np.linspace(r_lo + 1e-6, r_hi - 1e-6, 512)
    worst = max(curvature_at(p, float(r)).max_vacuum_residual() for r in rs)
    assert worst <= 1e-12


def test_minkowski_curvature_exactly_zero():
    p = make_schwarzschild_family(0.0, 1.0, 100.0)
    s = curvature_at(p, 17.0)
    for f in ("ric_nn", "ric_tt", "scalar", "hess_nn", "hess_tt", "lap_N"):
        assert getattr(s, f) == 0.0


def test_endpoint_evaluation_is_flagged():
    neck = make_schwarzschild_neck(1.0)
    with pytest.raises(EndpointDegeneracyError):
        curvature_at(neck, 2.0)


def test_trace_identity():
    p = make_schwarzschild_family(1.0, 3.0, 100.0)
    for r in np.geomspace(3.001, 99.9, 64):
        s = curvature_at(p, float(r))
        trace = s.ric_nn + 2.0 * s.ric_tt
        assert abs(s.scalar - trace) <= 1e-13 * max(1.0, abs(s.scalar))


def test_fluid_interior_scalar_is_constant_positive():
    star = make_interior_fluid(1.0, 2.5)
    k = star.meta["curvature_k"]
    s = curvature_at(star, 1.0)
    assert s.scalar > 0.0
    assert abs(s.scalar - 6.0 * k) <= 1e-12  # round cap has constant curvature
    assert s.max_vacuum_residual() > 0.01  # matter: source terms visible


# ---------------------------------------------------------------------------
# Finite-difference oracle
# ---------------------------------------------------------------------------


def test_oracle_agrees_quadratically():
    p = make_schwarzschild_family(1.0, 2.5, 100.0)
    study = convergence_study(p, 5.0)
    assert 1.8 <= study["rate"] <= 2.2
    # error at h=1e-3 consistent with the fitted model C h^2
    assert study["errors"][1] <= 10.0 * study["constant"] * 1e-6


def test_oracle_flat_space_quiet():
    # The residual on flat space is pure angular-stencil truncation and
    # follows the oracle's quadratic law: ~6.3e-8 at h=1e-3, below 1e-9
    # one step later.
    p = make_schwarzschild_family(0.0, 1.0, 100.0)
    assert fd_curvature_oracle(p, 5.0, 1e-3).max_vacuum_residual() <= 1e-7
    assert fd_curvature_oracle(p, 5.0, 1e-4).max_vacuum_residual() <= 1e-9


def test_oracle_stencil_domain_guard():
    p = make_schwarzschild_family(1.0, 3.0, 10.0)
    with pytest.raises(Exception):
        fd_curvature_oracle(p, 3.0005, 1e-3)  # stencil exits below r_lo


def test_oracle_on_tabulated_profile_within_interpolation_bound():
    src = make_schwarzschild_family(1.0, 3.0, 100.0)
    r = np.linspace(3.0, 100.0, 512)
    tab = make_tabulated(r, src.N(r), src.A(r), src.Rareal(r))
    s = fd_curvature_oracle(tab, 5.0, 1e-3)
    # residuals limited by the interpolant, not the oracle: 1.50e-5 here,
    # held to 2e-4 (a 13x margin)
    assert s.max_vacuum_residual() <= 2e-4


def _stacked(sample: CurvatureSample) -> np.ndarray:
    return np.array([getattr(sample, f.name) for f in dataclasses.fields(sample)])


def _values_only(f: RadialFunction) -> RadialFunction:
    def no_derivative(r):
        raise AssertionError("the oracle asked for a derivative")

    return RadialFunction(lambda r: f(r), no_derivative, no_derivative)


def _orders(f: RadialFunction) -> RadialFunction:
    """A leaf of f's three orders, each read as ``f(r, nu)``."""
    return RadialFunction(*(functools.partial(f, nu=nu) for nu in range(3)))


def _per_channel(profile, copy=_orders):
    """The profile with each channel replaced by ``copy`` of it, so that it
    holds no fused read; by default a copy that keeps its derivatives."""
    return dataclasses.replace(
        profile,
        N=copy(profile.N),
        A=copy(profile.A),
        Rareal=copy(profile.Rareal),
    )


def _blind(profile):
    return _per_channel(profile, _values_only)


def _presentation(chart_id: str, present):
    """Build one conformal presentation from a doubled m = 1 manifold whose
    chart profiles are first passed through ``wrap``."""
    exterior = make_schwarzschild_family(1.0, 3.0, 100.0)
    doubled = double(glue_neck(exterior, 3.0))

    def build(wrap):
        charts = tuple(
            dataclasses.replace(c, profile=wrap(c.profile)) for c in doubled.charts
        )
        conformal = conformal_transform(dataclasses.replace(doubled, charts=charts))
        return present(conformal.chart(chart_id))

    return build


_PRESENTATIONS = {
    "schwarzschild": lambda wrap: wrap(make_schwarzschild_family(1.0, 2.5, 100.0)),
    "fluid": lambda wrap: wrap(make_interior_fluid(1.0, 2.5)),
    **{
        f"hat:{cid}": _presentation(cid, lambda cc: cc.hat)
        for cid in ("exterior_reflected", "neck_reflected", "neck", "exterior")
    },
    **{
        f"isotropic:{cid}": _presentation(cid, lambda cc: _neck_isotropic_profile(cc)[0])
        for cid in ("neck_reflected", "neck")
    },
    "inverted:exterior_reflected": _presentation("exterior_reflected", _inverted_profile),
}


@pytest.mark.parametrize("case", list(_PRESENTATIONS))
def test_oracle_reads_metric_values_only(case):
    # the design rule that keeps the oracle independent of the closed form:
    # with every derivative slot raising, both the array pass and the
    # scalar call still run, and give what the unwrapped profile gives.
    # The conformal presentations are rebuilt from blinded chart profiles,
    # so their own value path may not form a derivative either.  The
    # reference is built from per-channel copies that keep their
    # derivatives: a blinded N is no longer the closed-form lapse, so the
    # conformal factor of a reflected chart takes its straight form, and
    # the reference must take the same one.
    profile = _PRESENTATIONS[case](_per_channel)
    blind = _PRESENTATIONS[case](_blind)
    lo, hi = profile.interior_window(pad=0.05)
    rs = np.linspace(lo + 0.01, hi - 0.01, 9)
    hs = np.full(rs.shape, 1e-3)
    np.testing.assert_array_equal(
        _stacked(fd_curvature_oracle(blind, rs, hs)),
        _stacked(fd_curvature_oracle(profile, rs, hs)),
    )
    r = float(rs[4])
    assert fd_curvature_oracle(blind, r, 1e-3) == fd_curvature_oracle(profile, r, 1e-3)


def _fd_scalar(profile, r, h):
    """The scan's scalar route on one part (profile, r, h)."""
    (scalar,) = _fd_scalars([(profile, r, h)])
    return scalar


def _counted(f: RadialFunction, log: list) -> RadialFunction:
    def value(r):
        log.append(r)
        return f(r)

    return RadialFunction(value, lambda r: f(r, 1), lambda r: f(r, 2))


def _count_stencil_reads(route, as_array):
    """Call ``route`` on a profile whose N, A and Rareal log their radii;
    assert that A and Rareal see exactly the seven nested stencil radius
    expressions, in one call each, and return the logs and the stencil."""
    profile = make_schwarzschild_family(1.0, 2.5, 100.0)
    calls = {"N": [], "A": [], "Rareal": []}
    counted = dataclasses.replace(
        profile, **{k: _counted(getattr(profile, k), log) for k, log in calls.items()}
    )
    rs = np.array([3.9999297178996875, 5.0, 42.0])
    hs = np.array([0.0007471803000898322, 3e-4, 2e-2])
    if not as_array:
        rs, hs = float(rs[0]), float(hs[0])
    route(counted, rs, hs)
    assert len(calls["A"]) == len(calls["Rareal"]) == 1

    r, h = np.asarray(rs, dtype=ORACLE_DTYPE), np.asarray(hs, dtype=ORACLE_DTYPE)
    rp, rm = r + h, r - h
    assert np.atleast_1d(rp - h != r)[0]
    stencil = np.array(np.broadcast_arrays(r, rp, rm, rp + h, rp - h, rm + h, rm - h))
    for k in ("A", "Rareal"):
        assert calls[k][0].dtype == ORACLE_DTYPE
        np.testing.assert_array_equal(calls[k][0], stencil)
    return calls, stencil


@pytest.mark.parametrize("as_array", [True, False], ids=["array", "scalar"])
def test_oracle_reads_each_stencil_radius_once(as_array):
    # the 25 stencil points of a sample lie on seven radius expressions, so
    # one oracle call makes one call each to N, A and Rareal; A and Rareal
    # see exactly the seven expressions as nested stencils form them, and N
    # the central three.  At r just below 4, (r + h) - h is not r.
    calls, stencil = _count_stencil_reads(fd_curvature_oracle, as_array)
    assert len(calls["N"]) == 1
    np.testing.assert_array_equal(calls["N"][0], stencil[:3])


@pytest.mark.parametrize("as_array", [True, False], ids=["array", "scalar"])
def test_fd_scalar_reads_a_and_rareal_once_and_n_never(as_array):
    # the scan's scalar route reads the metric as the oracle does, and no lapse
    calls, _ = _count_stencil_reads(_fd_scalar, as_array)
    assert calls["N"] == []


@functools.lru_cache(maxsize=None)
def _oracle_profiles(mass: float) -> dict:
    """The profiles of the oracle's golden digests (test_oracle_golden.py)."""
    exterior = make_schwarzschild_family(mass, 3.0 * mass, 100.0 * mass)
    conf = conformal_transform(double(glue_neck(exterior, 3.0 * mass)))
    nodes = np.geomspace(2.1 * mass, 100.0 * mass, 400)
    return {
        "exterior": exterior,
        "neck_isotropic": _neck_isotropic_profile(conf.chart("neck"))[0],
        "inverted_end": _inverted_profile(conf.chart("exterior_reflected")),
        "hat": conf.chart("exterior").hat,
        "tabulated": make_tabulated(
            nodes, exterior.N(nodes), exterior.A(nodes), exterior.Rareal(nodes)
        ),
        "fluid": make_interior_fluid(mass, 2.5 * mass),
    }


@pytest.mark.parametrize("mass", [0.5, 1.0, 2.0, 0.5085834761425084])
@pytest.mark.parametrize(
    "case", ["exterior", "neck_isotropic", "inverted_end", "hat", "tabulated", "fluid"]
)
def test_fd_scalar_is_the_oracle_scalar_bit_for_bit(case, mass):
    # the scan's scalar route against the oracle's scalar field, at the
    # golden digests' radii and steps, on arrays and one radius at a time
    profile = _oracle_profiles(mass)[case]
    span = profile.r_hi - profile.r_lo
    t = profile.r_lo + span * np.linspace(0.02, 0.98, 12)
    h = 2e-3 * span * (1.0 + 0.5 * np.sin(np.arange(t.size)))
    for step in (h, 0.5 * h):
        got = _fd_scalar(profile, t, step)
        assert type(got) is np.ndarray and got.dtype == np.float64
        assert got.tobytes() == fd_curvature_oracle(profile, t, step).scalar.tobytes()
        for r, hr in zip(t.tolist(), step.tolist()):
            one = _fd_scalar(profile, r, hr)
            assert type(one) is float
            want = fd_curvature_oracle(profile, r, hr).scalar
            assert np.float64(one).tobytes() == np.float64(want).tobytes()


def test_stencil_sines_take_one_sine_per_run_of_equal_steps(monkeypatch):
    # runs of equal steps, a NaN step (unequal to itself: a run of its
    # own), signed zeros (equal: one run) and a step that comes back after
    # another; on one and two axes and as a single step
    ld = ORACLE_DTYPE
    h = np.array(
        [1e-3, 1e-3, 1e-3, np.nan, np.nan, 2e-3, -0.0, 0.0, 1e-3, 1e-3], dtype=ld
    )
    sines = []
    np_sin = np.sin
    monkeypatch.setattr(np, "sin", lambda x: sines.append(x.size) or np_sin(x))
    # the six angles off the equator only: the sine of pi/2 itself is the
    # oracle's one constant
    x = ld(np.pi) / 2.0
    assert _SIN_EQUATOR == np_sin(np.full(3, x))[0] == 1.0
    for steps, runs in ((h, 6), (h.reshape(2, 5), 6), (h[0], 1), (h[:0], 0)):
        sines.clear()
        got = _stencil_sines(steps)
        assert sines == [6 * runs]
        xp, xm = x + steps, x - steps
        angles = (xp, xm, xp + steps, xp - steps, xm + steps, xm - steps)
        want = np_sin(np.stack(np.broadcast_arrays(*angles)))
        assert got.shape == want.shape and got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)


def test_oracle_array_stencil_domain_guard():
    p = make_schwarzschild_family(1.0, 3.0, 10.0)
    with pytest.raises(DomainError):
        # one stencil of three exits below r_lo
        fd_curvature_oracle(p, np.array([5.0, 3.0005, 7.0]), np.full(3, 1e-3))


def test_closed_form_on_arrays_matches_scalar_calls():
    # vectorized float64 ``**`` may round differently from the scalar one,
    # so the two routes agree to rounding, not bit for bit
    p = make_schwarzschild_family(1.0, 2.5, 100.0)
    rs = np.geomspace(2.6, 99.0, 64)
    arr = _stacked(curvature_at(p, rs))
    per_radius = np.array([_stacked(curvature_at(p, float(r))) for r in rs]).T
    assert arr.shape == per_radius.shape == (11, 64)
    np.testing.assert_allclose(arr, per_radius, rtol=1e-13, atol=1e-16)


def _table_400():
    exact = make_schwarzschild_family(1.0, 2.1, 100.0)
    r = np.geomspace(2.1, 100.0, 400)
    return make_tabulated(r, exact.N(r), exact.A(r), exact.Rareal(r))


_SCALAR_SAMPLES = {
    "closed_form": lambda conf: curvature_at(make_schwarzschild_family(1.0, 2.1, 100.0), 5.3),
    "table": lambda conf: curvature_at(_table_400(), 5.3),
    "neck": lambda conf: curvature_at(make_schwarzschild_neck(0.7), 1.75),
    "rescaled": lambda conf: curvature_at(conf.chart("exterior_reflected").hat, 5.0),
    "oracle": lambda conf: fd_curvature_oracle(make_schwarzschild_family(1.0, 3.0, 100.0), 5.0),
}


@pytest.mark.parametrize("case", list(_SCALAR_SAMPLES))
def test_scalar_sample_is_a_plain_frozen_record(case, conformal_m1):
    sample = _SCALAR_SAMPLES[case](conformal_m1)
    names = [f.name for f in dataclasses.fields(CurvatureSample)]
    fields = {name: getattr(sample, name) for name in names}
    assert type(sample) is CurvatureSample
    assert all(type(v) is float and math.isfinite(v) for v in fields.values())
    built = CurvatureSample(**fields)
    assert sample == built and built == sample
    assert repr(sample) == repr(built)
    assert hash(sample) == hash(built)
    assert list(vars(sample)) == names
    assert dataclasses.asdict(sample) == fields
    moved = dataclasses.replace(sample, r=sample.r + 1.0)
    assert type(moved) is CurvatureSample
    assert moved == CurvatureSample(**{**fields, "r": sample.r + 1.0})
    with pytest.raises(dataclasses.FrozenInstanceError):
        sample.r = 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        del sample.scalar
    assert sample == built


def test_array_sample_is_a_frozen_record_of_float_arrays():
    radii = np.geomspace(3.0, 40.0, 7)
    profile = make_schwarzschild_family(1.0, 2.1, 100.0)
    sample = curvature_at(profile, radii)
    names = [f.name for f in dataclasses.fields(CurvatureSample)]
    assert type(sample) is CurvatureSample
    assert list(vars(sample)) == names
    for name in names:
        value = getattr(sample, name)
        assert type(value) is np.ndarray and value.dtype == np.float64
        assert value.shape == radii.shape
    assert np.array_equal(sample.r, radii) and sample.r is not radii
    with pytest.raises(dataclasses.FrozenInstanceError):
        sample.lap_N = radii


def test_array_sample_copies_only_the_radii():
    # r is copied apart from the caller's array; every other field is the
    # curvature arithmetic's own result, taken as it is (vars(sample)
    # holds the scalar and the lapse Laplacian once for two fields each)
    profile = make_schwarzschild_family(1.0, 2.1, 100.0)
    radii = np.geomspace(3.0, 40.0, 7)
    for r in (radii, radii.astype(np.longdouble)):
        sample = curvature_at(profile, r)
        fields = list({id(v): v for v in vars(sample).values()}.values())
        assert len(fields) == 9 and np.array_equal(sample.r, radii)
        assert not any(np.shares_memory(v, r) for v in fields)
        assert not any(np.shares_memory(a, b) for a, b in itertools.combinations(fields, 2))


_SCAN_PROFILES = {
    "exterior": lambda: make_schwarzschild_family(1.0, 3.0, 100.0),
    "negative_mass": lambda: make_schwarzschild_family(-1.0, 1.0, 100.0),
    "fluid": lambda: make_interior_fluid(1.0, 2.5),
    "table_400": _table_400,
}


def _scalar_scan(profile, rs):
    """Residuals and worst sample from one scalar curvature_at per radius,
    the worst taken as the first strictly larger magnitude."""
    rows, worst = [], (None, None, -1.0)
    for r in rs:
        sample = curvature_at(profile, float(r))
        rows.append([getattr(sample, f) for f in VACUUM_FIELDS])
        for f, v in zip(VACUUM_FIELDS, rows[-1]):
            if abs(v) > worst[2]:
                worst = (float(r), f, abs(v))
    return np.array(rows).T, worst


@pytest.mark.parametrize("case", list(_SCAN_PROFILES))
def test_vacuum_residual_scan_matches_scalar_loop(case):
    profile = _SCAN_PROFILES[case]()
    scan = vacuum_residual_scan(profile, 512)
    ref, worst = _scalar_scan(profile, scan.r)
    assert scan.residuals.shape == ref.shape == (4, 512)
    assert scan.worst == worst
    assert scan.worst[2] == max(np.abs(ref).max(axis=0))
    if case == "table_400":
        assert np.array_equal(scan.residuals, ref)
    # numpy's vectorized ``**`` may round differently from the scalar one;
    # every cell stays within 4 ulp of max(1, |residual|)
    gap = np.abs(scan.residuals - ref)
    assert np.all(gap <= 4.0 * np.finfo(float).eps * np.maximum(1.0, np.abs(ref)))
    np.testing.assert_array_equal(scan.sample_max, np.abs(scan.residuals).max(axis=0))


def test_vacuum_residual_scan_window_is_open_interior():
    exterior = make_schwarzschild_family(1.0, 3.0, 100.0)
    scan = vacuum_residual_scan(exterior, 64)
    assert scan.r[0] == 3.0 + 1e-9 * 97.0 and scan.r[-1] == 100.0 - 1e-9 * 97.0
    fluid = make_interior_fluid(1.0, 2.5)  # the centre r = 0 is degenerate
    lo, hi = fluid.interior_window(pad=1e-6)
    assert lo > 0.0 and hi == 2.5
    scan = vacuum_residual_scan(fluid, 8)
    assert scan.r[0] == lo and scan.r[-1] == hi - 1e-9 * (hi - lo)
    with pytest.raises(DomainError, match="n must be at least 1"):
        vacuum_residual_scan(exterior, 0)


def test_vacuum_residual_scan_reports_first_nan_as_worst():
    base = make_schwarzschild_family(1.0, 3.0, 100.0)

    def holed(order):
        def f(r):
            return np.where((r > 40.0) & (r < 50.0), np.nan, base.N(r, order))
        return f

    profile = dataclasses.replace(base, N=RadialFunction(holed(0), holed(1), holed(2)))
    scan = vacuum_residual_scan(profile, 512)
    first = scan.r[scan.r > 40.0][0]
    assert scan.worst[:2] == (float(first), "vac_residual_nn")
    assert math.isnan(scan.worst[2])
    assert not np.isnan(scan.sample_max[0]) and np.isnan(scan.sample_max).any()


def test_scalar_maxima_keep_a_nan_in_any_place():
    sample = curvature_at(make_schwarzschild_family(1.0, 3.0, 100.0), 5.0)
    holed = dataclasses.replace(sample, lap_residual=math.nan)
    assert sample.max_vacuum_residual() <= 1e-12
    assert math.isnan(holed.max_vacuum_residual())
    assert sample.difference(sample) == 0.0
    assert math.isnan(holed.difference(sample))
    assert math.isnan(sample.difference(holed))


# ---------------------------------------------------------------------------
# Chart-free identities
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "profile",
    [
        make_schwarzschild_family(1.0, 3.0, 100.0),
        make_schwarzschild_family(0.0, 1.0, 100.0),
        make_interior_fluid(1.0, 2.5),
    ],
    ids=["schwarzschild", "flat", "fluid"],
)
def test_identities_hold_for_three_test_functions(profile):
    # pad keeps samples away from the collapsing center of the fluid ball,
    # where the 2/r^2 sphere curvature amplifies float roundoff past any
    # fixed absolute tolerance
    lo, hi = profile.interior_window(pad=0.02)
    coordinate = RadialFunction.coordinate()
    coord_sq = RadialFunction.expression(lambda r: coordinate(r) * coordinate(r))
    for r in np.linspace(lo + 1e-6, hi - 1e-6, 16):
        for f in (None, coordinate, coord_sq):  # None means the lapse
            res = identity_residuals(profile, float(r), f=f)
            assert abs(res["gauss"]) <= 1e-10
            assert abs(res["surface_laplacian"]) <= 1e-10


@pytest.mark.parametrize("a", [0.0, 5e-324, 1e-300])
def test_identity_residuals_refuse_a_vanishing_radial_factor(a):
    # 1/A^2 divided by zero on floats: a bare ZeroDivisionError before
    def leaf(r):
        return a + 0.0 * r

    base = make_schwarzschild_family(1.0, 2.1, 100.0)
    profile = dataclasses.replace(base, A=RadialFunction(leaf, leaf, leaf))
    with pytest.raises(DomainError, match="^identity_residuals: .* at r = 5.0$"):
        identity_residuals(profile, 5.0)


def _constant_a(a):
    """The m = 1 exterior on [2.1, 100] with A replaced by the constant a,
    a leaf whose value keeps the radius's type and shape."""
    def leaf(r):
        return a + 0.0 * r

    base = make_schwarzschild_family(1.0, 2.1, 100.0)
    return dataclasses.replace(base, A=RadialFunction(leaf, leaf, leaf))


_UNDERFLOW = "the radial factor A underflows at r = {r}: A = {a!r}, and A\\*A is below"


@pytest.mark.parametrize("a", [0.0, 5e-324, 1e-300, 1e-160])
def test_curvature_at_refuses_an_underflowing_radial_factor(a):
    # A*A zero or subnormal: a float call raised a bare ZeroDivisionError
    # (or returned infinities), an array call warned of a division by zero
    # or an overflow and returned infinities and NaNs
    profile = _constant_a(a)
    rs = np.array([4.0, 5.0, 6.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for r in (5.0, np.float64(5.0), rs):
            first = r if np.ndim(r) == 0 else 4.0
            match = "^curvature_at: " + _UNDERFLOW.format(r=first, a=a)
            with pytest.raises(DomainError, match=match):
                curvature_at(profile, r)
        with pytest.raises(DomainError, match="^curvature_at: the radial factor A"):
            vacuum_residual_scan(profile, 16)
        for r in (5.0, rs):
            with pytest.raises(DomainError, match="^fermat_geodesy_residual: the radial"):
                fermat_geodesy_residual(profile, r)
        with pytest.raises(DomainError, match="^fermat_geodesy_residual: the radial"):
            photon_sphere_search(profile)


def test_a_normal_square_and_a_nan_radial_factor_are_not_refused():
    # A*A = 1e-300 is a normal float, so 1/A^2 stays finite
    sample = curvature_at(_constant_a(1e-150), np.array([4.0, 5.0]))
    assert np.all(np.isfinite(sample.scalar))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        nan = _constant_a(math.nan)
        for r in (5.0, np.array([4.0, 5.0])):
            assert np.all(np.isnan(curvature_at(nan, r).scalar))
            assert np.all(np.isnan(fermat_geodesy_residual(nan, r)))
        assert np.isnan(vacuum_residual_scan(nan, 8).worst[2])
        # |A| is tested, not A*A, which would overflow (and warn) here
        huge = _constant_a(1e200)
        for r in (5.0, np.array([4.0, 5.0])):
            assert np.all(np.isfinite(fermat_geodesy_residual(huge, r)))
        assert photon_sphere_search(huge) == []


def test_the_first_underflowing_radius_is_named():
    base = make_schwarzschild_family(1.0, 2.1, 100.0)

    def leaf(r):
        return np.where(r > 5.5, 1e-200, 1.0 + 0.0 * r)

    profile = dataclasses.replace(base, A=RadialFunction(leaf, leaf, leaf))
    rs = np.array([[4.0, 5.0], [6.0, 7.0]])
    with pytest.raises(DomainError, match=_UNDERFLOW.format(r=6.0, a=1e-200)):
        curvature_at(profile, rs)
