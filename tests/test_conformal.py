"""Conformal rescaling by u^4, the scalar-curvature law it obeys, and the
asymptotic certificates (ADM masses, inverted-end compactification)."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from photonlab.conformal import (
    _inverted_profile,
    _neck_isotropic_profile,
    _richardson,
    adm_mass_estimate,
    compactification_check,
    conformal_scalar_residual,
    conformal_transform,
    flatness_check,
    richardson_limit,
)
from photonlab.curvature import CurvatureSample, _fd_scalars, fd_curvature_oracle
from photonlab.gluing import Chart, PiecewiseManifold, double, glue_neck
from photonlab.pipeline import FLAT_TOL
from photonlab.radial import (
    DomainError,
    RadialFunction,
    make_schwarzschild_family,
    make_tabulated,
)

# double-precision evaluations of (1 +/- N(100))/2 at m = 1
U_EXTERIOR_100 = 0.9949747468305833
U_REFLECTED_100 = 0.005025253169416733


def _flat_manifold(r_hi: float = 20.0) -> PiecewiseManifold:
    flat = make_schwarzschild_family(0.0, 1.0, r_hi)
    chart = Chart(
        chart_id="exterior",
        profile=flat,
        orientation="outward",
        collar_scale=1.0,
        role="exterior",
    )
    return PiecewiseManifold(charts=(chart,), gluings=(), ends=("exterior",), boundary=None)


def _nan_window(lo: float, hi: float) -> RadialFunction:
    """Zero everywhere except NaN on the open window (lo, hi)."""

    def f(r):
        return np.where((r > lo) & (r < hi), np.nan, 0.0 * r)

    return RadialFunction(f, f, f)


def _quadratic(eps: float) -> RadialFunction:
    return RadialFunction(
        lambda r: eps * r * r,
        lambda r: 2.0 * eps * r,
        lambda r: 0.0 * r + 2.0 * eps,
    )


# ---------------------------------------------------------------------------
# The conformal factor itself
# ---------------------------------------------------------------------------


def test_factor_values(conformal_m1):
    assert abs(float(conformal_m1.chart("exterior").u(100.0)) - U_EXTERIOR_100) <= 1e-15
    assert abs(float(conformal_m1.chart("exterior_reflected").u(100.0)) - U_REFLECTED_100) <= 1e-15
    # u = (1 + psi)/2 hits exactly 1/2 at the minimal boundary where psi = 0
    assert float(conformal_m1.chart("neck").u(2.0)) == 0.5
    assert float(conformal_m1.chart("neck_reflected").u(2.0)) == 0.5


def test_factor_reflection_complement(conformal_m1, rng):
    rs = rng.uniform(3.0, 100.0, size=400)
    u = np.asarray(conformal_m1.chart("exterior").u(rs), dtype=float)
    u_m = np.asarray(conformal_m1.chart("exterior_reflected").u(rs), dtype=float)
    assert np.max(np.abs(u + u_m - 1.0)) <= 1e-15


def _reflected_with_scaled(doubled: PiecewiseManifold, channel: str):
    """The rescaled reflected exterior once its ``channel`` is scaled by 1.01."""

    def scaled(f):
        return RadialFunction(*(lambda r, nu=nu: 1.01 * f(r, nu) for nu in range(3)))

    def changed(c):
        f = scaled(getattr(c.profile, channel))
        return dataclasses.replace(c, profile=dataclasses.replace(c.profile, **{channel: f}))

    charts = tuple(
        changed(c) if c.chart_id == "exterior_reflected" else c for c in doubled.charts
    )
    return conformal_transform(dataclasses.replace(doubled, charts=charts)).chart(
        "exterior_reflected"
    )


def test_factor_of_a_replaced_lapse_is_the_straight_form(doubled_m1):
    # the cancellation-free u rests on N^2 = 1 - 2m/r, the closed-form
    # lapse's own identity; with N replaced by 1.01 N it no longer holds,
    # so the reflected exterior's u must be (1 + psi)/2 as written
    cc = _reflected_with_scaled(doubled_m1, "N")
    rs = np.array([3.5, 10.0, 50.0, 99.0])
    scale, n = cc.base.psi_scale, cc.base.profile.N
    np.testing.assert_array_equal(cc.u(rs), 0.5 * (scale * n(rs)) + 0.5)
    assert float(cc.u(50.0)) == 0.5 * float(scale * n(50.0)) + 0.5


def test_factor_of_a_replaced_radial_factor_keeps_the_closed_form(
    doubled_m1, conformal_m1
):
    # u reads only N and the collar scale, so with A replaced the lapse is
    # still the closed form's own and u keeps the cancellation-free form
    cc = _reflected_with_scaled(doubled_m1, "A")
    rs = np.array([3.5, 10.0, 50.0, 99.0])
    want = conformal_m1.chart("exterior_reflected").u(rs)
    np.testing.assert_array_equal(cc.u(rs), want)
    psi = cc.base.psi_scale * cc.base.profile.N(rs)
    assert not np.array_equal(want, 0.5 * psi + 0.5)


def test_hat_metric_is_u4_rescaling(conformal_m1):
    cc = conformal_m1.chart("exterior")
    for r in (3.5, 10.0, 50.0):
        u = float(cc.u(r))
        assert abs(float(cc.hat.A(r)) - u * u * float(cc.base.profile.A(r))) <= 1e-14
        assert (
            abs(float(cc.hat.Rareal(r)) - u * u * float(cc.base.profile.Rareal(r)))
            <= 1e-12
        )


def test_factor_must_stay_positive(doubled_m1):
    with pytest.raises(DomainError):
        conformal_transform(doubled_m1, perturbation=RadialFunction.constant(-0.6))


def test_factor_must_stay_finite(doubled_m1):
    # a NaN window wide enough to hold probe points is refused up front
    with pytest.raises(DomainError):
        conformal_transform(doubled_m1, perturbation=_nan_window(30.0, 60.0))


def test_nan_between_probe_points_surfaces_in_certificates(doubled_m1):
    # (40, 41) falls between the positivity probe's points, so the
    # transform is accepted; both scans must then report the NaN as their
    # maximum instead of skipping it, which fails the verdict's flatness gate
    conf = conformal_transform(doubled_m1, perturbation=_nan_window(40.0, 41.0))
    scalar = conformal_scalar_residual(conf, n_samples=512)
    assert math.isnan(scalar["max_abs_scalar"])
    assert 39.9 < scalar["argmax"][1] < 41.1
    flat = flatness_check(conf, n_samples=512)
    assert math.isnan(flat["max_curvature"])
    assert 40.0 < flat["argmax"][1] < 41.0
    assert not flat["max_curvature"] <= FLAT_TOL


# ---------------------------------------------------------------------------
# Scalar-curvature law:  scal_hat = u^-5 (scal u - 8 lap u)
# ---------------------------------------------------------------------------


def test_scalar_law_sign_on_flat_base():
    # flat base, u = 1 + eps r^2 (lap u = 6 eps): the law predicts
    # -48 eps / u^5, and the finite-difference oracle on the rescaled
    # metric must agree — this pins the sign of the lap-u term
    eps = 1e-3
    conf = conformal_transform(_flat_manifold(), perturbation=_quadratic(eps))
    cc = conf.chart("exterior")
    for r in (2.0, 5.0, 10.0, 15.0):
        u = float(cc.u(r))
        closed = -48.0 * eps / u**5
        measured = fd_curvature_oracle(cc.hat, r, h=1e-4).scalar
        assert abs(measured - closed) <= 1e-6


def test_sealed_double_is_scalar_flat(conformal_m1):
    rep = conformal_scalar_residual(conformal_m1, n_samples=512)
    assert rep["max_abs_scalar"] <= 1e-8
    assert rep["n_samples"] >= 500
    # every chart is scanned; the reflected end's window stops where the
    # inverted-coordinate step loses conditioning (the far region is
    # certified in closed form by the flatness check instead)
    assert set(rep["fd_coverage"]) == {
        "exterior",
        "exterior_reflected",
        "neck",
        "neck_reflected",
    }
    lo, hi = rep["fd_coverage"]["exterior_reflected"]
    assert lo <= 3.1 and hi >= 6.0


@pytest.mark.parametrize(
    "mass, value, argmax",
    [
        (0.5, 6.961922828739124e-09, ("neck_reflected", 1.0001429650428026)),
        (1.0, 1.7370004867146096e-09, ("neck_reflected", 2.0002859300856053)),
        (2.0, 3.4309160003399724e-09, ("exterior_reflected", 13.24986788217965)),
    ],
)
def test_scalar_certificate_pinned(mass, value, argmax):
    # frozen to the bit: fixed samples, steps and extended precision make
    # the finite-difference certificate exactly reproducible
    exterior = make_schwarzschild_family(mass, 3.0 * mass, 100.0 * mass)
    conf = conformal_transform(double(glue_neck(exterior, 3.0 * mass)))
    rep = conformal_scalar_residual(conf, n_samples=512)
    assert rep["max_abs_scalar"] == value
    assert rep["argmax"] == argmax
    assert rep["n_samples"] == 512


def _presentation(cc):
    """The profile conformal_scalar_residual hands the oracle for a chart."""
    if cc.base.role == "neck":
        return _neck_isotropic_profile(cc)[0]
    if cc.base.orientation == "reflected":
        return _inverted_profile(cc)
    return cc.hat


@pytest.mark.parametrize(
    "chart_id", ["exterior", "neck", "neck_reflected", "exterior_reflected"]
)
def test_oracle_array_pass_matches_per_radius_calls(conformal_m1, chart_id):
    # each sample has its own step, and the edge samples have theirs
    # shrunk exactly as the residual scan shrinks them; one array pass must
    # reproduce every per-radius call bit for bit
    prof = _presentation(conformal_m1.chart(chart_id))
    lo, hi = prof.r_lo, prof.r_hi
    span = hi - lo
    t = lo + span * np.concatenate(
        ([1e-4, 2e-3], np.linspace(0.01, 0.99, 13), [1.0 - 3e-3, 1.0 - 2e-4])
    )
    raw = 2e-3 * span * (1.0 + 0.5 * np.sin(np.arange(t.size)))
    h = np.minimum(np.minimum(raw, 0.45 * (t - lo)), 0.45 * (hi - t))
    assert np.sum(h < raw) >= 4 and np.unique(h).size == t.size
    fields = [f.name for f in dataclasses.fields(CurvatureSample)]
    arr = fd_curvature_oracle(prof, t, h)
    for i in range(t.size):
        one = fd_curvature_oracle(prof, float(t[i]), float(h[i]))
        np.testing.assert_array_equal(
            [getattr(arr, f)[i] for f in fields], [getattr(one, f) for f in fields]
        )


def _sample_bytes(sample, i=None) -> bytes:
    """Every field of a sample (of sample ``i`` of an array pass) as float64 bytes."""
    fields = [f.name for f in dataclasses.fields(CurvatureSample)]
    values = [getattr(sample, f) if i is None else getattr(sample, f)[i] for f in fields]
    return np.array(values, dtype=np.float64).tobytes()


@pytest.mark.parametrize(
    "chart_id", ["exterior", "neck", "neck_reflected", "exterior_reflected"]
)
def test_oracle_runs_of_equal_steps_match_per_radius_calls(conformal_m1, chart_id):
    # the residual scan gives a refined presentation one step for all its
    # samples, shrunk near the edges, and the refinement passes the samples
    # twice, at h and h/2: runs of equal steps, whose sines the oracle takes
    # once per run.  Every sample must still carry its own call's bits.
    prof = _presentation(conformal_m1.chart(chart_id))
    lo, hi = prof.r_lo, prof.r_hi
    span = hi - lo
    t = lo + span * np.concatenate(
        ([1e-4, 2e-3], np.linspace(0.01, 0.99, 13), [1.0 - 3e-3, 1.0 - 2e-4])
    )
    step = 2e-3 * span
    h = np.minimum(np.minimum(np.full(t.size, step), 0.45 * (t - lo)), 0.45 * (hi - t))
    assert np.sum(h < step) == 4
    both_t, both_h = np.concatenate([t, t]), np.concatenate([h, 0.5 * h])
    arr = fd_curvature_oracle(prof, both_t, both_h)
    for i in range(both_t.size):
        one = fd_curvature_oracle(prof, float(both_t[i]), float(both_h[i]))
        assert _sample_bytes(arr, i) == _sample_bytes(one)
    # the refined scalar, the Richardson step on the scalar route's one
    # pass at h and h/2, is the step on two separate passes
    d1 = fd_curvature_oracle(prof, t, h).scalar
    d2 = fd_curvature_oracle(prof, t, 0.5 * h).scalar
    (both,) = _fd_scalars([(prof, both_t, both_h)])
    assert _richardson(both).tobytes() == ((4.0 * d2 - d1) / 3.0).tobytes()
    # one scalar step broadcast against the radii
    inner = t[2:-2]
    arr = fd_curvature_oracle(prof, inner, step)
    for i in range(inner.size):
        assert _sample_bytes(arr, i) == _sample_bytes(
            fd_curvature_oracle(prof, float(inner[i]), step)
        )


def test_oracle_refuses_a_nan_step_in_an_array_pass(conformal_m1):
    # a NaN step leaves no stencil to check, as in a scalar call
    prof = _presentation(conformal_m1.chart("neck"))
    t = np.linspace(prof.r_lo, prof.r_hi, 6)[1:-1]
    h = np.full(t.size, 1e-4)
    h[2] = np.nan
    with pytest.raises(DomainError, match="stencil leaves"):
        fd_curvature_oracle(prof, t, h)
    with pytest.raises(DomainError, match="stencil leaves"):
        fd_curvature_oracle(prof, float(t[2]), math.nan)


def test_non_harmonic_perturbation_is_flagged(doubled_m1):
    bad = conformal_transform(doubled_m1, perturbation=_quadratic(1e-3 / 9.0))
    rep = conformal_scalar_residual(bad, n_samples=128)
    assert rep["max_abs_scalar"] >= 1e-3


def test_constant_shift_is_invisible_to_the_scalar(doubled_m1):
    # 1 and psi are both harmonic, so u + 0.01 still solves lap u = 0 and
    # the scalar residual cannot see the corruption ...
    shifted = conformal_transform(
        doubled_m1, perturbation=RadialFunction.constant(0.01)
    )
    rep = conformal_scalar_residual(shifted, n_samples=128)
    assert rep["max_abs_scalar"] <= 1e-8
    # ... but the compactified end detects it: the inverted-coordinate
    # metric diverges instead of tending to (m/2)^4
    comp = compactification_check(shifted)
    assert not comp.converged


def test_flatness_certificate(conformal_m1):
    rep = flatness_check(conformal_m1, n_samples=256)
    assert rep["max_curvature"] <= 1e-6


# ---------------------------------------------------------------------------
# ADM masses
# ---------------------------------------------------------------------------


def test_adm_mass_of_outward_end(doubled_m1):
    rep = adm_mass_estimate(doubled_m1, "exterior", radii=(50.0, 100.0, 200.0, 400.0))
    assert abs(rep["mass"] - 1.0) <= 1e-3
    assert rep["error"] <= 1e-3
    assert rep["radii"] == [50.0, 100.0, 200.0, 400.0]


def test_adm_mass_of_sealed_reflected_end(conformal_m1):
    rep = adm_mass_estimate(conformal_m1, "exterior_reflected")
    assert abs(rep["mass"] - 0.0) <= 1e-3
    # kappa is the sphere-radius normalization r_hat / x near the puncture
    assert abs(rep["kappa"] - 0.25) <= 1e-3


def test_adm_mass_of_flat_space_is_zero():
    rep = adm_mass_estimate(_flat_manifold(500.0), "exterior")
    assert rep["mass"] == 0.0
    assert rep["error"] == 0.0


def test_adm_mass_scale(doubled_m2=None):
    ext = make_schwarzschild_family(2.0, 6.0, 200.0)
    from photonlab.gluing import double, glue_neck

    dbl = double(glue_neck(ext, 6.0))
    rep = adm_mass_estimate(dbl, "exterior", radii=(100.0, 200.0, 400.0, 800.0))
    assert abs(rep["mass"] - 2.0) <= 2e-3


@pytest.mark.parametrize(
    "radii",
    [(50.0, 100.0, math.inf), (50.0, math.nan, 200.0), (-50.0, 100.0, 200.0)],
    ids=["inf", "nan", "negative"],
)
def test_adm_schedule_refuses_non_finite_and_non_positive_radii(conformal_m1, radii):
    # named as the mass schedule, not mistaken for a non-geometric one
    for space, end_id in (
        (conformal_m1.source, "exterior"),
        (conformal_m1, "exterior"),
        (conformal_m1, "exterior_reflected"),
    ):
        with pytest.raises(DomainError, match="mass schedule radii must be finite"):
            adm_mass_estimate(space, end_id, radii=radii)


def test_adm_schedule_validation(doubled_m1):
    with pytest.raises(DomainError):
        adm_mass_estimate(doubled_m1, "exterior", radii=(50.0, 100.0))
    with pytest.raises(DomainError):
        adm_mass_estimate(doubled_m1, "exterior", radii=(50.0, 40.0, 30.0))
    with pytest.raises(KeyError):
        adm_mass_estimate(doubled_m1, "nowhere")


# ---------------------------------------------------------------------------
# Compactification of the reflected end
# ---------------------------------------------------------------------------


def test_compactification_limit(conformal_m1):
    rep = compactification_check(conformal_m1)
    assert rep.end_id == "exterior_reflected"
    assert rep.converged
    assert abs(rep.limit - 0.0625) <= 1e-5  # (m/2)^4 at m = 1
    assert abs(rep.rate - 1.0) <= 0.25
    assert abs(rep.mass_hat - 1.0) <= 1e-4
    assert rep.mass_gap <= 1e-4


def test_compactification_error_is_linear_in_radius(conformal_m1):
    # halving the control radius halves the distance to the limit
    rep = compactification_check(conformal_m1, R_schedule=(0.02, 0.01, 0.005, 0.0025))
    for factors in (rep.radial_factor, rep.tangential_factor):
        errs = [abs(f - 0.0625) for f in factors]
        for a, b in zip(errs, errs[1:]):
            assert 0.4 <= b / a <= 0.6


def test_compactification_scale():
    from photonlab.gluing import double, glue_neck

    ext = make_schwarzschild_family(2.0, 6.0, 200.0)
    conf = conformal_transform(double(glue_neck(ext, 6.0)))
    rep = compactification_check(conf)
    assert rep.converged
    assert abs(rep.limit - 1.0) <= 2e-4  # (m/2)^4 at m = 2
    assert abs(rep.mass_hat - 2.0) <= 1e-3


@pytest.mark.parametrize(
    "schedule",
    [(1e-3,), (1e-2, 1e-3, 1e-3), (), (1e-2, 1e-3, -1e-4)],
    ids=["one_node", "repeated_node", "empty", "negative_node"],
)
def test_compactification_refuses_malformed_schedule(conformal_m1, schedule):
    # one node leaves nothing to extrapolate from and a repeated node divides
    # by a zero node gap: both are refused instead of raising IndexError or
    # reporting a NaN limit
    with pytest.raises(DomainError):
        compactification_check(conformal_m1, R_schedule=schedule)


@pytest.mark.parametrize(
    "schedule", [(math.inf, 1e-3, 1e-4), (1e-2, math.nan, 1e-4)], ids=["inf", "nan"]
)
def test_compactification_refuses_non_finite_schedule(conformal_m1, schedule):
    # an infinite node used to reach the log-log fit and fail inside LAPACK
    with pytest.raises(DomainError, match="inverted-coordinate schedule must be finite"):
        compactification_check(conformal_m1, R_schedule=schedule)


@pytest.mark.parametrize(
    "radii, message",
    [
        ((50.0,), "at least three radii"),
        ((50.0, 100.0), "at least three radii"),
        ((50.0, math.nan, 200.0), "finite and positive"),
        ((-50.0, 100.0, 200.0), "finite and positive"),
        ((50.0, 200.0, 100.0), "must increase"),
    ],
    ids=["one", "two", "nan", "negative", "decreasing"],
)
def test_conformal_end_mass_refuses_malformed_schedule(conformal_m1, radii, message):
    # the reflected end's mass around its puncture keeps the schedule rule
    # of every end: three or more finite, positive, increasing radii
    with pytest.raises(DomainError, match=message):
        adm_mass_estimate(conformal_m1, "exterior_reflected", radii)


# ---------------------------------------------------------------------------
# Reach of the asymptotic schedules, and Richardson extrapolation
# ---------------------------------------------------------------------------


def _asymptotic_stages(doubled):
    conformal = conformal_transform(doubled)
    return {
        "adm exterior": lambda: adm_mass_estimate(doubled, "exterior"),
        "adm conformal exterior": lambda: adm_mass_estimate(conformal, "exterior"),
        "adm conformal reflected": lambda: adm_mass_estimate(
            conformal, "exterior_reflected"
        ),
        "compactification": lambda: compactification_check(conformal),
    }


def test_asymptotic_stages_read_the_charts_they_certify():
    # the default schedules run to r = 400 and r = 1e4, past the chart's
    # r_hi = 100; each stage must still evaluate the chart the pipeline
    # built, not a rebuilt copy, and give what the unwrapped chart gives
    ext = make_schwarzschild_family(1.0, 3.0, 100.0)
    calls = []

    def counted(f):
        def at(nu):
            def call(r):
                calls.append(r)
                return f(r, nu)
            return call
        return RadialFunction(at(0), at(1), at(2))

    wrapped = dataclasses.replace(ext, A=counted(ext.A), Rareal=counted(ext.Rareal))
    plain = _asymptotic_stages(double(glue_neck(ext, 3.0)))
    stages = _asymptotic_stages(double(glue_neck(wrapped, 3.0)))
    for name, stage in stages.items():
        calls.clear()
        got = stage()
        assert calls, name
        assert repr(got) == repr(plain[name]()), name


def test_asymptotic_stages_refuse_to_leave_tabulated_chart():
    # a table stops at its last node, so a schedule beyond it is refused
    ext = make_schwarzschild_family(1.0, 3.0, 100.0)
    r = np.geomspace(3.0, 100.0, 500)
    tab = make_tabulated(r, ext.N(r), ext.A(r), ext.Rareal(r))
    stages = _asymptotic_stages(double(glue_neck(tab, 3.0, match_tol=1e-5)))
    for name, stage in stages.items():
        with pytest.raises(DomainError, match="does not extend analytically"):
            stage()


def test_compactification_refuses_a_table_without_a_mass_parameter():
    # the table reaches the schedule's r = 1/x = 50, so the reach rule
    # passes; a table has no mass parameter to compare m_hat with
    ext = make_schwarzschild_family(1.0, 3.0, 100.0)
    r = np.geomspace(3.0, 100.0, 500)
    tab = make_tabulated(r, ext.N(r), ext.A(r), ext.Rareal(r))
    conf = conformal_transform(double(glue_neck(tab, 3.0, match_tol=1e-5)))
    with pytest.raises(DomainError, match="compactification_check needs mass_reference"):
        compactification_check(conf, (0.1, 0.02))


def test_richardson_limit_strips_leading_order():
    x = 0.1 * 0.5 ** np.arange(5)
    vals = 3.0 + 2.0 * x + 5.0 * x * x
    limit, err = richardson_limit(x, vals)
    assert abs(limit - 3.0) <= 1e-10
    assert err <= 1e-6


def test_richardson_limit_requires_geometric_schedule():
    with pytest.raises(DomainError):
        richardson_limit(np.array([1.0, 0.5, 0.3]), np.zeros(3))
