"""Conformal sealing of the doubled manifold and its flatness certificates.

With the collar function psi in hand, u = (1 + psi)/2 rescales the doubled
metric by u^4.  Chartwise that stays inside the radial family — both metric
functions pick up a factor u^2 — so the whole curvature layer applies to
the rescaled geometry unchanged.  The rescaled space should be scalar-flat
everywhere (certified here by the finite-difference oracle, on samples
guarded away from gluing surfaces), asymptotically flat with zero mass on
the original end, and compactifiable on the reflected end, where the
inverted-coordinate metric tends to the constant (m/2)^4 linearly.

Conditioning.  Finite differencing is chart-sensitive even though the
scalar it certifies is not.  Two of the doubled charts are numerically
hostile: the neck chart degenerates at the doubled horizon (its radial
metric factor diverges there), and on the reflected end the coordinate
spheres shrink, so assembling the scalar divides by a vanishing sphere
radius and amplifies finite-difference noise quadratically in radius.
The residual scan therefore evaluates each chart in an equivalent
well-conditioned presentation of the same geometry: neck charts in an
isotropic radial coordinate (metric components stay order one through the
horizon), the reflected exterior in the inverted coordinate x = 1/r.  Both
are plain radial profiles, so the oracle itself is unchanged and still
sees only metric values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curvature import curvature_at, fd_curvature_oracle, radial_laplacian
from .gluing import (
    SAMPLE_GUARD,
    Chart,
    PiecewiseManifold,
    _samples_per_chart,
    _worst_sample,
    collar_function,
    guarded_chart_samples,
)
from .radial import (
    DomainError,
    Jet,
    ProfileKind,
    RadialFunction,
    RadialProfile,
    _Read,
    _Schwarzschild,
    _pulled_back,
)

__all__ = [
    "ConformalChart",
    "ConformalManifold",
    "conformal_transform",
    "conformal_scalar_residual",
    "conformal_scalar_prediction",
    "flatness_check",
    "compactification_check",
    "CompactificationReport",
    "adm_mass_estimate",
    "conformal_end_mass_estimate",
    "richardson_limit",
]

# Calibrated oracle steps and the inverted end's smallest areal scale m/r
# for the scalar residual scan (see conformal_scalar_residual).
FD_REL_STEP = 2e-5
FD_ISO_STEP = 1e-3
FD_INV_STEP = 2e-4
FD_INV_XI_MIN = 0.15


@dataclass(frozen=True)
class ConformalChart:
    base: Chart
    u: RadialFunction
    hat: RadialProfile  # rescaled geometry: A -> u^2 A, Rareal -> u^2 Rareal
    perturbation: RadialFunction | None = None


@dataclass(frozen=True)
class ConformalManifold:
    charts: tuple[ConformalChart, ...]
    source: PiecewiseManifold

    def chart(self, chart_id: str) -> ConformalChart:
        for c in self.charts:
            if c.base.chart_id == chart_id:
                return c
        raise KeyError(chart_id)


def _reciprocal_coordinate() -> RadialFunction:
    return RadialFunction(
        lambda r: 1.0 / r,
        lambda r: -(r ** -2.0),
        lambda r: 2.0 * r ** -3.0,
    )


def _conformal_factor(chart: Chart) -> RadialFunction:
    """u = (1 + psi)/2 on one chart, in a cancellation-free form.

    On reflected closed-form charts psi = -s N and the straight expression
    (1 - s N)/2 loses precision wherever N is close to 1 (the far field).
    Multiplying through by (1 + s N) gives
    u = ((1 - s^2) + 2 m s^2 / r) / (2 (1 + s N)), whose numerator has no
    cancellation for collar scales s <= 1.  The identity N^2 = 1 - 2m/r
    behind it is the closed-form lapse's own, so that form is used only
    while the chart's N is the closed-form Schwarzschild lapse (its fused
    read, which gives m), with negative collar sign; a replaced N takes the
    straight expression, whatever its kind or mass.
    """
    s_signed, n = chart.psi_scale, chart.profile.N
    if s_signed < 0.0 and isinstance(n._fused, _Schwarzschild) and abs(s_signed) <= 1.0:
        s2, inv = s_signed * s_signed, _reciprocal_coordinate()
        c_num = 2.0 * float(n._fused.m) * s2
        return RadialFunction.expression(
            lambda r: (c_num * inv(r) + (1.0 - s2)) / (2.0 * (-s_signed * n(r) + 1.0))
        )
    psi = collar_function(chart)
    return RadialFunction.expression(lambda r: 0.5 * psi(r) + 0.5)


# The stand-in lapse of the fused reads of every rescaled presentation,
# whose own lapse is the constant 1.
_UNIT = RadialFunction.constant(1.0)


class _Rescaled(_Read):
    """Fused read of a presentation whose A and Rareal share one factor.

    With c = ``factor(r)`` (the square of the presentation's conformal
    factor, on a number, an array or a seed jet), A is ``a_of(c, r)`` and
    Rareal is ``rareal_of(c, r)``, and the lapse is the constant 1.  The
    read takes c once per radius for values and jets, where A and Rareal
    read apart take it once each.
    """

    __slots__ = ("factor", "a_of", "rareal_of")

    def __init__(self, factor, a_of, rareal_of):
        super().__init__(
            _UNIT,
            RadialFunction.expression(lambda r: a_of(factor(r), r)),
            RadialFunction.expression(lambda r: rareal_of(factor(r), r)),
        )
        self.factor, self.a_of, self.rareal_of = factor, a_of, rareal_of

    def values(self, r):
        c = self.factor(r)
        return self.a_of(c, r), self.rareal_of(c, r)

    def jets(self, r) -> tuple[Jet, Jet, Jet]:
        seed = Jet(r, 1.0, 0.0, seed=True)
        c = self.factor(seed)
        return self.N.jet(r), self.a_of(c, seed), self.rareal_of(c, seed)


def _rescaled_profile(factor, a_of, rareal_of, **fields) -> RadialProfile:
    """A profile with unit lapse whose A and Rareal are read by :class:`_Rescaled`."""
    read = _Rescaled(factor, a_of, rareal_of)
    lapse = RadialFunction.constant(1.0)
    lapse._fused = read
    return RadialProfile(N=lapse, A=read.A, Rareal=read.Rareal, **fields)


def _conformal_chart(chart: Chart, perturbation=None) -> ConformalChart:
    u = factor = _conformal_factor(chart)
    if perturbation is not None:
        u = RadialFunction.expression(lambda r: factor(r) + perturbation(r))
    a, rareal = chart.profile.A, chart.profile.Rareal

    def u2(r):
        uu = u(r)
        return uu * uu

    hat = _rescaled_profile(
        u2,
        lambda c, r: c * a(r),
        lambda c, r: c * rareal(r),
        kind=ProfileKind.COMPOSITE_REFERENCE,
        r_lo=chart.profile.r_lo,
        r_hi=chart.profile.r_hi,
        mass=chart.profile.mass,
        degenerate_lo=chart.profile.degenerate_lo,
        degenerate_hi=chart.profile.degenerate_hi,
        meta={"conformal_of": chart.chart_id},
    )
    return ConformalChart(base=chart, u=u, hat=hat, perturbation=perturbation)


def conformal_transform(
    manifold: PiecewiseManifold, perturbation=None
) -> ConformalManifold:
    """Rescale every chart by u^4, u = (1 + psi)/2.

    ``perturbation``, if given, is a :class:`RadialFunction` added to u on
    every chart — the hook used by corruption drills; the untouched
    transform requires u > 0, which holds automatically when |psi| < 1.
    A probe value that is not finite and positive refuses the transform.
    """
    charts = tuple(_conformal_chart(c, perturbation) for c in manifold.charts)
    for cc in charts:
        lo, hi = cc.hat.interior_window(pad=1e-6)
        probe = np.linspace(lo, hi, 64)
        if not np.all(np.asarray(cc.u(probe), dtype=float) > 0.0):
            raise DomainError(
                f"conformal factor not finite and positive on chart {cc.base.chart_id}"
            )
    return ConformalManifold(charts=charts, source=manifold)


def conformal_scalar_prediction(
    base_profile: RadialProfile, u: RadialFunction, r
) -> float:
    """Scalar curvature of u^4 * g predicted by the conformal transformation law.

    In three dimensions R_hat = u^-5 (R u - 8 Lap u).  The sign of the
    Laplacian term is fixed empirically in the test suite by comparing this
    prediction against the finite-difference oracle on a deliberately
    non-flat rescaling; the minus sign is the one that matches.
    """
    sample = curvature_at(base_profile, r)
    uj = u.jet(r)
    lap_u = radial_laplacian(uj, base_profile.A.jet(r), base_profile.Rareal.jet(r))
    return float((sample.scalar * uj.v - 8.0 * lap_u) / uj.v ** 5)


# ---------------------------------------------------------------------------
# Well-conditioned evaluation presentations of the rescaled charts
# ---------------------------------------------------------------------------


def _neck_isotropic_profile(cc: ConformalChart) -> tuple[RadialProfile, RadialFunction]:
    """Rescaled neck chart in the isotropic radial coordinate.

    For the Schwarzschild neck of parameter mu, rho = (r - mu +
    sqrt(r (r - 2 mu)))/2 maps the chart onto [mu/2, rho(r_hi)] and sends
    the horizon to the regular sphere rho = mu/2, where the lapse becomes
    the rational function (2 rho - mu)/(2 rho + mu) and the metric is
    Omega^4 (d rho^2 + rho^2 * sphere) with Omega = 1 + mu/(2 rho).  All
    components stay order one, so finite differencing is uniformly
    conditioned across the whole chart.  Returns the profile in rho plus
    the map back to r (for reporting sample locations).
    """
    p = cc.base.profile
    if p.kind is not ProfileKind.SCHWARZSCHILD_NECK or p.mass is None:
        raise DomainError("isotropic presentation requires a closed-form neck chart")
    mu = p.mass
    s_signed = cc.base.psi_scale

    n_iso = RadialFunction(
        lambda rho: (2.0 * rho - mu) / (2.0 * rho + mu),
        lambda rho: 4.0 * mu / (2.0 * rho + mu) ** 2,
        lambda rho: -16.0 * mu / (2.0 * rho + mu) ** 3,
    )
    inv, perturbation = _reciprocal_coordinate(), cc.perturbation
    r_of_rho = RadialFunction.expression(lambda rho: rho + mu + 0.25 * mu * mu * inv(rho))

    def conf2(rho):
        u = 0.5 * s_signed * n_iso(rho) + 0.5
        if perturbation is not None:
            u = u + perturbation(r_of_rho(rho))
        conf = u * (0.5 * mu * inv(rho) + 1.0)
        return conf * conf

    def rho_of_r(r: float) -> float:
        return 0.5 * (r - mu + math.sqrt(r * (r - 2.0 * mu)))

    profile = _rescaled_profile(
        conf2,
        lambda c, rho: c,
        lambda c, rho: c * rho,
        kind=ProfileKind.COMPOSITE_REFERENCE,
        r_lo=0.5 * mu,
        r_hi=rho_of_r(p.r_hi),
        mass=mu,
        meta={"presentation": "isotropic", "of_chart": cc.base.chart_id},
    )
    return profile, r_of_rho


class _Inverted(_Read):
    """Fused read of :func:`_inverted_profile`: the rescaled chart's own
    read at r = 1/x, pulled back to x, so a fused hat takes u once per
    radius for values and jets."""

    __slots__ = ("hat",)

    def __init__(self, A, Rareal, hat: _Read):
        super().__init__(_UNIT, A, Rareal)
        self.hat = hat

    def values(self, x):
        a, rareal = self.hat.values(1.0 / x)
        return _inverted_radial_factor(a, x), rareal

    def jets(self, x) -> tuple[Jet, Jet, Jet]:
        _, a, rareal = self.hat.jets(1.0 / x)
        seed = Jet(x, 1.0, 0.0, seed=True)
        return (
            self.N.jet(x),
            _inverted_radial_factor(_pulled_back(a, x), seed),
            _pulled_back(rareal, x),
        )


def _inverted_profile(cc: ConformalChart) -> RadialProfile:
    """Rescaled reflected-end chart in the inverted coordinate x = 1/r.

    Substituting x = 1/r turns the end r -> infinity into x -> 0; the
    metric becomes a_x(x)^2 dx^2 + r_x(x)^2 * sphere with
    a_x(x) = A_hat(1/x)/x^2 and r_x(x) = Rareal_hat(1/x).  Near the
    puncture x = 0 the components tend to the constant (m/2)^4, so the far
    field — hopeless for finite differences in r, where noise is amplified
    by the shrinking sphere radius — becomes an ordinary regular region.
    This is the one builder of the inverted end: the residual scan, the
    compactification check and the conformal-end mass all read it.
    """
    a_inv, r_x = cc.hat.A.compose_inverse(), cc.hat.Rareal.compose_inverse()
    a_x = RadialFunction.expression(lambda x: _inverted_radial_factor(a_inv(x), x))
    p = cc.base.profile
    lapse = RadialFunction.constant(1.0)
    lapse._fused = _Inverted(a_x, r_x, cc.hat._read())
    return RadialProfile(
        kind=ProfileKind.COMPOSITE_REFERENCE,
        r_lo=1.0 / p.r_hi,
        r_hi=1.0 / p.r_lo,
        N=lapse,
        A=a_x,
        Rareal=r_x,
        mass=p.mass,
        meta={"presentation": "inverted", "of_chart": cc.base.chart_id},
    )


def _fd_scalar_refined(profile: RadialProfile, t, h):
    """One Richardson step on the second-order oracle scalar.

    Combining the oracle at steps h and h/2 cancels the leading quadratic
    truncation term.  Both steps run in one oracle pass over the samples
    taken twice, each sample as its own call would give it, so the result
    still derives from metric values only.
    """
    both = fd_curvature_oracle(
        profile, np.concatenate([t, t]), np.concatenate([h, 0.5 * h])
    ).scalar
    d1, d2 = both[: len(t)], both[len(t):]
    return (4.0 * d2 - d1) / 3.0


def conformal_scalar_residual(conformal: ConformalManifold, n_samples: int = 512) -> dict:
    """max |scalar curvature| of the rescaled metric, by finite differences.

    Samples are split evenly across charts and guarded away from gluing
    surfaces; each chart is evaluated in its well-conditioned presentation
    (see the module docstring) with an empirically calibrated step:
    ``FD_REL_STEP * r`` on outward exterior charts (plain oracle),
    ``FD_ISO_STEP * mu`` on isotropic neck charts and ``FD_INV_STEP / m`` on
    inverted reflected-end charts (both Richardson-refined).  Each sample
    carries its own step, shrunk to 0.45 times its distance from the
    nearer chart edge so the stencil stays inside, and each presentation
    is one array pass of the oracle over all its samples (on refined
    charts over the samples taken twice, at h and h/2).  A non-finite
    sample is reported as the maximum.

    Reflected-end coverage: close to the puncture the sphere areal radius
    R_hat -> 0 and assembling the scalar divides by R_hat^2, so *any*
    finite-difference estimate loses the tolerance there no matter the
    chart or step (measured floor ~ h^2/R_hat^4 against roundoff).  The
    scan therefore samples the reflected end down to areal scale
    xi = m/r >= ``FD_INV_XI_MIN`` — beyond that the geometry is certified
    by the closed-form flatness check and the compactification limit,
    which are immune to the amplification.  ``fd_coverage`` in the result
    records the r-interval actually sampled per chart; ``argmax`` is in
    manifold coordinates (chart id, r).
    """
    per = _samples_per_chart(conformal.charts, n_samples, 8)
    coverage: dict[str, tuple[float, float]] = {}

    def scan(cc):
        cid = cc.base.chart_id
        if cc.base.role == "neck":
            prof, to_r = _neck_isotropic_profile(cc)
            lo, hi = prof.r_lo, prof.r_hi
            pad = SAMPLE_GUARD * (hi - lo)
            t = np.linspace(lo + pad, hi - pad, per)
            h, refined = np.full(per, FD_ISO_STEP * prof.mass), True
        elif cc.base.orientation == "reflected":
            prof = _inverted_profile(cc)
            m = prof.mass if prof.mass else 1.0
            xi_hi = m * prof.r_hi * (1.0 - SAMPLE_GUARD)
            xi_lo = max(FD_INV_XI_MIN, m * prof.r_lo * (1.0 + SAMPLE_GUARD))
            t = np.geomspace(xi_lo, xi_hi, per) / m
            h, to_r, refined = np.full(per, FD_INV_STEP / m), lambda x: 1.0 / x, True
        else:
            prof, t = cc.hat, guarded_chart_samples(cc.base, per)
            h, to_r, refined = FD_REL_STEP * t, lambda r: r, False
        h = np.minimum(np.minimum(h, 0.45 * (t - prof.r_lo)), 0.45 * (prof.r_hi - t))
        if refined:
            val = np.abs(_fd_scalar_refined(prof, t, h))
        else:
            val = np.abs(fd_curvature_oracle(prof, t, h).scalar)
        rs = np.asarray(to_r(t), dtype=float)
        coverage[cid] = (float(np.min(rs)), float(np.max(rs)))
        return cid, rs, val

    worst, arg, count = _worst_sample(map(scan, conformal.charts))
    return {
        "max_abs_scalar": worst,
        "argmax": arg,
        "n_samples": count,
        "fd_coverage": coverage,
    }


def flatness_check(conformal: ConformalManifold, n_samples: int = 512) -> dict:
    """max closed-form curvature magnitude of the rescaled metric.

    Flatness of the curvature tensor itself (not just the scalar): the
    largest of |Ric(nn)|, |Ric(tt)|, |Scal| over guarded samples of every
    chart, each chart evaluated as one array.  In the radial family
    vanishing Ricci is vanishing Riemann.  A non-finite sample is reported
    as the maximum.
    """
    per = _samples_per_chart(conformal.charts, n_samples, 8)

    def scan(cc):
        rs = guarded_chart_samples(cc.base, per)
        s = curvature_at(cc.hat, rs)
        mag = np.maximum(np.maximum(np.abs(s.ric_nn), np.abs(s.ric_tt)), np.abs(s.scalar))
        return cc.base.chart_id, rs, mag

    worst, arg, count = _worst_sample(map(scan, conformal.charts))
    return {"max_curvature": worst, "argmax": arg, "n_samples": count}


# ---------------------------------------------------------------------------
# Asymptotics: ADM mass and compactification
# ---------------------------------------------------------------------------


def richardson_limit(x: np.ndarray, vals: np.ndarray) -> tuple[float, float]:
    """Limit of vals(x) as x -> 0 assuming a power series in x.

    ``x`` must decrease by a constant factor (checked); classical
    Richardson extrapolation, error bar from the last two diagonal
    entries.
    """
    x = np.asarray(x, dtype=float)
    vals = np.asarray(vals, dtype=float)
    if len(x) < 2:
        raise DomainError("need at least two extrapolation nodes")
    ratios = x[:-1] / x[1:]
    ratio = float(ratios[0])
    if not np.allclose(ratios, ratio, rtol=1e-10):
        raise DomainError("extrapolation nodes must form a geometric schedule")
    table = [vals.copy()]
    for j in range(1, len(x)):
        prev = table[-1]
        fac = ratio ** j
        table.append((fac * prev[1:] - prev[:-1]) / (fac - 1.0))
    limit = float(table[-1][-1])
    prev_diag = float(table[-2][-1])
    return limit, abs(limit - prev_diag)


def _adm_integrand(a, rr, drr, r: float) -> float:
    """Coordinate-sphere mass integrand for g = A^2 dr^2 + Rareal^2 * sphere.

    ``a``, ``rr`` and ``drr`` are A, Rareal and Rareal' at radius r.  In
    quasi-Cartesian coordinates x = r * direction the flux integral of
    (d_j g_ij - d_i g_jj) over the r-sphere reduces to
    (r/2)(A^2 - b) - (r^2/2) b' with b = (Rareal/r)^2.
    """
    a, rr, drr = float(a) ** 2, float(rr), float(drr)
    b = (rr / r) ** 2
    db = 2.0 * (rr / r) * (drr * r - rr) / (r * r)
    return 0.5 * r * (a - b) - 0.5 * r * r * db


def _adm_from_metric_functions(
    a_fn: RadialFunction,
    r_fn: RadialFunction,
    radii=(50.0, 100.0, 200.0, 400.0),
) -> dict:
    """ADM mass of an asymptotically flat radial end given its metric
    functions.

    Evaluates the coordinate-sphere integrand on the increasing radius
    schedule and Richardson-extrapolates in 1/r; the error bar is the gap
    between the last two extrapolants.
    """
    radii = np.asarray(sorted(radii), dtype=float)
    jets = [(r, r_fn.jet(r)) for r in radii.tolist()]
    vals = np.array([_adm_integrand(a_fn(r), j.v, j.d1, r) for r, j in jets])
    x = 1.0 / radii[::-1]
    limit, err = richardson_limit(x, vals[::-1])
    return {
        "mass": limit,
        "error": err,
        "radii": radii.tolist(),
        "integrand": vals.tolist(),
    }


def _validate_schedule(radii) -> tuple[float, ...]:
    radii = tuple(float(r) for r in radii)
    if len(radii) < 3:
        raise DomainError("mass schedule needs at least three radii")
    if not all(math.isfinite(r) and r > 0.0 for r in radii):
        raise DomainError(
            f"mass schedule radii must be finite and positive, got {radii}"
        )
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise DomainError("mass schedule radii must increase")
    return radii


def _reach(chart: Chart, r_far: float) -> None:
    """Refuse a schedule whose farthest radius ``r_far`` leaves a chart that
    does not extend.

    A closed-form exterior evaluates at any radius, so the asymptotic
    stages read it beyond its working truncation as it stands; any other
    kind must reach 3% past ``r_far``.
    """
    p = chart.profile
    if p.r_hi < 1.03 * r_far and p.kind is not ProfileKind.SCHWARZSCHILD_EXTERIOR:
        raise DomainError(
            "asymptotic schedule exits the chart domain and the profile kind "
            "does not extend analytically"
        )


def adm_mass_estimate(space, end_id: str, radii=(50.0, 100.0, 200.0, 400.0)) -> dict:
    """ADM mass of one end of a piecewise or conformal manifold.

    Physical ends are integrated in the working chart; a *conformal
    reflected* end is integrated in inverted coordinates around its
    puncture (see :func:`conformal_end_mass_estimate`), where a smooth
    compactification must report zero.  The end's chart and its rescaled
    ``hat`` are read as the pipeline built them, not extended: a
    closed-form exterior evaluates at any radius, and a schedule beyond
    the truncation of any other chart kind raises :class:`DomainError`.
    The radii must be finite, positive and increasing, at least three.
    """
    radii = _validate_schedule(radii)
    source = space.source if isinstance(space, ConformalManifold) else space
    if end_id not in source.ends:
        raise KeyError(end_id)
    _reach(source.chart(end_id), max(radii))
    if not isinstance(space, ConformalManifold):
        p = space.chart(end_id).profile
        return _adm_from_metric_functions(p.A, p.Rareal, radii)
    cc = space.chart(end_id)
    if cc.base.orientation == "reflected":
        return conformal_end_mass_estimate(cc, radii)
    return _adm_from_metric_functions(cc.hat.A, cc.hat.Rareal, radii)


_INV_SQ = RadialFunction(
    lambda x: x ** -2.0,
    lambda x: -2.0 * x ** -3.0,
    lambda x: 6.0 * x ** -4.0,
)


def _inverted_radial_factor(a, x):
    """a_x = A_hat(1/x) / x^2 from ``a``, A_hat at 1/x (a value, or its jet
    pulled back to x), at x (a number, or the seed jet)."""
    return a * _INV_SQ(x)


@dataclass(frozen=True)
class CompactificationReport:
    end_id: str
    schedule: tuple
    radial_factor: tuple
    tangential_factor: tuple
    limit: float
    mass_hat: float
    mass_reference: float
    mass_gap: float
    rate: float
    converged: bool


def _limit_at_zero(x_near, f_near, x_far, f_far):
    """Value at x = 0 of the line through two nodes, x_near < x_far."""
    return f_near + (f_near - f_far) * x_near / (x_far - x_near)


def compactification_check(
    conformal: ConformalManifold, R_schedule=(1e-2, 1e-3, 1e-4)
) -> CompactificationReport:
    """Convergence of the reflected-end metric factors in inverted
    coordinates.

    In the coordinate x = 1/r the reflected end closes up around x = 0.
    Both the radial factor a_x(x)^2 and the tangential factor (r_x(x)/x)^2
    must tend to the same constant c, and m_hat = 2 c^(1/4) must recover
    the component mass.  The approach is linear in x; ``rate`` is the
    fitted slope of log|factor - limit| against log x and ``converged``
    requires it within [0.75, 1.25] with the two factor limits agreeing.
    A corrupted conformal factor destroys the limit (the factors diverge),
    which reports as ``converged = False`` rather than raising.  A schedule
    with a non-finite node, or of fewer than two distinct positive nodes,
    raises :class:`DomainError`.  The reflected chart's ``hat`` is read as
    the pipeline built it, not extended, with the reach rule of
    :func:`adm_mass_estimate` at r = 1/x.  ``mass_reference`` is the mass
    parameter of that chart's profile; a profile without one (a table)
    raises :class:`DomainError`.
    """
    cc = conformal.chart(conformal.source.end("reflected"))
    xs = np.asarray(sorted(R_schedule, reverse=True), dtype=float)
    if not np.all(np.isfinite(xs)):
        raise DomainError(
            f"inverted-coordinate schedule must be finite, got {tuple(R_schedule)}"
        )
    if not (xs.size >= 2 and np.all(xs[1:] < xs[:-1])):
        raise DomainError("inverted-coordinate schedule needs >= 2 distinct nodes")
    if xs[-1] <= 0.0:
        raise DomainError("inverted-coordinate schedule must be positive")
    _reach(cc.base, 1.0 / float(xs[-1]))
    if cc.base.profile.mass is None:
        raise DomainError(
            "compactification_check needs mass_reference, the mass parameter "
            f"of the reflected end's profile; a {cc.base.profile.kind.value} "
            "profile has none"
        )
    mass_reference = float(cc.base.profile.mass)
    inverted = _inverted_profile(cc)
    a_x, r_x = inverted.A, inverted.Rareal
    f_rad = np.array([float(a_x(x)) ** 2 for x in xs])
    f_tan = np.array([(float(r_x(x)) / x) ** 2 for x in xs])
    # limit from linear-in-x extrapolation of the two smallest nodes
    lim_r = _limit_at_zero(xs[-1], f_rad[-1], xs[-2], f_rad[-2])
    lim_t = _limit_at_zero(xs[-1], f_tan[-1], xs[-2], f_tan[-2])
    limit = 0.5 * (lim_r + lim_t)
    spread = abs(lim_r - lim_t)
    rates = []
    for f in (f_rad, f_tan):
        err = np.abs(f - limit)
        if np.any(err == 0.0):
            continue
        slope = np.polyfit(np.log(xs), np.log(err), 1)[0]
        rates.append(float(slope))
    rate = float(np.mean(rates)) if rates else math.nan
    mass_hat = 2.0 * limit ** 0.25 if limit > 0.0 else math.nan
    mass_gap = (
        abs(mass_hat - mass_reference) if math.isfinite(mass_hat) else math.inf
    )
    converged = bool(
        limit > 0.0
        and math.isfinite(rate)
        and 0.75 <= rate <= 1.25
        and spread <= 0.05 * max(abs(limit), 1e-30)
    )
    return CompactificationReport(
        end_id=cc.base.chart_id,
        schedule=tuple(float(x) for x in xs),
        radial_factor=tuple(float(v) for v in f_rad),
        tangential_factor=tuple(float(v) for v in f_tan),
        limit=float(limit),
        mass_hat=float(mass_hat),
        mass_reference=mass_reference,
        mass_gap=float(mass_gap),
        rate=rate,
        converged=converged,
    )


def conformal_end_mass_estimate(
    conformal_chart: ConformalChart, radii=(50.0, 100.0, 200.0, 400.0)
) -> dict:
    """Mass integral of a reflected conformal end around its puncture.

    The end compactifies: spheres r = const become small spheres around the
    point at infinity of the inverted chart.  After normalizing coordinates
    by the measured limit factor (so the metric tends to the identity), the
    same coordinate-sphere integrand applies on the shrinking schedule
    x = 1/r and extrapolates to the mass of the point — zero for a smooth
    compactification.  ``radii`` is checked as in :func:`adm_mass_estimate`.
    """
    radii = _validate_schedule(radii)
    inverted = _inverted_profile(conformal_chart)
    a_x, r_x = inverted.A, inverted.Rareal
    xs = 1.0 / np.asarray(sorted(radii, reverse=True), dtype=float)  # increasing
    # normalization kappa = lim r_x / x, extrapolated linearly from the two
    # smallest nodes of the schedule itself
    k1, k2 = float(r_x(xs[0])) / xs[0], float(r_x(xs[1])) / xs[1]
    kappa = _limit_at_zero(xs[0], k1, xs[1], k2)
    ys = kappa * xs
    jets = [(y, r_x.jet(y / kappa)) for y in ys.tolist()]
    vals = np.array([
        _adm_integrand(float(a_x(y / kappa)) / kappa, j.v, float(j.d1) / kappa, y)
        for y, j in jets
    ])
    limit, err = richardson_limit(ys[::-1], vals[::-1])
    return {
        "mass": limit,
        "error": err,
        "kappa": float(kappa),
        "schedule_x": xs.tolist(),
        "integrand": vals.tolist(),
    }
