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

from .curvature import _fd_scalar, _jets_at, _ricci
from .gluing import (
    SAMPLE_GUARD,
    Chart,
    PiecewiseManifold,
    _samples_per_chart,
    _worst_sample,
    guarded_chart_samples,
)
from .radial import (
    _UNIT,
    DomainError,
    Jet,
    ProfileKind,
    RadialFunction,
    RadialProfile,
    _Read,
    _Schwarzschild,
    _View,
    _profile,
)

__all__ = [
    "ConformalChart",
    "ConformalManifold",
    "conformal_transform",
    "conformal_scalar_residual",
    "flatness_check",
    "compactification_check",
    "CompactificationReport",
    "adm_mass_estimate",
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


_INV = RadialFunction(
    lambda r: 1.0 / r,
    lambda r: -(r ** -2.0),
    lambda r: 2.0 * r ** -3.0,
)


_INV_SQ = RadialFunction(
    lambda x: x ** -2.0,
    lambda x: -2.0 * x ** -3.0,
    lambda x: 6.0 * x ** -4.0,
)


def _conformal_factor(chart: Chart):
    """u = (1 + psi)/2 on one chart, in a cancellation-free form, as the
    formula ``u_of(N, r)`` in the lapse and the radius: numbers or arrays,
    or the lapse's jet and the seed jet.  The chart's ``u`` and its
    rescaled read (:class:`_Rescaled`) both evaluate it.

    On reflected closed-form charts psi = -s N and the straight expression
    (1 - s N)/2 loses precision wherever N is close to 1 (the far field).
    Multiplying through by (1 + s N) gives
    u = ((1 - s^2) + 2 m s^2 / r) / (2 (1 + s N)), whose numerator has no
    cancellation for collar scales s <= 1.  The identity N^2 = 1 - 2m/r
    behind it is the closed-form lapse's own, so that form is used only
    while the chart's N is the lapse of the profile's closed-form
    Schwarzschild read (which gives m), with negative collar sign; a
    replaced N takes the straight expression, whatever its kind or mass.
    """
    s_signed, n, read = chart.psi_scale, chart.profile.N, chart.profile.fused
    lapse_of = (n.read, n.ch) if type(n) is _View else None
    closed_form = isinstance(read, _Schwarzschild) and lapse_of == (read, 0)
    if s_signed < 0.0 and closed_form and abs(s_signed) <= 1.0:
        s2 = s_signed * s_signed
        c_num = 2.0 * float(read.m) * s2
        return lambda lapse, r: (
            (c_num * _INV(r) + (1.0 - s2)) / (2.0 * (-s_signed * lapse + 1.0))
        )
    return lambda lapse, r: 0.5 * (s_signed * lapse) + 0.5


class _Seeded(_Read):
    """A read of unit lapse whose A and Rareal are a formula ``at(r, ch)``
    on a number, an array or the seed jet, which gives the derivatives."""

    __slots__ = ()

    def order(self, r, ch, nu):
        if nu == 0:
            return self.at(r, ch)
        jet = self.jet(r, ch)
        return jet.d1 if nu == 1 else jet.d2

    def jet(self, r, ch) -> Jet:
        return self.at(Jet(r, 1.0, 0.0, seed=True), ch)


class _Rescaled(_Seeded):
    """Read of a chart rescaled by u^4: A u^2 and Rareal u^2 of the chart's
    read ``base``, u = ``u_of(N, r)`` (+ ``perturbation(r)``).  ``values``
    and ``jets`` read the base's channels together: on a closed-form chart
    one n = sqrt(1 - 2m/r) per radius gives them all."""

    __slots__ = ("base", "u_of", "perturbation")

    def __init__(self, base: _Read, u_of, perturbation=None):
        self.base, self.u_of, self.perturbation = base, u_of, perturbation

    def _square(self, n, r):
        u = self.u_of(n, r)
        if self.perturbation is not None:
            u = u + self.perturbation(r)
        return u * u

    def at(self, r, ch):
        if ch == 0:
            return _UNIT(r)
        base = self.base
        if isinstance(r, Jet):  # the seed: jets of the base channels
            return self._square(base.jet(r.v, 0), r) * base.jet(r.v, ch)
        return self._square(base.order(r, 0, 0), r) * base.order(r, ch, 0)

    def values(self, r):
        n, a, rareal = self.base.channel_values(r)
        c = self._square(n, r)
        return c * a, c * rareal

    def jets(self, r) -> tuple[Jet, Jet, Jet]:
        n, a, rareal = self.base.channel_jets(r)
        c = self._square(n, Jet(r, 1.0, 0.0, seed=True))
        return _UNIT.jet(r), c * a, c * rareal


def _conformal_chart(chart: Chart, perturbation=None) -> ConformalChart:
    u_of, n = _conformal_factor(chart), chart.profile.N
    u = factor = RadialFunction.expression(lambda r: u_of(n(r), r))
    if perturbation is not None:
        u = RadialFunction.expression(lambda r: factor(r) + perturbation(r))
    hat = _profile(
        _Rescaled(chart.profile._read(), u_of, perturbation),
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
    perturbation = cc.perturbation
    r_of_rho = RadialFunction.expression(lambda rho: rho + mu + 0.25 * mu * mu * _INV(rho))

    def conf2(rho):
        u = 0.5 * s_signed * n_iso(rho) + 0.5
        if perturbation is not None:
            u = u + perturbation(r_of_rho(rho))
        conf = u * (0.5 * mu * _INV(rho) + 1.0)
        return conf * conf

    r_hi = p.r_hi
    profile = _profile(
        _Isotropic(conf2),
        kind=ProfileKind.COMPOSITE_REFERENCE,
        r_lo=0.5 * mu,
        r_hi=0.5 * (r_hi - mu + math.sqrt(r_hi * (r_hi - 2.0 * mu))),
        mass=mu,
        meta={"presentation": "isotropic", "of_chart": cc.base.chart_id},
    )
    return profile, r_of_rho


class _Isotropic(_Seeded):
    """Read of :func:`_neck_isotropic_profile`: A = c and Rareal = c rho,
    c = ``conf2(rho)`` once per radius for ``values`` and ``jets``."""

    __slots__ = ("conf2",)

    def __init__(self, conf2):
        self.conf2 = conf2

    def at(self, rho, ch):
        if ch == 0:
            return _UNIT(rho)
        c = self.conf2(rho)
        return c if ch == 1 else c * rho

    def values(self, rho):
        c = self.conf2(rho)
        return c, c * rho

    def jets(self, rho) -> tuple[Jet, Jet, Jet]:
        seed = Jet(rho, 1.0, 0.0, seed=True)
        c = self.conf2(seed)
        return _UNIT.jet(rho), c, c * seed


def _pulled_back(j: Jet, x) -> Jet:
    """Jet at x of g(x) = f(1/x), from f's jet ``j`` at 1/x."""
    return Jet(j.v, -j.d1 / (x * x), j.d2 / (x ** 4) + 2.0 * j.d1 / (x ** 3))


class _Inverted(_Seeded):
    """Read of :func:`_inverted_profile`: the rescaled chart's read ``hat``
    at r = 1/x pulled back to x, a_x = A_hat(1/x) / x^2."""

    __slots__ = ("hat",)

    def __init__(self, hat: _Read):
        self.hat = hat

    def at(self, x, ch):
        if ch == 0:
            return _UNIT(x)
        if isinstance(x, Jet):
            value = _pulled_back(self.hat.jet(1.0 / x.v, ch), x.v)
        else:
            value = self.hat.order(1.0 / x, ch, 0)
        return value * _INV_SQ(x) if ch == 1 else value

    def values(self, x):
        a, rareal = self.hat.values(1.0 / x)
        return a * _INV_SQ(x), rareal


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
    p = cc.base.profile
    return _profile(
        _Inverted(cc.hat._read()),
        kind=ProfileKind.COMPOSITE_REFERENCE,
        r_lo=1.0 / p.r_hi,
        r_hi=1.0 / p.r_lo,
        mass=p.mass,
        meta={"presentation": "inverted", "of_chart": cc.base.chart_id},
    )


def _fd_scalar_refined(profile: RadialProfile, t, h):
    """One Richardson step on the second-order oracle scalar.

    Combining the oracle at steps h and h/2 cancels the leading quadratic
    truncation term.  Both steps run in one pass of the oracle's scalar
    route over the samples taken twice, each sample as its own call would
    give it, so the result still derives from metric values only.
    """
    both = _fd_scalar(profile, np.concatenate([t, t]), np.concatenate([h, 0.5 * h]))
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
    is one array pass of the oracle's scalar route (its scalar, bit for
    bit, without the lapse) over all its samples (on refined charts over
    the samples taken twice, at h and h/2).  A non-finite
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
            val = np.abs(_fd_scalar(prof, t, h))
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
    vanishing Ricci is vanishing Riemann.  The three come from the Ricci
    assembly of :func:`~photonlab.curvature.curvature_at`, after its
    domain checks, with its bits; no lapse quantity is formed.  A non-finite
    sample is reported as the maximum.
    """
    per = _samples_per_chart(conformal.charts, n_samples, 8)

    def scan(cc):
        rs = guarded_chart_samples(cc.base, per)
        _, a, rj = _jets_at(cc.hat, rs)
        _, ric_nn, ric_tt, scalar = _ricci(a, rj)
        mag = np.maximum(np.maximum(np.abs(ric_nn), np.abs(ric_tt)), np.abs(scalar))
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


def _adm_from_metric_functions(a_fn: RadialFunction, r_fn: RadialFunction, radii) -> dict:
    """ADM mass of an asymptotically flat radial end given its metric
    functions.

    Evaluates the coordinate-sphere integrand on the validated (increasing)
    radius schedule and Richardson-extrapolates in 1/r; the error bar is
    the gap between the last two extrapolants.
    """
    radii = np.array(radii)
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

    Physical ends are integrated in the working chart.  A *conformal
    reflected* end compactifies: spheres r = const become small spheres
    around the puncture of the inverted chart.  After normalizing
    coordinates by the measured limit factor kappa (so the metric tends to
    the identity), the same coordinate-sphere integrand applies on the
    shrinking schedule x = 1/r and extrapolates to the mass of the point,
    zero for a smooth compactification; its result carries ``kappa`` and
    ``schedule_x`` in place of ``radii``.  The end's chart and its rescaled
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
    if cc.base.orientation != "reflected":
        return _adm_from_metric_functions(cc.hat.A, cc.hat.Rareal, radii)
    inverted = _inverted_profile(cc)
    a_x, r_x = inverted.A, inverted.Rareal
    xs = 1.0 / np.array(radii[::-1])  # increasing
    # kappa = lim r_x / x, extrapolated linearly from the two smallest nodes
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
