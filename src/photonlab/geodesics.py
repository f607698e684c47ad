"""Null geodesics, the optical (Fermat) rescaling, and photon-sphere search.

A photon sphere of a static profile shows up two independent ways:

* geometrically — the sphere is minimal in the optical metric obtained by
  dividing the spatial metric by N^2, so the rescaled mean curvature
  crosses zero there (:func:`fermat_geodesy_residual`); and
* dynamically — a tangentially launched null geodesic stays on the sphere
  (:func:`trapping_report`), while nearby launches peel off exponentially.

The residual root search is the primary detector; trapping corroborates it.
Trajectories integrate the full second-order geodesic system in
(t, r, phi) with an embedded Dormand-Prince 5(4) stepper, so the energy
E = N^2 dt/dl and angular momentum L = R^2 dphi/dl are *measured*
conserved quantities, not inputs held fixed by construction.  The stepper
does its per-step arithmetic on Python floats and reports how many
right-hand-side evaluations and rejected steps a trajectory cost.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .radial import DomainError, ProfileKind, RadialFunction, RadialProfile

__all__ = [
    "fermat_profile",
    "fermat_geodesy_residual",
    "photon_sphere_search",
    "impact_parameter",
    "NullGeodesicState",
    "GeodesicResult",
    "integrate_null_geodesic",
    "tangential_launch",
    "launch_with_momenta",
    "TrappingReport",
    "trapping_report",
    "write_trajectory_csv",
]


def fermat_profile(profile: RadialProfile) -> RadialProfile:
    """Optical rescaling: divide the spatial metric by N^2.

    Returns a profile with A -> A/N and Rareal -> Rareal/N and unit lapse
    (the optical metric is Riemannian data only).  Requires N > 0 on the
    whole domain, so horizon-touching profiles must be truncated first.
    """
    lo, hi = profile.r_lo, profile.r_hi
    if profile.degenerate_lo or profile.degenerate_hi:
        raise DomainError("optical rescaling requires N > 0 up to the boundary")
    probe = np.linspace(lo, hi, 64)
    if np.any(profile.N(probe) <= 0.0):
        raise DomainError("optical rescaling requires a positive lapse")
    n, a, rareal = profile.N, profile.A, profile.Rareal
    return RadialProfile(
        kind=ProfileKind.COMPOSITE_REFERENCE,
        r_lo=lo,
        r_hi=hi,
        N=RadialFunction.constant(1.0),
        A=RadialFunction.expression(lambda r: a(r) / n(r)),
        Rareal=RadialFunction.expression(lambda r: rareal(r) / n(r)),
        mass=profile.mass,
        meta={"optical_of": profile.kind.value},
    )


def fermat_geodesy_residual(profile: RadialProfile, r):
    """Mean curvature of the r = const sphere in the optical metric.

    Simplifies to 2 (R' N - R N') / (A R); the N^2 factors of the rescaled
    profile cancel.  Zero exactly at photon spheres, positive where spheres
    bulge outward in the optical geometry.
    """
    n, dn = profile.N(r), profile.N(r, 1)
    a = profile.A(r)
    rr, drr = profile.Rareal(r), profile.Rareal(r, 1)
    return 2.0 * (drr * n - rr * dn) / (a * rr)


def impact_parameter(profile: RadialProfile, r):
    """Critical impact parameter Rareal/N of a tangential null ray at r."""
    return profile.Rareal(r) / profile.N(r)


_BRENT_MAXITER = 100


def _brent(fun, xa, xb, xtol, rtol):
    """Brent-Dekker root of ``fun`` on the sign-change bracket [xa, xb].

    A line-by-line transcription of scipy's ``brentq.c`` (Brent, 1973,
    ch. 4): inverse quadratic or secant steps while they shrink the bracket
    fast enough, bisection otherwise, and a step of at least the tolerance
    ``(xtol + rtol |x|)/2``.  Same step rules and stopping test, so it
    returns the roots ``scipy.optimize.brentq`` returns, bit for bit.
    """
    xpre, xcur = xa, xb
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = _value_not_nan(fun, xpre), _value_not_nan(fun, xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise DomainError("root refinement needs a sign change on the bracket")
    for _ in range(_BRENT_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and (
            math.copysign(1.0, fpre) != math.copysign(1.0, fcur)
        ):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (
                    -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
                )
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = _value_not_nan(fun, xcur)
    raise DomainError(
        f"root refinement did not converge in {_BRENT_MAXITER} iterations "
        f"(x = {xcur!r})"
    )


def _value_not_nan(fun, x):
    # as scipy's wrapper does: a NaN would derail every comparison above
    fx = fun(x)
    if math.isnan(fx):
        raise DomainError(f"residual is NaN at r = {x!r}; cannot refine the root")
    return fx


def _refine_root(fun, lo, hi, flo, fhi, rtol):
    """Polish a sign-change bracket down to the requested tolerance.

    Brent's method runs until the bracket collapses to floating-point
    resolution (or the requested relative tolerance if looser), so
    downstream identity checks see roots accurate to the last few ulps.
    """
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    rtol = max(rtol, 4.0 * np.finfo(float).eps)
    return float(
        _brent(fun, lo, hi, xtol=rtol * max(abs(lo), abs(hi), 1.0), rtol=rtol)
    )


def photon_sphere_search(
    profile: RadialProfile,
    r_lo: float | None = None,
    r_hi: float | None = None,
    n_scan: int = 1024,
    rtol: float = 1e-14,
) -> list[float]:
    """All roots of the optical mean curvature on the (sub)domain.

    Scans ``n_scan`` radii (at least 2, the window's ends included) for
    sign changes and refines each bracket with Brent-Dekker steps down to
    floating-point resolution.  Returns an increasing list of radii; an
    empty list is the definitive "no photon sphere" answer for profiles
    where the residual keeps one sign.
    """
    if n_scan < 2:
        raise DomainError(f"n_scan must be at least 2, got {n_scan}")
    lo0, hi0 = profile.interior_window(pad=1e-7)
    lo = lo0 if r_lo is None else max(float(r_lo), lo0)
    hi = hi0 if r_hi is None else min(float(r_hi), hi0)
    if not (lo < hi):
        raise DomainError("empty search window")
    grid = np.linspace(lo, hi, int(n_scan))
    vals = np.asarray(fermat_geodesy_residual(profile, grid), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise DomainError("optical residual not finite on the search window")

    def fun(x):
        return float(fermat_geodesy_residual(profile, x))

    # brackets: a zero at the left node (the refiner returns it) or a sign change
    f0, f1 = vals[:-1], vals[1:]
    roots = [
        _refine_root(fun, float(grid[i]), float(grid[i + 1]), f0[i], f1[i], rtol)
        for i in np.flatnonzero((f0 == 0.0) | (f0 * f1 < 0.0))
    ]
    if vals[-1] == 0.0:
        roots.append(float(grid[-1]))
    # collapse near-duplicates from roots landing on scan nodes
    out: list[float] = []
    for root in sorted(roots):
        if not out or abs(root - out[-1]) > 1e-9 * max(1.0, abs(root)):
            out.append(root)
    return out


# ---------------------------------------------------------------------------
# Null geodesic integration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NullGeodesicState:
    """One accepted integrator step of an equatorial null geodesic."""

    lam: float
    r: float
    phi: float
    p_r: float
    E: float
    L: float
    constraint: float


@dataclass(frozen=True)
class GeodesicResult:
    states: list[NullGeodesicState]
    # "window" | "domain_exit_outer" | "domain_exit_inner" | "step_underflow"
    # | "step_limit" (the budget of _MAX_STEPS step attempts ran out)
    termination: str
    max_constraint: float
    E_drift: float
    L_drift: float
    # right-hand-side calls; step attempts retried (error test or chart exit)
    rhs_evals: int
    rejected_steps: int

    @property
    def radii(self) -> np.ndarray:
        return np.array([s.r for s in self.states])


# Integration stops this far (relative to max(1, |r_lo|)) above the inner
# boundary, where horizons live, and after this many step attempts.
_INNER_MARGIN = 1e-6
_MAX_STEPS = 2_000_000

# Dormand-Prince 5(4) tableau.  The system is autonomous, so the nodes c_i
# are never read.  The last stage row is the fifth-order weight row, which
# makes the method first-same-as-last: stage 6 is the fifth-order solution.
_DP_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    _DP_B5,
)
_DP_B4 = (
    5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40
)


def _accelerations(n, dn, a, da, rr, drr, td, rd, pd):
    inv_a2 = 1.0 / (a * a)
    return (
        -2.0 * (dn / n) * td * rd,
        (rr * drr * pd * pd - n * dn * td * td) * inv_a2 - (da / a) * rd * rd,
        -2.0 * (drr / rr) * rd * pd,
    )


def _geodesic_rhs(profile: RadialProfile, y):
    """Second-order geodesic system in (t, r, phi, dt, dr, dphi).

    Returns the derivative and the (N, A, Rareal) it read at y, from which
    :func:`_observables` records the state without evaluating again.  The
    six channel values come from one read of the profile at r.  A zero
    denominator, which raises on floats, reruns on numpy scalars.
    """
    _, r, _, td, rd, pd = y
    n, dn, a, da, rr, drr = profile._slopes(r)
    try:
        tdd, rdd, pdd = _accelerations(n, dn, a, da, rr, drr, td, rd, pd)
    except ZeroDivisionError:
        f = np.float64
        acc = _accelerations(f(n), f(dn), f(a), f(da), f(rr), f(drr), td, rd, pd)
        tdd, rdd, pdd = map(float, acc)
    return (td, rd, pd, tdd, rdd, pdd), (n, a, rr)


def _observables(lam, y, values):
    _, r, phi, td, rd, pd = y
    n, a, rr = values
    try:
        constraint = -(n * td) ** 2 + (a * rd) ** 2 + (rr * pd) ** 2
    except OverflowError:  # float powers raise where numpy scalars give inf
        f = np.float64
        constraint = float(-f(n * td) ** 2 + f(a * rd) ** 2 + f(rr * pd) ** 2)
    return NullGeodesicState(
        lam=lam,
        r=r,
        phi=phi,
        p_r=a * a * rd,
        E=n * n * td,
        L=rr * rr * pd,
        constraint=constraint,
    )


def tangential_launch(
    profile: RadialProfile, r0: float, E: float = 1.0, L: float | None = None
):
    """Initial condition for a null ray launched tangent to the r0 sphere.

    When ``L`` is omitted it is set to E * Rareal/N at the launch radius
    (the tangency condition); passing it explicitly lets callers reproduce
    book values exactly.
    """
    profile.ensure_evaluable(r0, open_interior=True)
    n, _, _, _, rr, _ = profile._slopes(r0)
    if L is None:
        L = E * rr / n
    td = E / (n * n)
    pd = L / (rr * rr)
    return np.array([0.0, float(r0), 0.0, td, 0.0, pd])


def launch_with_momenta(
    profile: RadialProfile, r0: float, E: float, L: float, outgoing: bool = True
):
    """Initial condition with radial motion fixed by the null constraint."""
    profile.ensure_evaluable(r0, open_interior=True)
    n, _, a, _, rr, _ = profile._slopes(r0)
    rd_sq = ((E / n) ** 2 - (L / rr) ** 2) / (a * a)
    if rd_sq < 0.0:
        raise DomainError("E, L incompatible with a null ray at this radius")
    rd = math.sqrt(rd_sq) * (1.0 if outgoing else -1.0)
    return np.array([0.0, float(r0), 0.0, E / (n * n), rd, L / (rr * rr)])


def _require_positive(**values) -> None:
    for name, value in values.items():
        if not (math.isfinite(value) and value > 0.0):
            raise DomainError(f"{name} must be finite and positive, got {value!r}")


def integrate_null_geodesic(
    profile: RadialProfile,
    y0,
    lam_max: float,
    tol: float = 1e-12,
) -> GeodesicResult:
    """Adaptive embedded Runge-Kutta (Dormand-Prince 5(4)) trajectory.

    Steps are accepted on the mixed error norm at relative/absolute
    tolerance ``tol``; every accepted step records the state with its
    measured null-constraint violation.  Integration stops at the affine
    window ``lam_max``, on leaving the radial domain (outward or within
    ``_INNER_MARGIN`` of the inner boundary, where horizons live), on
    step-size underflow, or after ``_MAX_STEPS`` step attempts; the cause
    is reported in ``termination`` rather than silently swallowed, beside
    counts of right-hand-side evaluations and rejected step attempts.
    Steps run on Python floats.  ``lam_max`` and ``tol`` must be finite
    and positive.
    """
    _require_positive(lam_max=lam_max, tol=tol)
    lam_max, tol = float(lam_max), float(tol)
    lo, hi = profile.r_lo, profile.r_hi
    inner_stop = lo + _INNER_MARGIN * max(1.0, abs(lo))
    lam = 0.0
    y = np.array(y0, dtype=float).tolist()
    k0, values = _geodesic_rhs(profile, y)
    states = [_observables(lam, y, values)]
    e0, l0 = states[0].E, states[0].L
    max_con = abs(states[0].constraint)
    if max_con > 1e-10 * max(e0 * e0, 1e-30):
        raise DomainError(
            f"initial data is not null: constraint {states[0].constraint:.3e} "
            f"relative to E^2"
        )
    e_drift = l_drift = 0.0
    scale_e = max(abs(e0), 1e-30)
    scale_l = max(abs(l0), abs(e0) * max(abs(states[0].r), 1.0))
    # each sum runs left to right from 0 over the nonzero entries (not the
    # builtin sum, which compensates from Python 3.12); index 1 of B5/B4 is 0
    (a10,), (a20, a21), (a30, a31, a32), (a40, a41, a42, a43) = _DP_A[1:5]
    (a50, a51, a52, a53, a54), (b0, _, b2, b3, b4, b5) = _DP_A[5:]
    c0, _, c2, c3, c4, c5, c6 = _DP_B4
    evals = 1

    def stage(yi):
        nonlocal evals
        if not (lo < yi[1] < hi):
            raise _LeftDomain(yi[1])
        evals += 1
        return _geodesic_rhs(profile, yi)

    h = min(1e-3 * max(1.0, abs(y[1])), lam_max / 10.0)
    termination = "window"
    steps = rejected = 0
    while lam < lam_max:
        if steps >= _MAX_STEPS:
            termination = "step_limit"
            break
        steps += 1
        h = min(h, lam_max - lam)
        floor = 1e-14 * max(1.0, lam)
        if h < floor:
            # a remainder below the floor is rounding of the window, not a stall
            termination = "window" if lam_max - lam <= floor else "step_underflow"
            break
        # k0 is the derivative at y, kept across rejected and retried steps
        try:
            k1, _ = stage([u + h * (0.0 + a10 * p) for u, p in zip(y, k0)])
            yi = [u + h * (0.0 + a20 * p + a21 * q) for u, p, q in zip(y, k0, k1)]
            k2, _ = stage(yi)
            yi = [u + h * (0.0 + a30 * p + a31 * q + a32 * v)
                  for u, p, q, v in zip(y, k0, k1, k2)]
            k3, _ = stage(yi)
            yi = [u + h * (0.0 + a40 * p + a41 * q + a42 * v + a43 * w)
                  for u, p, q, v, w in zip(y, k0, k1, k2, k3)]
            k4, _ = stage(yi)
            yi = [u + h * (0.0 + a50 * p + a51 * q + a52 * v + a53 * w + a54 * x)
                  for u, p, q, v, w, x in zip(y, k0, k1, k2, k3, k4)]
            k5, _ = stage(yi)
            # first same as last: the last stage is the fifth-order solution,
            # and its derivative and profile values serve the next step
            y5 = [u + h * (0.0 + b0 * p + b2 * v + b3 * w + b4 * x + b5 * z)
                  for u, p, v, w, x, z in zip(y, k0, k2, k3, k4, k5)]
            k6, values = stage(y5)
        except _LeftDomain as exc:
            # A stage left the chart: either terminate (at the true edge) or
            # shrink the step and retry.
            if h <= 1e-12 * max(1.0, lam):
                termination = (
                    "domain_exit_outer" if exc.r >= hi else "domain_exit_inner"
                )
                break
            rejected += 1
            h *= 0.25
            continue
        # root mean square of the scaled 5(4) difference, summed left to right
        sq = 0.0
        for u, u5, p, v, w, x, z, g in zip(y, y5, k0, k2, k3, k4, k5, k6):
            u4 = u + h * (0.0 + c0 * p + c2 * v + c3 * w + c4 * x + c5 * z + c6 * g)
            s, s5 = abs(u), abs(u5)  # np.maximum's NaN propagation below
            q = (u5 - u4) / (tol + tol * (s if (s > s5 or s != s) else s5))
            sq += q * q
        err = math.sqrt(sq / 6)
        if err <= 1.0:
            lam += h
            y, k0 = y5, k6
            st = _observables(lam, y, values)
            states.append(st)
            if not (inner_stop < y[1] < hi):
                termination = (
                    "domain_exit_outer" if y[1] >= hi else "domain_exit_inner"
                )
                break
            max_con = max(max_con, abs(st.constraint))
            e_drift = max(e_drift, abs(st.E - e0) / scale_e)
            l_drift = max(l_drift, abs(st.L - l0) / scale_l)
        else:
            rejected += 1
        h *= min(5.0, max(0.2, 0.9 * (1.0 / err) ** 0.2 if err > 0.0 else 5.0))
    return GeodesicResult(
        states=states,
        termination=termination,
        max_constraint=max_con,
        E_drift=e_drift,
        L_drift=l_drift,
        rhs_evals=evals,
        rejected_steps=rejected,
    )


class _LeftDomain(Exception):
    def __init__(self, r):
        self.r = r


# ---------------------------------------------------------------------------
# Trapping verdicts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrappingReport:
    r0: float
    verdict: str  # "trapped" | "escaped" | "fell_in"
    max_radial_deviation: float
    affine_window: float
    trap_tol: float
    termination: str
    max_constraint: float


def trapping_report(
    profile: RadialProfile,
    r0: float,
    affine_window: float | None = None,
    trap_tol: float | None = None,
    tol: float = 1e-12,
    E: float = 1.0,
) -> TrappingReport:
    """Integrate a tangential launch and classify the orbit.

    Defaults scale with the launch radius: the affine window is 50 and the
    deviation budget 1e-3 in units of r0/3 (the mass of the profile whose
    photon sphere sits at r0).  The budget is deliberately loose enough
    that integrator noise at tol = 1e-12 cannot fake an escape, yet tight
    against the exponential peel-off of off-sphere launches.  Windows and
    budgets (and ``tol``) must be finite and positive.
    """
    scale = r0 / 3.0
    window = 50.0 * scale if affine_window is None else float(affine_window)
    budget = 1e-3 * scale if trap_tol is None else float(trap_tol)
    y0 = tangential_launch(profile, r0, E=E)
    _require_positive(affine_window=window, trap_tol=budget)
    res = integrate_null_geodesic(profile, y0, window, tol=tol)
    dev = float(np.max(np.abs(res.radii - r0)))
    if res.termination == "domain_exit_inner":
        verdict = "fell_in"
    elif res.termination == "window" and dev <= budget:
        verdict = "trapped"
    else:
        verdict = "escaped"
    return TrappingReport(
        r0=float(r0),
        verdict=verdict,
        max_radial_deviation=dev,
        affine_window=window,
        trap_tol=budget,
        termination=res.termination,
        max_constraint=res.max_constraint,
    )


def write_trajectory_csv(path, result: GeodesicResult) -> None:
    """Emit one row per accepted step: lambda, r, phi, p_r, constraint."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["lambda", "r", "phi", "p_r", "constraint"])
        for s in result.states:
            writer.writerow([f"{v:.17g}" for v in (s.lam, s.r, s.phi, s.p_r, s.constraint)])
