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
does its per-step arithmetic on Python floats, written out stage by stage:
the system is autonomous, so its first five stages carry only (r, dt/dl,
dr/dl, dphi/dl), and t and phi enter the fifth-order solution and the
error norm alone.  Each stage reads N, A, Rareal and their slopes once,
through the profile's read (:meth:`RadialProfile._read`) resolved once
per trajectory.  A trajectory reports how many right-hand-side
evaluations and rejected steps it cost.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .radial import (
    DomainError,
    ProfileKind,
    RadialFunction,
    RadialProfile,
    _require_finite,
)

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


def _geodesic_rhs(read, r, td, rd, pd):
    """Accelerations of the geodesic system at radius r and velocity
    (dt, dr, dphi), and the (N, A, Rareal) read there.

    ``read`` is the ``slopes`` of the profile's read
    (:meth:`RadialProfile._read`), resolved once per trajectory: the six
    channel values at r as floats.  The system is autonomous, so t and phi
    do not enter.  :func:`_observables` records a state from the values
    without evaluating again.  A zero denominator, which raises on floats,
    reruns on numpy scalars.
    """
    n, dn, a, da, rr, drr = read(r)
    try:
        tdd, rdd, pdd = _accelerations(n, dn, a, da, rr, drr, td, rd, pd)
    except ZeroDivisionError:
        f = np.float64
        acc = _accelerations(f(n), f(dn), f(a), f(da), f(rr), f(drr), td, rd, pd)
        tdd, rdd, pdd = map(float, acc)
    return tdd, rdd, pdd, n, a, rr


def _observables(lam, r, phi, td, rd, pd, n, a, rr):
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
    book values exactly.  ``E`` and ``L`` must be finite.
    """
    _require_finite(E=E, L=L)
    profile.ensure_evaluable(r0, open_interior=True)
    n, _, _, _, rr, _ = profile._read().slopes(r0)
    if L is None:
        L = E * rr / n
    td = E / (n * n)
    pd = L / (rr * rr)
    return np.array([0.0, float(r0), 0.0, td, 0.0, pd])


def launch_with_momenta(
    profile: RadialProfile, r0: float, E: float, L: float, outgoing: bool = True
):
    """Initial condition with radial motion fixed by the null constraint.

    ``E`` and ``L`` must be finite.
    """
    _require_finite(E=E, L=L)
    profile.ensure_evaluable(r0, open_interior=True)
    n, _, a, _, rr, _ = profile._read().slopes(r0)
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
    and positive, and ``y0`` = (t, r, phi, dt/dl, dr/dl, dphi/dl) finite,
    null and of nonzero energy E.
    """
    _require_positive(lam_max=lam_max, tol=tol)
    lam_max, tol = float(lam_max), float(tol)
    y = np.array(y0, dtype=float).tolist()
    if not all(map(math.isfinite, y)):
        raise DomainError(f"initial data must be finite, got {y!r}")
    t, r, phi, td, rd, pd = y
    lo, hi = profile.r_lo, profile.r_hi
    inner_stop = lo + _INNER_MARGIN * max(1.0, abs(lo))
    max_steps, rhs, read = _MAX_STEPS, _geodesic_rhs, profile._read().slopes
    lam = 0.0
    tdd, rdd, pdd, n, a, rr = rhs(read, r, td, rd, pd)
    states = [_observables(lam, r, phi, td, rd, pd, n, a, rr)]
    e0, l0 = states[0].E, states[0].L
    max_con = abs(states[0].constraint)
    if not (max_con <= 1e-10 * max(e0 * e0, 1e-30)):
        raise DomainError(
            f"initial data is not null: constraint {states[0].constraint:.3e} "
            f"relative to E^2"
        )
    if e0 == 0.0:
        raise DomainError("E must be nonzero: a null ray with E = 0 has no momentum")
    e_drift = l_drift = 0.0
    scale_e = max(abs(e0), 1e-30)
    scale_l = max(abs(l0), abs(e0) * max(abs(r), 1.0))
    # Each sum runs left to right from 0 over the nonzero tableau entries (not
    # the builtin sum, which compensates from Python 3.12); index 1 of B5 and
    # B4 is 0.  Stage j's velocity (td_j, rd_j, pd_j) is its t, r and phi
    # slope, and (tdd_j, rdd_j, pdd_j) its velocity slope.
    (a10,), (a20, a21), (a30, a31, a32), (a40, a41, a42, a43) = _DP_A[1:5]
    (a50, a51, a52, a53, a54), (b0, _, b2, b3, b4, b5) = _DP_A[5:]
    c0, _, c2, c3, c4, c5, c6 = _DP_B4
    evals = 1
    h = min(1e-3 * max(1.0, abs(r)), lam_max / 10.0)
    termination = "window"
    steps = rejected = 0
    left = None  # the radius of a stage that left the open chart (lo, hi)
    while lam < lam_max:
        if left is not None:
            # terminate at the true edge, or retry a quarter of the step
            if h <= 1e-12 * max(1.0, lam):
                termination = (
                    "domain_exit_outer" if left >= hi else "domain_exit_inner"
                )
                break
            rejected += 1
            h *= 0.25
            left = None
        if steps >= max_steps:
            termination = "step_limit"
            break
        steps += 1
        h = min(h, lam_max - lam)
        floor = 1e-14 * max(1.0, lam)
        if h < floor:
            # a remainder below the floor is rounding of the window, not a stall
            termination = "window" if lam_max - lam <= floor else "step_underflow"
            break
        # Stages 1-5 carry (r, dt, dr, dphi) only: the right-hand side reads
        # no t or phi.  (tdd, rdd, pdd) at y are kept across retried steps.
        r1 = r + h * (0.0 + a10 * rd)
        if not lo < r1 < hi:
            left = r1
            continue
        td1 = td + h * (0.0 + a10 * tdd)
        rd1 = rd + h * (0.0 + a10 * rdd)
        pd1 = pd + h * (0.0 + a10 * pdd)
        evals += 1
        tdd1, rdd1, pdd1, _, _, _ = rhs(read, r1, td1, rd1, pd1)
        r2 = r + h * (0.0 + a20 * rd + a21 * rd1)
        if not lo < r2 < hi:
            left = r2
            continue
        td2 = td + h * (0.0 + a20 * tdd + a21 * tdd1)
        rd2 = rd + h * (0.0 + a20 * rdd + a21 * rdd1)
        pd2 = pd + h * (0.0 + a20 * pdd + a21 * pdd1)
        evals += 1
        tdd2, rdd2, pdd2, _, _, _ = rhs(read, r2, td2, rd2, pd2)
        r3 = r + h * (0.0 + a30 * rd + a31 * rd1 + a32 * rd2)
        if not lo < r3 < hi:
            left = r3
            continue
        td3 = td + h * (0.0 + a30 * tdd + a31 * tdd1 + a32 * tdd2)
        rd3 = rd + h * (0.0 + a30 * rdd + a31 * rdd1 + a32 * rdd2)
        pd3 = pd + h * (0.0 + a30 * pdd + a31 * pdd1 + a32 * pdd2)
        evals += 1
        tdd3, rdd3, pdd3, _, _, _ = rhs(read, r3, td3, rd3, pd3)
        r4 = r + h * (0.0 + a40 * rd + a41 * rd1 + a42 * rd2 + a43 * rd3)
        if not lo < r4 < hi:
            left = r4
            continue
        td4 = td + h * (0.0 + a40 * tdd + a41 * tdd1 + a42 * tdd2 + a43 * tdd3)
        rd4 = rd + h * (0.0 + a40 * rdd + a41 * rdd1 + a42 * rdd2 + a43 * rdd3)
        pd4 = pd + h * (0.0 + a40 * pdd + a41 * pdd1 + a42 * pdd2 + a43 * pdd3)
        evals += 1
        tdd4, rdd4, pdd4, _, _, _ = rhs(read, r4, td4, rd4, pd4)
        r5 = r + h * (0.0 + a50 * rd + a51 * rd1 + a52 * rd2 + a53 * rd3 + a54 * rd4)
        if not lo < r5 < hi:
            left = r5
            continue
        td5 = td + h * (
            0.0 + a50 * tdd + a51 * tdd1 + a52 * tdd2 + a53 * tdd3 + a54 * tdd4
        )
        rd5 = rd + h * (
            0.0 + a50 * rdd + a51 * rdd1 + a52 * rdd2 + a53 * rdd3 + a54 * rdd4
        )
        pd5 = pd + h * (
            0.0 + a50 * pdd + a51 * pdd1 + a52 * pdd2 + a53 * pdd3 + a54 * pdd4
        )
        evals += 1
        tdd5, rdd5, pdd5, _, _, _ = rhs(read, r5, td5, rd5, pd5)
        # first same as last: stage 6 is the fifth-order solution, and its
        # right-hand side and profile values serve the next step
        r6 = r + h * (0.0 + b0 * rd + b2 * rd2 + b3 * rd3 + b4 * rd4 + b5 * rd5)
        if not lo < r6 < hi:
            left = r6
            continue
        t6 = t + h * (0.0 + b0 * td + b2 * td2 + b3 * td3 + b4 * td4 + b5 * td5)
        phi6 = phi + h * (0.0 + b0 * pd + b2 * pd2 + b3 * pd3 + b4 * pd4 + b5 * pd5)
        td6 = td + h * (
            0.0 + b0 * tdd + b2 * tdd2 + b3 * tdd3 + b4 * tdd4 + b5 * tdd5
        )
        rd6 = rd + h * (
            0.0 + b0 * rdd + b2 * rdd2 + b3 * rdd3 + b4 * rdd4 + b5 * rdd5
        )
        pd6 = pd + h * (
            0.0 + b0 * pdd + b2 * pdd2 + b3 * pdd3 + b4 * pdd4 + b5 * pdd5
        )
        evals += 1
        tdd6, rdd6, pdd6, n, a, rr = rhs(read, r6, td6, rd6, pd6)
        # root mean square of the scaled 5(4) difference, summed left to right
        sq = 0.0
        for u, u5, p, v, w, x, z, g in (
            (t, t6, td, td2, td3, td4, td5, td6),
            (r, r6, rd, rd2, rd3, rd4, rd5, rd6),
            (phi, phi6, pd, pd2, pd3, pd4, pd5, pd6),
            (td, td6, tdd, tdd2, tdd3, tdd4, tdd5, tdd6),
            (rd, rd6, rdd, rdd2, rdd3, rdd4, rdd5, rdd6),
            (pd, pd6, pdd, pdd2, pdd3, pdd4, pdd5, pdd6),
        ):
            u4 = u + h * (0.0 + c0 * p + c2 * v + c3 * w + c4 * x + c5 * z + c6 * g)
            s, s5 = abs(u), abs(u5)  # np.maximum's NaN propagation below
            q = (u5 - u4) / (tol + tol * (s if (s > s5 or s != s) else s5))
            sq += q * q
        err = math.sqrt(sq / 6)
        if err <= 1.0:
            lam += h
            t, r, phi, td, rd, pd = t6, r6, phi6, td6, rd6, pd6
            tdd, rdd, pdd = tdd6, rdd6, pdd6
            st = _observables(lam, r, phi, td, rd, pd, n, a, rr)
            states.append(st)
            if not (inner_stop < r < hi):
                termination = "domain_exit_outer" if r >= hi else "domain_exit_inner"
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
