"""Audit of candidate photon spheres: algebraic identities and mass data.

On a static vacuum profile, a sphere on which tangential null rays stay
tangent is forced to satisfy a rigid set of relations tying its mean
curvature H, area radius, induced scalar curvature and the normal lapse
derivative together — and they pin down the mass.  :func:`audit_sphere`
evaluates each relation as a residual; a genuine photon sphere drives all
of them to rounding level simultaneously, and any corruption of the
geometry shows up in at least one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .radial import (
    CompositeProfile,
    DomainError,
    ProfileKind,
    RadialProfile,
    _require_piece,
)

__all__ = [
    "IdentityReport",
    "audit_sphere",
    "MonotonicityScan",
    "monotonicity_scan",
]

SQRT3 = math.sqrt(3.0)
# The identity residuals of IdentityReport, in the order ties are broken.
RESIDUAL_FIELDS = ("res_umbilic", "res_NH", "res_rH", "res_sigmaR")


@dataclass(frozen=True)
class IdentityReport:
    """Photon-sphere identity residuals and derived mass data at one radius.

    Residuals (all exactly zero on a true photon sphere):

    * ``res_umbilic``  — norm of the trace-free second fundamental form.
      A coordinate sphere of a radial profile is umbilic, so this is 0.0
      for every finite shape operator; it is NaN where k is NaN or
      infinite and inf where H = k + k overflows.  It cannot fail on a
      finite sphere, and stays while ``perfbench``'s ``audit_residual``
      check reads it;
    * ``res_NH``       — N H - 2 nu(N), constancy of the lapse coupling;
    * ``res_rH``       — (area_radius * H)^2 - 4/3;
    * ``res_sigmaR``   — induced scalar curvature - (3/2) H^2.

    ``mass_i`` is the normal-derivative mass (area_radius^2 * nu(N)) and
    ``mass_from_H`` the mass implied by the spacetime mean curvature
    ``spacetime_H`` = (3/2) H; derived-chain consistency requires
    N = sqrt(3) * mass_i / area_radius on a photon sphere.
    """

    r0: float
    res_umbilic: float
    res_NH: float
    res_rH: float
    res_sigmaR: float
    mass_i: float
    H_positive: bool
    spacetime_H: float
    mass_from_H: float
    area_radius: float
    N_val: float
    H: float
    nu_N: float
    sigma_scalar: float

    def worst_residual(self) -> tuple[str, float]:
        """Name and signed value of the residual largest in magnitude: the
        first NaN if there is one, else the first largest, in the order of
        :data:`RESIDUAL_FIELDS`."""

        def rank(field):
            size = abs(getattr(self, field))
            return size != size, size  # builtin max alone never picks a NaN

        name = max(RESIDUAL_FIELDS, key=rank)
        return name, getattr(self, name)

    def max_residual(self) -> float:
        return abs(self.worst_residual()[1])

    def chain_residual(self) -> float:
        """|N - sqrt(3) m_i / r_i| on the sphere."""
        return abs(self.N_val - SQRT3 * self.mass_i / self.area_radius)


def audit_sphere(profile: RadialProfile, r0: float) -> IdentityReport:
    """Evaluate the photon-sphere identity system at radius r0.

    At a degenerate horizon endpoint the mean curvature has one-sided limit
    0, and the sphere is audited with H = 0 instead of raising, because
    every quantity it reads stays finite there.  The centre of a fluid ball
    has no sphere and still raises.
    """
    _require_piece(profile, "audit_sphere")
    if r0 == profile.r_lo and profile.degenerate_lo:
        if profile.kind is ProfileKind.INTERIOR_FLUID:
            profile.ensure_evaluable(r0)  # raises: the sphere is a point
        area_radius = float(profile.Rareal(r0))
        h = tracefree = 0.0
        rr_sq = area_radius ** 2
    else:
        profile.ensure_evaluable(r0)
        a, rj = profile.A(r0), profile.Rareal.jet(r0)
        rr = rj.v
        k = rj.d1 / (a * rr)  # the shape operator's one frame eigenvalue
        h = float(k + k)
        t = np.subtract(k, 0.5 * h)  # 0 for finite k; numpy warns on inf - inf
        tracefree = math.sqrt(t * t + t * t)
        area_radius, rr_sq = float(rr), rr * rr
    nu_n = float(profile.nu_N(r0))
    sigma = float(2.0 / rr_sq)
    n_val = float(profile.N(r0))
    spacetime_h = 1.5 * h
    mass_h = 1.0 / (SQRT3 * spacetime_h) if spacetime_h != 0.0 else math.inf
    return IdentityReport(
        r0=float(r0),
        res_umbilic=tracefree,
        res_NH=n_val * h - 2.0 * nu_n,
        res_rH=(area_radius * h) ** 2 - 4.0 / 3.0,
        res_sigmaR=sigma - 1.5 * h * h,
        mass_i=area_radius ** 2 * nu_n,
        H_positive=h > 0.0,
        spacetime_H=spacetime_h,
        mass_from_H=mass_h,
        area_radius=area_radius,
        N_val=n_val,
        H=h,
        nu_N=nu_n,
        sigma_scalar=sigma,
    )


# ---------------------------------------------------------------------------
# Monotonicity of H/N along the outward flow
# ---------------------------------------------------------------------------


# The flow parameter's Gauss-Legendre rule (Golub & Welsch, Math. Comp. 23
# (1969) 221): nodes per segment, the gap between a segment's estimate and its
# halves' allowed relative to its sample interval, halvings per segment.
_GAUSS_NODES = 10
_HALVING_RTOL = 1e-13
_MAX_HALVINGS = 50


@dataclass(frozen=True)
class MonotonicityScan:
    """Sampled H/N sequence along the outward normal flow.

    ``flow_parameter`` is metric arclength (integral of A dr, adaptive
    Gauss-Legendre); ``max_upward_violation`` is the largest positive
    increment between consecutive samples, exactly 0.0 for a monotone sequence.
    """

    r: np.ndarray
    flow_parameter: np.ndarray
    ratio: np.ndarray
    max_upward_violation: float
    nonincreasing: bool


def _arclength(pieces, r_values):
    """Integral of A from r_values[0] to each radius: each piece splits the
    sample intervals clipped to its domain at its read's knots (inside one
    knot interval a table's A is a cubic, which the rule integrates
    exactly), then halves them, one read of A a round, until the halves
    agree within ``_HALVING_RTOL`` of the interval (A's rounding near a
    horizon exceeds that per segment).  A NaN estimate stays, unsplit."""
    from numpy.polynomial.legendre import leggauss

    x, w = leggauss(_GAUSS_NODES)

    def rule(A, a, b):  # estimates of the integral of A over each [a, b]
        half = 0.5 * (b - a)
        return half * (A((a + half)[:, None] + half[:, None] * x) @ w)

    total = np.zeros(r_values.size - 1)
    for p in pieces:
        ends, knots = r_values.clip(p.r_lo, p.r_hi), p._read().knots
        ends = np.unique(np.r_[ends, knots[(knots > ends[0]) & (knots < ends[-1])]])
        a, b, owner = ends[:-1], ends[1:], np.searchsorted(r_values, ends[1:]) - 1
        whole = rule(p.A, a, b)
        tol = _HALVING_RTOL * np.abs(np.bincount(owner, whole, total.size))
        for _ in range(_MAX_HALVINGS):
            k, mid = whole.size, 0.5 * (a + b)
            a, b, owner = np.r_[a, mid], np.r_[mid, b], np.tile(owner, 2)
            halves = rule(p.A, a, b)
            fine = np.where(np.isnan(whole), whole, halves[:k] + halves[k:])
            done = ~(np.abs(fine - whole) > tol[owner[:k]])  # NaN: done
            total += np.bincount(owner[:k][done], fine[done], total.size)
            if done.all():
                break
            go = np.tile(~done, 2)
            a, b, owner, whole = a[go], b[go], owner[go], halves[go]
        else:
            raise DomainError(f"flow parameter did not converge on [{a[0]}, {b[0]}]")
    return np.r_[0.0, np.cumsum(total)]


def monotonicity_scan(
    profile: RadialProfile | CompositeProfile,
    r_start: float,
    r_end: float,
    n: int = 256,
) -> MonotonicityScan:
    """Sample H/N at ``n`` >= 2 radii of [r_start, r_end] against the
    arclength flow parameter, reading each piece once on its radii."""
    if not (r_start < r_end):
        raise DomainError("need r_start < r_end")
    if n < 2:
        raise DomainError(f"n must be at least 2, got {n}")
    rs = np.linspace(r_start, r_end, int(n))
    pieces = profile.pieces if isinstance(profile, CompositeProfile) else (profile,)
    # a breakpoint (its left piece's r_hi) belongs to that piece, as in piece_at
    which = np.searchsorted([p.r_hi for p in pieces[:-1]], rs, side="left")
    ratios = np.empty(rs.size)
    for k, p in enumerate(pieces):
        at = which == k
        p.ensure_evaluable(rs[at])
        ratios[at] = p.sphere_mean_curvature(rs[at]) / p.N(rs[at])
    rise = float(np.diff(ratios).max())
    worst = max(0.0, rise) if rise == rise else rise  # a NaN ratio fails the scan
    return MonotonicityScan(
        r=rs,
        flow_parameter=_arclength(pieces, rs),
        ratio=ratios,
        max_upward_violation=worst,
        nonincreasing=worst == 0.0,
    )

