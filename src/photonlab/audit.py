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

from .curvature import surface_geometry
from .radial import CompositeProfile, DomainError, RadialProfile

__all__ = [
    "IdentityReport",
    "audit_sphere",
    "component_mass",
    "component_mass_quadrature",
    "MonotonicityScan",
    "monotonicity_scan",
    "positivity_check",
]

SQRT3 = math.sqrt(3.0)
# The identity residuals of IdentityReport, in the order ties are broken.
RESIDUAL_FIELDS = ("res_umbilic", "res_NH", "res_rH", "res_sigmaR")


@dataclass(frozen=True)
class IdentityReport:
    """Photon-sphere identity residuals and derived mass data at one radius.

    Residuals (all exactly zero on a true photon sphere):

    * ``res_umbilic``  — norm of the trace-free second fundamental form;
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
        """Name and signed value of the residual largest in magnitude;
        ties go to the first of :data:`RESIDUAL_FIELDS`."""
        name = max(RESIDUAL_FIELDS, key=lambda f: abs(getattr(self, f)))
        return name, getattr(self, name)

    def max_residual(self) -> float:
        return abs(self.worst_residual()[1])

    def chain_residual(self) -> float:
        """|N - sqrt(3) m_i / r_i| on the sphere."""
        return abs(self.N_val - SQRT3 * self.mass_i / self.area_radius)


def audit_sphere(profile: RadialProfile, r0: float) -> IdentityReport:
    """Evaluate the photon-sphere identity system at radius r0."""
    geom = surface_geometry(profile, r0)
    h = geom.H
    spacetime_h = 1.5 * h
    mass_h = 1.0 / (SQRT3 * spacetime_h) if spacetime_h != 0.0 else math.inf
    return IdentityReport(
        r0=float(r0),
        res_umbilic=geom.tracefree_h_norm,
        res_NH=geom.N_val * h - 2.0 * geom.nu_N,
        res_rH=(geom.area_radius * h) ** 2 - 4.0 / 3.0,
        res_sigmaR=geom.sigma_scalar - 1.5 * h * h,
        mass_i=geom.area_radius ** 2 * geom.nu_N,
        H_positive=h > 0.0,
        spacetime_H=spacetime_h,
        mass_from_H=mass_h,
        area_radius=geom.area_radius,
        N_val=geom.N_val,
        H=h,
        nu_N=geom.nu_N,
        sigma_scalar=geom.sigma_scalar,
    )


def component_mass(profile: RadialProfile, r0: float) -> float:
    """Mass seen by the sphere r0: the audit's ``mass_i``, area_radius^2 *
    nu(N) (closed form)."""
    return audit_sphere(profile, r0).mass_i


def component_mass_quadrature(
    profile: RadialProfile, r0: float, panels: int = 4096
) -> float:
    """Mass from the flux integral (1/4 pi) * surface integral of nu(N).

    A genuine midpoint-rule quadrature over the polar angle; on exactly
    round data it reproduces :func:`component_mass` up to the midpoint
    error of integrating sin(theta), which tabulated/noisy profiles then
    inherit honestly.
    """
    theta = (np.arange(panels) + 0.5) * (np.pi / panels)
    # integrand nu(N) * Rareal^2 sin(theta); azimuthal factor 2 pi exact
    mass = component_mass(profile, r0)
    flux = 2.0 * np.pi * np.sum(mass * np.sin(theta)) * (np.pi / panels)
    return float(flux / (4.0 * np.pi))


# ---------------------------------------------------------------------------
# Monotonicity of H/N along the outward flow
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MonotonicityScan:
    """Sampled H/N sequence along the outward normal flow.

    ``flow_parameter`` is metric arclength (integral of A dr, adaptive
    quadrature); ``max_upward_violation`` is the largest positive increment
    between consecutive samples, exactly 0.0 for a monotone sequence.
    """

    r: np.ndarray
    flow_parameter: np.ndarray
    ratio: np.ndarray
    max_upward_violation: float
    nonincreasing: bool


def _segments(profile, r_values):
    """Split sample intervals at composite breakpoints for clean quadrature."""
    from scipy.integrate import quad

    cuts = list(getattr(profile, "breakpoints", ()))

    def a_of(r):
        if isinstance(profile, CompositeProfile):
            return float(profile.piece_at(r).A(r))
        return float(profile.A(r))

    out = np.zeros(len(r_values))
    for i in range(1, len(r_values)):
        lo, hi = r_values[i - 1], r_values[i]
        pts = [lo] + [c for c in cuts if lo < c < hi] + [hi]
        total = 0.0
        for a, b in zip(pts[:-1], pts[1:]):
            val, _ = quad(a_of, a, b, epsabs=1e-12, epsrel=1e-12, limit=200)
            total += val
        out[i] = out[i - 1] + total
    return out


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
    pieces, cuts = (profile,), ()
    if isinstance(profile, CompositeProfile):
        profile.piece_at(r_start), profile.piece_at(r_end)  # refuse outside radii
        pieces, cuts = profile.pieces, profile.breakpoints
    # a breakpoint belongs to the piece on its left, as in piece_at
    which = np.searchsorted(cuts, rs, side="left")
    ratios = np.empty(rs.size)
    for k, p in enumerate(pieces):
        at = which == k
        ratios[at] = p.sphere_mean_curvature(rs[at]) / p.N(rs[at])
    t = _segments(profile, rs)
    rise = float(np.diff(ratios).max())
    worst = max(0.0, rise) if rise == rise else rise  # a NaN ratio fails the scan
    return MonotonicityScan(
        r=rs,
        flow_parameter=t,
        ratio=ratios,
        max_upward_violation=worst,
        nonincreasing=worst == 0.0,
    )


def positivity_check(subject, r0: float | None = None) -> dict:
    """Sanity gates that exclude degenerate alternatives.

    * mean curvature strictly positive (no minimal photon sphere);
    * induced scalar curvature strictly positive (spherical topology,
      rather than the flat-torus alternative a nonpositive value would
      permit).

    Accepts either an :class:`IdentityReport` or ``(profile, r0)``.
    """
    if isinstance(subject, IdentityReport):
        report = subject
    else:
        if r0 is None:
            raise DomainError("positivity_check needs a radius with a profile")
        report = audit_sphere(subject, r0)
    return {
        "H_positive": report.H_positive,
        "sigma_scalar_positive": report.sigma_scalar > 0.0,
        "pass": report.H_positive and report.sigma_scalar > 0.0,
    }
