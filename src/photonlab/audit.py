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
    DomainError,
    ProfileKind,
    RadialProfile,
    _require_piece,
)

__all__ = [
    "IdentityReport",
    "audit_sphere",
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
      for every finite shape operator, NaN for a NaN one (an infinite one
      is refused) and inf where H = k + k overflows.  It cannot fail on a
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
    has no sphere and still raises.  An infinite shape operator k or nu(N)
    (A zero or subnormal) is refused; a residual that overflows reads inf.
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
        d = float(a * rr)  # float division: an overflow gives inf, not a warning
        k = float(rj.d1) / d if d else math.inf  # the shape operator's eigenvalue
        _refuse_infinite("the shape operator k = Rareal'/(A Rareal)", k, r0)
        h = k + k
        t = k - 0.5 * h  # 0.0, or -inf where h overflows
        tracefree = math.sqrt(t * t + t * t)
        area_radius, rr_sq = float(rr), rr * rr
    with np.errstate(all="ignore"):  # NaN reads as NaN residuals
        nu_n = float(profile.nu_N(r0))
    _refuse_infinite("nu(N) = N'/A", nu_n, r0)
    sigma = float(2.0 / rr_sq)
    n_val = float(profile.N(r0))
    spacetime_h = 1.5 * h
    mass_h = 1.0 / (SQRT3 * spacetime_h) if spacetime_h != 0.0 else math.inf
    try:
        res_rh = (area_radius * h) ** 2 - 4.0 / 3.0
    except OverflowError:  # a float power raises where a product gives inf
        res_rh = math.inf
    return IdentityReport(
        r0=float(r0),
        res_umbilic=tracefree,
        res_NH=n_val * h - 2.0 * nu_n,
        res_rH=res_rh,
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


def _refuse_infinite(name: str, value: float, r0) -> None:
    if math.isinf(value):
        raise DomainError(f"audit_sphere: {name} is infinite at r = {r0!r}")

