"""Self-checks of the curvature layer against itself, for the tests.

:func:`identity_residuals` checks two chart-independent identities at a
coordinate sphere from the closed-form curvature and the profile's jets.
No verdict reads it; the tests use it to pin that the closed form is
consistent with the sphere's own geometry.
"""

from __future__ import annotations

from photonlab.curvature import _jets_at, _proper_second, _ricci, radial_laplacian
from photonlab.radial import DomainError, RadialFunction, RadialProfile, _require_piece


def identity_residuals(
    profile: RadialProfile, r: float, f: RadialFunction | None = None
) -> dict:
    """Residuals of two chart-independent identities at radius r.

    * contracted Gauss:  Scal - 2 Ric(nu, nu) =
      (sphere scalar) - H^2 + |h|^2, with |h|^2 summed from the actual
      frame components;
    * surface splitting of the Laplacian for a radial test function f:
      Lap f = Hess f(nu, nu) + H nu(f)  (the sphere Laplacian of a radial
      function vanishes).

    ``f`` defaults to the lapse; pass e.g. the coordinate function or its
    square for independent checks.  A float division by zero or overflow
    (A zero or subnormal) is refused.
    """
    _require_piece(profile, "identity_residuals")
    try:
        _, ric_nn, _, scalar = _ricci(*_jets_at(profile, r)[1:])
        a, rr = profile.A.jet(r), profile.Rareal.jet(r)
        k = rr.d1 / (a.v * rr.v)  # the shape operator's one frame eigenvalue
        H = float(k + k)
        h_sq = 2.0 * k * k
        gauss = (float(scalar) - 2.0 * float(ric_nn)) - (
            float(2.0 / (rr.v * rr.v)) - H ** 2 + h_sq
        )

        fj = (profile.N if f is None else f).jet(r)
        hess_f_nn = _proper_second(fj, a)
        surf = radial_laplacian(fj, a, rr) - (hess_f_nn + H * fj.d1 / a.v)
    except ArithmeticError as exc:  # floats raise where numpy gives inf or NaN
        raise DomainError(f"identity_residuals: {exc} at r = {r!r}") from None

    return {"gauss": float(gauss), "surface_laplacian": float(surf)}
