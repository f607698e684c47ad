"""Curvature of radial profiles plus an independent finite-difference oracle.

Two routes to the same tensors, deliberately kept apart:

* :func:`curvature_at` evaluates closed-form expressions built from the
  profile's analytic derivatives.
* :func:`fd_curvature_oracle` rebuilds everything from centered finite
  differences of metric *values* — numerically assembled Christoffel
  symbols, nested differencing for their derivatives — so agreement between
  the two is a genuine cross-check, not a tautology.

The oracle works internally in extended precision (``np.longdouble``) so
its truncation error, not roundoff, dominates down to step sizes of 1e-4.
Its 25 stencil points per sample lie on seven distinct radii, r, r +- h
and (r +- h) +- h: A and Rareal are read once on those seven, N once on
the central three, and the five Christoffel stencils are assembled in one
batched pass.  The assembly uses only that the metric is diagonal: each
Christoffel symbol comes from d_e g_aa by its index class (17 distinct
values of 27), only the twelve symbol derivatives the Ricci contraction
reads are differenced, and its 54 quadratic terms are one gathered
product, summed in the order of the full index loops.

Both routes are array-shaped: given an array of radii (and, for the
oracle, a matching array of per-sample steps) they evaluate every sample
in one pass and return a :class:`CurvatureSample` whose fields are float
arrays; a scalar radius gives float fields.  Oracle samples are
bit-identical whichever way they are requested, since extended-precision
arithmetic runs the same scalar operations in both.  Closed-form samples
on arrays may differ from scalar calls in the last bits, because numpy's
vectorized float64 ``**`` does not round exactly like the scalar one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .radial import (
    DomainError,
    Jet,
    ProfileKind,
    RadialFunction,
    RadialProfile,
)

__all__ = [
    "CurvatureSample",
    "SurfaceGeometry",
    "curvature_at",
    "fd_curvature_oracle",
    "surface_geometry",
    "identity_residuals",
    "radial_laplacian",
    "convergence_study",
]

_FIELDS = (
    "ric_nn",
    "ric_tt",
    "scalar",
    "hess_nn",
    "hess_tt",
    "lap_N",
    "vac_residual_nn",
    "vac_residual_tt",
    "scalar_residual",
    "lap_residual",
)


@dataclass(frozen=True)
class CurvatureSample:
    """Orthonormal-frame curvature and lapse-Hessian data at one radius.

    ``ric_nn``/``ric_tt`` are the Ricci components on the unit normal and a
    unit sphere-tangent vector; ``hess_*`` the matching lapse Hessian
    components; the four residual fields certify the static vacuum system
    N * Ric = Hess N, Lap N = 0, Scal = 0 (they are the amounts by which the
    sample fails it, so matter interiors report their source terms here).
    """

    r: float
    ric_nn: float
    ric_tt: float
    scalar: float
    hess_nn: float
    hess_tt: float
    lap_N: float
    vac_residual_nn: float
    vac_residual_tt: float
    scalar_residual: float
    lap_residual: float

    def max_vacuum_residual(self) -> float:
        return max(
            abs(self.vac_residual_nn),
            abs(self.vac_residual_tt),
            abs(self.scalar_residual),
            abs(self.lap_residual),
        )

    def difference(self, other: "CurvatureSample") -> float:
        """Largest field-wise deviation from another sample (same radius)."""
        return max(
            abs(getattr(self, f) - getattr(other, f)) for f in _FIELDS
        )


@dataclass(frozen=True)
class SurfaceGeometry:
    """First/second fundamental form data of one coordinate sphere.

    ``tracefree_h_norm`` is computed from the actual frame components of the
    second fundamental form rather than assumed zero, so asymmetry bugs
    would surface here.  ``minimal_surface`` marks a horizon endpoint where
    H has the one-sided limit 0.
    """

    r: float
    area: float
    area_radius: float
    H: float
    tracefree_h_norm: float
    nu_N: float
    sigma_scalar: float
    N_val: float
    minimal_surface: bool = False


def radial_laplacian(f: Jet, a: Jet, rr: Jet):
    """Laplacian of a radial function in g = A^2 dr^2 + Rareal^2 * sphere.

    Divergence form, from jets of f, A and Rareal at one radius; its
    grouping is independent of Hess f(n, n) + 2 Hess f(t, t).
    """
    return (f.d2 + 2.0 * rr.d1 * f.d1 / rr.v - f.d1 * a.d1 / a.v) / (a.v * a.v)


def _sample(r, n, ric_nn, ric_tt, scalar, hess_nn, hess_tt, lap_n) -> CurvatureSample:
    """Package assembled components, forming the vacuum residuals in their
    own precision first: floats for a scalar ``r``, float arrays for an
    array ``r``."""
    if isinstance(r, np.ndarray):
        def cast(x):
            return np.array(x, dtype=float)
    else:
        cast = float
    return CurvatureSample(
        r=cast(r),
        ric_nn=cast(ric_nn),
        ric_tt=cast(ric_tt),
        scalar=cast(scalar),
        hess_nn=cast(hess_nn),
        hess_tt=cast(hess_tt),
        lap_N=cast(lap_n),
        vac_residual_nn=cast(n * ric_nn - hess_nn),
        vac_residual_tt=cast(n * ric_tt - hess_tt),
        scalar_residual=cast(scalar),
        lap_residual=cast(lap_n),
    )


def curvature_at(profile: RadialProfile, r) -> CurvatureSample:
    """Closed-form curvature sample at radius r (open interior only).

    ``r`` may also be an array of radii, evaluated in one pass; the
    sample's fields are then float arrays of the same shape.
    """
    profile.ensure_evaluable(r, open_interior=True)
    n, a, rj = profile.N.jet(r), profile.A.jet(r), profile.Rareal.jet(r)
    rr = rj.v
    # proper-radial derivatives of Rareal and N
    r_s = rj.d1 / a.v
    r_ss = (rj.d2 - rj.d1 * a.d1 / a.v) / (a.v * a.v)
    n_s = n.d1 / a.v
    n_ss = (n.d2 - n.d1 * a.d1 / a.v) / (a.v * a.v)

    ric_nn = -2.0 * r_ss / rr
    ric_tt = (1.0 - r_s * r_s - rr * r_ss) / (rr * rr)
    # Direct scalar formula; the trace identity scalar = ric_nn + 2 ric_tt is
    # asserted in tests rather than used for assembly.
    scalar = 2.0 / rr ** 2 - 2.0 * r_s ** 2 / rr ** 2 - 4.0 * r_ss / rr

    hess_nn = n_ss
    hess_tt = n_s * r_s / rr
    lap_n = radial_laplacian(n, a, rj)
    return _sample(r, n.v, ric_nn, ric_tt, scalar, hess_nn, hess_tt, lap_n)


# ---------------------------------------------------------------------------
# Finite-difference oracle
# ---------------------------------------------------------------------------


# The five Christoffel centres (r, th), (r + h, th), (r - h, th), (r, th + h)
# and (r, th - h) as indices into the seven expressions of :func:`_nested`,
# and for expressions 0, 1 and 2 the ones a step h above and below.
_CENTRE_R = np.array([0, 1, 2, 0, 0])
_CENTRE_TH = np.array([0, 0, 0, 1, 2])
_UP = np.array([1, 3, 5])
_DOWN = np.array([2, 4, 6])


def _nested(x, h):
    """x, x + h, x - h, (x + h) + h, (x + h) - h, (x - h) + h, (x - h) - h,
    stacked on a leading axis.  (x + h) - h is kept apart from x: the two
    may differ in the last bit."""
    xp, xm = x + h, x - h
    return np.stack(np.broadcast_arrays(x, xp, xm, xp + h, xp - h, xm + h, xm - h))


def _gamma_row(c, a, b):
    """Row of :func:`_christoffel`'s result that holds gamma[c, a, b]."""
    if a == b == c:
        return 15 + a if a < 2 else c
    if c == b and a < 2:  # d_a g_cc
        return 3 + 3 * a + c
    if c == a and b < 2:  # d_b g_cc
        return 3 + 3 * b + c
    if a == b and c < 2:  # d_c g_aa
        return 9 + 3 * c + a
    return c  # no derivative, or one along ph: (0 + 0) - 0


_GAMMA_ROW = np.array(
    [[[_gamma_row(c, a, b) for b in range(3)] for a in range(3)] for c in range(3)]
)


def _christoffel(g0, dg_r, dg_th, h):
    """Christoffel symbols from centered differences of a diagonal metric.

    ``g0`` holds the metric diagonal (g_rr, g_thth, g_phph) on a leading
    axis, ``dg_r`` and ``dg_th`` the difference numerators g(+h) - g(-h)
    along r and th at the same points (same shape and dtype as ``g0``), and
    ``h`` the step, which broadcasts against the trailing axes.
    Coordinates are ordered (r, th, ph).

    For any diagonal metric
    gamma[c, a, b] = g^cc (delta_bc d_a g_cc + delta_ac d_b g_cc
    - delta_ab d_c g_aa) / 2, with the inverse taken entrywise, so every
    entry comes from d[e, a] = d_e g_aa (e in r, th: ph has no
    difference) by its index class.  Each class keeps the three-term sum
    of the full tensor contraction, zero terms included: (d + d) - d on
    a = b = c, (d + 0) - 0 on c = b != a and on c = a != b, (0 + 0) - d on
    a = b != c, and (0 + 0) - 0 when all differ or the derivative is along
    ph.  So signed zeros, infinities and NaNs come out as the full
    contraction gives them.

    The 27 entries take 17 distinct values, returned as rows on a leading
    axis: gamma[c, a, b] is row ``_GAMMA_ROW[c, a, b]``.  Rows 0-2 are the
    zero classes of c, 3 + 3e + c holds (d[e, c] + 0) - 0, 9 + 3c + a holds
    (0 + 0) - d[c, a], and 15 + a holds (d[a, a] + d[a, a]) - d[a, a].
    """
    d = np.stack([dg_r, dg_th]) / (2.0 * h)
    w = 0.5 * (1.0 / g0)
    gamma = np.empty((17,) + g0.shape[1:], dtype=d.dtype)
    np.multiply(w, 0.0, out=gamma[:3])
    np.multiply(w, (d + 0.0) - 0.0, out=gamma[3:9].reshape(d.shape))
    np.multiply(w[:2, None], 0.0 - d, out=gamma[9:15].reshape(d.shape))
    diag = d[[0, 1], [0, 1]]
    np.multiply(w[:2], (diag + diag) - diag, out=gamma[15:])
    return gamma


# The derivatives of gamma that the Ricci contraction reads are
# d_c gamma^c_aa for c < 2 and d_a gamma^c_ca for a < 2 (ph has no
# stencil).  For each of those twelve: its slot [k, c, a] in the
# contraction, its row in :func:`_christoffel`'s result and the direction
# e of its difference.
_DIV = [((0, c, a), _GAMMA_ROW[c, a, a], c) for c in range(2) for a in range(3)] + [
    ((1, c, a), _GAMMA_ROW[c, c, a], a) for c in range(3) for a in range(2)
]
_DIV_SLOT = tuple(np.array([slot for slot, _, _ in _DIV]).T)
_DIV_ROW = np.array([row for _, row, _ in _DIV])
_DIV_DIR = np.array([e for _, _, e in _DIV])
# Entries of gamma^c_cd gamma^d_aa and gamma^c_ad gamma^d_ca as [k, c, d, a].
_C, _D, _A = np.indices((3, 3, 3))
_QUAD_LEFT = (np.stack([_C, _C]), np.stack([_C, _A]), np.stack([_D, _D]))
_QUAD_RIGHT = (np.stack([_D, _D]), np.stack([_A, _C]), np.stack([_A, _A]))


def fd_curvature_oracle(profile: RadialProfile, r, h=1e-3) -> CurvatureSample:
    """Curvature sample rebuilt from finite differences of metric values.

    Centered differences everywhere: Christoffel symbols from first
    differences of the metric, their derivatives from differences of
    Christoffel symbols at displaced stencils, the lapse Hessian from
    second differences of N on the central stencil.  Requires
    [r - 2h, r + 2h] inside the domain.  Truncation error is O(h^2);
    internals run in extended precision so the O(eps/h^2) roundoff floor
    sits well below truncation for h >= 1e-4.

    The 25 stencil points lie on seven distinct radii, r, r +- h and
    (r +- h) +- h, so each sample reads A and Rareal once on those seven
    and N once on the central three; the five Christoffel stencils are then
    assembled in one array pass.

    ``r`` may be an array of radii and ``h`` a matching array of
    per-sample steps (or one step for all).  Every stencil is then one
    array pass over all samples, each sample bit-identical to its own
    scalar call, and the fields of the returned sample are float arrays.
    """
    profile.ensure_evaluable(r, open_interior=True)
    if not np.all((profile.r_lo < r - 2.0 * h) & (r + 2.0 * h < profile.r_hi)):
        raise DomainError("finite-difference stencil leaves the profile domain")

    ld = np.longdouble
    rl, hl = np.broadcast_arrays(np.asarray(r, dtype=ld), np.asarray(h, dtype=ld))
    radii = _nested(rl, hl)
    a_val, r_val = profile.A(radii), profile.Rareal(radii)
    a2, r2 = a_val * a_val, r_val * r_val
    sin_th = np.sin(_nested(ld(np.pi) / 2.0, hl))

    def metric(ir, ith):
        """diag(A^2, R^2, R^2 sin^2 th) on (radius, angle) expressions."""
        return np.stack([a2[ir], r2[ir], r2[ir] * sin_th[ith] * sin_th[ith]])

    g = metric(_CENTRE_R, _CENTRE_TH)
    gams = _christoffel(
        g,
        metric(_UP[_CENTRE_R], _CENTRE_TH) - metric(_DOWN[_CENTRE_R], _CENTRE_TH),
        metric(_CENTRE_R, _UP[_CENTRE_TH]) - metric(_CENTRE_R, _DOWN[_CENTRE_TH]),
        hl,
    )
    gam = gams[:, 0][_GAMMA_ROW]
    ginv = 1.0 / g[:, 0]
    div = np.zeros((2, 3, 3) + gam.shape[3:], dtype=gam.dtype)
    div[_DIV_SLOT] = (
        gams[_DIV_ROW, 1 + 2 * _DIV_DIR] - gams[_DIV_ROW, 2 + 2 * _DIV_DIR]
    ) / (2.0 * hl)
    quad = gam[_QUAD_LEFT]
    quad *= gam[_QUAD_RIGHT]

    # Only the diagonal Ricci and Hessian components are reported.  Each
    # ric[a] sums its terms in the order of the index loops over c and d.
    ric = np.zeros((3,) + gam.shape[3:], dtype=gam.dtype)
    for c in range(3):
        ric += div[0, c]
        ric -= div[1, c]
        for d in range(3):
            ric += quad[0, c, d]
            ric -= quad[1, c, d]

    # Lapse derivatives on the central stencil, whose theta-neighbours sit
    # at radius r (theta-differences vanish by symmetry but are computed,
    # not assumed).
    n0, n_rp, n_rm = profile.N(radii[:3])
    n_tp = n_tm = n0
    dn = ((n_rp - n_rm) / (2.0 * hl), (n_tp - n_tm) / (2.0 * hl), 0.0)
    d2n = (
        (n_rp - 2.0 * n0 + n_rm) / (hl * hl),
        (n_tp - 2.0 * n0 + n_tm) / (hl * hl),
        0.0,
    )
    hess = [d2n[a] - sum(gam[c, a, a] * dn[c] for c in range(3)) for a in range(3)]

    return _sample(
        r,
        n0,
        ric[0] * ginv[0],
        ric[1] * ginv[1],
        sum(ric[i] * ginv[i] for i in range(3)),
        hess[0] * ginv[0],
        hess[1] * ginv[1],
        sum(hess[i] * ginv[i] for i in range(3)),
    )


def convergence_study(
    profile: RadialProfile, r: float, steps=(1e-2, 1e-3, 1e-4)
) -> dict:
    """Measure the oracle's convergence against the closed form.

    Returns the per-step worst field errors, the least-squares convergence
    rate in log-log, and the implied constant C of the error model C h^2
    taken at the middle step.
    """
    exact = curvature_at(profile, r)
    steps = tuple(float(h) for h in steps)
    errors = [fd_curvature_oracle(profile, r, h).difference(exact) for h in steps]
    logs_h = np.log(np.asarray(steps))
    logs_e = np.log(np.asarray(errors))
    rate = float(np.polyfit(logs_h, logs_e, 1)[0])
    mid = len(steps) // 2
    return {
        "steps": steps,
        "errors": tuple(errors),
        "rate": rate,
        "constant": errors[mid] / steps[mid] ** 2,
    }


# ---------------------------------------------------------------------------
# Coordinate spheres
# ---------------------------------------------------------------------------


def surface_geometry(profile: RadialProfile, r: float) -> SurfaceGeometry:
    """Fundamental forms of the sphere r = const.

    At a degenerate horizon endpoint the mean curvature has one-sided limit
    0; the sample is returned with ``minimal_surface`` set instead of
    raising, because every quantity reported here stays finite there.
    The center r = 0 has no sphere and still raises.
    """
    if r == profile.r_lo and profile.degenerate_lo:
        if profile.kind is ProfileKind.INTERIOR_FLUID:
            profile.ensure_evaluable(r)  # raises: sphere degenerates to a point
        area_radius = float(profile.Rareal(r))
        return SurfaceGeometry(
            r=float(r),
            area=float(4.0 * np.pi * area_radius ** 2),
            area_radius=area_radius,
            H=0.0,
            tracefree_h_norm=0.0,
            nu_N=float(profile.nu_N(r)),
            sigma_scalar=float(2.0 / area_radius ** 2),
            N_val=float(profile.N(r)),
            minimal_surface=True,
        )
    profile.ensure_evaluable(r)
    a, rj = profile.A(r), profile.Rareal.jet(r)
    rr = rj.v
    k = rj.d1 / (a * rr)  # common frame eigenvalue of the shape operator
    h_frame = np.array([k, k])
    H = float(h_frame.sum())
    tracefree = h_frame - 0.5 * H
    return SurfaceGeometry(
        r=float(r),
        area=float(4.0 * np.pi * rr * rr),
        area_radius=float(rr),
        H=H,
        tracefree_h_norm=float(np.sqrt(np.sum(tracefree ** 2))),
        nu_N=float(profile.nu_N(r)),
        sigma_scalar=float(2.0 / (rr * rr)),
        N_val=float(profile.N(r)),
    )


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
    square for independent checks.
    """
    sample = curvature_at(profile, r)
    geom = surface_geometry(profile, r)
    a, rr = profile.A.jet(r), profile.Rareal.jet(r)
    k = rr.d1 / (a.v * rr.v)
    h_sq = 2.0 * k * k
    gauss = (sample.scalar - 2.0 * sample.ric_nn) - (
        geom.sigma_scalar - geom.H ** 2 + h_sq
    )

    fj = (profile.N if f is None else f).jet(r)
    hess_f_nn = (fj.d2 - fj.d1 * a.d1 / a.v) / (a.v * a.v)
    surf = radial_laplacian(fj, a, rr) - (hess_f_nn + geom.H * fj.d1 / a.v)

    return {"gauss": float(gauss), "surface_laplacian": float(surf)}
