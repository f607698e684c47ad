"""Neck gluing and doubling of audited exteriors.

The rigidity argument replaces everything inside a photon sphere by a
reference *neck* — the piece of a Schwarzschild slice between its horizon
and its own photon sphere, mass-matched so that lapse and normal data fit
the exterior — and then doubles the result across the neck horizon, which
is totally geodesic.  This module builds those piecewise manifolds and
measures, rather than assumes, the matching quality: every gluing surface
gets a seven-field report of one-sided jumps.

Conventions.  Every chart is a radial profile plus an orientation.  The
*continuing normal* used for one-sided derivatives always points along the
traversal from the reflected end toward the original exterior end, i.e.
along +dr in ``outward`` charts and along -dr in ``reflected`` ones.  The
collar function psi is the exterior lapse on original charts, the scaled
neck lapse on necks, and flips sign on reflected charts, so it increases
monotonically along the traversal through every gluing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .audit import IdentityReport, audit_sphere
from .curvature import _jets_at, _max_or_nan, radial_laplacian
from .radial import (
    DomainError,
    RadialProfile,
    _require_normal_square,
    _require_piece,
    make_schwarzschild_neck,
)

__all__ = [
    "Chart",
    "GluingRecord",
    "PiecewiseManifold",
    "MatchReport",
    "GluingRefusal",
    "glue_neck",
    "match_report",
    "largest_jump",
    "double",
    "PsiBoundReport",
    "psi_bound_check",
    "psi_harmonicity_max",
    "guarded_chart_samples",
]

MATCH_TOL = 1e-8
# Relative inset of every guarded sample from its chart's edges.
SAMPLE_GUARD = 1e-3


class GluingRefusal(ValueError):
    """Input rejected before gluing; carries the name of the worst residual."""

    def __init__(self, message: str, failing: str, value: float):
        super().__init__(message)
        self.failing = failing
        self.value = value


@dataclass(frozen=True)
class Chart:
    """One radial chart of a piecewise manifold."""

    chart_id: str
    profile: RadialProfile
    orientation: str  # "outward" | "reflected"
    collar_scale: float  # 1 on original charts, 3 m_i / r_i on necks
    role: str  # "exterior" | "neck"

    @property
    def normal_dir(self) -> float:
        return 1.0 if self.orientation == "outward" else -1.0

    @property
    def psi_scale(self) -> float:
        """Signed collar factor: psi = psi_scale * N on this chart, with
        the sign of the orientation."""
        return self.normal_dir * self.collar_scale

    def reflect(self) -> "Chart":
        return replace(
            self,
            chart_id=self.chart_id + "_reflected",
            orientation="reflected",
        )


@dataclass(frozen=True)
class GluingRecord:
    surface_id: str
    kind: str  # "photon_sphere" | "minimal_boundary"
    left_chart: str
    right_chart: str
    r_left: float
    r_right: float
    area_radius: float


@dataclass(frozen=True)
class PiecewiseManifold:
    """Charts in traversal order plus the gluings between neighbours.

    ``ends`` lists chart ids owning an asymptotic end; before doubling
    there is exactly one end and an exposed minimal boundary (the neck
    horizon), afterwards two ends and no boundary.
    """

    charts: tuple[Chart, ...]
    gluings: tuple[GluingRecord, ...]
    ends: tuple[str, ...]
    boundary: tuple[str, float] | None  # (chart_id, r) of an exposed horizon

    def chart(self, chart_id: str) -> Chart:
        for c in self.charts:
            if c.chart_id == chart_id:
                return c
        raise KeyError(chart_id)

    def gluing(self, surface_id: str) -> GluingRecord:
        for g in self.gluings:
            if g.surface_id == surface_id:
                return g
        raise KeyError(surface_id)

    def end(self, orientation: str) -> str:
        """Id of the first end chart with this orientation."""
        for end_id in self.ends:
            if self.chart(end_id).orientation == orientation:
                return end_id
        raise DomainError(f"manifold has no {orientation} end")


# ---------------------------------------------------------------------------
# Gluing
# ---------------------------------------------------------------------------


def glue_neck(
    exterior: RadialProfile,
    r0: float,
    match_tol: float = MATCH_TOL,
    mu_override: float | None = None,
) -> PiecewiseManifold:
    """Attach the mass-matched neck below the photon sphere at r0.

    The exterior is audited first: if any photon-sphere identity residual
    exceeds ``match_tol`` the gluing is refused with the failing residual
    named (:class:`GluingRefusal`).  ``mu_override`` deliberately builds a
    wrong-mass neck on the same gluing surface, for negative controls.
    """
    _require_piece(exterior, "glue_neck")
    return _glue_audited(exterior, r0, audit_sphere(exterior, r0), match_tol, mu_override)


def _glue_audited(
    exterior: RadialProfile,
    r0: float,
    report: IdentityReport,
    match_tol: float,
    mu_override: float | None,
) -> PiecewiseManifold:
    """:func:`glue_neck` on the exterior's audit ``report`` at r0."""
    worst, value = report.worst_residual()
    if not abs(value) <= match_tol:  # a NaN residual is refused too
        raise GluingRefusal(
            f"not a photon sphere at r0={r0}: {worst} = {value:.3e} "
            f"exceeds match_tol = {match_tol:.1e}",
            failing=worst,
            value=value,
        )
    if not report.H_positive:
        raise GluingRefusal(
            "mean curvature not positive at the candidate sphere",
            failing="H_positive",
            value=report.H,
        )
    # The neck's mass parameter is a third of the component's area radius,
    # so its chart runs from its horizon to its own photon sphere at exactly
    # that radius; the collar scale 3 m_i / r_i makes the scaled neck lapse
    # continue the exterior lapse across the gluing.
    r_i = report.area_radius
    if r_i <= 0.0:
        raise DomainError("area radius must be positive")
    if mu_override is None:
        neck_profile = make_schwarzschild_neck(r_i / 3.0)
    else:
        neck_profile = make_schwarzschild_neck(float(mu_override), r_glue=r_i)
    neck = Chart(
        chart_id="neck",
        profile=neck_profile,
        orientation="outward",
        collar_scale=3.0 * report.mass_i / r_i,
        role="neck",
    )
    ext = Chart(
        chart_id="exterior",
        profile=exterior.restricted(float(r0), exterior.r_hi),
        orientation="outward",
        collar_scale=1.0,
        role="exterior",
    )
    gluing = GluingRecord(
        surface_id="photon_sphere",
        kind="photon_sphere",
        left_chart="neck",
        right_chart="exterior",
        r_left=neck_profile.r_hi,
        r_right=float(r0),
        area_radius=float(r_i),
    )
    return PiecewiseManifold(
        charts=(neck, ext),
        gluings=(gluing,),
        ends=("exterior",),
        boundary=("neck", neck_profile.r_lo),
    )


def double(manifold: PiecewiseManifold) -> PiecewiseManifold:
    """Reflect through the exposed minimal boundary.

    Produces the doubled manifold: reflected copies (with flipped collar
    sign) traversed first, the original charts after, the old boundary now
    an interior minimal gluing.  Doubling a manifold without an exposed
    boundary is refused.
    """
    if manifold.boundary is None:
        raise DomainError("manifold has no exposed boundary to double through")
    if len(manifold.ends) != 1:
        raise DomainError("doubling expects exactly one end")
    b_chart_id, b_r = manifold.boundary
    reflected = tuple(c.reflect() for c in reversed(manifold.charts))
    reflected_gluings = tuple(
        GluingRecord(
            surface_id=g.surface_id + "_reflected",
            kind=g.kind,
            left_chart=g.right_chart + "_reflected",
            right_chart=g.left_chart + "_reflected",
            r_left=g.r_right,
            r_right=g.r_left,
            area_radius=g.area_radius,
        )
        for g in reversed(manifold.gluings)
    )
    b_chart = manifold.chart(b_chart_id)
    minimal = GluingRecord(
        surface_id="minimal_boundary",
        kind="minimal_boundary",
        left_chart=b_chart_id + "_reflected",
        right_chart=b_chart_id,
        r_left=b_r,
        r_right=b_r,
        area_radius=float(b_chart.profile.Rareal(b_r)),
    )
    return PiecewiseManifold(
        charts=reflected + manifold.charts,
        gluings=reflected_gluings + (minimal,) + manifold.gluings,
        ends=(manifold.ends[0] + "_reflected", manifold.ends[0]),
        boundary=None,
    )


# ---------------------------------------------------------------------------
# Match reports
# ---------------------------------------------------------------------------

MATCH_FIELDS = (
    "psi",
    "nu_psi",
    "area_radius",
    "H",
    "dpsi_g_tangent",
    "g_psipsi",
    "dpsi_g_psipsi",
)


@dataclass(frozen=True)
class MatchReport:
    """One-sided values and jumps of the seven matched quantities.

    Fields, all evaluated with the continuing normal on both sides:
    collar value psi; its normal derivative nu_psi; the area radius of the
    surface; the mean curvature H; the tangential metric flow
    ``dpsi_g_tangent`` = 2 h / nu_psi (coefficient against the unit-sphere
    metric, h = (H/2) * area_radius^2); the collar-gauge normal metric
    ``g_psipsi`` = 1/nu_psi^2; and its flow ``dpsi_g_psipsi`` =
    -2 nu_psi^2 * Hess psi(n, n) with Hess psi(n, n) = -H * nu_psi on a
    level set of constant psi.
    """

    surface_id: str
    kind: str
    left: dict
    right: dict
    jumps: dict

    @property
    def max_jump(self) -> float:
        return _max_or_nan([abs(v) for v in self.jumps.values()])


def largest_jump(reports) -> float:
    """Largest ``max_jump`` over match reports; NaN if any jump is NaN."""
    return _max_or_nan([rep.max_jump for rep in reports])


def _side_values(chart: Chart, r: float) -> dict:
    profile = chart.profile
    psi = chart.psi_scale * float(profile.N(r))
    # along the continuing normal; nu(N) is fused so horizons stay finite
    nu_psi = chart.normal_dir * chart.psi_scale * float(profile.nu_N(r))
    area_radius = float(profile.Rareal(r))
    h = chart.normal_dir * float(profile.sphere_mean_curvature(r))
    if nu_psi != 0.0:
        dpsi_g_tangent = h * area_radius ** 2 / nu_psi
        g_psipsi = 1.0 / (nu_psi * nu_psi)
    else:
        dpsi_g_tangent = g_psipsi = math.inf
    values = (psi, nu_psi, area_radius, h, dpsi_g_tangent, g_psipsi, 2.0 * h * nu_psi ** 3)
    return dict(zip(MATCH_FIELDS, values))


def match_report(manifold: PiecewiseManifold, surface_id: str) -> MatchReport:
    """Evaluate the seven-field jump report at one gluing surface."""
    g = manifold.gluing(surface_id)
    left = _side_values(manifold.chart(g.left_chart), g.r_left)
    right = _side_values(manifold.chart(g.right_chart), g.r_right)
    jumps = {k: abs(left[k] - right[k]) for k in MATCH_FIELDS}
    return MatchReport(
        surface_id=surface_id, kind=g.kind, left=left, right=right, jumps=jumps
    )


# ---------------------------------------------------------------------------
# Collar diagnostics over whole manifolds
# ---------------------------------------------------------------------------


def guarded_chart_samples(chart: Chart, n: int) -> np.ndarray:
    """Sample radii inside one chart, away from its edges.

    The inset at each edge is :data:`SAMPLE_GUARD` times the local radius,
    which keeps finite-difference stencils and curvature formulas clear of
    gluing surfaces and horizon endpoints.
    """
    lo, hi = chart.profile.r_lo, chart.profile.r_hi
    lo_eff = lo + SAMPLE_GUARD * max(abs(lo), 1.0)
    hi_eff = hi - SAMPLE_GUARD * max(abs(hi), 1.0)
    if not (lo_eff < hi_eff):
        raise DomainError("guard band exhausted the chart interior")
    space = np.geomspace if chart.role == "exterior" else np.linspace
    return space(lo_eff, hi_eff, n)


def _samples_per_chart(charts, n_samples: int, floor: int) -> int:
    """Even split of ``n_samples`` over ``charts``, at least ``floor`` each."""
    return max(floor, n_samples // max(1, len(charts)))


@dataclass(frozen=True)
class _SamplePlan:
    """What a run's whole-manifold scans read, fixed before they run: per
    chart, ``first``, the first chart of its profile object, role and
    collar scale, whose scans it repeats (:func:`double` gives a mirror
    chart its original's profile object), and that chart's ``n`` guarded
    radii and their jets of N, A and Rareal, or None."""

    n: int
    first: tuple[int, ...]
    radii: tuple
    jets: tuple


def _sample_plan(charts, n: int = 0, reader: str | None = None, sampled=None) -> _SamplePlan:
    """The plan of ``charts``: radii where ``sampled(chart)`` (all if None,
    none if n is 0), and their jets if ``reader`` names the entry reading
    them, which refuses an A whose square underflows as curvature_at does."""
    first = tuple(next(j for j, d in enumerate(charts) if d is c or (
        d.profile is c.profile and d.role == c.role and d.collar_scale == c.collar_scale
    )) for c in charts)
    radii, jets = {}, {}
    for chart, j in zip(charts, first):
        if n and j not in radii and (sampled is None or sampled(chart)):
            radii[j] = rs = guarded_chart_samples(chart, n)
            if reader is not None:
                jets[j] = _jets_at(chart.profile, rs)
                _require_normal_square(reader, jets[j][1].v, rs)
    return _SamplePlan(n, first, tuple(map(radii.get, first)), tuple(map(jets.get, first)))


def _planned_scans(charts, plan: _SamplePlan, scan):
    """(chart id, radii, values) per chart, from ``scan(i, chart)`` ->
    (radii, values) on each chart that is its own ``plan.first``."""
    done = []
    for i, (chart, j) in enumerate(zip(charts, plan.first)):
        done.append(scan(i, chart) if j == i else done[j])
        yield (chart.chart_id, *done[i])


def _worst_sample(scans) -> tuple[float, tuple[str, float], int]:
    """Worst sample of a whole-manifold certificate.

    ``scans`` gives one (chart id, radii, values) triple per chart, in
    traversal order.  Returns the largest value, where it is as (chart id,
    r), and the number of samples.  ``np.argmax`` picks the first NaN if
    there is one, so a non-finite sample surfaces as the certificate
    instead of being skipped.
    """
    chart_ids, radii, vals = zip(*scans)
    vals = np.concatenate(vals)
    i = int(np.argmax(vals))
    # the chart of sample i is the last whose first sample is not after it
    starts = np.cumsum([0] + [len(r) for r in radii])
    k = int(np.searchsorted(starts, i, side="right")) - 1
    return float(vals[i]), (str(chart_ids[k]), float(radii[k][i - starts[k]])), len(vals)


@dataclass(frozen=True)
class PsiBoundReport:
    max_abs_psi: float
    argmax: tuple[str, float]
    strict_bound: bool
    boundary_lapse: dict
    n_samples: int


def psi_bound_check(manifold: PiecewiseManifold) -> PsiBoundReport:
    """Verify |psi| < 1 by dense sampling: 10^4 radii split evenly over the
    charts, at least 16 each (endpoints included where finite), read once
    per mirror pair (:class:`_SamplePlan`).

    Also reports the lapse value at each photon-sphere gluing: these are
    the boundary values that the maximum principle propagates inward, so
    each must itself be below 1.  A non-finite sample is reported as the
    maximum and fails the bound.
    """
    return _psi_bound(manifold, _sample_plan(manifold.charts))


def _psi_bound(manifold: PiecewiseManifold, plan: _SamplePlan) -> PsiBoundReport:
    """:func:`psi_bound_check` on a plan of the charts."""
    per = _samples_per_chart(manifold.charts, 10000, 16)

    def scan(_, chart):
        lo, hi = chart.profile.r_lo, chart.profile.r_hi
        if chart.profile.degenerate_lo:
            lo = np.nextafter(lo, hi)
        if chart.profile.degenerate_hi:
            hi = np.nextafter(hi, lo)
        rs = np.linspace(lo, hi, per)
        psi = chart.collar_scale * np.asarray(chart.profile.N(rs), dtype=float)
        return rs, np.abs(psi)

    worst, arg, count = _worst_sample(_planned_scans(manifold.charts, plan, scan))
    boundary = {}
    for g in manifold.gluings:
        if g.kind == "photon_sphere":
            chart = manifold.chart(g.right_chart)
            boundary[g.surface_id] = abs(
                chart.collar_scale * float(chart.profile.N(g.r_right))
            )
    return PsiBoundReport(
        max_abs_psi=worst,
        argmax=arg,
        strict_bound=worst < 1.0,
        boundary_lapse=boundary,
        n_samples=count,
    )


def psi_harmonicity_max(manifold: PiecewiseManifold) -> float:
    """max |Laplacian of psi| over 128 guarded samples of every chart.

    psi restricted to a chart is a constant multiple of that chart's lapse,
    so its Laplacian is the same multiple of the lapse Laplacian, which
    :func:`~photonlab.curvature.curvature_at` reports as ``lap_N``: the
    scan reads the chart's jets with that function's checks and forms only
    the Laplacian, with its bits.  Each chart is evaluated as one array,
    once per mirror pair (:class:`_SamplePlan`); the worst sample is taken
    by :func:`_worst_sample`, so a non-finite sample is reported as the
    maximum.
    """
    plan = _sample_plan(manifold.charts, 128, "psi_harmonicity_max")
    return _psi_harmonicity(manifold, plan)


def _psi_harmonicity(manifold: PiecewiseManifold, plan: _SamplePlan) -> float:
    """:func:`psi_harmonicity_max` on a plan of 128 radii with jets."""

    def scan(i, chart):
        lap = np.asarray(radial_laplacian(*plan.jets[i]), dtype=float)
        return plan.radii[i], np.abs(chart.collar_scale * lap)

    return _worst_sample(_planned_scans(manifold.charts, plan, scan))[0]
