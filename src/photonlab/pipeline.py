"""End-to-end rigidity run: glue, double, rescale, certify, reconstruct.

Given an exterior radial profile whose inner boundary claims to be a photon
sphere, the pipeline attaches the matched neck, doubles across the neck
horizon, applies the conformal rescaling by u = (1 + psi)/2, and then
certifies everything that makes the result recognizably Schwarzschild:
C^1 matching at every gluing surface, the strict bound |psi| < 1,
harmonicity of psi, scalar-flatness of the rescaled metric, the mass pair
(physical ADM mass on the outward end, zero mass on the compactified
reflected end), the compactification limit, and full flatness.  Which of
these gate the verdict ``schwarzschild_rigid`` is stated once, in
:class:`PipelineReport`.  Reconstruction then reads the mass back from the
neck and cross-checks it against the boundary audit.

Stage order matters: the gluing audit runs first and refuses boundaries
that are not photon spheres (:class:`~photonlab.gluing.GluingRefusal`), so
later certificates never see malformed data.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from .audit import IdentityReport, audit_sphere
from .conformal import (
    CompactificationReport,
    _flatness,
    _scalar_residual,
    adm_mass_estimate,
    compactification_check,
    conformal_transform,
)
from .curvature import _max_or_nan
from .gluing import (
    MATCH_TOL,
    MatchReport,
    PsiBoundReport,
    _glue_audited,
    _psi_bound,
    _psi_harmonicity,
    _sample_plan,
    _samples_per_chart,
    double,
    largest_jump,
    match_report,
)
from .radial import DomainError, RadialProfile, _require_piece

__all__ = [
    "FLAT_TOL",
    "MASS_TOL",
    "PipelineReport",
    "run_rigidity_pipeline",
    "reconstruct_schwarzschild",
]

FLAT_TOL = 1e-6
MASS_TOL = 1e-3

VERDICT_RIGID = "schwarzschild_rigid"
VERDICT_NOT_RIGID = "not_rigid"


@dataclass(frozen=True)
class PipelineReport:
    """Everything the rigidity run measured, plus the verdict.

    ``reconstructed_mass`` is the neck mass parameter mu_1, one third of
    the boundary audit's area radius; :func:`reconstruct_schwarzschild`
    checks it against the component mass.  The verdict is rigid exactly
    when ``flatness_max_curvature`` <= :data:`FLAT_TOL`, every
    match jump <= ``match_tol``, ``psi_bound.strict_bound``,
    ``compactification.converged``,
    |``adm_exterior["mass"]`` / mass_i - 1| <= :data:`MASS_TOL`,
    |``adm_conformal_end["mass"]``| / mass_i <= :data:`MASS_TOL` (mass_i
    from ``boundary_audit``) and every float in the report is finite.
    ``psi_harmonicity`` and ``conformal_scalar_max`` are reported for
    independent scrutiny and gate nothing yet: the scalar's tolerance has
    to scale with the mass first (m = 0.1 reads 2.6e-7 against 1e-8).
    """

    boundary_audit: IdentityReport
    match_reports: tuple[MatchReport, ...]
    psi_bound: PsiBoundReport
    psi_harmonicity: float
    conformal_scalar_max: float
    conformal_scalar_argmax: tuple
    adm_exterior: dict
    adm_conformal_end: dict
    compactification: CompactificationReport
    flatness_max_curvature: float
    reconstructed_mass: float
    verdict: str
    tolerances: dict
    n_samples: int

    @property
    def max_match_jump(self) -> float:
        return largest_jump(self.match_reports)

    @property
    def rigid(self) -> bool:
        return self.verdict == VERDICT_RIGID


def run_rigidity_pipeline(
    exterior: RadialProfile,
    match_tol: float = MATCH_TOL,
    n_samples: int = 512,
) -> PipelineReport:
    """Run every stage on an exterior profile bounded by a photon sphere.

    The candidate sphere is the profile's inner boundary; the gluing audit
    decides whether it qualifies and refuses otherwise.  Mass and
    compactification schedules scale with the audited component mass, so
    the same call covers any mass without retuning.
    """
    _require_piece(exterior, "run_rigidity_pipeline")
    r0 = float(exterior.r_lo)
    boundary_audit = audit_sphere(exterior, r0)
    glued = _glue_audited(exterior, r0, boundary_audit, match_tol, None)
    doubled = double(glued)

    matches = tuple(match_report(doubled, g.surface_id) for g in doubled.gluings)
    plan = _sample_plan(doubled.charts, 128, "psi_harmonicity_max")
    bound = _psi_bound(doubled, plan)
    harmonicity = _psi_harmonicity(doubled, plan)

    conformal = conformal_transform(doubled)
    if (per := _samples_per_chart(doubled.charts, n_samples, 8)) != plan.n:
        plan = _sample_plan(doubled.charts, per, "flatness_check")
    scalar = _scalar_residual(conformal, plan)

    mass_i = float(boundary_audit.mass_i)
    schedule = tuple(50.0 * mass_i * 2.0 ** k for k in range(4))
    adm_ext = adm_mass_estimate(doubled, doubled.end("outward"), schedule)
    adm_conf = adm_mass_estimate(conformal, doubled.end("reflected"), schedule)
    compact = compactification_check(conformal)
    flat = _flatness(conformal, plan)

    mu_1 = float(doubled.chart("neck").profile.mass)
    worst_jump = largest_jump(matches)
    fields = dict(
        boundary_audit=boundary_audit,
        match_reports=matches,
        psi_bound=bound,
        psi_harmonicity=float(harmonicity),
        conformal_scalar_max=float(scalar["max_abs_scalar"]),
        conformal_scalar_argmax=tuple(scalar["argmax"]),
        adm_exterior=adm_ext,
        adm_conformal_end=adm_conf,
        compactification=compact,
        flatness_max_curvature=float(flat["max_curvature"]),
        reconstructed_mass=mu_1,
        tolerances={
            "match_tol": float(match_tol),
            "flat_tol": FLAT_TOL,
            "mass_tol": MASS_TOL,
        },
        n_samples=int(n_samples),
    )
    rigid = (
        flat["max_curvature"] <= FLAT_TOL
        and worst_jump <= match_tol
        and bound.strict_bound
        and compact.converged
        and abs(adm_ext["mass"] / mass_i - 1.0) <= MASS_TOL
        and abs(adm_conf["mass"]) / mass_i <= MASS_TOL
        and _all_finite(fields)
    )
    return PipelineReport(
        **fields, verdict=VERDICT_RIGID if rigid else VERDICT_NOT_RIGID
    )


def _all_finite(obj) -> bool:
    """Whether every float in nested dataclasses, dicts and sequences is
    finite."""
    if isinstance(obj, float):
        return math.isfinite(obj)
    if isinstance(obj, dict):
        obj = obj.values()
    elif dataclasses.is_dataclass(obj):
        obj = vars(obj).values()  # the fields, in order
    elif not isinstance(obj, (list, tuple)):
        return True
    return all(map(_all_finite, obj))


def reconstruct_schwarzschild(report: PipelineReport) -> tuple[float, float, float]:
    """Read (mass, photon-sphere radius, spacetime mean curvature) back.

    Only a rigid verdict licenses reconstruction.  The returned triple is
    (m, 3m, 1/(sqrt(3) m)); each entry is cross-checked against the
    boundary-audit values (component mass, audited area
    radius, audited spacetime mean curvature) to 1e-10 and the call fails
    loudly on disagreement.

    Two of the four gaps are not independent.  m is the neck's mass
    parameter, which :func:`glue_neck` sets to area_radius / 3, so on a
    report the pipeline produced ``r_photon - area_radius`` is within one
    ulp by construction.  ``spacetime_h - spacetime_H`` is ``mass -
    mass_from_H`` weighted by 1/(sqrt(3) m m_H).  ``mass - mass_i`` is not
    an identity: on the m = 1 exterior from r0 = 3(1 + 1e-9) it is 1.0e-9.
    """
    if report.verdict != VERDICT_RIGID:
        raise DomainError(
            f"reconstruction requires verdict {VERDICT_RIGID!r}, "
            f"got {report.verdict!r}"
        )
    mass = float(report.reconstructed_mass)
    r_photon = 3.0 * mass
    spacetime_h = 1.0 / (math.sqrt(3.0) * mass)
    audit = report.boundary_audit
    gap = _max_or_nan((
        abs(mass - audit.mass_i),
        abs(mass - audit.mass_from_H),
        abs(r_photon - audit.area_radius),
        abs(spacetime_h - audit.spacetime_H),
    ))
    if not gap <= 1e-10 * max(1.0, mass):  # a NaN gap is refused
        raise DomainError(
            "reconstructed values disagree with the boundary audit: "
            f"max gap {gap:.3e}"
        )
    return mass, r_photon, spacetime_h
