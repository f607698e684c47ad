"""Numerical laboratory for photon spheres of static, spherically
symmetric geometries.

The package is organized bottom-up:

``radial``
    Radial metric profiles (closed-form families, fluid interiors,
    tabulated data) with exact first and second derivatives.
``curvature``
    Closed-form curvature in an orthonormal frame and a finite-difference
    oracle that consumes only metric values.
``geodesics``
    Null geodesic integration, trapping verdicts, and photon-sphere root
    search by the optical mean curvature.
``audit``
    The photon-sphere identity system: umbilicity, lapse coupling,
    curvature normalization, and the implied mass.
``gluing``
    Neck attachment below a photon sphere, doubling across the neck
    horizon, C^1 match reports, and the collar-function certificates.
``conformal``
    Conformal rescaling by u = (1 + psi)/2 with scalar-flatness, mass,
    compactification, and flatness certificates.
``pipeline``
    The end-to-end rigidity run and Schwarzschild reconstruction.
``reports`` / ``cli``
    Deterministic JSON/CSV emission and the command-line front end.
"""

from .audit import (
    IdentityReport,
    audit_sphere,
)
from .conformal import (
    CompactificationReport,
    ConformalChart,
    ConformalManifold,
    adm_mass_estimate,
    compactification_check,
    conformal_scalar_residual,
    conformal_transform,
    flatness_check,
)
from .curvature import (
    CurvatureSample,
    VacuumResidualScan,
    curvature_at,
    fd_curvature_oracle,
    vacuum_residual_scan,
)
from .geodesics import (
    GeodesicResult,
    NullGeodesicState,
    TrappingReport,
    fermat_geodesy_residual,
    impact_parameter,
    integrate_null_geodesic,
    photon_sphere_search,
    tangential_launch,
    trapping_report,
)
from .gluing import (
    Chart,
    GluingRefusal,
    MatchReport,
    PiecewiseManifold,
    PsiBoundReport,
    double,
    glue_neck,
    match_report,
    psi_bound_check,
    psi_harmonicity_max,
)
from .pipeline import (
    PipelineReport,
    reconstruct_schwarzschild,
    run_rigidity_pipeline,
)
from .radial import (
    BuchdahlError,
    CompositeProfile,
    DomainError,
    EndpointDegeneracyError,
    ProfileKind,
    RadialFunction,
    RadialProfile,
    buchdahl_ratio,
    dump_profile,
    load_profile,
    make_composite_star,
    make_interior_fluid,
    make_schwarzschild_exterior,
    make_schwarzschild_family,
    make_schwarzschild_neck,
    make_tabulated,
)

__version__ = "0.1.0"
