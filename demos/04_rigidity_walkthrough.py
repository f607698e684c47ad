"""The full rigidity argument as a numerical walk-through.

Starting from an exterior region whose inner boundary passes the photon-
sphere audit, the pipeline (1) glues a canonical neck, (2) doubles across
the neck's minimal boundary, (3) rescales by the fourth power of
u = (1 + psi)/2 built from the collar function psi, and then certifies
that the sealed space is scalar-flat, massless on both ends, and
compactifiable — which forces the original exterior to be the exterior of
a single mass, reconstructed at the end.

Run:  python3 demos/04_rigidity_walkthrough.py
"""

from photonlab import (
    adm_mass_estimate,
    compactification_check,
    conformal_scalar_residual,
    conformal_transform,
    double,
    flatness_check,
    glue_neck,
    make_schwarzschild_family,
    match_report,
    psi_bound_check,
    psi_harmonicity_max,
    reconstruct_schwarzschild,
    run_rigidity_pipeline,
)


def section(title):
    print(f"\n== {title} ==")


def main():
    exterior = make_schwarzschild_family(1.0, 3.0, 100.0)

    section("step 1: glue a neck below the audited boundary")
    glued = glue_neck(exterior, 3.0)
    for chart in glued.charts:
        print(f"  chart {chart.chart_id:10s} covers "
              f"[{chart.profile.r_lo}, {chart.profile.r_hi}]")
    rep = match_report(glued, "photon_sphere")
    print(f"  C^1 match across the gluing surface: worst jump {rep.max_jump:.3e}")

    section("step 2: double across the neck's minimal boundary")
    doubled = double(glued)
    print(f"  charts: {[c.chart_id for c in doubled.charts]}")
    print(f"  ends:   {list(doubled.ends)}")
    bound = psi_bound_check(doubled)
    print(f"  collar function: max |psi| = {bound.max_abs_psi:.10f} < 1 "
          f"(attained on chart {bound.argmax[0]})")
    print(f"  harmonicity residual of psi: {psi_harmonicity_max(doubled):.3e}")

    section("step 3: rescale by u^4 with u = (1 + psi)/2")
    conformal = conformal_transform(doubled)
    u_plus = float(conformal.chart("exterior").u(100.0))
    u_minus = float(conformal.chart("exterior_reflected").u(100.0))
    print(f"  u on the kept end at r = 100:      {u_plus:.12f}")
    print(f"  u on the reflected end at r = 100: {u_minus:.12f}")
    print(f"  (complementary: u + u_reflected = {u_plus + u_minus:.12f})")

    section("step 4: certify the sealed space")
    scalar = conformal_scalar_residual(conformal, n_samples=512)
    print(f"  scalar curvature after rescaling: max |R| = "
          f"{scalar['max_abs_scalar']:.3e}")
    outward = adm_mass_estimate(doubled, "exterior")
    sealed = adm_mass_estimate(conformal, "exterior_reflected")
    print(f"  ADM mass, kept end:      {outward['mass']:.9f}")
    print(f"  ADM mass, sealed end:    {sealed['mass']:.2e}")
    comp = compactification_check(conformal)
    print(f"  inverted-end metric factor -> {comp.limit:.7f} "
          f"(expected (m/2)^4 = 0.0625), rate {comp.rate:.3f}, "
          f"converged: {comp.converged}")
    flat = flatness_check(conformal, n_samples=256)
    print(f"  flatness of the sealed space: max curvature "
          f"{flat['max_curvature']:.3e}")

    section("the one-call version, plus reconstruction")
    report = run_rigidity_pipeline(exterior)
    print(f"  verdict: {report.verdict}")
    mass, radius, lapse = reconstruct_schwarzschild(report)
    print(f"  unique exterior: mass = {mass}, photon sphere at r = {radius}, "
          f"boundary lapse = {lapse:.12f}")


if __name__ == "__main__":
    main()
