"""Curvature layer walk-through: closed-form samples, the finite-difference
oracle, and what "static vacuum" looks like as a residual scan.

Run:  python3 demos/01_curvature_verification.py
"""

import numpy as np

from photonlab import (
    convergence_study,
    curvature_at,
    fd_curvature_oracle,
    identity_residuals,
    make_interior_fluid,
    make_schwarzschild_exterior,
)


def section(title):
    print(f"\n== {title} ==")


def main():
    section("vacuum exterior, mass 1")
    exterior = make_schwarzschild_exterior(1.0, 2.5, 100.0)
    for r in (2.6, 3.0, 10.0, 90.0):
        s = curvature_at(exterior, r)
        print(
            f"  r = {r:6.2f}   Ric(n,n) = {s.ric_nn:+.6f}   "
            f"Ric(t,t) = {s.ric_tt:+.6f}   worst residual = "
            f"{s.max_vacuum_residual():.2e}"
        )
    rs = np.linspace(2.5 + 1e-6, 100.0 - 1e-6, 512)
    worst = max(curvature_at(exterior, float(r)).max_vacuum_residual() for r in rs)
    print(f"  512-sample scan: max residual of the static vacuum system {worst:.2e}")

    section("the same scan inside a fluid ball is NOT vacuum")
    fluid = make_interior_fluid(1.0, 2.5)
    s = curvature_at(fluid, 1.0)
    print(f"  r = 1.00   scalar curvature = {s.scalar:+.6f} (constant 6k inside)")
    print(f"             vacuum residual  = {s.max_vacuum_residual():.2e}  <- source terms")
    res = identity_residuals(fluid, 1.0)
    worst_id = max(abs(v) for v in res.values())
    print(f"  chart-independent identities still hold: worst {worst_id:.2e}")

    section("finite-difference oracle agrees at second order")
    study = convergence_study(exterior, 5.0)
    for h, err in zip(study["steps"], study["errors"]):
        print(f"  h = {h:.0e}   worst field error = {err:.3e}")
    print(f"  least-squares convergence rate: {study['rate']:.4f} (order 2 expected)")

    section("oracle sees only metric values, so it audits tabulated data too")
    sample = fd_curvature_oracle(exterior, 5.0, h=1e-4)
    closed = curvature_at(exterior, 5.0)
    print(f"  closed form Ric(n,n) = {closed.ric_nn:+.12f}")
    print(f"  finite diff Ric(n,n) = {sample.ric_nn:+.12f}")
    print(f"  difference            {abs(closed.ric_nn - sample.ric_nn):.2e}")


if __name__ == "__main__":
    main()
