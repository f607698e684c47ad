"""Curvature layer walk-through: closed-form samples, the finite-difference
oracle, and what "static vacuum" looks like as a residual scan.

Run:  python3 demos/01_curvature_verification.py
"""

import dataclasses

import numpy as np

from photonlab import (
    curvature_at,
    fd_curvature_oracle,
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

    section("finite-difference oracle agrees at second order")
    exact = dataclasses.astuple(curvature_at(exterior, 5.0))
    steps = (1e-2, 1e-3, 1e-4)
    errors = []
    for h in steps:
        sample = dataclasses.astuple(fd_curvature_oracle(exterior, 5.0, h))
        errors.append(float(np.max(np.abs(np.subtract(sample, exact)))))
        print(f"  h = {h:.0e}   worst field error = {errors[-1]:.3e}")
    rate = np.polyfit(np.log(steps), np.log(errors), 1)[0]
    print(f"  least-squares convergence rate: {rate:.4f} (order 2 expected)")

    section("oracle sees only metric values, so it audits tabulated data too")
    sample = fd_curvature_oracle(exterior, 5.0, h=1e-4)
    closed = curvature_at(exterior, 5.0)
    print(f"  closed form Ric(n,n) = {closed.ric_nn:+.12f}")
    print(f"  finite diff Ric(n,n) = {sample.ric_nn:+.12f}")
    print(f"  difference            {abs(closed.ric_nn - sample.ric_nn):.2e}")


if __name__ == "__main__":
    main()
