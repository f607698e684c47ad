"""Auditing a candidate photon sphere: the four defining identities and
the mass it sees.

Run:  python3 demos/03_sphere_audit.py
"""

from photonlab import audit_sphere, make_schwarzschild_family


def section(title):
    print(f"\n== {title} ==")


def show_audit(profile, r0):
    rep = audit_sphere(profile, r0)
    print(f"  candidate sphere at r = {r0}")
    print(f"    res_umbilic  = {rep.res_umbilic:+.6e}   (shear of the sphere)")
    print(f"    res_NH       = {rep.res_NH:+.6e}   (lapse-curvature balance)")
    print(f"    res_rH       = {rep.res_rH:+.6e}   (radius-curvature balance)")
    print(f"    res_sigmaR   = {rep.res_sigmaR:+.6e}   (intrinsic-extrinsic balance)")
    print(f"    mass from geometry  = {rep.mass_i:.12f}")
    print(f"    mass from curvature = {rep.mass_from_H:.12f}")
    print(f"    spacetime mean curvature = {rep.spacetime_H:.12f}")
    print(f"    worst residual = {rep.max_residual():.3e}")
    return rep


def main():
    wide = make_schwarzschild_family(1.0, 2.5, 100.0)

    section("the genuine photon sphere, r = 3")
    show_audit(wide, 3.0)

    section("an ordinary sphere, r = 2.9, fails loudly")
    worst, value = show_audit(wide, 2.9).worst_residual()
    print(f"    -> failing identity: {worst} = {value:+.6e}")

    section("quasi-local mass is radius-independent in vacuum")
    for r in (3.0, 10.0, 77.0):
        print(f"  r = {r:5.1f}   component mass = {audit_sphere(wide, r).mass_i:.12f}")


if __name__ == "__main__":
    main()
