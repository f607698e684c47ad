"""Golden digests of the sphere audit and the identity residuals, frozen bit for bit.

``audit_sphere`` and ``identity_residuals`` read the sphere's geometry
from the profile: the shape-operator eigenvalue k = Rareal'/(A Rareal),
H = k + k, the trace-free norm, the sphere scalar 2/R^2, nu(N) and N,
with the degenerate-horizon branch at a flagged endpoint.  Each case below
is a profile and its radii; for every radius the digest takes the
``repr`` of the result and the type of each of its fields, or the type
and message of the exception it raised, and the set of warnings emitted
on the way (category and message).

The cases span closed-form exteriors at masses 1e-3 ... 33.6 (at, below
and above the photon sphere, at both domain ends, outside the domain and
at a NaN radius), the neck with its horizon endpoint, the fluid ball with
its centre, a 400-node geometric table with a knot among its radii, and
exteriors with one channel replaced: Rareal = r^1.1, a doubled lapse, an
infinite, tiny, subnormal or zero A, and a NaN lapse.  A change to how
these certificates form their values that moves any bit, changes a
field's type, an exception or a warning shows here.

Everything is float64; no digest depends on extended precision.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import warnings

import numpy as np
import pytest

from photonlab.audit import audit_sphere
from photonlab.curvature import identity_residuals
from photonlab.radial import (
    RadialFunction,
    make_interior_fluid,
    make_schwarzschild_family,
    make_schwarzschild_neck,
    make_tabulated,
)

MASSES = [1e-3, 0.1, 0.5, 0.5085834761425084, 1.0, 2.0, 10.0, 33.6]


def _leaf(c):
    """The constant c as a leaf whose value keeps the radius's type."""
    return RadialFunction(lambda r: c + 0.0 * r, lambda r: 0.0 * r, lambda r: 0.0 * r)


def _power(p):
    return RadialFunction(
        lambda r: r ** p, lambda r: p * r ** (p - 1.0), lambda r: p * (p - 1.0) * r ** (p - 2.0)
    )


def _cases():
    cases = {}
    for m in MASSES:
        ext = make_schwarzschild_family(m, 2.1 * m, 100.0 * m)
        radii = [3.0 * m, 2.9 * m, 3.1 * m, 10.0 * m, ext.r_lo, ext.r_hi, math.nan, 200.0 * m]
        cases[f"exterior m={m!r}"] = (ext, radii)
    for mu in (1e-3, 1.0, 33.6):
        neck = make_schwarzschild_neck(mu)
        cases[f"neck mu={mu!r}"] = (neck, [2.0 * mu, 2.5 * mu, 3.0 * mu, math.nan, 1.0 * mu])
    for m, r_b in ((1.0, 2.5), (0.5, 2.0)):
        fluid = make_interior_fluid(m, r_b)
        cases[f"fluid m={m!r}"] = (fluid, [0.0, 0.3 * r_b, r_b, math.nan, -1.0])
    base = make_schwarzschild_family(1.0, 2.1, 100.0)
    nodes = np.geomspace(2.1, 100.0, 400)
    table = make_tabulated(nodes, base.N(nodes), base.A(nodes), base.Rareal(nodes))
    cases["table"] = (table, [2.1, 3.0, float(nodes[57]), 50.0, 100.0, math.nan, 101.0])
    replaced = {
        "Rareal=r^1.1": {"Rareal": _power(1.1)},
        "N doubled": {"N": RadialFunction.expression(lambda r: 2.0 * base.N(r))},
        "A infinite": {"A": _leaf(math.inf)},
        "A tiny": {"A": _leaf(1e-300)},
        "A subnormal": {"A": _leaf(5e-324)},
        "A zero": {"A": _leaf(0.0)},
        "N nan": {"N": _leaf(math.nan)},
    }
    for name, channels in replaced.items():
        cases[f"exterior with {name}"] = (
            dataclasses.replace(base, **channels),
            [3.0, 5.0, 50.0],
        )
    return cases


CASES = _cases()


def _outcome(call) -> str:
    """repr and field types of ``call()``, or its exception; then the set
    of warnings it emitted."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = call()
        except Exception as exc:  # the refusal is part of the pinned outcome
            text = f"{type(exc).__name__}: {exc}"
        else:
            values = out.values() if isinstance(out, dict) else dataclasses.astuple(out)
            text = f"{out!r} {[type(v).__name__ for v in values]}"
    seen = sorted({f"{w.category.__name__}: {w.message}" for w in caught})
    return f"{text} {seen}\n"


def _digest(case: str, entry) -> str:
    profile, radii = CASES[case]
    digest = hashlib.sha256()
    for r in radii:
        digest.update(_outcome(lambda: entry(profile, r)).encode("utf-8"))
    return digest.hexdigest()


AUDIT_GOLDEN = {
    "exterior m=0.001": "a26bb9c68a9edff4fb4cb70817f4db00d6721adbef12efc91bf93e4d9ae7dbf6",
    "exterior m=0.1": "b2fd241b8d3c4991577160d92a5732ce09c70c712a4b2d95cb428e6dfe0f924b",
    "exterior m=0.5": "fb3421d9ceff4433ff584d0ee6d2a1a21f36591ee6e6feb15772255562805d7e",
    "exterior m=0.5085834761425084": "8c9647684906ad89f48685d45a580184a35e268814fc8ce928f25eca579cc2a9",
    "exterior m=1.0": "ddfecfdcd7dd16beae1bbe4130863066e23ca809810fcd15227b3e9fd7f73100",
    "exterior m=2.0": "6366e11edeb901fcd3202513cf76b42415b5db30386f48fc7cf19aacce9eac2b",
    "exterior m=10.0": "2d650b78ae8c6297e18ae2e6879a6820b00864002f36ef1f457ac65af359be61",
    "exterior m=33.6": "081f5857cdbd1d4d8511a07b93e899519f0781b07145efb6d255083f3ff58152",
    "neck mu=0.001": "2d78a2977f2f63d37d97dd88c83b8741f33b20e04ebc11977dea89fe7e5ebc24",
    "neck mu=1.0": "a4e9e10d334d20923ae67b85637692b45bf87f775ce8077c7f8772a1bd7c52e5",
    "neck mu=33.6": "0d05030a5c8b33799f324ad76668f190c894c4139d63b07985486a39a7222f5a",
    "fluid m=1.0": "b0149e179ce34e1266d86ada39ef11c3ab07f0e0c1f3df146a8fe1de3cfe781c",
    "fluid m=0.5": "aab4788fb95e67dee13718b874db40555dbbd24f92175d98c5139dcddbc54668",
    "table": "4fe5f9dc0df2e2cf80143b8bb7551989f0cab4b84082899de5e38d1ce505cd2d",
    "exterior with Rareal=r^1.1": "1e8bc48497e6b101d5cb041f42f23946dfdfc995dc4e88923a4835b2e01f63ef",
    "exterior with N doubled": "e6b60a13505bbba7844d982f02a32fae8586a5f06b66675557f4b33dfc098022",
    "exterior with A infinite": "80b6fa1ff6160f5c7af4f87fd5a0e2eced00f48d95ff1f4d0cb401c2d7d770ea",
    "exterior with A tiny": "7bc3712e7f695f1317448f108890a410cc2e8bbb5705c1b15c8e94f87a184f4a",
    "exterior with A subnormal": "e47675f56edb8148df01b11162d5de89cd371e72cc347133e20bd538633475c3",
    "exterior with A zero": "e47675f56edb8148df01b11162d5de89cd371e72cc347133e20bd538633475c3",
    "exterior with N nan": "1403d7fabb8fdbe49726c76b4f7b953044076fee07f1b3a1e77dca4ebcb3b01a",
}

IDENTITY_GOLDEN = {
    "exterior m=0.001": "6e471027d397622cd28b0becca8a645c701d3b3a1bf7beeeb0ebe6dff8ce596d",
    "exterior m=0.1": "0f544d551002d9467c65ff9429e84bbbe2e94435c38442336be3aab085f1aa2b",
    "exterior m=0.5": "ebc28626a0deb9b734b3b3001c853b7399de03723dab175e959cb9594e673b0a",
    "exterior m=0.5085834761425084": "61d696bf28c34df7e65ce8751f4411fdd8cc401a700f769708df7fcff590066c",
    "exterior m=1.0": "7a22621d8c7d0e04f664b21536f4031e62de33724e816ad166a2926d16ade19b",
    "exterior m=2.0": "d942635fb9b3481611431959ee65d78fa06413a6c35d2a152e357f0b7915099d",
    "exterior m=10.0": "15f3cd732091724ddf0f331ee4b722d9626e7a8711be89bc8a251e04381a6f29",
    "exterior m=33.6": "d6991eabce67c20bdd433237903b733e4bf03ee24d4692be9fd0f4497cf03538",
    "neck mu=0.001": "ce3dfb5d88874d6f2e15832742e7d5ae7a0c457c332353e56267035e648a7dae",
    "neck mu=1.0": "0d1955d8d806fa5065b06b897d5d9e2e16976dcf8b1fb3aec11d83773feab060",
    "neck mu=33.6": "677ccc312341105dfe0efbf56b65cb3b415b8f0db7246d2d08edb7767318e18c",
    "fluid m=1.0": "bddeda09e5046861e9895dbd887be28a683829563113c3fa66b2a5e423f734f8",
    "fluid m=0.5": "e3eaa3e3963c267fad5106fbb8c109da8e67acdb4a9c254c260ffd9ca95cad85",
    "table": "94943e1b06e5801ee9483375495c3731a547303b65a950c666dcf900a9b64581",
    "exterior with Rareal=r^1.1": "2b8b4a85d14c25e2f5a0bf999b944a5674f803e743b100f715543ba1e9253771",
    "exterior with N doubled": "2238ec54c286c5174e318f21ba6335f2c3e13ed593d2409461453b252da3abfc",
    "exterior with A infinite": "852531612621e1baf8eb3472f1148e21e8af220df33133ee70146443f3a5d8cf",
    "exterior with A tiny": "81c757f8713123830b4fead161b6352531e79f1d089b225b13553521ba92e3e7",
    "exterior with A subnormal": "81c757f8713123830b4fead161b6352531e79f1d089b225b13553521ba92e3e7",
    "exterior with A zero": "81c757f8713123830b4fead161b6352531e79f1d089b225b13553521ba92e3e7",
    "exterior with N nan": "bfc71525d3ab7c7029c38d302efc2a5cc79ca0deee83fd08836e306d0c836a31",
}


@pytest.mark.parametrize("case", list(CASES))
def test_audit_sphere_matches_frozen_digest(case):
    assert _digest(case, audit_sphere) == AUDIT_GOLDEN[case]


@pytest.mark.parametrize("case", list(CASES))
def test_identity_residuals_match_frozen_digest(case):
    coordinate = RadialFunction.coordinate()

    def entry(profile, r):
        by_lapse = identity_residuals(profile, r)
        by_coordinate = identity_residuals(profile, r, f=coordinate)
        return {**by_lapse, **{f"{k} of r": v for k, v in by_coordinate.items()}}

    assert _digest(case, entry) == IDENTITY_GOLDEN[case]
