"""Golden digests of closed-form curvature and radial derivatives, frozen bit for bit.

For each profile the rigidity run differentiates analytically — the four
rescaled charts ``cc.hat`` of the doubled manifold, the isotropic neck
and inverted reflected-end presentations, the optical (Fermat) metric
of the exterior (built by ``_optical`` below), the fluid interior, the
plain closed-form exterior and neck, and a 400-node geometric table of
the exterior on [2.1m, 100m] — the digest covers:

* ``curvature_at`` as one array pass and as per-radius scalar calls;
* ``f(r, nu)`` for nu = 0, 1, 2 of N, A and Rareal, on float64 and on
  longdouble radii, as arrays and (float64) per radius;
* on the ``cc.hat`` charts, the conformal factor ``cc.u(r, nu)``.

The table's radii also include its interior knots.  The inverted
presentation's A and Rareal are the two functions that
``compactification_check`` and ``conformal_end_mass_estimate`` read, so
they are covered by its case.
A change to how derivatives are formed that moves any bit of any of
these values shows here.

Longdouble values are hashed as their float64 part plus the float64 of
the remainder: the raw bytes of an x87 80-bit value include padding that
is not reproducible.  The digests are of x87 extended precision (the
``np.longdouble`` of x86-64 Linux); other platforms round differently.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib

import numpy as np
import pytest

from photonlab.conformal import (
    _inverted_profile,
    _neck_isotropic_profile,
    conformal_transform,
)
from photonlab.curvature import CurvatureSample, curvature_at
from photonlab.gluing import double, glue_neck
from photonlab.radial import (
    ProfileKind,
    RadialFunction,
    RadialProfile,
    make_interior_fluid,
    make_schwarzschild_family,
    make_tabulated,
)

x87 = pytest.mark.skipif(
    np.finfo(np.longdouble).nmant != 63,
    reason="digests are of x87 80-bit extended precision",
)

FIELDS = [f.name for f in dataclasses.fields(CurvatureSample)]
MASSES = [0.5, 1.0, 2.0, 0.5085834761425084]
CASES = [
    "hat:exterior_reflected",
    "hat:neck_reflected",
    "hat:neck",
    "hat:exterior",
    "neck_isotropic",
    "inverted_end",
    "fermat",
    "fluid",
    "exterior",
    "neck",
    "table",
]

GOLDEN = {
    ("hat:exterior_reflected", 0.5): "f2b27d8698d6e7abd0c57db466165f1627da95ce3cb535895bbba9c3cadb6882",
    ("hat:exterior_reflected", 1.0): "0e067b8a70e668f6093797016e33f8c0f41ef6179532ae86411001bfed83c6b4",
    ("hat:exterior_reflected", 2.0): "a571038cc88c95be87c1be7323583004fbf1ce35bc5b0a93c3c96b0badd3fcaa",
    ("hat:exterior_reflected", 0.5085834761425084): "3944ff3082eb7cf56de1bc859d1ce8622c17300f53e20ebfc4117f69d35b3ec8",
    ("hat:neck_reflected", 0.5): "ea35979f4d8fb27afe396459a0cf6232dfd39b191972d544e2faab223973f4ad",
    ("hat:neck_reflected", 1.0): "362f6ca2ae87eee4ac9f80f37c5b6e5bb38b7f2126f9a5cad51c657848428493",
    ("hat:neck_reflected", 2.0): "10ae06eebf940cf965941c3332b28d4622b68a28572aa573c3ddfb875a63a9f7",
    ("hat:neck_reflected", 0.5085834761425084): "bfc4eb4c275440b8dde5d4c0cbb061320639d42726d87b4d457105b93a574540",
    ("hat:neck", 0.5): "eeb7deaa7a0ac259e042abbee74b515337c9f6fa3b1a73b9b6fe99bd640b27fe",
    ("hat:neck", 1.0): "9017d39aea46f397425997899be213217f23fe30d873dbc6b83683babf538c1b",
    ("hat:neck", 2.0): "9b88e1e7b9a2b3404a3158c76a0c110e4ab7a8b5dac9f360f7810c266fdef0e2",
    ("hat:neck", 0.5085834761425084): "63d262384656051f4e2280812702564331a69f755b3a863835bdedca7cddcaf4",
    ("hat:exterior", 0.5): "eada75f24b5b4851a55b9d4468da3c9d767bcbdafabde37fc910ccab67d18801",
    ("hat:exterior", 1.0): "f01df287a5b0afbf11eeb591fc11a8e35cc7269b4afbd06ca3c1b1810d45d2d5",
    ("hat:exterior", 2.0): "4926bf836cf047ef2deaba96f63c779ada67f7255c879ddb44e6088b35bde914",
    ("hat:exterior", 0.5085834761425084): "4690f78f2e3d54b7ad02999ca22f595dc1930a2456982a0a85bcfd84f0210c41",
    ("neck_isotropic", 0.5): "c1ef3b7353493184b61ace8feb6ce1ef52fec56f3a623d8319679bbab3d077c8",
    ("neck_isotropic", 1.0): "2a83fcae7aacb1cccf1a385a7aac4404202fbd46838c05e4a874d3c96f12b287",
    ("neck_isotropic", 2.0): "1a41681dd88a41fc42736fbfad13b1f3458e2271f056e397a4f5b3c42f75cabd",
    ("neck_isotropic", 0.5085834761425084): "49fe4f6078c11a96621f16da20ad93ba041ba3dca1c0386ced183a6ebf0d8d14",
    ("inverted_end", 0.5): "23f54968d1f9750c4aeb441dd66e18e3b35c766022185bf5555ca74f63fabc82",
    ("inverted_end", 1.0): "90d2d71e6c53a24cb44af4064b2f43f0964572d8aa6cf95ec8fd8c73c635fe63",
    ("inverted_end", 2.0): "105576a798fcd45f2fe27e35fee635d837876e8c6364e4f347d90d6d3ba2c9a9",
    ("inverted_end", 0.5085834761425084): "2876c0b5c20bfa6e910ea6127ea221bccab5c2dfdb9f6da1d83f257f8d37c825",
    ("fermat", 0.5): "e8c60a7d8a4f346c4878a46159ff552788ee435ee76bcba5b9fdcf424f7d2fa1",
    ("fermat", 1.0): "e643ec25b1d51af30c75f79f959e1b6123a5ea1743136c5068912717178d78f2",
    ("fermat", 2.0): "dd05605489119e24216cb2b234312176b601c6343298a65937196e1616e205b8",
    ("fermat", 0.5085834761425084): "15997198285aa1d5332db4bf318c9bfd06a2d76a39b21f46ad9d72cd899cf00f",
    ("fluid", 0.5): "1329a0aa4d8efa8d37cf5914cf53fc704f867941971e7114f95016df875b683c",
    ("fluid", 1.0): "a22b32a54ef30ba79ff2d2c925722cdf35a9cbd0931b9652885b64801364947e",
    ("fluid", 2.0): "0eeaf50a8c979f77123a8f9f2937d67b5c41a93242d73a007514f85275b36ef1",
    ("fluid", 0.5085834761425084): "76ffb4954e63310d5e67d667a91645d60581f6292c9deaa68e67141018086a53",
    ("exterior", 0.5): "d8cadf034070781e7df75ae596db52d27c91672df63252b500cef6a89c193309",
    ("exterior", 1.0): "01adfc21662578044bf3b3813be9f742d2da9805bdaef683f064c29761149599",
    ("exterior", 2.0): "dd45108409f0c30270ed83275ff6a38e95c905aef2b2f850b986c28a28871876",
    ("exterior", 0.5085834761425084): "af584528ce40034c2be244f953e0a882b7c5f994da4a2e26fb2b13170850b015",
    ("neck", 0.5): "84d890f9c426c71cd67767e4c5f2d34b8c373e172839b77793e0786aaf2e37ae",
    ("neck", 1.0): "68a2a460394107092191af034262dde9e93e038a848b3cac95c26e41a251de0c",
    ("neck", 2.0): "ed72a871ed7f72e5f23787a6ee0f1984ffc30da811ed72fe7df49dc10cc254fd",
    ("neck", 0.5085834761425084): "565bf2ed3b6809ca470b219a06576667e84301510e5c91f9bb231f73fd8bcb49",
    ("table", 0.5): "39192355acdadcecf3de13dfa24affcdb4178dce628bd4ac2e9971581c3f4761",
    ("table", 1.0): "3b658ac63c534f2f7874bf9db76fa648e925cb6da162a481905190c03c8b50ec",
    ("table", 2.0): "a67eab2fb517df7a2ef562bac031d2571e7c9b155ae7153ca460ab7da4b22387",
    ("table", 0.5085834761425084): "02032227cf2b7d9ba669b6f9ebcc021eb490f658ed03b452c49e639f7b515068",
}


def _optical(p: RadialProfile) -> RadialProfile:
    """The optical metric g/N^2 of ``p``: A/N and Rareal/N, unit lapse."""
    n, a, rareal = p.N, p.A, p.Rareal
    return RadialProfile(
        kind=ProfileKind.COMPOSITE_REFERENCE,
        r_lo=p.r_lo,
        r_hi=p.r_hi,
        N=RadialFunction.constant(1.0),
        A=RadialFunction.expression(lambda r: a(r) / n(r)),
        Rareal=RadialFunction.expression(lambda r: rareal(r) / n(r)),
        mass=p.mass,
    )


@functools.lru_cache(maxsize=None)
def _cases(mass: float) -> dict:
    """case name -> (profile, conformal factor or None)."""
    exterior = make_schwarzschild_family(mass, 3.0 * mass, 100.0 * mass)
    conf = conformal_transform(double(glue_neck(exterior, 3.0 * mass)))
    cases = {f"hat:{cc.base.chart_id}": (cc.hat, cc.u) for cc in conf.charts}
    cases["neck_isotropic"] = (_neck_isotropic_profile(conf.chart("neck"))[0], None)
    cases["inverted_end"] = (_inverted_profile(conf.chart("exterior_reflected")), None)
    cases["fermat"] = (_optical(exterior), None)
    cases["fluid"] = (make_interior_fluid(mass, 2.5 * mass), None)
    cases["exterior"] = (exterior, None)
    cases["neck"] = (conf.chart("neck").base.profile, None)
    wide = make_schwarzschild_family(mass, 2.1 * mass, 100.0 * mass)
    nodes = np.geomspace(2.1 * mass, 100.0 * mass, 400)
    cases["table"] = (make_tabulated(nodes, wide.N(nodes), wide.A(nodes), wide.Rareal(nodes)), None)
    return cases


def _update(digest, value) -> None:
    x = np.asarray(value)
    if x.dtype == np.longdouble:
        hi = x.astype(np.float64)
        digest.update(hi.tobytes())
        digest.update((x - hi).astype(np.float64).tobytes())
    else:
        digest.update(np.asarray(x, dtype=np.float64).tobytes())


def _digest(profile, u) -> str:
    lo, hi = profile.r_lo, profile.r_hi
    span = hi - lo
    t = lo + span * np.linspace(0.02, 0.98, 12)
    if "nodes" in profile.meta:  # a table: its interior knots too
        t = np.concatenate([t, profile.meta["nodes"][1:-1]])
    # longdouble radii off the float64 grid, so the extended path is exercised
    t_ld = t.astype(np.longdouble) + np.longdouble(span) / np.longdouble(3e5)
    digest = hashlib.sha256()
    arr = curvature_at(profile, t)
    for f in FIELDS:
        _update(digest, getattr(arr, f))
    for r in t:
        one = curvature_at(profile, float(r))
        for f in FIELDS:
            _update(digest, getattr(one, f))
    functions = [profile.N, profile.A, profile.Rareal] + ([u] if u is not None else [])
    for fn in functions:
        for nu in (0, 1, 2):
            _update(digest, fn(t, nu))
            _update(digest, fn(t_ld, nu))
            for r in t:
                _update(digest, fn(float(r), nu))
    return digest.hexdigest()


@x87
@pytest.mark.parametrize("mass", MASSES)
@pytest.mark.parametrize("case", CASES)
def test_derivative_digest_frozen(case, mass):
    profile, u = _cases(mass)[case]
    assert _digest(profile, u) == GOLDEN[case, mass]


# The type each channel returns at a Python-float radius, per construction:
# N, A and Rareal.  Every order and every jet part of a channel shares it.
# A numpy float64 radius gives numpy float64 everywhere, and a float64 array
# float64 arrays; a longdouble array gives longdouble arrays except on a
# table, which casts to float64 as scipy's PPoly does.
_FLOAT_TYPES = {
    "exterior": (np.float64, np.float64, float),
    "neck": (np.float64, np.float64, float),
    "fluid": (np.float64, np.float64, float),
    "table": (float, float, float),
    "hat:exterior": (float, np.float64, np.float64),
    "hat:exterior_reflected": (float, np.float64, np.float64),
    "hat:neck": (float, np.float64, np.float64),
    "hat:neck_reflected": (float, np.float64, np.float64),
    "neck_isotropic": (float, float, float),
    "inverted_end": (float, np.float64, np.float64),
}
_RADII = {
    "float": lambda r: r,
    "float64": np.float64,
    "array": lambda r: np.array([r, r]),
    "longdouble": lambda r: np.array([r, r], dtype=np.longdouble),
}


def _kind(x):
    return (type(x), x.dtype) if isinstance(x, np.ndarray) else (type(x), None)


@pytest.mark.parametrize("radius", sorted(_RADII))
@pytest.mark.parametrize("case", sorted(_FLOAT_TYPES))
def test_channel_types_are_pinned(case, radius):
    profile, _ = _cases(1.0)[case]
    r = _RADII[radius](0.5 * (profile.r_lo + profile.r_hi))
    for f, on_float in zip((profile.N, profile.A, profile.Rareal), _FLOAT_TYPES[case]):
        if radius == "float":
            want = (on_float, None)
        elif radius == "float64":
            want = (np.float64, None)
        else:
            ld = radius == "longdouble" and case != "table"
            want = (np.ndarray, np.dtype(np.longdouble if ld else np.float64))
        jet = f.jet(r)
        got = [f(r, nu) for nu in range(3)] + [jet.v, jet.d1, jet.d2]
        assert [_kind(x) for x in got] == [want] * 6
