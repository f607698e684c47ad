"""Golden digests of the finite-difference oracle, frozen bit for bit.

Every field of every sample is hashed, at steps h and h/2, for one array
pass and for the same radii called one at a time.  The profiles are the
ones the oracle meets in practice: the plain exterior, the three chart
presentations ``conformal_scalar_residual`` hands it (isotropic neck,
inverted reflected end, rescaled exterior ``cc.hat``), a 400-node
geometric table (the float64 spline path) and the fluid interior.  A
change to the oracle's internals that moves any bit of any field shows
here.

The digests are of x87 80-bit extended precision, the ``np.longdouble``
of x86-64 Linux; other platforms round the oracle's internals differently.
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
from photonlab.curvature import CurvatureSample, fd_curvature_oracle
from photonlab.gluing import double, glue_neck
from photonlab.radial import (
    make_interior_fluid,
    make_schwarzschild_family,
    make_tabulated,
)

pytestmark = pytest.mark.skipif(
    np.finfo(np.longdouble).nmant != 63,
    reason="digests are of x87 80-bit extended precision",
)

FIELDS = [f.name for f in dataclasses.fields(CurvatureSample)]

GOLDEN = {
    ("exterior", 0.5): "b3a882af8daa9cfc63f80d201e262bdc9ea08c7cdddd1c55400b7eb83b309956",
    ("exterior", 1.0): "48e19053e2dae903cb2074184c570219be19138d86655bcdaaa415fe404a3684",
    ("exterior", 2.0): "bca9de2d2a09316c16857289679e7c56ff9e75c714362f468c135cacc406c28a",
    ("exterior", 0.5085834761425084): "02c35069b4d6df5eee2400bc07231279a3de396ab74829ab86a8cc757d06f98b",
    ("neck_isotropic", 0.5): "406462bd4f627f1a366ff61455890c0833b5b905de45644c18214aae5c7a7874",
    ("neck_isotropic", 1.0): "12e6cd1867907b92c88a87546c41b891ac9a4920bdd601c42eaa2edff93079a8",
    ("neck_isotropic", 2.0): "4bbcc7072d17ae4f1f9ba56e093ade3415ad653d24e7c87cd1f832917551cc3c",
    ("neck_isotropic", 0.5085834761425084): "f60d0dd0b20f34ddd18cd3e32ff0a3bff00a5ef578d48e3b8f1ad4d49a62a725",
    ("inverted_end", 0.5): "2eddf6e2f079facce47d321ae22f9d99329d63211e226c2f8cf1a245a33396ed",
    ("inverted_end", 1.0): "f99dc305d42ad0d792ed59afc26b53a55e4fc7479fb7f9a3e989d67d41ca2b19",
    ("inverted_end", 2.0): "70b886dc70a3bf360d91100cc198fc94031d8b88313ebd31f161e499f923cf12",
    ("inverted_end", 0.5085834761425084): "58c9cfa734b0a5faee7a3788330e5366d27a630e6018742d7072f3a33acd471f",
    ("hat", 0.5): "f1f4444d52e6d2b048f863d8989d23ffb9beff309509fcf9bda2ba9b71ba34ed",
    ("hat", 1.0): "796c9a9852181b10c702430fd31d8b1be27607e4ea63c325ff4c0ee9f056c357",
    ("hat", 2.0): "5d2f3ac826e84cb598d95aa76d815853933f6dcf21d042c93921e0690eae76b8",
    ("hat", 0.5085834761425084): "272eed5b02e15ad66d37655da1348c454e2fa3d80c5097a1551ede28c039c5d6",
    ("tabulated", 0.5): "baf46d24bf6645fef7396fc96c978d16c0d2b80f128a9c3b0720e2847433a018",
    ("tabulated", 1.0): "7270bbf8ddb4603f431b868b33f27eccb43c2c826c8e79839654a497238aa93c",
    ("tabulated", 2.0): "9cac3a21ca96e77af88349f47e9056efb9368cd890e38187b56f82ca2cb2e2cb",
    ("tabulated", 0.5085834761425084): "dfcb9257051b162ade33a55e450441c01aab4228775c1fc7be84954f2879c353",
    ("fluid", 0.5): "507bc55569effcc9574ed678af890e9f9fe18cecced923c833d07c42f1b2bbd0",
    ("fluid", 1.0): "c41fd1a680f7c838e8921b66ec5e4671d05f7b34fa8c8a46b8cc71de0fdcdc33",
    ("fluid", 2.0): "3155029923681b9e139598cd25cb711d58402c2acf3a4acb35e14f28edfe3afe",
    ("fluid", 0.5085834761425084): "57229a6f070d26a7ba03f88f5c17448370ed9f8248224735245ea680eded2243",
}


@functools.lru_cache(maxsize=None)
def _profiles(mass: float) -> dict:
    exterior = make_schwarzschild_family(mass, 3.0 * mass, 100.0 * mass)
    conf = conformal_transform(double(glue_neck(exterior, 3.0 * mass)))
    nodes = np.geomspace(2.1 * mass, 100.0 * mass, 400)
    return {
        "exterior": exterior,
        "neck_isotropic": _neck_isotropic_profile(conf.chart("neck"))[0],
        "inverted_end": _inverted_profile(conf.chart("exterior_reflected")),
        "hat": conf.chart("exterior").hat,
        "tabulated": make_tabulated(
            nodes, exterior.N(nodes), exterior.A(nodes), exterior.Rareal(nodes)
        ),
        "fluid": make_interior_fluid(mass, 2.5 * mass),
    }


def _oracle_digest(profile) -> str:
    lo, hi = profile.r_lo, profile.r_hi
    span = hi - lo
    t = lo + span * np.linspace(0.02, 0.98, 12)
    h = 2e-3 * span * (1.0 + 0.5 * np.sin(np.arange(t.size)))
    digest = hashlib.sha256()
    for step in (h, 0.5 * h):
        arr = fd_curvature_oracle(profile, t, step)
        for f in FIELDS:
            digest.update(np.asarray(getattr(arr, f), dtype=np.float64).tobytes())
        for i in range(t.size):
            one = fd_curvature_oracle(profile, float(t[i]), float(step[i]))
            for f in FIELDS:
                digest.update(np.float64(getattr(one, f)).tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("mass", [0.5, 1.0, 2.0, 0.5085834761425084])
@pytest.mark.parametrize(
    "case", ["exterior", "neck_isotropic", "inverted_end", "hat", "tabulated", "fluid"]
)
def test_oracle_digest_frozen(case, mass):
    assert _oracle_digest(_profiles(mass)[case]) == GOLDEN[case, mass]
