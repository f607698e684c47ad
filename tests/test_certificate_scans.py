"""The harmonicity and flatness scans form only what they certify.

``psi_harmonicity_max`` certifies |Lap psi| = |collar scale * lap_N| and
``flatness_check`` the largest of |Ric(nn)|, |Ric(tt)| and |Scal| of the
rescaled metric, both quantities of a :func:`curvature_at` sample.  The
scans read the same jets through the same checks and run the same
formulas without assembling a sample, so on every chart their values must
equal the sample-based definitions bit for bit: on closed-form doubles of
several masses, on a double whose lapse is wrapped (so it reads per
channel and seals with the straight u) and on a perturbed transform.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from photonlab import conformal, curvature, gluing
from photonlab.conformal import conformal_transform, flatness_check
from photonlab.curvature import curvature_at
from photonlab.gluing import (
    Chart,
    PiecewiseManifold,
    _samples_per_chart,
    double,
    glue_neck,
    guarded_chart_samples,
    psi_harmonicity_max,
)
from photonlab.radial import (
    DomainError,
    RadialFunction,
    make_composite_star,
    make_schwarzschild_family,
)


def _double(m: float, wrap_lapse: bool = False) -> PiecewiseManifold:
    exterior = make_schwarzschild_family(m, 3.0 * m, 100.0 * m)
    if wrap_lapse:
        n = exterior.N
        wrapped = RadialFunction(lambda r: n(r), lambda r: n(r, 1), lambda r: n(r, 2))
        exterior = dataclasses.replace(exterior, N=wrapped)
    return double(glue_neck(exterior, 3.0 * m))


def _perturbation() -> RadialFunction:
    return RadialFunction(
        lambda r: 1e-3 / r, lambda r: -1e-3 / (r * r), lambda r: 2e-3 / (r * r * r)
    )


_INPUTS = {
    "m=0.5": lambda: (_double(0.5), None),
    "m=1": lambda: (_double(1.0), None),
    "m=2": lambda: (_double(2.0), None),
    "wrapped lapse": lambda: (_double(1.0, wrap_lapse=True), None),
    "perturbed": lambda: (_double(1.0), _perturbation()),
}


def _captured_scans(monkeypatch, module) -> list:
    """The (chart id, radii, values) triples the module's scans hand to
    ``_worst_sample``, recorded as they pass."""
    scans = []
    worst = gluing._worst_sample

    def record(triples):
        triples = list(triples)
        scans.extend(triples)
        return worst(triples)

    monkeypatch.setattr(module, "_worst_sample", record)
    return scans


def _assert_same_scans(got, want):
    assert [cid for cid, _, _ in got] == [cid for cid, _, _ in want]
    for (_, r_got, v_got), (_, r_want, v_want) in zip(got, want):
        assert r_got.tobytes() == r_want.tobytes()
        assert (v_got.dtype, v_got.shape) == (v_want.dtype, v_want.shape)
        assert v_got.tobytes() == v_want.tobytes()


@pytest.mark.parametrize("name", sorted(_INPUTS))
def test_harmonicity_equals_the_lapse_laplacian_of_curvature_at(name, monkeypatch):
    doubled, _ = _INPUTS[name]()
    scans = _captured_scans(monkeypatch, gluing)
    got = psi_harmonicity_max(doubled)
    want = []
    for chart in doubled.charts:
        rs = guarded_chart_samples(chart, 128)
        lap = curvature_at(chart.profile, rs).lap_N
        want.append((chart.chart_id, rs, np.abs(chart.collar_scale * lap)))
    _assert_same_scans(scans, want)
    assert repr(got) == repr(gluing._worst_sample(want)[0])


@pytest.mark.parametrize("name", sorted(_INPUTS))
def test_flatness_equals_the_ricci_of_curvature_at(name, monkeypatch):
    doubled, perturbation = _INPUTS[name]()
    conf = conformal_transform(doubled, perturbation)
    scans = _captured_scans(monkeypatch, conformal)
    got = flatness_check(conf, n_samples=512)
    per = _samples_per_chart(conf.charts, 512, 8)
    want = []
    for cc in conf.charts:
        rs = guarded_chart_samples(cc.base, per)
        s = curvature_at(cc.hat, rs)
        mag = np.maximum(np.maximum(np.abs(s.ric_nn), np.abs(s.ric_tt)), np.abs(s.scalar))
        want.append((cc.base.chart_id, rs, mag))
    _assert_same_scans(scans, want)
    worst, arg, count = gluing._worst_sample(want)
    assert repr(got) == repr({"max_curvature": worst, "argmax": arg, "n_samples": count})


def test_scans_build_no_curvature_sample(doubled_m1, conformal_m1, monkeypatch):
    def refuse(*args):
        raise AssertionError("a scan assembled a CurvatureSample")

    monkeypatch.setattr(curvature, "_sample", refuse)
    with pytest.raises(AssertionError, match="assembled a CurvatureSample"):
        curvature_at(doubled_m1.charts[0].profile, 5.0)
    assert psi_harmonicity_max(doubled_m1) <= 1e-10
    assert flatness_check(conformal_m1)["max_curvature"] <= 1e-6


def test_harmonicity_refuses_a_composite_as_curvature_at_does():
    star = make_composite_star(1.0, 2.5)
    chart = Chart("star", star, "outward", 1.0, "exterior")
    manifold = PiecewiseManifold(charts=(chart,), gluings=(), ends=("star",), boundary=None)
    with pytest.raises(DomainError) as want:
        curvature_at(star, guarded_chart_samples(chart, 128))
    with pytest.raises(DomainError) as got:
        psi_harmonicity_max(manifold)
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith("curvature_at takes one RadialProfile")


@pytest.mark.parametrize("scan, n", [("psi_harmonicity_max", 128), ("flatness_check", 512)])
def test_scans_refuse_an_underflowing_A_as_curvature_at_does(scan, n):
    # the m = 1 exterior with A = 1e-300, whose square underflows to 0:
    # the Laplacian and the Ricci assembly divide by A^2
    exterior = make_schwarzschild_family(1.0, 3.0, 100.0)
    tiny = dataclasses.replace(exterior, A=RadialFunction.constant(1e-300))
    chart = Chart("exterior", tiny, "outward", 1.0, "exterior")
    manifold = PiecewiseManifold(
        charts=(chart,), gluings=(), ends=("exterior",), boundary=None
    )
    with pytest.raises(DomainError) as want:
        curvature_at(tiny, guarded_chart_samples(chart, n))
    with pytest.raises(DomainError) as got:
        if scan == "psi_harmonicity_max":
            psi_harmonicity_max(manifold)
        else:
            flatness_check(conformal_transform(manifold))
    assert str(got.value) == str(want.value).replace("curvature_at", scan)
    assert str(got.value).startswith(f"{scan}: the radial factor A underflows")


def test_flatness_refuses_a_rescaled_A_that_underflows():
    # a reflected closed-form chart out to r = 1e77: its own A stays near
    # 1, but the sealed u ~ m / (2 r) takes the rescaled A = u^2 A below
    # 2^-511 past r ~ 4e76, where 1/A^2 reads a curvature of order 1e156
    far = make_schwarzschild_family(1.0, 3.0, 1e77)
    chart = Chart("exterior_reflected", far, "reflected", 1.0, "exterior")
    manifold = PiecewiseManifold(
        charts=(chart,), gluings=(), ends=("exterior_reflected",), boundary=None
    )
    conf = conformal_transform(manifold)
    assert psi_harmonicity_max(manifold) <= 1e-10  # the chart's own A passes
    with pytest.raises(DomainError, match="^flatness_check: the radial factor A underflows"):
        flatness_check(conf)
