"""One sample plan per rigidity run.

:func:`~photonlab.gluing.double` gives every reflected chart its
original's profile object.  ``run_rigidity_pipeline`` builds one plan of
the double (``gluing._sample_plan``): per chart, the first chart whose
scans it repeats, and that chart's guarded radii and jets.  So a run reads
each chart geometry's grid and jets once, and scans |psi| and the
harmonicity once per mirror pair.  Here the reads are counted per run, a
run is checked to change no attribute of a profile or of its read, equal
but distinct mirror profiles are checked to be read each on their own,
and each public scan, called alone, is checked to give the pipeline's
numbers bit for bit.
"""

from __future__ import annotations

import collections
import dataclasses

import numpy as np
import pytest

from photonlab import gluing, radial
from photonlab.conformal import conformal_scalar_residual, conformal_transform, flatness_check
from photonlab.gluing import (
    Chart,
    PiecewiseManifold,
    double,
    glue_neck,
    guarded_chart_samples,
    psi_bound_check,
    psi_harmonicity_max,
)
from photonlab.pipeline import run_rigidity_pipeline
from photonlab.radial import RadialFunction, make_schwarzschild_family

# Per run_rigidity_pipeline at m = 1: one guarded grid per chart geometry
# (exterior, neck) plus the inverted end's scan grid and one grid the two
# isotropic necks share, one psi-bound scan per mirror pair, and one
# closed-form jet read per chart geometry.  Before the reads were shared:
# 6, 6, 4 and 8; before the mirror necks shared their grid, 3 of 128.
PER_RUN = {"geomspace": 2, "linspace(128)": 2, "linspace(2500)": 2, "array jets": 2}


@pytest.fixture
def counts(monkeypatch):
    seen = collections.Counter()
    geomspace, linspace = np.geomspace, np.linspace

    def counted_geomspace(*args, **kwargs):
        seen["geomspace"] += 1
        return geomspace(*args, **kwargs)

    def counted_linspace(start, stop, num=50, **kwargs):
        seen[f"linspace({num})"] += 1
        return linspace(start, stop, num, **kwargs)

    jets_of = radial._Schwarzschild._jets_of

    def counted_jets_of(self, r, n):
        if np.ndim(r):
            seen["array jets"] += 1
        return jets_of(self, r, n)

    monkeypatch.setattr(np, "geomspace", counted_geomspace)
    monkeypatch.setattr(np, "linspace", counted_linspace)
    monkeypatch.setattr(radial._Schwarzschild, "_jets_of", counted_jets_of)
    return seen


@pytest.mark.parametrize("same_exterior", [False, True])
def test_each_read_runs_once_per_run_on_the_first_and_the_fiftieth(counts, same_exterior):
    # nothing carries over from one run to the next, whether each run gets
    # a new exterior (as the CLI and the benchmark give it) or the same one
    exterior = make_schwarzschild_family(1.0, 3.0, 100.0)
    reports = []
    for run in range(50):
        if not same_exterior:
            exterior = make_schwarzschild_family(1.0, 3.0, 100.0)
        counts.clear()
        reports.append(repr(run_rigidity_pipeline(exterior)))
        if run in (0, 49):
            assert {key: counts[key] for key in PER_RUN} == PER_RUN, run
    assert reports[0] == reports[-1]


@pytest.fixture(scope="module")
def doubled():
    return double(glue_neck(make_schwarzschild_family(1.0, 3.0, 100.0), 3.0))


def _captured_scans(monkeypatch) -> list:
    """The (chart id, radii, values) triples each gluing scan hands to
    ``_worst_sample``, one list per scan."""
    captured = []
    worst_sample = gluing._worst_sample

    def capture(scans):
        captured.append(list(scans))
        return worst_sample(captured[-1])

    monkeypatch.setattr(gluing, "_worst_sample", capture)
    return captured


def test_the_plan_of_a_double_shares_each_geometrys_reads(doubled, monkeypatch):
    plan = gluing._sample_plan(doubled.charts, 128, "psi_harmonicity_max")
    ids = [c.chart_id for c in doubled.charts]
    assert ids == ["exterior_reflected", "neck_reflected", "neck", "exterior"]
    assert plan.first == (0, 1, 1, 0)
    for i, chart in enumerate(doubled.charts):
        j = plan.first[i]
        assert plan.radii[i] is plan.radii[j] and plan.jets[i] is plan.jets[j]
        want = guarded_chart_samples(chart, 128)
        assert plan.radii[i].tobytes() == want.tobytes()
        fresh = chart.profile._read().jets(want)
        for got, jet in zip(plan.jets[i], fresh):
            for x, y in ((got.v, jet.v), (got.d1, jet.d1), (got.d2, jet.d2)):
                assert x.tobytes() == y.tobytes()
    assert gluing._sample_plan(doubled.charts).radii == (None,) * 4
    # the two charts of a mirror pair are handed one scan's arrays
    captured = _captured_scans(monkeypatch)
    psi_bound_check(doubled)
    psi_harmonicity_max(doubled)
    for scans in captured:
        by_id = {cid: (rs, vals) for cid, rs, vals in scans}
        for name in ("exterior", "neck"):
            original, mirror = by_id[name], by_id[name + "_reflected"]
            assert original[0] is mirror[0] and original[1] is mirror[1]


def test_a_chart_of_another_collar_scale_is_scanned_on_its_own(monkeypatch):
    profile = make_schwarzschild_family(1.0, 3.0, 100.0)
    charts = tuple(
        Chart(f"c{i}", profile, "outward", scale, "exterior")
        for i, scale in enumerate((1.0, 0.5, 1.0))
    )
    assert gluing._sample_plan(charts).first == (0, 1, 0)
    manifold = PiecewiseManifold(charts=charts, gluings=(), ends=("c0",), boundary=None)
    captured = _captured_scans(monkeypatch)
    psi_bound_check(manifold)
    psi_harmonicity_max(manifold)
    for (_, r0, v0), (_, r1, v1), (_, r2, v2) in captured:
        assert r1.tobytes() == r0.tobytes() and r2 is r0 and v2 is v0
        assert v1.tobytes() == (0.5 * v0).tobytes()


def _attributes(obj) -> dict:
    """Every attribute an object holds: its instance dictionary and its
    slots."""
    names = set(getattr(obj, "__dict__", ()))
    for cls in type(obj).__mro__:
        names.update(getattr(cls, "__slots__", ()))
    return {name: getattr(obj, name) for name in names if hasattr(obj, name)}


def _wrapped_lapse(profile):
    n = profile.N
    lapse = RadialFunction(lambda r: n(r), lambda r: n(r, 1), lambda r: n(r, 2))
    return dataclasses.replace(profile, N=lapse)


@pytest.mark.parametrize("wrap", [False, True])
def test_a_run_changes_no_attribute_of_a_profile_or_its_read(wrap):
    exterior = make_schwarzschild_family(1.0, 3.0, 100.0)
    if wrap:  # read channel by channel
        exterior = _wrapped_lapse(exterior)
    manifold = double(glue_neck(exterior, 3.0))
    objects = [exterior, exterior._read()]
    for chart in manifold.charts:
        objects += [chart.profile, chart.profile._read()]
    before = [_attributes(obj) for obj in objects]
    for _ in range(2):
        run_rigidity_pipeline(exterior)
        conformal = conformal_transform(manifold)
        psi_bound_check(manifold), psi_harmonicity_max(manifold)
        conformal_scalar_residual(conformal), flatness_check(conformal)
    for obj, attrs in zip(objects, before):
        now = _attributes(obj)
        assert now.keys() == attrs.keys()
        assert all(now[name] is value for name, value in attrs.items()), type(obj)


def _distinct_mirrors(manifold: PiecewiseManifold) -> PiecewiseManifold:
    """The double with each reflected chart given an equal but distinct
    copy of its original's profile."""
    charts = tuple(
        dataclasses.replace(c, profile=dataclasses.replace(c.profile))
        if c.orientation == "reflected" else c
        for c in manifold.charts
    )
    return dataclasses.replace(manifold, charts=charts)


def test_equal_but_distinct_mirror_profiles_are_both_evaluated(doubled, counts):
    distinct = _distinct_mirrors(doubled)
    for a, b in zip(distinct.charts, doubled.charts):
        assert a.profile == b.profile
        assert (a.profile is b.profile) == (a.orientation == "outward")
    assert gluing._sample_plan(distinct.charts).first == (0, 1, 2, 3)

    counts.clear()
    bound = psi_bound_check(distinct)
    assert counts["linspace(2500)"] == 4
    assert repr(bound) == repr(psi_bound_check(doubled))

    counts.clear()
    shared = psi_harmonicity_max(doubled)
    assert counts["array jets"] == 2 and counts["geomspace"] == 1
    counts.clear()
    separate = psi_harmonicity_max(distinct)
    assert counts["array jets"] == 4 and counts["geomspace"] == 2
    assert repr(separate) == repr(shared)

    flat = flatness_check(conformal_transform(doubled))
    assert repr(flatness_check(conformal_transform(distinct))) == repr(flat)


_EXTERIORS = {
    "m=1": lambda: make_schwarzschild_family(1.0, 3.0, 100.0),
    "m=0.5": lambda: make_schwarzschild_family(0.5, 1.5, 50.0),
    "m=2, wrapped lapse": lambda: _wrapped_lapse(make_schwarzschild_family(2.0, 6.0, 200.0)),
}


@pytest.mark.parametrize("n_samples", [512, 64])
@pytest.mark.parametrize("name", sorted(_EXTERIORS))
def test_each_public_scan_alone_gives_the_pipelines_numbers(name, n_samples):
    # the pipeline reads one plan (two where n_samples gives the conformal
    # scans other than 128 radii a chart); each public scan builds its own
    exterior = _EXTERIORS[name]()
    report = run_rigidity_pipeline(exterior, n_samples=n_samples)
    manifold = double(glue_neck(exterior, exterior.r_lo))
    conformal = conformal_transform(manifold)
    scalar = conformal_scalar_residual(conformal, n_samples=n_samples)
    flat = flatness_check(conformal, n_samples=n_samples)
    assert repr(psi_bound_check(manifold)) == repr(report.psi_bound)
    assert psi_harmonicity_max(manifold).hex() == report.psi_harmonicity.hex()
    assert scalar["max_abs_scalar"].hex() == report.conformal_scalar_max.hex()
    assert tuple(scalar["argmax"]) == report.conformal_scalar_argmax
    assert flat["max_curvature"].hex() == report.flatness_max_curvature.hex()
