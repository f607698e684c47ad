"""Reads the verdict path makes once per run: shared guarded grids, kept
closed-form jets and one evaluation per mirror pair.

:func:`~photonlab.gluing.double` gives every reflected chart its
original's profile object.  So a run builds each chart geometry's guarded
grid once (kept by the profile on immutable memory), the closed-form read
keeps the jets of the last such grid it read, and ``psi_bound_check`` and
``psi_harmonicity_max`` evaluate each (profile, collar scale) once and
hand the same arrays to both charts of the pair.  Here the reads are
counted per ``run_rigidity_pipeline``, the shared arrays checked to be
read-only, copies checked to start empty, and a double whose reflected
charts hold equal but distinct profiles checked to evaluate both, with
the same reports.
"""

from __future__ import annotations

import collections
import dataclasses

import numpy as np
import pytest

from photonlab import gluing, radial
from photonlab.conformal import conformal_transform, flatness_check
from photonlab.gluing import (
    PiecewiseManifold,
    double,
    glue_neck,
    guarded_chart_samples,
    psi_bound_check,
    psi_harmonicity_max,
)
from photonlab.pipeline import run_rigidity_pipeline
from photonlab.radial import make_schwarzschild_family

# Per run_rigidity_pipeline at m = 1: one guarded grid per chart geometry
# (exterior, neck) plus the inverted end's and the two isotropic necks'
# scan grids, one psi-bound scan per mirror pair, and one closed-form jet
# read per chart geometry.  Before the reads were shared: 6, 6, 4 and 8.
PER_RUN = {"geomspace": 2, "linspace(128)": 3, "linspace(2500)": 2, "array jets": 2}


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


def _per_run(seen) -> dict:
    return {key: seen[key] for key in PER_RUN}


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
            assert _per_run(counts) == PER_RUN, run
    assert reports[0] == reports[-1]


@pytest.fixture(scope="module")
def doubled():
    return double(glue_neck(make_schwarzschild_family(1.0, 3.0, 100.0), 3.0))


def test_guarded_grids_are_shared_read_only(doubled):
    by_id = {c.chart_id: c for c in doubled.charts}
    for name in ("exterior", "neck"):
        chart, mirror = by_id[name], by_id[name + "_reflected"]
        assert mirror.profile is chart.profile
        rs = guarded_chart_samples(chart, 128)
        assert guarded_chart_samples(mirror, 128) is rs
        assert not rs.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            rs[0] = 0.0
        for x in (rs, rs[1:]):
            with pytest.raises(ValueError, match="WRITEABLE"):
                x.flags.writeable = True
        other = guarded_chart_samples(chart, 64)
        assert other is not rs and other.size == 64


def test_kept_jets_are_read_only_and_given_again(doubled):
    chart = doubled.chart("exterior")
    rs = guarded_chart_samples(chart, 128)
    read = chart.profile._read()
    jets = read.jets(rs)
    assert read.jets(rs) is jets
    for jet in jets:
        for x in (jet.v, jet.d1, jet.d2):
            assert isinstance(x, np.ndarray) and not x.flags.writeable


def _immutable(x):
    return np.frombuffer(x.tobytes())


def test_jets_are_kept_by_array_object_not_by_value(counts):
    read = make_schwarzschild_family(1.0, 3.0, 100.0)._read()
    first = _immutable(np.linspace(4.0, 90.0, 16))
    second = _immutable(first)
    for r in (first, first, second, second, first):
        read.jets(r)
    assert counts["array jets"] == 3
    writeable = np.linspace(4.0, 90.0, 16)
    a = read.jets(writeable)
    b = read.jets(writeable)  # a writeable array is never kept
    assert counts["array jets"] == 5 and a is not b
    assert all(x.flags.writeable for x in (a[0].v, a[1].d2))
    # the kept jets equal a fresh read's, bit for bit
    kept = read.jets(first)
    fresh = read.jets(np.linspace(4.0, 90.0, 16))
    for k, f in zip(kept, fresh):
        for x, y in ((k.v, f.v), (k.d1, f.d1), (k.d2, f.d2)):
            assert x.tobytes() == y.tobytes()


def _mutable_read_only_arrays():
    """(read-only array, change to its values): a view of writeable
    memory, a broadcast of it, and an owning array made writeable again."""
    base = np.linspace(4.0, 90.0, 16)
    view = base[:]
    view.flags.writeable = False
    yield view, lambda: base.__setitem__(3, 50.0)
    row = np.linspace(4.0, 90.0, 16)
    yield np.broadcast_to(row, (2, 16)), lambda: row.__setitem__(3, 50.0)
    owner = np.linspace(4.0, 90.0, 16)
    owner.flags.writeable = False

    def rewrite():
        owner.flags.writeable = True
        owner[3] = 50.0
        owner.flags.writeable = False

    yield owner, rewrite


def test_jets_of_a_read_only_array_whose_memory_changes_are_read_again():
    read = make_schwarzschild_family(1.0, 3.0, 100.0)._read()
    for r, change in _mutable_read_only_arrays():
        read.jets(r)
        change()
        got = read.jets(r)
        fresh = read.jets(np.array(r))
        for g, f in zip(got, fresh):
            for x, y in ((g.v, f.v), (g.d1, f.d1), (g.d2, f.d2)):
                assert x.tobytes() == y.tobytes()


def test_copies_of_a_profile_keep_their_own_grids(doubled):
    chart = doubled.chart("neck")
    rs = guarded_chart_samples(chart, 128)
    p = chart.profile
    copies = (
        dataclasses.replace(p, meta=dict(p.meta)),
        p.restricted(p.r_lo, p.r_hi),
    )
    for copy in copies:
        assert copy._grids == {}
        own = guarded_chart_samples(dataclasses.replace(chart, profile=copy), 128)
        assert own is not rs and own.tobytes() == rs.tobytes()
    assert p._grids[("neck", 128)] is rs


def test_glued_exterior_chart_holds_a_profile_of_its_own():
    exterior = make_schwarzschild_family(1.0, 3.0, 100.0)
    glued = glue_neck(exterior, 3.0)
    chart = glued.chart("exterior")
    assert chart.profile is not exterior and chart.profile == exterior
    guarded_chart_samples(chart, 128)
    assert exterior._grids == {}


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

    counts.clear()
    bound = psi_bound_check(distinct)
    assert counts["linspace(2500)"] == 4
    assert repr(bound) == repr(psi_bound_check(doubled))

    fresh = double(glue_neck(make_schwarzschild_family(1.0, 3.0, 100.0), 3.0))
    counts.clear()
    shared = psi_harmonicity_max(fresh)
    assert counts["array jets"] == 2 and counts["geomspace"] == 1
    fresh_distinct = _distinct_mirrors(
        double(glue_neck(make_schwarzschild_family(1.0, 3.0, 100.0), 3.0))
    )
    counts.clear()
    separate = psi_harmonicity_max(fresh_distinct)
    assert counts["array jets"] == 4 and counts["geomspace"] == 2
    assert repr(separate) == repr(shared)

    flat = flatness_check(conformal_transform(doubled))
    assert repr(flatness_check(conformal_transform(distinct))) == repr(flat)


def test_mirror_pairs_share_one_read_only_scan(doubled, monkeypatch):
    captured = []
    worst_sample = gluing._worst_sample

    def capture(scans):
        scans = list(scans)
        captured.append(scans)
        return worst_sample(scans)

    monkeypatch.setattr(gluing, "_worst_sample", capture)
    psi_bound_check(doubled)
    psi_harmonicity_max(doubled)
    for scans in captured:
        by_id = {cid: (rs, vals) for cid, rs, vals in scans}
        for name in ("exterior", "neck"):
            original, mirror = by_id[name], by_id[name + "_reflected"]
            assert original[0] is mirror[0] and original[1] is mirror[1]
            assert not original[0].flags.writeable and not original[1].flags.writeable
