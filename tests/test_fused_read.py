"""Each constructed profile's N, A and Rareal are views of its read.

``RadialProfile._read()`` is the read of a closed-form, fluid or tabulated
profile, or of a presentation of the conformal double; its ``slopes``,
``jets`` and ``values`` read all three channels once per radius and must
return the bits, types and warnings of the channels read one by one, at
knots, at and beyond both ends, at NaN and infinite radii, and where a
formula divides by zero or takes a negative root (the closed form's jets
at a Python-float radius may have float parts where the channels give
numpy scalars).  A hand-assembled or channel-replaced profile reads each
channel on its own.
"""

from __future__ import annotations

import dataclasses
import functools
import gc
import math
import warnings

import numpy as np
import pytest

from photonlab import conformal, geodesics, radial
from photonlab.conformal import (
    _inverted_profile,
    _neck_isotropic_profile,
    conformal_transform,
)
from photonlab.curvature import curvature_at, fd_curvature_oracle
from photonlab.gluing import double, glue_neck
from photonlab.radial import (
    RadialFunction,
    make_interior_fluid,
    make_schwarzschild_family,
    make_schwarzschild_neck,
    make_tabulated,
)

M = 1.3
EXTERIOR = make_schwarzschild_family(M, 2.7, 130.0)
NODES = np.geomspace(2.7, 130.0, 400)
TABLE = make_tabulated(NODES, EXTERIOR.N(NODES), EXTERIOR.A(NODES), EXTERIOR.Rareal(NODES))
NECK = make_schwarzschild_neck(0.7)  # [1.4, 2.1]; the lapse is 0 at r_lo
FLUID = make_interior_fluid(1.0, 2.5)

_SPECIAL = [math.nan, math.inf, -math.inf]


def _scaled(f: RadialFunction) -> RadialFunction:
    return RadialFunction(*(lambda r, nu=nu: 2.0 * f(r, nu) for nu in range(3)))


def _double(perturbation=None):
    """The conformal double of the m = M exterior on [3M, 130]."""
    exterior = make_schwarzschild_family(M, 3.0 * M, 130.0)
    return conformal_transform(double(glue_neck(exterior, 3.0 * M)), perturbation)


def _presentations(conf) -> dict:
    """The rescaled charts the residual scan hands the oracle, the
    rescaled reflected exterior that curvature_at reads, and the inverted
    end of a reflected chart whose rescaled A was replaced."""
    reflected = conf.chart("exterior_reflected")
    replaced = dataclasses.replace(
        reflected, hat=dataclasses.replace(reflected.hat, A=_scaled(reflected.hat.A))
    )
    return {
        "hat": conf.chart("exterior").hat,
        "hat_reflected": reflected.hat,
        "hat_neck": conf.chart("neck").hat,
        "hat_neck_reflected": conf.chart("neck_reflected").hat,
        "isotropic": _neck_isotropic_profile(conf.chart("neck"))[0],
        "inverted": _inverted_profile(reflected),
        "inverted_replaced_hat": _inverted_profile(replaced),
    }


CONFORMAL = _presentations(_double())
_INTERIOR = np.random.default_rng(7).uniform(2.7, 130.0, 12).tolist()
RADII = {
    "exterior": _INTERIOR + [2.7, 130.0, 2.0 * M, 2.0, 1e3, 1e300] + _SPECIAL,
    "int_mass": [2.5, 3.0, 40.0, 2.0, 1.0] + _SPECIAL,
    "float32_mass": [2.7, 3.9, 40.0] + _SPECIAL,
    "neck": [1.4, 1.5, 1.75, 2.1, 1.0, 3.0] + _SPECIAL,
    "fluid": [0.5, 1.0, 2.0, 2.5, 2.7, 1e3, 0.0, -1.0] + _SPECIAL,  # w = 0 at 2.5
    "table": (
        NODES[::7].tolist()
        + [math.nextafter(x, -math.inf) for x in NODES[1::9].tolist()]
        + [math.nextafter(x, math.inf) for x in NODES[2::9].tolist()]
        + _INTERIOR
        + [2.7, 130.0, 2.0, 1e3, -5.0]
        + _SPECIAL
    ),
    # N = 0 at 2M, a negative root inside it; 1/r and 1/x fail at 0
    "hat": _INTERIOR + [3.9, 130.0, 2.0 * M, 2.0, 1e3, 0.0] + _SPECIAL,
    "hat_reflected": _INTERIOR + [3.9, 130.0, 2.0 * M, 2.0, 1e3, 0.0] + _SPECIAL,
    # the neck of mass M on [2M, 3M]: N = 0 at its horizon
    "hat_neck": [2.7, 3.0, 3.5, 3.9, 2.0 * M, 2.0, 5.0, 0.0] + _SPECIAL,
    "hat_neck_reflected": [2.7, 3.0, 3.5, 3.9, 2.0 * M, 2.0, 5.0, 0.0] + _SPECIAL,
    "isotropic": [0.33, 0.5, 0.9, 1.2, 1.5, 0.0, -0.65, 1e3] + _SPECIAL,
    "inverted": [0.0077, 0.01, 0.1, 0.2, 0.25, 0.5, 0.0, -0.1] + _SPECIAL,
    "inverted_replaced_hat": [0.0077, 0.01, 0.1, 0.25, 0.5, 0.0, -0.1] + _SPECIAL,
}
PROFILES = {
    "exterior": EXTERIOR,
    "int_mass": make_schwarzschild_family(1, 2.5, 100.0),
    "float32_mass": make_schwarzschild_family(np.float32(1.3), 2.7, 130.0),
    "neck": NECK,
    "table": TABLE,
    "fluid": FLUID,
    **CONFORMAL,
}


def _per_channel_slopes(p, r):
    return tuple(float(f(r, nu)) for f in (p.N, p.A, p.Rareal) for nu in (0, 1))


def _per_channel_jets(p, r):
    return p.N.jet(r), p.A.jet(r), p.Rareal.jet(r)


def _per_channel_values(p, r):
    return p.A(r), p.Rareal(r)


def _bits(x):
    """Bytes of a float or array; x87 long doubles as float64 hi + lo."""
    x = np.asarray(x)
    if x.dtype == np.longdouble:
        hi = x.astype(np.float64)
        with np.errstate(invalid="ignore"):
            return hi.tobytes() + (x - hi).astype(np.float64).tobytes()
    return x.tobytes()


def _assert_same(got, want):
    assert type(got) is type(want)
    g, w = np.asarray(got), np.asarray(want)
    assert (g.dtype, g.shape) == (w.dtype, w.shape)
    assert _bits(g) == _bits(w)


def _assert_same_jets(got, want):
    assert len(got) == len(want) == 3
    for g, w in zip(got, want):
        for order in ("v", "d1", "d2"):
            _assert_same(getattr(g, order), getattr(w, order))


def _assert_same_float_jets(got, want):
    """As :func:`_assert_same_jets`, but a part may be a float where the
    channel gives a numpy scalar of the same bits."""
    assert len(got) == len(want) == 3
    for g, w in zip(got, want):
        for order in ("v", "d1", "d2"):
            gv, wv = getattr(g, order), getattr(w, order)
            assert type(gv) in (float, type(wv))
            _assert_same(float(gv), float(wv))


def _quiet(fn, *args):
    """fn(*args), or the exception it raised, with warnings silenced."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            return fn(*args)
        except ArithmeticError as exc:
            return exc


def _assert_same_outcome(got, want, same):
    if isinstance(want, Exception):
        assert (type(got), str(got)) == (type(want), str(want))
    else:
        same(got, want)


def _assert_same_values(got, want):
    """Each value the same as ``want``'s: the six slopes, or A and Rareal."""
    assert len(got) == len(want) in (2, 6)
    for g, w in zip(got, want):
        _assert_same(g, w)


@pytest.mark.parametrize("name", sorted(PROFILES))
def test_channels_are_views_of_the_read(name):
    p = PROFILES[name]
    read = p._read()
    assert read is p.fused is not None and type(read) is not radial._Channels
    for ch, f in enumerate((p.N, p.A, p.Rareal)):
        assert type(f) is radial._View and (f.read, f.ch) == (read, ch)


@pytest.mark.parametrize("name", sorted(PROFILES))
def test_fused_read_equals_per_channel_reads_on_floats(name):
    p = PROFILES[name]
    read = p._read()
    closed_form = isinstance(read, radial._Schwarzschild)
    for r in RADII[name]:
        for radius in (r, np.float64(r)):
            _assert_same_outcome(
                _quiet(read.slopes, radius),
                _quiet(_per_channel_slopes, p, radius),
                _assert_same_values,
            )
            _assert_same_outcome(
                _quiet(read.jets, radius),
                _quiet(_per_channel_jets, p, radius),
                _assert_same_float_jets
                if closed_form and type(radius) is float
                else _assert_same_jets,
            )
            _assert_same_outcome(
                _quiet(read.values, radius),
                _quiet(_per_channel_values, p, radius),
                _assert_same_values,
            )


@pytest.mark.parametrize("name", sorted(PROFILES))
def test_fused_read_equals_per_channel_reads_on_arrays(name):
    p = PROFILES[name]
    read = p._read()
    r = np.array(RADII[name])
    grid = r[np.isfinite(r)].reshape(1, -1)[:, :4].repeat(2, axis=0)  # 2-D
    for radii in (r, grid, r.astype(np.longdouble)):
        _assert_same_jets(_quiet(read.jets, radii), _quiet(_per_channel_jets, p, radii))
        _assert_same_values(
            _quiet(read.values, radii), _quiet(_per_channel_values, p, radii)
        )


def _same_float(got, want):
    """A float equal to ``want`` bit for bit (any NaN matches any NaN)."""
    want = float(want)
    if type(got) is not float:
        return False
    if math.isnan(want):
        return math.isnan(got)
    return got == want and math.copysign(1.0, got) == math.copysign(1.0, want)


def test_table_float_reads_equal_cubic_sums_and_scipy_on_every_interval():
    # slopes and float jets write the cubic sums out on one flat record per
    # interval; each must be the per-channel _cubic_* read and scipy's value
    CubicSpline = pytest.importorskip("scipy.interpolate").CubicSpline
    read = TABLE._read()
    channels = (TABLE.N, TABLE.A, TABLE.Rareal)
    values = TABLE.meta["values"]
    splines = [CubicSpline(NODES, values[k]) for k in ("N", "A", "Rareal")]
    xs = NODES.tolist()
    radii = [xs[-1], xs[0] - 0.5, xs[0] - 1e-9, xs[-1] + 1e-9, xs[-1] + 7.0, math.nan]
    for left, right in zip(xs[:-1], xs[1:]):
        radii += [left, 0.5 * (left + right)]
    for r in radii:
        slopes, jets = read.slopes(r), read.jets(r)
        for k, (f, spline) in enumerate(zip(channels, splines)):
            value, slope, curvature = (f(r, nu) for nu in range(3))
            assert _same_float(slopes[2 * k], value), (r, k)
            assert _same_float(slopes[2 * k + 1], slope), (r, k)
            jet = jets[k]
            orders = zip((jet.v, jet.d1, jet.d2), (value, slope, curvature), range(3))
            for got, want, nu in orders:
                assert _same_float(got, want), (r, k, nu)
                assert _same_float(want, spline(r, nu)), (r, k, nu)


@pytest.mark.parametrize("r", [2.0, 2.0 * M])
def test_closed_form_float_read_warns_as_numpy_does(r):
    # a negative root and a zero lapse: math.sqrt and float division would
    # raise, so the read falls back and numpy warns and returns NaN or inf
    def caught(fn):
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            out = fn()
        return out, sorted({(w.category, str(w.message)) for w in seen})

    got, got_warned = caught(lambda: EXTERIOR._read().slopes(r))
    want, want_warned = caught(lambda: _per_channel_slopes(EXTERIOR, r))
    assert got_warned == want_warned != []
    _assert_same_values(got, want)


def _outcome(fn):
    """The repr of each jet part as a float, or the exception raised, and
    the set of warnings, of fn()."""
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        try:
            got = fn()
            kind = type(got[0].v)
            out = [repr(float(getattr(j, o))) for j in got for o in ("v", "d1", "d2")]
        except ArithmeticError as exc:
            kind, out = None, (type(exc), str(exc))
    return kind, out, sorted({(w.category, str(w.message)) for w in seen})


_TINY = 1e-100  # r**4 underflows to 0 just above its 2m
_FLOAT_JET_CASES = [
    # (mass, radius, whether the float path answers)
    (1.3, 3.9, True),
    (1.3, 130.0, True),
    (1.3, math.nextafter(2.6, math.inf), True),
    (1.3, 2.6 * (1.0 + 1e-15), True),
    (1.3, 2.6, False),  # N = 0
    (1.3, 2.0, False),  # a negative root
    (1.3, 0.0, False),  # raises on both paths
    (1.3, -4.0, True),
    (1.3, 5e102, True),  # r**4 overflows: N'' takes its far form
    (1.3, 1e103, True),  # and r**3
    (1.3, 1e300, True),
    (1.3, math.inf, True),
    (1.3, math.nan, False),
    (_TINY, 2.0 * _TINY * (1.0 + 1e-12), False),
    (_TINY, 1e-60, True),
    (0.0, 4.0, True),
    (0.0, 1e200, True),
    (-1.3, 4.0, True),
    (-1.3, 0.5, True),
    (-1e300, 1e-10, False),  # NaN from inf/inf, where numpy warns
    (1, 3.0, True),
    (1, 2.0, False),
    (3 ** 40, 3.0 ** 41, True),
    (np.float32(1.3), 3.9, False),  # not an int or float mass
]


@pytest.mark.parametrize("m, r, floats", _FLOAT_JET_CASES)
def test_closed_form_float_jets_equal_the_numpy_path(m, r, floats):
    read = radial._Schwarzschild(m)
    kind, got, got_warned = _outcome(lambda: read.jets(r))
    want_kind, want, want_warned = _outcome(lambda: [read.jet(r, ch) for ch in range(3)])
    assert (got, got_warned) == (want, want_warned)
    if want_kind is not None:
        assert kind is (float if floats else want_kind)


@pytest.mark.parametrize("name", ["exterior", "int_mass", "float32_mass", "neck", "table"])
def test_scalar_curvature_on_float_jets_equals_numpy_jets(name, monkeypatch):
    p = PROFILES[name]
    lo, hi = p.interior_window(pad=1e-6)
    radii = np.linspace(lo, hi, 9)[1:-1].tolist() + [1.0001 * lo, 0.9999 * hi]
    got = [repr(curvature_at(p, r)) for r in radii]
    # the closed form's jets as each channel reads them, on numpy scalars
    monkeypatch.setattr(radial._Schwarzschild, "jets", radial._Read.jets)
    assert got == [repr(curvature_at(p, r)) for r in radii]


def test_zero_radius_raises_as_the_leaves_do():
    with pytest.raises(ZeroDivisionError):
        EXTERIOR.N(0.0)
    with pytest.raises(ZeroDivisionError):
        EXTERIOR._read().slopes(0.0)
    with pytest.raises(ZeroDivisionError):
        EXTERIOR._read().jets(0.0)


def _reads_per_channel(p) -> bool:
    return type(p._read()) is radial._Channels


@pytest.mark.parametrize("name", ["exterior", "neck", "table", "hat", "inverted"])
@pytest.mark.parametrize("channel", ["N", "A", "Rareal"])
def test_replaced_channel_reads_per_channel(name, channel):
    p = PROFILES[name]
    changed = dataclasses.replace(p, **{channel: _scaled(getattr(p, channel))})
    assert _reads_per_channel(changed)
    read = changed._read()
    r = 0.5 * (p.r_lo + p.r_hi)
    got = read.slopes(r)
    assert got == _per_channel_slopes(changed, r)
    assert got != p._read().slopes(r)
    _assert_same_jets(read.jets(r), _per_channel_jets(changed, r))
    assert read.values(r) == _per_channel_values(changed, r)
    # the same callables under a new function object are not the fused read
    f = getattr(p, channel)
    same = dataclasses.replace(
        p, **{channel: RadialFunction(*(functools.partial(f, nu=nu) for nu in range(3)))}
    )
    assert _reads_per_channel(same)


@pytest.mark.parametrize("name", ["exterior", "table"])
def test_swapped_channels_read_per_channel(name):
    p = PROFILES[name]
    swapped = dataclasses.replace(p, N=p.A, A=p.N)
    assert _reads_per_channel(swapped)
    r = 0.5 * (p.r_lo + p.r_hi)
    assert swapped._read().slopes(r) == _per_channel_slopes(swapped, r)


def test_restricted_profile_keeps_its_fused_read():
    for p in (EXTERIOR, TABLE, NECK):
        inner = p.restricted(p.r_lo + 0.1, p.r_hi - 0.1)
        assert inner._read() is p._read() is p.fused
        r = 0.5 * (inner.r_lo + inner.r_hi)
        assert inner._read().slopes(r) == _per_channel_slopes(inner, r)


@pytest.mark.parametrize("name", ["exterior", "neck", "table", "hat", "inverted"])
def test_hand_assembled_profile_reads_per_channel(name):
    # a bare RadialProfile(...) of another profile's own channels holds no
    # fused read; a constructor, restricted and dataclasses.replace carry it
    p = PROFILES[name]
    fields = {f.name: getattr(p, f.name) for f in dataclasses.fields(p)}
    del fields["fused"]
    assembled = radial.RadialProfile(**fields)
    assert assembled.fused is None and _reads_per_channel(assembled)
    assert assembled == p  # the read takes no part in equality
    assert dataclasses.replace(p, meta={})._read() is p.fused
    r = 0.5 * (p.r_lo + p.r_hi)
    assert assembled._read().slopes(r) == _per_channel_slopes(p, r)
    _assert_same_jets(assembled._read().jets(r), _per_channel_jets(p, r))


def test_dropped_profiles_leave_no_cyclic_garbage():
    # a profile holds its fused read and the read holds the profile's
    # functions, none of which refers back, so profiles built in a loop are
    # freed by reference counting alone
    gc.collect()
    gc.disable()
    try:
        for _ in range(3):
            ext = make_schwarzschild_family(M, 2.7, 130.0)
            tab = make_tabulated(NODES, ext.N(NODES), ext.A(NODES), ext.Rareal(NODES))
            neck = make_schwarzschild_neck(0.7)
            fluid = make_interior_fluid(1.0, 2.5)
            rescaled = _presentations(_double())
            del ext, tab, neck, fluid, rescaled
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_closed_forms_of_nu_n_and_mean_curvature_keep_their_bits():
    for p in (EXTERIOR, NECK):
        m = p.mass
        for r in (p.r_lo, 0.5 * (p.r_lo + p.r_hi), np.linspace(p.r_lo, p.r_hi, 5)):
            assert np.array_equal(p.nu_N(r), m / np.asarray(r) ** 2)
            assert np.array_equal(p.sphere_mean_curvature(r), 2.0 * p.N(r) / r)
    assert NECK.sphere_mean_curvature(NECK.r_lo) == 0.0  # the horizon
    k = FLUID.meta["curvature_k"]
    for r in (1.0, np.linspace(0.5, 2.5, 5)):
        assert np.array_equal(FLUID.nu_N(r), 0.5 * k * r)
        assert np.array_equal(
            FLUID.sphere_mean_curvature(r), 2.0 * np.sqrt(1.0 - k * r * r) / r
        )


@pytest.mark.parametrize("name", ["exterior", "neck", "table", "fluid"])
@pytest.mark.parametrize("channel", ["N", "A", "Rareal"])
def test_replaced_channel_reads_nu_n_and_mean_curvature_per_channel(name, channel):
    p = FLUID if name == "fluid" else PROFILES[name]
    changed = dataclasses.replace(p, **{channel: _scaled(getattr(p, channel))})
    n, a, rr = changed.N, changed.A, changed.Rareal
    for r in (0.5 * (p.r_lo + p.r_hi), np.linspace(p.r_lo, p.r_hi, 9)[1:-1]):
        assert np.array_equal(changed.nu_N(r), n(r, 1) / a(r))
        assert np.array_equal(
            changed.sphere_mean_curvature(r), 2.0 * rr(r, 1) / (a(r) * rr(r))
        )


# ---------------------------------------------------------------------------
# Work per read
# ---------------------------------------------------------------------------


def _count_square_roots(monkeypatch):
    calls = []
    np_sqrt, math_sqrt = np.sqrt, math.sqrt
    monkeypatch.setattr(np, "sqrt", lambda x: calls.append(x) or np_sqrt(x))
    monkeypatch.setattr(math, "sqrt", lambda x: calls.append(x) or math_sqrt(x))
    return calls


def _count_knot_searches(monkeypatch):
    calls = []
    bisect, searchsorted = radial.bisect_right, np.searchsorted
    monkeypatch.setattr(
        radial, "bisect_right", lambda *a: calls.append(a[1]) or bisect(*a)
    )
    monkeypatch.setattr(
        np, "searchsorted", lambda *a, **k: calls.append(a[1]) or searchsorted(*a, **k)
    )
    return calls


_STATE = (4.0, 1.0, 0.01, 0.1)  # r, dt, dr, dphi


def test_one_rhs_takes_one_square_root_on_the_closed_form(monkeypatch):
    calls = _count_square_roots(monkeypatch)
    geodesics._geodesic_rhs(EXTERIOR._read().slopes, *_STATE)
    assert len(calls) == 1
    calls.clear()
    curvature_at(EXTERIOR, 4.0)
    assert len(calls) == 1


def test_one_rhs_takes_one_knot_search_on_a_table(monkeypatch):
    calls = _count_knot_searches(monkeypatch)
    geodesics._geodesic_rhs(TABLE._read().slopes, *_STATE)
    assert len(calls) == 1
    calls.clear()
    curvature_at(TABLE, 4.0)
    assert len(calls) == 1
    calls.clear()
    curvature_at(TABLE, np.linspace(3.0, 5.0, 9))
    assert len(calls) == 1


def test_photon_search_takes_one_knot_search_per_residual(monkeypatch):
    # the scan and each Brent step read N, N', A, Rareal and Rareal' at once
    residual, evaluated = geodesics.fermat_geodesy_residual, []

    def counted(p, r):
        evaluated.append(r)
        return residual(p, r)

    monkeypatch.setattr(geodesics, "fermat_geodesy_residual", counted)
    calls = _count_knot_searches(monkeypatch)
    assert len(geodesics.photon_sphere_search(TABLE)) == 1
    assert len(evaluated) > 2 and len(calls) == len(evaluated)
    assert np.size(calls[0]) == 1024 and all(type(r) is float for r in calls[1:])


def _counted_presentations():
    """The presentations with u = factor + z, z a counting zero, and its
    log, emptied of the transform's own probes."""
    log = {0: [], 1: [], 2: []}
    presentations = _presentations(_double(_counting_zero(log)))
    for radii in log.values():
        radii.clear()
    return presentations, log


def _counting_zero(log: dict) -> RadialFunction:
    """The zero function, logging the radii of each order it is called on."""

    def order(nu):
        def at(r):
            log[nu].append(r)
            return r * 0.0
        return at

    return RadialFunction(order(0), order(1), order(2))


def test_rescaled_curvature_takes_one_jet_of_u():
    # one scalar curvature_at on the rescaled chart forms u's jet once for
    # both A and Rareal
    presentations, log = _counted_presentations()
    curvature_at(presentations["hat"], 5.0)
    assert {nu: len(radii) for nu, radii in log.items()} == {0: 1, 1: 1, 2: 1}


@pytest.mark.parametrize("name", ["hat", "isotropic", "inverted"])
def test_oracle_takes_u_once_per_stencil_radius(name):
    presentations, log = _counted_presentations()
    p = presentations[name]
    span = p.r_hi - p.r_lo
    n = 16
    t = np.linspace(p.r_lo + 0.05 * span, p.r_hi - 0.05 * span, n)
    fd_curvature_oracle(p, t, np.full(n, 1e-4 * span))
    assert [np.size(r) for r in log[0]] == [7 * n]
    assert log[1] == log[2] == []


def test_replaced_rescaled_channel_takes_u_per_channel():
    presentations, log = _counted_presentations()
    hat = presentations["hat"]
    changed = dataclasses.replace(hat, A=_scaled(hat.A))
    assert _reads_per_channel(changed)
    curvature_at(changed, 5.0)
    # the scaled A reads hat.A's three orders apart, Rareal takes one jet
    assert {nu: len(radii) for nu, radii in log.items()} == {0: 4, 1: 3, 2: 3}
    for radii in log.values():
        radii.clear()
    fd_curvature_oracle(changed, np.linspace(5.0, 6.0, 4), np.full(4, 1e-3))
    assert [np.size(r) for r in log[0]] == [28, 28]


# ---------------------------------------------------------------------------
# The sealed closed-form chart: one square root per radius
# ---------------------------------------------------------------------------

_HATS = ("hat", "hat_reflected", "hat_neck", "hat_neck_reflected")


def test_rescaled_closed_form_charts_read_the_closed_form():
    # all four charts of a closed-form double: u straight on the outward
    # charts, cancellation-free on the reflected ones
    for name in _HATS:
        read = PROFILES[name]._read()
        assert type(read) is conformal._Rescaled
        assert type(read.base) is radial._Schwarzschild
    assert type(PROFILES["isotropic"]._read()) is conformal._Isotropic


def _counting_lapse_squared(monkeypatch):
    calls = []
    inner = radial._lapse_squared
    monkeypatch.setattr(
        radial, "_lapse_squared", lambda m, r: calls.append(r) or inner(m, r)
    )
    return calls


@pytest.mark.parametrize("name", _HATS)
def test_sealed_read_takes_one_square_root_per_radius(name, monkeypatch):
    p = PROFILES[name]
    read = p._read()
    roots, squares = _count_square_roots(monkeypatch), _counting_lapse_squared(monkeypatch)
    radii = np.linspace(p.r_lo, p.r_hi, 9)[1:-1]
    mid = float(radii[3])
    for r in (mid, np.float64(mid), radii, radii.astype(np.longdouble)):
        for fn in (read.values, read.jets):
            roots.clear()
            squares.clear()
            fn(r)
            assert len(roots) == len(squares) == 1
            assert squares[0] is r
    roots.clear()
    curvature_at(p, mid)
    assert len(roots) == 1
    roots.clear()
    fd_curvature_oracle(p, radii, np.full(7, 1e-4 * (p.r_hi - p.r_lo)))
    assert len(roots) == 1 and np.size(roots[0]) == 7 * 7


def test_inverted_end_takes_one_square_root_per_pass(monkeypatch):
    p = PROFILES["inverted"]
    roots = _count_square_roots(monkeypatch)
    x = np.linspace(0.01, 0.2, 16)
    fd_curvature_oracle(p, x, np.full(16, 1e-4))
    assert [np.size(r) for r in roots] == [7 * 16]


def _wrapped_lapse_double():
    """The double of the m = M exterior whose lapse is wrapped, so that it
    is no longer the closed form's own."""
    exterior = make_schwarzschild_family(M, 3.0 * M, 130.0)
    n = exterior.N
    wrapped = RadialFunction(lambda r: n(r), lambda r: n(r, 1), lambda r: n(r, 2))
    exterior = dataclasses.replace(exterior, N=wrapped)
    return conformal_transform(double(glue_neck(exterior, 3.0 * M)))


def test_wrapped_lapse_reads_per_channel_and_perturbation_reads_once(monkeypatch):
    # a wrapped lapse makes the chart's read per channel, so its rescaled
    # read takes N for u and A apart; a perturbed u keeps the closed form
    wrapped = _wrapped_lapse_double()
    perturbed = _double(RadialFunction.constant(0.0))
    cases = [
        (wrapped.chart("exterior").hat, 2, 6),  # u, then A; 3 orders each
        (wrapped.chart("exterior_reflected").hat, 2, 6),
        (perturbed.chart("exterior").hat, 1, 1),
        (perturbed.chart("exterior_reflected").hat, 1, 1),
    ]
    roots = _count_square_roots(monkeypatch)
    for hat, for_values, for_jets in cases:
        read = hat._read()
        assert type(read) is conformal._Rescaled
        r = np.linspace(4.0, 120.0, 5)
        roots.clear()
        values = read.values(r)
        assert len(roots) == for_values
        roots.clear()
        jets = read.jets(r)
        assert len(roots) == for_jets
        _assert_same_values(values, _per_channel_values(hat, r))
        _assert_same_jets(jets, _per_channel_jets(hat, r))


def test_unperturbed_u_and_the_sealed_read_share_the_formula():
    # the perturbation zero adds nothing, so the per-channel read of the
    # perturbed hat gives the sealed read's bits on every chart
    perturbed = _double(RadialFunction.constant(0.0))
    sealed = _double()
    r = np.linspace(4.0, 120.0, 33)
    for chart_id in ("exterior", "exterior_reflected"):
        got = sealed.chart(chart_id).hat._read()
        want = perturbed.chart(chart_id).hat._read()
        _assert_same_values(got.values(r), want.values(r))
        _assert_same_jets(got.jets(r), want.jets(r))
        np.testing.assert_array_equal(
            sealed.chart(chart_id).u(r), perturbed.chart(chart_id).u(r)
        )
