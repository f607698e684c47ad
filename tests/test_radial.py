"""Radial profile families: closed-form values, domain guards, derivative
combinators, fluid interiors, tabulated data, and (de)serialization."""

from __future__ import annotations

import dataclasses
import io
import json
import math
import warnings

import numpy as np
import pytest

import photonlab as pl
from photonlab.curvature import curvature_at
from photonlab.radial import (
    BuchdahlError,
    CompositeProfile,
    DomainError,
    EndpointDegeneracyError,
    RadialFunction,
    buchdahl_ratio,
    dump_profile,
    load_profile,
    make_composite_star,
    make_interior_fluid,
    make_schwarzschild_exterior,
    make_schwarzschild_family,
    make_schwarzschild_neck,
    make_tabulated,
)
from photonlab.radial import _gtsv, _spline_coefficients

INV_SQRT3 = 0.5773502691896258  # 1/sqrt(3)
SQRT3 = 1.7320508075688772


# ---------------------------------------------------------------------------
# Schwarzschild families
# ---------------------------------------------------------------------------


def test_exterior_lapse_at_photon_sphere():
    p = make_schwarzschild_exterior(1.0, 3.0, 100.0)
    assert abs(float(p.N(3.0)) - INV_SQRT3) <= 1e-16
    assert abs(float(p.A(3.0)) - SQRT3) <= 4e-16
    assert float(p.Rareal(3.0)) == 3.0


def test_exterior_asymptotic_flatness():
    p = make_schwarzschild_exterior(1.0, 3.0, 2e6)
    n = float(p.N(1e6))
    assert abs((1.0 - n) / 1e-6 - 1.0) < 1e-5  # N = 1 - m/r + O(r^-2)


def test_exterior_domain_guards():
    make_schwarzschild_exterior(1.0, 2.0000001, 10.0)  # barely outside horizon
    with pytest.raises(DomainError):
        make_schwarzschild_exterior(1.0, 2.0, 10.0)
    with pytest.raises(DomainError):
        make_schwarzschild_exterior(-1.0, 1.0, 10.0)
    with pytest.raises(DomainError):
        make_schwarzschild_exterior(0.0, 1.0, 10.0)
    with pytest.raises(DomainError):
        make_schwarzschild_family(1.0, 5.0, 5.0)  # empty domain


def test_family_handles_nonpositive_mass():
    flat = make_schwarzschild_family(0.0, 1.0, 100.0)
    assert float(flat.N(17.3)) == 1.0
    assert float(flat.A(17.3)) == 1.0
    neg = make_schwarzschild_family(-1.0, 1.0, 100.0)
    assert abs(float(neg.N(3.0)) - math.sqrt(5.0 / 3.0)) <= 1e-15
    assert abs(float(neg.N(3.0)) - 1.2909944487358056) <= 1e-15


def test_family_derivatives_match_finite_differences():
    p = make_schwarzschild_family(1.0, 3.0, 100.0)
    h = 1e-6
    for r in (3.5, 7.0, 42.0):
        for fn in (p.N, p.A, p.Rareal):
            fd1 = (float(fn(r + h)) - float(fn(r - h))) / (2 * h)
            fd2 = (float(fn(r + h)) - 2 * float(fn(r)) + float(fn(r - h))) / h**2
            assert abs(float(fn(r, 1)) - fd1) <= 1e-8 * max(1.0, abs(fd1))
            assert abs(float(fn(r, 2)) - fd2) <= 1e-3 * max(1.0, abs(fd2))


def test_far_lapse_second_derivative_reads_its_finite_limit():
    # r ** 4 overflows above ~1.16e77, where N'' = -2m/(r^3 N) - m^2/(r^4 N^3)
    # is a tiny finite number: a float radius neither raises nor warns, an
    # array radius does not warn, and radii short of the bound keep the
    # closed form's bits
    p = make_schwarzschild_family(1.0, 3.0, 1e150)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        far = float(p.N(1e100, 2))
        on_array = p.N(np.array([1e100, 5.0, 1e140]), 2)
        for r in (1e100, np.array([1e100, 1e140])):
            sample = curvature_at(p, r)
            assert np.all(np.isfinite([sample.scalar, sample.lap_N, sample.hess_nn]))
    assert far == pytest.approx(-2e-300, rel=1e-15)
    assert on_array[0] == far and on_array[2] == 0.0
    assert on_array[1] == p.N(np.array([5.0]), 2)[0]


def test_neck_profile_domain_and_values():
    neck = make_schwarzschild_neck(1.0)
    assert (neck.r_lo, neck.r_hi) == (2.0, 3.0)
    assert float(neck.N(2.0)) == 0.0
    assert abs(float(neck.N(3.0)) - INV_SQRT3) <= 1e-16
    with pytest.raises(EndpointDegeneracyError):
        neck.ensure_evaluable(2.0)  # horizon endpoint: only a one-sided limit
    neck2 = make_schwarzschild_neck(2.0)
    assert (neck2.r_lo, neck2.r_hi) == (4.0, 6.0)
    assert abs(float(neck2.N(6.0)) - INV_SQRT3) <= 1e-16
    with pytest.raises(DomainError):
        make_schwarzschild_neck(0.0)


def test_restricted_narrows_domain_and_clears_degeneracy():
    neck = make_schwarzschild_neck(1.0)
    inner = neck.restricted(2.5, 3.0)
    assert (inner.r_lo, inner.r_hi) == (2.5, 3.0)
    assert not inner.degenerate_lo
    inner.ensure_evaluable(2.5)  # no longer degenerate
    with pytest.raises(DomainError):
        neck.restricted(1.0, 3.0)


def _ensure_outcome(profile, r, open_interior):
    try:
        profile.ensure_evaluable(r, open_interior=open_interior)
    except DomainError as exc:
        return type(exc), str(exc)
    return None


_PLAIN = make_schwarzschild_family(1.0, 3.0, 10.0)


@pytest.mark.parametrize("open_interior", [False, True], ids=["closed", "open"])
@pytest.mark.parametrize(
    "where",
    ["interior", "r_lo", "r_hi", "below", "above", "inf", "-inf", "nan"],
)
@pytest.mark.parametrize(
    "profile",
    [
        _PLAIN,
        make_schwarzschild_neck(1.0),
        dataclasses.replace(_PLAIN, degenerate_lo=True, degenerate_hi=True),
    ],
    ids=["plain", "neck", "both_degenerate"],
)
def test_ensure_evaluable_float_path_matches_array_path(profile, where, open_interior):
    # a Python float skips the array wrap; it must raise what a 1-element
    # array raises, with the same message, or pass where that passes
    lo, hi = profile.r_lo, profile.r_hi
    r = {
        "interior": 0.5 * (lo + hi),
        "r_lo": lo,
        "r_hi": hi,
        "below": math.nextafter(lo, -math.inf),
        "above": math.nextafter(hi, math.inf),
        "inf": math.inf,
        "-inf": -math.inf,
        "nan": math.nan,
    }[where]
    expected = _ensure_outcome(profile, np.array([r]), open_interior)
    assert _ensure_outcome(profile, r, open_interior) == expected
    assert _ensure_outcome(profile, np.float64(r), open_interior) == expected
    if where in ("interior", "nan"):
        assert expected is None


def _element_rule(profile, r, open_interior):
    """The array rule element by element, as (type, end) or None: a radius
    outside the domain raises DomainError before any endpoint hit; a hit at
    a degenerate end raises EndpointDegeneracyError, and under
    ``open_interior`` a hit at any end raises DomainError, r_lo first.
    Radii are compared as doubles and NaN fails every comparison."""
    arr = np.asarray(r, dtype=float).ravel()
    if any(x < profile.r_lo or x > profile.r_hi for x in arr):
        return DomainError, "outside"
    for end, degenerate in (("r_lo", profile.degenerate_lo), ("r_hi", profile.degenerate_hi)):
        if any(x == getattr(profile, end) for x in arr):
            if degenerate:
                return EndpointDegeneracyError, end
            if open_interior:
                return DomainError, end
    return None


def _outcome_kind(profile, r, open_interior):
    outcome = _ensure_outcome(profile, r, open_interior)
    if outcome is None:
        return None
    kind, message = outcome
    if message.startswith("radius outside profile domain"):
        return kind, "outside"
    return kind, "r_lo" if "r_lo" in message else "r_hi"


def _array_cases(lo, hi):
    mid, nan = 0.5 * (lo + hi), math.nan
    below, above = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
    # a long double just above r_hi that is r_hi as a double (on x87)
    ld_hi = np.longdouble(hi) + np.longdouble(hi) * np.finfo(np.longdouble).eps
    return {
        "empty": np.array([]),
        "0-d interior": np.asarray(mid),
        "0-d r_lo": np.asarray(lo),
        "0-d above": np.asarray(above),
        "all NaN": np.array([nan, nan, nan]),
        "NaN, 2-D": np.array([[nan, mid], [mid, nan]]),
        "NaN beside below": np.array([nan, below, mid]),
        "above beside NaN": np.array([mid, above, nan]),
        "NaN first, inf": np.array([nan, math.inf]),
        "-inf beside NaN": np.array([-math.inf, nan]),
        "r_lo": np.array([mid, lo, mid]),
        "r_hi": np.array([hi, mid]),
        "both ends": np.array([hi, mid, lo]),
        "r_lo beside above": np.array([lo, above]),
        "r_hi beside NaN": np.array([nan, hi]),
        "long double interior": np.linspace(lo, hi, 9, dtype=np.longdouble)[1:-1],
        "long double r_hi": np.array([mid, ld_hi], dtype=np.longdouble),
        "long double below": np.array([np.longdouble(below), mid], dtype=np.longdouble),
    }


_ARRAY_CASES = sorted(_array_cases(3.0, 10.0))


@pytest.mark.parametrize("open_interior", [False, True], ids=["closed", "open"])
@pytest.mark.parametrize("case", _ARRAY_CASES)
@pytest.mark.parametrize(
    "profile",
    [
        _PLAIN,
        make_schwarzschild_neck(1.0),
        dataclasses.replace(_PLAIN, degenerate_lo=True, degenerate_hi=True),
    ],
    ids=["plain", "neck", "both_degenerate"],
)
def test_ensure_evaluable_on_arrays_follows_the_element_rule(profile, case, open_interior):
    # an array raises what its worst element raises: no NaN hides a radius
    # outside the domain, and an empty or all-NaN array passes
    r = _array_cases(profile.r_lo, profile.r_hi)[case]
    want = _element_rule(profile, r, open_interior)
    assert _outcome_kind(profile, r, open_interior) == want
    if case in ("empty", "all NaN", "NaN, 2-D", "long double interior"):
        assert want is None
    if case.startswith(("NaN beside", "above beside", "NaN first", "-inf", "r_lo beside")):
        assert want == (DomainError, "outside")


# ---------------------------------------------------------------------------
# RadialFunction expressions and jets
# ---------------------------------------------------------------------------


def test_compose_chain_rule():
    # an expression that calls a radial function on another's value takes
    # its derivatives by the chain rule
    sq = RadialFunction(lambda r: r * r, lambda r: 2.0 * r, lambda r: 2.0 + 0 * r)
    shift = RadialFunction(
        lambda r: r + 1.0, lambda r: 1.0 + 0 * r, lambda r: 0.0 * r
    )
    f = RadialFunction.expression(lambda r: sq(shift(r)))  # (r+1)^2
    assert float(f(2.0)) == 9.0
    assert float(f(2.0, 1)) == 6.0
    assert float(f(2.0, 2)) == 2.0


def test_expression_keeps_leaf_derivatives_at_the_coordinate():
    # a leaf called on the coordinate itself gives its own derivatives; the
    # chain rule would multiply in (1, 0) and turn inf * 0 into NaN, as at
    # the neck horizon, where A' is infinite
    steep = RadialFunction(
        lambda r: 0.0 * r, lambda r: 0.0 * r + math.inf, lambda r: 0.0 * r + 1.0
    )
    f = RadialFunction.expression(lambda r: 2.0 * steep(r))
    assert f(3.0, 1) == math.inf
    assert f(3.0, 2) == 2.0


def test_expression_divided_by_a_number_has_derivatives():
    x = RadialFunction.coordinate()
    sq = RadialFunction(lambda r: r * r, lambda r: 2.0 * r, lambda r: 2.0 + 0 * r)
    half = RadialFunction.expression(lambda r: x(r) / 2.0)
    assert (half(3.0), half(3.0, 1), half(3.0, 2)) == (1.5, 0.5, 0.0)
    quarter = RadialFunction.expression(lambda r: sq(r) / 4.0)  # r^2/4
    rs = np.array([1.0, 3.0, 10.0])
    np.testing.assert_array_equal(quarter(rs), [0.25, 2.25, 25.0])
    np.testing.assert_array_equal(quarter(rs, 1), [0.5, 1.5, 5.0])
    np.testing.assert_array_equal(quarter(rs, 2), [0.5, 0.5, 0.5])
    assert (quarter(3.0), quarter(3.0, 1), quarter(3.0, 2)) == (2.25, 1.5, 0.5)


def test_product_and_quotient_derivatives():
    p = make_schwarzschild_family(1.0, 3.0, 100.0)
    prod = RadialFunction.expression(lambda r: p.N(r) * p.Rareal(r))
    quot = RadialFunction.expression(lambda r: p.N(r) / p.Rareal(r))
    r, h = 5.0, 1e-6
    for fn in (prod, quot):
        fd = (float(fn(r + h)) - float(fn(r - h))) / (2 * h)
        assert abs(float(fn(r, 1)) - fd) <= 1e-8 * max(1.0, abs(fd))


@pytest.mark.parametrize(
    "expr, want",
    [
        (lambda x: 1.0 - x, (-2.0, -1.0, 0.0)),
        (lambda x: x - 1.0, (2.0, 1.0, 0.0)),
        (lambda x: -x, (-3.0, -1.0, 0.0)),
        (lambda x: 2.0 / x, (2.0 / 3.0, -2.0 / 9.0, 4.0 / 27.0)),  # 2/r, -2/r^2, 4/r^3
    ],
)
def test_expression_difference_negation_and_reciprocal(expr, want):
    x = RadialFunction.coordinate()
    f = RadialFunction.expression(lambda r: expr(x(r)))
    assert (f(3.0), f(3.0, 1), f(3.0, 2)) == want
    rs = np.array([3.0, 3.0])
    for nu in (0, 1, 2):
        np.testing.assert_array_equal(f(rs, nu), [want[nu]] * 2)


@pytest.mark.parametrize(
    "f",
    [RadialFunction.coordinate(), RadialFunction.constant(1.0), RadialFunction.constant(-2.5)],
    ids=["coordinate", "one", "constant"],
)
def test_coordinate_and_constant_jets_are_their_three_orders(f):
    # both form their jet without calling their leaves: same bits, types
    # and shapes as the three orders read apart
    rs = np.array([3.0, -0.0, 0.0, 1e300, math.inf, -math.inf, math.nan])
    for r in [*rs.tolist(), np.float64(2.0), rs, rs.reshape(7, 1), rs.astype(np.longdouble)]:
        with np.errstate(invalid="ignore"):
            jet = f.jet(r)
            orders = [f(r, nu) for nu in range(3)]
        for got, want in zip((jet.v, jet.d1, jet.d2), orders):
            assert type(got) is type(want)
            got, want = np.asarray(got), np.asarray(want)
            assert (got.dtype, got.shape) == (want.dtype, want.shape)
            assert _double_bits(got) == _double_bits(want)


def _double_bits(x):
    """Bytes of an array; a long double as float64 hi + lo, since its
    padding bytes are not reproducible."""
    hi = x.astype(np.float64)
    with np.errstate(invalid="ignore"):
        return hi.tobytes() + (x - hi).astype(np.float64).tobytes()


def test_expression_difference_of_functions():
    p = make_schwarzschild_family(1.0, 3.0, 100.0)
    diff = RadialFunction.expression(lambda r: p.N(r) - p.Rareal(r))
    for nu in (0, 1, 2):
        assert diff(5.0, nu) == float(p.N(5.0, nu)) - float(p.Rareal(5.0, nu))


# ---------------------------------------------------------------------------
# Fluid interiors and composites
# ---------------------------------------------------------------------------


def test_fluid_boundary_matches_exterior():
    star = make_interior_fluid(1.0, 2.5)
    assert abs(float(star.N(2.5)) - math.sqrt(0.2)) <= 1e-15
    assert abs(float(star.N(2.5)) - 0.4472135954999579) <= 1e-15
    assert abs(float(star.A(2.5)) - 1.0 / math.sqrt(0.2)) <= 1e-14
    assert float(star.N(0.0)) > 0.0  # central lapse positive below Buchdahl
    assert star.meta["buchdahl_ratio"] == pytest.approx(0.8)
    pressure = star.meta["pressure"]
    assert abs(float(pressure(2.5))) <= 1e-15  # surface pressure vanishes
    assert float(pressure(0.0)) > 0.0


def test_buchdahl_gate():
    with pytest.raises(BuchdahlError) as err:
        make_interior_fluid(1.0, 2.2)
    assert err.value.ratio == pytest.approx(2.0 / 2.2)
    with pytest.raises(BuchdahlError):
        make_interior_fluid(1.0, 2.25)  # 2m/R = 8/9 exactly: strict inequality
    assert buchdahl_ratio(1.0, 2.5) == pytest.approx(0.8)


def test_composite_star_structure():
    star = make_composite_star(1.0, 2.5)
    assert star.r_lo == 0.0 and star.r_hi == 100.0
    assert star.piece_at(1.0).kind.value == "interior_fluid"
    assert star.piece_at(50.0) is star.vacuum_piece()
    # continuity of both metric functions at the surface
    i, e = star.pieces
    assert abs(float(i.N(2.5)) - float(e.N(2.5))) <= 1e-15
    assert abs(float(i.A(2.5)) - float(e.A(2.5))) <= 1e-14
    with pytest.raises(DomainError):
        CompositeProfile(pieces=star.pieces, breakpoints=(2.6,))


@pytest.mark.parametrize("gap", [1e-5, 1e-12, math.ulp(2.5), -math.ulp(2.5)])
def test_composite_refuses_pieces_that_do_not_abut(gap):
    # within np.isclose of each other, but a radius between the pieces
    # would be handed to a piece that does not contain it
    interior = make_interior_fluid(1.0, 2.5)
    exterior = make_schwarzschild_exterior(1.0, 2.5 + gap, 100.0)
    for b in (2.5, 2.5 + gap):
        with pytest.raises(DomainError, match="abut exactly"):
            CompositeProfile(pieces=(interior, exterior), breakpoints=(b,))
    exact = make_schwarzschild_exterior(1.0, 2.5, 100.0)
    assert CompositeProfile(pieces=(interior, exact), breakpoints=(2.5,)).r_hi == 100.0
    with pytest.raises(DomainError, match="abut exactly"):
        CompositeProfile(pieces=(interior, exact), breakpoints=(math.nan,))


_ONE_PROFILE_ENTRIES = {
    "curvature_at": lambda star: pl.curvature_at(star, 5.0),
    "curvature_at on an array": lambda star: pl.curvature_at(star, np.array([5.0, 6.0])),
    "fd_curvature_oracle": lambda star: pl.fd_curvature_oracle(star, 5.0),
    "vacuum_residual_scan": lambda star: pl.vacuum_residual_scan(star, 8),
    "audit_sphere": lambda star: pl.audit_sphere(star, 3.0),
    "photon_sphere_search": lambda star: pl.photon_sphere_search(star),
    "trapping_report": lambda star: pl.trapping_report(star, 3.0),
    "run_rigidity_pipeline": lambda star: pl.run_rigidity_pipeline(star),
    "identity_residuals": lambda star: pl.identity_residuals(star, 5.0),
    "convergence_study": lambda star: pl.convergence_study(star, 5.0),
    "glue_neck": lambda star: pl.glue_neck(star, 3.0),
    "tangential_launch": lambda star: pl.tangential_launch(star, 3.0),
    "fermat_geodesy_residual": lambda star: pl.fermat_geodesy_residual(star, 3.0),
    "impact_parameter": lambda star: pl.impact_parameter(star, 3.0),
    "dump_profile": lambda star: pl.dump_profile(star),
}


@pytest.mark.parametrize("entry", list(_ONE_PROFILE_ENTRIES))
def test_one_profile_entry_points_refuse_a_composite_by_name(entry):
    # each names itself and says what to pass; monotonicity_scan takes one
    star = make_composite_star(1.0, 2.5)
    name = entry.split()[0]
    with pytest.raises(DomainError, match=rf"^{name} takes one RadialProfile, "
                       r"not a CompositeProfile; pass one of its pieces") as err:
        _ONE_PROFILE_ENTRIES[entry](star)
    assert err.value.__suppress_context__
    assert pl.monotonicity_scan(star, 0.5, 100.0).nonincreasing


# ---------------------------------------------------------------------------
# Tabulated profiles and serialization
# ---------------------------------------------------------------------------


def _tabulated_schwarzschild(n_nodes=400, r_lo=3.0, r_hi=100.0):
    src = make_schwarzschild_family(1.0, r_lo, r_hi)
    r = np.linspace(r_lo, r_hi, n_nodes)
    return src, make_tabulated(r, src.N(r), src.A(r), src.Rareal(r))


def test_tabulated_reproduces_nodes_and_midpoints():
    src, tab = _tabulated_schwarzschild()
    nodes = tab.meta["nodes"]
    assert np.max(np.abs(np.asarray(tab.N(nodes)) - np.asarray(src.N(nodes)))) == 0.0
    mids = 0.5 * (nodes[:-1] + nodes[1:])
    err = np.max(np.abs(np.asarray(tab.N(mids)) - np.asarray(src.N(mids))))
    assert err <= 4.93e-5  # reads 3.35e-5: the lapse's steep end at r = 3


def _same_bits(got, want):
    """Same shape, float64, equal bit for bit; NaN matches any NaN."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype == np.float64
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    return np.array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64))


def test_tabulated_evaluation_matches_cubic_spline_bitwise():
    CubicSpline = pytest.importorskip("scipy.interpolate").CubicSpline
    src = make_schwarzschild_family(1.0, 2.1, 100.0)
    nodes = np.geomspace(2.1, 100.0, 400)
    tab = make_tabulated(nodes, src.N(nodes), src.A(nodes), src.Rareal(nodes))
    lo, hi = nodes[0], nodes[-1]
    radii = np.concatenate([
        nodes,
        0.5 * (nodes[:-1] + nodes[1:]),
        np.nextafter(nodes, -np.inf),
        np.nextafter(nodes, np.inf),
        np.random.default_rng(3).uniform(lo, hi, 2000),
        [lo - 1e-9, lo - 0.5, hi + 1e-9, hi + 7.0, 0.0, -np.inf, np.inf, np.nan],
    ])
    for name in ("N", "A", "Rareal"):
        spline = CubicSpline(nodes, tab.meta["values"][name])
        fn = getattr(tab, name)
        for nu in (0, 1, 2):
            want = spline(radii, nu)
            assert _same_bits(fn(radii, nu), want), (name, nu)
            assert _same_bits(fn(radii.astype(np.longdouble), nu), want), (name, nu)
            grid = radii[:3600].reshape(-1, 4)
            assert _same_bits(fn(grid, nu), want[:3600].reshape(-1, 4))
            for r, w in zip(radii.tolist(), want):
                assert _same_bits(fn(r, nu), w), (name, nu, r)
            for r, w in zip(radii[::10], want[::10]):  # np.float64 scalars
                assert _same_bits(fn(r, nu), w), (name, nu, r)


def _spline_grids(rng, n):
    """Geometric, uniform, random-gap and clustered nodes, n of each."""
    lo = rng.uniform(0.1, 10.0)
    hi = lo + rng.uniform(0.5, 100.0)
    yield np.geomspace(lo, hi, n)
    yield np.linspace(lo, hi, n)
    yield lo + np.cumsum(rng.exponential(1.0, n))
    clustered = lo + (hi - lo) * np.sort(rng.uniform(0.0, 1.0, n)) ** 3
    if np.all(np.diff(clustered) > 0.0):
        yield clustered


def test_spline_coefficients_match_cubic_spline_bitwise():
    interpolate = pytest.importorskip("scipy.interpolate")
    solve_banded = pytest.importorskip("scipy.linalg").solve_banded
    rng = np.random.default_rng(11)
    grids = 0
    for draw in range(800):
        n = int(np.exp(rng.uniform(math.log(4.0), math.log(400.0))))
        for x in _spline_grids(rng, n):
            # three value families solved as one stack, in a rotating order
            families = [
                np.sqrt(np.abs(1.0 - 2.0 / x)),
                rng.normal(size=n),
                np.exp(rng.uniform(-30.0, 30.0)) * np.sin(x * rng.uniform(0.1, 5.0)),
            ]
            ys = np.stack(families[grids % 3:] + families[:grids % 3])
            got = _spline_coefficients(x, ys, ["N", "A", "Rareal"])
            assert got.shape == (3, 4, n - 1)
            for k, y in enumerate(ys):
                want = interpolate.CubicSpline(x, y).c
                assert _same_bits(got[k], want), (draw, n, k)
            # one channel alone: the same bits as in the stack
            assert _same_bits(_spline_coefficients(x, ys[1:2], ["A"])[0], got[1])
            grids += 1
    assert grids >= 3000
    # the solver alone, on random systems that pivot in every pattern, with
    # one and with three right-hand sides
    for n in range(2, 40):
        dl, d, du = (rng.normal(size=k) for k in (n - 1, n, n - 1))
        b = rng.normal(size=(n, 3))
        band = np.zeros((3, n))
        band[0, 1:], band[1], band[2, :-1] = du, d, dl
        want = solve_banded((1, 1), band, b)
        got = _gtsv(dl.tolist(), d.tolist(), du.tolist(), b.T.tolist())
        assert _same_bits(np.array(got).T, want), n
        got = _gtsv(dl.tolist(), d.tolist(), du.tolist(), [b[:, 2].tolist()])
        want = solve_banded((1, 1), band, b[:, 2:]).reshape(n)
        assert _same_bits(np.array(got[0]), want), n


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_tabulated_refuses_a_non_finite_spline_by_channel():
    # the secant slope 1e300 / 2**-52 overflows; so do the node slopes
    r = [1.0, 1.0 + 2.0 ** -52, 2.0, 3.0, 4.0]
    spike = [1.0, 1e300, 1.0, 1.0, 1.0]
    ones = [1.0] * 5
    for channel in ("N", "A", "Rareal"):
        cols = {"N": ones, "A": ones, "Rareal": ones, channel: spike}
        with pytest.raises(DomainError, match=f"^tabulated channel {channel} gives a non-finite spline"):
            make_tabulated(r, cols["N"], cols["A"], cols["Rareal"])


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_spline_solver_refuses_a_zero_pivot():
    # LAPACK's INFO = 1: the first pivot and the entry below it are zero
    with pytest.raises(DomainError, match="zero pivot in row 1"):
        _gtsv([0.0, 1.0], [0.0, 1.0, 1.0], [1.0, 1.0], [[1.0, 1.0, 1.0]])
    # INFO = n: elimination leaves the last pivot zero
    with pytest.raises(DomainError, match="zero pivot in row 2"):
        _gtsv([1.0], [1.0, 1.0], [1.0], [[1.0, 2.0]])


def test_tabulated_validation():
    r = np.linspace(3, 10, 8)
    with pytest.raises(DomainError):
        make_tabulated(r[:3], r[:3], r[:3], r[:3])  # too few nodes
    with pytest.raises(DomainError):
        make_tabulated(r[::-1], r, r, r)  # not increasing
    with pytest.raises(DomainError):
        make_tabulated(r, 0.0 * r, 1.0 + 0 * r, r)  # nonpositive lapse


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_closed_form_constructors_refuse_non_finite(bad):
    cases = [
        ("mass", lambda: make_schwarzschild_family(bad, 3.0, 100.0)),
        ("r_lo", lambda: make_schwarzschild_family(1.0, bad, 100.0)),
        ("r_hi", lambda: make_schwarzschild_family(1.0, 3.0, bad)),
        ("mu", lambda: make_schwarzschild_neck(bad)),
        ("r_glue", lambda: make_schwarzschild_neck(1.0, bad)),
        ("mass", lambda: make_interior_fluid(bad, 2.5)),
        ("star_radius", lambda: make_interior_fluid(1.0, bad)),
    ]
    for name, build in cases:
        with pytest.raises(DomainError, match=f"^{name} must be finite"):
            build()
    with pytest.raises(DomainError):
        make_schwarzschild_exterior(bad, 3.0, 100.0)


@pytest.mark.parametrize("channel", ["r", "N", "A", "Rareal"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_tabulated_refuses_non_finite(channel, bad):
    r = np.linspace(3.0, 10.0, 8)
    cols = {"r": r, "N": 1.0 + 0.0 * r, "A": 1.0 + 0.0 * r, "Rareal": r.copy()}
    cols[channel] = cols[channel].copy()
    cols[channel][-1 if channel == "r" else 3] = bad
    with pytest.raises(DomainError, match=f" {channel} must be finite"):
        make_tabulated(cols["r"], cols["N"], cols["A"], cols["Rareal"])


@pytest.mark.parametrize("literal", ["NaN", "Infinity"])
def test_load_profile_refuses_non_finite_json_literals(literal):
    closed = '{"kind": "schwarzschild", "mass": %s, "r_lo": 3.0, "r_hi": 100.0}'
    with pytest.raises(DomainError, match="mass must be finite"):
        load_profile(io.StringIO(closed % literal))
    table = '{"kind": "tabulated", "r": [3, 4, 5, 6], "N": [1, %s, 1, 1], ' \
        '"A": [1, 1, 1, 1], "Rareal": [3, 4, 5, 6]}'
    with pytest.raises(DomainError, match="channel N must be finite"):
        load_profile(io.StringIO(table % literal))


@pytest.mark.parametrize("key", ["mass", "r_lo", "r_hi"])
def test_load_profile_refuses_a_boolean_number(key):
    # float(True) is 1.0: {"mass": true} used to build m = 1
    doc = {"kind": "schwarzschild", "mass": 1.0, "r_lo": 3.0, "r_hi": 100.0, key: True}
    with pytest.raises(DomainError, match=f"schwarzschild profile key '{key}' is a boolean"):
        load_profile(io.StringIO(json.dumps(doc)))


@pytest.mark.parametrize(
    "nodes",
    [[True, 1, 1, 1], [1.0, 1.0, False, 1.0], np.array([True, True, True, True])],
    ids=["json-true", "json-false", "numpy-bool"],
)
def test_load_profile_refuses_boolean_nodes(nodes):
    doc = {"kind": "tabulated", "r": [3, 4, 5, 6], "N": nodes, "A": [1, 1, 1, 1],
           "Rareal": [3, 4, 5, 6]}
    with pytest.raises(DomainError, match="tabulated profile key 'N' is a boolean"):
        load_profile(doc)


def test_profile_document_round_trip():
    doc = {"kind": "schwarzschild", "mass": 1.0, "r_lo": 3.0, "r_hi": 100.0}
    p = load_profile(doc)
    assert dump_profile(p) == doc
    p2 = load_profile(io.StringIO(json.dumps(doc)))
    assert float(p2.N(3.0)) == float(p.N(3.0))
    src, tab = _tabulated_schwarzschild(n_nodes=16, r_hi=10.0)
    tab2 = load_profile(dump_profile(tab))
    assert float(tab2.N(5.0)) == float(tab.N(5.0))
    with pytest.raises(DomainError):
        load_profile({"kind": "unknown"})
    with pytest.raises(DomainError):
        load_profile({"no_kind": True})
