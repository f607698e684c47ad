"""The oracle's Christoffel and Ricci assembly against the dense tensor
contraction, and its Ricci sum against the full gathered sum.

``_dense_christoffel`` is the full contraction the oracle used to run: a
(3, 3, 3, ...) derivative tensor d_e g_ab with the diagonal filled in, and
the three masked terms of g^cc (d_a g_bc + d_b g_ac - d_c g_ab) / 2, with
g^cc / 2 and d_e g_ab formed as the oracle forms them.  The oracle's
:func:`~photonlab.curvature._christoffel` forms the same entries by index
class, and :func:`~photonlab.curvature._christoffel_along` the five that
read one difference, which is all the oracle forms at its displaced
centres; :func:`~photonlab.curvature._products` forms the 28 distinct
products behind the 54 quadratic Ricci terms.  Here they run on random
diagonal metrics, including signed zeros, infinities and NaNs, and must
agree with the dense contraction bit for bit (NaN equal to NaN).  The
golden oracle digests never reach non-finite inputs.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from photonlab import curvature
from photonlab.conformal import (
    _inverted_profile,
    _neck_isotropic_profile,
    conformal_scalar_residual,
    conformal_transform,
)
from photonlab.curvature import (
    _ALL_TERMS,
    _GAMMA_ROW,
    _LIVE_TERMS,
    _PAIRS,
    _PRODUCT,
    _TERMS,
    _ZERO_TERM,
    ORACLE_DTYPE,
    _christoffel,
    _christoffel_along,
    _fd_scalar,
    _products,
    _ricci_sum,
    fd_curvature_oracle,
)
from photonlab.gluing import double, glue_neck, guarded_chart_samples
from photonlab.radial import RadialFunction, make_schwarzschild_family


def _half_inverse_and_derivatives(g0, dg_r, dg_th, h):
    """g^aa / 2 and d_r g_aa, d_th g_aa as the oracle forms them."""
    return 0.5 * (1.0 / g0), dg_r / (2.0 * h), dg_th / (2.0 * h)


def _dense_christoffel(w, d_r, d_th):
    i = np.arange(3)
    dg = np.zeros((3, 3) + w.shape, dtype=w.dtype)  # dg[e, a, a] = d_e g_aa
    dg[0, i, i] = d_r
    dg[1, i, i] = d_th
    eye = np.eye(3, dtype=bool).reshape((3, 3) + (1,) * (w.ndim - 1))
    term = (
        np.where(eye[:, None], np.moveaxis(dg, 2, 0), 0.0)  # d_a g_bc, b == c
        + np.where(eye[:, :, None], np.swapaxes(dg, 0, 2), 0.0)  # d_b g_ac, a == c
        - np.where(eye[None], dg, 0.0)  # d_c g_ab, a == b
    )
    return w[:, None, None] * term


def _table(w, d_r, d_th):
    """The 13 distinct symbols at every point, each taken as the oracle's
    centre: one centre, so none off it along th (w[2:2] and d_th[2:2] are
    empty)."""
    return _christoffel(w[:, None], d_r[:, None], d_th, w[2:2], d_th[2:2])


def _assembled(w, d_r, d_th):
    """Every symbol as the oracle assembles them at its centre, as [c, a, b]."""
    return _table(w, d_r, d_th)[_GAMMA_ROW]


def _assert_same_bits(got, expected):
    """Equal values and signs, NaN where the reference has NaN.  (Raw
    bytes would also compare the padding of the 80-bit longdouble.)"""
    assert got.shape == expected.shape and got.dtype == expected.dtype
    nan = np.isnan(expected)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan], expected[~nan])
    assert np.array_equal(np.signbit(got[~nan]), np.signbit(expected[~nan]))


def _along_entries(e):
    """gamma[c, a, b] of each row of ``_christoffel_along(..., e)``, in
    order: d_e g_cc for the two c != e, d_a g_ee for the two a != e, and
    d_e g_ee."""
    others = [x for x in range(3) if x != e]
    return [(c, e, c) for c in others] + [(e, a, a) for a in others] + [(e, e, e)]


def _assert_restricted_rows_match(g0, dg_r, dg_th, h):
    with np.errstate(all="ignore"):
        w, d_r, d_th = _half_inverse_and_derivatives(g0, dg_r, dg_th, h)
        dense = _dense_christoffel(w, d_r, d_th)
        for e, d in enumerate((d_r, d_th)):
            got = np.empty((5,) + w.shape[1:], dtype=w.dtype)
            _christoffel_along(w, d, e, got)
            _assert_same_bits(got, np.stack([dense[i] for i in _along_entries(e)]))


_SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan]
_ENTRIES = st.one_of(
    st.sampled_from(_SPECIAL),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.floats(min_value=-10.0, max_value=10.0),
)


@st.composite
def _metric_data(draw):
    """g0, dg_r, dg_th of shape (3, 5) or (3, 5, n) and h of shape () or
    (n,), as the oracle passes them, in extended precision."""
    n = draw(st.one_of(st.none(), st.integers(min_value=1, max_value=4)))
    tail = (5,) if n is None else (5, n)
    ld = ORACLE_DTYPE

    def array(shape):
        return draw(hnp.arrays(np.float64, shape, elements=_ENTRIES)).astype(ld)

    return (
        array((3,) + tail),
        array((3,) + tail),
        array((3,) + tail),
        array(() if n is None else (n,)),
    )


@settings(max_examples=300, deadline=None)
@given(_metric_data())
def test_christoffel_matches_dense_contraction_bit_for_bit(data):
    g0, dg_r, dg_th, h = data
    with np.errstate(all="ignore"):
        parts = _half_inverse_and_derivatives(g0, dg_r, dg_th, h)
        expected = _dense_christoffel(*parts)
        got = _assembled(*parts)
    _assert_same_bits(got, expected)
    _assert_restricted_rows_match(g0, dg_r, dg_th, h)


def test_christoffel_matches_dense_contraction_on_signed_zero_differences():
    """Negative-zero differences, where a + 0 term turns -0.0 into +0.0."""
    g0 = np.array([[1.0], [-4.0], [9.0]], dtype=ORACLE_DTYPE)
    dg = np.full((3, 1), -0.0, dtype=ORACLE_DTYPE)
    parts = _half_inverse_and_derivatives(g0, dg, dg, ORACLE_DTYPE(1e-3))
    expected = _dense_christoffel(*parts)
    got = _assembled(*parts)
    _assert_same_bits(got, expected)
    assert np.signbit(expected).any() and not np.signbit(expected).all()


def _special_combinations():
    """Every metric diagonal over {1, -0, inf, NaN} against every
    difference triple over {-0, 0, inf, NaN, 3}, as (3, n) columns."""
    metric = itertools.product([1.0, -0.0, np.inf, np.nan], repeat=3)
    diff = itertools.product([-0.0, 0.0, np.inf, np.nan, 3.0], repeat=3)
    return (
        np.array(c, dtype=ORACLE_DTYPE).T
        for c in zip(*itertools.product(metric, diff))
    )


def test_direction_restricted_rows_match_on_every_special_combination():
    # in each direction
    g0, dg = _special_combinations()
    h = ORACLE_DTYPE(1e-3)
    _assert_restricted_rows_match(g0, dg, dg[::-1], h)
    _assert_restricted_rows_match(g0, dg, -dg, np.full(g0.shape[1:], h))


def _assert_products_match(w, d_r, d_th):
    """The 28 products against the 54 quadratic terms of the dense
    contraction, gamma^c_cd gamma^d_aa (k = 0) and gamma^c_ad gamma^d_ca
    (k = 1), as [c, d, k, a]."""
    with np.errstate(all="ignore"):
        gam = _dense_christoffel(w, d_r, d_th)
        c, d, a = np.indices((3, 3, 3))
        expected = np.stack(
            [gam[c, c, d] * gam[d, a, a], gam[c, a, d] * gam[d, c, a]], axis=2
        )
        got = _products(_table(w, d_r, d_th))
    assert len(_PAIRS) == 28 and _PRODUCT.shape == (3, 3, 2, 3)
    _assert_same_bits(got[_PRODUCT], expected)


@settings(max_examples=300, deadline=None)
@given(_metric_data())
def test_product_table_matches_dense_quadratic_terms_bit_for_bit(data):
    with np.errstate(all="ignore"):
        parts = _half_inverse_and_derivatives(*data)
    _assert_products_match(*parts)


def test_product_table_matches_on_every_special_combination():
    g0, dg = _special_combinations()
    for dg_r, dg_th in ((dg, dg[::-1]), (-dg, dg)):
        with np.errstate(all="ignore"):
            parts = _half_inverse_and_derivatives(g0, dg_r, dg_th, ORACLE_DTYPE(1e-3))
        _assert_products_match(*parts)


@settings(max_examples=200, deadline=None)
@given(_metric_data())
def test_symbol_table_at_displaced_centres_matches_dense_contraction(data):
    # points 0-2 are the centres along r; along th the centres th +- h
    # share point 0's g_rr, g_thth and their derivatives, with g_phph and
    # its derivative of points 3 and 4
    g0, dg_r, dg_th, h = data
    with np.errstate(all="ignore"):
        w, d_r, d_th = _half_inverse_and_derivatives(g0, dg_r, dg_th, h)
        table = _christoffel(w[:, :3], d_r[:, :3], d_th[:, 0], w[2, 3:], d_th[2, 3:])
        centre = _dense_christoffel(w[:, 0], d_r[:, 0], d_th[:, 0])
        _assert_same_bits(table[:13][_GAMMA_ROW], centre)
        for k in (1, 2):
            dense = _dense_christoffel(w[:, k], d_r[:, k], d_r[:, k])
            along_r = table[3 + 10 * k: 8 + 10 * k]
            _assert_same_bits(along_r, np.stack([dense[i] for i in _along_entries(0)]))
            w_k = np.stack([w[0, 0], w[1, 0], w[2, 2 + k]])
            d_k = np.stack([d_th[0, 0], d_th[1, 0], d_th[2, 2 + k]])
            dense = _dense_christoffel(w_k, d_k, d_k)
            along_th = table[8 + 10 * k: 13 + 10 * k]
            _assert_same_bits(along_th, np.stack([dense[i] for i in _along_entries(1)]))


def _oracle_peak(route, profile, r, h) -> int:
    route(profile, r, h)  # warm caches outside the trace
    tracemalloc.start()
    try:
        route(profile, r, h)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_oracle_allocation_peak_stays_small():
    """One 128-sample oracle pass holds no stencil-by-stencil difference
    tensor: the dense assembly peaked at ~1280 KB here.  The same holds on
    the three rescaled presentations the residual scan passes, which read
    A and Rareal through the conformal factor, at one step for all, and
    on the scan's scalar route."""
    exterior = make_schwarzschild_family(1.0, 3.0, 100.0)
    r = np.linspace(4.0, 90.0, 128)
    for route in (fd_curvature_oracle, _fd_scalar):
        assert _oracle_peak(route, exterior, r, 1e-3 * r) <= 1000 * 1024
    conf = conformal_transform(double(glue_neck(exterior, 3.0)))
    for profile in (
        conf.chart("exterior").hat,
        _neck_isotropic_profile(conf.chart("neck"))[0],
        _inverted_profile(conf.chart("exterior_reflected")),
    ):
        span = profile.r_hi - profile.r_lo
        t = np.linspace(profile.r_lo + 0.02 * span, profile.r_hi - 0.02 * span, 128)
        for route in (fd_curvature_oracle, _fd_scalar):
            assert _oracle_peak(route, profile, t, np.full(128, 1e-3 * span)) <= 1000 * 1024


# ---------------------------------------------------------------------------
# The Ricci sum without its exact zeros
# ---------------------------------------------------------------------------


def _full_sum(table, two_h):
    """Every one of the 72 Ricci terms, gathered per c and summed in (c, t)
    order: the sum the oracle ran before it skipped its exact zeros."""
    n_products = len(_PAIRS)
    terms = np.empty((_ZERO_TERM + 1,) + two_h.shape, dtype=table.dtype)
    _products(table, out=terms[:n_products])
    terms[n_products:_ZERO_TERM] = (table[13:23] - table[23:33]) / two_h
    terms[_ZERO_TERM] = 0.0
    ric = np.zeros((3,) + two_h.shape, dtype=table.dtype)
    for c in range(3):
        terms_c = terms[_TERMS[c]]
        for t in range(0, 8, 2):
            ric += terms_c[t]
            ric -= terms_c[t + 1]
    return ric


@st.composite
def _symbol_tables(draw, zero_rows=st.sampled_from([0.0, -0.0])):
    """A symbol table of three centres, (33,) or (33, n), whose zero-class
    rows 0-2 are drawn from ``zero_rows`` and the rest from the special and
    random entries, with twice the steps."""
    n = draw(st.one_of(st.none(), st.integers(min_value=1, max_value=4)))
    tail = () if n is None else (n,)
    table = draw(hnp.arrays(np.float64, (33,) + tail, elements=_ENTRIES))
    table[:3] = draw(hnp.arrays(np.float64, (3,) + tail, elements=zero_rows))
    two_h = draw(hnp.arrays(np.float64, tail, elements=_ENTRIES))
    return table.astype(ORACLE_DTYPE), two_h.astype(ORACLE_DTYPE)


def test_live_terms_leave_out_exactly_the_exact_zeros():
    # a product that reads a zero-class symbol (rows 0-2) reads two, so it
    # is +-0 while those rows are; 22 terms are such products and 6 take
    # no stencil
    reads_zero_class = [min(pair) < 3 for pair in _PAIRS.tolist()]
    assert reads_zero_class == [max(pair) < 3 for pair in _PAIRS.tolist()]

    def dead(row):
        return row == _ZERO_TERM or (row < len(_PAIRS) and reads_zero_class[row])

    assert sum(map(dead, _TERMS.ravel())) == 28
    live = [(a, int(row), t % 2 == 1) for c in range(3) for t in range(8)
            for a, row in enumerate(_TERMS[c, t]) if not dead(row)]
    assert _LIVE_TERMS == live and len(live) == 44
    # a NaN or infinite zero-class symbol adds every term but the zeros
    every = [(a, int(row), t % 2 == 1) for c in range(3) for t in range(8)
             for a, row in enumerate(_TERMS[c, t]) if row != _ZERO_TERM]
    assert _ALL_TERMS == every and len(every) == 66


@settings(max_examples=300, deadline=None)
@given(_symbol_tables())
def test_ricci_sum_equals_the_full_sum_bit_for_bit(data):
    # zero-class rows of +-0 take the live terms only; every other entry
    # may be a signed zero, an infinity, a NaN or any double
    table, two_h = data
    with np.errstate(all="ignore"):
        expected = _full_sum(table, two_h)
        got = _ricci_sum(table, two_h)
    _assert_same_bits(got, expected)


@settings(max_examples=200, deadline=None)
@given(_symbol_tables(zero_rows=st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan])))
def test_a_non_zero_class_symbol_takes_the_full_sum(data):
    # with no live terms, a table whose zero-class rows are all +-0 sums
    # to zeros, and one holding a NaN or an infinity there still sums in
    # full
    table, two_h = data
    with np.errstate(all="ignore"), pytest.MonkeyPatch.context() as patch:
        expected = _full_sum(table, two_h)
        patch.setattr(curvature, "_LIVE_TERMS", [])
        got = _ricci_sum(table, two_h)
    if table[:3].any():
        _assert_same_bits(got, expected)
    else:
        assert not got.any()


@settings(max_examples=200, deadline=None)
@given(_metric_data())
def test_ricci_sum_of_assembled_tables_equals_the_full_sum(data):
    g0, dg_r, dg_th, h = data
    with np.errstate(all="ignore"):
        w, d_r, d_th = _half_inverse_and_derivatives(g0, dg_r, dg_th, h)
        table = _christoffel(w[:, :3], d_r[:, :3], d_th[:, 0], w[2, 3:], d_th[2, 3:])
        two_h = 2.0 * np.broadcast_to(h, table.shape[1:])
        _assert_same_bits(_ricci_sum(table, two_h), _full_sum(table, two_h))


def _checked_sums(monkeypatch):
    """Wrap the oracle's Ricci sum so that every call is checked against
    the full sum, recording whether its zero-class rows were all +-0."""
    ricci_sum, fast = curvature._ricci_sum, []

    def checked(table, two_h):
        got = ricci_sum(table, two_h)
        with np.errstate(all="ignore"):
            _assert_same_bits(got, _full_sum(table, two_h))
        fast.append(not table[:3].any())
        return got

    monkeypatch.setattr(curvature, "_ricci_sum", checked)
    return fast


def _window(lo, hi):
    def leaf(r):
        return np.where((r > lo) & (r < hi), np.nan, 0.0 * r)

    return RadialFunction(leaf, leaf, leaf)


def test_scans_sum_live_terms_with_the_full_sums_bits(monkeypatch):
    fast = _checked_sums(monkeypatch)
    for m in (0.5, 1.0, 2.0):
        exterior = make_schwarzschild_family(m, 3.0 * m, 100.0 * m)
        conf = conformal_transform(double(glue_neck(exterior, 3.0 * m)))
        assert conformal_scalar_residual(conf)["max_abs_scalar"] <= 1e-8
    assert fast == [True] * 12  # four presentations each


@pytest.mark.parametrize("centred", [True, False])
def test_a_nan_window_in_the_profile_surfaces_in_the_scan(monkeypatch, centred):
    # a NaN of A at a sample centre makes its zero-class symbols NaN (the
    # full sum); one that only the stencil radius r + h reaches leaves them
    # zero (the live terms); both surface as the scan's worst sample
    base = make_schwarzschild_family(1.0, 3.0, 100.0)
    rs = guarded_chart_samples(double(glue_neck(base, 3.0)).chart("exterior"), 128)
    r = float(rs[np.searchsorted(rs, 40.0)])
    h = 2e-5 * r
    lo, hi = (r - 0.5 * h, r + 0.5 * h) if centred else (r + 0.5 * h, r + 1.5 * h)
    nan_a = RadialFunction.expression(lambda x: base.A(x) + _window(lo, hi)(x))
    conf = conformal_transform(double(glue_neck(dataclasses.replace(base, A=nan_a), 3.0)))
    fast = _checked_sums(monkeypatch)
    scalar = conformal_scalar_residual(conf)
    assert math.isnan(scalar["max_abs_scalar"])
    assert scalar["argmax"] == ("exterior", r)
    assert fast == [True, True, True, not centred]  # the exterior pass is last
