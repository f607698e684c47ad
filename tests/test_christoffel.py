"""The oracle's Christoffel assembly against the dense tensor contraction.

``_dense_christoffel`` is the full contraction the oracle used to run: a
(3, 3, 3, ...) difference tensor d_e g_ab with the diagonal filled in, and
the three masked terms of g^cc (d_a g_bc + d_b g_ac - d_c g_ab) / 2.  The
oracle's :func:`~photonlab.curvature._christoffel` forms the same entries
by index class, and :func:`~photonlab.curvature._christoffel_along` the
five that read one difference, which is all the oracle forms at its
displaced centres.  Here they run on random diagonal metrics, including
signed zeros, infinities and NaNs, and must agree with the dense
contraction bit for bit (NaN equal to NaN).  The golden oracle digests
never reach non-finite inputs.
"""

from __future__ import annotations

import itertools
import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from photonlab.conformal import (
    _inverted_profile,
    _neck_isotropic_profile,
    conformal_transform,
)
from photonlab.curvature import (
    _GAMMA_ROW,
    _christoffel,
    _christoffel_along,
    fd_curvature_oracle,
)
from photonlab.gluing import double, glue_neck
from photonlab.radial import make_schwarzschild_family


def _dense_christoffel(g0, dg_r, dg_th, h):
    i = np.arange(3)
    dg = np.zeros((3, 3) + g0.shape, dtype=g0.dtype)  # dg[e, a, a] = d_e g_aa
    dg[0, i, i] = dg_r / (2.0 * h)
    dg[1, i, i] = dg_th / (2.0 * h)
    ginv = 1.0 / g0
    eye = np.eye(3, dtype=bool).reshape((3, 3) + (1,) * (g0.ndim - 1))
    term = (
        np.where(eye[:, None], np.moveaxis(dg, 2, 0), 0.0)  # d_a g_bc, b == c
        + np.where(eye[:, :, None], np.swapaxes(dg, 0, 2), 0.0)  # d_b g_ac, a == c
        - np.where(eye[None], dg, 0.0)  # d_c g_ab, a == b
    )
    return 0.5 * ginv[:, None, None] * term


def _assembled(g0, dg_r, dg_th, h):
    """Every symbol as the oracle assembles them at its centre, as [c, a, b]."""
    rows_r = _christoffel_along(g0, dg_r, h, 0)
    rows_th = _christoffel_along(g0, dg_th, h, 1)
    return _christoffel(g0, rows_r, rows_th)[_GAMMA_ROW]


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
        dense = _dense_christoffel(g0, dg_r, dg_th, h)
        for e, dg in enumerate((dg_r, dg_th)):
            got = _christoffel_along(g0, dg, h, e)
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
    ld = np.longdouble

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
        expected = _dense_christoffel(g0, dg_r, dg_th, h)
        got = _assembled(g0, dg_r, dg_th, h)
    _assert_same_bits(got, expected)
    _assert_restricted_rows_match(g0, dg_r, dg_th, h)


def test_christoffel_matches_dense_contraction_on_signed_zero_differences():
    """Negative-zero differences, where a + 0 term turns -0.0 into +0.0."""
    g0 = np.array([[1.0], [-4.0], [9.0]], dtype=np.longdouble)
    dg = np.full((3, 1), -0.0, dtype=np.longdouble)
    h = np.longdouble(1e-3)
    expected = _dense_christoffel(g0, dg, dg, h)
    got = _assembled(g0, dg, dg, h)
    _assert_same_bits(got, expected)
    assert np.signbit(expected).any() and not np.signbit(expected).all()


def test_direction_restricted_rows_match_on_every_special_combination():
    # every metric diagonal over {1, -0, inf, NaN} against every difference
    # triple over {-0, 0, inf, NaN, 3}, in each direction
    ld = np.longdouble
    metric = itertools.product([1.0, -0.0, np.inf, np.nan], repeat=3)
    diff = itertools.product([-0.0, 0.0, np.inf, np.nan, 3.0], repeat=3)
    g0, dg = (np.array(c, dtype=ld).T for c in zip(*itertools.product(metric, diff)))
    h = np.longdouble(1e-3)
    _assert_restricted_rows_match(g0, dg, dg[::-1], h)
    _assert_restricted_rows_match(g0, dg, -dg, np.full(g0.shape[1:], h))


def _oracle_peak(profile, r, h) -> int:
    fd_curvature_oracle(profile, r, h)  # warm caches outside the trace
    tracemalloc.start()
    try:
        fd_curvature_oracle(profile, r, h)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_oracle_allocation_peak_stays_small():
    """One 128-sample oracle pass holds no stencil-by-stencil difference
    tensor: the dense assembly peaked at ~1280 KB here.  The same holds on
    the three rescaled presentations the residual scan passes, which read
    A and Rareal through the conformal factor, at one step for all."""
    exterior = make_schwarzschild_family(1.0, 3.0, 100.0)
    r = np.linspace(4.0, 90.0, 128)
    assert _oracle_peak(exterior, r, 1e-3 * r) <= 1000 * 1024
    conf = conformal_transform(double(glue_neck(exterior, 3.0)))
    for profile in (
        conf.chart("exterior").hat,
        _neck_isotropic_profile(conf.chart("neck"))[0],
        _inverted_profile(conf.chart("exterior_reflected")),
    ):
        span = profile.r_hi - profile.r_lo
        t = np.linspace(profile.r_lo + 0.02 * span, profile.r_hi - 0.02 * span, 128)
        assert _oracle_peak(profile, t, np.full(128, 1e-3 * span)) <= 1000 * 1024
