"""The oracle's Christoffel assembly against the dense tensor contraction.

``_dense_christoffel`` is the full contraction the oracle used to run: a
(3, 3, 3, ...) difference tensor d_e g_ab with the diagonal filled in, and
the three masked terms of g^cc (d_a g_bc + d_b g_ac - d_c g_ab) / 2.  The
oracle's :func:`~photonlab.curvature._christoffel` forms the same entries
by index class; here both run on random diagonal metrics, including signed
zeros, infinities and NaNs, and must agree bit for bit (NaN equal to NaN).
The golden oracle digests never reach non-finite inputs.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from photonlab.curvature import _GAMMA_ROW, _christoffel, fd_curvature_oracle
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


def _assert_same_bits(got, expected):
    """Equal values and signs, NaN where the reference has NaN.  (Raw
    bytes would also compare the padding of the 80-bit longdouble.)"""
    assert got.shape == expected.shape and got.dtype == expected.dtype
    nan = np.isnan(expected)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan], expected[~nan])
    assert np.array_equal(np.signbit(got[~nan]), np.signbit(expected[~nan]))


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
        got = _christoffel(g0, dg_r, dg_th, h)[_GAMMA_ROW]
    _assert_same_bits(got, expected)


def test_christoffel_matches_dense_contraction_on_signed_zero_differences():
    """Negative-zero differences, where a + 0 term turns -0.0 into +0.0."""
    g0 = np.array([[1.0], [-4.0], [9.0]], dtype=np.longdouble)
    dg = np.full((3, 1), -0.0, dtype=np.longdouble)
    h = np.longdouble(1e-3)
    expected = _dense_christoffel(g0, dg, dg, h)
    got = _christoffel(g0, dg, dg, h)[_GAMMA_ROW]
    _assert_same_bits(got, expected)
    assert np.signbit(expected).any() and not np.signbit(expected).all()


def test_oracle_allocation_peak_stays_small():
    """One 128-sample oracle pass holds no stencil-by-stencil difference
    tensor: the dense assembly peaked at ~1280 KB here."""
    profile = make_schwarzschild_family(1.0, 3.0, 100.0)
    r = np.linspace(4.0, 90.0, 128)
    h = 1e-3 * r
    fd_curvature_oracle(profile, r, h)  # warm caches outside the trace
    tracemalloc.start()
    try:
        fd_curvature_oracle(profile, r, h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1000 * 1024
