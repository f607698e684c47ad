"""Curvature of radial profiles plus an independent finite-difference oracle.

Two routes to the same tensors, deliberately kept apart:

* :func:`curvature_at` evaluates closed-form expressions built from the
  profile's analytic derivatives.
* :func:`fd_curvature_oracle` rebuilds everything from centered finite
  differences of metric *values* — numerically assembled Christoffel
  symbols, nested differencing for their derivatives — so agreement between
  the two is a genuine cross-check, not a tautology.

The oracle works internally in extended precision (:data:`ORACLE_DTYPE`,
``np.longdouble``) so its truncation error, not roundoff, dominates down
to step sizes of 1e-4.  Its 25 stencil points per sample lie on seven
distinct radii, r, r +- h and (r +- h) +- h: A and Rareal are read once on
those seven, N once on the central three, and the sines of the six angles
off the equator, pi/2 +- h and (pi/2 +- h) +- h, once per run of equal
steps (sin(pi/2) rounds to 1, so g_phph is R^2 on the equator, bit for
bit).  The assembly uses only that the metric is diagonal and radial: each
Christoffel symbol comes from d_e g_aa by its index class (13 distinct
values of 27), and the metric is inverted once at each centre along r.
Only the twelve symbol derivatives the Ricci contraction reads are
differenced, so the two displaced centres along r form only the five
symbols their own difference reads, and the two along th only the two that
read d_th g_phph (g_rr and g_thth do not depend on th).  The 54 quadratic
terms are products of 28 distinct symbol pairs, each formed once, and
summed in the order of the full index loops; while the zero-class symbols
are exact zeros, the 22 terms that multiply them and the 6 derivatives no
stencil takes are skipped, which changes no bit of the sum
(:func:`_ricci_sum`).  The curvature is one core, :func:`_fd_ricci`,
over one or more parts (profile, radii, steps): each part is read on its
own, and every later step runs once over all their samples.  The oracle
is its one-part case and adds the lapse Hessian; the conformal scalar
scan passes its four charts' presentations in one call and reads only the
scalar (:func:`_fd_scalars`), with the same bits and no read of N.

The core writes the metric, sines, differences, inverse, symbol table,
Ricci terms and sums into views of one workspace block, allocated per
call, whose rows the Ricci sum reuses once the table is formed.  That is
for glibc's allocator: freeing an mmapped block raises its mmap threshold
to the block's size and its trim threshold to twice that, so a pass whose
heap peak stays below twice its largest block keeps its heap between
calls, where many large temporaries would be handed back to the kernel
and faulted in again on every pass.

Both routes are array-shaped: given an array of radii (and, for the
oracle, a matching array of per-sample steps) they evaluate every sample
in one pass and return a :class:`CurvatureSample` whose fields are float
arrays; a scalar radius gives float fields.  Oracle samples are
bit-identical whichever way they are requested, since extended-precision
arithmetic runs the same scalar operations in both.  Closed-form samples
on arrays may differ from scalar calls in the last bits, because numpy's
vectorized float64 ``**`` does not round exactly like the scalar one.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .radial import (
    DomainError,
    Jet,
    RadialProfile,
    _require_normal_square,
    _require_piece,
)

__all__ = [
    "CurvatureSample",
    "VacuumResidualScan",
    "curvature_at",
    "vacuum_residual_scan",
    "fd_curvature_oracle",
    "radial_laplacian",
]

# The oracle's working precision: x87 80-bit extended where numpy's
# longdouble is (x86-64 Linux), IEEE double where C long double is.
ORACLE_DTYPE = np.longdouble

# The static vacuum residuals, in the order scans report them and break ties.
VACUUM_FIELDS = ("vac_residual_nn", "vac_residual_tt", "scalar_residual", "lap_residual")
_vacuum_residuals = operator.attrgetter(*VACUUM_FIELDS)


def _max_or_nan(values) -> float:
    """Largest of non-negative numbers; their NaN sum if any is NaN."""
    total = sum(values)  # builtin max keeps a NaN only in first place
    return max(values) if total == total else total


@dataclass(frozen=True)
class CurvatureSample:
    """Orthonormal-frame curvature and lapse-Hessian data at one radius.

    ``ric_nn``/``ric_tt`` are the Ricci components on the unit normal and a
    unit sphere-tangent vector; ``hess_*`` the matching lapse Hessian
    components; the four residual fields certify the static vacuum system
    N * Ric = Hess N, Lap N = 0, Scal = 0 (they are the amounts by which the
    sample fails it, so matter interiors report their source terms here).
    """

    r: float
    ric_nn: float
    ric_tt: float
    scalar: float
    hess_nn: float
    hess_tt: float
    lap_N: float
    vac_residual_nn: float
    vac_residual_tt: float
    scalar_residual: float
    lap_residual: float

    def max_vacuum_residual(self) -> float:
        """Largest residual magnitude of a scalar sample; NaN if any is NaN."""
        a, b, c, d = _vacuum_residuals(self)
        return _max_or_nan((abs(a), abs(b), abs(c), abs(d)))


def radial_laplacian(f: Jet, a: Jet, rr: Jet):
    """Laplacian of a radial function in g = A^2 dr^2 + Rareal^2 * sphere.

    Divergence form, from jets of f, A and Rareal at one radius; its
    grouping is independent of Hess f(n, n) + 2 Hess f(t, t).
    """
    return (f.d2 + 2.0 * rr.d1 * f.d1 / rr.v - f.d1 * a.d1 / a.v) / (a.v * a.v)


def _proper_second(f: Jet, a: Jet):
    """Second derivative of f along proper radial distance, d/ds = (1/A) d/dr."""
    return (f.d2 - f.d1 * a.d1 / a.v) / (a.v * a.v)


def _sample(r, n, ric_nn, ric_tt, scalar, hess_nn, hess_tt, lap_n) -> CurvatureSample:
    """Package assembled components, forming the vacuum residuals in their
    own precision first: floats for a scalar ``r``, float arrays for an
    array ``r``, where only ``r`` is copied, apart from the caller's array;
    the other fields are the curvature arithmetic's own results."""
    array = isinstance(r, np.ndarray)
    cast = (lambda x: np.asarray(x, dtype=float)) if array else float
    # The frozen dataclass __init__ sets each of the eleven fields through
    # object.__setattr__, at about the cost of a scalar sample's curvature
    # arithmetic; filling the instance dictionary in field order gives the
    # same record (==, hash, repr, fields, replace).  The scalar and the
    # lapse Laplacian are their own residuals, each cast once for both.
    sample = object.__new__(CurvatureSample)
    scalar, lap_n = cast(scalar), cast(lap_n)
    sample.__dict__.update(
        r=np.array(r, dtype=float) if array else float(r),
        ric_nn=cast(ric_nn),
        ric_tt=cast(ric_tt),
        scalar=scalar,
        hess_nn=cast(hess_nn),
        hess_tt=cast(hess_tt),
        lap_N=lap_n,
        vac_residual_nn=cast(n * ric_nn - hess_nn),
        vac_residual_tt=cast(n * ric_tt - hess_tt),
        scalar_residual=scalar,
        lap_residual=lap_n,
    )
    return sample


def _jets_at(profile: RadialProfile, r):
    """Jets of N, A and Rareal at r after :func:`curvature_at`'s domain
    checks: the open interior only, and a composite refused by that name."""
    try:  # a composite has no ensure_evaluable: refused by name, at no cost here
        profile.ensure_evaluable(r, open_interior=True)
    except AttributeError:
        _require_piece(profile, "curvature_at")
        raise
    return profile._read().jets(r)


def _ricci(a: Jet, rj: Jet):
    """Ricci components on the unit normal and a unit sphere tangent, and
    the scalar curvature, from jets of A and Rareal at one radius.

    Returns (r_s, ric_nn, ric_tt, scalar), with r_s = dRareal/ds along
    proper radial distance, which the lapse Hessian also reads.
    """
    rr = rj.v
    r_s = rj.d1 / a.v
    r_ss = _proper_second(rj, a)
    ric_nn = -2.0 * r_ss / rr
    ric_tt = (1.0 - r_s * r_s - rr * r_ss) / (rr * rr)
    # Direct scalar formula; the trace identity scalar = ric_nn + 2 ric_tt is
    # asserted in tests rather than used for assembly.
    rr2 = rr ** 2
    scalar = 2.0 / rr2 - 2.0 * r_s ** 2 / rr2 - 4.0 * r_ss / rr
    return r_s, ric_nn, ric_tt, scalar


def curvature_at(profile: RadialProfile, r) -> CurvatureSample:
    """Closed-form curvature sample at radius r (open interior only).

    ``r`` may also be an array of radii, evaluated in one pass; the
    sample's fields are then float arrays of the same shape.  A radial
    factor A whose square underflows (zero or subnormal), where the
    formulas in 1/A^2 divide by zero or overflow, is refused with a
    :class:`DomainError` naming A; a NaN passes.
    """
    n, a, rj = _jets_at(profile, r)
    _require_normal_square("curvature_at", a.v, r)
    r_s, ric_nn, ric_tt, scalar = _ricci(a, rj)
    # proper-radial derivatives of N
    n_s = n.d1 / a.v
    hess_nn = _proper_second(n, a)
    hess_tt = n_s * r_s / rj.v
    lap_n = radial_laplacian(n, a, rj)
    return _sample(r, n.v, ric_nn, ric_tt, scalar, hess_nn, hess_tt, lap_n)


@dataclass(frozen=True)
class VacuumResidualScan:
    """Static vacuum residuals of :func:`curvature_at` at radii ``r``: in
    ``residuals`` one signed row per name in :data:`VACUUM_FIELDS`, in
    ``sample_max`` the largest magnitude per radius, and in ``worst`` the
    (r, field, |value|) of the first NaN in radius-then-field order, else
    of the first largest magnitude, whose value is the scan's maximum."""

    r: np.ndarray
    residuals: np.ndarray
    sample_max: np.ndarray
    worst: tuple[float, str, float]


def vacuum_residual_scan(profile: RadialProfile, n: int) -> VacuumResidualScan:
    """Residuals at ``n`` evenly spaced radii of the open interior, from
    one array :func:`curvature_at` call: degenerate ends are avoided by
    :meth:`RadialProfile.interior_window` (pad 1e-6), other ends inset by
    1e-9 of the span."""
    _require_piece(profile, "vacuum_residual_scan")
    if n < 1:
        raise DomainError(f"n must be at least 1, got {n}")
    lo, hi = profile.interior_window(pad=1e-6)
    span = hi - lo
    if lo == profile.r_lo:
        lo += 1e-9 * span
    if hi == profile.r_hi:
        hi -= 1e-9 * span
    rs = np.linspace(lo, hi, n)
    sample = curvature_at(profile, rs)
    residuals = np.stack([getattr(sample, f) for f in VACUUM_FIELDS])
    magnitude = np.abs(residuals)
    # argmax returns the first NaN if there is one, else the first maximum;
    # the transpose puts radius before field
    i, k = divmod(int(np.argmax(magnitude.T)), len(VACUUM_FIELDS))
    return VacuumResidualScan(
        r=rs,
        residuals=residuals,
        sample_max=magnitude.max(axis=0),
        worst=(float(rs[i]), VACUUM_FIELDS[k], float(magnitude[k, i])),
    )


# ---------------------------------------------------------------------------
# Finite-difference oracle
# ---------------------------------------------------------------------------


def _nested(x, h):
    """x, x + h, x - h, (x + h) + h, (x + h) - h, (x - h) + h, (x - h) - h,
    stacked on a leading axis.  (x + h) - h is kept apart from x: the two
    may differ in the last bit.  The first three are the Christoffel
    centres along one coordinate, and [1::2] and [2::2] the points a step
    above and below each of them."""
    xp, xm = x + h, x - h
    out = np.empty((7,) + np.shape(xp), dtype=xp.dtype)
    for i, v in enumerate((x, xp, xm, xp + h, xp - h, xm + h, xm - h)):
        out[i] = v
    return out


_EQUATOR = ORACLE_DTYPE(np.pi) / 2.0
# sin(pi/2) in the oracle's precision: the sine of every stencil's centre
# angle, row 0 of the nested angles.  Where it rounds to 1, as x87
# extended and IEEE double both round it, R^2 sin^2 th is R^2 bit for bit.
_SIN_EQUATOR = np.sin(_EQUATOR)


def _stencil_sines(h, out=None):
    """sin of the six nested angles pi/2 +- h and (pi/2 +- h) +- h of every
    step in ``h``, rows 1-6 of :func:`_nested` (row 0, pi/2 itself, is
    :data:`_SIN_EQUATOR`), on a leading axis; into ``out``, if given, a
    (6, h.size) block.

    Samples of one scan mostly share a step, so the sines are taken once
    per run of equal consecutive steps and spread back with the run index
    (a NaN step is a run of its own); each value is the sine of the same
    angle, so the result equals the direct one bit for bit.
    """
    flat = h.ravel()
    start = np.empty(flat.shape, dtype=bool)
    start[:1] = True
    np.not_equal(flat[1:], flat[:-1], out=start[1:])
    sines = np.sin(_nested(_EQUATOR, flat[start])[1:])
    sines = sines.take(np.cumsum(start) - 1, axis=1, out=out, mode="clip")
    return sines.reshape((6,) + h.shape)


# The two coordinates besides e, in order, for e = 0 (r) and e = 1 (th).
_OTHERS = (slice(1, 3), slice(0, 3, 2))


def _christoffel_reading(w_c, d_c, w_e, out):
    """The two Christoffel symbols of a diagonal metric that read
    d_c = d_e g_cc for a c != e: w_c (d_c + 0) and w_e ((0 + 0) - d_c),
    with w_c = g^cc / 2 and w_e = g^ee / 2, on the leading axis of
    ``out`` (for a stack of c, all of the first kind, then the second).
    (d + 0) - 0 is d + 0 bit for bit.  Each sum is formed in ``out`` and
    multiplied there, and w_e row by row: a ufunc that broadcasts, or
    writes through a strided view, buffers its operands.
    """
    half = len(out) // 2
    first, second = out[:half], out[half:]
    np.add(d_c, 0.0, out=first)
    first *= w_c
    np.subtract(0.0, d_c, out=second)
    for i in range(half):
        row = second[i, ...]
        row *= w_e


def _christoffel_along(w, d, e, out):
    """The five Christoffel symbols of a diagonal metric that read its
    derivative along coordinate e (0 for r, 1 for th), written to ``out``.

    ``w`` holds w[a] = g^aa / 2 and ``d`` the derivatives d[a] = d_e g_aa
    at the same points, both on a leading axis a = (r, th, ph).  The rows
    are w[c] (d[c] + 0) for the two c != e in order, w[e] ((0 + 0) - d[a])
    for the two a != e in order (:func:`_christoffel_reading`), and
    w[e] ((d[e] + d[e]) - d[e]) (see :func:`_christoffel`).
    """
    others = _OTHERS[e]
    _christoffel_reading(w[others], d[others], w[e], out[:4])
    last = out[4, ...]
    np.add(d[e], d[e], out=last)
    last -= d[e]
    last *= w[e]


def _christoffel(w, d_r, d_th, w_ph, d_ph, table=None, scratch=None):
    """Christoffel symbols of a radial metric from its derivatives, at the
    oracle's centres.

    ``w`` holds g^aa / 2 and ``d_r`` the derivatives d_r g_aa at K centres
    along r, as [a, k, ...] with a in (r, th, ph); ``d_th`` holds d_th g_aa
    at centre 0 as [a, ...].  The other K - 1 centres along th (at radius
    r) have centre 0's g_rr and g_thth and their derivatives, so only
    g^phph / 2 and d_th g_phph there are passed, in ``w_ph`` and ``d_ph``.

    For any diagonal metric
    gamma[c, a, b] = g^cc (delta_bc d_a g_cc + delta_ac d_b g_cc
    - delta_ab d_c g_aa) / 2, with the inverse taken entrywise, so every
    entry comes from d[e, a] = d_e g_aa (e in r, th: ph has no
    difference) by its index class.  Each class keeps the three-term sum
    of the full tensor contraction, zero terms included: (d + d) - d on
    a = b = c, (d + 0) - 0 on c = b != a and on c = a != b, (0 + 0) - d on
    a = b != c, and (0 + 0) - 0 when all differ or the derivative is along
    ph.  So signed zeros, infinities and NaNs come out as the full
    contraction gives them.

    Returns rows on a leading axis.  Rows 0-2 are the zero classes
    g^cc (0 + 0 - 0) / 2 of c at centre 0, and row 3 + 10 k + 5 e + j is
    row j of :func:`_christoffel_along` along e at centre k.  So rows
    0-12 are the 13 distinct values of the 27 symbols at centre 0:
    gamma[c, a, b] is row ``_GAMMA_ROW[c, a, b]``.  At the centres k > 0
    along th, rows 0, 2 and 4 read only what centre 0's do and are
    copied; rows 1 and 3 read d_th g_phph.  ``table``, if given, receives
    the rows.

    The symbols of all centres along r, and the two of the centres k > 0
    along th, are formed symbol by centre in contiguous rows of
    ``scratch`` (5 K rows shaped like the samples, or a new block) and
    copied to their rows centre by centre.
    """
    k = d_r.shape[1]
    shape = d_th.shape[1:]
    if table is None:
        table = np.empty((3 + 10 * k,) + shape, dtype=d_r.dtype)
    if scratch is None:
        scratch = np.empty((5 * k,) + shape, dtype=d_r.dtype)
    np.multiply(w[:, 0], 0.0, out=table[:3])
    along = table[3:].reshape((k, 2, 5) + shape)
    by_symbol = scratch[:5 * k].reshape((5, k) + shape)
    _christoffel_along(w, d_r, 0, by_symbol)
    along[:, 0] = by_symbol.swapaxes(0, 1)
    _christoffel_along(w[:, 0], d_th, 1, along[0, 1])
    along[1:, 1, ::2] = along[:1, 1, ::2]
    by_symbol = scratch[:2 * (k - 1)].reshape((2, k - 1) + shape)
    _christoffel_reading(w_ph, d_ph, w[1, 0], by_symbol)
    along[1:, 1, 1::2] = by_symbol.swapaxes(0, 1)
    return table


def _gamma_row(c, a, b):
    """Row of :func:`_christoffel`'s result that holds gamma[c, a, b]."""
    def along(e, k):  # row k of _christoffel_along(..., e)
        return 3 + 5 * e + k

    if a == b == c:
        return along(a, 4) if a < 2 else c
    if c == b and a < 2:  # d_a g_cc
        return along(a, range(3)[_OTHERS[a]].index(c))
    if c == a and b < 2:  # d_b g_cc
        return along(b, range(3)[_OTHERS[b]].index(c))
    if a == b and c < 2:  # d_c g_aa
        return along(c, 2 + range(3)[_OTHERS[c]].index(a))
    return c  # no derivative, or one along ph: (0 + 0) - 0


_GAMMA_ROW = np.array(
    [[[_gamma_row(c, a, b) for b in range(3)] for a in range(3)] for c in range(3)]
)

# The quadratic Ricci terms gamma^c_cd gamma^d_aa (k = 0) and
# gamma^c_ad gamma^d_ca (k = 1), in [c, d, k, a] order, as the symbol-table
# rows of their two factors: 54 products of 28 distinct row pairs, the
# order of two factors being immaterial to their product, bit for bit.
_QUAD_ROWS = [
    tuple(sorted(
        (_GAMMA_ROW[c, c, d], _GAMMA_ROW[d, a, a]) if k == 0
        else (_GAMMA_ROW[c, a, d], _GAMMA_ROW[d, c, a])
    ))
    for c, d, k, a in itertools.product(range(3), range(3), range(2), range(3))
]
# At centre 0, the symbols along th that read d_th g_rr or d_th g_thth
# (rows 0, 2 and 4 of _christoffel_along along th), and the two that read
# d_th g_phph (rows 1 and 3).
_TH_FLAT = slice(8, 13, 2)
_TH_PHPH = slice(9, 12, 2)


def _pair_class(pair):
    """0 for a product of zero-class symbols (rows 0-2; a sorted pair that
    reads one reads two), 1 for one that reads a row of :data:`_TH_FLAT`,
    2 for the others."""
    if pair[0] < 3:
        return 0
    return 1 if set(pair) & set(range(13)[_TH_FLAT]) else 2


_PAIRS = sorted(set(_QUAD_ROWS), key=lambda pair: (_pair_class(pair), pair))
_PRODUCT = np.array([_PAIRS.index(p) for p in _QUAD_ROWS]).reshape(3, 3, 2, 3)
_PAIRS = np.array(_PAIRS)


def _products(table, out=None, pairs=_PAIRS, second=None):
    """The 28 distinct products behind the 54 quadratic Ricci terms: the
    term of [c, d, k, a] is row ``_PRODUCT[c, d, k, a]``; given ``pairs``,
    the products of those rows of ``_PAIRS`` only.  The first factors are
    gathered into ``out`` and the second into ``second``, whole rows at a
    time, each a new array where it is not given."""
    out = table.take(pairs[:, 0], axis=0, out=out, mode="clip")
    second = table.take(pairs[:, 1], axis=0, out=second, mode="clip")
    return np.multiply(out, second, out=out)


# Each ric[a] sums, for c in order, +d_c gamma^c_aa, -d_a gamma^c_ca, and
# for d in order +gamma^c_cd gamma^d_aa, -gamma^c_ad gamma^d_ca: eight
# terms per c, as [c, t, a] rows of the oracle's term table.  Its rows are
# the 28 products, the ten symbol differences (row j of
# _christoffel_along along e is difference 5 e + j, that is its symbol
# row less 3) and a zero for the derivatives that no stencil takes (along
# ph, and of gamma^c_c ph), which the sum leaves out.
_ZERO_TERM = len(_PAIRS) + 10
_c, _a = np.indices((3, 3))
_TERMS = np.empty((3, 8, 3), dtype=int)
_TERMS[:, 0] = np.where(_c < 2, len(_PAIRS) - 3 + _GAMMA_ROW[_c, _a, _a], _ZERO_TERM)
_TERMS[:, 1] = np.where(_a < 2, len(_PAIRS) - 3 + _GAMMA_ROW[_c, _c, _a], _ZERO_TERM)
_TERMS[:, 2::2] = _PRODUCT[:, :, 0]
_TERMS[:, 3::2] = _PRODUCT[:, :, 1]
del _c, _a

# _PAIRS runs by class: first the products of two zero-class symbols
# (rows 0-2 of the symbol table, g^cc (0 + 0 - 0) / 2), then those that
# read a row of _TH_FLAT, then the rest.  While the zero-class rows are
# exact zeros (finite g^cc), the 22 Ricci terms that are their products
# and the 6 zero terms are +-0, and adding or subtracting +-0 changes no
# bit of the sum: it starts at +0.0, and in round-to-nearest a sum that is
# not +0.0 keeps its bits (NaN and infinities included) and one that is
# stays +0.0.  So _LIVE_TERMS lists only the other 44, and _ALL_TERMS, for
# a table where a zero-class symbol is NaN or infinite, all but the 6 zero
# terms, as (a, term row, subtract) in the (c, t) order of the full sum.
#
# g_rr and g_thth do not depend on th, so the rows of _TH_FLAT read a
# difference x - x of one metric value, +0 where it is finite, and are +-0
# where g^rr, g^thth and the steps are finite too.  A product that reads
# one of them reads only rows 8-12, so while those three rows are +-0 and
# the two of _TH_PHPH are finite, its 9 products and their 12 terms are
# +-0 as well (0 times an infinity would be NaN), and _LEAN_TERMS leaves
# them out: 32 terms of 13 products.
_ZERO_PAIRS = sum(_pair_class(pair) == 0 for pair in _PAIRS.tolist())
_TH_PAIRS = sum(_pair_class(pair) < 2 for pair in _PAIRS.tolist())


def _term_list(first_row):
    return [
        (a, int(row), t % 2 == 1)
        for c in range(3)
        for t in range(8)
        for a, row in enumerate(_TERMS[c, t])
        if first_row <= row < _ZERO_TERM
    ]


_LEAN_TERMS = _term_list(_TH_PAIRS)
_LIVE_TERMS = _term_list(_ZERO_PAIRS)
_ALL_TERMS = _term_list(0)


# The Ricci sum's work rows: the term table (the 28 products, then the 10
# differences), with the gathered second factors of the products in the
# rows after the products, where the differences and ric go once the
# products are formed.
_SUM_ROWS = 2 * len(_PAIRS)


def _ricci_sum(table, two_h, work=None):
    """The coordinate Ricci diagonal ric[a] from :func:`_christoffel`'s
    symbol table and twice the steps.

    The terms are the products, the derivatives of the symbols (their
    differences between the centres a step above and below) and a zero;
    each ric[a] sums its terms in the order of the index loops over c and
    d.  The sum leaves out the zero terms, and forms and adds only the
    products that are not +-0 on the whole table, with the same bits:
    :data:`_LEAN_TERMS` while the three zero-class symbols and the three
    of :data:`_TH_FLAT` are +-0 and the two of :data:`_TH_PHPH` finite,
    else :data:`_LIVE_TERMS` while the zero-class symbols are +-0, else (an
    infinite or NaN g^cc) :data:`_ALL_TERMS`.  All ten differences are
    formed.  The terms and ric are written to ``work``,
    :data:`_SUM_ROWS` rows shaped like the steps, or to a new block.
    """
    n_products = len(_PAIRS)
    if work is None:
        work = np.empty((_SUM_ROWS,) + two_h.shape, dtype=table.dtype)
    terms = work[:_ZERO_TERM]
    if table[:3].any():  # not all +-0: a NaN is truthy
        first, term_list = 0, _ALL_TERMS
    elif table[_TH_FLAT].any() or not np.isfinite(table[_TH_PHPH]).all():
        first, term_list = _ZERO_PAIRS, _LIVE_TERMS
    else:
        first, term_list = _TH_PAIRS, _LEAN_TERMS
    second = work[n_products:2 * n_products - first]
    _products(table, out=terms[first:n_products], pairs=_PAIRS[first:], second=second)
    div = terms[n_products:]
    np.subtract(table[13:23], table[23:33], out=div)
    div /= two_h
    ric = work[_ZERO_TERM:_ZERO_TERM + 3]
    ric[...] = 0.0
    for a, row, subtract in term_list:
        if subtract:
            ric[a] -= terms[row]
        else:
            ric[a] += terms[row]
    return ric


def _fd_read(profile: RadialProfile, r, h):
    """The oracle's read of one part: after the domain checks, the seven
    nested stencil radii and the steps in :data:`ORACLE_DTYPE`, and A and
    Rareal on the radii in the read's own dtype (a table reads float64)."""
    profile.ensure_evaluable(r, open_interior=True)
    if not np.all((profile.r_lo < r - 2.0 * h) & (r + 2.0 * h < profile.r_hi)):
        raise DomainError("finite-difference stencil leaves the profile domain")
    rl, hl = np.broadcast_arrays(
        np.asarray(r, dtype=ORACLE_DTYPE), np.asarray(h, dtype=ORACLE_DTYPE)
    )
    radii = _nested(rl, hl)
    return (radii, hl, *profile._read().values(radii))


def _layout(start, counts):
    """Views of consecutive workspace rows, ``count`` rows each from row
    ``start`` on, as indices: a count of 1 is that row alone."""
    out = []
    for count in counts:
        out.append((start, ...) if count == 1 else slice(start, start + count))
        start += count
    return tuple(out), start


# The core's workspace, one block per pass: its rows, each shaped like the
# pass's samples, by lifetime.  Kept through the pass: twice the steps,
# g^aa at the centre and the symbol table.  Phase one, dead once the table
# is formed: the steps, g_aa on the seven radii, the six stencil sines,
# g_phph at radius r off the equator, the differences along r, th and ph,
# and the halved inverses.  Phase two, the Ricci sum, reuses its rows.
_KEPT, _PHASE = _layout(0, (1, 3, 33))
_PHASE_ONE, _PHASE_ONE_END = _layout(_PHASE, (1, 21, 6, 6, 9, 3, 2, 9, 2))
_RICCI_SUM = slice(_PHASE, _PHASE + _SUM_ROWS)
_WORK_ROWS = max(_PHASE_ONE_END, _RICCI_SUM.stop)


def _fd_ricci(parts):
    """The oracle's shared core, one pass over the samples of every part
    (profile, r, h): the mixed Ricci components and the scalar curvature
    of the metric values at r, with what the lapse Hessian reads.

    Each part is read on its own (:func:`_fd_read`); its A^2 and
    Rareal^2, squared in the read's dtype, and its steps, widened to
    :data:`ORACLE_DTYPE`, fill its samples of one workspace block of
    :data:`_WORK_ROWS` rows, and every later step runs
    once over all samples, writing into views of the block.  One part of
    one presentation keeps its samples' shape; otherwise they lie flat,
    one part after another, and a part whose read presents several
    geometries on its grid (``presentations``) fills one run of samples
    per geometry.  Each step is elementwise, so every sample has the bits
    of its own call, and the one pass-wide branch, the Ricci sum's term
    list, changes no bit (:func:`_ricci_sum`).  Returns (stencils, mixed,
    ginv, scalar, table): per part its nested radii (one part only; None
    where there are several, whose radii no caller reads), its steps and
    the index of its samples, then ric[a] g^aa, the inverse metric
    diagonal g^aa and the sum 0 + ric[0] g^00 + ... at the centre, and
    the symbol table of :func:`_christoffel`.
    """
    counts = [p._read().presentations for p, _, _ in parts]
    shapes = [np.broadcast(r, h).shape for _, r, h in parts]
    flat = len(parts) > 1 or counts[0] > 1
    shape = (sum(k * math.prod(sh) for k, sh in zip(counts, shapes)),) if flat else shapes[0]
    work = np.empty((_WORK_ROWS,) + shape, dtype=ORACLE_DTYPE)
    two_h, ginv, table = map(work.__getitem__, _KEPT)
    hl, g_rows, sines, ph, d_r, d_th, d_ph, w, w_ph = map(work.__getitem__, _PHASE_ONE)
    g = g_rows.reshape((3, 7) + shape)
    d_r, w = d_r.reshape((3, 3) + shape), w.reshape((3, 3) + shape)

    stencils, start = [], 0
    for profile, r, h in parts:
        radii, steps, a_val, r_val = _fd_read(profile, r, h)
        index = ...
        if flat:
            first, n = start, steps.size
            for a_k, r_k in zip(a_val.reshape(-1, 7, n), r_val.reshape(-1, 7, n)):
                run, start = slice(start, start + n), start + n
                np.multiply(a_k, a_k, out=g[0][:, run])
                np.multiply(r_k, r_k, out=g[1][:, run])
                hl[run] = steps.reshape(n)
            index, radii = slice(first, start), None
        else:
            np.multiply(a_val, a_val, out=g[0])
            np.multiply(r_val, r_val, out=g[1])
            hl[...] = steps
        stencils.append((radii, steps, index))
        del a_val, r_val, radii  # before the next part's read

    # The metric at the seven radii on th = pi/2, at radius r on th +- h,
    # and its g_phph at (th +- h) +- h: only g_phph changes along th.  The
    # Christoffel centres are (r, pi/2), (r +- h, pi/2) and (r, th +- h).
    np.multiply(g[1], _SIN_EQUATOR, out=g[2])
    g[2] *= _SIN_EQUATOR
    _stencil_sines(hl, out=sines.reshape(6, hl.size))
    np.multiply(g[1, 0], sines, out=ph)
    ph *= sines
    np.multiply(2.0, hl, out=two_h)
    for a in range(3):  # per a: numpy's buffers for the 3-d strided operands are 3x larger
        np.subtract(g[a, 1::2], g[a, 2::2], out=d_r[a])
    d_r /= two_h
    np.subtract(g[:2, 0], g[:2, 0], out=d_th[:2])
    np.subtract(ph[0], ph[1], out=d_th[2, ...])
    d_th /= two_h
    np.subtract(ph[2::2], ph[3::2], out=d_ph)
    d_ph /= two_h
    np.divide(1.0, g[:, :3], out=w)
    ginv[...] = w[:, 0]
    w *= 0.5
    np.divide(1.0, ph[:2], out=w_ph)
    w_ph *= 0.5

    _christoffel(w, d_r, d_th, w_ph, d_ph, table, scratch=g_rows)
    mixed = _ricci_sum(table, two_h, work[_RICCI_SUM])
    mixed *= ginv
    return stencils, mixed, ginv, sum(mixed), table


def _fd_scalars(parts):
    """The oracle's scalar curvature on every part (profile, r, h), as
    :func:`fd_curvature_oracle` gives it (same bits), from one pass of
    :func:`_fd_ricci` without reading N: per part a float for a number
    ``r``, a float array for an array, with a leading axis of its read's
    ``presentations`` where there are several."""
    stencils, _, _, scalar, _ = _fd_ricci(parts)
    out = []
    for (profile, r, h), (_, steps, index) in zip(parts, stencils):
        count = profile._read().presentations
        if count > 1:
            out.append(np.array(scalar[index].reshape((count,) + steps.shape), dtype=float))
        elif isinstance(r, np.ndarray):
            out.append(np.array(scalar[index].reshape(steps.shape), dtype=float))
        else:
            out.append(float(scalar[index]))
    return out


def fd_curvature_oracle(profile: RadialProfile, r, h=1e-3) -> CurvatureSample:
    """Curvature sample rebuilt from finite differences of metric values.

    Centered differences everywhere: Christoffel symbols from first
    differences of the metric, their derivatives from differences of
    Christoffel symbols at displaced stencils, the lapse Hessian from
    second differences of N on the central stencil.  Requires a
    finite step h > 0 and [r - 2h, r + 2h] inside the domain.  Truncation
    error is O(h^2); internals run in extended precision so the
    O(eps/h^2) roundoff floor sits well below truncation for h >= 1e-4.

    The 25 stencil points lie on seven distinct radii, r, r +- h and
    (r +- h) +- h, so each sample reads A and Rareal once on those seven
    (through the profile's read, fused where it has one) and N once on the
    central three.  The metric is differenced along r at the centres
    (r, th), (r +- h, th) and along th at (r, th), (r, th +- h); the
    centre forms every Christoffel symbol, each displaced centre along r
    the five its own difference reads and each along th the two that read
    d_th g_phph.  The curvature is :func:`_fd_ricci` on this one part,
    the core the scalar scan also reads; this adds the lapse.

    ``r`` may be an array of radii and ``h`` a matching array of
    per-sample steps (or one step for all).  Every stencil is then one
    array pass over all samples, each sample bit-identical to its own
    scalar call, and the fields of the returned sample are float arrays.
    A run of equal steps shares one set of angle sines, which are the
    same values its samples would each compute.
    """
    _require_piece(profile, "fd_curvature_oracle")
    steps = np.asarray(h)
    if not np.all(np.isfinite(steps) & (steps > 0.0)):
        raise DomainError(
            f"fd_curvature_oracle: the step h must be finite and positive, got {h!r}"
        )
    ((radii, hl, _),), mixed, ginv, scalar, gam = _fd_ricci([(profile, r, h)])

    # Lapse derivatives on the central stencil, whose theta-neighbours sit
    # at radius r (theta-differences vanish by symmetry but are computed,
    # not assumed).
    n0, n_rp, n_rm = profile.N(radii[:3])
    n_tp = n_tm = n0
    dn = ((n_rp - n_rm) / (2.0 * hl), (n_tp - n_tm) / (2.0 * hl), 0.0)
    d2n = (
        (n_rp - 2.0 * n0 + n_rm) / (hl * hl),
        (n_tp - 2.0 * n0 + n_tm) / (hl * hl),
        0.0,
    )
    hess = [
        d2n[a] - sum(gam[_GAMMA_ROW[c, a, a]] * dn[c] for c in range(3))
        for a in range(3)
    ]

    return _sample(
        r,
        n0,
        mixed[0],
        mixed[1],
        scalar,
        hess[0] * ginv[0],
        hess[1] * ginv[1],
        sum(hess[i] * ginv[i] for i in range(3)),
    )
