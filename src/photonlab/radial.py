"""Radial profiles for static, spherically symmetric 3-metrics with lapse.

A profile packages the three functions that determine the geometry in the
radial chart::

    g = A(r)^2 dr^2 + Rareal(r)^2 * (round unit-sphere metric),    lapse N(r)

together with a coordinate domain [r_lo, r_hi].  Every analytic profile
carries two exact derivatives of each function, so downstream curvature
formulas never fall back on finite differencing; the independent
finite-difference oracle in :mod:`photonlab.curvature` only ever consumes
function *values*.

Units are geometric (G = c = 1); masses and radii share one length unit.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

__all__ = [
    "ProfileKind",
    "DomainError",
    "EndpointDegeneracyError",
    "BuchdahlError",
    "Jet",
    "RadialFunction",
    "RadialProfile",
    "CompositeProfile",
    "make_schwarzschild_exterior",
    "make_schwarzschild_family",
    "make_schwarzschild_neck",
    "make_interior_fluid",
    "make_tabulated",
    "make_composite_star",
    "buchdahl_ratio",
    "load_profile",
    "dump_profile",
]


class ProfileKind(str, Enum):
    SCHWARZSCHILD_EXTERIOR = "schwarzschild_exterior"
    SCHWARZSCHILD_NECK = "schwarzschild_neck"
    INTERIOR_FLUID = "interior_fluid"
    TABULATED = "tabulated"
    COMPOSITE_REFERENCE = "composite_reference"


class DomainError(ValueError):
    """Evaluation requested outside a profile's coordinate domain."""


class EndpointDegeneracyError(DomainError):
    """Evaluation requested at a domain endpoint where the chart degenerates."""


class BuchdahlError(ValueError):
    """Compactness 2m/R of a fluid body at or beyond the 8/9 bound."""

    def __init__(self, message: str, ratio: float):
        super().__init__(message)
        self.ratio = ratio


class Jet:
    """A value with its first and second derivative in one variable.

    Arithmetic propagates both derivatives term for term (univariate
    Taylor propagation; Griewank & Walther, *Evaluating Derivatives*, 2nd
    ed., SIAM 2008), so one pass of an expression yields all three orders.
    A number operand is a constant.  The operators are ``+``, ``-``,
    ``*``, ``/`` and unary ``-``, with a jet on either side; there is no
    ``**``.  The seed jet stands for the coordinate itself.
    """

    __slots__ = ("v", "d1", "d2", "seed")
    __array_ufunc__ = None  # numpy operands defer to the jet's own operators

    def __init__(self, v, d1, d2, seed: bool = False):
        self.v, self.d1, self.d2, self.seed = v, d1, d2, seed

    def __add__(self, other):
        if isinstance(other, Jet):
            return Jet(self.v + other.v, self.d1 + other.d1, self.d2 + other.d2)
        return Jet(self.v + other, self.d1, self.d2)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Jet):
            return Jet(self.v - other.v, self.d1 - other.d1, self.d2 - other.d2)
        return Jet(self.v - other, self.d1, self.d2)

    def __rsub__(self, other):
        return Jet(other - self.v, -self.d1, -self.d2)

    def __neg__(self):
        return Jet(-self.v, -self.d1, -self.d2)

    def __mul__(self, other):
        if isinstance(other, Jet):
            u, w = self, other
            return Jet(
                u.v * w.v,
                u.d1 * w.v + u.v * w.d1,
                u.d2 * w.v + 2.0 * u.d1 * w.d1 + u.v * w.d2,
            )
        return Jet(other * self.v, other * self.d1, other * self.d2)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Jet":
        if not isinstance(other, Jet):
            return Jet(self.v / other, self.d1 / other, self.d2 / other)
        u, w = self, other
        return Jet(
            u.v / w.v,
            (u.d1 * w.v - u.v * w.d1) / (w.v * w.v),
            (
                u.d2 * w.v * w.v
                - u.v * w.d2 * w.v
                - 2.0 * u.d1 * w.d1 * w.v
                + 2.0 * u.v * w.d1 * w.d1
            ) / (w.v * w.v * w.v),
        )

    def __rtruediv__(self, other) -> "Jet":
        w = self
        return Jet(
            other / w.v,
            -other * w.d1 / (w.v * w.v),
            other * (2.0 * w.d1 * w.d1 - w.v * w.d2) / (w.v * w.v * w.v),
        )


class RadialFunction:
    """A scalar function of the radial coordinate with two derivatives.

    A *leaf* holds three vectorized callables (value, first and second
    derivative), written by hand.  An *expression*
    (:meth:`RadialFunction.expression`) is a plain ``f(r)`` in arithmetic
    over other radial functions: called on numbers or arrays it computes
    values only, and :meth:`jet` carries all three orders in one pass.  It
    may combine radial functions and numbers with ``+``, ``-``, ``*``,
    ``/`` and unary ``-`` (the :class:`Jet` operators; not ``**``).
    Calling convention follows scipy's spline API:
    ``f(r, nu)`` returns the ``nu``-th derivative; ``f(jet)`` composes by
    the chain rule.
    """

    __slots__ = ("_d",)

    def __init__(self, d0, d1, d2):
        self._d = (d0, d1, d2)

    def __call__(self, r, nu: int = 0):
        if not isinstance(r, Jet):
            return self._d[nu](r)
        f = self.jet(r.v)
        if r.seed:
            # f's own jet: chain-rule products with (1, 0) would turn -0.0
            # into 0.0 and an infinite first derivative into NaN
            return f
        return Jet(f.v, f.d1 * r.d1, f.d2 * r.d1 * r.d1 + f.d1 * r.d2)

    def jet(self, r) -> Jet:
        """Value and both derivatives at r."""
        d0, d1, d2 = self._d
        return Jet(d0(r), d1(r), d2(r))

    # -- constructors -------------------------------------------------

    @staticmethod
    def expression(f) -> "RadialFunction":
        """Radial function of ``f(r)``, an expression over radial functions."""
        return _Expression(f, lambda r: f(Jet(r, 1.0, 0.0, seed=True)))

    @staticmethod
    def constant(c: float) -> "RadialFunction":
        return _Constant(c)

    @staticmethod
    def coordinate() -> "RadialFunction":
        return _Coordinate(_identity, _one, _zero)

def _identity(r):
    return r


def _one(r):
    return r * 0.0 + 1.0


def _zero(r):
    return r * 0.0


class _Constant(RadialFunction):
    """The constant c; r * 0.0 + c preserves shape and floating dtype
    (incl. longdouble).  Its jet takes r * 0.0 once for all three orders."""

    __slots__ = ("c",)

    def __init__(self, c):
        super().__init__(lambda r: r * 0.0 + c, _zero, _zero)
        self.c = c

    def jet(self, r) -> Jet:
        z = r * 0.0
        return Jet(z + self.c, z, z)


class _Coordinate(RadialFunction):
    """The coordinate r.  Its jet runs the leaves' operations without
    calling them and takes r * 0.0 once for both derivatives."""

    __slots__ = ()

    def jet(self, r) -> Jet:
        z = r * 0.0
        return Jet(r, z + 1.0, z)


class _Expression(RadialFunction):
    """Values from ``f`` alone; both derivatives from one call of ``jet``."""

    __slots__ = ("_jet",)

    def __init__(self, f, jet):
        super().__init__(f, lambda r: jet(r).d1, lambda r: jet(r).d2)
        self._jet = jet

    def jet(self, r) -> Jet:
        return self._jet(r)


class _Read:
    """N, A and Rareal of a profile, read together at a radius.

    ``order(r, ch, nu)`` is the nu-th derivative of channel ``ch`` (0 N,
    1 A, 2 Rareal), ``jet(r, ch)`` its jet.  A subclass is a construction's
    read, the only home of its formulas; ``slopes``, ``jets`` and
    ``values`` share its square root, knot search or conformal factor.
    :class:`_Channels` reads hand-assembled and channel-replaced profiles.
    """

    __slots__ = ()
    # geometries ``values`` gives on one grid, on a leading axis where more than one
    presentations = 1

    def jet(self, r, ch) -> Jet:
        return Jet(self.order(r, ch, 0), self.order(r, ch, 1), self.order(r, ch, 2))

    def slopes(self, r):
        """N, N', A, A', Rareal, Rareal': floats at a radius, else arrays."""
        o = self.order
        out = (o(r, 0, 0), o(r, 0, 1), o(r, 1, 0), o(r, 1, 1), o(r, 2, 0), o(r, 2, 1))
        return out if np.ndim(r) else tuple(map(float, out))

    # N, A and Rareal, and their jets, in numpy arithmetic (no float path)
    def channel_values(self, r):
        return self.order(r, 0, 0), self.order(r, 1, 0), self.order(r, 2, 0)

    def channel_jets(self, r) -> tuple[Jet, Jet, Jet]:
        return self.jet(r, 0), self.jet(r, 1), self.jet(r, 2)

    def jets(self, r) -> tuple[Jet, Jet, Jet]:
        return self.channel_jets(r)

    def values(self, r):
        """A and Rareal, the values the finite-difference oracle reads."""
        return self.order(r, 1, 0), self.order(r, 2, 0)

    def nu_N(self, r):
        """Outward-normal derivative of the lapse, N'/A."""
        return self.order(r, 0, 1) / self.order(r, 1, 0)

    def sphere_mean_curvature(self, r):
        """Mean curvature 2 Rareal'/(A Rareal) of the r = const sphere."""
        o = self.order
        return 2.0 * o(r, 2, 1) / (o(r, 1, 0) * o(r, 2, 0))


class _Channels(_Read):
    """The read of three radial functions, each read on its own."""

    __slots__ = ("channels",)

    def __init__(self, N: RadialFunction, A: RadialFunction, Rareal: RadialFunction):
        self.channels = (N, A, Rareal)

    def order(self, r, ch, nu):
        return self.channels[ch](r, nu)

    def jet(self, r, ch) -> Jet:
        return self.channels[ch].jet(r)


class _View(RadialFunction):
    """Channel ``ch`` of a construction's read, ``read.order(r, ch, nu)``
    and ``read.jet(r, ch)``; the read holds no reference back."""

    __slots__ = ("read", "ch")

    def __init__(self, read: _Read, ch: int):
        self.read, self.ch = read, ch

    def __call__(self, r, nu: int = 0):
        if isinstance(r, Jet):
            return super().__call__(r, nu)
        return self.read.order(r, self.ch, nu)

    def jet(self, r) -> Jet:
        return self.read.jet(r, self.ch)


@dataclass(frozen=True)
class RadialProfile:
    """A static spherically symmetric geometry in the radial chart.

    Attributes
    ----------
    kind : ProfileKind
        Construction family; serialization, the choice of conformal
        presentation and a few refusals read it.  Evaluation reads N, A
        and Rareal only.
    r_lo, r_hi : float
        Coordinate domain (closed interval).
    N, A, Rareal : RadialFunction
        Lapse, radial metric factor (g_rr = A^2) and areal radius of the
        coordinate spheres.
    mass : float or None
        Mass parameter of closed-form kinds (the neck stores its own mass
        parameter here).
    degenerate_lo, degenerate_hi : bool
        Marks a domain endpoint where the chart degenerates (horizon at
        A -> infinity, or the center r = 0); direct evaluation there raises
        :class:`EndpointDegeneracyError`.
    meta : dict
        Extra construction data (star radius, density, node arrays, ...).
    fused : _Read or None
        The read of the construction, filled in by each constructor with
        N, A and Rareal as its views (see :func:`_profile`); a profile
        assembled by hand holds None and reads each channel on its own.
    """

    kind: ProfileKind
    r_lo: float
    r_hi: float
    N: RadialFunction
    A: RadialFunction
    Rareal: RadialFunction
    mass: float | None = None
    degenerate_lo: bool = False
    degenerate_hi: bool = False
    meta: dict = field(default_factory=dict)
    fused: _Read | None = field(default=None, repr=False, compare=False)

    # -- domain management --------------------------------------------

    def ensure_evaluable(self, r, *, open_interior: bool = False) -> None:
        """Validate sample points, raising on domain or degeneracy faults.

        A NaN radius fails every comparison and passes.  An array is
        judged by its smallest and largest radius as doubles; ``np.fmin``
        and ``np.fmax`` skip NaN, so a NaN cannot hide a radius outside the
        domain, and an empty or all-NaN array passes.
        """
        if isinstance(r, float):  # one radius: no array, no reductions
            lo = hi = r
        else:
            arr = np.asarray(r, dtype=float)
            lo = np.fmin.reduce(arr, axis=None, initial=math.inf)
            hi = np.fmax.reduce(arr, axis=None, initial=-math.inf)
        r_lo, r_hi = self.r_lo, self.r_hi
        if r_lo < lo and hi < r_hi:  # the open interior
            return
        if lo < r_lo or hi > r_hi:
            raise DomainError(f"radius outside profile domain [{r_lo}, {r_hi}]")
        hit_lo, hit_hi = lo == r_lo, hi == r_hi
        if hit_lo and (self.degenerate_lo or open_interior):
            if self.degenerate_lo:
                raise EndpointDegeneracyError(
                    "chart degenerates at r_lo; only the one-sided limit from "
                    "above is defined"
                )
            raise DomainError("operation requires the open interior; r == r_lo")
        if hit_hi and (self.degenerate_hi or open_interior):
            if self.degenerate_hi:
                raise EndpointDegeneracyError(
                    "chart degenerates at r_hi; only the one-sided limit from "
                    "below is defined"
                )
            raise DomainError("operation requires the open interior; r == r_hi")

    def interior_window(self, pad: float = 0.0) -> tuple[float, float]:
        """Largest closed window avoiding degenerate endpoints by ``pad``."""
        lo, hi = self.r_lo, self.r_hi
        span = hi - lo
        if self.degenerate_lo:
            lo = lo + max(pad, 1e-9) * span
        if self.degenerate_hi:
            hi = hi - max(pad, 1e-9) * span
        return lo, hi

    def restricted(self, r_lo: float, r_hi: float) -> "RadialProfile":
        """Same geometry on a narrower domain; moved endpoints lose
        degeneracy flags."""
        if not (self.r_lo <= r_lo < r_hi <= self.r_hi):
            raise DomainError("restriction must be a subinterval of the domain")
        return replace(
            self,
            r_lo=float(r_lo),
            r_hi=float(r_hi),
            degenerate_lo=self.degenerate_lo and r_lo == self.r_lo,
            degenerate_hi=self.degenerate_hi and r_hi == self.r_hi,
        )

    # -- N, A and Rareal read together ---------------------------------

    def __post_init__(self):
        # the read, resolved once: a frozen profile's channels do not change
        read, channels = self.fused, (self.N, self.A, self.Rareal)
        keys = [(f.read, f.ch) if type(f) is _View else None for f in channels]
        if keys != [(read, 0), (read, 1), (read, 2)]:
            read = _Channels(*channels)
        object.__setattr__(self, "_reader", read)

    def _read(self) -> _Read:
        """The construction's read while N, A and Rareal are its views,
        else a read of each channel on its own."""
        return self._reader

    def nu_N(self, r):
        """Outward-normal derivative of the lapse, N'(r)/A(r), finite at a
        closed-form horizon where N' and A both diverge."""
        return self._read().nu_N(r)

    def sphere_mean_curvature(self, r):
        """Mean curvature 2 Rareal'/(A Rareal) of the r = const sphere; a
        closed-form read gives an exact 0 at a horizon endpoint."""
        return self._read().sphere_mean_curvature(r)


def _profile(read: _Read, **fields) -> RadialProfile:
    """The profile whose N, A and Rareal are views of ``read``, which it
    holds as ``fused``: the one way a construction attaches its read."""
    n, a, rareal = _View(read, 0), _View(read, 1), _View(read, 2)
    return RadialProfile(N=n, A=a, Rareal=rareal, fused=read, **fields)


# ---------------------------------------------------------------------------
# Closed-form constructors
# ---------------------------------------------------------------------------


def _require_finite(**values) -> None:
    """Refuse NaN and infinite construction parameters, naming the first.

    ``None`` stands for an omitted optional parameter and passes.
    """
    for name, value in values.items():
        if value is not None and not math.isfinite(value):
            raise DomainError(f"{name} must be finite, got {value!r}")


# The square root of the smallest normal float: |A| below it is exactly
# an A whose square A*A is zero or subnormal.
_SQRT_SMALLEST_NORMAL = 2.0 ** -511


def _require_normal_square(entry: str, a, r) -> None:
    """Refuse a radial factor A whose square underflows (zero or subnormal),
    naming A, ``entry`` and the first such radius: formulas in 1/A and
    1/A^2 divide by zero or overflow there.  ``a`` is A at ``r``, a number
    or an array; a NaN passes.  The test reads |A|, not A*A, so no finite
    A overflows in it."""
    small = abs(a) < _SQRT_SMALLEST_NORMAL
    if small.any() if type(small) is np.ndarray else small:
        i = int(np.argmax(small)) if np.ndim(small) else 0
        a_i, r_i = np.ravel(a)[i], np.ravel(r)[i]
        raise DomainError(
            f"{entry}: the radial factor A underflows at r = {float(r_i)!r}: "
            f"A = {float(a_i)!r}, and A*A is below the smallest normal float"
        )


# The closed form's formulas: the lapse n = sqrt(1 - 2m/r) and its two
# derivatives from n, and orders 0, 1 and 2 of A = 1/N from N's orders.


def _lapse_squared(m, r):
    return 1.0 - 2.0 * m / r


def _lapse_d1(m, r, n):
    return m / (r * r * n)


# Beyond this radius N'' takes its far form: r ** 4 overflows above about 1.16e77.
_R4_FAR = 1e77


def _lapse_d2(m, r, n):
    if type(r) is float:  # float ** raises where it overflows
        try:
            return -2.0 * m / (r ** 3 * n) - m * m / (r ** 4 * n ** 3)
        except OverflowError:
            return _lapse_d2_far(m, r, n)
    far = r > _R4_FAR
    if not (far.any() if type(far) is np.ndarray else far):
        return -2.0 * m / (r ** 3 * n) - m * m / (r ** 4 * n ** 3)
    if not np.ndim(far):
        return _lapse_d2_far(m, r, n)
    d2 = _lapse_d2(m, np.where(far, 1.0, r), n)
    d2[far] = _lapse_d2_far(m, r[far], n[far])
    return d2


def _lapse_d2_far(m, r, n):
    """:func:`_lapse_d2` beyond :data:`_R4_FAR`, from q = m / r / r, which
    only shrinks there: -2 q / (r n) - q^2 / n^3, the same derivative,
    whose second term underflows to zero."""
    q = m / r / r
    return -2.0 * q / (r * n) - q * q / n ** 3


def _reciprocal(n):
    return 1.0 / n


def _reciprocal_d1(n, dn):
    return -dn / (n * n)


def _reciprocal_d2(n, dn, ddn):
    return -ddn / (n * n) + 2.0 * dn * dn / (n ** 3)


_COORDINATE = RadialFunction.coordinate()
_UNIT = RadialFunction.constant(1.0)


class _Schwarzschild(_Read):
    """Read of the lapse N = n = sqrt(1 - 2m/r), A = 1/N and Rareal = r.

    At a Python-float radius ``slopes`` (on ``float(m)``, whose arithmetic
    equals m's own for int and double masses) and ``jets`` take
    ``math.sqrt``; for other mass or radius types, where float arithmetic
    raises (numpy gives NaN or inf and warns) and for float jets that come
    out NaN or infinite, they read in numpy.  ``nu_N`` and
    ``sphere_mean_curvature`` are closed forms finite at the horizon.
    """

    __slots__ = ("m", "m_float")

    def __init__(self, m):
        self.m = m
        self.m_float = float(m) if isinstance(m, (int, float)) else None

    def _n(self, r):
        return np.sqrt(_lapse_squared(self.m, r))

    def order(self, r, ch, nu):
        if ch == 2:
            return _COORDINATE(r, nu)
        m, n = self.m, self._n(r)
        if ch == 0:
            return n if nu == 0 else (_lapse_d1 if nu == 1 else _lapse_d2)(m, r, n)
        if nu == 0:
            return _reciprocal(n)
        dn = _lapse_d1(m, r, n)
        if nu == 1:
            return _reciprocal_d1(n, dn)
        return _reciprocal_d2(n, dn, _lapse_d2(m, r, n))

    def channel_values(self, r):
        n = self._n(r)
        return n, _reciprocal(n), _COORDINATE(r)

    def channel_jets(self, r) -> tuple[Jet, Jet, Jet]:
        return self._jets_of(r, self._n(r))

    def slopes(self, r):
        m = self.m_float
        if m is not None and type(r) is float:
            try:
                n = math.sqrt(_lapse_squared(m, r))
                dn = _lapse_d1(m, r, n)
                return n, dn, 1.0 / n, _reciprocal_d1(n, dn), r, _one(r)
            except (ValueError, ZeroDivisionError):
                pass
        return super().slopes(r)

    def jets(self, r) -> tuple[Jet, Jet, Jet]:
        if self.m_float is not None and type(r) is float:
            try:
                jets = n, a, _ = self._jets_of(r, math.sqrt(_lapse_squared(self.m, r)))
                if math.isfinite(n.v + n.d1 + n.d2 + a.v + a.d1 + a.d2):
                    return jets
            except (ValueError, ZeroDivisionError, OverflowError):
                pass
        return self.channel_jets(r)

    def nu_N(self, r):
        # N = sqrt(1 - 2m/r), A = 1/N  =>  N'/A = m/r^2 exactly.
        return float(self.m) / (np.asanyarray(r) ** 2 if np.ndim(r) else r * r)

    def sphere_mean_curvature(self, r):
        # Rareal = r, A = 1/N  =>  2 Rareal'/(A Rareal) = 2N/r.
        return 2.0 * self._n(r) / r

    def _jets_of(self, r, n) -> tuple[Jet, Jet, Jet]:
        m = self.m
        dn, ddn = _lapse_d1(m, r, n), _lapse_d2(m, r, n)
        return (
            Jet(n, dn, ddn),
            Jet(_reciprocal(n), _reciprocal_d1(n, dn), _reciprocal_d2(n, dn, ddn)),
            _COORDINATE.jet(r),
        )


def make_schwarzschild_family(
    mass: float, r_lo: float, r_hi: float
) -> RadialProfile:
    """Schwarzschild profile for any mass sign (reference family).

    The domain must avoid the horizon when ``mass > 0`` and must be positive
    in every case.  Negative and zero masses give horizonless profiles used
    as no-photon-sphere controls.
    """
    _require_finite(mass=mass, r_lo=r_lo, r_hi=r_hi)
    if not (r_lo < r_hi):
        raise DomainError("require r_lo < r_hi")
    if r_lo <= 0.0:
        raise DomainError("require r_lo > 0")
    if mass > 0.0 and r_lo <= 2.0 * mass:
        raise DomainError("domain must stay outside the horizon r = 2m")
    return _profile(
        _Schwarzschild(mass),
        kind=ProfileKind.SCHWARZSCHILD_EXTERIOR,
        r_lo=float(r_lo),
        r_hi=float(r_hi),
        mass=float(mass),
    )


def make_schwarzschild_exterior(
    mass: float, r_lo: float, r_hi: float
) -> RadialProfile:
    """Vacuum exterior of positive mass; rejects domains touching r <= 2m."""
    if mass <= 0.0:
        raise DomainError("exterior constructor requires mass > 0")
    return make_schwarzschild_family(mass, r_lo, r_hi)


def make_schwarzschild_neck(mu: float, r_glue: float | None = None) -> RadialProfile:
    """Neck piece of mass parameter mu on [2 mu, r_glue], default r_glue = 3 mu.

    The lapse slot stores the raw collar factor sqrt(1 - 2 mu / r); the
    physical collar scaling is applied by the gluing layer.  The left
    endpoint is the horizon (A diverges there) and is flagged degenerate.
    ``r_glue`` different from 3 mu only occurs in deliberately corrupted
    gluings used as negative controls.
    """
    _require_finite(mu=mu, r_glue=r_glue)
    if mu <= 0.0:
        raise DomainError("neck mass parameter must be positive")
    r_lo = 2.0 * mu
    r_hi = 3.0 * mu if r_glue is None else float(r_glue)
    if not (r_hi > r_lo):
        raise DomainError("neck gluing radius must exceed the horizon radius")
    return _profile(
        _Schwarzschild(mu),
        kind=ProfileKind.SCHWARZSCHILD_NECK,
        r_lo=r_lo,
        r_hi=r_hi,
        mass=float(mu),
        degenerate_lo=True,
        meta={"mu": float(mu)},
    )


def buchdahl_ratio(mass: float, star_radius: float) -> float:
    return 2.0 * mass / star_radius


class _Fluid(_Read):
    """Read of :func:`make_interior_fluid`: N and A from w = sqrt(1 - k
    r^2), k = 2m/R^3, f_b the boundary lapse, one w for all jets; N'/A
    and the sphere's mean curvature in closed form."""

    __slots__ = ("k", "f_b")

    def __init__(self, k, f_b):
        self.k, self.f_b = k, f_b

    def _w(self, r):
        return np.sqrt(1.0 - self.k * r * r)

    def _of_w(self, r, w, ch, nu):
        k = self.k
        if ch == 0:
            if nu == 0:
                return 1.5 * self.f_b - 0.5 * w
            if nu == 1:
                return 0.5 * k * r / w
            return 0.5 * k / w + 0.5 * (k * r) ** 2 / w ** 3
        if nu == 0:
            return 1.0 / w
        if nu == 1:
            return k * r / w ** 3
        return k / w ** 3 + 3.0 * (k * r) ** 2 / w ** 5

    def order(self, r, ch, nu):
        if ch == 2:
            return _COORDINATE(r, nu)
        return self._of_w(r, self._w(r), ch, nu)

    def channel_jets(self, r) -> tuple[Jet, Jet, Jet]:
        w = self._w(r)
        n, a = (Jet(*(self._of_w(r, w, ch, nu) for nu in range(3))) for ch in (0, 1))
        return n, a, _COORDINATE.jet(r)

    def nu_N(self, r):
        # N' = k r / (2 w), A = 1/w  =>  N'/A = k r / 2.
        return 0.5 * self.k * r

    def sphere_mean_curvature(self, r):
        # Rareal = r, A = 1/w  =>  2 Rareal'/(A Rareal) = 2w/r.
        return 2.0 * self._w(r) / r


def make_interior_fluid(mass: float, star_radius: float) -> RadialProfile:
    """Constant-density fluid ball matching an exterior of mass ``mass``.

    Compactness must satisfy 2m/R < 8/9 strictly (central lapse positive);
    otherwise :class:`BuchdahlError` is raised with the offending ratio.
    The slice metric is a round cap, g_rr = 1/(1 - k r^2) with
    k = 2m/R^3, and the lapse interpolates between a positive center value
    and the exterior lapse at the boundary.  Density and central/boundary
    pressure are stored in ``meta`` for source-term verification.
    """
    _require_finite(mass=mass, star_radius=star_radius)
    if mass <= 0.0 or star_radius <= 0.0:
        raise DomainError("mass and star radius must be positive")
    ratio = buchdahl_ratio(mass, star_radius)
    if ratio >= 8.0 / 9.0:
        raise BuchdahlError(
            f"compactness 2m/R = {ratio:.6f} >= 8/9; no static fluid ball exists",
            ratio,
        )
    k = 2.0 * mass / star_radius ** 3
    f_b = np.sqrt(1.0 - ratio)  # boundary lapse value
    read = _Fluid(k, f_b)
    density = 3.0 * mass / (4.0 * np.pi * star_radius ** 3)

    def pressure(r):
        w = read._w(r)
        return density * (w - f_b) / (3.0 * f_b - w)

    return _profile(
        read,
        kind=ProfileKind.INTERIOR_FLUID,
        r_lo=0.0,
        r_hi=float(star_radius),
        mass=float(mass),
        degenerate_lo=True,  # coordinate spheres collapse at the center
        meta={
            "star_radius": float(star_radius),
            "curvature_k": k,
            "density": float(density),
            "pressure": pressure,
            "buchdahl_ratio": ratio,
        },
    )


# ---------------------------------------------------------------------------
# Tabulated profiles
# ---------------------------------------------------------------------------


# Orders 0, 1 and 2 of one cubic piece at offset s = r - x[i], as the
# power-basis sums ``res + c*z*prefactor`` of scipy's ``_ppoly.evaluate``.
# ``c`` holds the piece's four coefficients, highest power first: floats for
# one interval, or arrays gathered at an array of interval indices.


def _cubic_value(c, s):
    z = s * s
    return 0.0 + c[3] + c[2] * s + c[1] * z + c[0] * (z * s)


def _cubic_slope(c, s):
    return 0.0 + c[2] + c[1] * s * 2.0 + c[0] * (s * s) * 3.0


def _cubic_curvature(c, s):
    return 0.0 + c[1] * 2.0 + c[0] * s * 6.0


def _cubic_jet(c, s) -> Jet:
    return Jet(_cubic_value(c, s), _cubic_slope(c, s), _cubic_curvature(c, s))


_CUBIC = (_cubic_value, _cubic_slope, _cubic_curvature)


class _Table(_Read):
    """Read of a table: three cubic splines on shared knots, located once
    per read.

    Each spline is in scipy's ``PPoly`` form: ``c[k, i]`` multiplies
    ``(r - x[i])**(3 - k)`` on [x[i], x[i+1]) (the last interval closed,
    the end cubics extrapolated), coefficients ``CubicSpline(x, y).c`` from
    :func:`_spline_coefficients`, evaluated as ``_ppoly.evaluate`` does, so
    values match ``CubicSpline(x, y)(r, nu)`` bit for bit.  A Python float
    is located by one ``bisect_right`` over the inner knots and reads its
    interval's record: 12 floats, N's, A's and Rareal's coefficients,
    highest power first; there ``slopes`` and ``jets`` write their sums
    out from one s, s^2 and s^3 in the ``_cubic_*`` operation order.
    Anything else is cast to float64, as ``PPoly.__call__`` does, located
    by ``np.searchsorted`` and gathers coefficient columns, silent on
    infinite radii as the compiled evaluator is.
    """

    __slots__ = ("knots", "xs", "inner", "last", "arrays", "records")

    def __init__(self, x: np.ndarray, coefficients):
        self.knots, self.xs, self.last = x, x.tolist(), x.size - 2
        self.inner = self.xs[1:-1]
        self.arrays = tuple(coefficients)
        self.records = list(map(tuple, np.concatenate(self.arrays).T.tolist()))

    def _locate(self, r):
        """Interval index and offset: int and float at a float, else arrays."""
        if type(r) is float:
            i = bisect_right(self.inner, r)
            return i, r - self.xs[i]
        r = np.asarray(r, dtype=np.float64)
        i = np.clip(np.searchsorted(self.knots, r, side="right") - 1, 0, self.last)
        return i, r - self.knots[i]

    def order(self, r, ch, nu):
        i, s = self._locate(r)
        if type(i) is int:
            return _CUBIC[nu](self.records[i][4 * ch:4 * ch + 4], s)
        with np.errstate(all="ignore"):
            return _CUBIC[nu](self.arrays[ch][:, i], s)

    def slopes(self, r):
        if type(r) is not float:
            out = tuple(x for jet in self.jets(r) for x in (jet.v, jet.d1))
            return out if np.ndim(r) else tuple(map(float, out))
        i = bisect_right(self.inner, r)
        s = r - self.xs[i]
        n3, n2, n1, n0, a3, a2, a1, a0, r3, r2, r1, r0 = self.records[i]
        z = s * s
        zs = z * s
        return (
            0.0 + n0 + n1 * s + n2 * z + n3 * zs,
            0.0 + n1 + n2 * s * 2.0 + n3 * z * 3.0,
            0.0 + a0 + a1 * s + a2 * z + a3 * zs,
            0.0 + a1 + a2 * s * 2.0 + a3 * z * 3.0,
            0.0 + r0 + r1 * s + r2 * z + r3 * zs,
            0.0 + r1 + r2 * s * 2.0 + r3 * z * 3.0,
        )

    def jets(self, r) -> tuple[Jet, Jet, Jet]:
        i, s = self._locate(r)
        if type(i) is int:
            c = self.records[i]
            z = s * s
            zs = z * s
            return tuple([  # a list display: a generator costs more per call
                Jet(
                    0.0 + c[k + 3] + c[k + 2] * s + c[k + 1] * z + c[k] * zs,
                    0.0 + c[k + 2] + c[k + 1] * s * 2.0 + c[k] * z * 3.0,
                    0.0 + c[k + 1] * 2.0 + c[k] * s * 6.0,
                )
                for k in (0, 4, 8)
            ])
        with np.errstate(all="ignore"):
            return tuple(_cubic_jet(c[:, i], s) for c in self.arrays)

    channel_jets = jets


def _not_a_knot_system(x, dx, slope):
    """scipy's ``CubicSpline(x, y)`` system for the slopes s at the nodes.

    Returns the sub-, main and super-diagonal as lists of floats and the
    right-hand sides as one list of floats per row of ``slope``, each entry
    formed by the operations scipy uses.  Row i of the interior reads
    ``dx[i] s[i-1] + 2 (dx[i-1] + dx[i]) s[i] + dx[i-1] s[i+1] = 3 (dx[i]
    slope[i-1] + dx[i-1] slope[i])``, with ``slope`` the secant slopes; the
    end rows are de Boor's not-a-knot conditions (*A Practical Guide to
    Splines*, ch. IV): the third derivative is continuous across x[1] and
    x[-2].  The matrix depends on the nodes only.
    """
    d, e = x[2] - x[0], x[-1] - x[-3]
    b = np.empty((len(slope), x.size))
    b[:, 1:-1] = 3 * (dx[1:] * slope[:, :-1] + dx[:-1] * slope[:, 1:])
    b[:, 0] = ((dx[0] + 2 * d) * dx[1] * slope[:, 0] + dx[0] ** 2 * slope[:, 1]) / d
    b[:, -1] = (dx[-1] ** 2 * slope[:, -2] + (2 * e + dx[-1]) * dx[-2] * slope[:, -1]) / e
    return (
        dx[1:].tolist() + [float(e)],
        [float(dx[1])] + (2 * (dx[:-1] + dx[1:])).tolist() + [float(dx[-2])],
        [float(d)] + dx[:-1].tolist(),
        b.tolist(),
    )


def _gtsv(dl, d, du, bs):
    """Solve a tridiagonal system in place for each right-hand side in the
    list ``bs``; return ``bs``, each entry now its solution.

    A line-by-line transcription of reference LAPACK ``dgtsv`` (Anderson et
    al., *LAPACK Users' Guide*, 3rd ed., SIAM 1999), the routine scipy's
    ``solve_banded`` calls for one band on each side: Gaussian elimination
    with partial pivoting, a row interchange whenever ``|d[i]| < |dl[i]|``,
    then back substitution through the second superdiagonal that
    interchanges fill into ``dl``.  The elimination runs once; each
    multiplier and interchange is applied to every right-hand side by the
    operations of a one-column solve, in the same order, so every column is
    scipy's solution bit for bit.  A zero pivot (LAPACK's ``INFO > 0``)
    raises :class:`DomainError`.
    """
    n = len(d)
    for i in range(n - 1):
        if abs(d[i]) >= abs(dl[i]):
            # no row interchange
            if d[i] == 0.0:
                raise DomainError(f"spline system is singular: zero pivot in row {i + 1}")
            fact = dl[i] / d[i]
            d[i + 1] = d[i + 1] - fact * du[i]
            for b in bs:
                b[i + 1] = b[i + 1] - fact * b[i]
            dl[i] = 0.0
        else:
            # interchange rows i and i + 1; only rows above the last fill dl
            fact = d[i] / dl[i]
            d[i] = dl[i]
            temp = d[i + 1]
            d[i + 1] = du[i] - fact * temp
            if i < n - 2:
                dl[i] = du[i + 1]
                du[i + 1] = -fact * dl[i]
            du[i] = temp
            for b in bs:
                b[i], b[i + 1] = b[i + 1], b[i] - fact * b[i + 1]
    if d[n - 1] == 0.0:
        raise DomainError(f"spline system is singular: zero pivot in row {n}")
    for b in bs:
        b[n - 1] = b[n - 1] / d[n - 1]
        b[n - 2] = (b[n - 2] - du[n - 2] * b[n - 1]) / d[n - 2]
        for i in range(n - 3, -1, -1):
            b[i] = (b[i] - du[i] * b[i + 1] - dl[i] * b[i + 2]) / d[i]
    return bs


def _spline_coefficients(x, ys, names) -> np.ndarray:
    """``CubicSpline(x, y).c`` for each row ``y`` of ``ys``: the not-a-knot
    splines through the nodes in scipy's ``PPoly`` form, bit for bit,
    stacked per channel, shape (channels, 4, intervals).

    The slopes at the nodes solve :func:`_not_a_knot_system` by
    :func:`_gtsv`, one elimination for every channel, since the matrix is
    the nodes'; the coefficients follow from them as in
    ``CubicHermiteSpline.__init__``.  Non-finite slopes, which scipy
    refuses, and any other non-finite coefficient raise a
    :class:`DomainError` that names the first such channel of ``names``.
    """
    dx = np.diff(x)
    with np.errstate(all="ignore"):
        slope = np.diff(ys) / dx
        s = np.array(_gtsv(*_not_a_knot_system(x, dx, slope)))
        t = (s[:, :-1] + s[:, 1:] - 2 * slope) / dx
        c = np.stack((t / dx, (slope - s[:, :-1]) / dx - t, s[:, :-1], ys[:, :-1]), axis=1)
    for name, cn in zip(names, c):
        if not np.all(np.isfinite(cn)):
            raise DomainError(f"tabulated channel {name} gives a non-finite spline")
    return c


def make_tabulated(r, N, A, Rareal) -> RadialProfile:
    """Profile interpolated from sampled nodes.

    Each channel becomes a not-a-knot cubic spline: nodes are reproduced
    exactly and the interpolant has continuous second derivatives, which is
    the minimum smoothness the curvature formulas consume.
    :func:`_spline_coefficients` solves the coefficients, bit for bit those
    of scipy's ``CubicSpline(r, values)``, without importing scipy;
    :class:`_Table` evaluates them.  A channel whose spline is not finite
    (a secant slope that overflows, say) is refused with a
    :class:`DomainError` that names it.
    """
    r = np.array(r, dtype=float)  # a copy: the knots keep it
    if r.ndim != 1 or r.size < 4:
        raise DomainError("tabulated profile needs at least 4 nodes")
    if not np.all(np.isfinite(r)):
        raise DomainError("tabulated nodes r must be finite")
    if np.any(np.diff(r) <= 0.0):
        raise DomainError("tabulated nodes must be strictly increasing")
    cols = {}
    for name, vals in (("N", N), ("A", A), ("Rareal", Rareal)):
        v = np.asarray(vals, dtype=float)
        if v.shape != r.shape:
            raise DomainError(f"channel {name} shape does not match node array")
        if not np.all(np.isfinite(v)):
            raise DomainError(f"tabulated channel {name} must be finite")
        cols[name] = v
    if np.any(cols["N"] <= 0.0) or np.any(cols["A"] <= 0.0):
        raise DomainError("tabulated N and A must be positive on all nodes")
    if np.any(cols["Rareal"] <= 0.0):
        raise DomainError("tabulated areal radius must be positive")
    coefficients = _spline_coefficients(r, np.stack(list(cols.values())), list(cols))
    return _profile(
        _Table(r, coefficients),
        kind=ProfileKind.TABULATED,
        r_lo=float(r[0]),
        r_hi=float(r[-1]),
        meta={
            "nodes": r.copy(),
            "values": {k: v.copy() for k, v in cols.items()},
        },
    )


# ---------------------------------------------------------------------------
# Composite (piecewise) profiles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CompositeProfile:
    """Piecewise radial geometry: contiguous profiles sharing breakpoints.

    Evaluation dispatches on the region containing r; breakpoints belong to
    the left piece (their right limits are reachable through the pieces
    directly).  Used for matter interiors matched to vacuum exteriors.
    """

    pieces: tuple[RadialProfile, ...]
    breakpoints: tuple[float, ...]

    def __post_init__(self):
        if len(self.pieces) < 2 or len(self.breakpoints) != len(self.pieces) - 1:
            raise DomainError("need n pieces and n-1 interior breakpoints")
        for left, right, b in zip(
            self.pieces[:-1], self.pieces[1:], self.breakpoints
        ):
            if not left.r_hi == b == right.r_lo:
                raise DomainError("pieces must abut exactly at each breakpoint")

    @property
    def r_lo(self) -> float:
        return self.pieces[0].r_lo

    @property
    def r_hi(self) -> float:
        return self.pieces[-1].r_hi

    def piece_at(self, r: float) -> RadialProfile:
        if not (self.r_lo <= r <= self.r_hi):
            raise DomainError("radius outside composite domain")
        for piece, b in zip(self.pieces[:-1], self.breakpoints):
            if r <= b:
                return piece
        return self.pieces[-1]

    def vacuum_piece(self) -> RadialProfile:
        return self.pieces[-1]


def _require_piece(profile, entry: str) -> None:
    """Refuse a :class:`CompositeProfile` at an entry point that evaluates
    one radial profile, naming the entry point."""
    if isinstance(profile, CompositeProfile):
        raise DomainError(
            f"{entry} takes one RadialProfile, not a CompositeProfile; "
            "pass one of its pieces (.pieces, or .piece_at(r))"
        ) from None


def make_composite_star(
    mass: float, star_radius: float, r_hi: float | None = None
) -> CompositeProfile:
    """Constant-density ball matched to its vacuum exterior at the surface.

    Raises :class:`BuchdahlError` when the body is too compact to be static.
    The matching is continuous in N and A by construction; the radial
    derivative of A jumps at the surface together with the density.
    """
    interior = make_interior_fluid(mass, star_radius)
    if r_hi is None:
        r_hi = 100.0 * mass
    exterior = make_schwarzschild_exterior(mass, star_radius, r_hi)
    return CompositeProfile(
        pieces=(interior, exterior), breakpoints=(float(star_radius),)
    )


# ---------------------------------------------------------------------------
# Profile (de)serialization — JSON document with a "kind" discriminator
# ---------------------------------------------------------------------------


def load_profile(source) -> RadialProfile:
    """Build a profile from a JSON document (path, file object, or dict).

    Supported kinds::

        {"kind": "schwarzschild", "mass": 1.0, "r_lo": 3.0, "r_hi": 100.0}
        {"kind": "tabulated", "r": [...], "N": [...], "A": [...], "Rareal": [...]}
    """
    try:
        if isinstance(source, dict):
            doc = source
        elif hasattr(source, "read"):
            doc = json.load(source)
        else:
            with open(source, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
    except ValueError as exc:  # a JSON decode error, or bytes that are not UTF-8
        raise DomainError(f"profile document is not valid JSON: {exc}") from None
    if not isinstance(doc, dict) or "kind" not in doc:
        raise DomainError("profile document must be an object with a 'kind' key")
    kind = doc["kind"]
    if kind == "schwarzschild":
        keys = ("mass", "r_lo", "r_hi")
        return make_schwarzschild_family(*_numbers(doc, kind, keys, float))
    if kind == "tabulated":
        keys = ("r", "N", "A", "Rareal")
        return make_tabulated(*_numbers(doc, kind, keys, lambda v: np.asarray(v, float)))
    raise DomainError(f"unsupported profile kind {kind!r}")


def _numbers(doc: dict, kind: str, keys, convert) -> list:
    """The document's values at ``keys`` through ``convert``; a missing or
    non-numeric one, or a boolean (which ``float`` reads as 0 or 1), is
    refused with a :class:`DomainError` naming the kind and the key."""
    out = []
    for key in keys:
        if key not in doc:
            raise DomainError(f"{kind} profile missing key {key!r}")
        if _is_boolean(doc[key]):
            raise DomainError(f"{kind} profile key {key!r} is a boolean, not a number")
        try:
            out.append(convert(doc[key]))
        except (TypeError, ValueError, OverflowError) as exc:
            raise DomainError(
                f"{kind} profile key {key!r} is not numeric: {exc}"
            ) from None
    return out


def _is_boolean(value) -> bool:
    """Whether a document value is a boolean, a boolean array or a list
    holding one."""
    if isinstance(value, (list, tuple)):
        return any(map(_is_boolean, value))
    return isinstance(value, bool) or getattr(value, "dtype", None) == bool


def dump_profile(profile: RadialProfile) -> dict:
    """Serialize a profile to the JSON document format of :func:`load_profile`."""
    _require_piece(profile, "dump_profile")
    if profile.kind is ProfileKind.SCHWARZSCHILD_EXTERIOR:
        return {
            "kind": "schwarzschild",
            "mass": profile.mass,
            "r_lo": profile.r_lo,
            "r_hi": profile.r_hi,
        }
    if profile.kind is ProfileKind.TABULATED:
        vals = profile.meta["values"]
        return {
            "kind": "tabulated",
            "r": profile.meta["nodes"].tolist(),
            "N": vals["N"].tolist(),
            "A": vals["A"].tolist(),
            "Rareal": vals["Rareal"].tolist(),
        }
    raise DomainError(f"no document form for profile kind {profile.kind.value}")
