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
    """Evaluation requested at a domain endpoint where the chart degenerates.

    Quantities may still admit one-sided limits; ``side`` records which
    endpoint was hit so callers can substitute the limit where one exists.
    """

    def __init__(self, message: str, r: float, side: str):
        super().__init__(message)
        self.r = r
        self.side = side  # "lo" or "hi"


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
        # r * 0.0 + c preserves shape and floating dtype (incl. longdouble)
        return RadialFunction(
            lambda r: r * 0.0 + c,
            lambda r: r * 0.0,
            lambda r: r * 0.0,
        )

    @staticmethod
    def coordinate() -> "RadialFunction":
        return RadialFunction(_identity, _one, _zero)

    def compose_inverse(self) -> "RadialFunction":
        """Pull back along the coordinate inversion x -> 1/x.

        Returns g with g(x) = f(1/x), g' = -f'(1/x)/x^2 and
        g'' = f''(1/x)/x^4 + 2 f'(1/x)/x^3, from one jet of f at 1/x.
        Used to study asymptotic ends near x = 0.
        """
        f = self
        return _Expression(
            lambda x: f(1.0 / x), lambda x: _pulled_back(f.jet(1.0 / x), x)
        )


def _pulled_back(j: Jet, x) -> Jet:
    """Jet at x of g(x) = f(1/x), from f's jet ``j`` at 1/x."""
    return Jet(j.v, -j.d1 / (x * x), j.d2 / (x ** 4) + 2.0 * j.d1 / (x ** 3))


def _identity(r):
    return r


def _one(r):
    return r * 0.0 + 1.0


def _zero(r):
    return r * 0.0


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

    This class reads each channel on its own.  A subclass is the *fused
    read* of one construction: the profile it builds holds it, and it
    reads all three channels once per radius (one square root, one knot
    search, one conformal factor) or takes a closed form where it can,
    and reads through this class elsewhere.  Every read of
    ``slopes``, ``jets`` and ``values`` runs the operations of the
    per-channel reads in the same order, so they return the same bits;
    where a fused read answers on Python floats, its jets have float parts
    where the per-channel jets have numpy scalars.
    """

    __slots__ = ("N", "A", "Rareal")

    def __init__(self, N: RadialFunction, A: RadialFunction, Rareal: RadialFunction):
        self.N, self.A, self.Rareal = N, A, Rareal

    def slopes(self, r) -> tuple[float, float, float, float, float, float]:
        """N, N', A, A', Rareal and Rareal' at one radius, as floats."""
        n, a, rr = self.N, self.A, self.Rareal
        return (
            float(n(r)), float(n(r, 1)),
            float(a(r)), float(a(r, 1)),
            float(rr(r)), float(rr(r, 1)),
        )

    def jets(self, r) -> tuple[Jet, Jet, Jet]:
        """Jets of N, A and Rareal at a number or an array."""
        return self.N.jet(r), self.A.jet(r), self.Rareal.jet(r)

    def values(self, r):
        """A and Rareal at a number or an array: the values the
        finite-difference oracle differences."""
        return self.A(r), self.Rareal(r)

    def nu_N(self, r):
        """Outward-normal derivative of the lapse, N'/A."""
        return self.N(r, 1) / self.A(r)

    def sphere_mean_curvature(self, r):
        """Mean curvature 2 Rareal'/(A Rareal) of the r = const sphere."""
        return 2.0 * self.Rareal(r, 1) / (self.A(r) * self.Rareal(r))


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
        The fused read of the construction, filled in by each constructor
        (see :func:`_profile`); a profile assembled by hand holds None and
        reads each channel on its own.
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

        A NaN radius fails every comparison and passes.
        """
        if isinstance(r, float):  # one radius: no array, no reductions
            outside = r < self.r_lo or r > self.r_hi
            hit_lo, hit_hi = r == self.r_lo, r == self.r_hi
        else:
            arr = np.atleast_1d(np.asarray(r, dtype=float))
            outside = np.any(arr < self.r_lo) or np.any(arr > self.r_hi)
            hit_lo, hit_hi = np.any(arr == self.r_lo), np.any(arr == self.r_hi)
        if outside:
            raise DomainError(
                f"radius outside profile domain [{self.r_lo}, {self.r_hi}]"
            )
        if hit_lo and (self.degenerate_lo or open_interior):
            if self.degenerate_lo:
                raise EndpointDegeneracyError(
                    "chart degenerates at r_lo; only the one-sided limit from "
                    "above is defined",
                    self.r_lo,
                    "lo",
                )
            raise DomainError("operation requires the open interior; r == r_lo")
        if hit_hi and (self.degenerate_hi or open_interior):
            if self.degenerate_hi:
                raise EndpointDegeneracyError(
                    "chart degenerates at r_hi; only the one-sided limit from "
                    "below is defined",
                    self.r_hi,
                    "hi",
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

    def _read(self) -> _Read:
        """The fused read built with this profile's N, A and Rareal, or,
        once any of them was replaced, a read of each channel on its own."""
        read = self.fused
        if read is not None and read.N is self.N and read.A is self.A:
            if read.Rareal is self.Rareal:
                return read
        return _Read(self.N, self.A, self.Rareal)

    def nu_N(self, r):
        """Outward-normal derivative of the lapse, N'(r)/A(r).

        A closed-form read gives it in a fused form where the raw quotient
        is indeterminate (neck horizon: N' and A both diverge while the
        ratio stays finite).
        """
        return self._read().nu_N(r)

    def sphere_mean_curvature(self, r):
        """Mean curvature 2 Rareal'/(A Rareal) of the r = const sphere.

        A closed-form read gives it in a fused form, so horizon endpoints
        give an exact 0 instead of a division by an infinite radial factor.
        """
        return self._read().sphere_mean_curvature(r)


def _profile(read: _Read, **fields) -> RadialProfile:
    """The profile of ``read``'s N, A and Rareal, holding ``read`` as its
    fused read: the one way a construction attaches its read."""
    return RadialProfile(N=read.N, A=read.A, Rareal=read.Rareal, fused=read, **fields)


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


def _lapse_squared(m, r):
    return 1.0 - 2.0 * m / r


def _lapse_d1(m, r, n):
    return m / (r * r * n)


def _lapse_d2(m, r, n):
    return -2.0 * m / (r ** 3 * n) - m * m / (r ** 4 * n ** 3)


def _reciprocal_d1(n, dn):
    """First derivative of A = 1/N."""
    return -dn / (n * n)


def _reciprocal_d2(n, dn, ddn):
    return -ddn / (n * n) + 2.0 * dn * dn / (n ** 3)


class _Schwarzschild(_Read):
    """Fused read of :func:`_schwarzschild_functions`: one n per radius.

    On a Python-float radius ``slopes`` and ``jets`` take ``math.sqrt``,
    where the per-channel leaves take ``np.sqrt``: ``slopes`` runs on
    ``float(m)``, whose arithmetic equals m's own for int and double
    masses, and ``jets`` on m itself.  For any other mass or radius type,
    and wherever float arithmetic raises (a negative root, a zero
    denominator, an overflowing power, where numpy gives NaN or inf with a
    warning), ``slopes`` reads per channel and ``jets`` takes one
    ``np.sqrt``; so do float jets that come out NaN or infinite, so that
    numpy warns where the leaves warn.  ``nu_N`` and
    ``sphere_mean_curvature`` are closed forms that stay finite at the
    horizon.
    """

    __slots__ = ("m", "m_float")

    def __init__(self, N, A, Rareal, m):
        super().__init__(N, A, Rareal)
        self.m = m
        self.m_float = float(m) if isinstance(m, (int, float)) else None

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
        m = self.m
        if self.m_float is not None and type(r) is float:
            try:
                jets = self._jets_of(m, r, math.sqrt(_lapse_squared(m, r)))
            except (ValueError, ZeroDivisionError, OverflowError):
                pass
            else:
                n, a, _ = jets
                if math.isfinite(n.v + n.d1 + n.d2 + a.v + a.d1 + a.d2):
                    return jets
        return self._jets_of(m, r, self.N(r))

    def nu_N(self, r):
        # N = sqrt(1 - 2m/r), A = 1/N  =>  N'/A = m/r^2 exactly.
        return float(self.m) / (np.asanyarray(r) ** 2 if np.ndim(r) else r * r)

    def sphere_mean_curvature(self, r):
        # Rareal = r, A = 1/N  =>  2 Rareal'/(A Rareal) = 2N/r.
        return 2.0 * self.N(r) / r

    def _jets_of(self, m, r, n) -> tuple[Jet, Jet, Jet]:
        dn, ddn = _lapse_d1(m, r, n), _lapse_d2(m, r, n)
        return (
            Jet(n, dn, ddn),
            Jet(1.0 / n, _reciprocal_d1(n, dn), _reciprocal_d2(n, dn, ddn)),
            self.Rareal.jet(r),
        )


def _schwarzschild_functions(m) -> _Schwarzschild:
    """Fused read of the lapse, radial factor A = 1/N and areal radius r of
    mass parameter m.

    Every channel derives from n = sqrt(1 - 2m/r); each leaf takes its own
    n, and the fused read one n per radius.
    """

    def n0(r):
        return np.sqrt(_lapse_squared(m, r))

    def a1(r):
        n = n0(r)
        return _reciprocal_d1(n, _lapse_d1(m, r, n))

    def a2(r):
        n = n0(r)
        dn = _lapse_d1(m, r, n)
        return _reciprocal_d2(n, dn, _lapse_d2(m, r, n))

    lapse = RadialFunction(
        n0, lambda r: _lapse_d1(m, r, n0(r)), lambda r: _lapse_d2(m, r, n0(r))
    )
    radial = RadialFunction(lambda r: 1.0 / n0(r), a1, a2)
    return _Schwarzschild(lapse, radial, RadialFunction.coordinate(), m)


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
        _schwarzschild_functions(mass),
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
        _schwarzschild_functions(mu),
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
    """Read of :func:`make_interior_fluid`: each channel on its own, and
    N'/A and the sphere's mean curvature in closed form from k = 2m/R^3."""

    __slots__ = ("k",)

    def __init__(self, N, A, Rareal, k):
        super().__init__(N, A, Rareal)
        self.k = k

    def nu_N(self, r):
        # N' = k r / (2 w), A = 1/w  =>  N'/A = k r / 2.
        return 0.5 * self.k * r

    def sphere_mean_curvature(self, r):
        # Rareal = r, A = 1/w  =>  2 Rareal'/(A Rareal) = 2w/r.
        return 2.0 * np.sqrt(1.0 - self.k * r * r) / r


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

    def w0(r):
        return np.sqrt(1.0 - k * r * r)

    def n0(r):
        return 1.5 * f_b - 0.5 * w0(r)

    def n1(r):
        return 0.5 * k * r / w0(r)

    def n2(r):
        w = w0(r)
        return 0.5 * k / w + 0.5 * (k * r) ** 2 / w ** 3

    def a0(r):
        return 1.0 / w0(r)

    def a1(r):
        return k * r / w0(r) ** 3

    def a2(r):
        w = w0(r)
        return k / w ** 3 + 3.0 * (k * r) ** 2 / w ** 5

    density = 3.0 * mass / (4.0 * np.pi * star_radius ** 3)

    def pressure(r):
        w = w0(r)
        return density * (w - f_b) / (3.0 * f_b - w)

    read = _Fluid(
        RadialFunction(n0, n1, n2),
        RadialFunction(a0, a1, a2),
        RadialFunction.coordinate(),
        k,
    )
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


class _Knots:
    """Nodes shared by a table's three splines, and their coefficients.

    Each spline is a cubic in scipy's ``PPoly`` form: ``c[k, i]``
    multiplies ``(r - x[i])**(3 - k)`` on the half-open interval [x[i],
    x[i+1]); the last interval is closed, and radii outside [x[0], x[-1]]
    extrapolate the end cubics.  The coefficients come from
    :func:`_spline_coefficients`, equal to ``CubicSpline(x, y).c``, and
    evaluation follows ``_ppoly.evaluate``, so values match
    ``CubicSpline(x, y)(r, nu)`` bit for bit.  Every term but
    the first carries a power of s = r - x[i], so a NaN radius gives NaN
    without a test of its own.  Python floats are located by ``bisect``
    and read one record per interval, the coefficients of all three
    splines as floats; anything else is cast to a float64 array first, as
    ``PPoly.__call__`` does (the oracle passes longdouble), located by
    ``np.searchsorted`` and read by gathering coefficient columns.
    """

    __slots__ = ("x", "xs", "last", "arrays", "records")

    def __init__(self, x: np.ndarray, coefficients):
        self.x, self.xs, self.last = x, x.tolist(), x.size - 2
        self.arrays = tuple(coefficients)
        self.records = list(zip(*(c.T.tolist() for c in self.arrays)))

    def locate(self, r):
        """Interval index and offset: an int and a float for a Python
        float, else arrays."""
        if type(r) is float:
            i = bisect_right(self.xs, r) - 1
            if i < 0:
                i = 0
            elif i > self.last:
                i = self.last
            return i, r - self.xs[i]
        r = np.asarray(r, dtype=np.float64)
        i = np.clip(np.searchsorted(self.x, r, side="right") - 1, 0, self.last)
        return i, r - self.x[i]

    def channel(self, k: int) -> RadialFunction:
        locate, records, c = self.locate, self.records, self.arrays[k]

        def order(f):
            def at(r):
                i, s = locate(r)
                if type(i) is int:
                    return f(records[i][k], s)
                # silent on infinite radii, as the compiled evaluator is
                with np.errstate(all="ignore"):
                    return f(c[:, i], s)
            return at

        return RadialFunction(
            order(_cubic_value), order(_cubic_slope), order(_cubic_curvature)
        )


class _Table(_Read):
    """N, A and Rareal of a table, located once per radius for all three.

    ``slopes`` reads one coefficient record at a Python-float radius and
    each channel on its own at any other radius type.
    """

    __slots__ = ("knots",)

    def __init__(self, knots: _Knots):
        super().__init__(*(knots.channel(k) for k in range(3)))
        self.knots = knots

    def slopes(self, r):
        if type(r) is not float:
            return super().slopes(r)
        knots = self.knots
        i, s = knots.locate(r)
        n, a, rr = knots.records[i]
        return (
            _cubic_value(n, s), _cubic_slope(n, s),
            _cubic_value(a, s), _cubic_slope(a, s),
            _cubic_value(rr, s), _cubic_slope(rr, s),
        )

    def jets(self, r) -> tuple[Jet, Jet, Jet]:
        knots = self.knots
        i, s = knots.locate(r)
        if type(i) is int:
            return tuple(_cubic_jet(c, s) for c in knots.records[i])
        with np.errstate(all="ignore"):
            return tuple(_cubic_jet(c[:, i], s) for c in knots.arrays)


def _not_a_knot_system(x, dx, slope):
    """scipy's ``CubicSpline(x, y)`` system for the slopes s at the nodes.

    Returns the sub-, main and super-diagonal and the right-hand side as
    lists of floats, each entry formed by the operations scipy uses.  Row i
    of the interior reads ``dx[i] s[i-1] + 2 (dx[i-1] + dx[i]) s[i] +
    dx[i-1] s[i+1] = 3 (dx[i] slope[i-1] + dx[i-1] slope[i])``, with
    ``slope`` the secant slopes; the end rows are de Boor's not-a-knot
    conditions (*A Practical Guide to Splines*, ch. IV): the third
    derivative is continuous across x[1] and x[-2].
    """
    d, e = x[2] - x[0], x[-1] - x[-3]
    b = np.empty_like(x)
    b[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
    b[0] = ((dx[0] + 2 * d) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / d
    b[-1] = (dx[-1] ** 2 * slope[-2] + (2 * e + dx[-1]) * dx[-2] * slope[-1]) / e
    return (
        dx[1:].tolist() + [float(e)],
        [float(dx[1])] + (2 * (dx[:-1] + dx[1:])).tolist() + [float(dx[-2])],
        [float(d)] + dx[:-1].tolist(),
        b.tolist(),
    )


def _gtsv(dl, d, du, b):
    """Solve a tridiagonal system in place; return the solution ``b``.

    A line-by-line transcription of reference LAPACK ``dgtsv`` with one
    right-hand side (Anderson et al., *LAPACK Users' Guide*, 3rd ed., SIAM
    1999), the routine scipy's ``solve_banded`` calls for one band on each
    side: Gaussian elimination with partial pivoting, a row interchange
    whenever ``|d[i]| < |dl[i]|``, then back substitution through the
    second superdiagonal that interchanges fill into ``dl``.  Same
    operations in the same order, so it returns scipy's solution bit for
    bit.  A zero pivot (LAPACK's ``INFO > 0``) raises :class:`DomainError`.
    """
    n = len(d)
    for i in range(n - 1):
        if abs(d[i]) >= abs(dl[i]):
            # no row interchange
            if d[i] == 0.0:
                raise DomainError(f"spline system is singular: zero pivot in row {i + 1}")
            fact = dl[i] / d[i]
            d[i + 1] = d[i + 1] - fact * du[i]
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
            temp = b[i]
            b[i] = b[i + 1]
            b[i + 1] = temp - fact * b[i + 1]
    if d[n - 1] == 0.0:
        raise DomainError(f"spline system is singular: zero pivot in row {n}")
    b[n - 1] = b[n - 1] / d[n - 1]
    b[n - 2] = (b[n - 2] - du[n - 2] * b[n - 1]) / d[n - 2]
    for i in range(n - 3, -1, -1):
        b[i] = (b[i] - du[i] * b[i + 1] - dl[i] * b[i + 2]) / d[i]
    return b


def _spline_coefficients(x, y, name: str) -> np.ndarray:
    """``CubicSpline(x, y).c``: the not-a-knot spline through the nodes in
    scipy's ``PPoly`` form, bit for bit.

    The slopes at the nodes solve :func:`_not_a_knot_system` by
    :func:`_gtsv`; the coefficients follow from them as in
    ``CubicHermiteSpline.__init__``.  Non-finite slopes, which scipy
    refuses, and any other non-finite coefficient raise a
    :class:`DomainError` that names the channel.
    """
    dx = np.diff(x)
    with np.errstate(all="ignore"):
        slope = np.diff(y) / dx
        s = np.array(_gtsv(*_not_a_knot_system(x, dx, slope)))
        t = (s[:-1] + s[1:] - 2 * slope) / dx
        c = np.stack((t / dx, (slope - s[:-1]) / dx - t, s[:-1], y[:-1]))
    if not np.all(np.isfinite(c)):
        raise DomainError(f"tabulated channel {name} gives a non-finite spline")
    return c


def make_tabulated(r, N, A, Rareal) -> RadialProfile:
    """Profile interpolated from sampled nodes.

    Each channel becomes a not-a-knot cubic spline: nodes are reproduced
    exactly and the interpolant has continuous second derivatives, which is
    the minimum smoothness the curvature formulas consume.
    :func:`_spline_coefficients` solves the coefficients, bit for bit those
    of scipy's ``CubicSpline(r, values)``, without importing scipy;
    :class:`_Knots` evaluates them.  A channel whose spline is not finite
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
    return _profile(
        _Table(_Knots(r, [_spline_coefficients(r, v, k) for k, v in cols.items()])),
        kind=ProfileKind.TABULATED,
        r_lo=float(r[0]),
        r_hi=float(r[-1]),
        meta={
            "nodes": r.copy(),
            "values": {k: v.copy() for k, v in cols.items()},
        },
    )


def interpolation_error_bound(profile: RadialProfile) -> dict:
    """Crude per-channel error model for a tabulated profile.

    Estimates the fourth derivative of each channel from jumps of the
    spline's third derivative across interior nodes, then applies the
    classical cubic-interpolation bounds ~ h^4 |f''''|/384 for values and
    ~ h^2 |f''''|/12 for second derivatives (a safety factor of 8 absorbs
    constants the model drops).  Only meaningful for TABULATED profiles.
    """
    if profile.kind is not ProfileKind.TABULATED:
        raise DomainError("interpolation error model applies to tabulated profiles")
    nodes = profile.meta["nodes"]
    h = float(np.max(np.diff(nodes)))
    out = {}
    for name, fn in (("N", profile.N), ("A", profile.A), ("Rareal", profile.Rareal)):
        mids = nodes[1:-1]
        eps = 1e-7 * max(h, 1.0)
        jump3 = np.abs(
            np.asarray(fn(mids + eps, 2) - fn(mids - eps, 2)) / (2.0 * eps)
        )
        f4 = float(np.max(jump3)) / h if mids.size else 0.0
        out[name] = {
            "value": 8.0 * f4 * h ** 4 / 384.0,
            "d1": 8.0 * f4 * h ** 3 / 24.0,
            "d2": 8.0 * f4 * h ** 2 / 12.0,
        }
    out["spacing"] = h
    return out


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
    if isinstance(source, dict):
        doc = source
    elif hasattr(source, "read"):
        doc = json.load(source)
    else:
        with open(source, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    if not isinstance(doc, dict) or "kind" not in doc:
        raise DomainError("profile document must be an object with a 'kind' key")
    kind = doc["kind"]
    if kind == "schwarzschild":
        try:
            return make_schwarzschild_family(
                float(doc["mass"]), float(doc["r_lo"]), float(doc["r_hi"])
            )
        except KeyError as exc:
            raise DomainError(f"schwarzschild profile missing key {exc}") from exc
    if kind == "tabulated":
        try:
            return make_tabulated(doc["r"], doc["N"], doc["A"], doc["Rareal"])
        except KeyError as exc:
            raise DomainError(f"tabulated profile missing key {exc}") from exc
    raise DomainError(f"unsupported profile kind {kind!r}")


def dump_profile(profile: RadialProfile) -> dict:
    """Serialize a profile to the JSON document format of :func:`load_profile`."""
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
