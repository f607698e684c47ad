"""The float Dormand-Prince stepper against the array stepper it replaced.

``_reference_integrate`` is the stepper as it ran before the per-step
arithmetic moved to Python floats: stages built by ``_combine`` from the
nonzero tableau entries, the right-hand side and observables on whatever
scalars the profile returns (numpy scalars for the Schwarzschild leaves),
and the error norm as numpy calls on 6-element arrays.  Both steppers run
on the same launches and must agree bit for bit: equal ``repr`` of the
states, the termination, the constraint maximum and both drifts.  The
evaluation and rejection counts are checked against counters added to the
reference, which change none of its steps.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photonlab import geodesics
from photonlab.geodesics import (
    _DP_A,
    _DP_B4,
    _INNER_MARGIN,
    GeodesicResult,
    NullGeodesicState,
    integrate_null_geodesic,
    tangential_launch,
)
from photonlab.radial import (
    DomainError,
    ProfileKind,
    RadialFunction,
    RadialProfile,
    make_composite_star,
    make_schwarzschild_family,
    make_schwarzschild_neck,
    make_tabulated,
)


def _nonzero(row):
    return tuple((j, a) for j, a in enumerate(row) if a != 0.0)


_DP_STAGES = tuple(_nonzero(row) for row in _DP_A[1:])
_DP_ERROR = _nonzero(_DP_B4)


def _combine(y, h, k, terms):
    acc = (0,) * len(y)
    for j, a in terms:
        acc = [s + a * kc for s, kc in zip(acc, k[j])]
    return [yc + h * s for yc, s in zip(y, acc)]


def _rhs(profile, y):
    _, r, _, td, rd, pd = y
    n, dn = profile.N(r), profile.N(r, 1)
    a, da = profile.A(r), profile.A(r, 1)
    rr, drr = profile.Rareal(r), profile.Rareal(r, 1)
    inv_a2 = 1.0 / (a * a)
    return (
        td,
        rd,
        pd,
        -2.0 * (dn / n) * td * rd,
        (rr * drr * pd * pd - n * dn * td * td) * inv_a2 - (da / a) * rd * rd,
        -2.0 * (drr / rr) * rd * pd,
    ), (n, a, rr)


def _observables(lam, y, values):
    _, r, phi, td, rd, pd = y
    n, a, rr = values
    e = n * n * td
    ell = rr * rr * pd
    constraint = -(n * td) ** 2 + (a * rd) ** 2 + (rr * pd) ** 2
    return NullGeodesicState(
        lam=float(lam),
        r=float(r),
        phi=float(phi),
        p_r=float(a * a * rd),
        E=float(e),
        L=float(ell),
        constraint=float(constraint),
    )


class _Left(Exception):
    def __init__(self, r):
        self.r = r


def _reference_integrate(profile, y0, lam_max, tol=1e-12, max_steps=2_000_000):
    """The array stepper, with counters that change no step: right-hand-side
    evaluations, and attempts retried after a failed error test or a stage
    outside the chart.  Also returns how many attempts had a stage outside
    the chart and whether the run ended on one."""
    lo, hi = profile.r_lo, profile.r_hi
    inner_stop = lo + _INNER_MARGIN * max(1.0, abs(lo))
    lam = 0.0
    y = np.array(y0, dtype=float).tolist()
    k0, values = _rhs(profile, y)
    evals = 1
    states = [_observables(lam, y, values)]
    e0, l0 = states[0].E, states[0].L
    max_con = abs(states[0].constraint)
    if max_con > 1e-10 * max(e0 * e0, 1e-30):
        raise DomainError("initial data is not null")
    e_drift = l_drift = 0.0
    scale_e = max(abs(e0), 1e-30)
    scale_l = max(abs(l0), abs(e0) * max(abs(states[0].r), 1.0))

    h = min(1e-3 * max(1.0, abs(y[1])), lam_max / 10.0)
    termination = "window"
    steps = retries = errors = 0
    ended_on_retry = False
    while lam < lam_max:
        if steps >= max_steps:
            termination = "step_limit"
            break
        steps += 1
        h = min(h, lam_max - lam)
        floor = 1e-14 * max(1.0, lam)
        if h < floor:
            termination = "window" if lam_max - lam <= floor else "step_underflow"
            break
        k = [k0]
        try:
            for terms in _DP_STAGES:
                yi = _combine(y, h, k, terms)
                if not (lo < yi[1] < hi):
                    raise _Left(yi[1])
                ki, values = _rhs(profile, yi)
                evals += 1
                k.append(ki)
        except _Left as exc:
            retries += 1
            if h <= 1e-12 * max(1.0, lam):
                termination = (
                    "domain_exit_outer" if exc.r >= hi else "domain_exit_inner"
                )
                ended_on_retry = True
                break
            h *= 0.25
            continue
        y5 = yi
        y4 = np.array(_combine(y, h, k, _DP_ERROR))
        y5a = np.array(y5)
        scale = tol + tol * np.maximum(np.abs(np.array(y)), np.abs(y5a))
        err = float(np.sqrt(np.mean(((y5a - y4) / scale) ** 2)))
        if err <= 1.0:
            lam += h
            y, k0 = y5, k[-1]
            st_ = _observables(lam, y, values)
            states.append(st_)
            if not (inner_stop < y[1] < hi):
                termination = (
                    "domain_exit_outer" if y[1] >= hi else "domain_exit_inner"
                )
                break
            max_con = max(max_con, abs(st_.constraint))
            e_drift = max(e_drift, abs(st_.E - e0) / scale_e)
            l_drift = max(l_drift, abs(st_.L - l0) / scale_l)
        else:
            errors += 1
        h *= min(5.0, max(0.2, 0.9 * (1.0 / err) ** 0.2 if err > 0.0 else 5.0))
    res = GeodesicResult(
        states=states,
        termination=termination,
        max_constraint=max_con,
        E_drift=e_drift,
        L_drift=l_drift,
        rhs_evals=evals,
        rejected_steps=errors + retries - ended_on_retry,
    )
    return res, retries, ended_on_retry


def _fields(res):
    return repr((res.states, res.termination, res.max_constraint,
                 res.E_drift, res.L_drift, res.rhs_evals, res.rejected_steps))


def _profile(kind, m):
    if kind == "closed":
        return make_schwarzschild_family(m, 2.1 * m, 30.0 * m)
    if kind == "tabulated":
        exact = make_schwarzschild_family(m, 2.1 * m, 30.0 * m)
        r = np.geomspace(2.1 * m, 30.0 * m, 400)
        return make_tabulated(r, exact.N(r), exact.A(r), exact.Rareal(r))
    if kind == "star_vacuum":
        return make_composite_star(m, 2.6 * m, r_hi=30.0 * m).vacuum_piece()
    return make_schwarzschild_neck(m)


def _null_launch(profile, r0, E, L, outgoing):
    """(t, r, phi, dt/dl, dr/dl, dphi/dl) at r0 with dr/dl from the null
    constraint, outward or inward; the stepper checks it is null."""
    n, _, a, _, rr, _ = profile._read().slopes(r0)
    rd = math.sqrt(((E / n) ** 2 - (L / rr) ** 2) / (a * a))
    return np.array([0.0, float(r0), 0.0, E / (n * n), rd if outgoing else -rd,
                     L / (rr * rr)])


def _launch(profile, r0, launch, b):
    if launch == "tangential":
        return tangential_launch(profile, r0)
    # impact parameter b times the tangential one keeps dr/dl real
    crit = float(profile.Rareal(r0)) / float(profile.N(r0))
    return _null_launch(profile, r0, 1.0, b * crit, launch == "outgoing")


def _compare(profile, y0, lam_max, tol):
    ref, retries, ended_on_retry = _reference_integrate(profile, y0, lam_max, tol)
    got = integrate_null_geodesic(profile, y0, lam_max, tol)
    assert _fields(got) == _fields(ref)
    return ref, retries, ended_on_retry


_KINDS = ("closed", "tabulated", "star_vacuum", "neck")


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(_KINDS),
    log_m=st.floats(math.log(0.3), math.log(4.0)),
    log_tol=st.floats(-12.0, -6.0),
    launch=st.sampled_from(("tangential", "outgoing", "incoming")),
    where=st.floats(0.02, 0.98),
    b=st.floats(0.0, 0.99),
    window=st.floats(0.5, 40.0),
)
def test_float_stepper_matches_array_stepper(kind, log_m, log_tol, launch, where, b,
                                             window):
    m = math.exp(log_m)
    profile = _profile(kind, m)
    lo, hi = profile.interior_window(pad=1e-7)
    r0 = lo + where * (hi - lo)
    _compare(profile, _launch(profile, r0, launch, b), window * m, 10.0 ** log_tol)


# (kind, m, launch, r0 / m, b, window / m, tol, termination, stage retries)
_ENDINGS = [
    ("closed", 1.0, "tangential", 3.0, 0.0, 40.0, 1e-12, "window", 0),
    ("tabulated", 1.7, "outgoing", 8.0, 0.8, 5.0, 1e-10, "window", 0),
    ("tabulated", 0.7, "tangential", 2.97, 0.0, 40.0, 1e-9, "domain_exit_inner", 18),
    ("closed", 1.0, "incoming", 5.0, 0.5, 40.0, 1e-8, "domain_exit_inner", 15),
    ("neck", 1.3, "incoming", 2.5, 0.3, 5.0, 1e-7, "domain_exit_inner", 0),
    ("closed", 2.5, "outgoing", 5.0, 0.5, 40.0, 1e-8, "domain_exit_outer", 52),
    ("star_vacuum", 0.4, "outgoing", 4.0, 0.9, 40.0, 1e-10, "domain_exit_outer", 43),
    ("neck", 0.5, "outgoing", 2.2, 0.0, 5.0, 1e-11, "domain_exit_outer", 35),
]


@pytest.mark.parametrize(
    "kind, m, launch, x0, b, window, tol, termination, retries", _ENDINGS
)
def test_float_stepper_matches_at_every_ending(kind, m, launch, x0, b, window, tol,
                                               termination, retries):
    profile = _profile(kind, m)
    y0 = _launch(profile, x0 * m, launch, b)
    ref, seen_retries, ended_on_retry = _compare(profile, y0, window * m, tol)
    assert (ref.termination, seen_retries) == (termination, retries)
    # every accepted state lies below r_hi, so an outward exit ends on an
    # attempt whose stage left the chart at the smallest step
    assert ended_on_retry == (termination == "domain_exit_outer")


def _clamped_lapse_profile(m):
    """Schwarzschild leaves with the lapse clamped to exactly 0.0 inside
    r = 2m, on a domain reaching below it.  The leaves return numpy
    scalars, which divide by zero to inf or NaN."""

    def n0(r):
        return np.sqrt(np.maximum(1.0 - 2.0 * m / r, 0.0))

    def n1(r):
        return m / (r * r * n0(r))

    def a0(r):
        return 1.0 / np.sqrt(np.abs(1.0 - 2.0 * m / r))

    def a1(r):
        return -m / (r * r) * a0(r) ** 3

    def unused(r):
        raise AssertionError("geodesics read no second derivative")

    return RadialProfile(
        kind=ProfileKind.COMPOSITE_REFERENCE,
        r_lo=1.5 * m,
        r_hi=10.0 * m,
        N=RadialFunction(n0, n1, unused),
        A=RadialFunction(a0, a1, unused),
        Rareal=RadialFunction.coordinate(),
    )


def test_zero_lapse_at_a_stage_radius_ends_as_the_reference(monkeypatch):
    m = 1.0
    profile = _clamped_lapse_profile(m)
    y0 = _null_launch(profile, 2.0001 * m, 1.0, 0.5, outgoing=False)
    budget = 400
    monkeypatch.setattr(geodesics, "_MAX_STEPS", budget)
    seen = []
    rhs = geodesics._geodesic_rhs

    def watching(read, r, td, rd, pd):
        out = rhs(read, r, td, rd, pd)
        seen.append(out[3])  # the lapse the stage read
        return out

    monkeypatch.setattr(geodesics, "_geodesic_rhs", watching)
    with np.errstate(all="ignore"):
        ref, _, _ = _reference_integrate(profile, y0, 5.0, 1e-10, max_steps=budget)
        got = integrate_null_geodesic(profile, y0, 5.0, 1e-10)
    assert 0.0 in seen  # a stage radius read a lapse of exactly 0.0
    assert ref.termination == "step_limit"
    assert _fields(got) == _fields(ref)


def test_overflowing_constraint_ends_as_the_reference():
    # At m = 1e150 and E ~ 1e154 the launch is null to rounding, but E/N
    # passes 1.34e154 as the ray falls in, and its square overflows: numpy
    # scalars gave inf there, where a float power raises OverflowError.
    m = 1e150
    profile = make_schwarzschild_family(m, 2.1 * m, 30.0 * m)
    r0 = 10.0 * m
    n0 = float(profile.N(r0))
    e = 1.2e154 * n0
    y0 = _null_launch(profile, r0, e, 0.5 * e * r0 / n0, outgoing=False)
    with np.errstate(over="ignore", invalid="ignore"):
        ref, _, _ = _reference_integrate(profile, y0, 40.0 * m / e, 1e-10)
        got = integrate_null_geodesic(profile, y0, 40.0 * m / e, 1e-10)
    assert ref.max_constraint == math.inf
    assert _fields(got) == _fields(ref)
