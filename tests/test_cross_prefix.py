"""Cross-prefix soundness: a certified answer from the first N stages of a
build is never refuted by a longer prefix of the same build.

A prefix SplittingPartition(gap_cap, stages[:N]) is the build of N stages,
so every pair N < N' compares two builds.  The short bound must meet the
long one, and at a tolerance at most 1/16 of the short bound's width the
long bound must lie inside it.
"""

from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clarkesat.functions import FiniteSupport, SaturatedFunction, _value_limit, eval_f, eval_f1, ones_generator
from clarkesat.partition import SplittingPartition, build_partition
from clarkesat.rationals import Interval

LONGEST = 60
TOL = Fraction(1, 10**6)


@cache
def _prefix(n: int) -> SplittingPartition:
    full = build_partition(LONGEST)
    return full if n == LONGEST else SplittingPartition(full.gap_cap, full.stages[:n])


def _rational(lo: int, hi: int):
    """A rational in [lo, hi] with denominator up to 200."""
    return st.integers(1, 200).flatmap(
        lambda q: st.integers(lo * q, hi * q).map(lambda p: Fraction(p, q)))


@st.composite
def _window(draw) -> tuple[Fraction, Fraction]:
    """(lo, hi), from a point up to one period long, at an offset in [-3, 3]."""
    lo = draw(_rational(-3, 3))
    return lo, lo + draw(_rational(0, 1))


@st.composite
def _pair(draw, spare: int = 2) -> tuple[int, int, Fraction]:
    """Stage counts N < N', N' at least N + 8 so that the long prefix reaches
    1/16 of most short bounds' widths, and a short tolerance 2^-j, j <= N - spare,
    that the short prefix reaches."""
    n = draw(st.integers(spare + 1, LONGEST - 8))
    return n, draw(st.integers(n + 8, LONGEST)), Fraction(1, 2 ** draw(st.integers(1, n - spare)))


def _assert_refines(short_bound, long_bound_at, tol, unbuilt_width):
    """short_bound, found at tol, meets long_bound_at(tol), and at width / 16
    the long bound lies inside it, when that tolerance is more than twice
    unbuilt_width, the width the long prefix's bound tends to with depth."""
    long_bound = long_bound_at(tol)
    assert max(short_bound.lo, long_bound.lo) <= min(short_bound.hi, long_bound.hi), (short_bound, long_bound)
    tol = short_bound.width / 16
    if tol > 2 * unbuilt_width:
        long_bound = long_bound_at(tol)
        assert short_bound.lo <= long_bound.lo and long_bound.hi <= short_bound.hi, (short_bound, long_bound)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(pair=_pair(), window=_window(), data=st.data())
def test_measure_in_and_eval_f1_refine_across_prefixes(pair, window, data):
    n, n_long, tol = pair
    short, long = _prefix(n), _prefix(n_long)
    lo, hi = window
    tail = long.unbuilt_tail_bound()
    k = data.draw(st.integers(0, n + 2))
    interval = Interval.closed(lo, hi)
    _assert_refines(short.measure_in(k, interval, tol), lambda t: long.measure_in(k, interval, t), tol, tail)
    x0, x = (lo, hi) if data.draw(st.booleans()) else (hi, lo)
    k = data.draw(st.integers(0, n // 2 + 1))
    _assert_refines(eval_f1(short, k, x0, x, tol), lambda t: eval_f1(long, k, x0, x, t), tol, 2 * tail)


# A value bound tends to d * _value_limit(mu) * tail with depth, up to
# 2 * 13 * tail here, so the short tolerance 2^-j needs j <= N - 7.
@settings(derandomize=True, max_examples=100, deadline=None)
@given(pair=_pair(spare=7), d=st.integers(1, 2), data=st.data())
def test_eval_f_refines_across_prefixes(pair, d, data):
    n, n_long, tol = pair
    short, long = _prefix(n), _prefix(n_long)
    ends = [data.draw(_window()) for _ in range(d)]
    x0, x = tuple(lo for lo, _ in ends), tuple(hi for _, hi in ends)
    domain = (Interval.open(-4, 5),) * d
    for mu in (FiniteSupport.of({0: 3, 1: -5, 2: 2}), ones_generator()):
        def value(p, t):
            return eval_f(SaturatedFunction(p, mu, d, domain, x0), x, t)

        limit = d * _value_limit(mu) * long.unbuilt_tail_bound()
        _assert_refines(value(short, tol), lambda t: value(long, t), tol, limit)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(pair=_pair(), x=_rational(-3, 3), depth=st.sampled_from([0, 2, 8]))
def test_a_decided_membership_keeps_its_member_across_prefixes(pair, x, depth):
    n, n_long, _ = pair
    answer = _prefix(n).membership(x, depth)
    if answer.decided:
        assert _prefix(n_long).membership(x, depth).member_index == answer.member_index


# A window longer than one period folds onto [0, 1) more than once, but the
# integrator adds the unbuilt-stage tail once per window, so its bound can
# miss a longer build's.  Strict, so that a fix shows up as an unexpected pass.
@pytest.mark.xfail(strict=True, reason="the unbuilt-stage tail is added once per window, not once per period")
@pytest.mark.parametrize("bound", [
    lambda p, tol: p.measure_in(0, Interval.closed(0, 3), tol),
    lambda p, tol: eval_f1(p, 0, Fraction(-5, 2), Fraction(5, 2), tol),
], ids=["measure_in", "eval_f1"])
def test_a_window_longer_than_one_period_meets_the_longer_build(bound):
    short, long = bound(_prefix(20), TOL), bound(_prefix(LONGEST), TOL / 64)
    assert max(short.lo, long.lo) <= min(short.hi, long.hi)
