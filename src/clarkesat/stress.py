"""Subgradient-method stress demo: every iterate is certifiably stationary.

The oracle hands a certified value interval and one generalized gradient to
a plain projected subgradient loop with the c/sqrt(t) schedule.  Wherever a
saturation certificate succeeds, opposite gradient values are certified on
positive measure near the iterate, so the distance from zero to the local
gradient hull is exactly zero: the method can never certify progress, at
any iterate, which is the point of the construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import isqrt
from typing import Sequence

from .errors import CertificateFailed, NotYetCovered
from .functions import SaturatedFunction, eval_f, sample_gradient
from .rationals import ZERO, Interval, ValueBound, format_rational, rational
from .verifier import SaturationCertificate, _box, _check_radius_and_truncation, certify_saturation

# Iterates are snapped to this grid after each step; it keeps coordinate
# denominators bounded while staying far below any tolerance used here.
_GRID_BITS = 48


@dataclass(frozen=True)
class OracleResponse:
    """Certified value plus one generalized gradient at a query point.

    Undecided coordinates are resolved to 0 (always a valid generalized
    gradient component here) and flagged.
    """

    value: ValueBound
    gradient: tuple[Fraction, ...]
    undecided: tuple[int, ...]


def oracle(
    sf: SaturatedFunction, x: Sequence[Fraction], tol: Fraction, depth: int = 8
) -> OracleResponse:
    sample = sample_gradient(sf, x, depth)
    gradient = tuple(ZERO if g is None else g for g in sample)
    undecided = tuple(i for i, g in enumerate(sample) if g is None)
    return OracleResponse(eval_f(sf, x, tol), gradient, undecided)


@dataclass(frozen=True)
class TrajectoryPoint:
    t: int
    x: tuple[Fraction, ...]
    response: OracleResponse


def _rational_sqrt(t: int) -> Fraction:
    """A positive rational within 2^-26 of sqrt(t)."""
    return Fraction(isqrt(t << 52), 1 << 26)


def _snap(value: Fraction) -> Fraction:
    scale = 1 << _GRID_BITS
    return Fraction((value.numerator * scale) // value.denominator, scale)


def run_subgradient(
    sf: SaturatedFunction,
    x_init: Sequence[Fraction],
    steps: int,
    step_coefficient: Fraction = Fraction(1, 10),
    tol: Fraction = Fraction(1, 10**6),
    depth: int = 8,
) -> list[TrajectoryPoint]:
    """Projected subgradient run with the c/sqrt(t) schedule, fully rational.

    Deterministic: the square root is replaced by a fixed rational
    approximation, iterates are snapped to the 2^-48 grid, and projection
    clamps into the domain box shrunk by 1/64 of each side.  Returns the
    oracle response at every visited point, x_init first.  The oracle, a
    pure function of the point, runs once per point, as iterates repeat.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    x = tuple(rational(c) for c in x_init)
    if not sf.contains_point(x):
        raise ValueError("the initial point must lie inside the domain box")
    c = rational(step_coefficient)
    answer = cache(lambda x: oracle(sf, x, tol, depth))  # kept for this run only
    trajectory = [TrajectoryPoint(0, x, answer(x))]
    for t in range(1, steps + 1):
        alpha = c / _rational_sqrt(t)
        moved = []
        for side, coord, g in zip(sf.domain, x, trajectory[-1].response.gradient):
            step = alpha * g
            if step == 0:
                moved.append(coord)
                continue
            margin = side.length / 64
            value = _snap(coord - step)
            value = min(max(value, side.lo + margin), side.hi - margin)
            moved.append(value)
        x = tuple(moved)
        trajectory.append(TrajectoryPoint(t, x, answer(x)))
    return trajectory


def stationarity_gap(
    sf: SaturatedFunction, x: Sequence[Fraction], r: Fraction, K: int
) -> Fraction:
    """Exact upper bound on dist(0, hull of certified gradients near x).

    A saturation certificate lists every sign pattern for every k <= K, so
    on success the hull contains either an opposite vertex pair (some
    mu_k != 0) or the value 0 itself (all mu_k = 0 up to K); both put 0 in
    the hull, and the gap is exactly zero.  Raises NotYetCovered when the
    certificate does, and CertificateFailed when it fails its own check.
    """
    return _checked_gap(certify_saturation(sf, x, r, K))


def _checked_gap(certificate: SaturationCertificate) -> Fraction:
    """Zero, once the certificate passes its check; CertificateFailed if not."""
    if not certificate.check():
        raise CertificateFailed("saturation certificate failed its check")
    return ZERO


def trajectory_csv(
    sf: SaturatedFunction,
    trajectory: Sequence[TrajectoryPoint],
    r: Fraction | None = None,
    K: int = 0,
) -> str:
    """CSV of t, coordinates, value bounds, and the per-iterate gap.

    The gap column holds the certified gap when the certificate succeeds,
    and NA without a radius, where the radius-r box around the iterate
    leaves the domain, and where the partition does not reach yet.  A
    radius r <= 0 or a truncation K < 0 raises ValueError before any row.
    The certificate, a pure function of the point, is built once per point
    and checked on each of its rows.
    """
    lines = [",".join(["t", *(f"x{i + 1}" for i in range(sf.d)), "f_lo", "f_hi", "gap"])]
    if r is not None:
        r = rational(r)
        _check_radius_and_truncation(r, K)

    @cache  # kept for this call only
    def certificate(x: tuple[Fraction, ...]) -> SaturationCertificate | None:  # None where the gap is NA
        if r is not None and all(map(Interval.contains_interval, sf.domain, _box(x, r))):
            try:
                return certify_saturation(sf, x, r, K)
            except NotYetCovered:
                pass
        return None

    for point in trajectory:
        value, certified = point.response.value, certificate(point.x)
        gap = "NA" if certified is None else format_rational(_checked_gap(certified))
        lines.append(",".join([str(point.t), *map(format_rational, (*point.x, value.lo, value.hi)), gap]))
    return "\n".join(lines) + "\n"
