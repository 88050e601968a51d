"""The ``Interval`` and ``Fraction`` entry points of the library's integer rules.

Each function here states one integer rule of ``clarkesat.partition`` on the
objects it used to take, so that tests can compare the rule against a
``Fraction`` reference or call it on an ``Interval``.  The library itself
runs only the integer rules: ``cantor._room``, ``_prefix_sums``,
``_unit_range`` and ``_unit_chunk``, ``_span_between``, ``_WindowMass._depths``,
``_gap_span`` and ``_span_meets``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterator

from clarkesat.cantor import _ends, _open, _room, _span
from clarkesat.partition import (
    SplittingPartition,
    StageRecord,
    _gap_span,
    _span_between,
    _span_meets,
    _unit_chunk,
    _unit_range,
    _WindowMass,
)
from clarkesat.rationals import Interval


def longest_free(p: SplittingPartition, target: Interval) -> Interval | None:
    """``cantor._room`` over the gap closures, of the target's ends, as an
    open interval whatever the target's flags; None if none."""
    room = _room(p._los, p._reach, p._den, *_ends(target))
    return None if room is None else _open(*room)


def stage_masses(p: SplittingPartition) -> tuple[int, list[int]]:
    """(den, masses): stage n's whole-piece mass RETAINED * piece_width is
    masses[n-1] / den.

    Read from the gap index: the gap is (_his - _los) / _den, so the mass
    is RETAINED * (his - lo) / (_den * (n+1)), over the one denominator
    RETAINED.den * _den * L with L the lcm of the piece counts n+1.  No
    stage's ``geometry`` is built and no mass is reduced.  Rebuilt on
    each call from ``_prefix_sums``.
    """
    den, sums, _, position, _ = p._prefix_sums()
    return den, [sums[i + 1] - sums[i] for i in position]


def unit_chunks(window: Interval, translation: int) -> Iterator[Interval]:
    """Split a window at integer boundaries and fold each chunk into [0,1].

    An integer translation only renumbers the chunks, so the folded chunks
    do not depend on it."""
    return (_unit_chunk(window, m) for m in _unit_range(window))


def piece_span(record: StageRecord, window: Interval) -> tuple[int, int, int, int] | None:
    """``_span_between`` on the window's ends."""
    return _span_between(record, *_ends(window))


def refine(mass: _WindowMass, members: set[int], tol: Fraction, bound: Callable):
    """bound(masses) at the first depth where its width is <= tol, with
    ``_depths``'s masses as ``Fraction``s: each member's (lo, hi)."""
    for masses, _, _, den in mass._depths(mass.exact(members)):
        result = bound({j: (Fraction(lo, den), Fraction(hi, den)) for j, (lo, hi) in masses.items()})
        if result.width <= tol:
            return result
    raise mass._exhausted(tol)


def shrink_gap(found: Interval, n: int, gap_cap: Fraction) -> Interval:
    """The gap of "Gap sizing" in ``clarkesat.partition`` inside the found
    interval: ``_gap_span`` of its ends."""
    a, b, d = _gap_span(*_ends(found), n, gap_cap)
    return _open(a, d, b, d)


def cover_meets(record: StageRecord, i: int, window: Interval, depth: int) -> bool:
    """``piece_set(record.n, i).cover_meets(window, depth)``: ``_span_meets``
    of the window's span."""
    return _span_meets(record, i, *_span(window), depth)
