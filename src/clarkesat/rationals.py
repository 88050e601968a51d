"""Exact rational arithmetic on intervals and finite disjoint interval unions.

``Rational`` is the standard library ``fractions.Fraction`` (arbitrary
precision, canonical form, total order, exact field operations).  This module
adds the two geometric types everything else is built on:

* ``Interval``: a single interval with rational endpoints and per-endpoint
  closure flags.
* ``IntervalSet``: a normalized finite union of pairwise disjoint,
  non-adjacent intervals.  All measures computed from it are exact.

``ValueBound`` is the certified interval [lo, hi] that every exact answer
returns; ``cantor.MeasureBound`` is its nonnegative subclass.

Closure flags are tracked through every operation, but measure ignores them:
single points are Lebesgue-null, and measure is the only consumer that
matters here.  During normalization, parts that touch with compatible
closure (such as ``[a,b]`` followed by ``(b,c)``) are merged, so structural
equality of normalized sets is a meaningful test.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from operator import attrgetter
from typing import Iterable, Iterator, Union

Rational = Fraction
RationalLike = Union[Fraction, int, str]

ZERO = Fraction(0)
ONE = Fraction(1)


def rational(value: RationalLike) -> Fraction:
    """Coerce ints and "p/q" strings to an exact Fraction; TypeError otherwise."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise TypeError(f"expected a Fraction, int or p/q string, not {type(value).__name__}")


def parse_rational(text: str) -> Fraction:
    """Parse decimal-free "p/q" text (also accepts a bare integer)."""
    text = text.strip()
    if "." in text or "e" in text or "E" in text:
        raise ValueError(f"not a decimal-free rational: {text!r}")
    if "/" in text:
        num, _, den = text.partition("/")
        num, den = int(num), int(den)
        if den == 0:
            raise ValueError(f"zero denominator: {text!r}")
        return Fraction(num, den)
    return Fraction(int(text))


def format_rational(value: Fraction) -> str:
    """Render as "p/q" with an explicit denominator ("0/1", "2/1", "3/8")."""
    return f"{value.numerator}/{value.denominator}"


@dataclass(frozen=True)
class ValueBound:
    """Certified interval [lo, hi] containing a true function value."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"invalid value bound [{self.lo}, {self.hi}]")

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def mid(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def contains(self, value: Fraction) -> bool:
        return self.lo <= value <= self.hi

    def nests_inside(self, outer: ValueBound) -> bool:
        return outer.lo <= self.lo and self.hi <= outer.hi

    def shift(self, offset: Fraction) -> ValueBound:
        return ValueBound(self.lo + offset, self.hi + offset)

    def __str__(self) -> str:
        return f"{format_rational(self.lo)} {format_rational(self.hi)}"


@dataclass(frozen=True)
class Interval:
    """An interval with rational endpoints; lo <= hi always.

    ``lo == hi`` is only allowed with both endpoints closed (a singleton).
    Nontrivial means lo < hi.
    """

    lo: Fraction
    hi: Fraction
    lo_closed: bool = True
    hi_closed: bool = True

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"interval endpoints out of order: {self.lo} > {self.hi}")
        if self.lo == self.hi and not (self.lo_closed and self.hi_closed):
            raise ValueError("a degenerate interval must be closed on both sides")

    @classmethod
    def closed(cls, lo: RationalLike, hi: RationalLike) -> Interval:
        return cls(rational(lo), rational(hi), True, True)

    @classmethod
    def open(cls, lo: RationalLike, hi: RationalLike) -> Interval:
        return cls(rational(lo), rational(hi), False, False)

    @property
    def length(self) -> Fraction:
        return self.hi - self.lo

    @property
    def is_nontrivial(self) -> bool:
        return self.lo < self.hi

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def contains(self, x: Fraction) -> bool:
        """Whether x, a Fraction or an int, lies in the interval.

        x = p/q is tested against each end a/b by the sign of p*b - a*q
        (both denominators are positive): positive past lo, or zero with lo
        closed, and negative before hi, or zero with hi closed.  Any other
        type of x raises TypeError.
        """
        if not isinstance(x, (Fraction, int)):
            raise TypeError(f"expected a Fraction or int point, not {type(x).__name__}")
        p, q = x.numerator, x.denominator
        lo, hi = self.lo, self.hi
        past_lo = p * lo.denominator - lo.numerator * q
        if past_lo < 0 or past_lo == 0 and not self.lo_closed:
            return False
        before_hi = hi.numerator * q - p * hi.denominator
        return before_hi > 0 or before_hi == 0 and self.hi_closed

    def contains_interval(self, other: Interval) -> bool:
        """Set containment, closure-aware.

        Each pair of ends a/b and c/e, Fraction or int, is compared by the
        sign of a cross product, as ``contains`` tests a point: other.lo
        must be past self.lo, or equal to it with other.lo open or self.lo
        closed, and other.hi before self.hi, or equal likewise.  An end
        without a numerator and a denominator, a float say, raises
        AttributeError.
        """
        lo, hi, inner_lo, inner_hi = self.lo, self.hi, other.lo, other.hi
        past_lo = inner_lo.numerator * lo.denominator - lo.numerator * inner_lo.denominator
        if past_lo < 0 or past_lo == 0 and other.lo_closed and not self.lo_closed:
            return False
        before_hi = hi.numerator * inner_hi.denominator - inner_hi.numerator * hi.denominator
        return before_hi > 0 or before_hi == 0 and not (other.hi_closed and not self.hi_closed)

    def interior(self) -> Interval:
        if not self.is_nontrivial:
            raise ValueError("a singleton has empty interior")
        return Interval(self.lo, self.hi, False, False)

    def closure(self) -> Interval:
        return Interval(self.lo, self.hi, True, True)

    def intersects(self, other: Interval) -> bool:
        """True if the two intervals share at least one point."""
        return self.intersect(other) is not None

    def overlaps_nontrivially(self, other: Interval) -> bool:
        """True if the intersection has positive length."""
        return min(self.hi, other.hi) > max(self.lo, other.lo)

    def intersect(self, other: Interval) -> Interval | None:
        """Pointwise intersection; None when empty."""
        if self.lo > other.lo:
            lo, lo_closed = self.lo, self.lo_closed
        elif other.lo > self.lo:
            lo, lo_closed = other.lo, other.lo_closed
        else:
            lo, lo_closed = self.lo, self.lo_closed and other.lo_closed
        if self.hi < other.hi:
            hi, hi_closed = self.hi, self.hi_closed
        elif other.hi < self.hi:
            hi, hi_closed = other.hi, other.hi_closed
        else:
            hi, hi_closed = self.hi, self.hi_closed and other.hi_closed
        if lo > hi or (lo == hi and not (lo_closed and hi_closed)):
            return None
        return Interval(lo, hi, lo_closed, hi_closed)

    def __str__(self) -> str:
        left = "[" if self.lo_closed else "("
        right = "]" if self.hi_closed else ")"
        return f"{left}{format_rational(self.lo)},{format_rational(self.hi)}{right}"


def _touch_merges(left: Interval, right: Interval) -> bool:
    # left.lo <= right.lo guaranteed by sorting.
    if right.lo < left.hi:
        return True  # genuine overlap
    if right.lo == left.hi:
        return left.hi_closed or right.lo_closed
    return False


@dataclass(frozen=True)
class IntervalSet:
    """Normalized finite union of intervals, sorted and pairwise separated.

    Use ``IntervalSet.of(...)`` to build from arbitrary intervals;
    the constructor itself trusts its input (internal fast path).
    """

    parts: tuple[Interval, ...] = ()

    @classmethod
    def empty(cls) -> IntervalSet:
        return cls(())

    @classmethod
    def of(cls, intervals: Iterable[Interval]) -> IntervalSet:
        parts = sorted(
            (iv for iv in intervals),
            key=lambda iv: (iv.lo, not iv.lo_closed, iv.hi, iv.hi_closed),
        )
        merged: list[Interval] = []
        for iv in parts:
            if merged and _touch_merges(merged[-1], iv):
                last = merged[-1]
                if iv.hi > last.hi:
                    hi, hi_closed = iv.hi, iv.hi_closed
                elif iv.hi == last.hi:
                    hi, hi_closed = last.hi, last.hi_closed or iv.hi_closed
                else:
                    hi, hi_closed = last.hi, last.hi_closed
                lo_closed = last.lo_closed or (iv.lo == last.lo and iv.lo_closed)
                merged[-1] = Interval(last.lo, hi, lo_closed, hi_closed)
            else:
                merged.append(iv)
        return cls(tuple(merged))

    def __iter__(self) -> Iterator[Interval]:
        return iter(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    @property
    def is_empty(self) -> bool:
        return not self.parts

    def measure(self) -> Fraction:
        """Exact total length (closure flags do not matter)."""
        total = ZERO
        for part in self.parts:
            total += part.hi - part.lo
        return total

    def contains(self, x: Fraction) -> bool:
        pos = bisect_left(self.parts, x, key=attrgetter("hi"))
        return pos < len(self.parts) and self.parts[pos].contains(x)

    def union(self, other: IntervalSet) -> IntervalSet:
        return IntervalSet.of((*self.parts, *other.parts))

    def intersect(self, other: IntervalSet) -> IntervalSet:
        """Exact set intersection by a sweep over both sorted part lists."""
        out: list[Interval] = []
        i = j = 0
        a, b = self.parts, other.parts
        while i < len(a) and j < len(b):
            piece = a[i].intersect(b[j])
            if piece is not None:
                out.append(piece)
            if a[i].hi < b[j].hi or (a[i].hi == b[j].hi and not a[i].hi_closed):
                i += 1
            else:
                j += 1
        return IntervalSet(tuple(out))

    def intersect_interval(self, window: Interval) -> IntervalSet:
        return self.intersect(IntervalSet((window,)))

    def complement_within(self, host: Interval) -> IntervalSet:
        """host minus self, exactly.  Requires self to be a subset of host."""
        for part in self.parts:
            if not host.contains_interval(part):
                raise ValueError(f"part {part} is not contained in host {host}")
        out: list[Interval] = []
        cursor = host.lo
        cursor_closed = host.lo_closed
        for part in self.parts:
            if cursor < part.lo or (cursor == part.lo and cursor_closed and not part.lo_closed):
                out.append(Interval(cursor, part.lo, cursor_closed, not part.lo_closed))
            cursor = part.hi
            cursor_closed = not part.hi_closed
        if cursor < host.hi or (cursor == host.hi and cursor_closed and host.hi_closed):
            out.append(Interval(cursor, host.hi, cursor_closed, host.hi_closed))
        return IntervalSet(tuple(p for p in out if p.lo < p.hi or (p.lo_closed and p.hi_closed)))

    def __str__(self) -> str:
        if not self.parts:
            return "(empty)"
        return " ".join(str(p) for p in self.parts)


def measure(s: IntervalSet) -> Fraction:
    return s.measure()


def intersect(s: IntervalSet, t: IntervalSet) -> IntervalSet:
    return s.intersect(t)


def complement_within(s: IntervalSet, host: Interval) -> IntervalSet:
    return s.complement_within(host)


def parse_interval_set(text: str) -> IntervalSet:
    """Parse whitespace-separated "[p/q,r/s]" tokens (brackets carry closure)."""
    parts = []
    for token in text.split():
        if len(token) < 2 or token[0] not in "[(" or token[-1] not in "])":
            raise ValueError(f"bad interval token: {token!r}")
        lo_text, _, hi_text = token[1:-1].partition(",")
        parts.append(
            Interval(
                parse_rational(lo_text),
                parse_rational(hi_text),
                token[0] == "[",
                token[-1] == "]",
            )
        )
    return IntervalSet.of(parts)


def format_interval_set(s: IntervalSet) -> str:
    return " ".join(str(p) for p in s.parts)
