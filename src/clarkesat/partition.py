"""Staged, lazy, deterministic construction of a splitting partition of [0,1).

The partition {A_k} is built stage by stage.  Stage n picks the n-th interval
I_n from a fixed enumeration of rational open subintervals of (0,1), finds an
open gap inside I_n that avoids every previously placed fat Cantor set,
shrinks it, splits it into n+1 contiguous open pieces of equal width, and
plants a fat Cantor set on each piece.  The first n pieces feed A_1 .. A_n,
the last one feeds the reservoir B inside A_0.  Then

    A_k = union over stages n >= k of the k-th set of stage n      (k >= 1)
    A_0 = [0,1) minus the union of all A_k, which contains B.

Every A_k meets every interval in positive measure once enough stages exist,
and the complement within any interval does too, which is exactly the
splitting property the certificates below assert.

Enumeration.  Two deterministic streams are interleaved: odd indices n take
the dyadic stream at position (n+1)/2, even ones the pair stream at n/2.
Dyadic level L >= 1 holds the 2^L - 1 overlapping intervals
((j-1)/2^L, (j+1)/2^L), 0 < j < 2^L, after the 2^L - L - 1 of the levels
before it, so a position and its (L, j) convert in O(1), and any window of
width delta contains one of index O(1/delta).  The pair stream makes the
enumeration surjective onto all nontrivial rational open subintervals of
(0,1): every pa/qa < pb/qb of reduced fractions in (0,1), by weight
w = qa + qb, then qa, pa and pb.  Block (qa, qb) holds
(phi(qa)*phi(qb) - [qa = qb]*phi(qa))/2 of them, since (pa, pb) ->
(qa - pa, qb - pb) swaps those below and above the diagonal, and the blocks
of all weights below w sum in O(w).  Every walk over the blocks starts at
a weight and skips blocks by size (``_pair_blocks``); a position becomes a
weight by one doubling and bisection (``_pair_weight``).  Unrank starts at
its position's weight, rank at qa + qb with no search, and the first index
inside a window at the first weight that can fit, skipping every weight
with w^2 * delta < 4: two distinct fractions pa/qa < pb/qb differ by at
least 1/(qa*qb) >= 4/w^2.  Row pa is read from the block's one list of
qb's coprimes by a bisection at pa*qb // qa.  Rank, unrank and that search
are integer arithmetic with no state kept between calls.  Duplicates
between the streams are harmless.  Indices are 1-based.

Gap sizing.  The found free interval is shrunk concentrically to length
(2^-j)/3 where 2^-j is the largest power of two not exceeding
min(found length, 2^-n, gap_cap), and the center is snapped down to the
dyadic grid 2^-(j+4): with c = floor(midpoint * 2^(j+4)) the gap is
((3c - 8)/(3*2^(j+4)), (3c + 8)/(3*2^(j+4))).  The margin analysis (found
length >= 2^-j, shrink factor 1/3, snap distance 2^-j/16) keeps the gap
strictly inside the free interval.  The snapping keeps endpoint
denominators at O(n) bits after n stages.  Stage tails are summable: sum
of gap lengths over n > N is at most 2^-N.  ``_gap_span`` applies the rule
to the free interval's integer ends.

Gap search.  The free interval avoids the closures of all earlier gaps when
they leave room in I_n.  One gap index serves this search and every window
query: the gaps sorted by left end, with both ends and the running max of
the right ends as integers over one common denominator.  The room scan
``cantor._room`` reads the longest free part of I_n off it, on I_n's
integer ends, and a window query rounds its two ends once.  When the
closures tile I_n (from stage 37 on at gap_cap 1), ``cantor._find_gap``
digs the gap into a removed middle of the host, the earliest stage whose
closure meets I_n, the other closures blocked, certified at ``depth_used``:
a depth-0 closure touches no earlier one and a dug gap lies strictly inside
its removed middle, so closures are disjoint or nested, the later inside,
and the one maximal closure holding I_n came first.  A stage builds no
``Interval`` and at most one ``Fraction``: ``build_partition(500)`` takes
about 10 ms, mostly in the room scan, ``_gap_span`` and ``_add`` (2-core
shared machine, CPython 3.11.7).
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, chain, compress
from math import gcd, isqrt, lcm
from operator import attrgetter, ge, mul, or_
from typing import Callable, Iterable, Iterator
from weakref import WeakKeyDictionary

from .cantor import CANONICAL_SCHEDULE, Containment, FatCantorSet, MeasureBound
from .cantor import _GAP_DEPTHS, _MeasureSteps, _containment, _cover_walk, _ends, _find_gap, _open, _room, _span
from .errors import NotYetCovered, ToleranceExhausted
from .rationals import (
    Interval,
    ONE,
    ZERO,
    format_rational,
    parse_rational,
    rational,
)

RETAINED = Fraction(1, 2)  # every planted set keeps half of its host piece
_MAX_PAIR_WEIGHT = 2**16  # the size bound on qa + qb of enumeration_index and first_index_inside
_MAX_PAIR_POSITION = 142035260194764531  # _pairs_below(_MAX_PAIR_WEIGHT + 1): positions of weights <= 2^16

# ---------------------------------------------------------------------------
# Enumeration of rational open subintervals of (0,1)
# ---------------------------------------------------------------------------


def _dyadic(m: int) -> tuple[int, int]:
    """(L, j) of dyadic position m."""
    level = m.bit_length()
    if 2**level - level > m:  # the levels before L hold 2^L - L - 1
        level -= 1
    return level, m - 2**level + level + 1


def _totients(limit: int) -> list[int]:
    phi = list(range(limit + 1))
    for p in range(2, limit + 1):
        if phi[p] == p:
            phi[p::p] = [v - v // p for v in phi[p::p]]
    return phi


def _pairs_below(w: int, phi: list[int]) -> int:
    """The pair positions before weight w: over qa + qb < w, the sum of
    phi(qa)*phi(qb) less the diagonal, halved."""
    small = phi[2:w - 2]  # phi(qa) for qa = 2..w-3, which leaves qb = 2..w-1-qa
    return (sum(map(mul, reversed(small), accumulate(small))) - sum(phi[2:(w + 1) // 2])) // 2


def _pair_weight(m: int) -> int:
    """The weight of the pair block holding position m >= 1, by doubling and
    bisection over ``_pairs_below``.  Positions 1..24, of weights 5 to 8,
    where every load starts and the windows of ``certify`` look, are read
    from the positions before weights 6, 7 and 8, with no search."""
    if m <= 24:
        return 5 + bisect_left((2, 5, 13), m)
    top = 16
    while _pairs_below(top, phi := _totients(top)) < m:
        top *= 2
    return 3 + bisect_left(range(4, top + 1), m, key=lambda w: _pairs_below(w, phi))


def _pair_blocks(w: int, m: int = 0) -> Iterator[tuple[int, int, int]]:
    """(pos, qa, qb) for the pair blocks of weights w, w+1, ..., from the
    first whose positions reach m, pos + size >= m, on; pos positions
    precede the block."""
    phi = _totients(w)
    pos, qa = _pairs_below(w, phi), 2
    while True:
        qb = w - qa
        size = (phi[qa] * phi[qb] - (phi[qa] if qa == qb else 0)) // 2
        if pos + size >= m:
            yield pos, qa, qb
        pos, qa = pos + size, qa + 1
        if qa == w - 1:
            w, qa = w + 1, 2
            phi = phi if w - 2 < len(phi) else _totients(2 * w)  # weight w reads phi[2..w-2]


def _rows(pos: int, qa: int, qb: int) -> Iterator[tuple[int, int, list[int], int]]:
    """(position, pa, pbs, start) for the rows of block (qa, qb) after pos
    positions.  Row pa holds the pb in (pa*qb // qa, qb) coprime to qb:
    pbs[start:] of the block's one list pbs of qb's coprimes, the first at
    position."""
    pbs, row = [p for p in range(1, qb) if gcd(p, qb) == 1], pos + 1
    for pa in range(1, qa):
        if gcd(pa, qa) == 1:  # plain loops, not _coprimes: the stream's first blocks are small
            start = bisect_right(pbs, pa * qb // qa)
            yield row, pa, pbs, start
            row += len(pbs) - start


def _coprimes(start: int, q: int) -> Iterator[int]:
    return (p for p in range(start, q) if gcd(p, q) == 1)


def _enumeration_ends(n: int) -> Iterator[tuple[int, int, int, int]]:
    """(p, q, r, s) with I_m = (p/q, r/s) for m = n, n+1, ...: odd indices
    take the dyadic stream, even ones the pair stream.  A dyadic p/q and r/s
    need not be reduced."""
    if n < 1:
        raise ValueError("enumeration indices start at 1")
    dyadic, pairs = _dyadic_stream(n // 2 + 1), _pair_stream((n + 1) // 2)
    return chain.from_iterable(zip(dyadic, pairs) if n % 2 else zip(pairs, dyadic))


def _dyadic_stream(m: int) -> Iterator[tuple[int, int, int, int]]:
    """(j - 1, 2^L, j + 1, 2^L) for dyadic positions m, m+1, ..., level by level."""
    level, j = _dyadic(m)
    while True:
        q = 1 << level
        for j in range(j, q):
            yield j - 1, q, j + 1, q
        level, j = level + 1, 1


def _pair_stream(m: int) -> Iterator[tuple[int, int, int, int]]:
    """(pa, qa, pb, qb) for pair positions m, m+1, ...: the blocks from the
    one holding position m, row by row, each row read from position m on."""
    for pos, qa, qb in _pair_blocks(_pair_weight(m), m):
        for row, pa, pbs, start in _rows(pos, qa, qb):
            if row < m:
                start += m - row  # past the row's end for the rows before m's
            for pb in pbs[start:]:
                yield pa, qa, pb, qb


def _enumeration(n: int) -> Iterator[Interval]:
    """I_n, I_(n+1), ... as open intervals."""
    return (_open(*ends) for ends in _enumeration_ends(n))


def enumerated_interval(n: int) -> Interval:
    """The n-th interval (1-based) of the interleaved enumeration."""
    return next(_enumeration(n))


def enumeration_index(interval: Interval) -> int:
    """Smallest n with I_n equal to the given open interval.

    The dyadic rank is O(1).  The pair rank of the reduced endpoints pa/qa
    and pb/qb sums over the weights below w = qa + qb, in O(w) time and
    memory; it is skipped when it must exceed a dyadic rank.  Size bound:
    ValueError, before any sieve is built, when the pair rank is needed and
    w exceeds 2^16 (at the bound: about 0.07 s, 4 MB peak by ``tracemalloc``).
    """
    if interval.lo_closed or interval.hi_closed:
        raise ValueError("enumerated intervals are open")
    lo, hi, found = interval.lo, interval.hi, []
    level = (hi - lo).denominator.bit_length()
    if hi - lo == Fraction(2, 2**level) and (lo * 2**level).denominator == 1 and 0 <= lo and hi <= 1:
        found.append(2 * (2**level - level + int(lo * 2**level)) - 1)
    qa, qb = lo.denominator, hi.denominator
    # A weight past the one holding pair position D/2 ranks after a dyadic D.
    # So does any w > _MAX_PAIR_WEIGHT: a level-L dyadic has an end over a
    # denominator 2^(L-1), so D < 2^(L+2) < 8w, while the pairs 1/2 < pb/qb alone put
    # sum(phi(q)/2 for 3 <= q < w - 2) > 4w positions below w (phi(q) >= sqrt(q/2)).
    if 0 < lo and hi < 1 and not (found and (qa + qb > _MAX_PAIR_WEIGHT or
                                             qa + qb > _pair_weight(found[0] // 2))):
        if qa + qb > _MAX_PAIR_WEIGHT:
            raise ValueError(f"interval {interval} has endpoint denominators {qa} + {qb} > {_MAX_PAIR_WEIGHT}, "
                             "past the rank's size bound")
        pos = next(pos for pos, a, _ in _pair_blocks(qa + qb) if a == qa)
        position, _, pbs, start = next(row for row in _rows(pos, qa, qb) if row[1] == lo.numerator)
        found.append(2 * (position - start + pbs.index(hi.numerator, start)))
    if not found:
        raise ValueError(f"interval {interval} not found in the enumeration")
    return min(found)


def first_index_inside(window: Interval, min_index: int = 1) -> int:
    """Smallest n >= min_index with I_n contained in the window.

    Exists when the window meets (0,1) in positive length; ValueError
    otherwise.  The dyadic candidate takes one ceiling/floor test per level;
    pair blocks are searched only from the first weight that can fit and
    only while their index stays below the dyadic candidate's.  Size bound:
    ValueError, before any sieve is built, when a pair below the dyadic
    candidate's index may have weight qa + qb > 2^16 (a dyadic index past
    about 2^58: windows about 2^-55 wide or narrower); radius 2^-55 around
    1/3 takes about 0.13 s and 6 MB.
    """
    if not window.is_nontrivial:
        raise ValueError("window must be nontrivial")
    lo, hi = max(window.lo, ZERO), min(window.hi, ONE)  # enumerated intervals lie in (0,1)
    if lo >= hi:
        raise ValueError(f"no enumerated interval lies inside {window}")
    p, q, r, s = lo.numerator, lo.denominator, hi.numerator, hi.denominator  # the window (p/q, r/s)
    n = max(1, min_index)
    m = n // 2 + 1  # the first dyadic position with index >= n
    level = _dyadic(m)[0]
    while (j := max(-((-p << level) // q) + 1, m - 2**level + level + 1)) > (r << level) // s - 1:
        level += 1
    best = 2 * (2**level - level - 1 + j) - 1
    first, stop = (n + 1) // 2, (best + 1) // 2  # pair positions with index in [n, best)
    if first < stop and stop - 1 > _MAX_PAIR_POSITION:
        raise ValueError(f"the first enumerated interval inside {window} may be a pair of weight above "
                         f"{_MAX_PAIR_WEIGHT}, past the search's size bound")
    fit = max(4, isqrt(-(-4 * q * s // (r * q - p * s)) - 1) + 1)  # the least w with w^2 * width >= 4
    if first < stop and fit <= _pair_weight(stop - 1):
        for pos, qa, qb in _pair_blocks(max(fit, _pair_weight(first)), first):
            if pos + 1 >= stop:
                break
            # A block holds a fit only if its least pb/qb above its least pa/qa >= lo is <= hi.
            least = next(_coprimes(-(-p * qa // q) or 1, qa), qa)
            if next(_coprimes(least * qb // qa + 1, qb), qb) <= min(r * qb // s, qb - 1):
                for row, pa, pbs, i in _rows(pos, qa, qb):
                    skip = max(first - row, 0)  # the row's positions before first
                    if row + skip < stop and pa * q >= p * qa and i + skip < len(pbs) and pbs[i + skip] * s <= r * qb:
                        return 2 * (row + skip)
    return best


# ---------------------------------------------------------------------------
# Stages
# ---------------------------------------------------------------------------


class _NoDefault(cached_property):
    """A ``cached_property`` that a dataclass field can be: read on the class
    it raises AttributeError, so the field gets no default."""

    def __get__(self, instance, owner=None):
        if instance is None:
            raise AttributeError(self.attrname)
        return super().__get__(instance, owner)


@dataclass(frozen=True)
class StageRecord:
    """Stage n: the certified gap inside I_n and its n+1 planted pieces.

    A record holds its gap's integer span (a, b, d), ``_span(gap)``, which
    the gap index, ``geometry``, ``saves`` and the load check read.  A build
    makes the record from the span ``_gap_span`` gives, and a load from a
    stage line's integers (``_from_span``); the gap ``Interval`` is then
    built from the span on first read.  ``==``, ``hash``
    and ``repr`` are over (n, gap, depth_used).
    """

    n: int
    gap: Interval  # open (a'_n, b'_n)
    depth_used: int

    def __post_init__(self):
        object.__setattr__(self, "_span", _span(self.gap))

    @classmethod
    def _from_span(cls, n: int, span: tuple[int, int, int], depth_used: int) -> StageRecord:
        """The record whose gap is (a/d, b/d) for span (a, b, d), which must
        be what ``_span`` gives for that gap: d the lcm of the reduced ends'
        denominators."""
        record = object.__new__(cls)
        fields = record.__dict__
        fields["n"], fields["_span"], fields["depth_used"] = n, span, depth_used
        return record

    @_NoDefault
    def gap(self) -> Interval:  # the field's value: set by __init__, or built here from the span
        a, b, d = self._span
        return Interval(Fraction(a, d), Fraction(b, d), False, False)

    @cached_property
    def geometry(self) -> tuple[int, int, int]:
        """(start, step, den): piece i is the open interval
        ((start + i*step)/den, (start + (i+1)*step)/den).

        With the gap (a/d, b/d) as ``_span`` gives it, the endpoint
        gap.lo + i * length/(n+1) is (a*(n+1) + i*(b-a)) / (d*(n+1)).
        """
        a, b, d = self._span
        k = self.piece_count
        return a * k, b - a, d * k

    @property
    def piece_count(self) -> int:
        return self.n + 1

    @property
    def piece_width(self) -> Fraction:
        _, step, den = self.geometry
        return Fraction(step, den)

    def endpoints(self) -> tuple[range, int]:
        """The n+2 piece endpoints as integer numerators over one denominator:
        piece i is the open interval (nums[i]/den, nums[i+1]/den)."""
        start, step, den = self.geometry
        return range(start, start + step * self.piece_count + 1, step), den

    def piece_host(self, i: int) -> Interval:
        if not 0 <= i <= self.n:
            raise IndexError(f"stage {self.n} has pieces 0..{self.n}")
        nums, den = self.endpoints()
        return Interval.open(Fraction(nums[i], den), Fraction(nums[i + 1], den))

    def member_index(self, i: int) -> int:
        """Partition index fed by piece i: pieces 0..n-1 feed A_1..A_n, piece n feeds A_0 (the B set)."""
        return i + 1 if i < self.n else 0

    def piece_for_member(self, k: int) -> int | None:
        """Piece index feeding A_k at this stage, if any."""
        if k == 0:
            return self.n
        if 1 <= k <= self.n:
            return k - 1
        return None


@dataclass(frozen=True)
class PartitionMembership:
    """Certified membership answer: A(k via stage), B(stage), or undecided."""

    kind: str  # "A" | "B" | "undecided"
    k: int | None = None
    stage: int | None = None

    @property
    def decided(self) -> bool:
        return self.kind != "undecided"

    @property
    def member_index(self) -> int | None:
        """Index of the partition member the point is certified to lie in."""
        if self.kind == "A":
            return self.k
        if self.kind == "B":
            return 0
        return None


UNDECIDED_MEMBERSHIP = PartitionMembership("undecided")


@dataclass(frozen=True)
class SplittingCertificate:
    """Witness that 0 < lambda(A_k within window) < lambda(window).

    Both bounds are exact rationals derived from whole planted pieces lying
    inside the window, so the inequalities are machine-checkable.
    """

    k: int
    window: Interval
    stage: int
    piece: int
    lower_bound: Fraction
    complement_member: int
    complement_stage: int
    complement_piece: int
    complement_lower_bound: Fraction

    def render(self) -> str:
        lines = [
            f"splitting certificate for member {self.k} in window {self.window}",
            f"  inner: stage {self.stage} piece {self.piece}"
            f" gives lambda >= {format_rational(self.lower_bound)} > 0/1",
            f"  complement: member {self.complement_member} at stage"
            f" {self.complement_stage} piece {self.complement_piece}"
            f" gives lambda >= {format_rational(self.complement_lower_bound)} > 0/1",
        ]
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# The partition
# ---------------------------------------------------------------------------


_MAX_MEASURE_DEPTH = 64


class SplittingPartition:
    """An immutable prefix of the staged splitting partition of [0,1).

    Built by ``build_partition``; queries are pure and thread-safe.  Queries
    at points outside [0,1) use the fractional part, i.e. the same pattern
    translated over every [m, m+1).
    """

    def __init__(self, gap_cap: Fraction, stages: tuple[StageRecord, ...], translation: int = 0):
        self.gap_cap = gap_cap
        self.translation = translation
        self.stages: tuple[StageRecord, ...] = tuple(stages)
        self._sums: tuple | None = None
        self._tail: Fraction | None = None
        # The gap index as ``cantor._room`` reads it: records sorted
        # by gap.lo, their gap ends over one common denominator _den, and
        # _reach, the running max of _his, which window queries bisect too.
        # One stable sort, so that equal left ends keep stage order as
        # ``_add``'s insertions do.  When every denominator divides the
        # largest by a power of two, as on a build's grid 3*2^k, that one is
        # the lcm and each rescale is a shift.
        spans = [record._span for record in self.stages]
        top = max((d for _, _, d in spans), default=1)
        width = top.bit_length()
        shifts = [width - d.bit_length() for _, _, d in spans]
        if all(d << k == top for (_, _, d), k in zip(spans, shifts)):
            self._den = self._lcm = top
            los = [a << k for (a, _, _), k in zip(spans, shifts)]
            his = [b << k for (_, b, _), k in zip(spans, shifts)]
        else:
            self._den = self._lcm = den = lcm(*(d for _, _, d in spans))
            los = [a * (den // d) for a, _, d in spans]
            his = [b * (den // d) for _, b, d in spans]
        order = sorted(range(len(spans)), key=los.__getitem__)
        self._by_lo = [self.stages[i] for i in order]
        self._los = [los[i] for i in order]
        self._his = [his[i] for i in order]
        self._reach = list(accumulate(self._his, max))

    def _add(self, record: StageRecord) -> None:
        """Append the next stage and index its gap; only for builds and for
        partitions that passed the load check, as its insert relies on the
        nesting rule of "Gap search": every later entry reaches past the gap.

        A gap whose ``_span`` denominator d does not divide ``_den`` rescales
        the index to L * 2^max(64, bits(L)/4), L = ``_lcm`` = lcm(``_lcm``, d),
        so spare bits grow with the gaps' lcm instead of compounding, and a
        build's grid 3*2^k rescales O(log N) times.
        """
        self.stages += (record,)
        self._sums = self._tail = None
        a, b, d = record._span
        if self._den % d:
            self._lcm = top = lcm(self._lcm, d)
            old, self._den = self._den, top << max(64, top.bit_length() // 4)
            for ends in (self._los, self._his, self._reach):
                ends[:] = _rescaled(ends, self._den, old)
        a, b = _rescaled([a, b], self._den, d)
        pos = bisect_right(self._los, a)
        self._by_lo.insert(pos, record)
        self._los.insert(pos, a)
        self._his.insert(pos, b)
        self._reach.insert(pos, max(self._reach[pos - 1], b) if pos else b)

    # -- structure ---------------------------------------------------------

    @property
    def stage_count(self) -> int:
        return len(self.stages)

    def stage(self, n: int) -> StageRecord:
        if not 0 < n <= len(self.stages):
            raise IndexError(f"the partition has stages 1..{self.stage_count}")
        return self.stages[n - 1]

    def piece_set(self, n: int, i: int) -> FatCantorSet:
        return FatCantorSet(self.stage(n).piece_host(i), RETAINED)

    def stages_overlapping(self, window: Interval) -> list[StageRecord]:
        """Built stages whose gap closure meets the window's closure (flags ignored), ascending by n."""
        return self._overlapping(*_inward(window, self._den))

    def _overlapping(self, lo: int, hi: int) -> list[StageRecord]:
        """``stages_overlapping`` of the window [lo, hi] / _den."""
        inside, before = self._meeting(lo, hi)
        by_lo = self._by_lo
        return sorted(by_lo[inside.start:inside.stop] + [by_lo[i] for i in before], key=attrgetter("n"))

    def _meeting(self, lo: int, hi: int) -> tuple[range, list[int]]:
        """The index positions whose gap closure meets [lo, hi] / _den, in
        two parts found by three bisections: the range of gaps starting in
        it, which all meet it, and the few gaps starting before it whose
        right end reaches it.  Those are scanned from the first position
        whose running reach gets to lo, the running-reach rule: a gap that
        reaches a bound has its running reach past that bound at its own
        position, whatever the records.  A window's closure meets the same
        gap closures as its ends rounded inward to the index's grid
        (``_inward``)."""
        start = bisect_left(self._los, lo)
        before = [i for i in range(bisect_left(self._reach, lo), start) if self._his[i] >= lo]
        return range(start, bisect_right(self._los, hi)), before

    def _free_subinterval(self, ends: tuple[int, int, int, int]) -> tuple[tuple[int, int, int, int], int]:
        """Longest open subinterval of the target (p/q, r/s) avoiding all
        planted sets, as its ends in the same form, and the dig depth: the
        room ``cantor._room`` reads off the gap index outside the built gaps'
        closures, which hold every planted set, or, when they tile the
        target, the dig of "Gap search" into the first of ``_overlapping`` the
        target's ends rounded inward, its pieces as integer spans from its
        ``geometry`` and the others' ``_span``s blocked.
        """
        room = _room(self._los, self._reach, self._den, *ends)
        if room is not None:
            return room, 0
        p, q, r, s = ends
        host, *nested = self._overlapping(-(-p * self._den // q), r * self._den // s)
        first, last, _, _ = _span_between(host, *ends)
        start, step, den = host.geometry
        pieces = [(start + i * step, start + (i + 1) * step, den, RETAINED) for i in range(first, last + 1)]
        return _find_gap(pieces, ends, [record._span for record in nested])

    def _prefix_sums(self) -> tuple[int, list[int], list[int], list[int], WeakKeyDictionary]:
        """(den, sums, moments, position, weighted) for the window
        integrator, from one pass over the gap index.

        den is RETAINED.den * _den * L, L the lcm of the piece counts n+1,
        over which stage n's whole-piece mass RETAINED * (hi - lo) /
        (_den * (n+1)) is an integer m, with no geometry built and no mass
        reduced; sums and moments are prefix sums in ``_by_lo`` order of each
        gap's m and of m * n, so gap i's mass is sums[i+1] - sums[i];
        position[n-1] is stage n's index position; weighted is
        ``_weighted``'s map.

        Derived from the immutable stages on first use after construction;
        a race only computes it twice.
        """
        if self._sums is None:
            los, his = self._los, self._his
            counts = lcm(*(record.n + 1 for record in self._by_lo))
            position, sums, moments = [0] * len(los), [0], [0]
            for i, (record, lo, hi) in enumerate(zip(self._by_lo, los, his)):
                n = record.n
                mass = RETAINED.numerator * (counts // (n + 1)) * (hi - lo)
                position[n - 1] = i
                sums.append(sums[-1] + mass)
                moments.append(moments[-1] + mass * n)
            self._sums = (RETAINED.denominator * self._den * counts, sums, moments, position, WeakKeyDictionary())
        return self._sums

    def _weighted(self, key, weights: dict[int, int]) -> list[int]:
        """Prefix sums in ``_by_lo`` order of weights[n+1] times stage n's
        mass, for ``_WindowMass.weighted``; a gap without a weight repeats
        the sum before it, the same object.  Kept for the key, by identity,
        until ``_add``, and dropped with the key; a race only computes it
        twice."""
        _, sums, *_, memo = self._prefix_sums()
        weighted = memo.get(key)
        if weighted is None:
            weighted = [0]
            for record, lo, hi in zip(self._by_lo, sums, sums[1:]):
                w = weights.get(record.n + 1)
                weighted.append(weighted[-1] + w * (hi - lo) if w else weighted[-1])
            memo[key] = weighted
        return weighted

    def unbuilt_tail_bound(self) -> Fraction:
        """Exact upper bound on the total gap length of all unbuilt stages,
        memoized like ``_prefix_sums``."""
        if self._tail is None:
            self._tail = stage_tail_bound(self.stage_count, self.gap_cap)
        return self._tail

    # -- membership ---------------------------------------------------------

    def membership(self, x: Fraction, depth: int = 8) -> PartitionMembership:
        """Tri-state membership for the partition member containing x.

        A certified answer never changes under deeper inspection.  A_0 is a
        complement, so it is only certified via a B piece or at x = 0, the
        single point no enumerated interval can ever reach.
        """
        if depth < 0:
            raise ValueError("depth must be >= 0")
        # The fold of x = p/q into [0, 1) is (p mod q)/q, reduced as x is; an
        # integer translation does not change it.  No answer depends on the
        # order the stages are visited in, so the gaps come in index order.
        x = rational(x)
        q = x.denominator
        p = x.numerator % q
        hit = None
        undecided = False
        for i in chain(*self._meeting(-(-p * self._den // q), p * self._den // q)):
            record = self._by_lo[i]
            span = _span_between(record, p, q, p, q)
            if span is None:
                continue  # a gap end or piece boundary: in no open piece of this stage
            start, step, den = record.geometry
            lo = start + span[0] * step  # x lies inside the open piece, so no host end is excluded
            answer = _containment(lo, lo + step, den, RETAINED, p, q, depth)
            if answer is Containment.IN:
                member = record.member_index(span[0])
                if hit is not None:
                    raise AssertionError("disjointness violated: two stages claim one point")
                hit = PartitionMembership("B" if member == 0 else "A",
                                          0 if member == 0 else member, record.n)
            elif answer is Containment.UNDECIDED:
                undecided = True
        if hit is not None:
            return hit
        if undecided:
            return UNDECIDED_MEMBERSHIP
        if p == 0:
            # Every enumerated interval is an open subset of (0,1), so no
            # stage, built or future, can ever capture the point 0.
            return PartitionMembership("A", 0, None)
        return UNDECIDED_MEMBERSHIP

    # -- measures ------------------------------------------------------------

    def measure_in(self, k: int, window: Interval, tol: Fraction) -> MeasureBound:
        """Certified bound on lambda(A_k within window), width <= tol.

        Windows may extend beyond [0,1); they are folded by integer
        translation.  Raises ToleranceExhausted, naming a stage count that
        suffices, when the tail or depth 64 leaves the bound too wide.
        """
        if k < 0:
            raise ValueError("member index must be >= 0")
        tol = rational(tol)
        if tol <= 0:
            raise ValueError("tolerance must be positive")
        if not window.is_nontrivial:
            return MeasureBound(ZERO, ZERO)
        return _WindowMass(self, window, tol).measure(k, tol)

    def splitting_certificate(self, k: int, window: Interval) -> SplittingCertificate:
        """Exact positive witnesses for both A_k and its complement in window.

        Searches built stages for whole planted pieces inside the window.
        Raises NotYetCovered (with the stage count that will surely suffice)
        when the built prefix does not reach into the window yet, and
        ValueError when no stage ever will: the window misses (0,1).  When
        the prefix does not cover a window narrower than about 2^-55,
        sizing that stage count hits ``first_index_inside``'s size bound,
        so that ValueError ("past the search's size bound") is raised in
        place of NotYetCovered.

        One pass of ``_whole_spans`` over ``stages_overlapping(window)``:
        the positive witness is the first stage whose piece for k lies in
        a..b, and the complement the first whole piece of another member,
        piece a, or a+1 when a is k's piece and a < b.  The pass stops once
        both are found.  A missing k is reported before a missing complement.
        """
        if not window.is_nontrivial:
            raise ValueError("window must be nontrivial")
        positive = complement = None
        for record, a, b in _whole_spans(self.stages_overlapping(window), window):
            n, mine = record.n, record.piece_for_member(k)
            if positive is None and mine is not None and a <= mine <= b:
                positive = (n, mine, _whole_piece_mass(record))
            if complement is None and (mine != a or a < b):
                piece = a + 1 if mine == a else a
                complement = (record.member_index(piece), n, piece, _whole_piece_mass(record))
            if positive is not None and complement is not None:
                return SplittingCertificate(k, window, *positive, *complement)
        raise _not_yet_covered(k, window, complement=positive is not None)


def _whole_spans(overlapping: list[StageRecord], window: Interval) -> Iterator[tuple[StageRecord, int, int]]:
    """(record, a, b) for each listed stage, in order, whose pieces a..b,
    a <= b, lie wholly inside the window: the one whole-piece scan.

    The window's ends are read as integers once, and each stage costs one
    ``_span_between`` on them.  The scan is lazy, so a reader that stops
    after the stage it needs computes no span past it.
    """
    p, q, r, s = _ends(window)
    for record in overlapping:
        span = _span_between(record, p, q, r, s)
        if span is not None and span[2] <= span[3]:
            yield record, span[2], span[3]


def _whole_pieces(
    overlapping: list[StageRecord], members: Iterable[int], window: Interval
) -> dict[int, tuple[int, int, Fraction]]:
    """member -> (stage, piece, rho * width) of the first stage, ascending by
    n, whose piece for that member lies wholly inside the window; the planted
    set on it puts that much of A_member there.

    ``overlapping`` is ``partition.stages_overlapping(window)``, listed once
    for all members.  ``_whole_spans`` gives each stage's whole pieces a..b,
    and ``_members_inside`` names the members they feed, so a stage answers
    every member still missing at once, by one set intersection, with one
    bound, ``_whole_piece_mass``.  The scan stops at the stage that finds the
    last missing member; members no built stage covers are absent from the
    result.
    """
    missing, found = set(members), {}
    for record, a, b in _whole_spans(overlapping, window):
        n = record.n
        inside, zero = _members_inside(a, b, n)
        hits = missing.intersection(inside)
        if zero and 0 in missing:
            hits.add(0)
        if hits:
            bound = _whole_piece_mass(record)
            for j in hits:
                found[j] = (n, j - 1 if j else n, bound)
            missing -= hits
            if not missing:
                break
    return found


def _members_inside(a: int, b: int, n: int) -> tuple[range, bool]:
    """The members fed by stage n's pieces a..b: piece j-1 feeds member j,
    so members a+1..min(b+1, n), and piece n feeds A_0, so 0 when
    a <= b = n (the bool)."""
    return range(a + 1, min(b + 1, n) + 1), a <= b == n


def _whole_piece_mass(record: StageRecord) -> Fraction:
    """rho * width: the mass of the planted set on any one piece of the
    stage, one Fraction from its integer geometry."""
    _, step, den = record.geometry
    return Fraction(RETAINED.numerator * step, RETAINED.denominator * den)


def _first_host(partition: SplittingPartition, member: int) -> FatCantorSet:
    """The planted set on the first piece feeding A_member, ``_first_piece``."""
    record, piece = _first_piece(partition, member)
    return partition.piece_set(record.n, piece)


def _first_piece(partition: SplittingPartition, member: int) -> tuple[StageRecord, int]:
    """(record, piece): the first piece feeding A_member.  Stage n = member
    hosts member n for n >= 1, and member 0 is reached through the B piece
    of stage 1."""
    n = max(member, 1)
    if partition.stage_count < n:
        raise NotYetCovered(f"no stage hosts member {member} yet", needed_stage=n)
    record = partition.stage(n)
    return record, record.piece_for_member(member)


def _not_yet_covered(k: int, window: Interval, complement: bool = False) -> NotYetCovered:
    """Member k, or with ``complement`` a member other than k, has no whole
    piece inside the window yet.  Stage n = first_index_inside(window,
    max(k, 1)) puts all its n+1 >= 2 pieces there, one for each member
    0..n, so it covers both k and another member."""
    missing = f"a member other than {k}" if complement else f"member {k}"
    needed = first_index_inside(window, max(k, 1))
    return NotYetCovered(
        f"no stage covers {missing} inside {window} yet; build at least {needed} stages",
        needed_stage=needed,
    )


def _inward(window: Interval, den: int) -> tuple[int, int]:
    """The window's ends rounded inward to the grid 1/den, as numerators:
    (ceil(window.lo * den), floor(window.hi * den))."""
    lo, hi = window.lo, window.hi
    return -(-lo.numerator * den // lo.denominator), hi.numerator * den // hi.denominator


def _rescaled(numerators: list[int], den: int, d: int) -> list[int]:
    """Numerators over d as numerators over den, a multiple of d: by a
    shift when den is d times a power of two, as on a build's grid 3*2^k."""
    k = den.bit_length() - d.bit_length()
    return [x << k for x in numerators] if d << k == den else [x * (den // d) for x in numerators]


def _unit_range(window: Interval) -> range:
    """The integers m whose unit chunk [m, m+1] meets the window in positive
    length: floor(lo) <= m < ceil(hi), or none for a point."""
    p, q, r, s = _ends(window)
    return range(p // q, -(-r // s)) if p * s < r * q else range(0)


def _chunk_ends(p: int, q: int, r: int, s: int, m: int) -> tuple[int, int, int, int]:
    """The window [p/q, r/s]'s part in [m, m+1], folded into [0, 1], as two
    (numerator, denominator) pairs: (p - m*q)/q clamped to 0/1 and
    (r - m*s)/s clamped to 1/1.  Reduced when p/q and r/s are, as p - m*q
    and q have the common divisors of p and q."""
    lo, hi = p - m * q, r - m * s
    return *((lo, q) if lo > 0 else (0, 1)), *((hi, s) if hi < s else (1, 1))


def _unit_chunk(window: Interval, m: int) -> Interval:
    """The window's part in [m, m+1], folded into [0, 1]."""
    a, b, c, d = _chunk_ends(*_ends(window), m)
    return Interval(Fraction(a, b), Fraction(c, d))


def _span_between(record: StageRecord, p: int, q: int, r: int, s: int) -> tuple[int, int, int, int] | None:
    """(first, last, a, b) for the window [p/q, r/s], q and s positive, or
    None when no piece of the stage meets it.

    Pieces first..last meet the window in positive length, pieces a..b lie
    wholly inside it (none when a > b); only first and last can straddle.
    A window end p/q sits at piece coordinate t = (p*den - start*q) / (step*q)
    of the stage's integer geometry, so each bound is one floor division.
    """
    start, step, den = record.geometry
    lo_num, lo_den = p * den - start * q, step * q
    hi_num, hi_den = r * den - start * s, step * s
    first = max(0, lo_num // lo_den)
    last = min(record.n, -(-hi_num // hi_den) - 1)
    if first > last:
        return None
    return first, last, max(0, -(-lo_num // lo_den)), min(record.n, hi_num // hi_den - 1)


class _WindowMass:
    """The window integrator: built member masses over one window.

    A stage's n+1 pieces share one width and piece i feeds member i+1, so
    the pieces wholly inside a unit chunk form an index range a..b whose
    members each gain rho * width.  Every stage's whole-piece mass is an
    integer over the partition's one mass denominator ``den``
    (``_prefix_sums``), so a stage adds one integer entry pair to a
    difference array over member index, and its share of the aggregate
    ``total`` over all members j >= 1 (A_0 is their complement, so B pieces
    are skipped).  The window's ends are rounded inward to the gap index's
    grid once, so each unit chunk's ends are integers, and the running-reach
    rule of ``SplittingPartition._meeting`` splits the chunk's gaps in two.
    Those whose closure lies in the chunk, an index range less a few
    positions, have a..b = 0..n: each adds its mass at member 1 and takes it
    back at n+1, and their sums are differences of the partition's prefix sums
    (``whole``).  The few others each call ``_span_between`` (floor
    division on its ``StageRecord.endpoints``) on the chunk's integer ends,
    (p - m*q)/q and (r - m*s)/s for the window [p/q, r/s] and chunk m,
    clamped to 0/1 and 1/1 (``_chunk_ends``); ``_members_inside`` names the
    members its whole pieces feed.  The at most two pieces per stage and
    chunk straddling a chunk edge are kept as ``straddlers`` (set, chunk,
    member) for ``_depths``, the one depth loop, which re-measures
    only them; the chunk's ``Interval``, ``_unit_chunk``'s, is built once
    for them.  A member without one keeps its exact mass, an integer over
    ``den`` until ``bounded`` bounds it.  ``length`` is the window's length.
    Cost: per window two inward roundings and one cross-multiplied tail
    test; per chunk four bisections and two scans, and for each gap they
    find one ``_span_between`` on integers: ``_meeting``'s scan of the gaps
    starting before the chunk, and by the same rule a scan of those starting
    in it from the first whose running reach passes its hi.  Over random
    windows on the 2^-12 grid a scan visits about 1 to 4 positions at 100 to
    500 stages and 34 at 4000, at most 386 there, inside stage 1's closure,
    which holds 385 nested gaps.  O(1) per chunk for each ``step``;
    for ``exact`` up to member j, O(j) position checks per chunk and one
    sort of the entries found; O(1) per chunk and per straddled
    entry for ``weighted``; then per depth O(1) integer pieces per
    straddler, one step of its ``cantor._MeasureSteps`` walk.  The
    partition's prefix sums cost O(N) once (``_prefix_sums``).

    Raises ToleranceExhausted when the unbuilt stages alone force width
    scale * tail >= tol, or depth 64 leaves the bound wider than tol,
    naming ``_sufficient_stages`` for limit; limit * tail (default
    scale * tail) is the width the caller's bound tends to with depth.
    """

    def __init__(self, partition: SplittingPartition, window: Interval, tol: Fraction,
                 scale: Fraction = ONE, limit: Fraction | None = None):
        self.tail = tail = partition.unbuilt_tail_bound()
        self._needed = lambda: _sufficient_stages(partition.stage_count, partition.gap_cap,
                                                  scale if limit is None else limit, tol)
        if (scale.numerator * tail.numerator * tol.denominator
                >= tol.numerator * scale.denominator * tail.denominator):  # scale * tail >= tol
            raise ToleranceExhausted(
                f"the unbuilt-stage tail forces width {scale * tail} >= tolerance {tol};"
                f" rebuild with at least {self._needed()} stages"
            )
        self.den, self._sums, moments, self._position = partition._prefix_sums()[:4]
        self.length = window.length
        self.straddlers: list[tuple[FatCantorSet, Interval, int]] = []
        self._chunks: list[tuple[int, int, list[int]]] = []  # _meeting's range and the gaps in it passing hi
        self._steps = steps = defaultdict(int)  # the difference array less the whole gaps' entries past 1
        total = 0
        self._by_lo, grid = partition._by_lo, partition._den
        window_lo, window_hi = _inward(window, grid)
        ends = _ends(window)
        reach, his = partition._reach, partition._his
        for m in _unit_range(window):  # _unit_chunk's chunk m, on the index's grid
            lo, hi = max(window_lo - m * grid, 0), min(window_hi - m * grid, grid)
            inside, before = partition._meeting(lo, hi)
            after = [i for i in range(max(inside.start, bisect_left(reach, hi + 1)), inside.stop) if his[i] > hi]
            self._chunks.append((inside.start, inside.stop, after))
            chunk_ends, chunk = _chunk_ends(*ends, m), None
            for i in before + after:
                record, mass = self._by_lo[i], self._sums[i + 1] - self._sums[i]
                n = record.n
                span = _span_between(record, *chunk_ends)
                if span is None:
                    continue
                first, last, a, b = span
                inside, _ = _members_inside(a, b, n)
                if inside:
                    total += mass * len(inside)
                    steps[inside.start] += mass
                    steps[inside.stop] -= mass
                for piece in {first, last}:
                    member = record.member_index(piece)
                    if member and not a <= piece <= b:
                        chunk = chunk or _unit_chunk(window, m)
                        self.straddlers.append((partition.piece_set(n, piece), chunk, member))
        steps[1] += self.whole(self._sums)
        self.total = total + self.whole(moments)

    def whole(self, sums: list[int]) -> int:
        """The sum of a per-gap number over the gaps whose closure lies in a
        chunk, from sums, its prefix sums in ``_by_lo`` order: per chunk one
        difference less the entries of its few gaps that are not whole."""
        return sum(sums[stop] - sums[start] - sum(sums[i + 1] - sums[i] for i in inner)
                   for start, stop, inner in self._chunks)

    def step(self, j: int) -> int:
        """exact[j] - exact[j-1], a numerator over ``den``: the straddled
        stages' entry, less stage j-1's mass for each chunk holding its
        closure, which the entry at 1 holds."""
        step = self._steps.get(j, 0)
        if 2 <= j <= len(self._position) + 1:
            p, sums = self._position[j - 2], self._sums
            chunks = sum(start <= p < stop and p not in inner for start, stop, inner in self._chunks)
            step -= (sums[p + 1] - sums[p]) * chunks
        return step

    def exact(self, members: set[int]) -> dict[int, int]:
        """Each member's whole-piece mass, a numerator over ``den``: a prefix
        sum of ``step``, which is 0 past member N + 1.

        Up to the largest member j, each chunk's whole gaps of stages below j
        are found by walking those stages' positions, and one sort orders
        the difference array's entries.
        """
        top = min(max(members, default=0), len(self._position) + 1)
        below = self._position[:max(top - 1, 0)]  # the positions of stages 1..top-1
        entries, sums = defaultdict(int, self._steps), self._sums
        for start, stop, inner in self._chunks:
            for n, i in enumerate(below, 1):
                if start <= i < stop and i not in inner:
                    entries[n + 1] -= sums[i + 1] - sums[i]
        exact, running, at, entries = {}, 0, 0, sorted(entries.items())
        for member in sorted(members):
            while at < len(entries) and entries[at][0] <= member:
                running += entries[at][1]
                at += 1
            exact[member] = running
        return exact

    def weighted(self, weights: dict[int, int], sums: list[int]) -> int:
        """The sum over members j of weights[j] * step(j), for sums
        ``SplittingPartition._weighted`` gives for the weights: each whole gap
        of stage n takes its mass back at n + 1, which sums to ``whole(sums)``,
        and the other entries are few."""
        return sum(weights.get(j, 0) * step for j, step in self._steps.items()) - self.whole(sums)

    def _depths(self, exact: dict[int, int]) -> Iterator[tuple[dict[int, tuple[int, int]], int, int, int]]:
        """The depth loop: for depth 0..64, (masses, length, tail, den), each
        number a numerator over den.

        masses maps each member of exact to its built (lo, hi): exact's
        numerator over ``den`` (``exact``'s, or one the bound only reads
        differences of) plus its straddlers'.  Member 0 gets the A_0 bound
        (max(0, L - hi_sum - tail), L - lo_sum) over all members, whose
        width is the mass no member accounts for yet.  Only the straddlers of
        exact's members are measured, all for member 0, each by a
        ``_MeasureSteps`` walk one step deeper per depth.  den is the lcm of
        ``den``, the length's and tail's denominators and the walks' depth-0
        dens, times 4^depth, as a walk's den gains 4 per step.
        """
        everything = 0 in exact
        walks = [(_MeasureSteps(cantor_set, chunk), member) for cantor_set, chunk, member in self.straddlers
                 if everything or member in exact]
        length, tail = self.length, self.tail
        den = lcm(self.den, length.denominator, tail.denominator, *(walk.den for walk, _ in walks))
        walks = [(walk, member, den // walk.den) for walk, member in walks]
        scale = den // self.den
        exact = {j: m * scale for j, m in exact.items()}
        total = self.total * scale if everything else 0
        length, tail = length.numerator * (den // length.denominator), tail.numerator * (den // tail.denominator)
        for depth in range(_MAX_MEASURE_DEPTH + 1):
            shift = 2 * depth
            masses = {j: (m << shift, m << shift) for j, m in exact.items()}
            lo_sum = hi_sum = total << shift
            for walk, member, factor in walks:
                if depth:
                    walk.deeper()
                lo, hi, _ = walk.bound()
                lo, hi = lo * factor, hi * factor
                lo_sum += lo
                hi_sum += hi
                if member in masses:
                    m_lo, m_hi = masses[member]
                    masses[member] = (m_lo + lo, m_hi + hi)
            if everything:
                masses[0] = (max(0, (length << shift) - hi_sum - (tail << shift)), (length << shift) - lo_sum)
            yield masses, length << shift, tail << shift, den << shift

    def bounded(self, exact: dict[int, int], tol: Fraction, bound: Callable) -> tuple[Fraction, Fraction]:
        """The ends of bound(masses, length, tail, den) = (lo, hi, den') at
        the first depth of ``_depths(exact)`` where (hi - lo) / den' <= tol."""
        for step in self._depths(exact):
            lo, hi, den = bound(*step)
            if (hi - lo) * tol.denominator <= tol.numerator * den:
                return Fraction(lo, den), Fraction(hi, den)
        raise self._exhausted(tol)

    def _exhausted(self, tol: Fraction) -> ToleranceExhausted:
        return ToleranceExhausted(
            f"could not reach tolerance {tol} by depth {_MAX_MEASURE_DEPTH + 1};"
            f" rebuild with at least {self._needed()} stages"
        )

    def measure(self, k: int, tol: Fraction) -> MeasureBound:
        """Bound on lambda(A_k within the window), refined until width <= tol."""
        if k == 0:
            return MeasureBound(*self.bounded({0: 0}, tol, lambda masses, length, tail, den: (*masses[0], den)))
        return MeasureBound(*self.bounded(self.exact({k}), tol, lambda masses, length, tail, den: (
            masses[k][0], min(length, masses[k][1] + tail), den)))


def _sufficient_stages(built: int, gap_cap: Fraction, limit: Fraction, tol: Fraction) -> int:
    """Smallest stage count M above built with limit * stage_tail_bound(M, gap_cap) < tol."""
    # stage_tail_bound(M) >= 2^-max(M, switch - 1) / 3: once j passes the
    # switch no M below j can do, and before it the search is short.
    j = _halving_exponent(3 * tol / limit) if limit else 0
    switch = _halving_exponent(gap_cap)
    needed = max(built + 1, j if j >= switch else 0)
    while limit * stage_tail_bound(needed, gap_cap) >= tol:
        needed += 1
    return needed


def _halving_exponent(bound: Fraction) -> int:
    """Smallest j >= 0 with 2^-j <= bound, for bound > 0."""
    return ((bound.denominator - 1) // bound.numerator).bit_length()


def stage_tail_bound(built: int, gap_cap: Fraction) -> Fraction:
    """Exact value of sum over n > built of min(gap_cap, 2^-n)/3.

    The minimum switches branches at the smallest n with 2^-n <= gap_cap;
    before it each term is gap_cap, after it the geometric tail sums to
    2^-(switch-1).
    """
    start = max(built + 1, _halving_exponent(gap_cap))
    total = (start - built - 1) * gap_cap + Fraction(1, 2 ** (start - 1))
    return total / 3


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------


def build_partition(stages: int, gap_cap: Fraction = ONE) -> SplittingPartition:
    """Build the deterministic partition prefix with the given stage count.

    Bit-for-bit reproducible from (stages, gap_cap): the enumeration, the
    gap search, the shrink rule, and the piece layout are all deterministic.
    gap_cap is coerced by ``rational``, so a float raises TypeError.
    """
    if stages < 1:
        raise ValueError("at least one stage is required")
    gap_cap = rational(gap_cap)
    if not (0 < gap_cap <= 1):
        raise ValueError("gap_cap must lie in (0, 1]")
    return extend_partition(SplittingPartition(gap_cap, ()), stages)


def extend_partition(partition: SplittingPartition, stages: int) -> SplittingPartition:
    """Deterministic continuation; extend(build(N), M) equals build(M).

    Returns a new partition; the one passed in is left as it was.  Each
    stage, a dig too, runs on integers from end to end: I_n's ends from
    ``_enumeration_ends``, the room from ``_free_subinterval``, the gap's
    span from ``_gap_span``, and a record from that span, whose gap
    ``Interval`` is built only when something reads it.  A stage builds at
    most one ``Fraction``, the bound ``_halving_exponent`` reads.
    """
    if stages <= partition.stage_count:
        return partition
    grown = SplittingPartition(partition.gap_cap, partition.stages, partition.translation)
    start = partition.stage_count + 1
    for n, target in zip(range(start, stages + 1), _enumeration_ends(start)):
        found, depth_used = grown._free_subinterval(target)
        grown._add(StageRecord._from_span(n, _gap_span(*found, n, grown.gap_cap), depth_used))
    return grown


def _gap_span(a: int, b: int, e: int, d: int, n: int, gap_cap: Fraction) -> tuple[int, int, int]:
    """The span, as ``_span`` gives it, of the gap (j, c) of "Gap sizing"
    above inside the found interval (a/b, e/d), b, d > 0.

    The bound for j is the least of the length (e*b - a*d)/(b*d), 2^-n and
    gap_cap, picked by cross-multiplying; only it is passed to
    ``_halving_exponent``, as a ``Fraction``.  The gap's ends 3c - 8 and
    3c + 8 over 3*2^(j+4) are reduced by their one ``gcd`` with that
    denominator, which gives ``_span``'s lcm of the reduced ends'
    denominators.
    """
    num, den = e * b - a * d, b * d
    if num << n > den:
        num, den = 1, 1 << n
    p, q = gap_cap.numerator, gap_cap.denominator
    j = _halving_exponent(gap_cap if num * q > p * den else Fraction(num, den))
    c = ((a * d + e * b) << j + 3) // (b * d)
    lo, hi, grid = 3 * c - 8, 3 * c + 8, 3 << j + 4
    if not (a * grid < lo * b and hi * d < e * grid):
        raise AssertionError(f"gap {_open(lo, grid, hi, grid)} escaped its free interval {_open(a, b, e, d)}")
    g = gcd(lo, hi, grid)
    return lo // g, hi // g, grid // g


# ---------------------------------------------------------------------------
# Serialization: SPLITPART v1 and v2
#
# Both versions start with a header line and a gap_cap/translation/stages
# line.  A v2 file then holds one ``n=... gap=lo,hi depth=...`` line per
# stage, which fixes the stage completely, and a last ``sha256=<hex>`` line
# over the stage lines, each ending in a newline.  A v1 stage line carries
# the same three tokens followed by the n+1 planted sets, every one of which
# follows from the gap, so a v1 load must find exactly those.  ``saves``
# writes v1 unless asked for v2; ``clarkesat build`` writes v2; ``loads``
# reads both and trusts nothing: each stage it reads must be one a build
# could have placed after the stages before it.
# ---------------------------------------------------------------------------


def saves(partition: SplittingPartition, *, version: int = 1) -> str:
    """The partition as SPLITPART text: version 1 (the default) or 2.

    A v1 file lists every planted set, so it grows with the O(N^2) planted
    pieces (about 55 MB at 500 stages); a v2 file holds one line per stage
    and grows with the O(N) stages (about 630 KB at 1000).  A number longer
    than the caller's limit on int/str conversion raises ValueError, as in
    ``loads``.
    """
    if type(version) is not int or version not in (1, 2):  # True == 1 and 2.0 == 2
        raise ValueError(f"no SPLITPART version {version}; versions are 1 and 2")
    lines = [
        f"SPLITPART v{version}",
        f"gap_cap={format_rational(partition.gap_cap)} translation={partition.translation}"
        f" stages={partition.stage_count}",
    ]
    for record in partition.stages:
        a, b, d = record._span
        line = f"n={record.n} gap={_reduced(a, d)},{_reduced(b, d)} depth={record.depth_used}"
        lines.append(" ".join([line, *_set_records(record)]) if version == 1 else line)
    if version == 2:
        lines.append(f"sha256={_digest(lines[2:])}")
    return "\n".join(lines) + "\n"


def _digest(stage_lines: list[str]) -> str:
    return _region_digest("".join(line + "\n" for line in stage_lines))


def _region_digest(region: str) -> str:
    """The sha256 hex digest of a v2 stage region: its stage lines, each
    ending in a newline."""
    # Imported here: hashlib loads OpenSSL, about 3.6 MB of resident memory
    # that a process which never writes or reads a v2 file need not pay.
    from hashlib import sha256

    return sha256(region.encode("ascii")).hexdigest()


def _set_records(record: StageRecord) -> list[str]:
    """The stage's planted sets as v1 writes them, all implied by its gap.

    Each of the n+2 endpoints is reduced and formatted once, straight from
    the integer form of ``StageRecord.endpoints``.
    """
    nums, den = record.endpoints()
    ends = [_reduced(num, den) for num in nums]
    kinds = [f"T {i + 1}" for i in range(record.n)] + ["B"]
    return [f"{kind} {lo},{hi} {CANONICAL_SCHEDULE}" for kind, lo, hi in zip(kinds, ends, ends[1:])]


def _reduced(num: int, den: int) -> str:
    """num/den, den > 0, as ``format_rational`` writes it, reduced by one ``gcd``."""
    g = gcd(num, den)
    return f"{num // g}/{den // g}"


def loads(text: str, stages: int | None = None) -> SplittingPartition:
    """Parse and check SPLITPART v1 or v2; every malformed input raises ValueError.

    A v2 file's sha256 line must match its stage lines; a v1 stage line's
    set records must be the ones its gap implies.  Lines are those
    ``str.splitlines`` finds, blank ones skipped (``_line_text``).  Each
    stage line becomes a ``StageRecord``, a canonical v2 line through one
    regular expression, straight from its integers (``_canonical_stage``,
    which reduces nothing on the 3*2^k grid), and any other through
    ``_parse_stage_line``; ``_check_gap`` tests its shape as it is read.
    The records before the first bad line are then indexed, the rescale to
    the index's one denominator a shift per end on that grid, and
    ``_check_covers`` tests each against the earlier stages on the index's
    integers, so a bad line's error waits for the cover tests of the lines
    above it.  No stage check builds a ``Fraction`` or the gap ``Interval``;
    only an error message does.  A non-ASCII character in a v2 stage line
    raises ValueError naming its offset.

    With ``stages`` = m, only stage lines 1..min(m, declared) are read,
    checked and indexed, and the partition holds those stages; the header,
    the declared stage count and a v2 file's sha256 line are still checked
    over every line.  For a text as ``saves`` writes it, that is one sha256
    of the stage lines and one count of their newlines, then per-stage work
    for the m stages read; any other text is first split on every line end
    and rejoined.  ``_check_cover`` tests a stage only against the stages
    before it, so the prefix of a valid file is the partition of its first
    stages, while a bad line past the prefix goes unseen.  The ``cli``
    module docstring states which prefix each ``clarkesat`` command reads,
    and when it checks the whole file.

    A number longer than the caller's limit on int/str conversion
    (``sys.get_int_max_str_digits``, 4,300 digits by default) raises a
    ValueError that names the limit; the library keeps that limit, and the
    ``clarkesat`` command lifts it while it runs.
    """
    if stages is not None and stages < 0:
        raise ValueError("stages must be >= 0")
    lines = _line_text(text)
    head = lines.find("\n") + 1  # where the header line starts
    version = {"SPLITPART v1": 1, "SPLITPART v2": 2}.get(lines[:head - 1])
    if version is None:
        raise ValueError("not a SPLITPART v1 or v2 file")
    body = lines.find("\n", head) + 1  # where the stage lines start
    if not body:
        raise ValueError("SPLITPART file ends before its header line")
    header = _fields(lines[head:body - 1].split(), ("gap_cap", "translation", "stages"), "header")
    gap_cap = _parsed(header, "gap_cap", parse_rational, "a rational", "header")
    if not 0 < gap_cap <= 1:
        raise ValueError(f"SPLITPART header gap_cap {header['gap_cap']} is not in (0, 1]")
    declared = _parsed(header, "stages", int, "an integer", "header")
    end = len(lines)
    if version == 2:
        end = max(lines.rfind("\n", body, end - 1) + 1, body)  # where the last line starts
        if not lines.startswith("sha256=", end):
            raise ValueError("SPLITPART v2 file lacks its closing sha256= line")
        region = lines[body:end]
        try:
            digest = _region_digest(region)
        except UnicodeEncodeError as exc:
            raise _non_ascii(text, region, exc.start) from None
        if lines[end:-1] != f"sha256={digest}":
            raise ValueError("SPLITPART v2 sha256= line does not match its stage lines")
    if (count := lines.count("\n", body, end)) != declared:
        raise ValueError(f"expected {declared} stages, found {count}")
    translation = _parsed(header, "translation", int, "an integer", "header")
    read = declared if stages is None else min(stages, declared)
    records, failure = [], None
    for position, (line, target) in enumerate(zip(lines.split("\n", read + 2)[2:read + 2], _enumeration_ends(1)), 1):
        try:
            record = ((_canonical_stage(line) if version == 2 else None)
                      or _parse_stage_line(line, f"stage line {position}", version))
            _check_gap(record, position, target, gap_cap)
        except ValueError as exc:
            failure = exc
            break
        records.append(record)
    partition = SplittingPartition(gap_cap, tuple(records), translation)
    _check_covers(partition)
    if failure is not None:
        raise failure
    return partition


_LINE_ENDS = "\r\v\f\x1c\x1d\x1e"  # where str.splitlines ends an ASCII line, besides \n
_BLANK_LINE = re.compile(r"\n[ \t\x1f]*\n")  # a blank line after the first, given no _LINE_ENDS


def _line_text(text: str) -> str:
    """The text's lines as ``loads`` reads them: those ``str.splitlines``
    finds that hold more than whitespace, each ending in a newline.

    That is the text itself when it is ASCII, ends in a newline, has no
    other line end, and neither starts with a blank line nor holds one, as
    ``saves`` writes it; so only another text is split and joined."""
    if (text.isascii() and text.endswith("\n") and text[0] not in " \t\n\x1f"
            and not any(end in text for end in _LINE_ENDS) and _BLANK_LINE.search(text) is None):
        return text
    return "".join(line + "\n" for line in text.splitlines() if line.strip())


def _non_ascii(text: str, region: str, at: int) -> ValueError:
    """The error for the non-ASCII character at offset ``at`` of the stage
    lines ``region``, which start at the text's third line that is not
    blank; it names the character's offset in the text."""
    row, column = 2 + region.count("\n", 0, at), at - region.rfind("\n", 0, at) - 1
    raw = text.splitlines(keepends=True)
    starts = [start for start, line in zip(accumulate(map(len, raw), initial=0), raw) if line.strip()]
    return ValueError(f"SPLITPART file holds a non-ASCII character {region[at]!r} at offset {starts[row] + column}")


_STAGE_LINE = re.compile(r"n=([0-9]+) gap=([0-9]+)/([0-9]+),([0-9]+)/([0-9]+) depth=([0-9]+)")


def _canonical_stage(line: str) -> StageRecord | None:
    """The record of a line ``n=n gap=a/b,c/d depth=depth`` in decimal digits
    with b, d > 0 and a/b < c/d; None for any other line, whose record or
    error ``_parse_stage_line`` gives.  The record is built from its span:
    each end reduced as ``Fraction`` reduces it, over the lcm of their
    denominators.

    Where the line's integers already are that span, the span is read off
    them: both ends over one d = 3*2^k, the grid every built gap lies on
    (d is 3 shifted by its bit length less 2), with gcd(a, c, d) = 1, which
    on that grid is one parity test and one test mod 3 (a, c or d odd, a
    or c prime to 3).  That is every line ``saves`` writes whose two ends
    reduce to one denominator, 198 of 200 at 200 stages.  Any other line
    takes two ``gcd``s and an ``lcm``, as an unreduced "10/24,14/24" or an
    end over 4.
    """
    match = _STAGE_LINE.fullmatch(line)
    if match is None:
        return None
    n, a, b, c, d, depth = match.groups()
    one_denominator = b == d  # as written, so that it is read once
    try:
        n, a, c, d, depth = int(n), int(a), int(c), int(d), int(depth)
        b = d if one_denominator else int(b)
    except ValueError:  # more digits than int() converts: the generic parser words the error
        return None
    if one_denominator and d > 2 and a < c and d == 3 << (d.bit_length() - 2) and (a | c | d) & 1 and (a % 3 or c % 3):
        return StageRecord._from_span(n, (a, c, d), depth)
    if not (b and d and a * d < c * b):
        return None
    g, h = gcd(a, b), gcd(c, d)
    a, b, c, d = a // g, b // g, c // h, d // h
    den = lcm(b, d)
    return StageRecord._from_span(n, (a * (den // b), c * (den // d), den), depth)


def _fields(tokens: list[str], keys: tuple[str, ...], where: str) -> dict[str, str]:
    fields = {}
    for token in tokens:
        key, sep, value = token.partition("=")
        if not sep:
            raise ValueError(f"SPLITPART {where} token {token!r} is not key=value")
        fields[key] = value
    missing = [key + "=" for key in keys if key not in fields]
    if missing:
        raise ValueError(f"SPLITPART {where} lacks {', '.join(missing)}")
    return fields


def _parsed(fields: dict[str, str], key: str, parse, what: str, where: str):
    """The parsed value of one key=value field; a bad one names the file part
    and the token, and a number past the caller's int/str digit limit names
    that limit instead."""
    try:
        return parse(fields[key])
    except ValueError as exc:
        if "integer string conversion" in str(exc):  # int() past sys.get_int_max_str_digits()
            raise ValueError(f"SPLITPART {where}: {key}= holds a number past the int/str digit limit: {exc}") from None
        raise ValueError(f"SPLITPART {where}: {key}={fields[key]!r} is not {what}") from None


def _open_gap(text: str) -> Interval:
    lo, hi = map(parse_rational, text.split(","))
    return Interval(lo, hi, False, False)


def _parse_stage_line(line: str, where: str, version: int) -> StageRecord:
    tokens = line.split()
    fields = _fields(tokens[:3], ("n", "gap", "depth"), where)
    n = _parsed(fields, "n", int, "an integer", where)
    gap = _parsed(fields, "gap", _open_gap, "an open interval lo,hi with lo < hi", where)
    record = StageRecord(n, gap, _parsed(fields, "depth", int, "an integer", where))
    if version == 2 and len(tokens) != 3:
        raise ValueError(f"stage {n} line: a v2 stage line holds only n=, gap= and depth=")
    # Count first: n pieces of 4 tokens and one of 3 follow, and a corrupt n must
    # not make the comparison generate its records.
    if version == 1 and (len(tokens) != 4 * n + 6 or " ".join(tokens[3:]) != " ".join(_set_records(record))):
        raise ValueError(f"stage {n} line: its set records are not the ones its gap implies")
    return record


def _check_gap(record: StageRecord, expected: int, target: tuple[int, int, int, int], gap_cap: Fraction) -> None:
    """Raise ValueError unless the record has the shape a build gives stage ``expected``.

    Stages come numbered 1..N; the gap lies strictly inside I_n = (p/q, r/s),
    the target; its length is 1/(3*2^j) with 2^-j <= min(2^-n, gap_cap) and
    its midpoint lies on the 2^-(j+4) grid (``_gap_span``); depth is one
    ``find_gap`` tries, or 0.  Every test compares integers read from the
    record's span (a/d, b/d); only a message builds the gap.
    """
    n = record.n
    if n != expected:
        raise ValueError(f"stage {n} line: expected stage {expected}")
    a, b, d = record._span
    p, q, r, s = target
    if not (p * d < a * q and b * s < r * d):
        raise ValueError(f"stage {n}: gap {record.gap} does not lie strictly inside I_{n} = {_open(*target)}")
    width = b - a
    whole, part = divmod(d, width)  # the length is 1/whole when part is 0
    grid, rem = divmod(whole, 3)  # 2^j when the length is 1/(3*2^j)
    if part or rem or grid & (grid - 1) or grid >> n == 0 or gap_cap.denominator > grid * gap_cap.numerator:
        raise ValueError(
            f"stage {n}: gap length {record.gap.length} is not 1/(3*2^j) with 2^-j <= min(2^-{n}, gap_cap)"
        )
    if (a + b) * 8 % (3 * width):  # the midpoint (a + b)/(2d) times 2^(j+4), with d = 3 * 2^j * width
        raise ValueError(f"stage {n}: gap midpoint {record.gap.midpoint} is off the 2^-{grid.bit_length() + 3} grid")
    depth = record.depth_used
    if depth and depth not in _GAP_DEPTHS:
        raise ValueError(f"stage {n}: depth {depth} is not a depth the gap search tries")


def _check_covers(partition: SplittingPartition) -> None:
    """``_check_cover`` for each stage in order: the first failing one raises.

    Each stage's earlier meeting stages are ``_overlapping`` its gap's ends
    in the index, the integers ``stages_overlapping`` would round the gap
    to, kept to the stages numbered below it.  A closure that no
    closure before it in the index reaches (``_reach``) and inside which the
    next one does not start meets no other closure: such a stage, most of
    them, needs no query.
    """
    los, his, reach = partition._los, partition._his, partition._reach
    reached = [False, *map(ge, reach, los[1:])]  # a closure before position j reaches it
    holds_next = [*map(ge, his, los[1:]), False]  # the next position starts inside j's closure
    meeting = {}
    for j in compress(range(len(los)), map(or_, reached, holds_next)):
        n = partition._by_lo[j].n
        meeting[n] = [r for r in partition._overlapping(los[j], his[j]) if r.n < n]
    for record in partition.stages:
        earlier = meeting.get(record.n, [])
        if earlier or record.depth_used:  # else _check_cover has nothing to test
            _check_cover(record, earlier)


def _check_cover(record: StageRecord, earlier: list[StageRecord]) -> None:
    """Raise ValueError unless the record's gap sits as ``find_gap`` leaves it
    among ``earlier``, the stages before it whose gap closures meet its own.

    depth_used is 0 exactly when there are none; the closure misses every
    piece cover, at depth_used, of each earlier stage it meets; and it
    meets one at each shallower depth ``find_gap`` tries, since
    ``find_gap`` returns the first depth that exposes a gap.  Every test
    reads the gap's span (a/d, b/d) (``_span_meets``); only a message
    builds the gap.
    """
    n, depth = record.n, record.depth_used
    if not earlier:
        if depth:
            raise ValueError(f"stage {n}: depth {depth} > 0, but its gap meets no earlier gap")
        return
    a, b, d = record._span
    pieces = [(other, i) for other in earlier for i in _pieces_touching(other, a, d, b, d)]
    for other, i in pieces:
        if _span_meets(other, i, a, b, d, depth):
            raise ValueError(f"stage {n}: gap {record.gap} meets the depth-{depth} cover of stage {other.n} piece {i}")
    for shallower in _GAP_DEPTHS[:_GAP_DEPTHS.index(depth)] if depth else ():
        if not any(_span_meets(other, i, a, b, d, shallower) for other, i in pieces):
            raise ValueError(f"stage {n}: depth {depth}, but its gap misses every depth-{shallower} cover")


def _span_meets(record: StageRecord, i: int, a: int, b: int, d: int, depth: int) -> bool:
    """Whether the depth-d cover of the stage's piece i meets [a/d, b/d],
    d > 0, on the stage's integer geometry: piece i is [start + i*step,
    start + (i+1)*step] over den."""
    start, step, den = record.geometry
    lo = start + i * step
    return next(_cover_walk(lo, lo + step, den, RETAINED, (a, d, b, d), depth, whole=True), None) is not None


def _pieces_touching(record: StageRecord, a: int, b: int, c: int, d: int) -> range:
    """The pieces of the stage whose closures meet [a/b, c/d], b, d > 0.

    Unlike ``_span_between``'s first..last a piece that only touches counts: a
    point x sits at piece coordinate t = (x*den - start) / step of the
    integer geometry, and piece i's closure meets [x, y] when
    t(x) - 1 <= i <= t(y).
    """
    start, step, den = record.geometry
    first = -(-(a * den - start * b) // (step * b)) - 1
    last = (c * den - start * d) // (step * d)
    return range(max(0, first), min(record.n, last) + 1)


def save(partition: SplittingPartition, path, *, version: int = 1) -> None:
    """``saves``, then the file: an error in ``saves`` leaves a file as it was."""
    text = saves(partition, version=version)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)


def load(path, stages: int | None = None) -> SplittingPartition:
    """``loads(text, stages)`` of the file's text, read whole with its line
    ends as they are.  A byte that is not ASCII raises ValueError naming its
    offset."""
    try:
        with open(path, "r", encoding="ascii", newline="") as fh:  # line ends as they are
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ValueError(f"SPLITPART file holds a non-ASCII byte {exc.object[exc.start]:#04x} at offset {exc.start}") from None
    return loads(text, stages)


# ---------------------------------------------------------------------------
# Structural checks (used by tests and the acceptance suite)
# ---------------------------------------------------------------------------


def hosts_pairwise_disjoint(partition: SplittingPartition) -> bool:
    """Exact check that the gaps of all stages, hence all planted hosts, are pairwise disjoint.

    Hosts within a stage are contiguous open pieces, disjoint by
    construction.  Across stages this holds only while every gap avoids the
    closures of all earlier gaps.  Once the closures tile some I_n (stage 37
    at gap_cap 1) the new gap nests inside a removed middle of an earlier
    piece, certified at its ``depth_used``, and this returns False although
    the planted sets stay disjoint.  By left end, each gap must start at or
    after the running max of the right ends before it, ``_reach``.
    """
    return all(map(ge, partition._los[1:], partition._reach))


def planted_sets_pairwise_disjoint(partition: SplittingPartition) -> bool:
    """Whether every stage is one a build could place after the stages before it.

    Runs the load check: ``_check_gap`` on each stage, then the one cover
    loop ``_check_covers`` over the partition's own index.  A stage passing
    it has a gap that misses every earlier gap closure, or one dug at
    ``depth_used`` out of earlier stages' removed middles, clear of their
    depth-``depth_used`` piece covers; either way its planted sets miss
    every earlier stage's.  Unlike ``hosts_pairwise_disjoint`` this stays
    True once gaps nest (stage 37 at gap_cap 1).
    """
    try:
        for position, (record, target) in enumerate(zip(partition.stages, _enumeration_ends(1)), 1):
            _check_gap(record, position, target, partition.gap_cap)
        _check_covers(partition)
    except ValueError:
        return False
    return True


def membership(p: SplittingPartition, x: Fraction, depth: int = 8) -> PartitionMembership:
    return p.membership(x, depth)


def measure_in(p: SplittingPartition, k: int, window: Interval, tol: Fraction) -> MeasureBound:
    return p.measure_in(k, window, tol)


def splitting_certificate(p: SplittingPartition, k: int, window: Interval) -> SplittingCertificate:
    return p.splitting_certificate(k, window)


def splitting_certificate_auto(
    p: SplittingPartition, k: int, window: Interval
) -> tuple[SplittingCertificate, SplittingPartition]:
    """Certificate with automatic stage extension; returns the grown partition.

    Extends only on NotYetCovered, so on a window narrower than about 2^-55
    that the prefix does not cover it raises the ValueError of
    ``first_index_inside``'s size bound ("past the search's size bound")
    without extending.
    """
    while True:
        try:
            return p.splitting_certificate(k, window), p
        except NotYetCovered as exc:
            if exc.needed_stage <= p.stage_count:
                raise
            p = extend_partition(p, exc.needed_stage)
