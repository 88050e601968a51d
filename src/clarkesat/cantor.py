"""Fat Cantor sets over rational intervals, with certified finite-depth covers.

A fat Cantor set here is the classic middle-interval construction with a
summable removal schedule.  Over a host of length L with retained fraction
rho, step n removes an open middle interval of length

    removal(n) = (1 - rho) * L / 2 * 4^(-n)

from each of the 2^n closed pieces of the current cover.  The removed total
is sum_n 2^n * removal(n) = (1 - rho) * L exactly, so the limit set F has
measure rho * L.  The depth-d cover F_d consists of 2^d closed pieces and

    measure(F_d) = rho * L + tail(d),    tail(d) = (1 - rho) * L * 2^(-d).

Every piece endpoint at every depth survives to F.  When the host interval
is open on a side, that host endpoint is excluded from F as a point; this
keeps fat Cantor sets over contiguous open pieces pairwise disjoint and does
not change any measure.

Feasibility of the schedule is automatic: removal(n) is strictly less than
the current piece length rho*L*2^(-n) + (1-rho)*L*4^(-n) for every
rho in (0,1).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from math import lcm
from operator import itemgetter, sub

from .rationals import Interval, IntervalSet, ValueBound, ZERO, format_rational, parse_rational, rational

CANONICAL_SCHEDULE = "canonical-svc"


class Containment(Enum):
    """Tri-state membership answer, sound at every finite depth."""

    IN = "in"
    OUT = "out"
    UNDECIDED = "undecided"


@dataclass(frozen=True)
class MeasureBound(ValueBound):
    """Certified interval [lo, hi] containing a true Lebesgue measure."""

    def __post_init__(self):
        if not (ZERO <= self.lo <= self.hi):
            raise ValueError(f"invalid measure bound [{self.lo}, {self.hi}]")

    def __str__(self) -> str:
        return f"[{format_rational(self.lo)}, {format_rational(self.hi)}]"


def _children(lo: int, hi: int, half: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """The child rule on numerators: the piece [lo, hi] over den keeps the
    closed halves left and right of its removed middle, over 4 * den."""
    mid = 2 * (lo + hi)
    return (4 * lo, mid - half), (mid + half, 4 * hi)


def _cover_walk(lo: int, hi: int, base: int, retained: Fraction, ends: tuple[int, int, int, int], depth: int,
                whole: bool = False):
    """Yield (lo, hi, den, step) for the cover pieces meeting the window
    [an/ad, bn/bd] of ends (an, ad, bn, bd), ad, bd > 0, left to right.

    The fat Cantor set has the host [lo/base, hi/base] and keeps the share
    ``retained`` of it; its removed middles take the rest.  A yielded lo
    and hi are numerators over den, the denominator of the piece's
    step; a subtree that misses the window is never entered.  Pieces come
    from the depth-d cover, except that with ``whole`` a piece wholly
    inside the window is yielded at its own step.  One descent decides every
    node: a node is tested against the window until it or an ancestor lies
    wholly inside, and the children of an inside node skip the tests.  So
    the first piece costs O(d) for any window: a window meeting a left
    child holds the child's right end, which every deeper cover keeps, or
    ends before the right sibling, which its window test prunes, and an
    inside node's leftmost descendant is d - step splits away.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    # The host as numerators over root_den = 4 * q * base, with retained p/q:
    # over it the removed total, (q - p) * (hi - lo) / (q * base), is ``half``.
    # Endpoints at step s share root_den * 4^s, so scaling by 4 per step keeps
    # ``half``, the numerator ``_children`` removes beside a midpoint, constant.
    p, q = retained.numerator, retained.denominator
    root_den, half = 4 * q * base, 4 * (q - p) * (hi - lo)
    an, ad, bn, bd = ends
    stack = [(4 * q * lo, 4 * q * hi, 0, False)]
    while stack:
        lo, hi, step, inside = stack.pop()
        if not inside:
            den = root_den << 2 * step
            if hi * ad < an * den or bn * den < lo * bd:
                continue
            inside = an * den <= lo * ad and hi * bd <= bn * den
        if step == depth or inside and whole:
            yield lo, hi, root_den << 2 * step, step
        else:
            (left_lo, left_hi), (right_lo, right_hi) = _children(lo, hi, half)
            step += 1
            stack += (right_lo, right_hi, step, inside), (left_lo, left_hi, step, inside)


def _containment(lo: int, hi: int, base: int, retained: Fraction, p: int, q: int, depth: int) -> Containment:
    """The endpoint rule for the point p/q, q > 0, and the fat Cantor set
    over the closed host [lo/base, hi/base]: IN on an endpoint of a depth-d
    cover piece, which no later step removes, UNDECIDED inside one, OUT
    outside the cover.
    """
    piece = next(_cover_walk(lo, hi, base, retained, (p, q, p, q), depth), None)
    if piece is None:
        return Containment.OUT
    lo, hi, den, _ = piece
    return Containment.IN if p * den in (lo * q, hi * q) else Containment.UNDECIDED


@dataclass(frozen=True)
class FatCantorSet:
    """A Cantor-type set of positive measure over a rational host interval.

    Immutable; cover queries are pure functions of (set, depth), and all of
    them, ``find_gap`` too, read the one pruned cover walk ``_cover_walk``.
    """

    host: Interval
    retained_fraction: Fraction = Fraction(1, 2)

    def __post_init__(self):
        if not self.host.is_nontrivial:
            raise ValueError("host interval must be nontrivial")
        if not (0 < self.retained_fraction < 1):
            raise ValueError("retained fraction must lie strictly between 0 and 1")

    @classmethod
    def canonical(cls) -> FatCantorSet:
        """The classic construction over [0,1] with limit measure 1/2."""
        return cls(Interval.closed(0, 1))

    @property
    def length(self) -> Fraction:
        return self.host.length

    @property
    def limit_measure(self) -> Fraction:
        return self.retained_fraction * self.length

    def removal_length(self, step: int) -> Fraction:
        """Length removed from each of the 2^step pieces at that step."""
        return (1 - self.retained_fraction) * self.length / (2 * 4**step)

    def tail(self, depth: int) -> Fraction:
        """Exact cover excess: measure(F_depth) - limit_measure."""
        return (1 - self.retained_fraction) * self.length / 2**depth

    def _walk(self, a: Fraction, b: Fraction, depth: int, whole: bool = False):
        """``_cover_walk`` over this set's host as a ``_span``, of the window [a, b]."""
        ends = a.numerator, a.denominator, b.numerator, b.denominator
        return _cover_walk(*_span(self.host), self.retained_fraction, ends, depth, whole)

    def svc_cover(self, depth: int) -> IntervalSet:
        """The depth-d cover: 2^d closed intervals whose intersection is F.

        Kept as (set, depth): ``len`` and ``measure`` read the cover law, and
        the ``Interval`` parts are walked when first read.  ``len`` is capped
        at ``sys.maxsize``, so from depth 63 on it raises ``OverflowError``
        while ``measure`` still answers.
        """
        if depth < 0:
            raise ValueError("depth must be >= 0")
        return _Cover(self, depth)

    def first_piece(self, depth: int) -> Interval:
        """``svc_cover(depth).parts[0]`` in O(d): the piece holding the host's left end."""
        lo, hi, den, _ = next(self._walk(self.host.lo, self.host.lo, depth))
        return Interval(Fraction(lo, den), Fraction(hi, den))

    def svc_membership(self, x: Fraction, depth: int) -> Containment:
        """Certified membership in F at finite depth.

        OUT when x falls outside the depth-d cover (then x is not in F,
        definitely).  IN when x is a piece endpoint (endpoints are never
        removed), except that an open host endpoint is excluded.  Everything
        else is UNDECIDED.  ``_containment`` reads the first piece of the
        walk, in O(d).
        """
        x = rational(x)
        if x == self.host.lo and not self.host.lo_closed:
            return Containment.OUT
        if x == self.host.hi and not self.host.hi_closed:
            return Containment.OUT
        return _containment(*_span(self.host), self.retained_fraction, x.numerator, x.denominator, depth)

    def cover_meets(self, window: Interval, depth: int) -> bool:
        """Whether the depth-d cover meets the closure of the window, in O(d).

        A piece wholly inside the window ends the walk at its own step.
        """
        return next(self._walk(window.lo, window.hi, depth, whole=True), None) is not None

    def svc_measure_in(self, window: Interval, depth: int) -> MeasureBound:
        """Certified bound on lambda(F intersect window): step ``depth`` of
        ``_MeasureSteps``, summed at that depth only.

        A piece wholly inside the window resolves exactly, and only the
        depth-d pieces that hold a window end pay their slack, so the bound
        is exact (width zero) when the window misses the host or swallows
        it.  The upper bound is at most the depth-d cover measure inside the
        window, the lower bound at least that measure minus tail(d); bounds
        nest as the depth grows.  Only the two returned ends are ``Fraction``s.
        """
        if depth < 0:
            raise ValueError("depth must be >= 0")
        steps = _MeasureSteps(self, window)
        for _ in range(depth):
            steps.deeper()
        lo, hi, den = steps.bound()
        return MeasureBound(Fraction(lo, den), Fraction(hi, den))

    def serialize(self) -> str:
        return " ".join(
            (
                format_rational(self.host.lo),
                format_rational(self.host.hi),
                "closed" if self.host.lo_closed else "open",
                "closed" if self.host.hi_closed else "open",
                format_rational(self.retained_fraction),
                CANONICAL_SCHEDULE,
            )
        )

    @classmethod
    def deserialize(cls, text: str) -> FatCantorSet:
        lo, hi, lo_flag, hi_flag, retained, schedule = text.split()
        if schedule != CANONICAL_SCHEDULE:
            raise ValueError(f"unknown removal schedule {schedule!r}")
        return cls(
            Interval(
                parse_rational(lo),
                parse_rational(hi),
                lo_flag == "closed",
                hi_flag == "closed",
            ),
            parse_rational(retained),
        )


class _MeasureSteps:
    """``svc_measure_in`` of one set over one window, one depth at a time:
    it starts at depth 0, ``deeper`` goes one depth down and ``bound`` reads
    the bound there as integers (lo, hi, den).

    Every number is a numerator over ``den``, ``_cover_walk``'s den at the
    current depth times the window ends' denominators.  A step down
    multiplies den by 4, so ``half`` stays constant, the window ends scale
    by 4 and ``mass``, the F-mass limit_measure / 2^d of one depth-d piece,
    by 2.  A piece wholly inside the window joins the ``leaves`` count, one
    missing it is dropped, and the rest, the ``frontier``, hold a window
    end: at most two pieces, the only ones ``deeper`` splits and ``bound``
    pays slack on.
    """

    __slots__ = ("den", "mass", "half", "a", "b", "leaves", "frontier")

    def __init__(self, cantor: FatCantorSet, window: Interval):
        lo, hi, base = _span(cantor.host)
        p, q = cantor.retained_fraction.numerator, cantor.retained_fraction.denominator
        a, b = window.lo, window.hi
        scale, root = a.denominator * b.denominator, 4 * q * base
        self.den, self.mass, self.half = root * scale, 4 * p * (hi - lo) * scale, 4 * (q - p) * (hi - lo) * scale
        self.a, self.b = a.numerator * b.denominator * root, b.numerator * a.denominator * root
        self.leaves, self.frontier = 0, []
        self._classify([(4 * q * lo * scale, 4 * q * hi * scale)])

    def _classify(self, pieces: list[tuple[int, int]]) -> None:
        a, b = self.a, self.b
        for lo, hi in pieces:
            if a <= lo and hi <= b:
                self.leaves += 1
            elif a <= hi and lo <= b:
                self.frontier.append((lo, hi))

    def deeper(self) -> None:
        self.den <<= 2
        self.mass <<= 1
        self.a <<= 2
        self.b <<= 2
        self.leaves <<= 1
        pieces, self.frontier = self.frontier, []
        self._classify([child for lo, hi in pieces for child in _children(lo, hi, self.half)])

    def bound(self) -> tuple[int, int, int]:
        """(lo, hi, den): lo / den and hi / den bound lambda(F intersect window)."""
        a, b, mass = self.a, self.b, self.mass
        lo = hi = mass * self.leaves
        for p_lo, p_hi in self.frontier:
            overlap = min(p_hi, b) - max(p_lo, a)
            lo += max(0, overlap - (p_hi - p_lo - mass))
            hi += min(overlap, mass)
        return lo, hi, self.den


class _Cover(IntervalSet):
    """The depth-d cover of a fat Cantor set, held as the set and the depth.
    It equals, and hashes as, ``IntervalSet`` of the same parts; a thread
    race at most builds the equal parts twice."""

    def __init__(self, cantor: FatCantorSet, depth: int):
        object.__setattr__(self, "_set", cantor)
        object.__setattr__(self, "_depth", depth)

    @cached_property
    def parts(self) -> tuple[Interval, ...]:
        pieces = self._set._walk(self._set.host.lo, self._set.host.hi, self._depth)
        return tuple(Interval(Fraction(lo, den), Fraction(hi, den)) for lo, hi, den, _ in pieces)

    def __len__(self) -> int:
        return 1 << self._depth

    def measure(self) -> Fraction:
        return self._set.limit_measure + self._set.tail(self._depth)

    def __eq__(self, other):
        return self.parts == other.parts if isinstance(other, IntervalSet) else NotImplemented

    __hash__ = IntervalSet.__hash__

    def __repr__(self) -> str:
        return repr(IntervalSet(self.parts))


def svc_cover(c: FatCantorSet, depth: int) -> IntervalSet:
    return c.svc_cover(depth)


def svc_membership(c: FatCantorSet, x: Fraction, depth: int) -> Containment:
    return c.svc_membership(x, depth)


def svc_measure_in(c: FatCantorSet, window: Interval, depth: int) -> MeasureBound:
    return c.svc_measure_in(window, depth)


_GAP_DEPTHS = (1, 2, 4, 8, 16, 32, 64)


def find_gap(
    prior: list[FatCantorSet], target: Interval, blocked: tuple[Interval, ...] = ()
) -> tuple[Interval, int]:
    """Find a nontrivial open subinterval of target avoiding every prior set.

    Certified against the depth-d covers, so disjointness from the true sets
    follows.  Each blocked interval is an obstruction at every depth, e.g.
    the closure of a region known to hold other sets.  Returns the longest
    such gap (leftmost on ties) together with the smallest tried depth that
    exposed one, 0 when no prior set meets the target.  Depths double from
    1; termination is guaranteed because the covers shrink to nowhere dense
    sets, as long as the blocked intervals leave room beside them; when they
    leave none, the search stops after depth 1.  ``_find_gap`` searches on
    the integer spans; how the build picks the prior sets and blocked ones:
    the partition's "Gap search".
    """
    if not target.is_nontrivial:
        raise ValueError("target must be nontrivial")
    hosts = [(*_span(c.host), c.retained_fraction) for c in prior if target.overlaps_nontrivially(c.host)]
    try:
        ends, depth = _find_gap(hosts, _ends(target), [_span(b) for b in blocked])
    except RuntimeError:  # named by the target as given, with its flags
        raise RuntimeError(f"no gap inside {target} avoids the blocked intervals and prior covers") from None
    return _open(*ends), depth


def _find_gap(hosts: list[tuple[int, int, int, Fraction]], ends: tuple[int, int, int, int],
              closures: list[tuple[int, int, int]]) -> tuple[tuple[int, int, int, int], int]:
    """``find_gap``'s search on integers, the prior sets as (lo, hi, base,
    retained) for ``_cover_walk``, each host meeting the target in positive
    length, the target (p/q, r/s) as (p, q, r, s) and the blocked closures
    as spans; the gap comes back as its ``_room`` ends.  The depth-1 try
    walks the hosts over the target, and the later ones only over the rooms,
    the parts of the target outside the blocked closures (``_rooms``), where
    any gap lies.  No ``Fraction`` or ``Interval`` is built.
    """
    rooms = [ends]
    for depth in _GAP_DEPTHS if hosts else (0,):
        covers = [piece[:3] for host in hosts for room in rooms for piece in _cover_walk(*host, room, depth)]
        best = _room(*_merged(closures + covers), *ends)
        if best is not None:
            return best, depth
        if depth == 1 and not (rooms := _rooms(*_merged(closures), *ends)):
            break  # no depth can expose a gap
    raise RuntimeError(f"no gap inside {_open(*ends)} avoids the blocked intervals and prior covers")


def _open(p: int, q: int, r: int, s: int) -> Interval:
    """The open interval (p/q, r/s)."""
    return Interval.open(Fraction(p, q), Fraction(r, s))


def _ends(interval: Interval) -> tuple[int, int, int, int]:
    """(p, q, r, s) for the interval's ends p/q and r/s, reduced: ``_open``'s arguments."""
    lo, hi = interval.lo, interval.hi
    return lo.numerator, lo.denominator, hi.numerator, hi.denominator


def _span(interval: Interval) -> tuple[int, int, int]:
    """(lo, hi, den): the interval's ends as numerators over the lcm of their denominators."""
    lo, hi = interval.lo, interval.hi
    den = lcm(lo.denominator, hi.denominator)
    return lo.numerator * (den // lo.denominator), hi.numerator * (den // hi.denominator), den


def _merged(spans: list[tuple[int, int, int]]) -> tuple[list[int], list[int], int]:
    """``_room``'s (los, reach, den) for closed spans (lo, hi, den)."""
    den = lcm(*{d for _, _, d in spans})
    ends = sorted((lo * (den // d), hi * (den // d)) for lo, hi, d in spans)
    return [lo for lo, _ in ends], list(accumulate([hi for _, hi in ends], max)), den


def _room(los: list[int], reach: list[int], den: int, a: int, b: int, e: int, f: int
          ) -> tuple[int, int, int, int] | None:
    """The longest part of the target (a/b, e/f), b, f > 0, outside closed
    obstructions, leftmost on ties, as the ends (p, q, r, s) of (p/q, r/s),
    each the target's own or an obstruction's over den; None if none.

    The room rule: obstruction i is [los[i], his[i]] over den, sorted by
    left end, and reach is the running max of the his, so every obstruction
    before i ends by reach[i-1] and los[i] - reach[i-1], when positive, is
    the room just left of i.  Two bisections find the obstructions that can
    meet the target and one max the longest inner room; the edge rooms join
    it as integers, times den and the target's denominators.  No ``Fraction``
    is built, and the ends come back unreduced.
    """
    first = bisect_right(reach, a * den // b)
    stop = bisect_left(los, -(-e * den // f))
    if first == stop:
        return a, b, e, f
    rooms = [((los[first] * b - a * den) * f, None, first)]  # (scaled length, reach index, los index)
    if stop - first > 1:
        inner = list(map(sub, los[first + 1:stop], reach[first:stop - 1]))
        i = first + inner.index(most := max(inner))  # the leftmost longest
        rooms.append((most * b * f, i, i + 1))
    rooms.append(((e * den - reach[stop - 1] * f) * b, stop - 1, None))
    length, i, j = max(rooms, key=itemgetter(0))  # the first of equals
    if length <= 0:
        return None
    p, q = (a, b) if i is None else (reach[i], den)
    r, s = (e, f) if j is None else (los[j], den)
    return p, q, r, s


def _rooms(los: list[int], reach: list[int], den: int, a: int, b: int, e: int, f: int) -> list[tuple[int, ...]]:
    """The positive-length parts of the target (a/b, e/f) outside ``_room``'s
    obstructions, as their ends (p, q, r, s), each the target's own or an
    obstruction's over den."""
    first = bisect_right(reach, a * den // b)
    stop = bisect_left(los, -(-e * den // f))
    bounds = [(a, b), *((end, den) for pair in zip(los[first:stop], reach[first:stop]) for end in pair), (e, f)]
    return [(p, q, r, s) for (p, q), (r, s) in zip(bounds[::2], bounds[1::2]) if p * s < r * q]
