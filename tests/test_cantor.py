import itertools
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clarkesat import cantor
from clarkesat.cantor import (
    _GAP_DEPTHS,
    Containment,
    FatCantorSet,
    MeasureBound,
    find_gap,
    svc_cover,
    svc_measure_in,
    svc_membership,
)
from clarkesat.rationals import Interval, IntervalSet, measure


def _longest_part(parts: IntervalSet) -> Interval | None:
    """The longest nontrivial part, leftmost on ties."""
    best = None
    for part in parts:
        if part.is_nontrivial and (best is None or part.length > best.length):
            best = part
    return best


@pytest.fixture(scope="module")
def canonical():
    return FatCantorSet.canonical()


def closed_set(*pairs):
    return IntervalSet.of(Interval.closed(a, b) for a, b in pairs)


def test_depth_zero_cover_is_host(canonical):
    assert svc_cover(canonical, 0) == closed_set((0, 1))


def test_depth_one_cover(canonical):
    cover = svc_cover(canonical, 1)
    assert cover == closed_set((Fraction(0), Fraction(3, 8)), (Fraction(5, 8), Fraction(1)))
    assert measure(cover) == Fraction(3, 4)


def test_depth_two_cover_measure(canonical):
    assert measure(svc_cover(canonical, 2)) == Fraction(5, 8)


def test_cover_measure_law(canonical):
    # Partial sums of the removal schedule give 1/2 + 2^-(n+1) exactly.
    for n in range(11):
        expected = Fraction(1, 2) + Fraction(1, 2 ** (n + 1))
        assert measure(svc_cover(canonical, n)) == expected
        assert canonical.limit_measure + canonical.tail(n) == expected


def test_covers_are_nested(canonical):
    for d in range(6):
        outer = svc_cover(canonical, d)
        inner = svc_cover(canonical, d + 1)
        for part in inner.parts:
            assert any(p.contains_interval(part) for p in outer.parts)


def test_every_part_splits_at_next_depth(canonical):
    # Nowhere density proxy: each piece acquires an interior gap immediately.
    for d in range(5):
        outer = svc_cover(canonical, d).parts
        inner = svc_cover(canonical, d + 1).parts
        for part in outer:
            children = [q for q in inner if part.contains_interval(q)]
            assert len(children) == 2


def test_membership_first_gap(canonical):
    assert svc_membership(canonical, Fraction(1, 2), 1) is Containment.OUT
    assert svc_membership(canonical, Fraction(1, 2), 3) is Containment.OUT


def test_membership_host_endpoint(canonical):
    for depth in (0, 1, 5):
        assert svc_membership(canonical, Fraction(0), depth) is Containment.IN


def test_membership_undecided_interior(canonical):
    assert svc_membership(canonical, Fraction(1, 3), 1) is Containment.UNDECIDED


def test_membership_never_retracts(canonical):
    xs = [Fraction(k, 64) for k in range(65)]
    prev = {x: svc_membership(canonical, x, 0) for x in xs}
    for depth in range(1, 8):
        for x in xs:
            answer = svc_membership(canonical, x, depth)
            if prev[x] is not Containment.UNDECIDED:
                assert answer is prev[x]
            prev[x] = answer


def test_open_host_excludes_endpoints():
    c = FatCantorSet(Interval.open(0, 1))
    assert c.svc_membership(Fraction(0), 3) is Containment.OUT
    assert c.svc_membership(Fraction(1), 3) is Containment.OUT
    # Interior piece endpoints still belong to the set.
    inner_endpoint = c.svc_cover(1).parts[0].hi
    assert c.svc_membership(inner_endpoint, 1) is Containment.IN


def test_measure_in_whole_window_converges(canonical):
    window = Interval.closed(0, 1)
    half = Fraction(1, 2)
    for depth in range(10):
        bound = svc_measure_in(canonical, window, depth)
        assert bound.contains(half)
    assert svc_measure_in(canonical, window, 0).width == 0  # window covers host


def test_measure_in_left_half_converges_to_quarter(canonical):
    window = Interval.closed(0, Fraction(3, 8))
    quarter = Fraction(1, 4)
    prev = None
    for depth in range(1, 12):
        bound = svc_measure_in(canonical, window, depth)
        assert bound.contains(quarter)
        if prev is not None:
            assert bound.nests_inside(prev)
        prev = bound
    assert prev.width <= Fraction(1, 2**10)


def test_measure_in_disjoint_window(canonical):
    bound = svc_measure_in(canonical, Interval.closed(2, 3), 4)
    assert bound == MeasureBound(Fraction(0), Fraction(0))


@pytest.mark.parametrize("rho", [Fraction(1, 2), Fraction(1, 3), Fraction(3, 4)])
@pytest.mark.parametrize(
    "host",
    [
        Interval.closed(0, 1),
        Interval.open(Fraction(1, 3), Fraction(1, 2)),
        Interval(Fraction(-2, 7), Fraction(5, 7), True, False),
        Interval(Fraction(3, 11), Fraction(9, 10), False, True),
    ],
    ids=["closed", "open", "closed-open", "open-closed"],
)
def test_measure_in_agrees_with_the_materialized_cover(host, rho):
    c = FatCantorSet(host, rho)
    rng = random.Random(2018)
    ends = {host.lo, host.hi, host.lo - host.length / 7, host.hi + host.length / 5}
    for depth in (1, 3, 6):
        parts = c.svc_cover(depth).parts
        ends.update((rng.choice(parts).lo, rng.choice(parts).hi))
    windows = [
        Interval(a, b, rng.random() < 0.5, rng.random() < 0.5)
        for a, b in itertools.combinations(sorted(ends), 2)
    ]
    prev = {}
    for depth in range(11):
        cover = c.svc_cover(depth)
        for window in windows:
            # The depth-d pieces meeting the window hold at most tail(d) of
            # cover outside F.
            inside = cover.intersect_interval(window).measure()
            bound = c.svc_measure_in(window, depth)
            assert inside - c.tail(depth) <= bound.lo <= bound.hi <= inside, (window, depth)
            if window in prev:
                assert bound.nests_inside(prev[window]), (window, depth)
            prev[window] = bound


def test_affine_transport():
    # A set over (a,b) is the affine image of the canonical one over [0,1].
    a, b = Fraction(1, 3), Fraction(3, 4)
    scaled = FatCantorSet(Interval.open(a, b))
    canonical = FatCantorSet.canonical()
    for depth in range(5):
        image = [
            (a + (b - a) * lo, a + (b - a) * hi)
            for lo, hi in ((p.lo, p.hi) for p in canonical.svc_cover(depth).parts)
        ]
        ours = [(p.lo, p.hi) for p in scaled.svc_cover(depth).parts]
        assert image == ours


def test_retained_fraction_law():
    c = FatCantorSet(Interval.closed(0, 1), Fraction(2, 3))
    for n in range(8):
        expected = Fraction(2, 3) + Fraction(1, 3) / 2**n
        assert measure(c.svc_cover(n)) == expected


def test_serialization_round_trip():
    c = FatCantorSet(Interval.open(Fraction(1, 3), Fraction(3, 4)), Fraction(1, 2))
    assert FatCantorSet.deserialize(c.serialize()) == c


def test_deserialize_rejects_an_unknown_removal_schedule():
    with pytest.raises(ValueError, match=r"^unknown removal schedule 'middle-thirds'$"):
        FatCantorSet.deserialize("1/3 3/4 open open 1/2 middle-thirds")


def test_find_gap_no_priors():
    gap, depth = find_gap([], Interval.open(0, 1))
    assert gap == Interval.open(0, 1)
    assert depth == 0


def test_find_gap_first_removed_interval(canonical):
    gap, depth = find_gap([canonical], Interval.open(0, 1))
    assert gap == Interval.open(Fraction(3, 8), Fraction(5, 8))
    assert depth == 1


def test_find_gap_left_branch(canonical):
    gap, depth = find_gap([canonical], Interval.open(0, Fraction(3, 8)))
    assert gap == Interval.open(Fraction(5, 32), Fraction(7, 32))
    assert depth == 2


def test_find_gap_avoids_every_prior(canonical):
    other = FatCantorSet(Interval.open(Fraction(3, 8), Fraction(5, 8)))
    gap, depth = find_gap([canonical, other], Interval.open(0, 1))
    for c in (canonical, other):
        assert c.svc_cover(depth).intersect_interval(gap).is_empty


def test_find_gap_avoids_blocked_intervals(canonical):
    # The depth-1 gap (3/8, 5/8) is blocked, so the search goes one level deeper.
    blocked = (Interval.closed(Fraction(1, 3), Fraction(2, 3)), Interval.closed(0, Fraction(1, 16)))
    gap, depth = find_gap([canonical], Interval.open(0, 1), blocked)
    assert (gap, depth) == (Interval.open(Fraction(5, 32), Fraction(7, 32)), 2)
    for interval in blocked:
        assert not gap.intersects(interval)
    assert not any(gap.intersects(part) for part in canonical.svc_cover(depth))


def test_find_gap_reaches_depth_16(canonical):
    # The ancestors of a depth-12 piece cover its interior at depths 1-8.
    target = canonical.svc_cover(12).parts[1234].interior()
    gap, depth = find_gap([canonical], target)
    assert depth == 16
    free = canonical.svc_cover(16).intersect_interval(target).complement_within(target)
    assert gap == max(free, key=lambda part: part.length).interior()


def test_find_gap_blocked_without_priors():
    gap, depth = find_gap([], Interval.open(0, 1), (Interval.closed(0, Fraction(1, 4)),))
    assert (gap, depth) == (Interval.open(Fraction(1, 4), 1), 0)
    with pytest.raises(RuntimeError):
        find_gap([], Interval.open(0, 1), (Interval.closed(0, 1),))


@pytest.mark.parametrize(
    "host, rho",
    [
        (Interval.closed(0, 1), Fraction(1, 2)),
        (Interval.open(Fraction(1, 3), Fraction(1, 2)), Fraction(1, 3)),
        (Interval(Fraction(-2, 7), Fraction(5, 7), True, False), Fraction(3, 4)),
        (Interval(Fraction(3, 11), Fraction(9, 10), False, True), Fraction(1, 3)),
    ],
    ids=["closed", "open", "closed-open", "open-closed"],
)
def test_membership_agrees_with_the_materialized_cover(host, rho):
    c = FatCantorSet(host, rho)
    points = set()
    for depth in range(6):
        parts = c.svc_cover(depth).parts
        points.update(x for p in parts for x in (p.lo, p.hi, p.midpoint))
        points.update((p.hi + q.lo) / 2 for p, q in zip(parts, parts[1:]))
    rng = random.Random(2018)
    span = host.length + Fraction(1, 5)
    points.update(host.lo - Fraction(1, 10) + span * Fraction(rng.randrange(10**9), 10**9)
                  for _ in range(40))
    open_ends = {e for e, closed in ((host.lo, host.lo_closed), (host.hi, host.hi_closed)) if not closed}
    for depth in range(15):
        # The answer read off the materialized cover: endpoints are never removed.
        cover = c.svc_cover(depth)
        ends = {e for part in cover for e in (part.lo, part.hi)} - open_ends
        for x in points:
            if x in ends:
                expected = Containment.IN
            elif x in open_ends or not cover.contains(x):
                expected = Containment.OUT
            else:
                expected = Containment.UNDECIDED
            assert c.svc_membership(x, depth) is expected, (x, depth)


def test_membership_at_depth_64_walks_one_path(canonical):
    endpoint = canonical.svc_cover(1).parts[0].hi
    assert canonical.svc_membership(endpoint, 64) is Containment.IN
    # Follow left, right, left, ... to a step-40 piece; its midpoint is the
    # middle of the interval removed at step 40.
    lo, hi = Fraction(0), Fraction(1)
    for step in range(40):
        mid, half = (lo + hi) / 2, canonical.removal_length(step) / 2
        lo, hi = (lo, mid - half) if step % 2 == 0 else (mid + half, hi)
    x = (lo + hi) / 2
    assert canonical.svc_membership(x, 40) is Containment.UNDECIDED
    for depth in (41, 42, 64):
        assert canonical.svc_membership(x, depth) is Containment.OUT


def test_cover_meets_stays_lazy_at_depth_64(canonical):
    # The window holds the whole depth-1 piece [0, 3/8]: its 2^63 depth-64
    # pieces are never listed.
    assert canonical.cover_meets(Interval.closed(Fraction(-1, 2), Fraction(1, 2)), 64)
    # A window inside the middle removed from a step-40 piece.
    lo, hi = Fraction(0), Fraction(1)
    for step in range(40):
        mid, half = (lo + hi) / 2, canonical.removal_length(step) / 2
        lo, hi = (lo, mid - half) if step % 2 == 0 else (mid + half, hi)
    x, radius = (lo + hi) / 2, canonical.removal_length(40) / 4
    window = Interval.closed(x - radius, x + radius)
    assert canonical.cover_meets(window, 40)
    for depth in (41, 64):
        assert not canonical.cover_meets(window, depth)


@pytest.mark.parametrize("a, b", [
    (Fraction(-1), Fraction(2)),  # swallows the host
    (Fraction(0), Fraction(1)),  # is the host
    (Fraction(1, 2), Fraction(2)),  # swallows the depth-1 piece [5/8, 1], the first it meets
    (Fraction(3, 8), Fraction(5, 8)),  # holds the depth-1 pieces' inner ends
    (Fraction(3, 8), Fraction(3, 8)),  # a point: the depth-1 piece [0, 3/8]'s right end
])
def test_a_walk_yields_its_first_piece_after_at_most_d_splits(canonical, monkeypatch, a, b):
    # Listing a subtree before its first piece would split about 2^64 pieces;
    # the child rule is cut at 1,000 splits, so such a walk fails fast.
    children, splits = cantor._children, []

    def bounded_children(*args):
        splits.append(args)
        if len(splits) > 1_000:
            raise AssertionError("the walk split more than 1,000 cover pieces")
        return children(*args)

    monkeypatch.setattr(cantor, "_children", bounded_children)
    lo, hi, den, step = next(canonical._walk(a, b, 64))
    assert step == 64 and len(splits) <= 64
    assert Fraction(lo, den) <= b and a <= Fraction(hi, den)


def test_membership_rejects_a_negative_depth(canonical):
    with pytest.raises(ValueError, match="depth must be >= 0"):
        canonical.svc_membership(Fraction(1, 3), -1)


@pytest.mark.parametrize("lo, hi", [(Fraction(1, 3), Fraction(1, 2)), (0, 1), (2, 3)])
def test_measure_in_rejects_a_negative_depth(canonical, lo, hi):
    # A straddled, a swallowed and a missed host: the check precedes every shortcut.
    with pytest.raises(ValueError, match="depth must be >= 0"):
        canonical.svc_measure_in(Interval.closed(lo, hi), -1)


@pytest.mark.parametrize(
    "blocked",
    [
        (Interval.closed(0, 1),),
        (Interval.open(-1, Fraction(1, 2)), Interval.open(Fraction(1, 2), 2)),  # leaves the point 1/2
    ],
)
def test_find_gap_without_room_raises_at_once(canonical, blocked):
    # Without room beside the blocked intervals the search stops after its
    # depth-1 try, so the call never lists the 2^32 pieces of the depth-32 cover.
    with pytest.raises(RuntimeError, match="no gap inside .* avoids the blocked intervals"):
        find_gap([canonical], Interval.open(0, 1), blocked)


def test_find_gap_in_a_sliver_walks_only_the_room(canonical, monkeypatch):
    # e is the left end of a depth-20 right child, so the removed middle just
    # left of it shows first at depth 20: the depth-32 try finds the sliver
    # (e - 10^-30, e).  Walking the whole target at depth 32 would split 2^32
    # pieces; the child rule is cut at 100,000 splits so such a search fails fast.
    lo, hi = Fraction(0), Fraction(1)
    for step in range(20):
        mid, half = (lo + hi) / 2, canonical.removal_length(step) / 2
        lo, hi = (lo, mid - half) if step < 19 else (mid + half, hi)
    e, eps = lo, Fraction(1, 10**30)
    children, splits = cantor._children, []

    def bounded_children(*args):
        splits.append(args)
        if len(splits) > 100_000:
            raise AssertionError("the search split more than 100,000 cover pieces")
        return children(*args)

    monkeypatch.setattr(cantor, "_children", bounded_children)
    blocked = (Interval.closed(-1, e - eps), Interval.closed(e + eps, 2))
    assert find_gap([canonical], Interval.open(0, 1), blocked) == (Interval.open(e - eps, e), 32)


def _reference_find_gap(prior, target, blocked=()):
    """``find_gap`` as it was first written: each try merges Fraction
    intervals, the blocked parts and every walked cover piece clipped to the
    target, and takes the longest part of their complement in the target."""
    if not target.is_nontrivial:
        raise ValueError("target must be nontrivial")
    opaque = [part for b in blocked if (part := b.intersect(target)) is not None]
    relevant = [c for c in prior if target.overlaps_nontrivially(c.host)]
    room = [target]
    for depth in _GAP_DEPTHS if relevant else (0,):
        covers = [
            part
            for c in relevant
            for span in room
            for lo, hi, den, _ in c._walk(span.lo, span.hi, depth)
            if (part := Interval(Fraction(lo, den), Fraction(hi, den)).intersect(target)) is not None
        ]
        best = _longest_part(IntervalSet.of(opaque + covers).complement_within(target))
        if best is not None:
            return best.interior(), depth
        if depth == 1:
            room = IntervalSet.of(opaque).complement_within(target)
            if _longest_part(room) is None:
                break
    raise RuntimeError(f"no gap inside {target} avoids the blocked intervals and prior covers")


_FLAGS = st.tuples(st.booleans(), st.booleans())


@st.composite
def _ends(draw):
    """A number in [-1/4, 5/4] over a denominator 2^k * {1, 3, 5, 7}."""
    den = draw(st.sampled_from((1, 3, 5, 7))) << draw(st.integers(0, 5))
    return Fraction(draw(st.integers(-(den // 4), den + den // 4)), den)


def _interval(a, b, flags):
    a, b = min(a, b), max(a, b)
    return Interval(a, b, True, True) if a == b else Interval(a, b, *flags)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(data=st.data())
def test_find_gap_matches_the_fraction_reference(data):
    # Targets often end at host ends.  Blocked ends come often from the
    # target's ends and quarter points and the depth-2 cover ends, so blocked
    # intervals touch, nest, stick out of the target, leave single points
    # and leave rooms of equal length.
    hosts = data.draw(st.lists(st.tuples(_ends(), _ends(), _FLAGS).filter(lambda h: h[0] != h[1]), max_size=3))
    retained = st.sampled_from((Fraction(1, 3), Fraction(1, 2), Fraction(3, 4)))
    prior = [FatCantorSet(_interval(a, b, flags), data.draw(retained)) for a, b, flags in hosts]
    host_ends = sorted({end for a, b, _ in hosts for end in (a, b)})
    end = st.one_of(st.sampled_from(host_ends), _ends()) if host_ends else _ends()
    a, b = data.draw(end), data.draw(end)
    if a == b:
        b = a + 1
    target = _interval(a, b, data.draw(_FLAGS))
    pool = sorted({target.lo + i * target.length / 4 for i in range(5)}
                  | {end for c in prior for part in c.svc_cover(2) for end in (part.lo, part.hi)})
    end = st.one_of(st.sampled_from(pool), _ends())
    blocked = tuple(_interval(data.draw(end), data.draw(end), data.draw(_FLAGS))
                    for _ in range(data.draw(st.integers(0, 4))))
    try:
        expected = _reference_find_gap(prior, target, blocked)
    except RuntimeError as error:
        with pytest.raises(RuntimeError, match=f"^{re.escape(str(error))}$"):
            find_gap(prior, target, blocked)
    else:
        assert find_gap(prior, target, blocked) == expected


@settings(derandomize=True, max_examples=300, deadline=None)
@given(data=st.data())
def test_the_integer_search_on_unreduced_spans_matches_find_gap(data):
    # The build hands _find_gap a host's pieces as spans read off its
    # geometry, whose numerators and denominator share the factor n + 1, and
    # digs rooms whose ends sit over the merged closures' denominator: no
    # span is reduced.  So each host, the target's two ends and each blocked
    # closure are drawn times a factor, with retained shares other than 1/2
    # and hosts over 3, 5 and 7 as well as powers of two, and the gap must
    # be find_gap's as an interval, found at the same depth.
    hosts = data.draw(st.lists(st.tuples(_ends(), _ends()).filter(lambda h: h[0] != h[1]), max_size=3))
    retained = st.sampled_from((Fraction(1, 3), Fraction(2, 5), Fraction(1, 2), Fraction(3, 4)))
    prior = [FatCantorSet(Interval.open(min(a, b), max(a, b)), data.draw(retained)) for a, b in hosts]
    host_ends = sorted({end for a, b in hosts for end in (a, b)})
    end = st.one_of(st.sampled_from(host_ends), _ends()) if host_ends else _ends()
    a, b = data.draw(end), data.draw(end)
    target = Interval.open(min(a, b), max(a, b)) if a != b else Interval.open(a, a + 1)
    pool = sorted({target.lo + i * target.length / 4 for i in range(5)}
                  | {end for c in prior for part in c.svc_cover(2) for end in (part.lo, part.hi)})
    end = st.one_of(st.sampled_from(pool), _ends())
    count = data.draw(st.integers(0, 4))
    blocked = tuple(_interval(data.draw(end), data.draw(end), (True, True)) for _ in range(count))

    def unreduced(*numbers):
        factor = data.draw(st.integers(1, 12))
        return tuple(number * factor for number in numbers)

    spans = [(*unreduced(*cantor._span(c.host)), c.retained_fraction) for c in prior
             if target.overlaps_nontrivially(c.host)]  # _find_gap walks only hosts meeting the target
    lo, hi = target.lo, target.hi
    ends = unreduced(lo.numerator, lo.denominator) + unreduced(hi.numerator, hi.denominator)
    closures = [unreduced(*cantor._span(closure)) for closure in blocked]
    try:
        expected = find_gap(prior, target, blocked)
    except RuntimeError:
        with pytest.raises(RuntimeError, match="^no gap inside .* avoids the blocked intervals and prior covers$"):
            cantor._find_gap(spans, ends, closures)
    else:
        found, depth = cantor._find_gap(spans, ends, closures)
        assert (cantor._open(*found), depth) == expected
