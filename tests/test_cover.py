"""The depth-d cover kept as its set and depth: ``svc_cover`` counts and
measures by the cover law without walking its pieces, and reads as the
``IntervalSet`` of its parts."""

import hashlib
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clarkesat import FiniteSupport, SaturatedFunction, build_partition, independence_fingerprint, lipschitz_lower_bound
from clarkesat.cantor import FatCantorSet, _MeasureSteps
from clarkesat.rationals import Interval, IntervalSet, format_rational
from clarkesat.verifier import _certified_point

HOSTS = [Interval(Fraction(-1, 3), Fraction(2, 5), lo_closed, hi_closed)
         for lo_closed in (True, False) for hi_closed in (True, False)]
RHOS = (Fraction(1, 2), Fraction(1, 3), Fraction(3, 4))
SETS = [FatCantorSet(host, rho) for host in HOSTS for rho in RHOS]


@pytest.mark.parametrize("depth", range(13))
def test_cover_reads_as_the_interval_set_of_its_parts(depth):
    for c in SETS:
        cover = c.svc_cover(depth)
        plain = IntervalSet.of(cover.parts)
        assert isinstance(cover, IntervalSet)
        assert len(cover) == len(plain) == 2**depth
        assert cover.measure() == sum((p.hi - p.lo for p in cover.parts), Fraction(0))
        assert cover.measure() == c.limit_measure + c.tail(depth)
        assert cover == plain and plain == cover
        assert not (cover != plain or plain != cover)
        assert hash(cover) == hash(plain)


@pytest.mark.parametrize("depth", range(13))
def test_cover_set_operations_match_the_interval_set_of_its_parts(depth):
    kind = depth % len(HOSTS)  # each host kind, with every rho, at three or four depths
    for c in SETS[kind * len(RHOS):(kind + 1) * len(RHOS)]:
        cover = c.svc_cover(depth)
        plain = IntervalSet.of(cover.parts)
        assert str(cover) == str(plain)
        assert repr(cover) == repr(plain)
        host = c.host.closure()
        probes = [host.lo, host.hi, host.midpoint, cover.parts[-1].lo, Fraction(-1), Fraction(1, 7)]
        assert [cover.contains(x) for x in probes] == [plain.contains(x) for x in probes]
        window = Interval(Fraction(-1, 5), Fraction(1, 9), False, True)
        assert cover.intersect_interval(window) == plain.intersect_interval(window)
        assert cover.complement_within(host) == plain.complement_within(host)
        other = IntervalSet.of([Interval.closed(Fraction(1, 3), 1)])
        assert cover.union(other) == plain.union(other)
        assert cover.intersect(other) == plain.intersect(other)


def test_cover_differs_from_another_set():
    canonical = FatCantorSet.canonical()
    assert canonical.svc_cover(3) != canonical.svc_cover(4)
    assert canonical.svc_cover(3) != IntervalSet.of(canonical.svc_cover(4).parts)
    assert IntervalSet.of(canonical.svc_cover(4).parts) != canonical.svc_cover(3)
    assert canonical.svc_cover(3) != "not a set"


def test_count_and_measure_leave_the_parts_unbuilt():
    cover = FatCantorSet.canonical().svc_cover(12)
    assert len(cover) == 4096
    assert cover.measure() == Fraction(1, 2) + Fraction(1, 2**13)
    assert "parts" not in vars(cover)
    assert cover.parts[0] == Interval.closed(0, Fraction(1, 2**13) + Fraction(1, 2 * 4**12))
    assert "parts" in vars(cover)


def test_first_reads_from_eight_threads_agree():
    cover = FatCantorSet(HOSTS[3], Fraction(1, 3)).svc_cover(12)
    barrier = threading.Barrier(8)

    def read(_):
        barrier.wait(timeout=30)
        return cover.parts

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            seen = list(pool.map(read, range(8), timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert all(parts == seen[0] for parts in seen)
    assert len(seen[0]) == 4096 and cover.parts == seen[0]


def test_cover_corpus_is_bit_identical():
    # Every part's endpoints and closure flags (through str) and every
    # measure, over four host kinds, three retained fractions and depths 0-14.
    parts, measures = hashlib.sha256(), hashlib.sha256()
    for c in SETS:
        for depth in range(15):
            cover = c.svc_cover(depth)
            parts.update(str(cover).encode() + b"\n")
            measures.update(format_rational(cover.measure()).encode() + b"\n")
    assert parts.hexdigest()[:16] == "b5fd0dc4a77ff866"
    assert measures.hexdigest()[:16] == "b845293607b91aa9"


def test_first_piece_is_the_covers_first_part():
    for c in SETS:
        for depth in range(13):
            assert c.first_piece(depth) == c.svc_cover(depth).parts[0]


def test_first_piece_readers_keep_their_values():
    # Values of the parent's `svc_cover(d).parts[0]` readers on 20 stages.
    partition = build_partition(20)
    e0 = SaturatedFunction(partition, FiniteSupport.unit(0))
    assert [lipschitz_lower_bound(e0, budget) for budget in (1, 2, 3)] == [
        Fraction(7679, 8704), Fraction(3967, 4224), Fraction(31, 32)]
    for K in range(1, 11):
        assert independence_fingerprint(partition, K) == [[int(j == k) for k in range(K)] for j in range(K)]
    assert [format_rational(_certified_point(partition, 2 * j + 1)) for j in range(10)] == [
        "43/96", "53/256", "89/288", "20839/24576", "3739/40960", "90647/589824", "908461/2752512",
        "1682105/4194304", "40838531/56623104", "200491897/251658240"]


def test_negative_depth_is_rejected_when_the_cover_is_asked_for():
    for c in (FatCantorSet.canonical(), SETS[-1]):
        with pytest.raises(ValueError, match="^depth must be >= 0$"):
            c.svc_cover(-1)
        with pytest.raises(ValueError, match="^depth must be >= 0$"):
            c.first_piece(-1)


def test_a_deep_cover_stays_unbuilt():
    for c in (FatCantorSet.canonical(), FatCantorSet(HOSTS[3], Fraction(1, 3))):
        cover = c.svc_cover(40)
        assert len(cover) == 2**40
        assert cover.measure() == c.limit_measure + c.tail(40)
        assert "parts" not in vars(cover)
        too_many = c.svc_cover(63)  # 2^63 pieces: past sys.maxsize, which caps len()
        with pytest.raises(OverflowError):
            len(too_many)
        assert too_many.measure() == c.limit_measure + c.tail(63)
        assert "parts" not in vars(too_many)


@pytest.mark.parametrize("depth", range(13, 21))
def test_cover_law_matches_the_walked_pieces(depth):
    # Count and sum the walk's integer pieces, as the cover did when it kept them.
    c = FatCantorSet.canonical()
    pieces, dens = [], set()
    for lo, hi, den, _ in c._walk(c.host.lo, c.host.hi, depth):
        pieces.append((lo, hi))
        dens.add(den)
    (den,) = dens
    cover = c.svc_cover(depth)
    assert len(cover) == len(pieces)
    assert cover.measure() == Fraction(sum(hi - lo for lo, hi in pieces), den)


# ---------------------------------------------------------------------------
# svc_measure_in on integers, against its Fraction body
# ---------------------------------------------------------------------------


def _fraction_measure_in(c, window, depth):
    """``svc_measure_in`` in Fraction arithmetic: the sum over the walk's
    pieces as the method computed it before it summed integer numerators."""
    pieces = list(c._walk(window.lo, window.hi, depth, whole=True))
    mass = c.limit_measure / 2**depth
    leaves, lo, hi = 0, Fraction(0), Fraction(0)
    for p_lo, p_hi, den, step in pieces:
        if step < depth:
            leaves += 1 << (depth - step)
            continue
        piece_lo, piece_hi = Fraction(p_lo, den), Fraction(p_hi, den)
        overlap = min(piece_hi, window.hi) - max(piece_lo, window.lo)
        lo += max(Fraction(0), overlap - (piece_hi - piece_lo - mass))
        hi += min(overlap, mass)
    return mass * leaves + lo, mass * leaves + hi


def _measure_windows(c):
    """One window missing the host, one swallowing it, one with an end on a
    depth-3 piece end, one inside one depth-6 piece, one crossing many pieces."""
    inner = c.first_piece(6)
    width = inner.length
    return [
        Interval.closed(Fraction(1, 2), Fraction(1)),
        Interval.closed(Fraction(-1), Fraction(1)),
        Interval.closed(c.first_piece(3).hi, Fraction(1, 4)),
        Interval.open(inner.lo + width / 3, inner.hi - width / 5),
        Interval(Fraction(-1, 5), Fraction(1, 7), True, False),
    ]


def test_measure_in_corpus_is_bit_identical():
    # Every bound's two ends over the four host kinds, three retained
    # fractions, five windows and depths 0-14.
    digest = hashlib.sha256()
    for c in SETS:
        for window in _measure_windows(c):
            for depth in range(15):
                bound = c.svc_measure_in(window, depth)
                digest.update(f"{format_rational(bound.lo)} {format_rational(bound.hi)}\n".encode())
    assert digest.hexdigest()[:16] == "68a8b4cdd7221079"


def _drawn_end(data):
    """A rational around the hosts: a dyadic grid point, or p/q with a small q."""
    if data.draw(st.booleans(), label="dyadic"):
        m = data.draw(st.integers(0, 40), label="grid")
        return Fraction(data.draw(st.integers(-2**m, 2**m), label="grid point"), 2**m)
    q = data.draw(st.integers(1, 1000), label="q")
    return Fraction(data.draw(st.integers(-q, q), label="p"), q)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(data=st.data())
def test_measure_in_matches_the_fraction_sum(data):
    c = data.draw(st.sampled_from(SETS), label="set")
    lo, hi = sorted((_drawn_end(data), _drawn_end(data)))
    flags = (data.draw(st.booleans(), label="lo_closed"), data.draw(st.booleans(), label="hi_closed"))
    window = Interval(lo, hi, *flags) if lo < hi else Interval.closed(lo, hi)
    for depth in range(data.draw(st.integers(0, 20), label="depth") + 1):
        bound = c.svc_measure_in(window, depth)
        assert (bound.lo, bound.hi) == _fraction_measure_in(c, window, depth), (window, depth)


# ---------------------------------------------------------------------------
# The step walk behind svc_measure_in, taken one depth at a time
# ---------------------------------------------------------------------------


def _step_windows(c):
    """Windows that miss the host, swallow it, touch either end of it from
    outside, sit inside it or inside one depth-6 piece, or end on a depth-3
    piece end, and point windows at a host end, a piece end, the middle
    removed at step 0 and a point inside a depth-6 piece."""
    lo, hi, length = c.host.lo, c.host.hi, c.host.length
    inner = c.first_piece(6)
    width = inner.length
    inside = inner.lo + width / 3
    points = (lo, hi, inner.hi, c.host.midpoint, inside)
    return [
        Interval.closed(hi + Fraction(1, 7), hi + 1),
        Interval.closed(lo - 1, hi + 1),
        Interval.closed(lo - 1, lo),
        Interval.open(hi, hi + Fraction(1, 3)),
        Interval.closed(lo + length / 5, hi - length / 7),
        Interval.open(inside, inner.hi - width / 5),
        Interval(c.first_piece(3).hi, c.host.midpoint, False, True),
    ] + [Interval.closed(x, x) for x in points]


@pytest.mark.parametrize("c", SETS, ids=lambda c: f"{c.host}-{c.retained_fraction}")
def test_step_walk_matches_measure_in_at_each_depth(c):
    # One walk per window, taken from depth 0 to 20, against a fresh
    # svc_measure_in and the Fraction sum at each depth.
    for window in _step_windows(c):
        steps = _MeasureSteps(c, window)
        for depth in range(21):
            if depth:
                steps.deeper()
            assert len(steps.frontier) <= 2
            lo, hi, den = steps.bound()
            bound = c.svc_measure_in(window, depth)
            assert (Fraction(lo, den), Fraction(hi, den)) == (bound.lo, bound.hi), (window, depth)
            assert (bound.lo, bound.hi) == _fraction_measure_in(c, window, depth), (window, depth)
            if not window.overlaps_nontrivially(c.host) or window.lo <= c.host.lo and c.host.hi <= window.hi:
                assert lo == hi  # a missed or swallowed host resolves exactly
