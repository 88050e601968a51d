"""The depth-d cover kept as integers: ``svc_cover`` counts and measures its
pieces without building them, and reads as the ``IntervalSet`` of its parts."""

import hashlib
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest

from clarkesat.cantor import FatCantorSet
from clarkesat.rationals import Interval, IntervalSet, format_rational

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
