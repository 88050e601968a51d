"""Closed-form rank, unrank and search of the interval enumeration, checked
against the two streams as they were first written, one interval at a time."""

import random
import re
import time
from fractions import Fraction
from itertools import islice
from math import gcd

import pytest

from clarkesat.partition import (
    _MAX_PAIR_POSITION,
    _MAX_PAIR_WEIGHT,
    _enumeration,
    _pair_blocks,
    _pair_weight,
    _pairs_below,
    _totients,
    enumerated_interval,
    enumeration_index,
    first_index_inside,
)
from clarkesat.rationals import Interval

N = 100_000


def _dyadic_stream():
    level = 1
    while True:
        scale = Fraction(1, 2**level)
        for j in range(1, 2**level):
            yield Interval.open((j - 1) * scale, (j + 1) * scale)
        level += 1


def _pair_stream():
    weight = 4
    while True:
        for qa in range(2, weight - 1):
            qb = weight - qa
            for pa in range(1, qa):
                if gcd(pa, qa) != 1:
                    continue
                a = Fraction(pa, qa)
                for pb in range(1, qb):
                    if gcd(pb, qb) != 1:
                        continue
                    b = Fraction(pb, qb)
                    if a < b:
                        yield Interval.open(a, b)
        weight += 1


@pytest.fixture(scope="module")
def reference():
    """I_1 .. I_N from the reference streams: odd indices dyadic, even ones pairs."""
    dyadic, pairs = _dyadic_stream(), _pair_stream()
    return [next(dyadic) if n % 2 else next(pairs) for n in range(1, N + 1)]


def _scan_inside(reference, window, min_index):
    """The smallest n >= min_index with I_n inside the window, by brute force."""
    for n in range(max(1, min_index), N + 1):
        if window.contains_interval(reference[n - 1]):
            return n
    return None


def _mid_block_indices(reference):
    """Enumeration indices in the middle of dyadic levels and of pair blocks."""
    indices = [2 * (2**level - level - 1 + 2 ** (level - 1)) - 1 for level in range(1, 16)]
    block, start = None, 2
    for n in range(2, N + 1, 2):
        key = (reference[n - 1].lo.denominator, reference[n - 1].hi.denominator)
        if key != block:
            if n - start > 4:
                indices.append(start + (n - start) // 4 * 2)
            block, start = key, n
    return [n for n in indices if n <= N // 2]


def test_the_stream_matches_the_reference_for_every_n_up_to_100000(reference):
    assert list(islice(_enumeration(1), N)) == reference


def test_unrank_matches_the_reference_in_both_parities(reference):
    rng = random.Random(20)
    for n in sorted(rng.sample(range(1, N - 60), 300)) + list(range(1, 40)):
        assert enumerated_interval(n) == reference[n - 1], n
        assert list(islice(_enumeration(n), 60)) == reference[n - 1: n + 59], n
    with pytest.raises(ValueError, match="enumeration indices start at 1"):
        enumerated_interval(0)


def test_rank_matches_the_first_occurrence(reference):
    first = {}
    for n, interval in enumerate(reference, 1):
        first.setdefault(interval, n)
    rng = random.Random(21)
    for n in rng.sample(range(1, N + 1), 3000) + list(range(1, 200)):
        assert enumeration_index(reference[n - 1]) == first[reference[n - 1]], n


def test_every_start_up_to_3000_streams_and_ranks_as_the_reference(reference):
    # Each n sends a different skip through the pair stream's jump: every
    # block and row edge of the pair weights up to 21.
    first = {}
    for n, interval in enumerate(reference, 1):
        first.setdefault(interval, n)
    for n in range(1, 3001):
        assert list(islice(_enumeration(n), 3)) == reference[n - 1: n + 2], n
        assert enumeration_index(reference[n - 1]) == first[reference[n - 1]], n


@pytest.mark.parametrize(
    "interval",
    [
        Interval.open(0, Fraction(1, 3)),
        Interval.open(Fraction(2, 3), 1),
        Interval.open(Fraction(1, 2), Fraction(3, 2)),
        Interval.open(Fraction(-1, 2), Fraction(1, 2)),
        Interval.open(2, 3),
    ],
)
def test_rank_rejects_intervals_outside_the_enumeration(interval):
    with pytest.raises(ValueError, match=f"^{re.escape(f'interval {interval} not found in the enumeration')}$"):
        enumeration_index(interval)


def test_rank_rejects_closed_intervals():
    with pytest.raises(ValueError, match="enumerated intervals are open"):
        enumeration_index(Interval.closed(0, 1))


def test_first_index_inside_matches_a_scan(reference):
    rng = random.Random(22)
    ends = [Fraction(0), Fraction(1), Fraction(-1, 3), Fraction(4, 3), Fraction(1, 2), Fraction(1, 3)]
    starts = _mid_block_indices(reference) + [1, 2, 3]
    checked = set()
    while len(checked) < 700:
        if rng.random() < 0.3:  # an end at 0, 1 or beyond [0, 1]
            a, b = rng.choice(ends), Fraction(rng.randrange(0, 97), rng.randrange(1, 97))
        else:
            q = rng.choice([4, 8, 16, 30, 64, 97, 128])
            a, b = Fraction(rng.randrange(-q // 4, q + q // 4), q), Fraction(rng.randrange(-q // 4, q + q // 4), q)
        if max(min(a, b), 0) >= min(max(a, b), 1):
            continue
        window = Interval(min(a, b), max(a, b), rng.random() < 0.5, rng.random() < 0.5)
        min_index = rng.choice(starts + [rng.randrange(1, 5000)])
        expected = _scan_inside(reference, window, min_index)
        if expected is not None:
            assert first_index_inside(window, min_index) == expected, (window, min_index)
            checked.add((window, min_index))


@pytest.mark.parametrize(
    "window",
    [Interval.open(2, 3), Interval.closed(1, 2), Interval(Fraction(-1), Fraction(0), True, True)],
)
def test_first_index_inside_rejects_windows_off_the_unit_interval(window):
    with pytest.raises(ValueError, match="no enumerated interval lies inside"):
        first_index_inside(window)


def test_narrow_windows_name_their_first_index():
    # 699009 is what the old one-interval-at-a-time scan found with a
    # 2,000,000-index limit; the 2^-40 window lies far beyond any scan.
    third = Fraction(1, 3)
    for radius, expected in [(Fraction(1, 100000), 699009), (Fraction(1, 2**40), 5864062014719)]:
        window = Interval.open(third - radius, third + radius)
        n = first_index_inside(window)
        assert n == expected
        assert window.contains_interval(enumerated_interval(n))
        assert not any(window.contains_interval(enumerated_interval(m)) for m in range(n - 40, n))


@pytest.mark.parametrize("n", [10**12, 10**12 + 1, 5864062014719, 5864062014720, 3 * 10**13])
def test_far_indices_round_trip(n):
    assert enumeration_index(enumerated_interval(n)) == n


def test_rank_raises_past_its_size_bound_before_sieving():
    third, radius = Fraction(1, 3), Fraction(1, 2**40)
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"3298534883328 \+ 3298534883328 > 65536, past the rank's size bound"):
        enumeration_index(Interval.open(third - radius, third + radius))  # a 6.6e12-entry sieve
    assert time.perf_counter() - start < 0.5
    with pytest.raises(ValueError, match="past the rank's size bound"):  # qa + qb = 2^16 + 1
        enumeration_index(Interval.open(Fraction(1, 2**15 + 1), Fraction(2**15 - 1, 2**15)))


def test_rank_at_its_size_bound_is_unchanged():
    at_bound = Interval.open(Fraction(1, 2**15 + 1), Fraction(2**15 - 2, 2**15 - 1))  # qa + qb = 2^16
    assert enumeration_index(at_bound) == 284061060792899790
    assert enumerated_interval(284061060792899790) == at_bound


@pytest.mark.parametrize("level", [17, 18, 40, 1000])
def test_deep_dyadic_ranks_skip_the_pair_rank(level):
    # qa + qb >= 2^(level - 1) + 2 passes the bound from level 17 on, and
    # the pair rank there is always past the dyadic one.
    for j in (2, 3, 2**level - 1):
        interval = Interval.open(Fraction(j - 1, 2**level), Fraction(j + 1, 2**level))
        assert enumeration_index(interval) == 2 * (2**level - level + j - 1) - 1


def test_first_index_inside_bound_is_the_pair_count_up_to_the_weight_bound():
    assert _MAX_PAIR_POSITION == _pairs_below(_MAX_PAIR_WEIGHT + 1, _totients(_MAX_PAIR_WEIGHT + 1))


def test_first_index_inside_raises_past_its_size_bound_before_sieving():
    # Radius 2^-100 once built sieves until MemoryError; 2^-56 is the first
    # power of two around 1/3 whose dyadic candidate lies past the bound.
    third = Fraction(1, 3)
    for exponent in (56, 100):
        radius = Fraction(1, 2**exponent)
        start = time.perf_counter()
        with pytest.raises(ValueError, match="may be a pair of weight above 65536, past the search's size bound"):
            first_index_inside(Interval.open(third - radius, third + radius))
        assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("exponent", [50, 55])
def test_first_index_inside_answers_up_to_its_size_bound(exponent):
    radius = Fraction(1, 2**exponent)
    window = Interval.open(Fraction(1, 3) - radius, Fraction(1, 3) + radius)
    n = first_index_inside(window)
    assert window.contains_interval(enumerated_interval(n))
    assert not window.contains_interval(enumerated_interval(n - 1))


def _block_table(top):
    """(w, pos, qa, qb, size) for every pair block of weight 4..top, from the
    block-size formula alone: pos positions precede the block."""
    phi, table, pos = _totients(top), [], 0
    for w in range(4, top + 1):
        for qa in range(2, w - 1):
            qb = w - qa
            size = (phi[qa] * phi[qb] - (phi[qa] if qa == qb else 0)) // 2
            table.append((w, pos, qa, qb, size))
            pos += size
    return table


def test_pair_weight_and_blocks_match_the_block_table():
    table = _block_table(70)
    assert table[0] == (4, 0, 2, 2, 0)  # the one zero-size block

    def expected(w, m):  # the first block of weight >= w holding a position >= m
        return next((pos, qa, qb) for weight, pos, qa, qb, size in table if weight >= w and pos + size >= m)

    for w, pos, qa, qb, size in table:
        if w > 64:
            break
        for m in {pos, pos + 1, pos + size}:  # the first and last positions, and the one before
            for start in {4, w - 1, w} - {3}:  # walks from weight 4 regrow the sieve on the way
                assert next(_pair_blocks(start, m)) == expected(start, m), (start, m)
        if size:
            assert _pair_weight(pos + 1) == _pair_weight(pos + size) == w, (pos, qa, qb)
    for w in range(4, 65):
        blocks = [(pos, qa, qb) for weight, pos, qa, qb, _ in table if weight >= w]
        assert list(islice(_pair_blocks(w), len(blocks))) == blocks, w


def test_first_index_inside_matches_a_scan_for_fit_below_at_and_above_the_first_weight(reference):
    # fit, the least weight w >= 4 with w^2 * width >= 4, against the weight
    # of pair position first = (min_index + 1) // 2: the pair search starts
    # at the larger of the two.  Each window is a pair interval I_k with
    # k >= min_index, or that interval widened a little, so pairs answer
    # often, and up to four are drawn from each side of the weight.
    rng = random.Random(23)
    starts = sorted({1, 2, 3, 4, *rng.sample(_mid_block_indices(reference), 40), *rng.sample(range(5, 20000), 40)})
    seen = {"below": 0, "at": 0, "above": 0}
    pairs = 0
    for min_index in starts:
        weight = _pair_weight((min_index + 1) // 2)
        drawn = {"below": [], "at": [], "above": []}
        for k in range(min_index + min_index % 2, min(min_index + 3000, N), 2):
            pair = reference[k - 1]
            margin = (pair.hi - pair.lo) * rng.choice([0, 0, Fraction(1, 16)])
            window = Interval(pair.lo - margin, pair.hi + margin, rng.random() < 0.5, rng.random() < 0.5)
            width = min(window.hi, 1) - max(window.lo, 0)
            fit = max(4, next(w for w in range(1, 1000) if w * w * width >= 4))
            drawn["below" if fit < weight else "at" if fit == weight else "above"].append(window)
        for side, windows in drawn.items():
            for window in rng.sample(windows, min(4, len(windows))):
                expected = _scan_inside(reference, window, min_index)
                assert first_index_inside(window, min_index) == expected, (window, min_index)
                seen[side] += 1
                pairs += expected % 2 == 0
    assert min(seen.values()) >= 200 and pairs >= 300, (seen, pairs)


def test_pair_weight_names_the_block_of_every_position_up_to_weight_24():
    # Weights 5 to 8 are read from a table of first positions with no
    # search, and the search takes over at weight 9: every position on both
    # sides of that switch must give the weight of the block holding it.
    table = _block_table(24)
    assert sum(size for w, _, _, _, size in table if w <= 8) == 24
    for w, pos, _, _, size in table:
        for m in range(pos + 1, pos + size + 1):
            assert _pair_weight(m) == w, m
