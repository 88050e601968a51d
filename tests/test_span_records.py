"""Stage records built from integer spans against records built from gaps.

A load builds each canonical line's ``StageRecord`` from the integers of the
line (``StageRecord._from_span``), and the gap ``Interval`` only on first
read.  Such a record must be indistinguishable from ``StageRecord(n, gap,
depth_used)`` over the same gap, and a loaded partition's gap index equal to
the one ``SplittingPartition`` builds over the records of a build.  A build
makes its records from integer spans too, and must equal a Fraction loop.
"""

from dataclasses import FrozenInstanceError
from fractions import Fraction
from math import lcm

import pytest

import clarkesat.partition as partition_module
from clarkesat.cantor import _span, find_gap
from clarkesat.partition import (
    SplittingPartition,
    StageRecord,
    _canonical_stage,
    _parse_stage_line,
    _rescaled,
    build_partition,
    enumerated_interval,
    extend_partition,
    loads,
    saves,
)
from clarkesat.rationals import Interval, format_rational
from reference import longest_free, piece_span, shrink_gap

F = Fraction


def _assert_alike(make, reference):
    """Every reading of a fresh record from ``make()`` matches the reference,
    each on a record whose gap has not been read before."""
    assert make() == reference and reference == make()
    assert hash(make()) == hash(reference)
    assert repr(make()) == repr(reference)
    assert make().gap == reference.gap
    assert make().geometry == reference.geometry
    assert make().piece_width == reference.piece_width
    assert make().endpoints() == reference.endpoints()
    record = make()
    assert record._span == _span(reference.gap) == reference._span
    with pytest.raises(FrozenInstanceError):
        record.n = reference.n + 1
    with pytest.raises(FrozenInstanceError):
        record.gap = reference.gap
    with pytest.raises(FrozenInstanceError):
        del record.depth_used
    assert record == reference


@pytest.mark.parametrize("cap", [Fraction(1), Fraction(1, 3)], ids=str)
def test_loaded_records_match_the_build(cap):
    built = build_partition(120, cap)
    for reference, line in zip(built.stages, saves(built, version=2).splitlines()[2:-1]):
        n, gap, depth = (token.partition("=")[2] for token in line.split())
        (a, b), (c, d) = (map(int, end.split("/")) for end in gap.split(","))
        _assert_alike(lambda: _canonical_stage(line), reference)
        # Unreduced, as 10/24: reduced to the same span.
        _assert_alike(lambda: _canonical_stage(f"n={n} gap={2 * a}/{2 * b},{3 * c}/{3 * d} depth={depth}"), reference)
        # Respelled: only the generic parser reads it, through StageRecord(n, gap, depth_used).
        _assert_alike(lambda: _parse_stage_line(f"depth={depth}\tgap={gap} n={n}", "stage line", 2), reference)
        _assert_alike(lambda: StageRecord._from_span(reference.n, reference._span, reference.depth_used), reference)


@pytest.mark.parametrize("gap", [(F(1, 4), F(3, 4)), (F(0), F(1, 3)), (F(5, 12), F(7, 12)), (F(2, 9), F(5, 6)),
                                 (F(1, 6), F(1, 2)), (F(7, 10), F(14, 15))])
def test_hand_made_gaps_off_the_grid(gap):
    reference = StageRecord(3, Interval.open(*gap), 1)
    a, c = gap
    line = f"n=3 gap={a.numerator * 5}/{a.denominator * 5},{c.numerator}/{c.denominator} depth=1"
    _assert_alike(lambda: _canonical_stage(line), reference)
    _assert_alike(lambda: StageRecord._from_span(3, _span(Interval.open(*gap)), 1), reference)


def test_a_loaded_index_equals_the_one_built_over_the_gaps():
    built = build_partition(300)
    text = saves(built, version=2)
    for stages in (24, 36, 37, None):
        loaded = loads(text, stages)
        over_gaps = SplittingPartition(built.gap_cap, tuple(StageRecord(r.n, r.gap, r.depth_used)
                                                            for r in built.stages[:stages]))
        for name in ("_den", "_los", "_his", "_reach"):
            assert getattr(loaded, name) == getattr(over_gaps, name), (stages, name)
        assert [r.n for r in loaded._by_lo] == [r.n for r in over_gaps._by_lo]
    # Gaps that meet no earlier one are checked without building their Interval.
    assert not any("gap" in record.__dict__ for record in loads(text, 36).stages)


def test_a_whole_load_builds_no_gap_interval():
    loaded = loads(saves(build_partition(300), version=2))
    assert sum(record.depth_used > 0 for record in loaded.stages) > 0  # the cover check digs, too
    assert not any("gap" in record.__dict__ for record in loaded.stages)


def _no_gcd(*args):
    raise AssertionError("the grid shortcut took the gcd route")


# (line, reference gap, whether the line is on the grid shortcut): ends over
# one 3*2^k whose numerators and denominator share no factor read their span
# off the line; every other line takes the gcd route.
_HAND_MADE_LINES = [
    ("n=1 gap=5/12,7/12 depth=0", (F(5, 12), F(7, 12)), True),
    ("n=1 gap=1/3,2/3 depth=0", (F(1, 3), F(2, 3)), True),  # k = 0
    ("n=2 gap=9/24,11/24 depth=1", (F(3, 8), F(11, 24)), True),  # a numerator divisible by 3
    ("n=2 gap=10/48,13/48 depth=0", (F(5, 24), F(13, 48)), True),  # one end unreduced, the other not
    ("n=3 gap=0/6,1/6 depth=0", (F(0), F(1, 6)), True),
    ("n=3 gap=5/012,7/012 depth=0", (F(5, 12), F(7, 12)), True),  # a leading zero in both denominators
    (f"n=9 gap={3 * 101 - 8}/{3 << 44},{3 * 101 + 8}/{3 << 44} depth=2",
     (F(3 * 101 - 8, 3 << 44), F(3 * 101 + 8, 3 << 44)), True),
    ("n=1 gap=10/24,14/24 depth=0", (F(5, 12), F(7, 12)), False),  # 2a/2b
    ("n=1 gap=2/6,4/6 depth=0", (F(1, 3), F(2, 3)), False),
    ("n=1 gap=3/12,9/12 depth=0", (F(1, 4), F(3, 4)), False),  # both numerators divisible by 3
    ("n=3 gap=0/6,2/6 depth=0", (F(0), F(1, 3)), False),
    ("n=1 gap=5/012,7/12 depth=0", (F(5, 12), F(7, 12)), False),  # one denominator, spelled twice
    ("n=4 gap=1/4,2/3 depth=0", (F(1, 4), F(2, 3)), False),  # unequal denominators
    ("n=4 gap=7/24,5/12 depth=0", (F(7, 24), F(5, 12)), False),
    ("n=3 gap=1/4,3/4 depth=1", (F(1, 4), F(3, 4)), False),  # off the grid
    ("n=3 gap=3/9,5/9 depth=0", (F(1, 3), F(5, 9)), False),
    ("n=3 gap=2/10,3/10 depth=0", (F(1, 5), F(3, 10)), False),
]


@pytest.mark.parametrize("line, gap, shortcut", _HAND_MADE_LINES, ids=[line for line, _, _ in _HAND_MADE_LINES])
def test_the_grid_shortcut_and_the_gcd_route_agree(monkeypatch, line, gap, shortcut):
    n, depth = int(line.split()[0][2:]), int(line.split()[2][6:])
    reference = StageRecord(n, Interval.open(*gap), depth)
    if shortcut:
        monkeypatch.setattr(partition_module, "gcd", _no_gcd)
        monkeypatch.setattr(partition_module, "lcm", _no_gcd)
    record = _canonical_stage(line)
    assert "gap" not in record.__dict__
    assert record._span == reference._span == _span(reference.gap) and record == reference


@pytest.mark.parametrize("line", ["n=1 gap=7/12,5/12 depth=0", "n=1 gap=5/12,5/12 depth=0", "n=1 gap=1/0,2/0 depth=0",
                                  "n=1 gap=1/6,1/0 depth=0", "n=1 gap=5/12,7/12 depth=0 "])
def test_a_line_neither_route_reads_is_left_to_the_generic_parser(line):
    assert _canonical_stage(line) is None


def _reference_extend(partition, stages):
    """``extend_partition`` as a Fraction loop over ``Interval``s: I_n from
    ``enumerated_interval``, the room from ``longest_free`` or a dig by
    ``find_gap`` with the nested gaps' closures blocked, then
    ``shrink_gap`` and ``StageRecord(n, gap, depth)``."""
    grown = SplittingPartition(partition.gap_cap, partition.stages, partition.translation)
    for n in range(partition.stage_count + 1, stages + 1):
        target = enumerated_interval(n)
        found, depth = longest_free(grown, target), 0
        if found is None:
            host, *nested = grown.stages_overlapping(target)
            first, last, _, _ = piece_span(host, target)
            pieces = [grown.piece_set(host.n, i) for i in range(first, last + 1)]
            found, depth = find_gap(pieces, target, tuple(r.gap.closure() for r in nested))
        grown._add(StageRecord(n, shrink_gap(found, n, grown.gap_cap), depth))
    return grown


def _assert_same_build(built, reference):
    assert built.stages == reference.stages
    for name in ("_den", "_los", "_his", "_reach"):
        assert getattr(built, name) == getattr(reference, name), name
    for record in built.stages:
        assert record._span == _span(record.gap), record.n
    # saves writes each gap end from the span: the same bytes as from the gap.
    lines = saves(built, version=2).splitlines()[2:-1]
    assert lines == [f"n={r.n} gap={format_rational(r.gap.lo)},{format_rational(r.gap.hi)} depth={r.depth_used}"
                     for r in reference.stages]


# (cap, dug stages of the 200): every cap but the smallest digs past the
# 120-stage prefix, and 5/2^33 sets j by the cap up to stage 30.
@pytest.mark.parametrize("cap, dug", [(F(1), 17), (F(1, 3), 4), (F(5, 7), 17), (F(1, 8), 3), (F(5, 2**33), 0)],
                         ids=str)
def test_the_integer_build_matches_the_fraction_loop(cap, dug):
    built = build_partition(200, cap)
    assert sum(record.depth_used > 0 for record in built.stages) == dug
    _assert_same_build(built, _reference_extend(SplittingPartition(cap, ()), 200))
    prefix = loads(saves(built, version=2), 120)
    _assert_same_build(extend_partition(prefix, 200), _reference_extend(prefix, 200))


def test_extending_a_hand_made_partition_off_the_grid_matches_the_fraction_loop():
    # Stages 1 and 2 over 5 and 7, off the 3*2^k grid: the index's lcm is 35,
    # and the first built gap rescales it by a factor that is no power of
    # two, the multiplying route of _add; later rescales are shifts.  The
    # closures of (2/5, 3/5) and (1/7, 2/7) tile targets, so the build digs.
    hand = SplittingPartition(F(1), (StageRecord(1, Interval.open(F(2, 5), F(3, 5)), 0),
                                     StageRecord(2, Interval.open(F(1, 7), F(2, 7)), 0)))
    built = extend_partition(hand, 150)
    assert built._den % 35 == 0 and sum(record.depth_used > 0 for record in built.stages) > 0
    _assert_same_build(built, _reference_extend(hand, 150))
    # The index over _den is the one built over the same records at once,
    # scaled; a build from no stages starts from _den = 1, which no shift
    # takes to a multiple of 3.
    for partition in (built, build_partition(150)):
        fresh = SplittingPartition(partition.gap_cap, partition.stages)
        factor, rest = divmod(partition._den, fresh._den)
        assert rest == 0
        for name in ("_los", "_his", "_reach"):
            assert getattr(partition, name) == [end * factor for end in getattr(fresh, name)], name
        assert partition._by_lo == fresh._by_lo


def _gap_lcm(partition):
    return lcm(*(record._span[2] for record in partition.stages))


def test_the_index_denominator_keeps_its_spare_bits_to_a_quarter_of_the_gap_lcm():
    # _add rescales to the lcm L of the gap denominators times 2^max(64,
    # bits(L)/4), so _den stays within that many bits of L however the
    # partition grew: built at once, or extended from a loaded prefix, whose
    # index has no spare bits.
    built = build_partition(2000)
    extended = extend_partition(loads(saves(built, version=2), 1000), 2000)
    assert extended.stages == built.stages
    for partition in (built, extended):
        top = _gap_lcm(partition)
        assert partition._den % top == 0
        assert partition._den.bit_length() <= top.bit_length() + max(64, top.bit_length() // 4)


@pytest.mark.parametrize("d, den", [(1, 12 << 64), (3, 3 << 70), (12, 420 << 64), (5, 35), (5, 5 * 7 << 9),
                                    (35, 35), (7, 63)])
def test_rescaling_by_a_shift_or_a_product_gives_the_product(d, den):
    numerators = [0, 1, d - 1, d, 7 * d + 3, -(d + 2)]
    assert _rescaled(numerators, den, d) == [x * (den // d) for x in numerators]
