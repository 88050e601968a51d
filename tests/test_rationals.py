from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clarkesat.functions import GeneratorSource
from clarkesat.rationals import (
    Interval,
    IntervalSet,
    complement_within,
    format_interval_set,
    format_rational,
    intersect,
    measure,
    parse_interval_set,
    parse_rational,
    rational,
)


def iset(*pairs):
    return IntervalSet.of(Interval.closed(a, b) for a, b in pairs)


def test_parse_and_format_rational():
    assert parse_rational("3/8") == Fraction(3, 8)
    assert parse_rational("-2/6") == Fraction(-1, 3)
    assert parse_rational("7") == Fraction(7)
    assert format_rational(Fraction(0)) == "0/1"
    assert format_rational(Fraction(5, 10)) == "1/2"
    with pytest.raises(ValueError):
        parse_rational("0.5")
    with pytest.raises(ValueError, match="zero denominator"):
        parse_rational("1/0")


def test_interval_validation():
    with pytest.raises(ValueError):
        Interval.closed(1, 0)
    with pytest.raises(ValueError):
        Interval.open(1, 1)
    assert Interval.closed(1, 1).length == 0
    assert Interval.open("1/3", "1/2").is_nontrivial


def test_interval_contains_respects_closure():
    iv = Interval(Fraction(0), Fraction(1), False, True)
    assert not iv.contains(Fraction(0))
    assert iv.contains(Fraction(1))
    assert iv.contains(Fraction(1, 2))


def _contains_by_comparison(interval, x):
    """``Interval.contains`` as Fraction comparisons with each end."""
    if x < interval.lo or x > interval.hi:
        return False
    if x == interval.lo and not interval.lo_closed:
        return False
    if x == interval.hi and not interval.hi_closed:
        return False
    return True


_ENDS = st.fractions(min_value=-3, max_value=3, max_denominator=12)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(a=_ENDS, b=_ENDS, lo_closed=st.booleans(), hi_closed=st.booleans(), int_ends=st.booleans(), extra=_ENDS)
def test_interval_contains_matches_the_comparison_rule(a, b, lo_closed, hi_closed, int_ends, extra):
    # Closed, open, half-open and degenerate intervals, with Fraction ends or,
    # where an end is a whole number and int_ends is drawn, an int end.
    lo, hi = min(a, b), max(a, b)
    if lo == hi:
        lo_closed = hi_closed = True
    ends = [int(end) if int_ends and end.denominator == 1 else end for end in (lo, hi)]
    interval = Interval(*ends, lo_closed, hi_closed)
    tiny = Fraction(1, 97)
    points = [lo, hi, (lo + hi) / 2, lo - tiny, lo + tiny, hi - tiny, hi + tiny, lo - 1, hi + 1, extra]
    points += [Fraction(lo.numerator // lo.denominator), Fraction(-(-hi.numerator // hi.denominator))]
    for x in points:
        expected = _contains_by_comparison(interval, x)
        assert interval.contains(x) is expected, (interval, x)
        if x.denominator == 1:
            assert interval.contains(int(x)) is expected, (interval, x)
    for bad in (str(lo), format_rational(hi), float(lo), 0.5):
        with pytest.raises(TypeError):
            interval.contains(bad)


def test_interval_set_contains_finds_the_part():
    half = Fraction(1, 2)
    s = IntervalSet.of([Interval(0, Fraction(1, 4), True, False), Interval(half, 1, False, True)])
    assert s.contains(Fraction(1, 8)) and s.contains(Fraction(3, 4))  # inside a part
    assert s.contains(0) and s.contains(1)  # closed ends
    assert not s.contains(Fraction(1, 4)) and not s.contains(half)  # open ends
    assert not s.contains(Fraction(3, 8))  # in the gap between the parts
    assert not s.contains(Fraction(-1, 8)) and not s.contains(Fraction(9, 8))  # before and past
    assert not IntervalSet.of([]).contains(0)


def test_measure_empty_set():
    assert measure(IntervalSet.empty()) == 0


def test_measure_depth_one_svc_cover():
    # [0,3/8] and [5/8,1] have lengths 3/8 each, total 3/4.
    s = iset((Fraction(0), Fraction(3, 8)), (Fraction(5, 8), Fraction(1)))
    assert measure(s) == Fraction(3, 4)


def test_measure_unit_interval():
    assert measure(iset((0, 1))) == 1


def test_intersect_two_intervals():
    s = iset((0, 1))
    t = iset((Fraction(1, 2), 2))
    assert intersect(s, t) == iset((Fraction(1, 2), 1))


def test_intersect_with_empty_is_empty():
    assert intersect(iset((0, 1)), IntervalSet.empty()).is_empty


def test_intersect_sweep_example():
    s = iset((Fraction(0), Fraction(3, 8)), (Fraction(5, 8), Fraction(1)))
    t = iset((Fraction(1, 4), Fraction(3, 4)))
    expected = iset((Fraction(1, 4), Fraction(3, 8)), (Fraction(5, 8), Fraction(3, 4)))
    assert intersect(s, t) == expected


def _grid_intervals():
    """Every interval with ends in {0, 1/2, 1, 3/2}: 4 singletons and 6 spans with 4 flag pairs each."""
    ends = [Fraction(k, 2) for k in range(4)]
    for lo in ends:
        for hi in ends:
            flags = [(True, True)] if lo == hi else [(a, b) for a in (True, False) for b in (True, False)]
            yield from (Interval(lo, hi, a, b) for a, b in flags if lo <= hi)


def test_intersects_on_a_grid_of_intervals():
    # The oracle tries every end of both intervals and the midpoint of their
    # overlap: a shared point exists iff one of them lies in both.
    grid = list(_grid_intervals())
    assert len(grid) == 28
    for s in grid:
        for t in grid:
            candidates = {s.lo, s.hi, t.lo, t.hi, (max(s.lo, t.lo) + min(s.hi, t.hi)) / 2}
            shared = any(s.contains(x) and t.contains(x) for x in candidates)
            assert s.intersects(t) is shared, (s, t)


def test_complement_of_empty_is_host():
    host = Interval.closed(0, 1)
    assert complement_within(IntervalSet.empty(), host) == iset((0, 1))


def test_complement_depth_one_gap():
    host = Interval.closed(0, 1)
    s = iset((Fraction(0), Fraction(3, 8)), (Fraction(5, 8), Fraction(1)))
    gap = complement_within(s, host)
    assert gap == IntervalSet.of([Interval.open(Fraction(3, 8), Fraction(5, 8))])


def test_complement_of_host_is_empty():
    host = Interval.closed(0, 1)
    assert complement_within(iset((0, 1)), host).is_empty


def test_complement_requires_subset():
    with pytest.raises(ValueError):
        complement_within(iset((0, 2)), Interval.closed(0, 1))


def test_normalization_merges_touching_closures():
    # [a,b] followed by (b,c) merges into [a,c).
    merged = IntervalSet.of(
        [Interval.closed(0, 1), Interval(Fraction(1), Fraction(2), False, False)]
    )
    assert merged.parts == (Interval(Fraction(0), Fraction(2), True, False),)
    # [a,b) followed by (b,c) stays split: the point b is missing.
    split = IntervalSet.of(
        [
            Interval(Fraction(0), Fraction(1), True, False),
            Interval(Fraction(1), Fraction(2), False, False),
        ]
    )
    assert len(split) == 2


def test_serialization_round_trip():
    s = IntervalSet.of(
        [Interval.open(Fraction(1, 3), Fraction(1, 2)), Interval.closed(0, Fraction(1, 4))]
    )
    assert parse_interval_set(format_interval_set(s)) == s


rationals = st.fractions(
    min_value=Fraction(-4), max_value=Fraction(4), max_denominator=32
)


@st.composite
def interval_sets(draw):
    n = draw(st.integers(min_value=0, max_value=5))
    parts = []
    for _ in range(n):
        a = draw(rationals)
        b = draw(rationals)
        if a == b:
            continue
        lo, hi = min(a, b), max(a, b)
        parts.append(
            Interval(lo, hi, draw(st.booleans()), draw(st.booleans()))
        )
    return IntervalSet.of(parts)


@settings(max_examples=200)
@given(interval_sets(), interval_sets())
def test_inclusion_exclusion_exact(s, t):
    union = s.union(t)
    inter = s.intersect(t)
    assert measure(union) + measure(inter) == measure(s) + measure(t)


@settings(max_examples=200)
@given(interval_sets())
def test_complement_is_involution_up_to_closure(s):
    host = Interval.closed(Fraction(-5), Fraction(5))
    back = complement_within(complement_within(s, host), host)
    assert [(p.lo, p.hi) for p in back.parts] == [(p.lo, p.hi) for p in s.parts]
    assert measure(back) == measure(s)


@settings(max_examples=100)
@given(st.permutations(list(range(6))))
def test_union_is_order_independent(order):
    pieces = [
        Interval.closed(Fraction(i, 7), Fraction(i + 2, 7)) for i in range(6)
    ]
    acc = IntervalSet.empty()
    for i in order:
        acc = acc.union(IntervalSet.of([pieces[i]]))
    assert acc == IntervalSet.of(pieces)


def test_one_certified_bound_type():
    import clarkesat
    from clarkesat import functions
    from clarkesat.cantor import MeasureBound
    from clarkesat.rationals import ValueBound

    assert clarkesat.ValueBound is functions.ValueBound is ValueBound
    assert issubclass(MeasureBound, ValueBound)
    assert str(ValueBound(Fraction(-1, 3), Fraction(1, 2))) == "-1/3 1/2"
    assert str(MeasureBound(Fraction(1, 3), Fraction(1, 2))) == "[1/3, 1/2]"
    assert MeasureBound(Fraction(0), Fraction(1)).width == 1
    with pytest.raises(ValueError, match=r"^invalid value bound \[1, 0\]$"):
        ValueBound(Fraction(1), Fraction(0))
    with pytest.raises(ValueError, match=r"^invalid measure bound \[-1, 0\]$"):
        MeasureBound(Fraction(-1), Fraction(0))


@pytest.mark.parametrize("value, kind", [(0.5, "float"), (None, "NoneType"), (1j, "complex")])
def test_rational_names_an_unsupported_type(value, kind):
    with pytest.raises(TypeError, match=f"expected a Fraction, int or p/q string, not {kind}$"):
        rational(value)
    with pytest.raises(TypeError, match=kind):
        Interval.closed(value, 1)
    with pytest.raises(TypeError, match=kind):
        GeneratorSource(lambda k: value, Fraction(1)).coefficient(0)
    assert rational(Fraction(1, 2)) == rational(1) / 2 == rational(" 1/2 ")
