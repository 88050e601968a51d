"""``SplittingPartition._ascending``, the lazy stream by n behind
``splitting_certificate``, against ``stages_overlapping``'s sorted list.

The stream must give exactly the listed records in the same order on
hand-made stages, on a 1000-stage build and on a prefix grown after it
answered; its sparse table of n is built only when a certificate needs it
and dropped by ``_add``.  A certificate reads only the first few stages of
a window that meets about a thousand, and its answers, errors included,
are those of one pass over the sorted list.
"""

import random
from fractions import Fraction

import pytest

from clarkesat import partition as partition_module
from clarkesat.errors import NotYetCovered
from clarkesat.partition import (
    SplittingCertificate,
    _inward,
    _not_yet_covered,
    _whole_piece_mass,
    _whole_spans,
    build_partition,
    extend_partition,
    loads,
    saves,
)
from clarkesat.rationals import ONE, Interval
from test_partition import _HAND_MADE, _hand_made_ends, _windows


def _streamed(partition, window):
    return list(partition._ascending(*_inward(window, partition._den)))


def _assert_streams_the_listing(partition, windows):
    for window in windows:
        assert _streamed(partition, window) == partition.stages_overlapping(window), window


def _listed_certificate(partition, k, window):
    """``splitting_certificate`` as one pass over the sorted listing."""
    positive = complement = None
    for record, a, b in _whole_spans(partition.stages_overlapping(window), window):
        n, mine = record.n, record.piece_for_member(k)
        if positive is None and mine is not None and a <= mine <= b:
            positive = (n, mine, _whole_piece_mass(record))
        if complement is None and (mine != a or a < b):
            piece = a + 1 if mine == a else a
            complement = (record.member_index(piece), n, piece, _whole_piece_mass(record))
        if positive is not None and complement is not None:
            return SplittingCertificate(k, window, *positive, *complement)
    raise _not_yet_covered(k, window, complement=positive is not None)


def _answer(query):
    """A certificate's render() text, or the error's."""
    try:
        return query().render()
    except NotYetCovered as exc:
        return f"not yet covered ({exc.needed_stage}): {exc}"
    except ValueError as exc:
        return f"ValueError: {exc}"


@pytest.fixture(scope="module")
def p1000():
    return build_partition(1000)


def _brute_force_windows(partition, seed):
    """Windows between sampled gap ends and ends 2^-300 either side of them,
    each end to the next three with the closure kinds in turn, windows
    reaching past [0, 1], and single points at ends and gap ends."""
    rng = random.Random(seed)
    gap_ends = [end for r in partition.stages for end in (r.gap.lo, r.gap.hi)]
    tiny = Fraction(1, 2**300)
    ends = rng.sample(gap_ends, 40)
    ends += [e + s * tiny for e in ends[:20] for s in (-1, 1)]
    ends += [Fraction(1, 11), Fraction(2, 13), Fraction(5, 17), Fraction(-1, 2), Fraction(3, 2)]
    ends.sort()
    windows = [Interval(a, b, i % 2 == 1, i % 4 > 1) for i, (a, b) in enumerate(
        (a, b) for j, a in enumerate(ends) for b in ends[j + 1:j + 4] if a < b)]
    windows += [Interval.closed(e, e) for e in ends + gap_ends[::25]]
    windows += [Interval.open(Fraction(-1, 2), Fraction(3, 2)), Interval.closed(ends[30], Fraction(2)),
                Interval.closed(Fraction(-3, 2), Fraction(-1, 4)), Interval.open(Fraction(5, 4), Fraction(7, 3)),
                Interval.closed(Fraction(-1), Fraction(-1)), Interval.closed(ONE, ONE)]
    return windows


def test_stream_matches_the_listing_on_hand_made_stages():
    # Touching closures, nested ones, shared ends and rescaled denominators.
    _assert_streams_the_listing(_HAND_MADE, _windows(_hand_made_ends()))


def test_stream_matches_the_listing_at_1000_stages(p1000):
    windows = _brute_force_windows(p1000, 11)
    assert any(len(p1000.stages_overlapping(w)) > 100 for w in windows)
    _assert_streams_the_listing(p1000, windows)


def test_stream_matches_the_listing_after_growth(p1000):
    prefix = partition_module.SplittingPartition(p1000.gap_cap, p1000.stages[:400])
    window = Interval.closed(Fraction(1, 4), Fraction(3, 4))
    prefix.splitting_certificate(3, window)
    assert prefix._minima is not None
    grown = extend_partition(prefix, 1000)
    assert grown.stages == p1000.stages
    _assert_streams_the_listing(grown, _brute_force_windows(grown, 12))
    # _add on the prefix itself, whose table is built, must drop it.
    for record in p1000.stages[400:700]:
        prefix._add(record)
        assert prefix._minima is None
    _assert_streams_the_listing(prefix, _brute_force_windows(prefix, 13))


def test_a_repeated_stage_number_streams_each_position_once():
    # No build or load makes such a partition, but the constructor takes one.
    stages = build_partition(3).stages
    twice = partition_module.SplittingPartition(ONE, (stages[0], stages[0], stages[2], stages[1], stages[2]))
    window = Interval.closed(Fraction(0), ONE)
    assert [r.n for r in _streamed(twice, window)] == [1, 1, 2, 3, 3]
    _assert_streams_the_listing(twice, _windows(sorted({e for r in stages for e in (r.gap.lo, r.gap.hi)})))
    for k in range(5):
        assert (_answer(lambda: twice.splitting_certificate(k, window))
                == _answer(lambda: _listed_certificate(twice, k, window))), k


def test_builds_extensions_and_loads_leave_the_table_unbuilt():
    built = build_partition(120)
    extended = extend_partition(build_partition(60), 120)
    loaded = loads(saves(built, version=2))
    for partition in (built, extended, loaded):
        assert partition._minima is None
        partition.stages_overlapping(Interval.closed(Fraction(1, 4), Fraction(3, 4)))
        assert partition._minima is None
        partition.splitting_certificate(2, Interval.closed(Fraction(1, 4), Fraction(3, 4)))
        assert partition._minima is not None


def test_certificates_match_one_pass_over_the_listing(p1000):
    prefix = partition_module.SplittingPartition(p1000.gap_cap, p1000.stages[:60])
    for partition in (p1000, prefix):
        for window in _brute_force_windows(partition, 14)[::3]:
            if not window.is_nontrivial:
                continue
            for k in (0, 1, 2, 5, 59, 61):
                assert (_answer(lambda: partition.splitting_certificate(k, window))
                        == _answer(lambda: _listed_certificate(partition, k, window))), (k, window)


@pytest.fixture(scope="module")
def p2000():
    return build_partition(2000)


def test_a_certificate_reads_only_the_stages_it_needs(p2000, monkeypatch):
    window = Interval.closed(Fraction(1, 4), Fraction(3, 4))
    assert len(p2000.stages_overlapping(window)) > 1000
    span_between = partition_module._span_between
    calls = []

    def counted(record, *ends):
        calls.append(record.n)
        return span_between(record, *ends)

    monkeypatch.setattr(partition_module, "_span_between", counted)
    for k in range(7):
        calls.clear()
        certificate = p2000.splitting_certificate(k, window)
        assert len(calls) <= 7, (k, calls)
        assert certificate == _listed_certificate(p2000, k, window)


def test_uncovered_windows_keep_their_messages(p2000):
    prefix = partition_module.SplittingPartition(p2000.gap_cap, p2000.stages[:40])
    last = prefix.stage(40)
    point, piece = last.gap.lo, last.piece_host(5)
    windows = [Interval.closed(point - Fraction(1, 2**k), point + Fraction(1, 2**k)) for k in (12, 20, 40)]
    windows += [Interval.open(Fraction(1, 3), Fraction(1, 3) + Fraction(1, 2**30)), piece.closure()]
    texts = []
    for window in windows:
        for k in (0, 1, 6, 7, 39, 41):
            texts.append(_answer(lambda: prefix.splitting_certificate(k, window)))
            assert texts[-1] == _answer(lambda: _listed_certificate(prefix, k, window)), (k, window)
    assert sum(text.startswith("not yet covered") for text in texts) >= 15
    assert f"no stage covers a member other than 6 inside {piece.closure()} yet" in "\n".join(texts)
