"""The window integrator's integer scan, pinned to the Fraction arithmetic it replaced.

``piece_span`` (``tests/reference.py``) finds a stage's piece range by
integer floor division on the ``StageRecord.endpoints`` geometry; the
Fraction floor/ceiling form it replaced is kept here as its reference.  The
integrator's answers are pinned by the sha256 of a fixed corpus, computed
with the Fraction scan.
"""

import hashlib
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from math import ceil, floor

import pytest

from clarkesat.errors import NotYetCovered, ToleranceExhausted
from clarkesat.functions import (
    FiniteSupport,
    SaturatedFunction,
    eval_f,
    eval_f1,
    lipschitz_lower_bound,
    ones_generator,
)
from clarkesat.partition import (
    RETAINED,
    SplittingPartition,
    build_partition,
    loads,
    saves,
)
from clarkesat.rationals import Interval
from reference import piece_span, stage_masses, unit_chunks

F = Fraction


# -- piece_span against the Fraction formula ---------------------------------


def fraction_piece_span(record, window):
    """The Fraction floor/ceiling form of ``piece_span``."""
    width = record.gap.length / record.piece_count
    t_lo = (window.lo - record.gap.lo) / width
    t_hi = (window.hi - record.gap.lo) / width
    first = max(0, floor(t_lo))
    last = min(record.n, ceil(t_hi) - 1)
    if first > last:
        return None
    return first, last, max(0, ceil(t_lo)), min(record.n, floor(t_hi) - 1)


def span_windows(record):
    """Closed windows with ends on piece boundaries, gap ends, 0 and 1, inside,
    across and outside the gap, and degenerate point windows."""
    nums, den = record.endpoints()
    ends = [F(num, den) for num in nums]
    width = ends[1] - ends[0]
    lo, hi = ends[0], ends[-1]
    mid = (ends[record.n // 2] + ends[record.n // 2 + 1]) / 2
    pairs = [
        (lo, hi), (ends[1], ends[-2]), (lo, ends[1]), (ends[-2], hi), (ends[1], ends[2]),
        (lo - width, lo), (hi, hi + width), (lo - 2 * width, lo - width), (hi + width / 3, hi + width),
        (lo - width / 2, ends[1] + width / 3), (ends[-2] - width / 5, hi + width / 7),
        (mid - width / 3, mid + width / 3), (mid - width, mid + 2 * width),
        (lo, lo), (hi, hi), (ends[1], ends[1]), (mid, mid), (lo - width, lo - width),
        (0, mid), (mid, 1), (0, 1), (0, lo), (hi, 1), (0, 0), (1, 1),
    ]
    return [Interval.closed(a, b) for a, b in pairs]


@pytest.mark.parametrize("cap", [F(1), F(1, 3), F(5, 7)])
def test_piece_span_matches_the_fraction_formula(cap):
    p = build_partition(300, cap)
    for record in p.stages:
        for window in span_windows(record):
            assert piece_span(record, window) == fraction_piece_span(record, window), (record.n, window)


def test_piece_span_on_a_loaded_translated_copy():
    built = build_partition(300)
    copy = loads(saves(SplittingPartition(built.gap_cap, built.stages, 3)))
    assert copy.translation == 3 and copy.stages == built.stages
    for record in copy.stages:
        mid = record.gap.midpoint
        # Folded chunks of a window crossing two integers: [mid, 1], [0, 1] and [0, mid].
        chunks = list(unit_chunks(Interval.closed(2 + mid, 4 + mid), copy.translation))
        assert [(c.lo, c.hi) for c in chunks] == [(mid, 1), (0, 1), (0, mid)]
        for window in chunks + span_windows(record):
            assert piece_span(record, window) == fraction_piece_span(record, window), (record.n, window)


def test_stage_geometry_and_masses_match_the_fractions():
    p = build_partition(300, F(5, 7))
    den, masses = stage_masses(p)
    for record in p.stages:
        start, step, geometry_den = record.geometry
        assert F(start, geometry_den) == record.gap.lo
        assert F(start + step * record.piece_count, geometry_den) == record.gap.hi
        assert record.piece_width == record.gap.length / record.piece_count
        assert F(masses[record.n - 1], den) == RETAINED * record.gap.length / record.piece_count


def test_first_queries_race_on_the_mass_memo():
    # The per-partition mass memo is filled by whichever query comes first;
    # threads racing on a fresh partition must all see the same masses.
    built = build_partition(100)
    window, tol = Interval.closed(F(1, 3), F(2, 3)), F(1, 2**24)
    expected = built.measure_in(1, window, tol)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(4):
            fresh = SplittingPartition(built.gap_cap, built.stages)
            with ThreadPoolExecutor(max_workers=6) as pool:
                futures = [pool.submit(fresh.measure_in, 1, window, tol) for _ in range(12)]
                results = [future.result(timeout=60) for future in futures]
            assert results == [expected] * 12
    finally:
        sys.setswitchinterval(interval)


# -- the integrator's answers, bit for bit -----------------------------------


def integrator_corpus(n):
    """Lines naming each query of a fixed corpus at N = n and its exact answer or error text."""
    p = build_partition(n)
    stage1 = p.stage(1)
    nested = p.stage(min(37, n))
    windows = [
        (F(5, 12) + F(1, 97), F(7, 12) - F(1, 89)),
        (nested.gap.lo, nested.gap.hi),
        (nested.piece_host(2).lo + nested.piece_width / 3,
         nested.piece_host(nested.n // 2).hi - nested.piece_width / 7),
        (stage1.piece_host(0).hi, stage1.piece_host(1).hi),
        (F(1, 3), F(2, 3)),
        (F(-1, 3), F(1, 3)),
        (F(2, 3), F(7, 4)),
        (F(1, 7), F(1, 7)),
    ]
    for stage in (p.stage(7), p.stage(n)):
        windows.append((stage.piece_host(1).lo, stage.piece_host(stage.n - 1).hi))
        windows.append((stage.piece_host(0).hi, stage.gap.hi))
    sources = (
        ("3,-5,2", FiniteSupport.of({0: 3, 1: -5, 2: 2})),
        ("5:-1/3,18:2", FiniteSupport.of({5: F(-1, 3), 18: 2})),
        ("ones", ones_generator()),
        ("e0", FiniteSupport.unit(0)),
    )
    lines = []

    def record(label, query):
        try:
            answer = query()
        except (ValueError, ToleranceExhausted, NotYetCovered) as exc:  # the text of every error
            answer = f"{type(exc).__name__}: {exc}"
        lines.append(f"{n} {label} {answer!r}")

    for tol in (F(1, 2**10), F(1, 2**24), F(1, 2**40)):
        for lo, hi in windows:
            window = Interval.closed(lo, hi)
            for k in (0, 1, 2, n // 2, n + 1):
                record(f"measure_in {k} {lo} {hi} {tol}", lambda: p.measure_in(k, window, tol))
            for k in (0, 1):
                for x0, x in ((lo, hi), (hi, lo)):
                    record(f"eval_f1 {k} {x0} {x} {tol}", lambda: eval_f1(p, k, x0, x, tol))
        for name, mu in sources:
            sf1 = SaturatedFunction(p, mu, 1, (Interval.open(-3, 3),), (F(1, 2),))
            for lo, hi in windows[:5]:
                record(f"eval_f {name} d=1 {hi} {tol}", lambda: eval_f(sf1, (hi,), tol))
            sf2 = SaturatedFunction(p, mu, 2)
            for x in ((F(5, 12), F(7, 12)), (F(1, 7), F(13, 16))):
                record(f"eval_f {name} d=2 {x} {tol}", lambda: eval_f(sf2, x, tol))
    for name, mu in sources:
        record(f"lipschitz_lower_bound {name}",
               lambda: lipschitz_lower_bound(SaturatedFunction(p, mu), 2))
    record("measure_in k=-1", lambda: p.measure_in(-1, Interval.closed(0, 1), F(1)))
    record("measure_in tol=0", lambda: p.measure_in(1, Interval.closed(0, 1), F(0)))
    record("eval_f1 tol=0", lambda: eval_f1(p, 1, F(0), F(1, 2), F(0)))
    return lines


def test_integrator_corpus_is_bit_identical():
    # 1,245 answers and error texts at N = 30, 100 and 300, hashed as the
    # Fraction scan and the all-terms depth loop produced them.
    lines = [line for n in (30, 100, 300) for line in integrator_corpus(n)]
    assert len(lines) == 1245
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "f9a847fe6409056306036533663340f76615f6ddf37819c0e8396d7fd57f2081"
