"""Cross-cutting checks: concurrency, load-then-extend, round-trips."""

import re
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from clarkesat.cantor import FatCantorSet
from clarkesat.functions import (
    FiniteSupport,
    SaturatedFunction,
    eval_f,
    format_mu_spec,
    ones_generator,
    parse_mu_spec,
)
from clarkesat.partition import build_partition, extend_partition, loads, saves
from clarkesat.rationals import Interval


def test_extend_after_load_matches_direct_build():
    text = saves(build_partition(10))
    grown = extend_partition(loads(text), 16)
    assert saves(grown) == saves(build_partition(16))


def test_gap_cap_changes_build_but_stays_deterministic():
    a = build_partition(6, Fraction(1, 8))
    b = build_partition(6, Fraction(1, 8))
    default = build_partition(6)
    assert saves(a) == saves(b)
    assert saves(a) != saves(default)
    assert a.stage(1).gap.length <= Fraction(1, 8)


def test_concurrent_queries_are_consistent():
    partition = build_partition(12)
    sf = SaturatedFunction(partition, FiniteSupport.unit(0))
    xs = [Fraction(i, 257) for i in range(1, 257)]

    def probe(x):
        answer = partition.membership(x, depth=6)
        bound = eval_f(sf, (x,), Fraction(1, 1024))
        return answer, bound

    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(probe, xs * 2))
    serial = [probe(x) for x in xs * 2]
    assert results == serial


def test_concurrent_cover_queries_share_one_cache():
    cantor = FatCantorSet.canonical()
    with ThreadPoolExecutor(max_workers=8) as pool:
        covers = list(pool.map(cantor.svc_cover, [7] * 16))
    assert all(c == covers[0] for c in covers)


def test_mu_spec_formats_round_trip():
    for text in ("0:3/1,1:-5/1,2:2/1", "zero"):
        assert format_mu_spec(parse_mu_spec(text)) == text
    assert format_mu_spec(ones_generator()) == "ones"


def test_generator_eval_agrees_with_equivalent_finite_prefix():
    # With every coefficient 1, truncating at the largest built member index
    # changes the value by at most the certified unresolved mass, so the two
    # bounds must overlap.
    partition = build_partition(24)
    x = (Fraction(3, 5),)
    tol = Fraction(1, 10**4)
    gen = eval_f(SaturatedFunction(partition, ones_generator()), x, tol)
    prefix = FiniteSupport.of({k: 1 for k in range(partition.stage_count // 2 + 1)})
    fin = eval_f(SaturatedFunction(partition, prefix), x, tol)
    assert max(gen.lo, fin.lo) <= min(gen.hi, fin.hi)


def test_measure_bounds_match_brute_force_cover_counting():
    # Independent oracle: lambda(F within window) is bracketed by counting
    # cover parts wholly inside (minus their future removals) and parts
    # touching the window, straight from the materialized cover.
    cantor = FatCantorSet(Interval.open(Fraction(1, 5), Fraction(4, 5)))
    window = Interval.closed(Fraction(1, 4), Fraction(3, 5))
    for depth in range(0, 9):
        bound = cantor.svc_measure_in(window, depth)
        cover = cantor.svc_cover(depth)
        touching = cover.intersect_interval(window).measure()
        assert bound.hi <= touching
        assert bound.lo >= touching - cantor.tail(depth)
        inside = sum(
            (p.length for p in cover.parts
             if window.lo <= p.lo and p.hi <= window.hi),
            Fraction(0),
        )
        assert bound.hi >= inside - cantor.tail(depth)


_SAVED_20 = build_partition(20)
_TEXT_20 = saves(_SAVED_20)
_TOKENS_20 = [m.span() for m in re.finditer(r"\S+", _TEXT_20)]
# The values of the header's and each stage line's key=value tokens: few
# characters of the file, but the ones that decide what a load builds.
_VALUES_20 = [m.span(1) for m in re.finditer(r"(?<![^ \n])[a-z_]+=(\S+)", _TEXT_20)]


@st.composite
def _mutated_text(draw):
    kind = draw(st.sampled_from(["truncate", "drop-token", "change-char", "change-value-char"]))
    if kind == "truncate":
        return _TEXT_20[: draw(st.integers(0, len(_TEXT_20) - 1))]
    if kind == "drop-token":
        start, end = draw(st.sampled_from(_TOKENS_20))
        return _TEXT_20[:start] + _TEXT_20[end:]
    if kind == "change-value-char":
        start, end = draw(st.sampled_from(_VALUES_20))
        pos = draw(st.integers(start, end - 1))
    else:
        pos = draw(st.integers(0, len(_TEXT_20) - 1))
    char = draw(st.sampled_from(list("0123456789/=,-_ \nTB")) | st.characters())
    return _TEXT_20[:pos] + char + _TEXT_20[pos + 1:]


@settings(derandomize=True, max_examples=400, deadline=None)
@given(_mutated_text())
def test_loads_of_a_mutated_file_is_the_original_or_a_value_error(text):
    try:
        loaded = loads(text)
    except ValueError:
        return
    assert loaded.stages == _SAVED_20.stages


_TEXT_20_V2 = saves(_SAVED_20, version=2)
_TOKENS_20_V2 = [m.span() for m in re.finditer(r"\S+", _TEXT_20_V2)]
# Every value of a v2 file decides what a load builds, the sha256 included.
_VALUES_20_V2 = [m.span(1) for m in re.finditer(r"(?<![^ \n])[a-z_0-9]+=(\S+)", _TEXT_20_V2)]


@st.composite
def _mutated_v2_text(draw):
    kind = draw(st.sampled_from(["truncate", "drop-token", "change-char", "change-value-char"]))
    if kind == "truncate":
        return _TEXT_20_V2[: draw(st.integers(0, len(_TEXT_20_V2) - 1))]
    if kind == "drop-token":
        start, end = draw(st.sampled_from(_TOKENS_20_V2))
        return _TEXT_20_V2[:start] + _TEXT_20_V2[end:]
    if kind == "change-value-char":
        start, end = draw(st.sampled_from(_VALUES_20_V2))
        pos = draw(st.integers(start, end - 1))
    else:
        pos = draw(st.integers(0, len(_TEXT_20_V2) - 1))
    char = draw(st.sampled_from(list("0123456789abcdef/=,-_ \n")) | st.characters())
    return _TEXT_20_V2[:pos] + char + _TEXT_20_V2[pos + 1:]


@settings(derandomize=True, max_examples=400, deadline=None)
@given(_mutated_v2_text())
def test_loads_of_a_mutated_v2_file_is_the_original_or_a_value_error(text):
    try:
        loaded = loads(text)
    except ValueError:
        return
    assert loaded.stages == _SAVED_20.stages
