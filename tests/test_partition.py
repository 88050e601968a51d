import hashlib
import random
import re
import subprocess
import sys
from bisect import bisect_left, bisect_right
from collections import Counter
from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from clarkesat.cantor import _GAP_DEPTHS, Containment, FatCantorSet
from clarkesat import cli
from clarkesat.cli import main
from clarkesat.errors import NotYetCovered, ToleranceExhausted
from clarkesat.functions import FiniteSupport, SaturatedFunction, eval_f1, ones_generator, parse_mu_spec, unit_box
from clarkesat import partition as partition_module
from clarkesat.partition import (
    RETAINED,
    SplittingPartition,
    StageRecord,
    _WindowMass,
    _digest,
    _halving_exponent,
    _pieces_touching,
    _whole_pieces,
    build_partition,
    enumerated_interval,
    enumeration_index,
    extend_partition,
    first_index_inside,
    hosts_pairwise_disjoint,
    planted_sets_pairwise_disjoint,
    loads,
    measure_in,
    membership,
    saves,
    splitting_certificate,
    splitting_certificate_auto,
    stage_tail_bound,
)
from clarkesat.rationals import ONE, Interval, IntervalSet, format_rational
from clarkesat.verifier import certify_saturation, saturation_windows
from reference import cover_meets, longest_free, piece_span, shrink_gap, stage_masses, unit_chunks
from test_cantor import _longest_part
from test_integer_scan import fraction_piece_span
from test_integrator import Scan
from test_load_check import _reference_pieces


@pytest.fixture(scope="module")
def p20():
    return build_partition(20)


def test_enumeration_prefix_is_frozen():
    expected = [
        Interval.open(0, 1),
        Interval.open(Fraction(1, 2), Fraction(2, 3)),
        Interval.open(0, Fraction(1, 2)),
        Interval.open(Fraction(1, 3), Fraction(1, 2)),
        Interval.open(Fraction(1, 4), Fraction(3, 4)),
    ]
    assert [enumerated_interval(n) for n in range(1, 6)] == expected


def test_enumeration_covers_intervals_at_all_scales():
    # The dyadic stream reaches into any window at index O(1/width).
    for denom in (4, 16, 64, 256):
        window = Interval.open(Fraction(denom - 2, denom), Fraction(denom - 1, denom))
        n = first_index_inside(window)
        assert enumerated_interval(n).lo >= window.lo
        assert n <= 16 * denom


def test_enumeration_index_inverts():
    for n in (1, 2, 5, 9, 14, 33):
        assert enumeration_index(enumerated_interval(n)) == n


def test_enumeration_index_finds_pair_intervals():
    n = enumeration_index(Interval.open(Fraction(2, 5), Fraction(1, 2)))
    assert enumerated_interval(n) == Interval.open(Fraction(2, 5), Fraction(1, 2))


def test_stage_one_matches_two_piece_layout():
    p = build_partition(1, Fraction(1, 2))
    record = p.stage(1)
    assert record.piece_count == 2
    assert record.member_index(0) == 1  # the A_1 set
    assert record.member_index(1) == 0  # the B reservoir inside A_0
    assert record.gap.length <= Fraction(1, 2)
    hosts = [record.piece_host(i) for i in range(2)]
    assert hosts[0].hi == hosts[1].lo  # contiguous open pieces


def test_every_built_set_has_positive_measure(p20):
    for record in p20.stages:
        for i in range(record.piece_count):
            assert RETAINED * record.piece_host(i).length > 0


def test_gap_lengths_are_capped(p20):
    for record in p20.stages:
        assert record.gap.length <= Fraction(1, 2**record.n)
        assert enumerated_interval(record.n).contains_interval(record.gap)


def test_hosts_pairwise_disjoint_at_20(p20):
    assert hosts_pairwise_disjoint(p20)


def test_stage_tail_bound_closed_form():
    assert stage_tail_bound(5, Fraction(1)) == Fraction(1, 3 * 2**5)
    # cap below 2^-n for small n
    assert stage_tail_bound(0, Fraction(1, 3)) == (Fraction(1, 3) + Fraction(1, 2)) / 3


def test_determinism_and_extension(p20):
    again = build_partition(20)
    assert saves(again) == saves(p20)
    grown = extend_partition(build_partition(7), 20)
    assert saves(grown) == saves(p20)


def test_serialization_round_trip(p20):
    text = saves(p20)
    back = loads(text)
    assert saves(back) == text
    assert back.stage_count == 20


def test_loads_rejects_tampered_records(p20):
    text = saves(p20)
    assert "T 1" in text
    with pytest.raises(ValueError):
        loads(text.replace("T 1", "T 2", 1))
    with pytest.raises(ValueError):
        loads("SPLITHEART v1\n" + text.split("\n", 1)[1])


def test_membership_at_certified_point(p20):
    record = p20.stage(3)
    cantor_set = p20.piece_set(3, 1)  # the T_2 piece of stage 3
    witness = cantor_set.svc_cover(1).parts[0].hi
    answer = p20.membership(witness, depth=1)
    assert (answer.kind, answer.k, answer.stage) == ("A", 2, 3)
    assert answer.member_index == 2


def test_membership_b_piece(p20):
    record = p20.stage(2)
    cantor_set = p20.piece_set(2, record.n)  # the B piece
    witness = cantor_set.svc_cover(2).parts[1].lo
    answer = p20.membership(witness, depth=2)
    assert (answer.kind, answer.stage) == ("B", 2)
    assert answer.member_index == 0


def test_membership_zero_is_certified_a0(p20):
    answer = p20.membership(Fraction(0))
    assert (answer.kind, answer.k) == ("A", 0)


def test_membership_translates_by_integers(p20):
    cantor_set = p20.piece_set(1, 0)
    witness = cantor_set.svc_cover(1).parts[0].hi
    for shift in (-2, 1, 7):
        answer = p20.membership(witness + shift, depth=1)
        assert (answer.kind, answer.k, answer.stage) == ("A", 1, 1)


def _membership_from_piece_hosts(p, x, depth):
    """What membership must answer, found by testing every piece host of every stage."""
    hit, undecided = None, False
    for record in p.stages:
        if not record.gap.contains(x):
            continue  # every piece lies inside its stage's gap
        for i in range(record.piece_count):
            host = record.piece_host(i)
            if not host.contains(x):
                continue
            answer = FatCantorSet(host, RETAINED).svc_membership(x, depth)
            if answer is Containment.IN:
                member = record.member_index(i)
                hit = ("B" if member == 0 else "A", member, record.n)
            undecided |= answer is Containment.UNDECIDED
    if hit is not None:
        return hit
    return ("A", 0, None) if x == 0 and not undecided else ("undecided", None, None)


@pytest.mark.parametrize("translation", [None, -7], ids=["built", "loaded-translated"])
def test_membership_has_period_one_on_a_grid(p20, translation):
    # On the grid i/768, 0 included, where stages 1..20 decide some points in
    # A and some in B: the answer at x + m is the answer at x, which the piece
    # hosts give, and every integer point is certified in A_0 by no stage.
    p = p20 if translation is None else loads(saves(SplittingPartition(p20.gap_cap, p20.stages, translation)))
    assert p.translation == (translation or 0) and p.stages == p20.stages
    kinds = Counter()
    for i in range(768):
        x = Fraction(i, 768)
        answer = p.membership(x, 8)
        assert (answer.kind, answer.k, answer.stage) == _membership_from_piece_hosts(p, x, 8), x
        kinds[answer.kind] += 1
        for m in (-3, -1, 1, 5):
            assert p.membership(x + m, 8) == answer, (x, m)
    assert kinds["A"] and kinds["B"] and kinds["undecided"]
    for m in (-3, -1, 0, 1, 5):
        for point in (m, Fraction(m)):
            answer = p.membership(point, 8)
            assert (answer.kind, answer.k, answer.stage) == ("A", 0, None), point


def test_membership_agrees_with_piece_hosts_at_100_stages():
    p = build_partition(100)
    for n in (1, 2, 37, 100):
        record = p.stage(n)
        hosts = [record.piece_host(i) for i in range(record.piece_count)]
        points = [h.lo for h in hosts] + [record.gap.hi] + [h.midpoint for h in hosts]
        # The ends of each piece's first removed middle lie in its planted set.
        for h in hosts:
            left, right = FatCantorSet(h, RETAINED).svc_cover(1).parts
            points += [left.hi, right.lo]
        for x in points:
            answer = p.membership(x, 8)
            expected = _membership_from_piece_hosts(p, x, 8)
            assert (answer.kind, answer.k, answer.stage) == expected, (n, x)


def test_membership_is_depth_consistent(p20):
    xs = [Fraction(i, 97) for i in range(98)]
    previous = {x: p20.membership(x, 1) for x in xs}
    for depth in (2, 4, 8):
        for x in xs:
            answer = p20.membership(x, depth)
            if previous[x].decided:
                assert answer == previous[x]
            previous[x] = answer


def test_measure_in_positive_lower_bound(p20):
    window = Interval.closed(0, 1)
    bound = measure_in(p20, 1, window, Fraction(1, 4))
    t11 = RETAINED * p20.stage(1).piece_host(0).length
    assert bound.lo >= t11 > 0
    assert bound.width <= Fraction(1, 4)


def test_measure_in_unbuilt_member_is_small(p20):
    window = Interval.closed(0, 1)
    bound = measure_in(p20, 15, window, Fraction(1, 8))
    assert bound.lo >= 0
    assert bound.hi <= sum(
        (RETAINED * r.piece_host(14).length for r in p20.stages if r.n >= 15),
        p20.unbuilt_tail_bound(),
    )


def test_measure_in_respects_tolerance_ladder(p20):
    window = Interval.closed(Fraction(1, 3), Fraction(2, 3))
    prev = None
    for tol in (Fraction(1, 10), Fraction(1, 100), Fraction(1, 10**6)):
        bound = measure_in(p20, 1, window, tol)
        assert bound.width <= tol
        if prev is not None:
            assert bound.lo >= prev.lo - prev.width and bound.hi <= prev.hi + prev.width
        prev = bound


def test_measure_in_partition_additivity(p20):
    window = Interval.closed(Fraction(1, 4), Fraction(3, 4))
    tol = Fraction(1, 2**10)
    bounds = [measure_in(p20, k, window, tol) for k in range(0, 22)]
    lo_sum = sum(b.lo for b in bounds)
    hi_sum = sum(b.hi for b in bounds)
    assert lo_sum <= window.length <= hi_sum


def test_measure_in_tolerance_exhausted(p20):
    with pytest.raises(ToleranceExhausted):
        measure_in(p20, 1, Interval.closed(0, 1), Fraction(1, 2**40))


def test_measure_in_rejects_a_negative_member_index(p20):
    for window in (Interval.closed(0, 1), Interval.closed(Fraction(1, 2), Fraction(1, 2))):
        with pytest.raises(ValueError, match="member index must be >= 0"):
            measure_in(p20, -1, window, Fraction(1, 2**10))


def test_measure_in_folds_windows(p20):
    tol = Fraction(1, 2**12)
    inside = measure_in(p20, 1, Interval.closed(Fraction(1, 3), Fraction(2, 3)), tol)
    shifted = measure_in(
        p20, 1, Interval.closed(Fraction(1, 3) + 5, Fraction(2, 3) + 5), tol
    )
    assert inside == shifted
    straddle = measure_in(
        p20, 1, Interval.closed(Fraction(-1, 3), Fraction(1, 3)), tol
    )
    two_parts = measure_in(p20, 1, Interval.closed(Fraction(2, 3), 1), tol)
    rest = measure_in(p20, 1, Interval.closed(0, Fraction(1, 3)), tol)
    assert straddle.lo >= two_parts.lo + rest.lo - tol


def test_splitting_certificate_for_members(p20):
    window = Interval.open(0, 1)
    for k in (0, 1, 2):
        cert = splitting_certificate(p20, k, window)
        assert cert.lower_bound > 0
        assert cert.complement_lower_bound > 0
        assert cert.complement_member != k
        host = p20.stage(cert.stage).piece_host(cert.piece)
        assert window.contains_interval(host)
        assert "> 0/1" in cert.render()


def test_splitting_certificate_not_yet_covered(p20):
    tiny = Interval.open(Fraction(1, 1000), Fraction(2, 1000))
    with pytest.raises(NotYetCovered) as excinfo:
        splitting_certificate(p20, 1, tiny)
    assert excinfo.value.needed_stage is not None


def test_splitting_certificate_auto_extends(p20):
    tiny = Interval.open(Fraction(11, 64), Fraction(13, 64))
    cert, grown = splitting_certificate_auto(p20, 3, tiny)
    assert cert.lower_bound > 0
    assert grown.stage_count >= p20.stage_count
    assert tiny.contains_interval(grown.stage(cert.stage).piece_host(cert.piece))


def test_certificates_persist_under_extension(p20):
    cert = splitting_certificate(p20, 1, Interval.open(0, 1))
    grown = extend_partition(p20, 25)
    again = splitting_certificate(grown, 1, Interval.open(0, 1))
    assert again == cert


def _loop_exponent(bound):
    """The smallest j with 2^-j <= bound, by stepping j up one at a time."""
    j = 0
    while Fraction(1, 2**j) > bound:
        j += 1
    return j


def test_gap_shrink_exponent_by_bit_length():
    bounds = [Fraction(1, 2**j) for j in range(70)]  # exact powers of two
    nudge = Fraction(1, 2**80)
    bounds += [Fraction(1, 2**j) + delta for j in range(1, 40) for delta in (nudge, -nudge)]
    bounds += [Fraction(p, q) for q in range(1, 60) for p in range(1, q + 1)]
    bounds += [Fraction(3, 7 * 2**50), Fraction(5, 12), Fraction(1, 3 * 2**20)]
    for bound in bounds:
        assert _halving_exponent(bound) == _loop_exponent(bound), bound
    for cap in (Fraction(1), Fraction(1, 3), Fraction(1, 8), Fraction(5, 2**30)):
        for built in (0, 1, 5, 40):
            # sum over n > built of min(cap, 2^-n)/3, the terms past 80 summed in closed form
            terms = sum(min(cap, Fraction(1, 2**n)) for n in range(built + 1, 81))
            assert stage_tail_bound(built, cap) == (terms + Fraction(1, 2**80)) / 3


def test_builds_unchanged_by_shrink_exponent():
    # Digest of the 300-stage file as built with the one-step-at-a-time shrink loop.
    text = saves(build_partition(300))
    digest = hashlib.sha256(text.encode("ascii")).hexdigest()
    assert digest == "a162134411ea88089b43a647c2578659cdf3d8a6acf912381cca1dad3059ffc8"
    assert hosts_pairwise_disjoint(build_partition(20))


@pytest.mark.parametrize("stages", [100, 300])
def test_nested_gaps_miss_the_dug_covers(stages):
    # Wherever two gap closures meet, the later gap was dug out of the
    # earlier stage: it misses every piece cover of that stage at the
    # later stage's certified depth.
    p = build_partition(stages)
    closures = [record.gap.closure() for record in p.stages]
    nested = set()
    for later in p.stages:
        for earlier in p.stages[: later.n - 1]:
            if not closures[earlier.n - 1].intersects(closures[later.n - 1]):
                continue
            nested.add(later.n)
            assert later.depth_used > 0
            for i in range(earlier.piece_count):
                cover = p.piece_set(earlier.n, i).svc_cover(later.depth_used)
                assert not any(later.gap.intersects(part) for part in cover)
    assert {37, 50, 81, 83, 84, 85} <= nested
    if stages == 100:
        assert nested == {r.n for r in p.stages if r.depth_used} == {37, 50, 81, 83, 84, 85}


def test_extension_of_a_loaded_file_through_dig_stages():
    base = loads(saves(build_partition(30)))
    stages_before = base.stages
    grown = extend_partition(base, 100)
    assert saves(grown) == saves(build_partition(100))
    assert base.stage_count == 30 and base.stages == stages_before
    assert len(base.stages_overlapping(Interval.closed(0, 1))) == 30


def test_loads_rejects_a_corrupt_piece_count_before_expanding_it(monkeypatch):
    import clarkesat.partition as partition_module

    text = saves(build_partition(3)).replace("n=3 ", f"n={10**9} ", 1)
    expand = partition_module._set_records

    def expand_small(record):
        assert record.n <= 3, "the corrupt stage's records were generated"
        return expand(record)

    monkeypatch.setattr(partition_module, "_set_records", expand_small)
    with pytest.raises(ValueError, match=f"stage {10**9} line"):
        loads(text)


@pytest.fixture(scope="module")
def builds_300():
    return {cap: build_partition(300, cap) for cap in (Fraction(1), Fraction(1, 3), Fraction(5, 7))}


def _reference_hosts(record):
    """The piece hosts as gap.lo + i * length / (n+1), in Fraction arithmetic."""
    lo, width = record.gap.lo, record.gap.length / (record.n + 1)
    return [Interval.open(lo + i * width, lo + (i + 1) * width) for i in range(record.n + 1)]


def test_integer_piece_hosts_equal_the_equal_split_of_the_gap(builds_300):
    translated = loads(saves(SplittingPartition(Fraction(1, 3), builds_300[Fraction(1, 3)].stages, -3)))
    assert translated.translation == -3
    for p in (*builds_300.values(), translated):
        for record in p.stages:
            assert [record.piece_host(i) for i in range(record.n + 1)] == _reference_hosts(record)


def test_endpoints_share_one_denominator():
    record = StageRecord(2, Interval.open(Fraction(1, 4), Fraction(5, 6)), 0)
    nums, den = record.endpoints()
    assert den == 36 and list(nums) == [9, 16, 23, 30]
    with pytest.raises(IndexError):
        record.piece_host(3)


def test_genuine_builds_pass_the_load_checks(builds_300):
    # Includes the stages dug into earlier gaps at depth_used 1 and 2.
    for p in builds_300.values():
        back = loads(saves(p))
        assert back.stages == p.stages and back.gap_cap == p.gap_cap
        assert {r.depth_used for r in back.stages} >= {0, 1}


def test_genuine_builds_pass_the_v2_load_checks(builds_300):
    for p in builds_300.values():
        back = loads(saves(p, version=2))
        assert back.stages == p.stages and back.gap_cap == p.gap_cap


@pytest.fixture(scope="module")
def build_1000():
    return build_partition(1000)


def test_v2_round_trip_at_1000_stages(build_1000):
    text = saves(build_1000, version=2)
    assert len(text) < 10**6
    back = loads(text)
    assert back.stages == build_1000.stages and back.gap_cap == build_1000.gap_cap
    assert {r.depth_used for r in back.stages} >= {0, 1, 2, 4}


_HASHLIB_PROBE = """
import sys
from fractions import Fraction
import clarkesat, clarkesat.cli
from clarkesat.functions import FiniteSupport, SaturatedFunction, eval_f
from clarkesat.partition import build_partition, loads, saves
from clarkesat.rationals import Interval

p = loads(saves(build_partition(40)))
eval_f(SaturatedFunction(p, FiniteSupport.of({0: 3, 1: -5, 2: 2})), (Fraction(5, 8),), Fraction(1, 10**6))
p.measure_in(1, Interval.closed(Fraction(1, 4), Fraction(3, 4)), Fraction(1, 10**6))
print(sorted({"hashlib", "_hashlib"} & set(sys.modules)))
saves(p, version=2)
print("hashlib" in sys.modules)
"""


def test_only_splitpart_v2_imports_hashlib():
    # hashlib loads OpenSSL, about 3.6 MB of resident memory; a process that
    # never reads or writes a v2 file must not pay for it.
    result = subprocess.run([sys.executable, "-c", _HASHLIB_PROBE], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == ["[]", "True"]


def _with_depth(text, n, depth, rehash=True):
    """The v2 text with stage n's depth replaced, its sha256 line recomputed or kept."""
    lines = text.splitlines()
    lines[n + 1] = re.sub(r" depth=\d+$", f" depth={depth}", lines[n + 1])
    if rehash:
        body = "".join(line + "\n" for line in lines[2:-1]).encode("ascii")
        lines[-1] = "sha256=" + hashlib.sha256(body).hexdigest()
    return "\n".join(lines) + "\n"


def test_v2_nested_stage_at_another_depth_is_rejected(builds_300, build_1000):
    # One dug stage per depth_used; every other depth the gap search tries
    # (and 0) must fail _check_cover: a deeper one because find_gap returns
    # the first depth that exposes a gap, a shallower one because the gap
    # meets that depth's cover.
    for p in (builds_300[ONE], build_1000):
        text = saves(p, version=2)
        dug = {r.depth_used: r.n for r in reversed(p.stages) if r.depth_used}
        for used, n in sorted(dug.items()):
            for depth in (0, 1, 2, 4, 8, 16, 32, 64):
                if depth == used:
                    continue
                with pytest.raises(ValueError, match=rf"^stage {n}: (gap .* meets the depth-{depth} cover|"
                                                     rf"depth {depth}, but its gap misses every depth-)"):
                    loads(_with_depth(text, n, depth))
                with pytest.raises(ValueError, match="sha256= line does not match its stage lines"):
                    loads(_with_depth(text, n, depth, rehash=False))
            assert loads(_with_depth(text, n, used)).stages == p.stages


@pytest.mark.parametrize("cap", ["1/0", "0/1", "-1/2", "3/2"])
def test_loads_rejects_a_gap_cap_outside_zero_one(p20, cap):
    text = saves(p20).replace("gap_cap=1/1 ", f"gap_cap={cap} ", 1)
    with pytest.raises(ValueError):
        loads(text)


def test_loads_rejects_a_non_canonical_piece_token(p20):
    text = saves(p20)
    line = text.splitlines()[5]
    token = line.split()[5]  # the first endpoint pair of the stage's T 1 piece
    lo, hi = token.split(",")
    num, den = lo.split("/")
    doubled = f"{2 * int(num)}/{2 * int(den)},{hi}"
    with pytest.raises(ValueError, match="stage 4 line"):
        loads(text.replace(line, line.replace(token, doubled, 1), 1))


@pytest.mark.parametrize(
    "host",
    [Interval.open(0, 1), Interval.open(Fraction(5, 12), Fraction(1, 2)), Interval.closed(Fraction(1, 3), 2)],
)
def test_cover_meets_agrees_with_the_materialized_cover(host):
    cantor = FatCantorSet(host, RETAINED)
    lo, length = host.lo, host.length
    points = [lo + length * Fraction(i, 64) for i in range(-2, 67)]
    points += [part.lo for part in cantor.svc_cover(4)] + [part.hi for part in cantor.svc_cover(4)]
    windows = [Interval.closed(a, b) for a in points[::3] for b in points[::2] if a <= b]
    windows += [Interval.open(a, a + length / 5000) for a in points]
    for depth in range(7):
        cover = cantor.svc_cover(depth)
        for window in windows:
            expected = any(window.closure().intersects(part) for part in cover)
            assert cantor.cover_meets(window, depth) == expected, (window, depth)


# ---------------------------------------------------------------------------
# The gap index: the depth-0 free-space search and window queries
# ---------------------------------------------------------------------------


def _stage_digest(p):
    """sha256 of the (n, gap.lo, gap.hi, depth_used) sequence of a build."""
    text = "\n".join(
        f"{r.n} {format_rational(r.gap.lo)} {format_rational(r.gap.hi)} {r.depth_used}" for r in p.stages
    )
    return hashlib.sha256(text.encode("ascii")).hexdigest()


@pytest.fixture(scope="module")
def p1000():
    return build_partition(1000)


def test_build_1000_is_pinned(p1000):
    # Digest of the build whose depth-0 check merged every overlapping closure.
    assert _stage_digest(p1000) == "745cb3b32cbb87e87315a519e2d12e8b5b1021f70b02a1f75a37e1fffc18715c"


@pytest.mark.parametrize(
    "cap, digest",
    [
        ("1/3", "567ceb4cbf0aafe8975f32ddeb0b8466c8f477452b105ad97ecfb4757a72ddf5"),
        ("5/7", "6ea3384aa012764fcff7e931b66217dbb08ac5e931b88f35edafca093f92183b"),
        ("1/8", "d1a61bf1155c5a655906e3b41d0a465fcd2bf830eb7ca5296d5cccb0fcae49b6"),
    ],
)
def test_capped_builds_are_pinned(cap, digest):
    assert _stage_digest(build_partition(400, Fraction(cap))) == digest


# Stages no build places: non-dyadic gap ends, so the gap index rescales by
# factors of 7, 5 and 3, closures that overlap, closures nested in others,
# closures that touch at one point, and a last closure that holds an earlier
# one starting after it.
_HAND_MADE = SplittingPartition(ONE, tuple(
    StageRecord(n, Interval.open(lo, hi), 0) for n, (lo, hi) in enumerate(
        [("1/7", "3/7"), ("2/5", "4/5"), ("1/3", "1/2"), ("1/5", "1/4"), ("4/5", "9/10"), ("1/2", "3/5"),
         ("3/4", "19/20")], 1)
))


def _reference_free(prefix, target):
    """The depth-0 search as it was: every overlapping closure, sorted and merged."""
    closures = [record.gap.closure() for record in _overlapping_by_brute_force(prefix, target)]
    obstruction = [part for c in closures if (part := c.intersect(target)) is not None]
    best = _longest_part(IntervalSet.of(obstruction).complement_within(target))
    return None if best is None else best.interior()


@pytest.mark.parametrize("stages", [1, 2, 5, 36, 37, 60, 150, 300])
def test_top_level_search_matches_the_merged_closures(builds_300, stages):
    prefix = SplittingPartition(ONE, builds_300[ONE].stages[:stages])
    for n in range(1, 601):
        target = enumerated_interval(n)
        assert longest_free(prefix, target) == _reference_free(prefix, target), (stages, n)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(data=st.data())
def test_top_level_search_matches_on_drawn_targets(builds_300, data):
    stages = builds_300[ONE].stages[: data.draw(st.integers(1, 300), label="stages")]
    ends = [end for record in stages for end in (record.gap.lo, record.gap.hi)]
    end = st.one_of(st.sampled_from(ends), st.fractions(0, 1, max_denominator=2**20))
    a, b = data.draw(end, label="a"), data.draw(end, label="b")
    assume(a != b)
    target = Interval.open(min(a, b), max(a, b))
    prefix = SplittingPartition(ONE, stages)
    assert longest_free(prefix, target) == _reference_free(prefix, target)
    assert longest_free(_HAND_MADE, target) == _reference_free(_HAND_MADE, target)


def _overlapping_by_brute_force(partition, window):
    return [r for r in partition.stages if r.gap.lo <= window.hi and window.lo <= r.gap.hi]


def _windows(ends):
    """Every point window at the ends, and every window between two of them
    with each of its four closure kinds."""
    for a in ends:
        yield Interval.closed(a, a)
        for b in ends:
            if a < b:
                for lo_closed in (False, True):
                    for hi_closed in (False, True):
                        yield Interval(a, b, lo_closed, hi_closed)


def _hand_made_ends():
    """Gap ends, 2^-300 either side of them, ends with denominators coprime
    to the index's, and ends past [0, 1]."""
    gap_ends = {end for r in _HAND_MADE.stages for end in (r.gap.lo, r.gap.hi)}
    tiny = Fraction(1, 2**300)
    extra = {Fraction(1, 11), Fraction(2, 13), Fraction(5, 17), Fraction(0), ONE, Fraction(-1, 2), Fraction(3, 2)}
    return sorted(gap_ends | {e - tiny for e in gap_ends} | {e + tiny for e in gap_ends} | extra)


def test_stages_overlapping_matches_brute_force_on_hand_made_stages():
    ends = _hand_made_ends()
    for window in _windows(ends):
        assert _HAND_MADE.stages_overlapping(window) == _overlapping_by_brute_force(_HAND_MADE, window), window


def test_longest_free_matches_the_merged_closures_on_hand_made_stages():
    ends = _hand_made_ends()
    for j, a in enumerate(ends):
        for b in ends[j + 1:]:
            target = Interval.open(a, b)
            assert longest_free(_HAND_MADE, target) == _reference_free(_HAND_MADE, target), target
    assert longest_free(_HAND_MADE, Interval.open(Fraction(1, 7), Fraction(19, 20))) is None


def test_stages_overlapping_matches_brute_force_at_1000_stages(p1000):
    rng = random.Random(11)
    gap_ends = [end for r in p1000.stages for end in (r.gap.lo, r.gap.hi)]
    tiny = Fraction(1, 2**300)
    ends = rng.sample(gap_ends, 40)
    ends += [e + s * tiny for e in ends[:20] for s in (-1, 1)]
    ends += [Fraction(1, 11), Fraction(2, 13), Fraction(5, 17), Fraction(-1, 2), Fraction(3, 2)]
    ends.sort()
    # Each end to the next three, the closure kinds in turn, and every point.
    windows = [Interval(a, b, i % 2 == 1, i % 4 > 1) for i, (a, b) in enumerate(
        (a, b) for j, a in enumerate(ends) for b in ends[j + 1:j + 4] if a < b)]
    windows += [Interval.closed(e, e) for e in ends + gap_ends[::25]]
    windows += [Interval.open(Fraction(-1, 2), Fraction(3, 2)), Interval.closed(ends[30], Fraction(2))]
    for window in windows:
        assert p1000.stages_overlapping(window) == _overlapping_by_brute_force(p1000, window), window


def test_top_level_closures_at_1000_stages(p1000):
    closures = sorted((r.gap.closure() for r in p1000.stages), key=lambda c: (c.lo, -c.hi))
    top, reach = [], None
    for closure in closures:  # a closure is top-level unless an earlier-starting one reaches past it
        if reach is None or closure.hi > reach:
            top.append(closure)
            reach = closure.hi
    assert top == sorted((r.gap.closure() for r in p1000.stages if r.depth_used == 0), key=lambda c: c.lo)
    assert all(left.hi < right.lo for left, right in zip(top, top[1:]))
    for record in p1000.stages:
        if record.depth_used:
            assert sum(c.contains_interval(record.gap.closure()) for c in top) == 1, record.n
    assert extend_partition(build_partition(400), 1000).stages == p1000.stages


@pytest.mark.parametrize("depth_used", [1, 2, 4])
def test_measure_in_additivity_around_dug_gaps_at_1000_stages(p1000, depth_used):
    gap = next(r.gap for r in p1000.stages if r.depth_used == depth_used)
    third, quarter = gap.length / 3, gap.length / 4
    for window in (
        Interval.closed(gap.lo + third, gap.hi - third),
        Interval.closed(gap.lo - quarter, gap.lo + quarter),
        Interval.closed(gap.hi - quarter, gap.hi + quarter),
    ):
        tol = window.length / 2**10
        bounds = [measure_in(p1000, k, window, tol) for k in range(p1000.stage_count + 1)]
        assert sum(b.lo for b in bounds) <= window.length <= sum(b.hi for b in bounds)


def test_not_yet_covered_names_a_stage_count_for_a_narrow_window(p20):
    # The first enumerated interval inside this window has index 5,864,062,014,719,
    # far beyond what a scan of the enumeration reaches; the closed form names it.
    radius = Fraction(1, 2**40)
    window = Interval.open(Fraction(1, 3) - radius, Fraction(1, 3) + radius)
    with pytest.raises(NotYetCovered, match="build at least 5864062014719 stages") as excinfo:
        splitting_certificate(p20, 1, window)
    assert excinfo.value.needed_stage == 5864062014719
    assert window.contains_interval(enumerated_interval(excinfo.value.needed_stage))


@pytest.mark.parametrize("depth_used", [1, 2, 4])
def test_membership_inside_nested_gaps_agrees_with_piece_hosts_at_1000_stages(p1000, depth_used):
    # Points inside the first gap dug at this depth: midpoints and boundaries
    # of its pieces, and the ends of each piece's first removed middle, which
    # lie in its planted set.  The gap nests in a gap of an earlier stage.
    record = next(r for r in p1000.stages if r.depth_used == depth_used)
    assert any(r.n < record.n and r.gap.closure().contains_interval(record.gap) for r in p1000.stages)
    points = [record.gap.hi]
    for i in sorted({0, 1, record.n // 2, record.n - 1, record.n}):
        host = record.piece_host(i)
        left, right = p1000.piece_set(record.n, i).svc_cover(1).parts
        points += [host.lo, host.midpoint, left.hi, right.lo]
    for x in points:
        for depth in (4, 8):
            answer = p1000.membership(x, depth)
            assert (answer.kind, answer.k, answer.stage) == _membership_from_piece_hosts(p1000, x, depth), (x, depth)


def test_splitting_certificate_names_the_missing_complement():
    # W is stage 1's piece 0, which hosts member 1: member 1 is covered, and
    # only a whole piece of some other member inside W is missing.
    p30 = build_partition(30)
    window = Interval.closed(Fraction(5, 12), Fraction(1, 2))
    with pytest.raises(NotYetCovered) as excinfo:
        splitting_certificate(p30, 1, window)
    assert str(excinfo.value) == (
        "no stage covers a member other than 1 inside [5/12,1/2] yet; build at least 81 stages"
    )
    assert excinfo.value.needed_stage == 81
    cert, grown = splitting_certificate_auto(p30, 1, window)
    assert (cert.stage, cert.piece) == (1, 0)
    assert (cert.complement_member, cert.complement_stage) == (2, 37)
    assert grown.stage_count == 81


def test_every_host_piece_window_lacks_only_its_complement():
    p30 = build_partition(30)
    for n in range(1, 31):
        for piece in range(n):
            host = p30.stage(n).piece_host(piece)
            with pytest.raises(NotYetCovered, match=f"^no stage covers a member other than {piece + 1} inside"):
                splitting_certificate(p30, piece + 1, Interval.closed(host.lo, host.hi))


@pytest.mark.parametrize("stages, hosts_disjoint", [(36, True), (37, False)])
def test_hosts_stop_being_disjoint_once_gaps_nest(stages, hosts_disjoint):
    # Stage 37's gap nests inside an earlier stage's removed middle: its host
    # overlaps an earlier host, while the planted sets stay disjoint.
    from clarkesat.partition import planted_sets_pairwise_disjoint

    p = build_partition(stages)
    assert hosts_pairwise_disjoint(p) is hosts_disjoint
    assert planted_sets_pairwise_disjoint(p) is True


def test_a_window_that_only_touches_a_listed_stage():
    # W starts where stage 1's gap (5/12, 7/12) ends: that gap's closure meets
    # W in one point, so stage 1 is listed but has no piece in W.
    from clarkesat.partition import _whole_pieces

    p30 = build_partition(30)
    window = Interval.closed(Fraction(7, 12), Fraction(7, 12) + Fraction(1, 64))
    assert p30.stage(1).gap.hi == window.lo
    overlapping = p30.stages_overlapping(window)
    assert [record.n for record in overlapping] == [1, 12]
    assert piece_span(p30.stage(1), window) is None
    width = RETAINED * p30.stage(12).piece_width
    assert _whole_pieces(overlapping, (1, 2), window) == {1: (12, 0, width), 2: (12, 1, width)}
    cert = splitting_certificate(p30, 1, window)
    assert (cert.stage, cert.piece, cert.lower_bound) == (12, 0, width)
    assert (cert.complement_member, cert.complement_stage, cert.complement_piece) == (2, 12, 1)
    for n, piece in ((cert.stage, cert.piece), (cert.complement_stage, cert.complement_piece)):
        assert window.contains_interval(p30.stage(n).piece_host(piece))


def test_extending_to_no_more_stages_returns_the_partition(p20):
    assert extend_partition(p20, 1) is p20
    assert extend_partition(p20, p20.stage_count) is p20


def _hosts_disjoint_by_sorting(partition):
    """The rule as it was: sort the gaps by their ends and compare neighbours."""
    hosts = sorted((record.gap.lo, record.gap.hi) for record in partition.stages)
    return all(lo_b >= hi_a for (_, hi_a), (lo_b, _) in zip(hosts, hosts[1:]))


def _hand_made(*gaps):
    return SplittingPartition(ONE, tuple(
        StageRecord(n, Interval.open(Fraction(lo), Fraction(hi)), 0) for n, (lo, hi) in enumerate(gaps, 1)))


@pytest.mark.parametrize("partition, disjoint", [
    (_hand_made(), True),
    (_hand_made(("1/3", "1/2")), True),
    (_hand_made(("1/3", "1/2"), ("1/5", "1/4"), ("3/4", "4/5")), True),
    (_hand_made(("1/2", "3/4"), ("1/4", "1/2")), True),  # closures touch, gaps do not
    (_hand_made(("1/4", "1/2"), ("1/3", "3/4")), False),  # overlap
    (_hand_made(("1/10", "9/10"), ("1/5", "1/4"), ("19/20", "1")), False),  # nest
    (_hand_made(("4/5", "9/10"), ("1/10", "9/10"), ("1/5", "1/4")), False),  # nest after a disjoint one
    (_hand_made(("1/4", "1/2"), ("1/4", "1/3")), False),  # share a left end
    (_hand_made(("1/4", "1/3"), ("1/4", "1/2")), False),
    (_HAND_MADE, False),
], ids=["empty", "one", "disjoint", "touch", "overlap", "nest", "nest-late", "share-lo", "share-lo-short-first",
        "hand-made"])
def test_hosts_pairwise_disjoint_matches_sorting_on_hand_made_stages(partition, disjoint):
    assert _hosts_disjoint_by_sorting(partition) is disjoint
    assert hosts_pairwise_disjoint(partition) is disjoint


def test_hosts_pairwise_disjoint_matches_sorting_on_every_prefix_of_300_stages(builds_300):
    stages = builds_300[ONE].stages
    answers = []
    for count in range(len(stages) + 1):
        prefix = SplittingPartition(ONE, stages[:count])
        answers.append(hosts_pairwise_disjoint(prefix))
        assert answers[-1] is _hosts_disjoint_by_sorting(prefix), count
    assert answers.index(False) == 37


def test_stage_rejects_numbers_outside_1_to_n():
    p30 = build_partition(30)
    assert p30.stage(30) is p30.stages[-1]
    for n in (0, -1, 31):
        with pytest.raises(IndexError, match=r"^the partition has stages 1\.\.30$"):
            p30.stage(n)
        with pytest.raises(IndexError, match=r"^the partition has stages 1\.\.30$"):
            p30.piece_set(n, 0)


def test_membership_rejects_a_negative_depth_at_every_point():
    from clarkesat.functions import FiniteSupport, SaturatedFunction, eval_g, sample_gradient

    p30 = build_partition(30)
    sf = SaturatedFunction(p30, FiniteSupport.unit(0))
    for x in (Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(9, 20)):
        for query in (lambda: p30.membership(x, -1), lambda: eval_g(p30, 0, x, -1),
                      lambda: sample_gradient(sf, (x,), -1)):
            with pytest.raises(ValueError, match=r"^depth must be >= 0$"):
                query()
    answer = p30.membership(Fraction(0), 0)
    assert (answer.kind, answer.k, answer.stage) == ("A", 0, None)


def test_membership_raises_when_two_stages_claim_one_point():
    record = build_partition(1).stage(1)
    host = record.piece_host(0)
    twice = SplittingPartition(ONE, (record, record))
    with pytest.raises(AssertionError, match=r"^disjointness violated: two stages claim one point$"):
        twice.membership(host.lo + 3 * host.length / 8, 8)


def test_shrink_gap_raises_when_the_gap_escapes_its_free_interval(monkeypatch):
    # With j forced to 0 the gap has length 1/3, longer than the free interval.
    monkeypatch.setattr(partition_module, "_halving_exponent", lambda bound: 0)
    with pytest.raises(AssertionError, match="escaped its free interval"):
        shrink_gap(Interval.open(Fraction(1, 4), Fraction(1, 4) + Fraction(1, 100)), 1, ONE)


def _reference_shrink_gap(found, n, gap_cap):
    """``shrink_gap`` in Fraction arithmetic, as it was before it read the
    gap's (j, c) from integers; j still comes from ``_halving_exponent``."""
    j = partition_module._halving_exponent(min(found.length, Fraction(1, 2**n), gap_cap))
    length = Fraction(1, 3 * 2**j)
    grid = 2 ** (j + 4)
    mid = found.midpoint
    center = Fraction((mid.numerator * grid) // mid.denominator, grid)
    gap = Interval.open(center - length / 2, center + length / 2)
    if not (found.lo < gap.lo and gap.hi < found.hi):
        raise AssertionError(f"gap {gap} escaped its free interval {found}")
    return gap


def _grid_fraction(data, limit):
    """A fraction num/den in [0, limit] on a dyadic grid down to 2^-60, or on
    one with denominator 3, 5 or 7 times a power of two."""
    den = data.draw(st.sampled_from((1, 3, 5, 7))) << data.draw(st.integers(0, 60))
    return Fraction(data.draw(st.integers(0, limit * den)), den)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(data=st.data())
def test_shrink_gap_matches_the_fraction_rule(data):
    lo = _grid_fraction(data, 1)
    width = _grid_fraction(data, 1)
    assume(width > 0)
    found = Interval.open(lo, lo + width)
    n = data.draw(st.integers(1, 4000))
    gap_cap = data.draw(st.sampled_from((ONE, Fraction(1, 3), Fraction(5, 7), Fraction(1, 8))))
    # A forced j that the found interval may be too short for reaches the
    # escape branch of both rules.
    forced = data.draw(st.one_of(st.none(), st.integers(0, 12)))

    def outcome(shrink):
        try:
            return shrink(found, n, gap_cap)
        except AssertionError as error:
            assert "escaped its free interval" in str(error)
            return str(error)

    with pytest.MonkeyPatch.context() as patch:
        if forced is not None:
            patch.setattr(partition_module, "_halving_exponent", lambda bound: forced)
        assert outcome(shrink_gap) == outcome(_reference_shrink_gap), (found, n, gap_cap, forced)


# ---------------------------------------------------------------------------
# 2000 stages: past the first depth-8 dig, at stage 1515
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def build_2000():
    return build_partition(2000)


def test_build_2000_holds_the_first_depth_8_dig(build_2000):
    assert next(r.n for r in build_2000.stages if r.depth_used == 8) == 1515
    assert hashlib.sha256(saves(build_2000, version=2).encode("ascii")).hexdigest() == (
        "74314b031700f0215d4841e777729dba6ec3b098b53335f55dd4ae2e94049a8f")


def test_v2_round_trip_and_planted_sets_at_2000_stages(build_2000):
    assert loads(saves(build_2000, version=2)).stages == build_2000.stages
    assert planted_sets_pairwise_disjoint(build_2000)


def test_extending_a_loaded_1000_stage_file_to_2000_stages(build_1000, build_2000):
    assert extend_partition(loads(saves(build_1000, version=2)), 2000).stages == build_2000.stages


def test_cover_probe_matches_the_planted_sets_at_2000_stages(build_2000):
    # The load check's integer probe against cantor's, on every piece it
    # walks for the 248 dug stages; both answers occur.
    answers = set()
    for record in build_2000.stages:
        if not record.depth_used:
            continue
        gap = record.gap
        lo, hi = gap.lo, gap.hi
        for other in build_2000.stages_overlapping(gap):
            if other.n >= record.n:
                continue
            for i in _pieces_touching(other, lo.numerator, lo.denominator, hi.numerator, hi.denominator):
                planted = build_2000.piece_set(other.n, i)
                for depth in (d for d in _GAP_DEPTHS if d <= 16):
                    meets = cover_meets(other, i, gap, depth)
                    assert meets == planted.cover_meets(gap, depth), (record.n, other.n, i, depth)
                    answers.add(meets)
    assert answers == {False, True}


def test_gap_closures_nest_and_the_earliest_overlapping_stage_hosts_each_dig(build_2000, builds_300):
    # The nesting rule of the partition's "Gap search": every earlier closure
    # meeting a gap's closure holds it strictly, and a dug stage's I_n lies,
    # closed, in the closure of the earliest stage meeting it.
    dug = 0
    for p in (build_2000, *builds_300.values()):
        for record, target in zip(p.stages, partition_module._enumeration(1)):
            gap = record.gap
            for other in p.stages_overlapping(gap):
                if other.n < record.n:
                    assert other.gap.lo < gap.lo and gap.hi < other.gap.hi, (record.n, other.n)
            if record.depth_used:
                dug += 1
                host = next(r for r in p.stages_overlapping(target) if r.n < record.n)
                assert host.gap.lo <= target.lo and target.hi <= host.gap.hi, (record.n, host.n)
    assert dug == 297


def _drawn_end(data, partition, record):
    """A window end: a gap end of any stage, an end of the record's pieces,
    or a dyadic grid point as fine as the deepest gaps' 2^-(j+4).  Indices
    are drawn rather than sampled, so hypothesis hashes no stage."""
    kind = data.draw(st.sampled_from(("gap", "piece", "dyadic")), label="kind")
    if kind == "gap":
        gap = partition.stage(data.draw(st.integers(1, partition.stage_count), label="stage")).gap
        return gap.hi if data.draw(st.booleans(), label="hi") else gap.lo
    if kind == "piece":
        nums, den = record.endpoints()
        return Fraction(nums[data.draw(st.integers(0, record.piece_count), label="piece end")], den)
    m = data.draw(st.integers(0, partition.stage_count + 100), label="grid")
    return Fraction(data.draw(st.integers(0, 2**m), label="grid point"), 2**m)


def _drawn_record_and_window(data, partition):
    """A stage and a window between two drawn ends, with any of its four closure kinds."""
    record = partition.stage(data.draw(st.integers(1, partition.stage_count), label="record"))
    lo, hi = sorted((_drawn_end(data, partition, record), _drawn_end(data, partition, record)))
    if lo == hi:
        return record, Interval.closed(lo, lo)
    flags = data.draw(st.booleans(), label="lo_closed"), data.draw(st.booleans(), label="hi_closed")
    return record, Interval(lo, hi, *flags)


# Each example of the last two costs 50-100 ms: the references walk every
# piece of a stage with up to 2001 pieces, or merge up to ~1000 closures.
@settings(derandomize=True, max_examples=150, deadline=None)
@given(data=st.data())
def test_stages_overlapping_and_piece_span_match_brute_force_at_2000_stages(build_2000, data):
    record, window = _drawn_record_and_window(data, build_2000)
    assert build_2000.stages_overlapping(window) == _overlapping_by_brute_force(build_2000, window)
    assert piece_span(record, window) == fraction_piece_span(record, window)


@settings(derandomize=True, max_examples=25, deadline=None)
@given(data=st.data())
def test_pieces_touching_matches_the_piece_hosts_at_2000_stages(build_2000, data):
    record, window = _drawn_record_and_window(data, build_2000)
    lo, hi = window.lo, window.hi
    touching = _pieces_touching(record, lo.numerator, lo.denominator, hi.numerator, hi.denominator)
    assert list(touching) == _reference_pieces(record, lo, hi)


@settings(derandomize=True, max_examples=20, deadline=None)
@given(data=st.data())
def test_longest_free_matches_the_merged_closures_at_2000_stages(build_2000, data):
    record, window = _drawn_record_and_window(data, build_2000)
    assume(window.lo < window.hi)
    target = Interval.open(window.lo, window.hi)  # the gap search's targets are open
    assert longest_free(build_2000, target) == _reference_free(build_2000, target)


def _respelled(line):
    """A stage line with its tokens reordered and tab-separated, and each gap
    end's numerator and denominator multiplied by 3: only the generic parser reads it."""
    n, gap, depth = (token.partition("=")[2] for token in line.split())
    ends = ",".join(f"{3 * int(num)}/{3 * int(den)}" for num, den in (end.split("/") for end in gap.split(",")))
    return f"depth={depth}\tgap={ends}\tn={n}"


def _with_line(lines, i, line):
    """The v2 text of ``lines`` with line i replaced, its sha256 line recomputed."""
    lines = [*lines[:i], line, *lines[i + 1:]]
    return "\n".join([*lines, f"sha256={_digest(lines[2:])}"]) + "\n"


def test_both_stage_readers_agree_at_the_first_depth_8_dig(build_2000):
    lines = saves(build_2000, version=2).splitlines()[:-1]
    i = 1515 + 1  # lines[2] is stage 1
    assert lines[i].startswith("n=1515 ") and lines[i].endswith(" depth=8")
    assert loads(_with_line(lines, i, _respelled(lines[i]))).stages == build_2000.stages
    relabelled = re.sub(r"depth=8$", "depth=4", lines[i])
    errors = []
    for line in (relabelled, _respelled(relabelled)):
        with pytest.raises(ValueError, match=r"^stage 1515: ") as caught:
            loads(_with_line(lines, i, line))
        errors.append(str(caught.value))
    assert errors[0] == errors[1]


# ---------------------------------------------------------------------------
# Certificates from the prefix they need, on the 2000-stage build
# ---------------------------------------------------------------------------


_PREFIX_MUS = (FiniteSupport.of({0: 3, 1: -5, 2: 2}), FiniteSupport.of({0: -2, 3: 1}), ones_generator())


def _certificate_or_error(partition, mu, point, radius, K):
    try:
        return certify_saturation(SaturatedFunction(partition, mu, len(point)), point, radius, K)
    except NotYetCovered as exc:
        return str(exc), exc.needed_stage


def test_prefix_certificates_equal_full_ones_at_2000_stages(build_2000):
    # Stage M = max_i first_index_inside(W_i, 2K+1) lays a whole piece of
    # every member 0..2K+1 inside each coordinate window W_i, so stages
    # 1..min(N, M) give the certificate all N stages give.
    rng = random.Random(2000)
    text = saves(build_2000, version=2)
    prefixes, loaded = {}, {}
    covered = 0
    for d in (1, 2, 3):
        for K in (2, 4, 8):
            for e in range(2, 11):
                radius = Fraction(1, 2**e)
                for mu in _PREFIX_MUS:
                    # Grid points k/64 whose every window (x_i -/+ radius/d) lies in (0, 1).
                    point = tuple(Fraction(rng.randrange(17, 48), 64) for _ in range(d))
                    windows = saturation_windows(unit_box(d), point, radius)
                    M = min(max(first_index_inside(window, 2 * K + 1) for window in windows), 2000)
                    if M not in prefixes:
                        prefixes[M] = SplittingPartition(build_2000.gap_cap, build_2000.stages[:M])
                    full = _certificate_or_error(build_2000, mu, point, radius, K)
                    assert _certificate_or_error(prefixes[M], mu, point, radius, K) == full, (d, K, e, point)
                    if isinstance(full, tuple):
                        continue
                    covered += 1
                    assert certify_saturation(SaturatedFunction(prefixes[M], mu, d), point, radius, K).render() == (
                        full.render())
                    if M <= 200 and M not in loaded:
                        loaded[M] = loads(text, stages=M)
                        assert loaded[M].stages == build_2000.stages[:M]
                        assert _certificate_or_error(loaded[M], mu, point, radius, K) == full
    assert covered > 100 and len(loaded) > 10 and min(prefixes) < 50 and 2000 in prefixes


def test_loads_of_a_prefix_checks_the_whole_files_sha256_and_stage_count(p20):
    text = saves(p20, version=2)
    assert loads(text, stages=0).stages == ()
    assert loads(text, stages=5).stages == p20.stages[:5]
    assert loads(text, stages=50).stages == p20.stages
    assert loads(saves(p20), stages=5).stages == p20.stages[:5]  # v1
    lines = text.splitlines()
    with pytest.raises(ValueError, match="sha256= line does not match"):
        loads("\n".join([*lines[:-2], lines[-2].replace("depth=0", "depth=4"), lines[-1]]) + "\n", stages=5)
    with pytest.raises(ValueError, match="expected 20 stages, found 19"):
        loads("\n".join([*lines[:-2], f"sha256={_digest(lines[2:-2])}"]) + "\n", stages=5)
    with pytest.raises(ValueError, match="stages must be >= 0"):
        loads(text, stages=-1)


@pytest.fixture(scope="module")
def files_2000(build_2000, tmp_path_factory):
    """The 2000-stage v2 file, and a copy whose stage 1515 claims depth 4
    (depth 8 built it), its sha256 line recomputed."""
    folder = tmp_path_factory.mktemp("prefix")
    valid, broken = folder / "p2000.splitpart", folder / "depth4.splitpart"
    lines = saves(build_2000, version=2).splitlines()
    valid.write_text("\n".join(lines) + "\n", encoding="ascii")
    i = 1515 + 1  # lines[2] is stage 1
    broken.write_text(_with_line(lines[:-1], i, re.sub(r"depth=8$", "depth=4", lines[i])), encoding="ascii")
    return str(valid), str(broken)


_CERTIFY_LINES = (
    ("--mu", "0:1/1,1:-2/1", "--point", "1/2,3/8", "--radius", "1/4"),
    ("--mu", "0:3/1,1:-5/1,2:2/1", "--point", "5/8", "--radius", "1/64"),
    ("--mu", "ones", "--K", "8", "--point", "1/2,3/8,5/8", "--radius", "1/16"),
    ("--mu", "0:1/1,1:-2/1", "--point", "1/2,3/8", "--radius", "1/4", "--shift", "1/1,2/1", "--shift-radius", "1/2"),
)


@pytest.mark.parametrize("options", _CERTIFY_LINES, ids=["d2", "d1-narrow", "ones-K8", "shift"])
def test_certify_reads_only_the_stages_before_a_bad_one_past_its_prefix(files_2000, capsys, options):
    valid, broken = files_2000
    outputs = []
    for path in (valid, broken):
        assert main(["certify", "--partition", path, *options]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        outputs.append(captured.out)
    assert outputs[0] == outputs[1]
    assert "saturation certificate" in outputs[0] and max(
        int(stage) for stage in re.findall(r" stage (\d+) ", outputs[0])) < 1515


@pytest.mark.parametrize("options", _CERTIFY_LINES, ids=["d2", "d1-narrow", "ones-K8", "shift"])
def test_certify_reads_the_file_once_with_the_windows_prefix(files_2000, monkeypatch, capsys, options):
    # A command that succeeds reads only stages 1..M, M the largest
    # first_index_inside(W_i, 2K+1); the whole-file check runs only on failure.
    read = []
    monkeypatch.setattr(cli, "load", lambda path, stages=None: read.append(stages) or (
        partition_module.load(path, stages)))
    assert main(["certify", "--partition", files_2000[0], *options]) == 0
    capsys.readouterr()
    given = dict(zip(options[::2], options[1::2]))
    point = tuple(map(Fraction, given["--point"].split(",")))
    K = int(given["--K"]) if "--K" in given else parse_mu_spec(given["--mu"]).max_index
    windows = saturation_windows(unit_box(len(point)), point, Fraction(given["--radius"]))
    assert read == [max(first_index_inside(window, 2 * K + 1) for window in windows)]


def test_certify_past_the_size_bound_reads_the_whole_file(tmp_path, monkeypatch, capsys):
    # A 2^-99 window around stage 120's gap (about 2^-122 wide) holds its
    # pieces whole, while the first enumerated interval inside it lies past
    # first_index_inside's size bound: M is past any file, so every stage is
    # read, and stage 120 certifies.
    partition = build_partition(130)
    path = tmp_path / "p130.splitpart"
    path.write_text(saves(partition, version=2), encoding="ascii")
    gap = partition.stage(120).gap
    read = []
    monkeypatch.setattr(cli, "load", lambda path, stages=None: read.append(stages) or (
        partition_module.load(path, stages)))
    code = main(["certify", "--partition", str(path), "--mu", "0:1/1", "--point", format_rational((gap.lo + gap.hi) / 2),
                 "--radius", f"1/{2**100}"])
    captured = capsys.readouterr()
    assert (code, captured.err, read) == (0, "", [None])
    assert {int(stage) for stage in re.findall(r" stage (\d+) ", captured.out)} == {120}


# eval and measure read the prefix their tolerance needs, so each gets a
# tolerance of 2^-1600, whose prefix holds the bad stage 1515.
_TOL_2_1600 = f"1/{2**1600}"


@pytest.mark.parametrize("command", [
    ("eval", "--mu", "0:1/1", "--x", "5/8", "--tol", _TOL_2_1600),
    ("stress", "--mu", "0:1/1", "--steps", "2"),
    ("measure", "--k", "1", "--window", "1/4,3/4", "--tol", _TOL_2_1600),
], ids=["eval", "stress", "measure"])
def test_commands_that_read_every_stage_reject_the_bad_one(files_2000, capsys, command):
    _, broken = files_2000
    assert main([command[0], "--partition", broken, *command[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: stage 1515: ") and captured.out == ""
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("options", [
    ("--mu", "0:1/1", "--point", "abc", "--radius", "1/4"),
    ("--mu", "0:1/1", "--point", "3/2", "--radius", "1/4"),
    ("--mu", "0:1/1", "--point", "1/16", "--radius", "1/4"),
    ("--mu", "0:1/1", "--point", "1/2", "--radius", "0"),
    ("--mu", "0:1/1", "--point", "1/2", "--radius", "1/4", "--K", "-1"),
    ("--mu", "ones", "--point", "1/2", "--radius", "1/4"),
    ("--mu", "bad", "--point", "1/2", "--radius", "1/4"),
    ("--mu", "0:1/1", "--point", "1/2", "--radius", "1/4", "--x0", "3/2"),
    ("--mu", "0:1/1", "--point", "1/2", "--radius", "1/4", "--x0", "1/2,1/2"),
    ("--mu", "0:1/1", "--point", "1/2", "--radius", "1/4", "--shift", "1/1"),
    ("--mu", "0:1/1", "--point", "1/2", "--radius", "1/4", "--shift", "abc", "--shift-radius", "1/2"),
], ids=["unparsed-point", "point-outside", "window-outside", "zero-radius", "negative-K", "generator-without-K",
        "bad-mu", "x0-outside", "x0-dimension", "shift-without-radius", "unparsed-shift"])
def test_certify_reports_the_files_error_before_a_bad_input(files_2000, capsys, options):
    # A command that fails checks the whole file, so the file's error comes
    # first, whether the input fails before or after the prefix read.
    _, broken = files_2000
    assert main(["certify", "--partition", broken, *options]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: stage 1515: ") and "Traceback" not in captured.err


# ---------------------------------------------------------------------------
# eval, measure and plot read the prefix their tolerance needs
# ---------------------------------------------------------------------------


_TOLERANCE_LINES = (  # a --decimal flag comes last, after the option pairs
    ("eval", "--mu", "0:3/1,1:-5/1,2:2/1", "--x", "5/8"),
    ("eval", "--mu", "0:-2/1,3:1/1", "--x", "3/8,7/9", "--decimal"),
    ("eval", "--mu", "0:1/3,1:-5/7,2:2/1", "--x", "1/5,2/3,5/6", "--x0", "1/3,1/2,3/4", "--tol", "1/100000000"),
    ("eval", "--mu", "ones", "--x", "5/8"),
    ("eval", "--mu", "ones", "--x", "1/7,5/6", "--x0", "1/4,1/2"),
    ("eval", "--mu", "ones", "--x", "1/2,3/8,13/16", "--tol", "1/1000"),
    ("eval", "--mu", "zero", "--x", "5/8"),  # limit 0: one stage
    ("measure", "--k", "0", "--window", "1/4,3/4", "--tol", "1/1000000"),
    ("measure", "--k", "3", "--window", "0/1,5/6", "--tol", "1/100000000", "--decimal"),
    ("measure", "--k", "1", "--window", "1/8,1/1"),
    ("plot", "--k", "0", "--grid", "3"),
    ("plot", "--k", "2", "--grid", "4", "--x0", "1/3", "--tol", "1/100000000"),
)


def _full_scan(partition, command):
    """The tolerance and the library's answers for a command line, from every stage."""
    options = dict(zip(command[1::2], command[2::2]))
    tol = Fraction(options.get("--tol", "1/1024" if command[0] == "measure" else "1/1000000"))
    if command[0] == "eval":
        point = tuple(map(Fraction, options["--x"].split(",")))
        x0 = tuple(map(Fraction, options["--x0"].split(","))) if "--x0" in options else None
        return tol, [SaturatedFunction(partition, parse_mu_spec(options["--mu"]), len(point), x0=x0).eval(point, tol)]
    k = int(options["--k"])
    if command[0] == "measure":
        return tol, [partition.measure_in(k, Interval.closed(*map(Fraction, options["--window"].split(","))), tol)]
    grid = int(options["--grid"])
    return tol, [eval_f1(partition, k, Fraction(options.get("--x0", "1/2")), Fraction(i, grid + 1), tol)
                 for i in range(1, grid + 1)]


def _answer(command, path, capsys, out):
    """(exit code, stdout and the plot file's text, stderr) of a command on
    the file at path; a plot writes to out."""
    extra = ["--out", str(out)] if command[0] == "plot" else []
    code = main([command[0], "--partition", str(path), *command[1:], *extra])
    captured = capsys.readouterr()
    return code, captured.out + (out.read_text(encoding="ascii") if out.exists() else ""), captured.err


@pytest.mark.parametrize("command", _TOLERANCE_LINES, ids=[
    "eval-d1", "eval-d2", "eval-d3", "eval-ones-d1", "eval-ones-d2", "eval-ones-d3", "eval-zero", "measure-k0",
    "measure-k3", "measure-k1", "plot-k0", "plot-k2"])
def test_tolerance_answers_read_only_the_stages_before_a_bad_one(files_2000, build_2000, tmp_path, capsys, command):
    # Stages past m hold at most stage_tail_bound(m) of planted mass, so the
    # prefix gives a certified answer within tol: the same bytes on the copy
    # whose stage 1515 is bad, and meeting the full-scan answer.
    out = tmp_path / "plot.csv"
    answers = [_answer(command, path, capsys, out) for path in files_2000]
    assert answers[0] == answers[1] and answers[0][::2] == (0, "")
    if command[0] == "plot":
        rows = [line.split(",")[1:] for line in out.read_text(encoding="ascii").splitlines()[1:]]
    else:
        rows = [answers[0][1].splitlines()[0].split()]
    tol, full = _full_scan(build_2000, command)
    assert len(rows) == len(full)
    for (lo, hi), reference in zip((map(Fraction, row) for row in rows), full):
        assert hi - lo <= tol and lo <= reference.hi and reference.lo <= hi, (lo, hi, reference)


@pytest.mark.parametrize("command, limit, budget", [
    (("eval", "--mu", "0:3/1,1:-5/1,2:2/1", "--x", "5/8"), 2 * 5 + 3, Fraction(1, 10**6)),
    (("eval", "--mu", "ones", "--x", "1/7,5/6"), 4 * 1 + 1, Fraction(1, 2 * 10**6)),
    (("measure", "--k", "3", "--window", "0/1,5/6", "--tol", "1/100000000"), 1, Fraction(1, 10**8)),
    (("plot", "--k", "0", "--grid", "3"), 2, Fraction(1, 10**6)),
], ids=["eval", "eval-ones", "measure", "plot"])
def test_tolerance_commands_read_the_smallest_prefix_with_room(files_2000, tmp_path, monkeypatch, capsys, command,
                                                               limit, budget):
    # m is the smallest count with limit * stage_tail_bound(m, 1) < budget/2:
    # the bound tends to limit * tail, and the straddlers get the other half.
    read = []
    monkeypatch.setattr(cli, "load", lambda path, stages=None: read.append(stages) or (
        partition_module.load(path, stages)))
    assert _answer(command, files_2000[0], capsys, tmp_path / "plot.csv")[0] == 0
    (m,) = read
    assert limit * stage_tail_bound(m, ONE) < budget / 2 <= limit * stage_tail_bound(m - 1, ONE)


@pytest.mark.parametrize("command", [
    ("eval", "--mu", "bad", "--x", "5/8"),
    ("eval", "--mu", "0:1/1", "--x", "abc"),
    ("eval", "--mu", "0:1/1", "--x", "3/2"),
    ("eval", "--mu", "0:1/1", "--x", "0/1"),
    ("eval", "--mu", "0:1/1", "--x", "5/8", "--x0", "1/1"),
    ("eval", "--mu", "0:1/1", "--x", "5/8", "--x0", "1/2,1/2"),
    ("eval", "--mu", "0:1/1", "--x", "5/8", "--tol", "0"),
    ("measure", "--k", "1", "--window=-2/1,2/1"),
    ("measure", "--k", "1", "--window", "1/4,3/2"),
    ("measure", "--k", "1", "--window", "1/4"),
    ("measure", "--k", "1", "--window", "1/4,3/4", "--tol=-1/2"),
    ("measure", "--k", "-1", "--window", "1/4,3/4"),
    ("plot", "--k", "0", "--grid", "3", "--x0", "3/2"),
    ("plot", "--k", "0", "--grid", "3", "--tol", "abc"),
    ("plot", "--k", "-1", "--grid", "3"),
], ids=["eval-mu", "eval-x", "eval-x-outside", "eval-x-on-the-edge", "eval-x0-outside", "eval-x0-dimension",
        "eval-tol", "measure-window-outside", "measure-window-past-1", "measure-window", "measure-tol", "measure-k",
        "plot-x0-outside", "plot-tol", "plot-k"])
def test_tolerance_commands_report_the_files_error_before_a_bad_input(files_2000, tmp_path, capsys, command):
    # A window outside [0, 1] reads the whole file, and a command that fails
    # checks the whole file, so the file's error comes first.
    code, out, err = _answer(command, files_2000[1], capsys, tmp_path / "plot.csv")
    assert (code, out) == (2, "") and err.startswith("error: stage 1515: ") and "Traceback" not in err


@pytest.mark.parametrize("command", [
    ("eval", "--mu", "0:1/1", "--x", "5/8", "--tol", f"1/{2**39}"),
    ("eval", "--mu", "ones", "--x", "1/7,5/6", "--tol", f"1/{2**38}"),
    ("eval", "--mu", "0:3/1,1:-5/1,2:2/1", "--x", "5/8", "--tol", "1/1000000000000"),
    ("measure", "--k", "2", "--window", "1/4,3/4", "--tol", f"1/{2**41}"),
    ("measure", "--k", "0", "--window", "1/4,3/4", "--tol", "1/1000000000000000"),
    ("plot", "--k", "1", "--grid", "3", "--tol", f"1/{2**40}"),
    ("plot", "--k", "1", "--grid", "3", "--tol", "1/1000000000000000"),
], ids=["eval", "eval-ones", "eval-tail", "measure", "measure-tail", "plot", "plot-tail"])
def test_a_file_shorter_than_the_prefix_reads_as_a_whole(tmp_path, capsys, monkeypatch, command):
    # Each tolerance needs m > 40 stages, so a 40-stage file, and a copy
    # whose stage 37 claims depth 0, give what reading every stage gives: a
    # bound or the tail's error on the first, the stage's error on the second.
    lines = saves(build_partition(40), version=2).splitlines()
    i = 37 + 1  # lines[2] is stage 1
    assert lines[i].startswith("n=37 ") and not lines[i].endswith(" depth=0")
    files = tmp_path / "p40.splitpart", tmp_path / "dug.splitpart"
    files[0].write_text("\n".join(lines) + "\n", encoding="ascii")
    files[1].write_text(_with_line(lines[:-1], i, re.sub(r" depth=\d+$", " depth=0", lines[i])), encoding="ascii")
    out = tmp_path / "plot.csv"
    answers = []
    for path in files:
        out.unlink(missing_ok=True)
        prefix = _answer(command, path, capsys, out)
        out.unlink(missing_ok=True)
        with monkeypatch.context() as patch:
            patch.setattr(cli, "load", lambda path, stages=None: partition_module.load(path))
            assert _answer(command, path, capsys, out) == prefix
        answers.append(prefix)
    assert answers[0][0] == (4 if command[-1].startswith("1/1000000000000") else 0)
    assert answers[1][0] == 2 and answers[1][2].startswith("error: stage 37: ")


# ---------------------------------------------------------------------------
# longest_free answers an open interval for any target
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("flags", [(True, True), (False, True), (True, False)], ids=["closed", "open-closed",
                                                                                    "closed-open"])
def test_longest_free_is_open_for_closed_and_half_open_targets(build_2000, flags):
    for partition, lo, hi in ((_HAND_MADE, Fraction(0), Fraction(1, 10)),  # no closure meets it
                              (_HAND_MADE, Fraction(1, 10), Fraction(1, 2)),
                              (build_2000, Fraction(0), Fraction(1, 1024)),
                              (build_2000, Fraction(1, 3), Fraction(2, 3))):
        target = Interval(lo, hi, *flags)
        free = longest_free(partition, target)
        assert free == _reference_free(partition, target), (lo, hi)
        assert not (free.lo_closed or free.hi_closed)
    assert longest_free(_HAND_MADE, Interval(Fraction(0), Fraction(1, 10), *flags)) == Interval.open(0, Fraction(1, 10))


# ---------------------------------------------------------------------------
# The integrator's exact masses against the brute-force scan at 2000 stages
# ---------------------------------------------------------------------------


def test_window_mass_exact_matches_the_scan_at_2000_stages(build_2000):
    # Scan walks every piece of every stage it is given; the stages whose gap
    # closure misses the window hold no piece in it, so it is given only the
    # others, found by a linear scan.
    dug = build_2000.stage(1515)
    late = build_2000.stage(1999)
    windows = [
        (dug.gap.lo, dug.gap.hi),
        (dug.piece_host(3).lo + dug.piece_width / 3, dug.piece_host(700).hi - dug.piece_width / 5),
        (late.piece_host(0).hi, late.piece_host(late.n).lo),
        (Fraction(5, 8), Fraction(5, 8) + Fraction(1, 2**12)),
        # 1/128 wide, holding whole pieces of 21 stages, stage 1373 the last
        (Fraction(23, 64) - Fraction(1, 256), Fraction(23, 64) + Fraction(1, 256)),
    ]
    for lo, hi in windows:
        window = Interval.closed(lo, hi)
        near = SplittingPartition(ONE, tuple(_overlapping_by_brute_force(build_2000, window)))
        scan = Scan(near, window)
        mass = _WindowMass(build_2000, window, ONE)
        assert mass.den == stage_masses(build_2000)[0]
        exact = mass.exact(set(range(build_2000.stage_count + 2)))
        assert any(exact.values())
        for j, m in exact.items():
            assert Fraction(m, mass.den) == scan.exact.get(j, 0), (j, lo, hi)


def test_window_mass_exact_reads_the_same_after_any_earlier_call(builds_300):
    # exact keeps the entries it found up to its largest member for later
    # calls up to that member; each answer must be a fresh integrator's.
    p = builds_300[Fraction(1)]
    window = Interval.closed(Fraction(1, 4), Fraction(3, 4))
    everyone = set(range(p.stage_count + 3))
    expected = _WindowMass(p, window, ONE).exact(everyone)
    mass = _WindowMass(p, window, ONE)
    for members in ({3}, {150}, {2, 40}, {p.stage_count + 2}, {7, 299}, {0}, everyone):
        assert mass.exact(members) == {j: expected[j] for j in members}


# ---------------------------------------------------------------------------
# The integrator's gap-index scan against a piece_span call per listed stage
# ---------------------------------------------------------------------------


def _reference_window_mass(partition, window):
    """(total, exact, straddlers) of ``_WindowMass`` as its scan was: every
    ``stages_overlapping(chunk)`` record through ``piece_span``."""
    _, stage_mass = stage_masses(partition)
    total, steps, straddlers = 0, Counter(), Counter()
    for chunk in unit_chunks(window, partition.translation):
        for record in partition.stages_overlapping(chunk):
            span = piece_span(record, chunk)
            if span is None:
                continue
            first, last, a, b = span
            top = min(b, record.n - 1)
            if a <= top:
                m = stage_mass[record.n - 1]
                total += m * (top - a + 1)
                steps[a + 1] += m
                steps[top + 2] -= m
            for i in {first, last}:
                if not a <= i <= b and i < record.n:
                    straddlers[partition.piece_set(record.n, i), chunk, i + 1] += 1
    members = range(partition.stage_count + 2)
    return total, dict(zip(members, accumulate(steps[j] for j in members))), straddlers


def _assert_scan_matches(partition, window):
    mass = _WindowMass(partition, window, ONE)
    total, exact, straddlers = _reference_window_mass(partition, window)
    assert mass.total == total, window
    assert mass.exact(set(exact)) == exact, window
    assert Counter(mass.straddlers) == straddlers, window


def _scan_windows(partition):
    """A dug gap's closure, two windows with one end on its gap's ends, a
    point, the last stage's gap less its two end pieces, a window inside that
    gap, one crossing an integer, and 1/128 around 23/64; all moved by the
    partition's translation."""
    dug = next((r for r in partition.stages if r.depth_used), partition.stage(1))
    late = partition.stage(partition.stage_count)
    gap, third = late.gap, late.gap.length / 3
    shift = partition.translation
    windows = [
        Interval.closed(dug.gap.lo, dug.gap.hi),
        Interval.closed(Fraction(1, 4), dug.gap.hi),
        Interval(dug.gap.lo, Fraction(7, 8), False, True),
        Interval.closed(Fraction(5, 8), Fraction(5, 8)),
        Interval.closed(late.piece_host(0).hi, late.piece_host(late.n).lo),
        Interval.open(gap.lo + third, gap.hi - third),
        Interval.closed(Fraction(3, 4), Fraction(5, 4)),
        Interval.closed(Fraction(23, 64) - Fraction(1, 256), Fraction(23, 64) + Fraction(1, 256)),
    ]
    return [Interval(w.lo + shift, w.hi + shift, w.lo_closed, w.hi_closed) for w in windows]


def test_window_mass_scan_matches_a_piece_span_per_listed_stage(build_2000, builds_300):
    translated = loads(saves(SplittingPartition(Fraction(1, 3), builds_300[Fraction(1, 3)].stages, -3)))
    for partition in (build_2000, *builds_300.values(), translated):
        for window in _scan_windows(partition):
            _assert_scan_matches(partition, window)
    for window in _windows(_hand_made_ends()):
        _assert_scan_matches(_HAND_MADE, window)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(data=st.data())
def test_window_mass_scan_matches_a_piece_span_per_listed_stage_on_drawn_windows(build_2000, data):
    _, window = _drawn_record_and_window(data, build_2000)
    _assert_scan_matches(build_2000, window)


def test_window_mass_scans_through_the_gaps_nested_in_stage_1_and_3(build_2000):
    # Stage 1's gap closure holds 185 nested gaps and stage 3's 34.  A window
    # end strictly inside such a closure, between two nested ones, makes the
    # running-reach scan on that side visit the enclosing gap and every
    # nested gap starting on the window's side of that end; the enclosing
    # gap, and a nested gap with an end at the window's end, decide the
    # result.  Both scans must list the gaps whose closure meets the window
    # without lying in it, as a pass over all positions finds them.
    p, by_lo = build_2000, build_2000._by_lo
    los, his, reach, den = p._los, p._his, p._reach, p._den
    for n, nested in ((1, 185), (3, 34)):
        gap = p.stage(n).gap
        i = by_lo.index(p.stage(n))
        end = bisect_left(los, his[i], i + 1)
        assert end - i - 1 == nested
        inner = list(accumulate(his[i + 1:end], max))
        rooms = [Fraction(r + lo, 2 * den) for r, lo in zip(inner, los[i + 2:end]) if lo > r]
        x = rooms[len(rooms) // 2]
        j = i + 1 + nested // 2  # a nested gap near the middle
        outside = gap.length / 2
        for window, side, found, passed in (
            (Interval.closed(gap.lo - outside, x), 1, {i}, set()),
            (Interval.closed(x, gap.hi + outside), 0, {i}, set()),
            (Interval.closed(gap.lo - outside, Fraction(his[j], den)), 1, {i}, {j}),  # _his == hi: j lies inside
            (Interval.closed(gap.lo - outside, Fraction(los[j], den)), 1, {i, j}, set()),  # _los == hi
            (Interval.closed(Fraction(his[j], den), gap.hi + outside), 0, {i, j}, set()),  # _his == lo
        ):
            lo, hi = partition_module._inward(window, den)
            start, stop = bisect_left(los, lo), bisect_right(los, hi)
            boundary = ({k for k in range(start) if his[k] >= lo}, {k for k in range(start, stop) if his[k] > hi})
            assert (set(p._meeting(lo, hi)[1]), set(_WindowMass(p, window, ONE)._chunks[0][2])) == boundary
            visited = (range(bisect_left(reach, lo), start), range(max(start, bisect_left(reach, hi + 1)), stop))[side]
            assert len(visited) > 1 and found <= boundary[side] and passed <= set(visited) - boundary[side], (n, window)
            _assert_scan_matches(p, window)


# ---------------------------------------------------------------------------
# Whole-piece witnesses against a piece_for_member per missing member
# ---------------------------------------------------------------------------


def _reference_whole_pieces(overlapping, members, window):
    """``_whole_pieces`` as it was: each listed stage asks ``piece_for_member``
    for every missing member and builds the bound per member."""
    missing = set(members)
    found = {}
    for record in overlapping:
        if not missing:
            break
        span = piece_span(record, window)
        if span is None:
            continue
        for member in list(missing):
            piece = record.piece_for_member(member)
            if piece is not None and span[2] <= piece <= span[3]:
                found[member] = (record.n, piece, RETAINED * record.piece_width)
                missing.remove(member)
    return found


def _assert_whole_pieces_match(partition, window, members):
    overlapping = partition.stages_overlapping(window)
    assert _whole_pieces(overlapping, members, window) == _reference_whole_pieces(overlapping, members, window), (
        window, sorted(members))


def test_whole_pieces_match_a_piece_for_member_per_member(build_2000, builds_300):
    for partition in (build_2000, *builds_300.values()):
        count = partition.stage_count
        member_sets = [range(10), range(2 * 4 + 2), {0}, {0, 7, count, count + 1, 10**6}, range(count + 3)]
        windows = _scan_windows(partition) + [
            Interval.open(c - r, c + r)
            for c in (Fraction(1, 2), Fraction(3, 8), Fraction(5, 8), Fraction(7, 16))
            for r in (Fraction(1, 8), Fraction(1, 64), Fraction(1, 4096))
        ]
        for window in windows:
            for members in member_sets:
                _assert_whole_pieces_match(partition, window, members)
        # A window from inside a stage's last piece past its gap has b = n
        # but a = n + 1: no piece, and so no A_0 witness, lies inside it.
        for record in (partition.stage(1), partition.stage(count)):
            last = record.piece_host(record.n)
            window = Interval.open(last.midpoint, last.hi + 1)
            assert piece_span(record, window)[2:] == (record.n + 1, record.n)
            members = (0, record.n, record.n + 1)
            assert _whole_pieces([record], members, window) == _reference_whole_pieces([record], members, window) == {}


@settings(derandomize=True, max_examples=100, deadline=None)
@given(data=st.data())
def test_whole_pieces_match_a_piece_for_member_per_member_on_drawn_windows(build_2000, data):
    record, window = _drawn_record_and_window(data, build_2000)
    count = build_2000.stage_count
    drawn = data.draw(st.sets(st.one_of(st.integers(0, 40), st.integers(0, count + 40)), max_size=12), label="members")
    _assert_whole_pieces_match(build_2000, window, drawn | {0, record.n, record.n + 1, count + 1})



# ---------------------------------------------------------------------------
# The integrator's integer unit tiling against the Fraction chunk loop
# ---------------------------------------------------------------------------


def _fraction_unit_chunks(window: Interval, translation: int):
    """Split a window at integer boundaries and fold each chunk into [0,1]."""
    lo = window.lo - translation
    hi = window.hi - translation
    m = lo.numerator // lo.denominator
    while m < hi:
        a = max(lo, Fraction(m))
        b = min(hi, Fraction(m + 1))
        if a < b:
            yield Interval.closed(a - m, b - m)
        m += 1


def _assert_tiling_matches(partition, window):
    """``_WindowMass`` over the window against the Fraction chunk loop, each
    chunk scanned by ``_reference_window_mass``: the chunks' summed length,
    total and exact masses, and their straddlers."""
    chunks = list(_fraction_unit_chunks(window, partition.translation))
    assert list(unit_chunks(window, partition.translation)) == chunks, window
    members = range(partition.stage_count + 2)
    total, exact, straddlers = 0, dict.fromkeys(members, 0), Counter()
    for chunk in chunks:
        chunk_total, chunk_exact, chunk_straddlers = _reference_window_mass(partition, chunk)
        total += chunk_total
        exact = {j: exact[j] + chunk_exact[j] for j in members}
        straddlers += chunk_straddlers
    mass = _WindowMass(partition, window, ONE)
    assert mass.length == sum((chunk.length for chunk in chunks), Fraction(0)), window
    assert mass.total == total, window
    assert mass.exact(set(members)) == exact, window
    assert Counter(mass.straddlers) == straddlers, window


def _tiling_windows(partition):
    """Windows crossing integers, with integer ends, negative, points, longer
    than one period and half-open, some with a dug gap's ends as their ends."""
    dug = next((r for r in partition.stages if r.depth_used), partition.stage(1))
    lo, hi = dug.gap.lo, dug.gap.hi
    pairs = [
        (Fraction(1, 3), Fraction(5, 3)), (lo, hi + 1), (lo - 1, hi), (Fraction(-1, 7), Fraction(1, 9)),
        (0, 1), (1, 3), (-2, 0), (0, lo), (hi, 2), (-1, hi - 1),
        (Fraction(-7, 5), Fraction(-1, 3)), (lo - 3, hi - 3), (Fraction(-5, 2), Fraction(1, 7)),
        (Fraction(5, 8), Fraction(5, 8)), (2, 2), (-1, -1), (lo - 2, lo - 2),
        (Fraction(2, 3), Fraction(7, 4)), (Fraction(-1, 3), Fraction(10, 3)), (lo - 2, hi + 2),
    ]
    windows = [Interval.closed(a, b) for a, b in pairs]
    windows += [Interval(lo - 1, Fraction(7, 3), False, True), Interval.open(Fraction(-3, 2), hi)]
    return windows + [Interval(w.lo + 3, w.hi + 3, w.lo_closed, w.hi_closed) for w in _scan_windows(partition)]


def test_integer_tiling_matches_the_fraction_chunk_loop(build_2000, builds_300):
    built = builds_300[Fraction(1, 3)]
    translated = loads(saves(SplittingPartition(built.gap_cap, built.stages, -7)))
    assert translated.translation == -7
    # Records built by hand may nest, or their closures may overlap, touch
    # or share an end; the running-reach scans find the boundary gaps either way.
    hand_made = (_HAND_MADE, _hand_made(("1/4", "1/2"), ("1/3", "3/4")), _hand_made(("1/2", "3/4"), ("1/4", "1/2")),
                 _hand_made(("1/4", "1/2"), ("1/4", "1/3")), _hand_made(("1/4", "1/3"), ("1/4", "1/2")),
                 _hand_made(("4/5", "9/10"), ("1/10", "9/10"), ("1/5", "1/4")),
                 _hand_made(("1/10", "9/10"), ("1/5", "1/4"), ("19/20", "1")))
    for partition in (build_2000, *builds_300.values(), translated, *hand_made):
        for window in _tiling_windows(partition):
            _assert_tiling_matches(partition, window)
