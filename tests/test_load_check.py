"""The integer load check against the Fraction check it replaced.

``_reference_check_stage`` is the Fraction-arithmetic stage check as it was
first written, kept here as the reference the way ``test_enumeration.py``
keeps the first enumeration streams.  Seeded single-token mutations of v2
files must get the same verdict, and the same message, from ``loads`` and
from a load built on the reference.
"""

import random
import re
from fractions import Fraction
from math import ceil, floor

import pytest

from clarkesat import planted_sets_pairwise_disjoint
from clarkesat.cantor import _GAP_DEPTHS
from clarkesat.partition import (
    SplittingPartition,
    StageRecord,
    _check_cover,
    _check_gap,
    _digest,
    _enumeration,
    _enumeration_ends,
    _fields,
    _parsed,
    _pieces_touching,
    build_partition,
    enumerated_interval,
    loads,
    saves,
)
from clarkesat.rationals import ONE, Interval, parse_rational


def _check_stage(prefix, record, target):
    """The integer check of a record as the stage after the prefix."""
    _check_gap(record, prefix.stage_count + 1, target, prefix.gap_cap)
    _check_cover(record, prefix.stages_overlapping(record.gap))


def _reference_check_stage(partition, record, target):
    """The stage check in Fraction and Interval arithmetic."""
    n, gap, depth = record.n, record.gap, record.depth_used
    if n != partition.stage_count + 1:
        raise ValueError(f"stage {n} line: expected stage {partition.stage_count + 1}")
    if not (target.lo < gap.lo and gap.hi < target.hi):
        raise ValueError(f"stage {n}: gap {gap} does not lie strictly inside I_{n} = {target}")
    length = gap.length
    grid, rem = divmod(length.denominator, 3)
    j = grid.bit_length() - 1
    if length.numerator != 1 or rem or grid != 1 << j or j < n or Fraction(1, grid) > partition.gap_cap:
        raise ValueError(
            f"stage {n}: gap length {length} is not 1/(3*2^j) with 2^-j <= min(2^-{n}, gap_cap)"
        )
    if (16 * grid) % gap.midpoint.denominator:
        raise ValueError(f"stage {n}: gap midpoint {gap.midpoint} is off the 2^-{j + 4} grid")
    closure = gap.closure()
    earlier = partition.stages_overlapping(closure)
    if depth not in (0, *_GAP_DEPTHS):
        raise ValueError(f"stage {n}: depth {depth} is not a depth the gap search tries")
    if depth and not earlier:
        raise ValueError(f"stage {n}: depth {depth} > 0, but its gap meets no earlier gap")
    pieces = []
    for other in earlier:
        width = other.piece_width
        first = max(0, ceil((closure.lo - other.gap.lo) / width) - 1)
        last = min(other.n, floor((closure.hi - other.gap.lo) / width))
        pieces += [(other.n, i, partition.piece_set(other.n, i)) for i in range(first, last + 1)]
    for other_n, i, piece in pieces:
        if piece.cover_meets(closure, depth):
            raise ValueError(f"stage {n}: gap {gap} meets the depth-{depth} cover of stage {other_n} piece {i}")
    for shallower in _GAP_DEPTHS[:_GAP_DEPTHS.index(depth)] if depth else ():
        if not any(piece.cover_meets(closure, shallower) for _, _, piece in pieces):
            raise ValueError(f"stage {n}: depth {depth}, but its gap misses every depth-{shallower} cover")


def _reference_loads(text):
    """A v2 load: the library's header and sha256 handling, the stage lines
    parsed into Fractions and checked by the reference."""
    lines = [line for line in text.splitlines() if line.strip()]
    header = _fields(lines[1].split(), ("gap_cap", "translation", "stages"), "header")
    gap_cap = _parsed(header, "gap_cap", parse_rational, "a rational", "header")
    stage_lines = lines[2:]
    if stage_lines.pop() != f"sha256={_digest(stage_lines)}":
        raise ValueError("SPLITPART v2 sha256= line does not match its stage lines")
    partition = SplittingPartition(gap_cap, (), int(header["translation"]))
    for position, (line, target) in enumerate(zip(stage_lines, _enumeration(1)), 1):
        where = f"stage line {position}"
        fields = _fields(line.split()[:3], ("n", "gap", "depth"), where)
        n = _parsed(fields, "n", int, "an integer", where)
        gap = _parsed(fields, "gap", lambda t: Interval.open(*map(parse_rational, t.split(","))),
                      "an open interval lo,hi with lo < hi", where)
        record = StageRecord(n, gap, _parsed(fields, "depth", int, "an integer", where))
        _reference_check_stage(partition, record, target)
        partition._add(record)
    return partition


def _verdict(load, text):
    try:
        return "accepted", load(text).stages
    except ValueError as exc:
        return "rejected", str(exc)


def _rehashed(lines):
    """v2 text from its header, stage lines and a recomputed sha256 line."""
    return "\n".join([*lines, f"sha256={_digest(lines[2:])}"]) + "\n"


_CAPS = (ONE, Fraction(1, 3), Fraction(5, 7))
# At gap_cap 1/8 the first stages' 2^-j equals the cap: the cap bound's edge.
_MUTATED_CAPS = (*_CAPS, Fraction(1, 8))
_KINDS = ("numerator", "denominator", "n", "depth", "swap", "move")


def _mutant(rng, lines, kind):
    """One stage token of the v2 lines changed (two lines for a swap)."""
    lines = list(lines)
    i = rng.randrange(2, len(lines))
    n, gap, depth = (token.partition("=")[2] for token in lines[i].split())
    ends = gap.split(",")
    if kind == "swap":
        k = rng.choice([i + 1, i - 1, rng.randrange(2, len(lines))])
        k = min(max(k, 2), len(lines) - 1)
        lines[i], lines[k] = lines[k], lines[i]
        return lines
    if kind == "numerator" or kind == "denominator":
        side = rng.randrange(2)
        num, den = map(int, ends[side].split("/"))
        ends[side] = f"{num + rng.choice((-1, 1))}/{den}" if kind == "numerator" else f"{num}/{2 * den}"
    elif kind == "move":  # both ends by a 2^-(j+4) grid step, which keeps the shape, or half of one
        lo, hi = map(parse_rational, ends)
        shift = rng.choice((-1, 1)) * (hi - lo) * 3 / rng.choice((16, 32))
        ends = [str(lo + shift), str(hi + shift)]
    elif kind == "n":
        n = str(int(n) + rng.choice((-2, -1, 1, 2)))
    else:
        depth = str(rng.choice([d for d in (0, 1, 2, 3, 4, 8, 16, 32, 64) if str(d) != depth]))
    lines[i] = f"n={n} gap={','.join(ends)} depth={depth}"
    return lines


@pytest.fixture(scope="module")
def v2_lines():
    return {cap: saves(build_partition(100, cap), version=2).splitlines()[:-1] for cap in _MUTATED_CAPS}


def test_loads_and_the_fraction_reference_agree_on_seeded_mutations(v2_lines):
    rng = random.Random(20181018)
    texts = [_rehashed(lines) for lines in v2_lines.values()]
    for lines in v2_lines.values():
        # Every dug stage at each depth: the cover tests decide these.
        for i, line in enumerate(lines[2:], 2):
            if not line.endswith(" depth=0"):
                for depth in (0, 1, 2, 4, 8):
                    texts.append(_rehashed(lines[:i] + [re.sub(r"\d+$", str(depth), line)] + lines[i + 1:]))
        for _ in range(280):
            texts.append(_rehashed(_mutant(rng, lines, rng.choice(_KINDS))))
    assert len(texts) >= 1000
    verdicts = {}
    for text in texts:
        verdict = _verdict(loads, text)
        assert verdict == _verdict(_reference_loads, text), text
        verdicts[verdict[0]] = verdicts.get(verdict[0], 0) + 1
    # Both verdicts occur often enough for the agreement to mean something.
    assert verdicts["accepted"] >= 20 and verdicts["rejected"] >= 900, verdicts


# ---------------------------------------------------------------------------
# Closed-touch edge cases
# ---------------------------------------------------------------------------

F = Fraction


def _two_stages(first, second):
    """A one-stage partition and a depth-0 second record; both gaps pass the shape checks."""
    prefix = SplittingPartition(ONE, (StageRecord(1, Interval.open(*first), 0),))
    return prefix, StageRecord(2, Interval.open(*second), 0)


# Stage 1 lies in I_1 = (0, 1) with length 1/6, stage 2 in I_2 = (1/2, 2/3)
# with length 1/12; the gap (25/48, 29/48) touches (17/48, 25/48) on its
# left and (29/48, 37/48) on its right.
@pytest.mark.parametrize("first, piece", [((F(17, 48), F(25, 48)), 1), ((F(29, 48), F(37, 48)), 0)])
def test_a_depth_0_gap_touching_an_earlier_closure_in_one_point_meets_it(first, piece):
    prefix, record = _two_stages(first, (F(25, 48), F(29, 48)))
    target = next(_enumeration_ends(2))
    message = f"stage 2: gap (25/48,29/48) meets the depth-0 cover of stage 1 piece {piece}"
    with pytest.raises(ValueError, match=re.escape(message)):
        _check_stage(prefix, record, target)
    with pytest.raises(ValueError, match=re.escape(message)):
        _reference_check_stage(prefix, record, next(_enumeration(2)))
    partition = SplittingPartition(ONE, (*prefix.stages, record))
    assert not planted_sets_pairwise_disjoint(partition)


def test_a_depth_0_gap_clear_of_the_earlier_closure_passes():
    # Moved one 2^-6 grid step right of the touching gap: clear by 1/64.
    prefix, record = _two_stages((F(17, 48), F(25, 48)), (F(25, 48) + F(1, 64), F(29, 48) + F(1, 64)))
    _check_stage(prefix, record, next(_enumeration_ends(2)))
    assert planted_sets_pairwise_disjoint(SplittingPartition(ONE, (*prefix.stages, record)))
    # Claiming a dug depth for it is rejected: its gap meets no earlier gap.
    with pytest.raises(ValueError, match="^stage 2: depth 1 > 0, but its gap meets no earlier gap$"):
        _check_stage(prefix, StageRecord(2, record.gap, 1), next(_enumeration_ends(2)))


@pytest.mark.parametrize("n, gap", [(2, (F(7, 12), F(2, 3))), (4, (F(1, 3), F(17, 48)))])
def test_a_gap_sharing_an_end_with_its_target_is_rejected(n, gap):
    # I_2 = (1/2, 2/3) and I_4 = (1/3, 1/2); each gap has the length and
    # grid of a stage-n gap, so only strict containment rejects it.
    prefix = SplittingPartition(ONE, build_partition(n - 1).stages)
    record = StageRecord(n, Interval.open(*gap), 0)
    message = f"stage {n}: gap {record.gap} does not lie strictly inside I_{n} = {next(_enumeration(n))}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        _check_stage(prefix, record, next(_enumeration_ends(n)))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        _reference_check_stage(prefix, record, next(_enumeration(n)))


def _reference_pieces(record, lo, hi):
    """The pieces whose closed hosts meet [lo, hi], from Fraction hosts."""
    return [i for i in range(record.piece_count)
            if record.piece_host(i).closure().intersects(Interval.closed(lo, hi))]


def test_a_piece_whose_end_equals_a_gap_end_is_in_the_range():
    record = StageRecord(3, Interval.open(F(1, 4), F(3, 4)), 0)  # piece ends 1/4, 3/8, 1/2, 5/8, 3/4
    assert list(_pieces_touching(record, 3, 8, 1, 2)) == [0, 1, 2]  # [3/8, 1/2]: ends on piece ends
    assert list(_pieces_touching(record, 7, 16, 1, 2)) == [1, 2]  # [7/16, 1/2]: right end on one
    assert list(_pieces_touching(record, 3, 8, 7, 16)) == [0, 1]  # [3/8, 7/16]: left end on one
    assert list(_pieces_touching(record, 3, 4, 7, 8)) == [3]  # touching the stage's last end
    assert list(_pieces_touching(record, 1, 8, 1, 4)) == [0]  # and its first
    ends = [F(k, 16) for k in range(3, 14)] + [F(k, 48) for k in range(11, 37)]
    for lo in ends:
        for hi in ends:
            if lo <= hi:
                assert list(_pieces_touching(record, lo.numerator, lo.denominator, hi.numerator,
                                             hi.denominator)) == _reference_pieces(record, lo, hi), (lo, hi)


# ---------------------------------------------------------------------------
# planted_sets_pairwise_disjoint
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("stages", [100, 300, 1000])
@pytest.mark.parametrize("cap", _CAPS, ids=str)
def test_planted_sets_are_pairwise_disjoint(stages, cap):
    assert planted_sets_pairwise_disjoint(build_partition(stages, cap))


def test_two_meeting_depth_0_gaps_are_not_disjoint():
    # (5/12, 7/12) in I_1 and (37/64 - 1/24, 37/64 + 1/24) in I_2 overlap.
    stages = (StageRecord(1, Interval.open(F(5, 12), F(7, 12)), 0),
              StageRecord(2, Interval.open(F(37, 64) - F(1, 24), F(37, 64) + F(1, 24)), 0))
    assert not planted_sets_pairwise_disjoint(SplittingPartition(ONE, stages))
    assert planted_sets_pairwise_disjoint(SplittingPartition(ONE, stages[:1]))


# ---------------------------------------------------------------------------
# The canonical-line reader against the generic parser at 400 stages
# ---------------------------------------------------------------------------


def _past_300_mutant(rng, lines):
    """``_mutant`` kept to the stage lines past 300, the swaps among them too."""
    return lines[:302] + _mutant(rng, ["", "", *lines[302:]], rng.choice(_KINDS))[2:]


def _non_canonical(line):
    """Spellings of one stage line that only the generic parser reads: the
    valid ones first, then ones whose error it words."""
    n, gap, depth = (token.partition("=")[2] for token in line.split())
    (a, b), (c, d) = (end.split("/") for end in gap.split(","))
    return [
        f"n={n} gap={2 * int(a)}/{2 * int(b)},{3 * int(c)}/{3 * int(d)} depth={depth}",  # unreduced, as 10/24
        f"gap={gap} n={n} depth={depth}",
        f"depth={depth} gap={gap} n={n}",
        f"n=0{n} gap=00{a}/0{b},{c}/000{d} depth=0{depth}",
        f" n={n}  gap={gap}\tdepth={depth} ",
        f"n={n} gap={a}/0,{c}/{d} depth={depth}",
        f"n={n} gap={a}/{b},{c}/0 depth={depth}",
        f"n={n} gap={c}/{d},{a}/{b} depth={depth}",
        f"n={n} gap={a}/{b},{a}/{b} depth={depth}",
        f"n={n} gap={a}/{b},{c}/{d}{'0' * 5000} depth={depth}",  # more digits than int() converts
        f"n={n} gap={a}/{b},{c}/{d} depth=+{depth}",
    ]


def _relabel_verdict(prefix, line):
    """``_reference_loads``' verdict on a valid v2 text with the line of stage
    n = prefix.stage_count + 1 replaced by ``line``, which only relabels its
    depth.  The lines before it are the valid file's, so ``_reference_loads``
    reaches stage n with their ``prefix``, and its verdict is
    ``_reference_check_stage``'s there; should that pass, None: load the text."""
    n = prefix.stage_count + 1
    record = StageRecord(n, Interval.open(*map(parse_rational, re.search(r"gap=(\S+)", line)[1].split(","))),
                         int(line.rpartition("=")[2]))
    try:
        _reference_check_stage(prefix, record, enumerated_interval(n))
    except ValueError as exc:
        return "rejected", str(exc)
    return None


def test_the_canonical_line_reader_and_the_generic_parser_agree_past_stage_300():
    lines = saves(build_partition(400), version=2).splitlines()[:-1]
    reference = _reference_loads(_rehashed(lines))
    past = range(302, len(lines))  # the lines of stages 301..400
    dug = [i for i in past if not lines[i].endswith(" depth=0")]
    cases = []  # (text, the reference verdict or None to load the text by the reference)
    for i in dug:
        prefix = SplittingPartition(reference.gap_cap, reference.stages[:i - 2])  # stages 1..n-1 of n = i - 1
        for depth in (0, *_GAP_DEPTHS):
            if not lines[i].endswith(f" depth={depth}"):
                line = re.sub(r"\d+$", str(depth), lines[i])
                cases.append((_rehashed(lines[:i] + [line] + lines[i + 1:]), _relabel_verdict(prefix, line)))
    rng = random.Random(400)
    cases += [(_rehashed(_past_300_mutant(rng, lines)), None) for _ in range(12)]
    for i in (dug[-1], next(i for i in reversed(past) if i not in dug)):
        cases += [(_rehashed(lines[:i] + [line] + lines[i + 1:]), None) for line in _non_canonical(lines[i])]
    verdicts = {}
    for text, expected in cases:
        verdict = _verdict(loads, text)
        assert verdict == (expected or _verdict(_reference_loads, text)), text
        verdicts[verdict[0]] = verdicts.get(verdict[0], 0) + 1
    assert len(dug) >= 20 and verdicts["accepted"] >= 12 and verdicts["rejected"] >= 160, verdicts


# Line ends: ``loads`` splits lines on any line end, skips blank lines and
# hashes the lines it keeps, so these respellings load as the canonical text.
@pytest.mark.parametrize("version, respell", [
    (2, lambda text: text.replace("\n", "\r\n")),
    (2, lambda text: text.replace("\n", "\n\n")),
    (1, lambda text: text.replace("\n", "\r\n")),
], ids=["v2-crlf", "v2-doubled", "v1-crlf"])
def test_a_text_with_other_line_ends_loads_as_the_canonical_one(version, respell):
    p = build_partition(30)
    text = saves(p, version=version)
    assert loads(respell(text)).stages == loads(text).stages == p.stages


def test_a_crlf_text_with_an_altered_stage_line_fails_its_sha256_line():
    lines = saves(build_partition(30), version=2).splitlines()
    assert lines[12].startswith("n=11 ") and lines[12].endswith(" depth=0")
    lines[12] = lines[12].replace(" depth=0", " depth=1")
    with pytest.raises(ValueError, match="^SPLITPART v2 sha256= line does not match its stage lines$"):
        loads("\r\n".join(lines) + "\r\n")
