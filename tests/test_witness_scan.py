"""Witness searches against a brute-force reference at N = 500, and
splitting certificates on drawn windows at N = 2000.

The reference takes, for each member, the first built stage by ascending n
whose ``piece_host`` for that member lies inside the window, scanning every
stage without the gap index or ``reference.piece_span``.  Certificates, their
NotYetCovered errors and the fingerprint must match it exactly, while each
coordinate window is listed once and each witness point costs one
membership.
"""

import copy
import pickle
import random
from dataclasses import replace
from fractions import Fraction
from functools import partial
from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from clarkesat.errors import NotYetCovered
from clarkesat.functions import FiniteSupport, SaturatedFunction, ShiftedSaturatedFunction, eval_g, shift_to_ball
from clarkesat.partition import (
    RETAINED,
    SplittingCertificate,
    SplittingPartition,
    build_partition,
    enumerated_interval,
    first_index_inside,
    splitting_certificate_auto,
)
from clarkesat.rationals import Interval
import clarkesat.verifier as verifier
from clarkesat.verifier import (
    CoordinateWitness,
    SaturationCertificate,
    VertexWitness,
    _certified_point,
    certify_saturation,
    independence_fingerprint,
)


@pytest.fixture(scope="module")
def p500():
    return build_partition(500)


def _reference_piece(partition, member, window):
    """(stage, piece, rho * length) of the first stage whose host for member is inside."""
    for record in sorted(partition.stages, key=lambda r: r.n):
        piece = record.piece_for_member(member)
        if piece is not None:
            host = record.piece_host(piece)
            if window.contains_interval(host):
                return record.n, piece, RETAINED * host.length
    return None


def _reference_error(member, window):
    needed = first_index_inside(window, max(member, 1))
    return f"no stage covers member {member} inside {window} yet; build at least {needed} stages", needed


def _reference_certificate(sf, x, r, K):
    """The saturation certificate, or the (message, needed_stage) of the
    first uncovered (member, coordinate) in vertex order."""
    windows = [Interval.open(c - r / sf.d, c + r / sf.d) for c in x]
    cache = {}
    vertices = []
    for k in range(K + 1):
        for pattern in product((-1, 1), repeat=sf.d):
            coords = []
            for i, v in enumerate(pattern):
                member = 2 * k + 1 if v > 0 else 2 * k
                if (member, i) not in cache:
                    cache[member, i] = _reference_piece(sf.partition, member, windows[i])
                found = cache[member, i]
                if found is None:
                    return _reference_error(member, windows[i])
                stage, piece, bound = found
                coords.append(CoordinateWitness(member, stage, piece, windows[i], bound))
            vertices.append(VertexWitness(k, sf.mu.coefficient(k), pattern, tuple(coords)))
    m = max(abs(sf.mu.coefficient(k)) for k in range(K + 1))
    return SaturationCertificate(tuple(x), r, K, m, tuple(vertices))


def _saturation_cases():
    rng = random.Random(14)
    for d in (1, 2, 3):
        for K in range(7):
            mu = {k: Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for k in range(K + 1)}
            for r in (Fraction(1, 4), Fraction(1, 64), Fraction(1, 4096)):
                half = r / d
                x = tuple(Fraction(rng.randint(1, 999), 1000) * (1 - 2 * half) + half for _ in range(d))
                yield d, K, mu, r, x


def test_saturation_certificates_match_the_reference(p500):
    covered = uncovered = 0
    for d, K, mu, r, x in _saturation_cases():
        sf = SaturatedFunction(p500, FiniteSupport.of(mu), d=d)
        expected = _reference_certificate(sf, x, r, K)
        if isinstance(expected, SaturationCertificate):
            cert = certify_saturation(sf, x, r, K)
            assert cert.render() == expected.render()
            assert cert == expected
            assert cert.check()
            covered += 1
        else:
            with pytest.raises(NotYetCovered) as excinfo:
                certify_saturation(sf, x, r, K)
            assert (str(excinfo.value), excinfo.value.needed_stage) == expected
            uncovered += 1
    assert covered >= 20 and uncovered >= 5  # both paths are exercised


def _table_cases():
    """(label, mu, x, r, K) for d = 1..6: drawn mu over several K and
    radii, a mu that is zero on k <= K (m = 0), and a shift_to_ball function."""
    rng = random.Random(46)
    for d in range(1, 7):
        for K in (0, 2, 4):
            for r in (Fraction(1, 4), Fraction(1, 64)):
                half = r / d
                x = tuple(Fraction(rng.randint(1, 999), 1000) * (1 - 2 * half) + half for _ in range(d))
                mu = FiniteSupport.of({k: Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for k in range(K + 1)})
                yield "drawn", mu, x, r, K
        yield "m = 0", FiniteSupport.of({3: 2}), x, r, 2
        yield "shifted", FiniteSupport.of({0: 1, 1: -2, 2: Fraction(3, 2)}), x, r, 2


def _table_certificates(partition):
    """(label, d, fresh, expected) for each covered case: fresh() certifies
    anew, and expected is the reference certificate."""
    for label, mu, x, r, K in _table_cases():
        sf = base = SaturatedFunction(partition, mu, d=len(x))
        if label == "shifted":
            sf = shift_to_ball(base, tuple(Fraction(i - 2, 4) for i in range(len(x))), Fraction(3))
            assert isinstance(sf, ShiftedSaturatedFunction)
            base = sf.base
        expected = _reference_certificate(base, x, r, K)
        if isinstance(expected, SaturationCertificate):
            if base is not sf:
                expected = replace(expected, shift=sf.shift)
            yield label, len(x), partial(certify_saturation, sf, x, r, K), expected


def test_table_certificates_match_the_reference_on_every_read(p500):
    # Each read below is the first one on a fresh certificate.
    seen = set()
    for label, d, fresh, expected in _table_certificates(p500):
        assert fresh() == expected and hash(fresh()) == hash(expected)
        assert len(fresh().vertices) == len(expected.vertices)
        assert fresh().vertices[0] == expected.vertices[0]
        assert fresh().vertices[-1] == expected.vertices[-1]
        tail = fresh().vertices[1:]
        assert type(tail) is tuple and tail == expected.vertices[1:]
        assert list(fresh().vertices) == list(expected.vertices)
        assert fresh().render() == expected.render()
        assert fresh().certified_values() == expected.certified_values()
        assert fresh().hull_intervals() == expected.hull_intervals()
        for clone in (pickle.loads(pickle.dumps(fresh())), copy.deepcopy(fresh()), replace(fresh())):
            assert clone == expected and clone.render() == expected.render() and clone.check()
        seen.add((label, d))
    assert {(label, d) for label in ("drawn", "m = 0", "shifted") for d in range(1, 7)} <= seen


def test_table_check_matches_the_corner_rule(p500):
    rng = random.Random(3)
    verdicts = set()
    for _, _, fresh, _ in _table_certificates(p500):
        cert = fresh()
        assert cert.check() == replace(cert, vertices=tuple(cert.vertices)).check()
        windows, found, rows = cert._table
        for m in (Fraction(0), -cert.m, 2 * cert.m, cert.m + 1):
            edited = SaturationCertificate._from_table(cert.point, cert.radius, cert.truncation, m,
                                                       cert._table, cert.shift)
            verdicts.add(edited.check())
            assert edited.check() == replace(edited, vertices=tuple(edited.vertices)).check()
        # One zero coordinate bound fails, as it does under the corner rule.
        zeroed = [dict(by_member) for by_member in found]
        i = rng.randrange(len(zeroed))
        member = rng.choice(sorted(zeroed[i]))
        stage, piece, _ = zeroed[i][member]
        zeroed[i][member] = (stage, piece, Fraction(0))
        bad = SaturationCertificate._from_table(cert.point, cert.radius, cert.truncation, cert.m,
                                                (windows, zeroed, rows), cert.shift)
        assert not bad.check()
        assert not replace(bad, vertices=tuple(bad.vertices)).check()
    assert verdicts == {True, False}


def test_certify_and_check_build_no_witness_objects(p500, monkeypatch):
    built = {"vertex": 0, "coordinate": 0}

    def counting(cls, kind):
        def make(*args):
            built[kind] += 1
            return cls(*args)
        return make

    monkeypatch.setattr(verifier, "VertexWitness", counting(VertexWitness, "vertex"))
    monkeypatch.setattr(verifier, "CoordinateWitness", counting(CoordinateWitness, "coordinate"))
    d, K = 12, 4
    sf = SaturatedFunction(p500, FiniteSupport.of({k: (-1) ** k * (k + 1) for k in range(K + 1)}), d=d)
    x = tuple(Fraction(1, 3) + Fraction(i, 97) for i in range(d))
    cert = certify_saturation(sf, x, Fraction(d, 64), K)
    assert cert.check()
    assert built == {"vertex": 0, "coordinate": 0}
    assert len(cert.vertices) == 5 * 2**12
    expected = {"vertex": 5 * 2**12, "coordinate": 120}  # (K + 1) * 2^d and 2d(K + 1)
    assert built == expected
    assert len({id(coord) for w in cert.vertices for coord in w.coordinates}) == 120  # one per (coordinate, member)
    cert.vertices
    assert built == expected


def _reference_complement(partition, k, window):
    for record in sorted(partition.stages, key=lambda r: r.n):
        gap = record.gap
        if gap.hi <= window.lo or gap.lo >= window.hi:
            continue  # no piece of this stage can lie inside the window
        for piece in range(record.piece_count):
            member = record.member_index(piece)
            host = record.piece_host(piece)
            if member != k and window.contains_interval(host):
                return member, record.n, piece, RETAINED * host.length
    return None


def test_splitting_certificates_on_enumerated_windows_match_the_reference(p500):
    rng = random.Random(5)
    covered = uncovered = 0
    for n in sorted(rng.sample(range(1, 501), 40)):
        window = enumerated_interval(n)
        for k in (0, 1, 2, rng.randint(3, 12), rng.randint(400, 700)):
            positive = _reference_piece(p500, k, window)
            complement = _reference_complement(p500, k, window)
            if positive is None or complement is None:
                with pytest.raises(NotYetCovered) as excinfo:
                    p500.splitting_certificate(k, window)
                assert (str(excinfo.value), excinfo.value.needed_stage) == _reference_error(k, window)
                uncovered += 1
            else:
                expected = SplittingCertificate(k, window, *positive, *complement)
                cert = p500.splitting_certificate(k, window)
                assert cert.render() == expected.render()
                assert cert == expected
                covered += 1
    assert covered >= 40 and uncovered >= 5


@pytest.fixture(scope="module")
def builds():
    """2000 stages, past the first depth-8 dig, and 300 with gap_cap 1/3."""
    return {"build_2000": build_partition(2000), "gap_cap_1/3": build_partition(300, Fraction(1, 3))}


def _reference_splitting(partition, k, window):
    """The splitting certificate, or its error as (type, message, needed_stage):
    NotYetCovered names k, or with k found "a member other than k", unless
    first_index_inside's size bound raises ValueError first."""
    positive = _reference_piece(partition, k, window)
    complement = _reference_complement(partition, k, window)
    if positive is not None and complement is not None:
        return SplittingCertificate(k, window, *positive, *complement)
    try:
        message, needed = _reference_error(k, window)
    except ValueError as exc:
        return ValueError, str(exc), None
    if positive is not None:
        message = message.replace(f"member {k}", f"a member other than {k}", 1)
    return NotYetCovered, message, needed


def _splitting_outcome(partition, k, window):
    try:
        return partition.splitting_certificate(k, window)
    except NotYetCovered as exc:
        return NotYetCovered, str(exc), exc.needed_stage
    except ValueError as exc:
        return ValueError, str(exc), None


def _assert_splitting_matches(partition, k, window):
    expected = _reference_splitting(partition, k, window)
    assert _splitting_outcome(partition, k, window) == expected, (k, window)
    return expected


def _inside_piece(record, i, t):
    """The point a fraction t, 0 < t < 1, across piece i of the stage."""
    nums, den = record.endpoints()
    return (nums[i] + t * (nums[i + 1] - nums[i])) / den


def _drawn_point(data, record):
    """(piece, point): a point strictly inside a drawn piece of the stage."""
    piece = data.draw(st.integers(0, record.n), label="piece")
    v = data.draw(st.integers(2, 16), label="v")
    return piece, _inside_piece(record, piece, Fraction(data.draw(st.integers(1, v - 1), label="u"), v))


# An example costs up to about 70 ms at 2000 stages: the references build a
# Fraction host per stage, and first_index_inside runs for each error.
@pytest.mark.parametrize("build", ("build_2000", "gap_cap_1/3"))
@settings(derandomize=True, max_examples=40, deadline=None)
@given(data=st.data())
def test_splitting_certificates_on_drawn_windows_match_the_reference(builds, build, data):
    """Windows whose ends lie inside pieces, both of one stage or the second
    of another, closed, open or half-open."""
    partition = builds[build]
    stages = st.integers(1, partition.stage_count)
    record = partition.stage(data.draw(stages, label="stage"))
    piece, lo = _drawn_point(data, record)
    same = data.draw(st.booleans(), label="same stage")
    _, hi = _drawn_point(data, record if same else partition.stage(data.draw(stages, label="other stage")))
    assume(lo != hi)
    lo, hi = sorted((lo, hi))
    window = Interval(lo, hi, data.draw(st.booleans(), label="lo closed"), data.draw(st.booleans(), label="hi closed"))
    count = partition.stage_count
    k = data.draw(st.sampled_from((0, 1, 2, record.member_index(piece), record.n, count, count + 1, count + 3)),
                  label="k")
    _assert_splitting_matches(partition, k, window)


def test_splitting_certificates_on_one_or_two_whole_pieces_match_the_reference(builds):
    """Windows inside a stage's gap, where that stage has the first whole
    pieces a..b: k's piece a with b = a + 1, where the complement is piece
    a + 1; b = a, where k's piece leaves the complement to a later stage;
    and member 0 through the B piece, alone or after piece n - 1."""
    half = Fraction(1, 2)
    for partition in builds.values():
        for n in (3, 64, 300):
            record = partition.stage(n)
            two = Interval.open(_inside_piece(record, 0, half), _inside_piece(record, 3, half))
            cert = _assert_splitting_matches(partition, record.member_index(1), two)
            assert (cert.stage, cert.piece, cert.complement_stage, cert.complement_piece) == (n, 1, n, 2)
            one = Interval.closed(_inside_piece(record, 0, half), _inside_piece(record, 2, half))
            _assert_splitting_matches(partition, record.member_index(0), one)
            expected = _assert_splitting_matches(partition, record.member_index(1), one)
            if isinstance(expected, SplittingCertificate):
                assert (expected.stage, expected.piece) == (n, 1) and expected.complement_stage > n
            else:
                assert expected[0] is ValueError or expected[1].startswith("no stage covers a member other than")
            for first in (n - 1, n - 2):
                window = Interval(_inside_piece(record, first, half), record.gap.hi, False, True)
                expected = _assert_splitting_matches(partition, 0, window)
                if isinstance(expected, SplittingCertificate):
                    assert (expected.stage, expected.piece) == (n, n)
                    assert first == n - 1 or (expected.complement_stage, expected.complement_piece) == (n, n - 1)
                else:
                    assert first == n - 1 and (expected[0] is ValueError or "a member other than 0" in expected[1])


def test_an_uncovered_window_past_the_size_bound_raises_value_error(p500):
    """The middle half of stage 100's piece 50, about 1.3e-33 wide, which no
    stage of 500 covers: sizing the needed stage count hits
    ``first_index_inside``'s size bound, so both calls raise its ValueError,
    not NotYetCovered, and the automatic extension gives up."""
    host = p500.stage(100).piece_host(50)
    window = Interval.closed(host.lo + host.length / 4, host.hi - host.length / 4)
    for certify in (p500.splitting_certificate, partial(splitting_certificate_auto, p500)):
        with pytest.raises(ValueError, match=r"may be a pair of weight above 65536, past the search's size bound$"):
            certify(50, window)


@pytest.mark.parametrize("K", range(2, 9))
def test_fingerprint_matches_eval_g_signs(p500, K):
    witnesses = [_certified_point(p500, 2 * j + 1) for j in range(K)]
    expected = [[eval_g(p500, k, x, depth=4) for k in range(K)] for x in witnesses]
    assert independence_fingerprint(p500, K) == expected
    assert expected == [[1 if j == k else 0 for k in range(K)] for j in range(K)]


def test_fingerprint_signs_follow_member_index_on_other_points(p500):
    """-1 for member 2k, +1 for 2k+1, 0 otherwise, as eval_g decides them."""
    points = [_certified_point(p500, member) for member in (0, 2, 4, 5, 9, 12)]
    expected = [[eval_g(p500, k, x, depth=4) for k in range(7)] for x in points]
    assert independence_fingerprint(p500, 7, points) == expected
    assert any(-1 in row for row in expected)


def test_fingerprint_undecided_witness_names_the_point_and_depth(p500):
    x = Fraction(1, 3)
    assert not p500.membership(x, 4).decided
    with pytest.raises(NotYetCovered, match=r"^membership of witness 1/3 is undecided at depth 4$"):
        independence_fingerprint(p500, 3, [_certified_point(p500, 1), x])


@pytest.mark.parametrize("d", (1, 2, 3))
def test_saturation_lists_each_coordinate_window_once(p500, monkeypatch, d):
    calls = []
    listing = SplittingPartition.stages_overlapping

    def counted(self, window):
        calls.append(window)
        return listing(self, window)

    monkeypatch.setattr(SplittingPartition, "stages_overlapping", counted)
    sf = SaturatedFunction(p500, FiniteSupport.of({0: 1, 3: -2, 4: 1}), d=d)
    cert = certify_saturation(sf, (Fraction(1, 2),) * d, Fraction(1, 4), K=4)
    assert cert.check()
    assert len(calls) == d


@pytest.mark.parametrize("K", (1, 5, 8))
def test_fingerprint_reads_one_membership_per_witness(p500, monkeypatch, K):
    calls = []
    membership = SplittingPartition.membership

    def counted(self, x, depth=8):
        calls.append((x, depth))
        return membership(self, x, depth)

    monkeypatch.setattr(SplittingPartition, "membership", counted)
    independence_fingerprint(p500, K)
    assert len(calls) == K
    assert all(depth == 4 for _, depth in calls)


@pytest.mark.parametrize("d", [7, 8])
def test_corner_rule_matches_the_table_rule_past_d_6(p500, d):
    # m = 5 comes from row k = 4 alone.  Dropping one vertex of row k leaves
    # that row short of the full sign product, which the table rule can
    # only read as the table without row k.
    K = 4
    sf = SaturatedFunction(p500, FiniteSupport.of({k: (-1) ** k * (k + 1) for k in range(K + 1)}), d=d)
    x = tuple(Fraction(1, 3) + Fraction(i, 97) for i in range(d))
    cert = certify_saturation(sf, x, Fraction(d, 64), K)
    windows, found, rows = cert._table

    def table(m=cert.m, found=found, rows=rows):
        return SaturationCertificate._from_table(cert.point, cert.radius, cert.truncation, m,
                                                 (windows, found, rows), cert.shift)

    def corner(edited, vertices=None):
        return replace(edited, vertices=tuple(edited.vertices if vertices is None else vertices)).check()

    verdicts = [(cert.check(), corner(cert))]
    rng = random.Random(d)
    for k in range(K + 1):
        i = k * 2**d + rng.randrange(2**d)
        kept = tuple(row for row in rows if row[0] != k)
        verdicts.append((table(rows=kept).check(), corner(cert, cert.vertices[:i] + cert.vertices[i + 1:])))
    zeroed = [dict(by_member) for by_member in found]
    i = rng.randrange(d)
    member = rng.choice(sorted(zeroed[i]))
    stage, piece, _ = zeroed[i][member]
    zeroed[i][member] = (stage, piece, Fraction(0))
    verdicts.append((table(found=zeroed).check(), corner(table(found=zeroed))))
    for m in (Fraction(0), -cert.m, 2 * cert.m):
        verdicts.append((table(m).check(), corner(table(m))))
    assert [table_verdict for table_verdict, _ in verdicts] == [True, True, True, True, True, False, False, True, True, False]
    assert all(table_verdict == corner_verdict for table_verdict, corner_verdict in verdicts)
