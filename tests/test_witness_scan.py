"""Witness searches against a brute-force reference at N = 500.

The reference takes, for each member, the first built stage by ascending n
whose ``piece_host`` for that member lies inside the window, scanning every
stage without the gap index or ``_piece_span``.  Certificates, their
NotYetCovered errors and the fingerprint must match it exactly, while each
coordinate window is listed once and each witness point costs one
membership.
"""

import random
from fractions import Fraction
from itertools import product

import pytest

from clarkesat.errors import NotYetCovered
from clarkesat.functions import FiniteSupport, SaturatedFunction, eval_g
from clarkesat.partition import (
    RETAINED,
    SplittingCertificate,
    SplittingPartition,
    build_partition,
    enumerated_interval,
    first_index_inside,
)
from clarkesat.rationals import Interval
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
