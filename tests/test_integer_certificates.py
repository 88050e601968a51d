"""The certificate path on integers against the Fraction rules it replaced.

``_certified_point`` reads the host stage's integer geometry, the box ends
are one Fraction each, ``Interval.contains_interval`` cross-multiplies, and
``certify_saturation`` pairs the sign patterns with a product of witness
pairs.  Each must give what the Fraction code gave: the same points, the same
containment verdicts and the same certificates and errors, in the same order.
"""

import copy
import pickle
from dataclasses import replace
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clarkesat.errors import NotYetCovered
from clarkesat.functions import FiniteSupport, SaturatedFunction
from clarkesat.partition import RETAINED, _first_host, _whole_pieces, build_partition, first_index_inside
from clarkesat.rationals import Interval
from clarkesat.verifier import (
    CoordinateWitness,
    SaturationCertificate,
    VertexWitness,
    _certified_point,
    certificate_windows,
    certify_saturation,
    isometry_witness,
)


@pytest.fixture(scope="module")
def builds():
    return {"p500": build_partition(500), "p500cap": build_partition(500, Fraction(1, 3))}


# ---------------------------------------------------------------------------
# Certified points
# ---------------------------------------------------------------------------


def test_certified_points_are_the_first_hosts_cover_endpoints(builds):
    for partition in builds.values():
        count = partition.stage_count
        for member in range(count + 1):
            assert _certified_point(partition, member) == _first_host(partition, member).first_piece(1).hi, member
        # A member past the stage count raises _first_host's error.
        with pytest.raises(NotYetCovered) as expected:
            _first_host(partition, count + 1)
        with pytest.raises(NotYetCovered) as excinfo:
            _certified_point(partition, count + 1)
        assert (str(excinfo.value), excinfo.value.needed_stage) == (str(expected.value), count + 1)


def test_isometry_witness_points_are_the_first_hosts_cover_endpoints(builds):
    for partition in builds.values():
        for mu in ({0: 1}, {0: 1, 3: -4, 7: 2}, {5: Fraction(-7, 2), 9: 3}):
            sf = SaturatedFunction(partition, FiniteSupport.of(mu), d=2)
            k_star = sf.mu.argmax_index(9)
            point = _first_host(partition, 2 * k_star + 1).first_piece(1).hi
            assert isometry_witness(sf, 9).point == (point, point)


# ---------------------------------------------------------------------------
# Interval containment
# ---------------------------------------------------------------------------


def _contains_interval_by_comparison(outer, inner):
    """``Interval.contains_interval`` as Fraction comparisons of the ends."""
    if inner.lo < outer.lo or inner.hi > outer.hi:
        return False
    if inner.lo == outer.lo and inner.lo_closed and not outer.lo_closed:
        return False
    if inner.hi == outer.hi and inner.hi_closed and not outer.hi_closed:
        return False
    return True


_ENDS = st.fractions(min_value=-3, max_value=3, max_denominator=12)


def _interval(data, label):
    # Closed, open, half-open and degenerate intervals, with Fraction ends or,
    # where an end is a whole number and int ends are drawn, an int end.
    a, b = data.draw(_ENDS, label=f"{label} a"), data.draw(_ENDS, label=f"{label} b")
    lo, hi = min(a, b), max(a, b)
    lo_closed = data.draw(st.booleans(), label=f"{label} lo closed")
    hi_closed = data.draw(st.booleans(), label=f"{label} hi closed")
    if lo == hi:
        lo_closed = hi_closed = True
    int_ends = data.draw(st.booleans(), label=f"{label} int ends")
    ends = [int(end) if int_ends and end.denominator == 1 else end for end in (lo, hi)]
    return Interval(*ends, lo_closed, hi_closed)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(data=st.data())
def test_interval_contains_interval_matches_the_comparison_rule(data):
    outer = _interval(data, "outer")
    # The inner interval is drawn freely, or from the outer one's ends, so that
    # equal ends with every pair of closure flags come up often.
    if data.draw(st.booleans(), label="shared ends"):
        lo = data.draw(st.sampled_from((outer.lo, outer.hi)), label="inner lo")
        hi = data.draw(st.sampled_from([end for end in (outer.lo, outer.hi) if end >= lo]), label="inner hi")
        closed = (True, True) if lo == hi else data.draw(st.tuples(st.booleans(), st.booleans()), label="flags")
        inner = Interval(lo, hi, *closed)
    else:
        inner = _interval(data, "inner")
    for a, b in ((outer, inner), (inner, outer), (outer, outer)):
        assert a.contains_interval(b) is _contains_interval_by_comparison(a, b), (a, b)


def test_contains_interval_reads_ends_as_numerator_and_denominator():
    # An end without them, a float, raises AttributeError.
    unit = Interval(Fraction(0), Fraction(1), False, False)
    with pytest.raises(AttributeError):
        unit.contains_interval(Interval(0.25, 0.5))
    with pytest.raises(AttributeError):
        Interval(0.0, 1.0).contains_interval(unit)


# ---------------------------------------------------------------------------
# Saturation certificates and their errors in vertex order
# ---------------------------------------------------------------------------


def _vertex_order_certificate(sf, x, r, K):
    """``certify_saturation`` as it was: every vertex, in pattern order, looks
    up its coordinates' witnesses one at a time, and the first one missing
    gives (message, needed_stage, member, coordinate)."""
    windows = certificate_windows(sf.domain, x, r, K)
    members = range(min(2 * K + 2, sf.partition.stage_count + 1))
    witnesses = [
        {
            member: CoordinateWitness(member, stage, piece, window, bound)
            for member, (stage, piece, bound) in _whole_pieces(
                sf.partition.stages_overlapping(window), members, window
            ).items()
        }
        for window in windows
    ]
    vertices = []
    for k in range(K + 1):
        coeff = sf.mu.coefficient(k)
        for pattern in product((-1, 1), repeat=sf.d):
            coords = []
            for i, v in enumerate(pattern):
                member = 2 * k + 1 if v > 0 else 2 * k
                witness = witnesses[i].get(member)
                if witness is None:
                    needed = first_index_inside(windows[i], max(member, 1))
                    message = f"no stage covers member {member} inside {windows[i]} yet; build at least {needed} stages"
                    return message, needed, member, i
                coords.append(witness)
            vertices.append(VertexWitness(k, coeff, pattern, tuple(coords)))
    m = abs(sf.mu.coefficient(sf.mu.argmax_index(K)))
    return SaturationCertificate(x, r, K, m, tuple(vertices))


def test_saturation_errors_come_in_vertex_order():
    mu = FiniteSupport.of({k: Fraction((-1) ** k * (k + 2), 3) for k in range(9)})
    # In the last case near coordinates share most witnesses, but not their
    # windows, so the first and the last coordinate lacking 2k+1 give
    # different errors.
    points = (Fraction(1, 2), Fraction(3, 8), Fraction(5, 8)), (Fraction(2, 7), Fraction(5, 9), Fraction(4, 5))
    cases = [(x, r) for x in points for r in (Fraction(1, 4), Fraction(1, 16))]
    cases.append(((Fraction(1, 2), Fraction(33, 64), Fraction(31, 64)), Fraction(1, 2)))
    seen = set()
    for stages in range(1, 13):
        partition = build_partition(stages)
        for d, K, (x, r) in product((1, 2, 3), range(9), cases):
            sf = SaturatedFunction(partition, mu, d=d)
            expected = _vertex_order_certificate(sf, x[:d], r, K)
            if isinstance(expected, SaturationCertificate):
                cert = certify_saturation(sf, x[:d], r, K)
                assert cert == expected and cert.render() == expected.render()
                assert cert.check()
                seen.add("certified")
                continue
            message, needed, member, i = expected
            with pytest.raises(NotYetCovered) as excinfo:
                certify_saturation(sf, x[:d], r, K)
            assert (str(excinfo.value), excinfo.value.needed_stage) == (message, needed), (stages, d, K, x, r)
            seen.add((member % 2, "first" if i == 0 else "last" if i == d - 1 else "middle"))
    # Both members of a pair fail somewhere, and a missing 2k+1 is reported at
    # the last coordinate that lacks it, not only at the first.
    assert {"certified", (0, "first"), (1, "first"), (1, "last")} <= seen, seen


@pytest.mark.parametrize("stages", (12, 37))
@pytest.mark.parametrize("gap_cap", (1, Fraction(1, 3)))
def test_a_window_with_only_member_ks_whole_piece_lacks_the_complement(stages, gap_cap):
    # The last stage's pieces hold no earlier stage's piece, and no later stage
    # is built, so the closure of one of its pieces holds only that piece.
    # Stage 37's gap is the first to nest inside an earlier stage's piece.
    partition = build_partition(stages, gap_cap)
    record = partition.stage(stages)
    n = record.n
    for piece in (0, 1, n // 2, n - 1, n):
        host = record.piece_host(piece)
        window = Interval.closed(host.lo, host.hi)
        k = record.member_index(piece)
        overlapping = partition.stages_overlapping(window)
        mass = RETAINED * record.piece_width
        assert _whole_pieces(overlapping, range(n + 1), window) == {k: (n, piece, mass)}
        with pytest.raises(NotYetCovered) as excinfo:
            partition.splitting_certificate(k, window)
        needed = first_index_inside(window, max(k, 1))
        assert str(excinfo.value) == (
            f"no stage covers a member other than {k} inside {window} yet; build at least {needed} stages"
        )
        assert excinfo.value.needed_stage == needed


# ---------------------------------------------------------------------------
# Slotted witnesses
# ---------------------------------------------------------------------------


def test_witnesses_are_slotted_and_keep_their_value_semantics(builds):
    sf = SaturatedFunction(builds["p500"], FiniteSupport.of({0: 1, 1: -2}), d=2)
    cert = certify_saturation(sf, (Fraction(1, 2), Fraction(3, 8)), Fraction(1, 4), 1)
    vertex = cert.vertices[0]
    coordinate = vertex.coordinates[0]
    for witness in (vertex, coordinate):
        assert not hasattr(witness, "__dict__")
        for clone in (pickle.loads(pickle.dumps(witness)), copy.deepcopy(witness), replace(witness)):
            assert clone == witness and hash(clone) == hash(witness)
    assert replace(coordinate, member=7) != coordinate
    assert pickle.loads(pickle.dumps(cert)) == cert and pickle.loads(pickle.dumps(cert)).check()
