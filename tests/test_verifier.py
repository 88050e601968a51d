import random
from dataclasses import replace
from fractions import Fraction

import pytest

from clarkesat.errors import NotYetCovered
from clarkesat.functions import FiniteSupport, SaturatedFunction, shift_to_ball
from clarkesat.partition import build_partition, extend_partition, first_index_inside
from clarkesat.verifier import (
    certify_saturation,
    independence_fingerprint,
    isometry_witness,
)


@pytest.fixture(scope="module")
def p40():
    return build_partition(40)


@pytest.fixture(scope="module")
def e0(p40):
    return SaturatedFunction(p40, FiniteSupport.unit(0))


def test_certificate_d1_three_values(p40, e0):
    cert = certify_saturation(e0, (Fraction(1, 2),), Fraction(1, 4), K=1)
    assert cert.check()
    values = {v[0] for v in cert.certified_values()}
    assert values == {-1, 0, 1}
    assert cert.hull_intervals() == ((-1, 1),)
    assert cert.m == 1
    for witness in cert.vertices:
        assert witness.product_lower_bound > 0


def test_certificate_d2_four_vertices(p40):
    sf = SaturatedFunction(p40, FiniteSupport.of({3: 2}), d=2)
    cert = certify_saturation(sf, (Fraction(1, 2), Fraction(1, 2)), Fraction(1, 2), K=3)
    assert cert.check()
    corner_values = {w.value for w in cert.vertices if w.k == 3}
    assert corner_values == {
        (2, 2),
        (2, -2),
        (-2, 2),
        (-2, -2),
    }
    assert cert.hull_intervals() == (((-2), 2), ((-2), 2))


def test_certificate_zero_mu(p40):
    zero = SaturatedFunction(p40, FiniteSupport.zero())
    cert = certify_saturation(zero, (Fraction(1, 2),), Fraction(1, 4), K=0)
    assert cert.check()
    assert cert.m == 0
    assert cert.hull_intervals() == ((0, 0),)


def test_certificate_not_yet_covered(p40, e0):
    tiny = Fraction(1, 10**4)
    with pytest.raises(NotYetCovered) as excinfo:
        certify_saturation(e0, (Fraction(1, 3),), tiny, K=0)
    assert excinfo.value.needed_stage > p40.stage_count


def test_certificate_succeeds_after_extension(p40, e0):
    x = (Fraction(4, 7),)
    r = Fraction(1, 50)
    try:
        cert = certify_saturation(e0, x, r, K=0)
    except NotYetCovered as exc:
        grown = extend_partition(p40, exc.needed_stage)
        cert = certify_saturation(
            SaturatedFunction(grown, e0.mu), x, r, K=0
        )
    assert cert.check()


def test_certificate_monotone_under_extension(p40, e0):
    cert = certify_saturation(e0, (Fraction(1, 2),), Fraction(1, 4), K=1)
    grown = extend_partition(p40, 45)
    again = certify_saturation(
        SaturatedFunction(grown, e0.mu), (Fraction(1, 2),), Fraction(1, 4), K=1
    )
    assert again == cert  # witness search is deterministic and persistent


def test_certificate_requires_box_inside_domain(e0):
    with pytest.raises(ValueError):
        certify_saturation(e0, (Fraction(1, 100),), Fraction(1, 4), K=0)


def test_certificate_render_is_exact_text(p40, e0):
    cert = certify_saturation(e0, (Fraction(1, 2),), Fraction(1, 4), K=0)
    text = cert.render()
    assert "point: (1/2)" in text
    assert "lambda>=" in text
    assert "." not in text.replace("...", "")  # no decimals anywhere
    assert text == cert.render()  # deterministic


def test_fingerprint_identity(p40):
    assert independence_fingerprint(p40, 1) == [[1]]
    K = 5
    matrix = independence_fingerprint(p40, K)
    assert matrix == [[1 if j == k else 0 for k in range(K)] for j in range(K)]


def test_fingerprint_permuted_witnesses(p40):
    from clarkesat.verifier import _certified_point

    K = 4
    rng = random.Random(3)
    order = list(range(K))
    rng.shuffle(order)
    witnesses = [_certified_point(p40, 2 * j + 1) for j in order]
    matrix = independence_fingerprint(p40, K, witnesses)
    assert matrix == [[1 if k == order[j] else 0 for k in range(K)] for j in range(K)]


def test_fingerprint_needs_stages():
    small = build_partition(3)
    with pytest.raises(NotYetCovered):
        independence_fingerprint(small, 8)


def test_isometry_witness_unit(p40, e0):
    witness = isometry_witness(e0, K=0)
    assert witness.sup_norm == 1
    assert witness.gradient == (1,)


def test_isometry_witness_mixed(p40):
    sf = SaturatedFunction(p40, FiniteSupport.of({0: 3, 1: -5}), d=3)
    witness = isometry_witness(sf, K=1)
    assert witness.sup_norm == 5
    assert witness.gradient == (-5, -5, -5)
    assert len(set(witness.point)) == 1


def test_isometry_witness_zero(p40):
    zero = SaturatedFunction(p40, FiniteSupport.zero())
    witness = isometry_witness(zero, K=3)
    assert witness.sup_norm == 0


def test_isometry_witness_truncation_honesty(p40):
    sf = SaturatedFunction(p40, FiniteSupport.of({0: 1, 7: 9}))
    witness = isometry_witness(sf, K=2)
    assert witness.sup_norm == 1  # the argmax at index 7 is outside K


def test_shifted_certificate_hull(p40):
    sf = SaturatedFunction(p40, FiniteSupport.of({0: 3}))
    shifted = shift_to_ball(sf, (Fraction(2),), Fraction(3))
    cert = certify_saturation(shifted, (Fraction(1, 2),), Fraction(1, 4), K=0)
    assert cert.check()
    assert cert.hull_intervals() == ((-1, 5),)
    assert {v[0] for v in cert.certified_values()} == {-1, 5}


def _d4_certificate(p40):
    sf = SaturatedFunction(p40, FiniteSupport.of({0: 1, 1: -2}), d=4)
    point = (Fraction(1, 2), Fraction(3, 8), Fraction(5, 8), Fraction(7, 16))
    return certify_saturation(sf, point, Fraction(1, 4), K=1)


def test_certificate_d4_passes_its_check(p40):
    cert = _d4_certificate(p40)
    assert cert.d == 4 and cert.m == 2
    assert len(cert.vertices) == 2 * 2**4
    assert cert.check()


@pytest.mark.parametrize("d", [1, 4])
def test_mutated_certificates_fail_their_check(p40, e0, d):
    cert = certify_saturation(e0, (Fraction(1, 2),), Fraction(1, 4), K=1) if d == 1 else _d4_certificate(p40)
    assert cert.check()
    first = cert.vertices[0]
    zeroed = replace(first, coordinates=(replace(first.coordinates[0], lower_bound=Fraction(0)),)
                     + first.coordinates[1:])
    assert not replace(cert, vertices=(zeroed,) + cert.vertices[1:]).check()
    corner = tuple(p + cert.m for p in cert.shift)
    kept = tuple(w for w in cert.vertices if w.value != corner)
    assert len(kept) == len(cert.vertices) - 1
    assert not replace(cert, vertices=kept).check()


def test_first_host_error_is_shared():
    # e_3 needs member 7, whose first host is stage 7; only 5 stages exist.
    from clarkesat.functions import lipschitz_lower_bound

    sf = SaturatedFunction(build_partition(5), FiniteSupport.unit(3))
    errors = []
    for query in (lambda: isometry_witness(sf, 3), lambda: lipschitz_lower_bound(sf)):
        with pytest.raises(NotYetCovered) as excinfo:
            query()
        errors.append((str(excinfo.value), excinfo.value.needed_stage))
    assert errors == [("no stage hosts member 7 yet", 7)] * 2


def test_certify_looks_only_for_members_the_stages_can_feed(monkeypatch):
    # Stage n feeds members 0..n, so a 30-stage partition is searched for
    # members 0..30 whatever K is, and a K past it fails as K = 16 does.
    import clarkesat.verifier as verifier

    sf = SaturatedFunction(build_partition(30), FiniteSupport.unit(0))
    searched = []
    whole_pieces = verifier._whole_pieces

    def recording(overlapping, members, window):
        searched.append(list(members))
        return whole_pieces(overlapping, searched[-1], window)

    monkeypatch.setattr(verifier, "_whole_pieces", recording)
    messages = []
    for K in (16, 10**5):
        with pytest.raises(NotYetCovered) as excinfo:
            certify_saturation(sf, (Fraction(1, 2),), Fraction(1, 4), K)
        messages.append(str(excinfo.value))
    assert searched and all(len(members) <= 31 for members in searched)
    assert messages[0] == messages[1]
