import random
from dataclasses import replace
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


# ---------------------------------------------------------------------------
# check() against the certified-value set it replaced
# ---------------------------------------------------------------------------


def _reference_check(cert):
    """``check`` as it was: every certified value as a Fraction tuple, and
    each corner looked up in that set."""
    if any(coord.lower_bound <= 0 for w in cert.vertices for coord in w.coordinates):
        return False
    if cert.m == 0:
        return True
    values = {tuple(v + p for v, p in zip(w.value, cert.shift)) for w in cert.vertices}
    return all(
        tuple(p + cert.m * c for p, c in zip(cert.shift, corner)) in values
        for corner in product((-1, 1), repeat=cert.d)
    )


@pytest.fixture(scope="module")
def real_certificates(p40):
    """Passing certificates at d = 1..4, one of them shifted."""
    point = (Fraction(1, 2), Fraction(3, 8), Fraction(5, 8), Fraction(7, 16))
    mu = FiniteSupport.of({0: 1, 1: -2, 2: Fraction(3, 2)})
    certs = [
        certify_saturation(SaturatedFunction(p40, mu, d=d), point[:d], Fraction(1, 4), K)
        for d, K in ((1, 2), (2, 2), (3, 1), (4, 1))
    ]
    shifted = shift_to_ball(SaturatedFunction(p40, mu, d=2), (Fraction(2), Fraction(-1, 3)), Fraction(3))
    certs.append(certify_saturation(shifted, point[:2], Fraction(1, 4), 2))
    assert all(cert.check() for cert in certs)
    return certs


_ENTRIES = (-2, -1, 0, Fraction(1, 2), 1, 2)


def _mutated(data, cert):
    """The certificate with drawn edits: vertices dropped or duplicated, a
    coefficient, vertex or coordinate bound replaced, m replaced by 0, -m or
    2m, and a shift of length 0-4."""
    m = cert.m
    vertices = list(cert.vertices)
    edits = data.draw(st.lists(st.sampled_from(("drop", "duplicate", "coefficient", "vertex", "bound")),
                               max_size=5), label="edits")
    for edit in edits:
        if not vertices:
            break
        i = data.draw(st.integers(0, len(vertices) - 1), label="vertex index")
        w = vertices[i]
        if edit == "drop":
            del vertices[i]
        elif edit == "duplicate":
            vertices.insert(data.draw(st.integers(0, len(vertices)), label="at"), w)
        elif edit == "coefficient":
            coefficient = data.draw(st.sampled_from((Fraction(0), m, -m, 2 * m, Fraction(1, 3), w.coefficient)),
                                    label="coefficient")
            vertices[i] = replace(w, coefficient=coefficient)
        elif edit == "vertex":
            vertex = tuple(data.draw(st.lists(st.sampled_from(_ENTRIES), max_size=4), label="vertex"))
            vertices[i] = replace(w, vertex=vertex)
        else:
            j = data.draw(st.integers(0, len(w.coordinates) - 1), label="coordinate")
            bound = data.draw(st.sampled_from((0, -1, -3)), label="bound")
            coordinates = list(w.coordinates)
            coordinates[j] = replace(coordinates[j], lower_bound=bound)
            vertices[i] = replace(w, coordinates=tuple(coordinates))
    new_m = data.draw(st.sampled_from((m, 0, -m, 2 * m)), label="m")
    shift = cert.shift
    if data.draw(st.booleans(), label="new shift"):
        shift = tuple(data.draw(st.lists(st.sampled_from((Fraction(0), Fraction(1, 2), Fraction(-3), 2)),
                                         max_size=4), label="shift"))
    return replace(cert, m=new_m, vertices=tuple(vertices), shift=shift)


@settings(derandomize=True, max_examples=600, deadline=None)
@given(data=st.data())
def test_check_matches_the_certified_value_set_on_mutated_certificates(real_certificates, data):
    cert = real_certificates[data.draw(st.integers(0, len(real_certificates) - 1), label="certificate")]
    mutated = _mutated(data, cert)
    assert mutated.check() == _reference_check(mutated)


def test_check_counts_only_values_as_long_as_the_corners(real_certificates):
    # The corners have min(len(shift), d) entries, and so must a value.
    cert = real_certificates[3]  # d = 4
    assert cert.d == 4
    short = tuple(replace(w, vertex=w.vertex[:2]) for w in cert.vertices)
    cases = [
        (replace(cert, shift=()), True),  # width 0: any vertex covers the empty corner
        (replace(cert, shift=(), vertices=()), False),
        (replace(cert, shift=cert.shift[:2]), True),  # each corner of width 2 is met
        (replace(cert, vertices=short), False),  # values of 2 entries, corners of 4
        (replace(cert, shift=cert.shift[:2], vertices=short), True),
        (replace(cert, shift=cert.shift + (Fraction(1, 2),)), True),  # a shift longer than d
        (replace(cert, shift=cert.shift + (Fraction(1, 2),), vertices=short), False),
    ]
    for mutated, verdict in cases:
        assert mutated.check() == _reference_check(mutated) == verdict

