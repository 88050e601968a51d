import gc
import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest

from clarkesat.errors import ToleranceExhausted
from clarkesat.functions import (
    FiniteSupport,
    GeneratorSource,
    SaturatedFunction,
    ValueBound,
    eval_f,
    eval_f1,
    eval_g,
    export_samples,
    lipschitz_lower_bound,
    lipschitz_norm,
    ones_generator,
    parse_mu_spec,
    sample_gradient,
    shift_to_ball,
)
from clarkesat.partition import SplittingPartition, build_partition, extend_partition
from clarkesat.rationals import Interval
from clarkesat.stress import oracle
from clarkesat.verifier import _certified_point

TOL = Fraction(1, 10**6)


@pytest.fixture(scope="module")
def p30():
    return build_partition(30)


@pytest.fixture(scope="module")
def e0(p30):
    return SaturatedFunction(p30, FiniteSupport.unit(0))


@pytest.fixture(scope="module")
def mixed(p30):
    return SaturatedFunction(p30, FiniteSupport.of({0: 3, 1: -5, 2: 2}))


def test_finite_support_normalizes():
    mu = FiniteSupport.of({3: Fraction(2), 1: Fraction(0), 0: Fraction(-1, 2)})
    assert mu.support == (0, 3)
    assert mu.norm_inf == 2
    assert mu.coefficient(1) == 0
    assert mu.argmax_index() == 3
    with pytest.raises(ValueError):
        FiniteSupport.of([(1, Fraction(1)), (1, Fraction(2))])


def test_generator_source_checks_declared_norm():
    bad = GeneratorSource(lambda k: Fraction(k), Fraction(1))
    with pytest.raises(ValueError):
        bad.coefficient(2)
    ones = ones_generator()
    assert ones.coefficient(17) == 1
    assert ones.argmax_index(5) == 0


def test_parse_mu_spec_round_trip():
    mu = parse_mu_spec("0:3/1,1:-5/1,2:2/1")
    assert mu == FiniteSupport.of({0: 3, 1: -5, 2: 2})
    assert isinstance(parse_mu_spec("ones"), GeneratorSource)
    assert parse_mu_spec("zero") == FiniteSupport.zero()
    with pytest.raises(ValueError):
        parse_mu_spec("0=1/2")


def test_eval_g_witness_values(p30):
    plus = _certified_point(p30, 1)  # a point of A_1
    minus = _certified_point(p30, 2)  # a point of A_2
    other = _certified_point(p30, 3)  # a point of A_3
    assert eval_g(p30, 0, plus, 4) == 1
    assert eval_g(p30, 1, minus, 4) == -1
    assert eval_g(p30, 0, minus, 4) == 0  # certified in a foreign member
    assert eval_g(p30, 1, other, 4) == 1
    assert eval_g(p30, 0, Fraction(0), 4) == -1  # 0 is certified in A_0


def test_eval_g_undecided(p30):
    host = p30.stage(1).piece_host(0)
    interior = (host.lo * 2 + host.hi) / 3  # inside the cover, not an endpoint
    assert eval_g(p30, 0, interior, 1) is None


def test_eval_f1_at_base_point(p30):
    assert eval_f1(p30, 0, Fraction(1, 2), Fraction(1, 2), TOL) == ValueBound(0, 0)


def test_eval_f1_rejects_a_negative_member_index(p30):
    for x in (Fraction(2, 3), Fraction(1, 2)):  # a window, and the base point itself
        with pytest.raises(ValueError, match="member index must be >= 0"):
            eval_f1(p30, -1, Fraction(1, 2), x, TOL)


def test_eval_f1_at_base_point_still_validates_the_tolerance(p30):
    for tol in (0, -TOL):
        with pytest.raises(ValueError, match="tolerance must be positive"):
            eval_f1(p30, 1, Fraction(1, 2), Fraction(1, 2), tol)


def test_eval_f1_orientation_antisymmetry(p30):
    a, b = Fraction(1, 3), Fraction(4, 5)
    fwd = eval_f1(p30, 1, a, b, TOL)
    rev = eval_f1(p30, 1, b, a, TOL)
    assert (fwd.lo, fwd.hi) == (-rev.hi, -rev.lo)
    assert fwd.width <= TOL


def test_eval_f1_is_1_lipschitz_between_samples(p30):
    rng = random.Random(7)
    x0 = Fraction(1, 2)
    points = [Fraction(rng.randrange(1, 256), 256) for _ in range(12)]
    values = {x: eval_f1(p30, 0, x0, x, TOL) for x in points}
    for x in points:
        for y in points:
            gap = abs(values[x].mid - values[y].mid)
            assert gap <= abs(x - y) + values[x].width + values[y].width


def test_eval_f_zero_mu_everywhere(p30):
    zero = SaturatedFunction(p30, FiniteSupport.zero(), d=2)
    assert eval_f(zero, (Fraction(1, 3), Fraction(2, 3)), TOL) == ValueBound(0, 0)


def test_eval_f_matches_eval_f1_sum(p30, e0):
    sf2 = SaturatedFunction(p30, FiniteSupport.unit(1), d=2)
    x = (Fraction(2, 7), Fraction(5, 8))
    combined = eval_f(sf2, x, TOL)
    split = [eval_f1(p30, 1, sf2.x0[i], x[i], TOL / 2) for i in range(2)]
    lo = split[0].lo + split[1].lo
    hi = split[0].hi + split[1].hi
    assert max(lo, combined.lo) <= min(hi, combined.hi)  # overlapping certificates


def test_eval_f_rejects_outside_domain(e0):
    with pytest.raises(ValueError):
        eval_f(e0, (Fraction(3, 2),), TOL)


def test_eval_f_additivity_of_sources(p30):
    x = (Fraction(3, 11),)
    a = SaturatedFunction(p30, FiniteSupport.of({0: 2}))
    b = SaturatedFunction(p30, FiniteSupport.of({1: -3}))
    both = SaturatedFunction(p30, FiniteSupport.of({0: 2, 1: -3}))
    va, vb = eval_f(a, x, TOL), eval_f(b, x, TOL)
    vboth = eval_f(both, x, TOL)
    assert va.lo + vb.lo <= vboth.hi and vboth.lo <= va.hi + vb.hi


def test_eval_f_generator_bounds_nest(p30):
    ones = SaturatedFunction(p30, ones_generator())
    x = (Fraction(7, 9),)
    previous = None
    for tol in (Fraction(1, 100), Fraction(1, 1000), Fraction(1, 10000)):
        bound = eval_f(ones, x, tol)
        assert bound.width <= tol
        if previous is not None:
            assert bound.nests_inside(previous)
        previous = bound


def test_eval_f_tolerance_exhausted_on_shallow_partition():
    shallow = build_partition(3)
    ones = SaturatedFunction(shallow, ones_generator())
    with pytest.raises(ToleranceExhausted):
        eval_f(ones, (Fraction(1, 3),), Fraction(1, 10**9))


def test_rectangle_identity_sampled(p30, e0):
    sf = SaturatedFunction(p30, FiniteSupport.unit(0), d=2)
    rng = random.Random(11)
    for _ in range(25):
        x1, y1, x2, y2 = (Fraction(rng.randrange(1, 512), 512) for _ in range(4))
        total = (
            eval_f(sf, (x1, x2), TOL).mid
            + eval_f(sf, (y1, y2), TOL).mid
            - eval_f(sf, (x1, y2), TOL).mid
            - eval_f(sf, (y1, x2), TOL).mid
        )
        assert abs(total) <= 4 * TOL


def test_sample_gradient_constant_pattern(p30, mixed):
    w = _certified_point(p30, 3)  # A_3 = plus-set of index 1
    sf = SaturatedFunction(p30, mixed.mu, d=3)
    assert sample_gradient(sf, (w, w, w), 2) == (-5, -5, -5)


def test_sample_gradient_mixed_pattern(p30, mixed):
    plus = _certified_point(p30, 3)
    minus = _certified_point(p30, 2)
    sf = SaturatedFunction(p30, mixed.mu, d=2)
    assert sample_gradient(sf, (plus, minus), 2) == (-5, 5)


def test_sample_gradient_zero_mu(p30):
    zero = SaturatedFunction(p30, FiniteSupport.zero(), d=2)
    w = _certified_point(p30, 1)
    assert sample_gradient(zero, (w, w), 2) == (0, 0)


def test_sample_gradient_undecided_flag(p30, e0):
    host = p30.stage(1).piece_host(0)
    interior = (host.lo * 2 + host.hi) / 3
    assert sample_gradient(e0, (interior,), 1) == (None,)


def test_gradients_reject_a_point_of_the_wrong_length_or_outside_the_box(p30, mixed):
    w = _certified_point(p30, 3)  # A_3 = plus-set of index 1
    sf = SaturatedFunction(p30, mixed.mu, d=2)
    shifted = shift_to_ball(sf, (Fraction(1, 3), Fraction(-1, 4)), Fraction(1, 2))
    queries = (lambda x: sample_gradient(sf, x, 2), lambda x: sf.gradient(x, 2),
               lambda x: shifted.gradient(x, 2), lambda x: oracle(sf, x, TOL, 2))
    for x in ((w, w, w), (w,), (), (w + 1, w - 3), (w, Fraction(0)), (Fraction(1), w)):
        for query in queries:
            with pytest.raises(ValueError, match=r"^point \(.*\) is outside the domain box$"):
                query(x)
    assert sample_gradient(sf, (w, w), 2) == (-5, -5)
    assert shifted.gradient((w, w), 2) == (Fraction(1, 3) - Fraction(1, 2), Fraction(-1, 4) - Fraction(1, 2))


def test_eval_g_rejects_a_negative_member_index(p30):
    host = p30.stage(1).piece_host(0)
    undecided = (host.lo * 2 + host.hi) / 3  # eval_g(p30, 0, undecided, 1) is None
    for x in (_certified_point(p30, 1), _certified_point(p30, 2), Fraction(0), undecided):
        for depth in (1, 4):
            with pytest.raises(ValueError, match=r"^member index must be >= 0$"):
                eval_g(p30, -1, x, depth)


def test_lipschitz_norm_exact(e0, mixed):
    assert lipschitz_norm(e0) == 1
    assert lipschitz_norm(mixed) == 5


def test_lipschitz_lower_bound_steered(e0, mixed):
    assert lipschitz_lower_bound(e0) >= Fraction(95, 100)
    assert lipschitz_lower_bound(mixed) >= Fraction(95, 100) * 5
    assert lipschitz_lower_bound(e0) <= 1
    assert lipschitz_lower_bound(mixed) <= 5


def test_lipschitz_lower_bound_zero(p30):
    zero = SaturatedFunction(p30, FiniteSupport.zero())
    assert lipschitz_lower_bound(zero) == 0


def test_shift_to_ball_identity(p30, e0):
    shifted = shift_to_ball(e0, (0,), Fraction(1))
    x = (Fraction(2, 5),)
    plain = eval_f(e0, x, TOL)
    assert shifted.eval(x, TOL) == plain
    assert shifted.gradient_hull() == ((-1, 1),)


def test_shift_to_ball_derivative_set(p30):
    mu = FiniteSupport.of({0: 3})
    sf = SaturatedFunction(p30, mu)
    shifted = shift_to_ball(sf, (Fraction(2),), Fraction(3))
    seen = set()
    for member in (0, 1, 2, 3):
        w = _certified_point(p30, member)
        (g,) = shifted.gradient((w,), 2)
        seen.add(g)
    assert seen == {-1, 2, 5}
    assert shifted.gradient_hull() == ((-1, 5),)


def test_shift_to_ball_value_normalized_at_base(p30, e0):
    shifted = shift_to_ball(e0, (Fraction(2),), Fraction(3))
    assert shifted.eval(shifted.x0, TOL) == ValueBound(0, 0)
    # away from the base point the linear part enters exactly
    x = (shifted.x0[0] + Fraction(1, 8),)
    base_mu = shifted.base
    expected = eval_f(base_mu, x, TOL).shift(Fraction(2) * Fraction(1, 8))
    assert shifted.eval(x, TOL) == expected


def test_shift_to_ball_rejects_bad_inputs(p30, e0):
    with pytest.raises(ValueError):
        shift_to_ball(e0, (0, 0), Fraction(1))
    zero = SaturatedFunction(p30, FiniteSupport.zero())
    with pytest.raises(ValueError):
        shift_to_ball(zero, (0,), Fraction(1))
    assert shift_to_ball(zero, (0,), Fraction(0)).gradient_hull() == ((0, 0),)


def test_export_samples_csv(p30, e0):
    host = p30.stage(1).piece_host(0)
    interior = (host.lo * 2 + host.hi) / 3
    text = export_samples(e0, [(Fraction(1, 2),), (interior,)], TOL, depth=1)
    lines = text.strip().split("\n")
    assert lines[0] == "x1,f_lo,f_hi,g1"
    assert lines[1] == "1/2,0/1,0/1,U" or lines[1].startswith("1/2,0/1,0/1")
    assert lines[2].endswith(",U")


def test_shift_to_ball_rescales_a_generator(p30):
    from clarkesat.functions import ones_generator
    from clarkesat.verifier import certify_saturation

    r = Fraction(3, 4)
    shifted = shift_to_ball(SaturatedFunction(p30, ones_generator()), (Fraction(1, 2),), r)
    mu = shifted.base.mu
    assert mu.name == "ones*3/4"
    assert mu.norm_inf == r
    assert [mu.coefficient(k) for k in range(6)] == [r] * 6
    assert shifted.gradient_hull() == ((Fraction(-1, 4), Fraction(5, 4)),)
    cert = certify_saturation(shifted, (Fraction(1, 2),), Fraction(1, 4), K=2)
    assert cert.check()
    assert (cert.m, cert.shift, cert.truncation) == (r, (Fraction(1, 2),), 2)


# -- per-source coefficient tables --------------------------------------------


def test_generator_source_coerces_and_checks_its_declared_norm():
    with pytest.raises(ValueError, match="declared norm -1 is negative"):
        GeneratorSource(lambda k: 0, Fraction(-1))
    with pytest.raises(ValueError, match="negative"):
        GeneratorSource(lambda k: 0, "-1/3")
    for norm in (1, "3/4", Fraction(0)):
        source = GeneratorSource(lambda k: 0, norm)
        assert type(source.norm_inf) is Fraction and source.norm_inf == Fraction(norm)


class CountingRule:
    """A pure rule k -> value(k) that counts its calls per k."""

    def __init__(self, value=lambda k: Fraction(1)):
        self.value = value
        self.calls = {}
        self._counting = threading.Lock()

    def __call__(self, k):
        with self._counting:
            self.calls[k] = self.calls.get(k, 0) + 1
        return self.value(k)


def _points(count):
    rng = random.Random(34)
    return [(Fraction(rng.randrange(1, 4096), 4096),) for _ in range(count)]


def test_generator_rule_is_called_once_per_k():
    p100, p140, p30 = build_partition(100), build_partition(140), build_partition(30)
    # Coefficient denominators 4, 8, 12 and 16: the table's grows with it.
    rule = CountingRule(lambda k: Fraction((-1) ** k * (k % 5), 4 * (1 + k // 20)))
    source = GeneratorSource(rule, Fraction(1))
    fresh = lambda: GeneratorSource(rule.value, Fraction(1))  # noqa: E731
    points = _points(50)
    for x in points:
        eval_f(SaturatedFunction(p100, source), x, TOL)
    assert rule.calls == {k: 1 for k in range(51)}
    # A larger partition extends the table; a smaller one reads its prefix.
    assert eval_f(SaturatedFunction(p140, source), points[0], TOL) == eval_f(
        SaturatedFunction(p140, fresh()), points[0], TOL)
    assert rule.calls == {k: 1 for k in range(71)} and source._table(70).scale == 48
    for x in points[:10]:
        assert eval_f(SaturatedFunction(p30, source), x, TOL) == eval_f(SaturatedFunction(p30, fresh()), x, TOL)
    assert source.argmax_index(60) == 4 and source.coefficient(13) == Fraction(-3, 4)
    with pytest.raises(ValueError, match="indices start at 0"):
        source.coefficient(-1)
    assert lipschitz_lower_bound(SaturatedFunction(p140, source)) > 0
    assert rule.calls == {k: 1 for k in range(71)}


def test_generator_above_its_norm_raises_on_every_evaluation():
    rule = CountingRule(lambda k: Fraction(2) if k == 40 else Fraction(1))
    source = GeneratorSource(rule, Fraction(1))
    sf = SaturatedFunction(build_partition(100), source)
    for x in _points(5):
        with pytest.raises(ValueError, match=r"\|mu_40\| = 2 above its declared norm"):
            eval_f(sf, x, TOL)
    assert rule.calls == {k: 5 if k == 40 else 1 for k in range(41)}
    # A partition whose terms stop at k = 30 never asks for mu_40.
    assert eval_f(SaturatedFunction(build_partition(60), source), (Fraction(3, 8),), TOL).width <= TOL


def test_scaled_generator_has_its_own_table(p30):
    rule = CountingRule()
    source = GeneratorSource(rule, Fraction(1), name="counted")
    scaled = source.scaled(Fraction(3, 4))
    for x in _points(5):
        for mu, reference in ((source, ones_generator()), (scaled, ones_generator().scaled(Fraction(3, 4)))):
            assert eval_f(SaturatedFunction(p30, mu), x, TOL) == eval_f(SaturatedFunction(p30, reference), x, TOL)
    assert scaled._table(15).terms == tuple((k, 3) for k in range(16)) and scaled._table(15).scale == 4
    assert source._table(15).terms == tuple((k, 1) for k in range(16)) and source._table(15).scale == 1
    assert rule.calls == {k: 1 for k in range(16)}


def test_prefix_sums_per_table_follow_the_partition_and_the_table():
    points = _points(6)
    mu, ones = FiniteSupport.of({0: 3, 1: -5, 2: 2}), ones_generator()
    twins = lambda: (FiniteSupport.of({0: 3, 1: -5, 2: 2}), ones_generator())  # noqa: E731
    p60, p120 = build_partition(60), build_partition(120)

    def answers(p, sources):
        return [eval_f(SaturatedFunction(p, source), x, TOL) for source in sources for x in points]

    expected60, expected120 = answers(p60, twins()), answers(p120, twins())
    # ones' table grows from k = 30 to 60 and back is read on p60; both
    # sources serve two partitions, and each keeps its own sums for ones.
    assert answers(p60, (mu, ones)) == expected60
    assert answers(extend_partition(p60, 120), (mu, ones)) == expected120
    assert answers(p120, (mu, ones)) == expected120 and answers(p60, (mu, ones)) == expected60
    # _add drops the sums a partition kept before its later stages came.
    grown = SplittingPartition(p60.gap_cap, p60.stages)
    assert answers(grown, (mu, ones)) == expected60
    for record in p120.stages[60:]:
        grown._add(record)
    assert answers(grown, (mu, ones)) == expected120
    # The sums go with their table, and a finite source needs none.
    kept = len(grown._prefix_sums()[-1])
    answers(grown, twins())
    gc.collect()
    assert len(grown._prefix_sums()[-1]) == kept == 1


def test_finite_support_is_unchanged_by_evaluation(p30):
    mu = FiniteSupport.of({0: Fraction(1, 3), 1: Fraction(-5, 7), 2: 2})
    before = (hash(mu), repr(mu), mu)
    twin = FiniteSupport.of({0: Fraction(1, 3), 1: Fraction(-5, 7), 2: 2})
    eval_f(SaturatedFunction(p30, mu), (Fraction(5, 8),), TOL)
    assert mu._resolved is not None and twin._resolved is None
    assert (hash(mu), repr(mu)) == before[:2] and mu == twin == before[2]
    assert {mu: 1}[twin] == 1


def test_threads_growing_one_table_call_the_rule_once_per_k():
    partitions = [build_partition(n) for n in (30, 60, 100, 140)]
    value = lambda k: Fraction(k % 3 - 1, 2)  # noqa: E731
    x = (Fraction(5, 8),)
    expected = [eval_f(SaturatedFunction(p, GeneratorSource(value, Fraction(1, 2))), x, TOL) for p in partitions]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            rule = CountingRule(value)
            source = GeneratorSource(rule, Fraction(1, 2))
            barrier = threading.Barrier(8)

            def evaluate(i):
                barrier.wait(timeout=30)
                return eval_f(SaturatedFunction(partitions[i % 4], source), x, TOL)

            with ThreadPoolExecutor(max_workers=8) as pool:
                results = list(pool.map(evaluate, range(8), timeout=60))
            assert results == expected * 2
            assert rule.calls == {k: 1 for k in range(71)}
    finally:
        sys.setswitchinterval(interval)
