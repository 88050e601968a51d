"""The window integrator against a brute-force piece-by-piece reference.

The reference visits every planted piece through the public
``StageRecord.piece_host``/``member_index`` and measures straddling pieces
with ``FatCantorSet.svc_measure_in``; its depth loops and stopping rules
are the documented ones, so every bound must come out as the same
rational.  The corpus covers windows nested inside stage 1's gap (where
later gaps nest from stage 37), windows ending exactly on piece
boundaries, windows crossing an integer, a translated partition, and the
``ones`` generator.
"""

from fractions import Fraction
from math import floor, lcm
from typing import Callable

import pytest

from clarkesat import functions as functions_module
from clarkesat import partition as partition_module
from clarkesat.cantor import FatCantorSet, MeasureBound
from clarkesat.cli import main
from clarkesat.errors import ToleranceExhausted
from clarkesat.functions import (
    FiniteSupport,
    GeneratorSource,
    SaturatedFunction,
    ValueBound,
    _interval_value,
    _value_limit,
    eval_f,
    eval_f1,
    ones_generator,
)
from clarkesat.partition import (
    _MAX_MEASURE_DEPTH,
    RETAINED,
    SplittingPartition,
    _WindowMass,
    build_partition,
    save,
    stage_tail_bound,
)
from clarkesat.rationals import ZERO, Interval
from reference import refine

MAX_DEPTH = 64
F = Fraction


# -- brute-force reference ----------------------------------------------------


class Scan:
    """Every piece of every stage, classified against the window's unit chunks."""

    def __init__(self, partition, window):
        self.length = Fraction(0)
        self.exact = {}
        self.straddlers = []
        self.tail = partition.unbuilt_tail_bound()
        lo, hi = window.lo - partition.translation, window.hi - partition.translation
        m = floor(lo)
        while m < hi:
            chunk = Interval.closed(max(lo, m) - m, min(hi, m + 1) - m)
            m += 1
            if not chunk.is_nontrivial:
                continue
            self.length += chunk.length
            for record in partition.stages:
                for i in range(record.piece_count):
                    host, member = record.piece_host(i), record.member_index(i)
                    if member == 0 or not host.overlaps_nontrivially(chunk):
                        continue
                    if chunk.lo <= host.lo and host.hi <= chunk.hi:
                        self.exact[member] = self.exact.get(member, 0) + RETAINED * host.length
                    else:
                        self.straddlers.append((FatCantorSet(host, RETAINED), chunk, member))

    def built(self, depth):
        bounds = {member: (m, m) for member, m in self.exact.items()}
        for cantor_set, chunk, member in self.straddlers:
            bound = cantor_set.svc_measure_in(chunk, depth)
            lo, hi = bounds.get(member, (0, 0))
            bounds[member] = (lo + bound.lo, hi + bound.hi)
        return bounds

    def measure(self, k, tol):
        for depth in range(MAX_DEPTH + 1):
            built = self.built(depth)
            if k == 0:
                lo = sum(b[0] for b in built.values())
                hi = sum(b[1] for b in built.values())
                result = MeasureBound(max(0, self.length - hi - self.tail), self.length - lo)
            else:
                lo, hi = built.get(k, (0, 0))
                result = MeasureBound(lo, min(self.length, hi + self.tail))
            if result.width <= tol:
                return result
        raise AssertionError("reference did not converge")

    def value(self, mu, indices, generator, tol):
        norm = mu.norm_inf
        for depth in range(MAX_DEPTH + 1):
            built = self.built(depth)
            lo_sum = sum(b[0] for b in built.values())
            hi_sum = sum(b[1] for b in built.values())
            m0_lo = max(0, self.length - hi_sum - self.tail)
            built[0] = (m0_lo, max(m0_lo, self.length - lo_sum))
            lo = hi = 0
            for k in indices:
                coeff = mu.coefficient(k)
                plus, minus = built.get(2 * k + 1, (0, 0)), built.get(2 * k, (0, 0))
                term = (plus[0] - minus[1], plus[1] - minus[0])
                lo += coeff * (term[0] if coeff > 0 else term[1])
                hi += coeff * (term[1] if coeff > 0 else term[0])
            slack = norm * self.tail
            if generator:
                slack += norm * max(0, self.length - m0_lo - lo_sum)
            result = ValueBound(lo - slack, hi + slack)
            if result.width <= tol:
                return result
        raise AssertionError("reference did not converge")


def reference_eval_f1(scan, k, x0, x, tol):
    plus, minus = scan.measure(2 * k + 1, tol / 2), scan.measure(2 * k, tol / 2)
    lo, hi = plus.lo - minus.hi, plus.hi - minus.lo
    return ValueBound(-hi, -lo) if x < x0 else ValueBound(lo, hi)


def reference_eval_f(sf, x, tol, scans):
    """eval_f from brute-force scans, cached in ``scans`` by window."""
    generator = not isinstance(sf.mu, FiniteSupport)
    indices = range(sf.partition.stage_count // 2 + 1) if generator else sf.mu.support
    active = [i for i in range(sf.d) if x[i] != sf.x0[i]]
    lo = hi = Fraction(0)
    for i in active:
        a, b = sf.x0[i], x[i]
        window = (min(a, b), max(a, b))
        if window not in scans:
            scans[window] = Scan(sf.partition, Interval.closed(*window))
        bound = scans[window].value(sf.mu, indices, generator, tol / len(active))
        if b < a:
            bound = ValueBound(-bound.hi, -bound.lo)
        lo, hi = lo + bound.lo, hi + bound.hi
    return ValueBound(lo, hi)


# -- corpus -------------------------------------------------------------------


@pytest.fixture(scope="module", params=[30, 100])
def partition(request):
    return build_partition(request.param)


def corpus_windows(p):
    """(lo, hi) pairs: nested-gap, piece-boundary and integer-crossing windows."""
    stage1 = p.stage(1)
    nested = p.stage(37) if p.stage_count >= 37 else p.stage(p.stage_count)
    windows = [
        (F(5, 12) + F(1, 97), F(7, 12) - F(1, 89)),  # inside stage 1's gap
        (nested.gap.lo, nested.gap.hi),
        (nested.gap.lo - F(1, 2**20), nested.piece_host(nested.n // 2).hi + F(1, 3**15)),
        (nested.piece_host(2).lo + nested.piece_width / 3,  # straddles nested pieces
         nested.piece_host(nested.n // 2).hi - nested.piece_width / 7),
        (stage1.piece_host(0).hi, stage1.piece_host(1).hi),  # both ends on boundaries
        (stage1.gap.lo, stage1.gap.hi),
    ]
    for record in (p.stage(2), p.stage(7), p.stage(p.stage_count)):
        windows.append((record.piece_host(1).lo, record.piece_host(record.n - 1).hi))
        windows.append((record.piece_host(0).hi, record.piece_host(record.n).lo))
    windows += [
        (F(1, 3), F(2, 3)),
        (F(-1, 3), F(1, 3)),  # crosses 0
        (F(2, 3), F(7, 4)),  # crosses 1
        (F(-5, 2), F(1, 7)),  # several whole unit chunks
    ]
    return windows


def test_measure_in_matches_reference(partition):
    shifted = SplittingPartition(partition.gap_cap, partition.stages, 3)
    n = partition.stage_count
    for lo, hi in corpus_windows(partition):
        window = Interval.closed(lo, hi)
        scan = Scan(partition, window)
        moved = Interval.closed(lo + 3, hi + 3)
        for tol in (F(1, 2**10), F(1, 2**24)):
            for k in (0, 1, 2, 3, n // 2, n, n + 1):
                expected = scan.measure(k, tol)
                assert partition.measure_in(k, window, tol) == expected, (k, lo, hi, tol)
                assert shifted.measure_in(k, moved, tol) == expected


def test_eval_f1_matches_reference(partition):
    tol = F(1, 10**6)
    for lo, hi in corpus_windows(partition):
        scan = Scan(partition, Interval.closed(lo, hi))
        for k in (0, 1, 3):
            for x0, x in ((lo, hi), (hi, lo)):
                assert eval_f1(partition, k, x0, x, tol) == reference_eval_f1(scan, k, x0, x, tol)


def test_eval_f_matches_reference(partition):
    domain = (Interval.open(-3, 3),)
    sources = (
        FiniteSupport.of({0: 3, 1: -5, 2: 2}),
        FiniteSupport.of({5: F(-1, 3), 18: 2}),
        ones_generator(),
    )
    scans = {}
    for mu in sources:
        sf = SaturatedFunction(partition, mu, 1, domain, (F(1, 2),))
        for lo, hi in corpus_windows(partition):
            for x in (lo, hi):
                if x == F(1, 2):
                    continue
                for tol in (F(1, 10**6), F(1, 2**24)):
                    expected = reference_eval_f(sf, (x,), tol, scans)
                    assert eval_f(sf, (x,), tol) == expected, (x, tol)
    sf2 = SaturatedFunction(partition, FiniteSupport.unit(0), 2)
    for x in ((F(5, 12), F(7, 12)), (F(1, 7), F(13, 16))):
        assert eval_f(sf2, x, F(1, 10**6)) == reference_eval_f(sf2, x, F(1, 10**6), scans)


def test_member_additivity_at_100_stages():
    p = build_partition(100)
    tol = F(1, 2**10)
    for window in (
        Interval.closed(F(1, 2), F(7, 8)),
        Interval.closed(F(5, 12), F(7, 12)),  # holds the gaps nested from stage 37
        Interval.closed(p.stage(37).gap.lo, p.stage(37).gap.hi),
    ):
        bounds = [p.measure_in(k, window, tol) for k in range(p.stage_count + 1)]
        assert sum(b.lo for b in bounds) <= window.length <= sum(b.hi for b in bounds)


# -- tail exhaustion ----------------------------------------------------------


def smallest_sufficient(limit, tol):
    m = 1
    while limit * stage_tail_bound(m, F(1)) >= tol:
        m += 1
    return m


def test_tail_exhaustion_names_sufficient_stage_count():
    tol = F(1, 2**40)
    p30 = build_partition(30)
    tail = p30.unbuilt_tail_bound()

    def value(mu):
        return lambda p: eval_f(SaturatedFunction(p, mu), (F(2, 3),), tol)

    # (forced width / tail, limit width / tail, sufficient stage count, query)
    cases = (
        (1, 1, 39, lambda p: p.measure_in(1, Interval.closed(0, 1), tol)),
        (1, 1, 39, lambda p: p.measure_in(0, Interval.closed(F(1, 3), F(2, 3)), tol)),
        (2, 2, 40, lambda p: eval_f1(p, 0, F(1, 3), F(2, 3), tol)),
        (2, 2, 40, value(FiniteSupport.of({1: -1}))),
        (2, 3, 41, value(FiniteSupport.unit(0))),  # the A_0 bound carries the tail once more
        (10, 13, 43, value(FiniteSupport.of({0: 3, 1: -5}))),
        (2, 5, 41, value(ones_generator())),  # generators add the unresolved mass
    )
    for scale, limit, needed, query in cases:
        assert smallest_sufficient(limit, tol) == needed
        with pytest.raises(ToleranceExhausted) as excinfo:
            query(p30)
        message = str(excinfo.value)
        assert f"width {scale * tail} " in message
        assert f"at least {needed} stages" in message
        if scale == limit:  # then the tail check alone rejects one stage fewer
            with pytest.raises(ToleranceExhausted):
                query(build_partition(needed - 1))
        assert query(build_partition(needed)).width <= tol


def test_cli_tolerance_exit_names_stage_count(tmp_path, capsys):
    path = tmp_path / "p30.splitpart"
    save(build_partition(30), path)
    code = main(["eval", "--partition", str(path), "--mu", "0:1/1", "--x", "2/3",
                 "--tol", f"1/{2**40}"])
    assert code == 4
    assert "at least 41 stages" in capsys.readouterr().err


def test_tail_exhaustion_stage_count_under_gap_caps():
    for cap in (F(1), F(1, 3), F(1, 2**20), F(5, 2**33)):
        p = build_partition(5, cap)
        tail = p.unbuilt_tail_bound()
        for tol in (tail, tail / 3, tail / 2**9, tail * F(2, 3**30), F(1, 10**40)):
            needed = 6
            while stage_tail_bound(needed, cap) >= tol:
                needed += 1
            with pytest.raises(ToleranceExhausted, match=f"at least {needed} stages"):
                p.measure_in(1, Interval.closed(0, 1), tol)


def test_depth_limit_exhaustion_names_sufficient_stage_count(tmp_path, capsys):
    # With `ones` the tail check (2 * tail < tol) passes at N = 40, but the
    # bound tends to 5 * tail >= tol, so only the depth limit stops it.
    tol = F(1, 2**40)
    needed = smallest_sufficient(5, tol)
    assert needed == 41

    def query(p):
        return eval_f(SaturatedFunction(p, ones_generator()), (F(2, 3),), tol)

    exhausted = f"by depth 65; rebuild with at least {needed} stages"
    with pytest.raises(ToleranceExhausted, match=exhausted):
        query(build_partition(40))
    assert query(build_partition(needed)).width <= tol
    path = tmp_path / "p40.splitpart"
    save(build_partition(40), path)
    code = main(["eval", "--partition", str(path), "--mu", "ones", "--x", "2/3",
                 "--tol", f"1/{2**40}"])
    assert code == 4
    assert f"at least {needed} stages" in capsys.readouterr().err


# -- integer whole-piece sums -------------------------------------------------


def fraction_interval_value(partition, mu, window, tol):
    """``_interval_value``'s bound, and its fixed terms, with every
    whole-piece mass a Fraction and the fixed terms summed term by term."""
    norm = mu.norm_inf
    generator = isinstance(mu, GeneratorSource)
    limit = (4 if generator else 2) * norm + abs(mu.coefficient(0))
    mass = _WindowMass(partition, window, tol, 2 * norm, limit)
    terms = mu.entries if not generator else [
        (k, c) for k in range(partition.stage_count // 2 + 1) if (c := mu.coefficient(k))
    ]
    straddled = {member for _, _, member in mass.straddlers}
    live = [(k, c) for k, c in terms if k == 0 or not straddled.isdisjoint((2 * k, 2 * k + 1))]
    fixed = [(k, c) for k, c in terms if k != 0 and straddled.isdisjoint((2 * k, 2 * k + 1))]
    exact = mass.exact({j for k, _ in fixed for j in (2 * k, 2 * k + 1)})
    exact = {j: Fraction(m, mass.den) for j, m in exact.items()}
    base = sum((c * (exact[2 * k + 1] - exact[2 * k]) for k, c in fixed), Fraction(0))
    members = {j for k, _ in live for j in (2 * k, 2 * k + 1)} | ({0} if generator else set())

    def value(masses):
        lo = hi = base
        for k, c in live:
            plus, minus = masses[2 * k + 1], masses[2 * k]
            term = (plus[0] - minus[1], plus[1] - minus[0])
            lo += c * (term[0] if c > 0 else term[1])
            hi += c * (term[1] if c > 0 else term[0])
        slack = norm * mass.tail
        if generator:
            slack += norm * (masses[0][1] - masses[0][0])
        return ValueBound(lo - slack, hi + slack)

    return refine(mass, members, tol, value), fixed


def straddled_indices(partition, window):
    """The indices k >= 1 with a member that a piece straddles in the window."""
    mass = _WindowMass(partition, window, F(1, 2**24))
    return sorted({member // 2 for _, _, member in mass.straddlers} - {0})


def test_integer_base_is_bit_identical_to_the_fraction_sum(partition):
    sources = (FiniteSupport.of({0: F(1, 3), 1: F(-5, 7), 2: 2}), ones_generator().scaled(F(3, 4)))
    with_fixed = with_straddled_only = 0
    for lo, hi in corpus_windows(partition):
        window = Interval.closed(lo, hi)
        straddled = straddled_indices(partition, window)[:3]
        # Every term straddled, so no term is fixed and the lcm is of nothing.
        everything = FiniteSupport.of({0: F(1, 5)} | {k: F(-3, 2) if k % 2 else F(7, 3) for k in straddled})
        for mu in (*sources, everything):
            for tol in (F(1, 10**6), F(1, 2**24)):
                expected, fixed = fraction_interval_value(partition, mu, window, tol)
                assert _interval_value(partition, mu, window, tol) == expected, (lo, hi, tol)
                with_fixed += bool(fixed)
                if mu is everything:
                    assert fixed == []
                    with_straddled_only += bool(straddled)
    assert with_fixed and with_straddled_only


def test_exact_hands_out_integer_numerators(partition):
    tol = F(1, 2**24)
    n = partition.stage_count
    for lo, hi in corpus_windows(partition):
        window = Interval.closed(lo, hi)
        scan = Scan(partition, window)
        mass = _WindowMass(partition, window, tol)
        exact = mass.exact(set(range(n + 2)))
        straddled = {member for _, _, member in mass.straddlers}
        for j, m in exact.items():
            assert type(m) is int
            assert F(m, mass.den) == scan.exact.get(j, 0), (j, lo, hi)
            if j and j not in straddled:
                assert partition.measure_in(j, window, tol).lo == F(m, mass.den)
        for k in (0, 1, n // 2):
            assert eval_f1(partition, k, lo, hi, tol) == reference_eval_f1(scan, k, lo, hi, tol)


# -- the Fraction depth loop the integer one replaced -------------------------


class FractionWindowMass(_WindowMass):
    """``_WindowMass`` with its depth loop as it was before it ran on
    integers: masses, sums and bounds are ``Fraction``s, and every depth
    re-measures each straddler with ``svc_measure_in`` from the root."""

    def refine(self, members: set[int], tol: Fraction, bound: Callable):
        """bound(masses) at the first depth 0..64 where its width is <= tol.

        masses maps each requested member to its built (lo, hi); member 0
        gets the A_0 bound (max(0, L - hi_sum - tail), L - lo_sum) over all
        members, whose width is the mass no member accounts for yet.  Only
        the requested members' straddlers are re-measured, all for member 0.
        """
        exact = {j: Fraction(m, self.den) for j, m in self.exact(members).items()}
        everything = 0 in members
        total = Fraction(self.total, self.den) if everything else ZERO
        straddlers = [s for s in self.straddlers if everything or s[2] in members]
        for depth in range(_MAX_MEASURE_DEPTH + 1):
            masses = {j: (m, m) for j, m in exact.items()}
            lo_sum = hi_sum = total
            for cantor_set, chunk, member in straddlers:
                part = cantor_set.svc_measure_in(chunk, depth)
                lo_sum += part.lo
                hi_sum += part.hi
                if member in masses:
                    lo, hi = masses[member]
                    masses[member] = (lo + part.lo, hi + part.hi)
            if everything:
                masses[0] = (max(ZERO, self.length - hi_sum - self.tail), self.length - lo_sum)
            result = bound(masses)
            if result.width <= tol:
                return result
        raise ToleranceExhausted(
            f"could not reach tolerance {tol} by depth {_MAX_MEASURE_DEPTH + 1};"
            f" rebuild with at least {self._needed()} stages"
        )

    def measure(self, k: int, tol: Fraction) -> MeasureBound:
        """Bound on lambda(A_k within the window), refined until width <= tol."""
        if k == 0:
            return self.refine({0}, tol, lambda masses: MeasureBound(*masses[0]))
        return self.refine({k}, tol, lambda masses: MeasureBound(
            masses[k][0], min(self.length, masses[k][1] + self.tail)))


def fraction_loop_interval_value(partition, mu, window, tol):
    """``_interval_value`` over ``FractionWindowMass``, its bound formed in ``Fraction``s."""
    norm = mu.norm_inf
    if norm == 0:
        return ValueBound(ZERO, ZERO)
    generator = isinstance(mu, GeneratorSource)
    mass = FractionWindowMass(partition, window, tol, 2 * norm, _value_limit(mu))
    terms = mu.entries if not generator else [
        (k, coeff) for k in range(partition.stage_count // 2 + 1) if (coeff := mu.coefficient(k))
    ]
    straddled = {member for _, _, member in mass.straddlers}
    live = [(k, c) for k, c in terms if k == 0 or not straddled.isdisjoint((2 * k, 2 * k + 1))]
    fixed = [(k, c) for k, c in terms if k != 0 and straddled.isdisjoint((2 * k, 2 * k + 1))]
    exact = mass.exact({j for k, _ in fixed for j in (2 * k, 2 * k + 1)})
    scale = lcm(*(coeff.denominator for _, coeff in fixed))
    base = Fraction(sum(coeff.numerator * (scale // coeff.denominator) * (exact[2 * k + 1] - exact[2 * k])
                        for k, coeff in fixed), scale * mass.den)
    members = {j for k, _ in live for j in (2 * k, 2 * k + 1)} | ({0} if generator else set())

    def value(masses) -> ValueBound:
        lo = hi = base
        for k, coeff in live:
            plus, minus = masses[2 * k + 1], masses[2 * k]
            term_lo, term_hi = plus[0] - minus[1], plus[1] - minus[0]
            lo += coeff * (term_lo if coeff > 0 else term_hi)
            hi += coeff * (term_hi if coeff > 0 else term_lo)
        slack = norm * mass.tail
        if generator:
            m0_lo, m0_hi = masses[0]
            slack += norm * (m0_hi - m0_lo)
        return ValueBound(lo - slack, hi + slack)

    return mass.refine(members, tol, value)


def outcome(query):
    """query()'s answer, or the type and message of the ToleranceExhausted it raises."""
    try:
        return query()
    except ToleranceExhausted as error:
        return type(error), str(error)


def fraction_loop_outcome(query):
    """``outcome`` with ``measure_in``, ``eval_f1`` and ``eval_f`` on the Fraction depth loop."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(partition_module, "_WindowMass", FractionWindowMass)
        patch.setattr(functions_module, "_WindowMass", FractionWindowMass)
        patch.setattr(functions_module, "_interval_value", fraction_loop_interval_value)
        return outcome(query)


VALUE_SOURCES = (
    FiniteSupport.of({0: 3, 1: -5, 2: 2}),
    FiniteSupport.of({0: F(1, 3), 1: F(-5, 7), 2: 2}),
    FiniteSupport.of({5: F(-1, 3), 18: 2}),
    ones_generator(),
    ones_generator().scaled(F(3, 4)),
)


def assert_loops_agree(p, windows, tols, members):
    """Every ``_interval_value``, ``measure_in``, ``eval_f1`` and ``eval_f``
    answer over the windows equals the Fraction loop's, message for message.
    Two more tolerances per window are widths the Fraction loop stops at,
    so a bound exactly as wide as the tolerance must be accepted."""
    for lo, hi in windows:
        window = Interval.closed(lo, hi)
        widths = {fraction_loop_outcome(lambda: p.measure_in(1, window, tols[0])).width,
                  fraction_loop_interval_value(p, VALUE_SOURCES[0], window, tols[0]).width}
        for tol in (*tols, *sorted(widths - {0})):
            queries = [(lambda k=k: p.measure_in(k, window, tol)) for k in members]
            queries += [(lambda k=k, a=a, b=b: eval_f1(p, k, a, b, tol))
                        for k in (0, 1, 3) for a, b in ((lo, hi), (hi, lo))]
            for mu in VALUE_SOURCES:
                sf = SaturatedFunction(p, mu, 1, (Interval.open(-3, 3),), (F(1, 2),))
                queries.append(lambda sf=sf: eval_f(sf, (hi,), tol))
                assert outcome(lambda: _interval_value(p, mu, window, tol)) == outcome(
                    lambda: fraction_loop_interval_value(p, mu, window, tol)), (lo, hi, tol, mu)
            for query in queries:
                assert outcome(query) == fraction_loop_outcome(query), (lo, hi, tol)


def test_integer_loop_is_bit_identical_to_the_fraction_loop(partition):
    n = partition.stage_count
    assert_loops_agree(partition, corpus_windows(partition), (F(1, 2**10), F(1, 10**6), F(1, 2**24)),
                       (0, 1, 2, 3, n // 2, n, n + 1))


@pytest.fixture(scope="module")
def build_2000():
    return build_partition(2000)


def test_integer_loop_is_bit_identical_to_the_fraction_loop_at_2000_stages(build_2000):
    # Windows meeting the dug stages from 1515 on, whose pieces sit at depth 8.
    dug = next(r for r in build_2000.stages if r.depth_used == 8)
    windows = corpus_windows(build_2000)[:6] + [
        (dug.gap.lo, dug.gap.hi),
        (dug.piece_host(3).lo + dug.piece_width / 3, dug.piece_host(700).hi - dug.piece_width / 5),
        (F(5, 8), F(5, 8) + F(1, 2**12)),
    ]
    assert_loops_agree(build_2000, windows, (F(1, 10**6), F(1, 2**30)), (0, 1, 3, 1000, 2000))


def test_depth_limit_message_is_the_fraction_loops():
    # The tail check passes at N = 40 and 2^-40, but `ones` tends to 5 * tail
    # >= tol, so both loops run out at depth 65.
    p = build_partition(40)
    query = lambda: eval_f(SaturatedFunction(p, ones_generator()), (F(2, 3),), F(1, 2**40))  # noqa: E731
    expected = fraction_loop_outcome(query)
    assert expected[0] is ToleranceExhausted and "by depth 65" in expected[1]
    assert outcome(query) == expected
