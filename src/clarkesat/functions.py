"""Certified evaluation of the Clarke-saturated function family.

The building blocks are the sign functions attached to the partition
members: for index k,

    g_k(t) = +1 on A_(2k+1), -1 on A_(2k), 0 elsewhere,

and their antiderivatives f_k(x) = integral of g_k from x0 to x.  In
dimension d the field value at x is (g_k(x_1), ..., g_k(x_d)) and the
matching potential is the separable sum of the per-coordinate integrals,
which vanishes at x0 and is 1-Lipschitz for the inputs' 1-norm.

A coefficient sequence mu (finite support, or a generator with a declared
exact sup norm) assembles f_mu = sum_k mu_k f_k.  Its Lipschitz norm equals
the sup norm of mu, every evaluation carries a certified rational error
interval, and sampled gradients report the exactly-known value mu_k * sign
wherever the partition certifies the coordinate's member, per-coordinate
independently.

All integrals reduce to certified measures of partition members inside
rational windows, so every bound here is an exact rational inequality.
They come from the depth loop of the window integrator ``partition._WindowMass``
(also behind ``measure_in``), which hands out member masses as integer
numerators over one denominator per depth; this module forms value bounds
from them on integers too, and only a bound's two ends become ``Fraction``s.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import lcm
from threading import Lock
from typing import Callable, Iterable, Sequence

from .partition import SplittingPartition, _WindowMass, _first_host
from .rationals import Interval, ONE, ValueBound, ZERO, format_rational, parse_rational, rational


# ---------------------------------------------------------------------------
# Coefficient sources
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class _Table:
    """What ``_interval_value`` needs of a coefficient source, resolved once.

    ``terms`` holds (k, w) for each nonzero mu_k in ascending k, w being
    mu_k as a numerator over ``scale``, the lcm of the denominators of the
    norm and of every coefficient; ``weight`` is the norm over ``scale``,
    ``width`` is 2 * norm, the width per unit of tail of the terms'
    correction, and ``limit`` is ``_value_limit``.  Compared and hashed by
    identity, so that a partition can keep its prefix sums per table
    (``_interval_value``).
    """

    terms: tuple[tuple[int, int], ...]
    scale: int
    weight: int
    width: Fraction
    limit: Fraction

    @cached_property
    def weights(self) -> dict[int, int]:
        """w of each term k, keyed by member 2k+1, where g_k is +1."""
        return {2 * k + 1: w for k, w in self.terms}

    @classmethod
    def of(cls, pairs: Sequence[tuple[int, Fraction]], norm: Fraction, generator: bool) -> _Table:
        """The table of the (k, mu_k) pairs, ascending in k."""
        scale = lcm(norm.denominator, *(value.denominator for _, value in pairs))
        terms = tuple((k, value.numerator * (scale // value.denominator)) for k, value in pairs if value)
        mu_0 = abs(pairs[0][1]) if pairs and pairs[0][0] == 0 else ZERO
        return cls(terms, scale, norm.numerator * (scale // norm.denominator), 2 * norm,
                   (4 if generator else 2) * norm + mu_0)


@dataclass(frozen=True)
class FiniteSupport:
    """Finitely many nonzero rational coefficients, by index."""

    entries: tuple[tuple[int, Fraction], ...]
    # Resolved on first use; a race only computes it twice.
    _resolved: _Table | None = field(default=None, init=False, repr=False, compare=False)

    @classmethod
    def of(cls, pairs) -> FiniteSupport:
        cleaned = {}
        items = pairs.items() if isinstance(pairs, dict) else pairs
        for k, value in items:
            value = rational(value)
            if k < 0:
                raise ValueError("coefficient indices start at 0")
            if k in cleaned:
                raise ValueError(f"duplicate coefficient index {k}")
            if value != 0:
                cleaned[k] = value
        return cls(tuple(sorted(cleaned.items())))

    @classmethod
    def unit(cls, k: int) -> FiniteSupport:
        return cls.of({k: ONE})

    @classmethod
    def zero(cls) -> FiniteSupport:
        return cls(())

    def coefficient(self, k: int) -> Fraction:
        for index, value in self.entries:
            if index == k:
                return value
        return ZERO

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(k for k, _ in self.entries)

    @cached_property
    def norm_inf(self) -> Fraction:
        return max((abs(v) for _, v in self.entries), default=ZERO)

    @property
    def max_index(self) -> int:
        return self.entries[-1][0] if self.entries else 0

    def argmax_index(self, limit: int | None = None) -> int:
        """Smallest index attaining the largest |coefficient| (0 if empty)."""
        return _argmax((k, v) for k, v in self.entries if limit is None or k <= limit)

    def scaled(self, factor: Fraction) -> FiniteSupport:
        return FiniteSupport.of({k: v * factor for k, v in self.entries})

    def _table(self, limit: int) -> _Table:
        """The table over every entry; limit is ignored."""
        if self._resolved is None:
            object.__setattr__(self, "_resolved", _Table.of(self.entries, self.norm_inf, False))
        return self._resolved


@dataclass(frozen=True, eq=False)
class GeneratorSource:
    """Rule k -> mu_k with a declared exact sup norm (never exceeded).

    The rule must be pure: it is called at most once per k, the first time
    mu_k or a later coefficient is needed, and each value is coerced and
    checked against the norm then.  The values mu_0, mu_1, ... are kept, up
    to the largest k asked so far, and ``coefficient``, ``argmax_index`` and
    ``_interval_value``'s table read them; a value above the norm is not
    kept, so every later call that needs it calls the rule again and raises
    again.  A negative norm is rejected at construction.
    """

    rule: Callable[[int], Fraction]
    norm_inf: Fraction
    name: str = ""
    _values: list[Fraction] = field(default_factory=list, init=False, repr=False)
    _growing: Lock = field(default_factory=Lock, init=False, repr=False)
    # (count, the table of mu_0..mu_(count-1)); a race only computes it twice.
    _resolved: tuple[int, _Table] | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        norm = rational(self.norm_inf)
        if norm < 0:
            raise ValueError(f"declared norm {norm} is negative")
        object.__setattr__(self, "norm_inf", norm)

    def coefficient(self, k: int) -> Fraction:
        if k < 0:
            raise ValueError("coefficient indices start at 0")
        return self._grown(k)[k]

    def argmax_index(self, limit: int) -> int:
        return _argmax(enumerate(self._grown(limit)[:limit + 1]))

    def scaled(self, factor: Fraction) -> GeneratorSource:
        """mu * factor, with its own values and table; its rule reads this source's values."""
        return GeneratorSource(
            lambda k: self.coefficient(k) * factor,
            self.norm_inf * abs(factor),
            name=f"{self.name}*{factor}" if self.name else "",
        )

    def _grown(self, limit: int) -> list[Fraction]:
        """The kept values, extended to mu_limit if they stop short.  The
        list only grows, and only under the lock, so a reader may index it
        below a length it has seen."""
        values = self._values
        if limit >= len(values):
            with self._growing:
                for k in range(len(values), limit + 1):
                    value = rational(self.rule(k))
                    if abs(value) > self.norm_inf:
                        raise ValueError(f"generator produced |mu_{k}| = {abs(value)} above its declared norm")
                    values.append(value)
        return values

    def _table(self, limit: int) -> _Table:
        """A table over mu_0..mu_m for some m >= limit."""
        resolved = self._resolved
        if resolved is None or resolved[0] <= limit:
            values = self._grown(limit)[:]
            resolved = len(values), _Table.of(tuple(enumerate(values)), self.norm_inf, True)
            object.__setattr__(self, "_resolved", resolved)
        return resolved[1]


CoefficientSource = FiniteSupport | GeneratorSource


def _argmax(pairs: Iterable[tuple[int, Fraction]]) -> int:
    """The k of the first (k, mu_k) pair with the largest |mu_k|; 0 if none.

    |mu_k| = |p|/q is compared with the best so far by cross-multiplication,
    so no Fraction is built.
    """
    best, top, den = 0, -1, 1
    for k, value in pairs:
        p, q = abs(value.numerator), value.denominator
        if p * den > top * q:
            best, top, den = k, p, q
    return best


def ones_generator() -> GeneratorSource:
    return GeneratorSource(lambda k: ONE, ONE, name="ones")


def parse_mu_spec(text: str) -> CoefficientSource:
    """Parse "k:p/q,k:p/q" finite supports or the named generator "ones"."""
    text = text.strip()
    if text == "ones":
        return ones_generator()
    if text in ("zero", ""):
        return FiniteSupport.zero()
    pairs = []
    for item in text.split(","):
        index_text, sep, value_text = item.partition(":")
        if not sep:
            raise ValueError(f"bad coefficient entry {item!r}; expected k:p/q")
        pairs.append((int(index_text), parse_rational(value_text)))
    return FiniteSupport.of(pairs)


def format_mu_spec(mu: CoefficientSource) -> str:
    if isinstance(mu, GeneratorSource):
        return mu.name or "<generator>"
    if not mu.entries:
        return "zero"
    return ",".join(f"{k}:{format_rational(v)}" for k, v in mu.entries)


# ---------------------------------------------------------------------------
# The function family
# ---------------------------------------------------------------------------


_UNIT_SIDE = Interval.open(0, 1)
_UNIT_CENTER = Fraction(1, 2)


def unit_box(d: int) -> tuple[Interval, ...]:
    return (_UNIT_SIDE,) * d


def box_center(domain: Sequence[Interval]) -> tuple[Fraction, ...]:
    return tuple(side.midpoint for side in domain)


def _in_box(domain: Sequence[Interval], x: Sequence) -> bool:
    """The domain-box point rule: x has one coordinate per side, and each,
    read by ``rational`` in turn, lies in its side."""
    return len(x) == len(domain) and all(side.contains(rational(c)) for side, c in zip(domain, x))


@dataclass(frozen=True)
class SaturatedFunction:
    """f_mu on an open rational box, evaluable with certified intervals.

    Immutable; evaluations are pure given the immutable partition, so
    parallel sampling is safe.
    """

    partition: SplittingPartition
    mu: CoefficientSource
    d: int = 1
    domain: tuple[Interval, ...] | None = None
    x0: tuple[Fraction, ...] | None = None

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("dimension must be >= 1")
        unit = self.domain is None
        domain = unit_box(self.d) if unit else self.domain
        if len(domain) != self.d:
            raise ValueError("domain box must have one side per dimension")
        object.__setattr__(self, "domain", tuple(domain))
        x0 = self.x0 if self.x0 is not None else (_UNIT_CENTER,) * self.d if unit else box_center(domain)
        x0 = tuple(rational(c) for c in x0)
        object.__setattr__(self, "x0", x0)
        if not _in_box(self.domain, x0):
            raise ValueError("base point must lie inside the domain box")

    def contains_point(self, x: Sequence[Fraction]) -> bool:
        return _in_box(self.domain, x)

    @property
    def norm_inf(self) -> Fraction:
        return self.mu.norm_inf

    def eval(self, x: Sequence[Fraction], tol: Fraction) -> ValueBound:
        return eval_f(self, x, tol)

    def gradient(self, x: Sequence[Fraction], depth: int = 8):
        return sample_gradient(self, x, depth)


def _g_sign(member: int, k: int) -> int:
    """g_k on A_member: +1 for member 2k+1, -1 for member 2k, 0 otherwise."""
    return 1 if member == 2 * k + 1 else -1 if member == 2 * k else 0


def eval_g(
    partition: SplittingPartition, k: int, x: Fraction, depth: int = 8
) -> int | None:
    """The certified sign of g_k at x: +1, -1, 0, or None when undecided."""
    if k < 0:
        raise ValueError("member index must be >= 0")
    answer = partition.membership(rational(x), depth)
    return _g_sign(answer.member_index, k) if answer.decided else None


_F1_SHARES = Fraction(2)  # eval_f1's tol shares, one per measure: its width tends to _F1_SHARES * tail


def eval_f1(
    partition: SplittingPartition,
    k: int,
    x0: Fraction,
    x: Fraction,
    tol: Fraction,
) -> ValueBound:
    """Certified value of f_k(x) relative to base point x0, width <= tol.

    The integral is the oriented measure difference of the two members over
    the window between the points, from one integrator scan; each measure
    gets half the tolerance.
    """
    if k < 0:
        raise ValueError("member index must be >= 0")
    tol = rational(tol)
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    x0, x = rational(x0), rational(x)
    if x == x0:
        return ValueBound(ZERO, ZERO)
    mass = _WindowMass(partition, Interval.closed(min(x0, x), max(x0, x)), tol, _F1_SHARES)
    plus = mass.measure(2 * k + 1, tol / _F1_SHARES)
    minus = mass.measure(2 * k, tol / _F1_SHARES)
    lo = plus.lo - minus.hi
    hi = plus.hi - minus.lo
    if x < x0:
        lo, hi = -hi, -lo
    return ValueBound(lo, hi)


def _interval_value(
    partition: SplittingPartition,
    mu: CoefficientSource,
    window: Interval,
    tol: Fraction,
) -> ValueBound:
    """Certified bound on the integral of sum_k mu_k g_k over the window.

    The explicit terms use built masses from the window integrator's depth
    loop; one norm * tail correction absorbs all unbuilt-stage mass, and
    generator sources additionally widen by the norm-weighted mass not yet
    attributed to any member, the width of the A_0 bound.  The bound is
    formed on integers: the source's table (resolved once per source) gives
    the coefficients and the norm as numerators over one coefficient
    denominator, and a generator's terms are its prefix up to k = N/2,
    as no member past N + 1 has mass; any common denominator gives the same
    reduced bound.  Term k reads exact[2k+1] - exact[2k], the integrator's
    ``step(2k+1)``.  A term whose members have no straddler is exact at
    every depth and summed once into ``base``: a finite source's few terms
    each by ``step``, a generator's O(N) terms all at once by
    ``_WindowMass.weighted``, from the partition's prefix sums for the
    table; each depth re-sums only the others and mu_0's term, whose
    member 0 gets the A_0 bound, over that denominator times the loop's.
    Cost per window: the integrator's, plus O(1) integer work per live
    term, and per fixed term of a finite source; for a generator, O(N)
    once per partition and table for the prefix sums, which the partition
    keeps while the source lives.
    """
    if not mu.norm_inf:
        return ValueBound(ZERO, ZERO)
    generator = isinstance(mu, GeneratorSource)
    head = mu._table(0)
    mass = _WindowMass(partition, window, tol, head.width, head.limit)
    table = mu._table(partition.stage_count // 2)
    weights = table.weights
    # The live terms, by member 2k+1: mu_0's and those with a straddled member.
    live = {j: mass.step(j) for j in {1, *(member | 1 for _, _, member in mass.straddlers)} if j in weights}
    if generator:  # over scale * mass.den
        base = mass.weighted(weights, partition._weighted(table, weights))
        base -= sum(weights[j] * step for j, step in live.items())
    else:
        base = sum(w * mass.step(j) for j, w in weights.items() if j not in live)
    exact = {0: 0} if generator else {}
    for j, step in live.items():  # exact less exact[j - 1], as the bound reads differences
        exact.update({j - 1: 0, j: step})
    scale, weight = table.scale, table.weight

    def value(masses, length, tail, den) -> tuple[int, int, int]:
        lo = hi = base * (den // mass.den)
        for j in live:
            coeff, plus, minus = weights[j], masses[j], masses[j - 1]
            term_lo, term_hi = plus[0] - minus[1], plus[1] - minus[0]
            lo += coeff * (term_lo if coeff > 0 else term_hi)
            hi += coeff * (term_hi if coeff > 0 else term_lo)
        slack = weight * tail
        if generator:
            m0_lo, m0_hi = masses[0]
            slack += weight * (m0_hi - m0_lo)
        return lo - slack, hi + slack, scale * den

    return ValueBound(*mass.bounded(exact, tol, value))


def _value_limit(mu: CoefficientSource) -> Fraction:
    """The width per unit of tail that ``_interval_value``'s bound tends to
    with depth: 2 * norm from the terms, |mu_0| from the A_0 bound, and
    2 * norm more of unresolved mass for generators; read from the source's
    table."""
    return mu._table(0).limit


def eval_f(sf: SaturatedFunction, x: Sequence[Fraction], tol: Fraction) -> ValueBound:
    """Certified value of f_mu at x, width <= tol.

    Separable: each coordinate contributes the oriented integral between
    x0_i and x_i, so the per-coordinate budget is tol / d.  Finite supports
    are summed exactly over the support; generator sources additionally
    carry the norm-weighted unresolved-mass term.
    """
    tol = rational(tol)
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    x = tuple(rational(c) for c in x)
    if not _in_box(sf.domain, x):
        raise ValueError(f"point {x} is outside the domain box")
    active = [(a, b) for a, b in zip(sf.x0, x) if a != b]
    if not active:
        return ValueBound(ZERO, ZERO)
    budget = tol / len(active) if len(active) > 1 else tol
    bounds = []
    for a, b in active:
        forward = a < b
        bound = _interval_value(sf.partition, sf.mu, Interval(a, b) if forward else Interval(b, a), budget)
        bounds.append((bound.lo, bound.hi) if forward else (-bound.hi, -bound.lo))
    lo, hi = zip(*bounds)
    return ValueBound(sum(lo[1:], lo[0]), sum(hi[1:], hi[0]))


def sample_gradient(
    sf: SaturatedFunction, x: Sequence[Fraction], depth: int = 8
) -> tuple[Fraction | None, ...]:
    """One generalized gradient sample; None marks undecided coordinates.

    Coordinate i reports mu_k times the certified sign of g_k at x_i for
    the unique member claiming x_i; partition disjointness means at most
    one index k = member // 2 can ever contribute per coordinate.  A point
    outside the domain box, or without one coordinate per side, raises
    ``eval_f``'s ValueError.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    x = tuple(rational(c) for c in x)
    if not _in_box(sf.domain, x):
        raise ValueError(f"point {x} is outside the domain box")
    out: list[Fraction | None] = []
    for c in x:
        answer = sf.partition.membership(c, depth)
        if not answer.decided:
            out.append(None)
            continue
        k = answer.member_index // 2
        out.append(sf.mu.coefficient(k) * _g_sign(answer.member_index, k))
    return tuple(out)


def lipschitz_norm(sf: SaturatedFunction) -> Fraction:
    """Exact Lipschitz norm of f_mu: the sup norm of the coefficients."""
    return sf.mu.norm_inf


def lipschitz_lower_bound(sf: SaturatedFunction, budget: int = 6) -> Fraction:
    """Certified empirical lower bound on the Lipschitz norm.

    Steers a witness pair into a deep cover piece of a set feeding the
    coefficient of largest magnitude: inside a depth-d piece the set holds
    a 2^d/(2^d+1) share of the length, so the certified difference quotient
    approaches the norm.  The returned value never exceeds the true norm.
    budget counts the depths tried.
    """
    norm = sf.mu.norm_inf
    if norm == 0:
        return ZERO
    if isinstance(sf.mu, FiniteSupport):
        k_star = sf.mu.argmax_index()
    else:
        k_star = sf.mu.argmax_index(sf.partition.stage_count // 2)
    witness_set = _first_host(sf.partition, 2 * k_star + 1)
    best = ZERO
    for depth in range(4, 4 + max(1, budget)):
        piece = witness_set.first_piece(depth)
        length = piece.length
        bound = _interval_value(
            sf.partition, sf.mu, piece.closure(), norm * length / 512
        )
        certified = max(ZERO, bound.lo, -bound.hi)
        best = max(best, certified / length)
    return best


# ---------------------------------------------------------------------------
# Affine shift: move the gradient ball to an arbitrary center
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShiftedSaturatedFunction:
    """f_mu rescaled to gradient radius r, plus the exact linear part <p, .>.

    Values are normalized to vanish at the base point, so the linear term
    enters as <p, x - x0>; sampled gradients gain p exactly.
    """

    base: SaturatedFunction
    shift: tuple[Fraction, ...]
    radius: Fraction

    @property
    def d(self) -> int:
        return self.base.d

    @property
    def x0(self) -> tuple[Fraction, ...]:
        return self.base.x0

    def eval(self, x: Sequence[Fraction], tol: Fraction) -> ValueBound:
        x = tuple(rational(c) for c in x)
        linear = sum(
            (p * (c - c0) for p, c, c0 in zip(self.shift, x, self.base.x0)), ZERO
        )
        return self.base.eval(x, tol).shift(linear)

    def gradient(self, x: Sequence[Fraction], depth: int = 8):
        sample = sample_gradient(self.base, x, depth)
        return tuple(
            None if g is None else g + p for g, p in zip(sample, self.shift)
        )

    def gradient_hull(self) -> tuple[tuple[Fraction, Fraction], ...]:
        """Per-coordinate interval [p_i - r, p_i + r] of the shifted ball."""
        return tuple((p - self.radius, p + self.radius) for p in self.shift)


def shift_to_ball(
    sf: SaturatedFunction, p: Sequence[Fraction], r: Fraction
) -> ShiftedSaturatedFunction:
    """Represent a function whose gradient ball is centered at p with radius r.

    The coefficients are rescaled so their sup norm is exactly r; r = 0
    degenerates to the plain linear function.
    """
    r = rational(r)
    if r < 0:
        raise ValueError("radius must be nonnegative")
    p = tuple(rational(c) for c in p)
    if len(p) != sf.d:
        raise ValueError("center must have one coordinate per dimension")
    norm = sf.mu.norm_inf
    if r == 0:
        mu = FiniteSupport.zero()
    elif norm == 0:
        raise ValueError("cannot rescale the zero coefficient sequence to a positive radius")
    else:
        mu = sf.mu.scaled(r / norm)
    base = SaturatedFunction(sf.partition, mu, sf.d, sf.domain, sf.x0)
    return ShiftedSaturatedFunction(base, p, r)


# ---------------------------------------------------------------------------
# Sample export
# ---------------------------------------------------------------------------


def export_samples(
    sf: SaturatedFunction,
    points: Sequence[Sequence[Fraction]],
    tol: Fraction,
    depth: int = 8,
) -> str:
    """CSV with per-point certified value bounds and gradient codes.

    Columns: one x_i per coordinate (as p/q), f_lo, f_hi, then one gradient
    code per coordinate (the exact value, or U for undecided).
    """
    header = (
        [f"x{i + 1}" for i in range(sf.d)]
        + ["f_lo", "f_hi"]
        + [f"g{i + 1}" for i in range(sf.d)]
    )
    lines = [",".join(header)]
    for point in points:
        point = tuple(rational(c) for c in point)
        bound = eval_f(sf, point, tol)
        grad = sample_gradient(sf, point, depth)
        row = [format_rational(c) for c in point]
        row += [format_rational(bound.lo), format_rational(bound.hi)]
        row += ["U" if g is None else format_rational(g) for g in grad]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"
