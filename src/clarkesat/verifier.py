"""Machine-checkable certificates about the function family.

A saturation certificate pins down, for every coefficient index up to a
truncation K and every sign pattern of the coordinates, a product set of
positive measure inside a box around the query point on which the gradient
is exactly the coefficient times the sign pattern.  Every listed bound is a
strict rational inequality of the form lambda(A_j within window) >= rho *
piece length > 0, so the certificate can be replayed without floating
point.  The full gradient ball is never computed, only inner-approximated;
the matching outer bound is the Lipschitz norm ball, known analytically.

Certificates are monotone: more stages or depth never invalidate them.
Witness searches walk the built stage records rather than sampling, so
results are deterministic and hits are guaranteed once the partition
reaches far enough.  A saturation certificate lists each coordinate
window's overlapping stages once and finds every member's first whole
piece in one pass over them, on the windows' integer ends; its vertices
pair the sign patterns with the product of each coordinate's two witnesses.
The fingerprint reads one membership per witness point, a point built from
its host stage's integer geometry, and derives every g_k sign from it.
``certify_saturation`` keeps its witness table, each window's member ->
(stage, piece, bound) dict and the rows (k, mu_k), and builds the
(K + 1) * 2^d vertices from it only when they are first read.
``SaturationCertificate.check`` reads the table, so a certify + check
answer costs the window listing plus O(d * K) integer work; a certificate
built from a vertex tuple is checked against its conclusion corner by
corner.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product, repeat
from math import prod
from typing import Sequence

from .cantor import _children
from .errors import NotYetCovered
from .functions import SaturatedFunction, ShiftedSaturatedFunction, _g_sign
from .partition import RETAINED, SplittingPartition, _NoDefault, _first_piece, _not_yet_covered, _whole_pieces
from .rationals import Interval, ZERO, format_rational, rational


@dataclass(frozen=True, slots=True)
class CoordinateWitness:
    """lambda(A_member within window) >= lower_bound > 0, via one whole piece."""

    member: int
    stage: int
    piece: int
    window: Interval
    lower_bound: Fraction


@dataclass(frozen=True, slots=True)
class VertexWitness:
    """Positive-measure witness that the gradient value mu_k * vertex occurs."""

    k: int
    coefficient: Fraction
    vertex: tuple[int, ...]
    coordinates: tuple[CoordinateWitness, ...]

    @property
    def value(self) -> tuple[Fraction, ...]:
        return tuple(self.coefficient * v for v in self.vertex)

    @property
    def product_lower_bound(self) -> Fraction:
        bound = Fraction(1)
        for witness in self.coordinates:
            bound *= witness.lower_bound
        return bound


@dataclass(frozen=True)
class SaturationCertificate:
    """Inner approximation of the gradient hull at a point.

    The conclusion is that the convex hull of the certified gradient values
    contains the cube of radius m = max over k <= K of |mu_k|, shifted by
    the affine part when present.  Truncation honesty: m is reported for
    the inspected prefix only, never silently promoted to the full norm.

    ``certify_saturation`` makes the certificate from its witness table
    (``_from_table``): per coordinate window the member -> (stage, piece,
    bound) dict of its witnesses, and the rows (k, mu_k).  The vertices are
    then built from the table on first read, each (coordinate, member) pair
    as one shared ``CoordinateWitness``.  ``==``, ``hash``, ``repr``,
    ``pickle`` and ``replace`` are over the fields, vertices included.
    """

    point: tuple[Fraction, ...]
    radius: Fraction
    truncation: int
    m: Fraction
    vertices: tuple[VertexWitness, ...]
    shift: tuple[Fraction, ...] = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.shift is None:
            object.__setattr__(self, "shift", tuple(ZERO for _ in self.point))

    @classmethod
    def _from_table(cls, point, radius, truncation, m, table, shift=None) -> SaturationCertificate:
        """The certificate whose vertices the witness table (windows, found,
        rows) gives: found holds one member -> (stage, piece, bound) dict per
        coordinate window, with members 2k and 2k+1 for each row (k, mu_k)."""
        certificate = cls.__new__(cls)
        certificate.__dict__.update(point=point, radius=radius, truncation=truncation, m=m, _table=table,
                                    shift=tuple(ZERO for _ in point) if shift is None else shift)
        return certificate

    @_NoDefault
    def vertices(self) -> tuple[VertexWitness, ...]:  # the field's value: set by __init__, or built here from the table
        # Pattern c takes, at coordinate i, the witness of member 2k for
        # c_i = -1 and of 2k+1 for c_i = +1: the patterns in product order
        # pair with the product of the coordinates' (2k, 2k+1) witness pairs.
        windows, found, rows = self._table
        witnesses = [
            {member: CoordinateWitness(member, stage, piece, window, bound)
             for member, (stage, piece, bound) in by_member.items()}
            for window, by_member in zip(windows, found)
        ]
        patterns = list(product((-1, 1), repeat=len(witnesses)))
        vertices = []
        for k, coefficient in rows:
            pairs = [(by_member[2 * k], by_member[2 * k + 1]) for by_member in witnesses]
            vertices += map(VertexWitness, repeat(k), repeat(coefficient), patterns, product(*pairs))
        return tuple(vertices)

    @property
    def d(self) -> int:
        return len(self.point)

    def hull_intervals(self) -> tuple[tuple[Fraction, Fraction], ...]:
        """Per-coordinate hull [shift_i - m, shift_i + m]."""
        return tuple((p - self.m, p + self.m) for p in self.shift)

    def certified_values(self) -> set[tuple[Fraction, ...]]:
        return {
            tuple(v + p for v, p in zip(witness.value, self.shift))
            for witness in self.vertices
        }

    def check(self) -> bool:
        """Replay the certificate: positivity plus exact hull containment.

        Every coordinate bound must be positive (its numerator is), which
        makes every product set positive too.  Unless m = 0, every corner of
        the claimed cube, a choice of one end of each of the first d
        ``hull_intervals()``, must be one of the ``certified_values()``.

        Table rule, for a certificate from ``certify_saturation``: every row
        (k, mu_k) needs members 2k and 2k+1 in each coordinate's table with a
        positive bound, and unless m = 0 some row needs |mu_k| = |m|.  The
        row's vertices pair mu_k with every sign pattern, the full product
        {-1, 1}^d, so that row alone covers every corner of any width up to
        d.  The check reads the table and builds no vertex.

        Corner rule, for a certificate with a vertex tuple (the public
        constructor or ``replace``), whose vertices need not form a product:
        the statement above as written, one set lookup per corner, so its
        cost grows as 2^d.
        """
        table = self.__dict__.get("_table")
        if table is not None:
            _, found, rows = table
            members = [j for k, _ in rows for j in (2 * k, 2 * k + 1)]
            if not all(j in by_member and by_member[j][2].numerator > 0 for by_member in found for j in members):
                return False
            size = abs(self.m.numerator), self.m.denominator
            return size[0] == 0 or any((abs(c.numerator), c.denominator) == size for _, c in rows)
        if any(coord.lower_bound.numerator <= 0 for w in self.vertices for coord in w.coordinates):
            return False
        if self.m.numerator == 0:
            return True
        values = self.certified_values()
        return all(corner in values for corner in product(*self.hull_intervals()[:self.d]))

    def render(self) -> str:
        lines = [
            "saturation certificate",
            f"  point: ({', '.join(format_rational(c) for c in self.point)})",
            f"  radius: {format_rational(self.radius)}"
            f"  truncation: {self.truncation}"
            f"  m: {format_rational(self.m)}",
        ]
        if any(p != 0 for p in self.shift):
            lines.append(
                f"  shift: ({', '.join(format_rational(p) for p in self.shift)})"
            )
        # A certificate holds 2d(K + 1) distinct coordinate witnesses behind
        # its (K + 1) * 2^d vertices, so each coordinate line and each value
        # entry is formatted once, keyed by the objects, which the vertices
        # keep alive; a product bound is one Fraction of the integer
        # products of its coordinates' numerators and denominators.
        coordinate_lines, value_texts = {}, {}
        for witness in sorted(self.vertices, key=lambda w: (w.k, w.vertex)):
            pattern = ",".join("+1" if v > 0 else "-1" for v in witness.vertex)
            coefficient = witness.coefficient
            values = []
            for v in witness.vertex:
                text = value_texts.get((id(coefficient), v))
                if text is None:
                    text = value_texts[id(coefficient), v] = format_rational(coefficient * v)
                values.append(text)
            rows = []
            for i, coord in enumerate(witness.coordinates):
                row = coordinate_lines.get((i, id(coord)))
                if row is None:
                    bound = coord.lower_bound
                    row = coordinate_lines[i, id(coord)] = (
                        f"    coordinate {i + 1}: member {coord.member}"
                        f" stage {coord.stage} piece {coord.piece}"
                        f" window {coord.window}"
                        f" lambda>={format_rational(bound)}",
                        bound.numerator, bound.denominator,
                    )
                rows.append(row)
            measure = Fraction(prod(num for _, num, _ in rows), prod(den for *_, den in rows))
            lines.append(
                f"  k={witness.k} vertex=({pattern})"
                f" value=({', '.join(values)})"
                f" measure>={format_rational(measure)}"
            )
            lines += (line for line, _, _ in rows)
        hull = self.hull_intervals()
        hull_text = " x ".join(
            f"[{format_rational(lo)},{format_rational(hi)}]" for lo, hi in hull
        )
        lines.append(f"  conclusion: gradient hull contains {hull_text}")
        return "\n".join(lines)


def saturation_windows(
    domain: Sequence[Interval], x: tuple[Fraction, ...], r: Fraction
) -> list[Interval]:
    """The coordinate windows (x_i - r/d, x_i + r/d) of the box of 1-norm
    radius r > 0 around x, d = len(x); ValueError unless x lies in the open
    domain box and every window inside its side.

    A certificate at x takes each member's witness in window i from the
    first stage with a whole piece of it there.  Stage
    first_index_inside(W_i, 2K+1) lays a whole piece of every member
    0..2K+1 inside W_i, so stages 1..M, M the largest of those indices over
    the windows, give the same certificate as any longer partition.
    """
    if not (len(x) == len(domain) and all(side.contains(c) for side, c in zip(domain, x))):
        raise ValueError(f"point {x} is outside the domain box")
    windows = _box(x, r)
    for side, c, window in zip(domain, x, windows):
        if not side.contains_interval(window):
            raise ValueError(
                f"the radius-{r} box around {c} leaves the domain side {side}"
            )
    return windows


def _box(x: tuple[Fraction, ...], r: Fraction) -> list[Interval]:
    """The coordinate windows (x_i - r/d, x_i + r/d) of the box of 1-norm radius r > 0 around x.

    With x_i = p/q and r/d = u/v, each end is one Fraction (p*v -+ u*q) / (q*v).
    """
    u, v = r.numerator, r.denominator * len(x)
    return [
        Interval(Fraction(p * v - u * q, q * v), Fraction(p * v + u * q, q * v), False, False)
        for p, q in ((c.numerator, c.denominator) for c in x)
    ]


def _check_radius_and_truncation(r: Fraction, K: int) -> None:
    if r <= 0:
        raise ValueError("radius must be positive")
    if K < 0:
        raise ValueError("truncation must be >= 0")


def certificate_windows(
    domain: Sequence[Interval], x: tuple[Fraction, ...], r: Fraction, K: int
) -> list[Interval]:
    """``saturation_windows`` after the other checks ``certify_saturation``
    makes before its first stage query: r > 0 and K >= 0."""
    _check_radius_and_truncation(r, K)
    return saturation_windows(domain, x, r)


def certify_saturation(
    sf: SaturatedFunction | ShiftedSaturatedFunction,
    x: Sequence[Fraction],
    r: Fraction,
    K: int,
) -> SaturationCertificate:
    """Certify that the gradient hull at x contains the truncated ball.

    Works inside the box of 1-norm radius r around x: each coordinate gets
    the window (x_i - r/d, x_i + r/d), which must stay inside the domain.
    For every k <= K and every sign pattern, the per-coordinate witnesses
    multiply into a positive-measure product set on which the gradient is
    exactly mu_k * pattern.
    """
    if isinstance(sf, ShiftedSaturatedFunction):
        base = certify_saturation(sf.base, x, r, K)
        return SaturationCertificate._from_table(
            base.point, base.radius, base.truncation, base.m, base._table, sf.shift
        )
    x = tuple(rational(c) for c in x)
    r = rational(r)
    windows = certificate_windows(sf.domain, x, r, K)
    # One listing per window answers all members 0..2K+1; a missing one
    # raises at its first use in the vertex order.  Stage n feeds only
    # members 0..n, so members past the stage count are never looked for.
    members = range(min(2 * K + 2, sf.partition.stage_count + 1))
    found = [
        _whole_pieces(sf.partition.stages_overlapping(window), members, window)
        for window in windows
    ]
    rows = []
    for k in range(K + 1):
        if not all(2 * k in by_member and 2 * k + 1 in by_member for by_member in found):
            raise _first_missing(k, found, windows)
        rows.append((k, sf.mu.coefficient(k)))
    m = abs(sf.mu.coefficient(sf.mu.argmax_index(K)))
    return SaturationCertificate._from_table(x, r, K, m, (windows, found, tuple(rows)))


def _first_missing(k: int, witnesses: list[dict], windows: list[Interval]) -> NotYetCovered:
    """The error of the first vertex of coefficient k, in pattern order, that
    lacks a witness: the all-minus pattern comes first, so the first
    coordinate without member 2k, or else, as the last coordinate flips
    fastest, the last coordinate without member 2k+1."""
    lacking = [i for i, found in enumerate(witnesses) if 2 * k not in found]
    if lacking:
        return _not_yet_covered(2 * k, windows[lacking[0]])
    i = max(i for i, found in enumerate(witnesses) if 2 * k + 1 not in found)
    return _not_yet_covered(2 * k + 1, windows[i])


def independence_fingerprint(
    partition: SplittingPartition, K: int, witnesses: Sequence[Fraction] | None = None
) -> list[list[int]]:
    """The K x K matrix of certified g_k signs at canonical witness points.

    Row j evaluates all g_k at a point certified inside A_(2j+1); the result
    must be the identity pattern, which witnesses linear independence of
    the first K family members.  Witness points may be overridden (any
    permutation of them permutes the rows).  Each witness point costs one
    depth-4 membership; its member index gives every sign by ``_g_sign``,
    the rule behind ``eval_g``.
    """
    if K < 1:
        raise ValueError("need at least one index")
    if witnesses is None:
        needed = 2 * (K - 1) + 1
        if partition.stage_count < needed:
            raise NotYetCovered(
                f"fingerprint of size {K} needs {needed} stages",
                needed_stage=needed,
            )
        witnesses = [
            _certified_point(partition, 2 * j + 1) for j in range(K)
        ]
    matrix = []
    for x in witnesses:
        x = rational(x)
        answer = partition.membership(x, 4)
        if not answer.decided:
            raise NotYetCovered(f"membership of witness {format_rational(x)} is undecided at depth 4")
        matrix.append([_g_sign(answer.member_index, k) for k in range(K)])
    return matrix


def _certified_point(partition: SplittingPartition, member: int) -> Fraction:
    """A point certainly inside A_member: an interior cover endpoint of the
    planted set on the first piece hosting it, ``_first_piece``.

    It is ``_first_host(partition, member).first_piece(1).hi``, the right end
    of the left child of the host, read from the stage's integer geometry by
    one ``_children`` step on the numerators ``_cover_walk`` gives the host
    (its ends over 4 * q * den, with rho = p/q, and over 16 * q * den a step
    down).
    """
    record, piece = _first_piece(partition, member)
    start, step, den = record.geometry
    lo, p, q = start + piece * step, RETAINED.numerator, RETAINED.denominator
    (_, hi), _ = _children(4 * q * lo, 4 * q * (lo + step), 4 * (q - p) * step)
    return Fraction(hi, 16 * q * den)


@dataclass(frozen=True)
class IsometryWitness:
    """A point where the sampled gradient attains the truncated sup norm."""

    point: tuple[Fraction, ...]
    gradient: tuple[Fraction, ...]
    sup_norm: Fraction
    truncated_norm: Fraction


def isometry_witness(sf: SaturatedFunction, K: int) -> IsometryWitness:
    """Exact norm witness: a point with every coordinate in A_(2k*+1).

    k* attains max over k <= K of |mu_k| (the caller ensures the true
    argmax lies within K); at the witness the sampled gradient is the
    constant vector mu_k*, so its sup norm equals the truncated norm.
    """
    if K < 0:
        raise ValueError("truncation must be >= 0")
    k_star = sf.mu.argmax_index(K)
    m = abs(sf.mu.coefficient(k_star))
    if m == 0:
        zero = tuple(ZERO for _ in range(sf.d))
        return IsometryWitness(sf.x0, zero, ZERO, ZERO)
    coordinate = _certified_point(sf.partition, 2 * k_star + 1)
    point = tuple(coordinate for _ in range(sf.d))
    gradient = tuple(sf.mu.coefficient(k_star) for _ in range(sf.d))
    return IsometryWitness(point, gradient, m, m)
