"""Correctness gate: every answer is checked without trusting its producer.

An answer fails when it raised, when a CLI command exited non-zero, or when
any check below finds a problem.  The checks only use exact arithmetic and
the stage records (``StageRecord.piece_host`` / ``member_index``); they
never call a certificate's own ``check()``.

* width: a value or measure interval is ordered and no wider than the
  requested tolerance;
* Lipschitz: consecutive answers on one function satisfy
  |mid(x) - mid(y)| <= ||mu||_inf * ||x - y||_1 + both widths, starting
  from the base point, where the value is exactly 0;
* reference: for the default seed, each interval intersects the answer
  recorded in ``reference/<workload>.json``.  Both contain the true value,
  so disjoint intervals mean one of them is unsound;
* witnesses: every splitting and saturation witness is re-derived: its host
  piece lies inside the window, feeds the claimed member, and the bound is
  exactly half the host width.

``hosts_pairwise_disjoint`` is deliberately not checked: it is legitimately
False once gaps nest (from stage 37 on).
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction
from itertools import product
from math import ceil, floor

HALF = Fraction(1, 2)  # every planted set keeps half of its host piece
SCALE = 2**64  # reference intervals are rounded outward to this grid


def outward(lo: Fraction, hi: Fraction) -> list[int]:
    """[lo, hi] rounded outward to the 2^-64 grid, as integer numerators.

    Outward rounding keeps a sound interval sound, so intersection tests
    against a stored reference stay meaningful.
    """
    return [floor(lo * SCALE), ceil(hi * SCALE)]


class Gate:
    """Collects problems per answer index; an answer with any problem failed."""

    def __init__(self, reference: list | None = None):
        self.reference = reference
        self.problems: dict[int, list[str]] = {}
        self._previous: dict[object, tuple] = {}

    @property
    def failed(self) -> int:
        return len(self.problems)

    def fail(self, index: int, message: str) -> None:
        self.problems.setdefault(index, []).append(message)

    def width(self, index: int, lo: Fraction, hi: Fraction, tol: Fraction) -> None:
        if lo > hi:
            self.fail(index, f"interval [{lo}, {hi}] is reversed")
        elif hi - lo > tol:
            self.fail(index, f"width {hi - lo} exceeds tolerance {tol}")

    def lipschitz(self, index: int, key, norm: Fraction, x, lo: Fraction, hi: Fraction, x0) -> None:
        """Compare with the previous answer on the same function ``key``.

        The first answer is compared with the base point ``x0``, where every
        function of the family vanishes exactly.
        """
        px, plo, phi = self._previous.get(key, (tuple(x0), 0, 0))
        self._previous[key] = (tuple(x), lo, hi)
        distance = sum((abs(a - b) for a, b in zip(x, px)), Fraction(0))
        jump = abs((lo + hi) - (plo + phi)) / 2
        allowed = norm * distance + (hi - lo) + (phi - plo)
        if jump > allowed:
            self.fail(index, f"midpoints differ by {jump} > Lipschitz allowance {allowed}")

    def against_reference(self, index: int, digest: list) -> None:
        """Intervals must intersect, discrete tokens agree unless one is undecided."""
        if self.reference is None or index >= len(self.reference):
            return
        expected = self.reference[index]
        if len(expected) != len(digest):
            self.fail(index, f"answer has {len(digest)} items, reference {len(expected)}")
            return
        for mine, theirs in zip(digest, expected):
            if isinstance(mine, list):
                if not (isinstance(theirs, list) and mine[0] <= theirs[1] and theirs[0] <= mine[1]):
                    self.fail(index, f"interval {mine} misses reference {theirs} (x 2^-64)")
            elif mine != theirs and "undecided" not in (mine, theirs):
                self.fail(index, f"answer {mine!r} contradicts reference {theirs!r}")

    def witness(self, index, partition, stage, piece, member, window, bound) -> None:
        """Re-derive one whole-piece witness from the stage record."""
        if not 1 <= stage <= partition.stage_count:
            self.fail(index, f"witness names unbuilt stage {stage}")
            return
        record = partition.stage(stage)
        if not 0 <= piece <= record.n:
            self.fail(index, f"stage {stage} has no piece {piece}")
            return
        host = record.piece_host(piece)
        if not window.contains_interval(host):
            self.fail(index, f"host {host} of stage {stage} piece {piece} leaves window {window}")
        if record.member_index(piece) != member:
            self.fail(index, f"stage {stage} piece {piece} feeds member"
                             f" {record.member_index(piece)}, not {member}")
        if bound != HALF * host.length:
            self.fail(index, f"bound {bound} is not half the host width {host.length}")

    def splitting(self, index, partition, k, window, certificate) -> None:
        if certificate.k != k or certificate.window != window:
            self.fail(index, "certificate answers another question")
        self.witness(index, partition, certificate.stage, certificate.piece, k, window,
                     certificate.lower_bound)
        if certificate.complement_member == k:
            self.fail(index, "complement witness uses the member itself")
        self.witness(index, partition, certificate.complement_stage, certificate.complement_piece,
                     certificate.complement_member, window, certificate.complement_lower_bound)

    def saturation(self, index, partition, mu, point, radius, K, m, vertices) -> None:
        """Re-derive a saturation certificate given as plain data.

        ``vertices`` holds (k, coefficient, sign pattern, coordinate
        witnesses), each coordinate witness (member, stage, piece, window,
        bound).  Every k <= K needs every sign pattern, which puts 0 in the
        certified hull (stationarity gap exactly 0).
        """
        d = len(point)
        half = radius / d
        windows = [(c - half, c + half) for c in point]
        expected_m = max(abs(mu.coefficient(k)) for k in range(K + 1))
        if m != expected_m:
            self.fail(index, f"m = {m}, but max |mu_k| for k <= {K} is {expected_m}")
        seen = set()
        for k, coefficient, pattern, coordinates in vertices:
            seen.add((k, tuple(pattern)))
            if coefficient != mu.coefficient(k):
                self.fail(index, f"vertex k={k} carries coefficient {coefficient}")
            if len(coordinates) != d:
                self.fail(index, f"vertex k={k} has {len(coordinates)} coordinates")
                continue
            for sign, (lo, hi), coordinate in zip(pattern, windows, coordinates):
                member, stage, piece, window, bound = coordinate
                if member != (2 * k + 1 if sign > 0 else 2 * k):
                    self.fail(index, f"vertex k={k} sign {sign} uses member {member}")
                if (window.lo, window.hi, window.lo_closed, window.hi_closed) != (lo, hi, False, False):
                    self.fail(index, f"witness window {window} is not ({lo},{hi})")
                self.witness(index, partition, stage, piece, member, window, bound)
        wanted = {(k, p) for k in range(K + 1) for p in product((-1, 1), repeat=d)}
        if wanted - seen:
            self.fail(index, f"{len(wanted - seen)} sign patterns lack a witness")


def saturation_vertices(certificate) -> list:
    """A ``SaturationCertificate``'s witnesses as plain data for ``Gate.saturation``."""
    return [
        (w.k, w.coefficient, w.vertex,
         [(c.member, c.stage, c.piece, c.window, c.lower_bound) for c in w.coordinates])
        for w in certificate.vertices
    ]


def self_test() -> list[str]:
    """Feed the gate genuine and corrupted answers; return what went wrong.

    A widened value interval and a splitting witness pointing at the wrong
    piece must each be counted as a failed answer, while the genuine
    answers they were made from must pass.
    """
    import clarkesat as cs

    partition = cs.build_partition(30)
    tol = Fraction(1, 10**6)
    value = cs.eval_f(cs.SaturatedFunction(partition, cs.ones_generator()), (Fraction(3, 8),), tol)
    window = cs.enumerated_interval(3)
    certificate = partition.splitting_certificate(1, window)

    gate = Gate()
    gate.width(0, value.lo, value.hi, tol)
    gate.splitting(1, partition, 1, window, certificate)
    gate.width(2, value.lo - tol, value.hi, tol)
    gate.splitting(3, partition, 1, window, replace(certificate, piece=certificate.piece + 1))

    errors = [f"genuine answer {i} rejected: {gate.problems[i]}" for i in (0, 1) if i in gate.problems]
    if 2 not in gate.problems:
        errors.append("widened interval passed the gate")
    if 3 not in gate.problems:
        errors.append("witness at the wrong piece passed the gate")
    return errors
