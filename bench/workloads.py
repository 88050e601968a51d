"""The three benchmark workloads: seeded inputs, the timed call, its checks.

Each workload has

* ``setup(workdir)``: what a user waits for before the first answer (timed
  as ``setup_s`` in cold interpreters);
* ``fresh(ctx)``: the same set-up without any cache an earlier answer
  filled, so that repeated passes over the same answers do the same work;
* ``script(seed, ctx)``: an endless, seeded stream of answer inputs.  Kinds
  rotate in a fixed cycle, and points and stage numbers are stratified, so
  the mix of cheap and expensive answers is the same for every seed and
  only the concrete inputs change;
* ``answer(ctx, spec)``: one public call or CLI command (the timed unit);
* ``check(gate, ctx, outcomes)``: the correctness gate for every answer;
* ``digest(ctx, spec, value)``: what ``reference/<name>.json`` records.

The library only ever receives the generated inputs, never the seed.
"""

from __future__ import annotations

import contextlib
import io
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import ceil
from pathlib import Path
from random import Random

import clarkesat as cs
from clarkesat.rationals import format_rational, parse_rational

from gate import Gate, outward, saturation_vertices

TOL = Fraction(1, 10**6)
HALF = Fraction(1, 2)  # every function is evaluated relative to the box centre
GRID = 4096  # input points lie on the 2^-12 grid


@dataclass
class Outcome:
    spec: tuple
    value: object = None
    error: str | None = None
    seconds: float = 0.0
    clock: float | None = None  # the machine's clock-probe time right after the answer


def _stratified(rng: Random, stratum: int, strata: int, grid: int = GRID) -> Fraction:
    """A grid point strictly inside the stratum-th of ``strata`` equal cells of (0,1)."""
    cell = grid // strata
    return Fraction(stratum * cell + rng.randrange(1, cell), grid)


def _stratified_int(rng: Random, stratum: int, strata: int, lo: int, hi: int) -> int:
    """An integer of the stratum-th of ``strata`` near-equal parts of [lo, hi]."""
    span = hi - lo + 1
    return lo + rng.randrange(stratum * span // strata, (stratum + 1) * span // strata)


def _host_interval(partition, n: int, i: int) -> tuple[Fraction, Fraction]:
    """Piece i of stage n from the stored gap alone (no library call)."""
    gap = partition.stages[n - 1].gap
    width = (gap.hi - gap.lo) / (n + 1)
    return gap.lo + i * width, gap.lo + (i + 1) * width


def _fresh_partition(partition):
    """The same stage records in a new partition object, whose piece-set and
    cover caches start empty (records are immutable and safely shared)."""
    return cs.SplittingPartition(partition.gap_cap, partition.stages, partition.translation)


def _check_outcomes(gate: Gate, outcomes, check_one) -> None:
    for index, outcome in enumerate(outcomes):
        if outcome.error is not None:
            gate.fail(index, outcome.error)
            continue
        try:
            check_one(index, outcome.spec, outcome.value)
        except Exception as exc:  # malformed output is a failed answer, not a crash
            gate.fail(index, f"check raised {type(exc).__name__}: {exc}")


# ---------------------------------------------------------------------------
# eval-oracle
# ---------------------------------------------------------------------------


class EvalOracle:
    """stress.oracle at tolerance 1e-6 on a 100-stage partition.

    Nearly all time goes to the window integrator, whose cost follows the
    O(N^2) planted pieces inside the window |x - x0|.
    """

    name = "eval-oracle"
    stages = 100
    setup_samples = 15
    # Answer executions per second this commit usually reaches on a shared
    # 2-core VM, set-ups included: 30 s give 105 answers.
    rate = 10.5
    period = 21  # 3 functions x 7 strata
    reference_answers = 210
    functions = (
        ("mu=(3,-5,2)", cs.FiniteSupport.of({0: 3, 1: -5, 2: 2}), 1),
        ("ones", cs.ones_generator(), 1),
        ("e0,d=2", cs.FiniteSupport.unit(0), 2),
    )
    strata = 7

    def setup(self, workdir: Path):
        return cs.build_partition(self.stages)

    def splitpart_bytes(self, ctx) -> int:
        return len(cs.saves(ctx))

    def fresh(self, ctx):
        return _fresh_partition(ctx)

    def script(self, seed: int, ctx):
        rng = Random(f"{self.name}:{seed}")
        i = 0
        while True:
            which = i % len(self.functions)
            j = i // len(self.functions)
            d = self.functions[which][2]
            point = tuple(_stratified(rng, (j + 3 * c) % self.strata, self.strata) for c in range(d))
            yield (which, point)
            i += 1

    def answer(self, ctx, spec):
        which, point = spec
        _, mu, d = self.functions[which]
        return cs.oracle(cs.SaturatedFunction(ctx, mu, d), point, TOL)

    def check(self, gate: Gate, ctx, outcomes) -> None:
        def check_one(index, spec, response):
            which, point = spec
            _, mu, _ = self.functions[which]
            value = response.value
            gate.width(index, value.lo, value.hi, TOL)
            gate.lipschitz(index, which, mu.norm_inf, point, value.lo, value.hi, (HALF,) * len(point))
            if len(response.gradient) != len(point):
                gate.fail(index, "gradient has the wrong dimension")
            for i, g in enumerate(response.gradient):
                if abs(g) > mu.norm_inf or (i in response.undecided and g != 0):
                    gate.fail(index, f"gradient component {g} is impossible")
            gate.against_reference(index, self.digest(ctx, spec, response))

        _check_outcomes(gate, outcomes, check_one)

    def digest(self, ctx, spec, response) -> list:
        grad = [
            "undecided" if i in response.undecided else format_rational(g)
            for i, g in enumerate(response.gradient)
        ]
        return [outward(response.value.lo, response.value.hi), *grad]


# ---------------------------------------------------------------------------
# certify-deep
# ---------------------------------------------------------------------------


class CertifyDeep:
    """Certificates, membership and cover laws on a 500-stage partition.

    The build runs through the nested-gap regime (gaps nest from stage 37).
    No answer calls the window integrator.  Depth-12 membership stays in the
    mix on purpose: covers deeper than the memo depth (10) are recomputed on
    every call.
    """

    name = "certify-deep"
    stages = 500
    setup_samples = 4
    rate = 102  # 30 s give 1020 answers
    period = 34 * 5  # the kind cycle times the five cover depths
    reference_answers = 34 * 5 * 6
    # One cover per 34 answers puts p90 inside the saturation answers, not
    # on the edge between them and the far costlier covers.
    cycle = (
        "split", "endpoint8", "split", "saturation1", "member8", "split", "member12",
        "fingerprint", "split", "endpoint8", "saturation2", "split", "member8",
        "member12", "split", "saturation3", "cover",
        "split", "endpoint8", "split", "saturation1", "member8", "split", "member12",
        "fingerprint", "split", "endpoint8", "saturation2", "split", "member8",
        "member12", "split", "saturation3", "member8",
    )
    strata = 15
    radius = Fraction(1, 4)

    def setup(self, workdir: Path):
        return cs.build_partition(self.stages)

    def splitpart_bytes(self, ctx) -> int:
        return len(cs.saves(ctx))

    def fresh(self, ctx):
        return _fresh_partition(ctx)

    def script(self, seed: int, ctx):
        rng = Random(f"{self.name}:{seed}")
        seen = {kind: 0 for kind in self.cycle}
        i = 0
        while True:
            kind = self.cycle[i % len(self.cycle)]
            count = seen[kind]
            seen[kind] += 1
            if kind == "split":
                # Stage n plants a piece of every member k <= n inside I_n.
                # Odd and even n draw I_n from different streams, whose
                # certificates differ 2x in cost, so the parity alternates.
                n = _stratified_int(rng, count // 2 % 90, 90, 7, self.stages - 1)
                n += (n + count) % 2
                yield (kind, count % 7, cs.enumerated_interval(n))
            elif kind.startswith("saturation"):
                # K is fixed so that the cost of a saturation answer varies
                # with the point only; K drives it far more than the point.
                d, K = int(kind[-1]), 4
                mu = {k: rng.choice((-5, -4, -3, -2, -1, 1, 2, 3, 4, 5)) for k in range(K + 1)}
                margin = ceil(GRID * self.radius / d)
                point = tuple(
                    Fraction(_stratified_int(rng, (count + 2 * c) % 5, 5, margin, GRID - margin), GRID)
                    for c in range(d)
                )
                yield (kind, cs.FiniteSupport.of(mu), point, K)
            elif kind == "fingerprint":
                yield (kind, rng.randrange(2, 9))
            elif kind == "endpoint8":
                # A depth-1 cover endpoint, host midpoint +- length/8, is a
                # point of the planted set, so membership must be decided.
                n = _stratified_int(rng, count // 2 % 30, 30, 1, self.stages - 1)
                n += (n + count) % 2
                piece = rng.randrange(0, n + 1)
                lo, hi = _host_interval(ctx, n, piece)
                sign = rng.choice((-1, 1))
                yield (kind, (lo + hi) / 2 + sign * (hi - lo) / 8, 8, n, piece)
            elif kind in ("member8", "member12"):
                x = _stratified(rng, count % self.strata, self.strata, 1 << 20)
                yield (kind, x, int(kind[6:]))
            else:  # cover
                # Cover cost varies with depth and stage: every depth meets
                # every third of the stages once in 15 covers.
                n = _stratified_int(rng, count % 3, 3, 1, self.stages)
                yield (kind, n, rng.randrange(0, n + 1), 10 + count % 5)
            i += 1

    def answer(self, ctx, spec):
        kind = spec[0]
        if kind == "split":
            return ctx.splitting_certificate(spec[1], spec[2])
        if kind.startswith("saturation"):
            _, mu, point, K = spec
            certificate = cs.certify_saturation(cs.SaturatedFunction(ctx, mu, len(point)), point,
                                                self.radius, K)
            return certificate, certificate.check()
        if kind == "fingerprint":
            return cs.independence_fingerprint(ctx, spec[1])
        if kind == "cover":
            _, n, piece, depth = spec
            cover = ctx.piece_set(n, piece).svc_cover(depth)
            return cover.measure(), len(cover)
        return ctx.membership(spec[1], spec[2])

    def check(self, gate: Gate, ctx, outcomes) -> None:
        def check_one(index, spec, value):
            kind = spec[0]
            if kind == "split":
                gate.splitting(index, ctx, spec[1], spec[2], value)
            elif kind.startswith("saturation"):
                _, mu, point, K = spec
                certificate, replayed = value
                if not replayed:
                    gate.fail(index, "certificate failed its own check()")
                if certificate.point != point or certificate.radius != self.radius:
                    gate.fail(index, "certificate answers another question")
                gate.saturation(index, ctx, mu, point, self.radius, K, certificate.m,
                                saturation_vertices(certificate))
            elif kind == "fingerprint":
                K = spec[1]
                identity = [[int(j == k) for k in range(K)] for j in range(K)]
                if value != identity:
                    gate.fail(index, f"fingerprint {value} is not the {K}x{K} identity")
            elif kind == "cover":
                _, n, piece, depth = spec
                lo, hi = _host_interval(ctx, n, piece)
                # measure(F_d) = rho * L + (1 - rho) * L * 2^-d with rho = 1/2.
                expected = (hi - lo) / 2 + (hi - lo) / 2 / 2**depth
                if value != (expected, 2**depth):
                    gate.fail(index, f"cover law broken at stage {n} piece {piece} depth {depth}")
            else:
                self._check_membership(gate, index, ctx, spec, value)
            gate.against_reference(index, self.digest(ctx, spec, value))

        _check_outcomes(gate, outcomes, check_one)

    @staticmethod
    def _check_membership(gate: Gate, index, ctx, spec, answer) -> None:
        x = spec[1]
        if spec[0] == "endpoint8":
            n, piece = spec[3], spec[4]
            expected = piece + 1 if piece < n else 0
            if answer.member_index != expected or answer.stage != n:
                gate.fail(index, f"endpoint of stage {n} piece {piece} answered {answer}")
            return
        if not answer.decided or answer.stage is None:
            return
        gap = ctx.stages[answer.stage - 1].gap
        if not gap.lo < x < gap.hi:
            gate.fail(index, f"{x} lies outside the gap of claimed stage {answer.stage}")
            return
        piece = int((x - gap.lo) // ((gap.hi - gap.lo) / (answer.stage + 1)))
        if ctx.stage(answer.stage).member_index(piece) != answer.member_index:
            gate.fail(index, f"{x} lies in a piece of another member than {answer.member_index}")

    def digest(self, ctx, spec, value) -> list:
        if spec[0] in ("endpoint8", "member8", "member12"):
            member = value.member_index
            return ["undecided" if member is None else str(member)]
        return []


# ---------------------------------------------------------------------------
# cli-session
# ---------------------------------------------------------------------------

_VERTEX_LINE = re.compile(r"^  k=(\d+) vertex=\(([^)]*)\) value=\(([^)]*)\)")
_COORD_LINE = re.compile(
    r"^    coordinate (\d+): member (\d+) stage (\d+) piece (\d+) window \(([^,]+),([^)]+)\) lambda>=(\S+)$"
)
_HEAD_LINE = re.compile(r"^  radius: (\S+)  truncation: (\d+)  m: (\S+)$")


@lru_cache(maxsize=1)
def _load(path: Path):
    """The session file as the checks see it, read once per run."""
    return cs.load(path)


def run_cli(argv) -> tuple[int, str, str]:
    """In-process ``clarkesat.cli.main(argv)`` with stdout and stderr captured."""
    from clarkesat import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _bounds(text: str) -> tuple[Fraction, Fraction]:
    lo, hi = text.split()
    return parse_rational(lo), parse_rational(hi)


def _mu_text(mu: dict[int, int]) -> str:
    return ",".join(f"{k}:{v}/1" for k, v in sorted(mu.items()))


class CliSession:
    """A scripted session of ``clarkesat`` commands against one SPLITPART file.

    Every command re-reads the 200-stage file (about 4 MB), so file reading
    dominates; writes (one plot, one stress trajectory) ride along.
    """

    name = "cli-session"
    stages = 200
    setup_samples = 7
    rate = 0.8  # 30 s give one session of 8 commands
    period = 8  # one session: the head of the script
    reference_answers = 24
    mus = ({0: 3, 1: -5, 2: 2}, {0: 1}, {0: -2, 3: 1})
    # plot and stress run once per session, early enough to be in every run.
    head = ("certify", "measure", "eval", "plot", "certify", "measure", "eval", "stress")
    rotation = ("certify", "measure", "eval")
    strata = 8

    def setup(self, workdir: Path):
        workdir.mkdir(parents=True, exist_ok=True)
        path = workdir / "session.splitpart"
        code, _, err = run_cli(["build", "--stages", str(self.stages), "--out", str(path)])
        if code != 0:
            raise RuntimeError(f"clarkesat build exited {code}: {err}")
        return path

    def splitpart_bytes(self, ctx) -> int:
        return ctx.stat().st_size

    def fresh(self, ctx):
        return ctx  # every command reads the file anew

    def script(self, seed: int, ctx):
        rng = Random(f"{self.name}:{seed}")
        seen: dict[str, int] = {}
        i = 0
        while True:
            kind = self.head[i] if i < len(self.head) else self.rotation[i % len(self.rotation)]
            count = seen.get(kind, 0)
            seen[kind] = count + 1
            if kind == "certify":
                mu = self.mus[count % len(self.mus)]
                d = 1 + count % 2
                point = tuple(Fraction(rng.randrange(GRID // 4, 3 * GRID // 4 + 1), GRID) for _ in range(d))
                yield (kind, mu, point)
            elif kind == "measure":
                k = rng.randrange(0, 7)
                a = _stratified(rng, count % self.strata, self.strata)
                b = a + Fraction(rng.randrange(GRID // 16, GRID // 4), GRID)
                yield (kind, k, a, min(b, Fraction(GRID - 1, GRID)))
            elif kind == "eval":
                mu = self.mus[count % len(self.mus)]
                yield (kind, mu, _stratified(rng, count % self.strata, self.strata))
            elif kind == "plot":
                # The slowest commands set p90 over one session, so what
                # drives their cost (k, mu) cycles instead of being drawn.
                yield (kind, count % 4, 3, f"plot{i}.csv")
            else:  # stress
                mu = self.mus[count % len(self.mus)]
                # Start near the centre with short steps, so every iterate's
                # radius-1/4 certificate box stays inside the domain.
                yield (kind, mu, _stratified(rng, rng.randrange(3, 5), self.strata), 2, f"stress{i}.csv")
            i += 1

    def _argv(self, ctx, spec) -> list[str]:
        kind = spec[0]
        base = [kind, "--partition", str(ctx)]
        if kind == "certify":
            _, mu, point = spec
            return base + ["--mu", _mu_text(mu), "--point", ",".join(map(format_rational, point)),
                           "--radius", "1/4"]
        if kind == "measure":
            _, k, a, b = spec
            return base + ["--k", str(k), "--window", f"{format_rational(a)},{format_rational(b)}",
                           "--tol", format_rational(TOL)]
        if kind == "eval":
            _, mu, x = spec
            return base + ["--mu", _mu_text(mu), "--x", format_rational(x)]
        if kind == "plot":
            _, k, grid, out = spec
            return base + ["--k", str(k), "--grid", str(grid), "--out", str(ctx.parent / out)]
        _, mu, x, steps, out = spec
        return base + ["--mu", _mu_text(mu), "--steps", str(steps), "--x-init", format_rational(x),
                       "--step-c", "1/1000", "--out", str(ctx.parent / out)]

    def answer(self, ctx, spec):
        return run_cli(self._argv(ctx, spec))

    def check(self, gate: Gate, ctx, outcomes) -> None:
        partition = _load(ctx)

        def check_one(index, spec, value):
            code, out, err = value
            if code != 0:
                gate.fail(index, f"exit code {code}: {err.strip()}")
                return
            kind = spec[0]
            if kind == "certify":
                self._check_certificate(gate, index, partition, spec, out)
            elif kind == "measure":
                _, k, a, b = spec
                lo, hi = _bounds(out)
                gate.width(index, lo, hi, TOL)
                if not 0 <= lo <= hi <= b - a:
                    gate.fail(index, f"measure [{lo}, {hi}] outside [0, {b - a}]")
            elif kind == "eval":
                _, mu, x = spec
                lo, hi = _bounds(out)
                gate.width(index, lo, hi, TOL)
                gate.lipschitz(index, ("eval", _mu_text(mu)), max(map(abs, mu.values())), (x,), lo, hi,
                               (HALF,))
            else:
                for x, lo, hi in self._rows(ctx, spec):
                    gate.width(index, lo, hi, TOL)
                    norm = 1 if kind == "plot" else max(map(abs, spec[1].values()))
                    gate.lipschitz(index, (kind, index), norm, x, lo, hi, (HALF,))
            gate.against_reference(index, self.digest(ctx, spec, value))

        _check_outcomes(gate, outcomes, check_one)

    def _rows(self, ctx, spec):
        """(x, lo, hi) per row of a plot or stress CSV; stress gaps must be 0."""
        kind = spec[0]
        lines = (ctx.parent / spec[-1]).read_text(encoding="ascii").splitlines()[1:]
        expected = spec[2] if kind == "plot" else spec[3] + 1
        if len(lines) != expected:
            raise ValueError(f"{kind} wrote {len(lines)} rows, expected {expected}")
        rows = []
        for line in lines:
            fields = line.split(",")
            if kind == "plot":
                x, lo, hi = fields
            else:
                _, x, lo, hi, gap = fields
                if gap != "0/1":
                    raise ValueError(f"stationarity gap {gap} is not 0")
            rows.append(((parse_rational(x),), parse_rational(lo), parse_rational(hi)))
        return rows

    def _check_certificate(self, gate: Gate, index, partition, spec, out: str) -> None:
        _, mu, point = spec
        K = max(mu)
        head = None
        vertices = []
        for line in out.splitlines():
            if match := _HEAD_LINE.match(line):
                head = match
            elif match := _VERTEX_LINE.match(line):
                pattern = tuple(int(s) for s in match.group(2).split(","))
                values = [parse_rational(v) for v in match.group(3).split(", ")]
                coefficient = values[0] * pattern[0]
                if values != [coefficient * s for s in pattern]:
                    gate.fail(index, f"vertex values {values} do not follow its sign pattern")
                vertices.append((int(match.group(1)), coefficient, pattern, []))
            elif match := _COORD_LINE.match(line):
                _, member, stage, piece, lo, hi, bound = match.groups()
                window = cs.Interval.open(parse_rational(lo), parse_rational(hi))
                vertices[-1][3].append((int(member), int(stage), int(piece), window,
                                        parse_rational(bound)))
        if head is None or not out.rstrip().splitlines()[-1].startswith("  conclusion:"):
            gate.fail(index, "certificate output is incomplete")
            return
        radius, truncation, m = head.groups()
        if parse_rational(radius) != Fraction(1, 4) or int(truncation) != K:
            gate.fail(index, "certificate answers another question")
        gate.saturation(index, partition, cs.FiniteSupport.of(mu), point, Fraction(1, 4), K,
                        parse_rational(m), vertices)

    def digest(self, ctx, spec, value) -> list:
        kind = spec[0]
        if kind == "certify":
            return []
        if kind in ("measure", "eval"):
            return [outward(*_bounds(value[1]))]
        return [outward(lo, hi) for _, lo, hi in self._rows(ctx, spec)]


WORKLOADS = {w.name: w for w in (EvalOracle(), CertifyDeep(), CliSession())}
