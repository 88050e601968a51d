"""Layered benchmark of clarkesat: end-to-end answers plus per-layer tracing.

Run from the repository root:

    python3 bench/run.py --workload eval-oracle --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload certify-deep --trace 1
    python3 bench/run.py --workload all       # each workload in a fresh interpreter
    python3 bench/run.py --self-test          # the correctness gate catches corruption
    python3 bench/run.py --probe              # scaling probe, N = 30 / 100 / 200
    python3 bench/run.py --workload cli-session --write-reference

A run prints a table of every metric with its unit, then, as its last line,
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer metrics of a traced run.  The exit code is 0 only when every
answer passed the gate and the gate's self-test caught both corruptions.
See README.md for the workloads and the metric vocabulary.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
from itertools import islice
from math import floor
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
DEFAULT_SEED = 1
CHILD_TIMEOUT_S = 150
WORKLOAD_NAMES = ("eval-oracle", "certify-deep", "cli-session")
PASSES = 3  # timed passes over the answer list
RUN_CAP = 1.15  # no pass starts, and later passes stop, this many --seconds in
CLOCK_SHARE = 0.02  # clock-probe time after a timed call, as a share of the call's time
CLOCK_CALLS = 5  # and at least this many clock-probe calls
REFERENCE_CLOCK_S = 150e-6  # clock-probe time at the reference speed (see README.md)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--write-reference", action="store_true")
    parser.add_argument("--setup-child", metavar="DIR", help=argparse.SUPPRESS)
    parser.add_argument("--with-bytes", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (args.self_test or args.probe) and args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between order statistics (inclusive method)."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    lo = floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def answers_per_pass(workload, seconds: float) -> int:
    """Whole kind cycles worth one pass at this commit's usual speed.

    The count depends on --seconds only, not on how fast the machine is at
    the moment, so runs of a seed normally answer exactly the same inputs
    and two commits are compared on identical work.
    """
    periods = max(1, round(seconds * workload.rate / PASSES / workload.period))
    return periods * workload.period


def clock_probe() -> int:
    """Fixed pure-Python work (integer Euclid, a dict, a sort) that runs no
    clarkesat or ``fractions`` code, so no change to the program moves it."""
    acc = {}
    for i in range(1, 300):
        a, b = i * 2654435761 % 1000003, i + 7
        while b:
            a, b = b, a % b
        acc[i % 64] = (a, str(i))
    return len(sorted(acc.values()))


def clock_ticks(seconds: float) -> list[float]:
    """Times of ``clock_probe`` calls worth CLOCK_SHARE of ``seconds``, and
    at least CLOCK_CALLS of them."""
    ticks: list[float] = []
    while len(ticks) < CLOCK_CALLS or sum(ticks) < CLOCK_SHARE * seconds:
        t0 = perf_counter()
        clock_probe()
        ticks.append(perf_counter() - t0)
    return ticks


def clock_after(seconds: float) -> float:
    """The machine's speed right after a call that took ``seconds``: the
    median time of one ``clock_probe`` call."""
    return statistics.median(clock_ticks(seconds))


def at_reference_speed(seconds: float, clock: float) -> float:
    return seconds * REFERENCE_CLOCK_S / clock


def timed_phase(workload, ctx, specs, cap_s: float, clocked: bool = False):
    """Answer specs one at a time; stop early only if ``cap_s`` runs out.

    With ``clocked``, each answer is followed by ``clock_after``, whose
    result is the outcome's ``clock``.  Checking happens afterwards,
    outside the timed phase.
    """
    from workloads import Outcome

    outcomes = []
    deadline = perf_counter() + cap_s
    for spec in specs:
        if perf_counter() >= deadline:
            break
        t0 = perf_counter()
        try:
            value, error = workload.answer(ctx, spec), None
        except Exception as exc:  # a raising answer is a failed answer
            value, error = None, f"{type(exc).__name__}: {exc}"
        seconds = perf_counter() - t0
        outcomes.append(Outcome(spec, value, error, seconds, clock_after(seconds) if clocked else None))
    return outcomes


def load_reference(workload, seed):
    if seed != DEFAULT_SEED:
        return None
    data = json.loads((BENCH / "reference" / f"{workload.name}.json").read_text())
    return data["answers"]


def cold_setup(workload, workdir: Path, with_bytes: bool) -> dict:
    """Time ``setup`` once in a fresh interpreter.

    A fresh interpreter keeps module-level caches (the interval enumeration)
    cold, as they are for a user's first build.
    """
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload.name,
           "--setup-child", str(workdir)]
    if with_bytes:
        cmd.append("--with-bytes")
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def schedule(passes: int, setups: int) -> list[str]:
    """Passes and cold set-ups interleaved evenly, each kind in order.

    Spreading the set-ups over the whole run makes their median describe
    the same stretch of machine time as the answers, instead of one burst
    at the start.
    """
    events = [((i + 0.5) / passes, "pass") for i in range(passes)]
    events += [((i + 0.5) / setups, "setup") for i in range(setups)]
    return [kind for _, kind in sorted(events)]


def setup_child(workload, workdir: Path, with_bytes: bool) -> int:
    """One cold set-up, with the clock read just before and just after it.

    A set-up lasts up to seconds, longer than the machine's swings, so the
    clock comes from both sides, each worth CLOCK_SHARE of at least 1 s.
    """
    before = clock_ticks(1.0)
    start = perf_counter()
    ctx = workload.setup(workdir)
    seconds = perf_counter() - start
    after = clock_ticks(max(seconds, 1.0))
    result = {"setup_s": seconds, "clock_s": statistics.median(before + after)}
    if with_bytes:
        result["splitpart_bytes"] = workload.splitpart_bytes(ctx)
    print(json.dumps(result))
    return 0


class Tally:
    """Failed answers over all checked phases of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, label: str, outcomes, gate) -> None:
        self.attempted += len(outcomes)
        self.failed += gate.failed
        for index in sorted(gate.problems):
            self.problems.append(f"{label} answer {index}: {'; '.join(gate.problems[index])}")


def checked(workload, ctx, outcomes, reference, tally: Tally, label: str) -> None:
    from gate import Gate

    gate = Gate(reference)
    workload.check(gate, ctx, outcomes)
    tally.add(label, outcomes, gate)


def run_end_to_end(workload, seed, seconds, workdir: Path, tally: Tally):
    """Timed passes over one fixed list of answers, with cold set-ups between.

    Each pass answers from its own ``fresh`` copy of the set-up, so every
    pass does the same work.  The latency statistics pool every answer of
    every pass.  The set-up samples are spread over the whole run.

    The shared host's speed swings by up to 2x, for seconds to minutes at a
    time, so every timed call is followed by ``clock_after`` and reported
    at the reference speed: its time times REFERENCE_CLOCK_S over that
    clock.  The clock probe runs no program code, so a change to the
    program shows in full; only the machine's swings cancel.
    """
    reference = load_reference(workload, seed)
    ctx = workload.setup(workdir / "main")
    specs = list(islice(workload.script(seed, ctx), answers_per_pass(workload, seconds)))
    deadline = perf_counter() + RUN_CAP * seconds
    setups: list[dict] = []
    size = None
    timed: list[tuple[float, float]] = []  # (seconds, clock) of every answer
    passes = 0
    for event in schedule(PASSES, workload.setup_samples):
        if event == "setup":
            result = cold_setup(workload, workdir / f"setup{len(setups)}", with_bytes=size is None)
            setups.append(result)
            size = result.get("splitpart_bytes", size)
            continue
        if passes and perf_counter() >= deadline:
            continue  # the machine is very slow right now: keep the passes done
        pass_ctx = workload.fresh(ctx)
        outcomes = timed_phase(workload, pass_ctx, specs,
                               deadline - perf_counter() if passes else float("inf"), clocked=True)
        timed += [(o.seconds, o.clock) for o in outcomes]
        checked(workload, pass_ctx, outcomes, reference, tally, f"pass {passes}")
        passes += 1
        del pass_ctx, outcomes
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    latencies = [at_reference_speed(s, c) * 1000 for s, c in timed]
    p90 = percentile(latencies, 0.9)
    metrics = {
        "setup_s": (statistics.median(at_reference_speed(r["setup_s"], r["clock_s"]) for r in setups), "s"),
        "answers_per_s": (1000 * len(latencies) / sum(latencies), "1/s"),
        "answer_p50_ms": (percentile(latencies, 0.5), "ms"),
        "answer_p90_ms": (p90, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
        "splitpart_bytes": (size, "bytes"),
    }
    raw = [s * 1000 for s, _ in timed]
    setup_raw = [r["setup_s"] for r in setups]
    setup_clocks = [r["clock_s"] * 1e6 for r in setups]
    notes = [
        f"as measured: setup_s {statistics.median(setup_raw):.4f} s, "
        f"answers_per_s {1000 * len(raw) / sum(raw):.3f}/s, "
        f"answer_p50_ms {percentile(raw, 0.5):.3f} ms, answer_p90_ms {percentile(raw, 0.9):.3f} ms",
        f"clock probe (us): median {statistics.median(c for _, c in timed) * 1e6:.1f} after answers, "
        f"{', '.join(f'{c:.1f}' for c in setup_clocks)} after set-ups",
        f"set-up samples (s): {', '.join(f'{s:.4f}' for s in setup_raw)}",
        f"answers: {len(specs)} x {passes} passes = {len(latencies)}; beyond p90: {sum(v > p90 for v in latencies)}",
    ]
    return metrics, notes


def run_traced(workload, seed, seconds, workdir: Path, tally: Tally):
    """One traced set-up and answer pass, then the same answers untraced.

    The traced set-up runs first in this fresh interpreter, so it is cold.
    Inputs are generated with the tracer off.  The untraced pass answers
    from a ``fresh`` copy of the set-up, so it does the same work as the
    traced one; their answer times, at the reference speed, give the
    tracing overhead.
    """
    from tracer import Tracer

    tracer = Tracer()
    with tracer.installed():
        ctx = workload.setup(workdir / "traced")
    specs = list(islice(workload.script(seed, ctx), answers_per_pass(workload, seconds)))
    with tracer.installed():
        traced = timed_phase(workload, ctx, specs, seconds, clocked=True)
    plain_ctx = workload.fresh(ctx)
    plain = timed_phase(workload, plain_ctx, specs[: len(traced)], seconds, clocked=True)

    reference = load_reference(workload, seed)
    checked(workload, ctx, traced, reference, tally, "traced")
    checked(workload, plain_ctx, plain, reference, tally, "untraced")
    common = min(len(traced), len(plain))
    traced_s = sum(at_reference_speed(o.seconds, o.clock) for o in traced[:common])
    plain_s = sum(at_reference_speed(o.seconds, o.clock) for o in plain[:common])
    metrics = tracer.metrics()
    metrics["trace.overhead_frac"] = ((traced_s - plain_s) / plain_s, "fraction")
    metrics["trace.answers"] = (len(traced), "count")
    notes = [f"{common} answers at the reference speed: traced {traced_s:.3f} s, untraced {plain_s:.3f} s"]
    return metrics, notes


def report(tally: Tally, metrics, notes, self_test_errors) -> bool:
    correct = tally.failed == 0 and not self_test_errors
    width = max(len(name) for name in metrics)
    for name, (value, unit) in metrics.items():
        print(f"{name:<{width}}  {value:>16.6f}  {unit}")
    print(f"failed_frac {tally.failed / tally.attempted:.6f} ({tally.failed} of {tally.attempted} answers)")
    for note in notes:
        print(note)
    for problem in tally.problems[:10]:
        print(f"FAILED {problem}")
    for error in self_test_errors:
        print(f"gate self-test FAILED: {error}")
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return correct


def write_reference(workload, workdir: Path) -> int:
    from gate import Gate

    ctx = workload.setup(workdir / "reference")
    specs = islice(workload.script(DEFAULT_SEED, ctx), workload.reference_answers)
    outcomes = timed_phase(workload, ctx, specs, float("inf"))
    gate = Gate()
    workload.check(gate, ctx, outcomes)
    if gate.failed:
        for index, problems in sorted(gate.problems.items()):
            print(f"answer {index}: {'; '.join(problems)}", file=sys.stderr)
        return 1
    lines = [json.dumps(workload.digest(ctx, o.spec, o.value)) for o in outcomes]
    path = BENCH / "reference" / f"{workload.name}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(
        f'{{"workload": "{workload.name}", "seed": {DEFAULT_SEED}, "answers": [\n'
        + ",\n".join(lines) + "\n]}\n"
    )
    print(f"wrote {path.relative_to(ROOT)}: {len(lines)} answers")
    return 0


def run_all(args) -> int:
    """Every workload in its own fresh interpreter, so module-level caches
    (the interval enumeration) never carry over from one to the next."""
    codes = []
    for name in WORKLOAD_NAMES:
        print(f"== {name}", flush=True)
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        codes.append(subprocess.run(cmd, cwd=ROOT).returncode)
    return max(codes)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "clarkesat" / "__init__.py").is_file():
        print(f"error: no clarkesat sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from gate import self_test
    from workloads import WORKLOADS

    if args.self_test:
        errors = self_test()
        for error in errors:
            print(f"gate self-test FAILED: {error}")
        if not errors:
            print("gate self-test passed: widened interval and misdirected witness both failed")
        return 1 if errors else 0
    if args.probe:
        from probe import main as probe_main

        return probe_main()

    if args.workload == "all":
        return run_all(args)
    workload = WORKLOADS[args.workload]
    if args.setup_child:
        return setup_child(workload, Path(args.setup_child), args.with_bytes)

    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{workload.name}-{args.seed}-{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        if args.write_reference:
            return write_reference(workload, workdir)
        run = run_traced if args.trace else run_end_to_end
        tally = Tally()
        metrics, notes = run(workload, args.seed, args.seconds, workdir, tally)
        correct = report(tally, metrics, notes, self_test())
        return 0 if correct else 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it


if __name__ == "__main__":
    sys.exit(main())
