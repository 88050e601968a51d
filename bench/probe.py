"""Scaling probe: exact work counts per eval-oracle answer at N = 30, 100, 200.

Reported, never gated.  The counts are machine independent and repeat
exactly, so a change to the window integrator (ROADMAP item 2), the
geometry representation (item 3) or the file format (item 4) can show a
change in growth order, not only a speed-up.  The probe also re-times the
ROADMAP baseline items once (single runs, informational).
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import islice
from time import perf_counter

import clarkesat as cs

from tracer import Tracer
from workloads import TOL, EvalOracle

STAGES = (30, 100, 200)
ANSWERS = 10
PROBE_SEED = 1
COUNTED = ("partition.pieces_visited", "partition.stages_scanned", "rationals.fractions_built")


def scaling_rows() -> list[dict]:
    workload = EvalOracle()
    rows = []
    for n in STAGES:
        partition = cs.build_partition(n)
        specs = list(islice(workload.script(PROBE_SEED, partition), ANSWERS))
        tracer = Tracer()
        tracer.install()
        try:
            for spec in specs:
                workload.answer(partition, spec)
            row = {"stages": n, **{name: tracer.counts[name] / ANSWERS for name in COUNTED}}
            tracer.counts["partition.bytes_written"] = 0
            cs.saves(partition)
            row["partition.bytes_written"] = tracer.counts["partition.bytes_written"]
        finally:
            tracer.uninstall()
        rows.append(row)
    return rows


def baseline_timings() -> dict[str, float]:
    """The ROADMAP baseline items, each timed once in this process."""
    out = {}
    for n in (100, 300):
        start = perf_counter()
        partition = cs.build_partition(n)
        out[f"build_partition({n})_s"] = perf_counter() - start
    start = perf_counter()
    text = cs.saves(partition)
    out["saves(300)_s"] = perf_counter() - start
    out["saves(300)_mb"] = len(text) / 1e6
    start = perf_counter()
    cs.loads(text)
    out["loads(300)_s"] = perf_counter() - start
    small = cs.build_partition(30)
    for label, mu in (("finite", cs.FiniteSupport.of({0: 3, 1: -5, 2: 2})), ("ones", cs.ones_generator())):
        sf = cs.SaturatedFunction(small, mu)
        points = [Fraction(i, 16) for i in range(1, 16) if i != 8]
        start = perf_counter()
        for x in points:
            cs.eval_f(sf, (x,), TOL)
        out[f"eval_f(N=30,{label})_ms"] = (perf_counter() - start) / len(points) * 1000
    return out


def main() -> int:
    timings = baseline_timings()  # first, while module-level caches are cold
    rows = scaling_rows()
    print(f"{'N':>5}  " + "  ".join(f"{name + '/answer':>34}" for name in COUNTED)
          + f"  {'partition.bytes_written':>24}")
    for row in rows:
        print(f"{row['stages']:>5}  " + "  ".join(f"{row[name]:>34.1f}" for name in COUNTED)
              + f"  {row['partition.bytes_written']:>24}")
    first, second = rows[0], rows[1]
    for name in COUNTED:
        print(f"growth N={first['stages']}->{second['stages']} of {name}: {second[name] / first[name]:.2f}x")
    for name, value in timings.items():
        print(f"{name:<28} {value:.4f}")
    print(json.dumps({"scaling": rows, "baseline": timings}))
    return 0
