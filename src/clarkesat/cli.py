"""Command-line front end.

Every numeric input and output is an exact rational "p/q"; the --decimal
flag of `eval` and `measure` adds 15-significant-digit decimal renderings,
clearly labelled approximate.  Commands are deterministic: repeated runs
produce byte-identical output.

Reads.  A command parses each input once, in a fixed order that decides
the error a bad command line reports: --mu, the point, --x0, the tolerance
and the dimension check (``_function``), then its own options (``certify``:
--radius, --K, then the windows).  From them it works out the stage count
it needs and loads that prefix; the checks made on the loaded function
(--x0 inside the box, then ``certify``'s --shift and --shift-radius, each
of which needs the other) come after.  ``certify``
reads stages 1..M, the prefix its certificate needs (see
``saturation_windows``), and ``eval``, ``measure`` and ``plot`` stages
1..m, the prefix their tolerance needs (see ``_tolerance_stages``); the
header, stage count and sha256 line of the whole file are still checked.
Two cases read every stage, as ``stress`` does: a tolerance window outside
[0, 1], and an M past ``first_index_inside``'s size bound, which no file
reaches.  A bad file is reported before a bad input: when a command that
takes --partition raises ValueError, ``main`` checks the whole file and
reports its error, if it has one, in place of the command's.  So only a
failing command reads the file twice.

Exit codes: 0 success, 2 usage, 3 partition not built far enough,
4 tolerance unreachable, 5 I/O failure, 6 a certificate failed its replay
check.
"""

from __future__ import annotations

import argparse
import sys
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import cache

from .errors import CertificateFailed, NotYetCovered, ToleranceExhausted
from .functions import (
    CoefficientSource,
    FiniteSupport,
    SaturatedFunction,
    _F1_SHARES,
    _value_limit,
    eval_f1,
    parse_mu_spec,
    shift_to_ball,
    unit_box,
)
from .partition import _sufficient_stages, build_partition, first_index_inside, load, save
from .rationals import ONE, Interval, format_rational, parse_rational
from .stress import run_subgradient, trajectory_csv
from .verifier import certificate_windows, certify_saturation

EXIT_USAGE = 2
EXIT_NOT_YET_COVERED = 3
EXIT_TOLERANCE = 4
EXIT_IO = 5
EXIT_CERTIFICATE = 6

# The exit code of each error a command may raise, matched in this order.
_EXIT_CODES = {
    NotYetCovered: EXIT_NOT_YET_COVERED,
    ToleranceExhausted: EXIT_TOLERANCE,
    CertificateFailed: EXIT_CERTIFICATE,
    OSError: EXIT_IO,
    ValueError: EXIT_USAGE,
}


def _parse_point(text: str) -> tuple[Fraction, ...]:
    return tuple(parse_rational(part) for part in text.split(","))


def _parse_window(text: str) -> Interval:
    lo_text, sep, hi_text = text.partition(",")
    if not sep:
        raise ValueError(f"bad window {text!r}; expected lo,hi")
    return Interval.closed(parse_rational(lo_text), parse_rational(hi_text))


def _decimal_text(value: Fraction) -> str:
    with localcontext() as ctx:
        ctx.prec = 15
        return str(Decimal(value.numerator) / Decimal(value.denominator))


def _print_bound(lo: Fraction, hi: Fraction, decimal: bool) -> None:
    print(f"{format_rational(lo)} {format_rational(hi)}")
    if decimal:
        print(f"approx {_decimal_text(lo)} {_decimal_text(hi)}")


def _positive_tol(text: str) -> Fraction:
    tol = parse_rational(text)
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    return tol


def _function(args, point_text: str | None, x0_text: str | None = None, tol_text: str | None = None):
    """(mu, point, tol, function): the command's inputs, None where not
    given, read in the module docstring's order, and function(stages), its
    SaturatedFunction on ``load(--partition, stages)``.  d is the point's
    length, 1 without a point; x0 defaults to the domain box center."""
    mu = parse_mu_spec(args.mu)
    point = None if point_text is None else _parse_point(point_text)
    x0 = _parse_point(x0_text) if x0_text else None
    tol = None if tol_text is None else _positive_tol(tol_text)
    d = len(point) if point else 1
    if x0 is not None and len(x0) != d:
        raise ValueError("x0 must match the point's dimension")
    return mu, point, tol, lambda stages=None: SaturatedFunction(load(args.partition, stages), mu, d, x0=x0)


def _truncation(args, mu: CoefficientSource) -> int:
    """--K, or else the largest index with a nonzero coefficient."""
    if args.K is not None:
        return args.K
    if isinstance(mu, FiniteSupport):
        return mu.max_index
    raise ValueError("--K is required for generator coefficient sources")


def cmd_build(args) -> int:
    partition = build_partition(args.stages, parse_rational(args.gap_cap))
    save(partition, args.out, version=2)
    print(f"wrote {args.out}: {partition.stage_count} stages")
    return 0


def _tolerance_stages(limit: Fraction, tol: Fraction, *ends: Fraction) -> int | None:
    """The smallest stage count m with limit * stage_tail_bound(m, 1) < tol/2.

    An answer whose width tends to limit * tail with depth reaches tol from
    stages 1..m of any file: stages past m hold at most that tail, which
    only grows with gap_cap, and the straddlers get the other tol/2.  The
    window integrator counts the tail once per window, not once per unit
    period, so for a window end outside [0, 1] this is None: such a window
    reads every stage, as the library does.
    """
    if not all(0 <= end <= 1 for end in ends):
        return None
    return _sufficient_stages(0, ONE, limit, tol / 2)


def cmd_eval(args) -> int:
    # Every coordinate window gets the budget tol/d.
    mu, point, tol, function = _function(args, args.x, args.x0, args.tol)
    bound = function(_tolerance_stages(_value_limit(mu), tol / len(point))).eval(point, tol)
    _print_bound(bound.lo, bound.hi, args.decimal)
    return 0


def _certificate_stages(windows: list[Interval], K: int) -> int | None:
    """The stage count M whose prefix certifies as the whole file does (see
    ``saturation_windows``); None, the whole file, past
    ``first_index_inside``'s size bound, which no file reaches.  The windows
    are nontrivial and lie in (0, 1), so the bound is its only ValueError."""
    try:
        return max(first_index_inside(window, 2 * K + 1) for window in windows)
    except ValueError:
        return None


def cmd_certify(args) -> int:
    mu, point, _, function = _function(args, args.point, args.x0)
    radius, K = parse_rational(args.radius), _truncation(args, mu)
    windows = certificate_windows(unit_box(len(point)), point, radius, K)
    sf = function(_certificate_stages(windows, K))
    if args.shift or args.shift_radius:
        if not (args.shift and args.shift_radius):
            raise ValueError("--shift requires --shift-radius" if args.shift else "--shift-radius requires --shift")
        sf = shift_to_ball(sf, _parse_point(args.shift), parse_rational(args.shift_radius))
    certificate = certify_saturation(sf, point, radius, K)
    if not certificate.check():
        raise CertificateFailed("certificate failed its own replay check")
    print(certificate.render())
    return 0


def cmd_measure(args) -> int:
    window, tol = _parse_window(args.window), _positive_tol(args.tol)
    partition = load(args.partition, _tolerance_stages(ONE, tol, window.lo, window.hi))
    bound = partition.measure_in(args.k, window, tol)
    _print_bound(bound.lo, bound.hi, args.decimal)
    return 0


def cmd_stress(args) -> int:
    mu, point, _, function = _function(args, args.x_init or None)
    sf = function()
    # Every option is read, and the certificate's inputs checked at the start
    # point, before the trajectory runs, so a bad one costs no oracle call.
    step_c, radius, K = parse_rational(args.step_c), parse_rational(args.radius), _truncation(args, mu)
    start = point or sf.x0
    certificate_windows(sf.domain, start, radius, K)
    trajectory = run_subgradient(sf, start, args.steps, step_c)
    text = trajectory_csv(sf, trajectory, radius, K)
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(text)
        print(f"wrote {args.out}: {len(trajectory)} points")
    else:
        print(text, end="")
    return 0


def cmd_plot(args) -> int:
    if args.grid < 1:
        raise ValueError("grid must request at least one point")
    # Each point is eval_f1's, whose width tends to _F1_SHARES * tail.
    x0, tol = parse_rational(args.x0), _positive_tol(args.tol)
    partition = load(args.partition, _tolerance_stages(_F1_SHARES, tol, x0))
    lines = ["x,f_lo,f_hi"]
    for i in range(1, args.grid + 1):
        x = Fraction(i, args.grid + 1)
        bound = eval_f1(partition, args.k, x0, x, tol)
        lines.append(
            f"{format_rational(x)},{format_rational(bound.lo)},{format_rational(bound.hi)}"
        )
    text = "\n".join(lines) + "\n"
    with open(args.out, "w", encoding="ascii") as fh:
        fh.write(text)
    print(f"wrote {args.out}: {args.grid} grid points")
    return 0


# The help of certify, eval, measure and plot on their prefix reads (the
# module docstring states the rule).
_FAILED_READ = "  A command that fails checks every stage, and reports a bad one in place of its own error."
_TOLERANCE_READ = (
    "  Only the stages the tolerance needs are read and checked, with the header, stage count and"
    " sha256 line of the whole file; the unread stages' mass is in the bound, so it is certified,"
    " though it may differ from the whole file's." + _FAILED_READ
)


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every later call."""
    parser = argparse.ArgumentParser(
        prog="clarkesat",
        description=(
            "Build splitting partitions, evaluate Clarke-saturated functions"
            " with certified rational bounds, and emit machine-checkable"
            " certificates."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser(
        "build", help="build a partition and write a SPLITPART v2 file (v1 files are still read)"
    )
    p_build.add_argument("--stages", type=int, required=True)
    p_build.add_argument("--gap-cap", default="1/1")
    p_build.add_argument("--out", required=True)
    p_build.set_defaults(run=cmd_build)

    p_eval = sub.add_parser(
        "eval",
        help="certified value bound at a point",
        description="Bound the function's value at a point to within --tol." + _TOLERANCE_READ,
    )
    p_eval.add_argument("--partition", required=True)
    p_eval.add_argument("--mu", required=True, help='e.g. "0:1/1" or "ones"')
    p_eval.add_argument("--x", required=True, help="comma-separated p/q coordinates")
    p_eval.add_argument("--x0", default=None)
    p_eval.add_argument("--tol", default="1/1000000")
    p_eval.add_argument("--decimal", action="store_true")
    p_eval.set_defaults(run=cmd_eval)

    p_cert = sub.add_parser(
        "certify",
        help="saturation certificate at a point",
        description="Certify the gradient hull at a point.  Only the stages its windows need are"
        " read and checked, with the header, stage count and sha256 line of the whole file;"
        " the certificate is the one the whole file gives." + _FAILED_READ,
    )
    p_cert.add_argument("--partition", required=True)
    p_cert.add_argument("--mu", required=True)
    p_cert.add_argument("--point", required=True)
    p_cert.add_argument("--radius", required=True)
    p_cert.add_argument("--K", type=int, default=None)
    p_cert.add_argument("--x0", default=None)
    p_cert.add_argument("--shift", default=None, help="affine part center p")
    p_cert.add_argument("--shift-radius", default=None, help="ball radius r for --shift")
    p_cert.set_defaults(run=cmd_certify)

    p_measure = sub.add_parser(
        "measure",
        help="certified member measure in a window",
        description="Bound a member's measure in a window to within --tol." + _TOLERANCE_READ
        + "  A window outside [0, 1] reads the whole file.",
    )
    p_measure.add_argument("--partition", required=True)
    p_measure.add_argument("--k", type=int, required=True)
    p_measure.add_argument("--window", required=True, help="lo,hi as p/q")
    p_measure.add_argument("--tol", default="1/1024")
    p_measure.add_argument("--decimal", action="store_true")
    p_measure.set_defaults(run=cmd_measure)

    p_stress = sub.add_parser("stress", help="subgradient stress demo trajectory", description=(
        "Print a projected subgradient trajectory as CSV.  The --radius box is checked at the start point;"
        " the gap column reads NA where an iterate's box leaves the domain or the partition does not reach yet."))
    p_stress.add_argument("--partition", required=True)
    p_stress.add_argument("--mu", required=True)
    p_stress.add_argument("--steps", type=int, required=True)
    p_stress.add_argument("--x-init", default=None)
    p_stress.add_argument("--step-c", default="1/10")
    p_stress.add_argument("--radius", default="1/4")
    p_stress.add_argument("--K", type=int, default=None)
    p_stress.add_argument("--out", default=None)
    p_stress.set_defaults(run=cmd_stress)

    p_plot = sub.add_parser(
        "plot",
        help="per-point certified bounds on a grid",
        description="Bound f_k relative to --x0 on a grid, each point to within --tol." + _TOLERANCE_READ
        + "  An --x0 outside [0, 1] reads the whole file.",
    )
    p_plot.add_argument("--partition", required=True)
    p_plot.add_argument("--k", type=int, required=True)
    p_plot.add_argument("--grid", type=int, required=True)
    p_plot.add_argument("--out", required=True)
    p_plot.add_argument("--x0", default="1/2")
    p_plot.add_argument("--tol", default="1/1000000")
    p_plot.set_defaults(run=cmd_plot)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    # A stage-n gap's denominator is at least 3*2^(n+4), so a file of more
    # than about 14,300 stages holds numbers past the interpreter's default
    # 4,300-digit limit on int/str conversion: lift it while the command runs.
    limit = sys.get_int_max_str_digits() if hasattr(sys, "set_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        return args.run(args)
    except tuple(_EXIT_CODES) as exc:
        if isinstance(exc, ValueError) and getattr(args, "partition", None):
            try:  # a bad file is reported before a bad input (module docstring)
                load(args.partition)
            except (ValueError, OSError) as file_error:
                exc = file_error
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
