"""Outside-in tracing of the clarkesat layers, installed from the benchmark.

The tracer never edits the library source.  It replaces class attributes
(methods, the ``Fraction`` and ``Interval`` constructors) and module
attributes (public functions, in every ``clarkesat`` module that imported
them by name) with wrappers, and puts the originals back on ``uninstall``.

A *span* wrapper charges the wall time of the call to its layer and
subtracts the time of any span opened inside it, so each layer's
``self_s`` is its span time minus its child spans.  Work done by code that
no span covers (for example ``Fraction`` arithmetic inside a partition
loop) is charged to the innermost open span, i.e. to the layer that asked
for it.  Counters are updated inside the span that does the work.

Per-layer metric names are the benchmark's vocabulary; see README.md.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from fractions import Fraction
from time import perf_counter

LAYERS = ("rationals", "cantor", "partition", "functions", "verifier", "stress", "cli")

COUNTS = (
    "rationals.fractions_built",
    "rationals.intervals_built",
    "rationals.set_ops",
    "cantor.measure_calls",
    "cantor.membership_calls",
    "cantor.cover_calls",
    "cantor.cover_parts",
    "partition.dig_stages",
    "partition.stages_scanned",
    "partition.pieces_visited",
    "partition.bytes_written",
    "functions.eval_calls",
    "verifier.certificates",
    "stress.oracle_calls",
    "cli.commands",
)
# Inclusive wall time of one entry point (never nested in itself).
DURATIONS = ("partition.build_s", "partition.saves_s", "partition.loads_s", "verifier.check_s")


def _depth_arg(args, kwargs) -> int:
    return kwargs["depth"] if "depth" in kwargs else args[-1]


class Tracer:
    """Span and counter collector for one traced phase of a run."""

    def __init__(self):
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.counts = dict.fromkeys(COUNTS, 0)
        self.durations = dict.fromkeys(DURATIONS, 0.0)
        self.max_depth = 0
        self.memberships = 0
        self.undecided = 0
        self._stack: list[float] = []  # child time accumulated by each open span
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers -------------------------------------------------------------

    def _span(self, layer, fn, after=None, duration=None):
        stack = self._stack
        self_s = self.self_s
        durations = self.durations

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, kwargs, result)
                return result
            finally:
                elapsed = perf_counter() - start
                self_s[layer] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
                if duration is not None:
                    durations[duration] += elapsed

        return traced

    def _count(self, name):
        counts = self.counts

        def after(args, kwargs, result):
            counts[name] += 1

        return after

    def _set(self, owner, name, value):
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def _method(self, cls, name, layer, after=None, duration=None):
        original = cls.__dict__[name]
        if isinstance(original, classmethod):
            wrapped = classmethod(self._span(layer, original.__func__, after, duration))
        else:
            wrapped = self._span(layer, original, after, duration)
        self._set(cls, name, wrapped)

    def _function(self, module, name, layer, after=None, duration=None):
        original = getattr(module, name)
        wrapped = self._span(layer, original, after, duration)
        for mod in _clarkesat_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapped)

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        import clarkesat.cantor as cantor
        import clarkesat.cli as cli
        import clarkesat.functions as functions
        import clarkesat.partition as partition
        import clarkesat.rationals as rationals
        import clarkesat.stress as stress
        import clarkesat.verifier as verifier
        from clarkesat.cantor import FatCantorSet
        from clarkesat.partition import SplittingPartition, StageRecord
        from clarkesat.rationals import Interval, IntervalSet
        from clarkesat.verifier import SaturationCertificate

        counts = self.counts

        # rationals: Fraction construction is counted only; a span around
        # every Fraction would cost more than the work it measures.
        new = Fraction.__dict__["__new__"].__func__

        def fraction_new(cls, *args, **kwargs):
            counts["rationals.fractions_built"] += 1
            return new(cls, *args, **kwargs)

        self._set(Fraction, "__new__", staticmethod(fraction_new))
        self._method(Interval, "__post_init__", "rationals", self._count("rationals.intervals_built"))
        for name in ("of", "union", "intersect", "complement_within"):
            self._method(IntervalSet, name, "rationals", self._count("rationals.set_ops"))
        for name in ("measure", "contains"):
            self._method(IntervalSet, name, "rationals")
        for name in ("parse_rational", "format_rational"):
            self._function(rationals, name, "rationals")

        # cantor
        def depth_seen(name):
            def after(args, kwargs, result):
                counts[name] += 1
                self.max_depth = max(self.max_depth, _depth_arg(args, kwargs))

            return after

        def cover_seen(args, kwargs, result):
            counts["cantor.cover_calls"] += 1
            counts["cantor.cover_parts"] += len(result)
            self.max_depth = max(self.max_depth, _depth_arg(args, kwargs))

        self._method(FatCantorSet, "svc_measure_in", "cantor", depth_seen("cantor.measure_calls"))
        self._method(FatCantorSet, "svc_membership", "cantor", depth_seen("cantor.membership_calls"))
        self._method(FatCantorSet, "svc_cover", "cantor", cover_seen)
        self._function(cantor, "find_gap", "cantor")

        # partition
        def built(args, kwargs, result):
            before = args[0].stage_count
            counts["partition.dig_stages"] += sum(
                1 for record in result.stages[before:] if record.depth_used > 0
            )

        def scanned(args, kwargs, result):
            counts["partition.stages_scanned"] += len(result)

        def membership_seen(args, kwargs, result):
            self.memberships += 1
            self.undecided += not result.decided

        def written(args, kwargs, result):
            counts["partition.bytes_written"] += len(result)  # SPLITPART is ASCII

        self._function(partition, "build_partition", "partition")
        self._function(partition, "extend_partition", "partition", built, "partition.build_s")
        self._function(partition, "saves", "partition", written, "partition.saves_s")
        self._function(partition, "loads", "partition", duration="partition.loads_s")
        for name in ("save", "load", "splitting_certificate_auto"):
            self._function(partition, name, "partition")
        self._method(StageRecord, "piece_host", "partition", self._count("partition.pieces_visited"))
        self._method(SplittingPartition, "stages_overlapping", "partition", scanned)
        self._method(SplittingPartition, "membership", "partition", membership_seen)
        for name in ("measure_in", "splitting_certificate", "piece_set"):
            self._method(SplittingPartition, name, "partition")

        # functions
        for name in ("eval_f", "eval_f1"):
            self._function(functions, name, "functions", self._count("functions.eval_calls"))
        for name in ("eval_g", "sample_gradient", "lipschitz_lower_bound", "export_samples", "shift_to_ball"):
            self._function(functions, name, "functions")

        # verifier
        self._function(verifier, "certify_saturation", "verifier", self._count("verifier.certificates"))
        self._method(SaturationCertificate, "check", "verifier", duration="verifier.check_s")
        for name in ("independence_fingerprint", "isometry_witness"):
            self._function(verifier, name, "verifier")

        # stress
        self._function(stress, "oracle", "stress", self._count("stress.oracle_calls"))
        for name in ("run_subgradient", "stationarity_gap", "trajectory_csv"):
            self._function(stress, name, "stress")

        # cli
        self._function(cli, "main", "cli", self._count("cli.commands"))

    @contextmanager
    def installed(self):
        """Trace the body; counters keep accumulating across uses."""
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    # -- results --------------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Every per-layer metric as name -> (value, unit)."""
        out: dict[str, tuple[float, str]] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (self.self_s[layer], "s")
        for name, value in self.counts.items():
            out[name] = (value, "count")
        for name, value in self.durations.items():
            out[name] = (value, "s")
        out["cantor.max_depth"] = (self.max_depth, "count")
        out["partition.membership_undecided_frac"] = (
            self.undecided / self.memberships if self.memberships else 0.0,
            "fraction",
        )
        return out


def _clarkesat_modules():
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "clarkesat" or name.startswith("clarkesat."))
    ]
