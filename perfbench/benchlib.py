"""Measurement primitives of the latred benchmark.

Statistics over exact integers, the closed-loop op runner, and the tracer
that wraps latred's public module-level functions from the outside to get
per-layer spans.  Nothing here imports latred or numpy, so the tests of
these pieces stay fast.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import math
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction


class CheckError(Exception):
    """An op's output failed the benchmark's correctness check."""


# Nominal wall time of reference_seconds() on an uncontended core.  Timings
# are reported at that machine speed: wall time x REFERENCE_SECONDS / the
# reference time measured next to them.  On a shared machine the speed
# drifts by tens of percent over minutes, and the reference, run right
# before and after each op, follows the drift.
REFERENCE_SECONDS = 0.008


def reference_seconds(timer=time.perf_counter) -> float:
    """Wall time of a fixed pure-Python integer workload (exact Gram, n = 48)."""
    t0 = timer()
    cols = [[(i * 7919 + j * 104729) % 8191 - 4095 for j in range(48)]
            for i in range(48)]
    acc = 0
    for a in cols:
        for b in cols:
            s = 0
            for x, y in zip(a, b):
                s += x * y
            acc ^= s
    return timer() - t0


def calibrated(seconds: float, reference: float) -> float:
    """``seconds`` rescaled to the machine speed where the reference is nominal."""
    return seconds * REFERENCE_SECONDS / reference


def geometric_mean_ratio(pairs) -> float:
    """Geometric mean of out/in over (out, in) pairs of positive integers.

    The product of the ratios is formed exactly as a Fraction; only the
    final n-th root is taken in floating point, through logarithms of the
    exact numerator and denominator so that huge products never overflow.
    """
    pairs = list(pairs)
    if not pairs:
        raise ValueError("geometric mean of no ratios")
    product = Fraction(1)
    for out, inp in pairs:
        if out <= 0 or inp <= 0:
            raise ValueError(f"ratio needs positive integers, got {out}/{inp}")
        product *= Fraction(out, inp)
    log_ratio = math.log(product.numerator) - math.log(product.denominator)
    return math.exp(log_ratio / len(pairs))


# ---------------------------------------------------------------- op runner


@dataclass
class OpRecord:
    """One attempted op: its timed seconds and what its check produced."""

    index: int
    seconds: float
    ok: bool
    reference: float = REFERENCE_SECONDS  # mean reference time around the op
    error: str | None = None
    check_failed: bool = False
    digest_items: list = field(default_factory=list)
    quality: list = field(default_factory=list)  # (out_frob, in_frob, out_min, in_min)


def run_op(workload, index: int, tracer: "Tracer",
           timer=time.perf_counter) -> OpRecord:
    """Run op ``index`` under ``tracer``, then check it outside the timing.

    Inputs are prepared before the clock starts, and the reference workload
    runs right before and right after the op.  A raised error and a failed
    check both give a failed record; neither stops the run.
    """
    workload.prepare(index)
    first = len(tracer.spans)
    before = reference_seconds(timer)
    tracer.install()
    try:
        t0 = timer()
        try:
            with tracer.op_span(index):
                output = workload.op(index)
            error = None
        except Exception as exc:  # any error of the program is a failed op
            error = f"{type(exc).__name__}: {exc}"
        seconds = timer() - t0
    finally:
        tracer.uninstall()
    reference = (before + reference_seconds(timer)) / 2
    if error is not None:
        return OpRecord(index, seconds, False, reference, error)
    outcomes: dict[str, list] = {}
    for span in tracer.spans[first:]:
        if span.outcome is not None:
            outcomes.setdefault(span.name, []).append(span.outcome)
    try:
        digest_items, quality = workload.check(index, output, outcomes)
    except CheckError as exc:
        return OpRecord(index, seconds, False, reference,
                        f"check failed: {exc}", True)
    return OpRecord(index, seconds, True, reference, None, False, digest_items,
                    quality)


def run_closed_loop(workload, seconds: float, min_ops: int, tracer: "Tracer",
                    timer=time.perf_counter) -> list[OpRecord]:
    """One client, next op only after the previous one finished and was checked.

    Runs until ``seconds`` of wall time have passed and at least ``min_ops``
    ops were attempted.
    """
    records: list[OpRecord] = []
    start = timer()
    while len(records) < min_ops or timer() - start < seconds:
        records.append(run_op(workload, len(records), tracer, timer))
    return records


def digest(records) -> str:
    """sha256 over the exact outputs of the records, in op order."""
    h = hashlib.sha256()
    for rec in records:
        h.update(json.dumps([rec.index, rec.ok, rec.digest_items]).encode())
    return h.hexdigest()


def quality_metrics(records) -> dict:
    """frob_ratio and min_ratio: geometric means over every checked output."""
    rows = [q for rec in records if rec.ok for q in rec.quality]
    return {
        "frob_ratio": geometric_mean_ratio((r[0], r[1]) for r in rows),
        "min_ratio": geometric_mean_ratio((r[2], r[3]) for r in rows),
    }


# ------------------------------------------------------------------- tracer


@dataclass(slots=True)
class Span:
    """One call: parent span id, op id, start and end seconds."""

    name: str
    parent: int | None
    op: int
    start: float
    end: float = 0.0
    outcome: object = None


class Tracer:
    """Spans around latred's public functions, installed by rebinding them.

    ``targets`` lists (module, function, outcome) triples; ``outcome``, when
    not None, maps the call's return value to a small value kept on the
    span (the swaps of an LLL call, whether a step changed anything).
    Every module attribute of the package bound to a target function is
    rebound to the wrapper, so calls through ``from .x import f`` names are
    traced too.  Spans stay in memory until ``write``.
    """

    def __init__(self, targets, package: str = "latred",
                 timer=time.perf_counter):
        self.targets = list(targets)
        self.package = package
        self.timer = timer
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.op = -1

    def _wrap(self, name: str, fn, outcome):
        spans, stack, timer = self.spans, self._stack, self.timer

        def traced(*args, **kwargs):
            sid = len(spans)
            span = Span(name, stack[-1] if stack else None, self.op, timer())
            spans.append(span)
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = timer()
                stack.pop()
            if outcome is not None:
                span.outcome = outcome(result)
            return result

        return traced

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for key, m in list(sys.modules.items())
                   if key == self.package or key.startswith(self.package + ".")]
        for modname, fname, outcome in self.targets:
            original = getattr(importlib.import_module(modname), fname)
            layer = modname.rsplit(".", 1)[-1]
            wrapper = self._wrap(f"{layer}.{fname}", original, outcome)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def op_span(self, op: int):
        """Context manager: the root span of one op, id ``op``."""
        return _OpSpan(self, op)

    def write(self, path) -> None:
        """JSON lines: a header naming the fields, then one array per span."""
        with open(path, "w", encoding="ascii") as fh:
            fh.write(json.dumps(["id", "parent", "op", "name", "start", "end",
                                 "outcome"]) + "\n")
            for sid, s in enumerate(self.spans):
                fh.write(json.dumps([sid, s.parent, s.op, s.name, s.start,
                                     s.end, s.outcome]) + "\n")


class _OpSpan:
    def __init__(self, tracer: Tracer, op: int):
        self.tracer = tracer
        self.op = op

    def __enter__(self):
        tr = self.tracer
        tr.op = self.op
        tr._stack.append(len(tr.spans))
        tr.spans.append(Span("op", None, self.op, tr.timer()))
        return self

    def __exit__(self, *exc):
        tr = self.tracer
        tr.spans[tr._stack.pop()].end = tr.timer()
        return False


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans of one thread nest, so children never overlap and their summed
    durations are exactly the part of the parent they cover.
    """
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.end - s.start
    return out


@dataclass
class OpProfile:
    """Per-function sums for the spans of one op."""

    op_seconds: float = 0.0
    inclusive: dict = field(default_factory=dict)
    self_s: dict = field(default_factory=dict)
    calls: dict = field(default_factory=dict)
    outcomes: dict = field(default_factory=dict)  # name -> list of outcomes
    # name -> inclusive seconds of the first such call under each parent
    first_child: dict = field(default_factory=dict)


def profiles_by_op(spans) -> dict[int, OpProfile]:
    """Fold the spans into one OpProfile per op id."""
    own = self_times(spans)
    profiles: dict[int, OpProfile] = {}
    seen_under_parent: set[tuple[int | None, str]] = set()
    for sid, s in enumerate(spans):
        prof = profiles.setdefault(s.op, OpProfile())
        dur = s.end - s.start
        if s.name == "op":
            prof.op_seconds += dur
        prof.inclusive[s.name] = prof.inclusive.get(s.name, 0.0) + dur
        prof.self_s[s.name] = prof.self_s.get(s.name, 0.0) + own[sid]
        prof.calls[s.name] = prof.calls.get(s.name, 0) + 1
        if s.outcome is not None:
            prof.outcomes.setdefault(s.name, []).append(s.outcome)
        key = (s.parent, s.name)
        if key not in seen_under_parent:
            seen_under_parent.add(key)
            prof.first_child[s.name] = prof.first_child.get(s.name, 0.0) + dur
    return profiles
