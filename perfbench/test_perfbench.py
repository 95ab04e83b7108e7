"""Tests of the benchmark's own measurement code (no LLL is run)."""

from __future__ import annotations

import os
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import benchlib  # noqa: E402
from benchlib import (  # noqa: E402
    CheckError,
    OpRecord,
    Span,
    Tracer,
    digest,
    OpProfile,
    geometric_mean_ratio,
    profiles_by_op,
    run_closed_loop,
    run_op,
    self_times,
)


class FakeClock:
    """Deterministic timer: every reading advances by one second."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_layer_metrics_are_medians_over_ops():
    import latred_workloads as lw

    def op(seconds, selects):
        return OpProfile(op_seconds=seconds,
                         inclusive={"greedy.reduce": seconds / 2},
                         calls={"greedy.select_pivot": selects})

    got = lw.median_layer_metrics([op(4.0, 3), op(1.0, 9), op(2.0, 5)])
    assert got["trace.op_s"] == 2.0
    assert got["greedy.select_pivot_calls"] == 5
    assert got["trace.greedy_share"] == 0.5
    assert got["lll.swaps"] == 0
    even = lw.median_layer_metrics([op(1.0, 2), op(3.0, 3)])
    assert even["trace.op_s"] == 2.0 and even["greedy.select_pivot_calls"] == 2.5


def test_geometric_mean_ratio_is_exact_before_the_root():
    assert geometric_mean_ratio([(1, 4), (4, 1)]) == 1.0
    assert geometric_mean_ratio([(2, 1), (8, 1)]) == pytest.approx(4.0)
    big = 10 ** 400  # beyond float range; only the exact ratio matters
    assert geometric_mean_ratio([(3 * big, big)]) == pytest.approx(3.0)
    assert geometric_mean_ratio([(big, 7), (7, big)]) == 1.0
    with pytest.raises(ValueError):
        geometric_mean_ratio([])
    with pytest.raises(ValueError):
        geometric_mean_ratio([(0, 1)])


def test_self_times_subtract_direct_children_only():
    spans = [
        Span("op", None, 0, 0.0, 10.0),
        Span("a", 0, 0, 1.0, 7.0),
        Span("b", 1, 0, 2.0, 4.0),
        Span("b", 1, 0, 4.5, 5.5),
        Span("c", 0, 0, 8.0, 9.0),
    ]
    assert self_times(spans) == [3.0, 3.0, 2.0, 1.0, 1.0]


def _fake_package(monkeypatch):
    """A package 'fakepkg' whose 'inner' module calls 'leaf' by global name."""
    pkg = types.ModuleType("fakepkg")
    leafmod = types.ModuleType("fakepkg.leafmod")
    inner = types.ModuleType("fakepkg.inner")

    def leaf(x):
        return x % 2 == 0

    leafmod.leaf = leaf
    inner.leaf = leaf  # as after "from .leafmod import leaf"
    exec("def outer(xs):\n    return [leaf(x) for x in xs]\n", inner.__dict__)
    for name, mod in (("fakepkg", pkg), ("fakepkg.leafmod", leafmod),
                      ("fakepkg.inner", inner)):
        monkeypatch.setitem(sys.modules, name, mod)
    return inner, leaf


def test_tracer_wraps_rebinds_and_restores(monkeypatch):
    inner, leaf = _fake_package(monkeypatch)
    tracer = Tracer([("fakepkg.inner", "outer", None),
                     ("fakepkg.leafmod", "leaf", bool)],
                    package="fakepkg", timer=FakeClock())
    tracer.install()
    with tracer.op_span(7):
        assert inner.outer([1, 2]) == [False, True]
    tracer.uninstall()
    assert inner.leaf is leaf and sys.modules["fakepkg.leafmod"].leaf is leaf
    names = [(s.name, s.parent, s.op, s.outcome) for s in tracer.spans]
    assert names == [("op", None, 7, None), ("inner.outer", 0, 7, None),
                     ("leafmod.leaf", 1, 7, False), ("leafmod.leaf", 1, 7, True)]
    # Clock reads: op 1..8, outer 2..7, leaves 3..4 and 5..6, so outer's
    # self time is 5 - 2 and the op's own is 7 - 5.
    prof = profiles_by_op(tracer.spans)[7]
    assert prof.op_seconds == 7.0
    assert prof.inclusive["inner.outer"] == 5.0
    assert prof.self_s["inner.outer"] == 3.0
    assert prof.self_s["op"] == 2.0
    assert prof.self_s["leafmod.leaf"] == 2.0
    assert prof.calls["leafmod.leaf"] == 2
    assert prof.outcomes["leafmod.leaf"] == [False, True]
    assert prof.first_child["leafmod.leaf"] == 1.0


class FlakyWorkload:
    """Op 1 raises, op 2 fails its check; the others pass."""

    quality_ops = 4

    def prepare(self, index):
        return index

    def op(self, index):
        if index == 1:
            raise ArithmeticError("injected")
        return index

    def check(self, index, output, outcomes):
        if index == 2:
            raise CheckError("injected bad output")
        return [output], [(1, 2, 1, 2)]


def test_failures_are_counted_and_the_loop_goes_on():
    tracer = Tracer([], package="fakepkg_none")
    records = run_closed_loop(FlakyWorkload(), 0.0, 4, tracer)
    assert [r.ok for r in records] == [True, False, False, True]
    assert [r.check_failed for r in records] == [False, False, True, False]
    assert "ArithmeticError: injected" in records[1].error
    assert benchlib.quality_metrics(records)["frob_ratio"] == 0.5


def test_digest_depends_on_outputs_and_order():
    a = OpRecord(0, 1.0, True, digest_items=[1, 2])
    b = OpRecord(1, 9.0, True, digest_items=[3])
    assert digest([a, b]) == digest([OpRecord(0, 5.0, True, digest_items=[1, 2]), b])
    assert digest([a, b]) != digest([b, a])


def test_dropped_harness_trial_is_a_failed_op(monkeypatch, tmp_path):
    import latred_workloads as lw

    workload = lw.QaryOnce(seed=3, workdir=str(tmp_path))
    # The harness drops a failing trial with only a log line.
    monkeypatch.setattr(lw.harness, "run_once", lambda config: [])
    rec = run_op(workload, 0, Tracer(lw.TAP_TARGETS))
    assert not rec.ok and rec.check_failed
    assert "0 records for 1 attempted trials" in rec.error

