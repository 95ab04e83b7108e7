"""Every function the benchmark traces is still reached through its module.

perfbench's tracer rebinds module attributes.  A call made through a
method or a local alias leaves the name in place, so it still resolves,
but is never traced, and its layer metric reads 0 without any error.
Here op 0 of each workload runs under the full tracer, and every target
must record at least one call.  The perfbench modules are imported as
they are, not changed.
"""

import importlib
import json
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_trace_target_is_called_in_op_0(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("latred_workloads")
    benchlib = importlib.import_module("benchlib")
    hit = set()
    for name, make in workloads.WORKLOADS.items():
        tracer = benchlib.Tracer(workloads.TRACE_TARGETS)
        workload = make(1, str(tmp_path))
        record = benchlib.run_op(workload, 0, tracer)
        assert record.ok, f"{name}: {record.error}"
        calls = [span.name for span in tracer.spans]
        hit.update(calls)
        if name == "polish-scrambled":
            _, report_path = workload._paths()
            report = json.loads(Path(report_path).read_text())
            assert calls.count("greedy.apply_pivot") == report["iterations"]
            assert report["iterations"] > 0
    targets = {f"{mod.rsplit('.', 1)[-1]}.{fn}"
               for mod, fn, _ in workloads.TRACE_TARGETS}
    assert targets and sorted(targets - hit) == []
