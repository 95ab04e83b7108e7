"""Every function the benchmark traces still exists under its name.

perfbench/latred_workloads.py names the public functions its traced run
wraps; a renamed or removed one would otherwise surface only when that
run is made.  The module is imported as it is, not changed.
"""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_trace_target_resolves_to_a_callable(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("latred_workloads")
    missing = [f"{modname}.{fname}"
               for modname, fname, _ in workloads.TRACE_TARGETS
               if not callable(getattr(importlib.import_module(modname),
                                       fname, None))]
    assert workloads.TRACE_TARGETS and missing == []
