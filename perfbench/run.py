"""Run one latred benchmark workload and print its metrics.

    python3 perfbench/run.py --workload qary-once --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout; latred is imported from the
checkout's ``src``.  ``--trace 0`` prints the end-to-end metrics of
BENCHMARK.json, measured with tracing off.  ``--trace 1`` runs every op
twice, untraced and traced, and prints the per-layer metrics; its spans
go to ``.perfbench_out/``.  ``--workload all`` runs every workload, each in
a fresh process.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import time

SETUP_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from statistics import median  # noqa: E402

from benchlib import (  # noqa: E402  (imports neither latred nor numpy)
    Tracer,
    calibrated,
    digest,
    profiles_by_op,
    quality_metrics,
    reference_seconds,
    run_closed_loop,
    run_op,
)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORKLOAD_NAMES = ("qary-once", "qary-repeat", "polish-scrambled",
                  "negative-compare")
# Fresh processes timed for setup_s besides the measuring process itself.
SETUP_PROBES = 6
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def pin_threads() -> None:
    """One BLAS thread: must run before numpy is first imported."""
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the thread pinning")
    for var in THREAD_VARS:
        os.environ[var] = "1"


def load_declared_metrics() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def git_commit() -> str | None:
    """HEAD of the checkout's own .git, if it has one; read, not run."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(git, head[5:]), encoding="ascii") as fh:
                head = fh.read().strip()
        return head
    except OSError:
        return None


def environment() -> dict:
    import numpy

    return {
        "commit": git_commit(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def import_workloads():
    """Import latred from this checkout's src and the workload definitions."""
    if not os.path.isfile(os.path.join(SRC, "latred", "__init__.py")):
        raise SystemExit(f"perfbench: no latred package under {SRC}")
    sys.path.insert(0, SRC)
    import latred
    import latred_workloads

    if os.path.dirname(os.path.abspath(latred.__file__)) != os.path.join(SRC, "latred"):
        raise SystemExit(f"perfbench: latred imported from {latred.__file__}")
    return latred_workloads


def set_up(name: str, seed: int, workdir: str):
    """Import plus input generation: (workload, module, timings).

    The timings hold the wall seconds since this process started and
    ``setup_s``, those seconds at the nominal machine speed.
    """
    wmod = import_workloads()
    os.makedirs(workdir, exist_ok=True)
    workload = wmod.WORKLOADS[name](seed, workdir)
    workload.setup()
    wall = time.perf_counter() - SETUP_START
    reference = median(reference_seconds() for _ in range(3))
    return workload, wmod, {"setup_s": calibrated(wall, reference), "wall": wall}


def probe_setups(name: str, seed: int) -> list[dict]:
    """set_up timings of fresh processes, one after another."""
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", name, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: set-up probe failed:\n{proc.stderr}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return out


def measure_untraced(workload, wmod, args, own_setup: dict):
    tap = Tracer(wmod.TAP_TARGETS)
    records = run_closed_loop(workload, args.seconds, workload.quality_ops, tap)
    setups = [own_setup] + probe_setups(args.workload, args.seed)
    ok = [r for r in records if r.ok]
    quality_set = records[:workload.quality_ops]
    info = {"digest": digest(quality_set), "samples": len(ok),
            "op_wall_s": [r.seconds for r in records],
            "reference_s": [r.reference for r in records],
            "setup_wall_s": [s["wall"] for s in setups]}
    if not any(r.ok for r in quality_set):
        return records, None, info
    metrics = {
        "op_s_p50": median(calibrated(r.seconds, r.reference) for r in ok),
        "ops_per_s": len(ok) / sum(calibrated(r.seconds, r.reference)
                                   for r in records),
        **quality_metrics(quality_set),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": median(s["setup_s"] for s in setups),
    }
    return records, metrics, info


def measure_traced(workload, wmod, args):
    tap = Tracer(wmod.TAP_TARGETS)
    full = Tracer(wmod.TRACE_TARGETS)
    plain, traced = [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < args.seconds:
        i = len(traced)
        plain.append(run_op(workload, i, tap))
        traced.append(run_op(workload, i, full))
    os.makedirs(OUT_DIR, exist_ok=True)
    full.write(os.path.join(OUT_DIR, f"trace-{args.workload}-{args.seed}.jsonl"))
    info = {"digest_untraced": digest(plain), "digest_traced": digest(traced),
            "pairs": len(traced)}
    both_ok = [(p, t) for p, t in zip(plain, traced) if p.ok and t.ok]
    if not both_ok:
        return plain + traced, None, info
    profiles = profiles_by_op(full.spans)
    metrics = wmod.median_layer_metrics([profiles[t.index] for _, t in both_ok])
    metrics["trace.overhead_ratio"] = (
        median(t.seconds for _, t in both_ok)
        / median(p.seconds for p, _ in both_ok) - 1.0
    )
    return plain + traced, metrics, info


def run_workload(args) -> int:
    declared = load_declared_metrics()[args.trace]
    workdir = os.path.join(OUT_DIR, f"work-{args.workload}-{os.getpid()}")
    try:
        workload, wmod, own_setup = set_up(args.workload, args.seed, workdir)
        if args.setup_probe:
            print(json.dumps(own_setup))
            return 0
        print("env " + json.dumps(environment()))
        if args.trace:
            records, metrics, info = measure_traced(workload, wmod, args)
        else:
            records, metrics, info = measure_untraced(workload, wmod, args,
                                                      own_setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for rec in records:
        if not rec.ok:
            print(f"op {rec.index} failed: {rec.error}")
    print("info " + json.dumps(info))
    if metrics is None:
        print("perfbench: no op succeeded", file=sys.stderr)
        return 1
    if set(metrics) != set(declared):
        raise SystemExit("perfbench: metrics differ from BENCHMARK.json: "
                         f"{sorted(set(metrics) ^ set(declared))}")
    for name in declared:
        print(f"{name} {metrics[name]!r} {declared[name]}")
    correct = not any(r.check_failed for r in records)
    if args.trace:
        correct = correct and info["digest_untraced"] == info["digest_traced"]
    print(json.dumps({
        "correct": correct,
        "attempted": len(records),
        "failed": sum(not r.ok for r in records),
        "metrics": {name: {"value": metrics[name], "unit": declared[name]}
                    for name in declared},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in a fresh process, so set-up and memory are its own."""
    results, status = {}, 0
    for name in WORKLOAD_NAMES:
        print(f"== {name}", flush=True)
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            status = 1
            continue
        results[name] = json.loads(lines[-1])
        if not results[name]["correct"] or results[name]["failed"]:
            status = 1
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_threads()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
