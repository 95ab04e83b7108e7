"""The latred benchmark's workloads, output checks and layer metrics.

Each workload turns the benchmark seed and an op index into inputs, runs
one op through latred's public API, and checks the op's output with the
benchmark's own exact arithmetic.  Importing this module imports latred
(and numpy); the runner does that inside the timed set-up.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from statistics import median

from latred import altreduce, cli, genlat, harness

from benchlib import CheckError, OpProfile

Q = 8191


def derived_seed(*parts) -> int:
    """64-bit seed from the benchmark seed, workload name, op index and tag."""
    text = ":".join(str(p) for p in parts).encode()
    return int.from_bytes(hashlib.sha256(text).digest()[:8], "big")


def exact_norms(cols) -> tuple[int, int]:
    """(sum of squared entries, smallest nonzero squared column norm)."""
    norms = [sum(x * x for x in col) for col in cols]
    nonzero = [v for v in norms if v > 0]
    return sum(norms), (min(nonzero) if nonzero else 0)


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


class Workload:
    """Inputs of op i come only from (seed, name, i).

    ``quality_ops`` is the number of leading ops every run attempts; the
    exact-output digest and the frob/min ratios cover exactly those, so
    they repeat for a seed whatever the machine speed.  Each count is the
    most that fits in about one run, because the ratios differ from seed
    to seed and averaging more ops keeps them steady.
    """

    name = ""
    quality_ops = 1

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self._inputs: dict[int, object] = {}

    def op_seed(self, index: int, tag: str = "op") -> int:
        return derived_seed(self.seed, self.name, index, tag)

    def setup(self) -> None:
        for i in range(self.quality_ops):
            self.prepare(i)

    def prepare(self, index: int):
        """Build (once) and return the inputs of op ``index``; never timed."""
        if index not in self._inputs:
            self._inputs[index] = self.make_input(index)
        return self._inputs[index]

    def make_input(self, index: int):
        raise NotImplementedError

    def op(self, index: int):
        raise NotImplementedError

    def check(self, index: int, output, outcomes: dict):
        """Return (digest items, quality rows) or raise CheckError."""
        raise NotImplementedError


class _Qary(Workload):
    """harness protocol on the q-ary example, q = 8191, ell = 8 (n = 24)."""

    ell = 8
    mode = "once"
    trials = 1

    def config(self, index: int):
        return harness.ExperimentConfig(
            q=Q, ell_list=(self.ell,), trials=self.trials, mode=self.mode,
            seed=self.op_seed(index),
        )

    def make_input(self, index: int):
        # The harness builds its example from (config seed, ell, 0); the
        # benchmark recomputes that input's norms independently.
        spec = genlat.ExampleSpec(
            Q, self.ell, genlat.derive_seed(self.op_seed(index), self.ell, 0)
        )
        return exact_norms(genlat.gen_example(spec).cols)

    def op(self, index: int):
        runner = harness.run_once if self.mode == "once" else harness.run_repeatedly
        return runner(self.config(index))

    def check(self, index: int, output, outcomes: dict):
        records = output
        swaps = outcomes.get("lll.lll_reduce", [])
        _expect(len(records) == self.trials,
                f"harness returned {len(records)} records for {self.trials} "
                "attempted trials")
        _expect(len(swaps) == self.trials,
                f"{len(swaps)} LLL calls for {self.trials} trials")
        frob0, min0 = self.prepare(index)
        items, quality = [], []
        for r, rec in enumerate(records):
            _expect((rec.frob_sq_0, rec.min_sq_0) == (frob0, min0),
                    f"round {r}: input norms {rec.frob_sq_0},{rec.min_sq_0} "
                    f"!= recomputed {frob0},{min0}")
            _expect(rec.frob_sq_ours <= rec.frob_sq_lll,
                    f"round {r}: polish raised frob_sq {rec.frob_sq_lll} -> "
                    f"{rec.frob_sq_ours}")
            _expect(0 < rec.min_sq_ours <= rec.min_sq_lll,
                    f"round {r}: polish raised min_sq {rec.min_sq_lll} -> "
                    f"{rec.min_sq_ours}")
            items.append([rec.frob_sq_0, rec.frob_sq_lll, rec.frob_sq_ours,
                          rec.min_sq_0, rec.min_sq_lll, rec.min_sq_ours,
                          rec.iters_ours, swaps[r]])
            quality.append((rec.frob_sq_ours, rec.frob_sq_0,
                            rec.min_sq_ours, rec.min_sq_0))
            # A permutation keeps every norm, so the next round starts
            # from this round's output norms.
            frob0, min0 = rec.frob_sq_ours, rec.min_sq_ours
        return items, quality


class QaryOnce(_Qary):
    """One permute -> LLL -> polish trial per op: LLL's swap path."""

    name = "qary-once"
    quality_ops = 14


class QaryRepeat(_Qary):
    """16 chained rounds per op: rounds 2-16 run LLL on reduced bases."""

    name = "qary-repeat"
    mode = "repeat"
    trials = 16
    quality_ops = 4


def _write_mat(cols, path) -> None:
    m = len(cols[0])
    lines = [f"{m} {len(cols)}"]
    lines.extend(" ".join(str(col[r]) for col in cols) for r in range(m))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def _read_mat_cols(path) -> list[list[int]]:
    with open(path, encoding="ascii") as fh:
        rows = [[int(t) for t in line.split()] for line in fh if line.strip()]
    m, n = rows[0]
    body = rows[1:]
    if len(body) != m or any(len(row) != n for row in body):
        raise CheckError(f"{path}: malformed output matrix")
    return [[row[j] for row in body] for j in range(n)]


class PolishScrambled(Workload):
    """cli reduce --algo greedy on a scrambled small-entry basis, n = 128."""

    name = "polish-scrambled"
    quality_ops = 20
    n = 128

    def make_input(self, index: int):
        n = self.n
        rng = random.Random(self.op_seed(index))
        cols = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        for _ in range(2 * n):
            j, k = rng.sample(range(n), 2)
            s = rng.choice((-1, 1))
            cols[j] = [a + s * b for a, b in zip(cols[j], cols[k])]
        path = os.path.join(self.workdir, f"polish-{index}.mat")
        _write_mat(cols, path)
        return path, exact_norms(cols)

    def _paths(self):
        return (os.path.join(self.workdir, "polish-out.mat"),
                os.path.join(self.workdir, "polish-report.json"))

    def op(self, index: int):
        in_path, _ = self.prepare(index)
        out_path, report_path = self._paths()
        argv = ["reduce", "--algo", "greedy", "--p-schedule", "2,1",
                "--track-transform", "--report", report_path,
                "--in", in_path, "--out", out_path]
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def check(self, index: int, output, outcomes: dict):
        _expect(output == 0, f"latred reduce exited with {output}")
        _, (frob0, min0) = self.prepare(index)
        out_path, report_path = self._paths()
        with open(report_path, encoding="ascii") as fh:
            report = json.load(fh)
        before, after = report["before"], report["after"]
        _expect(report.get("transform_matches") is True,
                "report says the transform does not reproduce the output")
        _expect((before["frobenius_sq"], before["min_norm_sq"]) == (frob0, min0),
                "report's input norms differ from the generated input")
        out_norms = exact_norms(_read_mat_cols(out_path))
        _expect(out_norms == (after["frobenius_sq"], after["min_norm_sq"]),
                f"output file norms {out_norms} differ from the report's")
        _expect(after["frobenius_sq"] <= frob0, "polish raised frob_sq")
        items = [frob0, min0, after["frobenius_sq"], after["min_norm_sq"],
                 report["iterations"]]
        quality = [(after["frobenius_sq"], frob0, after["min_norm_sq"], min0)]
        return items, quality


def _product(basis_cols, u_cols) -> list[list[int]]:
    """Exact basis . U, column by column."""
    m = len(basis_cols[0])
    out = []
    for ucol in u_cols:
        col = [0] * m
        for i, u in enumerate(ucol):
            if u:
                b = basis_cols[i]
                for r in range(m):
                    col[r] += u * b[r]
        out.append(col)
    return out


class NegativeCompare(Workload):
    """mgs and rand-comb (10n steps), tracked, on a permuted q-ary n = 48."""

    name = "negative-compare"
    quality_ops = 48
    ell = 16

    def make_input(self, index: int):
        spec = genlat.ExampleSpec(Q, self.ell, self.op_seed(index, "example"))
        basis = genlat.random_permutation(
            genlat.gen_example(spec), self.op_seed(index, "permutation")
        )
        return basis, exact_norms(basis.cols)

    def op(self, index: int):
        basis, _ = self.prepare(index)
        mgs = altreduce.mgs_pivot_reduce(basis, 2.0, track_transform=True)
        cfg = altreduce.AltConfig(
            variant="random_combination", iterations=10 * basis.n,
            seed=self.op_seed(index, "rand-comb"),
        )
        rc = altreduce.random_combination_reduce(basis, cfg, track_transform=True)
        return mgs, rc

    def check(self, index: int, output, outcomes: dict):
        basis, (frob0, min0) = self.prepare(index)
        items, quality = [frob0, min0], []
        for label, res in zip(("mgs", "rand-comb"), output):
            _expect(res.transform is not None, f"{label}: no transform")
            _expect(_product(basis.cols, res.transform.cols) == res.basis.cols,
                    f"{label}: input . U differs from the output")
            after = exact_norms(res.basis.cols)
            _expect((res.before.frobenius_sq, res.before.min_norm_sq)
                    == (frob0, min0), f"{label}: wrong input norms")
            _expect((res.after.frobenius_sq, res.after.min_norm_sq) == after,
                    f"{label}: reported norms differ from the output's")
            items += [after[0], after[1], res.iterations_applied]
            quality.append((after[0], frob0, after[1], min0))
        return items, quality


WORKLOADS = {w.name: w for w in (QaryOnce, QaryRepeat, PolishScrambled,
                                 NegativeCompare)}


# ---------------------------------------------------------------- layers

def _iterations(result) -> int:
    return result.iterations_applied


# (module, public function, outcome kept on the span).  These are the calls
# each layer makes on the next; private helpers count in their caller.
TRACE_TARGETS = [
    ("latred.genlat", "gen_example", None),
    ("latred.genlat", "random_permutation", None),
    ("latred.core", "gram_compute", None),
    ("latred.core", "apply_column_op", None),
    ("latred.core", "apply_transform", None),
    ("latred.core", "read_mat", None),
    ("latred.core", "write_mat", None),
    ("latred.lll", "lll_reduce", _iterations),
    ("latred.lll", "orthogonalize", None),
    ("latred.lll", "size_reduce", None),
    ("latred.lll", "lovasz_ok", None),
    ("latred.greedy", "reduce", None),
    ("latred.greedy", "select_pivot", None),
    ("latred.greedy", "apply_pivot", None),
    ("latred.greedy", "update_gram", None),
    ("latred.altreduce", "mgs_pivot_reduce", None),
    ("latred.altreduce", "random_combination_reduce", None),
    ("latred.altreduce", "random_combination_step", bool),
    ("latred.harness", "run_once", None),
    ("latred.harness", "run_repeatedly", None),
    ("latred.cli", "main", None),
]

# Always installed, also with tracing off: LLL swap counts enter the
# exact-output digest and no public result carries them.
TAP_TARGETS = [t for t in TRACE_TARGETS if t[1] == "lll_reduce"]


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(p: OpProfile) -> dict:
    """Per-layer metrics of one traced op.

    Entry points (lll_reduce, greedy reduce, the altreduce reducers) are
    reported inclusive of their children; every other ``_s`` is self time.
    """
    def inc(name):
        return p.inclusive.get(name, 0.0)

    def own(name):
        return p.self_s.get(name, 0.0)

    def calls(name):
        return p.calls.get(name, 0)

    swaps = sum(p.outcomes.get("lll.lll_reduce", []))
    useful = sum(p.outcomes.get("altreduce.random_combination_step", []))
    first_lll = p.first_child.get("lll.lll_reduce", 0.0)
    return {
        "lll.lll_reduce_s": inc("lll.lll_reduce"),
        "lll.swap_path_s": own("lll.lll_reduce"),
        "lll.orthogonalize_s": own("lll.orthogonalize"),
        "lll.size_reduce_s": own("lll.size_reduce"),
        "lll.size_reduce_calls": calls("lll.size_reduce"),
        "lll.lovasz_ok_calls": calls("lll.lovasz_ok"),
        "lll.swaps": swaps,
        "lll.swaps_per_test": _ratio(swaps, calls("lll.lovasz_ok")),
        "lll.first_round_s": first_lll,
        "lll.chained_round_s": inc("lll.lll_reduce") - first_lll,
        "greedy.reduce_s": inc("greedy.reduce"),
        "greedy.select_pivot_s": own("greedy.select_pivot"),
        "greedy.select_pivot_calls": calls("greedy.select_pivot"),
        "greedy.apply_pivot_s": own("greedy.apply_pivot"),
        "greedy.update_gram_s": own("greedy.update_gram"),
        "greedy.iterations": calls("greedy.apply_pivot"),
        "greedy.applied_per_select": _ratio(calls("greedy.apply_pivot"),
                                            calls("greedy.select_pivot")),
        "core.gram_compute_s": own("core.gram_compute"),
        "core.apply_column_op_s": own("core.apply_column_op"),
        "core.apply_column_op_calls": calls("core.apply_column_op"),
        "core.apply_transform_s": own("core.apply_transform"),
        "core.read_mat_s": own("core.read_mat"),
        "core.write_mat_s": own("core.write_mat"),
        "altreduce.mgs_pivot_reduce_s": inc("altreduce.mgs_pivot_reduce"),
        "altreduce.random_combination_reduce_s":
            inc("altreduce.random_combination_reduce"),
        "altreduce.random_combination_step_calls":
            calls("altreduce.random_combination_step"),
        "altreduce.rand_comb_useful_ratio":
            _ratio(useful, calls("altreduce.random_combination_step")),
        "genlat.gen_example_s": own("genlat.gen_example"),
        "genlat.random_permutation_s": own("genlat.random_permutation"),
        "harness.self_s": own("harness.run_once") + own("harness.run_repeatedly"),
        "cli.self_s": own("cli.main"),
        "trace.op_s": p.op_seconds,
        "trace.lll_share": _ratio(inc("lll.lll_reduce"), p.op_seconds),
        "trace.greedy_share": _ratio(inc("greedy.reduce"), p.op_seconds),
    }


def median_layer_metrics(profiles) -> dict:
    """Median over ops of every per-op layer metric."""
    per_op = [layer_metrics(p) for p in profiles]
    return {key: median(m[key] for m in per_op) for key in per_op[0]}
