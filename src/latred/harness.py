"""Benchmark protocols and CSV reporting.

Both protocols run the pipeline permute -> LLL -> greedy polish through
core.pipeline.  "once" runs it independently per trial on the same
generated example; "repeat" chains it, feeding each round's polished
output into the next round's input.  ExperimentConfig builds and checks
the example and stage configs once, when it is constructed, so a bad
option raises UsageError before any trial runs.  Squared norms are
recorded as exact integers; fractions are left to whoever reads the CSV
so nothing is lost to rounding.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .core import ReductionResult, UsageError, pipeline
from .genlat import ExampleSpec, derive_seed, gen_example, random_permutation
from .greedy import ReduceConfig, reduce as greedy_reduce
from .lll import DEFAULT_DELTA, LLLConfig, lll_reduce

log = logging.getLogger(__name__)

MODES = ("once", "repeat")

CSV_HEADER = (
    "mode,n,q,delta,p,trial,"
    "frob_sq_0,frob_sq_lll,frob_sq_ours,"
    "min_sq_0,min_sq_lll,min_sq_ours,"
    "secs_lll,secs_ours,iters_ours"
)


@dataclass(frozen=True)
class ExperimentConfig:
    q: int
    ell_list: tuple[int, ...]
    delta: float = DEFAULT_DELTA
    p_schedule: tuple[float, ...] = (2.0,)
    trials: int = 10
    mode: str = "once"
    seed: int = 0
    csv_path: str | None = None

    def __post_init__(self):
        if self.trials < 1:
            raise UsageError("trials must be at least 1")
        if not self.ell_list:
            raise UsageError("ell_list must be nonempty")
        if self.mode not in MODES:
            raise UsageError(f"mode must be one of {MODES}")
        # Building these checks q, each ell, delta and p_schedule now;
        # inside a trial a bad value would only be logged as a failure.
        self.example_specs
        self.lll_config
        self.reduce_config

    @cached_property
    def example_specs(self) -> tuple[ExampleSpec, ...]:
        return tuple(
            ExampleSpec(self.q, ell, derive_seed(self.seed, ell, 0))
            for ell in self.ell_list
        )

    @cached_property
    def lll_config(self) -> LLLConfig:
        return LLLConfig(delta=self.delta)

    @cached_property
    def reduce_config(self) -> ReduceConfig:
        return ReduceConfig(p_schedule=self.p_schedule)


@dataclass(frozen=True)
class TrialRecord:
    """One permute -> LLL -> greedy pass, squared norms kept exact."""

    mode: str
    n: int
    q: int
    delta: float
    p: str
    trial: int
    frob_sq_0: int
    frob_sq_lll: int
    frob_sq_ours: int
    min_sq_0: int
    min_sq_lll: int
    min_sq_ours: int
    secs_lll: float
    secs_ours: float
    iters_ours: int


def schedule_label(p_schedule) -> str:
    """Compact text form of an exponent schedule, e.g. '2' or '2;1'."""
    return ";".join(format(p, "g") for p in p_schedule)


def _make_record(config: ExperimentConfig, mode: str, n: int, trial: int,
                 res: ReductionResult) -> TrialRecord:
    lll_res, ours_res = res.stages
    return TrialRecord(
        mode=mode,
        n=n,
        q=config.q,
        delta=config.delta,
        p=schedule_label(config.p_schedule),
        trial=trial,
        frob_sq_0=res.before.frobenius_sq,
        frob_sq_lll=lll_res.after.frobenius_sq,
        frob_sq_ours=ours_res.after.frobenius_sq,
        min_sq_0=res.before.min_norm_sq,
        min_sq_lll=lll_res.after.min_norm_sq,
        min_sq_ours=ours_res.after.min_norm_sq,
        secs_lll=lll_res.seconds,
        secs_ours=ours_res.seconds,
        iters_ours=ours_res.iterations_applied,
    )


def _run_trials(config: ExperimentConfig, mode: str) -> list[TrialRecord]:
    chained = mode == "repeat"
    lll_cfg, greedy_cfg = config.lll_config, config.reduce_config
    # Looked up at call time, so a patched lll_reduce or greedy_reduce
    # (tests, tracing) is the one that runs.
    stages = (
        lambda basis: lll_reduce(basis, lll_cfg),
        lambda basis: greedy_reduce(basis, greedy_cfg),
    )
    records = []
    for spec in config.example_specs:
        basis = gen_example(spec)
        for trial in range(config.trials):
            permuted = random_permutation(
                basis, derive_seed(config.seed, spec.ell, trial + 1)
            )
            try:
                res = pipeline(permuted, stages)
            except (ArithmeticError, ValueError) as exc:
                if chained:
                    log.warning("round %d at n=%d failed: %s; chain stopped",
                                trial, spec.n, exc)
                    break
                log.warning("trial %d at n=%d failed: %s", trial, spec.n, exc)
                continue
            records.append(_make_record(config, mode, spec.n, trial, res))
            if chained:
                basis = res.basis
    return records


def run_once(config: ExperimentConfig) -> list[TrialRecord]:
    """Independent trials: permute the example, LLL it, polish it.

    A failing trial is logged and dropped; the others still run.
    """
    return _run_trials(config, "once")


def run_repeatedly(config: ExperimentConfig) -> list[TrialRecord]:
    """Chained rounds: each round's polished output feeds the next round.

    config.trials is the chain length.  One record is emitted per round;
    the chain-level fractions fall out of the first and last records.  A
    failing round ends that chain (later rounds would need its output) but
    other sizes still run.
    """
    return _run_trials(config, "repeat")


def run_experiment(config: ExperimentConfig) -> list[TrialRecord]:
    runner = run_once if config.mode == "once" else run_repeatedly
    records = runner(config)
    if config.csv_path is not None:
        emit_csv(records, config.csv_path)
    return records


_INT_FIELDS = (
    "frob_sq_0", "frob_sq_lll", "frob_sq_ours",
    "min_sq_0", "min_sq_lll", "min_sq_ours",
)
_SEC_FIELDS = ("secs_lll", "secs_ours")


def _record_cells(rec: TrialRecord) -> list[str]:
    cells = [rec.mode, str(rec.n), str(rec.q), repr(rec.delta), rec.p,
             str(rec.trial)]
    cells.extend(str(getattr(rec, f)) for f in _INT_FIELDS)
    cells.extend(f"{getattr(rec, f):.6f}" for f in _SEC_FIELDS)
    cells.append(str(rec.iters_ours))
    return cells


def _mean_cell(values) -> str:
    mean = Fraction(sum(values), len(values))
    if mean.denominator == 1:
        return str(mean.numerator)
    return repr(float(mean))


# (stat, cell of exact columns, value of seconds columns)
_AGGREGATES = (
    ("mean", _mean_cell, lambda values: sum(values) / len(values)),
    ("min", lambda values: str(min(values)), min),
    ("max", lambda values: str(max(values)), max),
)


def aggregate_rows(records) -> list[list[str]]:
    """mean/min/max rows per (mode, n) group, in first-appearance order."""
    groups: dict[tuple[str, int], list[TrialRecord]] = {}
    for rec in records:
        groups.setdefault((rec.mode, rec.n), []).append(rec)
    rows = []
    for (mode, n), group in groups.items():
        first = group[0]
        head = [mode, str(n), str(first.q), repr(first.delta), first.p]
        values = {f: [getattr(r, f) for r in group]
                  for f in (*_INT_FIELDS, *_SEC_FIELDS, "iters_ours")}
        for stat, exact, secs in _AGGREGATES:
            row = head + [stat]
            row += [exact(values[f]) for f in _INT_FIELDS]
            row += [f"{secs(values[f]):.6f}" for f in _SEC_FIELDS]
            row.append(exact(values["iters_ours"]))
            rows.append(row)
    return rows


def emit_csv(records, path) -> None:
    """Write trial rows then per-(mode, n) aggregate rows.

    Integer columns are exact decimal; seconds use 6 decimal places.
    """
    lines = [CSV_HEADER]
    lines.extend(",".join(_record_cells(r)) for r in records)
    lines.extend(",".join(row) for row in aggregate_rows(records))
    try:
        with open(path, "w", encoding="ascii") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise OSError(f"could not write CSV to {path}: {exc}") from exc
