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

from dataclasses import dataclass, fields
from functools import cached_property

from .core import ReductionResult, UsageError, pipeline, warn
from .genlat import ExampleSpec, derive_seed, gen_example, random_permutation
from .greedy import ReduceConfig, reduce as greedy_reduce
from .lll import DEFAULT_DELTA, LLLConfig, lll_reduce

MODES = ("once", "repeat")


@dataclass(frozen=True)
class ExperimentConfig:
    q: int
    ell_list: tuple[int, ...]
    delta: float = DEFAULT_DELTA
    p_schedule: tuple[float, ...] = (2.0,)
    trials: int = 10
    mode: str = "once"
    seed: int = 0

    def __post_init__(self):
        if self.trials < 1:
            raise UsageError("trials must be at least 1")
        if not self.ell_list:
            raise UsageError("ell_list must be nonempty")
        if len(set(self.ell_list)) < len(self.ell_list):
            raise UsageError("ell_list must not repeat a size")
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
    """One permute -> LLL -> greedy pass, squared norms kept exact.

    The fields are the bench CSV's columns, in order.  The fields before
    trial name the group a trial belongs to; aggregate rows put their stat
    (mean, min, max) in the trial column.  Float fields are measured
    seconds; every int field after trial is exact.
    """

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


CSV_HEADER = ",".join(f.name for f in fields(TrialRecord))


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
                    warn(__name__, "round %d at n=%d failed: %s; "
                         "chain stopped", trial, spec.n, exc)
                    break
                warn(__name__, "trial %d at n=%d failed: %s",
                     trial, spec.n, exc)
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
    return runner(config)


def _split(rec: TrialRecord) -> tuple[list, list]:
    """The record's values before its trial field and after it."""
    names = [f.name for f in fields(rec)]
    values = [getattr(rec, name) for name in names]
    cut = names.index("trial")
    return values[:cut], values[cut + 1:]


def _mean(values):
    """A column's mean.

    Of seconds, a float.  Of exact values, the int when the mean is one,
    else the repr of the nearest float: int / int is correctly rounded.
    """
    total, count = sum(values), len(values)
    if isinstance(total, float):
        return total / count
    return total // count if total % count == 0 else repr(total / count)


def _row(group, stat, measured) -> list[str]:
    """The CSV cells of one trial or aggregate row.

    Measured seconds get 6 decimals.  An exact value prints in full, and
    an exact mean that is not an integer as its nearest float.
    """
    def cell(value) -> str:
        return f"{value:.6f}" if isinstance(value, float) else str(value)

    return [*map(str, group), str(stat), *map(cell, measured)]


def aggregate_rows(records) -> list[list[str]]:
    """mean/min/max rows per group, in first-appearance order.

    A group is the values before the trial field; in one run that is one
    (mode, n).
    """
    groups: dict[tuple, list[list]] = {}
    for rec in records:
        group, measured = _split(rec)
        groups.setdefault(tuple(group), []).append(measured)
    rows = []
    for group, measured in groups.items():
        columns = list(zip(*measured))
        for stat, agg in (("mean", _mean), ("min", min), ("max", max)):
            rows.append(_row(group, stat, map(agg, columns)))
    return rows


def emit_csv(records, path) -> list[list[str]]:
    """Write trial rows then aggregate rows; return the aggregate rows.

    Integer columns are exact decimal; seconds use 6 decimal places.
    """
    aggregates = aggregate_rows(records)
    lines = [CSV_HEADER]
    for rec in records:
        group, measured = _split(rec)
        lines.append(",".join(_row(group, rec.trial, measured)))
    lines.extend(",".join(row) for row in aggregates)
    try:
        with open(path, "w", encoding="ascii") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise OSError(f"could not write CSV to {path}: {exc}") from exc
    return aggregates
