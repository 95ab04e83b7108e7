"""Integer lattice reduction toolkit.

Exact-integer greedy norm polishing, an LLL baseline, q-ary example
generation, and a reproducible benchmark harness.
"""

from .core import (
    Basis,
    GramMatrix,
    NormSummary,
    ReductionResult,
    TransformRecord,
    UsageError,
    apply_column_op,
    apply_transform,
    det_small,
    gram_compute,
    is_unimodular,
    nint_float,
    nint_ratio,
    pipeline,
    read_mat,
    run_reducer,
    summarize_columns,
    write_mat,
)
from .greedy import (
    ReduceConfig,
    apply_pivot,
    basis_score,
    coefficients_for_pivot,
    reduce,
    select_pivot,
)
from .lll import LLLConfig, lll_reduce, lovasz_ok, orthogonalize, size_reduce
from .altreduce import (
    AltConfig,
    mgs_pivot_reduce,
    random_combination_reduce,
    random_combination_step,
)
from .genlat import ExampleSpec, SplitMix64, derive_seed, gen_example, random_permutation
from .harness import (
    ExperimentConfig,
    TrialRecord,
    emit_csv,
    run_once,
    run_repeatedly,
)

__version__ = "0.1.0"
