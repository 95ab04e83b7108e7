"""Integer lattice reduction toolkit.

Exact-integer greedy norm polishing, an LLL baseline, q-ary example
generation, and a reproducible benchmark harness.  These names are the
API that README documents; every other function is imported from its
module (latred.core, latred.greedy, latred.lll, ...).
"""

from .core import (
    Basis,
    GramMatrix,
    IntRows,
    NormSummary,
    ReductionResult,
    TransformRecord,
    UsageError,
    column_norms_sq,
    is_unimodular,
    pipeline,
    read_mat,
    run_reducer,
    write_mat,
)
from .greedy import ReduceConfig, reduce
from .lll import LLLConfig, lll_reduce
from .altreduce import (AltConfig, MGSConfig, mgs_pivot_reduce,
                        random_combination_reduce)
from .genlat import ExampleSpec, SplitMix64, gen_example, random_permutation
from .harness import ExperimentConfig

__version__ = "0.1.0"
