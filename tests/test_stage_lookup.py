"""Every stage finds its reducer through the reducer's module at call time.

A stage is a reducer's config, and its run calls the module's public
reducer (latred.lll.lll_reduce, latred.greedy.reduce, ...).  perfbench's
tracer rebinds those module attributes, and its LLL tap counts swaps even
when nothing is traced, so a stage that reached its reducer another way (a
table of function objects built at import, a local alias) would run
unseen.  No benchmark workload runs the CLI's lll, mgs or rand-comb stage,
so tests/test_trace_reach.py cannot catch that there; here each reducer's
module attribute is replaced by a counting wrapper, and every CLI --algo
and both harness modes must call the wrappers, one call per stage per
trial.
"""

import importlib

import pytest

from latred.cli import main
from latred.harness import ExperimentConfig, run_experiment

# The module attribute each reducer is reached through.
REDUCERS = {
    "lll": ("latred.lll", "lll_reduce"),
    "greedy": ("latred.greedy", "reduce"),
    "rand-comb": ("latred.altreduce", "random_combination_reduce"),
    "mgs": ("latred.altreduce", "mgs_pivot_reduce"),
}

# The reducers each --algo runs, in order.
ALGO_STAGES = {
    "greedy": ["greedy"],
    "lll": ["lll"],
    "lll+greedy": ["lll", "greedy"],
    "rand-comb": ["rand-comb"],
    "mgs": ["mgs"],
}


def count_calls(monkeypatch):
    """Wrap every reducer's module attribute; return the list of the
    reducer names called, in call order."""
    calls = []
    for name, (module, attr) in REDUCERS.items():
        mod = importlib.import_module(module)

        def counted(*args, _real=getattr(mod, attr), _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(mod, attr, counted)
    return calls


@pytest.mark.parametrize("track", [False, True], ids=["untracked", "tracked"])
@pytest.mark.parametrize("algo", list(ALGO_STAGES))
def test_each_algo_calls_its_reducers_through_their_modules(
        algo, track, tmp_path, monkeypatch):
    src, out = str(tmp_path / "in.mat"), str(tmp_path / "out.mat")
    assert main(["gen", "--q", "8191", "--ell", "2", "--seed", "0",
                 "--out", src]) == 0
    calls = count_calls(monkeypatch)
    argv = ["reduce", "--algo", algo, "--in", src, "--out", out]
    assert main(argv + ["--track-transform"] * track) == 0
    assert calls == ALGO_STAGES[algo]


@pytest.mark.parametrize("mode", ["once", "repeat"])
def test_harness_calls_lll_and_greedy_once_per_trial(mode, monkeypatch):
    calls = count_calls(monkeypatch)
    config = ExperimentConfig(q=8191, ell_list=(1, 2), trials=3, mode=mode)
    records = run_experiment(config)
    assert len(records) == 6
    assert calls == ["lll", "greedy"] * 6
