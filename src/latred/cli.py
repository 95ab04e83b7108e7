"""Command-line front end: gen / reduce / bench.

All numerical work lives in the library modules; this file only parses
flags, moves files, and maps failures to exit codes (0 ok, 1 input error,
2 usage error, 3 numerical fault).  Flag values are checked by the config
objects they build, whose UsageError maps to exit 2; each command builds
its configs before it touches a file.  Every --algo is a list of stages
run through core.pipeline.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

from .altreduce import AltConfig, mgs_pivot_reduce, random_combination_reduce
from .core import (
    UsageError,
    apply_transform,
    is_unimodular,
    pipeline,
    read_mat,
    write_mat,
)
from .genlat import ExampleSpec, gen_example
from .greedy import ReduceConfig, reduce as greedy_reduce
from .harness import CSV_HEADER, ExperimentConfig, emit_csv, run_experiment
from .lll import DEFAULT_DELTA, LLLConfig, lll_reduce


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma list of integers: {text!r}")


def _float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma list of numbers: {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latred", description="Integer lattice reduction toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a q-ary example basis")
    gen.add_argument("--q", type=int, required=True)
    gen.add_argument("--ell", type=int, required=True)
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=cmd_gen)

    red = sub.add_parser("reduce", help="reduce a basis from a .mat file")
    red.add_argument(
        "--algo", required=True,
        choices=["greedy", "lll", "lll+greedy", "rand-comb", "mgs"],
    )
    red.add_argument("--in", dest="in_path", required=True)
    red.add_argument("--out", required=True)
    red.add_argument("--p", type=float, default=2.0)
    red.add_argument("--p-schedule", type=_float_list, default=None,
                     help="greedy exponents, run in order (overrides --p)")
    red.add_argument("--delta", type=float, default=DEFAULT_DELTA)
    red.add_argument("--score", choices=["sum", "max"], default="sum")
    red.add_argument("--iters", type=int, default=None,
                     help="step budget for rand-comb (default 10*n)")
    red.add_argument("--seed", type=int, default=0)
    red.add_argument("--track-transform", action="store_true")
    red.add_argument("--report", default=None)
    red.set_defaults(func=cmd_reduce)

    bench = sub.add_parser("bench", help="run the benchmark protocol")
    bench.add_argument("--q", type=int, required=True)
    bench.add_argument("--ell-list", type=_int_list, default=(2, 4, 8, 16))
    bench.add_argument("--trials", type=int, default=10)
    bench.add_argument("--mode", choices=["once", "repeat"], default="once")
    bench.add_argument("--delta", type=float, default=DEFAULT_DELTA)
    bench.add_argument("--p", type=float, default=2.0)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--csv", required=True)
    bench.set_defaults(func=cmd_bench)

    return parser


def cmd_gen(args) -> int:
    basis = gen_example(ExampleSpec(args.q, args.ell, args.seed))
    write_mat(basis, args.out)
    print(f"n={basis.n} {args.out}")
    return 0


def _stages(args):
    """The stages of --algo, built from configs that check every flag.

    A bad flag raises UsageError here, so cmd_reduce calls this before it
    reads any file.  Reducers are looked up when a stage runs, so a
    patched one is what runs.
    """
    track = args.track_transform
    lll_cfg = LLLConfig(delta=args.delta)
    # Built from --p even under --p-schedule, so a bad --p exits 2 for
    # every --algo, mgs included.
    greedy_cfg = ReduceConfig(p_schedule=(args.p,), score_mode=args.score)
    if args.p_schedule is not None:
        greedy_cfg = ReduceConfig(p_schedule=args.p_schedule,
                                  score_mode=args.score)
    alt_cfg = AltConfig(iterations=args.iters, seed=args.seed)

    def lll(basis):
        return lll_reduce(basis, lll_cfg, track_transform=track)

    def greedy(basis):
        return greedy_reduce(basis, greedy_cfg, track_transform=track)

    def rand_comb(basis):
        return random_combination_reduce(basis, alt_cfg, track_transform=track)

    def mgs(basis):
        return mgs_pivot_reduce(basis, args.p, track_transform=track)

    return {
        "greedy": (greedy,),
        "lll": (lll,),
        "lll+greedy": (lll, greedy),
        "rand-comb": (rand_comb,),
        "mgs": (mgs,),
    }[args.algo]


def cmd_reduce(args) -> int:
    stages = _stages(args)
    basis = read_mat(args.in_path)
    result = pipeline(basis, stages)
    write_mat(result.basis, args.out)
    if args.report:
        report = {
            "algo": args.algo,
            "before": asdict(result.before),
            "after": asdict(result.after),
            "iterations": result.iterations_applied,
            "seconds": result.seconds,
        }
        if result.transform is not None:
            matches = apply_transform(basis, result.transform) == result.basis
            report["transform_matches"] = matches
            report["unimodular"] = is_unimodular(result.transform)
        with open(args.report, "w", encoding="ascii") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
    print(
        f"{args.algo}: frobenius_sq {result.before.frobenius_sq} -> "
        f"{result.after.frobenius_sq} in {result.seconds:.3f}s"
    )
    return 0


def cmd_bench(args) -> int:
    config = ExperimentConfig(
        q=args.q,
        ell_list=args.ell_list,
        delta=args.delta,
        p_schedule=(args.p,),
        trials=args.trials,
        mode=args.mode,
        seed=args.seed,
    )
    records = run_experiment(config)
    aggregates = emit_csv(records, args.csv)
    print(CSV_HEADER.replace(",", " ").replace("trial", "stat"))
    for row in aggregates:
        print(" ".join(row))
    # A failed trial is dropped from the CSV; the count makes that visible.
    written = str(len(records))
    expected = config.trials * len(config.ell_list)
    if len(records) < expected:
        written += f" of {expected}"
    print(f"wrote {written} trial rows to {args.csv}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"latred: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"latred: numerical fault: {exc}", file=sys.stderr)
        return 3
    except (OSError, ValueError) as exc:
        print(f"latred: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
