"""Command-line front end: gen / reduce / bench.

All numerical work lives in the library modules; this file only parses
flags, moves files, and maps failures to exit codes (0 ok, 1 input error,
2 usage error, 3 numerical fault).  main returns every code, argparse's
2 for a missing or malformed flag and 0 after --help included.  Flag
values are checked by the config objects they build, whose UsageError
maps to exit 2; each command builds its configs before it touches a
file, from one table that gives each reducer's flags and config builder.
--p inf (or an inf in --p-schedule) is greedy's max score, by the largest
squared norm.  A flag left out takes its config's default, so each
default is defined once, in the config.  A reduce flag that the chosen
--algo never reads is a usage error too.  Every output path is checked
before the work starts, without creating or truncating it, so an
unwritable one exits 1 before any trial or stage runs; --out and
--report naming one file is a usage error.  Every --algo is a list of
stage configs run through core.pipeline.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict
from functools import cache

from .altreduce import AltConfig, MGSConfig
from .core import (
    UsageError,
    apply_transform,
    is_unimodular,
    pipeline,
    read_mat,
    write_mat,
)
from .genlat import ExampleSpec, gen_example
from .greedy import ReduceConfig
from .harness import (CSV_HEADER, MODES, ExperimentConfig, emit_csv,
                      run_experiment)
from .lll import LLLConfig

# The reducers each --algo runs, in order.
_ALGOS = {"greedy": ("greedy",), "lll": ("lll",),
          "lll+greedy": ("lll", "greedy"), "rand-comb": ("rand-comb",),
          "mgs": ("mgs",)}


def _list_of(kind, noun):
    """An argparse type that reads a comma list of kind."""
    def parse(text: str) -> tuple:
        try:
            return tuple(kind(tok) for tok in text.split(",") if tok.strip())
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"not a comma list of {noun}: {text!r}")
    return parse


def _given(**values):
    """The values whose flag was given; a config fills in the rest."""
    return {key: v for key, v in values.items() if v is not None}


def _polish_config(args) -> ReduceConfig:
    """greedy's config: the exponents of --p or --p-schedule; giving both
    raises UsageError."""
    if args.p is not None and args.p_schedule is not None:
        raise UsageError("give --p or --p-schedule, not both")
    schedule = args.p_schedule if args.p is None else (args.p,)
    return ReduceConfig(**_given(p_schedule=schedule))


# Per reducer: the optional flags it reads and the builder of its config,
# which reduce and bench share.  Each of those flags defaults to None, so
# a given flag can be told apart.
_REDUCERS = {
    "greedy": (("--p", "--p-schedule"), _polish_config),
    "lll": (("--delta",), lambda args: LLLConfig(**_given(delta=args.delta))),
    "rand-comb": (("--iters", "--seed"), lambda args: AltConfig(
        **_given(iterations=args.iters, seed=args.seed))),
    "mgs": (("--p",), lambda args: MGSConfig(**_given(p=args.p))),
}


def _check_writable(*paths) -> None:
    """Raise OSError for the first given path that cannot be opened for
    writing.

    Nothing is created or truncated, so an output that is also the input
    is left as it is until the work is done.
    """
    for path in filter(None, paths):
        parent = os.path.dirname(os.path.abspath(path))
        target = path if os.path.exists(path) else parent
        # access() is False for a missing directory as well.
        if os.path.isdir(path) or not os.access(target, os.W_OK):
            raise OSError(f"cannot write {path}: no such directory, "
                          "or not writable")


# Built once per process: building the three subcommands takes about a
# millisecond, which main would otherwise pay on every call.
@cache
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
    red.add_argument("--algo", required=True, choices=list(_ALGOS))
    red.add_argument("--in", dest="in_path", required=True)
    red.add_argument("--out", required=True)
    red.add_argument("--iters", type=int,
                     help="step budget for rand-comb (default 10*n)")
    red.add_argument("--track-transform", action="store_true")
    red.add_argument("--report")
    red.set_defaults(func=cmd_reduce)

    bench = sub.add_parser("bench", help="run the benchmark protocol")
    bench.add_argument("--q", type=int, required=True)
    bench.add_argument("--ell-list", type=_list_of(int, "integers"),
                       default=(2, 4, 8, 16))
    bench.add_argument("--trials", type=int)
    bench.add_argument("--mode", choices=MODES)
    bench.add_argument("--csv", required=True)
    bench.set_defaults(func=cmd_bench)

    for command in (red, bench):
        command.add_argument("--p", type=float)
        command.add_argument("--p-schedule", type=_list_of(float, "numbers"),
                             help="greedy exponents, run in order")
        command.add_argument("--delta", type=float)
        command.add_argument("--seed", type=int)

    return parser


def cmd_gen(args) -> int:
    basis = gen_example(ExampleSpec(args.q, args.ell, args.seed))
    write_mat(basis, args.out)
    print(f"n={basis.n} {args.out}")
    return 0


def _stages(args):
    """The stage configs of --algo, whose builds check every flag.

    A bad flag, one that --algo never reads, or --p given with
    --p-schedule raises UsageError here, so cmd_reduce calls this before
    it reads any file.
    greedy and mgs both read --p; each config checks it by its own rule.
    """
    names = _ALGOS[args.algo]
    read = {flag for name in names for flag in _REDUCERS[name][0]}
    optional = dict.fromkeys(f for flags, _ in _REDUCERS.values()
                             for f in flags)
    unread = [flag for flag in optional if flag not in read
              and getattr(args, flag[2:].replace("-", "_")) is not None]
    if unread:
        raise UsageError(f"--algo {args.algo} does not read "
                         + ", ".join(unread))
    return tuple(_REDUCERS[name][1](args) for name in names)


def cmd_reduce(args) -> int:
    stages = _stages(args)
    if args.report and (os.path.abspath(args.report)
                        == os.path.abspath(args.out)):
        raise UsageError("--out and --report name the same file")
    basis = read_mat(args.in_path)
    _check_writable(args.out, args.report)
    result = pipeline(basis, stages, track_transform=args.track_transform)
    write_mat(result.basis, args.out)
    if args.report:
        report = {
            "algo": args.algo,
            "before": asdict(result.before),
            "after": asdict(result.after),
            "iterations": result.iterations_applied,
            "seconds": result.seconds,
            "stages": [{"iterations": stage.iterations_applied,
                        "seconds": stage.seconds}
                       for stage in result.stages],
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
        lll=_REDUCERS["lll"][1](args),
        polish=_REDUCERS["greedy"][1](args),
        **_given(trials=args.trials, mode=args.mode, seed=args.seed),
    )
    _check_writable(args.csv)
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
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return exc.code
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
