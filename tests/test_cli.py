import csv
import hashlib
import json
import os
import random
import subprocess
import sys

import pytest

import latred
import latred.cli as cli_mod
from latred.cli import main
from latred.core import INT128_MAX, read_mat, write_mat, Basis
from latred.genlat import ExampleSpec, gen_example, random_permutation
from latred.greedy import ReduceConfig, reduce
from latred.harness import CSV_HEADER

Q13 = 2**13 - 1
# 2**65 + 1: odd, but past the 2**64 that the generator's draws reach.
Q_TOO_BIG = str(2**65 + 1)


def run_cli(*argv):
    return main(list(argv))


def write_skewed(path):
    write_mat(Basis([[1, 0], [10, 1]]), path)
    return str(path)


def must_not_run(*args, **kwargs):
    raise AssertionError("work ran before an output path was checked")


def untimed_rows(path):
    """The CSV's rows without the columns the header names secs_*."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    timing = {i for i, name in enumerate(rows[0]) if name.startswith("secs_")}
    return [[c for i, c in enumerate(r) if i not in timing] for r in rows]


class TestGen:
    def test_writes_example(self, tmp_path, capsys):
        out = tmp_path / "a.mat"
        assert run_cli("gen", "--q", str(Q13), "--ell", "2", "--seed", "1",
                       "--out", str(out)) == 0
        basis = read_mat(out)
        assert basis.m == 6 and basis.n == 6
        assert "n=6" in capsys.readouterr().out

    def test_missing_out_is_usage_error(self, capsys):
        assert run_cli("gen", "--q", str(Q13), "--ell", "2", "--seed",
                       "1") == 2
        assert "--out" in capsys.readouterr().err

    def test_even_q_exits_2(self, tmp_path):
        out = tmp_path / "a.mat"
        assert run_cli("gen", "--q", "8190", "--ell", "2", "--seed", "1",
                       "--out", str(out)) == 2

    def test_q_from_2_64_exits_2(self, tmp_path, capsys):
        out = tmp_path / "a.mat"
        assert run_cli("gen", "--q", Q_TOO_BIG, "--ell", "1", "--seed", "0",
                       "--out", str(out)) == 2
        assert "2**64" in capsys.readouterr().err
        assert not out.exists()

    def test_deterministic_bytes(self, tmp_path):
        one = tmp_path / "one.mat"
        two = tmp_path / "two.mat"
        args = ["gen", "--q", str(Q13), "--ell", "2", "--seed", "7"]
        assert run_cli(*args, "--out", str(one)) == 0
        assert run_cli(*args, "--out", str(two)) == 0
        assert one.read_bytes() == two.read_bytes()


class TestReduce:
    def test_greedy_reduces_skewed_pair(self, tmp_path):
        src = write_skewed(tmp_path / "in.mat")
        out = tmp_path / "out.mat"
        assert run_cli("reduce", "--algo", "greedy", "--in", src,
                       "--out", str(out)) == 0
        assert read_mat(out) == Basis.identity(2)

    def test_lll_plus_greedy_not_worse_than_lll(self, tmp_path):
        gen_out = tmp_path / "g.mat"
        run_cli("gen", "--q", str(Q13), "--ell", "2", "--seed", "5",
                "--out", str(gen_out))
        lll_out = tmp_path / "lll.mat"
        both_out = tmp_path / "both.mat"
        assert run_cli("reduce", "--algo", "lll", "--in", str(gen_out),
                       "--out", str(lll_out)) == 0
        assert run_cli("reduce", "--algo", "lll+greedy", "--in", str(gen_out),
                       "--out", str(both_out)) == 0
        frob = lambda b: sum(x * x for col in b.cols for x in col)
        assert frob(read_mat(both_out)) <= frob(read_mat(lll_out))

    def test_score_max_dispatches(self, tmp_path):
        src = write_skewed(tmp_path / "in.mat")
        out = tmp_path / "out.mat"
        assert run_cli("reduce", "--algo", "greedy", "--score", "max",
                       "--in", src, "--out", str(out)) == 0
        assert read_mat(out) == Basis.identity(2)

    def test_report_with_tracking(self, tmp_path):
        src = write_skewed(tmp_path / "in.mat")
        out = tmp_path / "out.mat"
        report = tmp_path / "report.json"
        assert run_cli("reduce", "--algo", "greedy", "--in", src,
                       "--out", str(out), "--track-transform",
                       "--report", str(report)) == 0
        data = json.loads(report.read_text())
        assert data["before"]["frobenius_sq"] == 102
        assert data["after"]["frobenius_sq"] == 2
        assert data["iterations"] == 1
        assert data["unimodular"] is True
        assert data["transform_matches"] is True

    def test_lll_plus_greedy_report_certifies_composed_transform(self, tmp_path):
        src = tmp_path / "g.mat"
        assert run_cli("gen", "--q", str(Q13), "--ell", "2", "--seed", "5",
                       "--out", str(src)) == 0
        report = tmp_path / "report.json"
        assert run_cli("reduce", "--algo", "lll+greedy", "--in", str(src),
                       "--out", str(tmp_path / "o.mat"), "--track-transform",
                       "--report", str(report)) == 0
        data = json.loads(report.read_text())
        assert data["transform_matches"] is True
        assert data["unimodular"] is True

    def test_wide_entries_take_the_python_int_routes(self, tmp_path):
        # q = 2**61 - 1: the Gram matrix (m * M**2 >= 2**63) and the
        # report's input . U product (n * M_B * M_U >= 2**63) both run on
        # Python ints.
        src = tmp_path / "g.mat"
        assert run_cli("gen", "--q", str(2**61 - 1), "--ell", "2",
                       "--seed", "3", "--out", str(src)) == 0
        report = tmp_path / "report.json"
        assert run_cli("reduce", "--algo", "greedy", "--in", str(src),
                       "--out", str(tmp_path / "o.mat"), "--track-transform",
                       "--report", str(report)) == 0
        data = json.loads(report.read_text())
        assert data["transform_matches"] is True
        assert data["unimodular"] is True
        assert data["after"]["frobenius_sq"] == 28263867835181854920923038

    def test_report_leaves_unimodular_null_above_n16(self, tmp_path):
        cols = Basis.identity(18).cols
        cols[1][0] = 10
        src = tmp_path / "in.mat"
        write_mat(Basis(cols), src)
        report = tmp_path / "report.json"
        assert run_cli("reduce", "--algo", "greedy", "--in", str(src),
                       "--out", str(tmp_path / "o.mat"), "--track-transform",
                       "--report", str(report)) == 0
        text = report.read_text()
        assert '  "unimodular": null\n' in text
        data = json.loads(text)
        assert data["transform_matches"] is True
        assert data["iterations"] == 1

    def test_all_algos_run(self, tmp_path):
        src = write_skewed(tmp_path / "in.mat")
        for algo in ("greedy", "lll", "lll+greedy", "rand-comb", "mgs"):
            out = tmp_path / f"{algo}.mat"
            seed = ["--seed", "4"] if algo == "rand-comb" else []
            assert run_cli("reduce", "--algo", algo, "--in", src,
                           "--out", str(out), *seed) == 0

    @pytest.mark.parametrize("algo, flags, flag", [
        ("mgs", ["--delta", "0.3", "--iters", "5", "--score", "max"],
         "--score, --delta, --iters"),
        ("mgs", ["--p-schedule", "1"], "--p-schedule"),
        ("rand-comb", ["--score", "sum"], "--score"),
        ("greedy", ["--delta", "0.75"], "--delta"),
        ("lll", ["--iters", "5"], "--iters"),
        ("lll+greedy", ["--seed", "1"], "--seed"),
        ("lll", ["--p", "7"], "--p"),
        ("rand-comb", ["--p", "7"], "--p"),
        ("greedy", ["--score", "max", "--p", "3"], "--p"),
        ("lll+greedy", ["--p-schedule", "2,1", "--score", "max"],
         "--p-schedule"),
    ])
    def test_unread_flag_exits_2_before_reading_input(self, tmp_path, capsys,
                                                      algo, flags, flag):
        assert run_cli("reduce", "--algo", algo, *flags,
                       "--in", str(tmp_path / "nope.mat"),
                       "--out", str(tmp_path / "o.mat")) == 2
        err = capsys.readouterr().err
        assert f"--algo {algo} does not read {flag}" in err

    def test_p_schedule_that_is_not_numbers_exits_2(self, tmp_path, capsys):
        assert run_cli("reduce", "--algo", "greedy", "--p-schedule", "2,y",
                       "--in", str(tmp_path / "nope.mat"),
                       "--out", str(tmp_path / "o.mat")) == 2
        assert "not a comma list of numbers: '2,y'" in capsys.readouterr().err

    def test_missing_input_exits_1(self, tmp_path):
        assert run_cli("reduce", "--algo", "greedy", "--in",
                       str(tmp_path / "nope.mat"),
                       "--out", str(tmp_path / "o.mat")) == 1

    def test_malformed_input_exits_1(self, tmp_path):
        bad = tmp_path / "bad.mat"
        bad.write_text("2 2\n1\n2\n")
        assert run_cli("reduce", "--algo", "greedy", "--in", str(bad),
                       "--out", str(tmp_path / "o.mat")) == 1

    def test_non_ascii_input_exits_1_naming_file_and_offset(self, tmp_path,
                                                             capsys):
        bad = tmp_path / "bad.mat"
        bad.write_bytes(b"1 1\n\xc3\xa9\n")
        assert run_cli("reduce", "--algo", "greedy", "--in", str(bad),
                       "--out", str(tmp_path / "o.mat")) == 1
        err = capsys.readouterr().err
        assert err == f"latred: {bad}: non-ASCII byte 0xc3 at offset 4\n"

    def test_overflow_exits_3(self, tmp_path):
        big = INT128_MAX - 1
        src = tmp_path / "big.mat"
        src.write_text(f"2 2\n{big} {big - 7}\n0 1\n")
        assert run_cli("reduce", "--algo", "greedy", "--in", str(src),
                       "--out", str(tmp_path / "o.mat")) == 3

    def test_bad_flag_exits_2_before_reading_input(self, tmp_path):
        assert run_cli("reduce", "--algo", "greedy", "--p", "-1",
                       "--in", str(tmp_path / "nope.mat"),
                       "--out", str(tmp_path / "o.mat")) == 2

    @pytest.mark.parametrize("flags, schedule, ignored", [
        (["--p", "1"], (1.0,), (2.0,)),
    ], ids=["p"])
    def test_exponent_flags_set_the_schedule(self, tmp_path, flags, schedule,
                                             ignored):
        basis = random_permutation(gen_example(ExampleSpec(Q13, 2, 0)), 0)
        src = tmp_path / "in.mat"
        write_mat(basis, src)
        out = tmp_path / "out.mat"
        assert run_cli("reduce", "--algo", "greedy", *flags, "--in", str(src),
                       "--out", str(out)) == 0
        want = reduce(basis, ReduceConfig(p_schedule=schedule)).basis
        assert read_mat(out) == want
        # The schedule a dropped flag would leave polishes this input
        # differently, so the test tells the two apart.
        assert want != reduce(basis, ReduceConfig(p_schedule=ignored)).basis

    def test_p_with_p_schedule_exits_2_before_reading_input(self, tmp_path,
                                                            capsys):
        assert run_cli("reduce", "--algo", "greedy", "--p", "1",
                       "--p-schedule", "2,1",
                       "--in", str(tmp_path / "nope.mat"),
                       "--out", str(tmp_path / "o.mat")) == 2
        err = capsys.readouterr().err
        assert "--p " in err and "--p-schedule" in err

    @pytest.mark.parametrize("flags", [
        ["--p-schedule", ","],
        ["--p-schedule", "2,0"],
        ["--algo", "mgs", "--p", "-1"],
    ], ids=["empty-schedule", "zero-exponent", "mgs-bad-p"])
    def test_bad_exponent_exits_2_before_reading_input(self, tmp_path, flags):
        algo = [] if "--algo" in flags else ["--algo", "greedy"]
        assert run_cli("reduce", *algo, *flags,
                       "--in", str(tmp_path / "nope.mat"),
                       "--out", str(tmp_path / "o.mat")) == 2

    def test_bad_delta_exits_2(self, tmp_path):
        src = write_skewed(tmp_path / "in.mat")
        assert run_cli("reduce", "--algo", "lll", "--delta", "0.1",
                       "--in", src, "--out", str(tmp_path / "o.mat")) == 2

    @pytest.mark.parametrize("flag", ["--out", "--report"])
    def test_unwritable_output_exits_1_before_any_stage(self, tmp_path, capsys,
                                                        monkeypatch, flag):
        # A missing directory, since permission bits do not stop root.
        monkeypatch.setattr(cli_mod, "pipeline", must_not_run)
        src = write_skewed(tmp_path / "in.mat")
        outputs = {"--out": tmp_path / "o.mat", "--report": tmp_path / "r.json"}
        outputs[flag] = tmp_path / "missing" / "x"
        argv = ["reduce", "--algo", "greedy", "--in", src]
        for f, path in outputs.items():
            argv += [f, str(path)]
        assert run_cli(*argv) == 1
        assert f"cannot write {outputs[flag]}" in capsys.readouterr().err
        # Nothing was created, the writable output included.
        assert sorted(q.name for q in tmp_path.iterdir()) == ["in.mat"]

    def test_report_on_the_output_exits_2_before_reading_input(
            self, tmp_path, capsys, monkeypatch):
        # The report would overwrite the reduced basis just written there.
        monkeypatch.setattr(cli_mod, "read_mat", must_not_run)
        monkeypatch.chdir(tmp_path)
        assert run_cli("reduce", "--algo", "greedy", "--in", "in.mat",
                       "--out", "o.mat",
                       "--report", str(tmp_path / "o.mat")) == 2
        assert "--out and --report" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_output_may_be_the_input(self, tmp_path):
        src = write_skewed(tmp_path / "in.mat")
        assert run_cli("reduce", "--algo", "greedy", "--in", src,
                       "--out", src) == 0
        assert read_mat(src) == Basis.identity(2)


class TestBench:
    def test_row_counts(self, tmp_path, capsys):
        path = tmp_path / "b.csv"
        assert run_cli("bench", "--q", str(Q13), "--ell-list", "1,2",
                       "--trials", "3", "--mode", "once", "--seed", "2",
                       "--csv", str(path)) == 0
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        # header + 6 trials + 2 groups x 3 aggregates
        assert len(rows) == 1 + 6 + 6
        out = capsys.readouterr().out
        assert "mean" in out and str(path) in out

    def test_failed_trials_are_counted_in_stdout(self, tmp_path, capsys,
                                                 monkeypatch):
        import latred.harness as harness_mod

        real = harness_mod.lll_reduce
        calls = {"n": 0}

        def flaky(basis, config):
            calls["n"] += 1
            if calls["n"] == 2:
                raise ArithmeticError("forced failure")
            return real(basis, config)

        monkeypatch.setattr(harness_mod, "lll_reduce", flaky)
        path = tmp_path / "f.csv"
        assert run_cli("bench", "--q", str(Q13), "--ell-list", "1,2",
                       "--trials", "2", "--csv", str(path)) == 0
        last = capsys.readouterr().out.splitlines()[-1]
        assert last == f"wrote 3 of 4 trial rows to {path}"

    def test_no_failure_keeps_plain_count(self, tmp_path, capsys):
        path = tmp_path / "p.csv"
        assert run_cli("bench", "--q", str(Q13), "--ell-list", "1",
                       "--trials", "2", "--csv", str(path)) == 0
        last = capsys.readouterr().out.splitlines()[-1]
        assert last == f"wrote 2 trial rows to {path}"

    def test_stdout_header_follows_csv_header(self, tmp_path, capsys):
        assert run_cli("bench", "--q", str(Q13), "--ell-list", "1",
                       "--trials", "1", "--csv", str(tmp_path / "h.csv")) == 0
        first = capsys.readouterr().out.splitlines()[0]
        assert first == CSV_HEADER.replace(",", " ").replace("trial", "stat")

    def test_repeat_mode_labels_rows(self, tmp_path):
        path = tmp_path / "r.csv"
        assert run_cli("bench", "--q", str(Q13), "--ell-list", "1",
                       "--trials", "2", "--mode", "repeat", "--seed", "2",
                       "--csv", str(path)) == 0
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert all(r[0] == "repeat" for r in rows[1:])

    def test_rerun_identical_outside_timing(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["bench", "--q", str(Q13), "--ell-list", "1,2", "--trials", "2",
                "--mode", "once", "--seed", "6"]
        assert run_cli(*args, "--csv", str(a)) == 0
        assert run_cli(*args, "--csv", str(b)) == 0
        with open(a, newline="") as fh:
            rows_a = list(csv.reader(fh))
        with open(b, newline="") as fh:
            rows_b = list(csv.reader(fh))
        timing = {12, 13}
        for ra, rb in zip(rows_a, rows_b):
            trimmed_a = [c for i, c in enumerate(ra) if i not in timing]
            trimmed_b = [c for i, c in enumerate(rb) if i not in timing]
            assert trimmed_a == trimmed_b

    def test_p_schedule_labels_the_p_column(self, tmp_path):
        path = tmp_path / "s.csv"
        assert run_cli("bench", "--q", str(Q13), "--ell-list", "1",
                       "--trials", "2", "--p-schedule", "2,1",
                       "--csv", str(path)) == 0
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2 + 3
        assert {row["p"] for row in rows} == {"2;1"}

    def test_p_with_p_schedule_exits_2_before_any_trial(self, tmp_path, capsys,
                                                        monkeypatch):
        monkeypatch.setattr(cli_mod, "run_experiment", must_not_run)
        assert run_cli("bench", "--q", str(Q13), "--ell-list", "1",
                       "--p", "1", "--p-schedule", "2,1",
                       "--csv", str(tmp_path / "x.csv")) == 2
        err = capsys.readouterr().err
        assert "--p " in err and "--p-schedule" in err

    def test_repeated_ell_exits_2_before_any_trial(self, tmp_path, capsys,
                                                   monkeypatch):
        monkeypatch.setattr(cli_mod, "run_experiment", must_not_run)
        path = tmp_path / "x.csv"
        assert run_cli("bench", "--q", str(Q13), "--ell-list", "1,1",
                       "--trials", "2", "--csv", str(path)) == 2
        assert "repeat" in capsys.readouterr().err
        assert not path.exists()

    def test_even_q_exits_2(self, tmp_path):
        assert run_cli("bench", "--q", "8190", "--ell-list", "1",
                       "--csv", str(tmp_path / "x.csv")) == 2

    def test_ell_list_that_is_not_integers_exits_2(self, tmp_path, capsys):
        path = tmp_path / "x.csv"
        assert run_cli("bench", "--q", str(Q13), "--ell-list", "2,x",
                       "--csv", str(path)) == 2
        assert "not a comma list of integers: '2,x'" in (
            capsys.readouterr().err)
        assert not path.exists()

    def test_q_from_2_64_exits_2_before_any_trial(self, tmp_path,
                                                   monkeypatch):
        monkeypatch.setattr(cli_mod, "run_experiment", must_not_run)
        assert run_cli("bench", "--q", Q_TOO_BIG, "--ell-list", "1",
                       "--csv", str(tmp_path / "x.csv")) == 2

    def test_unwritable_csv_exits_1_before_any_trial(self, tmp_path, capsys,
                                                     monkeypatch):
        monkeypatch.setattr(cli_mod, "run_experiment", must_not_run)
        path = tmp_path / "missing" / "x.csv"
        assert run_cli("bench", "--q", str(Q13), "--ell-list", "8",
                       "--trials", "3", "--csv", str(path)) == 1
        assert f"cannot write {path}" in capsys.readouterr().err

    def test_left_out_flags_take_the_config_defaults(self, tmp_path):
        short, spelled = tmp_path / "short.csv", tmp_path / "spelled.csv"
        assert run_cli("bench", "--q", str(Q13), "--ell-list", "1",
                       "--csv", str(short)) == 0
        assert run_cli("bench", "--q", str(Q13), "--ell-list", "1",
                       "--trials", "10", "--mode", "once", "--p", "2.0",
                       "--seed", "0", "--csv", str(spelled)) == 0
        rows = untimed_rows(short)
        assert len(rows) == 1 + 10 + 3
        assert rows == untimed_rows(spelled)

    def test_left_out_delta_takes_the_config_default(self, tmp_path):
        short, spelled = tmp_path / "short.csv", tmp_path / "spelled.csv"
        assert run_cli("bench", "--q", str(Q13), "--ell-list", "1",
                       "--csv", str(short)) == 0
        assert run_cli("bench", "--q", str(Q13), "--ell-list", "1",
                       "--delta", "0.999999999999999",
                       "--csv", str(spelled)) == 0
        assert untimed_rows(short) == untimed_rows(spelled)


def test_import_does_not_load_logging():
    # The package logs only warnings, and imports logging only to give one;
    # the bench CSV's exact means need no fractions (nor its decimal).
    src = os.path.dirname(os.path.dirname(latred.__file__))
    unwanted = {"logging", "string", "traceback", "fractions", "decimal"}
    code = ("import sys, latred, latred.cli; "
            f"print(sorted({unwanted!r} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.strip() == "[]"


def scrambled_n128(seed, n=128):
    """A small-entry basis scrambled by 2n signed column additions."""
    rng = random.Random(seed)
    cols = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
    for _ in range(2 * n):
        j, k = rng.sample(range(n), 2)
        s = rng.choice((-1, 1))
        cols[j] = [a + s * b for a, b in zip(cols[j], cols[k])]
    return cols


def test_tracked_polish_of_a_scrambled_n128_basis_is_pinned(tmp_path):
    # Greedy is exact integer work, so its output bytes and report are the
    # same on every platform.
    cols = scrambled_n128(1)
    src = tmp_path / "in.mat"
    src.write_text("128 128\n" + "".join(
        " ".join(str(col[r]) for col in cols) + "\n" for r in range(128)))
    out, report = tmp_path / "out.mat", tmp_path / "report.json"
    assert run_cli("reduce", "--algo", "greedy", "--p-schedule", "2,1",
                   "--track-transform", "--report", str(report),
                   "--in", str(src), "--out", str(out)) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "3e58c96b6927c200a984953bb7d9812b45e2dcc608097fe89a3a67542ab5f33e")
    got = json.loads(report.read_text())
    del got["seconds"]
    assert got == {
        "algo": "greedy",
        "before": {"frobenius_sq": 420327, "min_norm_sq": 434},
        "after": {"frobenius_sq": 65593, "min_norm_sq": 419},
        "iterations": 162,
        "transform_matches": True,
        "unimodular": None,
    }
