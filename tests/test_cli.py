import csv
import json

import pytest

from latred.cli import main
from latred.core import INT128_MAX, read_mat, write_mat, Basis
from latred.genlat import ExampleSpec, gen_example, random_permutation
from latred.greedy import ReduceConfig, reduce
from latred.harness import CSV_HEADER

Q13 = 2**13 - 1


def run_cli(*argv):
    return main(list(argv))


def write_skewed(path):
    write_mat(Basis([[1, 0], [10, 1]]), path)
    return str(path)


class TestGen:
    def test_writes_example(self, tmp_path, capsys):
        out = tmp_path / "a.mat"
        assert run_cli("gen", "--q", str(Q13), "--ell", "2", "--seed", "1",
                       "--out", str(out)) == 0
        basis = read_mat(out)
        assert basis.m == 6 and basis.n == 6
        assert "n=6" in capsys.readouterr().out

    def test_missing_out_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("gen", "--q", str(Q13), "--ell", "2", "--seed", "1")
        assert exc.value.code == 2

    def test_even_q_exits_2(self, tmp_path):
        out = tmp_path / "a.mat"
        assert run_cli("gen", "--q", "8190", "--ell", "2", "--seed", "1",
                       "--out", str(out)) == 2

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
            assert run_cli("reduce", "--algo", algo, "--in", src,
                           "--out", str(out), "--seed", "4") == 0

    def test_missing_input_exits_1(self, tmp_path):
        assert run_cli("reduce", "--algo", "greedy", "--in",
                       str(tmp_path / "nope.mat"),
                       "--out", str(tmp_path / "o.mat")) == 1

    def test_malformed_input_exits_1(self, tmp_path):
        bad = tmp_path / "bad.mat"
        bad.write_text("2 2\n1\n2\n")
        assert run_cli("reduce", "--algo", "greedy", "--in", str(bad),
                       "--out", str(tmp_path / "o.mat")) == 1

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
        (["--p", "1", "--p-schedule", "2,1"], (2.0, 1.0), (1.0,)),
        (["--p", "1"], (1.0,), (2.0,)),
    ], ids=["schedule-overrides-p", "p"])
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

    @pytest.mark.parametrize("flags", [
        ["--p-schedule", ","],
        ["--p-schedule", "2,0"],
        ["--algo", "mgs", "--p", "-1", "--p-schedule", "2"],
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

    def test_even_q_exits_2(self, tmp_path):
        assert run_cli("bench", "--q", "8190", "--ell-list", "1",
                       "--csv", str(tmp_path / "x.csv")) == 2
