import csv

import pytest

from latred.core import UsageError
from latred.harness import (
    CSV_HEADER,
    ExperimentConfig,
    TrialRecord,
    emit_csv,
    run_once,
    run_repeatedly,
    schedule_label,
)

Q13 = 2**13 - 1


def small_config(**overrides):
    base = dict(q=Q13, ell_list=(1,), trials=1, seed=3)
    base.update(overrides)
    return ExperimentConfig(**base)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestRunOnce:
    def test_single_trial_shape(self):
        records = run_once(small_config())
        assert len(records) == 1
        rec = records[0]
        assert rec.mode == "once" and rec.n == 3 and rec.trial == 0
        assert rec.frob_sq_lll <= rec.frob_sq_0
        assert rec.frob_sq_ours <= rec.frob_sq_lll
        assert rec.min_sq_lll <= rec.min_sq_0
        assert rec.min_sq_ours <= rec.min_sq_lll

    def test_polish_never_worse_than_lll(self):
        records = run_once(small_config(ell_list=(1, 2), trials=4))
        assert len(records) == 8
        for rec in records:
            assert rec.frob_sq_ours <= rec.frob_sq_lll

    def test_failing_trial_is_dropped_not_fatal(self, monkeypatch):
        import latred.harness as harness_mod

        real = harness_mod.lll_reduce
        calls = {"n": 0}

        def flaky(basis, config):
            calls["n"] += 1
            if calls["n"] == 2:
                raise ArithmeticError("forced failure")
            return real(basis, config)

        monkeypatch.setattr(harness_mod, "lll_reduce", flaky)
        records = run_once(small_config(trials=3))
        assert len(records) == 2
        assert [r.trial for r in records] == [0, 2]

    def test_metric_columns_deterministic(self):
        cfg = small_config(ell_list=(2,), trials=3, seed=11)
        a = run_once(cfg)
        b = run_once(cfg)
        skip = {"secs_lll", "secs_ours"}
        for ra, rb in zip(a, b):
            for field in TrialRecord.__dataclass_fields__:
                if field in skip:
                    continue
                assert getattr(ra, field) == getattr(rb, field)


class TestRunRepeatedly:
    def test_chain_of_one_matches_once(self):
        once = run_once(small_config(ell_list=(2,), trials=1, seed=21))
        chain = run_repeatedly(small_config(ell_list=(2,), trials=1, seed=21,
                                            mode="repeat"))
        assert len(chain) == 1
        skip = {"secs_lll", "secs_ours", "mode"}
        for field in TrialRecord.__dataclass_fields__:
            if field in skip:
                continue
            assert getattr(chain[0], field) == getattr(once[0], field)
        assert chain[0].mode == "repeat"

    def test_chain_is_monotone(self):
        records = run_repeatedly(small_config(ell_list=(2,), trials=5, seed=22,
                                              mode="repeat"))
        assert len(records) == 5
        frobs = []
        for rec in records:
            frobs.extend([rec.frob_sq_0, rec.frob_sq_lll, rec.frob_sq_ours])
        assert all(a >= b for a, b in zip(frobs, frobs[1:]))

    def test_rounds_feed_forward(self):
        records = run_repeatedly(small_config(ell_list=(2,), trials=3, seed=23,
                                              mode="repeat"))
        for prev, nxt in zip(records, records[1:]):
            assert nxt.frob_sq_0 == prev.frob_sq_ours


class TestEmitCsv:
    def test_empty_records_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv([], path)
        assert path.read_text() == CSV_HEADER + "\n"

    def test_one_record_five_lines(self, tmp_path):
        records = run_once(small_config())
        path = tmp_path / "one.csv"
        emit_csv(records, path)
        rows = read_rows(path)
        # header + 1 trial + mean/min/max
        assert len(rows) == 5
        assert rows[0] == CSV_HEADER.split(",")
        assert [r[5] for r in rows[2:]] == ["mean", "min", "max"]

    def test_round_trip_integers_exact(self, tmp_path):
        records = run_once(small_config(ell_list=(1, 2), trials=2))
        path = tmp_path / "rt.csv"
        emit_csv(records, path)
        rows = read_rows(path)
        header = rows[0]
        trial_rows = rows[1:1 + len(records)]
        int_fields = ["n", "q", "trial", "frob_sq_0", "frob_sq_lll",
                      "frob_sq_ours", "min_sq_0", "min_sq_lll", "min_sq_ours",
                      "iters_ours"]
        for rec, row in zip(records, trial_rows):
            parsed = dict(zip(header, row))
            for field in int_fields:
                assert int(parsed[field]) == getattr(rec, field)

    def test_seconds_have_six_decimals(self, tmp_path):
        records = run_once(small_config())
        path = tmp_path / "secs.csv"
        emit_csv(records, path)
        row = read_rows(path)[1]
        for cell in (row[12], row[13]):
            whole, frac = cell.split(".")
            assert len(frac) == 6

    def test_aggregates_per_mode_and_n(self, tmp_path):
        records = run_once(small_config(ell_list=(1, 2), trials=2))
        path = tmp_path / "agg.csv"
        emit_csv(records, path)
        rows = read_rows(path)
        assert len(rows) == 1 + 4 + 6
        stats = [(r[1], r[5]) for r in rows[5:]]
        assert stats == [("3", "mean"), ("3", "min"), ("3", "max"),
                         ("6", "mean"), ("6", "min"), ("6", "max")]

    def test_write_failure_names_path(self, tmp_path):
        with pytest.raises(OSError, match="no/such"):
            emit_csv([], tmp_path / "no" / "such" / "file.csv")


class TestConfig:
    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            small_config(trials=0)

    def test_rejects_empty_ells(self):
        with pytest.raises(ValueError):
            small_config(ell_list=())

    def test_rejects_repeated_ell(self):
        # A repeated size would run and write its trials twice under the
        # same (mode, n, trial), and its aggregates would count both.
        with pytest.raises(UsageError, match="repeat"):
            small_config(ell_list=(1, 2, 1))

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            small_config(mode="forever")

    @pytest.mark.parametrize("overrides", [
        {"delta": 0.1},
        {"p_schedule": (0.0,)},
        {"p_schedule": ()},
        {"q": 8190},
    ], ids=["delta", "zero-exponent", "empty-schedule", "even-q"])
    def test_rejects_bad_stage_option_at_construction(self, overrides):
        with pytest.raises(UsageError):
            small_config(**overrides)

    def test_schedule_label(self):
        assert schedule_label((2.0,)) == "2"
        assert schedule_label((2.0, 1.0)) == "2;1"
        assert schedule_label((1.5,)) == "1.5"
