"""The bench CSV and stdout table, compared with a recorded run.

tests/golden holds the output of

    latred bench --q 8191 --ell-list 1,2,3 --trials 3 --seed 4 \
        --mode MODE --csv MODE.csv

for MODE once and repeat.  Every cell except the seconds columns must be
reproduced byte for byte, including the float form of a non-integer exact
mean, which only the repeat mode produces.
"""

from pathlib import Path

import pytest

from latred.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"


def untimed(text, sep):
    """Every line's cells, minus the columns the header names secs_*."""
    lines = [line.split(sep) for line in text.splitlines()]
    timing = {i for i, name in enumerate(lines[0]) if name.startswith("secs_")}
    return [[c for i, c in enumerate(cells) if i not in timing]
            for cells in lines]


@pytest.mark.parametrize("mode", ["once", "repeat"])
def test_bench_output_matches_record(mode, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["bench", "--q", "8191", "--ell-list", "1,2,3", "--trials",
                 "3", "--seed", "4", "--mode", mode,
                 "--csv", f"{mode}.csv"]) == 0
    out = capsys.readouterr().out
    csv_text = (tmp_path / f"{mode}.csv").read_text(encoding="ascii")
    want_csv = (GOLDEN / f"bench_{mode}.csv").read_text(encoding="ascii")
    want_out = (GOLDEN / f"bench_{mode}.stdout").read_text(encoding="ascii")
    assert csv_text.endswith("\n")
    assert untimed(csv_text, ",") == untimed(want_csv, ",")
    assert untimed(out, " ") == untimed(want_out, " ")
