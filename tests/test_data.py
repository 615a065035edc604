import math

import numpy as np
import pytest

from thresholdgame.data import CSV_COLUMNS, Dataset
from thresholdgame.econometrics import analysis_battery, build_design
from thresholdgame.simulator import SimConfig, simulate


def csv_lines(data, path):
    """The lines of ``data`` written as a CSV to ``path``."""
    data.write_csv(path)
    return path.read_text(encoding="utf-8").splitlines()


def test_csv_roundtrip(tmp_path):
    data = simulate(SimConfig(n_subjects=40), seed=2)
    path = tmp_path / "exp.csv"
    data.write_csv(path, "seed=2\nextra note")
    loaded = Dataset.read_csv(path)
    assert tuple(loaded.columns) == CSV_COLUMNS
    assert len(loaded) == 40
    assert loaded.numeric("contribution").tolist() == data.numeric("contribution").tolist()
    assert loaded.strings("treatment").tolist() == data.strings("treatment").tolist()


def test_header_comments_are_skipped(tmp_path):
    path = tmp_path / "commented.csv"
    path.write_text("# run metadata\n# more\na,b\n1,2\n3,4\n")
    loaded = Dataset.read_csv(path)
    assert loaded.numeric("a").tolist() == [1.0, 3.0]


def test_ragged_row_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1\n")
    with pytest.raises(ValueError):
        Dataset.read_csv(path)


def test_empty_file_rejected(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(ValueError):
        Dataset.read_csv(path)


def test_numeric_handles_blanks(tmp_path):
    path = tmp_path / "blanks.csv"
    path.write_text("x\n1.5\n\"\"\n2\n")
    values = Dataset.read_csv(path).numeric("x")
    assert values[0] == 1.5 and values[2] == 2.0
    assert math.isnan(values[1])
    values = Dataset({"x": ["1.5", "", None, "2"]}).numeric("x")
    assert values[0] == 1.5 and values[3] == 2.0
    assert all(v != v for v in values[1:3])  # NaN


def test_external_csv_with_label_column_and_blanks(tmp_path):
    data = simulate(SimConfig(n_subjects=200), seed=4)
    text = csv_lines(data, tmp_path / "simulated.csv")
    header = text[0].split(",")
    blank_cols = [header.index(c) for c in ("age", "belief", "contribution")]
    lines = [text[0] + ",site"]
    for i, line in enumerate(text[1:]):
        cells = line.split(",")
        if i % 40 == 7:  # one row in 40 misses one of three cells
            cells[blank_cols[i // 40 % 3]] = ""
        lines.append(",".join(cells) + ("," + ("lab A" if i % 2 else "lab B")))
    path = tmp_path / "external.csv"
    path.write_text("\n".join(lines) + "\n")
    loaded = Dataset.read_csv(path)
    assert loaded.strings("site").tolist()[:2] == ["lab B", "lab A"]
    with pytest.raises(ValueError, match="'site'"):
        loaded.numeric("site")
    assert np.isnan(loaded.numeric("age")).sum() == 2
    design = build_design(loaded, "contribution", ["age", "belief"])
    assert design.n_dropped == 5
    assert design.n_obs == 195
    names = [name for name, _, _ in analysis_battery(loaded)]
    assert names[0] == "balance" and names[-1] == "histogram" and len(names) == 9


def test_blank_treatment_is_missing_not_an_arm(tmp_path):
    lines = csv_lines(simulate(SimConfig(n_subjects=200), seed=4), tmp_path / "simulated.csv")
    column = lines[0].split(",").index("treatment")
    cells = lines[11].split(",")
    cells[column] = ""
    blanked = tmp_path / "blanked.csv"
    blanked.write_text("\n".join(lines[:11] + [",".join(cells)] + lines[12:]) + "\n")
    dropped = tmp_path / "dropped.csv"
    dropped.write_text("\n".join(lines[:11] + lines[12:]) + "\n")
    with_blank = {name: rows for name, rows, _ in analysis_battery(Dataset.read_csv(blanked))}
    without = {name: rows for name, rows, _ in analysis_battery(Dataset.read_csv(dropped))}
    # Every section equals the analysis of the data without that row: models
    # drop it listwise, balance, polarization and the histogram skip it.
    assert with_blank == without
    assert [r["term"] for r in with_blank["ate"]] == ["const", "AR", "RA", "AA"]
    assert with_blank["ate"][0]["n_obs"] == 199


def test_text_in_a_schema_number_column_is_rejected(tmp_path):
    path = tmp_path / "typo.csv"
    path.write_text("treatment,age\nRR,41\nAA,n/a\n")
    with pytest.raises(ValueError, match="'age'"):
        Dataset.read_csv(path)


@pytest.mark.parametrize("cell", ["inf", "-inf"])
def test_infinite_number_is_rejected(tmp_path, cell):
    # The analysis reads a non-finite value as neither data nor missing.
    path = tmp_path / "overflow.csv"
    path.write_text(f"treatment,age\nRR,41\nAA,{cell}\n")
    with pytest.raises(ValueError, match="'age'"):
        Dataset.read_csv(path)


def test_money_off_the_cent_grid_is_rejected(tmp_path):
    # Money is whole cents from the moment a Dataset is built; ints still round-trip
    # through the analysis and are checked when written.
    path = tmp_path / "fractional.csv"
    path.write_text("treatment,contribution,age\nRR,2.50,41.5\nAA,2.555,40\n")
    with pytest.raises(ValueError, match="'contribution'"):
        Dataset.read_csv(path)


def test_write_refuses_to_round(tmp_path):
    path = tmp_path / "out.csv"
    with pytest.raises(ValueError, match="'contribution'"):
        Dataset({"contribution": [2.555]}).write_csv(path)
    with pytest.raises(ValueError, match="'age'"):
        Dataset({"age": [41.5]}).write_csv(path)
    lines = csv_lines(Dataset({"age": [41, ""], "contribution": [2.5, None]}), path)
    assert lines == ["age,contribution", "41,2.50", ","]


def test_ragged_columns_rejected():
    with pytest.raises(ValueError):
        Dataset({"a": [1, 2], "b": [1]})


def test_missing_column_message():
    data = Dataset({"a": [1]})
    with pytest.raises(KeyError):
        data.numeric("b")
