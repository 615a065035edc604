import gc
import math
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from thresholdgame import data as data_module
from thresholdgame.data import BLOCK_ROWS, CSV_COLUMNS, SCHEMA, Dataset
from thresholdgame.econometrics import analysis_battery, build_design
from thresholdgame.game import GameSpec
from thresholdgame.money import Money
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


def test_hash_lines_after_the_header_are_data(tmp_path):
    path = tmp_path / "notes.csv"
    Dataset({"note": ["#a", "b"], "x": [1, 2]}).write_csv(path, "run metadata")
    loaded = Dataset.read_csv(path)
    assert loaded.strings("note").tolist() == ["#a", "b"]
    assert loaded.numeric("x").tolist() == [1.0, 2.0]


def test_quoted_cell_with_a_hash_line_reads_back(tmp_path):
    path = tmp_path / "multiline.csv"
    Dataset({"note": ["first\n#second", "b"], "x": [1, 2]}).write_csv(path)
    assert Dataset.read_csv(path).strings("note").tolist() == ["first\n#second", "b"]


def test_hash_first_column_and_carriage_return_read_back(tmp_path):
    path = tmp_path / "edge.csv"
    Dataset({"#id": [1, 2], "note": ["a\rb", "c"]}).write_csv(path, "run metadata")
    assert path.read_bytes() == b'# run metadata\n"#id",note\n1.0,"a\rb"\n2.0,c\n'
    loaded = Dataset.read_csv(path)
    assert loaded.numeric("#id").tolist() == [1.0, 2.0]
    assert loaded.strings("note").tolist() == ["a\rb", "c"]


def test_none_in_a_text_column_is_a_blank():
    assert Dataset({"treatment": ["RR", None, ""]}).strings("treatment").tolist() == ["RR", "", ""]
    assert Dataset({"site": ["lab A", None]}).strings("site").tolist() == ["lab A", ""]


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


# --- the writer against the csv module -------------------------------------------

#: Every character the quoting rules or the metadata rule look at, and a few others.
TEXT = 'ab1 ,"\n\r#\u00e9'
BLANK = st.sampled_from([None, "", float("nan")])
NUMBERS = {
    "int": st.integers(-10**16, 10**16).map(float) | st.sampled_from([-0.0, 1e16]),
    "money": st.integers(-10**9, 10**9).map(lambda cents: cents / 100) | st.just(-0.0),
    "float": st.floats(allow_infinity=False) | st.sampled_from([-0.0, 1e16, 1e-5, 5e-324]),
}


@st.composite
def datasets(draw):
    """Datasets with columns of every kind, blanks, signed zeros and text that
    needs quoting, under schema names and others."""
    n_rows = draw(st.integers(0, 12))
    names = draw(st.lists(st.sampled_from(CSV_COLUMNS) | st.text(TEXT, max_size=3),
                          max_size=5, unique=True))
    columns = {}
    for name in names:
        kind = SCHEMA.get(name) or draw(st.sampled_from(["float", "text"]))
        cells = st.text(TEXT, max_size=4) | st.none() if kind == "text" else NUMBERS[kind] | BLANK
        columns[name] = draw(st.lists(cells, min_size=n_rows, max_size=n_rows))
    return Dataset(columns)


def written(data, header_comment=None, writer=Dataset.write_csv):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.csv"
        writer(data, path, header_comment)
        return path.read_bytes()


@given(datasets(), st.text(TEXT, max_size=6) | st.none())
@example(Dataset({"x": [1.0, None, "", -0.0]}), None)  # a lone blank field is written as ""
@example(Dataset({"note": ["", None, "a"]}), "m")
@example(Dataset({"": [None, "b"]}), None)
@example(Dataset({"age": [], "treatment": []}), "x")
@example(Dataset({}), None)
@example(Dataset({"#id": [1.0], "note": ["a\rb"]}), None)
@settings(max_examples=150)
def test_writer_matches_the_csv_module(data, header_comment):
    # With the oracle's two stated departures from the csv module: a field
    # holding '\r' is quoted, and so is a first column name starting with '#'.
    assert written(data, header_comment) == written(data, header_comment, oracles.write_csv)


def reread(data_bytes):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.csv"
        path.write_bytes(data_bytes)
        return Dataset.read_csv(path)


@given(datasets())
@example(Dataset({"#id": [1, 2], "x": [3, 4]}))
@example(Dataset({"note": ["a\rb", "c"], "x": [1, 2]}))
def test_write_read_write_is_the_same_bytes(data):
    first = written(data, "seed=1")
    assert written(reread(first), "seed=1") == first


@pytest.mark.parametrize("n_subjects", [1500, 6000])
@pytest.mark.parametrize("step", ["1.00", "0.50"])
def test_simulated_data_matches_the_csv_module(n_subjects, step):
    config = SimConfig(n_subjects=n_subjects, game=GameSpec(grid_step=Money.parse(step)))
    data = simulate(config, seed=7)
    first = written(data, "seed=7")
    assert first == written(data, "seed=7", oracles.write_csv)
    assert written(reread(first), "seed=7") == first


# --- the block reader against the one-shot oracle ---------------------------------

def assert_same_columns(loaded, expected):
    """Same names in the same order, same kinds, text equal and floats bit-equal
    (NaN and -0.0 included)."""
    assert list(loaded.columns) == list(expected.columns)
    for name, col in loaded.columns.items():
        other = expected.columns[name]
        assert col.dtype.kind == other.dtype.kind, name
        if col.dtype.kind == "f":
            assert col.view(np.int64).tolist() == other.view(np.int64).tolist(), name
        else:
            assert col.tolist() == other.tolist(), name


def read_both(path):
    """(the reader's outcome, the oracle's): a Dataset or the ValueError's text."""
    def outcome(read):
        try:
            return read(path)
        except ValueError as exc:
            return str(exc)
    return outcome(Dataset.read_csv), outcome(oracles.read_csv)


@given(datasets(), st.text(TEXT, max_size=6) | st.none())
@example(Dataset({"x": [1.0, None, -0.0, 2.0]}), None)
@example(Dataset({"age": [1.0] * 12, "site": ["1"] * 11 + ["lab"]}), "m")
@settings(max_examples=150)
def test_block_reader_matches_the_one_shot_oracle(data, header_comment):
    # With three rows a block, a dataset of up to 12 rows spans up to 4 blocks.
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(data_module, "BLOCK_ROWS", 3)
        path = Path(tmp) / "data.csv"
        data.write_csv(path, header_comment)
        loaded, expected = read_both(path)
    assert_same_columns(loaded, expected)


def boundary_file(path, n_rows, defect):
    """A CSV of ``n_rows`` rows whose last row holds ``defect``: a blank number,
    a bad number, a missing cell, or text in a column outside the schema that
    holds numbers above it."""
    rows = [[("RR", "AA")[i % 2], str(20 + i % 50), f"{i % 6}.50", str(i % 7)]
            for i in range(n_rows)]
    if defect == "blank":
        rows[-1][1] = ""
    elif defect == "bad number":
        rows[-1][1] = "n/a"
    elif defect == "ragged":
        rows[-1].pop()
    elif defect == "late text":
        rows[-1][3] = "lab A"
    lines = ["treatment,age,contribution,site"] + [",".join(row) for row in rows]
    path.write_text("# metadata\n" + "\n".join(lines) + "\n", encoding="utf-8")


ROWS = (0, 1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 1)
DEFECTS = ("blank", "bad number", "ragged", "late text")


@pytest.mark.parametrize("n_rows, defect", [(0, None)] + [(n, d) for n in ROWS[1:]
                                                          for d in DEFECTS])
def test_last_block_reads_as_the_one_shot_oracle_reads_it(tmp_path, n_rows, defect):
    path = tmp_path / "data.csv"
    boundary_file(path, n_rows, defect)
    loaded, expected = read_both(path)
    if defect in ("bad number", "ragged"):
        assert isinstance(loaded, str) and loaded == expected
        return
    assert_same_columns(loaded, expected)
    assert len(loaded) == n_rows
    if defect == "blank":
        assert np.isnan(loaded.numeric("age")[-1])
    if defect == "late text":
        assert loaded.strings("site")[-1] == "lab A"


def test_reading_holds_about_one_block_of_text(tmp_path):
    # The parse may hold the columns, a copy of them and one block's cells,
    # not the whole file's: at most 4 times the columns' bytes (the one-shot
    # reader takes about 7 times).
    path = tmp_path / "simulated.csv"
    simulate(SimConfig(n_subjects=6000), seed=3).write_csv(path, "seed=3")
    gc.collect()
    tracemalloc.start()
    try:
        loaded = Dataset.read_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    nbytes = sum(col.nbytes for col in loaded.columns.values())
    assert peak <= 4 * nbytes, f"peak {peak} bytes for {nbytes} bytes of columns"
