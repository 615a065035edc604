"""One typed column store for the experiment data, from simulator to regression.

Each column is a read-only numpy array, parsed once when the ``Dataset`` is
built: ``treatment`` is str, every other column float64 (blanks and ``None``
are NaN, money is euros and must be whole cents; in a text column ``None`` is
a blank).  Text exists only at the file edge, a comma-delimited UTF-8 CSV.
Only its leading run of '#' lines is run metadata: from the header on, a line
that starts with '#' is data.  There each schema column's kind sets its
format: int ``%d``, float ``repr``, money ``%.2f``.  A column outside the
schema that is not all numbers stays text.  The writer formats and quotes
each distinct value of a column once, then joins the rows itself, byte for
byte as Python 3.11's ``csv`` writer would, except that it also quotes a field
that holds '\\r' and a first column name that starts with '#', so that every
file it writes reads back.  Writer and reader both work in blocks of
``BLOCK_ROWS`` rows, so neither holds a big file's text at once: the reader
turns each block's cells of a schema number column into floats straight
away, and keeps only text cells, and the cells of columns outside the schema,
to decide them on the whole column.
"""
from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass

import numpy as np

#: Column order and kind: ids, covariates, then game outcomes.
SCHEMA = {
    "subject_id": "int", "treatment": "text", "group_id": "int",
    **dict.fromkeys(("age", "female", "education", "patience", "crt", "math_ability",
                     "altruism", "envy", "ideology", "gravity", "number_actions",
                     "unemployed", "social_transfer"), "int"),
    **dict.fromkeys(("risk_aversion", "ambiguity_aversion", "belief",
                     "perception_accuracy"), "float"),
    "pivotal": "int", "contribution": "money", "group_total": "money",
    "threshold_drawn": "money", "success": "int", "earnings": "money",
}
CSV_COLUMNS = tuple(SCHEMA)

#: Rows per block, for the writer and the reader alike.
BLOCK_ROWS = 1024

#: Formatter and units per value of each kind; whole units never round.
_FORMATS = {"int": ("%d".__mod__, 1), "money": ("%.2f".__mod__, 100), "float": (repr, None)}


def _column(name: str, values) -> np.ndarray:
    """``values`` as a read-only array of the column's kind, parsed once."""
    kind, col = SCHEMA.get(name), None
    if kind != "text" and isinstance(values, np.ndarray) and values.dtype.kind in "biuf":
        col = values.astype(float)
    elif kind != "text":
        try:
            col = _floats(values)
        except (TypeError, ValueError) as exc:
            if kind is not None:
                raise ValueError(f"column {name!r}: {exc}") from None
    if col is None:
        if not (isinstance(values, np.ndarray) and values.dtype.kind == "U"):
            values = ["" if v is None else v for v in values]
        col = np.array(values, dtype=str)
    elif np.isinf(col).any():
        raise ValueError(f"column {name!r}: infinite values")
    elif kind == "money":
        _check_units(name, kind, col)
    col.flags.writeable = False
    return col


def _floats(values) -> np.ndarray:
    """Cells as float64, each parsed on its own; a blank or ``None`` is NaN."""
    cells = np.array(values, dtype=object)
    return np.where(np.equal(cells, ""), None, cells).astype(float)


def _check_units(name: str, kind: str, col: np.ndarray) -> None:
    scale = _FORMATS[kind][1]
    off = np.rint(col * scale) / scale != col  # a blank is NaN, never equal: let it pass
    if not np.isnan(col[off]).all():
        raise ValueError(f"column {name!r}: {kind} values must be whole units of 1/{scale}")


def _quote(text: str, always: bool = False) -> str:
    """``text`` as one CSV field: quoted, with each '"' doubled, when it holds
    ',', '"', '\\n' or '\\r' (a reader splits lines at a bare '\\r'), or always."""
    if always or "," in text or '"' in text or "\n" in text or "\r" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _cells(name: str, col: np.ndarray) -> list[str]:
    """The CSV fields of one column; each distinct value is formatted by the
    column's kind, or quoted, once.  NaN is a blank field.  Money was checked
    when the column was built; ints are checked here."""
    if col.dtype.kind != "f":
        distinct, inv = np.unique(col, return_inverse=True)
        text = [_quote(v) for v in distinct.tolist()]
    else:
        kind = SCHEMA.get(name, "float")
        if kind == "int":
            _check_units(name, kind, col)
        fmt = _FORMATS[kind][0]
        # Distinct bit patterns: np.unique(col) would merge 0.0 and -0.0, which print apart.
        bits, inv = np.unique(col.view(np.int64), return_inverse=True)
        text = [fmt(v) if v == v else "" for v in bits.view(np.float64).tolist()]
    return np.array(text, dtype=object)[inv].tolist()


def _lines(columns: list[list[str]]) -> str:
    """Rows of fields, given as columns, as CSV lines.  A row whose only field
    is blank is written as ``""``, as the csv module does, or its line would
    be empty."""
    lines = map(",".join, zip(*columns))
    if len(columns) == 1:
        lines = (line or '""' for line in lines)
    return "\n".join(lines) + "\n"


@dataclass
class Dataset:
    """Aligned typed columns; the analysis side of the pipeline."""

    columns: dict[str, np.ndarray]

    def __post_init__(self) -> None:
        self.columns = {name: _column(name, values) for name, values in self.columns.items()}
        lengths = {len(v) for v in self.columns.values()}
        if len(lengths) > 1:
            raise ValueError(f"ragged columns: lengths {sorted(lengths)}")

    def __len__(self) -> int:
        return len(next(iter(self.columns.values()), ()))

    def numeric(self, name: str) -> np.ndarray:
        """Column as a read-only float64 array, blanks as NaN."""
        return self._typed(name, "f", "text")

    def strings(self, name: str) -> np.ndarray:
        """Text column as a read-only str array."""
        return self._typed(name, "U", "numbers")

    def _typed(self, name: str, dtype_kind: str, other: str) -> np.ndarray:
        if name not in self.columns:
            raise KeyError(f"no column {name!r}; have {list(self.columns)}")
        if self.columns[name].dtype.kind != dtype_kind:
            raise ValueError(f"column {name!r} holds {other}")
        return self.columns[name]

    def write_csv(self, path, header_comment: str | None = None) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write("".join(f"# {line}\n" for line in (header_comment or "").splitlines()))
            # A first name starting with '#' is quoted, or the header would read as metadata.
            fh.write(_lines([[_quote(name, not i and name.startswith("#"))]
                             for i, name in enumerate(self.columns)]))
            for i in range(0, len(self), BLOCK_ROWS):
                fh.write(_lines([_cells(n, c[i:i + BLOCK_ROWS]) for n, c in self.columns.items()]))

    @classmethod
    def read_csv(cls, path) -> Dataset:
        """Load a CSV whose header, after the leading '#' lines, names the columns.
        A defect is reported from the first block that has one: a ragged row,
        then a schema number column's bad cell, in header order."""
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(itertools.dropwhile(lambda line: line.startswith("#"), fh))
            try:
                header = next(reader, None)
                if header is None:
                    raise ValueError(f"{path}: empty CSV")
                if len(set(header)) != len(header):
                    raise ValueError(f"{path}: duplicate column names in {header}")
                numbers = {name for name in header if SCHEMA.get(name, "text") != "text"}
                columns = {name: [] for name in header}  # float blocks or cells
                while rows := list(itertools.islice(reader, BLOCK_ROWS)):
                    if bad := {len(row) for row in rows} - {len(header)}:
                        raise ValueError(f"{path}: row width {min(bad)} != header {len(header)}")
                    for name, cells in zip(header, zip(*rows)):
                        if name not in numbers:
                            columns[name].extend(cells)
                            continue
                        try:
                            columns[name].append(_floats(cells))
                        except ValueError as exc:
                            raise ValueError(f"column {name!r}: {exc}") from None
                    del rows  # free this block's text before the next is read
            except csv.Error as exc:
                raise ValueError(f"{path}: line {reader.line_num} after the '#' lines: "
                                 f"{exc}") from None
        for name in numbers:
            columns[name] = np.concatenate(columns[name] or [np.empty(0)])
        return cls(columns)
