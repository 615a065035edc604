"""One typed column store for the experiment data, from simulator to regression.

Each column is a read-only numpy array, parsed once when the ``Dataset`` is
built: ``treatment`` is str, every other column float64 (blanks and ``None``
are NaN, money is euros).  Text exists only at the file edge, a comma-delimited
UTF-8 CSV whose leading '#' lines carry run metadata.  There each schema
column's kind sets its format: int ``%d``, float ``repr``, money ``%.2f``.  A
column outside the schema that is not all numbers stays text.
"""
from __future__ import annotations

import csv
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

#: Formatter and units per value of each kind; whole units never round.
_FORMATS = {"int": ("%d".__mod__, 1), "money": ("%.2f".__mod__, 100), "float": (repr, None)}


def _column(name: str, values) -> np.ndarray:
    """``values`` as a read-only array of the column's kind, parsed once."""
    kind, col = SCHEMA.get(name), None
    if kind != "text" and isinstance(values, np.ndarray) and values.dtype.kind in "biuf":
        col = values.astype(float)
    elif kind != "text":
        cells = np.array(values, dtype=object)
        try:
            col = np.where(np.equal(cells, ""), None, cells).astype(float)
        except (TypeError, ValueError) as exc:
            if kind is not None:
                raise ValueError(f"column {name!r}: {exc}") from None
    if col is None:
        col = np.array(values, dtype=str)
    elif np.isinf(col).any():
        raise ValueError(f"column {name!r}: infinite values")
    col.flags.writeable = False
    return col


def _cells(name: str, col: np.ndarray) -> list[str]:
    """The CSV text of one column, formatted by its kind; NaN is a blank cell."""
    if col.dtype.kind != "f":
        return col.tolist()
    kind = SCHEMA.get(name, "float")
    render, scale = _FORMATS[kind]
    if scale and not np.array_equal(np.rint(col * scale) / scale, col, equal_nan=True):
        raise ValueError(f"column {name!r}: {kind} values must be whole units of 1/{scale}")
    return [render(v) if v == v else "" for v in col.tolist()]


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
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(self.columns)
            for i in range(0, len(self), 1024):  # in blocks: a big file never holds all its cells
                writer.writerows(zip(*(_cells(n, c[i:i + 1024])
                                       for n, c in self.columns.items())))

    @classmethod
    def read_csv(cls, path) -> Dataset:
        """Load a CSV whose header names the columns."""
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(ln for ln in fh if not ln.startswith("#"))
            header = next(reader, None)
            rows = list(reader)
        if header is None:
            raise ValueError(f"{path}: empty CSV")
        if len(set(header)) != len(header):
            raise ValueError(f"{path}: duplicate column names in {header}")
        if bad := {len(row) for row in rows} - {len(header)}:
            raise ValueError(f"{path}: row width {min(bad)} != header {len(header)}")
        cells = list(zip(*rows)) if rows else [()] * len(header)
        return cls(dict(zip(header, cells)))
