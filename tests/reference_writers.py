"""Frozen copies of the CSV writers that `features.write_rows` replaced,
kept as test oracles.

`_cell` and `_write_csv` wrote the sweep, MI-ranking and speeds files one
``csv.writer`` row at a time, `_write_predictions` wrote `predictions.csv`
in chunks, and `eval_report_to_csv` is the old `EvalReport.to_csv`.  The
library must write the same bytes; the differential tests in
`test_writers_reference.py` and `test_kmeans_reference.py` compare them.
Do not edit the frozen code below.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from offloadlab.features import CSV_CHUNK_ROWS


def _cell(value) -> str:
    return repr(float(value)) if isinstance(value, float) else str(value)


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_cell(v) for v in row])


def _write_predictions(path: Path, preds: np.ndarray, truth: np.ndarray | None) -> None:
    """The `_write_csv` bytes for (row, prediction[, truth]) rows, formatted
    `CSV_CHUNK_ROWS` rows at a time."""
    header = ["row", "energy_pred_j"] + ([] if truth is None else ["energy_true_j"])
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        for start in range(0, len(preds), CSV_CHUNK_ROWS):
            stop = start + CSV_CHUNK_ROWS
            rows = enumerate(preds[start:stop].tolist(), start)
            if truth is None:
                lines = (f"{i},{p!r}\r\n" for i, p in rows)
            else:
                lines = (f"{i},{p!r},{t!r}\r\n"
                         for (i, p), t in zip(rows, truth[start:stop].tolist()))
            fh.write("".join(lines))


def eval_report_to_csv(self, path) -> None:
    """`EvalReport.to_csv`."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "mae_j", "mse_j2"])
        for k, mae, mse in self.rows:
            writer.writerow([k, repr(mae), repr(mse)])


# Not frozen: routes `write_rows`' calls through the old row writer, so a
# test can patch it into `offloadlab.cli` in place of `write_rows`.
def write_rows_with_csv_writer(path, header, columns) -> None:
    _write_csv(path, header, zip(*columns))
