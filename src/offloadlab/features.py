"""Feature handling for the energy predictor: scaling, ranking, feature
subsets, the numeric CSV reader (`read_csv_matrix`) and the package's one CSV
writer (`write_rows`).

A Dataset is a named feature matrix plus a per-row energy target in joules.
Features are min-max scaled into [0, 1] with parameters learned on training
data only; test rows are transformed with the same parameters and may land
outside [0, 1], which is intentional.  Feature relevance is scored with a
binned plug-in mutual information estimate against the target.
"""

from __future__ import annotations

import csv
from array import array
from dataclasses import dataclass

import numpy as np

# Canonical column order for generated datasets.  The first four are the
# ones a deployed predictor is expected to see; the rest are auxiliary.
CANONICAL_FEATURES = (
    "TaskSize",
    "OffloadingRatio",
    "Speed",
    "CarrierFrequency",
    "CyclesPerBit",
    "CpuFreq",
    "Bandwidth",
)
PRIMARY_FEATURES = CANONICAL_FEATURES[:4]

TARGET_COLUMN = "energy_j"

CSV_CHUNK_ROWS = 1024  # rows formatted per write; bounds the text held at once


@dataclass(frozen=True, eq=False)
class Dataset:
    feature_names: tuple[str, ...]
    X: np.ndarray  # (rows, features), float64
    y: np.ndarray  # (rows,), joules

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        y = np.asarray(self.y, dtype=float)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)
        if X.ndim != 2:
            raise ValueError("X must be 2-D")
        if y.ndim != 1 or len(y) != len(X):
            raise ValueError("y must be 1-D with one entry per row of X")
        if len(self.feature_names) != X.shape[1]:
            raise ValueError("feature_names must match the columns of X")
        if len(set(self.feature_names)) != len(self.feature_names):
            raise ValueError("feature names must be unique")
        if not (np.isfinite(X).all() and np.isfinite(y).all()):
            raise ValueError("dataset contains NaN or infinite values")

    def __len__(self) -> int:
        return len(self.X)

    def column(self, name: str) -> np.ndarray:
        return self.X[:, feature_index(self.feature_names, (name,))[0]]

    def select(self, names) -> np.ndarray:
        """Column block in the order given."""
        return self.X[:, feature_index(self.feature_names, names)]

    def to_csv(self, path) -> None:
        write_rows(path, [*self.feature_names, TARGET_COLUMN], [*self.X.T, self.y])

    @classmethod
    def from_csv(cls, path) -> "Dataset":
        names, data = read_csv_matrix(path)
        if names[-1] != TARGET_COLUMN:
            raise ValueError(f"{path}: last column must be {TARGET_COLUMN}")
        return cls(feature_names=names[:-1], X=data[:, :-1], y=data[:, -1])


def feature_index(names, wanted) -> list[int]:
    """Positions of `wanted` among `names`; a ValueError lists every missing name."""
    missing = [name for name in wanted if name not in names]
    if missing:
        raise ValueError(f"dataset lacks features {missing}")
    return [names.index(name) for name in wanted]


_QUOTED = frozenset(',"\r\n')  # csv.writer quotes a text cell holding one of these


def _text_cell(value) -> str:
    """A cell that is not a plain int or float, as ``csv.writer`` writes it."""
    text = repr(float(value)) if isinstance(value, float) else str(value)
    return text if _QUOTED.isdisjoint(text) else '"' + text.replace('"', '""') + '"'


def _cell_format(column):
    """``repr`` for a column of plain ints and floats, `_text_cell` for any other."""
    if isinstance(column, np.ndarray):  # tolist gives Python numbers
        return repr if column.dtype.kind in "biuf" else _text_cell
    numeric = isinstance(column, range) or {int, float}.issuperset(map(type, column))
    return repr if numeric else _text_cell


def _column_cells(column):
    """``cells(lo, hi)``: the texts of rows lo to hi of `column`.

    A numeric numpy column with at most half its cells distinct formats each
    distinct value once.  Values are told apart by their bit pattern, so
    that -0.0 and 0.0 stay apart, and a chunk's cells are looked up in the
    sorted distinct values, so no whole-column index is held.
    """
    if isinstance(column, np.ndarray) and column.dtype.kind in "biuf" and column.itemsize <= 8:
        keys = column.view(f"i{column.itemsize}") if column.dtype.kind == "f" else column
        ordered = np.sort(keys)  # np.unique's hash path is many times slower
        first = np.ones(len(keys), dtype=bool)
        np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
        if 2 * np.count_nonzero(first) <= len(keys):
            distinct = ordered[first]
            texts = np.array([repr(v) for v in distinct.view(column.dtype).tolist()],
                             dtype=object)
            return lambda lo, hi: texts[np.searchsorted(distinct, keys[lo:hi])].tolist()
    fmt = _cell_format(column)
    if isinstance(column, np.ndarray):
        return lambda lo, hi: map(fmt, column[lo:hi].tolist())
    return lambda lo, hi: map(fmt, column[lo:hi])


def write_rows(path, header, columns) -> None:
    """Write `header`, then row i holding cell i of each equal-length column.

    This is the package's one CSV row format, ``csv.writer``'s default
    dialect with ``\\r\\n`` line ends: ints and floats as ``repr``, so they
    read back exactly, and other cells as ``str``, quoted when they hold
    ``,``, ``"``, ``\\r`` or ``\\n``.  Rows are formatted `CSV_CHUNK_ROWS` at a
    time, never as one whole-file string; a numpy column with few distinct
    values formats each of them once (`_column_cells`).
    """
    n = len(columns[0]) if columns else 0
    if any(len(column) != n for column in columns):
        raise ValueError("CSV columns differ in length")
    cells = [_column_cells(column) for column in columns]
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        for start in range(0, n, CSV_CHUNK_ROWS):
            stop = start + CSV_CHUNK_ROWS
            lines = map(",".join, zip(*(chunk(start, stop) for chunk in cells)))
            if len(columns) == 1:  # csv.writer quotes a row that is one empty cell
                lines = (line or '""' for line in lines)
            fh.write("\r\n".join(lines) + "\r\n")


def read_csv_matrix(path) -> tuple[tuple[str, ...], np.ndarray]:
    """Header names and a finite float matrix from a numeric CSV file.

    Blank lines are skipped.  An empty file, a header without data rows,
    duplicate column names, a row of the wrong width, a cell that is not a
    number, a NaN or infinite value, text that does not decode and a line
    the csv module rejects (a field over its size limit) are each a
    ValueError naming the file.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next((line for line in reader if line), None)
            if header is None:
                raise ValueError(f"{path}: empty file")
            if len(set(header)) != len(header):
                raise ValueError(f"{path}: duplicate column names in the header")
            values = array("d")  # row after row: 8 bytes a cell, no float per cell
            for line in reader:
                if not line:
                    continue
                if len(line) != len(header):
                    raise ValueError(f"{path}: line {reader.line_num}: {len(line)} cells, "
                                     f"the header has {len(header)}")
                try:
                    values.extend(map(float, line))
                except ValueError as exc:
                    raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
        except csv.Error as exc:
            raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from None
    if not values:
        raise ValueError(f"{path}: no data rows")
    data = np.frombuffer(values).reshape(-1, len(header))
    if not np.isfinite(data).all():
        raise ValueError(f"{path}: NaN or infinite values")
    return tuple(header), data


def split_dataset(dataset: Dataset, test_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Disjoint train/test split by seeded permutation."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must lie in (0, 1)")
    n = len(dataset)
    n_test = max(1, int(round(n * test_fraction)))
    if n_test >= n:
        raise ValueError("dataset too small to split")
    perm = np.random.default_rng(seed).permutation(n)
    test_idx, train_idx = perm[:n_test], perm[n_test:]
    make = lambda idx: Dataset(dataset.feature_names, dataset.X[idx], dataset.y[idx])
    return make(train_idx), make(test_idx)


@dataclass(frozen=True, eq=False)
class ScalingParams:
    """Per-feature min/max learned from training data."""

    mins: np.ndarray
    maxs: np.ndarray

    def __post_init__(self):
        mins = np.asarray(self.mins, dtype=float)
        maxs = np.asarray(self.maxs, dtype=float)
        object.__setattr__(self, "mins", mins)
        object.__setattr__(self, "maxs", maxs)
        if mins.shape != maxs.shape or mins.ndim != 1:
            raise ValueError("mins and maxs must be 1-D and the same length")
        if (maxs < mins).any():
            raise ValueError("max below min")

    @property
    def degenerate(self) -> np.ndarray:
        return self.maxs == self.mins


def _spans(X: np.ndarray, names) -> np.ndarray:
    """Each column's max - min; one past the float range is a ValueError."""
    with np.errstate(over="ignore"):
        spans = X.max(axis=0) - X.min(axis=0)
    if np.isinf(spans).any():
        raise ValueError(f"{names[np.isinf(spans).argmax()]} spans more than the float range")
    return spans


def fit_min_max(X: np.ndarray, names=None) -> ScalingParams:
    """Each column's min and max; a span past the float range names its column."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or len(X) == 0:
        raise ValueError("need a non-empty 2-D array")
    _spans(X, names or [f"column {j}" for j in range(X.shape[1])])
    return ScalingParams(mins=X.min(axis=0), maxs=X.max(axis=0))


def apply_min_max(X: np.ndarray, params: ScalingParams) -> np.ndarray:
    """(x - min) / (max - min); constant training columns map to 0.5.

    Values outside the training range are not clipped, so test data can
    legitimately land outside [0, 1].
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != len(params.mins):
        raise ValueError("column count does not match the scaling parameters")
    span = params.maxs - params.mins
    safe = np.where(params.degenerate, 1.0, span)
    out = (X - params.mins) / safe
    out[:, params.degenerate] = 0.5
    return out


def mutual_information(x: np.ndarray, y: np.ndarray, bins: int = 16) -> float:
    """Plug-in mutual information in bits over an equal-width binning.

    Both axes are binned over their observed ranges, which must span less
    than the float max.  A constant input on either side scores exactly 0.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if bins < 2:
        raise ValueError("bins must be >= 2")
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be 1-D and the same length")
    if len(x) < 2 * bins:
        raise ValueError(f"need at least {2 * bins} samples for {bins} bins")
    if not _spans(np.column_stack((x, y)), ("x", "y")).all():
        return 0.0
    joint, _, _ = np.histogram2d(x, y, bins=bins)
    p = joint / joint.sum()
    px = p.sum(axis=1, keepdims=True)
    py = p.sum(axis=0, keepdims=True)
    mask = p > 0
    ratio = p[mask] / (px @ py)[mask]
    # non-negative in exact arithmetic; guard against summation dust
    return max(0.0, float((p[mask] * np.log2(ratio)).sum()))


def rank_features(dataset: Dataset, bins: int = 16) -> list[tuple[str, float]]:
    """Features sorted by mutual information with the target, strongest first.

    Ties fall back to canonical order, then to dataset column order for
    names outside the canonical list.  A column or target wider than the
    float range is a ValueError naming it."""
    def tie_key(name: str) -> tuple[int, int]:
        if name in CANONICAL_FEATURES:
            return (0, CANONICAL_FEATURES.index(name))
        return (1, dataset.feature_names.index(name))

    _spans(np.column_stack((dataset.X, dataset.y)), (*dataset.feature_names, TARGET_COLUMN))
    scored = [(name, mutual_information(dataset.column(name), dataset.y, bins))
              for name in dataset.feature_names]
    return sorted(scored, key=lambda item: (-item[1], tie_key(item[0])))


def subset_entry(names):
    """A group of names as an entry: a lone all, primary or mi:... stays a
    string, any other group is a tuple of feature names."""
    if len(names) == 1 and (names[0] in ("all", "primary") or names[0].startswith("mi:")):
        return names[0]
    return tuple(names)


def subset_label(entry) -> str:
    """The entry's label in file names: ``mi2`` for ``mi:2`` (and for ``mi:02``),
    names joined by ``-``."""
    if isinstance(entry, tuple):
        return "-".join(entry)
    return entry if entry in ("all", "primary") else f"mi{_mi_count(entry)}"


def _mi_count(entry: str) -> int:
    """N of an ``mi:N`` entry; any other text is a ValueError."""
    head, _, tail = entry.partition(":")
    try:
        count = int(tail) if head == "mi" else 0
    except ValueError:
        count = 0
    if count < 1:
        raise ValueError(f"{entry!r} is not all, primary or mi:N with an integer N >= 1")
    return count


def check_subsets(entries) -> None:
    """ValueError for a keyword that is not all, primary or mi:N with N >= 1,
    an empty name list, a name repeated within an entry, a label that is not
    a plain file name, or two entries with the same label."""
    labels = set()
    for entry in entries:
        if isinstance(entry, tuple) and not entry:
            raise ValueError("a feature subset must name at least one feature")
        if isinstance(entry, tuple) and len(set(entry)) != len(entry):
            raise ValueError(f"{','.join(entry)!r} names a feature twice")
        label = subset_label(entry)
        if "/" in label or "\0" in label:  # it names the file eval_<label>.csv
            raise ValueError(f"the label {label!r} is not a plain file name")
        if label in labels:
            raise ValueError(f"two subsets share the label {label!r}")
        labels.add(label)


def subset_pool(entry, dataset: Dataset) -> tuple[str, ...]:
    """The names an entry picks from, checked against the dataset without
    ranking anything: its own names, which must all be columns, or for
    ``mi:N`` PRIMARY_FEATURES, or every feature if one of those is missing,
    which must hold at least N names."""
    if entry == "all":
        return dataset.feature_names
    if isinstance(entry, tuple) or entry == "primary":
        names = PRIMARY_FEATURES if entry == "primary" else entry
        feature_index(dataset.feature_names, names)
        return names
    count = _mi_count(entry)
    pool = (PRIMARY_FEATURES if set(PRIMARY_FEATURES) <= set(dataset.feature_names)
            else dataset.feature_names)
    if count > len(pool):
        raise ValueError(f"feature subset {entry} asks for {count} features, "
                         f"its pool has {len(pool)}")
    return pool


def resolve_subset(entry, dataset: Dataset, bins: int = 16,
                   ranking=None) -> tuple[str, ...]:
    """The feature names an entry stands for; `Dataset.select` looks them up.

    ``mi:N`` is the first N names of its `subset_pool` in the order of
    `ranking`, which is ``rank_features(dataset, bins)`` and computed here
    if not given.
    """
    pool = subset_pool(entry, dataset)
    if isinstance(entry, tuple) or entry in ("all", "primary"):
        return pool
    if ranking is None:
        ranking = rank_features(dataset, bins)
    return tuple(name for name, _ in ranking if name in pool)[:_mi_count(entry)]
