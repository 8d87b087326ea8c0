"""Feature handling for the energy predictor: scaling, ranking, feature
subsets, the numeric CSV reader (`read_csv_matrix`) and the package's one CSV
writer (`write_chunks`, and `write_rows` for a whole table), which lays a
table of numpy numbers out as byte matrices, its cells formatted by
`numtext` with every byte that is not text NUL, writes each matrix with its
NULs deleted by ``bytes.translate`` (there is no mask), and hands any other
table to ``csv.writer``.  Both read and write UTF-8, whatever the locale.

A Dataset is a named feature matrix plus a per-row energy target in joules.
Features are min-max scaled into [0, 1] with parameters learned on training
data only; test rows are transformed with the same parameters and may land
outside [0, 1], which is intentional.  Feature relevance is scored with a
binned plug-in mutual information estimate against the target.
"""

from __future__ import annotations

import csv
import itertools
from array import array
from dataclasses import dataclass

import numpy as np

from .numtext import FLOAT_CELL, float_cells, int_cell

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

CSV_CHUNK_ROWS = 2048  # rows per write, divided among the float columns; bounds memory


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
        """Column block in the order given, as `columns_at` takes it."""
        return columns_at(self.X, feature_index(self.feature_names, names))

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


def columns_at(X: np.ndarray, index) -> np.ndarray:
    """X's columns at `index`, in that order: a view of X when they are
    evenly spaced, as any one or two columns are, so that the scaling made
    from them is the only copy; else a copy."""
    steps = {b - a for a, b in zip(index, index[1:])}
    if not index or len(steps) > 1 or 0 in steps:
        return X[:, index]
    step = steps.pop() if steps else 1
    stop = index[-1] + step
    return X[:, index[0]:stop if stop >= 0 else None:step]


def _cell(value) -> str:
    """A row-path cell as text: ``repr`` of a float, so it reads back
    exactly, and ``str`` of anything else.  ``csv.writer`` given the value
    itself would write an ``np.float64`` as ``np.float64(...)`` and None as
    an empty field."""
    return repr(float(value)) if isinstance(value, float) else str(value)


def _column_cells(column):
    """(cell, fill) for a numpy int column or a range inside int64, else
    None: `cell` is a row's bytes of the column, its cell then a ",", and
    ``fill(lo, hi, cells)`` writes rows lo to hi into `cells`, views of
    rows holding `cell`, with the bytes that are not text NUL, leaving the
    ","."""
    if isinstance(column, np.ndarray) and column.dtype.kind in "iu" and column.itemsize <= 8:
        cell, fill = int_cell(int(column.min()), int(column.max()))
        return cell, lambda lo, hi, cells: fill(column[lo:hi], cells)
    # A range is formatted a chunk at a time, never made whole: the
    # trace's 100,001-row iteration column given as np.arange raised the
    # peak RSS of optimize at 50x40, which the trace write sets, from
    # about 41.4 to 42.2 MB.
    ends = (column[0], column[-1]) if isinstance(column, range) else ()
    if ends and -2 ** 63 <= min(ends) and max(ends) < 2 ** 63:
        cell, fill = int_cell(min(ends), max(ends))

        def values(lo, hi):  # modulo 2**64, which gives the int64 values exactly
            steps = np.arange(hi - lo, dtype=np.uint64) * np.uint64(column.step % 2 ** 64)
            return (steps + np.uint64(column[lo] % 2 ** 64)).view(np.int64)
        return cell, lambda lo, hi, cells: fill(values(lo, hi), cells)
    return None


def _is_floats(column) -> bool:
    return isinstance(column, np.ndarray) and column.dtype.kind == "f" and column.itemsize <= 8


def _blocks(columns):
    """(cells, fill) per block of a table's columns, as `_column_cells`
    gives them, or None if a column is not numpy numbers or a range: a run
    of numpy float columns is one block, whose floats `float_cells` formats
    together, and any other column is its own."""
    blocks = []
    for floats, run in itertools.groupby(columns, key=_is_floats):
        if not floats:
            blocks += map(_column_cells, run)
            continue
        run = list(run)

        def fill(lo, hi, cells, run=run):
            float_cells(np.stack([column[lo:hi] for column in run], axis=1),
                        cells.reshape(hi - lo, len(run), len(FLOAT_CELL)))
        blocks.append((np.tile(FLOAT_CELL, len(run)), fill))
    return None if None in blocks else blocks


def write_rows(path, header, columns) -> None:
    """Write `header`, then row i holding cell i of each equal-length column:
    `write_chunks` with the whole table as its one chunk.  Columns of
    unequal length are a ValueError before the file is opened."""
    _length(columns)
    write_chunks(path, header, [columns])


def _length(columns) -> int:
    """The length of every column; a ValueError if they differ."""
    n = len(columns[0]) if columns else 0
    if any(len(column) != n for column in columns):
        raise ValueError("CSV columns differ in length")
    return n


def write_chunks(path, header, chunks) -> None:
    """Write `header`, then the rows of each chunk of `chunks` in turn, a
    chunk being equal-length columns whose cell i make its row i.

    This is the package's one CSV writer and row format, ``csv.writer``'s
    default dialect with ``\\r\\n`` line ends: floats as ``repr``, so they
    read back exactly, and other cells as ``str``.  A chunk whose columns
    are all numpy ints or floats (of at most 8 bytes) or int64 ranges takes
    the byte path: its rows are made in pieces, never as one whole-file
    string, of `CSV_CHUNK_ROWS` rows divided by the number of float
    columns.  A piece is one byte matrix, of which each block of columns
    (`_blocks`, laid out for that chunk's own values) fills its part, with
    every byte that is not text NUL; the piece's bytes with the NULs
    deleted are its rows, and no number's text holds a NUL.  The header,
    and any other chunk row by row, its cells made text by `_cell`, go
    through ``csv.writer``.  The file is UTF-8.
    """
    space = np.empty(0, dtype=np.uint8)  # the pieces' bytes, kept from chunk to chunk
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for columns in chunks:
            n = _length(columns)
            blocks = _blocks(columns) if n else None
            if blocks is None:
                writer.writerows(zip(*(map(_cell, c.tolist() if isinstance(c, np.ndarray)
                                           else c) for c in columns)))
                continue
            fh.flush()
            template = np.concatenate([cells for cells, _ in blocks] + [np.uint8([ord("\n")])])
            template[-2] = ord("\r")
            step = max(1, CSV_CHUNK_ROWS // max(1, sum(map(_is_floats, columns))))
            if space.size < min(n, step) * len(template):
                space = np.empty(min(n, step) * len(template), dtype=np.uint8)
            matrix = space[:min(n, step) * len(template)].reshape(-1, len(template))
            for start in range(0, n, step):
                rows = min(n - start, step)
                matrix[:rows] = template
                at = 0
                for cells, fill in blocks:
                    fill(start, start + rows, matrix[:rows, at:at + len(cells)])
                    at += len(cells)
                fh.buffer.write(matrix[:rows].tobytes().translate(None, b"\0"))


def read_csv_matrix(path) -> tuple[tuple[str, ...], np.ndarray]:
    """Header names and a finite float matrix from a numeric CSV file.

    Blank lines are skipped.  An empty file, a header without data rows,
    duplicate column names, a row of the wrong width, a cell that is not a
    number, a NaN or infinite value, text that does not decode and a line
    the csv module rejects (a field over its size limit) are each a
    ValueError naming the file.
    """
    with open(path, newline="", encoding="utf-8") as fh:
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
    legitimately land outside [0, 1].  The differences are divided in
    place, so a call allocates one array the size of X.  It is in Fortran
    order whatever the layout of X, so a view from `columns_at` and a copy
    of the same columns scale to the same array.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != len(params.mins):
        raise ValueError("column count does not match the scaling parameters")
    span = params.maxs - params.mins
    safe = np.where(params.degenerate, 1.0, span)
    out = np.subtract(X, params.mins, out=np.empty(X.shape, order="F"))
    out /= safe
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
