"""Clustered linear prediction of task energy.

Training scales the chosen features to [0, 1], partitions the scaled rows
with k-means, and fits an ordinary least squares plane per cluster.  At
prediction time a point is scaled with the training parameters, routed to
the nearest centroid, and evaluated with that cluster's plane.  Everything
is seeded and single-threaded, so identical inputs give identical models.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass

import numpy as np

from .features import (TARGET_COLUMN, Dataset, ScalingParams, apply_min_max,
                       fit_min_max, write_rows)

MODEL_FORMAT = "offloadlab-clustered-model"
MODEL_VERSION = 1

RIDGE_JITTER = 1e-10  # added to the slope diagonal of the normal equations

# Distance cells (rows x centroids x features) a nearest-centroid pass holds
# at once, as datagen's BATCH_CELLS bounds ladder cells: 512 KB of float64
# whatever the number of rows, unless one row alone spans more.
DIST_CELLS = 1 << 16

log = logging.getLogger(__name__)


@dataclass(frozen=True, eq=False)
class KMeansModel:
    k: int
    centroids: np.ndarray            # (k, d)
    inertia: float                   # the kept run's, after its last update
    seed: int
    iterations_run: int
    labels: np.ndarray | None = None          # training assignment


@dataclass(frozen=True, eq=False)
class LinearModel:
    """Affine predictor: coeffs[0] is the intercept, the rest are slopes."""

    coeffs: np.ndarray
    degenerate: bool = False

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return self.coeffs[0] + X @ self.coeffs[1:]


@dataclass(frozen=True, eq=False)
class ClusteredModel:
    """Scaling, centroids and one plane per cluster, all over feature_subset.

    The parts must agree: k centroids and k planes, every width equal to the
    subset's.  `predict_matrix` relies on this to fill every row.
    """

    kmeans: KMeansModel
    per_cluster: tuple[LinearModel, ...]
    scaling: ScalingParams
    feature_subset: tuple[str, ...]

    def __post_init__(self):
        k, d = self.kmeans.k, len(self.feature_subset)
        if len(set(self.feature_subset)) != d:
            raise ValueError(f"feature_subset repeats a name: {list(self.feature_subset)}")
        if self.kmeans.centroids.shape != (k, d):
            raise ValueError(f"centroids have shape {self.kmeans.centroids.shape}, "
                             f"expected ({k}, {d}) for k={k} and {d} features")
        if len(self.per_cluster) != k:
            raise ValueError(f"{len(self.per_cluster)} cluster models for {k} centroids")
        for c, lm in enumerate(self.per_cluster):
            if lm.coeffs.shape != (d + 1,):
                raise ValueError(f"cluster {c} has {lm.coeffs.size} coefficients, "
                                 f"expected {d + 1}")
        if self.scaling.mins.shape != (d,):
            raise ValueError(f"scaling covers {self.scaling.mins.size} features, "
                             f"the subset has {d}")


@dataclass(frozen=True)
class EvalReport:
    rows: tuple[tuple[int, float, float], ...]  # (k, mae, mse)

    def best_k(self) -> tuple[int, float, float]:
        return min(self.rows, key=lambda r: (r[1], r[0]))

    def to_csv(self, path) -> None:
        write_rows(path, ["k", "mae_j", "mse_j2"], list(zip(*self.rows)))


def _sq_dists(cols: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """(k, m) squared distances from each centroid to each column of cols (d, m).

    Features are added left to right whatever the memory layout of the
    points: numpy reduces the leading axis of a C-ordered block one whole
    slice at a time, in order (`test_kmeans_pruning` pins this to a loop).
    """
    d, m = cols.shape
    diff = np.empty((d, len(centroids), m))
    np.subtract(centroids.T[:, :, None], cols[:, None, :], out=diff)
    diff *= diff
    return diff.sum(axis=0)


def _assign(cols: np.ndarray, centroids: np.ndarray):
    """Nearest centroid of each column of cols (d, m), ties to the lowest
    index; the distance to it; and the runner-up's distance, a lower bound
    on the distance to every other centroid (inf when k = 1)."""
    d2 = _sq_dists(cols, centroids)
    labels = d2.argmin(axis=0)
    own = labels * d2.shape[1] + np.arange(d2.shape[1])  # flat (label, column)
    nearest = np.sqrt(d2.take(own))
    d2.ravel()[own] = np.inf
    return labels, nearest, np.sqrt(d2.min(axis=0))


def _blocks(n: int, centroids: np.ndarray) -> list[slice]:
    """range(n) cut into runs of rows whose distances to the centroids span
    at most DIST_CELLS cells; a row that alone spans more is a run of one."""
    step = max(1, DIST_CELLS // max(centroids.size, 1))
    return [slice(lo, lo + step) for lo in range(0, n, step)]


def _seed_centroids(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    # k-means++ D^2 sampling; falls back to uniform picks once all mass is 0
    n = len(points)
    chosen = [int(rng.integers(n))]
    d2 = _sq_dists(points.T, points.take(chosen, axis=0))[0]
    for _ in range(1, k):
        total = d2.sum()
        if total > 0.0:
            # Generator.choice(n, p=d2 / total)'s own draw, without its checks on p
            cdf = np.cumsum(d2 / total)
            cdf /= cdf[-1]
            idx = int(cdf.searchsorted(rng.random(), side="right"))
        else:
            idx = int(rng.integers(n))
        chosen.append(idx)
        d2 = np.minimum(d2, _sq_dists(points.T, points[idx:idx + 1])[0])
    return points.take(chosen, axis=0)


def _reach(points: np.ndarray) -> float:
    """2 sqrt(d) (max span + (n + 1) 2**-52 max|x|): twice the bound S of
    `_prune_slack` on every point-centroid distance and centroid move."""
    lo, hi = points.min(axis=0), points.max(axis=0)
    return 2.0 * np.sqrt(points.shape[1]) * (
        (hi - lo).max(initial=0.0)
        + (len(points) + 1) * 2.0**-52 * np.maximum(-lo, hi).max(initial=0.0))


def _repair_empty(points: np.ndarray, centroids: np.ndarray,
                  labels: np.ndarray, counts: np.ndarray) -> bool:
    """Reseed empty clusters at the point farthest from its own centroid.

    Mutates centroids, labels and the per-cluster counts in place.  Skips
    the move when every point already sits on its centroid: there is
    nothing to gain and the donated point would just oscillate.
    """
    repaired = False
    for _ in range(2 * len(centroids)):
        empty = np.flatnonzero(counts == 0)
        if empty.size == 0:
            break
        dist2 = ((points - centroids.take(labels, axis=0)) ** 2).sum(axis=1)
        donor = int(dist2.argmax())
        if dist2[donor] <= 0.0:
            break
        centroids[empty[0]] = points[donor]
        counts[labels[donor]] -= 1
        counts[empty[0]] += 1
        labels[donor] = empty[0]
        repaired = True
    return repaired


def _prune_slack(reach: float, d: int, max_iter: int) -> float:
    """How far a row's bounds must clear each other for its label to be kept.

    Every centroid is a point or a computed mean of points.  A sequential
    sum of m values rounds by at most gamma_m = m eps / (1 - m eps) of their
    magnitudes (eps = 2**-53), so a mean strays past its members' range by
    at most (n + 1) eps max|x| per feature, and no point-centroid distance
    or centroid move exceeds S = sqrt(d) (max span + (n + 1) 2**-52 max|x|).
    `reach` is `_reach` of the points, 2 S, the factor 2 covering the
    rounding of S itself.

    A computed distance (the square root of a left-to-right sum of d
    rounded squares of rounded differences), like a computed centroid move,
    is within gamma_(d+2) S <= (d + 3.4) eps S of the exact one; subnormal
    underflow adds at most sqrt(d) 2**-537 < 1e-150.  A row last assigned
    exactly t updates ago carries: those errors in its two distances (2
    terms) and in the t moves added to each bound (2t terms); the rounding
    of the t additions to the upper bound (<= 2 eps S each: a kept row has
    upper < lower <= S before the update, for k >= 2; with k = 1 no label
    can change) and of the t subtractions from
    the lower (<= eps S each); that of the comparison (<= 2 eps S); and one
    gamma_(d+2) S more, so that the computed squared distances, not only
    the exact ones, put the own centroid strictly first.  The total is
    below (2t + 3) ((d + 5) eps S + 1e-150), and t < max_iter.
    """
    return (2 * max_iter + 3) * ((d + 5) * 2.0**-53 * reach + 1e-150)


def _lloyd(points: np.ndarray, cols: np.ndarray, k: int, rng: np.random.Generator,
           tol: float, max_iter: int, slack: float):
    """Lloyd iterations from a k-means++ seeding.

    `points` is C-ordered (n, d) and `cols` the same values as (d, n).  Each
    point keeps an upper bound on the distance to its own centroid and a
    lower bound on the distance to every other one (Hamerly, SDM 2010).
    The bounds start at upper = inf and lower = 0, so the first step
    assigns every row.  After an update the upper bound grows by its
    centroid's move and the lower shrinks by the largest move; after a
    repair the upper is reset to inf.  A row is assigned again, exactly,
    unless upper + slack < lower, which proves its label cannot change; a
    NaN or inf bound never passes.  So the labels are bit for bit those of
    a full assignment.  Stale rows are assigned in `_blocks` of at most
    DIST_CELLS distance cells, so a step holds no (d, k, n) block; each
    row's distances, label and bounds depend on that row alone, so the
    blocks change no bit.  Rows are gathered with `take`: at a few thousand
    rows numpy's advanced indexing costs more than the arithmetic.
    Returns (centroids, labels, inertia, iterations, repairs, rows recomputed).
    """
    centroids = _seed_centroids(points, k, rng)
    n, d = points.shape
    sums = np.empty((d, k))
    # no label yet and no bound: the first step finds every row stale
    labels = np.full(n, -1, dtype=np.intp)
    upper, lower = np.full(n, np.inf), np.zeros(n)
    repairs = recomputed = 0
    for iterations in range(1, max_iter + 1):
        # a kept row's label cannot have changed, so only stale rows can
        stale = np.flatnonzero(~(upper + slack < lower))
        changed = False
        for block in _blocks(stale.size, centroids):
            rows = stale[block]
            fresh, upper[rows], lower[rows] = _assign(cols.take(rows, axis=1), centroids)
            if not np.array_equal(fresh, labels.take(rows)):
                labels[rows] = fresh
                changed = True
        recomputed += stale.size
        counts = np.bincount(labels, minlength=k)
        repaired = _repair_empty(points, centroids, labels, counts)
        repairs += repaired
        if not repaired and not changed:
            break
        previous = centroids.copy()
        # one bincount per feature over its row of cols: each bin adds its
        # members in row order, as a mean over their C-ordered gather would
        for j in range(d):
            sums[j] = np.bincount(labels, weights=cols[j], minlength=k)
        np.divide(sums.T, counts[:, None], out=centroids, where=counts[:, None] > 0)
        moves = np.sqrt(((centroids - previous) ** 2).sum(axis=1))
        shift = float(moves.max())
        if not repaired and shift < tol:
            break
        # a repair jumps a centroid past these moves: every row goes stale
        upper += np.inf if repaired else moves.take(labels)
        lower -= shift
    # the last update's inertia (a break before an update keeps its labels),
    # in the C-ordered (n, d) block whose pairwise .sum() the frozen ones pin
    sq = centroids.take(labels, axis=0)
    np.subtract(points, sq, out=sq)
    sq *= sq
    return centroids, labels, float(sq.sum()), iterations, repairs, recomputed


def kmeans_fit(points: np.ndarray, k: int, seed: int = 0, tol: float = 1e-6,
               max_iter: int = 300, restarts: int = 1) -> KMeansModel:
    """Seeded k-means++ plus Lloyd iterations; the best of `restarts` runs.

    Restarts draw from one generator stream, so the result is a pure
    function of (points, k, seed, tol, max_iter, restarts), whatever the
    memory layout of `points`.  Points for which n `_reach`**2, the bound
    on every squared distance, the D^2 mass and the inertia, overflows are
    a ValueError; the CLI min-max scales its points into [0, 1] first.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or len(pts) == 0:
        raise ValueError("points must be a non-empty 2-D array")
    if not np.isfinite(pts).all():
        raise ValueError("points contain NaN or infinite values")
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > len(pts):
        raise ValueError(f"k={k} exceeds the {len(pts)} available points")
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    rows = np.ascontiguousarray(pts)
    with np.errstate(over="ignore"):  # inf past the float range
        reach = _reach(rows)
        if len(rows) * reach**2 == np.inf:
            raise ValueError("points spread too far: their squared distances overflow")
    cols = np.ascontiguousarray(rows.T)
    slack = _prune_slack(reach, rows.shape[1], max_iter)
    rng = np.random.default_rng(seed)
    # at k = 1 every run ends at the one bincount mean of all the rows, with
    # equal inertia, and the first is kept: the others are not run
    runs = [_lloyd(rows, cols, k, rng, tol, max_iter, slack)
            for _ in range(restarts if k > 1 else 1)]
    # the first of the least inertias
    best = min(range(len(runs)), key=lambda r: runs[r][2])
    centroids, labels, inertia, iterations = runs[best][:4]
    log.debug("kmeans_fit n=%d k=%d: iterations per restart %s, restart %d kept, "
              "%d repairs, %d of %d rows recomputed", len(rows), k,
              [run[3] for run in runs], best, sum(run[4] for run in runs),
              sum(run[5] for run in runs), len(rows) * sum(run[3] for run in runs))
    return KMeansModel(k=k, centroids=centroids, inertia=inertia, seed=seed,
                       iterations_run=iterations, labels=labels)


def fit_linear_model(X: np.ndarray, y: np.ndarray) -> LinearModel:
    """Least squares plane through (X, y) via the normal equations.

    A tiny ridge term stabilises the slope block only; the intercept is
    never penalised, so a constant column ends up with slope ~0 instead of
    leaking into the intercept.  Underdetermined or singular systems fall
    back to a mean-only model and are flagged degenerate.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float)
    n, d = X.shape
    if len(y) != n:
        raise ValueError("X and y disagree on the number of rows")

    def mean_only() -> LinearModel:
        coeffs = np.zeros(d + 1)
        coeffs[0] = float(y.mean()) if n else 0.0
        return LinearModel(coeffs=coeffs, degenerate=True)

    if n < d + 1:
        return mean_only()
    # a column with no variation is pure intercept; solving with it present
    # would leave the split between the two at the mercy of conditioning
    varying = X.max(axis=0) != X.min(axis=0)
    if not varying.any():
        return mean_only()
    design = np.hstack([np.ones((n, 1)), X[:, varying]])
    m = design.shape[1]
    gram = design.T @ design
    diag = np.arange(1, m)
    gram[diag, diag] += RIDGE_JITTER
    try:
        solution = np.linalg.solve(gram, design.T @ y)
    except np.linalg.LinAlgError:
        return mean_only()
    if not np.isfinite(solution).all():
        return mean_only()
    coeffs = np.zeros(d + 1)
    coeffs[0] = solution[0]
    coeffs[1:][varying] = solution[1:]
    return LinearModel(coeffs=coeffs, degenerate=bool(not varying.all()))


def train_clustered_models(training_data: Dataset, num_clusters: int,
                           feature_subset=None, seed: int = 0,
                           restarts: int = 10) -> ClusteredModel:
    """Scale, cluster, and fit one linear model per cluster.

    Clusters too small to support a plane (< n_features + 2 points) get a
    mean-only model instead; training never aborts on a thin cluster.
    """
    subset = tuple(feature_subset) if feature_subset is not None else training_data.feature_names
    if not subset:
        raise ValueError("feature subset must not be empty")
    raw = training_data.select(subset)
    if num_clusters < 1:
        raise ValueError("num_clusters must be >= 1")
    if len(raw) < num_clusters:
        raise ValueError("fewer training rows than clusters")
    scaling = fit_min_max(raw, subset)
    scaled = apply_min_max(raw, scaling)
    km = kmeans_fit(scaled, num_clusters, seed=seed, restarts=restarts)
    models = []
    try:  # the scaled features lie in [0, 1], so only the target's sums can overflow
        with np.errstate(over="raise"):
            for c in range(num_clusters):
                members = np.flatnonzero(km.labels == c)
                if members.size < len(subset) + 2:  # an empty cluster's mean is 0.0
                    coeffs = np.zeros(len(subset) + 1)
                    coeffs[0] = training_data.y.take(members).sum() / max(members.size, 1)
                    models.append(LinearModel(coeffs=coeffs, degenerate=True))
                else:
                    models.append(fit_linear_model(scaled.take(members, axis=0),
                                                   training_data.y.take(members)))
    except FloatingPointError:
        raise ValueError(f"{TARGET_COLUMN} is too large to fit: a sum over a cluster's "
                         "values passes the float range") from None
    return ClusteredModel(kmeans=km, per_cluster=tuple(models),
                          scaling=scaling, feature_subset=subset)


def predict_matrix(model: ClusteredModel, raw: np.ndarray) -> np.ndarray:
    """Predicted energy (J) per row of raw features ordered like the subset.

    Each row is scaled with the training parameters, routed to the nearest
    centroid (ties to the lowest index) and evaluated with that plane.  A
    prediction that overflows or is not finite is a ValueError naming its row.
    Rows are routed in `_blocks` of at most DIST_CELLS distance cells, so
    memory grows as a few (n, d) arrays, with no n d k term; each plane
    still predicts all of its rows in one call, as BLAS may round a row by
    the batch it comes in.
    """
    raw = np.atleast_2d(np.asarray(raw, dtype=float))
    if raw.shape[1] != len(model.feature_subset):
        raise ValueError(
            f"expected {len(model.feature_subset)} feature columns, got {raw.shape[1]}")
    out = np.empty(len(raw))
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite row is the error below
        scaled = apply_min_max(raw, model.scaling)
        # `_assign`'s labels, without its nearest and runner-up distances
        centroids = model.kmeans.centroids
        labels = np.empty(len(scaled), dtype=np.intp)
        for block in _blocks(len(scaled), centroids):
            labels[block] = _sq_dists(scaled[block].T, centroids).argmin(axis=0)
        for c, lm in enumerate(model.per_cluster):
            members = np.flatnonzero(labels == c)
            if members.size:
                out[members] = lm.predict(scaled.take(members, axis=0))
    bad = np.flatnonzero(~np.isfinite(out))
    if bad.size:
        raise ValueError(f"the prediction for row {bad[0]} is {out[bad[0]]}")
    return out


def evaluate_models(training_data: Dataset, test_data: Dataset, k_max: int,
                    feature_subset=None, seed: int = 0,
                    restarts: int = 10) -> EvalReport:
    """MAE/MSE on held-out rows for every cluster count from 1 to k_max; a
    metric that overflows or is not finite is a ValueError naming k, and a
    k_max above the training row count is one before any fit."""
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    if k_max > len(training_data):
        raise ValueError(f"k_max={k_max} exceeds the {len(training_data)} training rows")
    if tuple(training_data.feature_names) != tuple(test_data.feature_names):
        raise ValueError("train and test datasets disagree on features")
    rows = []
    for k in range(1, k_max + 1):
        model = train_clustered_models(training_data, k, feature_subset,
                                       seed=seed, restarts=restarts)
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite metric: error below
            err = predict_matrix(model, test_data.select(model.feature_subset)) - test_data.y
            mae, mse = float(np.abs(err).mean()), float((err ** 2).mean())
        for metric, value in (("MAE", mae), ("MSE", mse)):
            if not np.isfinite(value):
                raise ValueError(f"the test {metric} at k={k} is {value}")
        rows.append((k, mae, mse))
    return EvalReport(rows=tuple(rows))


def save_model(model: ClusteredModel, path) -> None:
    """Write a self-describing JSON snapshot sufficient for prediction."""
    payload = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "feature_subset": list(model.feature_subset),
        "scaling": {
            "mins": model.scaling.mins.tolist(),
            "maxs": model.scaling.maxs.tolist(),
        },
        "kmeans": {
            "k": model.kmeans.k,
            "seed": model.kmeans.seed,
            "inertia": model.kmeans.inertia,
            "iterations_run": model.kmeans.iterations_run,
            "centroids": [row.tolist() for row in model.kmeans.centroids],
        },
        "clusters": [
            {"coeffs": lm.coeffs.tolist(), "degenerate": lm.degenerate}
            for lm in model.per_cluster
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _get(section, key: str, kind, where: str):
    """section[key], which must exist and be of the given JSON type."""
    if not isinstance(section, dict):
        raise ValueError(f"{where.rstrip('.') or 'the top level'} must be a JSON object")
    if key not in section:
        raise ValueError(f"missing key {where}{key}")
    value = section[key]
    # JSON true/false are Python bools, which are also ints
    if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
        raise ValueError(f"{where}{key} has the wrong type ({type(value).__name__})")
    return value


def _numbers(value, ndim: int, what: str) -> np.ndarray:
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        arr = None
    if arr is None or arr.ndim != ndim or not np.isfinite(arr).all():
        raise ValueError(f"{what} must be a {ndim}-D list of finite numbers")
    return arr


def _model_from_payload(payload) -> ClusteredModel:
    if not isinstance(payload, dict) or payload.get("format") != MODEL_FORMAT:
        raise ValueError(f"not a {MODEL_FORMAT} file")
    if payload.get("version") != MODEL_VERSION:
        raise ValueError(f"unsupported model version {payload.get('version')}")
    subset = _get(payload, "feature_subset", list, "")
    if not subset or not all(isinstance(name, str) for name in subset):
        raise ValueError("feature_subset must be a non-empty list of names")
    km = _get(payload, "kmeans", dict, "")
    kmeans = KMeansModel(
        k=_get(km, "k", int, "kmeans."),
        centroids=_numbers(_get(km, "centroids", list, "kmeans."), 2, "kmeans.centroids"),
        inertia=float(_get(km, "inertia", (int, float), "kmeans.")),
        seed=_get(km, "seed", int, "kmeans."),
        iterations_run=_get(km, "iterations_run", int, "kmeans."),
    )
    if not 0.0 <= kmeans.inertia < np.inf:  # NaN fails too
        raise ValueError("kmeans.inertia must be a finite number >= 0")
    if kmeans.iterations_run < 1 or kmeans.seed < 0:
        raise ValueError("kmeans.iterations_run must be >= 1 and kmeans.seed >= 0")
    scaling_entry = _get(payload, "scaling", dict, "")
    scaling = ScalingParams(
        mins=_numbers(_get(scaling_entry, "mins", list, "scaling."), 1, "scaling.mins"),
        maxs=_numbers(_get(scaling_entry, "maxs", list, "scaling."), 1, "scaling.maxs"),
    )
    models = tuple(
        LinearModel(
            coeffs=_numbers(_get(entry, "coeffs", list, f"clusters[{c}]."), 1,
                            f"clusters[{c}].coeffs"),
            degenerate=_get(entry, "degenerate", bool, f"clusters[{c}]."))
        for c, entry in enumerate(_get(payload, "clusters", list, "")))
    return ClusteredModel(kmeans=kmeans, per_cluster=models, scaling=scaling,
                          feature_subset=tuple(subset))


def _unique_keys(pairs: list) -> dict:
    """A JSON object's pairs as a dict; a key given twice is a ValueError."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"key {key!r} is given twice")
        obj[key] = value
    return obj


def load_model(path) -> ClusteredModel:
    """Read a `save_model` snapshot.

    Text that does not decode, a key given twice, a missing or mistyped
    key, a number out of its range, or parts that disagree (cluster count
    against k, a width against the feature subset) is a ValueError naming
    the file.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            return _model_from_payload(json.loads(fh.read(), object_pairs_hook=_unique_keys))
        # UnicodeDecodeError included; OverflowError is an integer past the float range
        except (ValueError, OverflowError) as exc:
            raise ValueError(f"{path}: {exc}") from None
