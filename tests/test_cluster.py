import itertools
import json
import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from offloadlab import cluster
from offloadlab.cluster import (ClusteredModel, EvalReport, KMeansModel,
                                LinearModel, _assign, _seed_centroids, _sq_dists,
                                evaluate_models,
                                fit_linear_model, kmeans_fit, load_model,
                                predict_matrix, save_model,
                                train_clustered_models)
from offloadlab.features import Dataset, ScalingParams, apply_min_max, fit_min_max
from test_kmeans_pruning import fit_both
from test_kmeans_reference import assert_identical


def best_partition_inertia(points: np.ndarray, k: int) -> float:
    """Exhaustive minimum over every assignment of points to k groups."""
    best = math.inf
    for labels in itertools.product(range(k), repeat=len(points)):
        lab = np.asarray(labels)
        total = 0.0
        for c in range(k):
            members = points[lab == c]
            if len(members):
                total += float(((members - members.mean(axis=0)) ** 2).sum())
        best = min(best, total)
    return best


def _far_points():
    rng = np.random.default_rng(7)
    # the runner-up of a point is 1e200 away, its own centroid 1e185
    two_far_groups = np.vstack([rng.integers(0, 3, size=(20, 2)) * 1.0,
                                1e200 + rng.integers(0, 3, size=(20, 2)) * 1e185])
    e = 1e153
    return {
        "spread-1e200": np.random.default_rng(7).random((40, 3)) * 1e200,
        "two-far-groups": two_far_groups,
        # the origin's runner-up starts 1.4e154 away and closes in by 9.1e153
        "runner-up-1e153": np.array([[-5 * e, 0.0]] * 100 + [[0.0, 0.0], [14 * e, 0.0]]
                                    + [[4.6 * e, 0.0]] * 30),
        # spread 0, but a rounded mean may stray about 1e284 off the points
        "identical-1e300": np.full((7, 2), 1e300),
        "normals-times-2**600": np.random.default_rng(0).normal(size=(40, 3)) * 2.0**600,
        "square-1e200": np.array([[0.0, 0.0], [1e200, 0.0], [0.0, 1e200], [1e200, 1e200]]),
    }


SPREAD_PAST_THE_BOUND = _far_points()


def points_either_side_of_the_bound(points):
    """points * c and points * c', with c' the float after c, such that
    n `_reach`**2 is finite for the first and overflows for the second,
    found by bisecting the bit patterns of positive floats (they sort
    as their floats do)."""
    def inside(bits):
        with np.errstate(over="ignore"):
            mass = len(points) * cluster._reach(points * np.int64(bits).view(float)) ** 2
        return mass < np.inf

    lo, hi = (int(np.float64(c).view(np.int64)) for c in (1.0, 1e300))
    assert inside(lo) and not inside(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if inside(mid) else (lo, mid)
    return (points * np.int64(lo).view(float), points * np.int64(hi).view(float))


class TestKMeans:
    def test_single_cluster_is_the_mean(self):
        rng = np.random.default_rng(1)
        pts = rng.normal(size=(30, 3))
        model = kmeans_fit(pts, k=1)
        assert np.allclose(model.centroids[0], pts.mean(axis=0), atol=1e-12)
        expected = float(((pts - pts.mean(axis=0)) ** 2).sum())
        assert model.inertia == pytest.approx(expected, rel=1e-12)

    def test_two_separated_blobs(self):
        rng = np.random.default_rng(2)
        a = rng.normal(loc=0.0, scale=0.1, size=(25, 2))
        b = rng.normal(loc=10.0, scale=0.1, size=(25, 2))
        model = kmeans_fit(np.vstack([a, b]), k=2, seed=0, restarts=5)
        centers = sorted(model.centroids[:, 0].tolist())
        assert abs(centers[0]) < 0.5 and abs(centers[1] - 10.0) < 0.5
        labels = model.labels
        assert len(set(labels[:25].tolist())) == 1
        assert len(set(labels[25:].tolist())) == 1
        assert labels[0] != labels[-1]

    def test_duplicates_with_outlier(self):
        pts = np.array([[0.0], [0.0], [0.0], [0.0], [10.0]])
        model = kmeans_fit(pts, k=2, seed=3, restarts=5)
        assert model.inertia == pytest.approx(0.0, abs=1e-24)

    def test_matches_exhaustive_optimum_on_small_inputs(self):
        rng = np.random.default_rng(77)
        for fx in range(5):
            n = int(rng.integers(4, 8))
            d = int(rng.integers(1, 3))
            k = int(rng.integers(2, min(3, n) + 1))
            pts = rng.normal(size=(n, d))
            model = kmeans_fit(pts, k, seed=fx, restarts=10)
            oracle = best_partition_inertia(pts, k)
            assert model.inertia >= oracle - 1e-9
            assert model.inertia == pytest.approx(oracle, rel=1e-9, abs=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(3, 25), k=st.integers(1, 4))
    def test_partition_invariants(self, seed, n, k):
        if k > n:
            k = n
        rng = np.random.default_rng(seed)
        pts = rng.uniform(size=(n, 2))
        model = kmeans_fit(pts, k, seed=seed)
        labels = model.labels
        assert labels.shape == (n,)
        assert labels.min() >= 0 and labels.max() < k
        total = 0.0
        for c in range(k):
            members = pts[labels == c]
            if len(members):
                # converged centroids sit exactly on their members' mean
                assert np.allclose(model.centroids[c], members.mean(axis=0),
                                   rtol=1e-9, atol=1e-12)
                total += float(((members - members.mean(axis=0)) ** 2).sum())
        assert model.inertia == pytest.approx(total, rel=1e-9, abs=1e-12)
        # the run stopped after t updates: its inertia never rises with t
        steps = [kmeans_fit(pts, k, seed=seed, max_iter=t).inertia
                 for t in range(1, model.iterations_run + 1)]
        assert steps[-1] == model.inertia
        assert not np.any(np.diff(steps) > 1e-9)

    def test_deterministic_for_fixed_seed(self):
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(40, 2))
        a = kmeans_fit(pts, 3, seed=17, restarts=4)
        b = kmeans_fit(pts, 3, seed=17, restarts=4)
        assert np.array_equal(a.centroids, b.centroids)
        assert a.inertia == b.inertia

    @pytest.mark.parametrize("seed", range(4))
    def test_one_cluster_runs_one_restart(self, monkeypatch, seed):
        # every restart ends at the same mean with equal inertia, and the
        # first is kept, so ten restarts give the model of one
        pts = np.random.default_rng(seed).uniform(size=(200, 3)) ** (seed + 1)
        runs = []
        lloyd = cluster._lloyd
        monkeypatch.setattr(cluster, "_lloyd", lambda *a: runs.append(1) or lloyd(*a))
        many = kmeans_fit(pts, 1, seed=seed, restarts=10)
        assert len(runs) == 1
        one = kmeans_fit(pts, 1, seed=seed, restarts=1)
        assert (many.k, many.inertia, many.seed, many.iterations_run) == (
            one.k, one.inertia, one.seed, one.iterations_run)
        assert many.centroids.tobytes() == one.centroids.tobytes()
        assert many.labels.tobytes() == one.labels.tobytes()
        assert np.allclose(many.centroids, pts.mean(axis=0))

    def test_restarts_never_hurt(self):
        rng = np.random.default_rng(6)
        pts = rng.uniform(size=(30, 2))
        one = kmeans_fit(pts, 4, seed=9, restarts=1)
        many = kmeans_fit(pts, 4, seed=9, restarts=8)
        assert many.inertia <= one.inertia + 1e-12

    @pytest.mark.parametrize("bad_k", [0, -1, 6])
    def test_k_out_of_range(self, bad_k):
        pts = np.zeros((5, 2))
        with pytest.raises(ValueError):
            kmeans_fit(pts, bad_k)

    def test_rejects_nan(self):
        pts = np.array([[0.0, 1.0], [np.nan, 2.0]])
        with pytest.raises(ValueError):
            kmeans_fit(pts, 1)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            kmeans_fit(np.empty((0, 2)), 1)
        with pytest.raises(ValueError):
            kmeans_fit(np.arange(4.0), 1)
        with pytest.raises(ValueError):
            kmeans_fit(np.zeros((4, 1)), 2, restarts=0)

    @pytest.mark.parametrize("name", sorted(SPREAD_PAST_THE_BOUND))
    def test_rejects_a_squared_spread_past_the_float_range(self, name):
        for k in (1, 2):
            with pytest.raises(ValueError, match="^points spread too far: their squared "
                                                 "distances overflow$"):
                kmeans_fit(SPREAD_PAST_THE_BOUND[name], k, restarts=2)

    @pytest.mark.parametrize("k", [1, 3])
    def test_either_side_of_the_spread_bound(self, k):
        inside, outside = points_either_side_of_the_bound(
            np.random.default_rng(k).random((40, 3)))
        assert_identical(*fit_both(inside, k, seed=k, restarts=2))
        with pytest.raises(ValueError, match="points spread too far"):
            kmeans_fit(outside, k, seed=k, restarts=2)


def choice_seeds(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding that draws each D^2 pick with `Generator.choice`."""
    n = len(points)
    chosen = [int(rng.integers(n))]
    d2 = _sq_dists(points.T, points.take(chosen, axis=0))[0]
    for _ in range(1, k):
        total = d2.sum()
        idx = int(rng.choice(n, p=d2 / total)) if total > 0.0 else int(rng.integers(n))
        chosen.append(idx)
        d2 = np.minimum(d2, _sq_dists(points.T, points[idx:idx + 1])[0])
    return points.take(chosen, axis=0)


class TestSeeding:
    def test_draws_as_generator_choice(self):
        for case in range(300):
            rng = np.random.default_rng(case)
            n, d, k = (int(rng.integers(lo, hi)) for lo, hi in ((1, 3000), (1, 5), (1, 12)))
            # rows repeated from a few distinct ones: D^2 masses with many zeros
            distinct = rng.random((int(rng.integers(1, n + 1)), d))
            points = distinct.take(rng.integers(0, len(distinct), size=n), axis=0)
            got_rng = np.random.default_rng(10_000 + case)
            want_rng = np.random.default_rng(10_000 + case)
            got = _seed_centroids(points, k, got_rng)
            assert got.tobytes() == choice_seeds(points, k, want_rng).tobytes(), case
            # both consumed the same draws
            assert got_rng.random() == want_rng.random(), case


def nearest_by_loop(centroids: np.ndarray, point: np.ndarray) -> int:
    """Index of the nearest centroid by squared distance; ties to the lowest."""
    best, best_d2 = 0, math.inf
    for c, centroid in enumerate(centroids):
        d2 = sum((float(p) - float(q)) ** 2 for p, q in zip(point, centroid))
        if d2 < best_d2:
            best, best_d2 = c, d2
    return best


def routing_model(centroids) -> ClusteredModel:
    """Identity scaling and one constant plane per centroid: the prediction
    is the index of the cluster a row is routed to."""
    centroids = np.asarray(centroids, dtype=float)
    k, d = centroids.shape
    planes = tuple(LinearModel(coeffs=np.r_[float(c), np.zeros(d)]) for c in range(k))
    return ClusteredModel(
        kmeans=KMeansModel(k=k, centroids=centroids, inertia=0.0, seed=0,
                           iterations_run=0),
        per_cluster=planes,
        scaling=ScalingParams(mins=np.zeros(d), maxs=np.ones(d)),
        feature_subset=tuple(f"f{i}" for i in range(d)))


class TestAssignCluster:
    """Routing inside predict_matrix: nearest centroid, ties to the lowest."""

    def make(self):
        rng = np.random.default_rng(8)
        pts = np.vstack([rng.normal(0, 0.1, (10, 2)), rng.normal(5, 0.1, (10, 2))])
        return routing_model(kmeans_fit(pts, 2, seed=0, restarts=3).centroids)

    def test_routes_to_nearest(self):
        model = self.make()
        points = np.array([[0.1, -0.1], [5.2, 4.9]])
        near_zero, near_five = predict_matrix(model, points).astype(int)
        assert near_zero != near_five
        assert np.linalg.norm(model.kmeans.centroids[near_zero]) < 1.0
        rng = np.random.default_rng(12)
        cloud = rng.uniform(-2, 7, size=(200, 2))
        expected = [nearest_by_loop(model.kmeans.centroids, p) for p in cloud]
        assert predict_matrix(model, cloud).tolist() == expected

    def test_tie_takes_lowest_index(self):
        model = routing_model([[2.0], [0.0], [2.0]])
        # 1.0 is equidistant from all three; 2.0 sits on clusters 0 and 2
        assert predict_matrix(model, np.array([[1.0], [2.0]])).tolist() == [0.0, 0.0]
        assert nearest_by_loop(model.kmeans.centroids, [1.0]) == 0

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_routes_as_assign_labels(self):
        # the last centroid repeats the second: a row on it ties between both
        centroids = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0], [2.0, 2.0], [1e200, 0.0],
                              [2.0, 0.0]])
        # lattice rows tie exactly between two or four centroids; the far rows'
        # squared distances overflow to inf, to some centroids or to all
        lattice = [(x, y) for x in range(-1, 4) for y in range(-1, 4)]
        far = [(1e200, 0.0), (1e200, 1e200), (-1e200, 0.0), (1e300, -1e300)]
        # four routing blocks and a short fifth, each edge flanked by tied rows
        step = cluster.DIST_CELLS // centroids.size
        rows = np.tile(lattice + far, (4 * step // 29 + 1, 1))
        edges = np.arange(step, len(rows), step)
        assert len(edges) == 4
        rows[np.r_[edges - 1, edges]] = (2.0, 0.0)
        d2 = _sq_dists(rows.T, centroids)
        ties = (d2 == d2.min(axis=0)).sum(axis=0) > 1
        assert ties[edges - 1].all() and ties[edges].all()
        assert np.isinf(d2).all(axis=0).any()
        routed = predict_matrix(routing_model(centroids), rows)
        assert routed.tolist() == _assign(rows.T, centroids)[0].tolist()

    def test_dimension_mismatch(self):
        model = self.make()
        with pytest.raises(ValueError):
            predict_matrix(model, np.array([[1.0, 2.0, 3.0]]))


class TestMemory:
    """Nearest-centroid passes hold at most DIST_CELLS distance cells, so
    their memory grows with the rows times the features, not times k."""

    n, d, k = 20_000, 7, 10

    def peak(self, fn, *args, **kwargs):
        tracemalloc.start()
        try:
            fn(*args, **kwargs)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def points(self):
        return np.random.default_rng(0).random((self.n, self.d))

    def bound(self, points):
        # three copies of the points and two 2**16-cell float64 blocks; one
        # (d, k, n) distance block alone would be 11.2 MB
        return 3 * points.nbytes + 2 * 8 * 2**16

    def test_kmeans_fit(self):
        points = self.points()
        peak = self.peak(kmeans_fit, points, self.k, seed=1, restarts=1, max_iter=2)
        assert peak < self.bound(points), peak

    def test_predict_matrix(self):
        points = self.points()
        rng = np.random.default_rng(1)
        model = replace(routing_model(rng.random((self.k, self.d))),
                        per_cluster=tuple(LinearModel(rng.normal(size=self.d + 1))
                                          for _ in range(self.k)))
        peak = self.peak(predict_matrix, model, points)
        assert peak < self.bound(points), peak


class TestLinearModel:
    def test_recovers_planted_plane(self):
        rng = np.random.default_rng(9)
        X = rng.uniform(-2, 2, size=(60, 3))
        y = 1.5 - 2.0 * X[:, 0] + 0.25 * X[:, 1] + 4.0 * X[:, 2]
        lm = fit_linear_model(X, y)
        assert not lm.degenerate
        assert np.allclose(lm.coeffs, [1.5, -2.0, 0.25, 4.0], atol=1e-8)
        assert np.allclose(lm.predict(X), y, atol=1e-8)

    def test_constant_column_gets_zero_slope(self):
        rng = np.random.default_rng(10)
        X = np.column_stack([rng.uniform(size=40), np.full(40, 3.0)])
        y = 2.0 * X[:, 0] + 7.0
        lm = fit_linear_model(X, y)
        assert lm.degenerate
        assert lm.coeffs[2] == 0.0
        assert np.allclose(lm.predict(X), y, atol=1e-6)

    def test_residual_orthogonality(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(80, 4))
        y = rng.normal(size=80)
        lm = fit_linear_model(X, y)
        design = np.hstack([np.ones((80, 1)), X])
        resid = y - lm.predict(X)
        assert np.abs(design.T @ resid).max() <= 1e-6 * np.linalg.norm(y)

    def test_underdetermined_falls_back_to_mean(self):
        X = np.array([[1.0, 2.0], [3.0, 4.0]])  # 2 rows, needs 3 for 2 features
        y = np.array([10.0, 20.0])
        lm = fit_linear_model(X, y)
        assert lm.degenerate
        assert lm.coeffs[0] == pytest.approx(15.0)
        assert np.all(lm.coeffs[1:] == 0.0)

    def test_row_mismatch(self):
        with pytest.raises(ValueError):
            fit_linear_model(np.ones((3, 2)), np.ones(4))


def toy_dataset(seed: int = 0, n: int = 120) -> Dataset:
    rng = np.random.default_rng(seed)
    X = np.column_stack([
        rng.uniform(0, 10, size=n),
        rng.uniform(100, 200, size=n),
        rng.uniform(-1, 1, size=n),
    ])
    y = 0.5 + 3.0 * X[:, 0] - 0.01 * X[:, 1] + 2.0 * X[:, 2]
    return Dataset(feature_names=("TaskSize", "Speed", "CpuFreq"), X=X, y=y)


def two_regime_dataset(seed: int = 0) -> Dataset:
    """Two well-separated groups, each with its own affine law."""
    rng = np.random.default_rng(seed)
    xa = rng.uniform(0, 1, size=(80, 1))
    xb = rng.uniform(9, 10, size=(80, 1))
    ya = 1.0 + 2.0 * xa[:, 0]
    yb = 50.0 - 3.0 * xb[:, 0]
    return Dataset(feature_names=("TaskSize",),
                   X=np.vstack([xa, xb]), y=np.concatenate([ya, yb]))


class TestTrainClusteredModels:
    def test_k1_equals_global_fit(self):
        ds = toy_dataset()
        model = train_clustered_models(ds, num_clusters=1, seed=0)
        scaling = fit_min_max(ds.X)
        direct = fit_linear_model(apply_min_max(ds.X, scaling), ds.y)
        assert np.array_equal(model.per_cluster[0].coeffs, direct.coeffs)

    def test_recovers_two_planted_regimes(self):
        ds = two_regime_dataset()
        model = train_clustered_models(ds, num_clusters=2, seed=0)
        pred = predict_matrix(model, ds.select(model.feature_subset))
        assert np.allclose(pred, ds.y, atol=1e-6)

    def test_thin_cluster_degrades_to_mean(self):
        X = np.concatenate([np.linspace(0, 1, 10), [100.0, 101.0]]).reshape(-1, 1)
        y = np.concatenate([np.linspace(5, 6, 10), [42.0, 44.0]])
        ds = Dataset(feature_names=("TaskSize",), X=X, y=y)
        model = train_clustered_models(ds, num_clusters=2, seed=0)
        far = nearest_by_loop(model.kmeans.centroids,
                              apply_min_max(np.array([[100.5]]), model.scaling)[0])
        lm = model.per_cluster[far]
        assert lm.degenerate
        assert lm.coeffs[0] == pytest.approx(43.0)
        assert np.all(lm.coeffs[1:] == 0.0)

    def test_empty_cluster_gets_an_all_zero_degenerate_model(self):
        # two distinct points, three copies each: k = 3 leaves one cluster empty
        X = np.array([[0.0, 1.0], [1.0, 0.0]]).repeat(3, axis=0)
        ds = Dataset(feature_names=("TaskSize", "Speed"), X=X, y=np.array([2.0, 5.0]).repeat(3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no mean of an empty slice
            model = train_clustered_models(ds, num_clusters=3, seed=0)
        counts = np.bincount(model.kmeans.labels, minlength=3)
        assert sorted(counts.tolist()) == [0, 3, 3]
        for c, lm in enumerate(model.per_cluster):
            assert lm.degenerate
            if counts[c]:
                assert lm.coeffs.tolist() == [ds.y[model.kmeans.labels == c][0], 0.0, 0.0]
            else:
                assert lm.coeffs.tobytes() == np.zeros(3).tobytes()

    def test_feature_subset_restricts_inputs(self):
        ds = toy_dataset()
        model = train_clustered_models(ds, 2, feature_subset=("TaskSize",), seed=0)
        assert model.feature_subset == ("TaskSize",)
        assert model.kmeans.centroids.shape[1] == 1
        assert len(model.per_cluster[0].coeffs) == 2

    def test_validation(self):
        ds = toy_dataset(n=5)
        with pytest.raises(ValueError):
            train_clustered_models(ds, 0)
        with pytest.raises(ValueError):
            train_clustered_models(ds, 6)
        with pytest.raises(ValueError):
            train_clustered_models(ds, 2, feature_subset=())


class TestPredict:
    def test_matrix_matches_scalar_loop(self):
        ds = toy_dataset(seed=3)
        model = train_clustered_models(ds, 3, seed=2)
        batch = predict_matrix(model, ds.select(model.feature_subset))
        scaled = apply_min_max(ds.X, model.scaling)
        singles = []
        for row in scaled:
            lm = model.per_cluster[nearest_by_loop(model.kmeans.centroids, row)]
            singles.append(lm.coeffs[0] + sum(c * x for c, x in zip(lm.coeffs[1:], row)))
        assert np.allclose(batch, singles, rtol=1e-12, atol=0)

    def test_matrix_column_mismatch(self):
        ds = toy_dataset()
        model = train_clustered_models(ds, 2, seed=0)
        with pytest.raises(ValueError):
            predict_matrix(model, np.ones((4, 2)))

    @pytest.mark.parametrize("slope, value", [(1.0, "inf"), (0.0, "nan")])
    def test_a_prediction_that_is_not_finite_names_its_row(self, slope, value):
        # a feature span of 0.5 scales 1e308 past the float range; a zero
        # slope times that inf is NaN
        model = ClusteredModel(
            kmeans=KMeansModel(k=1, centroids=np.zeros((1, 2)), inertia=0.0, seed=0,
                               iterations_run=0),
            per_cluster=(LinearModel(coeffs=np.array([1.0, slope, 2.0])),),
            scaling=ScalingParams(mins=np.zeros(2), maxs=np.full(2, 0.5)),
            feature_subset=("f0", "f1"))
        rows = np.array([[0.1, 0.2], [1e308, 0.0], [-1e308, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"prediction for row 1 is {value}"):
                predict_matrix(model, rows)
            assert predict_matrix(model, rows[:1]).tolist() == [1.0 + slope * 0.2 + 2.0 * 0.4]


class TestEvaluateModels:
    def test_perfect_linear_data_scores_near_zero(self):
        train = toy_dataset(seed=4)
        test = toy_dataset(seed=5, n=40)
        report = evaluate_models(train, test, k_max=3, seed=0)
        assert [k for k, _, _ in report.rows] == [1, 2, 3]
        for _, mae, mse in report.rows:
            assert mae < 1e-6
            assert mse < 1e-10

    def test_planted_regimes_prefer_matching_k(self):
        train = two_regime_dataset(seed=6)
        test = two_regime_dataset(seed=7)
        report = evaluate_models(train, test, k_max=2, seed=0)
        mae = {k: m for k, m, _ in report.rows}
        assert mae[2] < 0.5 * mae[1]
        assert report.best_k()[0] == 2

    def test_deterministic(self):
        train = toy_dataset(seed=8)
        test = toy_dataset(seed=9, n=30)
        a = evaluate_models(train, test, k_max=4, seed=3)
        b = evaluate_models(train, test, k_max=4, seed=3)
        assert a.rows == b.rows

    def test_report_csv(self, tmp_path):
        report = EvalReport(rows=((1, 0.5, 0.25), (2, 0.25, 0.125)))
        path = tmp_path / "eval.csv"
        report.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "k,mae_j,mse_j2"
        assert lines[1].startswith("1,")
        assert len(lines) == 3

    def test_feature_mismatch_rejected(self):
        train = toy_dataset()
        bad = Dataset(feature_names=("A", "B", "C"), X=train.X, y=train.y)
        with pytest.raises(ValueError):
            evaluate_models(train, bad, k_max=2)

    def test_k_max_above_the_training_rows_fits_nothing(self, monkeypatch):
        fits = []
        fit = cluster.kmeans_fit
        monkeypatch.setattr(cluster, "kmeans_fit",
                            lambda *args, **kwargs: fits.append(args) or fit(*args, **kwargs))
        train = toy_dataset(seed=4, n=30)
        with pytest.raises(ValueError, match=r"^k_max=31 exceeds the 30 training rows$"):
            evaluate_models(train, toy_dataset(seed=5), k_max=31)
        assert fits == []
        assert [k for k, _, _ in evaluate_models(train, train, k_max=30).rows] == \
            list(range(1, 31))
        assert len(fits) == 30

    def test_an_overflowing_metric_names_k(self):
        # errors near 1e300: the MAE is finite, the MSE is not
        train = toy_dataset(seed=4)
        test = Dataset(train.feature_names, train.X, np.full(len(train), 1e300))
        with pytest.raises(ValueError, match=r"^the test MSE at k=1 is inf$"):
            evaluate_models(train, test, k_max=2)


class TestModelSerialization:
    def test_round_trip_preserves_predictions(self, tmp_path):
        ds = toy_dataset(seed=12)
        model = train_clustered_models(ds, 3, seed=4)
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.feature_subset == model.feature_subset
        orig = predict_matrix(model, ds.select(model.feature_subset))
        back = predict_matrix(loaded, ds.select(loaded.feature_subset))
        assert np.array_equal(orig, back)

    def test_saved_bytes_are_deterministic(self, tmp_path):
        ds = toy_dataset(seed=13)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_model(train_clustered_models(ds, 2, seed=5), p1)
        save_model(train_clustered_models(ds, 2, seed=5), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"format": "something-else", "version": 1}))
        with pytest.raises(ValueError):
            load_model(path)

    def test_rejects_future_version(self, tmp_path):
        ds = toy_dataset(seed=14)
        path = tmp_path / "model.json"
        save_model(train_clustered_models(ds, 1, seed=0), path)
        payload = json.loads(path.read_text())
        payload["version"] = 99
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError):
            load_model(path)


DELETE = object()


def _damage(payload, edit):
    """Apply one edit, given as (path of keys, new value or DELETE)."""
    keys, value = edit
    target = payload
    for key in keys[:-1]:
        target = target[key]
    if value is DELETE:
        del target[keys[-1]]
    else:
        target[keys[-1]] = value


class TestModelFileValidation:
    """A damaged model.json is a ValueError naming the file, never garbage."""

    @pytest.fixture()
    def saved(self, tmp_path):
        ds = toy_dataset(seed=15)
        path = tmp_path / "model.json"
        save_model(train_clustered_models(ds, 3, ("TaskSize", "Speed"), seed=1), path)
        return path, ds

    @pytest.mark.parametrize("edit", [
        (("clusters",), "TRUNCATE"),
        (("clusters",), []),
        (("kmeans", "k"), 4),
        (("kmeans", "k"), "3"),
        (("kmeans", "k"), True),
        (("kmeans", "centroids"), [[0.5]] * 3),
        (("kmeans", "centroids"), [[0.5, 0.5]] * 2),
        (("kmeans", "centroids"), [[0.5, "x"]] * 3),
        (("kmeans", "centroids"), [[0.5, None]] * 3),
        (("scaling", "mins"), [0.0]),
        (("scaling", "maxs"), [1.0, 1.0, 1.0]),
        (("feature_subset",), ["TaskSize"]),
        (("feature_subset",), "ab"),
        (("feature_subset",), [1, 2]),
        (("clusters", 0, "coeffs"), [0.0, 1.0]),
        (("clusters", 0, "degenerate"), "no"),
        (("clusters", 0), [1.0, 2.0, 3.0]),
        (("scaling",), DELETE),
        (("scaling", "mins"), DELETE),
        (("kmeans",), DELETE),
        (("kmeans", "centroids"), DELETE),
        (("kmeans", "inertia"), "big"),
        (("clusters",), DELETE),
        (("clusters", 1, "coeffs"), DELETE),
        (("feature_subset",), DELETE),
        (("kmeans",), [1, 2, 3]),
        (("feature_subset",), ["TaskSize", "TaskSize"]),
        (("kmeans", "inertia"), math.nan),
        (("kmeans", "inertia"), math.inf),
        (("kmeans", "inertia"), -1.0),
        (("kmeans", "inertia"), 10**400),
        (("kmeans", "centroids"), [[10**400, 0.5]] * 3),
        (("kmeans", "iterations_run"), 0),
        (("kmeans", "iterations_run"), -5),
        (("kmeans", "seed"), -1),
    ])
    def test_rejects_damaged_file(self, saved, edit):
        path, _ = saved
        payload = json.loads(path.read_text())
        if edit[1] == "TRUNCATE":
            payload["clusters"] = payload["clusters"][:2]
        else:
            _damage(payload, edit)
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="model.json"):
            load_model(path)

    @pytest.mark.parametrize("text", ["", "{", "[1, 2]", "null"])
    def test_rejects_non_model_json(self, tmp_path, text):
        path = tmp_path / "model.json"
        path.write_text(text)
        with pytest.raises(ValueError, match="model.json"):
            load_model(path)

    def test_rejects_a_key_given_twice(self, saved):
        path, _ = saved
        # a first feature_subset, which the file's own then repeats
        text = path.read_text().replace('"version": 1,', '"version": 1, "feature_subset": [],', 1)
        path.write_text(text)
        with pytest.raises(ValueError, match=r"model.json: key 'feature_subset' is given twice"):
            load_model(path)

    def test_intact_file_still_loads(self, saved):
        path, ds = saved
        model = load_model(path)
        assert model.kmeans.k == len(model.per_cluster) == 3
        assert np.isfinite(predict_matrix(model, ds.select(model.feature_subset))).all()

    def test_inconsistent_model_cannot_be_built(self, saved):
        # predict_matrix fills one row block per plane, so a plane per
        # centroid is what guarantees every row gets a prediction
        model = load_model(saved[0])
        with pytest.raises(ValueError, match="3 centroids"):
            replace(model, per_cluster=model.per_cluster[:2])
