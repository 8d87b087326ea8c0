"""The bound-pruned Lloyd assignment and its one fold order.

`kmeans_fit` keeps a row's label without computing its distances when
Hamerly bounds prove the label cannot change.  The cases here put that
proof where it is tightest (exact ties, overflow, identical points, a
repair that moves a centroid mid-run) and check every result bit for bit
against the frozen k-means of `reference_kmeans`, which assigns every row
every step.  They also pin the fold: features are added left to right
whatever the memory layout of the points.
"""

import filecmp
import logging
import math
from contextlib import ExitStack
from unittest import mock

import numpy as np
import pytest

import reference_kmeans
from offloadlab import cluster
from offloadlab.cli import main
from offloadlab.features import ScalingParams
from test_kmeans_reference import assert_identical, colliding_seeds


def fit_both(points, k, seed=0, restarts=1, max_iter=300, seeding=None, tol=1e-6):
    """The library's fit and the frozen one's on a Fortran-ordered copy."""
    with ExitStack() as stack:
        if seeding is not None:
            for module in (cluster, reference_kmeans):
                stack.enter_context(mock.patch.object(module, "_seed_centroids", seeding))
        got = cluster.kmeans_fit(points, k, seed=seed, tol=tol, restarts=restarts,
                                 max_iter=max_iter)
        want = reference_kmeans.kmeans_fit(np.asfortranarray(points), k, seed=seed, tol=tol,
                                           restarts=restarts, max_iter=max_iter)
    return got, want


def assert_fits_at_scale(points, k, seed=0, restarts=1, seeding=None):
    """kmeans_fit of `points` is the frozen fit of points * 2**-e, with the
    exponent e of `_scale_exponent` and `tol` scaled alike, scaled back."""
    e = cluster._scale_exponent(points)
    assert e > 0
    with mock.patch.object(cluster, "_seed_centroids", seeding or cluster._seed_centroids):
        got = cluster.kmeans_fit(points, k, seed=seed, restarts=restarts)
    _, want = fit_both(np.ldexp(points, -e), k, seed=seed, restarts=restarts,
                       seeding=seeding, tol=math.ldexp(1e-6, -e))
    assert got.labels.tobytes() == want.labels.tobytes()
    assert got.centroids.tobytes() == np.ldexp(want.centroids, e).tobytes()
    with np.errstate(over="ignore"):  # an inertia past the float range is inf
        assert got.inertia_history == tuple(np.ldexp(want.inertia_history, 2 * e).tolist())
    return got


def permuted_pair(d, seed):
    """The origin and two points whose squared coordinates are permutations
    of each other: equidistant from the origin in exact arithmetic, so the
    order in which the squares are added decides which one is nearer."""
    rng = np.random.default_rng(seed)
    v = rng.random(d)
    return np.vstack([np.zeros(d), v, rng.permutation(v)])


class TestFoldOrder:
    @pytest.mark.parametrize("d", range(0, 17))
    def test_squared_distances_add_features_left_to_right(self, d):
        rng = np.random.default_rng(d)
        cols = rng.normal(size=(d, 50)) * 10.0 ** rng.integers(-6, 7, size=(d, 1))
        centroids = rng.normal(size=(4, d))
        loop = np.zeros((4, 50))
        for f in range(d):
            loop = loop + (centroids[:, f, None] - cols[f]) ** 2
        assert cluster._sq_dists(cols, centroids).tobytes() == loop.tobytes()
        assert cluster._sq_dists(np.asfortranarray(cols), centroids).tobytes() == loop.tobytes()

    @pytest.mark.parametrize("d", range(8, 13))
    def test_layouts_fit_alike(self, d):
        for seed in range(80):
            points = permuted_pair(d, seed)
            fitted = cluster.kmeans_fit(points, 2, seed=seed)
            assert_identical(cluster.kmeans_fit(np.asfortranarray(points), 2, seed=seed),
                             fitted)
            assert_identical(fitted, fit_both(points, 2, seed=seed)[1])
        rng = np.random.default_rng(d)
        points = rng.normal(size=(60, d)) * 10.0 ** rng.integers(-4, 5, size=d)
        assert_identical(cluster.kmeans_fit(points, 4, seed=d, restarts=3),
                         cluster.kmeans_fit(np.asfortranarray(points), 4, seed=d, restarts=3))

    @pytest.mark.parametrize("d", range(8, 13))
    def test_layouts_predict_alike(self, d):
        names = tuple(f"f{i}" for i in range(d))
        planes = (cluster.LinearModel(np.zeros(d + 1)),
                  cluster.LinearModel(np.r_[1.0, np.zeros(d)]))
        for seed in range(80):
            _, a, b = permuted_pair(d, seed)
            km = cluster.KMeansModel(k=2, centroids=np.vstack([a, b]), inertia=0.0,
                                     seed=0, iterations_run=1)
            model = cluster.ClusteredModel(km, planes, ScalingParams(np.zeros(d), np.ones(d)),
                                           names)
            rows = np.zeros((2, d))
            want = cluster.predict_matrix(model, rows)
            assert np.array_equal(cluster.predict_matrix(model, np.asfortranarray(rows)), want)
            # the plane of the centroid a full left-to-right assignment picks
            d2 = cluster._sq_dists(rows.T, km.centroids)
            assert np.array_equal(want, d2.argmin(axis=0).astype(float))


def fixed_seeds(*rows):
    """A `_seed_centroids` stand-in that always starts from `rows`."""
    def seeding(points, k, rng):
        return np.array(rows[:k], dtype=float)
    return seeding


class TestPruningIsSound:
    def test_equidistant_ties(self):
        # integer lattice points: distances are exact, so ties are exact
        grid = np.array([(x, y) for x in range(5) for y in range(5)], dtype=float)
        for k in range(2, 7):
            for seed in range(6):
                assert_identical(*fit_both(grid, k, seed=seed, restarts=2))
        # the middle column is equidistant from both seeds on every step
        points = np.array([[0, 0], [0, 1], [1, 0], [1, 1], [2, 0], [2, 1]], dtype=float)
        got, want = fit_both(points, 2, seeding=fixed_seeds([0.0, 0.5], [2.0, 0.5]))
        assert_identical(got, want)
        assert got.labels.tolist() == [0, 0, 0, 0, 1, 1]

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("layout", ["spread", "two_far_groups"])
    def test_squared_distances_overflow(self, layout):
        rng = np.random.default_rng(7)
        if layout == "spread":
            points = rng.random((40, 3)) * 1e200
        else:
            # a point's own distance is finite while the runner-up's overflows
            points = np.vstack([rng.integers(0, 3, size=(20, 2)) * 1.0,
                                1e200 + rng.integers(0, 3, size=(20, 2)) * 1e185])
        assert not np.isfinite(cluster._sq_dists(points.T, points[:1])).all()
        for k in (1, 2, 3, 5):
            assert_fits_at_scale(points, k, seed=k, restarts=2, seeding=colliding_seeds)

    def test_overflowed_runner_up_closes_in(self):
        # unscaled, the origin's runner-up would start 1.4e154 away, where
        # the squared distance overflows, then move 9.1e153 to pass its own
        # centroid; kmeans_fit meets it at scale
        e = 1e153
        points = np.array([[-5 * e, 0.0]] * 100 + [[0.0, 0.0], [14 * e, 0.0]]
                          + [[4.6 * e, 0.0]] * 30)
        got = assert_fits_at_scale(points, 2, seeding=lambda pts, k, rng: pts[[0, 101]])
        assert got.labels[100] == 1

    @pytest.mark.parametrize("k", [1, 2])
    def test_identical_points_near_the_float_max(self, k):
        # a centroid's rounding puts it about 1e284 off the points, a
        # squared distance past the float range, though the spread is 0
        assert_fits_at_scale(np.full((7, 2), 1e300), k, seed=k)

    @pytest.mark.parametrize("d", [0, 2, 3, 9])
    def test_all_points_equal(self, d):
        for value in (0.0, 0.1, -3e150):
            points = np.full((12, d), value)
            for k in (1, 3, 12):
                got, want = fit_both(points, k, seed=k, restarts=2)
                assert_identical(got, want)

    @pytest.mark.parametrize("k, max_iter", [(1, 300), (1, 1), (4, 1), (4, 2)])
    def test_one_cluster_or_few_steps(self, k, max_iter):
        points = np.random.default_rng(k + max_iter).normal(size=(50, 3))
        got, want = fit_both(points, k, seed=3, restarts=2, max_iter=max_iter)
        assert_identical(got, want)
        assert got.iterations_run <= max_iter

    @pytest.mark.parametrize("case", [254, 1888, 2857])
    def test_repair_mid_run(self, monkeypatch, case):
        repairs = []
        repair = cluster._repair_empty

        def counting(*args):
            repairs.append(repair(*args))
            return repairs[-1]

        monkeypatch.setattr(cluster, "_repair_empty", counting)
        rng = np.random.default_rng(case)
        n, d, k = (int(rng.integers(lo, hi)) for lo, hi in ((8, 40), (2, 4), (2, 6)))
        points = rng.random((n, d))
        assert_identical(*fit_both(points, k, seed=case, seeding=colliding_seeds))
        # a repair after the first step, when the bounds are in use
        assert any(repairs[1:])


def test_debug_line_counts_recomputed_rows(caplog):
    rng = np.random.default_rng(11)
    centres = rng.random((5, 3))
    points = centres[rng.integers(0, 5, 1500)] + rng.normal(scale=0.08, size=(1500, 3))
    with caplog.at_level(logging.DEBUG, logger="offloadlab.cluster"):
        model = cluster.kmeans_fit(points, 5, seed=2, restarts=4)
    [record] = [r for r in caplog.records if r.name == "offloadlab.cluster"]
    n, k, per_restart, kept, repairs, recomputed, rows = record.args
    assert (n, k, len(per_restart), repairs) == (1500, 5, 4, 0)
    assert per_restart[kept] == model.iterations_run
    assert rows == n * sum(per_restart)
    assert recomputed < rows / 2


def test_debug_lines_stay_out_of_the_output(tmp_path, monkeypatch, capsys):
    assert main(["gen-data", "--seed", "5", "--datagen.n_scenarios", "3",
                 "--scenario.n_devices", "2", "--scenario.tasks_per_device", "8",
                 "--out", str(tmp_path / "data")]) == 0
    data = str(tmp_path / "data" / "dataset.csv")
    capsys.readouterr()
    for level in ("DEBUG", "WARNING"):  # the last run leaves logging at its default
        monkeypatch.setenv("OFFLOADLAB_LOG", level)
        assert main(["train", "--dataset_path", data, "--out", str(tmp_path / level)]) == 0
        assert main(["evaluate", "--dataset_path", data, "--clustering.k_max", "3",
                     "--out", str(tmp_path / level)]) == 0
        err = capsys.readouterr().err
        assert ("DEBUG offloadlab.cluster: kmeans_fit n=" in err) == (level == "DEBUG")
    names = sorted(p.name for p in (tmp_path / "DEBUG").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "WARNING").iterdir())
    match, mismatch, errors = filecmp.cmpfiles(tmp_path / "DEBUG", tmp_path / "WARNING",
                                               names, shallow=False)
    assert mismatch == [] and errors == []
