"""Differential checks of the bincount Lloyd update.

`reference_kmeans` is a frozen copy of the k-means that updated each
centroid with its own boolean gather and `.mean`.  For two or more features
the bincount update adds every column in the same row order, so the library
must agree with it bit for bit.  With one feature the old mean was numpy's
pairwise sum over a contiguous block, so there the centroids and inertias
may move in the last places while the labels and iteration counts stay the
same.  The frozen fits keep an inertia per Lloyd update; the library's fit
stopped after t updates must give the t-th.  The frozen code is run on a
Fortran-ordered copy, the layout in which it sums features left to right
as the library always does.  The CLI must write the same bytes with either
k-means, and with the frozen CSV writers of `reference_writers` patched
back in.
"""

import dataclasses
import filecmp
import functools
import json
from contextlib import ExitStack, contextmanager
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_kmeans
import reference_writers
from helpers import balanced_spec
from offloadlab import cli, cluster
from offloadlab.cli import main
from offloadlab.datagen import build_dataset
from offloadlab.features import (CANONICAL_FEATURES, apply_min_max, fit_min_max,
                                 write_rows)

_POOL = [-1.5, -0.0, 0.0, 0.25, 1.0, 3.0, 7.5]


def colliding_seeds(points, k, rng):
    """Seed centroids drawn with replacement, the last equal to the first.

    k-means++ only repeats a point once every point sits on a seed, so
    with it an empty cluster is never repairable.  A repeated seed is: the
    later copy loses every tie and starts empty.
    """
    chosen = rng.integers(len(points), size=k)
    chosen[-1] = chosen[0]
    return points[chosen].copy()


@st.composite
def fits(draw, d_min=1, d_max=12):
    """(points, k, seed, restarts, forced): uniform, duplicate-heavy or
    wide-range data in C or Fortran order; `forced` seeds with a repeat."""
    n = draw(st.integers(1, 60))
    d = draw(st.integers(d_min, d_max))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["uniform", "duplicates", "wide"]))
    if kind == "uniform":
        points = rng.random((n, d))
    elif kind == "duplicates":
        points = rng.choice(_POOL, size=(n, d))
        rows = draw(st.integers(1, n))  # few distinct rows: ties and zero-mass seeding
        points = points[rng.integers(0, rows, n)]
    else:
        points = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-8, 9, size=d)
    if draw(st.booleans()):
        points = np.asfortranarray(points)
    k = draw(st.integers(1, min(n, 8)))
    return (points, k, draw(st.integers(0, 1000)), draw(st.integers(1, 3)),
            draw(st.booleans()))


@contextmanager
def seeding(forced):
    """Both k-means seed with `colliding_seeds` when forced."""
    with ExitStack() as stack:
        if forced:
            for module in (cluster, reference_kmeans):
                stack.enter_context(mock.patch.object(module, "_seed_centroids",
                                                      colliding_seeds))
        yield


def both(points, k, seed, restarts, forced=False):
    with seeding(forced):
        got = cluster.kmeans_fit(points, k, seed=seed, restarts=restarts)
        # the library adds features left to right in every layout; the frozen
        # code does so for Fortran-ordered points, and pairwise for C-ordered
        # ones with eight or more features
        want = reference_kmeans.kmeans_fit(np.asfortranarray(points), k, seed=seed,
                                           restarts=restarts)
    return got, want


@functools.cache
def balanced_dataset():
    return build_dataset(balanced_spec(), range(700, 730))


def balanced_rows(d: int) -> np.ndarray:
    """1,500 balanced gen-data rows: their first d features, min-max scaled
    and Fortran-ordered, as the CLI hands a subset to k-means."""
    X = balanced_dataset().select(CANONICAL_FEATURES[:d])
    return apply_min_max(X, fit_min_max(X))


def assert_identical(got, want):
    assert got.labels.tobytes() == want.labels.tobytes()
    assert got.centroids.dtype == want.centroids.dtype
    assert got.centroids.tobytes() == want.centroids.tobytes()
    assert got.iterations_run == want.iterations_run
    assert got.inertia == want.inertia


class TestMatchesReference:
    # about half the draws assign stale rows in blocks of a few rows, so
    # block edges fall between tied, repaired and pruned rows
    @settings(max_examples=400, deadline=None)
    @given(fits(d_min=2), st.one_of(st.sampled_from([1, 5, 24, 96, 400]),
                                    st.just(cluster.DIST_CELLS)))
    def test_exact_for_two_or_more_features(self, fit, cells):
        with mock.patch.object(cluster, "DIST_CELLS", cells):
            assert_identical(*both(*fit))

    @settings(max_examples=200, deadline=None)
    @given(fits(d_min=1, d_max=1))
    def test_single_feature_within_rounding(self, fit):
        points = fit[0]
        got, want = both(*fit)
        assert np.array_equal(got.labels, want.labels)
        assert got.iterations_run == want.iterations_run
        # pairwise and sequential sums differ by a few ulps of the largest
        # member, which is large relative to a centroid that cancels to ~0
        scale = float(np.abs(points).max())
        np.testing.assert_allclose(got.centroids, want.centroids,
                                   rtol=1e-12, atol=1e-12 * scale)
        np.testing.assert_allclose(got.inertia, want.inertia,
                                   rtol=1e-12, atol=1e-12 * scale ** 2)

    @settings(max_examples=200, deadline=None)
    @given(fits())
    def test_each_update_gives_the_frozen_inertia(self, fit):
        # the frozen fit's history holds one inertia per update; stopped
        # after t updates, the library's first restart must give the t-th
        points, k, seed, _, forced = fit
        with seeding(forced):
            want = reference_kmeans.kmeans_fit(np.asfortranarray(points), k, seed=seed)
            got = [cluster.kmeans_fit(points, k, seed=seed, max_iter=t)
                   for t in range(1, len(want.inertia_history) + 1)]
        assert [run.iterations_run for run in got] == list(range(1, len(got) + 1))
        steps = [run.inertia for run in got]
        if points.shape[1] > 1:
            assert steps == list(want.inertia_history)
        else:  # within the rounding of test_single_feature_within_rounding
            scale = float(np.abs(points).max())
            np.testing.assert_allclose(steps, want.inertia_history,
                                       rtol=1e-12, atol=1e-12 * scale ** 2)

    def test_forced_seeds_exercise_the_repair(self, monkeypatch):
        repairs = []
        repair = cluster._repair_empty

        def counting(*args):
            repaired = repair(*args)
            repairs.append(repaired)
            return repaired

        monkeypatch.setattr(cluster, "_repair_empty", counting)
        rng = np.random.default_rng(5)
        for trial in range(20):
            points = rng.random((30, 2 + trial % 3))
            if trial % 2:
                points = np.asfortranarray(points)
            assert_identical(*both(points, 2 + trial % 5, trial, 2, forced=True))
        assert sum(repairs) >= 20

    def test_all_points_equal(self):
        assert_identical(*both(np.full((9, 3), 0.1), 4, 0, 3))

    # the hypothesis draws stop at 60 rows; at bench scale the stale blocks
    # of the pruned assignment run to hundreds of rows, and from d k = 49 a
    # first step spans two or more blocks of DIST_CELLS distance cells
    @pytest.mark.parametrize("k", [2, 6, 10, 40])
    @pytest.mark.parametrize("d", [2, 4, 7])
    def test_exact_on_bench_scale_data(self, d, k):
        points = balanced_rows(d)
        assert points.shape == (1500, d)
        assert (len(cluster._blocks(1500, np.zeros((k, d)))) >= 2) == (d * k >= 49)
        assert points.flags.f_contiguous and not points.flags.c_contiguous
        assert_identical(*both(points, k, seed=k, restarts=10))

    def test_max_iter_must_be_positive(self):
        with pytest.raises(ValueError, match="max_iter"):
            cluster.kmeans_fit(np.zeros((3, 2)), 1, max_iter=0)


class TestOracleImport:
    def test_the_model_keeps_no_stand_in(self):
        # conftest.py sets a plain record on cluster only while the oracle imports
        assert dataclasses.is_dataclass(cluster.KMeansModel)
        fields = {field.name for field in dataclasses.fields(cluster.KMeansModel)}
        assert "inertia_history" not in fields
        assert reference_kmeans.KMeansModel is SimpleNamespace


def write_predictions_with_csv_writer(path, preds, truth):
    """The predictions writer as it was: one `_write_csv` row per prediction."""
    if truth is None:
        reference_writers._write_csv(path, ["row", "energy_pred_j"],
                                     [(i, float(p)) for i, p in enumerate(preds)])
    else:
        reference_writers._write_csv(path, ["row", "energy_pred_j", "energy_true_j"],
                                     [(i, float(p), float(t))
                                      for i, (p, t) in enumerate(zip(preds, truth))])


_AWKWARD = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308,
            -1.7976931348623157e308, 0.1, 1.0 / 3.0, 12345678.9, -7.0]


class TestPredictionsWriter:
    @pytest.mark.parametrize("rows", [1, 10, 1023, 1024, 1025, 2049])
    @pytest.mark.parametrize("with_truth", [True, False])
    def test_same_bytes_as_csv_writer(self, tmp_path, rows, with_truth):
        values = np.concatenate([_AWKWARD, np.random.default_rng(rows).normal(size=rows)])
        preds = values[:rows]
        truth = values[::-1][:rows] if with_truth else None
        # the columns `cmd_predict` hands to `write_rows`
        header = ["row", "energy_pred_j"] + ([] if truth is None else ["energy_true_j"])
        columns = [range(rows), preds] + ([] if truth is None else [truth])
        write_rows(tmp_path / "new.csv", header, columns)
        reference_writers._write_predictions(tmp_path / "chunked.csv", preds, truth)
        write_predictions_with_csv_writer(tmp_path / "old.csv", preds, truth)
        new = (tmp_path / "new.csv").read_bytes()
        assert new == (tmp_path / "chunked.csv").read_bytes()
        assert new == (tmp_path / "old.csv").read_bytes()


_BALANCED = {"scenario": {"n_devices": 5, "tasks_per_device": 10,
                          "cycles_per_bit": [600.0, 1400.0],
                          "cpu_freq_hz": [1e9, 1e9],
                          "carrier_freq_hz": [1e9, 3e9],
                          "noise_var_w": [6.6e-3, 6.6e-3]}}


def learn_files(tmp_path, seed, out):
    """evaluate, train and predict on balanced datasets; the output files."""
    data = tmp_path / f"data{seed}"
    if not data.exists():
        config = tmp_path / "balanced.yaml"
        config.write_text(json.dumps(_BALANCED) + "\n")
        for name, scenarios, offset in (("train", 4, 0), ("predict", 8, 500)):
            assert main(["gen-data", "--config", str(config), "--seed", str(seed + offset),
                         "--datagen.n_scenarios", str(scenarios),
                         "--out", str(data / name)]) == 0
    common = ["--seed", str(seed), "--out", str(out)]
    assert main(["evaluate", "--dataset_path", str(data / "train" / "dataset.csv")]
                + common) == 0
    assert main(["train", "--dataset_path", str(data / "train" / "dataset.csv")]
                + common) == 0
    assert main(["predict", "--dataset_path", str(data / "predict" / "dataset.csv"),
                 "--model_path", str(out / "model.json")] + common) == 0
    return sorted(p.name for p in out.iterdir())


class TestCliMatchesReference:
    @pytest.mark.parametrize("seed", [3, 8])
    def test_learn_outputs_byte_identical(self, tmp_path, monkeypatch, seed):
        names = learn_files(tmp_path, seed, tmp_path / "new")
        assert names == ["eval_all.csv", "eval_mi2.csv", "eval_primary.csv",
                         "mi_ranking.csv", "model.json", "predictions.csv"]
        monkeypatch.setattr(cluster, "kmeans_fit", reference_kmeans.kmeans_fit)
        monkeypatch.setattr(cli, "write_rows", reference_writers.write_rows_with_csv_writer)
        monkeypatch.setattr(cluster.EvalReport, "to_csv", reference_writers.eval_report_to_csv)
        assert learn_files(tmp_path, seed, tmp_path / "old") == names
        match, mismatch, errors = filecmp.cmpfiles(tmp_path / "new", tmp_path / "old",
                                                   names, shallow=False)
        assert mismatch == [] and errors == []
