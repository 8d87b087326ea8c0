import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from offloadlab.datagen import build_dataset
from offloadlab.features import (CANONICAL_FEATURES, PRIMARY_FEATURES, Dataset,
                                 apply_min_max, check_subsets, fit_min_max,
                                 mutual_information, rank_features, read_csv_matrix,
                                 resolve_subset, split_dataset, subset_entry,
                                 subset_label)

from helpers import balanced_spec


class TestMinMax:
    def test_known_values(self):
        X = np.array([[0.0, 10.0], [5.0, 20.0], [10.0, 30.0]])
        params = fit_min_max(X)
        scaled = apply_min_max(X, params)
        assert np.allclose(scaled, [[0, 0], [0.5, 0.5], [1, 1]], atol=1e-15)

    def test_degenerate_column_maps_to_half(self):
        X = np.array([[3.0, 1.0], [3.0, 2.0]])
        params = fit_min_max(X)
        scaled = apply_min_max(X, params)
        assert np.all(scaled[:, 0] == 0.5)
        assert params.degenerate.tolist() == [True, False]

    def test_no_clipping_outside_training_range(self):
        params = fit_min_max(np.array([[0.0], [10.0]]))
        out = apply_min_max(np.array([[15.0], [-5.0]]), params)
        assert out[0, 0] == pytest.approx(1.5)
        assert out[1, 0] == pytest.approx(-0.5)

    def test_training_data_lands_in_unit_box(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(50, 4)) * 100.0
        scaled = apply_min_max(X, fit_min_max(X))
        assert scaled.min() >= 0.0 and scaled.max() <= 1.0

    def test_column_count_mismatch(self):
        params = fit_min_max(np.array([[0.0, 1.0], [1.0, 2.0]]))
        with pytest.raises(ValueError):
            apply_min_max(np.array([[1.0]]), params)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            fit_min_max(np.empty((0, 3)))

    def test_span_past_the_float_range_is_named(self):
        X = np.array([[0.0, -1.7e308], [1.0, 1.7e308]])
        with pytest.raises(ValueError, match="^column 1 spans more than the float range$"):
            fit_min_max(X)
        with pytest.raises(ValueError, match="^Speed spans"):
            fit_min_max(X, ("TaskSize", "Speed"))

    @settings(max_examples=50, deadline=None)
    @given(arrays(float, (10, 2), elements=st.floats(-1e6, 1e6)))
    def test_order_preserved_per_column(self, X):
        params = fit_min_max(X)
        scaled = apply_min_max(X, params)
        for col in range(X.shape[1]):
            order = np.argsort(X[:, col], kind="stable")
            assert not np.any(np.diff(scaled[order, col]) < 0)


class TestMutualInformation:
    def test_self_information_of_uniform(self):
        rng = np.random.default_rng(11)
        x = rng.uniform(size=10_000)
        mi = mutual_information(x, x, bins=16)
        assert abs(mi - 4.0) <= 0.4  # log2(16), within 10%

    def test_independent_uniforms_score_near_zero(self):
        rng = np.random.default_rng(12)
        mi = mutual_information(rng.uniform(size=10_000), rng.uniform(size=10_000))
        assert mi < 0.05

    def test_deterministic_relation_scores_high(self):
        rng = np.random.default_rng(13)
        x = rng.uniform(size=10_000)
        assert mutual_information(x, 2.0 * x + 1.0) > 3.5

    def test_constant_input_scores_zero(self):
        x = np.full(200, 7.0)
        y = np.linspace(0, 1, 200)
        assert mutual_information(x, y) == 0.0
        assert mutual_information(y, x) == 0.0

    def test_symmetry(self):
        rng = np.random.default_rng(14)
        x = rng.normal(size=2_000)
        y = 0.5 * x + rng.normal(size=2_000)
        assert abs(mutual_information(x, y) - mutual_information(y, x)) < 1e-12

    def test_nonnegative(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            a = rng.normal(size=100)
            b = rng.normal(size=100)
            assert mutual_information(a, b, bins=4) >= 0.0

    def test_needs_enough_samples(self):
        with pytest.raises(ValueError):
            mutual_information(np.arange(31.0), np.arange(31.0), bins=16)

    def test_needs_two_bins(self):
        with pytest.raises(ValueError):
            mutual_information(np.arange(40.0), np.arange(40.0), bins=1)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            mutual_information(np.arange(40.0), np.arange(41.0))

    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_span_past_the_float_range(self, axis):
        wide, narrow = np.tile([-1.7e308, 1.7e308], 20), np.arange(40.0)
        x, y = (wide, narrow) if axis == "x" else (narrow, wide)
        with pytest.raises(ValueError, match=f"^{axis} spans more than the float range$"):
            mutual_information(x, y)


class TestRankFeatures:
    def test_planted_dominant_feature_wins(self):
        rng = np.random.default_rng(21)
        n = 2_000
        X = rng.uniform(size=(n, 4))
        y = 5.0 * X[:, 0] + 0.05 * rng.uniform(size=n)
        ds = Dataset(feature_names=CANONICAL_FEATURES[:4], X=X, y=y)
        ranking = rank_features(ds)
        assert ranking[0][0] == "TaskSize"
        assert ranking[0][1] > ranking[-1][1]

    def test_all_constant_falls_back_to_canonical_order(self):
        # column order deliberately scrambled; ties resolve canonically
        names = ("Speed", "TaskSize", "CarrierFrequency", "OffloadingRatio")
        X = np.ones((64, 4))
        y = np.ones(64)
        ranking = rank_features(Dataset(feature_names=names, X=X, y=y))
        assert [name for name, _ in ranking] == [
            "TaskSize", "OffloadingRatio", "Speed", "CarrierFrequency"]
        assert all(mi == 0.0 for _, mi in ranking)

    def test_a_wide_target_is_named(self):
        y = np.tile([-1.7e308, 1.7e308], 32)
        ds = Dataset(feature_names=("TaskSize",), X=np.ones((64, 1)), y=y)
        with pytest.raises(ValueError, match="^energy_j spans more than the float range$"):
            rank_features(ds)

    def test_balanced_fixture_ranking(self):
        # energy scales with task size, so TaskSize must dominate; columns
        # pinned by the sampling spec carry nothing at all
        ds = build_dataset([balanced_spec(100 + i) for i in range(12)])
        ranking = rank_features(ds)
        mi = dict(ranking)
        assert ranking[0][0] == "TaskSize"
        assert mi["TaskSize"] > 3.0 * max(mi["Speed"], mi["CarrierFrequency"])
        assert mi["CpuFreq"] == 0.0
        assert mi["Bandwidth"] == 0.0


class TestDataset:
    def make(self):
        X = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        return Dataset(feature_names=("TaskSize", "Speed"), X=X, y=np.array([1.0, 2.0, 3.0]))

    def test_column_and_select(self):
        ds = self.make()
        assert np.array_equal(ds.column("Speed"), [2.0, 4.0, 6.0])
        assert np.array_equal(ds.select(["Speed", "TaskSize"]),
                              [[2.0, 1.0], [4.0, 3.0], [6.0, 5.0]])
        with pytest.raises(ValueError):
            ds.column("Nope")

    def test_select_names_every_missing_feature(self):
        with pytest.raises(ValueError, match=r"lacks features \['Nope', 'Gone'\]"):
            self.make().select(["Speed", "Nope", "TaskSize", "Gone"])

    def test_validation(self):
        with pytest.raises(ValueError):
            Dataset(feature_names=("a",), X=np.ones((2, 2)), y=np.ones(2))
        with pytest.raises(ValueError):
            Dataset(feature_names=("a", "b"), X=np.ones((2, 2)), y=np.ones(3))
        with pytest.raises(ValueError):
            Dataset(feature_names=("a", "a"), X=np.ones((2, 2)), y=np.ones(2))
        with pytest.raises(ValueError):
            Dataset(feature_names=("a", "b"),
                    X=np.array([[1.0, np.nan], [0.0, 1.0]]), y=np.ones(2))

    def test_csv_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(31)
        ds = Dataset(feature_names=("TaskSize", "Speed"),
                     X=rng.uniform(1e-7, 1e7, size=(20, 2)),
                     y=rng.uniform(1e-12, 1.0, size=20))
        path = tmp_path / "ds.csv"
        ds.to_csv(path)
        back = Dataset.from_csv(path)
        assert back.feature_names == ds.feature_names
        assert np.array_equal(back.X, ds.X)
        assert np.array_equal(back.y, ds.y)

    def test_from_csv_requires_target(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("TaskSize,Speed\n1.0,2.0\n")
        with pytest.raises(ValueError):
            Dataset.from_csv(path)

    def test_from_csv_rejects_empty(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError):
            Dataset.from_csv(path)


def read_rows_matrix(path):
    """The list-of-rows reading of a well-formed numeric CSV file: the
    header and one list of floats per non-blank line, stacked by numpy."""
    with open(path, newline="") as fh:
        lines = [line for line in csv.reader(fh) if line]
    return tuple(lines[0]), np.asarray([[float(v) for v in line] for line in lines[1:]],
                                       dtype=float)


def assert_same_matrix(got, want):
    (names, data), (want_names, want_data) = got, want
    assert names == want_names
    assert data.dtype == want_data.dtype and data.shape == want_data.shape
    assert data.tobytes() == want_data.tobytes()
    assert data.flags.c_contiguous and data.flags.writeable


class TestReadCsvMatrix:
    def test_gen_data_file_reads_as_rows(self, tmp_path):
        path = tmp_path / "dataset.csv"
        build_dataset([balanced_spec(60 + i) for i in range(3)]).to_csv(path)
        got = read_csv_matrix(path)
        assert got[1].shape == (150, len(CANONICAL_FEATURES) + 1)
        assert_same_matrix(got, read_rows_matrix(path))

    @pytest.mark.parametrize("text", [
        "\n\na,b\n\n1,2\n",
        "a,b\n1,2\n\n\n-0.0,4e-320\n\n",
        "a\r\n\r\n5\r\n6\r\n",
        "a,b,c\n\n1,2,3\n",
    ], ids=["before_header", "between_rows", "one_column_crlf", "after_header"])
    def test_blank_lines_read_as_rows(self, tmp_path, text):
        path = tmp_path / "blank.csv"
        path.write_text(text, newline="")
        assert_same_matrix(read_csv_matrix(path), read_rows_matrix(path))


def _drop(dataset: Dataset, name: str) -> Dataset:
    keep = tuple(n for n in dataset.feature_names if n != name)
    return Dataset(keep, dataset.select(keep), dataset.y)


class TestSubsets:
    @pytest.fixture(scope="class")
    def dataset(self):
        # CyclesPerBit outranks two of the primary four here, so mi:N must
        # skip names outside its pool rather than take the top N overall
        return build_dataset([balanced_spec(40 + i) for i in range(4)])

    @pytest.mark.parametrize("missing", [None, "Speed"], ids=["primary_pool", "all_pool"])
    def test_mi_matches_a_ranking_of_the_pool_alone(self, dataset, missing):
        # the pool's own Dataset and ranking, as mi:N was resolved before
        ds = dataset if missing is None else _drop(dataset, missing)
        pool = PRIMARY_FEATURES if missing is None else ds.feature_names
        pool_ranking = rank_features(Dataset(pool, ds.select(pool), ds.y))
        ranking = rank_features(ds)
        if missing is None:  # a name outside the pool ranks among the pool's
            assert [n for n, _ in ranking[:4]] != [n for n, _ in pool_ranking]
        for count in range(1, 5):
            expected = tuple(name for name, _ in pool_ranking[:count])
            assert resolve_subset(f"mi:{count}", ds, ranking=ranking) == expected
            assert resolve_subset(f"mi:{count}", ds) == expected

    def test_mi_count_above_the_pool_is_an_error(self, dataset):
        with pytest.raises(ValueError, match="mi:5 asks for 5 features, its pool has 4"):
            resolve_subset("mi:5", dataset)
        ds = _drop(dataset, "Speed")
        assert len(resolve_subset("mi:6", ds)) == 6
        with pytest.raises(ValueError, match="its pool has 6"):
            resolve_subset("mi:7", ds)

    def test_keywords(self, dataset):
        assert resolve_subset("all", dataset) == dataset.feature_names
        assert resolve_subset("primary", dataset) == PRIMARY_FEATURES
        assert resolve_subset(("Speed", "TaskSize"), dataset) == ("Speed", "TaskSize")
        assert subset_entry(["mi:3"]) == "mi:3"
        assert subset_entry(["TaskSize"]) == ("TaskSize",)
        assert [subset_label(e) for e in ("mi:3", "all", ("TaskSize", "Speed"))] == [
            "mi3", "all", "TaskSize-Speed"]

    @pytest.mark.parametrize("entries,message", [
        (("primary", "mi:0"), "mi:N"),
        (("nope",), "mi:N"),
        ((("TaskSize", "Speed", "TaskSize"),), "names a feature twice"),
        (("primary", "primary"), "share the label 'primary'"),
        (("mi:2", ("mi2",)), "share the label 'mi2'"),
        ((("a", "b"), ("a-b",)), "share the label 'a-b'"),
        ((("a/b",),), "not a plain file name"),
        (("all", ("TaskSize", "x/y")), "'TaskSize-x/y' is not a plain file name"),
        ((("a\0b",),), "not a plain file name"),
    ])
    def test_check_rejects(self, entries, message):
        with pytest.raises(ValueError, match=message):
            check_subsets(entries)


class TestSplit:
    def test_partition(self):
        rng = np.random.default_rng(41)
        ds = Dataset(feature_names=("a", "b"), X=rng.uniform(size=(40, 2)),
                     y=rng.uniform(size=40))
        train, test = split_dataset(ds, 0.25, seed=5)
        assert len(train) == 30 and len(test) == 10
        merged = np.vstack([train.X, test.X])
        assert np.array_equal(np.sort(merged, axis=0), np.sort(ds.X, axis=0))

    def test_deterministic(self):
        rng = np.random.default_rng(42)
        ds = Dataset(feature_names=("a",), X=rng.uniform(size=(30, 1)),
                     y=rng.uniform(size=30))
        a_train, a_test = split_dataset(ds, 0.2, seed=9)
        b_train, b_test = split_dataset(ds, 0.2, seed=9)
        assert np.array_equal(a_train.X, b_train.X)
        assert np.array_equal(a_test.y, b_test.y)

    def test_bad_fraction(self):
        ds = Dataset(feature_names=("a",), X=np.ones((10, 1)), y=np.ones(10))
        with pytest.raises(ValueError):
            split_dataset(ds, 0.0, seed=0)
        with pytest.raises(ValueError):
            split_dataset(ds, 1.0, seed=0)
