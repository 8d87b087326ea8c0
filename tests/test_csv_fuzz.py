"""Fuzzing of the file loaders and the commands that read with them.

Whatever bytes a dataset or feature file holds, `read_csv_matrix` and
`Dataset.from_csv` either return finite data or raise one ValueError whose
message starts with the file's path; `train` and `predict` then exit 0 or 1
and never print a traceback.  `load_model` keeps the same promise for
`model.json` files.
"""

import csv
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from offloadlab.cli import main
from offloadlab.cluster import load_model
from offloadlab.features import TARGET_COLUMN, Dataset, read_csv_matrix

_CELLS = st.one_of(
    st.sampled_from(["0", "1.5", "-2e3", "1e999", "nan", "-inf", "", " 7 ", "1_0",
                     "x", '"3"', '"4,5"', '"', "\x00", "0x10", "TaskSize",
                     TARGET_COLUMN, "é"]),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.text(max_size=4),
)
_LINES = st.lists(st.lists(_CELLS, min_size=0, max_size=4).map(",".join),
                  min_size=0, max_size=6)
_ENDS = st.sampled_from(["\n", "\r\n", "\r"])


@st.composite
def csv_bytes(draw):
    """CSV-shaped text with damage, or raw bytes."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.binary(max_size=64))
    text = draw(_ENDS).join(draw(_LINES))
    if draw(st.booleans()):
        text += draw(_ENDS)
    encoding = draw(st.sampled_from(["utf-8", "utf-8", "latin-1"]))
    return text.encode(encoding, errors="replace")


def check_loader(path: Path, load):
    try:
        result = load(path)
    except ValueError as exc:
        message = str(exc)
        assert message.startswith(f"{path}: "), message
        assert "\n" not in message
        return None
    return result


def assert_finite_matrix(names, data):
    assert isinstance(names, tuple) and all(isinstance(n, str) for n in names)
    assert len(set(names)) == len(names)
    assert data.ndim == 2 and data.shape[1] == len(names) and len(data) >= 1
    assert np.isfinite(data).all()


_FUZZ = settings(max_examples=300, deadline=None,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])


class TestLoader:
    @_FUZZ
    @given(csv_bytes())
    def test_matrix_or_one_error_naming_the_file(self, tmp_path, data):
        path = tmp_path / "fuzz.csv"
        path.write_bytes(data)
        result = check_loader(path, read_csv_matrix)
        if result is not None:
            assert_finite_matrix(*result)

    @_FUZZ
    @given(csv_bytes())
    def test_dataset_or_one_error_naming_the_file(self, tmp_path, data):
        path = tmp_path / "fuzz.csv"
        path.write_bytes(data)
        dataset = check_loader(path, Dataset.from_csv)
        if dataset is not None:
            assert len(dataset) >= 1 and np.isfinite(dataset.X).all()

    @pytest.mark.parametrize("data", [
        b"a,b\n1," + b"1" * 200_000 + b"\n",     # over the csv module's field limit
        b"a,b\n1,\xff\n",                        # not UTF-8
        b"\xff\xfe" + "a,b\n1,2\n".encode("utf-16-le"),
        b"a,b\n1,\x002\n",
    ], ids=["field_limit", "bad_utf8", "utf16", "nul"])
    def test_hostile_bytes(self, tmp_path, data):
        path = tmp_path / "bad.csv"
        path.write_bytes(data)
        with pytest.raises(ValueError) as info:
            read_csv_matrix(path)
        assert str(info.value).startswith(f"{path}: ")

    def test_blank_lines_before_the_header_are_skipped(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text("\n\na,b\n\n1,2\n")
        names, data = read_csv_matrix(path)
        assert names == ("a", "b") and data.tolist() == [[1.0, 2.0]]


@pytest.fixture(scope="module")
def model_path(tmp_path_factory):
    work = tmp_path_factory.mktemp("model")
    assert main(["gen-data", "--datagen.n_scenarios", "2", "--scenario.n_devices", "2",
                 "--scenario.tasks_per_device", "4", "--seed", "1",
                 "--out", str(work)]) == 0
    assert main(["train", "--dataset_path", str(work / "dataset.csv"),
                 "--clustering.num_clusters", "2", "--out", str(work)]) == 0
    return work / "model.json"


def run_on(command, data, model_path, capsys):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.csv"
        path.write_bytes(data)
        out = Path(tmp) / "o"
        args = [command, "--dataset_path", str(path), "--out", str(out)]
        if command == "predict":
            args += ["--model_path", str(model_path)]
        capsys.readouterr()
        code = main(args)
        err = capsys.readouterr().err
        assert code in (0, 1), err
        assert "Traceback" not in err
        if check_loader(path, read_csv_matrix) is None:
            assert code == 1
            assert err.startswith(f"error: {path}: ")
            assert not out.exists()


class TestCommands:
    @_FUZZ
    @given(csv_bytes())
    def test_train(self, model_path, capsys, data):
        run_on("train", data, model_path, capsys)

    @_FUZZ
    @given(csv_bytes())
    def test_predict(self, model_path, capsys, data):
        run_on("predict", data, model_path, capsys)

    @settings(max_examples=50, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(st.lists(st.floats(-1e6, 1e6), min_size=5, max_size=5),
                    min_size=1, max_size=8))
    def test_predict_accepts_any_finite_feature_file(self, model_path, capsys, rows):
        header = ["TaskSize", "OffloadingRatio", "Speed", "CarrierFrequency", "energy_j"]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "features.csv"
            with open(path, "w", newline="") as fh:
                csv.writer(fh).writerows([header] + [[repr(v) for v in r] for r in rows])
            assert main(["predict", "--dataset_path", str(path), "--model_path",
                         str(model_path), "--out", str(Path(tmp) / "o")]) == 0
            assert (Path(tmp) / "o" / "predictions.csv").exists()


def damaged_models(valid: bytes):
    """Raw bytes, or the valid file with a span replaced by a few bytes."""
    cut = st.integers(0, len(valid))
    return st.one_of(
        st.binary(max_size=64),
        st.tuples(cut, cut, st.binary(max_size=6)).map(
            lambda t: valid[:min(t[0], t[1])] + t[2] + valid[max(t[0], t[1]):]))


class TestModelLoader:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_model_or_one_error_naming_the_file(self, model_path, data):
        damaged = data.draw(damaged_models(model_path.read_bytes()))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "model.json"
            path.write_bytes(damaged)
            check_loader(path, load_model)

    def test_bytes_that_do_not_decode(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_bytes(b'{"format": "\xff"}')
        with pytest.raises(ValueError) as info:
            load_model(path)
        assert str(info.value).startswith(f"{path}: ")
