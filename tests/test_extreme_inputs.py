"""The commands on finite extremes of their inputs, one at a time.

Data side: each column of a balanced 200-row dataset is altered four ways:
two rows at -1.7e308 and 1.7e308 (a span past the float range), the column
scaled to a maximum of 1.7e308, the column times 1e-320 (subnormal) and
the column made constant.  Run in process with every warning an error, each
command either exits 0 and writes only finite numbers, or exits 1 with
one ``error:`` line on stderr and makes no --out directory.  `predict`
applies a model trained on the unaltered file.  Every k-means fit sees
points in [0, 1].

Config side: `optimize`, `gen-data` and both sweeps run with one config
value at an extreme: each `scenario.*` range pinned at 1e300 and at 1e-300
(1e160 for the clock, whose square is priced, and 0 for the speed), each
`spectral.*` value at both, `greedy.step` at 1e-300 and `greedy.init_ratio`
at 1; each `sweeps.*` grid at either runs through both sweeps.  A config
value the run cannot honour may also exit 2, the code of a config error.
"""

import csv
import json
import math
import warnings

import pytest

from offloadlab import cluster
from offloadlab.cli import main
from offloadlab.datagen import SAMPLED_FIELDS

_COLUMNS = ("TaskSize", "OffloadingRatio", "Speed", "CarrierFrequency", "CyclesPerBit",
            "CpuFreq", "Bandwidth", "energy_j")
_TOP = 1.7e308


def _span(values):
    return [-_TOP, _TOP, *values[2:]]


def _near_max(values):
    top = max(map(abs, values))
    return [v / top * _TOP for v in values]


_ALTERATIONS = {
    "span": _span,
    "near-max": _near_max,
    "subnormal": lambda values: [v * 1e-320 for v in values],
    "constant": lambda values: [values[0]] * len(values),
}


def _read(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


@pytest.fixture(scope="module")
def clean(tmp_path_factory):
    """(dataset.csv, model.json) of a balanced 200-row dataset."""
    root = tmp_path_factory.mktemp("extremes")
    cfg = root / "balanced.json"
    cfg.write_text(json.dumps({"scenario": {
        "cycles_per_bit": [600, 1400], "cpu_freq_hz": [1e9, 1e9],
        "carrier_freq_hz": [1e9, 3e9], "noise_var_w": [6.6e-3, 6.6e-3]}}) + "\n")
    assert main(["gen-data", "--config", str(cfg), "--datagen.n_scenarios", "4",
                 "--seed", "5", "--out", str(root)]) == 0
    dataset = root / "dataset.csv"
    assert main(["train", "--dataset_path", str(dataset), "--out", str(root)]) == 0
    header = _read(dataset)[0]
    assert tuple(header) == _COLUMNS and len(_read(dataset)) == 201
    return dataset, root / "model.json"


def _all_finite(value) -> bool:
    if isinstance(value, dict):
        return all(map(_all_finite, value.values()))
    if isinstance(value, list):
        return all(map(_all_finite, value))
    return not isinstance(value, float) or math.isfinite(value)


def _assert_finite_output(path):
    if path.suffix == ".json":
        assert _all_finite(json.loads(path.read_text())), path.name
        return
    for row in _read(path)[1:]:
        for cell in row:
            try:
                number = float(cell)
            except ValueError:  # a feature name in mi_ranking.csv
                continue
            assert math.isfinite(number), (path.name, row)


@pytest.mark.parametrize("command", ["train", "evaluate", "predict"])
@pytest.mark.parametrize("alteration", sorted(_ALTERATIONS))
@pytest.mark.parametrize("column", _COLUMNS)
def test_finite_output_or_one_error_line(tmp_path, capsys, monkeypatch, clean, command,
                                         alteration, column):
    fit = cluster.kmeans_fit

    def fit_scaled(points, *args, **kwargs):
        # min-max scaled first, so no command reaches kmeans_fit's spread bound
        assert 0.0 <= points.min() and points.max() <= 1.0
        return fit(points, *args, **kwargs)

    monkeypatch.setattr(cluster, "kmeans_fit", fit_scaled)
    dataset, model = clean
    header, *rows = _read(dataset)
    j = header.index(column)
    values = _ALTERATIONS[alteration]([float(row[j]) for row in rows])
    for row, value in zip(rows, values):
        row[j] = repr(value)
    altered = tmp_path / "altered.csv"
    with open(altered, "w", newline="") as fh:
        csv.writer(fh).writerows([header, *rows])
    out = tmp_path / "o"
    args = [command, "--dataset_path", str(altered), "--out", str(out)]
    if command == "evaluate":
        args += ["--clustering.k_max", "2"]
    elif command == "predict":
        args += ["--model_path", str(model)]
    _assert_finite_output_or_one_error_line(capsys, args, out, errors=(1,))


def _assert_finite_output_or_one_error_line(capsys, args, out, errors):
    """`main(args)`, every warning an error, exits 0 and writes only finite
    numbers to `out`, or exits with one of `errors`, one ``error:`` line on
    stderr and no `out`."""
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        status = main(args)
    err = capsys.readouterr().err
    if status == 0:
        outputs = sorted(out.iterdir())
        assert outputs
        for path in outputs:
            _assert_finite_output(path)
    else:
        assert status in errors
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert not out.exists()


_COMMANDS = {"optimize": [], "gen-data": ["--datagen.n_scenarios", "2"],
             "sweep-modulation": [], "sweep-datasize": []}


def _pinned(name, value):
    return (f"scenario.{name}", f"{value!r},{value!r}")


_CONFIG_EXTREMES = [
    *(_pinned(name, 1e160 if name == "cpu_freq_hz" else 1e300) for name in SAMPLED_FIELDS),
    *(_pinned(name, 0.0 if name == "speed_mps" else 1e-300) for name in SAMPLED_FIELDS),
    *((f"spectral.{name}", value) for name in ("snr_linear", "subcarrier_spacing_hz")
      for value in ("1e300", "1e-300")),
    ("greedy.step", "1e-300"),
    ("greedy.init_ratio", "1"),
]

_GRID_EXTREMES = [(f"sweeps.{grid}", value)
                  for grid in ("speed_grid", "carrier_freq_grid", "data_size_grid")
                  for value in ("1e300", "1e-300")]


@pytest.mark.parametrize("command,key,value", [
    *((command, key, value) for command in _COMMANDS for key, value in _CONFIG_EXTREMES),
    *((command, key, value) for command in ("sweep-modulation", "sweep-datasize")
      for key, value in _GRID_EXTREMES),
])
def test_config_extreme_gives_finite_output_or_one_error_line(tmp_path, capsys, command,
                                                               key, value):
    out = tmp_path / "o"
    args = [command, *_COMMANDS[command], f"--{key}", value, "--out", str(out)]
    _assert_finite_output_or_one_error_line(capsys, args, out, errors=(1, 2))
