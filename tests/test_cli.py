import csv
import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import offloadlab
import reference_datagen
from helpers import frozen_view
from offloadlab import cluster, datagen, features, model
from offloadlab.cli import cmd_gen_data, main
from offloadlab.cluster import load_model
from offloadlab.config import DatagenConfig, ExperimentConfig, load_config
from offloadlab.datagen import ScenarioSpec
from offloadlab.features import PRIMARY_FEATURES
from offloadlab.spectral import SpectralEfficiencyCache


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def run(*args) -> int:
    return main(list(args))


def run_process(*args, env=None) -> subprocess.CompletedProcess:
    """`python <args>` in a fresh interpreter that imports this offloadlab,
    with the variables of `env` set."""
    src = str(Path(offloadlab.__file__).parents[1])
    env = dict(os.environ, **(env or {}),
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=120)


def assert_same_tree(a, b):
    assert sorted(p.name for p in a.iterdir()) == sorted(p.name for p in b.iterdir())
    for path in a.iterdir():
        assert path.read_bytes() == (b / path.name).read_bytes()


COLD_START = """\
import sys
import offloadlab.cli
from offloadlab.config import load_config
print([name for name in ("yaml", "concurrent.futures", "multiprocessing")
       if name in sys.modules])
print(repr(load_config(sys.argv[1])))
print("yaml" in sys.modules)
"""


class TestColdStart:
    def test_yaml_and_the_process_pool_are_imported_only_when_used(self, tmp_path):
        # every command imports the cli; only --config needs PyYAML
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("seed: 3\nclustering: {k_max: 4}\nsweeps: {speed_grid: [0, 150]}\n")
        proc = run_process("-c", COLD_START, str(cfg))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["[]", repr(load_config(cfg)), "True"]


class TestUtf8Files:
    def test_non_ascii_names_under_an_ascii_locale(self, tmp_path):
        # a YAML config, a dataset, model.json and every output are UTF-8
        # whatever the locale: the C locale's ASCII gives the same files
        cfg = tmp_path / "g.yaml"
        cfg.write_text("clustering: {feature_subsets: [[Größe]]}\n", encoding="utf-8")
        assert run("gen-data", "--seed", "2", "--datagen.n_scenarios", "3",
                   "--scenario.n_devices", "2", "--scenario.tasks_per_device", "8",
                   "--out", str(tmp_path / "data")) == 0
        lines = (tmp_path / "data" / "dataset.csv").read_text(encoding="utf-8").splitlines()
        dataset = tmp_path / "g.csv"
        dataset.write_bytes("".join(f"{cell},{line}\r\n" for cell, line in zip(
            ["Größe", *(f"{i % 7}.25" for i in range(len(lines) - 1))], lines)).encode())
        ascii_env = {"PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0", "LC_ALL": "C"}
        for name, env in (("ascii", ascii_env), ("utf8", {"PYTHONUTF8": "1"})):
            out = str(tmp_path / name)
            for args in (["optimize", "--config", str(cfg), "--scenario.n_devices", "2",
                          "--scenario.tasks_per_device", "3"],
                         ["evaluate", "--dataset_path", str(dataset), "--clustering.k_max", "2"],
                         ["train", "--dataset_path", str(dataset)],
                         ["predict", "--dataset_path", str(dataset),
                          "--model_path", str(tmp_path / name / "model.json")]):
                proc = run_process("-m", "offloadlab", *args, "--out", out, env=env)
                assert proc.returncode == 0, (name, args[0], proc.stderr)
        assert_same_tree(tmp_path / "ascii", tmp_path / "utf8")
        assert "Größe,".encode() in (tmp_path / "ascii" / "mi_ranking.csv").read_bytes()


class TestConfigHandling:
    def test_missing_config_file(self, tmp_path):
        out = tmp_path / "out"
        code = run("optimize", "--config", str(tmp_path / "nope.yaml"),
                   "--out", str(out))
        assert code == 2
        assert not out.exists()

    def test_unknown_yaml_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("scenario:\n  warp_drive: 9\n")
        capsys.readouterr()
        assert run("optimize", "--config", str(cfg), "--out", str(tmp_path / "o")) == 2
        assert "unknown config field 'scenario.warp_drive'" in capsys.readouterr().err

    def test_bad_value_type(self, tmp_path):
        assert run("optimize", "--clustering.k_max", "lots",
                   "--out", str(tmp_path / "o")) == 2

    def test_unknown_flag_is_an_argparse_error(self, tmp_path):
        with pytest.raises(SystemExit):
            run("optimize", "--scenario.bogus", "1", "--out", str(tmp_path / "o"))

    @pytest.mark.parametrize("leaf", ["bandwidth_hz", "num_users", "frame_time_s",
                                      "light_speed_mps"])
    def test_removed_spectral_keys_exit_2(self, tmp_path, capsys, leaf):
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            run("optimize", f"--spectral.{leaf}", "3", "--out", str(out))
        assert exc.value.code == 2
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(f"spectral:\n  {leaf}: 3\n")
        capsys.readouterr()
        assert run("optimize", "--config", str(cfg), "--out", str(out)) == 2
        assert f"unknown config field 'spectral.{leaf}'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("source", ["flag", "yaml"])
    def test_removed_max_iters_exits_2(self, tmp_path, source):
        # the greedy's iteration cap is gone: greedy.max_iters is unknown
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("greedy:\n  max_iters: 3\n")
        given = {"flag": ["--greedy.max_iters", "3"], "yaml": ["--config", str(cfg)]}[source]
        out = tmp_path / "o"
        proc = run_process("-m", "offloadlab", "optimize", *given, "--out", str(out))
        assert proc.returncode == 2
        errors = [line for line in proc.stderr.splitlines() if "error:" in line]
        assert len(errors) == 1 and "max_iters" in errors[0], proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize("key", ["scenario.seed", "clustering.seed"])
    @pytest.mark.parametrize("source", ["flag", "yaml"])
    def test_removed_section_seeds_exit_2(self, tmp_path, key, source):
        # `seed` is the only seed: the section seeds are unknown
        section, leaf = key.split(".")
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(f"{section}:\n  {leaf}: 3\n")
        given = {"flag": [f"--{key}", "3"], "yaml": ["--config", str(cfg)]}[source]
        out = tmp_path / "o"
        proc = run_process("-m", "offloadlab", "optimize", *given, "--out", str(out))
        assert proc.returncode == 2
        errors = [line for line in proc.stderr.splitlines() if "error:" in line]
        assert len(errors) == 1 and key in errors[0], proc.stderr
        assert not out.exists()

    def test_seed_flag_beats_seed_in_file(self, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("seed: 3\n")
        a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        assert run("optimize", "--config", str(cfg), "--seed", "9", "--out", str(a)) == 0
        assert run("optimize", "--seed", "9", "--out", str(b)) == 0
        assert run("optimize", "--seed", "3", "--out", str(c)) == 0
        assert_same_tree(a, b)
        assert (a / "solution.json").read_bytes() != (c / "solution.json").read_bytes()

    def test_out_dir_is_an_alias_of_out(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("optimize", "--out", str(a)) == 0
        assert run("optimize", "--out_dir", str(b)) == 0
        assert_same_tree(a, b)
        # one option under two names: the last one given wins
        c, d = tmp_path / "c", tmp_path / "d"
        assert run("optimize", "--out", str(c), "--out_dir", str(d)) == 0
        assert d.exists() and not c.exists()

    def test_seed_flag_equals_seed_key_in_file(self, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("seed: 7\n")
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("optimize", "--seed", "7", "--out", str(a)) == 0
        assert run("optimize", "--config", str(cfg), "--out", str(b)) == 0
        assert_same_tree(a, b)

    def test_fractional_seed_exits_2(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert run("optimize", "--seed", "2.5", "--out", str(out)) == 2
        assert "expected an integer" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["0x10", "0b11"])
    def test_prefixed_integer_exits_2(self, tmp_path, capsys, value):
        out = tmp_path / "o"
        assert run("optimize", "--seed", value, "--out", str(out)) == 2
        assert f"seed: expected an integer, got '{value}'" in capsys.readouterr().err
        assert not out.exists()

    def test_leading_zero_integer_is_decimal(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("optimize", "--scenario.n_devices", "02", "--out", str(a)) == 0
        assert run("optimize", "--scenario.n_devices", "2", "--out", str(b)) == 0
        assert_same_tree(a, b)

    @pytest.mark.parametrize("text", ["greedy:\n  step: yes\n",
                                      "sweeps:\n  speed_grid: [true, 2]\n",
                                      "scenario:\n  gain: [on, 1]\n"],
                             ids=["step_yes", "grid_true", "range_on"])
    def test_yaml_boolean_number_exits_2(self, tmp_path, capsys, text):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(text)
        out = tmp_path / "o"
        assert run("sweep-modulation", "--config", str(cfg), "--out", str(out)) == 2
        assert "expected a number" in capsys.readouterr().err
        assert not out.exists()

    def test_dotted_flag_beats_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("sweeps:\n  speed_grid: [100, 200]\n")
        out = tmp_path / "out"
        assert run("sweep-modulation", "--config", str(cfg),
                   "--sweeps.speed_grid", "300", "--out", str(out)) == 0
        rows = read_rows(out / "sweep_modulation.csv")
        assert len(rows) == 2  # header plus the single overridden point
        assert float(rows[1][0]) == 300.0


# small runs of every command that draws random numbers
SEEDED_RUNS = {
    "optimize": ["--scenario.n_devices", "2", "--scenario.tasks_per_device", "3"],
    "sweep-modulation": ["--scenario.n_devices", "2", "--sweeps.speed_grid", "100,300"],
    "sweep-datasize": ["--scenario.n_devices", "2", "--sweeps.data_size_grid", "1e6,4e6"],
    "gen-data": ["--datagen.n_scenarios", "2", "--scenario.n_devices", "2"],
    "train": [],
    "evaluate": ["--clustering.k_max", "2", "--clustering.feature_subsets", "primary"],
}


class TestOneSeed:
    @pytest.mark.parametrize("command", SEEDED_RUNS)
    def test_seed_flag_equals_seed_in_file_for_every_command(self, tmp_path, small_dataset,
                                                             command):
        args = [command, *SEEDED_RUNS[command]]
        if command in ("train", "evaluate"):
            args += ["--dataset_path", str(small_dataset)]
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("seed: 5\n")
        flag, file, default = tmp_path / "flag", tmp_path / "file", tmp_path / "default"
        assert run(*args, "--seed", "5", "--out", str(flag)) == 0
        assert run(*args, "--config", str(cfg), "--out", str(file)) == 0
        assert run(*args, "--out", str(default)) == 0
        assert_same_tree(flag, file)
        # the seed reaches the command: seed 0 draws other numbers
        assert any(path.read_bytes() != (default / path.name).read_bytes()
                   for path in flag.iterdir())
        if command == "train":
            assert json.loads((flag / "model.json").read_text())["kmeans"]["seed"] == 5

    def test_a_config_built_directly_samples_at_its_seed(self, tmp_path):
        flag, built = tmp_path / "flag", tmp_path / "built"
        args = ["--datagen.n_scenarios", "3", "--scenario.n_devices", "2"]
        assert run("gen-data", *args, "--seed", "5", "--out", str(flag)) == 0
        cfg = ExperimentConfig(seed=5, out_dir=str(built), datagen=DatagenConfig(3),
                               scenario=ScenarioSpec(n_devices=2))
        assert cmd_gen_data(cfg) == [built / "dataset.csv"]
        assert (built / "dataset.csv").read_bytes() == (flag / "dataset.csv").read_bytes()


class TestOptimize:
    def test_outputs_and_trace_shape(self, tmp_path):
        out = tmp_path / "out"
        assert run("optimize", "--seed", "0", "--out", str(out)) == 0
        payload = json.loads((out / "solution.json").read_text())
        assert payload["termination"] in ("converged", "saturated", "iter_capped")
        assert len(payload["offload_ratios"]) == 50
        assert len(payload["per_task_energy_j"]) == 50
        rows = read_rows(out / "trace.csv")
        assert rows[0] == ["iteration", "total_energy_j", "task_index"]
        assert rows[1][0] == "0" and rows[1][2] == "-1"
        assert len(rows) - 1 == payload["evaluations"]
        energies = [float(r[1]) for r in rows[1:]]
        # descent is strict everywhere except possibly the last probe
        assert all(b < a for a, b in zip(energies[:-2], energies[1:-1]))
        assert payload["total_energy_j"] == min(energies)

    @pytest.mark.parametrize("tasks", ["1", "3", "600"])
    def test_solution_json_is_json_dump_with_indent_2(self, tmp_path, tasks):
        # the lists go through the C encoder in slices of 512 items
        out = tmp_path / "out"
        assert run("optimize", "--seed", "2", "--scenario.n_devices", "1",
                   "--scenario.tasks_per_device", tasks, "--out", str(out)) == 0
        text = (out / "solution.json").read_text()
        assert text == json.dumps(json.loads(text), indent=2) + "\n"

    def test_reruns_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("optimize", "--seed", "5", "--out", str(a)) == 0
        assert run("optimize", "--seed", "5", "--out", str(b)) == 0
        assert (a / "solution.json").read_bytes() == (b / "solution.json").read_bytes()
        assert (a / "trace.csv").read_bytes() == (b / "trace.csv").read_bytes()

    def test_seed_changes_outputs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("optimize", "--seed", "5", "--out", str(a)) == 0
        assert run("optimize", "--seed", "6", "--out", str(b)) == 0
        assert (a / "solution.json").read_bytes() != (b / "solution.json").read_bytes()


class TestSweeps:
    def test_modulation_grid_and_trend(self, tmp_path):
        out = tmp_path / "out"
        assert run("sweep-modulation", "--seed", "0", "--out", str(out)) == 0
        rows = read_rows(out / "sweep_modulation.csv")
        assert rows[0] == ["speed_mps", "carrier_freq_hz", "total_energy_j"]
        assert len(rows) == 5  # default grid: four speeds, one carrier
        speeds = [float(r[0]) for r in rows[1:]]
        energies = [float(r[2]) for r in rows[1:]]
        assert speeds == sorted(speeds)
        # rate-adaptive transmit power drops faster than the rate itself, so
        # faster devices spend less energy per offloaded bit
        assert all(b <= a for a, b in zip(energies, energies[1:]))

    def test_modulation_custom_grid(self, tmp_path):
        out = tmp_path / "out"
        assert run("sweep-modulation", "--sweeps.speed_grid", "50,150",
                   "--sweeps.carrier_freq_grid", "1e9,2e9,3e9",
                   "--out", str(out)) == 0
        rows = read_rows(out / "sweep_modulation.csv")
        assert len(rows) == 7
        assert [r[:2] for r in rows[1:3]] == [["50.0", "1000000000.0"],
                                              ["50.0", "2000000000.0"]]

    def test_datasize_gap_identity(self, tmp_path):
        out = tmp_path / "out"
        assert run("sweep-datasize", "--seed", "0", "--out", str(out)) == 0
        rows = read_rows(out / "sweep_datasize.csv")
        assert rows[0] == ["data_size_bits", "greedy_energy_j",
                           "all_local_energy_j", "gap_j"]
        assert len(rows) == 6  # default five sizes
        for r in rows[1:]:
            size, greedy_e, local_e, gap = map(float, r)
            assert gap == pytest.approx(local_e - greedy_e, rel=1e-12, abs=1e-30)
            assert gap >= 0.0
            assert greedy_e <= local_e

    def test_datasize_zero_bits_row(self, tmp_path):
        out = tmp_path / "out"
        assert run("sweep-datasize", "--sweeps.data_size_grid", "0,1e6",
                   "--out", str(out)) == 0
        rows = read_rows(out / "sweep_datasize.csv")
        first = list(map(float, rows[1]))
        assert first == [0.0, 0.0, 0.0, 0.0]

    @pytest.mark.parametrize("size", ["nan", "inf", "-1", "1e6,nan"])
    def test_datasize_non_finite_or_negative_is_a_config_error(self, tmp_path, capsys,
                                                               size):
        out = tmp_path / "out"
        capsys.readouterr()
        assert run("sweep-datasize", "--sweeps.data_size_grid", size,
                   "--out", str(out)) == 2
        assert "sweeps.data_size_grid" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("grid, values", [
        ("speed_grid", "nan"), ("speed_grid", "inf"), ("speed_grid", "-5"),
        ("speed_grid", "100,nan"), ("carrier_freq_grid", "nan"),
        ("carrier_freq_grid", "inf"), ("carrier_freq_grid", "-5"),
        ("carrier_freq_grid", "0"), ("carrier_freq_grid", "1e9,inf")])
    def test_modulation_grid_out_of_range_is_a_config_error(self, tmp_path, capsys,
                                                            grid, values):
        out = tmp_path / "out"
        capsys.readouterr()
        assert run("sweep-modulation", f"--sweeps.{grid}", values,
                   "--out", str(out)) == 2
        assert f"sweeps.{grid}" in capsys.readouterr().err
        assert not out.exists()

    def test_serial_reruns_match(self, tmp_path):
        first, second = tmp_path / "a", tmp_path / "b"
        assert run("sweep-modulation", "--out", str(first)) == 0
        assert run("sweep-modulation", "--out", str(second)) == 0
        assert ((first / "sweep_modulation.csv").read_bytes()
                == (second / "sweep_modulation.csv").read_bytes())

    # default grids on the default 5 devices: 5 sizes and 4 speeds x 1 carrier
    @pytest.mark.parametrize("command, calls", [("sweep-datasize", 25),
                                                ("sweep-modulation", 20)])
    def test_each_point_is_priced_once(self, tmp_path, monkeypatch, command, calls):
        seen = []
        calc_se = model.calc_se
        monkeypatch.setattr(model, "calc_se", lambda *args: seen.append(args) or calc_se(*args))
        assert run(command, "--seed", "3", "--out", str(tmp_path)) == 0
        assert len(seen) == calls

    def test_all_local_column_is_the_frozen_loops_sum(self, tmp_path):
        assert run("sweep-datasize", "--seed", "3", "--out", str(tmp_path)) == 0
        rows = read_rows(tmp_path / "sweep_datasize.csv")[1:]
        cfg = load_config(None, {"seed": "3"})
        for size, row in zip(cfg.sweeps.data_size_grid, rows):
            sc = datagen.generate_scenario(replace(cfg.scenario, data_bits=(size, size)),
                                           [cfg.seed], cfg.spectral)
            local, _ = reference_datagen.task_energy_endpoints(
                frozen_view(sc), SpectralEfficiencyCache(cfg.spectral))
            assert row[2] == repr(float(local.sum()))

    def test_serial_datasize_reruns_match_in_grid_order(self, tmp_path):
        grid = "--sweeps.data_size_grid=-0,0,2e6"
        first, second = tmp_path / "a", tmp_path / "b"
        assert run("sweep-datasize", grid, "--out", str(first)) == 0
        assert run("sweep-datasize", grid, "--out", str(second)) == 0
        data = (first / "sweep_datasize.csv").read_bytes()
        assert data == (second / "sweep_datasize.csv").read_bytes()
        assert [row[0] for row in read_rows(first / "sweep_datasize.csv")[1:]] == [
            "-0.0", "0.0", "2000000.0"]

    @pytest.mark.parametrize("command", ["sweep-modulation", "sweep-datasize"])
    def test_removed_jobs_exits_2(self, tmp_path, capsys, command):
        # the sweeps' process pool is gone: --jobs and the jobs key are unknown
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            run(command, "--jobs", "2", "--out", str(out))
        assert exc.value.code == 2
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("jobs: 2\n")
        capsys.readouterr()
        assert run(command, "--config", str(cfg), "--out", str(out)) == 2
        assert "unknown config field 'jobs'" in capsys.readouterr().err
        assert not out.exists()


@pytest.fixture()
def small_dataset(tmp_path):
    """A quick dataset.csv for the model-facing subcommands.

    Sized so the train split clears the sample floor of the mutual
    information estimator (2 x 16 bins).
    """
    out = tmp_path / "data"
    code = run("gen-data", "--datagen.n_scenarios", "3",
               "--scenario.n_devices", "2", "--scenario.tasks_per_device", "8",
               "--seed", "1", "--out", str(out))
    assert code == 0
    return out / "dataset.csv"


class TestGenData:
    def test_row_count(self, small_dataset):
        rows = read_rows(small_dataset)
        assert len(rows) == 1 + 3 * 2 * 8
        assert rows[0][-1] == "energy_j"


class TestTrainPredict:
    def test_train_writes_loadable_model(self, tmp_path, small_dataset):
        out = tmp_path / "model"
        assert run("train", "--dataset_path", str(small_dataset),
                   "--clustering.num_clusters", "2", "--out", str(out)) == 0
        model = load_model(out / "model.json")
        assert model.feature_subset == PRIMARY_FEATURES
        assert model.kmeans.k == 2

    def test_train_without_dataset_fails(self, tmp_path):
        assert run("train", "--out", str(tmp_path / "o")) == 1

    def test_predict_with_truth_column(self, tmp_path, small_dataset):
        out = tmp_path / "o"
        assert run("train", "--dataset_path", str(small_dataset),
                   "--clustering.num_clusters", "2", "--out", str(out)) == 0
        assert run("predict", "--model_path", str(out / "model.json"),
                   "--dataset_path", str(small_dataset), "--out", str(out)) == 0
        rows = read_rows(out / "predictions.csv")
        assert rows[0] == ["row", "energy_pred_j", "energy_true_j"]
        assert len(rows) == 1 + 48
        preds = np.array([float(r[1]) for r in rows[1:]])
        truth = np.array([float(r[2]) for r in rows[1:]])
        assert np.isfinite(preds).all()
        # the fit is coarse on a tiny dataset, but it must beat wild guesses
        assert np.abs(preds - truth).mean() < 10.0 * (np.abs(truth).mean() + 1e-30)

    def test_predict_without_truth_column(self, tmp_path, small_dataset):
        out = tmp_path / "o"
        assert run("train", "--dataset_path", str(small_dataset),
                   "--out", str(out)) == 0
        bare = tmp_path / "features.csv"
        rows = read_rows(small_dataset)
        with open(bare, "w", newline="") as fh:
            writer = csv.writer(fh)
            for row in rows:
                writer.writerow(row[:-1])
        assert run("predict", "--model_path", str(out / "model.json"),
                   "--dataset_path", str(bare), "--out", str(out)) == 0
        out_rows = read_rows(out / "predictions.csv")
        assert out_rows[0] == ["row", "energy_pred_j"]

    def test_predict_rejects_model_that_does_not_decode(self, tmp_path, small_dataset,
                                                        capsys):
        model_path = tmp_path / "model.json"
        model_path.write_bytes(b'{"format": "\xff"}\n')
        out = tmp_path / "o"
        capsys.readouterr()
        assert run("predict", "--model_path", str(model_path),
                   "--dataset_path", str(small_dataset), "--out", str(out)) == 1
        assert capsys.readouterr().err.startswith(f"error: {model_path}: ")
        assert not out.exists()

    def test_predict_missing_model_fails(self, tmp_path, small_dataset):
        assert run("predict", "--dataset_path", str(small_dataset),
                   "--out", str(tmp_path / "o")) == 1

    @pytest.mark.parametrize("damage", ["truncate_clusters", "drop_scaling",
                                        "narrow_centroids", "repeat_feature_subset"])
    def test_predict_rejects_damaged_model(self, tmp_path, small_dataset, capsys,
                                           damage):
        out = tmp_path / "o"
        assert run("train", "--dataset_path", str(small_dataset),
                   "--clustering.num_clusters", "3", "--out", str(out)) == 0
        model_path = out / "model.json"
        payload = json.loads(model_path.read_text())
        if damage == "truncate_clusters":
            payload["clusters"] = payload["clusters"][:1]
        elif damage == "drop_scaling":
            del payload["scaling"]
        elif damage == "narrow_centroids":
            payload["kmeans"]["centroids"] = [c[:2] for c in payload["kmeans"]["centroids"]]
        text = json.dumps(payload)
        if damage == "repeat_feature_subset":  # a first copy, which the file's own repeats
            text = text.replace("{", '{"feature_subset": [], ', 1)
        model_path.write_text(text)
        capsys.readouterr()
        assert run("predict", "--model_path", str(model_path),
                   "--dataset_path", str(small_dataset), "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(model_path) in err
        assert "Traceback" not in err
        assert not (out / "predictions.csv").exists()


def write_rows(path, rows):
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


@pytest.fixture()
def trained_model(tmp_path, small_dataset):
    out = tmp_path / "model"
    assert run("train", "--dataset_path", str(small_dataset), "--out", str(out)) == 0
    return out / "model.json"


class TestCsvInput:
    """Damaged dataset or feature CSVs fail with exit 1 and name the file."""

    def fails(self, command, path, out, model, capsys) -> str:
        args = [command, "--dataset_path", str(path), "--out", str(out)]
        if command == "predict":
            args += ["--model_path", str(model)]
        capsys.readouterr()
        assert run(*args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err
        assert "Traceback" not in err
        assert not (out / "predictions.csv").exists()
        assert not (out / "model.json").exists()
        return err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("column", [0, -1], ids=["feature", "last"])
    @pytest.mark.parametrize("keep_target", [True, False],
                             ids=["with_target", "features_only"])
    def test_predict_rejects_non_finite(self, tmp_path, small_dataset,
                                        trained_model, capsys, value, column,
                                        keep_target):
        rows = read_rows(small_dataset)
        if not keep_target:
            rows = [row[:-1] for row in rows]
        rows[5][column] = value
        bad = tmp_path / "bad.csv"
        write_rows(bad, rows)
        self.fails("predict", bad, tmp_path / "o", trained_model, capsys)

    @pytest.mark.parametrize("command", ["train", "predict"])
    def test_duplicate_column_name(self, tmp_path, small_dataset, trained_model,
                                   capsys, command):
        rows = read_rows(small_dataset)
        rows[0][1] = rows[0][0]
        bad = tmp_path / "bad.csv"
        write_rows(bad, rows)
        err = self.fails(command, bad, tmp_path / "o", trained_model, capsys)
        assert "duplicate" in err

    @pytest.mark.parametrize("command", ["train", "predict"])
    @pytest.mark.parametrize("damage", ["ragged", "non_numeric"])
    def test_bad_row_names_the_line(self, tmp_path, small_dataset, trained_model,
                                    capsys, command, damage):
        rows = read_rows(small_dataset)
        if damage == "ragged":
            rows[3] = rows[3][:-1]
        else:
            rows[3][2] = "fast"
        bad = tmp_path / "bad.csv"
        write_rows(bad, rows)
        err = self.fails(command, bad, tmp_path / "o", trained_model, capsys)
        assert f"{bad}: line 4: " in err

    @pytest.mark.parametrize("command", ["train", "predict"])
    @pytest.mark.parametrize("text", ["", "TaskSize,energy_j\r\n"],
                             ids=["empty", "header_only"])
    def test_no_data(self, tmp_path, trained_model, capsys, command, text):
        bad = tmp_path / "bad.csv"
        bad.write_text(text)
        self.fails(command, bad, tmp_path / "o", trained_model, capsys)


class TestRejectedInputLeavesNoOutDir:
    """Inputs are read and checked before the output directory is made."""

    def nan_csv(self, tmp_path, small_dataset):
        rows = read_rows(small_dataset)
        rows[5][0] = "nan"
        bad = tmp_path / "bad.csv"
        write_rows(bad, rows)
        return bad

    @pytest.mark.parametrize("command", ["train", "evaluate"])
    def test_nan_dataset(self, tmp_path, small_dataset, capsys, command):
        bad = self.nan_csv(tmp_path, small_dataset)
        out = tmp_path / "o"
        assert run(command, "--dataset_path", str(bad), "--out", str(out)) == 1
        assert str(bad) in capsys.readouterr().err
        assert not out.exists()

    def test_nan_predict_input(self, tmp_path, small_dataset, trained_model):
        bad = self.nan_csv(tmp_path, small_dataset)
        out = tmp_path / "o"
        assert run("predict", "--dataset_path", str(bad), "--model_path",
                   str(trained_model), "--out", str(out)) == 1
        assert not out.exists()

    def test_missing_model(self, tmp_path, small_dataset):
        out = tmp_path / "o"
        assert run("predict", "--dataset_path", str(small_dataset), "--model_path",
                   str(tmp_path / "nope.json"), "--out", str(out)) == 1
        assert not out.exists()

    def test_unknown_later_subset(self, tmp_path, small_dataset, capsys):
        # the first subset evaluates fine; nothing is written before the second fails
        out = tmp_path / "o"
        assert run("evaluate", "--dataset_path", str(small_dataset),
                   "--clustering.k_max", "2", "--clustering.feature_subsets",
                   "primary;Nope", "--out", str(out)) == 1
        assert "Nope" in capsys.readouterr().err
        assert not out.exists()

    def test_label_the_file_system_cannot_encode(self, tmp_path, small_dataset):
        # under an ASCII file-system encoding eval_Größe.csv cannot be made
        rows = read_rows(small_dataset)
        rows[0][0] = "Größe"
        data = tmp_path / "g.csv"
        data.write_bytes("".join(",".join(row) + "\r\n" for row in rows).encode())
        cfg = tmp_path / "g.yaml"
        cfg.write_text("clustering: {feature_subsets: [[Größe]]}\n", encoding="utf-8")
        out = tmp_path / "o"
        proc = run_process("-m", "offloadlab", "evaluate", "--config", str(cfg),
                           "--dataset_path", str(data), "--out", str(out),
                           env={"PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0", "LC_ALL": "C"})
        assert proc.returncode == 1
        # stderr is ASCII too, so it escapes the label
        assert proc.stderr == ("error: the label 'Gr\\xf6\\xdfe' cannot name the file "
                               "eval_Gr\\xf6\\xdfe.csv\n")
        assert not out.exists()

    @pytest.mark.parametrize("length,code", [(246, 0), (247, 1)])
    def test_label_too_long_for_a_file_name(self, tmp_path, small_dataset, capsys, length,
                                            code):
        # eval_<label>.csv may take 255 bytes, the longest file name
        rows = read_rows(small_dataset)
        rows[0][rows[0].index("CpuFreq")] = label = "x" * length
        data = tmp_path / "long.csv"
        write_rows(data, rows)
        out = tmp_path / "o"
        capsys.readouterr()
        assert run("evaluate", "--dataset_path", str(data), "--clustering.k_max", "2",
                   "--clustering.feature_subsets", f"primary;{label}",
                   "--out", str(out)) == code
        if code:
            assert capsys.readouterr().err == (
                f"error: the label {label!r} cannot name the file eval_{label}.csv\n")
            assert not out.exists()
        else:
            assert (out / f"eval_{label}.csv").exists()

    @pytest.mark.parametrize("command,leaf", [
        ("ingest", "path"), ("optimize", "path"), ("optimize", "column_map")])
    def test_removed_ingest_exits_2(self, tmp_path, capsys, command, leaf):
        # the trajectory ingest is gone: its command and keys are unknown
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            run(command, f"--ingest.{leaf}", "x.csv", "--out", str(out))
        assert exc.value.code == 2
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(f"ingest:\n  {leaf}: x.csv\n")
        capsys.readouterr()
        assert run("optimize", "--config", str(cfg), "--out", str(out)) == 2
        assert f"unknown config field 'ingest.{leaf}'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("data,message", [
        (b"seed: 3\n\xff\xfe\n", "cfg.yaml is not UTF-8 text"),
        (b"scenario: {n_devices: .inf}\n", "scenario.n_devices: expected an integer"),
        (b"clustering: {k_max: -.inf}\n", "clustering.k_max: expected an integer"),
    ], ids=["undecodable", "inf-n_devices", "inf-k_max"])
    def test_bad_config_file(self, tmp_path, capsys, data, message):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_bytes(data)
        out = tmp_path / "o"
        capsys.readouterr()
        assert run("optimize", "--config", str(cfg), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("key", ["spectral.snr_linear",
                                     "spectral.subcarrier_spacing_hz"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_spectral_value(self, tmp_path, capsys, key, value):
        out = tmp_path / "o"
        capsys.readouterr()
        assert run("optimize", f"--{key}={value}", "--out", str(out)) == 2
        assert f"{key} must be finite and > 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["optimize", "gen-data", "evaluate"])
    def test_negative_seed(self, tmp_path, capsys, command):
        out = tmp_path / "o"
        capsys.readouterr()
        assert run(command, "--seed", "-1", "--out", str(out)) == 2
        assert capsys.readouterr().err == "error: seed must be >= 0\n"
        assert not out.exists()

    def test_predict_names_every_missing_feature(self, tmp_path, small_dataset,
                                                 trained_model, capsys):
        rows = read_rows(small_dataset)
        keep = [i for i, name in enumerate(rows[0]) if name not in ("Speed", "TaskSize")]
        bad = tmp_path / "bad.csv"
        write_rows(bad, [[row[i] for i in keep] for row in rows])
        out = tmp_path / "o"
        capsys.readouterr()
        assert run("predict", "--dataset_path", str(bad), "--model_path",
                   str(trained_model), "--out", str(out)) == 1
        assert "lacks features ['TaskSize', 'Speed']" in capsys.readouterr().err
        assert not out.exists()

    def test_predict_names_the_dataset_in_its_value_errors(self, tmp_path, small_dataset,
                                                           trained_model, capsys):
        # as train and evaluate do; the model loader's errors name model.json
        rows = read_rows(small_dataset)
        drop = rows[0].index("OffloadingRatio")
        bad = tmp_path / "bad.csv"
        write_rows(bad, [row[:drop] + row[drop + 1:] for row in rows])
        out = tmp_path / "o"
        capsys.readouterr()
        assert run("predict", "--dataset_path", str(bad), "--model_path",
                   str(trained_model), "--out", str(out)) == 1
        assert capsys.readouterr().err == (
            f"error: {bad}: dataset lacks features ['OffloadingRatio']\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["optimize", "gen-data", "sweep-modulation",
                                         "sweep-datasize"])
    def test_failed_computation(self, tmp_path, capsys, command):
        # an SNR this high implies a spectral efficiency above the model's cap
        out = tmp_path / "o"
        capsys.readouterr()
        assert run(command, "--spectral.snr_linear", "1e300", "--out", str(out)) == 1
        assert "exceeds" in capsys.readouterr().err
        assert not out.exists()


class TestOverflowExits1:
    """A computation that overflows the float range exits 1 with one error
    line on stderr, no numpy warning and no --out directory."""

    @staticmethod
    def assert_fails(out, message, *args):
        proc = run_process("-m", "offloadlab", *args, "--out", str(out))
        assert proc.returncode == 1
        assert re.fullmatch(f"error: {message}\n", proc.stderr), proc.stderr
        assert not out.exists()

    @staticmethod
    def balanced_rows(tmp_path):
        """The rows of a balanced 200-row dataset.csv, header first."""
        cfg = tmp_path / "balanced.yaml"
        cfg.write_text(json.dumps({"scenario": {
            "cycles_per_bit": [600, 1400], "cpu_freq_hz": [1e9, 1e9],
            "carrier_freq_hz": [1e9, 3e9], "noise_var_w": [6.6e-3, 6.6e-3]}}) + "\n")
        assert run("gen-data", "--config", str(cfg), "--datagen.n_scenarios", "4",
                   "--seed", "5", "--out", str(tmp_path / "data")) == 0
        return read_rows(tmp_path / "data" / "dataset.csv")

    def test_predict_of_a_ratio_past_the_training_span(self, tmp_path):
        # balanced ranges spread the ratios over less than 1, so 1e308
        # scales past the float range
        self.balanced_rows(tmp_path)
        dataset = tmp_path / "data" / "dataset.csv"
        assert run("train", "--dataset_path", str(dataset),
                   "--out", str(tmp_path / "model")) == 0
        header, row = read_rows(dataset)[:2]
        ratios = {float(r[1]) for r in read_rows(dataset)[1:]}
        assert 0.0 < max(ratios) - min(ratios) < 1.0
        row[header.index("OffloadingRatio")] = "1e308"
        write_rows(tmp_path / "one.csv", [header, row])
        one = re.escape(str(tmp_path / "one.csv"))
        self.assert_fails(tmp_path / "o", f"{one}: the prediction for row 0 is -?inf", "predict",
                          "--dataset_path", str(tmp_path / "one.csv"),
                          "--model_path", str(tmp_path / "model" / "model.json"))

    def test_evaluate_whose_test_error_overflows(self, tmp_path):
        # energies near 1e300 fit finite planes, but their squared errors
        # pass the float range
        header, *rows = self.balanced_rows(tmp_path)
        big = tmp_path / "big.csv"
        write_rows(big, [header, *(row[:-1] + [repr(float(row[-1]) * 1e300)]
                                   for row in rows)])
        self.assert_fails(tmp_path / "o", f"{re.escape(str(big))}: the test MSE at k=1 is inf",
                          "evaluate", "--dataset_path", str(big), "--clustering.k_max", "3")

    @pytest.mark.parametrize("command", ["train", "evaluate"])
    def test_a_target_whose_sums_pass_the_float_range(self, tmp_path, command):
        # every energy and their span are finite, but a cluster's
        # least-squares sums over them are not
        header, *rows = self.balanced_rows(tmp_path)
        top = max(float(row[-1]) for row in rows)
        big = tmp_path / "big.csv"
        write_rows(big, [header, *(row[:-1] + [repr(float(row[-1]) / top * 1e307)]
                                   for row in rows)])
        self.assert_fails(tmp_path / "o", f"{re.escape(str(big))}: energy_j is too large to "
                          "fit: a sum over a cluster's values passes the float range",
                          command, "--dataset_path", str(big))

    @pytest.mark.parametrize("command", ["train", "evaluate"])
    def test_a_feature_span_past_the_float_range(self, tmp_path, command):
        # each value is finite, the column's max - min is not
        header, *rows = self.balanced_rows(tmp_path)
        for i, row in enumerate(rows):
            row[header.index("OffloadingRatio")] = ("-1.7e308", "1.7e308")[i % 2]
        wide = tmp_path / "wide.csv"
        write_rows(wide, [header, *rows])
        self.assert_fails(tmp_path / "o", f"{re.escape(str(wide))}: OffloadingRatio spans "
                          "more than the float range", command, "--dataset_path", str(wide))

    def test_train_on_a_subset_without_the_wide_column(self, tmp_path):
        # the default subset, the primary four, leaves CyclesPerBit out
        header, *rows = self.balanced_rows(tmp_path)
        rows[0][header.index("CyclesPerBit")] = "1.7e308"
        rows[1][header.index("CyclesPerBit")] = "-1.7e308"
        wide = tmp_path / "wide.csv"
        write_rows(wide, [header, *rows])
        out = tmp_path / "o"
        proc = run_process("-m", "offloadlab", "train", "--dataset_path", str(wide),
                           "--out", str(out))
        assert (proc.returncode, proc.stderr) == (0, "")
        assert load_model(out / "model.json").feature_subset == PRIMARY_FEATURES

    def test_sweep_datasize_whose_all_local_total_overflows(self, tmp_path):
        # each task's energy is finite, and so is the greedy's starting
        # total; the all-local sum of two tasks is not
        self.assert_fails(tmp_path / "o", "the all-local total energy is inf",
                          "sweep-datasize", "--scenario.n_devices", "1",
                          "--scenario.tasks_per_device", "2",
                          "--scenario.energy_coeff", "1e276,1e276",
                          "--scenario.cycles_per_bit", "1e4,1e4",
                          "--scenario.cpu_freq_hz", "1e10,1e10",
                          "--sweeps.data_size_grid", "1e8")


class TestEvaluate:
    @pytest.mark.parametrize("entry", ["mi:x", "mi:0", "mi:", "mi:-1", "mi:1.5",
                                       "primary;mi:x"])
    def test_bad_mi_count_is_a_config_error(self, tmp_path, small_dataset, capsys,
                                            entry):
        capsys.readouterr()
        assert run("evaluate", "--dataset_path", str(small_dataset),
                   "--clustering.feature_subsets", entry,
                   "--out", str(tmp_path / "o")) == 2
        err = capsys.readouterr().err
        assert "mi:N" in err and "invalid literal" not in err
        assert not (tmp_path / "o").exists()

    def test_default_subsets(self, tmp_path, small_dataset):
        out = tmp_path / "o"
        assert run("evaluate", "--dataset_path", str(small_dataset),
                   "--clustering.k_max", "3", "--out", str(out)) == 0
        for name in ("mi_ranking.csv", "eval_primary.csv", "eval_mi2.csv",
                     "eval_all.csv"):
            assert (out / name).exists(), name
        ranking = read_rows(out / "mi_ranking.csv")
        assert ranking[0] == ["feature", "mi_bits"]
        assert len(ranking) == 1 + 7
        report = read_rows(out / "eval_primary.csv")
        assert report[0] == ["k", "mae_j", "mse_j2"]
        assert [r[0] for r in report[1:]] == ["1", "2", "3"]

    def test_named_subset(self, tmp_path, small_dataset):
        out = tmp_path / "o"
        assert run("evaluate", "--dataset_path", str(small_dataset),
                   "--clustering.k_max", "2",
                   "--clustering.feature_subsets", "TaskSize,Speed",
                   "--out", str(out)) == 0
        assert (out / "eval_TaskSize-Speed.csv").exists()

    def test_single_feature_subset(self, tmp_path, small_dataset):
        out = tmp_path / "o"
        assert run("evaluate", "--dataset_path", str(small_dataset),
                   "--clustering.k_max", "2",
                   "--clustering.feature_subsets", "TaskSize",
                   "--out", str(out)) == 0
        report = read_rows(out / "eval_TaskSize.csv")
        assert [r[0] for r in report[1:]] == ["1", "2"]

    def test_missing_dataset_fails(self, tmp_path):
        assert run("evaluate", "--out", str(tmp_path / "o")) == 1

    @pytest.mark.parametrize("command,entries,message", [
        ("train", "TaskSize,TaskSize", "names a feature twice"),
        ("evaluate", "primary;TaskSize,Speed,TaskSize", "names a feature twice"),
        ("evaluate", "primary;primary", "share the label 'primary'"),
        ("evaluate", "mi:2;mi2", "share the label 'mi2'"),
    ])
    def test_repeats_are_config_errors(self, tmp_path, small_dataset, capsys,
                                       command, entries, message):
        capsys.readouterr()
        assert run(command, "--dataset_path", str(small_dataset),
                   "--clustering.feature_subsets", entries,
                   "--out", str(tmp_path / "o")) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["train", "evaluate"])
    def test_mi_count_above_its_pool_fails(self, tmp_path, small_dataset, capsys,
                                           command):
        capsys.readouterr()
        assert run(command, "--dataset_path", str(small_dataset),
                   "--clustering.feature_subsets", "mi:9",
                   "--out", str(tmp_path / "o")) == 1
        assert "mi:9 asks for 9 features, its pool has 4" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_k_max_above_the_training_rows_fails_before_any_fit(
            self, tmp_path, small_dataset, capsys, monkeypatch):
        fits = []
        fit = cluster.kmeans_fit
        monkeypatch.setattr(cluster, "kmeans_fit",
                            lambda *args, **kwargs: fits.append(args) or fit(*args, **kwargs))
        capsys.readouterr()
        assert run("evaluate", "--dataset_path", str(small_dataset),
                   "--clustering.k_max", "100", "--out", str(tmp_path / "o")) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {small_dataset}: k_max=100 exceeds the 36 training rows"]
        assert fits == []
        assert not (tmp_path / "o").exists()


class TestLogging:
    def test_info_messages_reach_stderr(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("OFFLOADLAB_LOG", "INFO")
        assert run("optimize", "--out", str(tmp_path / "o")) == 0
        err = capsys.readouterr().err
        assert "INFO offloadlab" in err

    def test_quiet_by_default(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("OFFLOADLAB_LOG", raising=False)
        assert run("optimize", "--out", str(tmp_path / "o")) == 0
        assert "INFO offloadlab" not in capsys.readouterr().err


class TestNonFiniteEnergy:
    @pytest.mark.parametrize("command,key,value,message", [
        ("optimize", "scenario.gain", "1e-320,1e-320", "not finite"),
        ("optimize", "scenario.cpu_freq_hz", "1e200,1e200", "squared overflows"),
        ("gen-data", "scenario.cpu_freq_hz", "1e200,1e200", "squared overflows"),
        ("sweep-datasize", "scenario.gain", "1e-320,1e-320", "not finite"),
    ])
    def test_is_an_error(self, tmp_path, capsys, command, key, value, message):
        out = tmp_path / "o"
        capsys.readouterr()
        assert run(command, f"--{key}", value, "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err
        assert not out.exists()


class TestSubsetEdgeCases:
    @pytest.mark.parametrize("command", ["train", "evaluate"])
    def test_empty_yaml_subset_is_a_config_error(self, tmp_path, small_dataset, capsys,
                                                 command):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("clustering: {feature_subsets: [[]]}\n")
        capsys.readouterr()
        assert run(command, "--config", str(cfg), "--dataset_path", str(small_dataset),
                   "--out", str(tmp_path / "o")) == 2
        assert "must name at least one feature" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("entries,message", [
        ("primary;Nope", "lacks features ['Nope']"),
        ("all;Speed,Nope", "lacks features ['Nope']"),
        ("primary;mi:9", "mi:9 asks for 9 features, its pool has 4"),
    ])
    def test_train_checks_every_entry(self, tmp_path, small_dataset, capsys, entries,
                                      message):
        capsys.readouterr()
        assert run("train", "--dataset_path", str(small_dataset),
                   "--clustering.feature_subsets", entries,
                   "--out", str(tmp_path / "o")) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_train_check_ranks_nothing(self, tmp_path, small_dataset, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("train ranked features to check an entry")

        monkeypatch.setattr(features, "rank_features", refuse)
        assert run("train", "--dataset_path", str(small_dataset),
                   "--clustering.feature_subsets", "primary;mi:2;all",
                   "--out", str(tmp_path / "o")) == 0
        assert load_model(tmp_path / "o" / "model.json").feature_subset == PRIMARY_FEATURES

    def test_label_holding_a_slash_is_a_config_error(self, tmp_path, small_dataset,
                                                    capsys):
        rows = read_rows(small_dataset)
        rows[0][0] = "a/b"
        data = tmp_path / "slash.csv"
        write_rows(data, rows)
        capsys.readouterr()
        assert run("evaluate", "--dataset_path", str(data), "--clustering.feature_subsets",
                   "all;a/b", "--out", str(tmp_path / "o")) == 2
        assert "the label 'a/b' is not a plain file name" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_labels_use_the_parsed_count(self, tmp_path, small_dataset, capsys):
        capsys.readouterr()
        assert run("evaluate", "--dataset_path", str(small_dataset),
                   "--clustering.feature_subsets", "mi:02;mi:2",
                   "--out", str(tmp_path / "o")) == 2
        assert "share the label 'mi2'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()
        out = tmp_path / "p"
        assert run("evaluate", "--dataset_path", str(small_dataset), "--clustering.k_max",
                   "2", "--clustering.feature_subsets", "mi:+2", "--out", str(out)) == 0
        assert sorted(p.name for p in out.iterdir()) == ["eval_mi2.csv", "mi_ranking.csv"]
