import json
from dataclasses import fields, is_dataclass

import pytest

from offloadlab.cli import main
from offloadlab.config import (SCHEMA, ClusteringConfig, ConfigError, ExperimentConfig,
                               load_config)
from offloadlab.datagen import ScenarioSpec


class TestDefaults:
    def test_no_inputs(self):
        cfg = load_config()
        assert cfg.seed == 0
        assert cfg.out_dir == "out"
        for section in (ScenarioSpec, ClusteringConfig):  # `seed` is the run's one seed
            assert "seed" not in {f.name for f in fields(section)}
        assert cfg.clustering.feature_subsets == ("primary", "mi:2", "all")
        assert cfg.sweeps.speed_grid == (100.0, 200.0, 300.0, 400.0)

    def test_a_config_built_directly_is_the_loaded_one(self):
        assert ExperimentConfig(seed=5) == load_config(overrides={"seed": "5"})

    def test_seed_flag_beats_seed_in_file(self, tmp_path):
        # one seed, so no key can pin the scenario's draw against --seed
        path = tmp_path / "cfg.yaml"
        path.write_text("seed: 7\n")
        assert load_config(path).seed == 7
        assert load_config(path, overrides={"seed": "42"}).seed == 42


class TestFileAndOverrides:
    def test_yaml_file(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("\n".join([
            "seed: 3",
            "clustering:",
            "  k_max: 4",
            "  feature_subsets: 'primary; TaskSize,Speed'",
            "scenario:",
            "  n_devices: 2",
            "  data_bits: [2e6, 4e6]",
            "sweeps:",
            "  speed_grid: '10,20,30'",
            "",
        ]))
        cfg = load_config(path)
        assert cfg.seed == 3
        assert cfg.clustering.k_max == 4
        assert cfg.clustering.feature_subsets == ("primary", ("TaskSize", "Speed"))
        assert cfg.scenario.n_devices == 2
        assert cfg.scenario.data_bits == (2e6, 4e6)
        assert cfg.sweeps.speed_grid == (10.0, 20.0, 30.0)

    def test_override_beats_file(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("clustering:\n  k_max: 4\n")
        cfg = load_config(path, overrides={"clustering.k_max": "6"})
        assert cfg.clustering.k_max == 6

    def test_global_flags_beat_everything(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("seed: 3\nout_dir: somewhere\n")
        cfg = load_config(path, overrides={"seed": "9", "out_dir": "elsewhere"})
        assert (cfg.seed, cfg.out_dir) == (9, "elsewhere")

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("nonsense: 1\n")
        with pytest.raises(ConfigError):
            load_config(path)
        with pytest.raises(ConfigError):
            load_config(overrides={"scenario.warp": "1"})

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "absent.yaml")

    def test_undecodable_file_names_the_file(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_bytes(b"seed: 3\n\xff\xfe\n")
        with pytest.raises(ConfigError, match=f"{path} is not UTF-8 text"):
            load_config(path)

    @pytest.mark.parametrize("text, message", [
        ("seed: 1\nseed: 2\n", r"gives 'seed' twice \(line 2\)"),
        # the first scenario block is not dropped for the second
        ("scenario: {n_devices: 3}\ngreedy: {step: 0.1}\nscenario: {tasks_per_device: 4}\n",
         r"gives 'scenario' twice \(line 3\)"),
        ("scenario:\n  n_devices: 3\n  n_devices: 4\n",
         r"gives 'scenario.n_devices' twice \(line 3\)"),
        # one dotted key in two spellings, either way round
        ("scenario.n_devices: 3\nscenario: {n_devices: 4}\n", "gives 'scenario.n_devices' twice"),
        ("scenario: {n_devices: 4}\nscenario.n_devices: 3\n", "gives 'scenario.n_devices' twice"),
    ], ids=["top-level", "section", "leaf", "dotted-then-nested", "nested-then-dotted"])
    def test_a_key_given_twice_is_refused(self, tmp_path, text, message):
        path = tmp_path / "cfg.yaml"
        path.write_text(text)
        with pytest.raises(ConfigError, match=message):
            load_config(path)

    def test_merge_keys_still_override(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("scenario:\n  <<: {n_devices: 3, tasks_per_device: 2}\n  n_devices: 4\n")
        spec = load_config(path).scenario
        assert (spec.n_devices, spec.tasks_per_device) == (4, 2)

    def test_a_repeated_key_exits_2_without_making_out(self, tmp_path, capsys):
        path = tmp_path / "cfg.yaml"
        path.write_text("seed: 1\nseed: 2\n")
        out = tmp_path / "out"
        assert main(["optimize", "--config", str(path), "--out", str(out)]) == 2
        assert not out.exists()
        assert "'seed' twice" in capsys.readouterr().err

    def test_non_mapping_file(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("- 1\n- 2\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_an_alias_cycle_is_an_unknown_key(self, tmp_path, capsys):
        path = tmp_path / "cfg.yaml"
        path.write_text("scenario: &x {n_devices: 3, more: *x}\n")
        with pytest.raises(ConfigError, match="^unknown config field 'scenario.more'$"):
            load_config(path)
        out = tmp_path / "out"
        assert main(["optimize", "--config", str(path), "--out", str(out)]) == 2
        assert not out.exists()
        assert capsys.readouterr().err == "error: unknown config field 'scenario.more'\n"

    def test_a_mapping_below_a_section_field_is_an_unknown_key(self, tmp_path):
        # keys are at most two deep: the mapping is the value of scenario.warp
        path = tmp_path / "cfg.yaml"
        path.write_text("scenario: {warp: {x: 1}}\n")
        with pytest.raises(ConfigError, match="^unknown config field 'scenario.warp'$"):
            load_config(path)

    def test_a_deeply_nested_file_exits_2_naming_it(self, tmp_path, capsys):
        # PyYAML composes nested nodes recursively
        path = tmp_path / "cfg.yaml"
        path.write_text("seed: " + "[" * 3000 + "]" * 3000 + "\n")
        out = tmp_path / "out"
        assert main(["optimize", "--config", str(path), "--out", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err == f"error: config file {path} is nested too deeply\n"


# one sample value per parser, with what it reads as
_RANGE, _GRID = ("1,2", (1.0, 2.0)), ("1,2,3", (1.0, 2.0, 3.0))
_SAMPLES = {
    "seed": ("3", 3), "out_dir": ("x", "x"),
    "dataset_path": ("none", None), "model_path": ("none", None),
    "scenario.n_devices": ("3", 3), "scenario.tasks_per_device": ("3", 3),
    **{f"scenario.{name}": _RANGE for name in (
        "data_bits", "cycles_per_bit", "cpu_freq_hz", "energy_coeff", "speed_mps",
        "carrier_freq_hz", "bandwidth_hz", "noise_var_w", "gain")},
    "spectral.subcarrier_spacing_hz": ("0.5", 0.5), "spectral.snr_linear": ("0.5", 0.5),
    "greedy.init_ratio": ("0.5", 0.5), "greedy.step": ("0.5", 0.5),
    "clustering.k_max": ("3", 3), "clustering.num_clusters": ("3", 3),
    "clustering.bins": ("3", 3), "clustering.test_fraction": ("0.5", 0.5),
    "clustering.restarts": ("3", 3),
    "clustering.feature_subsets": ("primary;mi:2", ("primary", "mi:2")),
    "sweeps.speed_grid": _GRID, "sweeps.carrier_freq_grid": _GRID,
    "sweeps.data_size_grid": _GRID, "datagen.n_scenarios": ("3", 3),
}


class TestCoercionByKey:
    def test_every_key_has_a_sample(self):
        assert sorted(_SAMPLES) == sorted(SCHEMA)

    @pytest.mark.parametrize("dotted", sorted(_SAMPLES))
    def test_each_key_reads_its_sample(self, dotted):
        text, want = _SAMPLES[dotted]
        section, _, leaf = dotted.rpartition(".")
        cfg = load_config(overrides={dotted: text})
        got = getattr(getattr(cfg, section) if section else cfg, leaf)
        assert got == want and type(got) is type(want)
        if (text, want) == _RANGE:  # a range holds two numbers, a grid any
            with pytest.raises(ConfigError, match=f"{dotted}: expected 'lo,hi'"):
                load_config(overrides={dotted: _GRID[0]})


class TestCoercion:
    def test_int_rejects_floats_and_bools(self):
        with pytest.raises(ConfigError):
            load_config(overrides={"clustering.k_max": "2.5"})
        with pytest.raises(ConfigError):
            load_config(overrides={"clustering.k_max": True})
        assert load_config(overrides={"clustering.k_max": "8"}).clustering.k_max == 8

    def test_int_reads_text_in_base_ten(self):
        assert load_config(overrides={"scenario.n_devices": "02"}).scenario.n_devices == 2

    @pytest.mark.parametrize("key", ["scenario.n_devices", "seed"])
    @pytest.mark.parametrize("value", ["0x10", "0b11", "0o1"])
    def test_int_refuses_prefixed_text_naming_the_key(self, key, value):
        with pytest.raises(ConfigError, match=f"{key}: expected an integer, got '{value}'"):
            load_config(overrides={key: value})

    @pytest.mark.parametrize("key", ["scenario.n_devices", "seed"])
    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    def test_int_rejects_non_finite_floats_naming_the_key(self, key, value):
        with pytest.raises(ConfigError, match=f"{key}: expected an integer"):
            load_config(overrides={key: value})

    def test_float_rejects_an_integer_too_large_for_a_float(self):
        with pytest.raises(ConfigError, match="greedy.step: expected a number"):
            load_config(overrides={"greedy.step": 10 ** 400})

    def test_range_needs_two_values(self):
        with pytest.raises(ConfigError):
            load_config(overrides={"scenario.data_bits": "1e6"})
        cfg = load_config(overrides={"scenario.data_bits": "1e6,2e6"})
        assert cfg.scenario.data_bits == (1e6, 2e6)

    def test_inverted_range_rejected(self):
        with pytest.raises(ConfigError):
            load_config(overrides={"scenario.data_bits": "2e6,1e6"})

    def test_subsets_parse(self):
        cfg = load_config(overrides={"clustering.feature_subsets": "mi:3"})
        assert cfg.clustering.feature_subsets == ("mi:3",)
        cfg = load_config(overrides={"clustering.feature_subsets": "all;TaskSize; Speed ,"})
        assert cfg.clustering.feature_subsets == ("all", ("TaskSize",), ("Speed",))
        with pytest.raises(ConfigError):
            load_config(overrides={"clustering.feature_subsets": " ; "})

    def test_optional_paths(self):
        assert load_config().dataset_path is None
        cfg = load_config(overrides={"dataset_path": "x.csv",
                                     "model_path": "m.json"})
        assert cfg.dataset_path == "x.csv"
        assert cfg.model_path == "m.json"

    def test_seed_floor(self):
        with pytest.raises(ConfigError, match="seed must be >= 0"):
            load_config(overrides={"seed": "-1"})

    @pytest.mark.parametrize("source", ["override", "file"])
    def test_seed_floor_names_no_section(self, tmp_path, source):
        path = tmp_path / "cfg.yaml"
        path.write_text("seed: -1\n")
        given = {"override": (None, {"seed": "-1"}), "file": (path, None)}[source]
        with pytest.raises(ConfigError) as exc:
            load_config(*given)
        assert str(exc.value) == "seed must be >= 0"

    def test_experiment_config_checks_its_own_fields(self):
        with pytest.raises(ValueError, match="seed must be >= 0"):
            ExperimentConfig(seed=-1)

    def test_section_validation_becomes_config_error(self):
        with pytest.raises(ConfigError):
            load_config(overrides={"scenario.n_devices": "0"})
        with pytest.raises(ConfigError):
            load_config(overrides={"greedy.step": "0"})


# keys a model never read, physical constants that are no longer settable,
# the keys of the removed trajectory ingest, the removed sweep pool's size
# and the section seeds, second names of `seed`
REMOVED_KEYS = ("spectral.bandwidth_hz", "spectral.num_users", "spectral.frame_time_s",
                "spectral.light_speed_mps", "ingest.earth_radius_m", "ingest.path",
                "ingest.column_map", "jobs", "scenario.seed", "clustering.seed")


class TestSchema:
    def test_every_key_is_a_config_field(self):
        top = ExperimentConfig()
        for dotted in SCHEMA:
            section, _, leaf = dotted.rpartition(".")
            owner = getattr(top, section) if section else top
            assert not section or is_dataclass(owner), dotted
            assert leaf in {f.name for f in fields(owner)}, dotted

    def test_every_config_field_has_a_key(self):
        unkeyed = []
        for f in fields(ExperimentConfig):
            if is_dataclass(f.default):
                unkeyed += [f"{f.name}.{leaf.name}" for leaf in fields(f.default)
                            if f"{f.name}.{leaf.name}" not in SCHEMA]
            else:
                assert f.name in SCHEMA
        assert unkeyed == []
        assert len(SCHEMA) == 29

    def test_defaults_are_the_dataclass_defaults(self):
        assert load_config() == ExperimentConfig()

    @pytest.mark.parametrize("dotted", REMOVED_KEYS)
    def test_removed_keys_are_unknown(self, tmp_path, dotted):
        with pytest.raises(ConfigError, match="unknown config field"):
            load_config(overrides={dotted: "3"})
        tree = 3
        for name in reversed(dotted.split(".")):
            tree = {name: tree}
        path = tmp_path / "cfg.yaml"
        path.write_text(json.dumps(tree) + "\n")  # JSON is YAML
        with pytest.raises(ConfigError, match="unknown config field"):
            load_config(path)
