import re
import tracemalloc

import numpy as np
import pytest

from offloadlab.cli import main
from offloadlab.datagen import SAMPLED_FIELDS, ScenarioSpec, build_dataset, generate_scenario
from offloadlab.features import CANONICAL_FEATURES
from offloadlab.model import DEVICE_DTYPE, TASK_DTYPE, tx_power
from offloadlab.spectral import calc_se

from helpers import (BALANCED_ENERGY_COEFF, BALANCED_GAIN, BALANCED_NOISE_VAR,
                     balanced_spec)


class TestScenarioSpec:
    def test_defaults_build(self):
        spec = ScenarioSpec()
        assert spec.n_devices == 5 and spec.tasks_per_device == 10

    @pytest.mark.parametrize("kwargs", [
        {"n_devices": 0},
        {"tasks_per_device": 0},
        {"data_bits": (8e6, 1e6)},          # inverted
        {"data_bits": (-1.0, 1e6)},         # negative size
        {"cycles_per_bit": (0.0, 100.0)},   # zero cycles not workable
        {"cpu_freq_hz": (0.0, 1e9)},
        {"gain": (0.0, 1.0)},
        {"speed_mps": (-5.0, 10.0)},
    ])
    def test_rejects_bad_ranges(self, kwargs):
        with pytest.raises(ValueError):
            ScenarioSpec(**kwargs)

    def test_zero_speed_allowed(self):
        ScenarioSpec(speed_mps=(0.0, 0.0))

    def test_the_seed_is_not_a_field(self):
        # the seed is a call argument of the sampler, not part of the ranges
        with pytest.raises(TypeError, match="seed"):
            ScenarioSpec(seed=1)


class TestGenerateScenario:
    def test_counts_and_id_wiring(self):
        spec = ScenarioSpec(n_devices=3, tasks_per_device=4)
        sc = generate_scenario(spec, [2])
        assert len(sc.devices) == 3
        assert len(sc.tasks) == 12
        assert sc.tasks.device_id.tolist() == [0] * 4 + [1] * 4 + [2] * 4

    def test_deterministic_per_seed(self):
        def columns(sc):
            return [getattr(sc, name).tobytes() for name in ("devices", "tasks")]

        spec = ScenarioSpec()
        a = generate_scenario(spec, [7])
        assert columns(a) == columns(generate_scenario(spec, [7]))
        assert columns(a) != columns(generate_scenario(spec, [8]))

    def test_values_respect_ranges(self):
        spec = ScenarioSpec(n_devices=10, tasks_per_device=5,
                            data_bits=(2e6, 3e6), cycles_per_bit=(800.0, 900.0),
                            cpu_freq_hz=(1e9, 2e9), speed_mps=(50.0, 60.0),
                            carrier_freq_hz=(2e9, 4e9))
        sc = generate_scenario(spec, [3])
        assert np.all((1e9 <= sc.devices.cpu_freq_hz) & (sc.devices.cpu_freq_hz <= 2e9))
        assert np.all((50.0 <= sc.devices.speed_mps) & (sc.devices.speed_mps <= 60.0))
        assert np.all((2e9 <= sc.devices.carrier_freq_hz)
                      & (sc.devices.carrier_freq_hz <= 4e9))
        assert np.all((2e6 <= sc.tasks.data_bits) & (sc.tasks.data_bits <= 3e6))
        assert np.all((800.0 <= sc.tasks.cycles_per_bit) & (sc.tasks.cycles_per_bit <= 900.0))

    def test_pinned_ranges_are_exact(self):
        spec = ScenarioSpec(cpu_freq_hz=(1e9, 1e9), gain=(0.25, 0.25),
                            noise_var_w=(2e-13, 2e-13))
        sc = generate_scenario(spec, [4])
        assert all(d.cpu_freq_hz == 1e9 for d in sc.devices)
        assert all(d.gain == 0.25 for d in sc.devices)
        assert all(d.noise_var_w == 2e-13 for d in sc.devices)

    def test_tx_power_matches_channel(self):
        # the power is not stored; each device row's uplink implies it
        sc = generate_scenario(ScenarioSpec(), [5])
        for d in sc.devices:
            se = calc_se(d.speed_mps, d.carrier_freq_hz, sc.spectral_config)
            expected = (2.0 ** se - 1.0) * d.noise_var_w / d.gain
            assert tx_power(se, d.noise_var_w, d.gain) == expected

    def test_pinning_one_range_leaves_other_draws_alone(self):
        # a pinned range must consume its draw so the rest of the stream
        # stays aligned across sweep variants
        free = generate_scenario(ScenarioSpec(), [6])
        pinned = generate_scenario(ScenarioSpec(speed_mps=(250.0, 250.0)), [6])
        for a, b in zip(free.devices, pinned.devices):
            assert a.cpu_freq_hz == b.cpu_freq_hz
            assert a.energy_coeff == b.energy_coeff
            assert b.speed_mps == 250.0
            assert a.carrier_freq_hz == b.carrier_freq_hz
        for a, b in zip(free.tasks, pinned.tasks):
            assert a.data_bits == b.data_bits
            assert a.cycles_per_bit == b.cycles_per_bit


class TestBuildDataset:
    def test_shape_and_names(self):
        ds = build_dataset(ScenarioSpec(n_devices=2, tasks_per_device=3), [0, 1])
        assert ds.feature_names == CANONICAL_FEATURES
        assert ds.X.shape == (12, 7)
        assert ds.y.shape == (12,)

    def test_first_row_matches_scenario(self):
        spec = ScenarioSpec(n_devices=2, tasks_per_device=2)
        ds = build_dataset(spec, [9])
        sc = generate_scenario(spec, [9])
        row = ds.X[0]
        names = list(ds.feature_names)
        assert row[names.index("TaskSize")] == sc.tasks[0].data_bits
        assert row[names.index("Speed")] == sc.devices[0].speed_mps
        assert row[names.index("CarrierFrequency")] == sc.devices[0].carrier_freq_hz
        assert row[names.index("CyclesPerBit")] == sc.tasks[0].cycles_per_bit
        assert row[names.index("CpuFreq")] == sc.devices[0].cpu_freq_hz
        assert row[names.index("Bandwidth")] == sc.devices[0].bandwidth_hz

    def test_ratios_start_at_half_and_climb(self):
        ds = build_dataset(balanced_spec(), [100])
        ratios = ds.column("OffloadingRatio")
        assert np.all(ratios >= 0.5) and np.all(ratios <= 1.0)

    def test_rows_are_self_consistent(self):
        # the target must be reproducible from the row plus the spec's
        # pinned constants, otherwise the dataset is useless for learning
        ds = build_dataset(balanced_spec(), [101])
        for row, target in zip(ds.X, ds.y):
            size, ratio, speed, carrier, cycles, cpu, bandwidth = row
            se = calc_se(speed, carrier)
            local = BALANCED_ENERGY_COEFF * cycles * cpu ** 2 * (1 - ratio) * size
            power = (2.0 ** se - 1.0) * BALANCED_NOISE_VAR / BALANCED_GAIN
            offload = power * ratio * size / (bandwidth * se)
            assert local + offload == pytest.approx(target, rel=1e-9)

    def test_csv_bytes_deterministic(self, tmp_path):
        spec = ScenarioSpec(n_devices=2, tasks_per_device=2)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        build_dataset(spec, [11]).to_csv(p1)
        build_dataset(spec, [11]).to_csv(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_no_seeds_rejected(self):
        with pytest.raises(ValueError, match="no scenarios given"):
            build_dataset(ScenarioSpec(), [])

    def test_a_dataset_too_large_for_memory_is_one_error_line(self, tmp_path, capsys):
        # 5e13 rows: the allocation fails before any memory is touched
        out = tmp_path / "out"
        tracemalloc.start()
        try:
            status = main(["gen-data", "--datagen.n_scenarios", "1000000000000",
                           "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert status == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert err == "error: a dataset of 50000000000000 rows does not fit in memory\n"
        # numpy records its failed request for the feature matrix as if it were held
        refused = 50_000_000_000_000 * len(CANONICAL_FEATURES) * 8
        assert peak - refused < 1 << 20, peak


class TestSeedArrays:
    """Seeds may come as any sequence, numpy arrays included."""

    SPEC = ScenarioSpec(n_devices=2, tasks_per_device=3)

    @pytest.mark.parametrize("seeds", [[0], [0, 1, 2]], ids=["one", "three"])
    def test_an_array_of_seeds_is_a_list_of_them(self, seeds):
        got, want = (build_dataset(self.SPEC, s) for s in (np.array(seeds), seeds))
        assert got.X.tobytes() == want.X.tobytes() and got.y.tobytes() == want.y.tobytes()
        got, want = (generate_scenario(self.SPEC, s) for s in (np.array(seeds), seeds))
        for name in ("devices", "tasks"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()

    @pytest.mark.parametrize("seeds", [[], np.arange(0), range(0)],
                             ids=["list", "array", "range"])
    @pytest.mark.parametrize("sample", [build_dataset, generate_scenario])
    def test_no_seeds_rejected(self, sample, seeds):
        with pytest.raises(ValueError, match="no scenarios given"):
            sample(self.SPEC, seeds)


class TestDrawOrder:
    def test_sampled_fields_are_the_device_fields_then_the_task_fields(self):
        assert SAMPLED_FIELDS == DEVICE_DTYPE.names + TASK_DTYPE.names[1:]

    def test_the_docstring_names_the_draw_order(self):
        doc = " ".join(generate_scenario.__doc__.split())
        per_device, per_task = re.search(
            r"Per device the draw order is: (.*?); then (.*?) per task", doc).groups()
        assert tuple(per_device.split(", ") + per_task.split(" and ")) == SAMPLED_FIELDS
