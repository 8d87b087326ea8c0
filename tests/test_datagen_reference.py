"""Differential checks of the array sampler, endpoints and CSV writers.

`reference_datagen` holds frozen copies of the per-task code these replaced.
It samples sequences of per-device and per-task records, which conftest.py
turns into the model's record arrays field by field, a device's row from its
Device and Channel records.  It reads a device's uplink from
`scenario.channels`, so a live scenario reaches it through
`helpers.frozen_view`, whose channels are the device rows.  Scenarios,
endpoint arrays, dataset matrices and CSV files must be bit-identical to
it, including pinned ranges and tasks without data, and `calc_se` must be
called once per device with data and never for a device whose tasks
carry no data.  The frozen sampler reads one seed from its
spec, so it is reached through `helpers.seeded`, and a sample at many seeds
is its per-seed scenarios joined.  `build_dataset` solves its seeds in
batches: its rows must be the per-scenario loop's whatever the batch cut,
and a failing batch must exit with the error of its first failing scenario.
"""

import json
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_datagen
from helpers import (balanced_spec, frozen_build_dataset, frozen_generate_scenario,
                     frozen_view, scenario)
from offloadlab import datagen, greedy, model
from offloadlab.cli import main
from offloadlab.datagen import ScenarioSpec, build_dataset, generate_scenario
from offloadlab.features import CANONICAL_FEATURES, Dataset
from offloadlab.greedy import task_energy_endpoints
from offloadlab.spectral import SpectralConfig, SpectralEfficiencyCache, calc_se


def _live_optimize(scenario, config, cache):
    """The frozen `build_dataset` hands `optimize` a cache of the scenario's
    own spectral config; the live `optimize` prices with that config itself."""
    assert cache.config == scenario.spectral_config
    return greedy.optimize(scenario, config)


reference_datagen.greedy_mod = SimpleNamespace(GreedyConfig=greedy.GreedyConfig,
                                               optimize=_live_optimize)

SHAPES = [(1, 1), (5, 10), (50, 40)]
# hypothesis draws the small shapes; 50 x 40 runs on the fixed specs below,
# so a failure shrinks in seconds rather than minutes
small_shapes = st.one_of(st.sampled_from(SHAPES[:2]),
                         st.tuples(st.integers(1, 4), st.integers(1, 6)))


def _range(lo_min, lo_max, allow_zero=False):
    """A (lo, hi) pair; about half of the draws pin the field (lo == hi)."""
    lo = st.floats(lo_min, lo_max)
    if allow_zero:
        lo = st.one_of(st.just(0.0), lo)
    return lo.flatmap(lambda a: st.one_of(
        st.just((a, a)),
        st.floats(0.0, 3.0).map(lambda w: (a, a + w * max(a, lo_max)))))


@st.composite
def specs(draw, shapes=small_shapes, max_seeds=4):
    """A spec and 1 to `max_seeds` seeds to sample it at."""
    n_devices, tasks_per_device = draw(shapes)
    seeds = draw(st.lists(st.integers(0, 2 ** 32), min_size=1, max_size=max_seeds))
    return ScenarioSpec(
        n_devices=n_devices,
        tasks_per_device=tasks_per_device,
        data_bits=draw(st.one_of(st.just((0.0, 0.0)),
                                 _range(0.0, 8e6, allow_zero=True))),
        cycles_per_bit=draw(_range(1.0, 2000.0)),
        cpu_freq_hz=draw(_range(1e8, 2e9)),
        energy_coeff=draw(_range(1e-29, 1e-27)),
        speed_mps=draw(_range(0.0, 500.0, allow_zero=True)),
        carrier_freq_hz=draw(_range(1e8, 3e10)),
        bandwidth_hz=draw(_range(1e5, 1e7)),
        noise_var_w=draw(_range(1e-14, 1e-2)),
        gain=draw(_range(0.1, 10.0)),
    ), seeds


PINNED = ScenarioSpec(**{f: (v[0], v[0]) for f, v in vars(ScenarioSpec()).items()
                         if isinstance(v, tuple)})


def _fixed_specs():
    """Default, balanced, fully pinned and zero-data specs at every shape;
    the tests sample them at seed 7."""
    variants = {
        "default": ScenarioSpec(),
        "balanced": balanced_spec(),
        "pinned": PINNED,
        "bits-from-zero": ScenarioSpec(data_bits=(0.0, 4e6), speed_mps=(0.0, 50.0)),
        "no-bits": ScenarioSpec(data_bits=(0.0, 0.0)),
    }
    return [pytest.param(replace(spec, n_devices=n, tasks_per_device=t),
                         id=f"{name}-{n}x{t}")
            for name, spec in variants.items() for n, t in SHAPES]


FIXED_SPECS = _fixed_specs()


def assert_same_scenario(got, want):
    # bytes are exact for floats and tell -0.0 apart; numpy's repr rounds
    assert got.spectral_config == want.spectral_config
    for name in ("devices", "tasks"):
        g, w = getattr(got, name), getattr(want, name)
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), name


def assert_same_arrays(got, want):
    for g, w in zip(got, want, strict=True):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()


class TestSamplerMatchesReference:
    @settings(max_examples=60, deadline=None)
    @given(specs())
    def test_random_specs_and_seeds(self, spec_seeds):
        # the seeds' scenarios joined, each task's device id offset
        assert_same_scenario(generate_scenario(*spec_seeds),
                             frozen_generate_scenario(*spec_seeds))

    @pytest.mark.parametrize("spec", FIXED_SPECS)
    def test_fixed_specs(self, spec):
        assert_same_scenario(generate_scenario(spec, [7]), frozen_generate_scenario(spec, [7]))

    def test_spectral_config_is_passed_through(self):
        cfg = SpectralConfig(snr_linear=30.0, subcarrier_spacing_hz=15e3)
        spec = ScenarioSpec()
        assert_same_scenario(generate_scenario(spec, [3], cfg),
                             frozen_generate_scenario(spec, [3], cfg))

    @pytest.mark.parametrize("bounds", [(0.0, float("inf")), (1.0, float("nan"))])
    def test_non_finite_range_is_rejected(self, bounds):
        with pytest.raises(ValueError, match="not finite"):
            ScenarioSpec(speed_mps=bounds)


class TestOracleImport:
    def test_the_model_keeps_no_stand_in(self):
        # conftest.py sets them on the model only while the oracle imports
        import offloadlab
        for name in ("Device", "Channel", "Task", "implied_tx_power"):
            assert not hasattr(model, name) and not hasattr(offloadlab, name), name
        assert reference_datagen.Device is SimpleNamespace


class CountingCalcSe:
    """`calc_se` that records the (speed, carrier) of each call."""

    def __init__(self):
        self.calls = []

    def __call__(self, speed, carrier, config):
        self.calls.append((speed, carrier))
        return calc_se(speed, carrier, config)


@st.composite
def hand_built(draw):
    """Interleaved device ids, tied and zero-bit tasks, some idle devices."""
    n_devices = draw(st.integers(1, 4))
    computes = [(draw(st.floats(1e8, 2e9)), draw(st.floats(1e-29, 1e-27)))
                for _ in range(n_devices)]
    # speeds 100 m/s apart tell the devices' calc_se calls apart
    devices = [(*compute, draw(st.floats(1e5, 1e7)), draw(st.floats(1e-14, 1e-2)),
                draw(st.floats(0.1, 10.0)), float(100 * d), draw(st.floats(1e8, 3e10)))
               for d, compute in enumerate(computes)]
    bits = st.one_of(st.sampled_from([0.0, 0.0, 1e6]), st.floats(0.0, 8e6))
    tasks = [(draw(st.integers(0, n_devices - 1)), draw(bits), draw(st.floats(1.0, 2000.0)))
             for _ in range(draw(st.integers(0, 8)))]
    return scenario(devices, tasks)


class TestEndpointsMatchReference:
    @settings(max_examples=60, deadline=None)
    @given(specs())
    def test_sampled_scenarios(self, spec_seeds):
        self.check_sampled(*spec_seeds)

    @pytest.mark.parametrize("spec", FIXED_SPECS)
    def test_fixed_specs(self, spec):
        self.check_sampled(spec, [7])

    @staticmethod
    def check_sampled(spec, seeds):
        sc = generate_scenario(spec, seeds)
        got = task_energy_endpoints(sc)
        want = reference_datagen.task_energy_endpoints(
            frozen_view(sc), SpectralEfficiencyCache(sc.spectral_config))
        assert_same_arrays(got, want)

    @settings(max_examples=200, deadline=None)
    @given(hand_built())
    def test_one_lookup_per_device_with_data(self, sc):
        counter = CountingCalcSe()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(model, "calc_se", counter)
            got = task_energy_endpoints(sc)
        assert_same_arrays(got, reference_datagen.task_energy_endpoints(frozen_view(sc),
                                                                        calc_se))
        with_data = {t.device_id for t in sc.tasks if t.data_bits != 0.0}
        devices = [sc.devices[d] for d in with_data]  # speeds tell devices apart
        assert sorted(counter.calls) == sorted((d.speed_mps, d.carrier_freq_hz)
                                               for d in devices)
        assert np.all(got[1][[t.data_bits == 0.0 for t in sc.tasks]] == 0.0)

    def test_all_zero_bit_scenario_never_asks_the_spectral_efficiency(self, monkeypatch):
        sc = generate_scenario(ScenarioSpec(data_bits=(0.0, 0.0)), [2])
        counter = CountingCalcSe()
        monkeypatch.setattr(model, "calc_se", counter)
        local, offload = task_energy_endpoints(sc)
        assert counter.calls == []
        assert local.tobytes() == np.zeros(len(sc.tasks)).tobytes()
        assert offload.tobytes() == np.zeros(len(sc.tasks)).tobytes()

    def test_clocks_are_squared_like_the_scalar_formula(self):
        # clocks where libm's pow(f, 2) and numpy's array f**2 (f*f) round
        # apart in the last bit on x86-64 glibc
        clocks = (1278007393.6150818, 1137125273.373377, 1013315580.9087968,
                  513366164.98699516)
        sc = scenario([(f, 1e-28, 1e6, 1e-3, 1.0, 0.0, 1e9) for f in clocks],
                      [(d, 1e6, 1.0) for d in range(len(clocks))])
        assert_same_arrays(task_energy_endpoints(sc),
                           reference_datagen.task_energy_endpoints(frozen_view(sc), calc_se))

    def test_colliding_cache_keys_resolve_in_first_use_order(self):
        # two speeds 1e-7 m/s apart, and device 1's task comes first; each
        # device gets its own efficiency, as in the frozen loop, whose cache
        # keys on exact floats
        sc = scenario([(1e9, 1e-28, 1e6, 1e-3, 1.0, speed, 28e9)
                       for speed in (300.0, 300.0000001)],
                      [(1, 1e6, 900.0), (0, 2e6, 800.0)])
        assert_same_arrays(task_energy_endpoints(sc),
                           reference_datagen.task_energy_endpoints(
                               frozen_view(sc), SpectralEfficiencyCache()))


class TestDatasetMatchesReference:
    @settings(max_examples=25, deadline=None)
    @given(specs())
    def test_random_specs(self, spec_seeds):
        assert_same_dataset(*spec_seeds)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_balanced_specs(self, shape):
        spec = replace(balanced_spec(), n_devices=shape[0], tasks_per_device=shape[1])
        assert_same_dataset(spec, range(3))


finite = st.floats(allow_nan=False, allow_infinity=False)


class TestCsvBytesMatchReference:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 4).flatmap(
        lambda d: st.lists(st.lists(finite, min_size=d + 1, max_size=d + 1),
                           min_size=1, max_size=30)))
    def test_random_values(self, tmp_path_factory, rows):
        data = np.array(rows)
        names = tuple(f"f{i}" for i in range(data.shape[1] - 1))
        self._compare(Dataset(names, data[:, :-1], data[:, -1]),
                      tmp_path_factory.mktemp("csv"))

    @pytest.mark.parametrize("n_rows", [1023, 1024, 1025, 2049])
    def test_chunk_boundaries(self, tmp_path, n_rows):
        rng = np.random.default_rng(n_rows)
        X = rng.standard_normal((n_rows, len(CANONICAL_FEATURES))) * 10.0 ** rng.integers(
            -300, 300, size=(n_rows, len(CANONICAL_FEATURES)))
        X[0, 0], X[1, 1], X[2, 2] = -0.0, 5e-324, 1.7976931348623157e308
        self._compare(Dataset(CANONICAL_FEATURES, X, rng.random(n_rows)), tmp_path)

    @staticmethod
    def _compare(dataset, tmp_path):
        dataset.to_csv(tmp_path / "got.csv")
        reference_datagen.dataset_to_csv(dataset, tmp_path / "want.csv")
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def _run_cli(monkeypatch, reference: bool, args, out):
    if reference:
        monkeypatch.setattr(datagen, "generate_scenario", frozen_generate_scenario)
        monkeypatch.setattr(datagen, "build_dataset", frozen_build_dataset)
        monkeypatch.setattr(greedy, "task_energy_endpoints", lambda sc: (
            reference_datagen.task_energy_endpoints(
                frozen_view(sc), SpectralEfficiencyCache(sc.spectral_config))))
        monkeypatch.setattr(Dataset, "to_csv", reference_datagen.dataset_to_csv)
    assert main([*args, "--out", str(out)]) == 0
    monkeypatch.undo()
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


class TestCliBytesMatchReference:
    @pytest.mark.parametrize("args", [
        ["gen-data", "--datagen.n_scenarios", "30", "--seed", "4"],
        ["gen-data", "--datagen.n_scenarios", "3", "--seed", "9", "--greedy.step", "0.1",
         "--scenario.n_devices", "50", "--scenario.tasks_per_device", "40"],
        ["gen-data", "--datagen.n_scenarios", "5", "--seed", "2",
         "--scenario.data_bits", "0,4e6"],
        ["optimize", "--seed", "1", "--scenario.n_devices", "50",
         "--scenario.tasks_per_device", "40"],
    ])
    def test_default_ranges(self, tmp_path, monkeypatch, args):
        want = _run_cli(monkeypatch, True, args, tmp_path / "ref")
        got = _run_cli(monkeypatch, False, args, tmp_path / "new")
        assert got == want

    def test_balanced_gen_data(self, tmp_path, monkeypatch):
        spec = balanced_spec()
        ranges = {name: list(getattr(spec, name))
                  for name in ("cycles_per_bit", "cpu_freq_hz", "carrier_freq_hz",
                               "noise_var_w")}
        cfg = tmp_path / "balanced.yaml"
        cfg.write_text(json.dumps({"scenario": ranges}) + "\n")
        args = ["gen-data", "--config", str(cfg), "--datagen.n_scenarios", "40",
                "--seed", "11"]
        want = _run_cli(monkeypatch, True, args, tmp_path / "ref")
        got = _run_cli(monkeypatch, False, args, tmp_path / "new")
        assert sorted(got) == ["dataset.csv"]
        assert got == want


# init_ratio 1.0 is a one-level ladder and step 1.0 a two-level one
batch_configs = st.builds(
    greedy.GreedyConfig,
    init_ratio=st.sampled_from([0.0, 0.5, 0.9, 1.0]),
    step=st.sampled_from([1.0, 0.5, 0.3, 0.1]))


def assert_same_dataset(spec, seeds, gcfg=None):
    """`build_dataset`'s rows are the frozen loop's; returns the number of
    seeds in each batch it sampled."""
    sizes = []

    def spy(spec, seeds, spectral_config=None):
        sizes.append(len(seeds))
        return generate_scenario(spec, seeds, spectral_config)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(datagen, "generate_scenario", spy)
        got = build_dataset(spec, seeds, gcfg)
    want = frozen_build_dataset(spec, seeds, gcfg)
    assert got.feature_names == want.feature_names
    assert_same_arrays((got.X, got.y), (want.X, want.y))
    return sizes


def terminations(spec, seeds, gcfg):
    return [greedy.optimize(generate_scenario(spec, [seed]), gcfg).termination
            for seed in seeds]


class TestBatchesMatchReference:
    """`build_dataset` solves its seeds in batches; rows must be the frozen
    per-scenario loop's, whatever the batch cut."""

    @settings(max_examples=60, deadline=None)
    @given(specs(max_seeds=7), batch_configs, st.integers(1, 400))
    def test_random_specs_configs_and_cuts(self, spec_seeds, gcfg, cells):
        spec, seeds = spec_seeds
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(datagen, "BATCH_CELLS", cells)
            sizes = assert_same_dataset(spec, seeds, gcfg)
        cut = max(1, cells // (spec.n_tasks * len(gcfg.ladder(spec.n_tasks))))
        assert sizes == [len(seeds[lo:lo + cut]) for lo in range(0, len(seeds), cut)]

    def test_scenarios_of_one_batch_that_end_differently(self, monkeypatch):
        spec = replace(balanced_spec(), n_devices=1, tasks_per_device=2)
        gcfg = greedy.GreedyConfig()
        monkeypatch.setattr(datagen, "BATCH_CELLS",
                            3 * spec.n_tasks * len(gcfg.ladder(spec.n_tasks)))
        assert assert_same_dataset(spec, range(6), gcfg) == [3, 3]
        for batch in (range(3), range(3, 6)):
            ends = terminations(spec, batch, gcfg)
            assert set(ends) == {"saturated", "converged"}, ends

    @pytest.mark.parametrize("gcfg", [greedy.GreedyConfig(),
                                      greedy.GreedyConfig(init_ratio=1.0),
                                      greedy.GreedyConfig(step=1.0),
                                      greedy.GreedyConfig(init_ratio=0.0, step=0.3)],
                             ids=["default", "init-1", "step-1", "init-0-step-0.3"])
    @pytest.mark.parametrize("spec, seed", [
        # every task of a pinned spec has the same energies; a spec without
        # data has only zero energies, which no bump lowers
        (replace(PINNED, n_devices=3, tasks_per_device=4), 1),
        (ScenarioSpec(n_devices=1, tasks_per_device=1), 2),
        (ScenarioSpec(data_bits=(0.0, 0.0), n_devices=2), 3),
        (replace(balanced_spec(), n_devices=4, tasks_per_device=7), 4),
        (ScenarioSpec(data_bits=(0.0, 4e6), n_devices=2, tasks_per_device=3), 5),
        (replace(PINNED, n_devices=1, tasks_per_device=9), 6),
    ], ids=["pinned-3x4", "default-1x1", "no-bits-2x10", "balanced-4x7",
            "bits-from-zero-2x3", "pinned-1x9"])
    def test_shapes_tied_energies_and_tasks_without_data(self, monkeypatch, gcfg, spec,
                                                         seed):
        # batches of two seeds, so that a call spans batches and a batch
        # packs scenarios
        monkeypatch.setattr(datagen, "BATCH_CELLS",
                            2 * spec.n_tasks * len(gcfg.ladder(spec.n_tasks)))
        assert assert_same_dataset(spec, range(seed, seed + 3), gcfg) == [2, 1]

    def test_more_seeds_than_a_batch_holds(self):
        assert assert_same_dataset(balanced_spec(), range(20, 80)) == [25, 25, 10]

    def test_a_scenario_past_the_batch_bound_is_a_batch_of_its_own(self):
        big = ScenarioSpec(n_devices=50, tasks_per_device=40)
        gcfg = greedy.GreedyConfig()
        assert 2000 * len(gcfg.ladder(big.n_tasks)) > datagen.BATCH_CELLS
        assert assert_same_dataset(big, range(8, 11), gcfg) == [1, 1, 1]

    def test_a_batch_is_sampled_as_one_scenario(self, monkeypatch):
        sampled = []

        def spy(spec, seeds, spectral_config=None):
            scenario = generate_scenario(spec, seeds, spectral_config)
            sampled.append(len(scenario.tasks))
            return scenario
        monkeypatch.setattr(datagen, "generate_scenario", spy)
        build_dataset(balanced_spec(), range(30))
        assert sampled == [25 * 50, 5 * 50]


def _error_run(monkeypatch, capsys, reference: bool, args, out):
    if reference:
        monkeypatch.setattr(datagen, "build_dataset", frozen_build_dataset)
    capsys.readouterr()
    code = main([*args, "--out", str(out)])
    monkeypatch.undo()
    return code, capsys.readouterr().err


# one device, four tasks: a task of more than about 7.5e6 bits has an
# endpoint past the float range; three or four large ones overflow only the
# starting total
_OVERFLOWING = ["gen-data", "--scenario.n_devices", "1", "--scenario.tasks_per_device", "4",
                "--scenario.cpu_freq_hz", "1e9,1e9", "--scenario.cycles_per_bit", "1e3,1e3",
                "--scenario.energy_coeff", "2.4e280,2.4e280", "--datagen.n_scenarios", "6"]


def _failure(spec, seed):
    """Which error the scenario of `spec` at `seed` raises on its own: '.',
    'total' or 'endpoint'."""
    try:
        greedy.optimize(generate_scenario(spec, [seed]), greedy.GreedyConfig())
    except ValueError as exc:
        return "total" if "starting total" in str(exc) else "endpoint"
    return "."


class TestBatchErrorsMatchReference:
    @pytest.mark.parametrize("seed, first, message", [
        (2, "total", "error: the starting total energy is inf\n"),
        (70, "endpoint", "error: a task's energy overflows or is not finite\n"),
    ])
    def test_the_first_failing_scenario_names_the_error(self, tmp_path, monkeypatch, capsys,
                                                        seed, first, message):
        spec = replace(ScenarioSpec(n_devices=1, tasks_per_device=4), cpu_freq_hz=(1e9, 1e9),
                       cycles_per_bit=(1e3, 1e3), energy_coeff=(2.4e280, 2.4e280))
        with np.errstate(over="ignore"):
            kinds = [_failure(spec, seed + i) for i in range(6)]
        # scenario k of the one batch fails first, and a later one fails
        # the other way
        k = next(i for i, kind in enumerate(kinds) if kind != ".")
        assert k >= 1 and kinds[k] == first and len(set(kinds[k:]) - {"."}) == 2, kinds
        args = [*_OVERFLOWING, "--seed", str(seed)]
        want = _error_run(monkeypatch, capsys, True, args, tmp_path / "ref")
        got = _error_run(monkeypatch, capsys, False, args, tmp_path / "new")
        assert got == want == (1, message)
        assert not (tmp_path / "ref").exists() and not (tmp_path / "new").exists()


class TestCliSpansBatches:
    def test_gen_data_of_three_batches(self, tmp_path, monkeypatch):
        spec = balanced_spec()
        ranges = {name: list(getattr(spec, name))
                  for name in ("cycles_per_bit", "cpu_freq_hz", "carrier_freq_hz",
                               "noise_var_w")}
        cfg = tmp_path / "balanced.yaml"
        cfg.write_text(json.dumps({"scenario": ranges}) + "\n")
        args = ["gen-data", "--config", str(cfg), "--datagen.n_scenarios", "70",
                "--seed", "13"]
        want = _run_cli(monkeypatch, True, args, tmp_path / "ref")
        calls = []
        monkeypatch.setattr(datagen, "generate_scenario",
                            lambda spec, seeds, config: calls.append(len(seeds))
                            or generate_scenario(spec, seeds, config))
        got = _run_cli(monkeypatch, False, args, tmp_path / "new")
        assert calls == [25, 25, 20]
        assert sorted(got) == ["dataset.csv"]
        assert got == want
