"""Differential and closed-form checks of the heap-driven greedy.

`reference_greedy` is a frozen copy of the original vectorised loop and CSV
writer.  The library's `optimize` must agree with it exactly (same picks,
bit-identical totals, same termination) and the CLI must write the same
bytes with either.  The oracle prices tasks with `reference_datagen`'s frozen
per-task endpoint loop, which asks a spectral-efficiency source; it gets a
cache of the scenario's own config, which is what the library prices with.
The closed-form oracle is the per-task threshold optimum: energy is affine
in each ratio and the tasks are independent, so the best reachable total is
sum_i min(local_i, offload_i).
"""

import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_greedy
from helpers import balanced_spec
from offloadlab import greedy
from offloadlab.cli import main
from offloadlab.datagen import ScenarioSpec, generate_scenario
from offloadlab.greedy import (GreedyConfig, TERMINATION_CONVERGED, optimize,
                               task_energy_endpoints)
from offloadlab.model import Channel, Device, Scenario, Task
from offloadlab.spectral import SpectralConfig, SpectralEfficiencyCache

# Small value pools make exact ties between task energies likely.
_BITS = st.one_of(st.sampled_from([0.0, 1e6, 2e6, 4e6]), st.floats(0.0, 8e6))
_CYCLES = st.one_of(st.sampled_from([500.0, 1000.0]), st.floats(500.0, 1500.0))
_CPU = st.one_of(st.just(1e9), st.floats(5e8, 1.5e9))
# Offload per bit spans about 0.1x to 10x the local cost per bit, so runs
# converge, saturate part-way or saturate at once.
_NOISE = st.one_of(st.sampled_from([1e-3, 1e-2]),
                   st.floats(-5.0, 0.0).map(lambda e: 10.0 ** e))


@st.composite
def scenarios(draw):
    n_devices = draw(st.integers(1, 3))
    devices = tuple(Device(id=d, cpu_freq_hz=draw(_CPU), energy_coeff=1e-28)
                    for d in range(n_devices))
    channels = tuple(Channel(bandwidth_hz=1e6, noise_var_w=draw(_NOISE), gain=1.0,
                             speed_mps=0.0, carrier_freq_hz=1e9)
                     for _ in range(n_devices))
    tasks = tuple(Task(device_id=draw(st.integers(0, n_devices - 1)), task_id=k + 1,
                       data_bits=draw(_BITS), cycles_per_bit=draw(_CYCLES))
                  for k in range(draw(st.integers(1, 6))))
    return Scenario(devices=devices, tasks=tasks, channels=channels,
                    spectral_config=SpectralConfig())


greedy_configs = st.builds(
    GreedyConfig,
    init_ratio=st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0)),
    step=st.one_of(st.sampled_from([1.0, 0.5, 0.3, 0.1, 0.01]), st.floats(0.01, 1.0)),
    max_iters=st.one_of(st.none(), st.integers(1, 20)),
)


def frozen_optimize(sc, cfg):
    """The frozen loop on the scenario as it prices itself."""
    return reference_greedy.optimize(sc, cfg, SpectralEfficiencyCache(sc.spectral_config))


def assert_same_solution(got, want):
    assert got.offload_ratios.dtype == want.offload_ratios.dtype
    assert got.offload_ratios.tobytes() == want.offload_ratios.tobytes()
    assert got.per_task_energy.dtype == want.per_task_energy.dtype
    assert got.per_task_energy.tobytes() == want.per_task_energy.tobytes()
    assert got.total_energy == want.total_energy
    assert [e.iteration for e in want.trace] == list(range(len(want.trace)))
    assert got.trace_totals == [e.total_energy for e in want.trace]
    assert got.trace_picks == [-1 if e.adjusted_task_index is None
                               else e.adjusted_task_index for e in want.trace]
    assert got.termination == want.termination


class TestMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(scenarios(), greedy_configs)
    def test_random_scenarios(self, sc, cfg):
        assert_same_solution(optimize(sc, cfg), frozen_optimize(sc, cfg))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000), st.booleans(), greedy_configs)
    def test_sampled_scenarios(self, seed, balanced, cfg):
        spec = balanced_spec(seed) if balanced else ScenarioSpec(seed=seed)
        sc = generate_scenario(replace(spec, n_devices=2, tasks_per_device=4))
        assert_same_solution(optimize(sc, cfg), frozen_optimize(sc, cfg))

    def test_scenario_carries_its_spectral_config(self):
        spectral = SpectralConfig(snr_linear=30.0, subcarrier_spacing_hz=15e3)
        spec = ScenarioSpec(seed=4)
        sc = generate_scenario(spec, spectral)
        got = optimize(sc, GreedyConfig())
        assert_same_solution(got, reference_greedy.optimize(
            sc, GreedyConfig(), SpectralEfficiencyCache(spectral)))
        default = optimize(generate_scenario(spec), GreedyConfig())
        assert got.per_task_energy.tolist() != default.per_task_energy.tolist()
        assert got.trace_totals != default.trace_totals

    def test_all_tasks_tied(self):
        dev = Device(id=0, cpu_freq_hz=1e9, energy_coeff=1e-28)
        ch = Channel(bandwidth_hz=1e6, noise_var_w=1e-3, gain=1.0,
                     speed_mps=0.0, carrier_freq_hz=1e9)
        tasks = tuple(Task(device_id=0, task_id=k + 1, data_bits=2e6,
                           cycles_per_bit=1000.0) for k in range(5))
        sc = Scenario(devices=(dev,), tasks=tasks, channels=(ch,),
                      spectral_config=SpectralConfig())
        for cfg in (GreedyConfig(), GreedyConfig(step=1.0), GreedyConfig(init_ratio=0.0)):
            assert_same_solution(optimize(sc, cfg), frozen_optimize(sc, cfg))


def _run_cli(monkeypatch, reference: bool, args, out):
    if reference:
        monkeypatch.setattr(greedy, "optimize", frozen_optimize)
        monkeypatch.setattr(greedy, "write_trace_csv", reference_greedy.write_trace_csv)
    assert main([*args, "--out", str(out)]) == 0
    monkeypatch.undo()
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


class TestCliBytesMatchReference:
    @pytest.mark.parametrize("args", [
        ["optimize", "--seed", "3"],
        ["optimize", "--seed", "5", "--greedy.init_ratio", "0.0", "--greedy.step", "0.3"],
        ["optimize", "--seed", "7", "--greedy.max_iters", "17"],
        ["optimize", "--seed", "1", "--scenario.noise_var_w", "6.6e-3,6.6e-3"],
        ["optimize", "--seed", "1", "--scenario.n_devices", "50",
         "--scenario.tasks_per_device", "40"],
    ])
    def test_optimize(self, tmp_path, monkeypatch, args):
        want = _run_cli(monkeypatch, True, args, tmp_path / "ref")
        got = _run_cli(monkeypatch, False, args, tmp_path / "new")
        assert sorted(got) == ["solution.json", "trace.csv"]
        assert got == want

    def test_balanced_gen_data(self, tmp_path, monkeypatch):
        spec = balanced_spec(0)
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


def _threshold_optimum(sc) -> float:
    local, offload = task_energy_endpoints(sc)
    return float(np.minimum(local, offload).sum())


class TestClosedFormOptimum:
    @settings(max_examples=200, deadline=None)
    @given(scenarios(), greedy_configs)
    def test_never_below_threshold_optimum(self, sc, cfg):
        optimum = _threshold_optimum(sc)
        sol = optimize(sc, cfg)
        assert sol.total_energy >= optimum - 1e-12 * abs(optimum)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 4), st.integers(1, 8))
    def test_default_ranges_reach_the_optimum(self, seed, n_devices, tasks_per_device):
        sc = generate_scenario(ScenarioSpec(seed=seed, n_devices=n_devices,
                                            tasks_per_device=tasks_per_device))
        local, offload = task_energy_endpoints(sc)
        assert np.all(offload < local)  # offloading everything is optimal
        sol = optimize(sc, GreedyConfig())
        assert sol.termination == TERMINATION_CONVERGED
        assert sol.total_energy == _threshold_optimum(sc)
