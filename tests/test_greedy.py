import csv
import math

import numpy as np
import pytest

from offloadlab import greedy
from offloadlab.cli import main
from offloadlab.config import ConfigError, ExperimentConfig, load_config
from offloadlab.greedy import (GreedyConfig, TERMINATION_CONVERGED,
                               TERMINATION_ITER_CAPPED, TERMINATION_SATURATED,
                               optimize, write_trace_csv)
from offloadlab.datagen import ScenarioSpec, generate_scenario
from offloadlab.model import Scenario, energy_at, task_energy_endpoints

import reference_datagen
from helpers import (EX_SE, example_channel, example_device, priced_at, scenario,
                     small_scenario)


def default_scenario(seed: int) -> Scenario:
    return generate_scenario(ScenarioSpec(seed=seed))


class TestConfig:
    def test_defaults(self):
        cfg = GreedyConfig()
        assert cfg.init_ratio == 0.5
        assert cfg.step == 0.01
        assert cfg.max_iters is None
        assert cfg.resolve_max_iters(50) == math.ceil(10 * 50 / 0.01)

    def test_validation(self):
        with pytest.raises(ValueError):
            GreedyConfig(init_ratio=1.2)
        with pytest.raises(ValueError):
            GreedyConfig(step=0.0)
        with pytest.raises(ValueError):
            GreedyConfig(max_iters=0)


class TestGetTotalEnergy:
    """A task's energy at a ratio, `energy_at(*task_energy_endpoints(sc), ratios)`."""

    def test_matches_per_task_model(self):
        # the frozen per-task loop, both priced at EX_SE
        sc = small_scenario()
        with priced_at(EX_SE):
            got = energy_at(*task_energy_endpoints(sc), np.full(3, 0.5))
        local, offload = reference_datagen.task_energy_endpoints(
            sc, lambda speed, carrier: EX_SE)
        np.testing.assert_allclose(got, 0.5 * local + 0.5 * offload, rtol=1e-12)

    def test_all_local(self):
        sc = small_scenario()
        got = energy_at(*task_energy_endpoints(sc), np.zeros(3))
        for i, task in enumerate(sc.tasks):
            dev = sc.devices[task.device_id]
            expected = dev.energy_coeff * task.cycles_per_bit * dev.cpu_freq_hz ** 2 * task.data_bits
            assert got[i] == pytest.approx(expected, rel=1e-12)

    def test_all_offload(self):
        sc = small_scenario()
        got = energy_at(*task_energy_endpoints(sc), np.ones(3))
        for i, task in enumerate(sc.tasks):
            ch = sc.channels[task.device_id]
            p = (2.0 ** EX_SE - 1.0) * ch.noise_var_w / ch.gain
            expected = p * task.data_bits / (ch.bandwidth_hz * EX_SE)
            assert got[i] == pytest.approx(expected, rel=1e-12, abs=0.0)


class TestOptimize:
    def test_expensive_offload_saturates_immediately(self):
        # transmit power dwarfs the CPU: the very first probe fails
        sc = small_scenario(noise_var_w=1.0)
        sol = optimize(sc, GreedyConfig())
        assert sol.termination == TERMINATION_SATURATED
        assert np.all(sol.offload_ratios == 0.5)
        assert len(sol.trace_totals) == 2
        assert sol.trace_totals[1] >= sol.trace_totals[0]
        assert sol.total_energy == sol.trace_totals[0]

    def test_cheap_offload_converges_to_full(self):
        sc = default_scenario(seed=1)
        sol = optimize(sc, GreedyConfig())
        assert sol.termination == TERMINATION_CONVERGED
        assert np.all(sol.offload_ratios == 1.0)
        assert sol.total_energy < sol.trace_totals[0]
        # 50 bumps per task, plus the initial evaluation
        assert sol.evaluations == 50 * len(sc.tasks) + 1
        totals = sol.trace_totals
        assert all(b < a for a, b in zip(totals, totals[1:]))

    def test_iteration_cap_is_reported(self):
        sc = default_scenario(seed=1)
        sol = optimize(sc, GreedyConfig(max_iters=3))
        assert sol.termination == TERMINATION_ITER_CAPPED
        assert sol.evaluations == 4
        assert sol.total_energy == sol.trace_totals[-1]

    def test_never_worse_than_start(self):
        for seed in range(5):
            sc = default_scenario(seed=seed)
            sol = optimize(sc, GreedyConfig())
            assert sol.total_energy <= sol.trace_totals[0]

    def test_evaluation_bound(self):
        cfg = GreedyConfig()
        for seed in range(5):
            sc = default_scenario(seed=seed)
            sol = optimize(sc, cfg)
            bound = math.ceil((1.0 - cfg.init_ratio) / cfg.step) * len(sc.tasks) + 1
            assert sol.evaluations <= bound

    def test_trace_iterations_count_up(self):
        sc = default_scenario(seed=2)
        sol = optimize(sc, GreedyConfig())
        # evaluation i is row i of both lists; only the first has no pick
        assert len(sol.trace_picks) == len(sol.trace_totals)
        assert sol.trace_picks[0] == -1
        assert all(p >= 0 for p in sol.trace_picks[1:])

    def test_solution_totals_are_consistent(self):
        sc = default_scenario(seed=3)
        sol = optimize(sc, GreedyConfig())
        assert sol.total_energy == math.fsum(sol.per_task_energy)
        recomputed = energy_at(*task_energy_endpoints(sc), sol.offload_ratios)
        assert np.allclose(recomputed, sol.per_task_energy, rtol=1e-12, atol=0.0)

    def test_deterministic(self):
        sc = default_scenario(seed=4)
        a = optimize(sc, GreedyConfig())
        b = optimize(sc, GreedyConfig())
        assert np.array_equal(a.offload_ratios, b.offload_ratios)
        assert a.total_energy == b.total_energy
        assert np.array_equal(a.trace_totals, b.trace_totals)
        assert np.array_equal(a.trace_picks, b.trace_picks)

    def test_tie_goes_to_lowest_task_index(self):
        twin = (0, 4e6, 1000.0)
        sc = scenario([example_device()], [twin, twin], [example_channel()])
        sol = optimize(sc, GreedyConfig())
        assert sol.trace_picks[1] == 0

    def test_ratios_snap_to_exactly_one(self):
        sc = default_scenario(seed=5)
        sol = optimize(sc, GreedyConfig())
        assert sol.offload_ratios.max() == 1.0

    def test_empty_scenario_rejected(self):
        sc = scenario([example_device()], [], [example_channel()])
        with pytest.raises(ValueError):
            optimize(sc, GreedyConfig())

    def test_init_at_one_converges_at_once(self):
        sc = small_scenario()
        sol = optimize(sc, GreedyConfig(init_ratio=1.0))
        assert sol.termination == TERMINATION_CONVERGED
        assert len(sol.trace_totals) == 1
        assert np.all(sol.offload_ratios == 1.0)


def _saturated():
    return small_scenario(noise_var_w=1.0), GreedyConfig()


def _converged():
    return default_scenario(seed=1), GreedyConfig()


def _iter_capped():
    return default_scenario(seed=1), GreedyConfig(max_iters=3)


class TestTraceLists:
    @pytest.mark.parametrize("make, termination", [
        (_saturated, TERMINATION_SATURATED),
        (_converged, TERMINATION_CONVERGED),
        (_iter_capped, TERMINATION_ITER_CAPPED),
    ])
    def test_lists_describe_the_run(self, make, termination):
        sc, cfg = make()
        sol = optimize(sc, cfg)
        assert sol.termination == termination
        assert sol.evaluations == len(sol.trace_totals) == len(sol.trace_picks)
        assert sol.trace_picks[0] == -1
        assert all(p in range(len(sc.tasks)) for p in sol.trace_picks[1:])
        assert sol.total_energy == min(sol.trace_totals)
        assert sol.trace_totals.dtype == np.float64
        assert sol.trace_picks.dtype.kind == "i"

    def test_init_at_one_writes_one_row(self, tmp_path):
        sol = optimize(small_scenario(), GreedyConfig(init_ratio=1.0))
        path = tmp_path / "trace.csv"
        write_trace_csv(sol, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows == [["iteration", "total_energy_j", "task_index"],
                        ["0", repr(sol.total_energy), "-1"]]


class TestBruteForce:
    def test_two_task_grid(self):
        # small version of the acceptance sweep: exhaustive 101x101 lattice
        rng = np.random.default_rng(7)
        grid = np.linspace(0.0, 1.0, 101)
        for _ in range(5):
            dev = (rng.uniform(5e8, 1.5e9), 1e-28)
            # (bandwidth_hz, noise_var_w, gain, speed_mps, carrier_freq_hz)
            ch = (1e6, 10 ** rng.uniform(-10, 0), 1.0, rng.uniform(0, 400),
                  rng.uniform(1e9, 3e10))
            tasks = [(0, rng.uniform(1e6, 8e6), rng.uniform(500, 1500)) for _ in range(2)]
            sc = scenario([dev], tasks, [ch])
            per0 = energy_at(*task_energy_endpoints(sc), np.zeros(2))
            per1 = energy_at(*task_energy_endpoints(sc), np.ones(2))
            surface = ((per0[0] * (1 - grid) + per1[0] * grid)[:, None]
                       + (per0[1] * (1 - grid) + per1[1] * grid)[None, :])
            optimum = float(surface.min())
            sol = optimize(sc, GreedyConfig())
            assert sol.total_energy >= optimum - 1e-9 * abs(optimum)


class TestTraceCsv:
    def test_round_trip(self, tmp_path):
        sc = small_scenario()
        sol = optimize(sc, GreedyConfig())
        path = tmp_path / "trace.csv"
        write_trace_csv(sol, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["iteration", "total_energy_j", "task_index"]
        assert rows[1][0] == "0" and rows[1][2] == "-1"
        assert len(rows) == sol.evaluations + 1
        for row, total in zip(rows[1:], sol.trace_totals):
            assert float(row[1]) == total


class TestNonFiniteTotals:
    def test_overflowing_starting_total_rejected(self, monkeypatch):
        # each endpoint is finite, their sum is not
        huge = np.full(3, 1e308)
        monkeypatch.setattr(greedy, "task_energy_endpoints", lambda sc: (huge, huge))
        with np.errstate(over="ignore"), \
                pytest.raises(ValueError, match="starting total energy is inf"):
            optimize(small_scenario(), GreedyConfig())


class TestExactTotals:
    def test_chunks_carry_the_running_sum(self, monkeypatch):
        # more bumps than one chunk holds
        monkeypatch.setattr(greedy, "_CHUNK", 7)
        sc = default_scenario(seed=3)
        sol = optimize(sc, GreedyConfig(step=0.1))
        assert sol.evaluations > 7 * 4
        local, offload = greedy.task_energy_endpoints(sc)
        levels = np.zeros(len(local), dtype=int)
        for j, pick in enumerate(sol.trace_picks.tolist()):
            if pick >= 0:
                levels[pick] += 1
            state = sol.ladder_energy[np.arange(len(local)), levels]
            assert sol.trace_totals[j] == math.fsum(state.tolist())

    @pytest.mark.parametrize("tiny, want", [(5e-324, 2.0 ** 53 + 2), (-5e-324, 2.0 ** 53)])
    def test_the_lowest_digit_breaks_a_half_way_tie(self, tiny, want):
        # 2**53 + 1 lies half-way between 2**53 and 2**53 + 2 and rounds to
        # even; the subnormal, 1127 bits lower in the last of many digits,
        # decides which way it goes
        column = np.array([[2.0 ** 53], [1.0], [tiny]])
        assert len(greedy._grains(column.ravel(), 3)) > 4
        assert greedy._exact_totals(column[:2]).tolist() == [2.0 ** 53]
        assert greedy._exact_totals(column).tolist() == [want]
        assert math.fsum(column.ravel().tolist()) == want

    def test_fsum_overflow_still_gives_the_exact_total(self):
        # energies are nonnegative, so a partial sum past the float range
        # puts the total past it too
        for values in ([1e308, 1e308], [1e308, 1e308, math.inf], [1.0, 1e308, 1e308, 0.0]):
            with pytest.raises(OverflowError):
                math.fsum(values)
            assert greedy._fsum(np.array(values)) == math.inf

    def test_an_all_zero_ladder_sums_to_positive_zero(self):
        energy = np.array([[0.0, -0.0, 0.0], [-0.0, -0.0, 0.0]])
        totals = greedy._exact_totals(energy, np.array([0, 3, 1, 4]))
        assert totals.view(np.int64).tolist() == [0] * 5  # +0.0 bits, no -0.0


class TestLadder:
    @pytest.mark.parametrize("init_ratio, step", [
        (0.5, 0.01), (0.0, 0.1), (0.0, 0.3), (0.37, 0.07), (0.0, 1.0), (0.5, 1.0),
        (0.999, 0.5), (1.0 - 1e-13, 0.01), (0.1, 1e-4),
        # each + step rounds down to one ulp: 81,066 levels, not 64,352
        (1.0 - 1e-11, 1.554e-16)])
    def test_repeated_addition_then_the_pin(self, init_ratio, step):
        want = [init_ratio]
        while want[-1] < 1.0:
            bumped = want[-1] + step
            want.append(1.0 if bumped >= 1.0 - 1e-12 else bumped)
        assert greedy._ladder(init_ratio, step).tolist() == want

    def test_init_at_one_is_one_level(self):
        assert greedy._ladder(1.0, 0.01).tolist() == [1.0]

    def test_a_step_below_the_rounding_ends_the_ladder(self):
        init = 1.0 - 1e-11
        assert greedy._ladder(init, 1e-17).tolist() == [init, init]


class TestBoundedRun:
    def test_cap_is_tasks_times_levels(self):
        cfg = GreedyConfig()
        levels = math.ceil(0.5 / 0.01) + 1
        n = greedy.MAX_LADDER_CELLS // levels
        cfg.check_size(n)
        with pytest.raises(ValueError, match=rf"{n + 1} tasks x {levels} ratio levels"):
            cfg.check_size(n + 1)

    def test_tiny_step_refused_before_any_work(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("the run started")
        monkeypatch.setattr(greedy, "task_energy_endpoints", unreachable)
        monkeypatch.setattr(greedy, "_ladder", unreachable)
        with pytest.raises(ValueError, match=r"3 tasks x 500000001 ratio levels is over "
                                             rf"the cap of {greedy.MAX_LADDER_CELLS} cells"):
            optimize(small_scenario(), GreedyConfig(step=1e-9))

    def test_a_ladder_that_rounding_lengthens_is_counted_as_built(self, monkeypatch):
        # 70 x 64,352 nominal levels fit the cap; the 81,066 built ones do not
        def unreachable(*args):
            raise AssertionError("the run started")
        monkeypatch.setattr(greedy, "task_energy_endpoints", unreachable)
        cfg = GreedyConfig(init_ratio=1.0 - 1e-11, step=1.554e-16)
        cfg.check_size(70)
        sc = generate_scenario(ScenarioSpec(seed=0, n_devices=7, tasks_per_device=10))
        with pytest.raises(ValueError, match="70 tasks x 81066 ratio levels"):
            optimize(sc, cfg)

    def test_config_error(self):
        with pytest.raises(ValueError, match="50 tasks x 500000001 ratio levels"):
            ExperimentConfig(greedy=GreedyConfig(step=1e-9))
        with pytest.raises(ConfigError, match="ratio levels"):
            load_config(overrides={"scenario.tasks_per_device": "100000"})
        load_config(overrides={"scenario.tasks_per_device": "10000"})

    def test_cli_exits_2_without_making_out(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["optimize", "--greedy.step", "1e-9", "--out", str(out)]) == 2
        assert not out.exists()
        assert "over the cap" in capsys.readouterr().err
