import csv
import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from offloadlab import greedy
from offloadlab.cli import main
from offloadlab.config import ConfigError, ExperimentConfig, load_config
from offloadlab.greedy import (GreedyConfig, TERMINATION_CONVERGED, TERMINATION_SATURATED,
                               optimize, write_trace_csv)
from offloadlab.datagen import ScenarioSpec, generate_scenario
from offloadlab.model import Scenario, energy_at, task_energy_endpoints

import reference_datagen
from helpers import (EX_SE, balanced_spec, example_device, frozen_view, priced_at, scenario,
                     small_scenario)


def default_scenario(seed: int) -> Scenario:
    return generate_scenario(ScenarioSpec(), [seed])


class TestConfig:
    def test_defaults(self):
        cfg = GreedyConfig()
        assert cfg.init_ratio == 0.5
        assert cfg.step == 0.01

    def test_validation(self):
        with pytest.raises(ValueError):
            GreedyConfig(init_ratio=1.2)
        with pytest.raises(ValueError):
            GreedyConfig(step=0.0)


class TestGetTotalEnergy:
    """A task's energy at a ratio, `energy_at(*task_energy_endpoints(sc), ratios)`."""

    def test_matches_per_task_model(self):
        # the frozen per-task loop, both priced at EX_SE
        sc = small_scenario()
        with priced_at(EX_SE):
            got = energy_at(*task_energy_endpoints(sc), np.full(3, 0.5))
        local, offload = reference_datagen.task_energy_endpoints(
            frozen_view(sc), lambda speed, carrier: EX_SE)
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
            dev = sc.devices[task.device_id]
            p = (2.0 ** EX_SE - 1.0) * dev.noise_var_w / dev.gain
            expected = p * task.data_bits / (dev.bandwidth_hz * EX_SE)
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
        sc = scenario([example_device()], [twin, twin])
        sol = optimize(sc, GreedyConfig())
        assert sol.trace_picks[1] == 0

    def test_ratios_snap_to_exactly_one(self):
        sc = default_scenario(seed=5)
        sol = optimize(sc, GreedyConfig())
        assert sol.offload_ratios.max() == 1.0

    def test_empty_scenario_rejected(self):
        sc = scenario([example_device()], [])
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


class TestTraceLists:
    @pytest.mark.parametrize("make, termination", [
        (_saturated, TERMINATION_SATURATED),
        (_converged, TERMINATION_CONVERGED),
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


def stable_picks(energy: np.ndarray) -> np.ndarray:
    """The pick order as one stable argsort of the kept cells' -energy."""
    top = energy.shape[1] - 1
    kept = np.arange(top + 1) < np.minimum(greedy._stalls(energy) + 1, top)[:, None]
    return np.flatnonzero(kept)[np.argsort(-energy[kept], kind="stable")]


def streamed_picks(energy: np.ndarray, count=None) -> np.ndarray:
    """The pick stream's chunks joined: its first `count` cells, or all."""
    if count is None:
        count = len(stable_picks(energy))
    return np.concatenate([np.empty(0, dtype=np.intp), *greedy._picks(energy, count)])


def streamed_totals(energy: np.ndarray, chunks) -> np.ndarray:
    """The start's total, then those after each chunk of bumps, joined."""
    start, after = greedy._exact_totals(energy, sum(map(len, chunks)))
    return np.concatenate([start, *map(after, chunks)])


# easily tied energies: signed zeros, the least subnormal, neighbouring floats
_ENERGY_POOL = [-0.0, 0.0, 5e-324, 0.5, 1.0, 1.0 + 2.0**-52, 2.0, 3.0]


@st.composite
def ladders(draw):
    """(tasks, levels) energies: cells from a small drawn pool, or each
    task's affine ladder between two energies from it; sometimes every task
    is the same.  Up to 400 tasks, enough for numpy's default sort to
    reorder ties, and down to one task and one level."""
    tasks = draw(st.sampled_from([1, 2, 3, 5, 64, 400]))
    levels = draw(st.integers(1, 6))
    pool = np.array(draw(st.lists(st.sampled_from(_ENERGY_POOL), min_size=1, max_size=4)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    if draw(st.booleans()):
        energy = pool[rng.integers(0, len(pool), size=(tasks, levels))]
    else:
        ends = pool[rng.integers(0, len(pool), size=(2, tasks))]
        energy = energy_at(ends[0][:, None], ends[1][:, None], np.linspace(0.0, 1.0, levels))
    if draw(st.booleans()):
        energy[:] = energy[0]
    return energy


def pinned_scenario() -> Scenario:
    """Every range pinned: all tasks have the same energies, so all tie."""
    return generate_scenario(ScenarioSpec(**{
        name: (value[0], value[0]) for name, value in vars(ScenarioSpec()).items()
        if isinstance(value, tuple)}), [0])


class TestPicks:
    @settings(max_examples=300, deadline=None)
    @given(energy=ladders())
    def test_the_order_of_one_stable_argsort(self, energy):
        assert np.array_equal(streamed_picks(energy), stable_picks(energy))

    # bands of 1 to 3 cells and chunks of 1 to 4 picks, so that tied cells
    # (-0.0 and 0.0 among them) fall on both sides of band and chunk edges
    @settings(max_examples=300, deadline=None)
    @given(energy=ladders(), band=st.integers(1, 3), rows=st.integers(1, 4), cut=st.floats(0, 1))
    def test_tiny_bands_give_the_order_of_one_stable_argsort(self, energy, band, rows, cut):
        want = stable_picks(energy)
        count = int(cut * len(want))  # a saturated run stops part of the way
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(greedy, "_BAND", band)
            mp.setattr(greedy, "_ROWS", rows)
            chunks = list(greedy._picks(energy, count))
        assert all(len(chunk) == rows for chunk in chunks[:-1])
        assert np.array_equal(np.concatenate([np.empty(0, dtype=np.intp), *chunks]),
                              want[:count])

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32), tasks=st.sampled_from([1, 7, 400]))
    def test_distinct_energies(self, seed, tasks):
        rng = np.random.default_rng(seed)
        energy = energy_at(rng.uniform(0.0, 10.0, size=(tasks, 1)),
                           rng.uniform(0.0, 10.0, size=(tasks, 1)), greedy._ladder(0.5, 0.1))
        assert np.array_equal(streamed_picks(energy), stable_picks(energy))

    @pytest.mark.parametrize("seed", range(20))
    def test_signed_zeros_are_a_tie(self, seed):
        # distinct energies but for one 0.0 and one -0.0, which numpy's
        # default sort often swaps; one level below the top is kept per task
        rng = np.random.default_rng(seed)
        energy = np.zeros((64, 2))
        energy[:, 0] = rng.permutation(np.arange(1.0, 65.0))
        energy[rng.choice(64, 2, replace=False), 0] = 0.0, -0.0
        assert np.array_equal(streamed_picks(energy), stable_picks(energy))

    @pytest.mark.parametrize("step", [0.1, 0.01])
    @pytest.mark.parametrize("band", [1, 7, 64])
    @pytest.mark.parametrize("spec", ["default", "pinned", "balanced"])
    def test_runs_with_tiny_bands(self, monkeypatch, spec, band, step):
        # converged, all-tied and saturated runs, one band cut into many
        sc = {"default": lambda: default_scenario(seed=3), "pinned": pinned_scenario,
              "balanced": lambda: generate_scenario(balanced_spec(), [4])}[spec]()
        cfg = GreedyConfig(step=step)
        sol = optimize(sc, cfg)
        want = stable_picks(sol.ladder_energy)[:sol.evaluations - 1] // len(sol.ladder)
        totals = sol.trace_totals
        monkeypatch.setattr(greedy, "_BAND", band)
        monkeypatch.setattr(greedy, "_ROWS", 5)
        assert sol.trace_picks.tolist() == [-1, *want.tolist()]
        assert sol.trace_totals.tobytes() == totals.tobytes()

    def test_a_one_evaluation_run_streams_its_start(self, monkeypatch):
        monkeypatch.setattr(greedy, "_BAND", 1)
        sol = optimize(small_scenario(), GreedyConfig(init_ratio=1.0))
        assert sol.evaluations == 1
        assert [tasks.tolist() for _, tasks in sol.trace()] == [[-1]]

    @staticmethod
    def sort_kinds(monkeypatch, solution) -> list:
        """The kinds of the argsorts that sorting out the trace's picks makes."""
        kinds = []
        argsort = np.argsort
        monkeypatch.setattr(np, "argsort",
                            lambda a, kind=None: kinds.append(kind) or argsort(a, kind=kind))
        solution.trace_picks
        monkeypatch.undo()
        return kinds

    def test_distinct_keys_sort_once(self, monkeypatch):
        # one band: its cells are fewer than _BAND
        sol = optimize(default_scenario(seed=3), GreedyConfig())
        assert sol.ladder_energy.size < greedy._BAND
        assert self.sort_kinds(monkeypatch, sol) == [None]
        assert np.array_equal(streamed_picks(sol.ladder_energy, sol.evaluations - 1),
                              stable_picks(sol.ladder_energy)[:sol.evaluations - 1])

    def test_tied_keys_sort_again_stably(self, monkeypatch):
        sol = optimize(pinned_scenario(), GreedyConfig())
        assert self.sort_kinds(monkeypatch, sol) == [None, "stable"]
        assert np.array_equal(streamed_picks(sol.ladder_energy, sol.evaluations - 1),
                              stable_picks(sol.ladder_energy)[:sol.evaluations - 1])
        # the tied tasks are bumped lowest first, level by level
        assert sol.trace_picks[1:len(sol.offload_ratios) + 1].tolist() == list(
            range(len(sol.offload_ratios)))

    def test_each_band_sorts_once_and_ties_again(self, monkeypatch):
        # bands of 7 cells: a band of distinct keys sorts once, and a band
        # of the tied tasks' equal energies sorts again, stably
        monkeypatch.setattr(greedy, "_BAND", 7)
        sol = optimize(default_scenario(seed=3), GreedyConfig())
        kinds = self.sort_kinds(monkeypatch, sol)
        assert kinds.count(None) > 1 and "stable" not in kinds
        monkeypatch.setattr(greedy, "_BAND", 7)
        sol = optimize(pinned_scenario(), GreedyConfig())
        kinds = self.sort_kinds(monkeypatch, sol)
        assert kinds == [None, "stable"] * (len(kinds) // 2)


class TestBruteForce:
    def test_two_task_grid(self):
        # small version of the acceptance sweep: exhaustive 101x101 lattice
        rng = np.random.default_rng(7)
        grid = np.linspace(0.0, 1.0, 101)
        for _ in range(5):
            # (cpu_freq_hz, energy_coeff, bandwidth_hz, noise_var_w, gain, speed_mps,
            #  carrier_freq_hz)
            dev = (rng.uniform(5e8, 1.5e9), 1e-28, 1e6, 10 ** rng.uniform(-10, 0), 1.0,
                   rng.uniform(0, 400), rng.uniform(1e9, 3e10))
            tasks = [(0, rng.uniform(1e6, 8e6), rng.uniform(500, 1500)) for _ in range(2)]
            sc = scenario([dev], tasks)
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


def trace_peak(sc, cfg, path) -> int:
    """tracemalloc's peak, in bytes, while `write_trace_csv` writes the trace
    of a fresh solution; a first write, of another, makes the one-off
    allocations that are not counted."""
    write_trace_csv(optimize(sc, cfg), path)
    sol = optimize(sc, cfg)
    tracemalloc.start()
    try:
        write_trace_csv(sol, path)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestTraceMemory:
    def test_a_converged_50x40_trace_is_written_in_bounded_memory(self, tmp_path):
        # 100,000 bumps over a 2,000 x 51 ladder (0.82 MB); a trace that held
        # its picks, order and totals whole peaked at 4.0 MB
        sc = generate_scenario(ScenarioSpec(n_devices=50, tasks_per_device=40), [1])
        assert optimize(sc, GreedyConfig()).evaluations == 100_001
        assert trace_peak(sc, GreedyConfig(), tmp_path / "trace.csv") < 3.5e6

    def test_the_peak_grows_with_the_ladder_not_the_bumps(self, tmp_path):
        # two ladders of 2,000 x 501 cells (8 MB): a converged run of about
        # a million bumps, and a saturated one of about 45,000; a trace
        # array of 8 bytes a bump would be 7.6 MB more in the first
        cfg = GreedyConfig(step=0.001)
        spec = ScenarioSpec(n_devices=50, tasks_per_device=40)
        runs = [(generate_scenario(spec, [1]), TERMINATION_CONVERGED),
                (generate_scenario(replace(balanced_spec(), n_devices=50, tasks_per_device=40),
                                   [0]), TERMINATION_SATURATED)]
        sols = [optimize(sc, cfg) for sc, _ in runs]
        assert [sol.termination for sol in sols] == [end for _, end in runs]
        assert [len(sol.ladder) for sol in sols] == [501, 501]
        assert sols[0].evaluations > 20 * sols[1].evaluations
        peaks = [trace_peak(sc, cfg, tmp_path / "trace.csv") for sc, _ in runs]
        assert peaks[0] < 1.5 * 2000 * 501 * 8, peaks
        assert peaks[0] - peaks[1] < 2e6, peaks


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
        # more bumps than one digit chunk holds, in stream chunks of 5 cut
        # into digit chunks of 7
        monkeypatch.setattr(greedy, "_CHUNK", 7)
        monkeypatch.setattr(greedy, "_ROWS", 5)
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
        assert streamed_totals(column[:2], []).tolist() == [2.0 ** 53]
        assert streamed_totals(column, []).tolist() == [want]
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
        totals = streamed_totals(energy, [np.array([0, 3]), np.array([1, 4])])
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

    def test_a_huge_nominal_ladder_is_built_small(self):
        # 1e-11 / 1e-18 nominal levels, but + 1e-18 no longer moves the ratio
        init = 0.99999999999
        tracemalloc.start()
        try:
            rs = GreedyConfig(init, 1e-18).ladder(1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rs.tolist() == [init, init]
        assert peak < 1 << 20, peak

    # ladders of up to about 100,000 nominal levels, steps down to 1e-17
    @settings(max_examples=300, deadline=None)
    @given(st.floats(0.0, 1.0).flatmap(lambda init: st.tuples(
        st.just(init), st.floats(max((1.0 - init) / 100_000, 1e-17), 1.0))))
    def test_a_ladder_climbs_at_most_two_in_steps(self, ladder):
        # so a run of n tasks makes at most 2 * n / step bumps
        init_ratio, step = ladder
        assert (len(greedy._ladder(init_ratio, step)) - 1) * step <= 2


class TestBoundedRun:
    def test_cap_is_tasks_times_levels(self):
        cfg = GreedyConfig()
        levels = len(cfg.ladder(1))
        n = greedy.MAX_LADDER_CELLS // levels
        assert cfg.ladder(n).tobytes() == greedy._ladder(0.5, 0.01).tobytes()
        most = greedy.MAX_LADDER_CELLS // (n + 1)
        assert most == levels - 1
        with pytest.raises(ValueError, match=rf"{n + 1} tasks x more than {most} ratio levels"):
            cfg.ladder(n + 1)

    def test_tiny_step_refused_before_any_work(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("the run started")
        monkeypatch.setattr(greedy, "task_energy_endpoints", unreachable)
        with pytest.raises(ValueError, match=r"3 tasks x more than 1666666 ratio levels is "
                                             rf"over the cap of {greedy.MAX_LADDER_CELLS} cells"):
            optimize(small_scenario(), GreedyConfig(step=1e-9))

    def test_a_ladder_that_rounding_lengthens_is_counted_as_built(self, monkeypatch):
        # 70 x 64,352 nominal levels would fit the cap; the 81,066 built ones do not
        def unreachable(*args):
            raise AssertionError("the run started")
        monkeypatch.setattr(greedy, "task_energy_endpoints", unreachable)
        cfg = GreedyConfig(init_ratio=1.0 - 1e-11, step=1.554e-16)
        assert len(cfg.ladder(61)) == 81066
        sc = generate_scenario(ScenarioSpec(n_devices=7, tasks_per_device=10), [0])
        with pytest.raises(ValueError, match="70 tasks x more than 71428 ratio levels"):
            optimize(sc, cfg)
        with pytest.raises(ConfigError, match="70 tasks x more than 71428 ratio levels"):
            load_config(overrides={"greedy.init_ratio": "0.99999999999",
                                   "greedy.step": "1.554e-16", "scenario.n_devices": "7"})

    def test_config_error(self):
        with pytest.raises(ValueError, match="50 tasks x more than 100000 ratio levels"):
            ExperimentConfig(greedy=GreedyConfig(step=1e-9))
        with pytest.raises(ConfigError, match="ratio levels"):
            load_config(overrides={"scenario.tasks_per_device": "100000"})
        load_config(overrides={"scenario.tasks_per_device": "10000"})

    @pytest.mark.parametrize("init_ratio", [1.0, 0.5])
    def test_more_tasks_than_cells_blames_the_task_count(self, init_ratio):
        # no step or start ratio helps: a pinned ladder is one level
        n = greedy.MAX_LADDER_CELLS + 1
        with pytest.raises(ValueError, match=rf"^greedy: {n} tasks are more than the cap "
                                             rf"of {greedy.MAX_LADDER_CELLS} cells at one "
                                             "ratio level each; lower scenario.n_devices"):
            GreedyConfig(init_ratio=init_ratio).ladder(n)
        assert len(GreedyConfig(init_ratio=1.0).ladder(n - 1)) == 1

    def test_cli_blames_the_task_count_with_exit_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["optimize", "--scenario.n_devices", "600000",
                     "--greedy.init_ratio", "1", "--out", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert "6000000 tasks are more than the cap" in err and "greedy.step" not in err

    def test_cli_exits_2_without_making_out(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["optimize", "--greedy.step", "1e-9", "--out", str(out)]) == 2
        assert not out.exists()
        assert "over the cap" in capsys.readouterr().err

    def test_a_ladder_lengthened_past_the_cap_is_a_config_error(self, tmp_path, capsys):
        # the config check counts the built ladder, so the run's refusal is
        # the config's: exit 2, not a run error's exit 1
        out = tmp_path / "out"
        assert main(["optimize", "--greedy.init_ratio", "0.99999999999",
                     "--greedy.step", "1.554e-16", "--scenario.n_devices", "7",
                     "--scenario.tasks_per_device", "10", "--out", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: greedy: 70 tasks x more than 71428 ratio levels is over the "
                       f"cap of {greedy.MAX_LADDER_CELLS} cells; raise greedy.step or init_ratio"]

    @pytest.mark.parametrize("shape", [["1", "1"], ["5", "10"]])
    def test_a_huge_nominal_ladder_that_is_built_short_runs(self, tmp_path, shape):
        # 10,000,002 nominal levels, but + 1e-18 no longer moves the ratio:
        # the built ladder has two
        out = tmp_path / "out"
        assert main(["optimize", "--greedy.init_ratio", "0.99999999999",
                     "--greedy.step", "1e-18", "--scenario.n_devices", shape[0],
                     "--scenario.tasks_per_device", shape[1], "--out", str(out)]) == 0
        solution = json.loads((out / "solution.json").read_text())
        assert (solution["termination"], solution["evaluations"]) == (TERMINATION_SATURATED, 2)

    def test_a_step_whose_nominal_count_is_infinite(self, tmp_path):
        # (1 - 0.5) / 5e-324 is inf; + 5e-324 does not move 0.5, so two levels
        assert GreedyConfig(step=5e-324).ladder(50).tolist() == [0.5, 0.5]
        assert main(["optimize", "--greedy.step", "5e-324", "--out", str(tmp_path)]) == 0

    # the draws of test_a_ladder_climbs_at_most_two_in_steps
    @settings(max_examples=300, deadline=None)
    @given(st.floats(0.0, 1.0).flatmap(lambda init: st.tuples(
        st.just(init), st.floats(max((1.0 - init) / 100_000, 1e-17), 1.0))),
        st.integers(1, 200))
    def test_ladder_returns_iff_its_cells_fit(self, ladder, n):
        init_ratio, step = ladder
        full = greedy._ladder(init_ratio, step)
        if n * len(full) <= greedy.MAX_LADDER_CELLS:
            assert GreedyConfig(init_ratio, step).ladder(n).tobytes() == full.tobytes()
        else:
            with pytest.raises(ValueError, match=f"{n} tasks x more than"):
                GreedyConfig(init_ratio, step).ladder(n)

    @pytest.mark.parametrize("n", [1, 3, 50])
    def test_a_refused_ladder_is_built_no_longer_than_the_cap(self, monkeypatch, n):
        built, real = [], greedy._ladder

        def spy(*args):
            built.append(real(*args))
            return built[-1]
        monkeypatch.setattr(greedy, "_ladder", spy)
        with pytest.raises(ValueError, match="over the cap"):
            GreedyConfig(step=1e-9).ladder(n)
        # one build, whose array (before any cut) holds at most most + 2 ratios
        sizes = [(rs if rs.base is None else rs.base).size for rs in built]
        assert len(sizes) == 1 and sizes[0] <= greedy.MAX_LADDER_CELLS // n + 2, sizes
