"""Differential and closed-form checks of the merge-driven greedy.

`reference_greedy` is a frozen copy of the original vectorised loop and CSV
writer.  The library's `optimize` must make the same picks, stop for the
same reason and return the same ratio and energy bytes.  Its totals are the
correctly rounded sums of each state (`math.fsum` of the state replayed
from the picks), so they may differ from the frozen loop's pairwise totals
in the last digits, by at most 1e-12 relative.  One case may differ in
picks and termination: the frozen loop stops when a bump lowers one energy
by less than its pairwise total's rounding, while the merge sees the energy
fall and goes on (`TestNamedDifference`).  The oracle prices tasks with
`reference_datagen`'s frozen per-task endpoint loop, which asks a
spectral-efficiency source; it gets a cache of the scenario's own config,
which is what the library prices with.  The closed-form oracle is the
per-task threshold optimum: energy is affine in each ratio and the tasks
are independent, so the best reachable total is sum_i min(local_i, offload_i).
"""

import json
import math
from dataclasses import fields, replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_datagen
import reference_greedy
from helpers import (FrozenGreedyConfig, balanced_spec, frozen_build_dataset, frozen_view,
                     scenario)
from offloadlab import datagen, greedy
from offloadlab.cli import main
from offloadlab.datagen import ScenarioSpec, generate_scenario
from offloadlab.greedy import (GreedyConfig, OffloadSolution, TERMINATION_CONVERGED,
                               TERMINATION_SATURATED, optimize, task_energy_endpoints)
from offloadlab.model import Scenario, energy_at
from offloadlab.spectral import SpectralConfig, SpectralEfficiencyCache

# Small value pools make exact ties between task energies likely.
_BITS = st.one_of(st.sampled_from([0.0, 1e6, 2e6, 4e6]), st.floats(0.0, 8e6))
_CYCLES = st.one_of(st.sampled_from([500.0, 1000.0]), st.floats(500.0, 1500.0))
_CPU = st.one_of(st.just(1e9), st.floats(5e8, 1.5e9))
# Offload per bit spans about 0.1x to 10x the local cost per bit, so runs
# converge, saturate part-way or saturate at once.
_NOISE = st.one_of(st.sampled_from([1e-3, 1e-2]),
                   st.floats(-5.0, 0.0).map(lambda e: 10.0 ** e))


# (devices, tasks) of a scenario
SHAPES = st.tuples(st.integers(1, 3), st.integers(1, 6))
FIELDS = {field.name for field in fields(OffloadSolution)}  # all a solution holds


@st.composite
def scenarios(draw, shapes=SHAPES):
    n_devices, n_tasks = draw(shapes)
    cpus = [draw(_CPU) for _ in range(n_devices)]
    devices = [(cpu, 1e-28, 1e6, draw(_NOISE), 1.0, 0.0, 1e9) for cpu in cpus]
    tasks = [(draw(st.integers(0, n_devices - 1)), draw(_BITS), draw(_CYCLES))
             for _ in range(n_tasks)]
    return scenario(devices, tasks)


greedy_configs = st.builds(
    GreedyConfig,
    init_ratio=st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0)),
    step=st.one_of(st.sampled_from([1.0, 0.5, 0.3, 0.1, 0.01]), st.floats(0.01, 1.0)),
)


def frozen_optimize(sc, cfg):
    """The frozen loop on the scenario as it prices itself."""
    return reference_greedy.optimize(frozen_view(sc), FrozenGreedyConfig.of(cfg),
                                     SpectralEfficiencyCache(sc.spectral_config))


def replayed_totals(sol, sc, cfg, every=1):
    """`math.fsum` of the traced states, rebuilt from the picks with ratios
    bumped one ``+ step`` at a time: {evaluation: total} for every
    `every`-th evaluation and the last."""
    local, offload = greedy.task_energy_endpoints(sc)
    ratios = np.full(len(local), float(cfg.init_ratio))
    last = sol.evaluations - 1
    out = {}
    for j, pick in enumerate(sol.trace_picks.tolist()):
        if pick >= 0:
            bumped = ratios[pick] + cfg.step
            ratios[pick] = 1.0 if bumped >= 1.0 - 1e-12 else bumped
        if j % every == 0 or j == last:
            out[j] = math.fsum(energy_at(local, offload, ratios).tolist())
    return out


def assert_exact_totals(sol, sc, cfg, every=1):
    replayed = replayed_totals(sol, sc, cfg, every)
    assert {j: sol.trace_totals[j] for j in replayed} == replayed
    assert sol.trace_totals.dtype == np.float64
    assert sol.total_energy == math.fsum(sol.per_task_energy) == sol.trace_totals.min()


def frozen_picks(want):
    return np.array([-1 if e.adjusted_task_index is None else e.adjusted_task_index
                     for e in want.trace])


def frozen_totals(want):
    return np.array([e.total_energy for e in want.trace])


def hidden_improvement(want, sc, cfg) -> bool:
    """The frozen loop stopped on a bump that lowered its task's energy, by
    less than the rounding of its pairwise total."""
    if want.termination != TERMINATION_SATURATED or len(want.trace) < 2:
        return False
    idx = want.trace[-1].adjusted_task_index
    local, offload = greedy.task_energy_endpoints(sc)
    ratio = float(want.offload_ratios[idx])
    bumped = ratio + cfg.step
    bumped = 1.0 if bumped >= 1.0 - 1e-12 else bumped
    return energy_at(local[idx], offload[idx], bumped) < energy_at(local[idx], offload[idx], ratio)


def assert_same_solution(got, want, sc, cfg):
    """Picks, termination, ratio and energy bytes as the frozen loop's;
    totals exact and within 1e-12 relative of the frozen pairwise ones."""
    assert [e.iteration for e in want.trace] == list(range(len(want.trace)))
    assert_exact_totals(got, sc, cfg)
    if hidden_improvement(want, sc, cfg):  # the one allowed difference: the merge goes on
        assert got.evaluations >= len(want.trace)
        assert np.array_equal(got.trace_picks[:len(want.trace)], frozen_picks(want))
        np.testing.assert_allclose(got.trace_totals[:len(want.trace)], frozen_totals(want),
                                   rtol=1e-12, atol=0.0)
        return
    assert got.offload_ratios.dtype == want.offload_ratios.dtype
    assert got.offload_ratios.tobytes() == want.offload_ratios.tobytes()
    assert got.per_task_energy.dtype == want.per_task_energy.dtype
    assert got.per_task_energy.tobytes() == want.per_task_energy.tobytes()
    assert np.array_equal(got.trace_picks, frozen_picks(want))
    assert got.termination == want.termination
    np.testing.assert_allclose(got.trace_totals, frozen_totals(want), rtol=1e-12, atol=0.0)
    assert got.total_energy == pytest.approx(want.total_energy, rel=1e-12, abs=0.0)


def assert_matches_frozen(sc, cfg):
    assert_same_solution(optimize(sc, cfg), frozen_optimize(sc, cfg), sc, cfg)


class TestMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(scenarios(), greedy_configs)
    def test_random_scenarios(self, sc, cfg):
        assert_matches_frozen(sc, cfg)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000), st.booleans(), greedy_configs)
    def test_sampled_scenarios(self, seed, balanced, cfg):
        spec = balanced_spec() if balanced else ScenarioSpec()
        sc = generate_scenario(replace(spec, n_devices=2, tasks_per_device=4), [seed])
        assert_matches_frozen(sc, cfg)

    def test_scenario_carries_its_spectral_config(self):
        spectral = SpectralConfig(snr_linear=30.0, subcarrier_spacing_hz=15e3)
        spec = ScenarioSpec()
        sc = generate_scenario(spec, [4], spectral)
        got = optimize(sc, GreedyConfig())
        assert_same_solution(got, reference_greedy.optimize(
            frozen_view(sc), FrozenGreedyConfig(), SpectralEfficiencyCache(spectral)), sc,
            GreedyConfig())
        default = optimize(generate_scenario(spec, [4]), GreedyConfig())
        assert got.per_task_energy.tolist() != default.per_task_energy.tolist()
        assert not np.array_equal(got.trace_totals, default.trace_totals)

    def test_all_tasks_tied(self):
        sc = scenario([(1e9, 1e-28, 1e6, 1e-3, 1.0, 0.0, 1e9)], [(0, 2e6, 1000.0)] * 5)
        for cfg in (GreedyConfig(), GreedyConfig(step=1.0), GreedyConfig(init_ratio=0.0)):
            assert_matches_frozen(sc, cfg)


class TestLazyPickOrder:
    """`evaluations` and `termination` come from the threshold; the pick
    order is sorted only when the trace is streamed, and the solution keeps
    nothing of it."""

    @settings(max_examples=300, deadline=None)
    @given(scenarios(), greedy_configs)
    def test_counts_before_and_after_the_sort(self, sc, cfg):
        got, want = optimize(sc, cfg), frozen_optimize(sc, cfg)
        counted = got.evaluations, got.termination
        if not hidden_improvement(want, sc, cfg):
            assert counted == (len(want.trace), want.termination)
        assert set(vars(got)) == FIELDS
        assert len(got.trace_picks) == got.evaluations
        assert set(vars(got)) == FIELDS
        assert (got.evaluations, got.termination) == counted
        picks = frozen_picks(want)
        assert np.array_equal(got.trace_picks[:len(picks)], picks)
        if not hidden_improvement(want, sc, cfg):
            assert len(got.trace_picks) == len(picks)


def _frozen_build_dataset(spec, seeds, gcfg, spectral_config):
    """The frozen per-scenario dataset loop, labelled by the frozen greedy."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(reference_datagen, "greedy_mod", SimpleNamespace(
            GreedyConfig=GreedyConfig,
            optimize=lambda scenario, config, cache: frozen_optimize(scenario, config)))
        return frozen_build_dataset(spec, seeds, gcfg, spectral_config)


def _run_cli(monkeypatch, reference: bool, args, out):
    if reference:
        monkeypatch.setattr(greedy, "optimize", frozen_optimize)
        monkeypatch.setattr(greedy, "write_trace_csv", reference_greedy.write_trace_csv)
        monkeypatch.setattr(datagen, "build_dataset", _frozen_build_dataset)
    assert main([*args, "--out", str(out)]) == 0
    monkeypatch.undo()
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def _split_trace(data: bytes):
    """trace.csv as its (iteration, task_index) cells and its totals."""
    rows = [line.split(b",") for line in data.split(b"\r\n")]
    assert rows[0] == [b"iteration", b"total_energy_j", b"task_index"]
    assert rows[-1] == [b""]
    return [(r[0], r[2]) for r in rows[1:-1]], np.array([float(r[1]) for r in rows[1:-1]])


class TestCliBytesMatchReference:
    @pytest.mark.parametrize("args", [
        ["optimize", "--seed", "3"],
        ["optimize", "--seed", "5", "--greedy.init_ratio", "0.0", "--greedy.step", "0.3"],
        ["optimize", "--seed", "7"],
        ["optimize", "--seed", "1", "--scenario.noise_var_w", "6.6e-3,6.6e-3"],
        ["optimize", "--seed", "1", "--scenario.n_devices", "50",
         "--scenario.tasks_per_device", "40"],
    ])
    def test_optimize(self, tmp_path, monkeypatch, args):
        want = _run_cli(monkeypatch, True, args, tmp_path / "ref")
        got = _run_cli(monkeypatch, False, args, tmp_path / "new")
        assert sorted(got) == sorted(want) == ["solution.json", "trace.csv"]
        # the iteration and task_index columns are byte-equal; the totals
        # are correctly rounded and may move in the last digits
        got_cells, got_totals = _split_trace(got["trace.csv"])
        want_cells, want_totals = _split_trace(want["trace.csv"])
        assert got_cells == want_cells
        np.testing.assert_allclose(got_totals, want_totals, rtol=1e-12, atol=0.0)
        got_solution, want_solution = (json.loads(files["solution.json"])
                                       for files in (got, want))
        got_total = got_solution.pop("total_energy_j")
        want_total = want_solution.pop("total_energy_j")
        assert got_solution == want_solution
        assert got_total == pytest.approx(want_total, rel=1e-12, abs=0.0)
        assert got_total == math.fsum(got_solution["per_task_energy_j"]) == got_totals.min()

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


def _threshold_optimum(sc) -> float:
    local, offload = task_energy_endpoints(sc)
    return math.fsum(np.minimum(local, offload).tolist())


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
        sc = generate_scenario(ScenarioSpec(n_devices=n_devices,
                                            tasks_per_device=tasks_per_device), [seed])
        local, offload = task_energy_endpoints(sc)
        assert np.all(offload < local)  # offloading everything is optimal
        sol = optimize(sc, GreedyConfig())
        assert sol.termination == TERMINATION_CONVERGED
        assert sol.total_energy == _threshold_optimum(sc)


def _columns(monkeypatch, local, offload) -> Scenario:
    """A scenario of len(local) tasks that both greedies price at these
    energies at l=0 and l=1."""
    local, offload = np.array(local, dtype=float), np.array(offload, dtype=float)
    monkeypatch.setattr(greedy, "task_energy_endpoints",
                        lambda sc: (local.copy(), offload.copy()))
    monkeypatch.setattr(reference_greedy, "task_energy_endpoints",
                        lambda sc, se_provider: (local.copy(), offload.copy()))
    return scenario([(1e9, 1e-28, 1e6, 1e-3, 1.0, 0.0, 1e9)], [(0, 1e6, 1000.0)] * len(local))


class TestNamedDifference:
    def test_a_fall_below_the_total_rounding_stops_only_the_frozen_loop(self, monkeypatch):
        # task 0 falls by 2**-51 from 4.0, but the pairwise total 5 - 2**-51
        # rounds half to even back to 5.0, so the frozen loop sees no gain
        sc = _columns(monkeypatch, [4.0, 1.0], [4.0 - 2.0 ** -51, 0.5])
        cfg = GreedyConfig(init_ratio=0.0, step=1.0)
        want = frozen_optimize(sc, cfg)
        assert want.termination == TERMINATION_SATURATED
        assert frozen_totals(want).tolist() == [5.0, 5.0]
        assert hidden_improvement(want, sc, cfg)
        got = optimize(sc, cfg)
        assert got.termination == TERMINATION_CONVERGED
        assert got.trace_picks.tolist() == [-1, 0, 1]
        assert got.offload_ratios.tolist() == [1.0, 1.0]
        assert got.trace_totals.tolist() == [5.0, 5.0, 4.5]
        assert_same_solution(got, want, sc, cfg)


class TestEdgeCases:
    @pytest.mark.parametrize("init_ratio, levels", [(1.0, 1), (1.0 - 1e-13, 2)])
    def test_init_ratio_at_or_next_to_one(self, init_ratio, levels):
        sc = generate_scenario(ScenarioSpec(n_devices=2, tasks_per_device=3), [4])
        cfg = GreedyConfig(init_ratio=init_ratio)
        sol = optimize(sc, cfg)
        assert sol.ladder_energy.shape == (6, levels)
        assert sol.evaluations == 1 + 6 * (levels - 1)
        assert sol.termination == TERMINATION_CONVERGED
        assert sol.offload_ratios.tolist() == [1.0] * 6
        assert_matches_frozen(sc, cfg)

    @pytest.mark.parametrize("init_ratio", [0.0, 0.5, 0.99])
    def test_step_one(self, init_ratio):
        for spec in (ScenarioSpec(), balanced_spec()):
            assert_matches_frozen(generate_scenario(spec, [5]), GreedyConfig(init_ratio, 1.0))

    def test_a_step_that_no_longer_moves_the_ratio(self):
        # 4 tasks x 1,000,002 nominal levels, within the cap; the ladder stops at two
        sc = generate_scenario(ScenarioSpec(n_devices=2, tasks_per_device=2), [7])
        cfg = GreedyConfig(init_ratio=1.0 - 1e-11, step=1e-17)
        sol = optimize(sc, cfg)
        assert sol.termination == TERMINATION_SATURATED
        assert sol.evaluations == 2
        assert_matches_frozen(sc, cfg)

    @pytest.mark.parametrize("n_devices, tasks_per_device", [(1, 1), (5, 10)])
    def test_a_step_past_the_nominal_cap_that_no_longer_moves_the_ratio(
            self, n_devices, tasks_per_device):
        # 10,000,002 nominal levels, past the cap for one task; the built ladder has two
        sc = generate_scenario(ScenarioSpec(n_devices=n_devices,
                                            tasks_per_device=tasks_per_device), [7])
        cfg = GreedyConfig(init_ratio=0.99999999999, step=1e-18)
        sol = optimize(sc, cfg)
        assert len(sol.ladder) == 2
        assert sol.termination == TERMINATION_SATURATED
        assert sol.evaluations == 2
        assert_matches_frozen(sc, cfg)

    def test_zero_energy_tasks(self):
        spec = ScenarioSpec(n_devices=2, tasks_per_device=3)
        sc = generate_scenario(replace(spec, data_bits=(0.0, 0.0)), [6])
        sol = optimize(sc, GreedyConfig())
        assert sol.termination == TERMINATION_SATURATED
        assert sol.trace_totals.tolist() == [0.0, 0.0]
        assert_matches_frozen(sc, GreedyConfig())

    def test_zero_energies_beside_large_ones(self, monkeypatch):
        # every nonzero energy is >= 1, so the unit 2**emin is 2**-52 and a
        # zero (frexp exponent 0) would shift by -1 without the clamp
        sc = _columns(monkeypatch, [0.0, 3.0, 0.0, 1.5], [0.0, 1.0, 0.0, 1.0])
        for cfg in (GreedyConfig(), GreedyConfig(init_ratio=0.0, step=0.25)):
            assert_matches_frozen(sc, cfg)

    def test_energies_of_2_53_and_above(self, monkeypatch):
        sc = _columns(monkeypatch, [2.0 ** 53, 3 * 2.0 ** 60, 2.0 ** 53 + 2, 2.0 ** 70],
                      [2.0 ** 52, 2.0 ** 61, 2.0 ** 53, 2.0 ** 69 + 2.0 ** 17])
        for cfg in (GreedyConfig(), GreedyConfig(init_ratio=0.0, step=0.1),
                    GreedyConfig(init_ratio=0.0, step=1.0)):
            assert_matches_frozen(sc, cfg)

    def test_subnormal_energies(self, monkeypatch):
        tiny = 5e-324
        sc = _columns(monkeypatch, [7 * tiny, 2.0 ** -1030, 3e-320, 2.0 ** -1022],
                      [tiny, 2.0 ** -1040, 0.0, 2.0 ** -1023])
        for cfg in (GreedyConfig(), GreedyConfig(init_ratio=0.0, step=0.125)):
            sol = optimize(sc, cfg)
            assert sol.trace_totals.min() < 2.0 ** -1022  # subnormal totals
            assert_matches_frozen(sc, cfg)

    # step 1 from 0: each task has one bump, from its local to its offload energy
    @pytest.mark.parametrize("local, offload, ratios", [
        # task 0's improving cell ties the stop, task 1's failing one, and
        # comes first in pick order
        ([2.0, 2.0], [1.0, 3.0], [1.0, 0.0]),
        # the same tie, tasks swapped: the stop comes first
        ([2.0, 2.0], [3.0, 1.0], [0.0, 0.0]),
        # the stop is task 2's failing cell, not task 0's lower one, so task
        # 1's cell at the stop's energy comes before it
        ([1.0, 3.0, 3.0], [2.0, 0.5, 4.0], [0.0, 1.0, 0.0]),
    ])
    def test_an_improving_cell_that_ties_the_stop(self, monkeypatch, local, offload, ratios):
        sc = _columns(monkeypatch, local, offload)
        cfg = GreedyConfig(init_ratio=0.0, step=1.0)
        assert optimize(sc, cfg).offload_ratios.tolist() == ratios
        assert_matches_frozen(sc, cfg)

    # two-, five- and three-level ladders
    @pytest.mark.parametrize("init_ratio, step", [(0.0, 1.0), (0.0, 0.3), (0.5, 0.25)])
    def test_packed_groups_are_solved_alone(self, monkeypatch, init_ratio, step):
        # groups of one size are packed together: two of 2 tasks, two of 3, one of 1
        packs = [[([2.0, 2.0], [1.0, 3.0]), ([2.0, 2.0], [3.0, 1.0])],
                 [([1.0, 3.0, 3.0], [2.0, 0.5, 4.0]), ([5.0] * 3, [1.0] * 3)],
                 [([1.0], [1.0])]]
        cfg = GreedyConfig(init_ratio=init_ratio, step=step)
        for groups in packs:
            sc = _columns(monkeypatch, [e for local, _ in groups for e in local],
                          [e for _, offload in groups for e in offload])
            ratios, energy = greedy.optimize_packed(sc, len(groups), cfg)[:2]
            alone = [optimize(_columns(monkeypatch, *group), cfg) for group in groups]
            assert ratios.tolist() == [r for sol in alone for r in sol.offload_ratios.tolist()]
            assert energy.tolist() == [e for sol in alone
                                       for e in sol.per_task_energy.tolist()]

    def test_a_total_past_the_float_range_is_inf(self, monkeypatch):
        # the second bump raises task 1 and the exact total passes the range
        sc = _columns(monkeypatch, [1e308, 7e307], [9e307, 9e307])
        cfg = GreedyConfig(init_ratio=0.0, step=1.0)
        with np.errstate(over="ignore"):
            want = frozen_optimize(sc, cfg)
        got = optimize(sc, cfg)
        assert got.termination == want.termination == TERMINATION_SATURATED
        assert np.array_equal(got.trace_picks, frozen_picks(want))
        best = math.fsum([9e307, 7e307])
        assert got.trace_totals.tolist() == [math.fsum([1e308, 7e307]), best, math.inf]
        assert got.total_energy == best
        with pytest.raises(OverflowError):  # which is why fsum is not the rule here
            math.fsum([9e307, 9e307])


def _pack(scs) -> Scenario:
    """One scenario holding the devices and tasks of each of `scs` in turn."""
    offsets = np.cumsum([0, *(len(sc.devices) for sc in scs[:-1])])
    tasks = np.concatenate([sc.tasks for sc in scs])
    tasks["device_id"] += np.repeat(offsets, [len(sc.tasks) for sc in scs])
    return Scenario(devices=np.concatenate([sc.devices for sc in scs]), tasks=tasks,
                    spectral_config=scs[0].spectral_config)


@pytest.fixture
def built_rows(monkeypatch):
    """The tasks of each `energy_at` block the greedy builds, in call order:
    a run's start and first-bump columns, then its ladder rows."""
    rows = []

    def spy(local, offload, ratio):
        rows.append(len(local))
        return energy_at(local, offload, ratio)

    monkeypatch.setattr(greedy, "energy_at", spy)
    return rows


class TestPruning:
    """Only tasks whose start is at least A, the highest start among tasks
    whose first bump fails, get ladder rows; the others keep the start."""

    @settings(max_examples=200, deadline=None)
    @given(SHAPES.flatmap(lambda shape: st.lists(scenarios(st.just(shape)),
                                                 min_size=1, max_size=4)), greedy_configs)
    def test_packed_groups_give_the_bytes_of_each_alone(self, scs, cfg):
        ratios, energy, evaluations, saturated = greedy.optimize_packed(
            _pack(scs), len(scs), cfg)[:4]
        alone = [optimize(sc, cfg) for sc in scs]
        assert ratios.tobytes() == np.concatenate([s.offload_ratios for s in alone]).tobytes()
        assert energy.tobytes() == np.concatenate([s.per_task_energy for s in alone]).tobytes()
        assert evaluations.tolist() == [s.evaluations for s in alone]
        assert saturated.tolist() == [s.termination == TERMINATION_SATURATED for s in alone]
        for sc in scs:
            assert_matches_frozen(sc, cfg)

    # cfg is (init_ratio, step): (0, 1) walks ratios 0, 1 and (0, 0.5) walks 0, 0.5, 1
    @pytest.mark.parametrize("local, offload, cfg, ratios, rows", [
        # task 0 improves from a start that ties A, set by task 1: it is
        # built and its cell at e_F comes first; task 2 starts below A
        ([2.0, 2.0, 1.0], [1.0, 3.0, 0.5], (0.0, 1.0), [1.0, 0.0, 0.0], 2),
        # task 0, below F's task, reaches a cell equal to e_F and takes it
        ([4.0, 2.0, 1.0], [0.0, 4.0, 0.0], (0.0, 0.5), [1.0, 0.0, 0.0], 2),
        # the same cell in a task above F's comes after F
        ([2.0, 4.0, 1.0], [4.0, 0.0, 0.0], (0.0, 0.5), [0.0, 0.5, 0.0], 2),
        # a flat task's first bump fails too, and sets A
        ([2.0, 1.0, 3.0], [2.0, 0.0, 0.0], (0.0, 0.5), [0.0, 0.0, 0.5], 2),
        # every first bump fails: only the highest start is built
        ([1.0, 3.0, 2.0], [5.0, 5.0, 5.0], (0.0, 0.5), [0.0, 0.0, 0.0], 1),
        # no first bump fails: every task is built and converges
        ([3.0, 2.0, 1.0], [0.0, 0.0, 0.0], (0.0, 0.5), [1.0, 1.0, 1.0], 3),
        # one level: no bump at all
        ([3.0, 2.0, 1.0], [5.0, 0.0, 0.0], (1.0, 0.01), [1.0, 1.0, 1.0], 3),
    ])
    def test_hand_built_groups(self, monkeypatch, built_rows, local, offload, cfg,
                               ratios, rows):
        sc = _columns(monkeypatch, local, offload)
        cfg = GreedyConfig(*cfg)
        sol = optimize(sc, cfg)
        assert sol.offload_ratios.tolist() == ratios
        assert built_rows == [3, rows]
        assert_matches_frozen(sc, cfg)

    def test_the_stop_is_found_among_live_rows_of_each_group(self, monkeypatch, built_rows):
        # every first bump fails; none fails; an improving start ties A; two
        # failing starts tie A
        groups = [([1.0, 3.0, 2.0], [5.0, 5.0, 5.0]), ([3.0, 2.0, 1.0], [0.0, 0.0, 0.0]),
                  ([2.0, 2.0, 1.0], [1.0, 3.0, 0.5]), ([2.0, 1.0, 2.0], [3.0, 0.5, 3.0])]
        sc = _columns(monkeypatch, [e for local, _ in groups for e in local],
                      [e for _, offload in groups for e in offload])
        cfg = GreedyConfig(init_ratio=0.0, step=0.5)
        ratios, _, evaluations, saturated = greedy.optimize_packed(sc, 4, cfg)[:4]
        assert built_rows == [12, 1 + 3 + 2 + 2]
        assert ratios.tolist() == [0.0] * 3 + [1.0] * 3 + [0.5, 0.0, 0.0] + [0.0] * 3
        assert evaluations.tolist() == [2, 7, 3, 2]
        assert saturated.tolist() == [True, False, True, True]
        for group in groups:
            assert_matches_frozen(_columns(monkeypatch, *group), cfg)

    @pytest.mark.parametrize("balanced, pruned", [(True, True), (False, False)])
    def test_rows_built_for_a_batch_of_25(self, built_rows, balanced, pruned):
        spec = balanced_spec() if balanced else ScenarioSpec()
        greedy.optimize_packed(generate_scenario(spec, range(25)), 25, GreedyConfig())
        assert built_rows[0] == 1250
        assert (built_rows[1] < 1250) is pruned
        assert len(built_rows) == 2

    @staticmethod
    def assert_each_read_builds_the_ladder(sol, sc, built_rows):
        """A trace read builds every ladder row once, in blocks of at most
        `_CHUNK` cells, and so does the next read: nothing is cached."""
        assert set(vars(sol)) == FIELDS
        assert len(sol.trace_totals) == sol.evaluations
        levels = len(sol.ladder)
        assert sum(built_rows[2:]) == 2000
        assert max(built_rows[2:]) * levels <= max(greedy._CHUNK, levels)
        local, offload = task_energy_endpoints(sc)
        full = energy_at(local[:, None], offload[:, None], sol.ladder)
        assert sol.ladder_energy.tobytes() == full.tobytes()
        assert sum(built_rows[2:]) == 2 * 2000  # the trace's, then this read's
        assert set(vars(sol)) == FIELDS

    def test_a_converged_optimize_builds_the_trace_ladder_at_each_read(self, built_rows):
        sc = generate_scenario(ScenarioSpec(n_devices=50, tasks_per_device=40), [1])
        sol = optimize(sc, GreedyConfig())
        assert sol.termination == TERMINATION_CONVERGED
        assert built_rows == [2000, 2000]
        self.assert_each_read_builds_the_ladder(sol, sc, built_rows)

    def test_a_pruned_optimize_builds_the_trace_ladder_at_each_read(self, built_rows):
        spec = replace(balanced_spec(), n_devices=50, tasks_per_device=40)
        sc = generate_scenario(spec, [0])
        sol = optimize(sc, GreedyConfig())
        assert sol.termination == TERMINATION_SATURATED
        assert built_rows[0] == 2000 > built_rows[1]
        self.assert_each_read_builds_the_ladder(sol, sc, built_rows)


class TestOracleImport:
    def test_the_greedy_keeps_no_stand_in(self):
        # conftest.py sets the constant on the greedy only while the oracle imports
        assert not hasattr(greedy, "TERMINATION_ITER_CAPPED")
        assert not hasattr(GreedyConfig(), "max_iters")
        assert not hasattr(GreedyConfig, "resolve_max_iters")
        assert reference_greedy.TERMINATION_ITER_CAPPED == "iter_capped"
