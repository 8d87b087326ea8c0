"""Release acceptance checks.

Each test covers one acceptance criterion end to end, with its own time
budget, and prints a single PASS line (visible under ``pytest -v -s`` or in
captured output).  Run them all with::

    python3 -m pytest tests/test_acceptance.py -v

The heavyweight artifact builds (criteria 2, 6, 8) are cached at module
scope so the reproducibility check can compare a fresh rebuild against the
first build byte for byte.
"""

import csv
import io
import itertools
import json
import math
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest

from offloadlab.cli import main as cli_main
from offloadlab.cluster import evaluate_models, fit_linear_model, kmeans_fit
from offloadlab.datagen import ScenarioSpec, build_dataset, generate_scenario
from offloadlab.features import (PRIMARY_FEATURES, Dataset,
                                 mutual_information, rank_features,
                                 split_dataset)
from offloadlab import model
from offloadlab.greedy import GreedyConfig, optimize, task_energy_endpoints
from offloadlab.model import CHANNEL_DTYPE, DEVICE_DTYPE, TASK_DTYPE, Scenario, energy_at
from offloadlab.spectral import SpectralConfig

from helpers import balanced_spec


def _finish(criterion: int, t0: float, budget_s: float | None,
            detail: str = "") -> None:
    elapsed = time.perf_counter() - t0
    if budget_s is not None:
        assert elapsed < budget_s, (
            f"criterion {criterion} took {elapsed:.2f}s, budget {budget_s:.0f}s")
    print(f"criterion {criterion:02d}: PASS in {elapsed:.2f}s {detail}".rstrip())


def _csv_bytes(header, rows) -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        writer.writerow([repr(v) if isinstance(v, float) else str(v)
                         for v in row])
    return buf.getvalue().encode()


# ---------------------------------------------------------------- artifacts

_CACHE: dict = {}


def _build_c2():
    """Greedy runs over 100 sampled scenarios plus the CLI outputs for one."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        assert cli_main(["optimize", "--seed", "0", "--out", str(out)]) == 0
        files = {
            "solution.json": (out / "solution.json").read_bytes(),
            "trace.csv": (out / "trace.csv").read_bytes(),
        }
    stats = []
    for seed in range(100):
        scenario = generate_scenario(ScenarioSpec(seed=seed))
        solution = optimize(scenario, GreedyConfig())
        stats.append({
            "seed": seed,
            "evaluations": solution.evaluations,
            "termination": solution.termination,
            "energies": tuple(solution.trace_totals),
            "total": solution.total_energy,
        })
    files["summary.csv"] = _csv_bytes(
        ["seed", "evaluations", "termination", "total_energy_j"],
        [(s["seed"], s["evaluations"], s["termination"], s["total"])
         for s in stats])
    return files, stats


def _build_c6():
    """Twenty small clustering fixtures fitted with restarts."""
    rng = np.random.default_rng(606)
    fixtures = []
    fits = []
    for fx in range(20):
        n = int(rng.integers(4, 9))
        d = int(rng.integers(1, 3))
        k = int(rng.integers(1, min(3, n) + 1))
        points = rng.normal(size=(n, d))
        model = kmeans_fit(points, k, seed=fx, restarts=10)
        fixtures.append((points, k))
        fits.append(model)
    payload = [{
        "n": len(points),
        "k": k,
        "inertia": model.inertia,
        "iterations": model.iterations_run,
        "labels": model.labels.tolist(),
        "centroids": [row.tolist() for row in model.centroids],
        "history": list(model.inertia_history),
    } for (points, k), model in zip(fixtures, fits)]
    blob = json.dumps(payload, sort_keys=True, indent=1).encode()
    return {"kmeans_fits.json": blob}, fixtures, fits


def _build_c8():
    """The feature-selection study: dataset, ranking, and k-sweep reports."""
    specs = [balanced_spec(100 + i) for i in range(40)]
    dataset = build_dataset(specs)
    train, test = split_dataset(dataset, 0.25, 0)
    pool = Dataset(feature_names=PRIMARY_FEATURES,
                   X=train.select(PRIMARY_FEATURES), y=train.y)
    ranking = rank_features(pool)
    top2 = tuple(name for name, _ in ranking[:2])
    report_top2 = evaluate_models(train, test, 10, feature_subset=top2,
                                  seed=0, restarts=10)
    report_all4 = evaluate_models(train, test, 10,
                                  feature_subset=PRIMARY_FEATURES,
                                  seed=0, restarts=10)
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        dataset.to_csv(root / "dataset.csv")
        report_top2.to_csv(root / "eval_top2.csv")
        report_all4.to_csv(root / "eval_all4.csv")
        files = {
            "dataset.csv": (root / "dataset.csv").read_bytes(),
            "mi_ranking.csv": _csv_bytes(["feature", "mi_bits"], ranking),
            "eval_top2.csv": (root / "eval_top2.csv").read_bytes(),
            "eval_all4.csv": (root / "eval_all4.csv").read_bytes(),
        }
    return files, ranking, report_top2, report_all4


def _artifact(key: str):
    if key not in _CACHE:
        _CACHE[key] = {"c2": _build_c2, "c6": _build_c6, "c8": _build_c8}[key]()
    return _CACHE[key]


def _partition_optimum(points: np.ndarray, k: int) -> float:
    """Exhaustive best inertia over every assignment into k groups."""
    best = math.inf
    for labels in itertools.product(range(k), repeat=len(points)):
        lab = np.asarray(labels)
        total = 0.0
        for c in range(k):
            members = points[lab == c]
            if len(members):
                total += float(((members - members.mean(axis=0)) ** 2).sum())
        best = min(best, total)
    return best


# ---------------------------------------------------------------- criteria

def test_criterion_01_energy_formulas():
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    # every draw is one task on its own device, whose carrier keys its se
    devices, tasks, channels, ses, ratios, want_energy = [], [], [], {}, [], []
    for i in range(1000):
        ratio = float(rng.uniform(0.0, 1.0))
        bits = float(rng.uniform(0.0, 1e8))
        cycles = float(rng.uniform(1.0, 1e4))
        cpu = float(rng.uniform(1e6, 1e10))
        coeff = float(rng.uniform(1e-30, 1e-26))
        bandwidth = float(rng.uniform(1e4, 1e8))
        noise = float(rng.uniform(1e-15, 1e-9))
        gain = float(rng.uniform(0.5, 1.5))
        se = float(rng.uniform(0.1, 20.0))

        devices.append((cpu, coeff))
        tasks.append((i, bits, cycles))
        channels.append((bandwidth, noise, gain, 0.0, 1e9 + i))
        ses[1e9 + i] = se
        ratios.append(ratio)

        shipped = ratio * bits
        kept = (1.0 - ratio) * bits
        want_local_e = coeff * (cpu ** 2) * cycles * kept
        want_off_e = ((2.0 ** se - 1.0) * noise / gain) * shipped / (bandwidth * se)
        want_energy += [want_local_e, want_off_e, want_local_e + want_off_e]

    scenario = Scenario(devices=np.array(devices, dtype=DEVICE_DTYPE),
                        tasks=np.array(tasks, dtype=TASK_DTYPE),
                        channels=np.array(channels, dtype=CHANNEL_DTYPE),
                        spectral_config=SpectralConfig())
    ratios = np.array(ratios)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model, "calc_se", lambda speed, carrier, config: ses[carrier])
        local, offload = task_energy_endpoints(scenario)
    total = energy_at(local, offload, ratios)
    got_energy = np.column_stack([energy_at(local, 0.0, ratios),
                                  energy_at(0.0, offload, ratios), total])
    worst = 0.0
    for got, want in zip(got_energy.ravel().tolist(), want_energy):
        assert got == pytest.approx(want, rel=1e-12, abs=1e-300)
        if want != 0.0:
            worst = max(worst, abs(got - want) / abs(want))
    _finish(1, t0, 1.0, f"(1000 draws, max rel err {worst:.2e})")


def test_criterion_02_greedy_descent_and_budget():
    t0 = time.perf_counter()
    files, stats = _artifact("c2")
    bound = math.ceil(0.5 / 0.01) * 5 * 10 + 1
    for s in stats:
        energies = s["energies"]
        assert s["evaluations"] <= bound, s["seed"]
        assert s["total"] <= energies[0]
        for a, b in zip(energies[:-2], energies[1:-1]):
            assert b < a, f"seed {s['seed']}: non-improving intermediate step"
    assert files["trace.csv"].startswith(b"iteration,total_energy_j,task_index")
    _finish(2, t0, 10.0,
            f"(100 scenarios, max evaluations {max(s['evaluations'] for s in stats)})")


def test_criterion_03_greedy_vs_grid_optimum():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    grid = np.arange(101) / 100.0
    reachable_hits = 0
    reachable_total = 0
    for _ in range(50):
        cpu = float(rng.uniform(5e8, 1.5e9))
        noise = float(10.0 ** rng.uniform(-10.0, 0.0))
        speed = float(rng.uniform(0.0, 400.0))
        carrier = float(rng.uniform(1e9, 3e10))
        bits = [float(rng.uniform(1e6, 8e6)) for _ in range(2)]
        cycles = [float(rng.uniform(500.0, 1500.0)) for _ in range(2)]
        scenario = Scenario(
            devices=np.array([(cpu, 1e-28)], dtype=DEVICE_DTYPE),
            tasks=np.array([(0, bits[i], cycles[i]) for i in range(2)], dtype=TASK_DTYPE),
            channels=np.array([(1e6, noise, 1.0, speed, carrier)], dtype=CHANNEL_DTYPE),
            spectral_config=SpectralConfig(),
        )
        at_zero, at_one = task_energy_endpoints(scenario)
        surface = (at_zero[0] * (1.0 - grid) + at_one[0] * grid)[:, None] \
            + (at_zero[1] * (1.0 - grid) + at_one[1] * grid)[None, :]
        optimum = float(surface.min())
        opt_i, opt_j = np.unravel_index(int(surface.argmin()), surface.shape)

        solution = optimize(scenario, GreedyConfig())
        scale = max(abs(optimum), 1e-300)
        assert solution.total_energy >= optimum - 1e-9 * scale

        if grid[opt_i] >= 0.5 and grid[opt_j] >= 0.5:
            reachable_total += 1
            assert solution.total_energy == pytest.approx(optimum, rel=1e-9)
            reachable_hits += 1
    _finish(3, t0, 30.0,
            f"(50 scenarios, {reachable_hits}/{reachable_total} reachable optima matched)")


def test_criterion_04_energy_monotone_in_speed(tmp_path):
    t0 = time.perf_counter()
    out = tmp_path / "out"
    assert cli_main(["sweep-modulation", "--seed", "0", "--out", str(out)]) == 0
    with open(out / "sweep_modulation.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [float(r["speed_mps"]) for r in rows] == [100.0, 200.0, 300.0, 400.0]
    carriers = {r["carrier_freq_hz"] for r in rows}
    assert len(carriers) == 1
    energies = [float(r["total_energy_j"]) for r in rows]
    diffs = np.diff(energies)
    assert np.all(diffs < 0) or np.all(diffs > 0), energies
    _finish(4, t0, 5.0, f"(energies {energies[0]:.3e} .. {energies[-1]:.3e})")


def test_criterion_05_offload_gap_grows_with_size(tmp_path):
    t0 = time.perf_counter()
    out = tmp_path / "out"
    assert cli_main(["sweep-datasize", "--seed", "0", "--out", str(out)]) == 0
    with open(out / "sweep_datasize.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 5
    gaps = [float(r["gap_j"]) for r in rows]
    assert all(g >= 0.0 for g in gaps)
    assert all(b >= a for a, b in zip(gaps, gaps[1:]))
    _finish(5, t0, 5.0, f"(gap {gaps[0]:.3e} .. {gaps[-1]:.3e} J)")


def test_criterion_06_kmeans_matches_exhaustive_partitions():
    t0 = time.perf_counter()
    _, fixtures, fits = _artifact("c6")
    exact = 0
    for (points, k), model in zip(fixtures, fits):
        optimum = _partition_optimum(points, k)
        assert model.inertia >= optimum - 1e-9
        if model.inertia <= optimum + 1e-9 * max(optimum, 1.0):
            exact += 1
        history = np.asarray(model.inertia_history)
        assert not np.any(np.diff(history) > 1e-9)
    assert exact >= 15, f"only {exact}/20 fixtures reached the optimum"
    _finish(6, t0, 10.0, f"({exact}/20 fixtures optimal)")


def test_criterion_07_estimator_sanity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(707)

    x = rng.uniform(size=10_000)
    y = rng.uniform(size=10_000)
    mi_indep = mutual_information(x, y, bins=16)
    assert mi_indep < 0.05
    mi_self = mutual_information(x, x, bins=16)
    assert abs(mi_self - math.log2(16)) <= 0.1 * math.log2(16)

    X = rng.uniform(-1.0, 1.0, size=(500, 3))
    coeffs = np.array([0.3, 0.7, -1.2, 2.5])
    y_exact = coeffs[0] + X @ coeffs[1:]
    fit = fit_linear_model(X, y_exact)
    assert np.allclose(fit.coeffs, coeffs, atol=1e-8)

    y_noisy = y_exact + rng.normal(scale=0.5, size=500)
    fit_noisy = fit_linear_model(X, y_noisy)
    design = np.hstack([np.ones((500, 1)), X])
    resid = y_noisy - fit_noisy.predict(X)
    assert np.abs(design.T @ resid).max() < 1e-6 * np.linalg.norm(y_noisy)
    _finish(7, t0, 5.0,
            f"(MI indep {mi_indep:.3f} bits, self {mi_self:.3f} bits)")


def test_criterion_08_feature_selection_beats_plain_fit():
    t0 = time.perf_counter()
    _, ranking, report_top2, report_all4 = _artifact("c8")
    top2 = tuple(name for name, _ in ranking[:2])
    assert set(top2) == {"TaskSize", "OffloadingRatio"}, ranking
    best_k, best_mae, _ = report_top2.best_k()
    all4_k1_mae = {k: mae for k, mae, _ in report_all4.rows}[1]
    assert best_mae <= all4_k1_mae, (best_mae, all4_k1_mae)
    _finish(8, t0, 60.0,
            f"(top-2 best k={best_k} MAE {best_mae:.4f} J vs all-4 k=1 MAE {all4_k1_mae:.4f} J)")


def test_criterion_09_clusters_capture_planted_regimes():
    t0 = time.perf_counter()
    rng = np.random.default_rng(909)
    blobs = []
    targets = []
    for low, intercept, slope in ((0.0, 1.0, 2.0), (10.0, 50.0, -3.0),
                                  (20.0, -10.0, 5.0)):
        x = rng.uniform(low, low + 1.0, size=200)
        blobs.append(x)
        targets.append(intercept + slope * x)
    dataset = Dataset(feature_names=("TaskSize",),
                      X=np.concatenate(blobs).reshape(-1, 1),
                      y=np.concatenate(targets))
    train, test = split_dataset(dataset, 0.25, 0)
    report = evaluate_models(train, test, 3, seed=0, restarts=10)
    mae = {k: m for k, m, _ in report.rows}
    assert mae[3] < 0.5 * mae[1], mae
    _finish(9, t0, 10.0, f"(MAE k=1 {mae[1]:.3f} J, k=3 {mae[3]:.2e} J)")


def test_criterion_10_reruns_are_byte_identical():
    t0 = time.perf_counter()
    first_c2, _ = _artifact("c2")
    first_c6 = _artifact("c6")[0]
    first_c8 = _artifact("c8")[0]
    fresh_c2, _ = _build_c2()
    fresh_c6 = _build_c6()[0]
    fresh_c8 = _build_c8()[0]
    for name, fresh, first in (("c2", fresh_c2, first_c2),
                               ("c6", fresh_c6, first_c6),
                               ("c8", fresh_c8, first_c8)):
        assert sorted(fresh) == sorted(first), name
        for fname, blob in fresh.items():
            assert blob == first[fname], f"{name}:{fname} differs between runs"
    total_bytes = sum(len(b) for files in (fresh_c2, fresh_c6, fresh_c8)
                      for b in files.values())
    _finish(10, t0, None, f"({total_bytes} bytes compared)")
