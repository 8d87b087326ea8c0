"""Independent checks of the files the offloadlab CLI writes.

Nothing here imports offloadlab.  The per-task energy endpoints are the
paper's formulas written out again, and the scenario sampler is a
vectorised replica of the documented draw order, so a change to the
program that alters a result is caught rather than re-derived.

Energy is affine in each offload ratio l: E_i(l) = local_i (1 - l) +
offload_i l.  The optimum is therefore the threshold rule l_i in {0, 1}
(You, Huang, Chae & Kim, IEEE TWC 2017), and its total is
sum_i min(local_i, offload_i).  The greedy's distance from that total is
the quality guard every speed-up must keep.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

REL_TOL = 1e-9

# SpectralConfig defaults: subcarrier spacing, speed of light, linear SNR.
SUBCARRIER_SPACING_HZ = 100e3
LIGHT_SPEED_MPS = 3e8
SNR_LINEAR = 100.0

# ScenarioSpec defaults, in the sampler's per-device draw order.
DEFAULT_DEVICE_RANGES = (
    ("cpu_freq_hz", (5e8, 1.5e9)),
    ("energy_coeff", (1e-28, 1e-28)),
    ("bandwidth_hz", (1e6, 1e6)),
    ("noise_var_w", (1e-13, 1e-13)),
    ("gain", (1.0, 1.0)),
    ("speed_mps", (100.0, 400.0)),
    ("carrier_freq_hz", (1e9, 30e9)),
)
DEFAULT_TASK_RANGES = (("data_bits", (1e6, 8e6)), ("cycles_per_bit", (500.0, 1500.0)))

# The balanced ranges (tests/helpers.balanced_spec): local and offload
# costs compete, so greedy runs stop "saturated" after a few bumps.
BALANCED_SCENARIO = {
    "n_devices": 5,
    "tasks_per_device": 10,
    "cycles_per_bit": [600.0, 1400.0],
    "cpu_freq_hz": [1e9, 1e9],
    "carrier_freq_hz": [1e9, 3e9],
    "noise_var_w": [6.6e-3, 6.6e-3],
}
# Constants a dataset row does not carry; pinned by the ranges above.
BALANCED_ENERGY_COEFF = 1e-28
BALANCED_NOISE_VAR_W = 6.6e-3
BALANCED_GAIN = 1.0

DATASET_HEADER = ["TaskSize", "OffloadingRatio", "Speed", "CarrierFrequency",
                  "CyclesPerBit", "CpuFreq", "Bandwidth", "energy_j"]
TERMINATIONS = ("converged", "saturated", "iter_capped")


class CheckFailed(Exception):
    """An output file is missing, malformed or disagrees with the oracle."""


def _require(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _close(actual, expected, what: str) -> None:
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    _require(actual.shape == expected.shape,
             f"{what}: shape {actual.shape} != {expected.shape}")
    bad = ~(np.abs(actual - expected) <= REL_TOL * np.abs(expected))
    _require(not bad.any(), f"{what}: {int(bad.sum())} values off by more than "
                            f"{REL_TOL:g} relative")


def energy_endpoints(data_bits, cycles_per_bit, cpu_freq_hz, energy_coeff,
                     bandwidth_hz, noise_var_w, gain, speed_mps, carrier_freq_hz):
    """Per-task energy (J) when run fully locally and when fully offloaded.

    Local: kappa c f^2 D.  Offload: p D / (B se), with the power
    p = (2^se - 1) N0 / g that sustains se = log2(1 + snr / (1 + nu^2)),
    nu the Doppler shift v f_c / c over the subcarrier spacing.
    """
    local = energy_coeff * cycles_per_bit * cpu_freq_hz ** 2 * data_bits
    nu = speed_mps * carrier_freq_hz / LIGHT_SPEED_MPS / SUBCARRIER_SPACING_HZ
    se = np.log2(1.0 + SNR_LINEAR / (1.0 + nu * nu))
    power = (2.0 ** se - 1.0) * noise_var_w / gain
    offload = power * data_bits / (bandwidth_hz * se)
    return local, offload


def sample_default_scenario(seed: int, n_devices: int, tasks_per_device: int) -> dict:
    """Per-task parameters of `generate_scenario` under the default ranges.

    Per device the sampler draws cpu, energy coefficient, bandwidth, noise,
    gain, speed and carrier, then data_bits and cycles_per_bit per task,
    each as lo + (hi - lo) * u from one seeded stream; one block of
    uniforms in that order reproduces the scalar draws bit for bit.
    """
    n_dev_draws = len(DEFAULT_DEVICE_RANGES)
    width = n_dev_draws + 2 * tasks_per_device
    u = np.random.default_rng(seed).random(n_devices * width).reshape(n_devices, width)
    params = {}
    for col, (name, (lo, hi)) in enumerate(DEFAULT_DEVICE_RANGES):
        params[name] = np.repeat(lo + (hi - lo) * u[:, col], tasks_per_device)
    task_block = u[:, n_dev_draws:].reshape(n_devices, tasks_per_device, 2)
    for col, (name, (lo, hi)) in enumerate(DEFAULT_TASK_RANGES):
        params[name] = (lo + (hi - lo) * task_block[:, :, col]).ravel()
    return params


def _read_csv(path: Path, header: list[str]) -> list[list[str]]:
    _require(path.is_file(), f"{path.name} was not written")
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    _require(rows and rows[0] == header, f"{path.name}: header {rows[:1]} != {header}")
    return rows[1:]


def _floats(rows, what: str) -> np.ndarray:
    try:
        data = np.asarray(rows, dtype=float)
    except ValueError as exc:
        raise CheckFailed(f"{what}: {exc}") from None
    _require(np.isfinite(data).all(), f"{what}: non-finite values")
    return data


def check_solution(out_dir: Path, seed: int, n_devices: int,
                   tasks_per_device: int) -> dict:
    """`optimize` on the default ranges: solution.json and trace.csv.

    Returns the tasks optimised and the greedy total over the optimum.
    """
    path = out_dir / "solution.json"
    _require(path.is_file(), "solution.json was not written")
    try:
        payload = json.loads(path.read_text())
        ratios = np.asarray(payload["offload_ratios"], dtype=float)
        energies = np.asarray(payload["per_task_energy_j"], dtype=float)
        total = float(payload["total_energy_j"])
        evaluations = int(payload["evaluations"])
        termination = payload["termination"]
    except (ValueError, KeyError, TypeError) as exc:
        raise CheckFailed(f"solution.json: {exc!r}") from None
    n = n_devices * tasks_per_device
    _require(ratios.shape == (n,) and energies.shape == (n,),
             f"solution.json: expected {n} ratios and energies")
    _require(termination in TERMINATIONS, f"unknown termination {termination!r}")
    _require(np.isfinite(ratios).all() and (ratios >= 0).all() and (ratios <= 1).all(),
             "offload ratios outside [0, 1]")
    local, offload = energy_endpoints(**sample_default_scenario(seed, n_devices,
                                                                tasks_per_device))
    _close(energies, local * (1.0 - ratios) + offload * ratios, "per-task energy")
    _close(total, energies.sum(), "total energy")
    trace = _floats(_read_csv(out_dir / "trace.csv",
                              ["iteration", "total_energy_j", "task_index"]), "trace.csv")
    _require(len(trace) == evaluations, f"trace.csv has {len(trace)} rows, "
                                        f"solution.json says {evaluations} evaluations")
    _close(trace[:, 1].min(), total, "best total in trace.csv")
    return {"items": n, "greedy_total_j": total,
            "optimum_j": float(np.minimum(local, offload).sum())}


def check_dataset(path: Path, n_rows: int) -> dict:
    """`gen-data` on the balanced ranges: every target from its own row."""
    data = _floats(_read_csv(path, DATASET_HEADER), path.name)
    _require(data.shape == (n_rows, len(DATASET_HEADER)),
             f"{path.name}: {data.shape[0]} rows, expected {n_rows}")
    size, ratio, speed, carrier, cycles, cpu, bandwidth, target = data.T
    _require(((ratio >= 0) & (ratio <= 1)).all(), "OffloadingRatio outside [0, 1]")
    local, offload = energy_endpoints(size, cycles, cpu, BALANCED_ENERGY_COEFF, bandwidth,
                                      BALANCED_NOISE_VAR_W, BALANCED_GAIN, speed, carrier)
    _close(target, local * (1.0 - ratio) + offload * ratio, f"{path.name} energy_j")
    return {"items": n_rows, "greedy_total_j": float(target.sum()),
            "optimum_j": float(np.minimum(local, offload).sum())}


def check_learn(out_dir: Path, k_max: int, subsets: tuple[str, ...],
                n_features: int, n_clusters: int, predict_truth: np.ndarray) -> dict:
    """`evaluate`, `train` and `predict` outputs of one learn op.

    Returns the best MAE over the k-sweep of the first subset.
    """
    ranking = _read_csv(out_dir / "mi_ranking.csv", ["feature", "mi_bits"])
    _require(len(ranking) == n_features, f"mi_ranking.csv has {len(ranking)} rows")
    _require((_floats([r[1:] for r in ranking], "mi_ranking.csv") >= 0).all(),
             "negative mutual information")
    best_mae = {}
    for label in subsets:
        rows = _floats(_read_csv(out_dir / f"eval_{label}.csv", ["k", "mae_j", "mse_j2"]),
                       f"eval_{label}.csv")
        _require(rows.shape == (k_max, 3), f"eval_{label}.csv: {len(rows)} rows, "
                                           f"expected {k_max}")
        _require((rows[:, 0] == np.arange(1, k_max + 1)).all(), f"eval_{label}.csv: bad k")
        _require((rows[:, 1:] >= 0).all(), f"eval_{label}.csv: negative error")
        best_mae[label] = float(rows[:, 1].min())
    model_path = out_dir / "model.json"
    _require(model_path.is_file(), "model.json was not written")
    try:
        model = json.loads(model_path.read_text())
        coeffs = np.asarray([c["coeffs"] for c in model["clusters"]], dtype=float)
        centroids = np.asarray(model["kmeans"]["centroids"], dtype=float)
    except (ValueError, KeyError, TypeError) as exc:
        raise CheckFailed(f"model.json: {exc!r}") from None
    _require(coeffs.shape[0] == n_clusters == centroids.shape[0],
             f"model.json: expected {n_clusters} clusters")
    _require(np.isfinite(coeffs).all() and np.isfinite(centroids).all(),
             "model.json: non-finite parameters")
    preds = _floats(_read_csv(out_dir / "predictions.csv",
                              ["row", "energy_pred_j", "energy_true_j"]), "predictions.csv")
    n = len(predict_truth)
    _require(preds.shape == (n, 3), f"predictions.csv: {len(preds)} rows, expected {n}")
    _require((preds[:, 0] == np.arange(n)).all(), "predictions.csv: bad row index")
    _require((preds[:, 2] == predict_truth).all(),
             "predictions.csv: energy_true_j differs from the input")
    return {"best_mae_j": best_mae[subsets[0]]}


def gap_pct(greedy_total: float, optimum: float) -> float:
    """Greedy total above the closed-form optimum, in percent."""
    _require(math.isfinite(greedy_total) and optimum > 0, "no optimum to compare with")
    return (greedy_total / optimum - 1.0) * 100.0
