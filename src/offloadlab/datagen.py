"""Scenario sampling and dataset assembly.

Scenarios are drawn from per-field uniform ranges with a seeded generator;
a degenerate range (lo == hi) pins the field while keeping the draw stream
aligned, so two specs that differ only in a pinned value produce otherwise
identical scenarios.  All uniforms of a scenario come from one
``rng.random`` block, mapped as ``lo + (hi - lo) * u``; that is exactly what
one scalar ``rng.uniform`` draw per field computes, so the values match the
field-by-field stream bit for bit.  Datasets are assembled from whole
columns per scenario.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import greedy as greedy_mod
from .features import CANONICAL_FEATURES, Dataset
from .model import _MAY_BE_ZERO, CHANNEL_DTYPE, DEVICE_DTYPE, TASK_DTYPE, Scenario
# calc_se stays importable here: perfbench/selftest.py checks this import site
from .spectral import SpectralConfig, calc_se  # noqa: F401

Range = tuple[float, float]

# every sampled field in draw order: a device's device and channel fields in
# record order, then a task's data_bits and cycles_per_bit
SAMPLED_FIELDS = DEVICE_DTYPE.names + CHANNEL_DTYPE.names + TASK_DTYPE.names[1:]


@dataclass(frozen=True)
class ScenarioSpec:
    """Sampling ranges for one random scenario.  All units SI."""

    n_devices: int = 5
    tasks_per_device: int = 10
    seed: int = 0
    data_bits: Range = (1e6, 8e6)
    cycles_per_bit: Range = (500.0, 1500.0)
    cpu_freq_hz: Range = (5e8, 1.5e9)
    energy_coeff: Range = (1e-28, 1e-28)
    speed_mps: Range = (100.0, 400.0)
    carrier_freq_hz: Range = (1e9, 30e9)
    bandwidth_hz: Range = (1e6, 1e6)
    noise_var_w: Range = (1e-13, 1e-13)
    gain: Range = (1.0, 1.0)

    def __post_init__(self):
        if self.n_devices < 1:
            raise ValueError("n_devices must be >= 1")
        if self.tasks_per_device < 1:
            raise ValueError("tasks_per_device must be >= 1")
        if self.seed < 0:
            raise ValueError("scenario.seed must be >= 0")
        for name in SAMPLED_FIELDS:
            lo, hi = getattr(self, name)
            # rng.uniform refuses a non-finite span; the block draw relies on this
            if not math.isfinite(hi - lo):
                raise ValueError(f"{name}: range ({lo}, {hi}) is not finite")
            if lo > hi:
                raise ValueError(f"{name}: range lower bound {lo} exceeds upper bound {hi}")
            strict = name not in _MAY_BE_ZERO
            if not (lo > 0 if strict else lo >= 0):
                raise ValueError(f"{name}: lower bound must be {'>' if strict else '>='} 0")


def _records(dtype: np.dtype, columns) -> np.ndarray:
    """A structured array of `dtype` holding `columns` in field order."""
    out = np.empty(len(columns[0]), dtype)
    for name, column in zip(dtype.names, columns):
        out[name] = column
    return out


def generate_scenario(spec: ScenarioSpec,
                      spectral_config: SpectralConfig | None = None) -> Scenario:
    """Sample devices, channels, and tasks from the spec's ranges.

    Per device the draw order is: cpu_freq, energy_coeff, bandwidth, noise,
    gain, speed, carrier; then data_bits and cycles_per_bit per task.  Every
    field consumes one draw, even a pinned one.  The columns of the
    scenario's record arrays are sliced straight out of the draw block.
    """
    cfg = spectral_config if spectral_config is not None else SpectralConfig()
    # a device's row: its device and channel fields, then the task fields
    # once per task
    fields = SAMPLED_FIELDS + TASK_DTYPE.names[1:] * (spec.tasks_per_device - 1)
    lo = np.array([getattr(spec, f)[0] for f in fields])
    hi = np.array([getattr(spec, f)[1] for f in fields])
    u = np.random.default_rng(spec.seed).random(spec.n_devices * len(fields))
    values = lo + (hi - lo) * u.reshape(spec.n_devices, len(fields))
    d, c = len(DEVICE_DTYPE), len(DEVICE_DTYPE) + len(CHANNEL_DTYPE)
    device_ids = np.repeat(np.arange(spec.n_devices), spec.tasks_per_device)
    return Scenario(
        devices=_records(DEVICE_DTYPE, values[:, :d].T),
        channels=_records(CHANNEL_DTYPE, values[:, d:c].T),
        tasks=_records(TASK_DTYPE, (device_ids, *values[:, c:].reshape(-1, 2).T)),
        spectral_config=cfg)


def build_dataset(specs, greedy_config: greedy_mod.GreedyConfig | None = None,
                  spectral_config: SpectralConfig | None = None) -> Dataset:
    """Optimize each sampled scenario and emit one row per task.

    The target column is the task's energy at the greedy solution, so every
    row is self-consistent: recomputing the energy from the row's features
    (plus the spec's pinned constants) reproduces the target.
    """
    gcfg = greedy_config if greedy_config is not None else greedy_mod.GreedyConfig()
    blocks = []
    targets = []
    for spec in specs:
        scenario = generate_scenario(spec, spectral_config)
        solution = greedy_mod.optimize(scenario, gcfg)
        tasks, devices, channels = scenario.tasks, scenario.devices, scenario.channels
        dev = tasks.device_id
        blocks.append(np.column_stack((
            tasks.data_bits, solution.offload_ratios, channels.speed_mps[dev],
            channels.carrier_freq_hz[dev], tasks.cycles_per_bit,
            devices.cpu_freq_hz[dev], channels.bandwidth_hz[dev])))
        targets.append(solution.per_task_energy)
    if not blocks:
        raise ValueError("no scenarios given")
    return Dataset(feature_names=CANONICAL_FEATURES,
                   X=np.concatenate(blocks), y=np.concatenate(targets))
