"""Scenario sampling and dataset assembly.

Scenarios are drawn from per-field uniform ranges with a seeded generator;
a degenerate range (lo == hi) pins the field while keeping the draw stream
aligned, so two specs that differ only in a pinned value produce otherwise
identical scenarios.  A device's draws, compute and uplink alike, fill one
`DEVICE_DTYPE` row in draw order.  All uniforms of a scenario come from one
``rng.random`` block, mapped as ``lo + (hi - lo) * u``; that is exactly what
one scalar ``rng.uniform`` draw per field computes, so the values match the
field-by-field stream bit for bit.

`build_dataset` samples one spec at many seeds, in batches of seeds.  A
batch is sampled as one `Scenario` holding each seed's devices in turn,
priced by one `task_energy_endpoints` call and solved by one
`greedy.optimize_packed` call on its equal groups of tasks, whose
threshold needs no per-scenario sort and which builds ladder rows only
for tasks that can leave their start ratio.  Of its results only the
ratios and per-task energies are kept; with the batch's columns they go
straight into the dataset matrix.  A batch holds at most `BATCH_CELLS`
ladder cells (tasks x ratio levels), which bounds its memory when every
row is built; a larger scenario is a batch of its own.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import greedy as greedy_mod
from .features import CANONICAL_FEATURES, Dataset
from .model import _MAY_BE_ZERO, DEVICE_DTYPE, TASK_DTYPE, Scenario
# calc_se stays importable here: perfbench/selftest.py checks this import site
from .spectral import SpectralConfig, calc_se  # noqa: F401

Range = tuple[float, float]

# ladder cells (tasks x the built ladder's length) solved at once, about 25
# balanced scenarios.  On 2 cores, 400 balanced scenarios took 225 ms one at
# a time and 48 ms in batches of this size, no less in larger ones; one
# batch of all 400 raised gen-data's peak RSS from 41 to 57 MB.  The greedy
# builds only the rows of tasks that can leave their start ratio, so this
# bounds the worst case: default ranges, where every row is built.
BATCH_CELLS = 1 << 16

# every sampled field in draw order: a device's fields in record order, then
# a task's data_bits and cycles_per_bit
SAMPLED_FIELDS = DEVICE_DTYPE.names + TASK_DTYPE.names[1:]


@dataclass(frozen=True)
class ScenarioSpec:
    """Sampling ranges for one random scenario.  All units SI."""

    n_devices: int = 5
    tasks_per_device: int = 10
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

    @property
    def n_tasks(self) -> int:
        return self.n_devices * self.tasks_per_device


def generate_scenario(spec: ScenarioSpec, seeds: Sequence[int],
                      spectral_config: SpectralConfig | None = None) -> Scenario:
    """Sample devices and tasks from the spec's ranges, once per seed.

    Per device the draw order is: cpu_freq_hz, energy_coeff, bandwidth_hz,
    noise_var_w, gain, speed_mps, carrier_freq_hz; then data_bits and
    cycles_per_bit per task.  Every field consumes one draw, even a pinned
    one.  Each seed draws its own block, and the one scenario returned
    holds the seeds' devices in order, with each task's device id offset
    to match.  The columns of the scenario's record arrays are sliced
    straight out of the draw blocks.
    """
    if len(seeds) == 0:
        raise ValueError("no scenarios given")
    cfg = spectral_config if spectral_config is not None else SpectralConfig()
    # a device's row: its device fields, then the task fields once per task
    d = len(DEVICE_DTYPE)
    cells = spec.n_devices * (d + 2 * spec.tasks_per_device)
    u = np.concatenate([np.random.default_rng(seed).random(cells)
                        for seed in seeds]).reshape(len(seeds) * spec.n_devices, -1)
    lo, hi = np.array([getattr(spec, f) for f in SAMPLED_FIELDS]).T
    per_device = lo[:d] + (hi[:d] - lo[:d]) * u[:, :d]
    per_task = lo[d:] + (hi[d:] - lo[d:]) * u[:, d:].reshape(-1, 2)
    device_ids = np.arange(len(per_device)).repeat(spec.tasks_per_device)
    return Scenario(
        devices=np.rec.fromarrays(per_device.T, dtype=DEVICE_DTYPE),
        tasks=np.rec.fromarrays((device_ids, *per_task.T), dtype=TASK_DTYPE),
        spectral_config=cfg)


def _label(spec, seeds, X, y, gcfg, spectral_config) -> None:
    """Fill the rows `X`, `y` of `spec`'s tasks at `seeds`, sampled, priced
    and solved as one batch.  A failing batch is redone one seed at a time,
    so the first scenario that fails on its own raises, as in a
    per-scenario run."""
    try:
        scenario = generate_scenario(spec, seeds, spectral_config)
        ratios, energy = greedy_mod.optimize_packed(scenario, len(seeds), gcfg)[:2]
    except ValueError:
        if len(seeds) == 1:
            raise
        n = spec.n_tasks
        for i, seed in enumerate(seeds):
            _label(spec, [seed], X[i * n:(i + 1) * n], y[i * n:(i + 1) * n],
                   gcfg, spectral_config)
        return
    tasks, devices = scenario.tasks, scenario.devices
    dev = tasks.device_id
    for j, column in enumerate((
            tasks.data_bits, ratios, devices.speed_mps[dev],
            devices.carrier_freq_hz[dev], tasks.cycles_per_bit,
            devices.cpu_freq_hz[dev], devices.bandwidth_hz[dev])):
        X[:, j] = column
    y[:] = energy


def build_dataset(spec: ScenarioSpec, seeds: Sequence[int],
                  greedy_config: greedy_mod.GreedyConfig | None = None,
                  spectral_config: SpectralConfig | None = None) -> Dataset:
    """Optimize the scenario sampled at each seed and emit one row per task.

    The target column is the task's energy at the greedy solution, so every
    row is self-consistent: recomputing the energy from the row's features
    (plus the spec's pinned constants) reproduces the target.  Seeds are
    solved in batches of at most `BATCH_CELLS` ladder cells.
    """
    if len(seeds) == 0:
        raise ValueError("no scenarios given")
    gcfg = greedy_config if greedy_config is not None else greedy_mod.GreedyConfig()
    n = spec.n_tasks
    try:
        X, y = np.empty((len(seeds) * n, len(CANONICAL_FEATURES))), np.empty(len(seeds) * n)
    except MemoryError:
        raise ValueError(f"a dataset of {len(seeds) * n} rows does not fit in memory") from None
    batch = max(1, BATCH_CELLS // (n * len(gcfg.ladder(n))))
    for lo in range(0, len(seeds), batch):
        rows = slice(lo * n, (lo + batch) * n)
        _label(spec, seeds[lo:lo + batch], X[rows], y[rows], gcfg, spectral_config)
    return Dataset(feature_names=CANONICAL_FEATURES, X=X, y=y)
