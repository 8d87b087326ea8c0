"""Frozen copies of the original per-task sampler, endpoints and writers.

These are the scalar-draw `generate_scenario`, the per-task
`task_energy_endpoints` loop, the row loop of `build_dataset` and
`Dataset.to_csv` as they were before the array rewrite.  The library's
versions must give bit-identical scenarios, endpoint arrays, dataset
matrices and CSV bytes; the differential tests compare them.  The live
`optimize` labels the rows here, so a change in it shows up in
`reference_greedy`'s tests, not in these.  Do not edit the code below.
"""

from __future__ import annotations

import csv

import numpy as np

from helpers import SEProvider
from offloadlab import greedy as greedy_mod
from offloadlab.features import CANONICAL_FEATURES, TARGET_COLUMN, Dataset
from offloadlab.model import Channel, Device, Scenario, Task, implied_tx_power
from offloadlab.spectral import SpectralConfig, SpectralEfficiencyCache, calc_se


def _draw(rng: np.random.Generator, bounds) -> float:
    # always consumes one draw, even for a pinned range
    return float(rng.uniform(bounds[0], bounds[1]))


def generate_scenario(spec, spectral_config: SpectralConfig | None = None) -> Scenario:
    """Sample devices, channels, and tasks from the spec's ranges.

    Per device the draw order is: cpu_freq, energy_coeff, bandwidth, noise,
    gain, speed, carrier; then data_bits and cycles_per_bit per task.  The
    device transmit power is filled in from the channel at the mobility the
    device was sampled with.
    """
    cfg = spectral_config if spectral_config is not None else SpectralConfig()
    rng = np.random.default_rng(spec.seed)
    devices = []
    channels = []
    tasks = []
    for n in range(spec.n_devices):
        cpu = _draw(rng, spec.cpu_freq_hz)
        coeff = _draw(rng, spec.energy_coeff)
        channel = Channel(
            bandwidth_hz=_draw(rng, spec.bandwidth_hz),
            noise_var_w=_draw(rng, spec.noise_var_w),
            gain=_draw(rng, spec.gain),
            speed_mps=_draw(rng, spec.speed_mps),
            carrier_freq_hz=_draw(rng, spec.carrier_freq_hz),
        )
        se = calc_se(channel.speed_mps, channel.carrier_freq_hz, cfg)
        power = (2.0 ** se - 1.0) * channel.noise_var_w / channel.gain
        devices.append(Device(id=n, cpu_freq_hz=cpu, energy_coeff=coeff,
                              tx_power_w=power))
        channels.append(channel)
        for k in range(1, spec.tasks_per_device + 1):
            tasks.append(Task(
                device_id=n,
                task_id=k,
                data_bits=_draw(rng, spec.data_bits),
                cycles_per_bit=_draw(rng, spec.cycles_per_bit),
            ))
    return Scenario(devices=tuple(devices), tasks=tuple(tasks),
                    channels=tuple(channels), spectral_config=cfg)


def task_energy_endpoints(scenario: Scenario, se_provider: SEProvider) -> tuple[np.ndarray, np.ndarray]:
    """Per-task energy at l=0 (all local) and l=1 (all offloaded).

    Energy is affine in the offload ratio, so these two arrays determine
    the whole energy landscape: E_i(l) = local_i * (1 - l) + offload_i * l.
    """
    n = len(scenario.tasks)
    local = np.empty(n)
    offload = np.empty(n)
    for i, task in enumerate(scenario.tasks):
        device = scenario.devices[task.device_id]
        channel = scenario.channels[task.device_id]
        local[i] = (device.energy_coeff * task.cycles_per_bit
                    * device.cpu_freq_hz ** 2 * task.data_bits)
        if task.data_bits == 0.0:
            offload[i] = 0.0
        else:
            se = se_provider(channel.speed_mps, channel.carrier_freq_hz)
            power = implied_tx_power(channel, se)
            offload[i] = power * task.data_bits / (channel.bandwidth_hz * se)
    return local, offload


def build_dataset(specs, greedy_config: greedy_mod.GreedyConfig | None = None,
                  spectral_config: SpectralConfig | None = None) -> Dataset:
    """Optimize each sampled scenario and emit one row per task.

    The target column is the task's energy at the greedy solution, so every
    row is self-consistent: recomputing the energy from the row's features
    (plus the spec's pinned constants) reproduces the target.
    """
    gcfg = greedy_config if greedy_config is not None else greedy_mod.GreedyConfig()
    rows = []
    targets = []
    for spec in specs:
        scenario = generate_scenario(spec, spectral_config)
        cache = SpectralEfficiencyCache(scenario.spectral_config)
        solution = greedy_mod.optimize(scenario, gcfg, cache)
        for i, task in enumerate(scenario.tasks):
            device = scenario.devices[task.device_id]
            channel = scenario.channels[task.device_id]
            rows.append([
                task.data_bits,
                float(solution.offload_ratios[i]),
                channel.speed_mps,
                channel.carrier_freq_hz,
                task.cycles_per_bit,
                device.cpu_freq_hz,
                channel.bandwidth_hz,
            ])
            targets.append(float(solution.per_task_energy[i]))
    if not rows:
        raise ValueError("no scenarios given")
    return Dataset(feature_names=CANONICAL_FEATURES,
                   X=np.asarray(rows, dtype=float),
                   y=np.asarray(targets, dtype=float))


def dataset_to_csv(dataset: Dataset, path) -> None:
    """`Dataset.to_csv`, one ``csv.writer`` row per dataset row."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(dataset.feature_names) + [TARGET_COLUMN])
        for row, target in zip(dataset.X, dataset.y):
            writer.writerow([repr(float(v)) for v in row] + [repr(float(target))])
