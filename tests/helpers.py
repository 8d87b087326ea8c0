"""Shared fixture builders for the test suite."""

import math
from collections.abc import Callable, Sequence
from contextlib import contextmanager
from types import SimpleNamespace

import numpy as np
import pytest

from offloadlab import Scenario, ScenarioSpec, SpectralConfig, model
from offloadlab.greedy import GreedyConfig
from offloadlab.model import DEVICE_DTYPE, TASK_DTYPE

# Constants of the worked single-task example used across model tests.
EX_DATA_BITS = 8e6
EX_CYCLES_PER_BIT = 1000.0
EX_CPU_HZ = 1e9
EX_ENERGY_COEFF = 1e-28
EX_BANDWIDTH = 1e6
EX_NOISE = 1e-13
EX_GAIN = 1.0
EX_SE = np.log2(101.0)  # static channel at snr 100: calc_se(0.0, f) at the default config

# the frozen oracles' spectral-efficiency source: (speed_mps, carrier_freq_hz) -> bit/s/Hz
SEProvider = Callable[[float, float], float]


@contextmanager
def priced_at(se: float):
    """Price every device at spectral efficiency `se`: while inside, the
    model's `calc_se` returns it for any speed, carrier and config."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model, "calc_se", lambda speed, carrier, config: se)
        yield


def scenario(devices, tasks) -> Scenario:
    """A scenario of rows written as tuples in dtype field order: a device is
    (cpu_freq_hz, energy_coeff, bandwidth_hz, noise_var_w, gain, speed_mps,
    carrier_freq_hz) and a task (device_id, data_bits, cycles_per_bit)."""
    return Scenario(devices=np.array(list(devices), dtype=DEVICE_DTYPE),
                    tasks=np.array(list(tasks), dtype=TASK_DTYPE),
                    spectral_config=SpectralConfig())


def frozen_view(scenario) -> SimpleNamespace:
    """`scenario` as the frozen oracles read it.  They look a device's
    uplink up in `channels[device_id]`; a device row has every field that
    their channel record had, so the devices serve as the channels too."""
    return SimpleNamespace(devices=scenario.devices, tasks=scenario.tasks,
                           channels=scenario.devices,
                           spectral_config=scenario.spectral_config)


def example_device(**kw) -> tuple:
    """The worked example's device on a static channel, with `kw` set."""
    base = dict(cpu_freq_hz=EX_CPU_HZ, energy_coeff=EX_ENERGY_COEFF,
                bandwidth_hz=EX_BANDWIDTH, noise_var_w=EX_NOISE, gain=EX_GAIN,
                speed_mps=0.0, carrier_freq_hz=1e9)
    base.update(kw)
    return tuple(base[name] for name in DEVICE_DTYPE.names)


def example_task(data_bits: float = EX_DATA_BITS, dev_id: int = 0) -> tuple:
    return (dev_id, data_bits, EX_CYCLES_PER_BIT)


def small_scenario(noise_var_w: float = EX_NOISE) -> Scenario:
    """Two devices, three tasks, static channels."""
    return scenario(
        devices=[example_device(noise_var_w=noise_var_w),
                 example_device(cpu_freq_hz=5e8, energy_coeff=2e-28, noise_var_w=noise_var_w,
                                bandwidth_hz=2e6, carrier_freq_hz=2e9)],
        tasks=[example_task(dev_id=0, data_bits=4e6), example_task(dev_id=0, data_bits=2e6),
               (1, 6e6, 700.0)])


def balanced_spec() -> ScenarioSpec:
    """Ranges tuned so local and offload costs compete.

    Greedy runs stop at a spread of ratios instead of pinning everything at
    1.0, and the resulting energies are driven mainly by task size and the
    achieved offload ratio, only weakly by mobility.
    """
    return ScenarioSpec(
        n_devices=5,
        tasks_per_device=10,
        data_bits=(1e6, 8e6),
        cycles_per_bit=(600.0, 1400.0),
        cpu_freq_hz=(1e9, 1e9),
        energy_coeff=(1e-28, 1e-28),
        speed_mps=(100.0, 400.0),
        carrier_freq_hz=(1e9, 3e9),
        bandwidth_hz=(1e6, 1e6),
        noise_var_w=(6.6e-3, 6.6e-3),
        gain=(1.0, 1.0),
    )


def seeded(spec: ScenarioSpec, seed: int) -> SimpleNamespace:
    """`spec` as the frozen `reference_datagen` reads it: the spec's fields
    plus the `seed` its sampler draws from."""
    return SimpleNamespace(**vars(spec), seed=seed)


def frozen_generate_scenario(spec: ScenarioSpec, seeds: Sequence[int],
                             spectral_config: SpectralConfig | None = None) -> Scenario:
    """What `generate_scenario(spec, seeds)` must return: the frozen
    sampler's scenario of each seed, joined in seed order, with each task's
    device id offset by the devices before it."""
    import reference_datagen  # it imports this module: import it once both exist

    parts = [reference_datagen.generate_scenario(seeded(spec, seed), spectral_config)
             for seed in seeds]
    tasks = np.concatenate([part.tasks for part in parts])
    tasks["device_id"] += np.arange(len(parts)).repeat(spec.n_tasks) * spec.n_devices
    return Scenario(devices=np.concatenate([part.devices for part in parts]), tasks=tasks,
                    spectral_config=parts[0].spectral_config)


def frozen_build_dataset(spec: ScenarioSpec, seeds: Sequence[int],
                         greedy_config: GreedyConfig | None = None,
                         spectral_config: SpectralConfig | None = None):
    """The frozen per-scenario dataset loop over `spec` at each seed."""
    import reference_datagen

    return reference_datagen.build_dataset([seeded(spec, seed) for seed in seeds],
                                           greedy_config, spectral_config)


BALANCED_NOISE_VAR = 6.6e-3
BALANCED_ENERGY_COEFF = 1e-28
BALANCED_GAIN = 1.0


class FrozenGreedyConfig(GreedyConfig):
    """A `GreedyConfig` as the frozen `reference_greedy.optimize` reads it.

    That loop asks for an iteration cap, which the library no longer has.
    This gives it the cap's old default, 10 * n_tasks / step rounded up,
    which no run reaches: a task's ladder climbs at most 2 in steps of
    `step`, so a run makes at most 2 * n_tasks / step bumps.
    """

    @classmethod
    def of(cls, config: GreedyConfig) -> "FrozenGreedyConfig":
        return cls(config.init_ratio, config.step)

    def resolve_max_iters(self, n_tasks: int) -> int:
        return math.ceil(10.0 * n_tasks / self.step)
