"""Per-task time and energy model for partial offloading.

Each task splits its input data at an offload ratio l in [0, 1]: the
fraction l is shipped to the edge server over the uplink, the remaining
1 - l is executed on the device CPU.  Device-side cost is the usual
dynamic-power model (energy per cycle scales with the square of the clock),
uplink cost follows from the spectral efficiency of the channel, and the
edge server itself contributes nothing to the device's bill, so total cost
is uplink plus local compute.

All quantities are SI: bits, Hz, seconds, joules, watts, m/s.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Callable

import numpy as np

from .spectral import SE_MAX, SpectralConfig

# Supplies spectral efficiency for (speed_mps, carrier_freq_hz).
SEProvider = Callable[[float, float], float]


@dataclass(frozen=True)
class Device:
    """A mobile device with a fixed CPU clock and chip energy coefficient."""

    id: int
    cpu_freq_hz: float
    energy_coeff: float
    tx_power_w: float | None = None  # implied by the channel, see implied_tx_power

    def __post_init__(self):
        if self.id < 0:
            raise ValueError("device id must be >= 0")
        if self.cpu_freq_hz <= 0:
            raise ValueError("cpu_freq_hz must be > 0")
        if self.energy_coeff <= 0:
            raise ValueError("energy_coeff must be > 0")
        if self.tx_power_w is not None and self.tx_power_w <= 0:
            raise ValueError("tx_power_w must be > 0 when set")


@dataclass(frozen=True)
class Task:
    """One unit of work: data_bits of input, cycles_per_bit to process it."""

    device_id: int
    task_id: int
    data_bits: float
    cycles_per_bit: float
    offload_ratio: float = 0.5

    def __post_init__(self):
        if self.device_id < 0:
            raise ValueError("device_id must be >= 0")
        if self.data_bits < 0:
            raise ValueError("data_bits must be >= 0")
        if self.cycles_per_bit <= 0:
            raise ValueError("cycles_per_bit must be > 0")
        if not 0.0 <= self.offload_ratio <= 1.0:
            raise ValueError("offload_ratio must lie in [0, 1]")


@dataclass(frozen=True)
class Channel:
    """Uplink state between one device and the edge server."""

    bandwidth_hz: float
    noise_var_w: float
    gain: float
    speed_mps: float
    carrier_freq_hz: float

    def __post_init__(self):
        if self.bandwidth_hz <= 0:
            raise ValueError("bandwidth_hz must be > 0")
        if self.noise_var_w <= 0:
            raise ValueError("noise_var_w must be > 0")
        if self.gain <= 0:
            raise ValueError("gain must be > 0")
        if self.speed_mps < 0:
            raise ValueError("speed_mps must be >= 0")
        if self.carrier_freq_hz <= 0:
            raise ValueError("carrier_freq_hz must be > 0")


@dataclass(frozen=True)
class Scenario:
    """Devices, their channels (index-aligned), and the task list."""

    devices: tuple[Device, ...]
    tasks: tuple[Task, ...]
    channels: tuple[Channel, ...]
    spectral_config: SpectralConfig

    def __post_init__(self):
        if len(self.channels) != len(self.devices):
            raise ValueError("need exactly one channel per device")
        for i, dev in enumerate(self.devices):
            if dev.id != i:
                raise ValueError(f"device at position {i} has id {dev.id}")
        for task in self.tasks:
            if not 0 <= task.device_id < len(self.devices):
                raise ValueError(
                    f"task ({task.device_id}, {task.task_id}) references an unknown device")

    def device_for(self, task: Task) -> Device:
        return self.devices[task.device_id]

    def channel_for(self, task: Task) -> Channel:
        return self.channels[task.device_id]


def task_columns(scenario: Scenario) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Device index, data_bits and cycles_per_bit of every task, in task order."""
    tasks = scenario.tasks
    n = len(tasks)
    return (np.fromiter(map(attrgetter("device_id"), tasks), np.intp, n),
            np.fromiter(map(attrgetter("data_bits"), tasks), float, n),
            np.fromiter(map(attrgetter("cycles_per_bit"), tasks), float, n))


def local_time(task: Task, device: Device) -> float:
    """Seconds to process the on-device share of the task's data."""
    return task.cycles_per_bit * (1.0 - task.offload_ratio) * task.data_bits / device.cpu_freq_hz


def local_energy(task: Task, device: Device) -> float:
    """Joules burned by the device CPU on the on-device share."""
    return (device.energy_coeff * task.cycles_per_bit * device.cpu_freq_hz ** 2
            * (1.0 - task.offload_ratio) * task.data_bits)


def _check_se(se: float) -> None:
    if se > SE_MAX:
        raise ValueError(f"spectral efficiency {se} exceeds {SE_MAX}; channel state is malformed")
    if se <= 0:
        raise ValueError("spectral efficiency must be > 0")


def uplink_rate(channel: Channel, se: float) -> float:
    """Achievable uplink rate in bit/s at the given spectral efficiency."""
    _check_se(se)
    return channel.bandwidth_hz * se


def offload_time(task: Task, channel: Channel, se: float) -> float:
    """Seconds to push the offloaded share through the uplink."""
    shipped = task.offload_ratio * task.data_bits
    if shipped == 0.0:
        return 0.0
    _check_se(se)
    return shipped / (channel.bandwidth_hz * se)


def implied_tx_power(channel: Channel, se: float) -> float:
    """Transmit power (W) the device needs to sustain se on this channel."""
    _check_se(se)
    return (2.0 ** se - 1.0) * channel.noise_var_w / channel.gain


def offload_energy(task: Task, channel: Channel, se: float) -> float:
    """Joules spent transmitting the offloaded share.

    Equals transmit power times transmit time, with the power pinned at the
    level that makes se achievable: p = (2^se - 1) * noise / gain.
    """
    shipped = task.offload_ratio * task.data_bits
    if shipped == 0.0:
        return 0.0
    _check_se(se)
    power = (2.0 ** se - 1.0) * (channel.noise_var_w / channel.gain)
    return power * shipped / (channel.bandwidth_hz * se)


def total_time(task: Task, device: Device, channel: Channel, se: float) -> float:
    """Uplink time plus local compute time for one task."""
    return offload_time(task, channel, se) + local_time(task, device)


def total_energy(task: Task, device: Device, channel: Channel, se: float) -> float:
    """Device-side energy for one task; the edge server's share costs nothing."""
    return offload_energy(task, channel, se) + local_energy(task, device)


def system_total_energy(scenario: Scenario, se_provider: SEProvider) -> float:
    """Sum of per-task device energies over the whole scenario."""
    acc = 0.0
    for task in scenario.tasks:
        device = scenario.device_for(task)
        channel = scenario.channel_for(task)
        se = se_provider(channel.speed_mps, channel.carrier_freq_hz)
        acc += total_energy(task, device, channel, se)
    return acc
