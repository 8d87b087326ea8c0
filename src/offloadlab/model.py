"""Per-task energy model for partial offloading.

Each task splits its input data at an offload ratio l in [0, 1]: the
fraction l is shipped to the edge server over the uplink, the remaining
1 - l is executed on the device CPU.  Device-side cost is the usual
dynamic-power model (energy per cycle scales with the square of the clock),
uplink cost follows from the spectral efficiency of the channel, and the
edge server itself contributes nothing to the device's bill, so total cost
is uplink plus local compute.

A `Scenario` holds two numpy record arrays, `devices` and `tasks`: a device
row carries its CPU and its uplink (bandwidth, noise, gain, speed,
carrier), `scenario.tasks.data_bits` is a column, `tasks[i]` one task.
`task_energy_endpoints` prices every task over these columns, in the
operation order of the frozen per-task loop in tests/reference_datagen.py.
A scenario is built from record arrays of exactly `DEVICE_DTYPE` and
`TASK_DTYPE`; anything else is a ValueError.

All quantities are SI: bits, Hz, joules, watts, m/s.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import SE_MAX, SpectralConfig, calc_se

DEVICE_DTYPE = np.dtype([(name, float) for name in (
    "cpu_freq_hz", "energy_coeff", "bandwidth_hz", "noise_var_w", "gain", "speed_mps",
    "carrier_freq_hz")])
TASK_DTYPE = np.dtype([("device_id", np.intp), ("data_bits", float),
                       ("cycles_per_bit", float)])

# fields that may be zero; every other field must be > 0
_MAY_BE_ZERO = frozenset(("device_id", "data_bits", "speed_mps"))


def _check(name: str, array, dtype: np.dtype) -> np.recarray:
    """`array` as a record view, if it is a 1-D array of exactly `dtype`
    whose every field is in range (written as ``value > 0``, which NaN fails)."""
    if not (isinstance(array, np.ndarray) and array.dtype == dtype and array.ndim == 1):
        got = (f"{array.ndim}-D {array.dtype}" if isinstance(array, np.ndarray)
               else type(array).__name__)
        raise ValueError(f"{name} must be a 1-D record array of dtype {dtype}, got {got}")
    columns = array.view(np.ndarray)  # a recarray's field lookup is slower
    for field in dtype.names:
        strict = field not in _MAY_BE_ZERO
        if not np.all(columns[field] > 0 if strict else columns[field] >= 0):
            raise ValueError(f"{field} must be {'>' if strict else '>='} 0")
    return array.view(np.recarray)


@dataclass(frozen=True, eq=False)
class Scenario:
    """Device (compute and uplink) and task records."""

    devices: np.recarray
    tasks: np.recarray
    spectral_config: SpectralConfig

    def __post_init__(self):
        for name, dtype in (("devices", DEVICE_DTYPE), ("tasks", TASK_DTYPE)):
            object.__setattr__(self, name, _check(name, getattr(self, name), dtype))
        if len(self.tasks) and self.tasks.device_id.max() >= len(self.devices):
            raise ValueError("a task references an unknown device")


def energy_at(local, offload, ratio):
    """Energy at offload ratio `ratio` from its values at l=0 (all local) and
    l=1 (all offloaded); energy is affine in the ratio.  Floats or arrays."""
    return local * (1.0 - ratio) + offload * ratio


def tx_power(se: float, noise_var_w: float, gain: float) -> float:
    """Transmit power (W) that sustains se: p = (2^se - 1) * noise / gain."""
    if se > SE_MAX:
        raise ValueError(f"spectral efficiency {se} exceeds {SE_MAX}; channel state is malformed")
    if not se > 0:  # NaN fails this too
        raise ValueError("spectral efficiency must be > 0")
    return (2.0 ** se - 1.0) * noise_var_w / gain


def task_energy_endpoints(scenario: Scenario) -> tuple[np.ndarray, np.ndarray]:
    """Per-task energy at l=0 and l=1 over the scenario's columns, in the
    operation order of the frozen per-task loop (tests/reference_datagen.py).

    Tasks without data cost nothing to offload.  Each device with data gets
    one `calc_se` under the scenario's spectral config.  A clock whose
    square overflows, or an endpoint that overflows or is not finite, is a
    ValueError.
    """
    tasks, devices = scenario.tasks, scenario.devices
    dev, bits = tasks.device_id, tasks.data_bits
    try:  # a float's ** 2, as in the frozen loop; numpy's array x**2 can round differently
        cpu_sq = np.array([f ** 2 for f in devices.cpu_freq_hz.tolist()])
    except OverflowError:
        raise ValueError("cpu_freq_hz squared overflows a float") from None

    shipped = bits != 0.0
    power = np.zeros(len(devices))
    rate = np.ones(len(devices))
    rows = devices.tolist()  # plain tuples; a record row is slow
    for d in set(dev[shipped].tolist()):
        _, _, bandwidth, noise, gain, speed, carrier = rows[d]
        se = calc_se(speed, carrier, scenario.spectral_config)
        power[d] = tx_power(se, noise, gain)
        rate[d] = bandwidth * se
    offload = np.zeros(len(bits))
    on = dev[shipped]
    with np.errstate(over="ignore"):  # an overflow is the ValueError below
        local = devices.energy_coeff[dev] * tasks.cycles_per_bit * cpu_sq[dev] * bits
        offload[shipped] = power[on] * bits[shipped] / rate[on]
    if not (np.isfinite(local).all() and np.isfinite(offload).all()):
        raise ValueError("a task's energy overflows or is not finite")
    return local, offload

