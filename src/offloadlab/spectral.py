"""Spectral efficiency of the device-to-edge uplink under mobility.

The uplink is modelled as a delay-Doppler style waveform whose usable
spectral efficiency degrades as the Doppler spread grows relative to the
subcarrier spacing.  The degradation factor 1 / (1 + nu^2), with nu the
Doppler shift normalised by the subcarrier spacing, stands in for a full
receiver simulation: it is exact at zero speed and falls off smoothly as
mobility increases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

SE_MAX = 64.0  # spectral efficiencies beyond this are treated as malformed
LIGHT_SPEED_MPS = 3e8


@dataclass(frozen=True)
class SpectralConfig:
    """Waveform-level constants shared by every uplink in a scenario."""

    subcarrier_spacing_hz: float = 100e3
    snr_linear: float = 100.0

    def __post_init__(self):
        for name in ("subcarrier_spacing_hz", "snr_linear"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"spectral.{name} must be finite and > 0")


def doppler_shift(speed_mps: float, carrier_freq_hz: float) -> float:
    """Doppler shift in Hz for a device moving at speed_mps."""
    if not speed_mps >= 0:  # NaN fails these tests too
        raise ValueError("speed_mps must be >= 0")
    if not carrier_freq_hz > 0:
        raise ValueError("carrier_freq_hz must be > 0")
    return speed_mps * carrier_freq_hz / LIGHT_SPEED_MPS


def calc_se(speed_mps: float, carrier_freq_hz: float,
            config: SpectralConfig | None = None) -> float:
    """Spectral efficiency (bit/s/Hz) of the uplink at the given mobility.

    At zero speed this is log2(1 + snr).  Moving devices see the SNR scaled
    by 1 / (1 + nu^2) where nu = doppler / subcarrier spacing, so the value
    decreases monotonically with speed and stays strictly positive.
    """
    cfg = config if config is not None else SpectralConfig()
    nu = doppler_shift(speed_mps, carrier_freq_hz) / cfg.subcarrier_spacing_hz
    damping = 1.0 / (1.0 + nu * nu)
    return math.log2(1.0 + cfg.snr_linear * damping)


class SpectralEfficiencyCache:
    """Memoised calc_se keyed on (speed, carrier frequency).

    The key is the exact float pair: two devices share an entry only when
    both their speed and their carrier are equal, so every lookup returns
    calc_se of its own arguments.  A hit returns the stored float unchanged,
    bit for bit.

    Callable with (speed_mps, carrier_freq_hz).  The pipeline no longer uses
    it, as a scenario prices itself with `calc_se`; perfbench/tracing.py and
    the frozen test oracles still do.  Writes are not locked.
    """

    def __init__(self, config: SpectralConfig | None = None):
        self.config = config if config is not None else SpectralConfig()
        self._table: dict[tuple[float, float], float] = {}

    def __call__(self, speed_mps: float, carrier_freq_hz: float) -> float:
        key = (speed_mps, carrier_freq_hz)
        hit = self._table.get(key)
        if hit is not None:
            return hit
        value = calc_se(speed_mps, carrier_freq_hz, self.config)
        self._table[key] = value
        return value

    def __len__(self) -> int:
        return len(self._table)

    def clear(self) -> None:
        self._table.clear()
