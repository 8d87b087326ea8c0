"""Scenario sampling, GPS trajectory ingestion, and dataset assembly.

Scenarios are drawn from per-field uniform ranges with a seeded generator;
a degenerate range (lo == hi) pins the field while keeping the draw stream
aligned, so two specs that differ only in a pinned value produce otherwise
identical scenarios.  All uniforms of a scenario come from one
``rng.random`` block, mapped as ``lo + (hi - lo) * u``; that is exactly what
one scalar ``rng.uniform`` draw per field computes, so the values match the
field-by-field stream bit for bit.  Device speeds can alternatively come
from recorded GPS trips, converted to ground speeds with a spherical-earth
distance.  Datasets are assembled from whole columns per scenario.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from . import greedy as greedy_mod
from .features import CANONICAL_FEATURES, Dataset
from .model import Channel, Device, Scenario, Task, task_columns
from .spectral import SpectralConfig, SpectralEfficiencyCache, calc_se

EARTH_RADIUS_M = 6.371e6

Range = tuple[float, float]


def _check_range(name: str, rng: Range, lo_min: float = 0.0,
                 strict: bool = True) -> None:
    lo, hi = rng
    # rng.uniform refuses a non-finite span; the block draw relies on this
    if not math.isfinite(hi - lo):
        raise ValueError(f"{name}: range ({lo}, {hi}) is not finite")
    if lo > hi:
        raise ValueError(f"{name}: range lower bound {lo} exceeds upper bound {hi}")
    if strict and lo <= lo_min:
        raise ValueError(f"{name}: lower bound must be > {lo_min}")
    if not strict and lo < lo_min:
        raise ValueError(f"{name}: lower bound must be >= {lo_min}")


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
        _check_range("data_bits", self.data_bits, strict=False)
        _check_range("cycles_per_bit", self.cycles_per_bit)
        _check_range("cpu_freq_hz", self.cpu_freq_hz)
        _check_range("energy_coeff", self.energy_coeff)
        _check_range("speed_mps", self.speed_mps, strict=False)
        _check_range("carrier_freq_hz", self.carrier_freq_hz)
        _check_range("bandwidth_hz", self.bandwidth_hz)
        _check_range("noise_var_w", self.noise_var_w)
        _check_range("gain", self.gain)


_DEVICE_FIELDS = ("cpu_freq_hz", "energy_coeff", "bandwidth_hz", "noise_var_w",
                  "gain", "speed_mps", "carrier_freq_hz")
_TASK_FIELDS = ("data_bits", "cycles_per_bit")


def generate_scenario(spec: ScenarioSpec,
                      spectral_config: SpectralConfig | None = None) -> Scenario:
    """Sample devices, channels, and tasks from the spec's ranges.

    Per device the draw order is: cpu_freq, energy_coeff, bandwidth, noise,
    gain, speed, carrier; then data_bits and cycles_per_bit per task.  Every
    field consumes one draw, even a pinned one.  The device transmit power
    is filled in from the channel at the mobility the device was sampled
    with.
    """
    cfg = spectral_config if spectral_config is not None else SpectralConfig()
    fields = _DEVICE_FIELDS + _TASK_FIELDS * spec.tasks_per_device
    lo = np.array([getattr(spec, f)[0] for f in fields])
    hi = np.array([getattr(spec, f)[1] for f in fields])
    u = np.random.default_rng(spec.seed).random(spec.n_devices * len(fields))
    values = lo + (hi - lo) * u.reshape(spec.n_devices, len(fields))
    devices = []
    channels = []
    tasks = []
    for n, row in enumerate(values.tolist()):
        cpu, coeff, bandwidth, noise, gain, speed, carrier = row[:len(_DEVICE_FIELDS)]
        channel = Channel(bandwidth_hz=bandwidth, noise_var_w=noise, gain=gain,
                          speed_mps=speed, carrier_freq_hz=carrier)
        se = calc_se(speed, carrier, cfg)
        power = (2.0 ** se - 1.0) * noise / gain
        devices.append(Device(id=n, cpu_freq_hz=cpu, energy_coeff=coeff,
                              tx_power_w=power))
        channels.append(channel)
        task_draws = row[len(_DEVICE_FIELDS):]
        tasks.extend(Task(device_id=n, task_id=k + 1, data_bits=bits,
                          cycles_per_bit=cycles)
                     for k, (bits, cycles)
                     in enumerate(zip(task_draws[0::2], task_draws[1::2])))
    return Scenario(devices=tuple(devices), tasks=tuple(tasks),
                    channels=tuple(channels), spectral_config=cfg)


@dataclass(frozen=True)
class TrajectoryPoint:
    timestamp_s: float
    lat_deg: float
    lon_deg: float


def trajectory_speeds(points, earth_radius_m: float = EARTH_RADIUS_M) -> np.ndarray:
    """Ground speeds (m/s) between consecutive GPS fixes.

    Great-circle distance via the spherical law of cosines.  Pairs with a
    zero time gap are skipped; a negative gap means the trace is out of
    order and raises.
    """
    pts = list(points)
    if len(pts) < 2:
        raise ValueError("need at least two trajectory points")
    speeds = []
    for a, b in zip(pts, pts[1:]):
        dt = b.timestamp_s - a.timestamp_s
        if dt < 0:
            raise ValueError("trajectory timestamps must be non-decreasing")
        if dt == 0:
            continue
        la1, lo1 = math.radians(a.lat_deg), math.radians(a.lon_deg)
        la2, lo2 = math.radians(b.lat_deg), math.radians(b.lon_deg)
        cos_angle = (math.sin(la1) * math.sin(la2)
                     + math.cos(la1) * math.cos(la2) * math.cos(lo2 - lo1))
        angle = math.acos(min(1.0, max(-1.0, cos_angle)))
        speeds.append(earth_radius_m * angle / dt)
    return np.asarray(speeds, dtype=float)


@dataclass(frozen=True)
class ColumnMap:
    """Names of the columns holding each trajectory field in a source CSV."""

    timestamp: str
    lat: str
    lon: str
    trip_id: str
    timestamp_scale: float = 1.0  # multiply raw timestamps to get seconds


# Layout used by the VED driving-trace release (millisecond timestamps).
VED_COLUMNS = ColumnMap(timestamp="Timestamp(ms)", lat="Latitude[deg]",
                        lon="Longitude[deg]", trip_id="Trip",
                        timestamp_scale=1e-3)


@dataclass(frozen=True)
class IngestResult:
    trips: dict
    rows_read: int
    rows_skipped: int


def ingest_trajectory_csv(path, column_map: ColumnMap) -> IngestResult:
    """Parse a trajectory CSV into per-trip point lists.

    Rows that fail to parse or carry out-of-range coordinates are counted
    and skipped rather than aborting the whole file; a missing column in
    the header is a hard error.
    """
    trips: dict = {}
    rows_read = 0
    rows_skipped = 0
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            return IngestResult(trips={}, rows_read=0, rows_skipped=0)
        needed = (column_map.timestamp, column_map.lat,
                  column_map.lon, column_map.trip_id)
        missing = [c for c in needed if c not in reader.fieldnames]
        if missing:
            raise ValueError(f"{path}: missing columns {missing}")
        for row in reader:
            rows_read += 1
            try:
                ts = float(row[column_map.timestamp]) * column_map.timestamp_scale
                lat = float(row[column_map.lat])
                lon = float(row[column_map.lon])
            except (TypeError, ValueError):
                rows_skipped += 1
                continue
            if not (math.isfinite(ts) and abs(lat) <= 90.0 and abs(lon) <= 180.0):
                rows_skipped += 1
                continue
            trip = row[column_map.trip_id]
            trips.setdefault(trip, []).append(
                TrajectoryPoint(timestamp_s=ts, lat_deg=lat, lon_deg=lon))
    return IngestResult(trips=trips, rows_read=rows_read, rows_skipped=rows_skipped)


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
        cache = SpectralEfficiencyCache(scenario.spectral_config)
        solution = greedy_mod.optimize(scenario, gcfg, cache)
        dev, bits, cycles = task_columns(scenario)
        per_device = np.array([(c.speed_mps, c.carrier_freq_hz, d.cpu_freq_hz,
                                c.bandwidth_hz)
                               for d, c in zip(scenario.devices, scenario.channels)])
        speed, carrier, cpu, bandwidth = per_device[dev].T
        blocks.append(np.column_stack((bits, solution.offload_ratios, speed,
                                       carrier, cycles, cpu, bandwidth)))
        targets.append(solution.per_task_energy)
    if not blocks:
        raise ValueError("no scenarios given")
    return Dataset(feature_names=CANONICAL_FEATURES,
                   X=np.concatenate(blocks), y=np.concatenate(targets))
