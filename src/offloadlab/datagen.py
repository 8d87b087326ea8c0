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
from .model import _MAY_BE_ZERO, CHANNEL_DTYPE, DEVICE_DTYPE, TASK_DTYPE, Scenario
# calc_se stays importable here: perfbench/selftest.py checks this import site
from .spectral import SpectralConfig, calc_se  # noqa: F401

EARTH_RADIUS_M = 6.371e6

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

    def __post_init__(self):
        if not 0.0 < self.timestamp_scale < math.inf:
            raise ValueError(
                f"timestamp_scale must be finite and > 0, got {self.timestamp_scale}")


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

    Rows that fail to parse, carry out-of-range coordinates or are too
    short to hold a trip id are counted and skipped rather than aborting
    the whole file.  A missing column in the header, text that does not
    decode and a line the csv module rejects (a field over its size
    limit) are each a ValueError naming the file.
    """
    trips: dict = {}
    rows_read = 0
    rows_skipped = 0
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        try:
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
                trip = row[column_map.trip_id]  # None on a short row
                if not (trip is not None and math.isfinite(ts)
                        and abs(lat) <= 90.0 and abs(lon) <= 180.0):
                    rows_skipped += 1
                    continue
                trips.setdefault(trip, []).append(
                    TrajectoryPoint(timestamp_s=ts, lat_deg=lat, lon_deg=lon))
        except csv.Error as exc:
            raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from None
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
