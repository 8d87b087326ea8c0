import math
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_datagen
from offloadlab import greedy, model
from offloadlab.model import (CHANNEL_DTYPE, DEVICE_DTYPE, TASK_DTYPE, Scenario,
                              energy_at, task_energy_endpoints, tx_power)
from offloadlab.spectral import SpectralConfig

from helpers import (EX_GAIN, EX_NOISE, EX_SE, example_channel, example_device,
                     example_task, priced_at, scenario, small_scenario)

ratios = st.floats(0.0, 1.0)
data_sizes = st.floats(0.0, 1e9)
cycle_counts = st.floats(1.0, 1e5)
cpu_freqs = st.floats(1e6, 1e10)
coeffs = st.floats(1e-30, 1e-26)
ses = st.floats(1e-3, 60.0)

# the worked example's energy at l=1: all 8e6 bits at 1e-11 W over 1e6 * EX_SE bit/s
EX_OFFLOAD_J = 1e-11 * 8e6 / (1e6 * EX_SE)


def _scenario(*tasks, device=None, channel=None):
    """The worked example's device and channel (or the given ones) with `tasks`."""
    return scenario([device or example_device()], tasks, [channel or example_channel()])


def _endpoints(*tasks, se=EX_SE, **kw):
    """`task_energy_endpoints` of `_scenario(*tasks, **kw)` priced at `se`."""
    with priced_at(se):
        return task_energy_endpoints(_scenario(*tasks, **kw))


def _energies(ratios, *tasks, se=EX_SE, **kw):
    """Per-task energies of `_scenario(*tasks, **kw)` at `ratios`, priced at `se`."""
    with priced_at(se):
        return energy_at(*task_energy_endpoints(_scenario(*tasks, **kw)),
                         np.asarray(ratios, dtype=float))


class TestWorkedExample:
    """Half of an 8 Mbit task offloaded over a static 1 MHz channel."""

    def setup_method(self):
        self.task = example_task()

    def test_local_energy(self):
        # 1e-28 * 1000 * (1e9)^2 * 8e6 at l=0, half of it at l=0.5
        local, _ = _endpoints(self.task)
        assert local[0] == pytest.approx(0.8, rel=1e-12)
        assert energy_at(local[0], 0.0, 0.5) == pytest.approx(0.4, rel=1e-12)

    def test_tx_power(self):
        # 2^log2(101) - 1 = 100, times noise 1e-13
        assert tx_power(EX_SE, EX_NOISE, EX_GAIN) == pytest.approx(1e-11, rel=1e-12, abs=0.0)

    def test_offload_energy(self):
        expected = 1e-11 * 0.5 * 8e6 / (1e6 * EX_SE)
        _, offload = _endpoints(self.task)
        assert energy_at(0.0, offload[0], 0.5) == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_totals_compose(self):
        assert _energies([0.5], self.task)[0] == pytest.approx(0.4 + EX_OFFLOAD_J / 2,
                                                               rel=1e-12, abs=0.0)


class TestBoundaryRatios:
    def test_full_local(self):
        assert _energies([0.0], example_task())[0] == pytest.approx(0.8, rel=1e-12)

    def test_full_offload(self):
        assert _energies([1.0], example_task())[0] == pytest.approx(EX_OFFLOAD_J, rel=1e-12,
                                                                    abs=0.0)

    def test_zero_data_is_free(self):
        task = example_task(data_bits=0.0)
        local, offload = _endpoints(task)
        assert local.tolist() == offload.tolist() == [0.0]
        assert _energies([0.7], task).tolist() == [0.0]


class TestSeDomain:
    def test_nonpositive_se_rejected_when_data_flows(self):
        for se in (0.0, -1.0):
            with pytest.raises(ValueError, match="must be > 0"):
                _endpoints(example_task(), se=se)

    def test_nonpositive_se_tolerated_when_idle(self):
        # nothing shipped: no formula asks for the spectral efficiency
        _, offload = _endpoints(example_task(data_bits=0.0), se=0.0)
        assert offload.tolist() == [0.0]

    def test_overflow_guard(self):
        with pytest.raises(ValueError):
            _endpoints(example_task(), se=64.5)
        with pytest.raises(ValueError):
            tx_power(65.0, EX_NOISE, EX_GAIN)
        with pytest.raises(ValueError, match="exceeds"):
            tx_power(1000.0, 1e-13, 1.0)

    def test_se_at_cap_is_fine(self):
        assert tx_power(64.0, EX_NOISE, EX_GAIN) > 0.0

    @pytest.mark.parametrize("formula", [lambda se: tx_power(se, 1e-13, 1.0)],
                             ids=["tx_power"])
    def test_nan_se_rejected(self, formula):
        with pytest.raises(ValueError, match="must be > 0"):
            formula(float("nan"))

    def test_endpoints_reject_a_calc_se_returning_nan(self):
        with priced_at(float("nan")), pytest.raises(ValueError, match="must be > 0"):
            task_energy_endpoints(small_scenario())


class TestValidation:
    def test_zero_cycles_rejected(self):
        with pytest.raises(ValueError, match="cycles_per_bit"):
            _scenario((0, 1e6, 0.0))

    def test_negative_data_rejected(self):
        with pytest.raises(ValueError, match="data_bits"):
            _scenario((0, -1.0, 100.0))

    def test_zero_cpu_rejected(self):
        with pytest.raises(ValueError, match="cpu_freq_hz"):
            _scenario(device=(0.0, 1e-28))

    def test_bad_channel_rejected(self):
        for kw in (dict(bandwidth_hz=0.0), dict(noise_var_w=0.0),
                   dict(gain=0.0), dict(speed_mps=-5.0), dict(carrier_freq_hz=0.0)):
            with pytest.raises(ValueError, match=next(iter(kw))):
                _scenario(channel=example_channel(**kw))

    def test_scenario_channel_count(self):
        with pytest.raises(ValueError, match="one channel per device"):
            scenario([example_device()], [], [])

    def test_scenario_unknown_device(self):
        with pytest.raises(ValueError, match="unknown device"):
            _scenario(example_task(dev_id=3))


class TestProperties:
    @settings(max_examples=100, deadline=None)
    @given(l=ratios, d=data_sizes, c=cycle_counts, f=cpu_freqs, eps=coeffs)
    def test_shares_partition_the_data(self, l, d, c, f, eps):
        # the device's energy on the kept (1 - l) d bits plus that on the
        # other l d bits is its energy on all d bits
        tasks = [(0, bits, c) for bits in ((1.0 - l) * d, l * d, d)]
        local, _ = _endpoints(*tasks, device=(f, eps))
        assert local[0] + local[1] == pytest.approx(local[2], rel=1e-9, abs=1e-30)

    @settings(max_examples=100, deadline=None)
    @given(l=ratios, d=st.floats(1.0, 1e9), se=ses)
    def test_energy_linear_in_data_size(self, l, d, se):
        energy = _energies([l, l], (0, d, 500.0), (0, 2.0 * d, 500.0), se=se)
        assert energy[1] == pytest.approx(2.0 * energy[0], rel=1e-12, abs=0.0)

    @settings(max_examples=100, deadline=None)
    @given(l=ratios, se=ses)
    def test_everything_nonnegative(self, l, se):
        task = example_task()
        local, offload = _endpoints(task, se=se)
        assert local[0] >= 0.0 and offload[0] >= 0.0
        assert _energies([l], task, se=se)[0] >= 0.0

    @settings(max_examples=100, deadline=None)
    @given(l1=ratios, l2=ratios)
    def test_monotone_tradeoff_in_ratio(self, l1, l2):
        if l1 > l2:
            l1, l2 = l2, l1
        local, offload = (e[0] for e in _endpoints(example_task()))
        lo_local, hi_local = energy_at(local, 0.0, l1), energy_at(local, 0.0, l2)
        lo_offload, hi_offload = energy_at(0.0, offload, l1), energy_at(0.0, offload, l2)
        assert hi_local <= lo_local
        assert hi_offload >= lo_offload
        # strictness needs a gap float arithmetic can actually see: a ratio
        # bump of 1e-300 leaves (1 - l) bitwise unchanged
        if l2 - l1 > 1e-9:
            assert hi_local < lo_local
            assert hi_offload > lo_offload

    def test_energy_affine_in_ratio(self):
        # eleven copies of the worked example's task at l = 0, 0.1, ..., 1
        e0, e1 = 0.8, EX_OFFLOAD_J
        ls = np.arange(11) / 10.0
        got = _energies(ls, *[example_task()] * 11)
        for l, e in zip(ls.tolist(), got.tolist()):
            assert e == pytest.approx((1.0 - l) * e0 + l * e1, rel=1e-12, abs=0.0)
            assert e >= min(e0, e1) - 1e-12 * abs(min(e0, e1))


class TestSystemTotal:
    """The scenario total is the sum of the per-task energies at the ratios."""

    def test_empty_scenario(self):
        sc = _scenario()
        assert energy_at(*task_energy_endpoints(sc), np.zeros(0)).sum() == 0.0

    def test_matches_hand_sum(self):
        sc = small_scenario()  # static channels: the scenario prices itself at EX_SE
        expected = 0.0
        for task in sc.tasks:
            dev = sc.devices[task.device_id]
            ch = sc.channels[task.device_id]
            p = (2.0 ** EX_SE - 1.0) * ch.noise_var_w / ch.gain
            expected += p * 0.5 * task.data_bits / (ch.bandwidth_hz * EX_SE)
            expected += (dev.energy_coeff * task.cycles_per_bit * dev.cpu_freq_hz ** 2
                         * 0.5 * task.data_bits)
        got = energy_at(*task_energy_endpoints(sc), np.full(3, 0.5)).sum()
        assert got == pytest.approx(expected, rel=1e-12)

    def test_edge_server_share_costs_nothing(self):
        # doubling every task's compute difficulty bills only the device's
        # share: the edge server's cycles are not billed
        sc = small_scenario()
        tasks = sc.tasks.copy()
        tasks.cycles_per_bit *= 2.0
        harder = Scenario(devices=sc.devices, tasks=tasks, channels=sc.channels,
                          spectral_config=SpectralConfig())
        ones = np.ones(3)
        base, hard = task_energy_endpoints(sc), task_energy_endpoints(harder)
        assert energy_at(*hard, ones).tolist() == energy_at(*base, ones).tolist()
        half = np.full(3, 0.5)
        extra = energy_at(*hard, half) - energy_at(*base, half)
        dev = sc.devices[sc.tasks.device_id]
        want = (dev.energy_coeff * sc.tasks.cycles_per_bit * dev.cpu_freq_hz ** 2
                * 0.5 * sc.tasks.data_bits)
        np.testing.assert_allclose(extra, want, rtol=1e-9)


def _columns(sc):
    return {name: getattr(sc, name).copy() for name in ("devices", "tasks", "channels")}


# (array, field, strict): one row per range check on a scenario column
FIELDS = [("devices", name, True) for name in DEVICE_DTYPE.names] + [
    ("channels", name, name != "speed_mps") for name in CHANNEL_DTYPE.names] + [
    ("tasks", name, name == "cycles_per_bit") for name in TASK_DTYPE.names]
DTYPES = {"devices": DEVICE_DTYPE, "channels": CHANNEL_DTYPE, "tasks": TASK_DTYPE}
RECORD_BASE = {
    "devices": dict(cpu_freq_hz=1e9, energy_coeff=1e-28),
    "channels": dict(bandwidth_hz=1e6, noise_var_w=1e-13, gain=1.0, speed_mps=0.0,
                     carrier_freq_hz=1e9),
    "tasks": dict(device_id=0, data_bits=1e6, cycles_per_bit=1000.0),
}


def _one_record(kind, **fields):
    """A one-row record array of `kind` from RECORD_BASE with `fields` set."""
    row = {**RECORD_BASE[kind], **fields}
    return np.array([tuple(row[name] for name in DTYPES[kind].names)], dtype=DTYPES[kind])


def _bad_values(strict):
    return [math.nan, -1.0] + ([0.0] if strict else [])


class TestColumns:
    def test_columns_of_another_dtype_rejected(self):
        sc = small_scenario()
        tasks = np.rec.fromarrays([sc.tasks.device_id.astype(np.int32), sc.tasks.data_bits,
                                   sc.tasks.cycles_per_bit], names=TASK_DTYPE.names)
        with pytest.raises(ValueError, match="dtype"):
            Scenario(devices=sc.devices, tasks=tasks, channels=sc.channels,
                     spectral_config=SpectralConfig())

    @pytest.mark.parametrize("devices", [
        [(1e9, 1e-28)],
        (SimpleNamespace(cpu_freq_hz=1e9, energy_coeff=1e-28),),
        np.array([[1e9, 1e-28]]),
    ], ids=["list-of-tuples", "tuple-of-records", "2d-float-array"])
    def test_only_record_arrays_of_the_dtype_are_taken(self, devices):
        sc = small_scenario()
        with pytest.raises(ValueError, match=f"devices must be a 1-D record array of "
                                             f"dtype {re.escape(str(DEVICE_DTYPE))}"):
            Scenario(devices=devices, tasks=sc.tasks[:1], channels=sc.channels[:1],
                     spectral_config=SpectralConfig())

    def test_rows_read_like_records(self):
        sc = small_scenario()
        assert len(sc.tasks) == 3
        assert sc.tasks[2].device_id == 1 and sc.tasks[2].cycles_per_bit == 700.0
        assert sc.channels[1].bandwidth_hz == 2e6
        assert sc.tasks.data_bits.tolist() == [4e6, 2e6, 6e6]

    @pytest.mark.parametrize("kind,field,strict", FIELDS)
    def test_record_field_rejects_bad_values(self, kind, field, strict):
        # a scenario of one device, one channel and one task
        for bad in _bad_values(strict):
            if field == "device_id" and math.isnan(bad):
                continue  # an integer column cannot hold NaN
            records = {name: _one_record(name) for name in DTYPES}
            records[kind] = _one_record(kind, **{field: bad})
            with pytest.raises(ValueError, match=field):
                Scenario(**records, spectral_config=SpectralConfig())

    @pytest.mark.parametrize("kind,field,strict", FIELDS)
    def test_column_rejects_bad_values(self, kind, field, strict):
        for bad in _bad_values(strict):
            if field == "device_id" and math.isnan(bad):
                continue  # an integer column cannot hold NaN
            columns = _columns(small_scenario())
            columns[kind][field][-1] = bad
            with pytest.raises(ValueError, match=field):
                Scenario(**columns, spectral_config=SpectralConfig())

    def test_column_task_with_unknown_device_rejected(self):
        columns = _columns(small_scenario())
        columns["tasks"].device_id[0] = 2
        with pytest.raises(ValueError, match="unknown device"):
            Scenario(**columns, spectral_config=SpectralConfig())


# acceptance criterion 1's ranges, plus the boundary ratios and an empty task
SINGLE_TASK = dict(
    ratio=st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 1.0])),
    bits=st.one_of(st.just(0.0), st.floats(0.0, 1e8)),
    cycles=st.floats(1.0, 1e4), cpu=st.floats(1e6, 1e10), coeff=st.floats(1e-30, 1e-26),
    bandwidth=st.floats(1e4, 1e8), noise=st.floats(1e-15, 1e-9), gain=st.floats(0.5, 1.5),
    se=st.floats(0.1, 20.0))


def _one_task(bits, cycles, cpu, coeff, bandwidth, noise, gain):
    return _scenario((0, bits, cycles), device=(cpu, coeff),
                     channel=(bandwidth, noise, gain, 0.0, 1e9))


class TestScalarMatchesColumn:
    """The frozen per-task loop and the column path price a task alike: equal with ==."""

    @settings(max_examples=300, deadline=None)
    @given(**SINGLE_TASK)
    def test_total_energy_equals_the_column_entry(self, ratio, bits, cycles, cpu, coeff,
                                                  bandwidth, noise, gain, se):
        sc = _one_task(bits, cycles, cpu, coeff, bandwidth, noise, gain)
        with priced_at(se):
            column = energy_at(*task_energy_endpoints(sc), np.array([ratio]))
        local, offload = reference_datagen.task_energy_endpoints(sc, lambda speed, carrier: se)
        assert column[0] == local[0] * (1.0 - ratio) + offload[0] * ratio

    def test_energy_at_takes_floats_and_arrays(self):
        ratios = np.array([0.0, 0.25, 1.0])
        got = model.energy_at(np.full(3, 2.0), np.full(3, 6.0), ratios)
        assert got.tolist() == [model.energy_at(2.0, 6.0, r) for r in ratios.tolist()]
        assert got.tolist() == [2.0, 3.0, 6.0]

    def test_greedy_binds_the_model_function(self):
        assert greedy.task_energy_endpoints is model.task_energy_endpoints


class TestNonFiniteEndpoints:
    def test_transmit_power_overflow(self):
        sc = _one_task(1e6, 100.0, 1e9, 1e-28, 1e6, 1e-13, 1e-320)
        with priced_at(6.0), pytest.raises(ValueError, match="not finite"):
            model.task_energy_endpoints(sc)

    def test_cpu_frequency_squared_overflow(self):
        # every way to price the task raises the same error
        sc = _one_task(1e6, 100.0, 1e200, 1e-28, 1e6, 1e-13, 1.0)
        for energy in (lambda: model.task_energy_endpoints(sc),
                       lambda: greedy.optimize(sc, greedy.GreedyConfig())):
            with pytest.raises(ValueError, match="cpu_freq_hz squared overflows"):
                energy()

    def test_local_energy_overflow(self):
        sc = _one_task(1e8, 1e4, 1e150, 1.0, 1e6, 1e-13, 1.0)
        with pytest.raises(ValueError, match="not finite"):
            model.task_energy_endpoints(sc)
