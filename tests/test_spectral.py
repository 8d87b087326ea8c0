import math
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from offloadlab.spectral import (LIGHT_SPEED_MPS, SpectralConfig,
                                 SpectralEfficiencyCache, calc_se, doppler_shift)


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


class TestDopplerShift:
    def test_known_value(self):
        # 100 m/s on a 28 GHz carrier: 100 * 28e9 / 3e8 Hz
        assert doppler_shift(100.0, 28e9) == pytest.approx(9333.333333333334, rel=1e-12)

    def test_zero_speed(self):
        assert doppler_shift(0.0, 28e9) == 0.0

    def test_scales_with_carrier(self):
        assert doppler_shift(50.0, 2e9) == pytest.approx(2 * doppler_shift(50.0, 1e9), rel=1e-12)

    def test_rejects_negative_speed(self):
        with pytest.raises(ValueError):
            doppler_shift(-1.0, 1e9)

    def test_rejects_bad_carrier(self):
        with pytest.raises(ValueError):
            doppler_shift(10.0, 0.0)

    @pytest.mark.parametrize("speed,carrier,field", [
        (math.nan, 1e9, "speed_mps"), (10.0, math.nan, "carrier_freq_hz")])
    def test_rejects_nan(self, speed, carrier, field):
        with pytest.raises(ValueError, match=field):
            doppler_shift(speed, carrier)


class TestCalcSe:
    def test_static_channel_hits_full_snr(self):
        # nu = 0 leaves the SNR untouched: log2(1 + 100)
        assert calc_se(0.0, 1e9) == math.log2(101.0)
        assert calc_se(0.0, 1e9) == pytest.approx(6.658211482751795, rel=1e-15)

    def test_unit_normalized_doppler_halves_snr(self):
        cfg = SpectralConfig()
        # speed chosen so doppler equals the subcarrier spacing exactly
        speed = cfg.subcarrier_spacing_hz * LIGHT_SPEED_MPS / 28e9
        got = calc_se(speed, 28e9, cfg)
        assert got == pytest.approx(math.log2(1.0 + 100.0 / 2.0), rel=1e-12)

    def test_strictly_decreasing_in_speed(self):
        cfg = SpectralConfig()
        values = [calc_se(v, 28e9, cfg) for v in range(0, 501, 10)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_decreasing_in_carrier(self):
        assert calc_se(300.0, 30e9) < calc_se(300.0, 3e9)

    @settings(max_examples=100, deadline=None)
    @given(speed=st.floats(0.0, 1e4), carrier=st.floats(1e8, 1e11))
    def test_positive_and_bounded(self, speed, carrier):
        se = calc_se(speed, carrier)
        assert 0.0 < se <= math.log2(101.0)

    def test_rejects_negative_speed(self):
        with pytest.raises(ValueError):
            calc_se(-0.1, 1e9)

    @pytest.mark.parametrize("speed,carrier,field", [
        (math.nan, 1e9, "speed_mps"), (10.0, math.nan, "carrier_freq_hz")])
    def test_rejects_nan(self, speed, carrier, field):
        with pytest.raises(ValueError, match=field):
            calc_se(speed, carrier)


class TestSpectralConfig:
    def test_defaults(self):
        cfg = SpectralConfig()
        assert cfg.subcarrier_spacing_hz == 100e3
        assert LIGHT_SPEED_MPS == 3e8
        assert cfg.snr_linear == 100.0

    @pytest.mark.parametrize("field,value", [
        ("subcarrier_spacing_hz", 0.0),
        ("snr_linear", 0.0),
        ("subcarrier_spacing_hz", math.nan),
        ("snr_linear", math.nan),
        ("snr_linear", math.inf),
    ])
    def test_rejects_nonpositive(self, field, value):
        with pytest.raises(ValueError):
            SpectralConfig(**{field: value})


class TestCache:
    def test_transparent(self):
        cfg = SpectralConfig()
        cache = SpectralEfficiencyCache(cfg)
        calls = [(0.0, 1e9), (120.0, 28e9), (0.0, 1e9), (120.0, 28e9), (120.0, 2.8e9)]
        for speed, carrier in calls:
            assert cache(speed, carrier) == calc_se(speed, carrier, cfg)

    def test_hit_is_bit_identical(self):
        cache = SpectralEfficiencyCache()
        first = cache(333.3, 28e9)
        second = cache(333.3, 28e9)
        assert bits(first) == bits(second)

    def test_key_includes_carrier(self):
        cache = SpectralEfficiencyCache()
        a = cache(200.0, 28e9)
        b = cache(200.0, 2.8e9)
        assert len(cache) == 2
        assert a != b

    def test_key_includes_speed(self):
        cache = SpectralEfficiencyCache()
        cache(100.0, 28e9)
        cache(400.0, 28e9)
        assert len(cache) == 2

    def test_size_and_clear(self):
        cache = SpectralEfficiencyCache()
        assert len(cache) == 0
        cache(10.0, 1e9)
        assert len(cache) == 1
        cache.clear()
        assert len(cache) == 0

    def test_nearby_keys_stay_distinct(self):
        cache = SpectralEfficiencyCache()
        cache(100.0, 28e9)
        # a 1e-9 relative nudge is a key of its own, with its own value
        nudged = 100.0 * (1 + 1e-9)
        assert bits(cache(nudged, 28e9)) == bits(calc_se(nudged, 28e9))
        assert len(cache) == 2
