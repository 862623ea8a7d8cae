"""Modem tests: voltage/frequency maps, block synthesis, FFT peak recovery."""

import sys

import numpy as np
import pytest
import scipy.fft

from ajscclink import pool
from ajscclink.channel import ChannelSpec, band_noise
from ajscclink.errors import ConfigError, DemodError
from ajscclink.modem import (
    ModemConfig,
    block_start_phases,
    demodulate_stream,
    fast_profile,
    frequency_to_voltage,
    modulate,
    slow_profile,
    voltage_to_frequency,
)

FULL_SCALE = 1.0


def demodulate_one(block, cfg, interpolate=True):
    """The receiver's value for one block, through the stream receiver."""
    return float(demodulate_stream(block[None], FULL_SCALE, cfg, interpolate)[0])


class TestProfiles:
    def test_fast_profile_numbers(self):
        cfg = fast_profile()
        assert cfg.sample_rate == 8.192e6
        assert cfg.fft_size == 8192
        assert cfg.f_max == 4e6
        assert cfg.block_period == pytest.approx(1e-3)

    def test_slow_profile_numbers(self):
        cfg = slow_profile()
        assert cfg.sample_rate == 500e3
        assert cfg.fft_size == 5000
        assert cfg.block_period == pytest.approx(10e-3)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(f_min=-1.0, f_max=1e3, sample_rate=1e4, fft_size=64),
            dict(f_min=2e3, f_max=1e3, sample_rate=1e4, fft_size=64),
            dict(f_min=0.0, f_max=4.95e3, sample_rate=1e4, fft_size=64),
            dict(f_min=0.0, f_max=1e3, sample_rate=1e4, fft_size=1),
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            ModemConfig(**kwargs)


class TestVoltageFrequencyMap:
    def test_endpoints_and_midpoint(self):
        cfg = fast_profile()
        assert voltage_to_frequency(0.0, FULL_SCALE, cfg) == cfg.f_min
        assert voltage_to_frequency(FULL_SCALE, FULL_SCALE, cfg) == 4e6
        mid = voltage_to_frequency(FULL_SCALE / 2, FULL_SCALE, cfg)
        assert mid == pytest.approx((cfg.f_min + cfg.f_max) / 2)

    def test_inverse_composes_to_identity(self):
        cfg = slow_profile()
        v = np.linspace(0, FULL_SCALE, 101)
        back = frequency_to_voltage(voltage_to_frequency(v, FULL_SCALE, cfg), FULL_SCALE, cfg)
        np.testing.assert_allclose(back, v, atol=1e-12)

    def test_clamping(self):
        cfg = fast_profile()
        assert voltage_to_frequency(-2.0, FULL_SCALE, cfg) == cfg.f_min
        assert voltage_to_frequency(2.0, FULL_SCALE, cfg) == cfg.f_max
        assert frequency_to_voltage(0.0, FULL_SCALE, cfg) == 0.0


class TestModulate:
    def test_dc_block_when_f_min_zero(self):
        cfg = ModemConfig(f_min=0.0, f_max=1e3, sample_rate=1e4, fft_size=64)
        blocks = modulate([0.0], FULL_SCALE, cfg)
        np.testing.assert_allclose(blocks[0], np.ones(64), atol=1e-12)

    def test_bin_aligned_tone_occupies_single_bin(self):
        cfg = fast_profile()
        k = 1234
        v = frequency_to_voltage(k * cfg.bin_width, FULL_SCALE, cfg)
        spectrum = np.fft.fft(modulate([v], FULL_SCALE, cfg)[0])
        mags = np.abs(spectrum)
        assert mags[k] == pytest.approx(cfg.fft_size, rel=1e-9)
        mags[k] = 0.0
        assert mags.max() < 1e-6 * cfg.fft_size

    def test_instantaneous_frequency_matches_map(self):
        cfg = fast_profile()
        rng = np.random.default_rng(8)
        v = rng.uniform(0, FULL_SCALE, 16)
        blocks = modulate(v, FULL_SCALE, cfg)
        inst = np.angle(blocks[:, 1:] * np.conj(blocks[:, :-1])) * cfg.sample_rate / (2 * np.pi)
        want = voltage_to_frequency(v, FULL_SCALE, cfg)
        np.testing.assert_allclose(inst.mean(axis=1), want, rtol=1e-6)

    def test_block_accounting_and_modulus(self):
        cfg = slow_profile()
        blocks = modulate(np.linspace(0, 1, 7), FULL_SCALE, cfg)
        assert blocks.shape == (7, cfg.fft_size)
        assert np.abs(np.abs(blocks) - 1.0).max() < 1e-11

    def test_phase_continuity_across_blocks(self):
        cfg = fast_profile()
        v = [0.3, 0.7, 0.1]
        blocks = modulate(v, FULL_SCALE, cfg)
        freqs = voltage_to_frequency(np.asarray(v), FULL_SCALE, cfg)
        for b in range(2):
            end = blocks[b, -1] * np.exp(2j * np.pi * freqs[b] / cfg.sample_rate)
            assert blocks[b + 1, 0] == pytest.approx(end, abs=1e-9)

    def test_start_phases_accumulate(self):
        cfg = fast_profile()
        freqs = np.array([1e6, 2e6, 3e6])
        phases = block_start_phases(freqs, cfg)
        assert phases[0] == 0.0
        want = (2 * np.pi * freqs[0] * cfg.block_period) % (2 * np.pi)
        assert phases[1] == pytest.approx(want)

    def test_empty_sequence_rejected(self):
        with pytest.raises(ConfigError):
            modulate([], FULL_SCALE, fast_profile())

    def test_chunks_from_stream_phases_match_one_call(self):
        # Each chunk takes its slice of the whole stream's block phases, so
        # the chunks are the bytes of one call over the stream.
        cfg = fast_profile()
        encoded = np.random.default_rng(5).uniform(0, FULL_SCALE, 60)
        phases = block_start_phases(voltage_to_frequency(encoded, FULL_SCALE, cfg), cfg)
        whole = modulate(encoded, FULL_SCALE, cfg)
        bounds = np.cumsum([0, 7, 7, 19, 27])
        chunks = [
            modulate(encoded[lo:hi], FULL_SCALE, cfg, start_phase=phases[lo:hi])
            for lo, hi in zip(bounds[:-1], bounds[1:])
        ]
        assert np.vstack(chunks).tobytes() == whole.tobytes()
        with pytest.raises(ConfigError):
            modulate(encoded[:7], FULL_SCALE, cfg, start_phase=phases[:6])


class TestDemodulate:
    def test_bin_aligned_loopback_exact(self):
        cfg = fast_profile()
        v = frequency_to_voltage(2000 * cfg.bin_width, FULL_SCALE, cfg)
        got = demodulate_one(modulate([v], FULL_SCALE, cfg)[0], cfg)
        assert abs(got - v) <= 1e-9

    def test_off_bin_error_within_tenth_of_a_bin(self):
        # Oracle: sweep known fractional offsets across a bin and compare
        # the recovered voltage against the exact input.
        cfg = fast_profile()
        bin_volts = FULL_SCALE * cfg.bin_width / (cfg.f_max - cfg.f_min)
        worst = 0.0
        for offset in np.linspace(-0.5, 0.499, 29):
            v = frequency_to_voltage((1500 + offset) * cfg.bin_width, FULL_SCALE, cfg)
            got = demodulate_one(modulate([v], FULL_SCALE, cfg)[0], cfg)
            worst = max(worst, abs(got - v))
        assert worst <= 0.1 * bin_volts

    def test_raw_bin_mode_quantizes_to_grid(self):
        cfg = fast_profile()
        v = frequency_to_voltage((1500 + 0.3) * cfg.bin_width, FULL_SCALE, cfg)
        got = demodulate_one(modulate([v], FULL_SCALE, cfg)[0], cfg, interpolate=False)
        want = frequency_to_voltage(1500 * cfg.bin_width, FULL_SCALE, cfg)
        assert got == pytest.approx(want, abs=1e-12)

    def test_loopback_monotone_on_grid(self):
        cfg = fast_profile()
        grid = np.linspace(0, FULL_SCALE, 1000)
        out = demodulate_stream(modulate(grid, FULL_SCALE, cfg), FULL_SCALE, cfg)
        bin_volts = FULL_SCALE * cfg.bin_width / (cfg.f_max - cfg.f_min)
        assert np.abs(out - grid).max() <= 0.1 * bin_volts
        assert np.all(np.diff(out) >= -1e-12)

    def test_all_zero_block_raises(self):
        cfg = slow_profile()
        with pytest.raises(DemodError):
            demodulate_one(np.zeros(cfg.fft_size, dtype=complex), cfg)

    def test_wrong_block_length_rejected(self):
        cfg = fast_profile()
        with pytest.raises(ConfigError):
            demodulate_one(np.ones(16, dtype=complex), cfg)

    def test_emission_periods(self):
        assert fast_profile().block_period == pytest.approx(1e-3)
        assert slow_profile().block_period == pytest.approx(10e-3)


def whole_array_modulate(encoded, cfg, start_phase):
    """Reference modulator: one 2-D running product over every row at once."""
    freqs = voltage_to_frequency(np.asarray(encoded, dtype=np.float64), FULL_SCALE, cfg)
    phases0 = block_start_phases(freqs, cfg, start_phase)
    step = np.exp(2j * np.pi * freqs / cfg.sample_rate)
    first = np.exp(1j * phases0)
    blocks = np.empty((freqs.size, cfg.fft_size), dtype=np.complex128)
    blocks[:, 0] = first
    np.multiply.accumulate(
        np.broadcast_to(step[:, None], (freqs.size, cfg.fft_size - 1)),
        axis=1,
        out=blocks[:, 1:],
    )
    blocks[:, 1:] *= first[:, None]
    return blocks


class TestModulateRowSplit:
    @pytest.mark.parametrize("profile", [fast_profile, slow_profile])
    @pytest.mark.parametrize("n_rows", [1, 7, 300, 512])
    def test_matches_whole_array_modulator(self, profile, n_rows, monkeypatch):
        # Rows built one at a time on the pool must give the bytes of the
        # 2-D running product, for any worker count, with or without out=.
        cfg = profile()
        encoded = np.random.default_rng(n_rows).uniform(0, FULL_SCALE, n_rows)
        out = np.full((n_rows, cfg.fft_size), np.nan, dtype=np.complex128)
        for start_phase in (0.0, 2.5):
            want = whole_array_modulate(encoded, cfg, start_phase).tobytes()
            for workers in (1, 2):
                monkeypatch.setattr(pool, "_WORKERS", workers)
                got = modulate(encoded, FULL_SCALE, cfg, start_phase=start_phase)
                assert got.tobytes() == want
                got = modulate(encoded, FULL_SCALE, cfg, start_phase=start_phase, out=out)
                assert got is out
                assert out.tobytes() == want
                out[:] = np.nan

    @pytest.mark.parametrize(
        "shape, dtype",
        [((3, 64), np.complex128), ((4, 63), np.complex128), ((4, 64), np.complex64)],
    )
    def test_out_of_wrong_shape_or_dtype_rejected(self, shape, dtype):
        cfg = ModemConfig(f_min=0.0, f_max=1e3, sample_rate=1e4, fft_size=64)
        with pytest.raises(ConfigError):
            modulate(np.zeros(4), FULL_SCALE, cfg, out=np.empty(shape, dtype=dtype))


def whole_array_peak_frequencies(blocks, cfg, interpolate, band=None):
    """Reference receiver: one zero-padded FFT of every row at once.

    band, if given, is added to the in-band bins k_lo..k_hi of each row.
    """
    n_fft = 2 * cfg.fft_size if interpolate else cfg.fft_size
    spectrum = scipy.fft.fft(blocks, n=n_fft, axis=1)
    k_lo = int(np.ceil(cfg.f_min * n_fft / cfg.sample_rate))
    k_hi = int(np.floor(cfg.f_max * n_fft / cfg.sample_rate))
    if band is not None:
        spectrum[:, k_lo : k_hi + 1] += band
    lo = max(k_lo - 1, 0)
    hi = min(k_hi + 1, n_fft - 1)
    seg = spectrum[:, lo : hi + 1]
    power = seg.real**2 + seg.imag**2
    band = power[:, k_lo - lo : k_hi - lo + 1]
    peak_val = band.max(axis=1)
    k = band.argmax(axis=1) + k_lo
    if not interpolate:
        return k * cfg.sample_rate / n_fft
    rows = np.arange(power.shape[0])
    interior = (k >= max(k_lo, 1)) & (k <= min(k_hi, n_fft - 2))
    k_seg = np.clip(k - lo, 1, power.shape[1] - 2)
    floor = peak_val * 1e-24
    alpha = np.log(np.maximum(power[rows, k_seg - 1], floor))
    beta = np.log(np.maximum(power[rows, k_seg], floor))
    gamma = np.log(np.maximum(power[rows, k_seg + 1], floor))
    denom = alpha - 2 * beta + gamma
    delta = np.where(denom < 0, 0.5 * (alpha - gamma) / np.where(denom == 0, 1.0, denom), 0.0)
    delta = np.clip(np.where(interior, delta, 0.0), -0.5, 0.5)
    return (k + delta) * cfg.sample_rate / n_fft


def noisy_blocks(cfg, n_rows, seed=0):
    """Modulated blocks plus complex noise at 0 dB CSNR."""
    rng = np.random.default_rng(seed)
    blocks = modulate(rng.uniform(0, FULL_SCALE, n_rows), FULL_SCALE, cfg)
    noise = rng.standard_normal((n_rows, 2 * cfg.fft_size)).view(np.complex128)
    return blocks + noise / np.sqrt(2)


class TestRowSplit:
    @pytest.mark.parametrize("profile", [fast_profile, slow_profile])
    @pytest.mark.parametrize("n_rows", [1, 7, 31, 300, 512])
    def test_matches_whole_array_receiver(self, profile, n_rows, monkeypatch):
        # Tiles of each worker's rows, transformed in place, must give the
        # bytes of one padded FFT over all rows, for any worker count.
        cfg = profile()
        blocks = noisy_blocks(cfg, n_rows, seed=n_rows)
        for interpolate in (True, False):
            want = whole_array_peak_frequencies(blocks, cfg, interpolate)
            want = np.asarray(frequency_to_voltage(want, FULL_SCALE, cfg))
            for workers in (1, 2):
                monkeypatch.setattr(pool, "_WORKERS", workers)
                got = demodulate_stream(blocks, FULL_SCALE, cfg, interpolate=interpolate)
                assert got.tobytes() == want.tobytes()

    def test_more_ranges_than_cores_under_fast_switching(self, monkeypatch):
        # Workers write disjoint row ranges of one result array; split into
        # many more ranges than pool threads, with the interpreter switching
        # threads every few microseconds, the bytes must still match.
        cfg = slow_profile()
        blocks = noisy_blocks(cfg, 300, seed=4)
        want = whole_array_peak_frequencies(blocks, cfg, True)
        want = np.asarray(frequency_to_voltage(want, FULL_SCALE, cfg))
        monkeypatch.setattr(pool, "_WORKERS", 16)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            got = demodulate_stream(blocks, FULL_SCALE, cfg)
        finally:
            sys.setswitchinterval(interval)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("profile, n_bins", [(fast_profile, 3501), (slow_profile, 2001)])
    def test_band_noise_matches_whole_array_receiver(self, profile, n_bins, monkeypatch):
        # Noise added row by row inside each worker's tiles must give the
        # bytes of one FFT of all rows plus each row's noise on bins
        # k_lo..k_hi, also with more ranges than cores.
        cfg = profile()
        n_rows = 31
        blocks = modulate(np.random.default_rng(6).uniform(0, FULL_SCALE, n_rows), FULL_SCALE, cfg)
        new_fill = band_noise(ChannelSpec("awgn", csnr_db=-25.0, seed=9), cfg.fft_size, 40, n_rows)
        band = np.empty((n_rows, n_bins), dtype=np.complex128)
        fill = new_fill()
        for r in range(n_rows):
            fill(r, band[r])
        want = whole_array_peak_frequencies(blocks, cfg, False, band)
        want = np.asarray(frequency_to_voltage(want, FULL_SCALE, cfg))
        assert np.count_nonzero(want != demodulate_stream(blocks, FULL_SCALE, cfg, False)) > 0
        for workers in (1, 2, 16):
            monkeypatch.setattr(pool, "_WORKERS", workers)
            got = demodulate_stream(blocks, FULL_SCALE, cfg, False, band_noise=new_fill)
            assert got.tobytes() == want.tobytes()

    def test_band_noise_needs_the_raw_receiver(self):
        cfg = slow_profile()
        new_fill = band_noise(ChannelSpec("awgn", csnr_db=0.0), cfg.fft_size, 0, 1)
        blocks = modulate([0.5], FULL_SCALE, cfg)
        with pytest.raises(ConfigError, match="raw receiver"):
            demodulate_stream(blocks, FULL_SCALE, cfg, interpolate=True, band_noise=new_fill)

    @pytest.mark.parametrize("interpolate", [True, False])
    def test_zero_block_in_second_worker_range_raises(self, interpolate, monkeypatch):
        cfg = slow_profile()
        blocks = noisy_blocks(cfg, 300)
        blocks[250] = 0.0  # rows 150..299 are the second range
        monkeypatch.setattr(pool, "_WORKERS", 2)
        with pytest.raises(DemodError):
            demodulate_stream(blocks, FULL_SCALE, cfg, interpolate=interpolate)
