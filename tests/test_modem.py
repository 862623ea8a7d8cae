"""Modem tests: voltage/frequency maps, block synthesis, FFT peak recovery."""

import sys

import numpy as np
import pytest
import scipy.fft

from ajscclink import pool
from ajscclink.channel import BandNoise, ChannelSpec, noise_deviation
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
            dict(f_min=0.0, f_max=1e3, sample_rate=float("nan"), fft_size=64),
            # The band holds no bin of the 8-point grid (125 Hz apart).
            dict(f_min=100.0, f_max=101.0, sample_rate=1e3, fft_size=8),
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


def tone_split(n):
    """(m, q): m the smallest divisor of n that is >= sqrt(n), q = n // m."""
    m = min(d for d in range(1, n + 1) if n % d == 0 and d * d >= n)
    return m, n // m


def whole_array_modulate(encoded, cfg, start_phase):
    """Reference modulator: the coarse x fine tone rule over every row at once.

    Sample q' * m + r of row b is exp(j (phi_b + 2 pi frac(c_b m q'))) *
    exp(j 2 pi c_b r), with c_b = f_b / fs, built as one 3-D broadcast.
    """
    freqs = voltage_to_frequency(np.asarray(encoded, dtype=np.float64), FULL_SCALE, cfg)
    phases0 = block_start_phases(freqs, cfg, start_phase)
    cycles = freqs / cfg.sample_rate
    m, q = tone_split(cfg.fft_size)
    coarse_cycles = cycles[:, None] * (m * np.arange(q, dtype=np.float64))
    coarse_cycles -= np.floor(coarse_cycles)

    def tones(angle):
        table = np.empty(angle.shape, dtype=np.complex128)
        table.real, table.imag = np.cos(angle), np.sin(angle)
        return table

    fine = tones(cycles[:, None] * np.arange(m, dtype=np.float64) * (2 * np.pi))
    coarse = tones(coarse_cycles * (2 * np.pi) + phases0[:, None])
    return (coarse[:, :, None] * fine[:, None, :]).reshape(freqs.size, cfg.fft_size)


def exact_tones(encoded, cfg, start_phases):
    """Each block in extended precision: exp(j (phi_b + 2 pi (f_b / fs) n))."""
    pi = np.arccos(np.longdouble(-1))
    freqs = voltage_to_frequency(np.asarray(encoded, dtype=np.float64), FULL_SCALE, cfg)
    cycles = freqs.astype(np.longdouble) / np.longdouble(cfg.sample_rate)
    n = np.arange(cfg.fft_size, dtype=np.longdouble)
    angle = np.asarray(start_phases, dtype=np.longdouble)[:, None] + 2 * pi * cycles[:, None] * n
    return np.cos(angle), np.sin(angle)


class TestModulateRowSplit:
    @pytest.mark.parametrize("profile", [fast_profile, slow_profile])
    @pytest.mark.parametrize("n_rows", [1, 7, 300, 512])
    def test_matches_whole_array_modulator(self, profile, n_rows, monkeypatch):
        # Rows built in tiles on the pool must give the bytes of the tone
        # rule over the whole chunk, for any worker count, with or without out=.
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

    @pytest.mark.parametrize("fft_size", [2, 61])
    def test_prime_and_two_sample_blocks(self, fft_size, monkeypatch):
        # A prime fft_size has m = fft_size and q = 1; fft_size = 2 has m = 2.
        cfg = ModemConfig(f_min=0.0, f_max=4e3, sample_rate=1e4, fft_size=fft_size)
        encoded = np.random.default_rng(fft_size).uniform(0, FULL_SCALE, 45)
        want = whole_array_modulate(encoded, cfg, 1.0)
        for workers in (1, 2):
            monkeypatch.setattr(pool, "_WORKERS", workers)
            assert modulate(encoded, FULL_SCALE, cfg, start_phase=1.0).tobytes() == want.tobytes()
        phases = block_start_phases(voltage_to_frequency(encoded, FULL_SCALE, cfg), cfg, 1.0)
        cos, sin = exact_tones(encoded, cfg, phases)
        assert np.hypot(want.real - cos, want.imag - sin).max() <= 1e-13

    @pytest.mark.parametrize("profile", [fast_profile, slow_profile])
    def test_accuracy_against_extended_precision(self, profile):
        # The phase error is set by the float64 f / fs (~2e-12 rad); the
        # modulus stays within a few ulps of one.
        cfg = profile()
        rng = np.random.default_rng(11)
        encoded = rng.uniform(0, FULL_SCALE, 40)
        phases = rng.uniform(0, 2 * np.pi, 40)
        got = modulate(encoded, FULL_SCALE, cfg, start_phase=phases)
        cos, sin = exact_tones(encoded, cfg, phases)
        assert np.hypot(got.real - cos, got.imag - sin).max() <= 1e-11
        modulus = np.hypot(got.real.astype(np.longdouble), got.imag.astype(np.longdouble))
        assert np.abs(modulus - 1).max() <= 1e-14

    @pytest.mark.parametrize(
        "shape, dtype",
        [((3, 64), np.complex128), ((4, 63), np.complex128), ((4, 64), np.complex64)],
    )
    def test_out_of_wrong_shape_or_dtype_rejected(self, shape, dtype):
        cfg = ModemConfig(f_min=0.0, f_max=1e3, sample_rate=1e4, fft_size=64)
        with pytest.raises(ConfigError):
            modulate(np.zeros(4), FULL_SCALE, cfg, out=np.empty(shape, dtype=dtype))

    def test_out_with_strided_rows_rejected(self):
        # Each row is written as a (q, m) view of itself, so it must be contiguous.
        cfg = ModemConfig(f_min=0.0, f_max=1e3, sample_rate=1e4, fft_size=64)
        with pytest.raises(ConfigError):
            modulate(np.zeros(4), FULL_SCALE, cfg, out=np.empty((4, 128), complex)[:, ::2])
        rows = np.empty((8, 64), complex)[::2]
        assert modulate(np.linspace(0, 1, 4), FULL_SCALE, cfg, out=rows) is rows
        assert rows.tobytes() == modulate(np.linspace(0, 1, 4), FULL_SCALE, cfg).tobytes()


def whole_array_peak_frequencies(blocks, cfg, interpolate):
    """Reference receiver: one zero-padded FFT of every row at once."""
    n_fft = 2 * cfg.fft_size if interpolate else cfg.fft_size
    spectrum = scipy.fft.fft(blocks, n=n_fft, axis=1)
    k_lo = int(np.ceil(cfg.f_min * n_fft / cfg.sample_rate))
    k_hi = int(np.floor(cfg.f_max * n_fft / cfg.sample_rate))
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


def reference_rng(seed, stream, block):
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(stream, block)))


def reference_window(seed, block, deviation):
    """Block b's 9 window bins, from its own Philox at counter 5 * b: 20
    words, as u in [0, 1), turned into 9 Box-Muller pairs."""
    key = np.random.SeedSequence(seed, spawn_key=(2,)).generate_state(2, np.uint64)
    u = (np.random.Philox(key=key, counter=5 * block).random_raw(20) >> np.uint64(11)) * 2.0**-53
    radius = deviation * np.sqrt(-2.0 * np.log(1.0 - u[:9]))
    window = np.empty(9, dtype=np.complex128)
    window.real = radius * np.cos(2 * np.pi * u[9:18])
    window.imag = radius * np.sin(2 * np.pi * u[9:18])
    return window


def windowed_band_noise_reference(blocks, cfg, spec, start_block):
    """Reference raw receiver with band noise: one FFT of every row at once,
    then the window rule row by row, each block's window from its own Philox
    and its completion from its own SeedSequence.  Returns the peak
    frequencies and which rows completed.
    """
    n = cfg.fft_size
    k_lo = int(np.ceil(cfg.f_min * n / cfg.sample_rate))
    k_hi = int(np.floor(cfg.f_max * n / cfg.sample_rate))
    bands = scipy.fft.fft(blocks, axis=1)[:, k_lo : k_hi + 1]
    n_bins = bands.shape[1]
    sigma = np.sqrt(n) * noise_deviation(spec.csnr_db)
    k = np.empty(len(blocks), dtype=int)
    completed = np.zeros(len(blocks), dtype=bool)
    for r, x in enumerate(bands):
        b = start_block + r
        s = min(max(np.argmax(x.real**2 + x.imag**2) - 4, 0), n_bins - 9)
        inside = np.arange(s, s + 9)
        outside = np.setdiff1d(np.arange(n_bins), inside)
        noisy = x.copy()
        noisy[inside] += reference_window(spec.seed, b, sigma)
        a = np.abs(noisy[inside]).max()
        x_out = np.abs(x[outside]).max()
        bound = outside.size * np.exp(-max(a - x_out, 0.0) ** 2 / (2 * sigma**2))
        if bound > 1e-12:
            rest = reference_rng(spec.seed, 3, b).standard_normal(2 * outside.size)
            noisy[outside] += sigma * rest.view(complex)
            completed[r] = True
        else:
            noisy[outside] = 0.0
        k[r] = np.argmax(noisy.real**2 + noisy.imag**2) + k_lo
    return k * cfg.sample_rate / n, completed


def sized_draws(cursor, sizes):
    """A BandNoise cursor whose completion draws also append their sizes to sizes."""

    def sized_cursor():
        draw = cursor()

        def record(row, out):
            sizes.append(out.size)
            draw(row, out)

        return record

    return sized_cursor


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
        # The chunk's windows, drawn at once, and the completion, drawn row by
        # row inside each worker's tiles, must give the bytes of the same rule
        # over one FFT of all rows, also with more ranges than cores.  At the lower CSNR
        # every block completes its band and the noise moves decoded values;
        # at the higher one the window alone decides some of the blocks.
        cfg = profile()
        n_rows = 31
        blocks = modulate(np.random.default_rng(6).uniform(0, FULL_SCALE, n_rows), FULL_SCALE, cfg)
        noiseless = demodulate_stream(blocks, FULL_SCALE, cfg, False)
        low, mixed = (-28.0, -21.0) if profile is fast_profile else (-25.0, -20.0)
        for csnr_db in (low, mixed):
            spec = ChannelSpec("awgn", csnr_db=csnr_db, seed=9)
            want, completed = windowed_band_noise_reference(blocks, cfg, spec, 40)
            want = np.asarray(frequency_to_voltage(want, FULL_SCALE, cfg))
            if csnr_db == low:
                assert completed.all()
                assert np.count_nonzero(want != noiseless) > 0
            else:
                assert 0 < np.count_nonzero(completed) < n_rows
            for workers in (1, 2, 16):
                monkeypatch.setattr(pool, "_WORKERS", workers)
                sizes = []
                noise = BandNoise(spec, cfg.fft_size, 40, n_rows)
                monkeypatch.setattr(noise, "cursor", sized_draws(noise.cursor, sizes))
                got = demodulate_stream(blocks, FULL_SCALE, cfg, False, band_noise=noise)
                assert got.tobytes() == want.tobytes()
                assert sizes == [n_bins - 9] * np.count_nonzero(completed)

    def test_band_noise_needs_the_raw_receiver(self):
        cfg = slow_profile()
        noise = BandNoise(ChannelSpec("awgn", csnr_db=0.0), cfg.fft_size, 0, 1)
        blocks = modulate([0.5], FULL_SCALE, cfg)
        with pytest.raises(ConfigError, match="raw receiver"):
            demodulate_stream(blocks, FULL_SCALE, cfg, interpolate=True, band_noise=noise)

    def test_band_noise_must_hold_the_blocks(self):
        cfg = slow_profile()
        noise = BandNoise(ChannelSpec("awgn", csnr_db=0.0), cfg.fft_size, 0, 2)
        blocks = modulate([0.5], FULL_SCALE, cfg)
        with pytest.raises(ConfigError, match="band noise holds 2 blocks"):
            demodulate_stream(blocks, FULL_SCALE, cfg, interpolate=False, band_noise=noise)

    @pytest.mark.parametrize("interpolate", [True, False])
    def test_zero_block_in_second_worker_range_raises(self, interpolate, monkeypatch):
        cfg = slow_profile()
        blocks = noisy_blocks(cfg, 300)
        blocks[250] = 0.0  # rows 150..299 are the second range
        monkeypatch.setattr(pool, "_WORKERS", 2)
        with pytest.raises(DemodError):
            demodulate_stream(blocks, FULL_SCALE, cfg, interpolate=interpolate)
