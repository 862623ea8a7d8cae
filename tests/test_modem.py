"""Modem tests: voltage/frequency maps, block synthesis, FFT peak recovery."""

import sys
import tracemalloc

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special

from ajscclink import harness, modem, pool
from ajscclink.channel import FAMILIES, BandNoise, ChannelSpec, make_channel, noise_deviation
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
            dict(f_min=0.0, f_max=1e3, sample_rate=1e4, fft_size=64.0),
            dict(f_min=0.0, f_max=1e3, sample_rate=1e4, fft_size=True),
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
        # Oracle: sweep known fractional offsets across a bin, mid-band and
        # within one bin of each band edge, and compare the recovered voltage
        # against the exact input, on both profiles.  The worst is about
        # 0.0104 bins.
        for cfg in (fast_profile(), slow_profile()):
            offsets = np.linspace(0.0, 0.999, 29) * cfg.bin_width
            freqs = np.concatenate(
                [
                    (cfg.fft_size * 0.2 + offsets / cfg.bin_width - 0.5) * cfg.bin_width,
                    cfg.f_min + offsets,
                    cfg.f_max - offsets,
                ]
            )
            v = frequency_to_voltage(freqs, FULL_SCALE, cfg)
            got = demodulate_stream(modulate(v, FULL_SCALE, cfg), FULL_SCALE, cfg)
            bin_volts = FULL_SCALE * cfg.bin_width / (cfg.f_max - cfg.f_min)
            assert np.abs(got - v).max() <= 0.1 * bin_volts

    @pytest.mark.parametrize("profile", [fast_profile, slow_profile])
    def test_bias_under_a_tenth_of_a_bin_on_both_paths(self, profile, monkeypatch):
        # The module docstring's claim: at csnr_db = inf the parabola on the
        # padded grid keeps its bias under a tenth of a bin, for tones over a
        # grid of offsets across a bin, mid-band and at both band edges.  It
        # holds where the direct tier decides every row and where the gate
        # sends every row to the FFT path, and both agree to 1e-9 bins.
        cfg = profile()
        offsets = np.linspace(0.0, 0.999, 41)
        bins = np.concatenate([
            cfg.fft_size * 0.3 + offsets,
            cfg.f_min / cfg.bin_width + offsets,
            cfg.f_max / cfg.bin_width - offsets,
        ])
        encoded = frequency_to_voltage(bins * cfg.bin_width, FULL_SCALE, cfg)
        blocks = modulate(encoded, FULL_SCALE, cfg)
        assert direct_share(blocks, cfg, True) == len(bins)
        direct = modem._peak_frequencies(blocks, cfg, True) / cfg.bin_width
        monkeypatch.setattr(modem, "_gate", lambda x, *args: np.zeros(len(x), dtype=bool))
        fft = modem._peak_frequencies(blocks, cfg, True) / cfg.bin_width
        assert direct_share(blocks, cfg, True) == 0
        for got in (direct, fft):
            assert np.abs(got - bins).max() < 0.1
        assert np.abs(direct - fft).max() <= 1e-9

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
    """Reference modulator: the split tone-table rule over every row at once.

    Sample q' * m + r of row b is coarse[b, q'] * fine[b, r].  With c_b =
    f_b / fs, (a, b') the split of m and (a', b'') that of q, each table is
    the outer product of two factors, fine[r' a + r] = e(c_b r) e(c_b a r')
    and coarse[p' a' + p] = exp(j phi_b) e(c_b m p) e(c_b m a' p'), where
    e(t) = exp(j 2 pi frac(t)) and phi_b joins its factor's angle before the
    cosine.  Every factor of every row is one broadcast, each outer product
    one matmul of a column by a row, and the rows one real matmul: as floats,
    [Re coarse, Im coarse] (q x 2) @ [fine; j fine] (2 x 2m).
    """
    freqs = voltage_to_frequency(np.asarray(encoded, dtype=np.float64), FULL_SCALE, cfg)
    phases0 = block_start_phases(freqs, cfg, start_phase)
    cycles = freqs / cfg.sample_rate
    m, q = tone_split(cfg.fft_size)
    (a, b), (a2, b2) = tone_split(m), tone_split(q)
    rows = freqs.size

    def tones(steps, phase=None):
        turns = cycles[:, None] * np.asarray(steps, dtype=np.float64)
        angle = (turns - np.floor(turns)) * (2 * np.pi)
        if phase is not None:
            angle += phase[:, None]
        table = np.empty(angle.shape, dtype=np.complex128)
        table.real, table.imag = np.cos(angle), np.sin(angle)
        return table

    def outer(hi, lo):
        return np.matmul(hi[:, :, None], lo[:, None, :]).reshape(rows, -1)

    fine = outer(tones(a * np.arange(b)), tones(np.arange(a)))
    coarse = outer(tones(m * a2 * np.arange(b2)), tones(m * np.arange(a2), phases0))
    left = np.stack([coarse.real, coarse.imag], axis=2)
    right = np.stack(
        [np.stack([fine.real, fine.imag], axis=2), np.stack([-fine.imag, fine.real], axis=2)], axis=1
    ).reshape(rows, 2, 2 * m)
    return np.matmul(left, right).view(np.complex128).reshape(rows, cfg.fft_size)


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
    def test_matches_whole_array_modulator(self, profile, n_rows):
        # Rows built in tiles must give the bytes of the tone rule over the
        # whole chunk, with or without out=.
        cfg = profile()
        encoded = np.random.default_rng(n_rows).uniform(0, FULL_SCALE, n_rows)
        out = np.full((n_rows, cfg.fft_size), np.nan, dtype=np.complex128)
        for start_phase in (0.0, 2.5):
            want = whole_array_modulate(encoded, cfg, start_phase).tobytes()
            got = modulate(encoded, FULL_SCALE, cfg, start_phase=start_phase)
            assert got.tobytes() == want
            got = modulate(encoded, FULL_SCALE, cfg, start_phase=start_phase, out=out)
            assert got is out
            assert out.tobytes() == want
            out[:] = np.nan

    @pytest.mark.parametrize("fft_size", [2, 61])
    def test_prime_and_two_sample_blocks(self, fft_size):
        # A prime fft_size has m = fft_size and q = 1; fft_size = 2 has m = 2.
        cfg = ModemConfig(f_min=0.0, f_max=4e3, sample_rate=1e4, fft_size=fft_size)
        encoded = np.random.default_rng(fft_size).uniform(0, FULL_SCALE, 45)
        want = whole_array_modulate(encoded, cfg, 1.0)
        assert modulate(encoded, FULL_SCALE, cfg, start_phase=1.0).tobytes() == want.tobytes()
        phases = block_start_phases(voltage_to_frequency(encoded, FULL_SCALE, cfg), cfg, 1.0)
        cos, sin = exact_tones(encoded, cfg, phases)
        assert np.hypot(want.real - cos, want.imag - sin).max() <= 1e-13

    @pytest.mark.parametrize("profile", [fast_profile, slow_profile])
    def test_accuracy_against_extended_precision(self, profile):
        # The phase error is set by the float64 f / fs (~3e-12 rad); the
        # modulus of a product of four unit factors stays within 1e-15 of one.
        cfg = profile()
        rng = np.random.default_rng(11)
        encoded = rng.uniform(0, FULL_SCALE, 40)
        phases = rng.uniform(0, 2 * np.pi, 40)
        got = modulate(encoded, FULL_SCALE, cfg, start_phase=phases)
        cos, sin = exact_tones(encoded, cfg, phases)
        assert np.hypot(got.real - cos, got.imag - sin).max() <= 1e-11
        modulus = np.hypot(got.real.astype(np.longdouble), got.imag.astype(np.longdouble))
        assert np.abs(modulus - 1).max() <= 1e-15

    def test_warm_call_allocates_little(self):
        # A warm modulate of a 32-row fast tile into out= allocates under
        # 128 kB: its outer products are matmuls of a column by a row and its
        # rows real matmuls, none of which takes a ufunc buffer (the broadcast
        # multiplies they replaced took 266 kB).
        cfg = fast_profile()
        encoded = np.random.default_rng(16).uniform(0, FULL_SCALE, 32)
        out = np.empty((32, cfg.fft_size), dtype=np.complex128)
        modulate(encoded, FULL_SCALE, cfg, out=out)
        tracemalloc.start()
        try:
            modulate(encoded, FULL_SCALE, cfg, out=out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 128 << 10

    @pytest.mark.parametrize("profile", [fast_profile, slow_profile])
    def test_complex64_out_within_stated_bounds(self, profile):
        # Into complex64 rows the tables are rounded to float32 and each row
        # is an sgemm: |sample| within sqrt(2) gamma_4 = 3.4e-7 of one, and
        # the phase within 3.4e-7 rad of exact (about 1.3e-7 measured); the
        # default output stays complex128.
        cfg = profile()
        rng = np.random.default_rng(12)
        encoded = rng.uniform(0, FULL_SCALE, 40)
        phases = rng.uniform(0, 2 * np.pi, 40)
        out = np.empty((40, cfg.fft_size), dtype=np.complex64)
        got = modulate(encoded, FULL_SCALE, cfg, start_phase=phases, out=out)
        assert got is out
        assert modulate(encoded, FULL_SCALE, cfg).dtype == np.complex128
        cos, sin = exact_tones(encoded, cfg, phases)
        re, im = got.real.astype(np.longdouble), got.imag.astype(np.longdouble)
        bound = np.sqrt(2) * 4 * 2.0**-24 / (1 - 4 * 2.0**-24)
        assert np.abs(np.hypot(re, im) - 1).max() <= bound
        assert np.abs(np.arctan2(im * cos - re * sin, re * cos + im * sin)).max() <= bound

    @pytest.mark.parametrize(
        "shape, dtype",
        [((3, 64), np.complex128), ((4, 63), np.complex128), ((4, 64), np.float64)],
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


def band_edges(cfg, n_fft):
    k_lo = int(np.ceil(cfg.f_min * n_fft / cfg.sample_rate))
    k_hi = int(np.floor(cfg.f_max * n_fft / cfg.sample_rate))
    return k_lo, k_hi, max(k_lo - 1, 0), min(k_hi + 1, n_fft - 1)


def parabola_peaks(power, k, lo, k_lo, k_hi, n_fft):
    """Bin k (absolute) plus the vertex offset of the parabola through the log
    power of bins k - 1, k, k + 1 of power (bins lo..), clipped to half a bin."""
    rows = np.arange(power.shape[0])
    peak_val = power[rows, k - lo]
    if np.any(peak_val == 0):
        raise DemodError("no spectral peak in band")
    interior = (k >= max(k_lo, 1)) & (k <= min(k_hi, n_fft - 2))
    k_seg = np.clip(k - lo, 1, power.shape[1] - 2)
    floor = peak_val * 1e-24
    alpha = np.log(np.maximum(power[rows, k_seg - 1], floor))
    beta = np.log(np.maximum(peak_val, floor))
    gamma = np.log(np.maximum(power[rows, k_seg + 1], floor))
    denom = alpha - 2 * beta + gamma
    delta = np.where(denom < 0, 0.5 * (alpha - gamma) / np.where(denom == 0, 1.0, denom), 0.0)
    return k + np.clip(np.where(interior, delta, 0.0), -0.5, 0.5)


def padded_peak_frequencies(blocks, cfg):
    """Physics reference of the interpolating receiver: one 2N-point
    zero-padded FFT per row, the in-band peak and its parabola."""
    n_fft = 2 * cfg.fft_size
    spectrum = scipy.fft.fft(blocks, n=n_fft, axis=1)
    k_lo, k_hi, lo, hi = band_edges(cfg, n_fft)
    seg = spectrum[:, lo : hi + 1]
    power = seg.real**2 + seg.imag**2
    k = power[:, k_lo - lo : k_hi - lo + 1].argmax(axis=1) + k_lo
    return parabola_peaks(power, k, lo, k_lo, k_hi, n_fft) * cfg.sample_rate / n_fft


def direct_bins(blocks, cfg, base, offsets):
    """Bins base + offsets / 2 of every row at once, as the direct tier
    computes them: each row viewed as (q, m), one matrix product with its
    fine twiddles z^(h r), then the q-long sum against z^(h m p), with z
    the half-bin twiddle exp(-j pi / N) and h the bin in half bins."""
    n = cfg.fft_size
    m, q = modem._tone_split(n)
    z = np.exp(-1j * np.pi * np.arange(2 * n) / n)
    half = (2 * base[:, None] + np.asarray(offsets))[:, None, :]
    fine = z[half * np.arange(m)[:, None] % (2 * n)]
    sums = np.matmul(blocks.reshape(-1, q, m), fine)
    return np.vecdot(z[-half * (m * np.arange(q))[:, None] % (2 * n)], sums, axis=1)


def direct_candidates(blocks, cfg):
    """The direct tier's gate and tone estimate over every row at once:
    which rows it tries, each row's N |x|^2, and its bin j."""
    n, skip = cfg.fft_size, modem._SKIP
    m = modem._tone_split(n)[0]
    k_lo, k_hi, _, _ = band_edges(cfg, n)
    gate, seg = min(modem._GATE, n - skip - m), min(modem._SEGMENT, n - skip - m)
    if gate <= 0:
        return np.zeros(len(blocks), dtype=bool), None, None
    head = blocks[:, skip : skip + gate]
    power = np.vecdot(head, head).real
    lag = np.vecdot(head, blocks[:, skip + 1 : skip + 1 + gate])
    tried = (power > 0) & (np.abs(lag) >= modem._CLEAN * power)
    floats = blocks.view(np.float64)
    energy = n * np.einsum("ij,ij->i", floats, floats)
    head = blocks[:, skip : skip + seg]
    coarse = np.angle(np.vecdot(head, blocks[:, skip + 1 : skip + 1 + seg])) / (2 * np.pi)
    fine = np.angle(np.vecdot(head, blocks[:, skip + m : skip + m + seg])) / (2 * np.pi)
    cycles = (fine + np.rint(coarse * m - fine)) / m
    return tried, energy, np.clip(np.rint(cycles * n).astype(np.int64) % n, k_lo, k_hi)


def whole_array_peak_frequencies(blocks, cfg, interpolate, detail=None):
    """Reference receiver: the receiver's rule over every row at once.

    Raw: the in-band argmax of one N-point FFT per row (the direct tier
    decides a raw row only where it gives that bin).  Interpolating: the
    direct tier, the padded bins 2j - 2 .. 2j + 2 of the rows its gate tries
    and its two Parseval bounds; for the other rows one N-point FFT E of all
    rows; per row the kernel sums O[j - 1], O[j] (the padded grid's bins
    2j -+ 1), N |x|^2 and the Parseval and max-norm bounds; and for the rows
    where neither holds, one FFT O of x c, interleaved with E into the
    padded band, searched whole.  detail, if a dict, gets per row "tier" (0
    Parseval, 1 max norm, 2 fallback, 3 direct), "fft_tier" (the tier the FFT
    path would take), the N-point peak "j", and each FFT-path bound on the
    power of the odd bins other than 2j -+ 1: "parseval" (R) and "max_norm"
    (B^2).
    """
    blocks = np.ascontiguousarray(blocks)
    n = cfg.fft_size
    spectrum = scipy.fft.fft(blocks, axis=1)
    k_lo, k_hi, lo, hi = band_edges(cfg, n)
    seg = spectrum[:, lo : hi + 1]
    power = seg.real**2 + seg.imag**2
    j = power[:, k_lo - lo : k_hi - lo + 1].argmax(axis=1) + k_lo
    if not interpolate:
        if np.any(power[np.arange(len(j)), j - lo] == 0):
            raise DemodError("no spectral peak in band")
        return j * cfg.sample_rate / n
    h, c, near_table, far_kernel, kernel_norm = modem._half_bin_tables(n)
    k2_lo, k2_hi, lo2, hi2 = band_edges(cfg, 2 * n)
    rows = np.arange(len(blocks))
    three = np.array([-1, 0, 1])
    # The direct tier: its rows' padded bins 2j - 2 .. 2j + 2, and Parseval
    # over E (j is the FFT's in-band peak) and over the odd bins.
    tried, direct_energy, direct_j = direct_candidates(blocks, cfg)
    direct = np.zeros(len(blocks), dtype=bool)
    if tried.any():
        dj, de = direct_j[tried], direct_energy[tried]
        bins = direct_bins(blocks[tried], cfg, dj, (-2, -1, 0, 1, 2))
        p = bins.real**2 + bins.imag**2
        limit = p[:, 2] * (1 - modem._ETA)
        ok = (de - p[:, 0] - p[:, 2] - p[:, 4] < limit) & ((p[:, 0] < limit) | (dj - 1 < k_lo))
        ok &= (p[:, 4] < limit) | (dj + 1 > k_hi)
        in_band = (2 * dj[:, None] + three >= k2_lo) & (2 * dj[:, None] + three <= k2_hi)
        a2 = np.where(in_band, p[:, 1:4], 0.0).max(axis=1)
        ok &= (de - p[:, 1] - p[:, 3] < a2 * (1 - modem._ETA)) & (a2 > 0)
        pick = np.where(in_band, p[:, 1:4], -1.0).argmax(axis=1)
        direct_k = (2 * dj - 1 + pick)[ok]
        direct_triple = p[np.arange(len(dj))[:, None], pick[:, None] + np.array([0, 1, 2])][ok]
        direct[np.flatnonzero(tried)[ok]] = True
    # Padded bins 2j - 2 .. 2j + 2.
    padded = np.zeros((len(blocks), 5))
    padded[:, 0::2] = power[rows[:, None], j[:, None] - lo + three]
    odd = np.array(
        [[np.dot(h[n - k : 2 * n - k], e), np.dot(h[n - 1 - k : 2 * n - 1 - k], e)] for k, e in zip(j, spectrum)]
    ).reshape(-1, 2)
    energy = np.vecdot(spectrum, spectrum).real
    padded[:, 1::2] = odd.real**2 + odd.imag**2
    in_band = (2 * j[:, None] + three >= k2_lo) & (2 * j[:, None] + three <= k2_hi)
    a2 = np.where(in_band, padded[:, 1:4], 0.0).max(axis=1)
    limit = a2 * (1 - modem._ETA)
    parseval = energy - padded[:, 1] - padded[:, 3] < limit
    # Max norm: the tone's E bins j - 8 .. j + 8 summed exactly into O[j + d],
    # d in -25 .. 24 but -1, 0; every other E bin at most the largest |E|
    # among them, with |E|^2 <= 2 max(|Re E|, |Im E|)^2 outside lo..hi, where
    # the tone's bins count too.
    window = (j[:, None] + np.arange(-8, 9)) % n
    outer = np.ones(n, dtype=bool)
    outer[lo : hi + 1] = False
    whole = 2 * np.maximum(np.abs(spectrum.real), np.abs(spectrum.imag)) ** 2
    whole[:, lo : hi + 1] = power
    whole[rows[:, None], window] = np.where(outer[window], whole[rows[:, None], window], 0.0)
    tone = spectrum[rows[:, None], window]
    near = (tone[:, :, None] * near_table).sum(axis=1)
    near = np.sqrt((near.real**2 + near.imag**2).max(axis=1))
    far = np.abs(tone).sum(axis=1) * far_kernel
    bound = np.maximum(near, far) + np.sqrt(whole.max(axis=1)) * kernel_norm
    fall = ~(parseval | (bound**2 < limit)) | (a2 == 0)
    if detail is not None:
        fft_tier = np.where(fall, 2, np.where(parseval, 0, 1))
        detail.update(
            tier=np.where(direct, 3, fft_tier),
            fft_tier=fft_tier,
            j=j,
            parseval=energy - padded[:, 1] - padded[:, 3],
            max_norm=bound**2,
        )
    fall &= ~direct
    freqs = np.empty(len(blocks))
    if direct.any():
        freqs[direct] = parabola_peaks(direct_triple, direct_k, direct_k - 1, k2_lo, k2_hi, 2 * n)
    bounded = ~fall & ~direct
    pick = np.where(in_band, padded[:, 1:4], -1.0).argmax(axis=1)[bounded]
    k = 2 * j[bounded] - 1 + pick
    triple = padded[bounded][np.arange(k.size)[:, None], pick[:, None] + np.array([0, 1, 2])]
    freqs[bounded] = parabola_peaks(triple, k, k - 1, k2_lo, k2_hi, 2 * n)
    if fall.any():
        # The padded band lo2..hi2: even bins from E, odd ones from O = FFT(x c).
        odd_spectrum = scipy.fft.fft(blocks[fall] * c, axis=1)
        bins = np.arange(lo2, hi2 + 1)
        band = np.empty((odd_spectrum.shape[0], bins.size))
        band[:, bins % 2 == 0] = power[fall][:, bins[bins % 2 == 0] // 2 - lo]
        odd_seg = odd_spectrum[:, bins[bins % 2 == 1] // 2]
        band[:, bins % 2 == 1] = odd_seg.real**2 + odd_seg.imag**2
        k = band[:, k2_lo - lo2 : k2_hi - lo2 + 1].argmax(axis=1) + k2_lo
        freqs[fall] = parabola_peaks(band, k, lo2, k2_lo, k2_hi, 2 * n)
    return freqs * cfg.sample_rate / (2 * n)


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


def mixed_blocks(cfg, n_rows, seed=0):
    """Modulated blocks, the first two at f_min and f_max, with complex noise
    at a CSNR of inf, 10, 3, 0 and -10 dB by turns: rows for each of the
    interpolating receiver's direct tier, Parseval bound, max-norm bound and
    fallback."""
    rng = np.random.default_rng(seed)
    encoded = rng.uniform(0, FULL_SCALE, n_rows)
    encoded[:2] = [0.0, FULL_SCALE][:n_rows]
    blocks = modulate(encoded, FULL_SCALE, cfg)
    noise = rng.standard_normal((n_rows, 2 * cfg.fft_size)).view(np.complex128)
    deviation = np.sqrt(np.array([0.0, 0.1, 0.5, 1.0, 10.0]) / 2)
    return blocks + noise * deviation[np.arange(n_rows) % 5, None]


def count_fallback_rows(monkeypatch):
    """Patch the interpolating receiver's fallback to count the rows it takes."""
    taken = []
    fallback = modem._odd_band_peaks

    def counted(blocks, which, *args):
        taken.append(which.size)
        return fallback(blocks, which, *args)

    monkeypatch.setattr(modem, "_odd_band_peaks", counted)
    return taken


class TestRowSplit:
    @pytest.mark.parametrize("profile", [fast_profile, slow_profile])
    @pytest.mark.parametrize("n_rows", [1, 7, 31, 300, 512])
    def test_matches_whole_array_receiver(self, profile, n_rows):
        # Tiles of a call's rows, through the direct tier or transformed into
        # the thread's buffer, must give the bytes of the same rule over all
        # rows at once; the larger chunks take all four of the interpolating
        # receiver's paths.
        cfg = profile()
        blocks = mixed_blocks(cfg, n_rows, seed=n_rows)
        for interpolate in (True, False):
            detail = {}
            want = whole_array_peak_frequencies(blocks, cfg, interpolate, detail)
            want = np.asarray(frequency_to_voltage(want, FULL_SCALE, cfg))
            if interpolate and n_rows >= 31:
                assert set(detail["tier"]) == {0, 1, 2, 3}
            got = demodulate_stream(blocks, FULL_SCALE, cfg, interpolate=interpolate)
            assert got.tobytes() == want.tobytes()

    def test_more_ranges_than_cores_under_fast_switching(self, monkeypatch):
        # As the transmit does, each pool range calls the receiver once per
        # tile of its rows, on its thread's scratch, and writes a disjoint
        # part of one result array.  Split into many more ranges than pool
        # threads, with the interpreter switching threads every few
        # microseconds, every receiver must give the bytes of one call on all
        # rows: at -20 dB some raw rows complete their band and some do not.
        cfg = slow_profile()
        n_rows, tile = 300, 7
        blocks = mixed_blocks(cfg, n_rows, seed=4)
        spec = ChannelSpec("awgn", csnr_db=-20.0, seed=9)
        monkeypatch.setattr(pool, "_WORKERS", 16)
        for interpolate, noisy in ((True, False), (False, False), (False, True)):
            noise = BandNoise(spec, cfg.fft_size, 0, n_rows) if noisy else None
            want = demodulate_stream(blocks, FULL_SCALE, cfg, interpolate, band_noise=noise)
            got = np.full(n_rows, np.nan)

            def rows(lo, hi):
                for t in range(lo, hi, tile):
                    u = min(t + tile, hi)
                    part = None if noise is None else noise.rows(t, u)
                    got[t:u] = demodulate_stream(
                        blocks[t:u], FULL_SCALE, cfg, interpolate, band_noise=part
                    )

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                pool.split_rows(rows, n_rows)
            finally:
                sys.setswitchinterval(interval)
            assert got.tobytes() == want.tobytes(), (interpolate, noisy)

    def test_layers_do_not_dispatch(self, monkeypatch):
        # The modulator, every channel's process and both receivers are
        # serial kernels, and only the transmit splits rows over the pool:
        # with 16 workers and a pool that fails when used, direct calls give
        # the bytes they give on one worker.
        cfg = fast_profile()
        encoded = np.random.default_rng(5).uniform(0, FULL_SCALE, 40)
        blocks = mixed_blocks(cfg, 40, seed=5)
        noise = ChannelSpec("awgn", csnr_db=-21.0, seed=5)

        def layers():
            x = modulate(encoded, FULL_SCALE, cfg)
            out = [x.tobytes()]
            for family in FAMILIES:
                spec = ChannelSpec(family, csnr_db=3.0, seed=5)
                ch = make_channel(spec, cfg.sample_rate, cfg.fft_size)
                out.append(ch.process(x.copy()).tobytes())
            out.append(demodulate_stream(blocks, FULL_SCALE, cfg).tobytes())
            band_noise = BandNoise(noise, cfg.fft_size, 0, 40)
            out.append(
                demodulate_stream(blocks, FULL_SCALE, cfg, False, band_noise=band_noise).tobytes()
            )
            return out

        class NoPool:
            def __getattr__(self, name):
                raise AssertionError(f"a layer used the pool's {name}")

        monkeypatch.setattr(pool, "_WORKERS", 1)
        want = layers()
        monkeypatch.setattr(pool, "_WORKERS", 16)
        monkeypatch.setattr(pool, "_POOL", NoPool())
        assert layers() == want

    @pytest.mark.parametrize("profile", [fast_profile, slow_profile])
    def test_fallback_for_every_row_matches(self, profile, monkeypatch):
        # With _ETA = 2 no bound holds, so every row takes the fallback's
        # second FFT, and must still give the reference's bytes.
        cfg = profile()
        blocks = mixed_blocks(cfg, 40, seed=8)
        monkeypatch.setattr(modem, "_ETA", 2.0)
        detail = {}
        want = whole_array_peak_frequencies(blocks, cfg, True, detail)
        assert set(detail["tier"]) == {2}
        taken = count_fallback_rows(monkeypatch)
        got = modem._peak_frequencies(blocks, cfg, True)
        assert got.tobytes() == want.tobytes()
        assert sum(taken) == 40

    @pytest.mark.parametrize("profile", [fast_profile, slow_profile])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_spectra_are_scipy_fft_bytes(self, profile, workers, monkeypatch):
        # Each numpy.fft call of the receiver, the tiles' N-point spectra
        # written out of place into the thread's buffer and the fallback's
        # x c transformed in place, must hold scipy.fft.fft's bytes for its
        # rows, whatever the pool's worker count.  With _ETA = 2 every row
        # takes the fallback.
        cfg = profile()
        blocks = mixed_blocks(cfg, 40, seed=21)
        monkeypatch.setattr(modem, "_ETA", 2.0)
        monkeypatch.setattr(pool, "_WORKERS", workers)
        calls, fft = [], np.fft.fft

        def recorded(a, *args, out=None, **kwargs):
            rows = np.array(a)  # before an in-place transform overwrites a
            got = fft(a, *args, out=out, **kwargs)
            assert got is out
            calls.append((np.shares_memory(a, out), rows, got.copy()))
            return got

        monkeypatch.setattr(np.fft, "fft", recorded)
        modem._peak_frequencies(blocks, cfg, True)
        for in_place in (False, True):
            mine = [(rows, got) for shared, rows, got in calls if shared == in_place]
            assert sum(len(rows) for rows, _ in mine) == 40
            for rows, got in mine:
                assert got.tobytes() == scipy.fft.fft(rows, axis=1).tobytes()

    @pytest.mark.parametrize("profile", [fast_profile, slow_profile])
    def test_noiseless_rows_never_fall_back(self, profile, monkeypatch):
        # At csnr_db = inf every tone takes the direct tier, and the FFT
        # path's Parseval bound would hold for it too: mid-band, within one
        # bin of either band edge, and through a fading channel.
        cfg = profile()
        offsets = np.linspace(0.0, 0.999, 37) * cfg.bin_width
        freqs = np.concatenate([cfg.f_min + offsets, cfg.f_max - offsets])
        freqs = np.concatenate([freqs, np.random.default_rng(2).uniform(cfg.f_min, cfg.f_max, 54)])
        blocks = modulate(frequency_to_voltage(freqs, FULL_SCALE, cfg), FULL_SCALE, cfg)
        taken = count_fallback_rows(monkeypatch)
        for family in ("awgn", "flat_rayleigh", "jtc_indoor_a", "jtc_outdoor_low_a"):
            channel = make_channel(ChannelSpec(family, seed=3), cfg.sample_rate, cfg.fft_size)
            faded = channel.process(blocks.copy(), start_block=0)
            detail = {}
            whole_array_peak_frequencies(faded, cfg, True, detail)
            assert set(detail["tier"]) == {3}
            assert set(detail["fft_tier"]) == {0}
            demodulate_stream(faded, FULL_SCALE, cfg)
        assert taken == []

    @pytest.mark.parametrize("profile", [fast_profile, slow_profile])
    def test_matches_padded_fft(self, profile):
        # The physics reference: one 2N-point zero-padded FFT per row.  The
        # peaks agree to 1e-9 bins through every tier, and on every row both
        # FFT-path bounds hold for the padded grid's odd bins other than the
        # candidates 2j -+ 1.
        cfg = profile()
        n = cfg.fft_size
        encoded = np.random.default_rng(5).uniform(0, FULL_SCALE, 48)
        encoded[:4] = 0.0, 1e-5, FULL_SCALE - 1e-5, FULL_SCALE
        blocks = modulate(encoded, FULL_SCALE, cfg)
        tiers = []
        for family, csnr_db in [
            ("awgn", np.inf), ("awgn", 20.0), ("awgn", 10.0), ("awgn", 5.0), ("awgn", 0.0),
            ("jtc_outdoor_low_a", 10.0), ("jtc_outdoor_low_a", np.inf),
            ("flat_rayleigh", 0.0), ("flat_rayleigh", np.inf), ("awgn", -10.0),
        ]:
            spec = ChannelSpec(family, csnr_db=csnr_db, seed=7)
            noisy = make_channel(spec, cfg.sample_rate, n).process(blocks.copy(), start_block=0)
            got = modem._peak_frequencies(noisy, cfg, True)
            assert np.abs(got - padded_peak_frequencies(noisy, cfg)).max() <= 1e-9 * cfg.bin_width
            detail = {}
            whole_array_peak_frequencies(noisy, cfg, True, detail)
            tiers.extend(detail["tier"])
            padded = scipy.fft.fft(noisy, n=2 * n, axis=1)
            odd = padded.real[:, 1::2] ** 2 + padded.imag[:, 1::2] ** 2
            rows = np.arange(len(noisy))
            odd[rows, detail["j"] - 1] = odd[rows, detail["j"]] = 0.0
            others = odd.max(axis=1)
            assert np.all(others <= detail["parseval"] * (1 + 1e-9))
            assert np.all(others <= detail["max_norm"] * (1 + 1e-9))
        assert set(tiers) == {0, 1, 2, 3}

    @pytest.mark.parametrize(
        "cfg",
        [fast_profile(), ModemConfig(f_min=1030.0, f_max=3000.0, sample_rate=1e4, fft_size=160)],
    )
    def test_ties_take_the_first_bin(self, cfg):
        # A unit impulse has every bin of the padded grid at power 1, so the
        # peak is the first in-band bin: even on the fast profile (k2_lo =
        # 1000), odd on the other grid (k2_lo = 33).
        blocks = np.zeros((3, cfg.fft_size), dtype=np.complex128)
        blocks[:, 0] = 1.0
        got = modem._peak_frequencies(blocks, cfg, True)
        k2_lo = band_edges(cfg, 2 * cfg.fft_size)[0]
        assert np.all(got == k2_lo * cfg.sample_rate / (2 * cfg.fft_size))
        assert got.tobytes() == padded_peak_frequencies(blocks, cfg).tobytes()

    @pytest.mark.parametrize("force_fallback", [False, True])
    def test_blocks_with_strided_rows(self, force_fallback, monkeypatch):
        # The receiver transforms its tile's rows and reads a fallback row's
        # samples where they lie in blocks, so rows that are not contiguous
        # (a float64 view of such a row raises) and Fortran-ordered blocks
        # give the same bytes.
        cfg = fast_profile()
        blocks = mixed_blocks(cfg, 24, seed=12)
        if force_fallback:
            monkeypatch.setattr(modem, "_ETA", 2.0)
        want = demodulate_stream(blocks, FULL_SCALE, cfg)
        wide = np.zeros((24, 2 * cfg.fft_size), dtype=np.complex128)
        wide[:, ::2] = blocks
        strided = wide[:, ::2]
        with pytest.raises(ValueError):
            strided[0].view(np.float64)
        for layout in (strided, np.asfortranarray(blocks)):
            assert demodulate_stream(layout, FULL_SCALE, cfg).tobytes() == want.tobytes()

    def test_half_bin_tables(self):
        # O = FFT(x c) from the kernel sums, and the max-norm bound's constants
        # from the kernel's definition.
        for n in (5000, 8192):
            h, c, near, far, norm = modem._half_bin_tables(n)
            x = noisy_blocks(ModemConfig(0.0, 1e3, 1e4, n), 1, seed=n)[0]
            odd = scipy.fft.fft(x * c)
            e = scipy.fft.fft(x)
            for k in (0, 1, n // 3, n - 1):
                got = np.dot(h[n - 1 - k : 2 * n - 1 - k], e)
                assert abs(got - odd[k]) <= 1e-12 * np.sqrt(n) * np.linalg.norm(x)
            i = np.arange(n)
            kernel = (2 / n) / (1 - np.exp(-1j * np.pi * (2 * i + 1) / n))
            d = np.array([d for d in range(-25, 25) if d not in (-1, 0)])
            np.testing.assert_allclose(near, kernel[(d[None, :] - np.arange(-8, 9)[:, None]) % n], rtol=1e-12)
            assert norm == pytest.approx(np.abs(kernel).sum(), rel=1e-12)
            assert far == pytest.approx(np.abs(kernel[17 : n - 17]).max(), rel=1e-12)
        assert modem._half_bin_tables(64)[2] is None

    @pytest.mark.parametrize("profile, n_bins", [(fast_profile, 3501), (slow_profile, 2001)])
    def test_band_noise_matches_whole_array_receiver(self, profile, n_bins, monkeypatch):
        # The chunk's windows, drawn at once, and the completion, drawn row by
        # row inside the receiver's tiles, must give the bytes of the same
        # rule over one FFT of all rows.  At the lower CSNR every block
        # completes its band and the noise moves decoded values; at the
        # higher one the window alone decides some of the blocks.
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
        # A receiver call on a pool thread, as the transmit makes, raises
        # DemodError on a zero block, and the split passes it to the caller.
        cfg = slow_profile()
        blocks = noisy_blocks(cfg, 300)
        blocks[250] = 0.0  # rows 150..299 are the second range
        monkeypatch.setattr(pool, "_WORKERS", 2)

        def rows(lo, hi):
            demodulate_stream(blocks[lo:hi], FULL_SCALE, cfg, interpolate=interpolate)

        with pytest.raises(DemodError):
            pool.split_rows(rows, 300)


def record_direct(mp):
    """Patch the direct tier, through the MonkeyPatch mp, to record each
    batch it computes: its rows x, their base bins, the bins, and which rows
    it decides with their peak bins k."""
    seen = []
    bins_of, peaks_of = modem._direct_bins, modem._direct_peaks

    def bins(x, base, *args):
        got = bins_of(x, base, *args)
        seen.append(dict(x=np.array(x), base=base.copy(), bins=got.copy()))
        return got

    def peaks(*args):
        ok, k, triple = peaks_of(*args)
        seen[-1].update(ok=ok.copy(), k=k.copy())
        return ok, k, triple

    mp.setattr(modem, "_direct_bins", bins)
    mp.setattr(modem, "_direct_peaks", peaks)
    return seen


def direct_share(blocks, cfg, interpolate, band_noise=None):
    """How many rows of blocks the direct tier decides."""
    with pytest.MonkeyPatch.context() as mp:
        seen = record_direct(mp)
        modem._peak_frequencies(blocks, cfg, interpolate, band_noise)
    return sum(int(batch["ok"].sum()) for batch in seen)


# A tone: a voltage anywhere in [0, full scale], or an offset in bins within
# one bin of either band edge.
tone_strategy = st.one_of(
    st.floats(0.0, FULL_SCALE),
    st.tuples(st.sampled_from(("lo", "hi")), st.floats(0.0, 0.999)),
)


class TestDirectTier:
    @settings(max_examples=40, deadline=None)
    @given(
        profile=st.sampled_from([fast_profile, slow_profile]),
        interpolate=st.booleans(),
        family=st.sampled_from(FAMILIES),
        csnr_db=st.sampled_from([np.inf, 30.0, 10.0, 0.0]),
        tones=st.lists(tone_strategy, min_size=1, max_size=6),
        second=st.one_of(st.none(), st.floats(0.05, 1.0)),
        seed=st.integers(0, 2**16),
    )
    def test_decided_rows_read_the_fft_bins(
        self, profile, interpolate, family, csnr_db, tones, second, seed
    ):
        # Wherever the direct tier decides a row, its bin j is the FFT's
        # in-band peak and its bins are the FFT's (E, and O = FFT(x c) for the
        # odd bins of the padded grid) to 1e-12 N: tones anywhere in the band,
        # through every channel, with noise, and rows of two tones.
        cfg = profile()
        n = cfg.fft_size
        k_lo, k_hi, _, _ = band_edges(cfg, n)
        freqs = [
            voltage_to_frequency(t, FULL_SCALE, cfg) if not isinstance(t, tuple)
            else cfg.f_min + t[1] * cfg.bin_width if t[0] == "lo" else cfg.f_max - t[1] * cfg.bin_width
            for t in tones
        ]
        encoded = frequency_to_voltage(np.array(freqs), FULL_SCALE, cfg)
        blocks = modulate(encoded, FULL_SCALE, cfg)
        if second is not None:
            other = np.random.default_rng(seed).uniform(0, FULL_SCALE, len(tones))
            blocks += second * modulate(other, FULL_SCALE, cfg)
        spec = ChannelSpec(family, csnr_db=csnr_db, seed=seed)
        blocks = make_channel(spec, cfg.sample_rate, n).process(blocks, start_block=0)
        with pytest.MonkeyPatch.context() as mp:
            seen = record_direct(mp)
            modem._peak_frequencies(blocks, cfg, interpolate)
        c = modem._half_bin_tables(n)[1]
        for batch in seen:
            x, base, bins, ok = batch["x"][batch["ok"]], batch["base"][batch["ok"]], batch["bins"][batch["ok"]], batch["ok"]
            spectrum = scipy.fft.fft(x, axis=1)
            power = spectrum.real**2 + spectrum.imag**2
            peak = power[:, k_lo : k_hi + 1].argmax(axis=1) + k_lo
            rows = np.arange(len(x))[:, None]
            if interpolate:
                assert np.array_equal(base, peak)
                odd = scipy.fft.fft(x * c, axis=1)
                want = np.empty_like(bins)
                want[:, 0::2] = spectrum[rows, base[:, None] + (-1, 0, 1)]
                want[:, 1::2] = odd[rows, base[:, None] + (-1, 0)]
            else:
                assert np.array_equal(batch["k"], peak)
                want = spectrum[rows, base[:, None] + (0, 1, 2)]
            scale = np.sqrt(np.mean(np.abs(x) ** 2, axis=1))[:, None]
            assert np.all(np.abs(bins - want) <= 1e-12 * n * scale)

    @pytest.mark.parametrize("profile", [fast_profile, slow_profile])
    def test_shares(self, profile):
        # At csnr_db = inf every row takes the direct tier, through every
        # channel and for both receivers (with band noise too); at AWGN 0 dB
        # the gate keeps every interpolating row out of it.
        cfg = profile()
        n_rows = 64
        blocks = modulate(np.random.default_rng(3).uniform(0, FULL_SCALE, n_rows), FULL_SCALE, cfg)
        for family in FAMILIES:
            faded = make_channel(ChannelSpec(family, seed=4), cfg.sample_rate, cfg.fft_size)
            faded = faded.process(blocks.copy(), start_block=0)
            assert direct_share(faded, cfg, True) == n_rows
            assert direct_share(faded, cfg, False) == n_rows
        noise = BandNoise(ChannelSpec("awgn", csnr_db=0.0, seed=4), cfg.fft_size, 0, n_rows)
        assert direct_share(blocks, cfg, False, noise) == n_rows
        noisy = make_channel(ChannelSpec("awgn", csnr_db=0.0, seed=4), cfg.sample_rate, cfg.fft_size)
        assert direct_share(noisy.process(blocks.copy(), start_block=0), cfg, True) == 0

    def test_far_even_bin_above_the_peak_bin_takes_the_fft_path(self):
        # A tone at bin 2000.4 plus a weaker tone on bin 2064: the row passes
        # the gate, the tier reads j = 2000, its neighbours hold less than
        # E[j] and the odd-bin Parseval bound holds, but the far even bin
        # holds more than |E[j]|^2, so j is not the FFT's in-band peak.  Only
        # the E-side Parseval check is left to send the row to the FFT path.
        cfg = fast_profile()
        n, j, far = cfg.fft_size, 2000, 2064
        t = np.arange(n)
        x = np.exp(2j * np.pi * (j + 0.4) * t / n) + 0.82 * np.exp(2j * np.pi * far * t / n)
        even = np.abs(np.fft.fft(x)) ** 2
        odd = np.abs(np.fft.fft(x * np.exp(-1j * np.pi * t / n))) ** 2
        assert even[far] > 1.1 * even[j] and even[j] > 2 * max(even[j - 1], even[j + 1])
        a2 = max(odd[j - 1], even[j], odd[j])
        assert n * np.vdot(x, x).real - odd[j - 1] - odd[j] < 0.8 * a2
        with pytest.MonkeyPatch.context() as mp:
            seen = record_direct(mp)
            modem._peak_frequencies(x[None], cfg, True)
        (batch,) = seen
        assert batch["base"].tolist() == [j]
        assert not batch["ok"][0]

    @pytest.mark.parametrize("interpolate", [True, False])
    def test_zero_row_among_clean_rows_raises(self, interpolate):
        # The direct tier leaves a zero row to the FFT path, which raises.
        cfg = fast_profile()
        blocks = modulate(np.linspace(0.1, 0.9, 40), FULL_SCALE, cfg)
        blocks[21] = 0.0
        with pytest.raises(DemodError):
            demodulate_stream(blocks, FULL_SCALE, cfg, interpolate=interpolate)

    @settings(max_examples=12, deadline=None)
    @given(
        profile=st.sampled_from([fast_profile, slow_profile]),
        cuts=st.lists(st.integers(1, 59), max_size=6, unique=True).map(sorted),
    )
    def test_bytes_do_not_depend_on_chunking(self, profile, cuts):
        # Chunks of a stream, each through its own call (and raw runs with
        # their chunk's band noise), give the bytes of one call on all rows.
        cfg = profile()
        blocks = mixed_blocks(cfg, 60, seed=17)
        spec = ChannelSpec("awgn", csnr_db=-20.0, seed=5)
        edges = [0, *cuts, 60]
        for interpolate, noisy in ((True, False), (False, False), (False, True)):

            def run(lo, hi):
                noise = BandNoise(spec, cfg.fft_size, lo, hi - lo) if noisy else None
                return demodulate_stream(blocks[lo:hi], FULL_SCALE, cfg, interpolate, band_noise=noise)

            parts = [run(lo, hi) for lo, hi in zip(edges[:-1], edges[1:])]
            assert np.concatenate(parts).tobytes() == run(0, 60).tobytes()

    @pytest.mark.parametrize("profile", [fast_profile, slow_profile])
    @pytest.mark.parametrize("receiver", ["interpolating", "raw", "raw with band noise"])
    def test_bytes_do_not_depend_on_the_batch(self, profile, receiver, monkeypatch):
        # A row's bytes do not depend on the direct batch that holds it: for
        # any receiver tile (the bound of a gathered batch and of a tile of
        # direct bins) and split of the stream into calls, each row gets the
        # bytes it gets alone.  Every row of the clean stream
        # takes the direct tier, consecutive rows as one batch; in the gapped
        # one, noise keeps every fifth row out of it, so the tier gathers.
        cfg = profile()
        n, n_rows = cfg.fft_size, 64
        interpolate = receiver == "interpolating"
        spec = ChannelSpec("awgn", csnr_db=0.0, seed=11) if receiver.endswith("noise") else None
        rng = np.random.default_rng(12)
        clean = modulate(rng.uniform(0, FULL_SCALE, n_rows), FULL_SCALE, cfg)
        gapped = clean.copy()
        gapped[::5] += 3 * rng.standard_normal((13, 2 * n)).view(np.complex128)
        setup = modem._receiver

        def run(blocks, rows_per_call, tile):
            monkeypatch.setattr(modem, "_receiver", lambda *args: setup(*args)._replace(tile=tile))
            parts = []
            for lo in range(0, n_rows, rows_per_call):
                hi = min(lo + rows_per_call, n_rows)
                noise = None if spec is None else BandNoise(spec, n, lo, hi - lo)
                parts.append(
                    demodulate_stream(blocks[lo:hi], FULL_SCALE, cfg, interpolate, band_noise=noise)
                )
            return np.concatenate(parts)

        for blocks, tried in ((clean, n_rows), (gapped, n_rows - 13)):
            noise = None if spec is None else BandNoise(spec, n, 0, n_rows)
            assert direct_share(blocks, cfg, interpolate, noise) == tried
            want = run(blocks, n_rows, 1)
            for tile in (1, 7, 16, n_rows):
                for rows_per_call in (1, 7, 32, n_rows):
                    got = run(blocks, rows_per_call, tile)
                    assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("profile", [fast_profile, slow_profile])
    @pytest.mark.parametrize("interpolate", [True, False])
    def test_a_transmit_tile_is_one_batch(self, profile, interpolate):
        # The direct tier takes a transmit tile's consecutive rows in one
        # batch.
        cfg = profile()
        n_rows = harness._TILE_SAMPLES // cfg.fft_size
        blocks = modulate(np.random.default_rng(14).uniform(0, FULL_SCALE, n_rows), FULL_SCALE, cfg)
        with pytest.MonkeyPatch.context() as mp:
            seen = record_direct(mp)
            modem._peak_frequencies(blocks, cfg, interpolate)
        assert [len(batch["x"]) for batch in seen] == [n_rows]
        assert seen[0]["ok"].all()

    @pytest.mark.parametrize("profile", [fast_profile, slow_profile])
    def test_products_stay_on_the_calling_thread(self, profile):
        # OpenBLAS runs a dgemm of m n k <= 2^18 on the calling thread.  The
        # modulator's (q x 2) @ (2 x 2m) and the direct tier's (q x 2m) @
        # (2m x 2k) per row must stay there, or they would wake OpenBLAS's
        # threads, which convoy with the pool's.
        m, q = tone_split(profile().fft_size)
        assert q * 2 * (2 * m) <= 1 << 18
        for offsets in (modem._PADDED, modem._TRIPLE):
            assert q * (2 * m) * (2 * len(offsets)) <= 1 << 18

    @pytest.mark.parametrize("profile, n_rows", [(fast_profile, 32), (slow_profile, 52)])
    @pytest.mark.parametrize("interpolate", [True, False])
    def test_warm_call_allocates_little(self, profile, n_rows, interpolate):
        # A warm receiver call on a transmit tile of clean rows allocates
        # under 256 kB: the direct bins' scratch (598 kB per 16 fast rows)
        # is the thread's, not a temporary of each batch.
        cfg = profile()
        blocks = modulate(np.random.default_rng(15).uniform(0, FULL_SCALE, n_rows), FULL_SCALE, cfg)
        demodulate_stream(blocks, FULL_SCALE, cfg, interpolate)
        tracemalloc.start()
        try:
            demodulate_stream(blocks, FULL_SCALE, cfg, interpolate)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256 << 10


def lag_gated(mp):
    """Patch the receiver, through the MonkeyPatch mp, to try a raw row in the
    direct tier only where it passes the lag test, |r_1| >= 0.7 p over the
    first _GATE samples past the edge, and to read a raw row's tone over
    _SEGMENT samples, as the interpolating receiver does."""
    gate = modem._gate

    def gated(x, setup, interpolate, band_noise):
        done = gate(x, setup, interpolate, band_noise)
        if interpolate or not done.any():
            return done
        n, skip = x.shape[1], modem._SKIP
        seg = min(modem._GATE, n - skip - modem._tone_split(n)[0])
        head = x[:, skip : skip + seg]
        power = np.vecdot(head, head).real
        lag = np.vecdot(head, x[:, skip + 1 : skip + 1 + seg])
        return done & (power > 0) & (np.abs(lag) >= modem._CLEAN * power)

    mp.setattr(modem, "_gate", gated)
    mp.setattr(modem, "_RAW_SEGMENT", modem._SEGMENT)


def split_demodulate(blocks, cfg, band_noise=None):
    """The raw receiver over blocks, one call per range of ``pool.split_rows``
    (each with its rows of band_noise, a BandNoise over all the blocks)."""
    out = np.empty(len(blocks))

    def rows(lo, hi):
        noise = None if band_noise is None else band_noise.rows(lo, hi)
        out[lo:hi] = demodulate_stream(blocks[lo:hi], FULL_SCALE, cfg, False, band_noise=noise)

    pool.split_rows(rows, len(blocks))
    return out


class TestRawDirectTier:
    @pytest.mark.parametrize("profile", [fast_profile, slow_profile])
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("noisy_band", [False, True], ids=["plain", "band-noise"])
    def test_decisions_do_not_depend_on_the_lag_test(self, profile, workers, noisy_band, monkeypatch):
        # A raw row skips the lag test and reads its tone over _RAW_SEGMENT
        # samples.  On noisy time-domain rows, which the lag test keeps out
        # of the direct tier, and on faded multipath rows, which it lets in,
        # every decision keeps the bytes it gets with the test and the long
        # segment, on one worker and on two; without band noise, those of
        # the FFT's in-band argmax.
        cfg = profile()
        n_rows = 64
        rng = np.random.default_rng(21)
        noisy = noisy_blocks(cfg, n_rows, seed=21)
        faded = make_channel(ChannelSpec("jtc_outdoor_low_a", seed=22), cfg.sample_rate, cfg.fft_size)
        faded = faded.process(modulate(rng.uniform(0, FULL_SCALE, n_rows), FULL_SCALE, cfg), 0)
        spec = ChannelSpec("awgn", csnr_db=0.0, seed=23)
        noise = BandNoise(spec, cfg.fft_size, 0, n_rows) if noisy_band else None
        monkeypatch.setattr(pool, "_WORKERS", workers)
        tried = {}
        for blocks, kind in ((noisy, "noisy"), (faded, "faded")):
            with pytest.MonkeyPatch.context() as mp:
                seen = record_direct(mp)
                got = split_demodulate(blocks, cfg, noise)
            tried[kind] = sum(len(batch["x"]) for batch in seen)
            with pytest.MonkeyPatch.context() as mp:
                lag_gated(mp)
                seen = record_direct(mp)
                want = split_demodulate(blocks, cfg, noise)
            tried[kind, "lag test"] = sum(len(batch["x"]) for batch in seen)
            assert got.tobytes() == want.tobytes()
            if noise is None:
                fft = whole_array_peak_frequencies(blocks, cfg, False)
                assert got.tobytes() == np.asarray(frequency_to_voltage(fft, FULL_SCALE, cfg)).tobytes()
        # The lag test spares the tier every noisy row and no faded one (band
        # noise's union-bound pre-check, which stays, may spare it some of
        # either, such as deep fades).
        assert tried["noisy"] > tried["noisy", "lag test"] == 0
        assert tried["faded"] == tried["faded", "lag test"] > (n_rows - 1 if noise is None else 0)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("lag_test", [False, True])
    def test_zero_row_raises(self, workers, lag_test, monkeypatch):
        # A zero row, which the lag test kept out of the direct tier, now
        # enters it, fails its proof and takes the FFT path, which raises.
        cfg = fast_profile()
        blocks = modulate(np.linspace(0.1, 0.9, 40), FULL_SCALE, cfg)
        blocks[30] = 0.0  # in the second range on two workers
        monkeypatch.setattr(pool, "_WORKERS", workers)
        if lag_test:
            lag_gated(monkeypatch)
        with pytest.raises(DemodError):
            split_demodulate(blocks, cfg)


def complex64_line(cfg, encoded, family, seed):
    """A raw run's tile: encoded modulated into complex64 rows and faded, at
    csnr_db = inf, by the channel's tone line."""
    rows = np.empty((len(encoded), cfg.fft_size), dtype=np.complex64)
    modulate(encoded, FULL_SCALE, cfg, out=rows)
    line = make_channel(ChannelSpec(family, seed=seed), cfg.sample_rate, cfg.fft_size)
    cycles = voltage_to_frequency(encoded, FULL_SCALE, cfg) / cfg.sample_rate
    return line.process(rows, 0, None, cycles)


def fft_path_only(mp):
    """Patch the gate, through the MonkeyPatch mp, to send every row to the
    FFT path."""
    mp.setattr(modem, "_gate", lambda x, *args: np.zeros(len(x), dtype=bool))


class TestComplex64Rows:
    @pytest.mark.parametrize("profile", [fast_profile, slow_profile])
    @pytest.mark.parametrize("family", ["awgn", "flat_rayleigh", "jtc_outdoor_low_a"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_direct_tier_decides_as_the_fft_path(self, profile, family, workers, monkeypatch):
        # The raw receiver reads complex64 rows in float32 in the direct tier
        # and proves each decision with the float32 error bounds, or leaves
        # the row to the FFT path, which upcasts it.  So every decision is
        # the FFT path's on the same rows, with and without band noise, and
        # the tier decides nearly every row.
        cfg = profile()
        n_rows = 96
        encoded = np.random.default_rng(31).uniform(0, FULL_SCALE, n_rows)
        rows = complex64_line(cfg, encoded, family, seed=32)
        assert rows.dtype == np.complex64
        spec = ChannelSpec("awgn", csnr_db=0.0, seed=33)
        monkeypatch.setattr(pool, "_WORKERS", workers)
        peaks = modem._direct_peaks
        for noise in (None, BandNoise(spec, cfg.fft_size, 0, n_rows)):
            decided = []  # list.append is atomic, so the pool's threads may share it

            def counted(*args):
                ok, k, triple = peaks(*args)
                decided.append(int(ok.sum()))
                return ok, k, triple

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(modem, "_direct_peaks", counted)
                got = split_demodulate(rows, cfg, noise)
            assert sum(decided) >= n_rows - 3
            with pytest.MonkeyPatch.context() as mp:
                fft_path_only(mp)
                want = split_demodulate(rows, cfg, noise)
                upcast = split_demodulate(rows.astype(np.complex128), cfg, noise)
            assert got.tobytes() == want.tobytes() == upcast.tobytes()

    @pytest.mark.parametrize("profile", [fast_profile, slow_profile])
    def test_near_ties_take_the_fft_path(self, profile):
        # Tones 1e-6 of a bin short of a half bin: their two nearest bins
        # differ by about 4e-6 of their magnitude, past the 1e-9 margin of
        # complex128 rows but inside the float32 error of complex64 rows.
        # The direct tier decides the complex128 rows and leaves every
        # complex64 row to the FFT path, which decides them alike.
        cfg = profile()
        k = np.linspace(cfg.f_min, cfg.f_max, 12)[1:-1] // cfg.bin_width
        encoded = frequency_to_voltage((k + 0.5 - 1e-6) * cfg.bin_width, FULL_SCALE, cfg)
        wide = modulate(encoded, FULL_SCALE, cfg)
        narrow = modulate(encoded, FULL_SCALE, cfg, out=np.empty(wide.shape, dtype=np.complex64))
        assert direct_share(wide, cfg, False) == len(k)
        assert direct_share(narrow, cfg, False) == 0
        got = demodulate_stream(narrow, FULL_SCALE, cfg, False)
        assert got.tobytes() == demodulate_stream(wide, FULL_SCALE, cfg, False).tobytes()
        assert np.array_equal(frequency_to_voltage(k * cfg.bin_width, FULL_SCALE, cfg), got)

    @pytest.mark.parametrize("profile", [fast_profile, slow_profile])
    def test_margins_hold_the_measured_error(self, profile):
        # The float32 bounds of the module docstring hold with room on rows
        # of every channel: each direct bin within kappa sqrt(N |x|^2) of the
        # FFT's on the upcast rows, and N |x|^2 within gamma of itself.
        cfg = profile()
        n = cfg.fft_size
        gamma, kappa = modem._rounding(n, np.dtype(np.complex64))
        assert modem._rounding(n, np.dtype(np.complex128)) == (0.0, 0.0)
        encoded = np.random.default_rng(34).uniform(0, FULL_SCALE, 40)
        for family in FAMILIES:
            rows = complex64_line(cfg, encoded, family, seed=35)
            with pytest.MonkeyPatch.context() as mp:
                seen = record_direct(mp)
                modem._peak_frequencies(rows, cfg, False)
            (batch,) = seen
            x = rows.astype(np.complex128)
            spectrum = scipy.fft.fft(x, axis=1)
            want = spectrum[np.arange(len(x))[:, None], batch["base"][:, None] + (0, 1, 2)]
            power = n * np.vecdot(x, x).real
            assert np.all(np.abs(batch["bins"] - want) <= 0.1 * kappa * np.sqrt(power)[:, None])
            floats = rows.view(np.float32)
            sum32 = n * np.einsum("ij,ij->i", floats, floats).astype(np.float64)
            assert np.all(np.abs(sum32 - power) <= 0.1 * gamma * power)


class TestPreCheck:
    @pytest.mark.parametrize("profile", [fast_profile, slow_profile])
    def test_skips_only_rows_that_fail_both_bounds(self, profile, monkeypatch):
        # On AWGN at -10 to -20 dB every row takes the FFT path, and the
        # pre-check skips the kernel sums of some rows at -10 and -15 dB and
        # of all at -20 dB.  Each row it skips fails Parseval's bound and
        # the max-norm bound with its exact odd bins, and the bytes are those
        # without the pre-check.
        cfg = profile()
        n, n_rows = cfg.fft_size, 48
        c = modem._half_bin_tables(n)[1]
        encoded = np.random.default_rng(36).uniform(0, FULL_SCALE, n_rows)
        skipped = {}
        for csnr_db in (-10.0, -15.0, -20.0):
            spec = ChannelSpec("awgn", csnr_db=csnr_db, seed=37)
            x = modulate(encoded, FULL_SCALE, cfg)
            x = make_channel(spec, cfg.sample_rate, n).process(x, 0)
            seen = []
            with pytest.MonkeyPatch.context() as mp:
                check = modem._pre_check

                def recorded(spectrum, power, energy, peak, tone, j, setup):
                    both, norm = check(spectrum, power, energy, peak, tone, j, setup)
                    seen.append((spectrum.copy(), energy.copy(), j.copy(), both.copy(), norm))
                    return both, norm

                mp.setattr(modem, "_pre_check", recorded)
                got = modem._peak_frequencies(x, cfg, True)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(
                    modem, "_pre_check", lambda spectrum, *args: (np.zeros(len(spectrum), bool), None)
                )
                assert got.tobytes() == modem._peak_frequencies(x, cfg, True).tobytes()
            count = 0
            for spectrum, energy, j, both, norm in seen:
                rows = np.flatnonzero(both)
                count += rows.size
                if not rows.size:
                    continue
                odd = scipy.fft.fft(np.fft.ifft(spectrum[rows], axis=1) * c, axis=1)
                o1 = np.abs(odd[np.arange(rows.size), j[rows] - 1]) ** 2
                o2 = np.abs(odd[np.arange(rows.size), j[rows]]) ** 2
                e = np.abs(spectrum[rows, j[rows]]) ** 2
                a2 = np.maximum(np.maximum(o1, o2), e)
                assert np.all(energy[rows] - o1 - o2 >= a2)  # Parseval's bound fails
                assert np.all(norm[rows] >= a2)  # and the max-norm bound
            skipped[csnr_db] = count
        assert 0 < skipped[-10.0] <= skipped[-15.0] <= skipped[-20.0] == n_rows


def mfsk_error_law(es_n0: float, m: int) -> float:
    """Symbol error probability of noncoherent M-FSK with orthogonal tones in
    AWGN: 1 - E[(1 - exp(-Y))^(M - 1)].  In units of one bin's noise power,
    Y = |sqrt(Es/N0) + z|^2 (z ~ CN(0, 1)) is the sent bin's power, and each
    of the M - 1 other bins' powers is Exp(1), so P(all below Y) = (1 - e^-Y)^(M-1).
    """
    a = np.sqrt(es_n0)

    def hit(y):
        # Y's density, the noncentral chi-square of 2 dof, times P(all below y).
        density = np.exp(-((np.sqrt(y) - a) ** 2)) * special.i0e(2 * a * np.sqrt(y))
        return density * np.exp((m - 1) * np.log1p(-np.exp(-y)))

    return 1.0 - integrate.quad(hit, 0.0, (a + 12.0) ** 2, points=[a * a], limit=200)[0]


class TestMfskLaw:
    """The raw receiver is a noncoherent M-FSK detector over the M in-band
    bins: a bin-centred tone of N unit samples puts N in its bin and nothing
    in the others, and the noise puts CN(0, N sigma^2) in each (here drawn
    in the band, ``BandNoise``), so Es/N0 = |h|^2 N / sigma^2.  The decoded
    bin's error rate must follow the law within four binomial standard
    errors, with at least 20 errors expected so that z is near normal.
    """

    N_BLOCKS = 3000

    @staticmethod
    def bin_centred_blocks(cfg, n_blocks, seed):
        k_lo, k_hi, _, _ = band_edges(cfg, cfg.fft_size)
        sent = np.random.default_rng(seed).integers(k_lo, k_hi + 1, n_blocks)
        encoded = frequency_to_voltage(sent * cfg.bin_width, FULL_SCALE, cfg)
        return sent, modulate(encoded, FULL_SCALE, cfg), k_hi - k_lo + 1

    @staticmethod
    def errors(blocks, cfg, spec, sent):
        noise = BandNoise(spec, cfg.fft_size, 0, len(blocks))
        got = demodulate_stream(blocks, FULL_SCALE, cfg, interpolate=False, band_noise=noise)
        decoded = np.rint(voltage_to_frequency(got, FULL_SCALE, cfg) / cfg.bin_width)
        return decoded != sent

    @pytest.mark.parametrize(
        "profile, csnr_db, seed",
        [
            (slow_profile, -26.0, 2601),
            (slow_profile, -25.0, 2501),
            (slow_profile, -24.0, 2401),
            (fast_profile, -27.0, 2701),
        ],
    )
    def test_awgn(self, profile, csnr_db, seed):
        cfg = profile()
        sent, blocks, m = self.bin_centred_blocks(cfg, self.N_BLOCKS, seed)
        wrong = self.errors(blocks, cfg, ChannelSpec("awgn", csnr_db=csnr_db, seed=seed), sent)
        p = mfsk_error_law(cfg.fft_size * 10.0 ** (csnr_db / 10.0), m)
        z = (wrong.mean() - p) / np.sqrt(p * (1 - p) / wrong.size)
        print(f"M-FSK, N {cfg.fft_size}, {csnr_db} dB: {wrong.mean():.4f}, law {p:.4f}, z {z:.2f}")
        assert p * wrong.size >= 20
        assert abs(z) < 4, (wrong.mean(), p, z)

    def test_flat_rayleigh_conditioned_on_each_fade(self):
        # Each block's error probability is the law at its own |h|^2 Es/N0;
        # the error count is a sum of Bernoullis with those probabilities.
        cfg, csnr_db, seed = slow_profile(), -18.0, 1801
        sent, blocks, m = self.bin_centred_blocks(cfg, self.N_BLOCKS, seed)
        first = blocks[:, 0].copy()
        fading = ChannelSpec("flat_rayleigh", seed=seed)
        faded = make_channel(fading, cfg.sample_rate, cfg.fft_size).process(blocks)
        gain = np.abs(faded[:, 0] / first) ** 2
        noise = ChannelSpec("flat_rayleigh", csnr_db=csnr_db, seed=seed + 1)
        wrong = self.errors(faded, cfg, noise, sent)
        # The law on a grid of Es/N0, interpolated in log Es/N0 at each block's.
        es_n0 = cfg.fft_size * 10.0 ** (csnr_db / 10.0) * gain
        grid = np.geomspace(es_n0.min(), es_n0.max(), 400)
        p = np.interp(np.log(es_n0), np.log(grid), [mfsk_error_law(g, m) for g in grid])
        z = (wrong.sum() - p.sum()) / np.sqrt(np.sum(p * (1 - p)))
        rate, law = wrong.mean(), p.mean()
        print(f"M-FSK, flat Rayleigh, {csnr_db} dB: {rate:.4f}, law {law:.4f}, z {z:.2f}")
        assert p.sum() >= 20
        assert abs(z) < 4, (wrong.mean(), p.mean(), z)
