"""Channel tests: noise calibration, fading statistics, tap profiles."""

import sys

import numpy as np
import pytest
from scipy import special, stats

from ajscclink import pool
from ajscclink.channel import (
    ChannelSpec,
    FlatRayleighChannel,
    KeyedBlocks,
    MultipathChannel,
    TapProfile,
    band_noise,
    builtin_profile,
    load_profile,
    make_channel,
    make_jakes,
)
from ajscclink.errors import ConfigError
from ajscclink.modem import fast_profile, modulate


def unit_blocks(n_blocks, n, seed=0):
    rng = np.random.default_rng(seed)
    return np.exp(1j * rng.uniform(0, 2 * np.pi, (n_blocks, n)))


def channel_out(spec, x, sample_rate=1.0):
    """One process call of a fresh channel over the whole block stream x."""
    return make_channel(spec, sample_rate, x.shape[1]).process(x)


class TestAwgn:
    def test_infinite_csnr_passthrough(self):
        x = unit_blocks(4, 64)
        y = channel_out(ChannelSpec("awgn", float("inf"), seed=3), x)
        np.testing.assert_array_equal(y, x)

    def test_zero_db_noise_variance(self):
        x = unit_blocks(1000, 1024)  # ~1e6 samples at unit power
        y = channel_out(ChannelSpec("awgn", 0.0, seed=7), x)
        noise = y - x
        assert np.mean(np.abs(noise) ** 2) == pytest.approx(1.0, abs=0.02)

    def test_seed_determinism(self):
        x = unit_blocks(10, 128)
        y = channel_out(ChannelSpec("awgn", 5.0, seed=11), x)
        np.testing.assert_array_equal(y, channel_out(ChannelSpec("awgn", 5.0, seed=11), x))
        assert not np.array_equal(y, channel_out(ChannelSpec("awgn", 5.0, seed=12), x))

    def test_noise_is_white(self):
        x = np.ones((1000, 1024), dtype=complex)
        noise = (channel_out(ChannelSpec("awgn", 0.0, seed=5), x) - x).ravel()
        n = noise.size
        for lag in (1, 2, 5):
            r = np.abs(np.vdot(noise[:-lag], noise[lag:])) / n
            assert r < 0.01

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            channel_out(ChannelSpec("awgn", 0.0, seed=1), np.empty((0, 8)))


class TestFlatRayleigh:
    def test_magnitude_is_rayleigh(self):
        x = np.ones((100_000, 2), dtype=complex)
        y = channel_out(ChannelSpec("flat_rayleigh", float("inf"), seed=17), x)
        h = y[:, 0]
        assert np.mean(np.abs(h) ** 2) == pytest.approx(1.0, abs=0.01)
        result = stats.kstest(np.abs(h), stats.rayleigh(scale=1 / np.sqrt(2)).cdf)
        assert result.pvalue > 0.01

    def test_block_fading_is_constant_within_block(self):
        x = unit_blocks(50, 256)
        y = channel_out(ChannelSpec("flat_rayleigh", float("inf"), seed=2), x)
        ratio = y / x
        assert np.abs(ratio - ratio[:, :1]).max() < 1e-12
        assert np.unique(np.round(ratio[:, 0], 12)).size == 50

    def test_energy_accounting(self):
        x = unit_blocks(2000, 512, seed=1)  # ~1e6 samples
        y = channel_out(ChannelSpec("flat_rayleigh", 0.0, seed=23), x)
        # E[|h|^2] * P_sig + sigma^2 with both terms at 1.
        assert np.mean(np.abs(y) ** 2) == pytest.approx(2.0, rel=0.02)

    def test_seed_determinism(self):
        x = unit_blocks(16, 64)
        spec = ChannelSpec("flat_rayleigh", 3.0, seed=5)
        np.testing.assert_array_equal(channel_out(spec, x), channel_out(spec, x))


class TestJakes:
    @pytest.mark.parametrize("doppler", [5.0, 20.0])
    def test_autocorrelation_tracks_bessel(self, doppler):
        dt = 1e-3
        lags = np.arange(51)
        acs = []
        for seed in range(6):
            g = make_jakes(doppler, seed).gains(np.arange(100_000) * dt)
            ac = [np.vdot(g[: g.size - lag], g[lag:]).real / (g.size - lag) for lag in lags]
            acs.append(np.asarray(ac) / ac[0])
        mean_ac = np.mean(acs, axis=0)
        want = special.j0(2 * np.pi * doppler * lags * dt)
        assert np.abs(mean_ac - want).max() < 0.05

    def test_magnitude_rayleigh_at_fixed_time(self):
        t = np.array([0.321])
        vals = np.array([make_jakes(7.0, seed).gains(t)[0] for seed in range(20_000)])
        assert np.mean(np.abs(vals) ** 2) == pytest.approx(1.0, abs=0.02)
        result = stats.kstest(np.abs(vals), stats.rayleigh(scale=1 / np.sqrt(2)).cdf)
        assert result.pvalue > 0.01

    def test_zero_doppler_is_time_constant(self):
        g = make_jakes(0.0, 3).gains(np.linspace(0, 10, 1000))
        assert np.abs(g - g[0]).max() < 1e-12


class TestTapProfile:
    def test_single_tap_line(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("0,0\n")
        profile = load_profile(path)
        np.testing.assert_array_equal(profile.delays, [0.0])
        np.testing.assert_allclose(profile.powers, [1.0])

    def test_two_taps_normalize(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("# comment line\n0,0\n100e-9,-3\n")
        profile = load_profile(path)
        lin = np.array([1.0, 10 ** (-0.3)])
        np.testing.assert_allclose(profile.powers, lin / lin.sum(), rtol=1e-12)
        assert profile.powers[0] == pytest.approx(0.666, abs=2e-3)
        assert profile.powers[1] == pytest.approx(0.333, abs=2e-3)

    def test_unsorted_delays_rejected(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("0,0\n200e-9,-3\n100e-9,-6\n")
        with pytest.raises(ConfigError):
            load_profile(path)

    def test_nan_delay_rejected(self, tmp_path):
        # NaN compares False against everything, so the order check alone
        # lets it through.
        path = tmp_path / "p.csv"
        path.write_text("0,0\nnan,-3\n")
        with pytest.raises(ConfigError):
            load_profile(path)

    def test_first_delay_must_be_zero(self):
        with pytest.raises(ConfigError):
            TapProfile.from_db([10e-9, 20e-9], [0.0, -3.0])

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("0,0\nnot-a-number,-3\n")
        with pytest.raises(ConfigError):
            load_profile(path)

    def test_builtin_profiles_load_normalized(self):
        for family in ("jtc_indoor_a", "jtc_outdoor_low_a"):
            profile = builtin_profile(family)
            assert profile.delays[0] == 0.0
            assert profile.powers.sum() == pytest.approx(1.0)


class TestChannelSpec:
    def test_doppler_defaults_per_family(self):
        assert ChannelSpec("awgn").doppler_hz == 0.0
        assert ChannelSpec("jtc_indoor_a").doppler_hz == 5.0
        assert ChannelSpec("jtc_outdoor_low_a").doppler_hz == 20.0

    def test_no_doppler_families_reject_doppler(self):
        with pytest.raises(ConfigError):
            ChannelSpec("awgn", doppler_hz=5.0)
        with pytest.raises(ConfigError):
            ChannelSpec("flat_rayleigh", doppler_hz=1.0)

    def test_unknown_family_rejected(self):
        with pytest.raises(ConfigError):
            ChannelSpec("rician")

    def test_resolved_fills_builtin_profile(self):
        spec = ChannelSpec("jtc_indoor_a").resolved()
        assert spec.tap_profile is not None


class TestMultipath:
    def test_missing_profile_is_config_error(self):
        with pytest.raises(ConfigError):
            MultipathChannel(ChannelSpec("awgn"), 8.192e6, 512)

    def test_single_tap_no_doppler_reduces_to_flat_coefficient(self):
        single = TapProfile(np.array([0.0]), np.array([1.0]), "single")
        spec = ChannelSpec("jtc_indoor_a", tap_profile=single, doppler_hz=0.0, seed=11)
        x = unit_blocks(50, 256)
        y = channel_out(spec, x, 8.192e6)
        h = y / x
        assert np.abs(h - h[0, 0]).max() < 1e-12
        # Across seeds the constant coefficient is Rayleigh with unit power.
        hs = []
        one = np.ones((1, 256), dtype=complex)
        for seed in range(4000):
            spec_i = ChannelSpec("jtc_indoor_a", tap_profile=single, doppler_hz=0.0, seed=seed)
            hs.append(channel_out(spec_i, one, 8.192e6)[0, 0])
        hs = np.asarray(hs)
        assert np.mean(np.abs(hs) ** 2) == pytest.approx(1.0, abs=0.05)
        result = stats.kstest(np.abs(hs), stats.rayleigh(scale=1 / np.sqrt(2)).cdf)
        assert result.pvalue > 0.01

    def test_ensemble_tap_power_is_unit(self):
        total = []
        for seed in range(48):
            ch = MultipathChannel(
                ChannelSpec("jtc_outdoor_low_a", csnr_db=float("inf"), seed=seed), 512e3, 512
            )
            gains = ch.tap_gain_series(np.arange(4000))
            total.append(np.mean(np.sum(ch.tap_scales[:, None] ** 2 * np.abs(gains) ** 2, axis=0)))
        assert np.mean(total) == pytest.approx(1.0, abs=0.02)

    def test_indoor_profile_almost_flat_at_fast_bandwidth(self):
        cfg = fast_profile()
        ch = MultipathChannel(
            ChannelSpec("jtc_indoor_a", csnr_db=float("inf"), seed=5), cfg.sample_rate, cfg.fft_size
        )
        gains = ch.tap_gain_series(np.arange(400))
        f = np.linspace(cfg.f_min, cfg.f_max, 257)
        phase = np.exp(-2j * np.pi * np.outer(ch.delay_samples / cfg.sample_rate, f))
        ripples = []
        for b in range(gains.shape[1]):
            h = (ch.tap_scales[:, None] * gains[:, b : b + 1] * phase).sum(axis=0)
            mag_db = 20 * np.log10(np.abs(h))
            ripples.append(mag_db.max() - mag_db.min())
        assert np.median(ripples) < 1.0

    def test_delay_exceeding_quarter_block_rejected(self):
        late = TapProfile(np.array([0.0, 40e-6]), np.array([0.5, 0.5]), "late")
        spec = ChannelSpec("jtc_indoor_a", tap_profile=late, seed=0)
        with pytest.raises(ConfigError):
            MultipathChannel(spec, 8.192e6, 512)

    def test_seed_determinism_and_chunking(self):
        x = unit_blocks(60, 512, seed=4)
        spec = ChannelSpec("jtc_outdoor_low_a", csnr_db=10.0, seed=9)
        whole = channel_out(spec, x, 8.192e6)
        np.testing.assert_array_equal(whole, channel_out(spec, x, 8.192e6))
        ch = MultipathChannel(spec, 8.192e6, 512)
        chunked = np.vstack([ch.process(x[:25], 0), ch.process(x[25:], 25)])
        np.testing.assert_array_equal(whole, chunked)

    def test_energy_accounting_full_path(self):
        x = unit_blocks(3000, 512, seed=2)
        outs = []
        for seed in range(12):
            spec = ChannelSpec("jtc_outdoor_low_a", csnr_db=0.0, seed=seed)
            y = channel_out(spec, x, 512e3)
            outs.append(np.mean(np.abs(y) ** 2))
        assert np.mean(outs) == pytest.approx(2.0, rel=0.05)


class TestStreamingWrappers:
    def test_flat_chunked_matches_one_shot(self):
        x = unit_blocks(40, 128, seed=6)
        spec = ChannelSpec("flat_rayleigh", csnr_db=5.0, seed=3)
        whole = channel_out(spec, x)
        # No start_block: each call continues from the previous one's end.
        ch = FlatRayleighChannel(spec, 1e6, 128)
        chunked = np.vstack([ch.process(x[:13]), ch.process(x[13:31]), ch.process(x[31:])])
        np.testing.assert_array_equal(whole, chunked)

    def test_make_channel_dispatch(self):
        assert isinstance(make_channel(ChannelSpec("flat_rayleigh"), 1e6, 64), FlatRayleighChannel)
        assert isinstance(
            make_channel(ChannelSpec("jtc_indoor_a"), 8.192e6, 8192), MultipathChannel
        )


class TestKeyedStreams:
    FAMILIES = ("awgn", "flat_rayleigh", "jtc_outdoor_low_a")

    @staticmethod
    def chunked(spec, x, sizes):
        ch = make_channel(spec, 8.192e6, x.shape[1])
        bounds = np.cumsum([0, *sizes])
        return np.vstack([ch.process(x[lo:hi], lo) for lo, hi in zip(bounds[:-1], bounds[1:])])

    @pytest.mark.parametrize("family", FAMILIES)
    def test_chunk_and_worker_invariance_on_unit_power(self, family, monkeypatch):
        x = np.ones((30, 512), dtype=complex)
        spec = ChannelSpec(family, csnr_db=0.0, seed=21)
        outs = []
        for workers in (1, 2):
            monkeypatch.setattr(pool, "_WORKERS", workers)
            for sizes in ([1] * 30, [7, 7, 7, 7, 2], [30]):
                outs.append(self.chunked(spec, x, sizes))
        for out in outs[1:]:
            assert out.tobytes() == outs[0].tobytes()

    def test_more_ranges_than_cores_under_fast_switching(self, monkeypatch):
        # Workers write disjoint row ranges of one output array; split into
        # many more ranges than pool threads, with the interpreter switching
        # threads every few microseconds, the bytes must still match.
        x = unit_blocks(64, 512, seed=2)
        spec = ChannelSpec("jtc_outdoor_low_a", csnr_db=3.0, seed=6)
        monkeypatch.setattr(pool, "_WORKERS", 1)
        want = self.chunked(spec, x, [64])
        monkeypatch.setattr(pool, "_WORKERS", 16)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            got = self.chunked(spec, x, [64])
        finally:
            sys.setswitchinterval(interval)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("family", FAMILIES)
    def test_modulated_chunking_within_bound(self, family):
        # The noise scale comes from the nominal signal power, not from each
        # call's blocks, so on modulated blocks the chunking moves no bit.
        cfg = fast_profile()
        encoded = np.random.default_rng(3).uniform(0.0, 2.0, 60)
        x = modulate(encoded, 2.0, cfg)
        spec = ChannelSpec(family, csnr_db=0.0, seed=8)
        whole = self.chunked(spec, x, [60])
        split = self.chunked(spec, x, [7, 7, 19, 27])
        assert split.tobytes() == whole.tobytes()

    @pytest.mark.parametrize("family", FAMILIES)
    def test_in_place_matches_fresh_output(self, family, monkeypatch):
        # Each chunk is written over its own input, split into more ranges
        # than cores under fast thread switching.  A row's delays reach back
        # into the row before it, so that tail and the carry must be read
        # before any row is overwritten.
        cfg = fast_profile()
        x = modulate(np.random.default_rng(4).uniform(0.0, 2.0, 60), 2.0, cfg)
        spec = ChannelSpec(family, csnr_db=3.0, seed=12)
        monkeypatch.setattr(pool, "_WORKERS", 1)
        want = make_channel(spec, cfg.sample_rate, cfg.fft_size).process(x).tobytes()
        bounds = np.cumsum([0, 7, 7, 19, 27])
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for workers in (1, 16):
                monkeypatch.setattr(pool, "_WORKERS", workers)
                ch = make_channel(spec, cfg.sample_rate, cfg.fft_size)
                got = x.copy()
                for lo, hi in zip(bounds[:-1], bounds[1:]):
                    chunk = got[lo:hi]
                    assert ch.process(chunk, lo, out=chunk) is chunk
                assert got.tobytes() == want
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize(
        "out",
        [
            np.empty((3, 64), dtype=np.complex128),
            np.empty((4, 63), dtype=np.complex128),
            np.empty((4, 64), dtype=np.complex64),
            np.empty((64, 4), dtype=np.complex128).T,
        ],
    )
    def test_bad_out_rejected(self, out):
        ch = make_channel(ChannelSpec("awgn", csnr_db=0.0), 1e6, 64)
        with pytest.raises(ConfigError):
            ch.process(unit_blocks(4, 64), out=out)

    def test_adjacent_block_noise_uncorrelated(self):
        # Adjacent blocks draw from streams keyed on neighbouring indices;
        # their circular cross-correlation, pooled over 999 block pairs, must
        # stay at the 1e-3 level of independent noise at every lag.
        x = np.ones((1000, 1024), dtype=complex)
        noise = channel_out(ChannelSpec("awgn", 0.0, seed=5), x) - x
        spectra = np.fft.fft(noise, axis=1)
        xcorr = np.fft.ifft((np.conj(spectra[:-1]) * spectra[1:]).sum(axis=0))
        assert np.abs(xcorr).max() / np.sum(np.abs(noise[:-1]) ** 2) < 0.01

    def test_start_block_continues_the_stream(self):
        x = unit_blocks(12, 64)
        spec = ChannelSpec("flat_rayleigh", csnr_db=3.0, seed=4)
        ch = make_channel(spec, 1e6, 64)
        tail = ch.process(x[5:], start_block=5)
        np.testing.assert_array_equal(tail, channel_out(spec, x)[5:])
        with pytest.raises(ConfigError):
            ch.process(x, start_block=-1)

    def test_delay_line_takes_blocks_in_stream_order(self):
        # At the fast rate the outdoor taps sit at 0, 2 and 4 samples, so a
        # block reads the end of the block before it, which the carry holds
        # only for the stream's next block.  At the slow rate every delay
        # rounds to 0 and the line is memoryless, as AWGN and flat Rayleigh
        # are: there any block range can be computed on its own.
        x = unit_blocks(12, 512, seed=3)
        spec = ChannelSpec("jtc_outdoor_low_a", csnr_db=3.0, seed=4)
        whole = channel_out(spec, x, 8.192e6)
        ch = make_channel(spec, 8.192e6, 512)
        with pytest.raises(ConfigError):
            ch.process(x[5:], start_block=5)
        head = ch.process(x[:3], start_block=0)
        with pytest.raises(ConfigError):
            ch.process(x[7:], start_block=7)
        tail = ch.process(x[3:])
        np.testing.assert_array_equal(np.vstack([head, tail]), whole)
        memoryless = [
            (spec, 512e3),
            (ChannelSpec("awgn", 3.0, seed=4), 1.0),
            (ChannelSpec("flat_rayleigh", 3.0, seed=4), 1.0),
        ]
        for spec, rate in memoryless:
            whole = channel_out(spec, x, rate)
            tail = make_channel(spec, rate, 512).process(x[5:], start_block=5)
            np.testing.assert_array_equal(tail, whole[5:])


class TestBandNoise:
    @pytest.mark.parametrize("csnr_db", [0.0, 10.0])
    def test_per_bin_variance(self, csnr_db):
        # One DFT bin of N noise samples of variance 10^(-CSNR/10) has
        # variance N * 10^(-CSNR/10), split evenly over re and im.  Over 700,200
        # bins the estimate's standard error is 0.12%; the tolerance is 1%.
        n, n_bins, n_blocks = 8192, 3501, 200
        spec = ChannelSpec("awgn", csnr_db=csnr_db, seed=3)
        fill = band_noise(spec, n, 0, n_blocks)()
        bins = np.empty((n_blocks, n_bins), dtype=np.complex128)
        for r in range(n_blocks):
            fill(r, bins[r])
        want = n * 10.0 ** (-csnr_db / 10.0)
        assert np.mean(bins.real**2) == pytest.approx(want / 2, rel=0.01)
        assert np.mean(bins.imag**2) == pytest.approx(want / 2, rel=0.01)
        assert abs(np.mean(bins)) < 0.01 * np.sqrt(want)
        # The reference: the DFT of the channel's time-domain noise.
        noise = make_channel(spec, 1.0, n).process(np.zeros((64, n), dtype=np.complex128))
        spectra = np.fft.fft(noise, axis=1)
        assert np.mean(np.abs(spectra) ** 2) == pytest.approx(want, rel=0.01)

    def test_keyed_on_the_absolute_block(self):
        spec = ChannelSpec("awgn", csnr_db=0.0, seed=3)
        a, b = np.empty(100, dtype=np.complex128), np.empty(100, dtype=np.complex128)
        band_noise(spec, 64, 10, 6)()(5, a)
        band_noise(spec, 64, 0, 17)()(15, b)
        assert a.tobytes() == b.tobytes()
        band_noise(spec, 64, 0, 17)()(16, b)
        assert a.tobytes() != b.tobytes()


def reference_rng(seed, stream, block):
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(stream, block)))


class TestKeyedBlocks:
    # KeyedBlocks re-implements SeedSequence's mixing and PCG64's seeding for
    # a chunk of blocks; the reference is one SeedSequence per block.
    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**130 + 3])
    def test_matches_seed_sequence(self, seed):
        # Blocks 0, 1, 2^32 - 1 and 2^32; the last has a second spawn-key
        # word and takes the SeedSequence fallback.
        for stream in (0, 1, 2):
            for start in (0, 2**32 - 1):
                seat = KeyedBlocks(seed, stream, start, 2).cursor()
                for row in (0, 1):
                    want = reference_rng(seed, stream, start + row)
                    got = seat(row)
                    assert got.bit_generator.state == want.bit_generator.state
                    got_normals = got.standard_normal(64)
                    assert got_normals.tobytes() == want.standard_normal(64).tobytes()

    def test_ranges_under_fast_switching(self, monkeypatch):
        # Sixteen row ranges on the pool, the interpreter switching threads
        # every few microseconds: each range's generator must be its own, so
        # every block draws the bytes of its own SeedSequence, on all three
        # streams.  The band rows are longer than a block, as the receiver's
        # are, so that a shared generator is caught there too.
        n_blocks, n, n_bins, seed = 64, 256, 4096, 13
        monkeypatch.setattr(pool, "_WORKERS", 16)
        spec = ChannelSpec("awgn", csnr_db=0.0, seed=seed)
        zeros = np.zeros((n_blocks, n), dtype=np.complex128)
        scale = np.sqrt(0.5)
        noise_want = np.empty((n_blocks, n), dtype=np.complex128)
        fade_want = np.empty(n_blocks, dtype=np.complex128)
        band_want = np.empty((n_blocks, n_bins), dtype=np.complex128)
        for r in range(n_blocks):
            noise_want[r] = reference_rng(seed, 1, 7 + r).standard_normal(2 * n).view(complex)
            fade_want[r] = reference_rng(seed, 0, 7 + r).standard_normal(2).view(complex)[0]
            band_want[r] = reference_rng(seed, 2, 7 + r).standard_normal(2 * n_bins).view(complex)
        noise_want *= scale
        band_want *= np.sqrt(n) * scale
        band_got = np.empty_like(band_want)
        new_fill = band_noise(spec, n, 7, n_blocks)

        def band_rows(lo, hi):
            fill = new_fill()
            for r in range(lo, hi):
                fill(r, band_got[r])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            noise_got = make_channel(spec, 1.0, n).process(zeros, start_block=7)
            flat = ChannelSpec("flat_rayleigh", seed=seed)
            fade_got = make_channel(flat, 1.0, 1).process(np.ones((n_blocks, 1)), 7)[:, 0]
            pool.split_rows(band_rows, n_blocks)
        finally:
            sys.setswitchinterval(interval)
        assert noise_got.tobytes() == noise_want.tobytes()
        assert fade_got.tobytes() == (fade_want / np.sqrt(2.0)).tobytes()
        assert band_got.tobytes() == band_want.tobytes()
