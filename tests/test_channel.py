"""Channel tests: noise calibration, fading statistics, tap profiles."""

import sys

import numpy as np
import pytest
from scipy import special, stats

from ajscclink import channel, pool
from ajscclink.channel import (
    BandNoise,
    ChannelSpec,
    FlatRayleighChannel,
    KeyedBlocks,
    MultipathChannel,
    TapProfile,
    builtin_profile,
    load_profile,
    make_channel,
    make_jakes,
    noise_deviation,
)
from ajscclink.errors import ConfigError
from ajscclink.modem import (
    demodulate_stream,
    fast_profile,
    modulate,
    slow_profile,
    voltage_to_frequency,
)


def unit_blocks(n_blocks, n, seed=0):
    rng = np.random.default_rng(seed)
    return np.exp(1j * rng.uniform(0, 2 * np.pi, (n_blocks, n)))


def channel_out(spec, x, sample_rate=1.0):
    """One process call of a fresh channel over a copy of the whole block
    stream x: process writes over its input, and the tests read x after."""
    return make_channel(spec, sample_rate, x.shape[1]).process(x.copy())


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
            g = make_jakes(doppler, seed).gains(np.arange(100_000), dt)
            ac = [np.vdot(g[: g.size - lag], g[lag:]).real / (g.size - lag) for lag in lags]
            acs.append(np.asarray(ac) / ac[0])
        mean_ac = np.mean(acs, axis=0)
        want = special.j0(2 * np.pi * doppler * lags * dt)
        assert np.abs(mean_ac - want).max() < 0.05

    def test_magnitude_rayleigh_at_fixed_time(self):
        # 20,000 banks at t = 321 ms, summed as the bank's definition in one
        # pass over all of them; gains() gives those sums (the first 200
        # banks here, and to extended precision in TestMultipath).
        banks = [make_jakes(7.0, seed) for seed in range(20_000)]
        fields = np.array([(b.w_i, b.w_q, b.phi, b.psi) for b in banks])
        w_i, w_q, phi, psi = fields.transpose(1, 0, 2)
        t = 321 * 1e-3
        vals = (np.cos(w_i * t + phi).sum(1) + 1j * np.cos(w_q * t + psi).sum(1)) / np.sqrt(64)
        for bank, v in zip(banks[:200], vals):
            assert abs(bank.gains([321], 1e-3)[0] - v) < 1e-12
        assert np.mean(np.abs(vals) ** 2) == pytest.approx(1.0, abs=0.02)
        result = stats.kstest(np.abs(vals), stats.rayleigh(scale=1 / np.sqrt(2)).cdf)
        assert result.pvalue > 0.01

    def test_zero_doppler_is_time_constant(self):
        g = make_jakes(0.0, 3).gains(np.arange(1000), 0.01)
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

    @pytest.mark.parametrize("csnr_db", [4000.0, -4000.0, float("nan"), float("-inf")])
    def test_csnr_without_a_finite_noise_variance_rejected(self, csnr_db):
        with pytest.raises(ConfigError):
            ChannelSpec("awgn", csnr_db=csnr_db)

    @pytest.mark.parametrize(
        "fields",
        [
            dict(seed=-1),
            dict(seed=1.5),
            dict(seed=True),
            dict(seed="1"),
            dict(family="jtc_indoor_a", doppler_hz=float("nan")),
            dict(family="jtc_indoor_a", doppler_hz=float("inf")),
            dict(family="jtc_outdoor_low_a", doppler_hz=-1.0),
        ],
    )
    def test_bad_seed_or_doppler_rejected(self, fields):
        with pytest.raises(ConfigError):
            ChannelSpec(**{"family": "awgn", **fields})

    def test_numpy_integer_seed_accepted(self):
        spec = ChannelSpec("awgn", csnr_db=0.0, seed=np.uint64(2**63 + 1))
        x = np.ones((2, 8), complex)
        want = channel_out(ChannelSpec("awgn", csnr_db=0.0, seed=2**63 + 1), x)
        assert channel_out(spec, x).tobytes() == want.tobytes()

    def test_csnr_near_the_float_range_accepted(self):
        for csnr_db in (3080.0, -3080.0):
            ChannelSpec("awgn", csnr_db=csnr_db)
            assert 0.0 < noise_deviation(csnr_db) < np.inf

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
        before = x[24, 512 - ch.memory :]
        chunked = np.vstack([ch.process(x[:25].copy(), 0), ch.process(x[25:].copy(), 25, before)])
        np.testing.assert_array_equal(whole, chunked)

    def test_gains_of_a_range_match_the_whole_chunk(self):
        # Each worker computes the gains of its own rows; a block's gains
        # depend on its time only, so any range gives the whole chunk's bytes.
        for family in ("jtc_indoor_a", "jtc_outdoor_low_a"):
            ch = MultipathChannel(ChannelSpec(family, seed=5), 8.192e6, 8192)
            whole = ch._gains(40, 512)
            for lo, hi in ((0, 1), (0, 256), (256, 512), (100, 387), (511, 512)):
                assert ch._gains(40 + lo, hi - lo).tobytes() == whole[:, lo:hi].tobytes()

    def test_gains_of_a_late_range_match_the_whole_stream(self):
        # Ranges far from block 0, starting on and off a phasor row, give the
        # bytes of one call from block 0.
        ch = MultipathChannel(ChannelSpec("jtc_outdoor_low_a", seed=5), 8.192e6, 8192)
        whole = ch._gains(0, 100_600)
        for lo, n in ((100_000, 500), (100_003, 500), (100_017, 1), (99_999, 2), (100_100, 37)):
            assert ch._gains(lo, n).tobytes() == whole[:, lo : lo + n].tobytes()

    @pytest.mark.parametrize("family, sample_rate, block_size", [
        ("jtc_outdoor_low_a", 8.192e6, 8192), ("jtc_indoor_a", 500e3, 5000),
    ])
    def test_gains_match_extended_precision_sums(self, family, sample_rate, block_size):
        # Each tap's cosine sums at t = b T, evaluated in np.longdouble, out
        # to block 10^5 (100 s on the fast profile, 1000 s on the slow).
        ch = MultipathChannel(ChannelSpec(family, seed=3), sample_rate, block_size)
        blocks = np.concatenate([np.arange(40), np.arange(99_960, 100_001)])
        got = ch.tap_gain_series(blocks)
        t = blocks.astype(np.longdouble)[:, None] * np.longdouble(block_size / sample_rate)
        for tap, gains in zip(ch.taps, got):
            w_i, w_q, phi, psi = (np.asarray(v, dtype=np.longdouble) for v in
                                  (tap.w_i, tap.w_q, tap.phi, tap.psi))
            scale = np.sqrt(np.longdouble(w_i.size))
            re = np.cos(t * w_i + phi).sum(axis=1) / scale
            im = np.cos(t * w_q + psi).sum(axis=1) / scale
            assert np.hypot(gains.real - re, gains.imag - im).max() <= 1e-12

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
        ch = FlatRayleighChannel(spec, 1e6, 128)
        chunks = ((0, x[:13].copy()), (13, x[13:31].copy()), (31, x[31:].copy()))
        chunked = np.vstack([ch.process(chunk, lo) for lo, chunk in chunks])
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
        """One channel over a copy of x in chunks of the given sizes, each
        written over itself and given the input samples before it.  As the
        transmit does, the chunks are split into ranges over the pool, and
        each range calls process on its chunks in turn."""
        ch = make_channel(spec, 8.192e6, x.shape[1])
        got = x.copy()
        bounds = np.cumsum([0, *sizes])

        def chunks(first, last):
            for lo, hi in zip(bounds[first:last], bounds[first + 1 : last + 1]):
                chunk = got[lo:hi]
                before = x[lo - 1, x.shape[1] - ch.memory :] if lo else None
                assert ch.process(chunk, lo, before) is chunk

        pool.split_rows(chunks, len(sizes))
        return got

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
        # Pool ranges call one channel on disjoint chunks of one array, each
        # on its thread's scratch line; split into many more ranges than pool
        # threads, with the interpreter switching threads every few
        # microseconds, the bytes must still match one call on all blocks.
        x = unit_blocks(64, 512, seed=2)
        spec = ChannelSpec("jtc_outdoor_low_a", csnr_db=3.0, seed=6)
        want = channel_out(spec, x, sample_rate=8.192e6).tobytes()
        monkeypatch.setattr(pool, "_WORKERS", 16)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            got = self.chunked(spec, x, [3, 5] * 8)
        finally:
            sys.setswitchinterval(interval)
        assert got.tobytes() == want

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
        # Each chunk is written over its own input, its calls spread over
        # more ranges than cores under fast thread switching, and must give
        # the bytes of one call on all blocks.  A row's delays reach back
        # into the row before it, so that tail and the carry must be read
        # before any row is overwritten.
        cfg = fast_profile()
        x = modulate(np.random.default_rng(4).uniform(0.0, 2.0, 60), 2.0, cfg)
        spec = ChannelSpec(family, csnr_db=3.0, seed=12)
        want = make_channel(spec, cfg.sample_rate, cfg.fft_size).process(x.copy()).tobytes()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for workers in (1, 16):
                monkeypatch.setattr(pool, "_WORKERS", workers)
                assert self.chunked(spec, x, [7, 7, 19, 27]).tobytes() == want
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("kind", ["float64", "fortran", "strided_rows", "read_only"])
    @pytest.mark.parametrize("family", ["awgn", "jtc_outdoor_low_a"])
    def test_input_it_cannot_overwrite_rejected(self, family, kind):
        # process writes over its input, so an input of a dtype other than
        # complex128 or complex64, not C-contiguous or read-only is a
        # ConfigError, and is left as it was.
        x = unit_blocks(4, 64)
        blocks = {
            "float64": lambda: x.real.copy(),
            "fortran": lambda: np.asfortranarray(x),
            "strided_rows": lambda: np.repeat(x, 2, axis=1)[:, ::2],
            "read_only": lambda: np.broadcast_to(x, x.shape),
        }[kind]()
        before = blocks.tobytes()
        for csnr_db in (3.0, np.inf):
            ch = make_channel(ChannelSpec(family, csnr_db=csnr_db), 8.192e6, 64)
            with pytest.raises(ConfigError, match="writeable, C-contiguous"):
                ch.process(blocks)
        assert blocks.tobytes() == before

    @pytest.mark.parametrize("family", ["awgn", "flat_rayleigh", "jtc_outdoor_low_a"])
    def test_complex64_rows_take_the_line(self, family):
        # A raw run's complex64 tiles take the noiseless line in place, on
        # the tone path and on the literal one: H_b rounded to complex64, and
        # the edge samples' delay sum rounded once.  Each sample is then
        # within float32 rounding of the complex128 line's.
        cfg = fast_profile()
        encoded = np.random.default_rng(5).uniform(0.0, 2.0, 20)
        cycles = voltage_to_frequency(encoded, 2.0, cfg) / cfg.sample_rate
        x = modulate(encoded, 2.0, cfg)
        spec = ChannelSpec(family, seed=6)
        for tones in (cycles, None):
            line = make_channel(spec, cfg.sample_rate, cfg.fft_size)
            want = line.process(x.copy(), 0, None, tones)
            rows = x.astype(np.complex64)
            got = make_channel(spec, cfg.sample_rate, cfg.fft_size).process(rows, 0, None, tones)
            assert got is rows
            assert np.all(np.abs(got - want).max(axis=1) <= 2.0**-21 * np.abs(want).max(axis=1))

    @pytest.mark.parametrize("family", ["awgn", "jtc_outdoor_low_a"])
    def test_complex64_rows_take_no_time_domain_noise(self, family):
        # The time-domain noise is a float64 stream: into complex64 rows it
        # would be another stream, so a noisy line rejects them, unchanged.
        cfg = fast_profile()
        rows = modulate([0.5, 1.5], 2.0, cfg).astype(np.complex64)
        before = rows.tobytes()
        ch = make_channel(ChannelSpec(family, csnr_db=3.0), cfg.sample_rate, cfg.fft_size)
        with pytest.raises(ConfigError, match="time-domain noise"):
            ch.process(rows)
        assert rows.tobytes() == before

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
        tail = ch.process(x[5:].copy(), start_block=5)
        np.testing.assert_array_equal(tail, channel_out(spec, x)[5:])
        with pytest.raises(ConfigError):
            ch.process(x, start_block=-1)

    def test_delay_line_takes_the_samples_before_its_range(self):
        # At the fast rate the outdoor taps sit at 0, 2 and 4 samples, so a
        # block reads the last 4 input samples of the block before it: a
        # range past block 0 needs them as before, in any order of calls.
        # At the slow rate every delay rounds to 0 and the line is
        # memoryless, as AWGN and flat Rayleigh are: there any block range
        # can be computed on its own.
        x = unit_blocks(12, 512, seed=3)
        spec = ChannelSpec("jtc_outdoor_low_a", csnr_db=3.0, seed=4)
        whole = channel_out(spec, x, 8.192e6)
        ch = make_channel(spec, 8.192e6, 512)
        assert ch.memory == 4
        with pytest.raises(ConfigError, match="before"):
            ch.process(x[5:].copy(), start_block=5)
        for before in (x[4, -3:], x[4:5, -4:], x[4]):
            with pytest.raises(ConfigError, match="before"):
                ch.process(x[5:].copy(), 5, before)
        tail = ch.process(x[7:].copy(), 7, x[6, -4:])
        middle = ch.process(x[3:7].copy(), 3, x[2, -4:])
        head = ch.process(x[:3].copy(), start_block=0)
        np.testing.assert_array_equal(np.vstack([head, middle, tail]), whole)
        memoryless = [
            (spec, 512e3),
            (ChannelSpec("awgn", 3.0, seed=4), 1.0),
            (ChannelSpec("flat_rayleigh", 3.0, seed=4), 1.0),
        ]
        for spec, rate in memoryless:
            whole = channel_out(spec, x, rate)
            tail = make_channel(spec, rate, 512).process(x[5:].copy(), start_block=5)
            np.testing.assert_array_equal(tail, whole[5:])


def reference_rng(seed, stream, block):
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(stream, block)))


def reference_delay_line(spec, sample_rate, x):
    """The delay line one row at a time, over the whole stream x at once.

    Row r reads its delayed samples from a line holding the end of row r - 1
    (zeros before row 0) and row r itself.  Its noise comes from its own
    SeedSequence, a flat-Rayleigh coefficient likewise, and multipath gains
    from one whole-stream call of ``_gains``.
    """
    n_blocks, n = x.shape
    ch = make_channel(spec, sample_rate, n)
    delays, c = ch.delays, int(ch.delays[-1])
    scale = noise_deviation(spec.csnr_db)
    if spec.family == "awgn":
        gains = None
    elif spec.family == "flat_rayleigh":
        h = [reference_rng(spec.seed, 0, b).standard_normal(2) for b in range(n_blocks)]
        gains = np.array(h).view(complex).T / np.sqrt(2.0)
    else:
        gains = ch._gains(0, n_blocks)
    if gains is None and not scale:
        return x.copy()
    out = np.empty_like(x)
    line = np.zeros(c + n, dtype=np.complex128)
    tmp = np.empty(n, dtype=np.complex128)
    for r in range(n_blocks):
        line[:c] = x[r - 1, n - c :] if r else 0.0
        line[c:] = x[r]
        o = out[r]
        if scale:
            reference_rng(spec.seed, 1, r).standard_normal(out=o.view(np.float64))
            o *= scale
        for k, d in enumerate(delays):
            src = line[c - d : c - d + n]
            if gains is None:
                o += src
            elif k == 0 and not scale:
                np.multiply(src, gains[k, r], out=o)
            else:
                np.multiply(src, gains[k, r], out=tmp)
                o += tmp
    return out


class TestTiledDelayLine:
    """``process`` walks its rows in tiles; it must give the per-row
    reference line's bytes for any chunking, each chunk written over
    itself."""

    @pytest.mark.parametrize("csnr_db", [3.0, np.inf])
    @pytest.mark.parametrize("family", channel.FAMILIES)
    def test_matches_the_per_row_line(self, family, csnr_db):
        cfg = fast_profile()
        n = cfg.fft_size
        x = modulate(np.random.default_rng(9).uniform(0.0, 2.0, 61), 2.0, cfg)
        spec = ChannelSpec(family, csnr_db=csnr_db, seed=17)
        want = reference_delay_line(spec, cfg.sample_rate, x).tobytes()
        c = make_channel(spec, cfg.sample_rate, n).memory
        tile = channel._LINE_BYTES // (16 * (3 * n + c))
        assert 1 < tile < 60
        for size in (1, tile - 1, tile, tile + 1, 61):
            ch = make_channel(spec, cfg.sample_rate, n)
            got = x.copy()
            for lo in range(0, 61, size):
                chunk = got[lo : lo + size]
                before = x[lo - 1, n - c :] if lo else None
                assert ch.process(chunk, lo, before) is chunk
            assert got.tobytes() == want, size

    @pytest.mark.parametrize("family", channel.FAMILIES)
    def test_block_range_builds_one_set_up(self, family, monkeypatch):
        # Inside block_range(10, 30), the calls on tiles of blocks 10..29
        # read one set-up for the range (gains and keyed noise), and a call
        # on blocks 0..9 builds its own; every block gets the per-row line's
        # bytes.
        cfg = fast_profile()
        n = cfg.fft_size
        x = modulate(np.random.default_rng(9).uniform(0.0, 2.0, 30), 2.0, cfg)
        spec = ChannelSpec(family, csnr_db=3.0, seed=17)
        want = reference_delay_line(spec, cfg.sample_rate, x).tobytes()
        ch = make_channel(spec, cfg.sample_rate, n)
        c, setup, built = ch.memory, ch._setup, []
        monkeypatch.setattr(ch, "_setup", lambda lo, m: built.append((lo, m)) or setup(lo, m))
        got = x.copy()
        with ch.block_range(10, 30):
            for lo in range(10, 30, 4):
                ch.process(got[lo : lo + 4], lo, x[lo - 1, n - c :])
            ch.process(got[:10], 0)
        assert built == [(10, 20), (0, 10)]
        assert got.tobytes() == want


class TestToneLine:
    """``process`` given the rows' tone frequencies (``cycles``) against the
    literal line, the reference for any input: memoryless lines and each
    row's first ``memory`` samples keep their bytes, the rest is x[i] H_r to
    the modulator's phase error."""

    @staticmethod
    def tone_out(spec, cfg, encoded, rng):
        """The tone path over a stream of modulated blocks, cut at random
        into calls and split into worker ranges as the transmit does."""
        n = cfg.fft_size
        x = modulate(encoded, 2.0, cfg)
        cycles = voltage_to_frequency(encoded, 2.0, cfg) / cfg.sample_rate
        ch = make_channel(spec, cfg.sample_rate, n)
        c, got = ch.memory, x.copy()
        cuts = np.sort(rng.choice(np.arange(1, encoded.size), 5, replace=False))
        bounds = [0, *cuts.tolist(), encoded.size]

        def ranges(first, last):
            with ch.block_range(bounds[first], bounds[last]):
                for lo, hi in zip(bounds[first:last], bounds[first + 1 : last + 1]):
                    before = x[lo - 1, n - c :] if lo else None
                    chunk = got[lo:hi]
                    assert ch.process(chunk, lo, before, cycles[lo:hi]) is chunk

        pool.split_rows(ranges, len(bounds) - 1)
        return x, got, ch

    @pytest.mark.parametrize("csnr_db", [0.0, np.inf])
    @pytest.mark.parametrize("profile", ["fast", "slow"])
    @pytest.mark.parametrize("family", channel.FAMILIES)
    def test_matches_the_literal_line(self, family, profile, csnr_db, monkeypatch):
        monkeypatch.setattr(pool, "_WORKERS", 2)
        cfg = fast_profile() if profile == "fast" else slow_profile()
        rng = np.random.default_rng(31)
        encoded = rng.uniform(0.0, 2.0, 24)
        spec = ChannelSpec(family, csnr_db=csnr_db, seed=13)
        x, got, ch = self.tone_out(spec, cfg, encoded, rng)
        want = ch.process(x.copy())
        c = ch.memory
        if not c:
            assert got.tobytes() == want.tobytes()
        assert got[:, :c].tobytes() == want[:, :c].tobytes()
        # A row's error is at most its phase error times sum_d |g_d|.
        reach = 1.0 if family == "awgn" else np.abs(ch._gains(0, 24)).sum(axis=0)[:, None]
        assert np.all(np.abs(got - want) <= 1e-11 * np.maximum(reach, 1.0))
        raw = [demodulate_stream(y, 2.0, cfg, interpolate=False) for y in (got, want)]
        assert raw[0].tobytes() == raw[1].tobytes()

    def test_split_invariant(self, monkeypatch):
        cfg = fast_profile()
        encoded = np.random.default_rng(4).uniform(0.0, 2.0, 40)
        spec = ChannelSpec("jtc_outdoor_low_a", csnr_db=3.0, seed=8)
        outs = []
        for workers, seed in ((1, 1), (2, 2), (2, 3)):
            monkeypatch.setattr(pool, "_WORKERS", workers)
            outs.append(self.tone_out(spec, cfg, encoded, np.random.default_rng(seed))[1])
        assert outs[0].tobytes() == outs[1].tobytes() == outs[2].tobytes()

    @pytest.mark.parametrize(
        "cycles",
        [np.full(3, 0.1), np.full((4, 1), 0.1), [0.1, np.nan, 0.1, 0.1], [0.1, 0.1, np.inf, 0.1]],
    )
    @pytest.mark.parametrize("family", channel.FAMILIES)
    def test_bad_cycles_are_config_errors(self, family, cycles):
        ch = make_channel(ChannelSpec(family), 8.192e6, 64)
        with pytest.raises(ConfigError):
            ch.process(np.ones((4, 64), dtype=np.complex128), cycles=cycles)


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


class TestBandNoise:
    @pytest.mark.parametrize("csnr_db", [0.0, 10.0])
    def test_per_bin_variance(self, csnr_db):
        # One DFT bin of N noise samples of variance 10^(-CSNR/10) has
        # variance N * 10^(-CSNR/10), split evenly over re and im.  Both the
        # window bins (9 bins over 78,000 blocks, 702,000 bins) and the
        # completion draws (3,492 bins over 200 blocks, 698,400 bins) must
        # have it within 1%, as the DFT of the channel's time-domain noise
        # does below; the estimates' standard errors are about 0.17%.
        n = 8192
        want = n * 10.0 ** (-csnr_db / 10.0)
        noise = BandNoise(ChannelSpec("awgn", csnr_db=csnr_db, seed=3), n, 0, 78_000)
        assert noise.deviation**2 == pytest.approx(want / 2, rel=1e-12)
        assert noise.window.shape == (78_000, 9)
        completion = np.empty((200, 3492), dtype=np.complex128)
        draw = noise.cursor()
        for r in range(200):
            draw(r, completion[r])
        for bins in (noise.window, completion):
            assert np.mean(bins.real**2) == pytest.approx(want / 2, rel=0.01)
            assert np.mean(bins.imag**2) == pytest.approx(want / 2, rel=0.01)
            assert abs(np.mean(bins)) < 0.01 * np.sqrt(want)
        # The reference: the DFT of the channel's time-domain noise.
        spec = ChannelSpec("awgn", csnr_db=csnr_db, seed=3)
        noise = make_channel(spec, 1.0, n).process(np.zeros((64, n), dtype=np.complex128))
        spectra = np.fft.fft(noise, axis=1)
        assert np.mean(np.abs(spectra) ** 2) == pytest.approx(want, rel=0.01)

    def test_completion_streams_built_on_first_draw(self, monkeypatch):
        # A chunk whose blocks all take their peak from the window never
        # builds the completion's KeyedBlocks; 16 ranges that all draw
        # completions at once, the interpreter switching threads every few
        # microseconds, build it once and keep their bytes.
        built = []

        def counted(*args):
            built.append(args)
            return KeyedBlocks(*args)

        monkeypatch.setattr(channel, "KeyedBlocks", counted)
        cfg = fast_profile()
        x = modulate(np.random.default_rng(2).uniform(0.0, 2.0, 40), 2.0, cfg)
        noise = BandNoise(ChannelSpec("awgn", csnr_db=10.0, seed=4), cfg.fft_size, 0, 40)
        demodulate_stream(x, 2.0, cfg, interpolate=False, band_noise=noise)
        assert built == []

        n_blocks, n_bins, seed = 64, 2048, 13
        spec = ChannelSpec("awgn", csnr_db=0.0, seed=seed)
        deviation = np.sqrt(256) * np.sqrt(0.5)
        want = np.empty((n_blocks, n_bins), dtype=np.complex128)
        for r in range(n_blocks):
            want[r] = reference_rng(seed, 3, 7 + r).standard_normal(2 * n_bins).view(complex)
        want *= deviation
        monkeypatch.setattr(pool, "_WORKERS", 16)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _ in range(5):
                built.clear()
                noise = BandNoise(spec, 256, 7, n_blocks)
                got = np.empty_like(want)

                def band_rows(lo, hi):
                    draw = noise.cursor()
                    for r in range(lo, hi):
                        draw(r, got[r])

                pool.split_rows(band_rows, n_blocks)
                assert built == [(seed, 3, 7, n_blocks)]
                assert got.tobytes() == want.tobytes()
        finally:
            sys.setswitchinterval(interval)

    def test_keyed_on_the_absolute_block(self):
        # The window and the completion each take their own stream of the
        # absolute block, whatever chunk holds it.  A chunk's windows are one
        # Philox stream from counter 5 * start_block; in the third chunk the
        # counter crosses 2^64 between its rows 2 and 3.  The completion's
        # keyed streams end at block 2^32 - 1, the last block of the second
        # chunk's completions, so the third chunk's completion draw is a
        # ConfigError.
        spec = ChannelSpec("awgn", csnr_db=0.0, seed=3)
        deviation = 8.0 * np.sqrt(0.5)
        for start in (0, 2**32 - 18, 2**64 // 5 - 3):
            chunk = BandNoise(spec, 64, start, 6)
            for r in range(6):
                want = reference_window(3, start + r, deviation)
                assert chunk.window[r].tobytes() == want.tobytes()
                assert BandNoise(spec, 64, start + r, 1).window[0].tobytes() == want.tobytes()
            a, b = np.empty(100, dtype=np.complex128), np.empty(100, dtype=np.complex128)
            if start > 2**32:
                with pytest.raises(ConfigError, match="2\\^32"):
                    chunk.cursor()(5, a)
                continue
            chunk.cursor()(5, a)
            BandNoise(spec, 64, start + 1, 17).cursor()(4, b)
            assert a.tobytes() == b.tobytes()
            BandNoise(spec, 64, start + 1, 17).cursor()(5, b)
            assert a.tobytes() != b.tobytes()
            assert a[:9].tobytes() != chunk.window[5].tobytes()

    def test_window_batches_continue_one_stream(self):
        # The windows are drawn _WINDOW_BATCH rows at a time from one Philox
        # stream: the rows on both sides of a batch boundary are their own
        # blocks' windows.
        spec = ChannelSpec("awgn", csnr_db=0.0, seed=3)
        deviation = 8.0 * np.sqrt(0.5)
        batch = channel._WINDOW_BATCH
        for start in (0, 7):
            noise = BandNoise(spec, 64, start, batch + 4)
            for r in (0, batch - 1, batch, batch + 3):
                want = reference_window(3, start + r, deviation)
                assert noise.window[r].tobytes() == want.tobytes(), (start, r)


class TestKeyedBlocks:
    # KeyedBlocks re-implements SeedSequence's mixing and PCG64's seeding for
    # a chunk of blocks; the reference is one SeedSequence per block.
    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**130 + 3])
    def test_matches_seed_sequence(self, seed):
        # Blocks 0, 1, 2^32 - 2 and 2^32 - 1, the last block a key word
        # holds.  A range that reaches block 2^32, which would take a second
        # key word, is a ConfigError.
        for stream in (0, 1, 2, 3):
            for start in (0, 2**32 - 2):
                seat = KeyedBlocks(seed, stream, start, 2).cursor()
                for row in (0, 1):
                    want = reference_rng(seed, stream, start + row)
                    got = seat(row)
                    assert got.bit_generator.state == want.bit_generator.state
                    got_normals = got.standard_normal(64)
                    assert got_normals.tobytes() == want.standard_normal(64).tobytes()
            for start, n_blocks in ((2**32 - 1, 2), (2**32, 1), (0, 2**32 + 1)):
                with pytest.raises(ConfigError, match="2\\^32"):
                    KeyedBlocks(seed, stream, start, n_blocks)

    def test_blocks_past_2_32_rejected_by_band_noise_and_process(self):
        # The completion's stream (3, b), the noise (1, b) and the flat fades
        # (0, b) take blocks up to 2^32 - 1, as their SeedSequences do, and a
        # range that reaches block 2^32 is a ConfigError.
        last = 2**32 - 1
        spec = ChannelSpec("awgn", csnr_db=0.0, seed=5)
        got = np.empty(32, dtype=np.complex128)
        BandNoise(spec, 64, last - 1, 2).cursor()(1, got)
        want = reference_rng(5, 3, last).standard_normal(64).view(complex) * 8.0 * np.sqrt(0.5)
        assert got.tobytes() == want.tobytes()
        with pytest.raises(ConfigError, match="2\\^32"):
            BandNoise(spec, 64, last - 1, 3).cursor()(0, got)
        noise = make_channel(spec, 1.0, 8).process(np.zeros((1, 8), complex), start_block=last)
        want = reference_rng(5, 1, last).standard_normal(16).view(complex) * np.sqrt(0.5)
        assert noise.tobytes() == want.tobytes()
        for keyed in (spec, ChannelSpec("flat_rayleigh", seed=5)):
            ch = make_channel(keyed, 1.0, 8)
            ch.process(np.ones((2, 8), dtype=np.complex128), start_block=last - 1)
            with pytest.raises(ConfigError, match="2\\^32"):
                ch.process(np.ones((2, 8), dtype=np.complex128), start_block=last)

    def test_ranges_under_fast_switching(self, monkeypatch):
        # Sixteen row ranges on the pool, the interpreter switching threads
        # every few microseconds: each range's generators must be its own, so
        # every block draws the bytes of its own SeedSequence, on the noise,
        # fade and completion streams.  Each range calls process on its
        # blocks of an AWGN and a flat Rayleigh channel, reads the band
        # noise's window row and draws the completion row by row, as the
        # receiver does; the completion rows are longer than a block, so that
        # a shared generator is caught there too.  The windows come from
        # their own Philox per block.
        n_blocks, n, n_bins, seed = 64, 256, 4096, 13
        monkeypatch.setattr(pool, "_WORKERS", 16)
        spec = ChannelSpec("awgn", csnr_db=0.0, seed=seed)
        scale = np.sqrt(0.5)
        noise_want = np.empty((n_blocks, n), dtype=np.complex128)
        fade_want = np.empty(n_blocks, dtype=np.complex128)
        band_want = np.empty((n_blocks, n_bins), dtype=np.complex128)
        window_want = np.empty((n_blocks, 9), dtype=np.complex128)
        for r in range(n_blocks):
            noise_want[r] = reference_rng(seed, 1, 7 + r).standard_normal(2 * n).view(complex)
            fade_want[r] = reference_rng(seed, 0, 7 + r).standard_normal(2).view(complex)[0]
            band_want[r] = reference_rng(seed, 3, 7 + r).standard_normal(2 * n_bins).view(complex)
            window_want[r] = reference_window(seed, 7 + r, np.sqrt(n) * scale)
        noise_want *= scale
        band_want *= np.sqrt(n) * scale
        band_got, window_got = np.empty_like(band_want), np.empty_like(window_want)
        noise_got, fade_got = np.zeros_like(noise_want), np.ones((n_blocks, 1), dtype=np.complex128)
        noise = BandNoise(spec, n, 7, n_blocks)
        awgn = make_channel(spec, 1.0, n)
        flat = make_channel(ChannelSpec("flat_rayleigh", seed=seed), 1.0, 1)

        def band_rows(lo, hi):
            awgn.process(noise_got[lo:hi], 7 + lo)
            flat.process(fade_got[lo:hi], 7 + lo)
            draw = noise.cursor()
            for r in range(lo, hi):
                window_got[r] = noise.window[r]
                draw(r, band_got[r])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            pool.split_rows(band_rows, n_blocks)
        finally:
            sys.setswitchinterval(interval)
        assert noise_got.tobytes() == noise_want.tobytes()
        assert fade_got[:, 0].tobytes() == (fade_want / np.sqrt(2.0)).tobytes()
        assert band_got.tobytes() == band_want.tobytes()
        assert window_got.tobytes() == window_want.tobytes()
