"""Source synthesis, rescaling, and trace CSV I/O."""

import numpy as np
import pytest
from scipy import signal as sp_signal

from ajscclink import sources
from ajscclink.analysis import detect_peaks
from ajscclink.errors import ConfigError
from ajscclink.sources import (
    CytometrySynthSpec,
    GsrSynthSpec,
    SourceTrace,
    cytometry_schedule,
    gen_cytometry,
    _butter_lowpass_sos,
    _sosfilt,
    gen_gsr,
    read_trace_csv,
    rescale,
    write_trace_csv,
)


def per_pulse_cytometry(spec, duration, sample_period, seed):
    """Reference cytometry trace: each pulse of the schedule added in turn
    over its own footprint, then the noise."""
    n = int(round(duration / sample_period))
    t = np.arange(n) * sample_period
    values = np.full(n, spec.baseline)
    sigma = spec.pulse_width / 6.0
    for t0, pk in zip(*sources.cytometry_schedule(spec, duration, seed)):
        lo = max(0, int((t0 - 5 * sigma) / sample_period))
        hi = min(n, int((t0 + 5 * sigma) / sample_period) + 1)
        if hi > lo:
            values[lo:hi] += (pk - spec.baseline) * np.exp(-0.5 * ((t[lo:hi] - t0) / sigma) ** 2)
    if spec.noise_sd > 0:
        noise_rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
        values = values + noise_rng.normal(0.0, spec.noise_sd, size=n)
    return values


class TestSourceTrace:
    def test_rejects_bad_traces(self):
        with pytest.raises(ConfigError):
            SourceTrace(0.0, np.ones(4))
        with pytest.raises(ConfigError):
            SourceTrace(1e-3, np.array([]))
        with pytest.raises(ConfigError):
            SourceTrace(1e-3, np.array([1.0, np.nan]))


class TestCytometry:
    def test_no_events_gives_flat_baseline(self):
        spec = CytometrySynthSpec(pulse_rate=0.0, noise_sd=0.0, baseline=0.1)
        tr = gen_cytometry(spec, 1.0, 1e-3, seed=0)
        assert np.all(tr.samples == 0.1)

    def test_detected_count_matches_generator_schedule(self):
        spec = CytometrySynthSpec(pulse_rate=5.0, pulse_width=0.03, noise_sd=0.0)
        times, peaks = cytometry_schedule(spec, duration=10.0, seed=21)
        tr = gen_cytometry(spec, 10.0, 1e-3, seed=21)
        events = detect_peaks(tr, min_height=0.5, min_separation=2 * spec.pulse_width)
        assert len(events) == len(times)
        # Sanity on the Poisson scale: 50 expected events, allow 3 sigma.
        assert abs(len(times) - 50) < 3 * np.sqrt(50) + 1
        got_times = np.array([e.time for e in events])
        assert np.abs(got_times - times).max() <= 2e-3

    def test_same_seed_bit_identical(self):
        spec = CytometrySynthSpec()
        a = gen_cytometry(spec, 2.0, 1e-3, seed=5)
        b = gen_cytometry(spec, 2.0, 1e-3, seed=5)
        np.testing.assert_array_equal(a.samples, b.samples)
        c = gen_cytometry(spec, 2.0, 1e-3, seed=6)
        assert not np.array_equal(a.samples, c.samples)

    def test_min_separation_enforced(self):
        spec = CytometrySynthSpec(pulse_rate=30.0, pulse_width=0.02)
        times, _ = cytometry_schedule(spec, 20.0, seed=2)
        assert np.all(np.diff(times) >= 2 * spec.pulse_width)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(pulse_width=0.0),
            dict(pulse_rate=-1.0),
            dict(peak_amplitude_mean=0.05, baseline=0.1),
            dict(pulse_rate=60.0, pulse_width=0.02),
        ],
    )
    def test_invalid_spec_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            CytometrySynthSpec(**kwargs)

    def test_duration_precondition(self):
        with pytest.raises(ConfigError):
            gen_cytometry(CytometrySynthSpec(pulse_width=0.5, pulse_rate=1.0), 1.0, 1e-3, 0)

    @pytest.mark.parametrize(
        "spec, duration, seed",
        [
            (CytometrySynthSpec(), 3.0, 7),
            # pulse_width / 6 below the sample period: footprints overlap.
            (CytometrySynthSpec(pulse_rate=400.0, pulse_width=0.0015), 2.0, 3),
            (CytometrySynthSpec(pulse_rate=400.0, pulse_width=0.0015, noise_sd=0.0), 1.0, 4),
            (CytometrySynthSpec(pulse_rate=0.0), 1.0, 5),
            (CytometrySynthSpec(noise_sd=0.0), 2.0, 6),
        ],
        ids=["default", "overlapping", "overlapping-noiseless", "no-pulses", "noiseless"],
    )
    @pytest.mark.parametrize("sample_period", [1e-3, 7e-4])
    def test_pulses_match_the_per_pulse_loop(self, spec, duration, seed, sample_period):
        # The array-form pulses give the bytes of adding them one at a time,
        # in order, each over its own footprint.
        want = per_pulse_cytometry(spec, duration, sample_period, seed)
        got = gen_cytometry(spec, duration, sample_period, seed).samples
        assert got.tobytes() == want.tobytes()

    def test_pulses_within_five_sigma_of_either_end(self):
        # Pulses whose footprints the trace's ends cut: the schedule is
        # replaced by one pulse at each end, 2 sigma inside.
        spec = CytometrySynthSpec(noise_sd=0.0)
        sigma, duration = spec.pulse_width / 6, 1.0
        schedule = (np.array([2 * sigma, duration - 2 * sigma]), np.array([1.3, 1.1]))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sources, "cytometry_schedule", lambda *args: schedule)
            want = per_pulse_cytometry(spec, duration, 1e-3, 0)
            got = gen_cytometry(spec, duration, 1e-3, 0).samples
        assert got.tobytes() == want.tobytes()
        assert want[0] > spec.baseline and want[-1] > spec.baseline


class TestGsr:
    def test_constant_when_degenerate(self):
        spec = GsrSynthSpec(drift_bandwidth=0.0, event_rate=0.0, conductance_max=2.6)
        tr = gen_gsr(spec, 1.0, 1e-3, seed=0)
        assert np.all(tr.samples == 1.3)

    @pytest.mark.parametrize("seed", [0, 1, 7, 99])
    def test_bounded_by_conductance_max(self, seed):
        tr = gen_gsr(GsrSynthSpec(conductance_max=2.6), 30.0, 1e-3, seed=seed)
        assert tr.samples.max() <= 2.6
        assert tr.samples.min() >= 0.0

    def test_spectral_mass_stays_below_twice_drift_bandwidth(self):
        spec = GsrSynthSpec(drift_bandwidth=0.3, event_rate=0.0)
        tr = gen_gsr(spec, 120.0, 1e-3, seed=7)
        f, pxx = sp_signal.periodogram(tr.samples - tr.samples.mean(), fs=1000.0)
        high = pxx[f > 2 * spec.drift_bandwidth].sum()
        assert high / pxx.sum() < 0.01

    def test_same_seed_bit_identical(self):
        a = gen_gsr(GsrSynthSpec(), 3.0, 1e-3, seed=9)
        b = gen_gsr(GsrSynthSpec(), 3.0, 1e-3, seed=9)
        np.testing.assert_array_equal(a.samples, b.samples)

    def test_invalid_spec_rejected(self):
        with pytest.raises(ConfigError):
            GsrSynthSpec(conductance_max=0.0)
        with pytest.raises(ConfigError):
            gen_gsr(GsrSynthSpec(drift_bandwidth=400.0), 1.0, 1e-3, 0)


def extended_sosfilt(sos, x):
    """The transposed direct form II recursion, sample by sample, in np.longdouble."""
    y = list(np.asarray(x, dtype=np.longdouble))
    for b0, b1, b2, _, a1, a2 in np.asarray(sos, dtype=np.longdouble):
        z0 = z1 = np.longdouble(0)
        for i, xi in enumerate(y):
            yi = b0 * xi + z0
            z0 = b1 * xi - a1 * yi + z1
            z1 = b2 * xi - a2 * yi
            y[i] = yi
    return np.array(y, dtype=np.longdouble)


class TestDriftFilter:
    # scipy.signal is the reference: the design must give its bytes, the
    # block-form filter its output to rounding.
    @pytest.mark.parametrize(
        "wn",
        [0.3 / 500, *np.logspace(-7, -0.302, 40), *np.linspace(0.01, 0.49, 25), 0.9],
    )
    def test_sos_matches_scipy_butter(self, wn):
        expected = sp_signal.butter(4, wn, btype="low", output="sos")
        assert _butter_lowpass_sos(4, wn).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("wn", [0.3 / 500, 0.02])
    def test_cached_sections_are_read_only_and_a_fresh_design(self, wn):
        # The design is built once per (order, wn) and shared by every
        # gen_gsr: the cached sections cannot be written, and they hold the
        # bytes of a design built afresh.
        cached = _butter_lowpass_sos(4, wn)
        assert _butter_lowpass_sos(4, wn) is cached
        assert not cached.flags.writeable
        with pytest.raises(ValueError):
            cached[0, 0] = 0.0
        assert cached.tobytes() == _butter_lowpass_sos.__wrapped__(4, wn).tobytes()

    @pytest.mark.parametrize("wn", [0.3 / 500, 0.02, 0.3])
    def test_filter_matches_scipy_sosfilt(self, wn):
        # Within 1e-9 of scipy's peak, and no less accurate than 4x scipy's
        # own error against the exact recursion (0.3 / 500 is the default
        # drift filter's cutoff, where scipy's error is largest).
        sos = sp_signal.butter(4, wn, output="sos")
        for n in (4500, 45000):
            x = np.random.default_rng(5).standard_normal(n)
            got, want = _sosfilt(sos, x), sp_signal.sosfilt(sos, x)
            assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max()
            exact = extended_sosfilt(sos, x)
            assert np.abs(got - exact).max() <= 4 * np.abs(want - exact).max()


class TestRescale:
    def test_identity_ranges_unchanged(self):
        tr = SourceTrace(1e-3, np.array([0.1, 0.5, 0.9]))
        out = rescale(tr, 0.0, 1.0, 0.0, 1.0)
        np.testing.assert_array_equal(out.samples, tr.samples)

    def test_conductance_to_encoder_volts(self):
        tr = SourceTrace(1e-3, np.array([0.0, 1.3, 2.6]))
        out = rescale(tr, 0.0, 2.6, 1.0, 3.0)
        np.testing.assert_allclose(out.samples, [1.0, 2.0, 3.0])

    def test_midpoint_maps_to_midpoint(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            lo, hi = np.sort(rng.uniform(-10, 10, 2))
            olo, ohi = np.sort(rng.uniform(-5, 5, 2))
            if hi - lo < 1e-6 or ohi - olo < 1e-6:
                continue
            tr = SourceTrace(1.0, np.array([(lo + hi) / 2]))
            out = rescale(tr, lo, hi, olo, ohi)
            assert out.samples[0] == pytest.approx((olo + ohi) / 2)

    def test_out_of_range_clamps(self):
        tr = SourceTrace(1.0, np.array([-1.0, 4.0]))
        out = rescale(tr, 0.0, 2.0, 0.0, 1.0)
        np.testing.assert_allclose(out.samples, [0.0, 1.0])

    def test_inverse_composition_is_identity(self):
        rng = np.random.default_rng(2)
        tr = SourceTrace(1.0, rng.uniform(0.0, 2.6, 1000))
        fwd = rescale(tr, 0.0, 2.6, 1.0, 3.0)
        back = rescale(fwd, 1.0, 3.0, 0.0, 2.6)
        np.testing.assert_allclose(back.samples, tr.samples, rtol=1e-12, atol=1e-12)

    def test_degenerate_ranges_rejected(self):
        tr = SourceTrace(1.0, np.ones(3))
        with pytest.raises(ConfigError):
            rescale(tr, 1.0, 1.0, 0.0, 1.0)
        with pytest.raises(ConfigError):
            rescale(tr, 0.0, 1.0, 2.0, 2.0)


class TestTraceCsv:
    def test_round_trip(self, tmp_path):
        tr = gen_cytometry(CytometrySynthSpec(), 1.0, 1e-3, seed=3)
        path = tmp_path / "trace.csv"
        write_trace_csv(tr, path)
        back = read_trace_csv(path)
        assert back.sample_period == tr.sample_period
        np.testing.assert_array_equal(back.samples, tr.samples)

    def test_header_and_line_endings(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_trace_csv(SourceTrace(0.5, np.array([1.5, -2.0])), path)
        raw = path.read_bytes()
        assert raw.startswith(b"t_seconds,value\n")
        assert b"\r" not in raw

    def test_non_uniform_time_base_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t_seconds,value\n0.0,1.0\n0.1,2.0\n0.35,3.0\n")
        with pytest.raises(ConfigError):
            read_trace_csv(path)
