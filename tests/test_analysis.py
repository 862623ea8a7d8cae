"""Analysis tests: filters, peak extraction, MSE, ECDF, K-S test."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import ndimage
from scipy import signal as sp_signal

from ajscclink.analysis import (
    detect_peaks,
    empirical_cdf,
    ks_two_sample,
    median_filter,
    mse,
    threshold_filter,
)
from ajscclink.sources import CytometrySynthSpec, SourceTrace, cytometry_schedule, gen_cytometry


def trace(values, period=1e-3):
    return SourceTrace(period, np.asarray(values, dtype=float))


class TestThresholdFilter:
    def test_zero_threshold_keeps_non_negative_trace(self):
        tr = trace([0.0, 0.2, 1.0])
        np.testing.assert_array_equal(threshold_filter(tr, 0.0).samples, tr.samples)

    def test_floor_removed_pulses_kept(self):
        floor = np.full(1000, 0.05)
        floor[300] = 1.0
        floor[700] = 0.8
        out = threshold_filter(trace(floor), 0.06)
        assert out.samples[300] == 1.0
        assert out.samples[700] == 0.8
        mask = np.ones(1000, bool)
        mask[[300, 700]] = False
        assert np.all(out.samples[mask] == 0.0)

    def test_threshold_above_max_zeroes_everything(self):
        out = threshold_filter(trace([0.1, 0.5]), 2.0)
        assert np.all(out.samples == 0.0)

    def test_idempotent(self):
        tr = trace(np.random.default_rng(0).uniform(-1, 1, 500))
        once = threshold_filter(tr, 0.3)
        twice = threshold_filter(once, 0.3)
        np.testing.assert_array_equal(once.samples, twice.samples)

    def test_non_finite_threshold_rejected(self):
        with pytest.raises(ValueError):
            threshold_filter(trace([1.0, 2.0]), np.nan)


class TestMedianFilter:
    def test_constant_unchanged(self):
        tr = trace(np.full(500, 0.7))
        np.testing.assert_array_equal(median_filter(tr, 200).samples, tr.samples)

    def test_single_impulse_removed(self):
        values = np.zeros(1000)
        values[500] = 5.0
        out = median_filter(trace(values), 200)
        assert np.all(out.samples == 0.0)

    def test_ramp_unchanged_in_interior(self):
        values = np.arange(400, dtype=float)
        out = median_filter(trace(values), 20)
        np.testing.assert_array_equal(out.samples[10:-10], values[10:-10])

    def test_idempotent_on_step(self):
        values = np.concatenate([np.zeros(300), np.ones(300)])
        once = median_filter(trace(values), 40)
        twice = median_filter(once, 40)
        np.testing.assert_array_equal(once.samples, twice.samples)

    def test_order_validation(self):
        tr = trace(np.ones(500))
        with pytest.raises(ValueError):
            median_filter(tr, 3)
        with pytest.raises(ValueError):
            median_filter(tr, 0)
        with pytest.raises(ValueError):
            median_filter(trace(np.ones(100)), 200)


def ndimage_median(values, order):
    return ndimage.median_filter(values, size=order + 1, mode="reflect")


# A median returns one of its window's samples, and 0.0 == -0.0: where a
# window holds both zeros, neither filter defines which one it returns.  The
# byte comparisons therefore map -0.0 to 0.0, and
# test_signed_zeros_compare_equal covers them by value.
_CONTINUOUS = st.floats(-1e6, 1e6).map(lambda v: v + 0.0)
_QUANTIZED = st.integers(-4, 4).map(lambda i: i * 0.25)  # many ties


class TestMedianFilterMatchesNdimage:
    @given(data=st.data(), order=st.sampled_from([2, 4, 20, 100, 200]), quantized=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_bytes_match_ndimage(self, data, order, quantized):
        n = data.draw(st.integers(order + 1, 3 * order + 3), label="length")
        values = _QUANTIZED if quantized else _CONTINUOUS
        x = data.draw(arrays(np.float64, n, elements=values), label="samples")
        got = median_filter(trace(x), order).samples
        assert got.tobytes() == ndimage_median(x, order).tobytes()

    def test_long_trace_matches_ndimage(self):
        # 20,000 samples of a random walk in steps of 1/8, so windows hold ties.
        rng = np.random.default_rng(17)
        x = np.round(rng.standard_normal(20_000).cumsum() * 8) / 8 + 0.0
        for values in (x, x + rng.uniform(0, 1e-3, x.size)):
            got = median_filter(trace(values), 200).samples
            assert got.tobytes() == ndimage_median(values, 200).tobytes()

    @pytest.mark.parametrize("order", [2, 20])
    def test_signed_zeros_compare_equal(self, order):
        x = np.random.default_rng(order).choice([-0.0, 0.0, 1.0, -1.0], 300)
        np.testing.assert_array_equal(median_filter(trace(x), order).samples, ndimage_median(x, order))


class TestDetectPeaks:
    def test_single_gaussian_pulse(self):
        t = np.arange(1000) * 1e-3
        values = np.exp(-0.5 * ((t - 0.5) / 0.02) ** 2)
        events = detect_peaks(trace(values), min_height=0.5, min_separation=0.05)
        assert len(events) == 1
        assert events[0].time == pytest.approx(0.5, abs=2e-3)
        assert events[0].peak_value == pytest.approx(1.0, abs=1e-6)

    def test_matches_seeded_schedule(self):
        spec = CytometrySynthSpec(pulse_rate=6.0, pulse_width=0.03, noise_sd=0.0)
        tr = gen_cytometry(spec, 12.0, 1e-3, seed=13)
        times, _ = cytometry_schedule(spec, 12.0, seed=13)
        events = detect_peaks(tr, min_height=0.5, min_separation=2 * spec.pulse_width)
        assert len(events) == len(times)
        np.testing.assert_allclose([e.time for e in events], times, atol=2e-3)

    def test_all_zero_trace_gives_empty_list(self):
        assert detect_peaks(trace(np.zeros(100)), 0.1, 0.01) == []

    def test_thinning_keeps_larger_peak(self):
        values = np.zeros(100)
        values[40] = 1.0
        values[44] = 2.0
        events = detect_peaks(trace(values), min_height=0.5, min_separation=0.01)
        assert len(events) == 1
        assert events[0].peak_value == 2.0

    def test_count_invariant_under_small_noise(self):
        spec = CytometrySynthSpec(pulse_rate=4.0, pulse_width=0.03, noise_sd=0.0)
        clean = gen_cytometry(spec, 10.0, 1e-3, seed=3)
        rng = np.random.default_rng(0)
        min_height = 0.5
        noisy = trace(clean.samples + rng.uniform(-1, 1, clean.samples.size) * min_height / 4)
        n_clean = len(detect_peaks(clean, min_height, 2 * spec.pulse_width))
        n_noisy = len(detect_peaks(noisy, min_height, 2 * spec.pulse_width))
        assert n_clean == n_noisy

    def test_min_separation_precondition(self):
        with pytest.raises(ValueError):
            detect_peaks(trace(np.ones(10), period=1e-2), 0.5, 1e-3)


def assert_matches_find_peaks(values, min_height, distance):
    # find_peaks is the reference: same indices, same height bytes.
    values = np.asarray(values, dtype=float)
    idx, props = sp_signal.find_peaks(values, height=min_height, distance=distance)
    events = detect_peaks(trace(values, period=1.0), min_height, float(distance))
    assert [round(e.time) for e in events] == idx.tolist()
    got = np.array([e.peak_value for e in events], dtype=float)
    assert got.tobytes() == props["peak_heights"].tobytes()
    return idx.tolist()


class TestDetectPeaksMatchesFindPeaks:
    @pytest.mark.parametrize(
        "values, min_height, distance, expected",
        [
            # A flat top at its left-biased midpoint; a top touching an edge is no peak.
            ([0, 2, 2, 2, 2, 0, 1, 1, 1, 0], 0.5, 1, [2, 7]),
            ([3, 3, 1, 2, 2], 0.5, 1, []),
            # Maxima next to the edges; the edge samples themselves never count.
            ([0, 5, 0, 1, 0, 5, 0], 0.5, 1, [1, 3, 5]),
            ([5, 0, 1, 0, 5], 0.5, 1, [2]),
            # Tied heights closer than the distance: the last in argsort order
            # is kept first; at the distance every tie stays.
            ([0, 4, 0, 4, 0, 4, 0, 4, 0], 0.5, 3, [3, 7]),
            ([0, 4, 0, 4, 0, 4, 0, 4, 0], 0.5, 2, [1, 3, 5, 7]),
            # Every maximum below the height, and no maximum at all.
            ([0, 1, 0, 2, 0], 2.5, 1, []),
            ([1, 2, 3, 4, 5], 0.0, 1, []),
            ([0, 1, 0, 2, 0], 2.0, 1, [3]),
        ],
    )
    def test_edge_cases(self, values, min_height, distance, expected):
        assert assert_matches_find_peaks(values, min_height, distance) == expected

    def test_random_traces_with_plateaus_and_ties(self):
        rng = np.random.default_rng(11)
        for case in range(600):
            n = int(rng.integers(1, 120))
            if case % 3 == 2:
                values = rng.standard_normal(n)
            else:
                values = rng.integers(0, 5, n).astype(float)
                if case % 3 == 1:
                    values = np.repeat(values, rng.integers(1, 4, n))
            min_height = float(rng.uniform(-1.0, 4.0))
            assert_matches_find_peaks(values, min_height, int(rng.integers(1, 10)))

    def test_decoded_pulse_train(self):
        spec = CytometrySynthSpec(pulse_rate=8.0, pulse_width=0.02)
        values = np.round(gen_cytometry(spec, 10.0, 1e-3, seed=4).samples, 2)
        assert len(assert_matches_find_peaks(values, 0.6, 40)) > 40


class TestMse:
    def test_identical_traces(self):
        tr = trace([1.0, 2.0, 3.0])
        assert mse(tr, tr) == 0.0

    def test_constant_offset(self):
        a = trace(np.zeros(100))
        b = trace(np.full(100, 0.1))
        assert mse(a, b) == pytest.approx(0.01)

    def test_symmetry_and_positivity(self):
        rng = np.random.default_rng(5)
        a = trace(rng.standard_normal(256))
        b = trace(rng.standard_normal(256))
        assert mse(a, b) == mse(b, a) > 0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            mse(trace([1.0, 2.0]), trace([1.0]))


class TestEmpiricalCdf:
    def test_singleton(self):
        np.testing.assert_array_equal(empirical_cdf([1.0]), [[1.0, 1.0]])

    def test_counted_steps(self):
        got = empirical_cdf([1, 2, 2, 3])
        np.testing.assert_allclose(got, [[1, 0.25], [2, 0.75], [3, 1.0]])

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=200))
    @settings(max_examples=100, deadline=None)
    def test_non_decreasing_and_ends_at_one(self, values):
        cdf = empirical_cdf(values)
        assert np.all(np.diff(cdf[:, 1]) > 0) or cdf.shape[0] == 1
        assert cdf[-1, 1] == pytest.approx(1.0)
        assert np.all(np.diff(cdf[:, 0]) > 0) or cdf.shape[0] == 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            empirical_cdf([])


class TestKsTwoSample:
    def test_identical_samples(self):
        a = [1.0, 2.0, 3.0, 4.0, 5.0]
        result = ks_two_sample(a, a)
        assert result.statistic == 0.0
        assert result.p_value == 1.0
        assert not result.reject_at_5pct

    def test_disjoint_supports(self):
        a = np.arange(5.0)
        b = np.arange(10.0, 15.0)
        result = ks_two_sample(a, b)
        assert result.statistic == 1.0
        assert result.reject_at_5pct

    def test_interleaved_thirds(self):
        got = ks_two_sample([0.0, 1.0, 2.0, 0.1, 1.1], [0.5, 1.5, 2.5, 0.6, 1.6])
        # Direct ECDF enumeration on the canonical 3-vs-3 case:
        small = _brute_force_d([0.0, 1.0, 2.0], [0.5, 1.5, 2.5])
        assert small == pytest.approx(1 / 3)
        assert got.statistic == pytest.approx(_brute_force_d([0, 1, 2, 0.1, 1.1], [0.5, 1.5, 2.5, 0.6, 1.6]))

    def test_symmetric_in_arguments(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal(50)
        b = rng.standard_normal(60) + 0.2
        r1, r2 = ks_two_sample(a, b), ks_two_sample(b, a)
        assert r1.statistic == r2.statistic
        assert r1.p_value == r2.p_value

    def test_agrees_with_scipy_asymptotic(self):
        from scipy import stats

        rng = np.random.default_rng(4)
        a = rng.standard_normal(200)
        b = rng.standard_normal(180) + 0.15
        got = ks_two_sample(a, b)
        ref = stats.ks_2samp(a, b, method="asymp")
        assert got.statistic == pytest.approx(ref.statistic, abs=1e-12)
        assert got.p_value == pytest.approx(ref.pvalue, abs=0.05)

    def test_reject_flag_tracks_alpha(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal(300)
        b = rng.standard_normal(300) + 2.0
        assert ks_two_sample(a, b).reject_at_5pct

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError):
            ks_two_sample([1.0, 2.0], [1.0, 2.0, 3.0, 4.0, 5.0])


def _brute_force_d(a, b):
    """Independent oracle: evaluate both ECDFs on a dense grid."""
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    grid = np.unique(np.concatenate([a, b]))
    fa = np.array([(a <= x).mean() for x in grid])
    fb = np.array([(b <= x).mean() for x in grid])
    return np.abs(fa - fb).max()
