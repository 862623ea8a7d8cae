"""Acceptance suite: one test per exit criterion, each printing a verdict.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS lines.  The MSE-shape and distribution criteria use the raw FFT-bin
receiver, whose resolution floor sets the expected trade-off shape; codec
and demodulator precision criteria use the default interpolating receiver.
"""

import csv
import json
import time

import numpy as np
import pytest
from scipy import special, stats

from ajscclink.analysis import detect_peaks, median_filter, threshold_filter
from ajscclink.channel import ChannelSpec, make_channel, make_jakes
from ajscclink.codec import AjsccParams, decode, encode, encode_design1
from ajscclink.harness import (
    AnalysisSettings,
    RunConfig,
    derive_seed,
    report_to_dict,
    reproduce,
    run_link,
    sweep_levels,
    write_sweep_csv,
)
from ajscclink.modem import demodulate_stream, fast_profile, modulate
from ajscclink.sources import (
    CytometrySynthSpec,
    SourceTrace,
    cytometry_schedule,
    gen_cytometry,
    rescale,
    write_trace_csv,
)


def verdict(criterion: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} {detail}".rstrip())
    assert ok, f"{criterion} failed: {detail}"


def triangle_csv(path, duration=8.0, period=1e-3, peak=2.6):
    n = int(duration / period)
    tri = peak * (1 - np.abs((np.arange(n) % 4000) / 2000 - 1))
    write_trace_csv(SourceTrace(period, tri), path)
    return str(path)


def test_c1_codec_round_trip():
    """10^6 random pairs per level count recover x1 exactly, x2 to half a step."""
    start = time.monotonic()
    rng = np.random.default_rng(101)
    worst_x1, worst_x2 = 0.0, 0.0
    for levels in (2, 11, 16, 30, 50):
        p = AjsccParams(levels=levels)
        x1 = rng.uniform(0, p.x1_max, 1_000_000)
        x2 = rng.uniform(0, p.x2_max, 1_000_000)
        x1_hat, x2_hat = decode(encode(x1, x2, p), p)
        worst_x1 = max(worst_x1, float(np.abs(x1_hat - x1).max()))
        worst_x2 = max(worst_x2, float(np.abs(x2_hat - x2).max() / (p.level_spacing / 2)))
    elapsed = time.monotonic() - start
    ok = worst_x1 <= 1e-9 and worst_x2 <= 1.0 + 1e-9 and elapsed < 10.0
    verdict(
        "1 codec-round-trip",
        ok,
        f"(worst x1 err {worst_x1:.2e} V, worst x2 err {worst_x2:.3f} of delta/2, {elapsed:.1f}s)",
    )


def test_c2_quantization_law(tmp_path):
    """Noiseless end-to-end x2 MSE equals delta^2/12 and scales as 1/L^2."""
    gsr_path = triangle_csv(tmp_path / "triangle.csv")
    mses = {}
    ok = True
    details = []
    for levels in (8, 16, 32):
        config = RunConfig(
            levels=levels,
            duration=8.0,
            seed=5,
            channel_family="awgn",
            csnr_db=float("inf"),
            gsr_path=gsr_path,
            analysis=AnalysisSettings(median_order=0),
        )
        report = run_link(config)
        want = config.ajscc_params().level_spacing ** 2 / 12
        mses[levels] = report.mse.mse_x2
        ok &= abs(report.mse.mse_x2 / want - 1.0) <= 0.05
        details.append(f"L={levels}: {report.mse.mse_x2 / want:.4f}x")
    r1, r2 = mses[8] / mses[16], mses[16] / mses[32]
    ok &= abs(r1 - 4.0) <= 0.4 and abs(r2 - 4.0) <= 0.4
    verdict("2 quantization-law", ok, f"({', '.join(details)}; halving ratios {r1:.3f}, {r2:.3f})")


def test_c3_staircase(tmp_path):
    """16-level staircase at mid-scale x1: 16 plateaus stepping by V_R."""
    (path,) = reproduce("fig4", tmp_path)
    rows = np.loadtxt(path, delimiter=",", skiprows=1)
    plateaus = np.unique(np.round(rows[:, 1], 12))
    v_r = AjsccParams(levels=16).level_height
    diffs = np.diff(plateaus)
    ok = (
        plateaus.size == 16
        and np.abs(diffs - v_r).max() <= 1e-9
        and bool(np.all(diffs > 0))
    )
    verdict(
        "3 staircase",
        ok,
        f"({plateaus.size} plateaus, step err {np.abs(diffs - v_r).max():.1e} V)",
    )


def test_c4_tradeoff_shape():
    """AWGN 0 dB sweep: x2 MSE falls, x1 MSE rises, sum has interior optimum."""
    start = time.monotonic()
    config = RunConfig(duration=4.0, seed=1, channel_family="awgn", csnr_db=0.0, interpolate=False)
    reports = sweep_levels(config, range(5, 101, 5))
    elapsed = time.monotonic() - start
    levels = [r.config.levels for r in reports]
    mse_x1 = [r.mse.mse_x1 for r in reports]
    mse_x2 = [r.mse.mse_x2 for r in reports]
    total = [r.mse.total for r in reports]
    tau_x2 = stats.kendalltau(levels, mse_x2).statistic
    upper = len(levels) // 2
    tau_x1 = stats.kendalltau(levels[upper:], mse_x1[upper:]).statistic
    best = int(np.argmin(total))
    ok = (
        tau_x2 <= -0.8
        and tau_x1 >= 0.6
        and 0 < best < len(levels) - 1
        and elapsed < 300.0
    )
    verdict(
        "4 tradeoff-shape",
        ok,
        f"(tau_x2 {tau_x2:.2f}, tau_x1 upper {tau_x1:.2f}, argmin L={levels[best]}, {elapsed:.0f}s)",
    )


def test_c5_profile_comparison():
    """Fast receiver beats the slow one on cytometry MSE for L <= 20."""
    results = []
    ok = True
    for levels in (5, 10, 15, 20):
        pair = {}
        for profile in ("fast", "slow"):
            config = RunConfig(
                levels=levels,
                duration=6.0,
                seed=derive_seed(1, levels, "awgn"),
                profile=profile,
                channel_family="awgn",
                csnr_db=0.0,
                interpolate=False,
            )
            pair[profile] = run_link(config).mse.mse_x1
        ok &= pair["fast"] < pair["slow"]
        results.append(f"L={levels}: {pair['slow'] / pair['fast']:.2f}x")
    verdict("5 profile-comparison", ok, f"(slow/fast ratios {', '.join(results)})")


def test_c6_table1_analogue(tmp_path):
    """Eight channel/level cases: K-S never rejects at the 5% level."""
    (path,) = reproduce("table1", tmp_path, seed=1, duration=20.0)
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    ok = len(rows) == 8
    details = []
    for row in rows:
        n_src, n_rx = int(row["n_source_peaks"]), int(row["n_receiver_peaks"])
        rejected = row["reject_at_5pct"] != "0"
        ok &= n_src >= 100 and n_rx >= 100 and not rejected
        details.append(f"{row['channel']}/L{row['levels']}: p={float(row['p_value']):.3f}")
    verdict("6 table1-analogue", ok, f"({'; '.join(details)})")


def test_c7_channel_statistics():
    """AWGN variance, Rayleigh envelope, and Doppler autocorrelation checks."""
    # AWGN noise variance at 0 dB over 10^6 unit-power samples.
    rng = np.random.default_rng(7)
    x = np.exp(1j * rng.uniform(0, 2 * np.pi, (1000, 1024)))
    noise = make_channel(ChannelSpec("awgn", 0.0, seed=77), 1.0, 1024).process(x.copy()) - x
    var = float(np.mean(np.abs(noise) ** 2))
    ok_awgn = abs(var - 1.0) <= 0.02

    # Flat-fading envelope against the analytic Rayleigh CDF.
    ones = np.ones((100_000, 2), dtype=complex)
    flat = ChannelSpec("flat_rayleigh", float("inf"), seed=17)
    h = make_channel(flat, 1.0, 2).process(ones)[:, 0]
    p_ray = stats.kstest(np.abs(h), stats.rayleigh(scale=1 / np.sqrt(2)).cdf).pvalue
    ok_ray = p_ray > 0.01

    # Fading autocorrelation against J0(2 pi f_D tau) out to 50 ms.
    dt = 1e-3
    lags = np.arange(51)
    ok_jakes = True
    devs = []
    for doppler in (5.0, 20.0):
        acs = []
        for seed in range(6):
            g = make_jakes(doppler, seed).gains(np.arange(100_000), dt)
            ac = [np.vdot(g[: g.size - lag], g[lag:]).real / (g.size - lag) for lag in lags]
            acs.append(np.asarray(ac) / ac[0])
        dev = float(np.abs(np.mean(acs, axis=0) - special.j0(2 * np.pi * doppler * lags * dt)).max())
        devs.append(dev)
        ok_jakes &= dev < 0.05

    ok = ok_awgn and ok_ray and ok_jakes
    verdict(
        "7 channel-statistics",
        ok,
        f"(awgn var {var:.4f}, rayleigh p {p_ray:.3f}, J0 dev {devs[0]:.3f}/{devs[1]:.3f})",
    )


def test_c8_determinism(tmp_path):
    """Repeated runs with one master seed emit byte-identical artifacts."""
    config = RunConfig(duration=2.0, seed=99, channel_family="flat_rayleigh", csnr_db=10.0)
    blobs = []
    for attempt in (1, 2):
        out = tmp_path / f"attempt{attempt}"
        out.mkdir()
        reports = sweep_levels(config, [5, 10])
        write_sweep_csv(reports, out / "sweep.csv")
        reproduce("fig4", out)
        single = report_to_dict(run_link(config))
        single.pop("wall_time_s")
        blobs.append(
            (
                (out / "sweep.csv").read_bytes(),
                (out / "fig4_staircase.csv").read_bytes(),
                json.dumps(single, sort_keys=True),
            )
        )
    ok = blobs[0] == blobs[1]
    verdict("8 determinism", ok, "(sweep CSV, staircase CSV, report JSON identical)")


def test_c9_filter_behavior():
    """Bias floor removed by thresholding; median kills isolated spikes."""
    p = AjsccParams(levels=11, design1_bias=2e-4)
    spec = CytometrySynthSpec(noise_sd=0.005)
    duration, period = 10.0, 1e-3
    raw = gen_cytometry(spec, duration, period, seed=17)
    x1 = rescale(raw, 0.0, 1.75, 0.0, p.x1_max)
    x2_const = 6.4 * p.level_spacing  # even level: bias lifts the floor
    encoded = encode_design1(x1.samples, np.full(x1.samples.size, x2_const), p)

    cfg = fast_profile()
    v_hat = demodulate_stream(modulate(encoded, p.full_scale, cfg), p.full_scale, cfg)
    x1_hat, x2_hat = decode(v_hat, p)

    times, _ = cytometry_schedule(spec, duration, seed=17)
    t = np.arange(x1.samples.size) * period
    inter = np.ones(t.size, bool)
    for t0 in times:
        inter &= np.abs(t - t0) > 2 * spec.pulse_width

    floor = x1_hat[inter].mean() - x1.samples[inter].mean()
    ok_floor = x1_hat[inter].min() > 0 and floor > 0.02

    threshold = 0.25
    filtered = threshold_filter(SourceTrace(period, x1_hat), threshold)
    ok_removed = bool(np.all(filtered.samples[inter] == 0.0))
    peaks = detect_peaks(filtered, min_height=0.675, min_separation=2 * spec.pulse_width)
    ok_peaks = len(peaks) == len(times)

    # Isolated single-sample spikes injected into the decoded slow channel
    # vanish under the 200th-order median.
    spiked = x2_hat.copy()
    spike_idx = np.arange(300, x2_hat.size - 300, 400)
    spiked[spike_idx] = p.x2_max
    smoothed = median_filter(SourceTrace(period, spiked), 200)
    clean = median_filter(SourceTrace(period, x2_hat), 200)
    ok_median = bool(np.array_equal(smoothed.samples, clean.samples))

    ok = ok_floor and ok_removed and ok_peaks and ok_median
    verdict(
        "9 filter-behavior",
        ok,
        f"(floor {floor:.3f} V, post-threshold zeros {ok_removed}, "
        f"{len(peaks)}/{len(times)} peaks, median despiked {ok_median})",
    )
