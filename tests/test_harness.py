"""Harness tests: run orchestration, config round trips, CLI surface."""

import dataclasses
import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ajscclink import channel, harness, pool
from ajscclink.analysis import ks_two_sample
from ajscclink.channel import ChannelSpec, make_channel
from ajscclink.cli import main
from ajscclink.errors import ConfigError, DemodError, StageError
from ajscclink.harness import (
    AnalysisSettings,
    RunConfig,
    config_from_dict,
    config_to_dict,
    derive_seed,
    load_config,
    report_to_dict,
    reproduce,
    run_link,
    sweep_levels,
    write_report_json,
    write_sweep_csv,
)
from ajscclink.modem import (
    block_start_phases,
    demodulate_stream,
    fast_profile,
    modulate,
    slow_profile,
    voltage_to_frequency,
)
from ajscclink.sources import SourceTrace, write_trace_csv


def quiet_analysis(**kwargs):
    return AnalysisSettings(median_order=kwargs.pop("median_order", 0), **kwargs)


def triangle_trace_csv(path, duration=4.0, period=1e-3, peak=2.6):
    n = int(duration / period)
    half = n // 2
    tri = peak * (1 - np.abs(np.arange(n) % n / half - 1))
    write_trace_csv(SourceTrace(period, tri), path)
    return path


class TestRunLink:
    def test_noiseless_loopback_hits_quantization_floor(self, tmp_path):
        gsr_path = triangle_trace_csv(tmp_path / "tri.csv")
        config = RunConfig(
            levels=16,
            duration=4.0,
            seed=3,
            channel_family="awgn",
            csnr_db=float("inf"),
            gsr_path=str(gsr_path),
            analysis=quiet_analysis(),
        )
        report = run_link(config)
        params = config.ajscc_params()
        cfg = config.modem_config()
        want = params.level_spacing**2 / 12
        assert report.mse.mse_x2 == pytest.approx(want, rel=0.05)
        # Interpolation floor: a tenth of a bin, amplified by the level count.
        bin_volts = params.full_scale * cfg.bin_width / (cfg.f_max - cfg.f_min)
        floor = (0.1 * bin_volts * params.x1_max * params.levels / params.full_scale) ** 2
        assert report.mse.mse_x1 <= floor

    def test_block_accounting_fast_and_slow(self):
        fast = run_link(RunConfig(levels=8, duration=2.0, seed=1, csnr_db=float("inf"),
                                  analysis=quiet_analysis()))
        assert fast.n_blocks == 2000
        slow = run_link(RunConfig(levels=8, duration=2.5, seed=1, profile="slow",
                                  csnr_db=float("inf"), analysis=quiet_analysis()))
        assert slow.n_blocks == 250

    def test_report_deterministic_for_seed(self):
        config = RunConfig(levels=10, duration=2.0, seed=42, csnr_db=5.0,
                           analysis=quiet_analysis())
        a = report_to_dict(run_link(config))
        b = report_to_dict(run_link(config))
        a.pop("wall_time_s"), b.pop("wall_time_s")
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    @pytest.mark.parametrize("family", channel.FAMILIES)
    def test_report_independent_of_channel_workers(self, family, monkeypatch):
        # The worker count splits both the channel's and the receiver's rows.
        # The raw receiver reads whole bins, so at 5 dB the noise moves no
        # decoded value; at -25 dB it does, and its band noise, drawn by one
        # generator per worker range, must not depend on the split.
        for interpolate, csnr_db in ((True, 5.0), (False, -25.0)):
            config = RunConfig(levels=10, duration=0.25, seed=42, channel_family=family,
                               csnr_db=csnr_db, analysis=quiet_analysis(),
                               interpolate=interpolate)
            payloads = []
            for workers in (1, 2):
                monkeypatch.setattr(pool, "_WORKERS", workers)
                report = report_to_dict(run_link(config))
                report.pop("wall_time_s")
                payloads.append(json.dumps(report, sort_keys=True))
            assert payloads[0] == payloads[1]
            if not interpolate:
                noiseless = run_link(dataclasses.replace(config, csnr_db=math.inf))
                assert json.loads(payloads[0])["mse_sum"] != noiseless.mse.total

    def test_zero_block_in_second_worker_range_is_transmit_error(self, monkeypatch):
        def modulate_with_zero_block(*args, **kwargs):
            blocks = modulate(*args, **kwargs)
            blocks[3 * len(blocks) // 4] = 0.0
            return blocks

        monkeypatch.setattr(pool, "_WORKERS", 2)
        monkeypatch.setattr(harness, "modulate", modulate_with_zero_block)
        config = RunConfig(levels=10, duration=0.25, seed=42, analysis=quiet_analysis())
        with pytest.raises(StageError) as excinfo:
            run_link(config)
        assert excinfo.value.stage == "transmit"
        assert isinstance(excinfo.value.__cause__, DemodError)

    @pytest.mark.parametrize("family", ["awgn", "jtc_outdoor_low_a"])
    def test_reused_chunk_buffer_matches_fresh_chunks(self, family, monkeypatch):
        # Chunks of 5 blocks over 23 blocks: four full chunks and a short
        # last one, all modulated into one buffer.  The result must equal a
        # loop that modulates every chunk into a fresh array.
        cfg = fast_profile()
        chunk, n_blocks, full_scale = 5, 23, 2.0
        monkeypatch.setattr(harness, "_CHUNK_SAMPLES", chunk * cfg.fft_size)
        encoded = np.random.default_rng(3).uniform(0, full_scale, n_blocks)
        doppler = 20.0 if family.startswith("jtc") else None
        spec = ChannelSpec(family, csnr_db=0.0, doppler_hz=doppler, seed=11)

        fresh = make_channel(spec, cfg.sample_rate, cfg.fft_size)
        phases = block_start_phases(voltage_to_frequency(encoded, full_scale, cfg), cfg)
        want = []
        for lo in range(0, n_blocks, chunk):
            blocks = modulate(
                encoded[lo : lo + chunk], full_scale, cfg, start_phase=phases[lo : lo + chunk]
            )
            blocks = fresh.process(blocks, start_block=lo)
            want.append(demodulate_stream(blocks, full_scale, cfg))

        reused = make_channel(spec, cfg.sample_rate, cfg.fft_size)
        got = harness._transmit(encoded, full_scale, cfg, reused, True)
        assert got.tobytes() == np.concatenate(want).tobytes()

    @pytest.mark.parametrize(
        "family, interpolate, csnr_db",
        [
            pytest.param("flat_rayleigh", True, 3.0, id="flat_rayleigh"),
            pytest.param("jtc_outdoor_low_a", True, 3.0, id="jtc_outdoor_low_a"),
            # The raw receiver reads whole bins, so at 3 dB the noise moves
            # no decoded value; at -25 dB it moves some.
            pytest.param("awgn", False, -25.0, id="awgn-raw"),
            pytest.param("flat_rayleigh", False, -25.0, id="flat_rayleigh-raw"),
            pytest.param("jtc_outdoor_low_a", False, -25.0, id="jtc_outdoor_low_a-raw"),
        ],
    )
    def test_report_independent_of_chunk_size(self, family, interpolate, csnr_db, monkeypatch):
        # Chunks of 1, 7 and 512 blocks over 600: the modulator takes the
        # stream's block phases and the channel its nominal signal power, so
        # no chunk boundary moves a bit of the payload.  The raw receiver's
        # band noise is keyed on the absolute block, not the chunk row.
        config = RunConfig(levels=30, duration=0.6, seed=7, channel_family=family,
                           csnr_db=csnr_db, interpolate=interpolate)
        fft_size = config.modem_config().fft_size
        payloads = []
        for chunk in (1, 7, 512):
            monkeypatch.setattr(harness, "_CHUNK_SAMPLES", chunk * fft_size)
            report = report_to_dict(run_link(config))
            report.pop("wall_time_s")
            payloads.append(json.dumps(report, sort_keys=True))
        assert payloads[1] == payloads[0]
        assert payloads[2] == payloads[0]
        noiseless = run_link(dataclasses.replace(config, csnr_db=math.inf))
        assert json.loads(payloads[0])["mse_sum"] != noiseless.mse.total

    @pytest.mark.parametrize("profile", ["fast", "slow"])
    def test_band_noise_errors_match_time_domain_chain(self, profile):
        # In the threshold region, where a third to four fifths of the blocks
        # decode to a wrong bin, the raw receiver's band noise must give the
        # decoded-error distribution of the time-domain reference: the
        # channel's own noise through process and a raw demodulate_stream.
        # A noise level 1 dB off fails the fast case at p < 0.01.
        cfg = fast_profile() if profile == "fast" else slow_profile()
        encoded = np.random.default_rng(1).uniform(0.0, 1.0, 1024)
        for csnr_db in (-28.0, -30.0):
            spec = ChannelSpec("awgn", csnr_db=csnr_db, seed=5)
            noisy = make_channel(spec, cfg.sample_rate, cfg.fft_size)
            blocks = noisy.process(modulate(encoded, 1.0, cfg))
            reference = demodulate_stream(blocks, 1.0, cfg, interpolate=False) - encoded
            quiet_spec = ChannelSpec("awgn", csnr_db=math.inf, seed=5)
            quiet = make_channel(quiet_spec, cfg.sample_rate, cfg.fft_size)
            band = harness._transmit(encoded, 1.0, cfg, quiet, False, spec) - encoded
            assert 0.2 < np.mean(np.abs(band) > 1e-3) < 0.9
            assert ks_two_sample(reference, band).p_value > 0.01

    def test_missing_trace_file_is_config_error(self):
        config = RunConfig(levels=8, duration=2.0, gsr_path="/nonexistent/trace.csv")
        with pytest.raises(ConfigError):
            run_link(config)

    def test_stage_error_carries_stage_name(self, monkeypatch):
        # A malformed trace file is a ConfigError (TestCli), so the failure
        # comes from the generator itself.
        def failing_gen_gsr(*args, **kwargs):
            raise RuntimeError("generator failed")

        monkeypatch.setattr(harness, "gen_gsr", failing_gen_gsr)
        config = RunConfig(levels=8, duration=2.0)
        with pytest.raises(StageError, match="generate"):
            run_link(config)

    @pytest.mark.parametrize("error_type", [ConfigError, RuntimeError])
    def test_stage_passes_config_errors_and_wraps_the_rest(self, error_type, monkeypatch):
        error = error_type("decoder failed")

        def failing_decode(*args, **kwargs):
            raise error

        monkeypatch.setattr(harness, "decode", failing_decode)
        config = RunConfig(levels=8, duration=0.25, seed=1, analysis=quiet_analysis())
        with pytest.raises(Exception) as excinfo:
            run_link(config)
        if error_type is ConfigError:
            assert excinfo.value is error
        else:
            assert isinstance(excinfo.value, StageError)
            assert excinfo.value.stage == "decode"
            assert excinfo.value.__cause__ is error

    def test_duration_below_one_block_rejected(self):
        config = RunConfig(levels=8, duration=0.005, profile="slow",
                           analysis=quiet_analysis())
        with pytest.raises(ConfigError, match="duration"):
            run_link(config)

    def test_peaks_and_ks_populated_with_noise(self):
        report = run_link(RunConfig(levels=30, duration=6.0, seed=3, csnr_db=0.0))
        assert len(report.source_peaks) >= 5
        assert len(report.receiver_peaks) >= 5
        assert report.ks is not None
        assert report.ks.p_value > 0.05


class TestSweep:
    def test_empty_levels_empty_reports(self):
        assert sweep_levels(RunConfig(duration=2.0), []) == []

    def test_seed_derivation_stable_and_distinct(self):
        s1 = derive_seed(7, 10, "awgn")
        assert s1 == derive_seed(7, 10, "awgn")
        assert s1 != derive_seed(7, 15, "awgn")
        assert s1 != derive_seed(8, 10, "awgn")
        assert s1 != derive_seed(7, 10, "flat_rayleigh")

    def test_levels_below_two_rejected(self):
        with pytest.raises(ConfigError):
            sweep_levels(RunConfig(duration=2.0), [1])

    def test_sweep_csv_shape(self, tmp_path):
        config = RunConfig(duration=2.0, seed=5, csnr_db=float("inf"),
                           analysis=quiet_analysis())
        reports = sweep_levels(config, [4, 8])
        path = tmp_path / "sweep.csv"
        write_sweep_csv(reports, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "levels,mse_x1,mse_x2,mse_sum"
        assert len(lines) == 3
        assert lines[1].startswith("4,")
        assert lines[2].startswith("8,")


class TestConfigSerialization:
    def test_round_trip_including_inf(self, tmp_path):
        config = RunConfig(levels=24, duration=3.5, seed=9, channel_family="flat_rayleigh",
                           csnr_db=float("inf"), x1_input_range=(0.0, 1.5))
        d = config_to_dict(config)
        assert d["csnr_db"] == "inf"
        back = config_from_dict(json.loads(json.dumps(d)))
        assert back == config

    def test_load_config_file(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"levels": 12, "duration": 2.0, "csnr_db": "inf"}))
        config = load_config(path)
        assert config.levels == 12
        assert np.isinf(config.csnr_db)

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"levels": 12, "bogus": 1}))
        with pytest.raises(ConfigError):
            load_config(path)

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_report_json_schema(self, tmp_path):
        report = run_link(RunConfig(levels=8, duration=2.0, seed=1, csnr_db=float("inf"),
                                    analysis=quiet_analysis()))
        path = tmp_path / "report.json"
        write_report_json(report, path)
        data = json.loads(path.read_text())
        for key in ("config", "mse_x1", "mse_x2", "mse_sum", "source_peaks",
                    "receiver_peaks", "n_blocks", "version", "synthetic_sources"):
            assert key in data
        rebuilt = config_from_dict(data["config"])
        assert rebuilt == report.config


# Values of the wrong type or out of every range, mixed into each field.
_JUNK = st.sampled_from([None, "x", [], {}, True, math.nan, math.inf, -math.inf, -1, 0])


def _or_junk(valid):
    # Junk one time in ten, so that a good share of the dicts is accepted.
    return st.integers(0, 9).flatmap(lambda i: _JUNK if i == 0 else valid)


def _nested(names, values):
    fields = {name: _or_junk(values) for name in names}
    return _or_junk(st.fixed_dictionaries({}, optional={**fields, "bogus": st.just(1)}))


# Config dicts as a --config file holds them.  The duration is always given
# and short, so that an accepted config runs in about a second at most.
_CONFIG_DICTS = st.fixed_dictionaries(
    {"duration": _or_junk(st.floats(0.0, 0.3))},
    optional={
        "levels": _or_junk(st.integers(-1, 200)),
        "seed": _or_junk(st.integers(-1, 2**70)),
        "profile": _or_junk(st.sampled_from(["fast", "slow", "medium"])),
        "channel_family": _or_junk(st.sampled_from([*channel.FAMILIES, "bogus"])),
        "csnr_db": _or_junk(
            st.one_of(st.floats(-20.0, 40.0), st.sampled_from(["inf", "-inf", "nan", "loud"]))
        ),
        "doppler_hz": _or_junk(st.floats(-100.0, 100.0)),
        "tap_profile_path": st.sampled_from([None, "/nonexistent/taps.csv"]),
        "x1_max": _or_junk(st.floats(0.0, 10.0)),
        "x2_max": _or_junk(st.floats(0.0, 10.0)),
        "level_height": _or_junk(st.floats(0.0, 1.0)),
        "cytometry": _nested(
            ["pulse_rate", "pulse_width", "peak_amplitude_mean", "peak_amplitude_sd",
             "baseline", "noise_sd"],
            st.floats(-0.1, 20.0),
        ),
        "gsr": _nested(
            ["conductance_max", "drift_bandwidth", "event_rate", "drift_scale",
             "event_amplitude", "event_rise", "event_decay"],
            st.floats(-0.1, 20.0),
        ),
        "cytometry_path": st.sampled_from([None, "/nonexistent/cytometry.csv"]),
        "gsr_path": st.sampled_from([None, "/nonexistent/gsr.csv"]),
        "x1_input_range": _or_junk(st.lists(st.floats(-5.0, 5.0), max_size=3)),
        "x2_input_range": _or_junk(st.lists(st.floats(-5.0, 5.0), max_size=3)),
        "analysis": _or_junk(
            st.fixed_dictionaries(
                {},
                optional={
                    "median_order": _or_junk(st.integers(-2, 300)),
                    "despike_width": _or_junk(st.integers(-1, 9)),
                    "peak_min_separation": _or_junk(st.floats(0.0, 0.1)),
                    "peak_min_height": _or_junk(st.floats(-1.0, 3.0)),
                    "threshold": _or_junk(st.floats(-1.0, 3.0)),
                },
            )
        ),
        "interpolate": _or_junk(st.booleans()),
    },
)


class TestConfigBoundary:
    @settings(max_examples=200, deadline=None)
    @given(_CONFIG_DICTS)
    def test_accepted_config_round_trips_and_runs(self, d):
        # A config dict is either a ConfigError or a config that survives
        # its own JSON form, and whose run ends in a report or a ConfigError.
        try:
            config = config_from_dict(d)
        except ConfigError:
            return
        text = json.dumps(config_to_dict(config), allow_nan=False)
        assert config_from_dict(json.loads(text)) == config
        assert math.isfinite(config.duration)
        try:
            run_link(config)
        except ConfigError:
            pass


class TestReproduce:
    def test_fig4_staircase_file(self, tmp_path):
        (path,) = reproduce("fig4", tmp_path)
        rows = np.loadtxt(path, delimiter=",", skiprows=1)
        assert rows.shape == (4096, 2)
        plateaus = np.unique(np.round(rows[:, 1], 12))
        assert plateaus.size == 16

    def test_fig5cdf_writes_source_and_channel_curves(self, tmp_path):
        written = reproduce("fig5cdf", tmp_path, seed=2, duration=4.0)
        names = {p.name for p in written}
        assert names == {
            "fig5_cdf_source.csv",
            "fig5_cdf_awgn.csv",
            "fig5_cdf_flat_rayleigh.csv",
            "fig5_cdf_jtc_indoor_a.csv",
            "fig5_cdf_jtc_outdoor_low_a.csv",
        }
        cdf = np.loadtxt(written[0], delimiter=",", skiprows=1, ndmin=2)
        assert cdf[-1, 1] == pytest.approx(1.0)

    def test_mse_sweep_experiment_with_narrow_grid(self, tmp_path):
        (path,) = reproduce("fig6a", tmp_path, seed=2, duration=2.0, levels=[6, 12])
        lines = path.read_text().splitlines()
        assert lines[0] == "levels,mse_x1,mse_x2,mse_sum"
        assert len(lines) == 3

    def test_unknown_id_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            reproduce("fig9", tmp_path)


class TestCli:
    def test_staircase_command(self, tmp_path, capsys):
        rc = main(["staircase", "--levels", "16", "--points", "128", "--out", str(tmp_path)])
        assert rc == 0
        rows = np.loadtxt(tmp_path / "staircase.csv", delimiter=",", skiprows=1)
        assert np.unique(np.round(rows[:, 1], 12)).size == 16

    def test_simulate_with_config_and_overrides(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({
            "levels": 8, "duration": 2.0, "csnr_db": "inf", "seed": 4,
            "analysis": {"median_order": 0},
        }))
        rc = main(["simulate", "--config", str(cfg_path), "--seed", "5",
                   "--no-interp", "--out", str(tmp_path / "out")])
        assert rc == 0
        data = json.loads((tmp_path / "out" / "run_report.json").read_text())
        assert data["config"]["seed"] == 5
        assert data["config"]["interpolate"] is False
        peaks = (tmp_path / "out" / "peaks_source.csv").read_text().splitlines()
        assert peaks[0] == "time,peak"
        assert (tmp_path / "out" / "peaks_receiver.csv").exists()

    def test_sweep_command_with_list(self, tmp_path):
        rc = main(["sweep", "--levels", "4,8", "--duration", "2.0", "--csnr-db", "inf",
                   "--out", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert len(lines) == 3

    def test_reproduce_command(self, tmp_path):
        rc = main(["reproduce", "--id", "fig4", "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "fig4_staircase.csv").exists()

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        assert main(["simulate", "--config", str(bad), "--out", str(tmp_path)]) == 2

    def test_runtime_error_exit_code(self, tmp_path, monkeypatch):
        import ajscclink.cli as cli_mod

        def boom(config):
            raise RuntimeError("stage blew up")

        monkeypatch.setattr(cli_mod, "run_link", boom)
        assert main(["simulate", "--out", str(tmp_path)]) == 3

    def test_bad_level_range_is_config_error(self, tmp_path):
        for levels in ("10:5", "a:b", "5,x", "5:x:1"):
            assert main(["sweep", "--levels", levels, "--out", str(tmp_path)]) == 2
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize(
        "fields",
        [
            {"csnr_db": "nan"},
            {"csnr_db": "-inf"},
            {"csnr_db": "loud"},
            {"doppler_hz": "inf"},
            {"cytometry": {"bogus": 1}},
            {"gsr": {"conductance_max": "high"}},
            {"analysis": 3},
            {"x1_input_range": [1.0]},
            {"x2_input_range": [2.0, 1.0]},
            {"x1_input_range": 5.0},
            {"analysis": {"median_order": "x"}},
            {"analysis": {"median_order": 3}},
            {"analysis": {"despike_width": 2}},
            {"analysis": {"peak_min_separation": 0}},
            {"analysis": {"peak_min_separation": 5e-3}, "profile": "slow"},
            {"analysis": {"threshold": "x"}},
            {"analysis": {"peak_min_height": float("nan")}},
            {"x1_max": "big"},
            # json.dumps writes Infinity, which loads as the same float as 1e400.
            {"x1_max": float("inf")},
            {"level_height": float("inf")},
            # 200 slow blocks against the default median_order 200.
            {"duration": 2.0, "profile": "slow"},
            # The default peak separation, 2 * pulse_width, under one 10 ms block.
            {"profile": "slow", "duration": 3.0, "cytometry": {"pulse_width": 0.004}},
            {"seed": -1},
            {"seed": "x"},
            {"duration": float("inf")},
            {"tap_profile_path": "/nonexistent/taps.csv"},
            {"cytometry": {"pulse_rate": float("nan")}},
            {"gsr": {"drift_scale": float("inf")}},
            {"interpolate": "false"},
            # Paths that name a directory.
            {"tap_profile_path": "."},
            {"gsr_path": "."},
            {"cytometry_path": "."},
            # Malformed trace files, written by the test into its directory.
            {"gsr_path": "one_column.csv"},
            {"gsr_path": "non_numeric.csv"},
            # A file as a directory component of the path.
            {"tap_profile_path": "one_column.csv/x.csv"},
            # A NaN tap delay, which the delay-order check alone lets through.
            {"channel_family": "jtc_outdoor_low_a", "tap_profile_path": "nan_delay.csv"},
        ],
    )
    def test_bad_config_file_is_config_error(self, fields, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "one_column.csv").write_text("t_seconds\n0.0\n0.001\n0.002\n")
        (tmp_path / "non_numeric.csv").write_text("t_seconds,value\n0.0,a\n0.001,1.0\n")
        (tmp_path / "nan_delay.csv").write_text("0,0\nnan,-3\n")
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"levels": 8, "duration": 2.0, **fields}))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert not (out / "run_report.json").exists()

    @pytest.mark.parametrize("key", ["cytometry_path", "gsr_path"])
    def test_missing_trace_message_names_the_path(self, key, tmp_path, capsys):
        missing = tmp_path / "absent" / "trace.csv"
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"levels": 8, "duration": 2.0, key: str(missing)}))
        assert main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
        assert f"not found: {missing}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "profile, periods",
        [
            # A 10 ms cytometry trace next to the synthetic 1 ms GSR.
            ("fast", {"cytometry_path": 1e-2}),
            # A 0.5 ms GSR trace next to the synthetic 1 ms cytometry.
            ("fast", {"gsr_path": 5e-4}),
            # Equal periods, but longer than the 1 ms fast block.
            ("fast", {"cytometry_path": 1e-2, "gsr_path": 1e-2}),
            # Equal periods that do not divide the 10 ms slow block.
            ("slow", {"cytometry_path": 4e-3, "gsr_path": 4e-3}),
        ],
    )
    def test_source_periods_must_match_and_divide_the_block(
        self, profile, periods, tmp_path, capsys
    ):
        fields = {"levels": 8, "duration": 2.0, "profile": profile, "analysis": {"median_order": 0}}
        for key, period in periods.items():
            n = int(round(4.0 / period))
            pulses = 0.1 + (np.arange(n) % 50 == 25)
            fields[key] = str(tmp_path / f"{key}.csv")
            write_trace_csv(SourceTrace(period, pulses), fields[key])
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(fields))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert "sample period" in capsys.readouterr().err
        assert not (out / "run_report.json").exists()

    def test_import_leaves_scipy_signal_and_stats_out(self):
        code = (
            "import sys, ajscclink.harness, ajscclink.cli; "
            "print(sorted(m for m in ('scipy.signal', 'scipy.stats') if m in sys.modules))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
            env={**os.environ, "PYTHONPATH": str(pathlib.Path(harness.__file__).parents[1])},
        )
        assert proc.stdout.strip() == "[]"
