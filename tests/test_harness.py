"""Harness tests: run orchestration, config round trips, CLI surface."""

import dataclasses
import json
import logging
import math
import multiprocessing
import os
import pathlib
import pickle
import resource
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ajscclink import channel, harness, modem, pool
from ajscclink.analysis import MsePair, PulseEvent, ks_two_sample
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


def count_completions(monkeypatch):
    """Make every BandNoise completion draw append its chunk row to the
    returned list, so a test can count the blocks that completed their band."""
    rows = []
    cursor = channel.BandNoise.cursor

    def counting_cursor(self):
        draw = cursor(self)

        def counted(row, out):
            rows.append(row)
            draw(row, out)

        return counted

    monkeypatch.setattr(channel.BandNoise, "cursor", counting_cursor)
    return rows


def band_and_time_domain_errors(cfg, csnr_db):
    """Decoded errors of 1,024 raw AWGN blocks: with the channel's own noise
    through process and a raw demodulate_stream, and with the receiver's
    band noise through harness._transmit."""
    encoded = np.random.default_rng(1).uniform(0.0, 1.0, 1024)
    spec = ChannelSpec("awgn", csnr_db=csnr_db, seed=5)
    noisy = make_channel(spec, cfg.sample_rate, cfg.fft_size)
    blocks = noisy.process(modulate(encoded, 1.0, cfg))
    reference = demodulate_stream(blocks, 1.0, cfg, interpolate=False) - encoded
    quiet_spec = ChannelSpec("awgn", csnr_db=math.inf, seed=5)
    quiet = make_channel(quiet_spec, cfg.sample_rate, cfg.fft_size)
    band = harness._transmit(encoded, 1.0, cfg, quiet, False, spec) - encoded
    return reference, band


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
        # The worker count splits the transmit's blocks into ranges, each
        # through the channel and the receiver on its own thread.
        # The raw receiver's band noise is drawn by generators of each worker
        # range, and must not depend on the split: at -10 dB the window
        # decides most blocks, at -25 dB most complete their band, and at both
        # the noise moves decoded values.
        completions = count_completions(monkeypatch)
        for interpolate, csnr_db in ((True, 5.0), (False, -10.0), (False, -25.0)):
            config = RunConfig(levels=10, duration=0.25, seed=42, channel_family=family,
                               csnr_db=csnr_db, analysis=quiet_analysis(),
                               interpolate=interpolate)
            payloads = []
            for workers in (1, 2):
                monkeypatch.setattr(pool, "_WORKERS", workers)
                completions.clear()
                report = report_to_dict(run_link(config))
                report.pop("wall_time_s")
                payloads.append(json.dumps(report, sort_keys=True))
            assert payloads[0] == payloads[1]
            if not interpolate:
                assert (len(completions) < 125) == (csnr_db == -10.0)
                noiseless = run_link(dataclasses.replace(config, csnr_db=math.inf))
                assert json.loads(payloads[0])["mse_sum"] != noiseless.mse.total

    def test_zero_block_in_second_worker_range_is_transmit_error(self, monkeypatch):
        # The channel class's own process, patched, still runs split over
        # the calling thread and the pool: block 3/4 of the way through the
        # run, in the second worker's range (the pool's), leaves the channel
        # as zeros.
        config = RunConfig(levels=10, duration=0.25, seed=42, analysis=quiet_analysis())
        zero = 3 * run_link(config).n_blocks // 4
        process, threads = channel._DelayLineChannel.process, set()

        def process_with_zero_block(self, blocks, start_block=0, before=None, cycles=None):
            threads.add(threading.current_thread().name)
            blocks = process(self, blocks, start_block, before, cycles)
            if start_block <= zero < start_block + len(blocks):
                blocks[zero - start_block] = 0.0
            return blocks

        monkeypatch.setattr(pool, "_WORKERS", 2)
        monkeypatch.setattr(channel._DelayLineChannel, "process", process_with_zero_block)
        with pytest.raises(StageError) as excinfo:
            run_link(config)
        caller = threading.current_thread().name
        assert caller in threads, threads
        assert {name.startswith("ajscclink-rows") for name in threads - {caller}} == {True}, threads
        assert excinfo.value.stage == "transmit"
        assert isinstance(excinfo.value.__cause__, DemodError)

    def test_replaced_stages_run_on_the_calling_thread(self, monkeypatch):
        # A wrapper put over a stage from outside, as a span tracer does,
        # may not be thread-safe: then the whole transmit runs on the
        # calling thread, and the payload keeps its bytes.
        monkeypatch.setattr(pool, "_WORKERS", 2)
        config = RunConfig(duration=0.5, seed=5, channel_family="jtc_outdoor_low_a",
                           csnr_db=3.0, doppler_hz=20.0, analysis=quiet_analysis())
        want = report_to_dict(run_link(config))
        threads = []

        def on_this_thread(fn):
            def wrapper(*args, **kwargs):
                threads.append(threading.current_thread())
                return fn(*args, **kwargs)

            return wrapper

        def make_wrapped_channel(*args, **kwargs):
            ch = make_channel(*args, **kwargs)
            ch.process = on_this_thread(ch.process)
            return ch

        for name in ("modulate", "demodulate_stream"):
            monkeypatch.setattr(harness, name, on_this_thread(getattr(harness, name)))
        monkeypatch.setattr(harness, "make_channel", make_wrapped_channel)
        got = report_to_dict(run_link(config))
        assert len(threads) > 3 and set(threads) == {threading.current_thread()}
        want.pop("wall_time_s"), got.pop("wall_time_s")
        assert got == want

    @pytest.mark.parametrize("family", ["awgn", "jtc_outdoor_low_a"])
    def test_reused_chunk_buffer_matches_fresh_chunks(self, family, monkeypatch):
        # Tiles of 5 blocks over 23 blocks, on 1, 2, 3 and 16 workers: each
        # pool thread modulates its tiles into one buffer of its own, and a
        # range that starts mid-stream modulates the block before it for the
        # channel's delays.  The result must equal a loop that modulates
        # every tile into a fresh array and gives the channel the previous
        # tile's input samples.
        cfg = fast_profile()
        tile, n_blocks, full_scale = 5, 23, 2.0
        monkeypatch.setattr(harness, "_TILE_SAMPLES", tile * cfg.fft_size)
        encoded = np.random.default_rng(3).uniform(0, full_scale, n_blocks)
        doppler = 20.0 if family.startswith("jtc") else None
        spec = ChannelSpec(family, csnr_db=0.0, doppler_hz=doppler, seed=11)

        fresh = make_channel(spec, cfg.sample_rate, cfg.fft_size)
        c = fresh.memory
        assert c == (4 if doppler else 0)
        phases = block_start_phases(voltage_to_frequency(encoded, full_scale, cfg), cfg)
        want, before = [], None
        for lo in range(0, n_blocks, tile):
            blocks = modulate(
                encoded[lo : lo + tile], full_scale, cfg, start_phase=phases[lo : lo + tile]
            )
            after = blocks[-1, cfg.fft_size - c :].copy()
            blocks = fresh.process(blocks, lo, before)
            before = after
            want.append(demodulate_stream(blocks, full_scale, cfg))
        want = np.concatenate(want).tobytes()

        shared = make_channel(spec, cfg.sample_rate, cfg.fft_size)
        interval = sys.getswitchinterval()
        try:
            for workers in (1, 2, 3, 16):
                # More ranges than cores share the channel and the pool
                # threads' scratch, under fast thread switching at 16.
                monkeypatch.setattr(pool, "_WORKERS", workers)
                sys.setswitchinterval(1e-5 if workers == 16 else interval)
                got = harness._transmit(encoded, full_scale, cfg, shared, True)
                assert got.tobytes() == want, workers
        finally:
            sys.setswitchinterval(interval)

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
        # Tiles of 1, 7 and 512 blocks over 600, on 1, 2, 3 and 16 workers:
        # the modulator takes the stream's block phases, the channel its
        # nominal signal power and the input samples before each tile, and a
        # worker range that starts mid-stream the block before it, so no tile
        # or range boundary moves a bit of the payload.  The raw receiver's
        # band noise is keyed on the absolute block, not the tile row.
        config = RunConfig(levels=30, duration=0.6, seed=7, channel_family=family,
                           csnr_db=csnr_db, interpolate=interpolate)
        fft_size = config.modem_config().fft_size
        payloads = []
        for tile in (1, 7, 512):
            for workers in (1, 2, 3, 16):
                monkeypatch.setattr(harness, "_TILE_SAMPLES", tile * fft_size)
                monkeypatch.setattr(pool, "_WORKERS", workers)
                report = report_to_dict(run_link(config))
                report.pop("wall_time_s")
                payloads.append(json.dumps(report, sort_keys=True))
        for payload in payloads[1:]:
            assert payload == payloads[0]
        noiseless = run_link(dataclasses.replace(config, csnr_db=math.inf))
        assert json.loads(payloads[0])["mse_sum"] != noiseless.mse.total

    @pytest.mark.parametrize("profile", ["fast", "slow"])
    def test_raw_runs_carry_complex64_tiles(self, profile, monkeypatch):
        # A raw run's tiles are complex64 through modulate, the line and the
        # receiver, an interpolating run's complex128; the raw payload does
        # not depend on the tile (1, 7 or 64 rows) or the worker count.
        config = RunConfig(levels=30, duration=0.6 if profile == "fast" else 2.5, seed=8,
                           profile=profile, channel_family="jtc_outdoor_low_a", csnr_db=0.0,
                           doppler_hz=20.0, interpolate=False,
                           analysis=quiet_analysis(median_order=100))
        fft_size = config.modem_config().fft_size
        process, dtypes = channel._DelayLineChannel.process, set()

        def recorded(self, blocks, *args):
            dtypes.add(blocks.dtype)
            return process(self, blocks, *args)

        monkeypatch.setattr(channel._DelayLineChannel, "process", recorded)
        short = 0.25 if profile == "fast" else 2.5
        run_link(dataclasses.replace(config, interpolate=True, duration=short))
        assert dtypes == {np.dtype(np.complex128)}
        dtypes.clear()
        payloads = set()
        for rows in (1, 7, 64):
            for workers in (1, 2, 3):
                # A complex64 tile holds the bytes of _TILE_SAMPLES complex128 samples.
                monkeypatch.setattr(harness, "_TILE_SAMPLES", rows * fft_size // 2)
                monkeypatch.setattr(pool, "_WORKERS", workers)
                report = report_to_dict(run_link(config))
                report.pop("wall_time_s")
                payloads.add(json.dumps(report, sort_keys=True))
        assert dtypes == {np.dtype(np.complex64)}
        assert len(payloads) == 1

    def test_traced_peak_memory_does_not_grow_with_the_run(self, monkeypatch):
        # Each worker takes its blocks through the link a tile at a time in
        # buffers of its own, so a run's traced peak is those buffers plus
        # the per-block vectors: an 8 s run must peak within 2 MB of a 2 s
        # one, and both far below the 64 MB of one whole-stream chunk.  Each
        # run gets fresh pool threads, so both peaks count the workers'
        # scratch, allocated on their first tile.
        monkeypatch.setattr(pool, "_WORKERS", 2)
        run_link(RunConfig(duration=0.5, seed=1))  # the receiver's cached tables
        peaks = []
        for duration in (2.0, 8.0):
            with ThreadPoolExecutor(max_workers=2) as fresh:
                monkeypatch.setattr(pool, "_POOL", fresh)
                tracemalloc.start()
                try:
                    run_link(RunConfig(duration=duration, seed=1))
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
        assert peaks[0] < 24 << 20
        assert abs(peaks[1] - peaks[0]) < 2 << 20

    @pytest.mark.parametrize("profile", ["fast", "slow"])
    def test_band_noise_errors_match_time_domain_chain(self, profile):
        # In the threshold region, where a third to four fifths of the blocks
        # decode to a wrong bin, the raw receiver's band noise must give the
        # decoded-error distribution of the time-domain reference: the
        # channel's own noise through process and a raw demodulate_stream.
        # A noise level 1 dB off fails the fast case at p < 0.01.
        cfg = fast_profile() if profile == "fast" else slow_profile()
        for csnr_db in (-28.0, -30.0):
            reference, band = band_and_time_domain_errors(cfg, csnr_db)
            assert 0.2 < np.mean(np.abs(band) > 1e-3) < 0.9
            assert ks_two_sample(reference, band).p_value > 0.01

    @pytest.mark.parametrize("profile", ["fast", "slow"])
    def test_band_noise_errors_match_time_domain_chain_where_blocks_mix(
        self, profile, monkeypatch
    ):
        # At -20 dB the window decides some blocks and the others complete
        # their band; the decoded errors must still match the time-domain
        # reference's.
        completions = count_completions(monkeypatch)
        cfg = fast_profile() if profile == "fast" else slow_profile()
        reference, band = band_and_time_domain_errors(cfg, -20.0)
        assert 0 < len(completions) < len(band)
        assert ks_two_sample(reference, band).p_value > 0.01

    @pytest.mark.parametrize("profile", ["fast", "slow"])
    @pytest.mark.parametrize("family", ["awgn", "flat_rayleigh", "jtc_outdoor_low_a"])
    def test_window_decides_as_the_completed_band(self, profile, family, monkeypatch):
        # With eps patched to -1 every block completes its band.  The windowed
        # receiver must decode every block to the same bytes: where the union
        # bound is at most 1e-12 the completion cannot move the peak.  At
        # -20 dB the completion moves peaks of the fading channels, so a
        # receiver that skipped it where the bound asks for it fails here.
        completions = count_completions(monkeypatch)
        cfg = fast_profile() if profile == "fast" else slow_profile()
        encoded = np.random.default_rng(2).uniform(0.0, 1.0, 300)
        doppler = 20.0 if family.startswith("jtc") else None
        for csnr_db in (0.0, -10.0, -20.0):
            spec = ChannelSpec(family, csnr_db=csnr_db, doppler_hz=doppler, seed=5)
            quiet_spec = dataclasses.replace(spec, csnr_db=math.inf)
            decoded = []
            for epsilon in (1e-12, -1.0):
                monkeypatch.setattr(modem, "_EPSILON", epsilon)
                completions.clear()
                quiet = make_channel(quiet_spec, cfg.sample_rate, cfg.fft_size)
                decoded.append(harness._transmit(encoded, 1.0, cfg, quiet, False, spec))
            assert len(completions) == len(encoded)
            assert decoded[0].tobytes() == decoded[1].tobytes()

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

    @pytest.mark.parametrize(
        "despike_width, median_order, calls",
        [(1, 0, []), (3, 0, [2, 2]), (1, 4, [4, 4])],
    )
    def test_median_filters_run_only_where_enabled(
        self, despike_width, median_order, calls, monkeypatch
    ):
        # despike_width 1 and median_order 0 each disable their filter: a run
        # with both calls no median filter, and one with either calls it on
        # the reference and the estimate.
        orders = []
        median_filter = harness.median_filter

        def recording(trace, order):
            orders.append(order)
            return median_filter(trace, order)

        monkeypatch.setattr(harness, "median_filter", recording)
        analysis = AnalysisSettings(median_order=median_order, despike_width=despike_width)
        run_link(RunConfig(levels=8, duration=0.25, analysis=analysis))
        assert orders == calls

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


class TestSplitRows:
    def test_calling_thread_runs_the_first_range(self, monkeypatch):
        # The first range runs on the calling thread and the others on the
        # pool, whose threads and the caller hold one transmit tile each:
        # as many as the pool made ranges before, with the same bytes.
        config = RunConfig(levels=10, duration=0.5, seed=9, analysis=quiet_analysis())
        monkeypatch.setattr(pool, "_WORKERS", 1)
        want = report_to_dict(run_link(config))
        monkeypatch.undo()
        scratch, holders = harness.scratch, set()

        def recorded(slot, *args):
            if slot == "transmit tile":
                holders.add(threading.current_thread().name)
            return scratch(slot, *args)

        monkeypatch.setattr(harness, "scratch", recorded)
        got = report_to_dict(run_link(config))
        want.pop("wall_time_s"), got.pop("wall_time_s")
        assert got == want
        caller = threading.current_thread().name
        if pool._POOL is None:
            assert holders == {caller}
        else:
            assert len(holders) == pool._WORKERS and caller in holders

    @pytest.mark.parametrize("failing", [0, 1, 2])
    def test_an_exception_propagates_once_every_range_finished(self, failing, monkeypatch):
        # Whichever range raises, split_rows waits for the others, then
        # raises the first range's exception in row order.
        monkeypatch.setattr(pool, "_WORKERS", 3)
        if pool._POOL is None:
            monkeypatch.setattr(pool, "_POOL", ThreadPoolExecutor(2))
        finished = []

        def fn(lo, hi):
            if lo == [0, 3, 6][failing]:
                raise ValueError(f"range {failing}")
            threading.Event().wait(0.05)
            finished.append(lo)

        with pytest.raises(ValueError, match=f"range {failing}"):
            pool.split_rows(fn, 9)
        assert sorted(finished) == sorted({0, 3, 6} - {[0, 3, 6][failing]})


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


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _payloads(reports) -> list[str]:
    payloads = [report_to_dict(r) for r in reports]
    for payload in payloads:
        del payload["wall_time_s"]
    return [json.dumps(p, sort_keys=True) for p in payloads]


_TABLE1_SHAPED = [
    RunConfig(levels=levels, duration=0.25, seed=3, channel_family=family, csnr_db=csnr,
              doppler_hz=doppler, analysis=quiet_analysis())
    for family, csnr, doppler in harness._TABLE1_CHANNELS
    for levels in (30, 50)
]


class TestRunDispatch:
    @pytest.mark.parametrize(
        "error", [StageError("transmit", "x"), ConfigError("bad"), DemodError("no peak")],
        ids=["stage", "config", "demod"],
    )
    def test_errors_survive_a_pickle_round_trip(self, error):
        # A run that fails in a worker process raises the same error in the
        # parent, which gets it pickled.
        back = pickle.loads(pickle.dumps(error))
        assert type(back) is type(error)
        assert (str(back), back.args) == (str(error), error.args)
        assert getattr(back, "stage", None) == getattr(error, "stage", None)

    @pytest.mark.parametrize(
        "run",
        [
            lambda: sweep_levels(
                RunConfig(duration=2.0, seed=4, profile="slow", csnr_db=0.0, interpolate=False,
                          analysis=quiet_analysis(median_order=100)),
                [5, 10, 15],
            ),
            lambda: sweep_levels(
                RunConfig(duration=0.25, seed=4, channel_family="jtc_outdoor_low_a",
                          csnr_db=0.0, doppler_hz=20.0, interpolate=False,
                          analysis=quiet_analysis()),
                [5, 10, 15],
            ),
            lambda: harness._run_links(_TABLE1_SHAPED, [str(i) for i in range(8)]),
        ],
        ids=["slow-awgn-raw-sweep", "fast-jtc-outdoor-raw-sweep", "table1-shaped"],
    )
    def test_payloads_independent_of_processes(self, run, monkeypatch):
        # The runs on forked worker processes and in this process give the
        # same bytes, and no worker process outlives the call.
        payloads = []
        for workers in (2, 1):
            monkeypatch.setattr(pool, "_WORKERS", workers)
            children_cpu = _children_cpu_s()
            payloads.append(_payloads(run()))
            assert (_children_cpu_s() > children_cpu) == (workers > 1)
            assert multiprocessing.active_children() == []
        assert payloads[0] == payloads[1]

    def test_first_failing_point_raises_its_stage_error(self, monkeypatch):
        # Points 10 and 15 fail in worker processes: the parent raises the
        # StageError of point 10, the first in point order, with its stage,
        # and no worker process outlives the call.
        parent, load = os.getpid(), harness._load_or_generate_sources

        def failing(config, seeds):
            if config.levels in (10, 15):
                raise RuntimeError(f"levels {config.levels} in process {os.getpid()}")
            return load(config, seeds)

        monkeypatch.setattr(pool, "_WORKERS", 2)
        monkeypatch.setattr(harness, "_load_or_generate_sources", failing)
        config = RunConfig(duration=0.25, seed=4, analysis=quiet_analysis())
        with pytest.raises(StageError) as excinfo:
            sweep_levels(config, [5, 10, 15, 20])
        assert excinfo.value.stage == "generate"
        assert excinfo.value.message.startswith("levels 10 in process ")
        assert int(excinfo.value.message.split()[-1]) != parent
        assert multiprocessing.active_children() == []

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="PR_SET_PDEATHSIG is Linux's")
    def test_worker_processes_die_with_a_killed_parent(self):
        # The parent blocks in the log line of the sweep's first point and
        # is killed there: its worker processes, idle on their call queue,
        # go with it rather than wait for good.
        script = (
            "import logging, multiprocessing, time\n"
            "from ajscclink import harness, pool\n"
            "pool._WORKERS = 2\n"
            "class Hang(logging.Handler):\n"
            "    def emit(self, record):\n"
            "        print(*(p.pid for p in multiprocessing.active_children()), flush=True)\n"
            "        time.sleep(60)\n"
            "log = logging.getLogger('ajscclink.harness')\n"
            "log.addHandler(Hang())\n"
            "log.setLevel(logging.INFO)\n"
            "config = harness.RunConfig(duration=0.25, analysis=harness.AnalysisSettings(0))\n"
            "harness.sweep_levels(config, [5, 10, 15])\n"
        )
        proc = subprocess.Popen(
            [sys.executable, "-c", script], stdout=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONPATH": str(pathlib.Path(harness.__file__).parents[1])},
        )
        try:
            children = [int(pid) for pid in proc.stdout.readline().split()]
        finally:
            proc.kill()
            proc.wait(timeout=10)
            proc.stdout.close()

        def alive(pid):
            try:
                stat = pathlib.Path(f"/proc/{pid}/stat").read_text()
            except FileNotFoundError:
                return False
            return stat.rsplit(")", 1)[1].split()[0] != "Z"

        assert len(children) == 2
        deadline = time.monotonic() + 10
        while any(map(alive, children)) and time.monotonic() < deadline:
            time.sleep(0.05)
        survivors = [pid for pid in children if alive(pid)]
        for pid in survivors:
            os.kill(pid, signal.SIGKILL)
        assert survivors == []

    @pytest.mark.parametrize("name", ["run_link", "decode"])
    def test_replaced_names_keep_the_points_in_this_process(self, name, monkeypatch):
        # A replaced run_link or layer function, as a span tracer installs,
        # sees every point, in order, in this process.
        monkeypatch.setattr(pool, "_WORKERS", 2)
        calls, replaced = [], getattr(harness, name)

        def recording(*args):
            calls.append(os.getpid())
            return replaced(*args)

        monkeypatch.setattr(harness, name, recording)
        config = RunConfig(duration=0.25, seed=4, analysis=quiet_analysis())
        children_cpu = _children_cpu_s()
        reports = sweep_levels(config, [5, 10, 15])
        assert calls == [os.getpid()] * 3
        assert [r.config.levels for r in reports] == [5, 10, 15]
        assert _children_cpu_s() == children_cpu

    @pytest.mark.parametrize("workers", [1, 2])
    def test_sweep_logs_one_line_per_point(self, workers, caplog, monkeypatch):
        monkeypatch.setattr(pool, "_WORKERS", workers)
        caplog.set_level(logging.INFO, logger="ajscclink.harness")
        config = RunConfig(duration=0.25, seed=4, analysis=quiet_analysis())
        reports = sweep_levels(config, [4, 8])
        lines = [r.getMessage() for r in caplog.records if r.name == "ajscclink.harness"]
        assert len(lines) == 2
        for line, report in zip(lines, reports):
            assert line.startswith(f"levels {report.config.levels}: mse_sum {report.mse.total!r}, ")
            assert line.endswith(" s")


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

    def test_path_with_a_nul_byte_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="embedded null byte"):
            load_config(str(tmp_path / "a\0b.json"))

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

    @pytest.mark.parametrize(
        "fields",
        [
            dict(channel_family="awgn", doppler_hz=5.0),
            dict(channel_family="jtc_indoor_a", doppler_hz=-3.0),
        ],
    )
    def test_channel_fields_checked_at_construction(self, fields):
        # The channel's own check runs when the config is built, before any
        # run generates its sources.
        with pytest.raises(ConfigError, match="doppler_hz"):
            RunConfig(**fields)

    @pytest.mark.parametrize("family", ["awgn", "flat_rayleigh"])
    def test_tap_profile_on_a_family_without_taps_rejected(self, family, tmp_path, capsys):
        # Only the multipath families read a tap profile: on the others the
        # path is a ConfigError naming the family when the config is built
        # (exit 2), even where the file is a valid profile.
        taps = tmp_path / "taps.csv"
        taps.write_text("0,0\n1e-6,-3\n")
        with pytest.raises(ConfigError, match=f"{family} has no taps"):
            RunConfig(channel_family=family, tap_profile_path=str(taps))
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(
            {"duration": 0.25, "channel_family": family, "tap_profile_path": str(taps)}
        ))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert f"{family} has no taps" in capsys.readouterr().err
        assert not (out / "run_report.json").exists()

    @pytest.mark.parametrize("profile, ratio", [("fast", 1), ("slow", 10)])
    def test_synthetic_duration_stops_below_2_to_the_32_blocks(self, profile, ratio):
        # Keyed streams take blocks b < 2^32: the last duration whose block
        # count fits is accepted and the next one is a ConfigError, before
        # anything is generated.  Only the configs are built, never run.
        RunConfig(profile=profile, duration=(2**32 - 1) * ratio * 1e-3)
        with pytest.raises(ConfigError, match="2\\^32"):
            RunConfig(profile=profile, duration=2**32 * ratio * 1e-3)
        with pytest.raises(ConfigError, match="2\\^32"):
            RunConfig(profile=profile, duration=2**32 * ratio * 1e-3, gsr_path="gsr.csv")
        with pytest.raises(ConfigError, match="2\\^32"):
            RunConfig(profile=profile, duration=1e306)  # past the float range in samples


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

    @pytest.mark.parametrize("experiment", ["fig5cdf", "fig6a", "table1"])
    def test_failed_call_leaves_no_file(self, experiment, tmp_path, monkeypatch):
        # The experiment's first run succeeds (with peaks enough for a CDF
        # and a K-S test) and its second fails: the call writes no file.
        peaks = [PulseEvent(0.1 * i, 1.0 + 0.01 * i) for i in range(6)]
        calls = []

        def second_fails(config):
            calls.append(config)
            if len(calls) == 2:
                raise StageError("transmit", "injected")
            return SimpleNamespace(
                config=config, mse=MsePair(0.1, 0.2), source_peaks=peaks,
                receiver_peaks=peaks, ks=ks_two_sample([1, 2, 3, 4, 5], [1, 2, 3, 4, 6]),
                wall_time_s=0.0,
            )

        monkeypatch.setattr(harness, "run_link", second_fails)
        with pytest.raises(StageError):
            reproduce(experiment, tmp_path, duration=2.0, levels=[5, 10])
        assert len(calls) == 2
        assert list(tmp_path.iterdir()) == []


class TestCli:
    def test_staircase_command(self, tmp_path, capsys):
        rc = main(["staircase", "--levels", "16", "--points", "128", "--out", str(tmp_path)])
        assert rc == 0
        rows = np.loadtxt(tmp_path / "staircase.csv", delimiter=",", skiprows=1)
        assert np.unique(np.round(rows[:, 1], 12)).size == 16

    @pytest.mark.parametrize("x1", ["nan", "inf"])
    def test_staircase_non_finite_x1_is_config_error(self, x1, tmp_path, capsys):
        rc = main(["staircase", "--x1", x1, "--out", str(tmp_path)])
        assert rc == 2
        assert "x1 must be finite" in capsys.readouterr().err
        assert not (tmp_path / "staircase.csv").exists()

    @pytest.mark.parametrize("text", ["[1, 2]", "null", '"fast"'])
    def test_config_that_is_not_an_object_is_config_error(self, text, tmp_path, capsys):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(text)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert "must be a JSON object" in capsys.readouterr().err
        assert not (out / "run_report.json").exists()

    @pytest.mark.parametrize("interp", [[], ["--no-interp"]], ids=["interp", "raw"])
    @pytest.mark.parametrize("csnr_db", [4000, -4000])
    def test_csnr_past_the_float_range_is_config_error(self, csnr_db, interp, tmp_path, capsys):
        # 10^(csnr_db / 10) overflows or underflows past about +-3,080 dB.
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({
            "levels": 8, "duration": 0.25, "csnr_db": csnr_db, "analysis": {"median_order": 0},
        }))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg_path), *interp, "--out", str(out)]) == 2
        assert "finite positive noise variance" in capsys.readouterr().err
        assert not (out / "run_report.json").exists()

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

    def test_run_overrides_land_in_the_report_config(self, tmp_path):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({
            "levels": 8, "duration": 0.5, "profile": "fast", "channel_family": "awgn",
            "analysis": {"median_order": 0},
        }))
        rc = main(["simulate", "--config", str(cfg_path), "--profile", "slow",
                   "--channel", "jtc-indoor", "--doppler-hz", "2.5", "--levels", "12",
                   "--out", str(tmp_path / "out")])
        assert rc == 0
        config = json.loads((tmp_path / "out" / "run_report.json").read_text())["config"]
        assert config["profile"] == "slow"
        assert config["channel_family"] == "jtc_indoor_a"
        assert config["doppler_hz"] == 2.5
        assert config["levels"] == 12
        assert config["duration"] == 0.5

    @pytest.mark.parametrize(
        "levels, rows", [("4:12:4", [4, 8, 12]), ("4:6", [4, 5, 6]), ("4:11:4", [4, 8])]
    )
    def test_sweep_level_range_includes_its_stop(self, levels, rows, tmp_path):
        rc = main(["sweep", "--levels", levels, "--duration", "0.3", "--csnr-db", "inf",
                   "--no-interp", "--out", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "sweep.csv").read_text().splitlines()[1:]
        assert [int(line.split(",")[0]) for line in lines] == rows

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

    @pytest.mark.parametrize(
        "experiment, duration, case",
        [
            ("fig5cdf", "0.3", "the awgn run's source trace holds no peaks"),
            ("table1", "0.5", "table1 case 1 (awgn, 30 levels): too few peaks for the K-S test"),
        ],
    )
    def test_too_short_reproduce_is_config_error(self, experiment, duration, case, tmp_path, capsys):
        # At seed 1 these durations leave the first case too few peaks for
        # its CDF or K-S test: exit 2 with a message that names the
        # experiment, the case and the duration, and no file written.
        out = tmp_path / "out"
        assert main(["reproduce", "--id", experiment, "--duration", duration, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert experiment in err and case in err and f"duration {duration} s" in err
        assert list(out.iterdir()) == []

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        assert main(["simulate", "--config", str(bad), "--out", str(tmp_path)]) == 2
        # A config file that is missing or a directory, and an --out that
        # names a file, or lies under one, each name their path.
        out = tmp_path / "out"
        for path in (tmp_path / "absent.json", tmp_path, bad / "run.json"):
            capsys.readouterr()
            assert main(["simulate", "--config", str(path), "--out", str(out)]) == 2
            assert str(path) in capsys.readouterr().err
        for path in (bad, bad / "out"):
            capsys.readouterr()
            assert main(["simulate", "--out", str(path)]) == 2
            assert str(path) in capsys.readouterr().err
        assert not (out / "run_report.json").exists()

    def test_config_file_that_is_not_utf8_is_config_error(self, tmp_path, capsys):
        bad = tmp_path / "run.json"
        bad.write_bytes(b'\xff\xfe{"levels": 8}')
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(bad), "--out", str(out)]) == 2
        assert str(bad) in capsys.readouterr().err
        assert not (out / "run_report.json").exists()

    @pytest.mark.parametrize(
        "profile, message",
        [("latin.csv", "latin.csv: 'utf-8' codec"), ("a\u0000b.csv", "embedded null byte")],
        ids=["not-utf8", "nul"],
    )
    def test_unreadable_tap_profile_is_config_error(
        self, profile, message, tmp_path, monkeypatch, capsys
    ):
        # A tap profile that is not UTF-8, or whose path holds a NUL byte,
        # fails in channel set-up as a config error.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "latin.csv").write_bytes(b"\xff\xfe0,0\n")
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({
            "levels": 8, "duration": 2.0, "channel_family": "jtc_indoor_a",
            "tap_profile_path": profile,
        }))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not (out / "run_report.json").exists()

    def test_runtime_error_exit_code(self, tmp_path, monkeypatch):
        import ajscclink.cli as cli_mod

        def boom(config):
            raise RuntimeError("stage blew up")

        monkeypatch.setattr(cli_mod, "run_link", boom)
        assert main(["simulate", "--out", str(tmp_path)]) == 3

    def test_duration_past_the_block_range_is_config_error(self, tmp_path, capsys):
        # 1e12 s is 1e15 blocks: a ConfigError at the config, not an
        # allocation error from the generate stage.
        assert main(["simulate", "--duration", "1e12", "--out", str(tmp_path)]) == 2
        assert "2^32" in capsys.readouterr().err
        assert not (tmp_path / "run_report.json").exists()

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
            # A Doppler on the default AWGN channel, which has none.
            {"doppler_hz": 5.0},
            # 200 slow blocks against the default median_order 200.
            {"duration": 2.0, "profile": "slow"},
            # The default peak separation, 2 * pulse_width, under one 10 ms block.
            {"profile": "slow", "duration": 3.0, "cytometry": {"pulse_width": 0.004}},
            {"seed": -1},
            {"seed": "x"},
            {"duration": float("inf")},
            {"channel_family": "jtc_indoor_a", "tap_profile_path": "/nonexistent/taps.csv"},
            {"cytometry": {"pulse_rate": float("nan")}},
            {"gsr": {"drift_scale": float("inf")}},
            {"interpolate": "false"},
            # Paths that name a directory.
            {"channel_family": "jtc_indoor_a", "tap_profile_path": "."},
            {"gsr_path": "."},
            {"cytometry_path": "."},
            # Malformed trace files, written by the test into its directory.
            {"gsr_path": "one_column.csv"},
            {"gsr_path": "non_numeric.csv"},
            # A file as a directory component of the path.
            {"channel_family": "jtc_indoor_a", "tap_profile_path": "one_column.csv/x.csv"},
            # A NaN tap delay, which the delay-order check alone lets through.
            {"channel_family": "jtc_outdoor_low_a", "tap_profile_path": "nan_delay.csv"},
            # JSON true and false are no integers: they would run as seed 1,
            # despike width 1 (no despike) and median order 0 (no median).
            {"seed": True},
            {"analysis": {"despike_width": True}},
            {"analysis": {"median_order": False}},
            {"duration": True},
            {"csnr_db": True},
            {"x1_max": True},
            {"cytometry": {"pulse_rate": True}},
            {"channel_family": "jtc_indoor_a", "doppler_hz": False},
            # Paths that are no path: open(True) and open(5) would take file
            # descriptors 1 and 5, and np.loadtxt(["a"]) reads data lines.
            {"tap_profile_path": True},
            {"tap_profile_path": 5},
            {"gsr_path": ["a"]},
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

    def test_traces_shorter_than_one_slow_block_are_config_error(self, tmp_path, capsys):
        # Five 1 ms samples against one 10 ms slow block.
        fields = {"levels": 8, "profile": "slow", "analysis": {"median_order": 0}}
        for key in ("cytometry_path", "gsr_path"):
            fields[key] = str(tmp_path / f"{key}.csv")
            write_trace_csv(SourceTrace(1e-3, np.full(5, 0.5)), fields[key])
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(fields))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert "too short for one FFT block" in capsys.readouterr().err
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

    def test_run_path_imports_no_scipy(self):
        # The receiver's paths: the interpolating one at inf (bounds only) and
        # at -10 dB (the fallback's FFT of x c), and the raw one at -25 dB on
        # the slow profile (band noise, completed over the whole band).
        code = """
import json, sys
import ajscclink.cli
from ajscclink.harness import config_from_dict, run_link
for fields in json.loads(sys.argv[1]):
    run_link(config_from_dict({"levels": 30, "seed": 1, **fields}))
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""
        runs = [
            {"duration": 0.25},
            {"duration": 0.25, "csnr_db": -10.0},
            {"duration": 2.5, "profile": "slow", "csnr_db": -25.0, "interpolate": False},
        ]
        proc = subprocess.run(
            [sys.executable, "-c", code, json.dumps(runs)],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
            env={**os.environ, "PYTHONPATH": str(pathlib.Path(harness.__file__).parents[1])},
        )
        assert proc.stdout.strip() == "[]"
