"""Run orchestration: single link runs, level sweeps, figure reproduction.

A run executes generate -> rescale -> encode -> modulate -> channel ->
demodulate -> decode -> filter -> metrics, deterministically for a given
(config, seed).  The three middle stages are one transmit stage: one row
split of all the run's blocks over the pool (``pool.split_rows``, the
package's only dispatch to it), in which each worker takes its blocks
through modulate, the channel's process and demodulate_stream, each a
serial kernel on the worker's thread, one tile (``_TILE_SAMPLES``) at a
time, so a run's memory does not grow with its length.  The channel gets
each tile's tone frequencies, so that its line takes one complex multiply
per block (``channel``).  Where one of those stages has been replaced from
outside, the split is one range on the calling thread.  Sweeps derive one
independent seed per point from the master seed, the level count, and the
channel family.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import json
import math
import os
import pathlib
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .analysis import (
    KsResult,
    MsePair,
    PulseEvent,
    detect_peaks,
    ks_two_sample,
    median_filter,
    mse,
    threshold_filter,
    write_cdf_csv,
)
from .channel import FAMILIES, BandNoise, ChannelSpec, load_profile, make_channel, noise_deviation
from .codec import AjsccParams, decode, encode, staircase
from .errors import ConfigError, StageError, is_int, is_real
from .modem import (
    ModemConfig,
    block_start_phases,
    demodulate_stream,
    fast_profile,
    modulate,
    slow_profile,
    voltage_to_frequency,
)
from .pool import scratch, split_rows
from .sources import (
    CytometrySynthSpec,
    GsrSynthSpec,
    SourceTrace,
    gen_cytometry,
    gen_gsr,
    read_trace_csv,
    rescale,
)

SOURCE_SAMPLE_PERIOD = 1e-3
# Samples per transmit tile: 4 MB of complex128, 32 blocks at fft_size 8192.
# On a 2-vCPU Xeon VM, tiles of 2, 4 and 8 MB took medians (15 runs each) of
# 150, 122 and 130 ms per 2 s noiseless fast interpolating run, 120, 116 and
# 111 ms per 1 s JTC outdoor raw run, 1.46, 1.42 and 1.38 s per 5 s AWGN 0 dB
# fast interpolating run and 25.5, 25.4 and 25.0 ms per 3 s slow raw run;
# each worker holds one tile.  Re-timed once the receiver's per-call set-up
# was built once per config: linkbench medians of 4 runs of 8 s at tiles of
# 1, 2 and 4 MB read link_s_per_ref 0.280, 0.392 and 0.486 (noiseless fast
# interpolating), 0.175, 0.228 and 0.267 (JTC outdoor raw) and 3.12, 4.44
# and 4.81 (slow AWGN sweep), with peak_rss_mb 45.5, 48.0 and 52.8; 51.5,
# 56.7 and 61.5; 43.9, 46.3 and 50.8.  Re-timed once the modem's products
# were real BLAS products: medians of 15 run_link calls in each of 3
# alternating rounds at tiles of 2, 4 and 8 MB took 117-139, 91-110 and
# 87-100 ms (2 s noiseless fast interpolating), 70-96, 60-68 and 51-58 ms
# (1 s JTC outdoor raw) and 17-18, 12-14 and 11-15 ms (one 3 s slow point),
# with a process's peak RSS at 47-48, 51-52 and 59-60 MB; 53, 57 and 65-66;
# 45, 49-50 and 57-58.  4 MB stays: 8 MB tiles are faster on the fast
# profile, but each worker holds one, so they cost 8 MB of RSS (15%).
_TILE_SAMPLES = 1 << 18
# modulate and demodulate_stream as the modem defines them (see _transmit).
_LAYER_STAGES = (modulate, demodulate_stream)


def _is_finite(x) -> bool:
    return is_real(x) and math.isfinite(x)


@dataclass(frozen=True)
class AnalysisSettings:
    """Receiver-side cleanup and peak-detection knobs.

    None values resolve at run time: peak_min_height to 0.3 * x1_max,
    peak_min_separation to 2 * pulse_width, threshold to 0.1 * x1_max.

    The pulse channel is despiked (short median, width despike_width;
    1 disables) before MSE, and additionally threshold-filtered before peak
    detection so the inter-pulse floor cannot spawn events.  The slow
    channel is smoothed by a median of the given order (0 disables) before
    MSE.  Reference and estimate go through identical pipelines so the
    metrics compare like with like.
    """

    peak_min_height: float | None = None
    peak_min_separation: float | None = None
    threshold: float | None = None
    median_order: int = 200
    despike_width: int = 3

    def __post_init__(self):
        for name in ("peak_min_height", "peak_min_separation", "threshold"):
            v = getattr(self, name)
            if v is not None and not _is_finite(v):
                raise ConfigError(f"analysis.{name} must be finite or None, got {v!r}")
        m, w = self.median_order, self.despike_width
        if not (is_int(m) and (m == 0 or (m >= 2 and m % 2 == 0))):
            raise ConfigError(f"analysis.median_order must be 0 or an even integer >= 2, got {m!r}")
        if not (is_int(w) and w >= 1 and w % 2 == 1):
            raise ConfigError(f"analysis.despike_width must be an odd integer >= 1, got {w!r}")


@dataclass(frozen=True)
class RunConfig:
    levels: int = 30
    duration: float = 30.0
    seed: int = 1
    profile: str = "fast"
    channel_family: str = "awgn"
    csnr_db: float = float("inf")
    doppler_hz: float | None = None
    tap_profile_path: str | None = None
    x1_max: float = 2.25
    x2_max: float = 3.0
    level_height: float | None = None
    cytometry: CytometrySynthSpec = field(default_factory=CytometrySynthSpec)
    gsr: GsrSynthSpec = field(default_factory=GsrSynthSpec)
    cytometry_path: str | None = None
    gsr_path: str | None = None
    x1_input_range: tuple[float, float] | None = None
    x2_input_range: tuple[float, float] | None = None
    analysis: AnalysisSettings = field(default_factory=AnalysisSettings)
    interpolate: bool = True

    def __post_init__(self):
        if self.profile not in ("fast", "slow"):
            raise ConfigError(f"profile must be 'fast' or 'slow', got {self.profile!r}")
        if self.channel_family not in FAMILIES:
            raise ConfigError(
                f"channel_family must be one of {FAMILIES}, got {self.channel_family!r}"
            )
        if not (is_int(self.seed) and self.seed >= 0):
            raise ConfigError(f"seed must be an integer >= 0, got {self.seed!r}")
        if not isinstance(self.interpolate, bool):
            raise ConfigError(f"interpolate must be true or false, got {self.interpolate!r}")
        if not (_is_finite(self.duration) and self.duration > 0):
            raise ConfigError(f"duration must be finite and > 0, got {self.duration!r}")
        if not (_is_finite(self.csnr_db) or self.csnr_db == math.inf):
            raise ConfigError(f"csnr_db must be finite or inf, got {self.csnr_db!r}")
        noise_deviation(self.csnr_db)  # a ConfigError past the float range
        if self.doppler_hz is not None and not _is_finite(self.doppler_hz):
            raise ConfigError(f"doppler_hz must be finite or None, got {self.doppler_hz!r}")
        for name in ("tap_profile_path", "cytometry_path", "gsr_path"):
            path = getattr(self, name)
            if path is not None and not isinstance(path, (str, os.PathLike)):
                raise ConfigError(f"{name} must be a path string or None, got {path!r}")
        for name in ("x1_input_range", "x2_input_range"):
            r = getattr(self, name)
            if r is not None and not (
                isinstance(r, (tuple, list))
                and len(r) == 2
                and all(_is_finite(v) for v in r)
                and r[0] < r[1]
            ):
                raise ConfigError(f"{name} must be a (lo, hi) pair with lo < hi, got {r!r}")
        self.ajscc_params()
        min_sep = self.peak_min_separation()
        block_period = self.modem_config().block_period
        if self.cytometry_path is None or self.gsr_path is None:
            # A synthetic source holds round(duration / SOURCE_SAMPLE_PERIOD)
            # samples, one block per block period of them, and the channel's
            # keyed streams take blocks b < 2^32 (channel.KeyedBlocks).
            # (min() keeps a quotient past the float range off round(inf).)
            samples = round(min(self.duration / SOURCE_SAMPLE_PERIOD, 2.0**64))
            if samples // round(block_period / SOURCE_SAMPLE_PERIOD) >= 1 << 32:
                raise ConfigError(
                    f"duration {self.duration!r} s holds 2^32 or more blocks of "
                    f"{block_period!r} s; the link takes fewer"
                )
        if min_sep < block_period:
            raise ConfigError(
                f"the peak separation (analysis.peak_min_separation, by default "
                f"2 * cytometry.pulse_width) must be >= one block period "
                f"({block_period!r} s), got {min_sep!r}"
            )

    def ajscc_params(self) -> AjsccParams:
        return AjsccParams(
            levels=self.levels,
            x1_max=self.x1_max,
            x2_max=self.x2_max,
            level_height=self.level_height,
        )

    def modem_config(self) -> ModemConfig:
        return fast_profile() if self.profile == "fast" else slow_profile()

    def peak_min_separation(self) -> float:
        """analysis.peak_min_separation, or 2 * cytometry.pulse_width if None."""
        sep = self.analysis.peak_min_separation
        return sep if sep is not None else 2.0 * self.cytometry.pulse_width


@dataclass(frozen=True)
class RunReport:
    config: RunConfig
    mse: MsePair
    source_peaks: list[PulseEvent]
    receiver_peaks: list[PulseEvent]
    ks: KsResult | None
    n_blocks: int
    wall_time_s: float
    version: str = __version__


def derive_seed(master_seed: int, levels: int, family: str) -> int:
    """Stable per-run seed from (master seed, L, channel family)."""
    digest = hashlib.sha256(f"{master_seed}:{levels}:{family}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _read_trace(path) -> SourceTrace:
    # The configured path names the file: np.loadtxt's FileNotFoundError
    # carries no filename.
    try:
        return read_trace_csv(path)
    except FileNotFoundError as exc:
        raise ConfigError(f"referenced trace file not found: {path}") from exc
    except (IsADirectoryError, PermissionError) as exc:
        raise ConfigError(f"cannot read trace file {path}: {exc.strerror}") from exc


def _load_or_generate_sources(config: RunConfig, seeds) -> tuple[SourceTrace, SourceTrace]:
    cyt_seed, gsr_seed = seeds
    if config.cytometry_path is not None:
        cyt = _read_trace(config.cytometry_path)
    else:
        cyt = gen_cytometry(config.cytometry, config.duration, SOURCE_SAMPLE_PERIOD, cyt_seed)
    if config.gsr_path is not None:
        gsr = _read_trace(config.gsr_path)
    else:
        gsr = gen_gsr(config.gsr, config.duration, SOURCE_SAMPLE_PERIOD, gsr_seed)
    n = min(cyt.samples.size, gsr.samples.size)
    if cyt.samples.size != gsr.samples.size:
        cyt = SourceTrace(cyt.sample_period, cyt.samples[:n])
        gsr = SourceTrace(gsr.sample_period, gsr.samples[:n])
    return cyt, gsr


def _input_ranges(config: RunConfig) -> tuple[tuple[float, float], tuple[float, float]]:
    r1 = config.x1_input_range
    if r1 is None:
        spec = config.cytometry
        r1 = (0.0, spec.baseline + spec.peak_amplitude_mean + 3 * spec.peak_amplitude_sd)
    r2 = config.x2_input_range
    if r2 is None:
        r2 = (0.0, config.gsr.conductance_max)
    return tuple(r1), tuple(r2)


def _resolved_analysis(config: RunConfig) -> tuple[float, float, float, int, int]:
    a = config.analysis
    min_height = a.peak_min_height if a.peak_min_height is not None else 0.3 * config.x1_max
    min_sep = config.peak_min_separation()
    threshold = a.threshold if a.threshold is not None else 0.1 * config.x1_max
    return min_height, min_sep, threshold, a.median_order, a.despike_width


def _despike(trace: SourceTrace, despike_width: int) -> SourceTrace:
    if despike_width > 1:
        return median_filter(trace, despike_width - 1)
    return trace


def _transmit(
    encoded: np.ndarray,
    full_scale: float,
    cfg: ModemConfig,
    channel,
    interpolate: bool,
    noise_spec: ChannelSpec | None = None,
) -> np.ndarray:
    """Modulate, fade, and demodulate a whole encoded stream, a tile at a time.

    noise_spec, for the raw receiver only, is the spec whose CSNR and seed
    set the noise that the receiver adds to its in-band bins
    (``channel.BandNoise``); the channel then adds none itself.
    """
    # The stages run on the pool threads only as their layers define them: a
    # stage replaced from outside, such as a timing wrapper, may not be
    # thread-safe, so the whole transmit then runs on this thread.
    own = (
        modulate is _LAYER_STAGES[0]
        and demodulate_stream is _LAYER_STAGES[1]
        and getattr(channel.process, "__func__", None) is type(channel).process
    )
    encoded = np.atleast_1d(encoded)
    freqs = np.atleast_1d(voltage_to_frequency(encoded, full_scale, cfg))
    phases = block_start_phases(freqs, cfg)
    cycles = freqs / cfg.sample_rate  # the tones, for the channel's line
    n_blocks, n, c = freqs.size, cfg.fft_size, channel.memory
    tile = max(1, min(_TILE_SAMPLES // n, n_blocks))
    noise = None if noise_spec is None else BandNoise(noise_spec, n, 0, n_blocks)
    out = np.empty(n_blocks)

    # Each worker takes its range of blocks through modulate, process and
    # demodulate_stream one tile at a time, in its thread's tile buffer, so
    # that a tile stays in the core's cache from its first write to its last
    # read; the layers compute their rows on this worker's thread (see
    # ``pool``).  Each tile takes its slice of the stream's block phases, and
    # the channel gets the tile's tone frequencies and the last c input
    # samples of the block before the tile, so no byte depends on the tile
    # size or the worker count.
    def rows(lo: int, hi: int) -> None:
        buf = scratch("transmit tile", (tile, n), np.complex128)
        tails = scratch("transmit tails", (2, c), np.complex128)
        before = None
        with channel.block_range(lo, hi):
            if lo and c:
                # A range that starts mid-stream modulates the block before
                # it for that block's last c samples.
                modulate(encoded[lo - 1 : lo], full_scale, cfg, start_phase=phases[lo - 1 : lo],
                         out=buf[:1])
                before = tails[0]
                before[:] = buf[0, n - c :]
            for i, t in enumerate(range(lo, hi, tile)):
                u = min(t + tile, hi)
                blocks = modulate(
                    encoded[t:u], full_scale, cfg, start_phase=phases[t:u], out=buf[: u - t]
                )
                after = tails[(i + 1) % 2]
                after[:] = blocks[-1, n - c :]  # process writes over the tile
                blocks = channel.process(blocks, t, before, cycles[t:u])
                before = after if c else None
                out[t:u] = demodulate_stream(
                    blocks, full_scale, cfg, interpolate=interpolate,
                    band_noise=None if noise is None else noise.rows(t, u),
                )

    split_rows(rows, n_blocks, inline=not own)
    return out


@contextlib.contextmanager
def _stage(name: str):
    """Run one pipeline stage: a ConfigError passes through, and any other
    exception becomes StageError(name) chained from it."""
    try:
        yield
    except ConfigError:
        raise
    except Exception as exc:
        raise StageError(name, str(exc)) from exc


def run_link(config: RunConfig) -> RunReport:
    """Execute one full link simulation and collect metrics."""
    t_start = time.perf_counter()
    params = config.ajscc_params()
    cfg = config.modem_config()
    cyt_seed, gsr_seed, channel_seed = (
        int(s.generate_state(1)[0]) for s in np.random.SeedSequence(config.seed).spawn(3)
    )

    with _stage("generate"):
        cyt, gsr = _load_or_generate_sources(config, (cyt_seed, gsr_seed))

    (x1_lo, x1_hi), (x2_lo, x2_hi) = _input_ranges(config)
    with _stage("rescale"):
        x1_ref = rescale(cyt, x1_lo, x1_hi, 0.0, params.x1_max)
        x2_ref = rescale(gsr, x2_lo, x2_hi, 0.0, params.x2_max)

    # One encoded sample per FFT block: sample-and-hold the sources at the
    # block rate (factor 1 for the fast profile, 10 for the slow one).
    period = x1_ref.sample_period
    if not math.isclose(x2_ref.sample_period, period, rel_tol=1e-6):
        raise ConfigError(
            f"the cytometry and GSR traces must share one sample period, got "
            f"{period!r} s and {x2_ref.sample_period!r} s"
        )
    ratio = int(round(cfg.block_period / period))
    if ratio < 1 or not math.isclose(ratio * period, cfg.block_period, rel_tol=1e-6):
        raise ConfigError(
            f"the source sample period {period!r} s must divide the "
            f"{config.profile} block period {cfg.block_period!r} s a whole number of times"
        )
    n_blocks = x1_ref.samples.size // ratio
    if n_blocks == 0:
        raise ConfigError("duration too short for one FFT block")
    a = config.analysis
    window = max(a.median_order, a.despike_width - 1)  # 0 for a disabled filter
    if n_blocks <= window:
        raise ConfigError(
            f"duration too short for the median filters: {n_blocks} blocks must exceed "
            f"{window} (analysis.median_order {a.median_order}, "
            f"despike_width {a.despike_width})"
        )
    x1_in = x1_ref.samples[: n_blocks * ratio : ratio]
    x2_in = x2_ref.samples[: n_blocks * ratio : ratio]

    with _stage("encode"):
        encoded = np.atleast_1d(encode(x1_in, x2_in, params))

    with _stage("channel-setup"):
        path = config.tap_profile_path
        spec = ChannelSpec(
            family=config.channel_family,
            csnr_db=config.csnr_db,
            doppler_hz=config.doppler_hz,
            tap_profile=None if path is None else load_profile(path),
            seed=channel_seed,
        )
        # The raw receiver reads only the in-band bins of each block's DFT,
        # so it draws the noise there: the channel applies only the fading.
        noise_spec = None
        if not config.interpolate and spec.csnr_db != math.inf:
            noise_spec, spec = spec, dataclasses.replace(spec, csnr_db=math.inf)
        channel = make_channel(spec, cfg.sample_rate, cfg.fft_size)

    with _stage("transmit"):
        decoded_v = _transmit(
            encoded, params.full_scale, cfg, channel, config.interpolate, noise_spec
        )

    with _stage("decode"):
        x1_hat, x2_hat = decode(decoded_v, params)

    block_period = cfg.block_period
    x1_ref_t = SourceTrace(block_period, x1_in)
    x2_ref_t = SourceTrace(block_period, x2_in)
    x1_est_t = SourceTrace(block_period, x1_hat)
    x2_est_t = SourceTrace(block_period, x2_hat)

    min_height, min_sep, threshold, median_order, despike = _resolved_analysis(config)
    with _stage("filter"):
        x1_ref_f = _despike(x1_ref_t, despike)
        x1_est_f = _despike(x1_est_t, despike)
        x1_ref_p = threshold_filter(x1_ref_f, threshold)
        x1_est_p = threshold_filter(x1_est_f, threshold)
        if median_order:
            x2_ref_f = median_filter(x2_ref_t, median_order)
            x2_est_f = median_filter(x2_est_t, median_order)
        else:
            x2_ref_f, x2_est_f = x2_ref_t, x2_est_t

    with _stage("metrics"):
        pair = MsePair(mse_x1=mse(x1_ref_f, x1_est_f), mse_x2=mse(x2_ref_f, x2_est_f))
        src_peaks = detect_peaks(x1_ref_p, min_height, min_sep)
        rx_peaks = detect_peaks(x1_est_p, min_height, min_sep)
        ks = None
        if len(src_peaks) >= 5 and len(rx_peaks) >= 5:
            ks = ks_two_sample(
                [p.peak_value for p in src_peaks], [p.peak_value for p in rx_peaks]
            )

    return RunReport(
        config=config,
        mse=pair,
        source_peaks=src_peaks,
        receiver_peaks=rx_peaks,
        ks=ks,
        n_blocks=n_blocks,
        wall_time_s=time.perf_counter() - t_start,
    )


def sweep_levels(config: RunConfig, l_values) -> list[RunReport]:
    """Run one link per level count, with independent derived seeds."""
    reports = []
    for levels in l_values:
        run_seed = derive_seed(config.seed, int(levels), config.channel_family)
        cfg = dataclasses.replace(config, levels=int(levels), seed=run_seed)
        reports.append(run_link(cfg))
    return reports


# ---------------------------------------------------------------------------
# Serialization


def _float_out(x):
    if isinstance(x, float) and np.isinf(x):
        return "inf" if x > 0 else "-inf"
    return x


def _float_in(x):
    if isinstance(x, str):
        return float(x)
    return x


def config_to_dict(config: RunConfig) -> dict:
    d = dataclasses.asdict(config)
    d["csnr_db"] = _float_out(d["csnr_db"])
    return d


_NESTED_SPECS = {
    "cytometry": CytometrySynthSpec,
    "gsr": GsrSynthSpec,
    "analysis": AnalysisSettings,
}


def config_from_dict(d: dict) -> RunConfig:
    if not isinstance(d, dict):
        raise ConfigError(f"a config must be a JSON object, got {type(d).__name__}")
    d = dict(d)
    unknown = set(d) - {f.name for f in dataclasses.fields(RunConfig)}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    try:
        if "csnr_db" in d:
            d["csnr_db"] = _float_in(d["csnr_db"])
        for key, spec in _NESTED_SPECS.items():
            if key in d and not isinstance(d[key], spec):
                if not isinstance(d[key], dict):
                    raise ConfigError(f"{key} must be an object, got {d[key]!r}")
                d[key] = spec(**d[key])
        for key in ("x1_input_range", "x2_input_range"):
            if isinstance(d.get(key), list):
                d[key] = tuple(d[key])
        return RunConfig(**d)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path) -> RunConfig:
    try:
        fh = open(path)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except (IsADirectoryError, NotADirectoryError, PermissionError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from exc
    with fh:
        try:
            data = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ConfigError(f"{path}: {exc}") from exc
    return config_from_dict(data)


def report_to_dict(report: RunReport) -> dict:
    return {
        "config": config_to_dict(report.config),
        "mse_x1": report.mse.mse_x1,
        "mse_x2": report.mse.mse_x2,
        "mse_sum": report.mse.total,
        "source_peaks": [[p.time, p.peak_value] for p in report.source_peaks],
        "receiver_peaks": [[p.time, p.peak_value] for p in report.receiver_peaks],
        "ks": None
        if report.ks is None
        else {
            "statistic": report.ks.statistic,
            "p_value": report.ks.p_value,
            "reject_at_5pct": report.ks.reject_at_5pct,
        },
        "n_blocks": report.n_blocks,
        "wall_time_s": report.wall_time_s,
        "version": report.version,
        "synthetic_sources": report.config.cytometry_path is None
        and report.config.gsr_path is None,
    }


def write_report_json(report: RunReport, path) -> None:
    with open(path, "w", newline="\n") as fh:
        json.dump(report_to_dict(report), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def write_sweep_csv(reports: list[RunReport], path) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write("levels,mse_x1,mse_x2,mse_sum\n")
        for r in reports:
            fh.write(f"{r.config.levels},{r.mse.mse_x1!r},{r.mse.mse_x2!r},{r.mse.total!r}\n")


def write_staircase_csv(curve: np.ndarray, path) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write("x2,encoded\n")
        for x2, enc in curve:
            fh.write(f"{float(x2)!r},{float(enc)!r}\n")


# ---------------------------------------------------------------------------
# Figure / table reproduction

EXPERIMENT_IDS = ("fig4", "fig5cdf", "fig6a", "fig6b", "fig7a", "fig7b", "fig7c", "table1")

_TABLE1_CHANNELS = (
    ("awgn", 0.0, None),
    ("flat_rayleigh", 0.0, None),
    ("jtc_indoor_a", 10.0, 5.0),
    ("jtc_outdoor_low_a", 10.0, 20.0),
)


def _reproduce_config(seed: int, duration: float, **overrides) -> RunConfig:
    base = dict(seed=seed, duration=duration)
    base.update(overrides)
    return RunConfig(**base)


def _write_table1_csv(rows: list[str], path) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(
            "case,channel,levels,csnr_db,doppler_hz,n_source_peaks,"
            "n_receiver_peaks,ks_statistic,p_value,reject_at_5pct\n"
        )
        fh.writelines(rows)


def _peak_values(peaks: list[PulseEvent], experiment_id: str, case: str, duration: float) -> list:
    """The peaks' values for an empirical CDF, which needs at least one."""
    if not peaks:
        raise ConfigError(
            f"{experiment_id}: the {case} holds no peaks at duration {duration!r} s; "
            f"an empirical CDF needs at least one (use a longer duration)"
        )
    return [p.peak_value for p in peaks]


def reproduce(
    experiment_id: str, out_dir, seed: int = 1, duration: float = 20.0, levels=None
) -> list:
    """Regenerate a figure or table dataset as CSV files in out_dir.

    Returns the list of written file paths.  Uses synthetic sources; sweeps
    and table rows follow the reference experiment layout.  levels narrows
    the sweep grid of the MSE figures (default 5..100 step 5); peak-CDF and
    K-S experiments want durations of 20 s or more for stable peak counts,
    and a duration too short for a case's peak CDF or K-S test is a
    ConfigError naming the case.  The files are written only once every run
    of the experiment has succeeded, so a failed call leaves none of them.
    """
    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    files = []  # (file name, write(path)), written once every run has succeeded

    if experiment_id == "fig4":
        params = AjsccParams(levels=16)
        curve = staircase(params, x1_fixed=params.x1_max / 2, n_points=4096)
        files.append(("fig4_staircase.csv", functools.partial(write_staircase_csv, curve)))

    elif experiment_id == "fig5cdf":
        for family, csnr, doppler in _TABLE1_CHANNELS:
            cfg = _reproduce_config(
                seed, duration, levels=30, channel_family=family, csnr_db=csnr, doppler_hz=doppler
            )
            report = run_link(cfg)
            if not files:
                values = _peak_values(
                    report.source_peaks, experiment_id, f"{family} run's source trace", duration
                )
                files.append(("fig5_cdf_source.csv", functools.partial(write_cdf_csv, values)))
            values = _peak_values(
                report.receiver_peaks, experiment_id, f"{family} run's receiver trace", duration
            )
            files.append((f"fig5_cdf_{family}.csv", functools.partial(write_cdf_csv, values)))

    elif experiment_id in ("fig6a", "fig6b", "fig7a", "fig7b", "fig7c"):
        # The trade-off curves assume the raw FFT-bin readout; sub-bin
        # interpolation would push the noise floor far below it.
        setups = {
            "fig6a": dict(profile="fast", channel_family="awgn", csnr_db=0.0),
            "fig6b": dict(profile="slow", channel_family="awgn", csnr_db=0.0),
            "fig7a": dict(profile="fast", channel_family="jtc_indoor_a", csnr_db=0.0, doppler_hz=5.0),
            "fig7b": dict(
                profile="fast", channel_family="jtc_outdoor_low_a", csnr_db=0.0, doppler_hz=20.0
            ),
            "fig7c": dict(
                profile="fast", channel_family="jtc_outdoor_low_a", csnr_db=10.0, doppler_hz=20.0
            ),
        }
        cfg = _reproduce_config(seed, duration, interpolate=False, **setups[experiment_id])
        reports = sweep_levels(cfg, levels if levels is not None else range(5, 101, 5))
        files.append(
            (f"{experiment_id}_mse_vs_levels.csv", functools.partial(write_sweep_csv, reports))
        )

    elif experiment_id == "table1":
        rows = []
        for family, csnr, doppler in _TABLE1_CHANNELS:
            for levels in (30, 50):
                case = len(rows) + 1
                cfg = _reproduce_config(
                    seed,
                    duration,
                    levels=levels,
                    channel_family=family,
                    csnr_db=csnr,
                    doppler_hz=doppler,
                )
                report = run_link(cfg)
                ks = report.ks
                if ks is None:
                    raise ConfigError(
                        f"table1 case {case} ({family}, {levels} levels): too few peaks for "
                        f"the K-S test at duration {duration!r} s ({len(report.source_peaks)} "
                        f"source and {len(report.receiver_peaks)} receiver peaks, 5 each "
                        f"needed; use a longer duration)"
                    )
                rows.append(
                    f"{case},{family},{levels},{csnr!r},{doppler if doppler is not None else 0.0!r},"
                    f"{len(report.source_peaks)},{len(report.receiver_peaks)},"
                    f"{ks.statistic!r},{ks.p_value!r},{int(ks.reject_at_5pct)}\n"
                )
        files.append(("table1_ks.csv", functools.partial(_write_table1_csv, rows)))

    else:
        raise ConfigError(f"unknown experiment id {experiment_id!r}; expected one of {EXPERIMENT_IDS}")

    written = []
    for name, write in files:
        write(out / name)
        written.append(out / name)
    return written
