"""Frequency modulation onto complex baseband and FFT-based recovery.

Each encoded voltage maps affinely into [f_min, f_max] and occupies one
block of fft_size samples as a unit-amplitude complex exponential; phase is
continuous across blocks.  The receiver takes the block FFT magnitude,
finds the in-band peak, refines it with a three-point parabolic fit to the
log magnitude (evaluated on a 2x zero-padded grid, which keeps the fit's
bias under a tenth of a bin for a rectangular window), and maps the
frequency back to a voltage.

The modulator and the receiver both split a chunk's rows into one
contiguous range per usable CPU, on the pool the channel also uses
(``pool.split_rows``).  The modulator multiplies a coarse and a fine tone
table into each block, one ufunc call per tile of rows, into the output or a
caller-owned ``out=``; a row's bytes do not depend on its tile or chunking.

In the receiver, each worker walks its range in tiles of about 2 MB of
padded spectrum: it copies the rows into the left part of its own buffer,
zeroes the padding, transforms the tile in place with ``scipy.fft`` and
searches the band of that tile only.  Every buffer is allocated in the
calling thread.  A row's spectrum and peak do not depend on its tile or
range, so the output is byte-identical for any worker count and equal to
one padded FFT of the whole chunk.

The raw receiver can take the channel noise in the frequency domain
(``band_noise``, a ``channel.BandNoise``, which holds the window noise of
every row of the chunk).  Each row adds its window noise to the 2W + 1 = 9
in-band bins around its noiseless peak, shifted to stay inside the band.
With A the largest noisy magnitude there, X_out the largest noiseless one
of the M other in-band bins and s the per-component deviation of a bin,
the union bound M * exp(-max(A - X_out, 0)^2 / (2 s^2)) caps the chance
that any of those M beats A once noisy.  Where it is at most eps = 1e-12
(< M), A > X_out, so the band's peak is the window's.  Where it exceeds
eps, the row also draws the M bins from stream (3, b) of its absolute
block b and searches the whole band.  The bins are iid, so this is exact,
and it differs from a full-band draw with probability at most eps per
block.  The completion's generators are per worker and seated per block,
so the bytes do not depend on the worker count or chunking.  The noiseless
bins still come from the FFT; their closed form waits on ROADMAP item 2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.fft

from .errors import ConfigError, DemodError
from .pool import split_rows

FAST_SAMPLE_RATE = 8.192e6
FAST_FFT_SIZE = 8192
SLOW_SAMPLE_RATE = 500e3
SLOW_FFT_SIZE = 5000
_TONE_TILE = 32  # rows per modulator tile: 98 kB of tone tables per worker at fft_size 8192


@dataclass(frozen=True)
class ModemConfig:
    """Voltage-to-frequency map endpoints plus the receiver FFT profile."""

    f_min: float
    f_max: float
    sample_rate: float
    fft_size: int

    def __post_init__(self):
        if not 0 <= self.f_min < self.f_max:
            raise ConfigError(f"need 0 <= f_min < f_max, got [{self.f_min}, {self.f_max}]")
        if not 0 < self.sample_rate < np.inf:
            raise ConfigError(f"sample_rate must be finite and > 0, got {self.sample_rate}")
        if self.f_max > 0.98 * self.sample_rate / 2:
            raise ConfigError(f"f_max {self.f_max} exceeds 98% of Nyquist")
        if self.fft_size < 2:
            raise ConfigError(f"fft_size must be >= 2, got {self.fft_size}")
        k_lo, k_hi, _, _ = _band_edges(self, self.fft_size)
        if k_lo > k_hi:
            raise ConfigError(
                f"band [{self.f_min}, {self.f_max}] Hz holds no bin of the "
                f"{self.fft_size}-point grid at {self.sample_rate} Hz"
            )

    @property
    def block_period(self) -> float:
        """Duration of one encoded sample on air: fft_size / sample_rate."""
        return self.fft_size / self.sample_rate

    @property
    def bin_width(self) -> float:
        return self.sample_rate / self.fft_size


def fast_profile() -> ModemConfig:
    """8.192 MHz sampling, 8192-point FFT: one decoded sample per 1 ms."""
    return ModemConfig(f_min=500e3, f_max=4e6, sample_rate=FAST_SAMPLE_RATE, fft_size=FAST_FFT_SIZE)


def slow_profile() -> ModemConfig:
    """500 kHz sampling, 5000-point FFT: one decoded sample per 10 ms."""
    return ModemConfig(f_min=25e3, f_max=225e3, sample_rate=SLOW_SAMPLE_RATE, fft_size=SLOW_FFT_SIZE)


def voltage_to_frequency(v, full_scale: float, cfg: ModemConfig):
    """Affine [0, full_scale] -> [f_min, f_max]; clamps outside the range."""
    if not full_scale > 0:
        raise ConfigError(f"full_scale must be > 0, got {full_scale}")
    v = np.clip(np.asarray(v, dtype=np.float64), 0.0, full_scale)
    f = cfg.f_min + v * (cfg.f_max - cfg.f_min) / full_scale
    return f if f.ndim else float(f)


def frequency_to_voltage(f, full_scale: float, cfg: ModemConfig):
    """Inverse of voltage_to_frequency; clamps into [f_min, f_max]."""
    if not full_scale > 0:
        raise ConfigError(f"full_scale must be > 0, got {full_scale}")
    f = np.clip(np.asarray(f, dtype=np.float64), cfg.f_min, cfg.f_max)
    v = (f - cfg.f_min) * full_scale / (cfg.f_max - cfg.f_min)
    return v if v.ndim else float(v)


def block_start_phases(freqs: np.ndarray, cfg: ModemConfig, start_phase: float = 0.0) -> np.ndarray:
    """Carrier phase at the start of each block, wrapped to [0, 2*pi)."""
    freqs = np.asarray(freqs, dtype=np.float64)
    increments = 2 * np.pi * freqs * cfg.block_period
    phases = start_phase + np.concatenate([[0.0], np.cumsum(increments[:-1])])
    return np.mod(phases, 2 * np.pi)


def modulate(
    encoded, full_scale: float, cfg: ModemConfig, start_phase=0.0, out=None
) -> np.ndarray:
    """Frequency-modulate a sequence of encoded voltages.

    Returns an (n_blocks, fft_size) complex array; row b is the block for
    encoded[b] with |sample| = 1 and phase carried over block boundaries.
    start_phase is the carrier phase at the start of the first block, or an
    array of each block's start phase: a chunk of a longer stream passes its
    slice of ``block_start_phases`` over the whole stream, so its blocks do
    not depend on where the chunks start.  The blocks are written into out,
    a complex128 array of that shape and contiguous rows, if given, and out is returned.
    """
    encoded = np.atleast_1d(np.asarray(encoded, dtype=np.float64))
    if encoded.size == 0:
        raise ConfigError("encoded sequence must be non-empty")
    n_rows, n = encoded.size, cfg.fft_size
    if out is None:
        out = np.empty((n_rows, n), dtype=np.complex128)
    elif out.shape != (n_rows, n) or out.dtype != np.complex128 or out.strides[1] != 16:
        raise ConfigError(
            f"out must be ({n_rows}, {n}) complex128, rows contiguous, got {out.shape} {out.dtype}"
        )
    freqs = np.atleast_1d(voltage_to_frequency(encoded, full_scale, cfg))
    if np.ndim(start_phase):
        phases0 = np.asarray(start_phase, dtype=np.float64)
        if phases0.shape != (n_rows,):
            raise ConfigError(f"start_phase must be a scalar or ({n_rows},), got {phases0.shape}")
    else:
        phases0 = block_start_phases(freqs, cfg, start_phase)
    # Row b's sample q' * m + r is coarse[b, q'] * fine[b, r], with m the smallest divisor
    # of n >= sqrt(n), fine = exp(j 2 pi c r), coarse = exp(j (phi + 2 pi frac(c m q'))) and
    # c = f / fs.  |sample| is within ~5e-16 of one, the phase ~2e-12 rad of exact.
    m = next(d for d in range(1, n + 1) if n % d == 0 and d * d >= n)
    q, cycles, ramp = n // m, freqs / cfg.sample_rate, np.arange(n, dtype=np.float64)

    def rows(r0: int, r1: int, tables) -> None:
        for t in range(r0, r1, _TONE_TILE):
            u = min(t + _TONE_TILE, r1)
            both, f, c = tables[: u - t], tables[: u - t, :m], tables[: u - t, m:]
            np.multiply(cycles[t:u, None], ramp[:m], out=f.imag)
            np.fmod(np.multiply(cycles[t:u, None], ramp[::m], out=c.imag), 1.0, out=c.imag)
            np.multiply(both.imag, 2 * np.pi, out=both.imag)
            np.add(c.imag, phases0[t:u, None], out=c.imag)
            np.cos(both.imag, out=both.real)
            np.sin(both.imag, out=both.imag)
            np.multiply(c[:, :, None], f[:, None, :], out=out[t:u].reshape(u - t, q, m))

    split_rows(rows, n_rows, ((_TONE_TILE, m + q), np.complex128))
    return out


# The raw receiver completes a block's band where the union bound exceeds
# _EPSILON (module docstring).
_EPSILON = 1e-12

# Padded spectrum per receiver FFT tile (8 rows at n_fft = 16384).  On a
# 2-vCPU Xeon VM, 2 MB was the fastest of 1, 2, 4 and 8 MB for every profile
# and receiver, and 8 MB tiles raised the peak memory of slow-profile sweeps
# by 8%.
_TILE_BYTES = 2 << 20


def _band_edges(cfg: ModemConfig, n_fft: int) -> tuple[int, int, int, int]:
    """In-band bins k_lo..k_hi, and lo..hi: those plus one neighbour each side."""
    k_lo = int(np.ceil(cfg.f_min * n_fft / cfg.sample_rate))
    k_hi = int(np.floor(cfg.f_max * n_fft / cfg.sample_rate))
    return k_lo, k_hi, max(k_lo - 1, 0), min(k_hi + 1, n_fft - 1)


def _peak_frequencies(
    blocks: np.ndarray, cfg: ModemConfig, interpolate: bool, band_noise=None
) -> np.ndarray:
    """Per-row in-band FFT peak frequency (Hz).

    The rows are split over the worker pool; each worker zero-pads a tile of
    its rows into its own buffer and transforms it in place.  band_noise, if
    given, is a ``channel.BandNoise`` (see the module docstring).
    """
    n_rows, n = blocks.shape
    n_fft = 2 * n if interpolate else n
    k_lo, k_hi, lo, hi = _band_edges(cfg, n_fft)
    tile = max(1, min(_TILE_BYTES // (16 * n_fft), n_rows))
    freqs = np.empty(n_rows)
    inband = slice(k_lo - lo, k_hi - lo + 1)
    # The completion's scratch: one row's draws outside the window.
    n_rest = 0 if band_noise is None else max(k_hi - k_lo + 1 - band_noise.window.shape[1], 0)

    # Squared magnitude, computed only around the search band: cheaper than
    # abs over the full spectrum, and the parabola vertex on log-power
    # equals the vertex on log-magnitude (the logs differ by 2x).
    def rows(r0: int, r1: int, buf, power, imag2, rest) -> None:
        draw = None if band_noise is None else band_noise.cursor()
        for t in range(r0, r1, tile):
            m = min(tile, r1 - t)
            buf[:m, :n] = blocks[t : t + m]
            buf[:m, n:] = 0.0
            seg = scipy.fft.fft(buf[:m], axis=1, workers=1, overwrite_x=True)[:, lo : hi + 1]
            np.square(seg.real, out=power[:m])
            np.square(seg.imag, out=imag2[:m])
            power[:m] += imag2[:m]
            if draw is None:
                freqs[t : t + m] = _tile_frequencies(power[:m], cfg, n_fft, interpolate)
            else:
                k = _noisy_peaks(
                    seg[:, inband], power[:m, inband], imag2[:m, inband], band_noise, t, draw, rest
                )
                freqs[t : t + m] = (k + k_lo) * cfg.sample_rate / n_fft

    band = ((tile, hi - lo + 1), np.float64)
    split_rows(rows, n_rows, ((tile, n_fft), np.complex128), band, band, ((n_rest,), np.complex128))
    return freqs


def _noisy_peaks(band, power, scratch, band_noise, first_row: int, draw, rest) -> np.ndarray:
    """In-band index of each row's peak once band_noise is added to a tile's
    in-band bins, band, whose squared magnitudes are power (module docstring).

    first_row is the tile's first row in the chunk and draw the range's
    cursor of band_noise.  power, and band on the rows that complete, are
    overwritten; scratch (power's shape) and rest are scratch.
    """
    (m, n_bins), full_width = band.shape, band_noise.window.shape[1]
    width = min(full_width, n_bins)
    rows = np.arange(m)
    start = np.clip(power.argmax(axis=1) - full_width // 2, 0, n_bins - width)
    cols = start[:, None] + np.arange(width)
    power[rows[:, None], cols] = 0.0
    out_peak = np.sqrt(power.max(axis=1))
    noisy = band[rows[:, None], cols] + band_noise.window[first_row : first_row + m, :width]
    noisy_power = np.square(noisy.real) + np.square(noisy.imag)
    peak = noisy_power.argmax(axis=1)
    margin = np.maximum(np.sqrt(noisy_power[rows, peak]) - out_peak, 0.0)
    # A margin past ~1e154 deviations overflows its square; the bound is 0.
    with np.errstate(over="ignore"):
        bound = (n_bins - width) * np.exp(-0.5 * np.square(margin / band_noise.deviation))
    k = start + peak
    for r in np.flatnonzero(bound > _EPSILON):
        s, row, p = start[r], band[r], power[r]
        draw(first_row + r, rest)
        row[s : s + width] = noisy[r]
        row[:s] += rest[:s]
        row[s + width :] += rest[s:]
        np.square(row.real, out=p)
        p += np.square(row.imag, out=scratch[r])
        k[r] = p.argmax()
    return k


def _tile_frequencies(
    power: np.ndarray, cfg: ModemConfig, n_fft: int, interpolate: bool
) -> np.ndarray:
    """Per-row peak frequency (Hz) from the power of spectrum bins lo..hi."""
    k_lo, k_hi, lo, _ = _band_edges(cfg, n_fft)
    band = power[:, k_lo - lo : k_hi - lo + 1]
    rows = np.arange(power.shape[0])
    k = band.argmax(axis=1)
    peak_val = band[rows, k]
    if np.any(peak_val == 0):
        raise DemodError("no spectral peak in band (all-zero block?)")
    k += k_lo

    if not interpolate:
        return k * cfg.sample_rate / n_fft

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


def demodulate_stream(
    blocks: np.ndarray,
    full_scale: float,
    cfg: ModemConfig,
    interpolate: bool = True,
    *,
    band_noise=None,
) -> np.ndarray:
    """Vectorized demodulate over an (n_blocks, fft_size) array.

    band_noise, a ``channel.BandNoise`` that ``run_link`` passes for raw runs
    at finite CSNR, is the noise of the in-band bins, drawn where it can move
    the peak (module docstring).  The interpolating receiver does not take it.
    """
    if band_noise is not None and interpolate:
        raise ConfigError("band noise is for the raw receiver; interpolate must be false")
    blocks = np.asarray(blocks, dtype=np.complex128)
    if blocks.ndim != 2 or blocks.shape[1] != cfg.fft_size:
        raise ConfigError(f"blocks must be (n, {cfg.fft_size}), got {blocks.shape}")
    if band_noise is not None and band_noise.window.shape[0] != blocks.shape[0]:
        raise ConfigError(
            f"band noise holds {band_noise.window.shape[0]} blocks, got {blocks.shape[0]}"
        )
    f = _peak_frequencies(blocks, cfg, interpolate, band_noise)
    return np.asarray(frequency_to_voltage(f, full_scale, cfg))
