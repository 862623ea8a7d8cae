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
(``pool.split_rows``).  The modulator builds each row on its own, with the
same operations whichever range holds it, and can write into a
caller-owned buffer (``out=``), so a stream of chunks reuses one array.
The blocks are byte-identical for any worker count and equal to one 2-D
running product over the whole chunk.

In the receiver, each worker walks its range in tiles of about 2 MB of
padded spectrum: it copies the rows into the left part of its own buffer,
zeroes the padding, transforms the tile in place with ``scipy.fft`` and
searches the band of that tile only.  Every buffer is allocated in the
calling thread.  A row's spectrum and peak do not depend on its tile or
range, so the output is byte-identical for any worker count and equal to
one padded FFT of the whole chunk.

The raw receiver can take the channel noise in the frequency domain
(``band_noise``, see ``channel.band_noise``): after a tile's transform, each
row's noise is drawn into a per-worker scratch of one element per in-band
bin k_lo..k_hi and added to those bins before the peak search.  Each worker
draws with a generator of its own, seated on each row's absolute block, so
this too is byte-identical for any worker count and chunking.
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
        if self.f_max > 0.98 * self.sample_rate / 2:
            raise ConfigError(f"f_max {self.f_max} exceeds 98% of Nyquist")
        if self.fft_size < 2:
            raise ConfigError(f"fft_size must be >= 2, got {self.fft_size}")

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
    a complex128 array of that shape, when it is given, and out is returned.
    """
    encoded = np.atleast_1d(np.asarray(encoded, dtype=np.float64))
    if encoded.size == 0:
        raise ConfigError("encoded sequence must be non-empty")
    n_rows, n = encoded.size, cfg.fft_size
    if out is None:
        out = np.empty((n_rows, n), dtype=np.complex128)
    elif out.shape != (n_rows, n) or out.dtype != np.complex128:
        raise ConfigError(
            f"out must be a ({n_rows}, {n}) complex128 array, got {out.shape} {out.dtype}"
        )
    freqs = np.atleast_1d(voltage_to_frequency(encoded, full_scale, cfg))
    if np.ndim(start_phase):
        phases0 = np.asarray(start_phase, dtype=np.float64)
        if phases0.shape != (n_rows,):
            raise ConfigError(f"start_phase must be a scalar or ({n_rows},), got {phases0.shape}")
    else:
        phases0 = block_start_phases(freqs, cfg, start_phase)
    # Each block is a geometric progression first[b] * step[b]**n; the
    # running product is ~4x faster than exp over the full grid and keeps
    # |sample| within ~1e-12 of one.
    step = np.exp(2j * np.pi * freqs / cfg.sample_rate)
    first = np.exp(1j * phases0)

    # One 1-D accumulate per row: numpy holds the GIL through a 2-D
    # accumulate over a broadcast step, so ranges of rows in that form do
    # not overlap on the pool, while the 1-D calls release it.  A row takes
    # the same operations whichever range holds it.
    def rows(r0: int, r1: int) -> None:
        for r in range(r0, r1):
            b = out[r]
            b[0] = first[r]
            np.multiply.accumulate(np.broadcast_to(step[r], (n - 1,)), out=b[1:])
            b[1:] *= first[r]

    split_rows(rows, n_rows)
    return out


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
    given, is ``new_fill`` (see ``demodulate_stream``), called once per range.
    """
    n_rows, n = blocks.shape
    n_fft = 2 * n if interpolate else n
    k_lo, k_hi, lo, hi = _band_edges(cfg, n_fft)
    tile = max(1, min(_TILE_BYTES // (16 * n_fft), n_rows))
    freqs = np.empty(n_rows)

    # Squared magnitude, computed only around the search band: cheaper than
    # abs over the full spectrum, and the parabola vertex on log-power
    # equals the vertex on log-magnitude (the logs differ by 2x).
    def rows(
        r0: int, r1: int, buf: np.ndarray, power: np.ndarray, imag2: np.ndarray, noise: np.ndarray
    ) -> None:
        fill = band_noise() if band_noise is not None else None
        for t in range(r0, r1, tile):
            m = min(tile, r1 - t)
            buf[:m, :n] = blocks[t : t + m]
            buf[:m, n:] = 0.0
            seg = scipy.fft.fft(buf[:m], axis=1, workers=1, overwrite_x=True)[:, lo : hi + 1]
            if fill is not None:
                for i, bins in enumerate(seg[:, k_lo - lo : k_hi - lo + 1], start=t):
                    fill(i, noise)
                    bins += noise
            np.square(seg.real, out=power[:m])
            np.square(seg.imag, out=imag2[:m])
            power[:m] += imag2[:m]
            freqs[t : t + m] = _tile_frequencies(power[:m], cfg, n_fft, interpolate)

    band = (tile, hi - lo + 1)
    noise = (k_hi - k_lo + 1 if band_noise is not None else 0,)
    split_rows(
        rows,
        n_rows,
        ((tile, n_fft), np.complex128),
        (band, np.float64),
        (band, np.float64),
        (noise, np.complex128),
    )
    return freqs


def _tile_frequencies(
    power: np.ndarray, cfg: ModemConfig, n_fft: int, interpolate: bool
) -> np.ndarray:
    """Per-row peak frequency (Hz) from the power of spectrum bins lo..hi."""
    k_lo, k_hi, lo, _ = _band_edges(cfg, n_fft)
    band = power[:, k_lo - lo : k_hi - lo + 1]
    peak_val = band.max(axis=1)
    if np.any(peak_val == 0):
        raise DemodError("no spectral peak in band (all-zero block?)")
    k = band.argmax(axis=1) + k_lo

    if not interpolate:
        return k * cfg.sample_rate / n_fft

    rows = np.arange(power.shape[0])
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

    band_noise is the channel noise of the raw receiver's in-band bins,
    which ``run_link`` passes for raw runs at finite CSNR: ``new_fill()``
    (see ``channel.band_noise``), called once per row range, gives that
    range's ``fill(row, out)``, which writes the noise of the chunk's row
    into out, one complex128 element per bin k_lo..k_hi; the receiver adds
    it to the row's spectrum.  The interpolating receiver does not take it.
    """
    if band_noise is not None and interpolate:
        raise ConfigError("band noise is for the raw receiver; interpolate must be false")
    blocks = np.asarray(blocks, dtype=np.complex128)
    if blocks.ndim != 2 or blocks.shape[1] != cfg.fft_size:
        raise ConfigError(f"blocks must be (n, {cfg.fft_size}), got {blocks.shape}")
    f = _peak_frequencies(blocks, cfg, interpolate, band_noise)
    return np.asarray(frequency_to_voltage(f, full_scale, cfg))
