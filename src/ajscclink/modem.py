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
N-point spectrum: ``numpy.fft`` transforms the tile's rows straight from the
chunk into the worker's own buffer (``out=``), and the worker searches the
band of that tile only: one in-band argmax j of |E|^2 per row, which both
receivers start from.
Every buffer is allocated in the calling thread.  Every result and decision
of a row depends only on the row's own samples, so the output is
byte-identical for any tile, worker count and chunking.

The interpolating receiver reads the 2N-point padded grid X2 without taking
its FFT.  Its even bins are the N-point bins, X2[2k] = E[k].  Its odd bins
are O[k] = X2[2k + 1] = FFT_N(x c)[k] with c[m] = exp(-j pi m / N), and each
is an exact kernel sum of E: O[k] = sum_m E[m] K[k - m mod N], with
K[i] = (2/N) / (1 - exp(-j pi (2i + 1) / N)).  A row finds j, the in-band
peak of E, sums O[j - 1] and O[j], and takes the padded peak from bins
2j - 1, 2j, 2j + 1 (A^2 the largest in-band power of them) where a bound
shows that no other odd bin reaches A^2; no other even bin exceeds |E[j]|^2.
Each bound must hold with a margin of 1e-9 A^2 over rounding:
- Parseval: sum_k |O[k]|^2 = N |x|^2, so no other odd bin holds more than
  R = N |x|^2 - |O[j - 1]|^2 - |O[j]|^2.  It holds for every tone at
  csnr_db = inf, and on AWGN down to about 5 dB.
- max norm (Young's inequality): with E split into the tone's bins E_T
  (j - 8 .. j + 8) and the rest E_R, |O[k]| <= |(K * E_T)[k]| +
  max |E_R| sum |K|.  The first term is summed exactly for the 48 odd bins
  nearest the candidates and bounded by sum |E_T| times the largest |K|
  beyond; outside the bins lo..hi that the receiver squares, |E| is bounded
  by sqrt(2) max(|Re E|, |Im E|).  Noise spreads over all the bins, so this
  bound holds where Parseval's fails at low CSNR: on AWGN for nearly every
  block at 0 and -5 dB.
A row where neither holds (deep fades, or AWGN at -10 dB) takes the
fallback: a second N-point FFT, of x c, gives every odd bin, and the first
peak is searched over the whole padded band, odd and even bins interleaved.
The parabola then reads the padded bins k - 1, k, k + 1 as before.  Against
one 2N-point FFT per row, the peak frequencies differ by rounding only, at
most 6e-13 bins on the profiles.

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

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DemodError, is_int
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
        if not (is_int(self.fft_size) and self.fft_size >= 2):
            raise ConfigError(f"fft_size must be an integer >= 2, got {self.fft_size!r}")
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

# The interpolating receiver takes a row's peak from its three candidate bins
# where a bound on every other odd bin is below (1 - _ETA) A (module
# docstring): _ETA is a margin over the rounding of the sums.
_ETA = 1e-9

# The max-norm bound counts E bins j - _TONE .. j + _TONE as the tone's, and
# sums them exactly into odd bins O[j + d] for d in -_SPAN - 1 .. _SPAN.
_TONE, _SPAN = 8, 24
_TONE_BINS = np.arange(-_TONE, _TONE + 1)
_SPAN_BINS = np.array([d for d in range(-_SPAN - 1, _SPAN + 1) if d not in (-1, 0)])

# N-point spectrum per receiver FFT tile (16 rows at N = 8192); the
# interpolating receiver's fallback transforms its rows' x c in the same
# buffer.  On a 2-vCPU Xeon VM, 2 MB was the fastest of 1, 2, 4 and 8 MB
# for every profile and receiver (measured on 2N-point padded rows), and 8 MB
# tiles raised the peak memory of slow-profile sweeps by 8%.
_TILE_BYTES = 2 << 20


def _band_edges(cfg: ModemConfig, n_fft: int) -> tuple[int, int, int, int]:
    """In-band bins k_lo..k_hi, and lo..hi: those plus one neighbour each side."""
    k_lo = int(np.ceil(cfg.f_min * n_fft / cfg.sample_rate))
    k_hi = int(np.floor(cfg.f_max * n_fft / cfg.sample_rate))
    return k_lo, k_hi, max(k_lo - 1, 0), min(k_hi + 1, n_fft - 1)


@functools.lru_cache(maxsize=4)
def _half_bin_tables(n: int):
    """The odd bins of the 2n-padded grid of n-point rows (module docstring).

    Returns (h, c, near, far, norm): the kernel K[i] = (2/n) / (1 - exp(-j pi
    (2i + 1) / n)) = (1 - j cot(pi (2i + 1) / 2n)) / n, doubled and reversed
    so that O[k] = h[n - 1 - k : 2n - 1 - k] . E; the half-bin twiddle
    c[m] = exp(-j pi m / n), so that O = FFT_n(x c); and for the max-norm
    bound, near[t, d] = K[d - t] over _TONE_BINS x _SPAN_BINS, far, the
    largest |K| farther out, and norm = sum |K|.  near is None where n is
    too short for the bound's windows.
    """
    phi = np.pi * (2 * np.arange(n) + 1) / (2 * n)
    kernel = (1.0 - 1j * (np.cos(phi) / np.sin(phi))) / n
    h = kernel[(n - 1 - np.arange(2 * n)) % n]
    c = np.exp(-1j * np.pi * np.arange(n) / n)
    h.flags.writeable = c.flags.writeable = False  # shared by every call and worker
    if n < 4 * (_SPAN + 1):
        return h, c, None, None, None
    magnitude = 1.0 / (n * np.sin(phi))  # |K|, largest at K[0] = K[-1], least at n / 2
    near = kernel[(_SPAN_BINS[None, :] - _TONE_BINS[:, None]) % n]
    near.flags.writeable = False
    return h, c, near, magnitude[_SPAN + 1 - _TONE], magnitude.sum()


def _peak_frequencies(
    blocks: np.ndarray, cfg: ModemConfig, interpolate: bool, band_noise=None
) -> np.ndarray:
    """Per-row in-band peak frequency (Hz).

    The rows are split over the worker pool; each worker transforms a tile
    of its rows into its own buffer.  band_noise, if given, is a
    ``channel.BandNoise`` (see the module docstring).
    """
    n_rows, n = blocks.shape
    k_lo, k_hi, lo, hi = _band_edges(cfg, n)
    tile = max(1, min(_TILE_BYTES // (16 * n), n_rows))
    freqs = np.empty(n_rows)
    inband = slice(k_lo - lo, k_hi - lo + 1)
    tables = _half_bin_tables(n) if interpolate else None
    # The completion's scratch: one row's draws outside the window.
    n_rest = 0 if band_noise is None else max(k_hi - k_lo + 1 - band_noise.window.shape[1], 0)

    # Squared magnitude, computed only around the search band: cheaper than
    # abs over the full spectrum, and the parabola vertex on log-power
    # equals the vertex on log-magnitude (the logs differ by 2x).
    def rows(r0: int, r1: int, buf, power, imag2, rest) -> None:
        draw = None if band_noise is None else band_noise.cursor()
        for t in range(r0, r1, tile):
            m = min(tile, r1 - t)
            spectrum = np.fft.fft(blocks[t : t + m], axis=1, out=buf[:m])
            seg = spectrum[:, lo : hi + 1]
            np.square(seg.real, out=power[:m])
            np.square(seg.imag, out=imag2[:m])
            power[:m] += imag2[:m]
            j = power[:m, inband].argmax(axis=1)  # the in-band N-point peak
            if interpolate:
                freqs[t : t + m] = _interpolated_frequencies(
                    spectrum, power[:m], cfg, tables, blocks[t : t + m], j + k_lo
                )
                continue
            if draw is not None:
                j = _noisy_peaks(
                    seg[:, inband], power[:m, inband], j, imag2[:m, inband], band_noise, t, draw,
                    rest,
                )
            elif not power[np.arange(m), j + k_lo - lo].all():
                raise DemodError("no spectral peak in band (all-zero block?)")
            freqs[t : t + m] = (j + k_lo) * cfg.sample_rate / n

    band = ((tile, hi - lo + 1), np.float64)
    split_rows(rows, n_rows, ((tile, n), np.complex128), band, band, ((n_rest,), np.complex128))
    return freqs


def _interpolated_frequencies(spectrum, power, cfg: ModemConfig, tables, blocks, j):
    """Per-row peak frequency (Hz) of a tile of blocks on the 2N-padded grid,
    refined by the parabola (module docstring).

    spectrum holds the blocks' N-point FFTs E, in the worker's buffer, power
    |E|^2 over the grid's bins lo..hi, tables ``_half_bin_tables(N)``, and j
    each row's in-band peak of E.  The fallback overwrites spectrum.
    """
    h, c, near_table, far_kernel, kernel_norm = tables
    m, n = spectrum.shape
    _, _, lo, hi = _band_edges(cfg, n)
    k2_lo, k2_hi, _, _ = _band_edges(cfg, 2 * n)
    rows = np.arange(m)
    # Powers of padded bins 2j - 2 .. 2j + 2; the odd ones, 2j -+ 1, are O[j - 1]
    # and O[j].  (Where k_lo = 0, bin 2j - 2 may wrap to the band's last column:
    # it is then outside the band, and no parabola reads it.)
    powers = np.zeros((m, 5))
    powers[:, 0::2] = power[rows[:, None], j[:, None] + (-1 - lo, -lo, 1 - lo)]
    odd = np.empty((m, 2), dtype=np.complex128)
    energy = np.empty(m)  # N |x|^2 = sum |E|^2 = sum |O|^2
    for r in range(m):
        s = n - j[r]
        odd[r, 0] = np.dot(h[s : s + n], spectrum[r])
        odd[r, 1] = np.dot(h[s - 1 : s - 1 + n], spectrum[r])
        energy[r] = np.vdot(spectrum[r], spectrum[r]).real
    powers[:, 1::2] = np.square(odd.real) + np.square(odd.imag)
    # A^2: the largest of the candidates 2j - 1, 2j, 2j + 1 in band.
    in_band = 2 * j[:, None] + (-1, 0, 1)
    in_band = (in_band >= k2_lo) & (in_band <= k2_hi)
    a2 = np.where(in_band, powers[:, 1:4], 0.0).max(axis=1)
    limit = a2 * (1 - _ETA)
    # Parseval: no other odd bin holds more than R = N |x|^2 - |O[j - 1]|^2 - |O[j]|^2.
    ok = energy - powers[:, 1] - powers[:, 3] < limit
    if not ok.all() and near_table is not None:
        # Max norm: with E split into the tone's bins E_T and the rest E_R,
        # |O[j + d]| <= |(K * E_T)[j + d]| + max |E_R| sum |K|, the first term
        # exact for d in _SPAN_BINS and at most sum |E_T| far_kernel beyond.
        cols = np.clip(j[:, None] - lo + _TONE_BINS, 0, power.shape[1] - 1)
        saved = power[rows[:, None], cols]
        power[rows[:, None], cols] = 0.0
        rest = power.max(axis=1)
        power[rows[:, None], cols] = saved
        # Outside lo..hi, |E|^2 <= 2 max(|Re E|, |Im E|)^2.
        for part in (spectrum[:, :lo], spectrum[:, hi + 1 :]):
            if part.size:
                part = part.view(np.float64)
                rest = np.maximum(rest, 2 * np.square(np.maximum(part.max(axis=1), -part.min(axis=1))))
        tone = spectrum[rows[:, None], (j[:, None] + _TONE_BINS) % n]
        near = (tone[:, :, None] * near_table).sum(axis=1)
        near = np.sqrt((np.square(near.real) + np.square(near.imag)).max(axis=1))
        far = np.abs(tone).sum(axis=1) * far_kernel
        ok |= np.square(np.maximum(near, far) + np.sqrt(rest) * kernel_norm) < limit
    # Where a bound holds, the padded peak is the first largest in-band
    # candidate, and its parabola's neighbours are all known.  A row with no
    # in-band power takes the fallback, which raises DemodError.
    pick = np.where(in_band, powers[:, 1:4], -1.0).argmax(axis=1)
    k = 2 * j - 1 + pick
    triple = powers[rows[:, None], pick[:, None] + (0, 1, 2)]
    fall = np.flatnonzero(~ok | (a2 == 0))
    if fall.size:
        k[fall], triple[fall] = _odd_band_peaks(blocks, fall, power, cfg, c, spectrum)
    left, mid, right = triple.T
    interior = (k >= max(k2_lo, 1)) & (k <= min(k2_hi, 2 * n - 2))
    floor = mid * 1e-24
    alpha = np.log(np.maximum(left, floor))
    beta = np.log(np.maximum(mid, floor))
    gamma = np.log(np.maximum(right, floor))
    denom = alpha - 2 * beta + gamma
    delta = np.where(denom < 0, 0.5 * (alpha - gamma) / np.where(denom == 0, 1.0, denom), 0.0)
    delta = np.clip(np.where(interior, delta, 0.0), -0.5, 0.5)
    return (k + delta) * cfg.sample_rate / (2 * n)


def _odd_band_peaks(blocks, which, power, cfg: ModemConfig, c, x):
    """The fallback: the padded peak k of rows which of a tile of blocks,
    searched over the whole band, and the powers of bins k - 1, k, k + 1.

    power is the tile's |E|^2 over the grid's bins lo..hi.  The odd bins O
    come from an FFT of x c, done in x.  Each row of x, viewed as floats,
    then holds the padded powers at their own bin indices 2 lo .. 2 hi + 1:
    |E[i]|^2 at 2i, written over Re O[i], and |O[i]|^2 at 2i + 1.  Returns
    (k, (len(which), 3) powers).
    """
    n = blocks.shape[1]
    _, _, lo, hi = _band_edges(cfg, n)
    k2_lo, k2_hi, _, _ = _band_edges(cfg, 2 * n)
    for i, r in enumerate(which):
        np.multiply(blocks[r], c, out=x[i])
    band = np.fft.fft(x[: which.size], axis=1, out=x[: which.size]).view(np.float64)
    band = band[:, 2 * lo : 2 * hi + 2]
    np.square(band, out=band)
    np.add(band[:, 0::2], band[:, 1::2], out=band[:, 1::2])
    for i, r in enumerate(which):
        band[i, 0::2] = power[r]
    k = band[:, k2_lo - 2 * lo : k2_hi - 2 * lo + 1].argmax(axis=1) + k2_lo
    triple = band[np.arange(which.size)[:, None], k[:, None] - 2 * lo + (-1, 0, 1)]
    if not triple[:, 1].all():
        raise DemodError("no spectral peak in band (all-zero block?)")
    return k, triple


def _noisy_peaks(band, power, j, scratch, band_noise, first_row: int, draw, rest) -> np.ndarray:
    """In-band index of each row's peak once band_noise is added to a tile's
    in-band bins, band, whose squared magnitudes are power and whose
    noiseless peaks are j (module docstring).

    first_row is the tile's first row in the chunk and draw the range's
    cursor of band_noise.  power, and band on the rows that complete, are
    overwritten; scratch (power's shape) and rest are scratch.
    """
    (m, n_bins), full_width = band.shape, band_noise.window.shape[1]
    width = min(full_width, n_bins)
    rows = np.arange(m)
    start = np.clip(j - full_width // 2, 0, n_bins - width)
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
