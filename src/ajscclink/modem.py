"""Frequency modulation onto complex baseband and FFT-based recovery.

Each encoded voltage maps affinely into [f_min, f_max] and occupies one
block of fft_size samples as a unit-amplitude complex exponential; phase is
continuous across blocks.  The receiver takes the block FFT magnitude,
finds the in-band peak, refines it with a three-point parabolic fit to the
log magnitude (evaluated on a 2x zero-padded grid, which keeps the fit's
bias under a tenth of a bin for a rectangular window), and maps the
frequency back to a voltage.

The modulator and the receiver are serial kernels: a call computes its rows
on the calling thread, in that thread's scratch (``pool.scratch``), and
``harness._transmit`` calls them once per tile from each range of its one
row split.  The modulator multiplies a coarse and a fine tone table into
each block, into the output or a caller-owned ``out=``; a row's bytes do not
depend on its tile or on which call holds it.  Each table is the outer
product of two shorter ones, so a fast-profile row takes 40 cosines and
sines, not 192: numpy's float64 cos and sin cost 20 to 40 ns an element,
against about 1 ns for exp.

The modem's complex products run as real BLAS products (Goto and van de
Geijn, ACM TOMS 34(3), 2008), one dgemm of fixed shape per row, so a row's
bytes do not depend on where it sits:
- the modulator writes a row, viewed as (q, 2m) floats, as
  [Re coarse, Im coarse] (q x 2) @ [fine; j fine] (2 x 2m);
- the direct tier's fine sums of a row are the row, viewed as (q, 2m)
  floats, @ a (2m x 2k) matrix whose rows 2r and 2r + 1 are its k fine
  twiddles and j times them, as floats (``_direct_bins``).
On complex64 rows (raw runs) both are sgemms of the same shapes.  Every
shape stays below OpenBLAS's threading threshold, m n k of 2^18 for dgemm
and sgemm alike (the largest is 64 x 256 x 10, an interpolating fast row), so the
products run on the calling thread, never on OpenBLAS's own threads, which
would convoy with the pool's.  The bytes do depend on the kernel OpenBLAS
picks for the CPU (``OPENBLAS_CORETYPE``).

The receiver takes a call's rows through three tiers.  The direct tier
takes a call's consecutive rows in place as one batch (a transmit tile is
one batch), and other rows gathered a tile of about 2 MB (16 rows at
N = 8192) at a time; it computes their bins, and the FFT path transforms its
rows, such a tile at a time:
1. The gate.  Past a row's first 16 samples, which a multipath channel mixes
   with the previous block's tone, a clean tone's lag-1 autocorrelation r_1
   over 512 samples has the magnitude of their power p; noise lowers
   |r_1| / p to about SNR / (1 + SNR).  An interpolating row goes on only
   where |r_1| >= 0.7 p.  Raw rows skip that lag test: a raw decision is a
   bin, which the tier below proves equal to the FFT path's or leaves to
   it, so the test would only spare it rows it rejects, and a raw run makes
   none (its channel runs at csnr_db = inf, the noise being the receiver's,
   in band).  A raw row with band noise goes on only where its window could
   clear the union bound (below).
2. The direct tier.  The phase of r_1 over 2048 samples (512 on a raw row,
   which carries no time-domain noise to average out), unwrapped onto that
   of r_m (m of the tone split, 128 at N = 8192), gives the tone's bin j
   (cf. Kay, IEEE Trans. ASSP 37(12), 1989).  The tier computes exactly the
   bins the row's decision reads, and no others: viewed as (q, m), a row's
   bin h / 2 (h in half bins) is sum_p z^(h m p) sum_r x[p, r] z^(h r) with
   z = exp(-j pi / N), one batched matrix product per tile and a q-long sum.
   That is 5 N complex multiply-adds for an interpolating row (E[j - 1],
   O[j - 1], E[j], O[j], E[j + 1]) and 3 N for a raw one (E[k .. k + 2]
   around j, inside the band or the window).  Parseval, sum |E|^2 = N |x|^2,
   then proves the FFT path's decision or the row moves on:
   - the rest R of N |x|^2 beyond the computed E bins is below the largest
     of them, which is the strict largest in band: j is the FFT's in-band
     peak;
   - interpolating: the odd-bin Parseval bound below holds;
   - raw with band noise: the window is the one the FFT path places, every
     window bin not computed holds |E + w| <= sqrt(R) + |w|, less than the
     largest noisy bin A of the three, and the union bound holds with
     X_out <= sqrt(R).
   Each bound holds with a margin of 1e-9 over rounding.  The bins agree with
   the FFT's to about 1e-15 N, so a row's frequency moves by rounding only
   with its tier.  On complex64 rows each bound also allows for the float32
   sums (below).
3. The FFT path, on the rows left: ``numpy.fft`` transforms them into the
   thread's buffer (``out=``, straight from the input where they are
   consecutive), and the call searches the band of those rows only: one
   in-band argmax j of |E|^2 per row, which both receivers start from.
What a call needs of its ModemConfig is built once per config
(``_receiver``).  Every result and decision of a row depends only on the
row's own samples, so the output is byte-identical for any tile, batch and
split of a stream into calls, whichever thread makes each call.

The interpolating receiver reads the 2N-point padded grid X2 without taking
its FFT.  Its even bins are the N-point bins, X2[2k] = E[k].  Its odd bins
are O[k] = X2[2k + 1] = FFT_N(x c)[k] with c[m] = exp(-j pi m / N), and each
is an exact kernel sum of E: O[k] = sum_m E[m] K[k - m mod N], with
K[i] = (2/N) / (1 - exp(-j pi (2i + 1) / N)).  On the FFT path a row finds
j, the in-band peak of E, sums O[j - 1] and O[j], and takes the padded peak
from bins 2j - 1, 2j, 2j + 1 (A^2 the largest in-band power of them) where a
bound shows that no other odd bin reaches A^2; no other even bin exceeds
|E[j]|^2.
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
A pre-check skips the kernel sums of a row where both bounds must fail.
Without them, |O[j - 1]| and |O[j]| are at most their tone part (K * E_T)
plus, by Cauchy-Schwarz, |E_R| times the root of sum |K|^2 over the other
offsets, with |E_R|^2 = N |x|^2 - |E_T|^2 (Parseval); that bounds A^2 from
above, and a row where Parseval's bound and the max-norm bound fail even
there takes the fallback at once.  It fires on AWGN for every row at -20 dB
and for some at -10 and -15 dB, and runs only on a tile whose noise is
strong enough for it (``_NOISY``).
A row where neither holds (deep fades, or AWGN at -10 dB) takes the
fallback: a second N-point FFT, of x c, gives every odd bin, and the first
peak is searched over the whole padded band, odd and even bins interleaved.
The parabola then reads the padded bins k - 1, k, k + 1 as before.  Against
one 2N-point FFT per row, the peak frequencies differ by rounding only, at
most 6e-13 bins on the profiles.

The raw receiver reads complex64 rows as they are (a raw run's transmit
tiles are complex64, ``harness``); the interpolating one upcasts them.  The
direct tier then sums in float32: N |x|^2 is a float32 einsum over the 2N
floats of a row, and the fine sums are an sgemm against the twiddle planes
rounded to float32, each float of them a sum of 2m products; the q-long
coarse sums and the proof run in float64, on the sums upcast.  A float32
inner product of length k is within gamma_k = k u / (1 - k u) (u = 2^-24)
of exact, relative to sum |a_i b_i|, in any order of summation (Higham,
Accuracy and Stability of Numerical Algorithms, 2nd ed., sections 3.1 and
4.2).  So:
- N |x|^2, a sum of squares, is within gamma_2N of itself: P <= P' / (1 -
  gamma_2N) for the computed P';
- a twiddle rounded to float32 adds one factor 1 + u (Higham, Lemma 3.3),
  and each pair Re x Re f - Im x Im f, or Re x Im f + Im x Re f, is at most
  |x_r| |f_r| = |x_r| in magnitude, so each float of a fine sum is within
  gamma_(2m + 1) sum_r |x_r| of exact, and each bin within delta =
  sqrt(2) gamma_(2m + 1) |x|_1 <= sqrt(2) gamma_(2m + 1) sqrt(P)
  (Cauchy-Schwarz, |x|_1 <= sqrt(N) |x|_2).
The tier widens every computed bin magnitude a by delta: a bin is taken to
hold at least (a - delta)^2 and at most (a + delta)^2, and R at most
P' / (1 - gamma_2N) - sum (a - delta)^2; each bound then keeps the 1e-9
margin for the float64 sums (``_rounding``).  At N = 8192 (m = 128)
gamma_2N = 9.8e-4 and delta <= 2.2e-5 sqrt(P); at N = 5000 (m = 100),
6.0e-4 and 1.7e-5 sqrt(P).  These are worst cases: a near-tie of two bins
within about 1e-4 of each other, or a row whose R lies within 0.1% of its
largest bin, goes to the FFT path, which upcasts the row into its
complex128 buffer.  So the decision on complex64 rows is the FFT's of those
rows in float64.  It differs from the decision on the complex128 rows of the
same run only where rounding the samples to float32 (3.4e-7, ``modulate``)
moves a near-tie: 1 of 400,000 fig6a decisions, and none of fig6b's 40,000
or fig7b's 400,000.

The raw receiver can take the channel noise in the frequency domain
(``band_noise``, a ``channel.BandNoise``, which holds the window noise of
every row of the call).  Each row adds its window noise to the 2W + 1 = 9
in-band bins around its noiseless peak, shifted to stay inside the band.
With A the largest noisy magnitude there, X_out the largest noiseless one
of the M other in-band bins and s the per-component deviation of a bin,
the union bound M * exp(-max(A - X_out, 0)^2 / (2 s^2)) caps the chance
that any of those M beats A once noisy.  Where it is at most eps = 1e-12
(< M), A > X_out, so the band's peak is the window's.  Where it exceeds
eps, the row also draws the M bins from stream (3, b) of its absolute
block b and searches the whole band.  The bins are iid, so this is exact,
and it differs from a full-band draw with probability at most eps per
block.  The completion's generators are per call and seated per block, so
the bytes do not depend on the split into calls or on their threads.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, DemodError, is_int
from .pool import scratch

FAST_SAMPLE_RATE = 8.192e6
FAST_FFT_SIZE = 8192
SLOW_SAMPLE_RATE = 500e3
SLOW_FFT_SIZE = 5000
_TONE_TILE = 32  # rows per modulator tile: 184 kB of tone tables per thread at fft_size 8192


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


@functools.lru_cache(maxsize=None)
def fast_profile() -> ModemConfig:
    """8.192 MHz sampling, 8192-point FFT: one decoded sample per 1 ms.

    Built once per process, like slow_profile: a ModemConfig is frozen.
    """
    return ModemConfig(f_min=500e3, f_max=4e6, sample_rate=FAST_SAMPLE_RATE, fft_size=FAST_FFT_SIZE)


@functools.lru_cache(maxsize=None)
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


@functools.lru_cache(maxsize=4)
def _tone_split(n: int) -> tuple[int, int]:
    """(m, q): m the smallest divisor of n that is >= sqrt(n), and q = n // m.

    A block's samples q' * m + r, viewed as a (q, m) array, are the
    modulator's coarse x fine product and the direct bins' matrix product.
    """
    m = next(d for d in range(1, n + 1) if n % d == 0 and d * d >= n)
    return m, n // m


@functools.lru_cache(maxsize=4)
def _tone_steps(n: int):
    """(m, q, split, steps): the tone split, the splits (a, b) of m and of q
    by ``_tone_split``, and the sample steps of a row's four factor tables,
    as floats: r < a and a r' for r' < b (fine), m p < m a' and m a' p' for
    p' < b' (coarse), with (a', b') the split of q."""
    m, q = _tone_split(n)
    (a, b), (a2, b2) = _tone_split(m), _tone_split(q)
    steps = np.concatenate(
        [np.arange(a), a * np.arange(b), m * np.arange(a2), m * a2 * np.arange(b2)]
    ).astype(np.float64)
    steps.flags.writeable = False  # shared by every call and thread
    return m, q, (a, b, a2, b2), steps


def modulate(
    encoded, full_scale: float, cfg: ModemConfig, start_phase=0.0, out=None
) -> np.ndarray:
    """Frequency-modulate a sequence of encoded voltages.

    Returns an (n_blocks, fft_size) complex array; row b is the block for
    encoded[b] with |sample| = 1 and phase carried over block boundaries.
    start_phase is the carrier phase at the start of the first block, or an
    array of each block's start phase: a tile of a longer stream passes its
    slice of ``block_start_phases`` over the whole stream, so its blocks do
    not depend on where the tiles start.  The blocks are written into out,
    a complex128 or complex64 array of that shape and contiguous rows, if
    given, and out is returned.  Into complex64 the tables are rounded once to
    float32 and each row is an sgemm.  Each float of a sample is then a sum
    of two products of rounded factors, rounded (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., Lemma 3.1), so it is within
    gamma_4 = 4u / (1 - 4u) of exact, u = 2^-24; |sample| is within
    sqrt(2) gamma_4 = 3.4e-7 of one and the phase within 3.4e-7 rad (about
    1.3e-7 measured), against 5e-16 and 3e-12 in complex128.
    """
    encoded = np.atleast_1d(np.asarray(encoded, dtype=np.float64))
    if encoded.size == 0:
        raise ConfigError("encoded sequence must be non-empty")
    n_rows, n = encoded.size, cfg.fft_size
    if out is None:
        out = np.empty((n_rows, n), dtype=np.complex128)
    elif (
        out.shape != (n_rows, n)
        or out.dtype not in (np.complex128, np.complex64)
        or out.strides[1] != out.itemsize
    ):
        raise ConfigError(
            f"out must be ({n_rows}, {n}) complex128 or complex64, rows contiguous, "
            f"got {out.shape} {out.dtype}"
        )
    freqs = np.atleast_1d(voltage_to_frequency(encoded, full_scale, cfg))
    if np.ndim(start_phase):
        phases0 = np.asarray(start_phase, dtype=np.float64)
        if phases0.shape != (n_rows,):
            raise ConfigError(f"start_phase must be a scalar or ({n_rows},), got {phases0.shape}")
    else:
        phases0 = block_start_phases(freqs, cfg, start_phase)
    # Row b's sample q' * m + r is coarse[b, q'] * fine[b, r], with (m, q) = _tone_split(n),
    # fine = exp(j 2 pi c r), coarse = exp(j (phi + 2 pi c m q')) and c = f / fs.  Each
    # table is the outer product of two factors along the split of its length, fine[r' a + r]
    # = exp(j 2 pi c r) exp(j 2 pi c a r') and coarse[p' a' + p] = exp(j (phi + 2 pi c m p))
    # exp(j 2 pi c m a' p'), whose angles are reduced to [0, 2 pi) as 2 pi (t - floor(t)) of
    # t = c times the sample step: t - floor(t) is fmod(t, 1) for t >= 0, both exact, in
    # 1/30 of the time.  So a row takes a + b + a' + b' cosines and sines, 40 at
    # n = 8192, not m + q.  |sample| is within ~5e-16 of one, the phase ~3e-12 rad of exact.
    # The outer products are matmuls of a column by a row, which, unlike a broadcast
    # multiply, take no ufunc buffer.  The row itself is a real product: as floats it is
    # [Re coarse, Im coarse] (q x 2) @ [fine; j fine] (2 x 2m), one BLAS dgemm per row, or
    # into complex64 rows one sgemm of the tables rounded to float32.
    m, q, (a, b, a2, b2), steps = _tone_steps(n)
    cycles = freqs / cfg.sample_rate

    tables = scratch("modulate", (_TONE_TILE, 2 * m + q + steps.size), np.complex128)
    if out.dtype == np.complex64:
        rounded = scratch("modulate float32", (_TONE_TILE, 2 * m + q), np.complex64)
    for t in range(0, n_rows, _TONE_TILE):
        u = min(t + _TONE_TILE, n_rows)
        rows = u - t
        f, c = tables[:rows, : 2 * m], tables[:rows, 2 * m : 2 * m + q]
        factors = tables[:rows, 2 * m + q :]
        turns = np.multiply(cycles[t:u, None], steps, out=factors.imag)
        np.subtract(turns, np.floor(turns, out=factors.real), out=turns)
        np.multiply(turns, 2 * np.pi, out=turns)
        first = turns[:, a + b : a + b + a2]
        np.add(first, phases0[t:u, None], out=first)
        np.cos(turns, out=factors.real)
        np.sin(turns, out=turns)
        fine_lo, fine_hi = factors[:, :a], factors[:, a : a + b]
        coarse_lo, coarse_hi = factors[:, a + b : a + b + a2], factors[:, a + b + a2 :]
        fine, j_fine = f[:, :m], f[:, m:]
        np.matmul(fine_hi[:, :, None], fine_lo[:, None, :], out=fine.reshape(rows, b, a))
        np.negative(fine.imag, out=j_fine.real)
        np.copyto(j_fine.imag, fine.real)
        np.matmul(coarse_hi[:, :, None], coarse_lo[:, None, :], out=c.reshape(rows, b2, a2))
        product = tables[:rows, : 2 * m + q]
        if out.dtype == np.complex64:
            product = rounded[:rows]
            np.copyto(product, tables[:rows, : 2 * m + q], casting="same_kind")
        real = product.real.dtype
        np.matmul(
            product[:, 2 * m :].view(real).reshape(rows, q, 2),
            product[:, : 2 * m].view(real).reshape(rows, 2, 2 * m),
            out=out[t:u].view(real).reshape(rows, q, 2 * m),
        )
    return out


# The raw receiver completes a block's band where the union bound exceeds
# _EPSILON (module docstring).
_EPSILON = 1e-12

# A row's peak is taken without the FFT, or from the FFT's candidate bins,
# where a bound holds with a margin of _ETA over the float64 rounding of the
# sums (module docstring); on complex64 rows the direct tier also allows for
# its float32 sums (``_rounding``).
_ETA = 1e-9

# The max-norm bound counts E bins j - _TONE .. j + _TONE as the tone's, and
# sums them exactly into odd bins O[j + d] for d in -_SPAN - 1 .. _SPAN.
_TONE, _SPAN = 8, 24
_TONE_BINS = np.arange(-_TONE, _TONE + 1)
# The pre-check of the kernel sums runs on a tile only where a row's N |x|^2
# exceeds _NOISY |E[j]|^2.  On AWGN it first skips a row's sums at -10 dB,
# where that ratio is 11 or more; at 0 dB (2 to 5) it skipped none, and cost
# 3-5% of the FFT path's time.
_NOISY = 8
_SPAN_BINS = np.array([d for d in range(-_SPAN - 1, _SPAN + 1) if d not in (-1, 0)])

# The direct tier (module docstring): its autocorrelations skip a row's first
# _SKIP samples, which a multipath channel fills in part with the previous
# block's tone (the packaged tap profiles reach 4 samples on the fast
# profile), and read the _SEGMENT samples after them, or _RAW_SEGMENT on a raw
# row; it tries an interpolating row only where |r_1| >= _CLEAN |x|^2 over
# _GATE samples.  The interpolating receiver computes the padded bins
# 2j + _PADDED, the raw one three bins k, k + 1, k + 2.
_SKIP, _GATE, _SEGMENT, _RAW_SEGMENT, _CLEAN = 16, 512, 2048, 512, 0.7
_PADDED, _TRIPLE = (-2, -1, 0, 1, 2), (0, 2, 4)
_STEPS = np.arange(3)  # the bins k, k + 1, k + 2 of a triple from k

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
    h.flags.writeable = c.flags.writeable = False  # shared by every call and thread
    if n < 4 * (_SPAN + 1):
        return h, c, None, None, None
    magnitude = 1.0 / (n * np.sin(phi))  # |K|, largest at K[0] = K[-1], least at n / 2
    near = kernel[(_SPAN_BINS[None, :] - _TONE_BINS[:, None]) % n]
    near.flags.writeable = False
    return h, c, near, magnitude[_SPAN + 1 - _TONE], magnitude.sum()


@functools.lru_cache(maxsize=8)
def _rounding(n: int, dtype) -> tuple[float, float]:
    """(gamma, kappa): on n-sample rows of dtype, the direct tier's N |x|^2 is
    within gamma N |x|^2 of exact and each bin within kappa sqrt(N |x|^2),
    beyond the float64 rounding that _ETA covers (module docstring): 0 and 0
    on complex128 rows, gamma_2n and sqrt(2) gamma_(2m + 1) on complex64 ones,
    with gamma_k = k u / (1 - k u), u = 2^-24 and m of the tone split."""
    if dtype == np.complex128:
        return 0.0, 0.0
    u = float(np.finfo(np.float32).eps) / 2

    def gamma(k):
        return k * u / (1 - k * u)

    return gamma(2 * n), np.sqrt(2) * gamma(2 * _tone_split(n)[0] + 1)


@functools.lru_cache(maxsize=8)
def _direct_tables(n: int, offsets: tuple[int, ...], tile: int, dtype):
    """The direct tier's tables for the bins b + offsets / 2 of n-point rows
    of dtype (``_direct_bins``), with (m, q) = _tone_split(n), the k offsets
    o_i and z = exp(-j pi / n) the half-bin twiddle:
    - steps, the sample steps r < m and -m p for p < q, as one (1, m + q) row;
    - twiddles, two planes of length L: z^i, then j z^i, for lo <= i < hi,
      the range of a residue mod 2n plus o_i r, rounded to the rows' dtype;
    - fine, (tile, m, 2k): o_i r - lo + L s at [., r, s k + i];
    - coarse, (tile, q, k): (-o_i m p) mod 2n at [., p, i];
    - z, the twiddles' z^i for i < 2n, in complex128 (the coarse sums).
    The index tables are repeated over a tile of rows, so that a tile's
    indices are one add of two arrays of one shape."""
    m, q = _tone_split(n)
    o = np.asarray(offsets)
    r = np.arange(m)
    lo, hi = min(o.min(), 0) * (m - 1), 2 * n + max(o.max(), 0) * (m - 1)
    plane = np.exp(-1j * np.pi * (np.arange(lo, hi) % (2 * n)) / n)
    twiddles = np.concatenate([plane, 1j * plane]).astype(dtype)
    fine = r[:, None, None] * o - lo + plane.size * np.arange(2)[:, None]
    coarse = -m * np.arange(q)[:, None] * o % (2 * n)
    tables = (
        np.concatenate([r, -m * np.arange(q)])[None, :],
        twiddles,
        np.repeat(fine.reshape(1, m, -1), tile, axis=0),
        np.repeat(coarse[None], tile, axis=0),
        plane[-lo : 2 * n - lo],
    )
    for table in tables:
        table.flags.writeable = False  # shared by every call and thread
    return tables


class _Receiver(NamedTuple):
    """A receiver's set-up for one ModemConfig (``_receiver``)."""

    k_lo: int  # in-band bins k_lo..k_hi of the N-point grid
    k_hi: int
    lo: int  # k_lo..k_hi and one neighbour each side
    hi: int
    k2_lo: int  # in-band bins of the 2N-point padded grid
    k2_hi: int
    tile: int  # rows per FFT tile, gathered batch and tile of direct bins
    row: int  # the direct bins' scratch per row, in complex elements
    half: tuple | None  # _half_bin_tables(n), interpolating only
    offsets: tuple  # the direct bins' half-bin offsets (_direct_tables)


@functools.lru_cache(maxsize=8)
def _receiver(cfg: ModemConfig, interpolate: bool) -> _Receiver:
    """What ``_peak_frequencies`` needs of cfg and the receiver: built once
    per pair, not per call, since the transmit calls the receiver once per
    tile.

    The direct bins' scratch per row holds the row's int64 twiddle indices,
    its real twiddle matrix and its sums (``_direct_bins``).
    """
    n = cfg.fft_size
    k_lo, k_hi, lo, hi = _band_edges(cfg, n)
    k2_lo, k2_hi, _, _ = _band_edges(cfg, 2 * n)
    offsets = _PADDED if interpolate else _TRIPLE
    m, q = _tone_split(n)
    row = (m + q + 1) // 2 + (3 * m + q) * len(offsets)
    tile = max(1, _TILE_BYTES // (16 * n))
    return _Receiver(
        k_lo, k_hi, lo, hi, k2_lo, k2_hi, tile, row,
        _half_bin_tables(n) if interpolate else None, offsets,
    )


def _peak_frequencies(
    blocks: np.ndarray, cfg: ModemConfig, interpolate: bool, band_noise=None
) -> np.ndarray:
    """Per-row in-band peak frequency (Hz).

    The call gates its rows and takes those that pass through the direct
    tier: in place as one batch where they are consecutive, else gathered a
    tile at a time.  It then transforms the rows left a tile at a time into
    the thread's buffer.  band_noise, if given, is a ``channel.BandNoise``
    (see the module docstring).
    """
    blocks = np.ascontiguousarray(blocks)  # the direct tier views each row as (q, m)
    n_rows, n = blocks.shape
    setup = _receiver(cfg, interpolate)
    k_lo, k_hi, lo, hi, _, _, tile, row, _, _ = setup
    inband, width = slice(k_lo - lo, k_hi - lo + 1), hi - lo + 1
    # The thread's scratch, in complex elements: the FFT tile's buffer, which
    # also takes gathered rows, the direct bins' scratch, the band's powers
    # and squares, and the completion's draws outside the window.
    body = tile * (n + row)
    bands = body + tile * width
    n_rest = 0 if band_noise is None else max(k_hi - k_lo + 1 - band_noise.window.shape[1], 0)
    space = scratch("receiver", (bands + n_rest,), np.complex128)
    draw = None if band_noise is None else band_noise.cursor()
    buf = space[: tile * n].reshape(tile, n)
    # k: each row's peak bin (of the padded grid where interpolating), and
    # triple the powers of bins k - 1, k, k + 1.
    k = np.zeros(n_rows, dtype=np.int64)
    triple = np.zeros((n_rows, 3)) if interpolate else None
    done = _gate(blocks, setup, interpolate, band_noise)
    cand = done.nonzero()[0]
    if cand.size:
        # Consecutive rows are one batch, read in place; others are
        # gathered into buf a tile at a time.
        step = cand.size if cand[-1] - cand[0] == cand.size - 1 else tile
        for i in range(0, cand.size, step):
            which = cand[i : i + step]
            ok, peak, near = _direct_peaks(
                _rows_of(blocks, which, buf), setup, band_noise, which, space[tile * n : body]
            )
            decided = which[ok]
            k[decided] = peak
            if interpolate:
                triple[decided] = near
            done[which[~ok]] = False
    # The FFT path, on the rows the direct tier left.
    left = (~done).nonzero()[0]
    if left.size:
        powers, squares = space[body:bands].view(np.float64).reshape(2, tile, width)
        rest = space[bands : bands + n_rest]
    for i in range(0, left.size, tile):
        which = left[i : i + tile]
        m = which.size
        spectrum = _spectra(blocks, which, buf)
        power, imag2 = powers[:m], squares[:m]
        # Squared magnitude, computed only around the search band: cheaper
        # than abs over the full spectrum, and the parabola vertex on
        # log-power equals the vertex on log-magnitude (the logs differ by 2x).
        seg = spectrum[:, lo : hi + 1]
        np.square(seg.real, out=power)
        np.square(seg.imag, out=imag2)
        power += imag2
        j = power[:, inband].argmax(axis=1)  # the in-band N-point peak
        if interpolate:
            energy = np.vecdot(spectrum, spectrum).real  # sum |E|^2 = N |x|^2
            k[which], triple[which] = _interpolated_peaks(
                spectrum, power, energy, setup, blocks, which, j + k_lo
            )
            continue
        if draw is not None:
            j = _noisy_peaks(
                seg[:, inband], power[:, inband], j, imag2[:, inband], band_noise, which, draw,
                rest,
            )
        elif not power[np.arange(m), j + k_lo - lo].all():
            raise DemodError("no spectral peak in band (all-zero block?)")
        k[which] = j + k_lo
    if interpolate:
        return _parabola(k, triple, cfg, n)
    return k * cfg.sample_rate / n


def _rows_of(blocks, which, buf):
    """Rows which (ascending) of blocks: a view where they are consecutive,
    else a copy in buf, viewed in the rows' dtype."""
    if which[-1] - which[0] == which.size - 1:
        return blocks[which[0] : which[-1] + 1]
    room = buf.reshape(-1).view(blocks.dtype)[: which.size * blocks.shape[1]]
    return blocks.take(which, axis=0, out=room.reshape(which.size, -1), mode="clip")


def _spectra(blocks, which, buf):
    """The N-point FFTs of rows which of blocks, in buf: straight from
    complex128 rows, and from complex64 rows upcast into buf first, so that
    the FFT path reads every row in float64."""
    out = buf[: which.size]
    if blocks.dtype == np.complex128:
        return np.fft.fft(_rows_of(blocks, which, buf), axis=1, out=out)
    if which[-1] - which[0] == which.size - 1:
        np.copyto(out, blocks[which[0] : which[-1] + 1])
    else:
        for i, r in enumerate(which):
            out[i] = blocks[r]
    return np.fft.fft(out, axis=1, out=out)


def _gate(x, setup: _Receiver, interpolate, band_noise):
    """Which rows of x the direct tier tries (module docstring)."""
    m, n = x.shape
    n_bins = setup.k_hi - setup.k_lo + 1
    # The raw receiver's three bins lie in the band, or with band noise in
    # the window.
    width = n_bins if band_noise is None else min(band_noise.window.shape[1], n_bins)
    seg = min(_GATE, n - _SKIP - _tone_split(n)[0])
    if seg <= 0 or not (interpolate or width >= 3):
        return np.zeros(m, dtype=bool)
    if not interpolate:
        # A raw decision is a bin, which the tier proves equal to the FFT
        # path's or leaves to it, so the lag test below would only spare it
        # rows it rejects; raw runs hold none (their channel is noiseless).
        if band_noise is None:
            return np.ones(m, dtype=bool)
        # The window decides a row only where the union bound holds: try rows
        # where it would with a margin of a half-bin tone's peak, 2/pi
        # sqrt(N |x|^2), plus the largest noise bin.  A clean tone's modulus
        # is constant past the edge, so one sample gives |x|^2 / N.
        window = band_noise.window[:, :width]
        margin = 2 / np.pi * n * np.abs(x[:, _SKIP]) + np.abs(window).max(axis=1)
        with np.errstate(over="ignore"):
            bound = (n_bins - width) * np.exp(-0.5 * np.square(margin / band_noise.deviation))
        return bound <= _EPSILON
    # |r_1| over the first _GATE samples past the edge is their power p for a
    # clean tone, and less by the noise's share of p.
    head = x[:, _SKIP : _SKIP + seg]
    power = np.vecdot(head, head).real
    lag = np.vecdot(head, x[:, _SKIP + 1 : _SKIP + 1 + seg])
    return (power > 0) & (np.abs(lag) >= _CLEAN * power)


def _direct_peaks(x, setup: _Receiver, band_noise, which, space):
    """The direct tier on rows x, rows which of the call (module docstring).

    Returns (ok, k, triple): which rows it decides, and for those their peak
    bin k and the interpolating receiver's triple, as in
    ``_peak_frequencies``.  space is the scratch of its bins (``_direct_bins``).
    """
    m, n = x.shape
    k_lo, k_hi = setup.k_lo, setup.k_hi
    n_bins = k_hi - k_lo + 1
    split = _tone_split(n)[0]
    # A raw run's rows carry no time-domain noise (its channel runs at
    # csnr_db = inf), so their tone needs no long average; and a raw decision
    # that a short segment misplaces fails its proof and takes the FFT path.
    seg = min(_SEGMENT if setup.half is not None else _RAW_SEGMENT, n - _SKIP - split)
    # N |x|^2 by einsum, which releases the GIL.  Not np.vecdot: on the complex
    # rows (BLAS's zdotc) it holds the GIL for the whole call, so the pool's
    # other worker waits (a 1 s JTC outdoor raw run took 51-57 ms against
    # 44-51 ms); on the float view its ddot runs on OpenBLAS's threads above
    # 10,000 floats, which convoy with the pool's.
    # On complex64 rows it sums in float32 (``_rounding``).
    floats = x.view(x.real.dtype)
    power = n * np.einsum("ij,ij->i", floats, floats).astype(np.float64, copy=False)
    # The tone's frequency: r_1's phase over the segment, unwrapped onto that
    # of r_s (s = m of the tone split), which reads it s times finer.
    head = x[:, _SKIP : _SKIP + seg]
    coarse = np.angle(np.vecdot(head, x[:, _SKIP + 1 : _SKIP + 1 + seg])) / (2 * np.pi)
    fine_turns = np.angle(np.vecdot(head, x[:, _SKIP + split : _SKIP + split + seg])) / (2 * np.pi)
    cycles = (fine_turns + np.rint(coarse * split - fine_turns)) / split
    j = np.minimum(np.maximum(np.rint(cycles * n).astype(np.int64) % n, k_lo), k_hi)
    if setup.half is not None:
        bins = _direct_bins(x, j, setup.offsets, space, setup.tile)
        powers = np.square(bins.real) + np.square(bins.imag)  # padded bins 2j - 2 .. 2j + 2
        # Parseval over E: no bin but j - 1, j, j + 1 holds more than the rest
        # of N |x|^2, so j is the FFT's in-band peak.
        limit = powers[:, 2] * (1 - _ETA)
        ok = power - powers[:, 0] - powers[:, 2] - powers[:, 4] < limit
        ok &= (powers[:, 0] < limit) | (j <= k_lo)
        ok &= (powers[:, 4] < limit) | (j >= k_hi)
        a2, k, triple = _padded_candidates(powers, j, setup)
        ok &= (power - powers[:, 1] - powers[:, 3] < a2 * (1 - _ETA)) & (a2 > 0)
        return ok, k[ok], triple[ok]
    # Bins j - 1 .. j + 1, kept inside the band, or with band noise inside
    # the window the FFT path places around j.
    first, width = k_lo, n_bins
    if band_noise is not None:
        full_width = band_noise.window.shape[1]
        width = min(full_width, n_bins)
        start = np.minimum(np.maximum(j - k_lo - full_width // 2, 0), n_bins - width)
        first = k_lo + start
    base = np.minimum(np.maximum(j - 1, first), first + width - 3)
    bins = _direct_bins(x, base, setup.offsets, space, setup.tile)
    # Every bound below allows for the bins' error, at most spread, and for
    # that of N |x|^2, at most gamma of it: both 0 on complex128 rows.
    gamma, kappa = _rounding(n, x.dtype)
    upper = power / (1 - gamma)  # >= N |x|^2
    spread = kappa * np.sqrt(upper)
    magnitude = np.abs(bins)
    top, sure, ok = _sure_top(magnitude, spread)
    # Parseval over E: no other bin holds more than the rest R of N |x|^2, so
    # the top bin is the FFT's strict in-band peak.
    rest = upper - np.square(np.maximum(magnitude - spread[:, None], 0.0)).sum(axis=1)
    ok &= rest < np.square(sure) * (1 - _ETA)
    k = base + top
    if band_noise is not None:
        # The window must be the one the FFT path places.  Its other bins
        # hold |E + w| <= sqrt(R) + |w|, so where that stays below A, the
        # largest noisy bin of the three, A is the window's peak; and the
        # union bound must hold with X_out <= sqrt(R).
        rows = np.arange(m)
        ok &= np.minimum(np.maximum(k - k_lo - full_width // 2, 0), n_bins - width) == start
        window = band_noise.window[which, :width]
        cols = (base - first)[:, None] + _STEPS
        noisy = bins + window[rows[:, None], cols]
        top, sure, clear = _sure_top(np.abs(noisy), spread)
        ok &= clear
        others = np.abs(window)
        others[rows[:, None], cols] = 0.0
        out_peak = np.sqrt(np.maximum(rest, 0.0))
        ok &= np.square(out_peak + others.max(axis=1)) < np.square(sure) * (1 - _ETA)
        margin = np.maximum(sure - out_peak, 0.0)
        with np.errstate(over="ignore"):
            bound = (n_bins - width) * np.exp(-0.5 * np.square(margin / band_noise.deviation))
        ok &= bound <= _EPSILON
        k = base + top
    return ok, k[ok], None


def _sure_top(magnitude, spread):
    """(top, sure, clear) for bins each within spread of exact, given their
    magnitudes (rows, 3): each row's largest bin, the least magnitude its
    exact bin can hold, and whether every other exact bin holds less power
    than sure^2 by a margin of _ETA."""
    rows = np.arange(len(magnitude))
    top = magnitude.argmax(axis=1)
    sure = np.maximum(magnitude[rows, top] - spread, 0.0)
    others = magnitude + spread[:, None]
    others[rows, top] = 0.0
    return top, sure, np.square(others.max(axis=1)) < np.square(sure) * (1 - _ETA)


def _direct_bins(x, base, offsets, space, tile):
    """Bins base + offsets / 2 of each row of x (``_direct_tables``).

    Viewed as (q, m), row x holds sample p m + r at [p, r], so its bin
    h / 2 is sum_p z^(h m p) sum_r x[p, r] z^(h r), with z the half-bin
    twiddle: a matrix product of the row with its fine twiddles, then a
    q-long coarse sum.  The product is real: the row as (q, 2m) floats @ a
    (2m, 2k) matrix whose rows 2r and 2r + 1 are z^(h r) and j z^(h r) as
    floats, one BLAS gemm per row: a dgemm on complex128 rows, an sgemm on
    complex64 ones, whose sums are upcast for the q-long coarse sum.  It runs
    a tile of rows at a time, with their twiddle indices, twiddles and sums
    in space (complex128).
    """
    rows, n = x.shape
    steps, twiddles, fine_index, coarse_index, z = _direct_tables(n, offsets, tile, x.dtype)
    m, q = _tone_split(n)
    k = len(offsets)
    real, wide = x.real.dtype, x.dtype == np.complex128
    bins = np.empty((rows, k), dtype=np.complex128)
    double = 2 * base[:, None]
    for s in range(0, rows, tile):
        t = min(tile, rows - s)
        # With h = 2 base + o, h r = 2 base r + o r and -h m p = -2 base m p - o m p:
        # each row's 2 base r and -2 base m p mod 2n, plus the tables' o parts,
        # which keep the fine indices inside their plane and the coarse ones
        # below 4n.  Each buffer is counted in complex128 elements; the twiddles
        # and sums of complex64 rows take half of theirs.
        e0 = (t * (m + q) + 1) // 2
        e1 = e0 + t * m * k
        e2 = e1 + (2 if wide else 1) * t * m * k
        shift = space[:e0].view(np.int64)[: t * (m + q)].reshape(t, m + q)
        np.remainder(np.matmul(double[s : s + t], steps, out=shift), 2 * n, out=shift)
        index = space[e0:e1].view(np.int64).reshape(t, m, 2 * k)
        np.copyto(index, shift[:, :m, None])
        np.add(index, fine_index[:t], out=index)
        f = space[e1:e2].view(x.dtype).reshape(t, m, 2 * k)
        twiddles.take(index, out=f, mode="clip")
        y = space[e2:].view(x.dtype)[: t * q * k].reshape(t, q, k)
        np.matmul(
            x[s : s + t].view(real).reshape(t, q, 2 * m),
            f.view(real).reshape(t, 2 * m, 2 * k),
            out=y.view(real).reshape(t, q, 2 * k),
        )
        if not wide:
            sums = space[e2 + (t * q * k + 1) // 2 :][: t * q * k].reshape(t, q, k)
            np.copyto(sums, y)
            y = sums
        # f and index are spent: their buffers take the coarse twiddles'
        # conjugates and their indices.
        turns = index.reshape(-1)[: t * q * k].reshape(t, q, k)
        np.copyto(turns, shift[:, m:, None])
        np.add(turns, coarse_index[:t], out=turns)
        c = z.take(turns, out=space[e1 : e1 + t * q * k].reshape(t, q, k), mode="wrap")
        np.vecdot(c, y, axis=1, out=bins[s : s + t])
    return bins


def _padded_candidates(powers, j, setup: _Receiver):
    """For the powers of padded bins 2j - 2 .. 2j + 2 of each row: A^2, the
    largest in-band power of the candidates 2j - 1, 2j, 2j + 1, and the first
    candidate k that holds it, with the powers of bins k - 1, k, k + 1."""
    above = 2 * j[:, None] + _STEPS  # each candidate + 1
    in_band = np.where((above > setup.k2_lo) & (above <= setup.k2_hi + 1), powers[:, 1:4], -1.0)
    pick = in_band.argmax(axis=1)
    triple = powers[np.arange(len(j))[:, None], pick[:, None] + _STEPS]
    return np.maximum(in_band.max(axis=1), 0.0), 2 * j - 1 + pick, triple


def _parabola(k, triple, cfg: ModemConfig, n: int):
    """Frequency (Hz) of padded peaks k refined by the parabola through the
    log powers triple of bins k - 1, k, k + 1.

    k lies in the padded band, so k <= 2n - 2 (f_max is below Nyquist), and
    only k = 0 has no left neighbour: its vertex stays on the bin.
    """
    alpha, beta, gamma = np.log(np.maximum(triple, triple[:, 1:2] * 1e-24)).T
    denom = alpha - 2 * beta + gamma
    delta = np.zeros(len(k))
    np.divide(0.5 * (alpha - gamma), denom, out=delta, where=(denom < 0) & (k > 0))
    np.minimum(np.maximum(delta, -0.5, out=delta), 0.5, out=delta)
    return (k + delta) * cfg.sample_rate / (2 * n)


def _interpolated_peaks(spectrum, power, energy, setup: _Receiver, blocks, which, j):
    """The padded peak k of rows which of blocks and the powers of bins
    k - 1, k, k + 1, which the parabola reads (module docstring).

    spectrum holds the rows' N-point FFTs E, in the thread's buffer, power
    |E|^2 over the grid's bins lo..hi, energy their N |x|^2, and j each
    row's in-band peak of E.  The fallback overwrites spectrum.
    """
    h, c, near_table, far_kernel, kernel_norm = setup.half
    m, n = spectrum.shape
    lo = setup.lo
    rows = np.arange(m)
    # Powers of padded bins 2j - 2 .. 2j + 2; the odd ones, 2j -+ 1, are O[j - 1]
    # and O[j].  (Where k_lo = 0, bin 2j - 2 may wrap to the band's last column:
    # it is then outside the band, and no parabola reads it.)
    powers = np.zeros((m, 5))
    powers[:, 0::2] = power[rows[:, None], j[:, None] + (-1 - lo, -lo, 1 - lo)]
    both, norm = np.zeros(m, dtype=bool), None
    if near_table is not None:
        tone = spectrum[rows[:, None], (j[:, None] + _TONE_BINS) % n]
        both, norm = _pre_check(spectrum, power, energy, powers[:, 2], tone, j, setup)
    odd = np.zeros((m, 2), dtype=np.complex128)
    for r in np.flatnonzero(~both):
        s = n - j[r]
        odd[r, 0] = np.dot(h[s : s + n], spectrum[r])
        odd[r, 1] = np.dot(h[s - 1 : s - 1 + n], spectrum[r])
    powers[:, 1::2] = np.square(odd.real) + np.square(odd.imag)
    a2, k, triple = _padded_candidates(powers, j, setup)
    limit = a2 * (1 - _ETA)
    # Parseval: no other odd bin holds more than R = N |x|^2 - |O[j - 1]|^2 - |O[j]|^2.
    ok = energy - powers[:, 1] - powers[:, 3] < limit
    if not ok.all() and near_table is not None:
        if norm is None:
            norm = _max_norm(spectrum, power, tone, j, setup)
        ok |= norm < limit
    ok &= ~both
    # Where a bound holds, the padded peak is the first largest in-band
    # candidate, and its parabola's neighbours are all known.  A row with no
    # in-band power takes the fallback, which raises DemodError.
    fall = np.flatnonzero(~ok | (a2 == 0))
    if fall.size:
        k[fall], triple[fall] = _odd_band_peaks(blocks, which[fall], fall, power, setup, c, spectrum)
    return k, triple


def _pre_check(spectrum, power, energy, peak, tone, j, setup: _Receiver):
    """(both, norm): which rows must fail both bounds of
    ``_interpolated_peaks`` whatever their kernel sums hold, and the max-norm
    bound's side where it was computed, else None (module docstring).

    peak holds each row's |E[j]|^2, tone its bins E_T.  A^2 is at most
    a2_high; the max-norm side is computed only where Parseval must fail.
    A tile where no row's N |x|^2 exceeds _NOISY |E[j]|^2 skips the check."""
    if not (energy > _NOISY * peak).any():
        return np.zeros(len(peak), dtype=bool), None
    # |O[j - 1]| and |O[j]| are at most the tone's part (K * E_T) plus, by
    # Cauchy-Schwarz, |E_R| |K| over the other offsets, with |E_R|^2 = N |x|^2
    # - |E_T|^2 by Parseval; raised by _ETA over rounding.
    window, tails = _candidate_kernel(spectrum.shape[1])
    rest = np.sqrt(np.maximum(energy - np.square(np.abs(tone)).sum(axis=1), 0.0))
    high = np.square((np.abs(tone @ window) + rest[:, None] * tails) * (1 + _ETA))
    a2_high = np.maximum(peak, high.max(axis=1)) * (1 + _ETA)
    both = energy - high.sum(axis=1) >= a2_high
    if not both.any():
        return both, None
    norm = _max_norm(spectrum, power, tone, j, setup)
    return both & (norm >= a2_high), norm


def _max_norm(spectrum, power, tone, j, setup: _Receiver):
    """The square of the max-norm bound on each row's odd bins other than
    the candidates (module docstring), given the rows' tone bins E_T."""
    _, _, near_table, far_kernel, kernel_norm = setup.half
    m, n = spectrum.shape
    lo, hi = setup.lo, setup.hi
    rows = np.arange(m)
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
    near = (tone[:, :, None] * near_table).sum(axis=1)
    near = np.sqrt((np.square(near.real) + np.square(near.imag)).max(axis=1))
    far = np.abs(tone).sum(axis=1) * far_kernel
    return np.square(np.maximum(near, far) + np.sqrt(rest) * kernel_norm)


@functools.lru_cache(maxsize=4)
def _candidate_kernel(n: int):
    """The kernel at the candidates O[j - 1] and O[j] from the tone's bins
    E[j + t], t in _TONE_BINS: K[d - t] for d = -1, 0, as (tone bins, 2),
    and for each d the root of sum |K|^2 over the other offsets."""
    kernel = _half_bin_tables(n)[0][n - 1 :: -1]  # K[i] = h[n - 1 - i]
    window = kernel[(np.array([-1, 0]) - _TONE_BINS[:, None]) % n]
    tails = np.sqrt(np.square(np.abs(kernel)).sum() - np.square(np.abs(window)).sum(axis=0))
    window.flags.writeable = tails.flags.writeable = False  # shared by every call and thread
    return window, tails


def _odd_band_peaks(blocks, which, fall, power, setup: _Receiver, c, x):
    """The fallback: the padded peak k of rows which of blocks, searched over
    the whole band, and the powers of bins k - 1, k, k + 1.

    fall holds the rows' rows in power, the |E|^2 of a tile over the grid's
    bins lo..hi.  The odd bins O come from an FFT of x c, done in x.  Each
    row of x, viewed as floats, then holds the padded powers at their own
    bin indices 2 lo .. 2 hi + 1: |E[i]|^2 at 2i, written over Re O[i], and
    |O[i]|^2 at 2i + 1.  Returns (k, (len(which), 3) powers).
    """
    lo, hi, k2_lo, k2_hi = setup.lo, setup.hi, setup.k2_lo, setup.k2_hi
    for i, r in enumerate(which):
        np.multiply(blocks[r], c, out=x[i])
    band = np.fft.fft(x[: which.size], axis=1, out=x[: which.size]).view(np.float64)
    band = band[:, 2 * lo : 2 * hi + 2]
    np.square(band, out=band)
    np.add(band[:, 0::2], band[:, 1::2], out=band[:, 1::2])
    for i, r in enumerate(fall):
        band[i, 0::2] = power[r]
    k = band[:, k2_lo - 2 * lo : k2_hi - 2 * lo + 1].argmax(axis=1) + k2_lo
    triple = band[np.arange(which.size)[:, None], k[:, None] - 2 * lo + (-1, 0, 1)]
    if not triple[:, 1].all():
        raise DemodError("no spectral peak in band (all-zero block?)")
    return k, triple


def _noisy_peaks(band, power, j, spare, band_noise, which, draw, rest) -> np.ndarray:
    """In-band index of each row's peak once band_noise is added to in-band
    bins band of rows which of the call, whose squared magnitudes are power
    and whose noiseless peaks are j (module docstring).

    draw is the call's cursor of band_noise.  power, and band on the rows
    that complete, are overwritten; spare (power's shape) and rest are
    scratch.
    """
    (m, n_bins), full_width = band.shape, band_noise.window.shape[1]
    width = min(full_width, n_bins)
    rows = np.arange(m)
    start = np.clip(j - full_width // 2, 0, n_bins - width)
    cols = start[:, None] + np.arange(width)
    power[rows[:, None], cols] = 0.0
    out_peak = np.sqrt(power.max(axis=1))
    noisy = band[rows[:, None], cols] + band_noise.window[which, :width]
    noisy_power = np.square(noisy.real) + np.square(noisy.imag)
    peak = noisy_power.argmax(axis=1)
    margin = np.maximum(np.sqrt(noisy_power[rows, peak]) - out_peak, 0.0)
    # A margin past ~1e154 deviations overflows its square; the bound is 0.
    with np.errstate(over="ignore"):
        bound = (n_bins - width) * np.exp(-0.5 * np.square(margin / band_noise.deviation))
    k = start + peak
    for r in np.flatnonzero(bound > _EPSILON):
        s, row, p = start[r], band[r], power[r]
        draw(which[r], rest)
        row[s : s + width] = noisy[r]
        row[:s] += rest[:s]
        row[s + width :] += rest[s:]
        np.square(row.real, out=p)
        p += np.square(row.imag, out=spare[r])
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
    blocks = np.asarray(blocks)
    if interpolate or blocks.dtype != np.complex64:  # the raw receiver reads complex64 as is
        blocks = np.asarray(blocks, dtype=np.complex128)
    if blocks.ndim != 2 or blocks.shape[1] != cfg.fft_size:
        raise ConfigError(f"blocks must be (n, {cfg.fft_size}), got {blocks.shape}")
    if band_noise is not None and band_noise.window.shape[0] != blocks.shape[0]:
        raise ConfigError(
            f"band noise holds {band_noise.window.shape[0]} blocks, got {blocks.shape[0]}"
        )
    f = _peak_frequencies(blocks, cfg, interpolate, band_noise)
    return np.asarray(frequency_to_voltage(f, full_scale, cfg))
