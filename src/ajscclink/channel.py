"""Propagation impairments: AWGN, flat Rayleigh, and multipath fading.

Noise level is set by the channel signal-to-noise ratio (CSNR), the ratio
of channel-gain-weighted signal power to complex noise variance in dB.
The CSNR is taken at the nominal signal power P_sig = 1: the modulator's
tone has |x| = 1, and tap profiles and flat Rayleigh have unit mean gain.
So the noise variance is 1 / 10^(csnr_db / 10), fixed once per channel and
never measured from the blocks; csnr_db = inf disables noise.

Fading taps evolve as Rayleigh processes with the classic isotropic-
scattering Doppler spectrum, realized by a randomized sum of sinusoids
(Zheng-Xiao parameterization).  Fading is quasi-static per FFT block: each
block is multiplied by the tap gains sampled at its start time, which is
accurate while the Doppler spread stays far below the block rate.

Random streams are keyed per block.  Block b (the absolute index,
``start_block`` plus the row) draws its noise from
``SeedSequence(seed, spawn_key=(1, b))`` and, on a flat Rayleigh channel,
its coefficient h from ``spawn_key=(0, b)``.  The multipath oscillator
banks are drawn once from ``spawn_key=(0,)`` and are functions of time.  So
on a memoryless line (AWGN, flat Rayleigh, and multipath whose delays all
round to sample 0) any block range can be computed on its own, in any order.
A line with delays reads, for a range's first block, the last ``memory``
input samples of the block before it: ``process`` takes them as ``before``
and keeps nothing between calls, so a range can also start mid-stream.
``KeyedBlocks`` derives a range's per-block generator states at once, with
the bytes of one SeedSequence per block, and each call re-seats a
generator of its own block by block.  It takes blocks b < 2^32 (50 days of
fast-profile signal), and a block range that reaches past is a ConfigError.

A run with the raw FFT-bin receiver at finite CSNR draws no time-domain
noise: its channel runs at csnr_db = inf, and the receiver adds block b's
noise straight to the in-band bins it reads (``BandNoise``).  The N-point
DFT of N iid CN(0, 2s^2) samples is N iid CN(0, 2Ns^2) bins, so this is
exact in distribution.  The 9 bins around the noiseless peak take their
noise from one counter-based Philox stream keyed by ``spawn_key=(2,)``, at
counter 5 * b, so a run draws the windows of all its blocks from one stream.
The rest of the band, only where a union bound says it could move the peak
(see ``modem``), draws from ``spawn_key=(3, b)``.  The interpolating
receiver reads a 2N-point padded spectrum whose noise bins are correlated,
so its runs keep the time-domain stream (1, b).

All three channels are one tapped delay line; AWGN and flat Rayleigh have a
single tap at delay 0.  ``process`` is a serial kernel on the calling
thread, and ``harness._transmit`` calls it once per tile from each range of
its one row split (``pool``), with each row's tone frequency in cycles per
sample, c_b = f_b / f_s (``cycles``).  Inside a block the modulator's row is
the tone x[i] = exp(j (phi_b + 2 pi c_b i)), so from sample ``memory`` on
the line's output sum_d g_d[b] x[i - d] is x[i] H_b, with H_b = sum_d g_d[b]
exp(-j 2 pi c_b d): process multiplies each row by H_b in place, and takes
only its first ``memory`` samples (at most 4 on the fast profile, none on
the slow one) by the delay sum.  On a memoryless line H_b = g_0[b], and the
noise is added as the literal line adds it, so the bytes are the literal
line's; past a row's first ``memory`` samples, a line with delays differs
from it by the modulator's phase error, about 1e-12 relative.  Without
cycles, process runs the literal line for any input, a tile of a few rows
at a time (``_LINE_BYTES``) so that each ufunc call covers a tile, not a
row; it is the reference the tone path is tested against.  process takes
complex128 rows or, noiseless, complex64 ones (a raw run's, ``harness``):
those it multiplies by H_b rounded to complex64, since an in-place multiply
of mixed dtypes would buffer the rows, and their edge samples take the
delay sum in complex128, rounded once.  The time-domain noise is a float64
stream, so complex64 rows at finite CSNR are a ConfigError rather than
another stream.  A call's
set-up, the line gains (flat-Rayleigh h, two normals per block, or the
multipath cosine sums) and the noise's ``KeyedBlocks``, is built once per
call, or once per ``block_range``, in its first call: ``_transmit`` opens
one per worker range.  ``process`` writes its output over its input: the
samples that each row's delays reach back into, ``before`` or the end of
the row before it, and the row's own first ``memory`` samples are copied
out before any row is written.  Every sample gets the same operations in
the same order whichever tile and call hold its row, so the output is
byte-identical for any split of one stream into calls, whichever thread
makes each call.
"""

from __future__ import annotations

import contextlib
import copy
import functools
import importlib.resources
import threading
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, is_int, is_real
from .pool import scratch

FAMILIES = ("awgn", "flat_rayleigh", "jtc_indoor_a", "jtc_outdoor_low_a")
_DEFAULT_DOPPLER = {"jtc_indoor_a": 5.0, "jtc_outdoor_low_a": 20.0}
_BUILTIN_PROFILE_FILES = {
    "jtc_indoor_a": "jtc_indoor_residential_a.csv",
    "jtc_outdoor_low_a": "jtc_outdoor_residential_low_a.csv",
}
# Spawn-key streams: (_FADE,) seeds the oscillator banks, (_FADE, b) and
# (_NOISE, b) the flat-Rayleigh coefficient and the noise of block b, and
# (_WINDOW,) and (_REST, b) the raw receiver's in-band noise: the Philox key
# of every block's window around the peak, and the rest of block b's band.
_FADE, _NOISE, _WINDOW, _REST = 0, 1, 2, 3
# The window's bins per block, and the Philox counters (4 words each) that
# block b's window takes from counter _WINDOW_COUNTERS * b on: 20 words, of
# which the bins' Box-Muller pairs use 18.
_WINDOW_BINS, _WINDOW_COUNTERS = 9, 5
# Window rows drawn per batch, so that the draw's temporaries stay at about
# 2 MB however long the run.
_WINDOW_BATCH = 4096
_N_OSCILLATORS = 64  # sinusoids per fading tap
# S, the blocks per row of a fading tap's phasor tables (``_SumOfSinusoids``):
# a call on n blocks takes about (n / S + S) M complex exponentials per
# quadrature, fewest near S = sqrt(n).  A worker range of a 1 s fast-profile
# run holds 500 blocks, and 16 rather than 22 keeps short calls cheap.
_PHASOR_SPAN = 16
# What one tile of the literal line touches: its scratch line and tmp and its
# output rows, 16 * (3n + c) bytes a row, kept inside one core's 2 MB L2 (4
# rows, or 1.6 MB, at n = 8192).  On a 2-vCPU Xeon VM, that line on a
# 512-block fast JTC chunk at csnr_db = inf took medians (7 rounds) of 48, 26,
# 23, 23, 25, 26 and 31 ms at tiles of 1, 2, 3, 4, 5, 6 and 8 rows; the
# per-row loop took 45.  The tone path's noise tiles, of 32n bytes a row
# (noise and output), take the same budget.
_LINE_BYTES = 7 << 18


@dataclass(frozen=True)
class TapProfile:
    """Delay line taps: delays in seconds, mean powers normalized to sum 1."""

    delays: np.ndarray
    powers: np.ndarray
    name: str = ""

    def __post_init__(self):
        delays = np.asarray(self.delays, dtype=np.float64)
        powers = np.asarray(self.powers, dtype=np.float64)
        if delays.size == 0 or delays.size != powers.size:
            raise ConfigError("profile needs matching, non-empty delay and power lists")
        if not np.all(np.isfinite(delays)):
            raise ConfigError("tap delays must be finite")
        if delays[0] != 0.0:
            raise ConfigError("first tap delay must be 0")
        if np.any(np.diff(delays) <= 0):
            raise ConfigError("tap delays must be strictly increasing")
        total = powers.sum()
        if not (np.all(powers >= 0) and total > 0 and np.isfinite(total)):
            raise ConfigError("tap powers cannot be normalized")
        object.__setattr__(self, "delays", delays)
        object.__setattr__(self, "powers", powers / total)

    @classmethod
    def from_db(cls, delays, powers_db, name: str = "") -> "TapProfile":
        powers = np.power(10.0, np.asarray(powers_db, dtype=np.float64) / 10.0)
        return cls(np.asarray(delays, dtype=np.float64), powers, name)


def load_profile(path) -> TapProfile:
    """Parse a tap-profile CSV: lines of delay_seconds,power_db; # comments."""
    delays, powers_db = [], []
    try:
        fh = open(path)
    except FileNotFoundError as exc:
        raise ConfigError(f"tap profile file not found: {path}") from exc
    except (IsADirectoryError, NotADirectoryError, PermissionError) as exc:
        raise ConfigError(f"cannot read tap profile file {path}: {exc.strerror}") from exc
    except ValueError as exc:  # an embedded NUL byte
        raise ConfigError(f"cannot read tap profile file {path!r}: {exc}") from exc
    with fh:
        try:
            lines = fh.readlines()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
        for lineno, raw in enumerate(lines, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise ConfigError(f"{path}:{lineno}: expected 'delay_seconds,power_db'")
            try:
                delays.append(float(parts[0]))
                powers_db.append(float(parts[1]))
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: {exc}") from exc
    if not delays:
        raise ConfigError(f"{path}: no taps found")
    return TapProfile.from_db(delays, powers_db, name=str(path))


@functools.lru_cache(maxsize=None)
def builtin_profile(family: str) -> TapProfile:
    """Load the packaged tap table for a multipath channel family: read once
    per process, with read-only arrays, since every run of the family shares it."""
    try:
        fname = _BUILTIN_PROFILE_FILES[family]
    except KeyError:
        raise ConfigError(f"no builtin profile for family {family!r}") from None
    resource = importlib.resources.files("ajscclink.profiles").joinpath(fname)
    with importlib.resources.as_file(resource) as path:
        profile = load_profile(path)
    profile = TapProfile(profile.delays, profile.powers, name=family)
    profile.delays.flags.writeable = profile.powers.flags.writeable = False
    return profile


@dataclass(frozen=True)
class ChannelSpec:
    """Channel family, CSNR, Doppler, tap profile, and seed."""

    family: str
    csnr_db: float = float("inf")
    doppler_hz: float | None = None
    tap_profile: TapProfile | None = None
    seed: int = 0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ConfigError(f"unknown channel family {self.family!r}; expected one of {FAMILIES}")
        if self.doppler_hz is None:
            object.__setattr__(self, "doppler_hz", _DEFAULT_DOPPLER.get(self.family, 0.0))
        if not (is_real(self.doppler_hz) and 0 <= self.doppler_hz < np.inf):
            raise ConfigError(f"doppler_hz must be finite and >= 0, got {self.doppler_hz!r}")
        if not (is_int(self.seed) and self.seed >= 0):
            raise ConfigError(f"seed must be an integer >= 0, got {self.seed!r}")
        noise_deviation(self.csnr_db)  # a ConfigError past the float range
        if self.family in ("awgn", "flat_rayleigh") and self.doppler_hz != 0:
            raise ConfigError(f"{self.family} has no Doppler; doppler_hz must be 0")

    def resolved(self) -> "ChannelSpec":
        """Fill in the packaged tap profile for multipath families."""
        if self.family in _BUILTIN_PROFILE_FILES and self.tap_profile is None:
            return ChannelSpec(
                self.family, self.csnr_db, self.doppler_hz, builtin_profile(self.family), self.seed
            )
        return self


# SeedSequence's hash constants (numpy/random/bit_generator.pyx) and the
# 128-bit PCG64 multiplier, for KeyedBlocks.
_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341


def _xorshift16(v: np.ndarray) -> np.ndarray:
    return v ^ (v >> np.uint32(16))


class KeyedBlocks:
    """The generators of stream ``spawn_key=(stream, b)`` of one seed, for the
    blocks b = start_block + row, 0 <= row < n_blocks of a range.

    Block b's generator is that of
    ``np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(stream, b)))``,
    state and draws, for an int seed >= 0.  Building that SeedSequence costs
    about 25 us per block with the GIL held; here the blocks of a range share
    it.  Their entropy words differ only in the last one, b, so the pool of
    ``SeedSequence(seed, spawn_key=(stream,))`` is mixed once and b is mixed
    into it as a uint32 vector, with SeedSequence's hash constants.  Each
    block's 4 uint64 seed words (``generate_state(4, np.uint64)``) are kept,
    and ``cursor`` turns them into a PCG64 (state, inc) as the PCG64
    constructor does.  A block at b >= 2^32 would have a second key word;
    a range that reaches one is a ConfigError.
    """

    def __init__(self, seed: int, stream: int, start_block: int, n_blocks: int):
        if start_block + n_blocks > 1 << 32:
            raise ConfigError(
                f"keyed streams take blocks b < 2^32, got b up to {start_block + n_blocks - 1}"
            )
        prefix = np.random.SeedSequence(seed, spawn_key=(stream,))
        # The hashmix calls before b's: 4 to fill the pool, 12 to mix it and 4
        # per entropy word after the first 4.  The entropy is the seed's
        # uint32 words, zero-padded to 4 because there is a spawn key, then
        # the stream.
        seed_words = max(1, (int(prefix.entropy).bit_length() + 31) // 32)
        calls = 16 + 4 * (max(seed_words, 4) + 1 - 4)
        hash_a = _INIT_A * pow(_MULT_A, calls, 1 << 32) & _MASK32
        b = np.arange(start_block, start_block + n_blocks, dtype=np.uint32)
        pool = []
        for word in prefix.pool:
            v = b ^ np.uint32(hash_a)
            hash_a = hash_a * _MULT_A & _MASK32
            v = _xorshift16(v * np.uint32(hash_a))
            mixed = np.uint32(_MIX_L * int(word) & _MASK32) - np.uint32(_MIX_R) * v
            pool.append(_xorshift16(mixed))
        state = np.empty((n_blocks, 8), dtype=np.uint32)
        hash_b = _INIT_B
        for i in range(8):
            v = pool[i % 4] ^ np.uint32(hash_b)
            hash_b = hash_b * _MULT_B & _MASK32
            state[:, i] = _xorshift16(v * np.uint32(hash_b))
        self._words = state.astype("<u4").view("<u8").astype(np.uint64)

    def cursor(self):
        """A new generator for one row range, as ``seat(row)``, which sets it
        to block start_block + row's state and returns it.

        A cursor is never shared between threads: each call makes its own.
        """
        rng = np.random.Generator(np.random.PCG64(0))
        bit_generator = rng.bit_generator
        words = self._words

        def seat(row: int) -> np.random.Generator:
            s_hi, s_lo, i_hi, i_lo = words[row].tolist()
            inc = ((i_hi << 65) | (i_lo << 1) | 1) & _MASK128
            state = ((inc + ((s_hi << 64) | s_lo)) * _PCG_MULT + inc) & _MASK128
            bit_generator.state = {
                "bit_generator": "PCG64",
                "state": {"state": state, "inc": inc},
                "has_uint32": 0,
                "uinteger": 0,
            }
            return rng

        return seat


def noise_deviation(csnr_db: float) -> float:
    """Per-component deviation of the complex noise at the nominal P_sig = 1.

    The noise variance is 1 / 10^(csnr_db / 10), split evenly over the real
    and imaginary parts; inf gives 0, and past about +-3,080 dB a ConfigError.
    """
    if csnr_db == np.inf:
        return 0.0
    try:
        deviation = float(np.sqrt(1.0 / 10.0 ** (csnr_db / 10.0) / 2.0))
    except (OverflowError, ZeroDivisionError):
        deviation = 0.0
    if not 0.0 < deviation < np.inf:
        raise ConfigError(f"csnr_db must give a finite positive noise variance, got {csnr_db!r}")
    return deviation


class BandNoise:
    """The raw receiver's in-band noise for blocks start_block .. start_block + n_blocks - 1.

    ``deviation`` is the per-component deviation of a DFT bin of the noise,
    sqrt(block_size) * ``noise_deviation(spec.csnr_db)``.

    ``window`` holds the 9 window bins of every block, one row each, drawn
    here.  Block b's come from the 20 words
    ``Philox(key=k, counter=5 * b).random_raw(20)``, with
    ``k = SeedSequence(spec.seed, spawn_key=(2,)).generate_state(2, np.uint64)``:
    with u = (w >> 11) * 2^-53, bin i is the Box-Muller pair
    deviation * sqrt(-2 ln(1 - u_i)) * (cos 2 pi u_{9+i} + j sin 2 pi u_{9+i}),
    and words 18 and 19 go unused.  A Philox counter advances by one per 4
    words, so the blocks take their words from one stream started at counter
    5 * start_block, a batch of rows at a time.

    ``cursor()`` gives a receiver call its own ``draw(row, out)`` for the
    completion, which writes ``standard_normal`` of stream (3, b), b =
    start_block + row, interleaved re/im, times deviation into out, one
    complex128 per bin.  The stream's ``KeyedBlocks`` is built on the first
    draw of any cursor, so a run in which no block completes never builds
    it.  ``rows(lo, hi)`` is the noise of rows lo..hi - 1, for a receiver
    call on those blocks only; it shares the window and the completion
    stream.
    """

    def __init__(self, spec: ChannelSpec, block_size: int, start_block: int, n_blocks: int):
        self.deviation = float(np.sqrt(block_size)) * noise_deviation(spec.csnr_db)
        key = np.random.SeedSequence(spec.seed, spawn_key=(_WINDOW,)).generate_state(2, np.uint64)
        philox = np.random.Philox(key=key, counter=_WINDOW_COUNTERS * start_block)
        self.window = np.empty((n_blocks, _WINDOW_BINS), dtype=np.complex128)
        for lo in range(0, n_blocks, _WINDOW_BATCH):
            window = self.window[lo : lo + _WINDOW_BATCH]
            words = philox.random_raw(4 * _WINDOW_COUNTERS * len(window))
            u = (words.reshape(len(window), 4 * _WINDOW_COUNTERS) >> np.uint64(11)) * 2.0**-53
            radius = self.deviation * np.sqrt(-2.0 * np.log(1.0 - u[:, :_WINDOW_BINS]))
            angle = 2 * np.pi * u[:, _WINDOW_BINS : 2 * _WINDOW_BINS]
            np.multiply(radius, np.cos(angle), out=window.real)
            np.multiply(radius, np.sin(angle), out=window.imag)
        self._first = 0  # row 0's row among the blocks drawn here; rows() shifts it
        # The completion's stream, built once and shared with every rows() view.
        self._rest = {"key": (spec.seed, _REST, start_block, n_blocks), "lock": threading.Lock()}

    def rows(self, lo: int, hi: int) -> "BandNoise":
        view = copy.copy(self)
        view.window = self.window[lo:hi]
        view._first = self._first + lo
        return view

    def _rest_blocks(self) -> KeyedBlocks:
        # Built on the first completion draw, which most runs never make; the
        # cursors that ask for it run on the pool threads.
        rest = self._rest
        with rest["lock"]:
            if "blocks" not in rest:
                rest["blocks"] = KeyedBlocks(*rest["key"])
            return rest["blocks"]

    def cursor(self):
        seat, first = None, self._first

        def draw(row: int, out: np.ndarray) -> None:
            nonlocal seat
            if seat is None:
                seat = self._rest_blocks().cursor()
            seat(first + row).standard_normal(out=out.view(np.float64))
            out *= self.deviation

        return draw


@dataclass(frozen=True)
class _SumOfSinusoids:
    """Frozen oscillator bank for one tap's fading process.

    With M oscillators, the gain at time t is (sum_m cos(w_i[m] t + phi[m])
    + j sum_m cos(w_q[m] t + psi[m])) / sqrt(M).  ``gains`` samples it at
    the start t = b T of absolute blocks b.  With b = b1 S + b0 and S =
    _PHASOR_SPAN, a quadrature's sum is the real part of
    sum_m P[b1, m] Q[m, b0], with P[b1, m] = exp(j (phi[m] + w[m] b1 S T))
    and Q[m, b0] = exp(j w[m] b0 T): one small complex matmul of a
    (rows of b1, M) table with an (M, S) table.  That takes (U1 + S) M
    complex exponentials for U1 rows of b1, in place of 2 M cosines per
    block.  The tables' angles are uint64 phase words, 2^64 to the turn, as
    in a numerically controlled oscillator: their wrapping products and sums
    are exact modulo one turn, so an angle errs by about b 2^-64 turn from
    the rounding of w T (in np.longdouble), 3e-14 rad at block 10^5 where
    that is the 80-bit x87 type.  Each row of b1 is its own product of one
    shape, so a block's gain depends on b alone, and a range of blocks gets
    the byte-exact slice of a longer range's gains.
    """

    w_i: np.ndarray  # rad/s, in-phase arrival angles
    w_q: np.ndarray
    phi: np.ndarray
    psi: np.ndarray
    # period -> (step, start, q): the phase words of w T and of the phases,
    # and the Q table, built on the bank's first call with that period (two
    # threads' first calls may both build them, with the same bytes).
    _tables: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def gains(self, blocks, period: float) -> np.ndarray:
        """Complex gains at the starts b * period of the blocks b (ints >= 0)."""
        blocks = np.asarray(blocks, dtype=np.int64)
        first, last = int(blocks.min()) // _PHASOR_SPAN, int(blocks.max()) // _PHASOR_SPAN
        tables = self._tables.get(period)
        if tables is None:
            step = _phase_words(np.stack([self.w_i, self.w_q]).astype(np.longdouble) * period)
            start = _phase_words(np.stack([self.phi, self.psi]))
            q = _phasors(step[:, :, None] * np.arange(_PHASOR_SPAN, dtype=np.uint64))
            tables = self._tables[period] = step, start, q
        step, start, q = tables
        rows = np.arange(first, last + 1, dtype=np.uint64) * np.uint64(_PHASOR_SPAN)
        p = _phasors(start[:, None, :] + rows[:, None] * step[:, None, :])
        # (2, U1, 1, M) @ (2, 1, M, S): one (M,) @ (M, S) product per row of
        # b1, so a row's bytes do not depend on how many rows the call holds.
        sums = np.matmul(p[:, :, None, :], q[:, None]).real
        sums = sums.reshape(2, -1)[:, blocks - first * _PHASOR_SPAN]
        return (sums[0] + 1j * sums[1]) / np.sqrt(self.w_i.size)


def _phase_words(radians) -> np.ndarray:
    """Angles as uint64 phase words, 2^64 to the turn, rounded down."""
    turns = np.asarray(radians, dtype=np.longdouble) / (2 * np.arccos(np.longdouble(-1)))
    return np.ldexp(turns - np.floor(turns), 64).astype(np.uint64)


def _phasors(words: np.ndarray) -> np.ndarray:
    """exp(j theta) of phase words."""
    angle = words * (np.pi / 2.0**63)
    out = np.empty(angle.shape, dtype=np.complex128)
    np.cos(angle, out=out.real)
    np.sin(angle, out=out.imag)
    return out


# 2 pi m - pi for the oscillators m = 1..M, the arrival angles before the
# bank's random rotation theta.
_ARRIVALS = 2 * np.pi * np.arange(1, _N_OSCILLATORS + 1) - np.pi
_ARRIVALS.flags.writeable = False


def make_jakes(doppler_hz: float, seed) -> _SumOfSinusoids:
    """Draw one tap's oscillator bank (unit mean power, J0 autocorrelation).

    seed is anything ``np.random.default_rng`` accepts, a Generator included.
    """
    rng = np.random.default_rng(seed)
    theta = rng.uniform(-np.pi, np.pi)
    alpha = (_ARRIVALS + theta) / (4 * _N_OSCILLATORS)
    wd = 2 * np.pi * doppler_hz
    return _SumOfSinusoids(
        w_i=wd * np.cos(alpha),
        w_q=wd * np.sin(alpha),
        phi=rng.uniform(-np.pi, np.pi, _N_OSCILLATORS),
        psi=rng.uniform(-np.pi, np.pi, _N_OSCILLATORS),
    )


class _DelayLineChannel:
    """Streaming core shared by every family: a delay line plus keyed noise.

    The line has distinct delays in samples, the first 0, each with one
    complex gain per block (``_gains``; None means a single unit tap).
    ``memory``, the largest delay, is how many input samples of the block
    before a call's first block the call reads.  process keeps no state
    between calls, so threads and block ranges can share one channel.
    """

    def __init__(self, spec: ChannelSpec, sample_rate: float, block_size: int):
        self.spec = spec
        self.block_size = block_size
        self.delays = np.zeros(1, dtype=int)
        self._scale = noise_deviation(spec.csnr_db)
        self._ranges = threading.local()  # each thread's block_range set-up

    @property
    def memory(self) -> int:
        return int(self.delays[-1])

    def _gains(self, start_block: int, n_blocks: int) -> np.ndarray | None:
        """None for a single unit tap, else the (delays, n_blocks) line gains
        of blocks start_block..start_block + n_blocks - 1."""
        return None

    def _setup(self, start_block: int, n_blocks: int) -> tuple:
        """(gains, keyed): what process needs for blocks start_block..
        start_block + n_blocks - 1, the line gains and the noise's KeyedBlocks."""
        keyed = KeyedBlocks(self.spec.seed, _NOISE, start_block, n_blocks) if self._scale else None
        return self._gains(start_block, n_blocks), keyed

    @contextlib.contextmanager
    def block_range(self, lo: int, hi: int):
        """Share one set-up among this thread's process calls on blocks
        lo..hi - 1: inside the context, the first such call builds it for the
        whole range, so its time is the channel's, and the later ones read
        it.  No output byte depends on it."""
        outer = getattr(self._ranges, "current", None)
        self._ranges.current = [lo, hi, None]
        try:
            yield
        finally:
            self._ranges.current = outer

    def process(
        self, blocks: np.ndarray, start_block: int = 0, before=None, cycles=None
    ) -> np.ndarray:
        """Channel output for blocks start_block, start_block + 1, ..., written
        over blocks, which is returned.

        blocks must be a writeable, C-contiguous, non-empty (n, block_size)
        complex128 or complex64 array; complex64 rows take no time-domain
        noise (its stream is drawn as float64), so at finite CSNR they are a
        ConfigError.  before holds the last ``memory`` input samples of
        block start_block - 1, which block start_block's delays reach back
        into; a line with delays needs it past block 0, and before block 0
        the line holds zeros.  cycles, if given, holds each row's tone
        frequency in cycles per sample: the rows are then the modulator's
        tones, and each row's samples from ``memory`` on are multiplied by
        the line's response at that frequency (module docstring).  Without
        it the literal delay line runs, for any input.
        """
        if not (
            isinstance(blocks, np.ndarray)
            and blocks.dtype in (np.complex128, np.complex64)
            and blocks.flags.c_contiguous
            and blocks.flags.writeable
            and blocks.ndim == 2
            and blocks.size
            and blocks.shape[1] == self.block_size
        ):
            raise ConfigError(
                f"blocks must be a writeable, C-contiguous, non-empty (n, {self.block_size}) "
                f"complex128 or complex64 array, got {np.shape(blocks)} "
                f"{getattr(blocks, 'dtype', None)}"
            )
        if self._scale and blocks.dtype != np.complex128:
            raise ConfigError(
                f"time-domain noise (csnr_db {self.spec.csnr_db!r}) needs complex128 blocks, "
                f"got {blocks.dtype}"
            )
        if start_block < 0:
            raise ConfigError(f"start_block must be >= 0, got {start_block}")
        c = self.memory
        if before is None and c and start_block:
            raise ConfigError(
                f"a channel with tap delays needs before, the last {c} input samples "
                f"of block {start_block - 1}"
            )
        if before is not None and np.shape(before) != (c,):
            raise ConfigError(f"before must hold {c} samples, got shape {np.shape(before)}")
        n_blocks, n = blocks.shape
        if cycles is not None:
            cycles = np.asarray(cycles, dtype=np.float64)
            if cycles.shape != (n_blocks,) or not np.isfinite(cycles).all():
                raise ConfigError(
                    f"cycles must hold {n_blocks} finite tone frequencies, got {cycles.shape}"
                )
        current = getattr(self._ranges, "current", None)
        if current is not None and current[0] <= start_block <= current[1] - n_blocks:
            first, end, setup = current
            if setup is None:
                setup = current[2] = self._setup(first, end - first)
        else:
            first, setup = start_block, self._setup(start_block, n_blocks)
        gains, keyed = setup
        if self._scale == 0.0 and gains is None:
            return blocks
        base = start_block - first  # row 0's row in the set-up
        if gains is not None:
            gains = gains[:, base : base + n_blocks, None]
        seat = keyed.cursor() if self._scale else None
        # The c input samples before each row, which its delays reach back
        # into: before for row 0, the end of row r - 1 for row r, then the
        # row's own first c.  They are copied before any row is overwritten.
        edges = np.empty((n_blocks, 2 * c), dtype=np.complex128)
        edges[0, :c] = 0.0 if before is None else before
        edges[1:, :c] = blocks[:-1, n - c :]
        edges[:, c:] = blocks[:, :c]
        if cycles is None:
            self._line(blocks, edges, gains, seat, base)
        else:
            self._tones(blocks, edges, gains, seat, base, cycles)
        return blocks

    def _draw(self, seat, base: int, rows: range, out: np.ndarray) -> None:
        """The scaled noise of the given rows into out, one row each."""
        for i, r in enumerate(rows):
            seat(base + r).standard_normal(out=out[i].view(np.float64))
        out *= self._scale

    def _line(self, blocks, edges, gains, seat, base: int) -> None:
        """The literal delay line: the reference for any input."""
        n_blocks, n = blocks.shape
        c, delays = self.memory, self.delays
        tile = max(1, min(_LINE_BYTES // (16 * (3 * n + c)), n_blocks))
        # A tile of rows at a time, so that each ufunc call covers a tile,
        # not a row (see ``pool``).  Every element of a row gets the same
        # operations in the same order whichever tile and call hold it, so
        # the bytes do not depend on the split.  line holds the tile's tails
        # and rows, so the rows can be overwritten while their delayed copies
        # are read; the noise stays keyed per row.
        line = scratch("delay line", (tile, n + c), np.complex128)
        tmp = scratch("delay line product", (tile, n), np.complex128)
        for t in range(0, n_blocks, tile):
            u = min(t + tile, n_blocks)
            m = u - t
            line[:m, :c] = edges[t:u, :c]
            line[:m, c:] = blocks[t:u]
            o = blocks[t:u]
            if seat:
                self._draw(seat, base, range(t, u), o)
            for k, d in enumerate(delays):
                src = line[:m, c - d : c - d + n]
                if gains is None:
                    o += src
                elif k == 0 and not seat:
                    np.multiply(src, gains[k, t:u], out=o)
                else:
                    np.multiply(src, gains[k, t:u], out=tmp[:m])
                    o += tmp[:m]

    def _tones(self, blocks, edges, gains, seat, base: int, cycles: np.ndarray) -> None:
        """The line on tones: row r is x[i] = exp(j (phi_r + 2 pi cycles[r] i)),
        so from sample c on its output is x[i] H_r, with H_r = sum_d g_d[r]
        exp(-j 2 pi cycles[r] d); the first c samples take the literal sum.
        The noise is drawn and scaled as in ``_line`` and added to x H_r,
        the literal line's sum in the other order (addition commutes), so a
        memoryless line (H_r = g_0[r]) gives the same bytes."""
        n_blocks, n = blocks.shape
        c, delays = self.memory, self.delays
        h = None
        if gains is not None:
            h = gains[0]
            for k in range(1, delays.size):
                turns = cycles[:, None] * delays[k]
                turns -= np.floor(turns)
                h = h + gains[k] * np.exp(-2j * np.pi * turns)
        if seat:
            tile = max(1, min(_LINE_BYTES // (32 * n), n_blocks))
            noise = scratch("tone noise", (tile, n), np.complex128)
            head = np.empty((n_blocks, c), dtype=np.complex128)
            for t in range(0, n_blocks, tile):
                u = min(t + tile, n_blocks)
                z, o = noise[: u - t], blocks[t:u]
                self._draw(seat, base, range(t, u), z)
                head[t:u] = z[:, :c]
                if h is not None:
                    o *= h[t:u]
                o += z
        else:
            # In the rows' own dtype: a mixed-dtype in-place multiply would
            # buffer the rows.
            blocks *= h.astype(blocks.dtype, copy=False)
        if not c:  # a single unit tap (gains None) has no delays
            return
        for k, d in enumerate(delays):
            term = edges[:, c - d : 2 * c - d] * gains[k]
            if k == 0 and not seat:
                head = term
            else:
                head += term
        blocks[:, :c] = head


class AwgnChannel(_DelayLineChannel):
    """Streaming AWGN: the input plus keyed complex Gaussian noise."""


class FlatRayleighChannel(_DelayLineChannel):
    """Streaming single-tap Rayleigh block fading plus AWGN.

    One coefficient h ~ CN(0, 1) per block, drawn from that block's fade
    stream (there is no Doppler to define coherence, so block fading is the
    memoryless choice).  Noise variance uses the ensemble gain E|h|^2 = 1,
    not the realized draws.
    """

    def _gains(self, start_block: int, n_blocks: int) -> np.ndarray:
        # Two normals per block: seating each generator, which holds the GIL,
        # is all the work.
        h = np.empty((1, n_blocks), dtype=np.complex128)
        seat = KeyedBlocks(self.spec.seed, _FADE, start_block, n_blocks).cursor()
        for r in range(n_blocks):
            seat(r).standard_normal(out=h[0, r : r + 1].view(np.float64))
        h /= np.sqrt(2.0)
        return h


class MultipathChannel(_DelayLineChannel):
    """Tapped-delay-line fading channel, streamable block by block.

    Tap delays are rounded to the nearest sample at the given rate; each
    tap carries an independent Doppler fading process, drawn once from the
    seed's fade stream and sampled at block-start times.
    """

    def __init__(self, spec: ChannelSpec, sample_rate: float, block_size: int):
        spec = spec.resolved()
        if spec.tap_profile is None:
            raise ConfigError(f"channel family {spec.family!r} requires a tap profile")
        super().__init__(spec, sample_rate, block_size)
        self.sample_rate = sample_rate
        self.block_period = block_size / sample_rate

        profile = spec.tap_profile
        max_delay = float(profile.delays.max())
        if max_delay >= self.block_period / 4:
            raise ConfigError(
                f"max tap delay {max_delay:.3g}s must stay below a quarter block "
                f"({self.block_period / 4:.3g}s)"
            )
        self.delay_samples = np.rint(profile.delays * sample_rate).astype(int)
        self.tap_scales = np.sqrt(profile.powers)

        fade_rng = np.random.default_rng(np.random.SeedSequence(spec.seed, spawn_key=(_FADE,)))
        self.taps = [
            make_jakes(spec.doppler_hz, fade_rng) for _ in range(self.delay_samples.size)
        ]
        # Taps whose delays round to the same sample add coherently, so their
        # gains are summed once per block and the line has one entry per delay.
        self.delays = np.unique(self.delay_samples)
        self._groups = [np.flatnonzero(self.delay_samples == d) for d in self.delays]

    def tap_gain_series(self, block_indices: np.ndarray) -> np.ndarray:
        """(n_taps, n_blocks) fading gains at block-start times, unscaled."""
        return np.stack([tap.gains(block_indices, self.block_period) for tap in self.taps])

    def _gains(self, start_block: int, n_blocks: int) -> np.ndarray:
        """(delays, n_blocks) line gains: the scaled tap gains summed per delay."""
        gains = self.tap_gain_series(np.arange(start_block, start_block + n_blocks))
        return np.stack(
            [(self.tap_scales[idx, None] * gains[idx]).sum(axis=0) for idx in self._groups]
        )


def make_channel(spec: ChannelSpec, sample_rate: float, block_size: int):
    """Instantiate the streaming channel for a spec's family."""
    if spec.family == "awgn":
        return AwgnChannel(spec, sample_rate, block_size)
    if spec.family == "flat_rayleigh":
        return FlatRayleighChannel(spec, sample_rate, block_size)
    return MultipathChannel(spec, sample_rate, block_size)
