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
A line with delays carries the end of one call into the next, so it takes
its blocks in stream order, and any other ``start_block`` is a ConfigError.
``KeyedBlocks`` derives a chunk's per-block generator states at once, with
the bytes of one SeedSequence per block, and each row range re-seats a
generator of its own block by block.

A run with the raw FFT-bin receiver at finite CSNR draws no time-domain
noise: its channel runs at csnr_db = inf, and the receiver adds block b's
noise straight to the in-band bins it reads, from ``band_noise`` and stream
``spawn_key=(2, b)``.  The N-point DFT of N iid CN(0, 2s^2) samples is N iid
CN(0, 2Ns^2) bins, so this is exact in distribution and draws 2 normals per
in-band bin instead of 2 per sample.  The interpolating receiver reads a
2N-point padded spectrum whose noise bins are correlated, so its runs keep
the time-domain stream (1, b).

All three channels are one tapped delay line; AWGN and flat Rayleigh have a
single tap at delay 0.  ``process`` splits the block rows into one
contiguous range per usable CPU and runs the ranges on the package's thread
pool (``pool.split_rows``; numpy's generator fills and ufunc loops release
the GIL, seating a generator holds it).  Flat-Rayleigh h, two normals per
block, is drawn serially.  ``process`` can write its output over its input
(``out=``): the samples that each row's delays reach back into, the end of
the row before it, are copied out before any row is written, and each worker
copies that tail and its row into its own scratch line before it overwrites
the row.  A row is computed the same way whichever range and chunk hold it,
so the output is byte-identical for any worker count and any chunking of one
stream.
"""

from __future__ import annotations

import importlib.resources
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .pool import split_rows

FAMILIES = ("awgn", "flat_rayleigh", "jtc_indoor_a", "jtc_outdoor_low_a")
_DEFAULT_DOPPLER = {"jtc_indoor_a": 5.0, "jtc_outdoor_low_a": 20.0}
_BUILTIN_PROFILE_FILES = {
    "jtc_indoor_a": "jtc_indoor_residential_a.csv",
    "jtc_outdoor_low_a": "jtc_outdoor_residential_low_a.csv",
}
# Spawn-key streams: (_FADE,) seeds the oscillator banks, (_FADE, b) and
# (_NOISE, b) the flat-Rayleigh coefficient and the noise of block b, and
# (_BAND, b) block b's in-band noise for the raw receiver.
_FADE, _NOISE, _BAND = 0, 1, 2
_N_OSCILLATORS = 64  # sinusoids per fading tap


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
    with fh:
        for lineno, raw in enumerate(fh, start=1):
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


def builtin_profile(family: str) -> TapProfile:
    """Load the packaged tap table for a multipath channel family."""
    try:
        fname = _BUILTIN_PROFILE_FILES[family]
    except KeyError:
        raise ConfigError(f"no builtin profile for family {family!r}") from None
    resource = importlib.resources.files("ajscclink.profiles").joinpath(fname)
    with importlib.resources.as_file(resource) as path:
        profile = load_profile(path)
    return TapProfile(profile.delays, profile.powers, name=family)


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
        if self.doppler_hz < 0:
            raise ConfigError("doppler_hz must be >= 0")
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
    blocks b = start_block + row, 0 <= row < n_blocks of a chunk.

    Block b's generator is that of
    ``np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(stream, b)))``,
    state and draws, for an int seed >= 0.  Building that SeedSequence costs
    about 25 us per block with the GIL held; here the blocks of a chunk share
    it.  Their entropy words differ only in the last one, b, so the pool of
    ``SeedSequence(seed, spawn_key=(stream,))`` is mixed once and b is mixed
    into it as a uint32 vector, with SeedSequence's hash constants.  Each
    block's 4 uint64 seed words (``generate_state(4, np.uint64)``) are kept,
    and ``cursor`` turns them into a PCG64 (state, inc) as the PCG64
    constructor does.  A block at b >= 2^32 has a second key word and takes
    its words from its own SeedSequence.
    """

    def __init__(self, seed: int, stream: int, start_block: int, n_blocks: int):
        prefix = np.random.SeedSequence(seed, spawn_key=(stream,))
        # The hashmix calls before b's: 4 to fill the pool, 12 to mix it and 4
        # per entropy word after the first 4.  The entropy is the seed's
        # uint32 words, zero-padded to 4 because there is a spawn key, then
        # the stream.
        seed_words = max(1, (int(prefix.entropy).bit_length() + 31) // 32)
        calls = 16 + 4 * (max(seed_words, 4) + 1 - 4)
        hash_a = _INIT_A * pow(_MULT_A, calls, 1 << 32) & _MASK32
        n_fast = max(0, min(n_blocks, (1 << 32) - start_block))
        b = np.arange(start_block, start_block + n_fast, dtype=np.uint64).astype(np.uint32)
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
            state[:n_fast, i] = _xorshift16(v * np.uint32(hash_b))
        self._words = state.astype("<u4").view("<u8").astype(np.uint64)
        for row in range(n_fast, n_blocks):
            key = (stream, start_block + row)
            self._words[row] = np.random.SeedSequence(seed, spawn_key=key).generate_state(
                4, np.uint64
            )

    def cursor(self):
        """A new generator for one row range, as ``seat(row)``, which sets it
        to block start_block + row's state and returns it.

        A cursor is never shared between threads: each range makes its own.
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
    and imaginary parts; csnr_db = inf gives 0.
    """
    if csnr_db == np.inf:
        return 0.0
    return float(np.sqrt(1.0 / 10.0 ** (csnr_db / 10.0) / 2.0))


def band_noise(spec: ChannelSpec, block_size: int, start_block: int, n_blocks: int):
    """The raw receiver's in-band noise for blocks start_block .. start_block + n_blocks - 1.

    Returns ``new_fill()``, which each row range calls once for a
    ``fill(row, out)`` of its own (a generator of its own inside).  fill
    writes the noise of block start_block + row into out, a complex128 array
    with one element per in-band bin: ``standard_normal`` of stream (2, b),
    interleaved re/im, times sqrt(block_size) * ``noise_deviation(spec.csnr_db)``,
    the deviation of one DFT bin of the time-domain noise.
    """
    scale = float(np.sqrt(block_size)) * noise_deviation(spec.csnr_db)
    keyed = KeyedBlocks(spec.seed, _BAND, start_block, n_blocks)

    def new_fill():
        seat = keyed.cursor()

        def fill(row: int, out: np.ndarray) -> None:
            seat(row).standard_normal(out=out.view(np.float64))
            out *= scale

        return fill

    return new_fill


@dataclass(frozen=True)
class _SumOfSinusoids:
    """Frozen oscillator bank for one tap's fading process."""

    w_i: np.ndarray  # rad/s, in-phase arrival angles
    w_q: np.ndarray
    phi: np.ndarray
    psi: np.ndarray

    def gains(self, times: np.ndarray) -> np.ndarray:
        times = np.asarray(times, dtype=np.float64)
        m = self.w_i.size
        out = np.empty(times.shape, dtype=np.complex128)
        step = 1 << 16
        for lo in range(0, times.size, step):
            t = times[lo : lo + step, None]
            re = np.cos(t * self.w_i[None, :] + self.phi[None, :]).sum(axis=1)
            im = np.cos(t * self.w_q[None, :] + self.psi[None, :]).sum(axis=1)
            out[lo : lo + step] = (re + 1j * im) / np.sqrt(m)
        return out


def make_jakes(doppler_hz: float, seed) -> _SumOfSinusoids:
    """Draw one tap's oscillator bank (unit mean power, J0 autocorrelation).

    seed is anything ``np.random.default_rng`` accepts, a Generator included.
    """
    rng = np.random.default_rng(seed)
    m = np.arange(1, _N_OSCILLATORS + 1)
    theta = rng.uniform(-np.pi, np.pi)
    alpha = (2 * np.pi * m - np.pi + theta) / (4 * _N_OSCILLATORS)
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
    complex gain per block (``_gains``; None means a single unit tap).  A
    carry buffer holds the last samples of the previous call, so a stream
    split into consecutive chunks sees the same delayed samples as one call;
    a line with a carry therefore takes its chunks in stream order only.
    """

    def __init__(self, spec: ChannelSpec, sample_rate: float, block_size: int):
        self.spec = spec
        self.block_size = block_size
        self.delays = np.zeros(1, dtype=int)
        self._carry = np.zeros(0, dtype=np.complex128)
        self._next_block = 0
        self._scale = noise_deviation(spec.csnr_db)

    def _gains(self, start_block: int, n_blocks: int) -> np.ndarray | None:
        return None

    def process(self, blocks: np.ndarray, start_block: int | None = None, out=None) -> np.ndarray:
        """Channel output for blocks start_block, start_block + 1, ...

        start_block defaults to the block after the previous call's last one;
        a line with delays takes no other.  The output is written into out,
        a C-contiguous complex128 array of the blocks' shape, when it is
        given, and out is returned; out may be the input array itself.
        """
        blocks = np.ascontiguousarray(blocks, dtype=np.complex128)
        if blocks.ndim != 2 or blocks.size == 0 or blocks.shape[1] != self.block_size:
            raise ConfigError(
                f"blocks must be a non-empty (n, {self.block_size}) array, got {blocks.shape}"
            )
        if out is not None and (
            out.shape != blocks.shape or out.dtype != np.complex128 or not out.flags.c_contiguous
        ):
            raise ConfigError(
                f"out must be a C-contiguous {blocks.shape} complex128 array, "
                f"got {out.shape} {out.dtype}"
            )
        if start_block is None:
            start_block = self._next_block
        if start_block < 0:
            raise ConfigError(f"start_block must be >= 0, got {start_block}")
        if self._carry.size and start_block != self._next_block:
            raise ConfigError(
                f"a channel with tap delays takes its blocks in stream order: "
                f"start_block must be {self._next_block}, got {start_block}"
            )
        n_blocks, n = blocks.shape
        self._next_block = start_block + n_blocks
        gains = self._gains(start_block, n_blocks)
        scale = self._scale
        if scale == 0.0 and gains is None:
            if out is None or out is blocks:
                return blocks
            out[...] = blocks
            return out
        if out is None:
            out = np.empty_like(blocks)
        c = self._carry.size
        # The c input samples before each row, which its delays reach back
        # into: the carry for row 0, the end of row r - 1 for row r.  Both
        # they and the next carry are copied before any row of out, which
        # may be blocks itself, is written.
        tails = np.empty((n_blocks, c), dtype=np.complex128)
        tails[0] = self._carry
        tails[1:] = blocks[:-1, n - c :]
        self._carry = blocks[-1, n - c :].copy()
        delays = self.delays
        keyed = KeyedBlocks(self.spec.seed, _NOISE, start_block, n_blocks) if scale else None

        # One row at a time, with the same operations whichever range holds
        # it, so the bytes do not depend on the split; the row also stays in
        # cache across its passes.  line holds the row's tail and the row,
        # so the row can be overwritten while its delayed copies are read.
        def rows(lo: int, hi: int, line: np.ndarray, tmp: np.ndarray) -> None:
            seat = keyed.cursor() if scale else None
            for r in range(lo, hi):
                line[:c] = tails[r]
                line[c:] = blocks[r]
                o = out[r]
                if scale:
                    seat(r).standard_normal(out=o.view(np.float64))
                    o *= scale
                for k, d in enumerate(delays):
                    src = line[c - d : c - d + n]
                    if gains is None:
                        o += src
                    elif k == 0 and not scale:
                        np.multiply(src, gains[k, r], out=o)
                    else:
                        np.multiply(src, gains[k, r], out=tmp)
                        o += tmp

        split_rows(rows, n_blocks, ((n + c,), np.complex128), ((n,), np.complex128))
        return out


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
        # Serial: two normals per block, so seating each generator, which
        # holds the GIL, is all the work, and a second worker gains nothing.
        h = np.empty((1, n_blocks), dtype=np.complex128)
        seat = KeyedBlocks(self.spec.seed, _FADE, start_block, n_blocks).cursor()
        for r in range(n_blocks):
            seat(r).standard_normal(out=h[0, r : r + 1].view(np.float64))
        return h / np.sqrt(2.0)


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
        self._carry = np.zeros(int(self.delays[-1]), dtype=np.complex128)

    def tap_gain_series(self, block_indices: np.ndarray) -> np.ndarray:
        """(n_taps, n_blocks) fading gains at block-start times, unscaled."""
        times = np.asarray(block_indices, dtype=np.float64) * self.block_period
        return np.stack([tap.gains(times) for tap in self.taps])

    def _gains(self, start_block: int, n_blocks: int) -> np.ndarray:
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
