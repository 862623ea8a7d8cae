"""Source-signal synthesis and conditioning.

Provides the two test signals fed to the encoder (an impedance-cytometry
pulse train and a skin-conductance drift trace), linear rescaling into
encoder input ranges, and trace CSV I/O for recorded sources.

The GSR drift is white noise through a 4th-order Butterworth low-pass.  The
filter design is a numpy port of ``scipy.signal.butter(4, wn, output="sos")``
that follows scipy's operation order, so its sections are bit-identical to
scipy's; the filter runs them in a block state-space form (``_sosfilt``)
whose output matches ``scipy.signal.sosfilt`` to rounding.  Importing
``scipy.signal`` would cost about a second per process.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, is_real


@dataclass(frozen=True)
class SourceTrace:
    """Uniformly sampled real-valued signal.

    sample_period is in seconds; samples must be finite and non-empty.
    """

    sample_period: float
    samples: np.ndarray

    def __post_init__(self):
        if not self.sample_period > 0:
            raise ConfigError(f"sample_period must be > 0, got {self.sample_period}")
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 1 or samples.size == 0:
            raise ConfigError("samples must be a non-empty 1-D sequence")
        if not np.all(np.isfinite(samples)):
            raise ConfigError("samples must all be finite")
        object.__setattr__(self, "samples", samples)


def _require_finite_fields(spec) -> None:
    for f in dataclasses.fields(spec):
        v = getattr(spec, f.name)
        if not (is_real(v) and math.isfinite(v)):
            raise ConfigError(f"{f.name} must be a finite number, got {v!r}")


@dataclass(frozen=True)
class CytometrySynthSpec:
    """Synthetic bead-pulse train: Poisson arrivals of Gaussian pulses.

    pulse_width is the nominal footprint of one pulse (the Gaussian sigma is
    pulse_width / 6 so the bump decays inside the footprint).  Peak values
    are drawn from N(peak_amplitude_mean, peak_amplitude_sd) and floored at
    the baseline.
    """

    pulse_rate: float = 10.0
    pulse_width: float = 0.02
    peak_amplitude_mean: float = 1.2
    peak_amplitude_sd: float = 0.15
    # A zero baseline would park the inter-pulse encoding exactly on the
    # fold corners of the mapping, where any receiver noise flips the
    # decoded level; real front-ends always carry a small offset and enough
    # noise to dither the receiver's frequency grid.
    baseline: float = 0.1
    noise_sd: float = 0.03

    def __post_init__(self):
        _require_finite_fields(self)
        if not self.pulse_width > 0:
            raise ConfigError(f"pulse_width must be > 0, got {self.pulse_width}")
        if self.pulse_rate < 0:
            raise ConfigError(f"pulse_rate must be >= 0, got {self.pulse_rate}")
        if not self.baseline >= 0:
            raise ConfigError(f"baseline must be >= 0, got {self.baseline}")
        if not self.peak_amplitude_mean > self.baseline:
            raise ConfigError("peak_amplitude_mean must exceed baseline")
        if self.pulse_rate * self.pulse_width >= 1.0:
            raise ConfigError("pulse_rate * pulse_width must be < 1 (sparse pulses)")
        if self.noise_sd < 0:
            raise ConfigError("noise_sd must be >= 0")


@dataclass(frozen=True)
class GsrSynthSpec:
    """Synthetic skin-conductance trace: bounded slow drift plus events.

    The drift is low-pass-filtered white noise squashed through a logistic
    map so the trace always stays inside (0, conductance_max).  Events are
    bi-exponential transients (fast rise, slow decay) added in the squashed
    domain.  conductance_max is in inverse megaohms.
    """

    conductance_max: float = 2.6
    drift_bandwidth: float = 0.3
    event_rate: float = 0.1
    drift_scale: float = 1.0
    event_amplitude: float = 1.0
    event_rise: float = 0.5
    event_decay: float = 3.0

    def __post_init__(self):
        _require_finite_fields(self)
        if not self.conductance_max > 0:
            raise ConfigError(f"conductance_max must be > 0, got {self.conductance_max}")
        if self.drift_bandwidth < 0 or self.event_rate < 0:
            raise ConfigError("drift_bandwidth and event_rate must be >= 0")
        if self.event_rise <= 0 or self.event_decay <= self.event_rise:
            raise ConfigError("need 0 < event_rise < event_decay")


def cytometry_schedule(
    spec: CytometrySynthSpec, duration: float, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Draw the seeded event schedule used by gen_cytometry.

    Returns (times, peak_values).  Arrivals are Poisson with a minimum
    separation of 2 * pulse_width enforced by rejection; the count therefore
    equals the seeded Poisson draw minus rejected collisions.
    """
    rng = np.random.default_rng(seed)
    if spec.pulse_rate == 0 or duration <= 0:
        return np.empty(0), np.empty(0)
    n_raw = rng.poisson(spec.pulse_rate * duration)
    raw_times = np.sort(rng.uniform(0.0, duration, size=n_raw))
    min_sep = 2.0 * spec.pulse_width
    times = []
    for t in raw_times:
        if not times or t - times[-1] >= min_sep:
            times.append(t)
    times = np.asarray(times)
    peaks = rng.normal(spec.peak_amplitude_mean, spec.peak_amplitude_sd, size=times.size)
    peaks = np.maximum(peaks, spec.baseline)
    return times, peaks


def gen_cytometry(
    spec: CytometrySynthSpec, duration: float, sample_period: float, seed: int
) -> SourceTrace:
    """Synthesize a cytometry pulse train.

    Gaussian pulses on a constant baseline plus white noise; deterministic
    for a fixed seed.  duration must cover at least 10 pulse widths.
    """
    if sample_period <= 0:
        raise ConfigError(f"sample_period must be > 0, got {sample_period}")
    if duration < 10 * spec.pulse_width:
        raise ConfigError("duration must be >= 10 * pulse_width")
    n = int(round(duration / sample_period))
    values = np.full(n, spec.baseline)

    times, peaks = cytometry_schedule(spec, duration, seed)
    sigma = spec.pulse_width / 6.0
    # Pulse p covers the samples lo[p] <= i < hi[p] of its footprint t0 +-
    # 5 sigma.  All pulses are one (pulses, longest footprint) array of the
    # per-sample arithmetic, added in pulse order: np.add.at adds its indices
    # one by one, so where footprints overlap (sigma below the sample period)
    # a sample gets each pulse's share in turn.
    lo = np.maximum((times - 5 * sigma) / sample_period, 0).astype(np.int64)
    hi = np.minimum(((times + 5 * sigma) / sample_period).astype(np.int64) + 1, n)
    span = int((hi - lo).max(initial=0))
    if span:
        index = lo[:, None] + np.arange(span)
        inside = index < hi[:, None]
        seg = index * sample_period
        bumps = (peaks - spec.baseline)[:, None] * np.exp(-0.5 * ((seg - times[:, None]) / sigma) ** 2)
        np.add.at(values, index[inside], bumps[inside])

    if spec.noise_sd > 0:
        # Noise stream drawn after the schedule so the schedule is stable
        # under noise_sd changes.
        noise_rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
        values = values + noise_rng.normal(0.0, spec.noise_sd, size=n)
    return SourceTrace(sample_period, values)


@functools.lru_cache(maxsize=8)
def _butter_lowpass_sos(order: int, wn: float) -> np.ndarray:
    """Second-order sections of a digital Butterworth low-pass, order even.

    wn is the cutoff over the Nyquist frequency, 0 < wn < 1.  The steps are
    scipy's: analog prototype poles, pre-warped lp2lp, bilinear transform
    at fs = 2, and the sections ordered from the pole pair farthest from the
    unit circle to the nearest, with the overall gain on the first section.
    The design is built once per (order, wn) and returned read-only.
    """
    m = np.arange(-order + 1, order, 2, dtype=np.float64)
    prototype = -np.exp(1j * np.pi * m / (2 * order))
    warped = float(4.0 * np.tan(np.pi * np.float64(wn) / 2.0))
    analog = warped * prototype
    poles = (4.0 + analog) / (4.0 - analog)
    gain = warped**order * np.real(1.0 / np.prod(4.0 - analog))
    upper = poles[poles.imag > 0]
    upper = upper[np.argsort(np.abs(1 - np.abs(upper)), kind="stable")[::-1]]
    sos = np.zeros((upper.size, 6))
    sos[:, :3] = (1.0, 2.0, 1.0)  # each section's double zero at z = -1
    for s, q in enumerate(upper):
        sos[s, 3:] = np.poly([q, q.conjugate()]).real
    sos[0, :3] *= gain
    sos.flags.writeable = False  # shared by every call
    return sos


# Samples per block of the drift filter's block state-space form (``_sosfilt``).
_FILTER_BLOCK = 64


@functools.lru_cache(maxsize=8)
def _block_filter(sos_bytes: bytes):
    """The cascade of second-order sections (rows of b0 b1 b2 a0 a1 a2,
    a0 = 1) over a block of _FILTER_BLOCK samples: (powers, B, C, D) with
    next state A s + B u and output C s + D u, for the block's input u and
    the state s at its start, and powers the A^(2^l) for l < 32.

    One sample steps section i's transposed direct form II states z0, z1,
    with input u_i and output y_i = b0 u_i + z0, as z0' = b1 u_i - a1 y_i +
    z1 and z1' = b2 u_i - a2 y_i; y_i is section i + 1's input.  Near z = 1
    the two states are about y_i and -y_i, so s holds z0 and z0 + z1, in
    which rounding A does not move the poles.  The block matrices are powers
    of the step, built in np.longdouble and rounded once to float64: D is
    the lower triangular Toeplitz matrix of the impulse response.
    """
    sos = np.frombuffer(sos_bytes).reshape(-1, 6).astype(np.longdouble)
    k, length = 2 * len(sos), _FILTER_BLOCK
    step, drive = np.zeros((k, k), dtype=np.longdouble), np.zeros(k, dtype=np.longdouble)
    # The signal between sections as (coefficients on the states, on the input).
    c, d = np.zeros(k, dtype=np.longdouble), np.longdouble(1)
    for i, (b0, b1, b2, _, a1, a2) in enumerate(sos):
        c_out, d_out = b0 * c, b0 * d
        c_out[2 * i] += 1
        step[2 * i] = b1 * c - a1 * c_out
        step[2 * i, 2 * i + 1] += 1
        step[2 * i + 1] = b2 * c - a2 * c_out
        drive[2 * i], drive[2 * i + 1] = b1 * d - a1 * d_out, b2 * d - a2 * d_out
        c, d = c_out, d_out
    # To the states (z0, z0 + z1): s = T z.
    to_sum = np.eye(k, dtype=np.longdouble)
    to_sum[range(1, k, 2), range(0, k, 2)] = 1
    from_sum = 2 * np.eye(k, dtype=np.longdouble) - to_sum
    step, drive, c = to_sum @ step @ from_sum, to_sum @ drive, c @ from_sum
    # Row t of C is c A^t; column length - 1 - t of B is A^t drive.
    out, into = np.empty((length, k), dtype=np.longdouble), np.empty((k, length), dtype=np.longdouble)
    power = np.eye(k, dtype=np.longdouble)
    for t in range(length):
        out[t], into[:, length - 1 - t] = c @ power, power @ drive
        power = step @ power
    response = np.concatenate([[d], out[:-1] @ drive])
    lag = np.subtract.outer(np.arange(length), np.arange(length))
    toeplitz = np.where(lag >= 0, response[np.maximum(lag, 0)], 0)
    powers = []
    for _ in range(32):
        powers.append(power.astype(np.float64))
        power = power @ power
    into, out, toeplitz = (m.astype(np.float64) for m in (into, out, toeplitz))
    for table in (*powers, into, out, toeplitz):
        table.flags.writeable = False  # shared by every call
    return tuple(powers), into, out, toeplitz


def _sosfilt(sos: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Filter x through the sections from zero state.

    A block state-space form of the cascade (``_block_filter``): x is cut
    into blocks of _FILTER_BLOCK samples, whose zero-state outputs and end
    states are one matrix product each over all blocks.  The state carried
    into block i, sum_{j < i} A^(i - 1 - j) e_j of the end states e_j, is
    a doubling scan over the blocks: at step l each block adds A^(2^l)
    times the sum 2^l blocks back.  The output differs from scipy's
    ``sosfilt``, a transposed direct form II recursion sample by sample, by
    rounding only: a few 1e-12 of its peak at the drift filter's default
    cutoff, where this form is the closer of the two to the exact recursion.
    """
    x = np.asarray(x, dtype=np.float64)
    sos = np.ascontiguousarray(sos, dtype=np.float64)
    powers, into, out, toeplitz = _block_filter(sos.tobytes())
    n_blocks = -(-x.size // _FILTER_BLOCK)
    u = np.zeros((n_blocks, _FILTER_BLOCK))
    u.reshape(-1)[: x.size] = x
    y = u @ toeplitz.T
    carried = u @ into.T
    for level, power in enumerate(powers):
        shift = 1 << level
        if shift >= n_blocks:
            break
        carried[shift:] = carried[shift:] + carried[:-shift] @ power.T
    y[1:] += carried[:-1] @ out.T
    return y.reshape(-1)[: x.size]


def _drift_process(n: int, sample_period: float, bandwidth: float, rng) -> np.ndarray:
    """Unit-variance low-pass noise; zeros when bandwidth is 0."""
    if bandwidth == 0 or n < 16:
        return np.zeros(n)
    nyq = 0.5 / sample_period
    if bandwidth >= 0.25 / sample_period:
        raise ConfigError("drift_bandwidth too high for the sample grid")
    white = rng.standard_normal(n + n // 2)
    sos = _butter_lowpass_sos(4, bandwidth / nyq)
    filtered = _sosfilt(sos, white)[-n:]  # leading tail discarded as warm-up
    std = filtered.std()
    if std == 0:
        return np.zeros(n)
    return (filtered - filtered.mean()) / std


def gen_gsr(
    spec: GsrSynthSpec, duration: float, sample_period: float, seed: int
) -> SourceTrace:
    """Synthesize a skin-conductance trace bounded by conductance_max.

    Deterministic for a fixed seed; with drift_bandwidth = 0 and
    event_rate = 0 the output is constant at conductance_max / 2.
    """
    if duration <= 0 or sample_period <= 0:
        raise ConfigError("duration and sample_period must be > 0")
    rng = np.random.default_rng(seed)
    n = max(1, int(round(duration / sample_period)))
    t = np.arange(n) * sample_period

    z = spec.drift_scale * _drift_process(n, sample_period, spec.drift_bandwidth, rng)

    if spec.event_rate > 0:
        n_events = rng.poisson(spec.event_rate * duration)
        event_times = np.sort(rng.uniform(0.0, duration, size=n_events))
        amps = spec.event_amplitude * rng.exponential(1.0, size=n_events)
        for t0, a in zip(event_times, amps):
            dt = t - t0
            mask = dt >= 0
            shape = np.exp(-dt[mask] / spec.event_decay) - np.exp(-dt[mask] / spec.event_rise)
            peak = shape.max() if shape.size else 0.0
            if peak > 0:
                z[mask] += a * shape / peak

    conductance = spec.conductance_max / (1.0 + np.exp(-z))
    return SourceTrace(sample_period, conductance)


def rescale(
    trace: SourceTrace, in_lo: float, in_hi: float, out_lo: float, out_hi: float
) -> SourceTrace:
    """Affine map [in_lo, in_hi] -> [out_lo, out_hi] with clamping outside."""
    if not in_hi > in_lo:
        raise ConfigError(f"degenerate input range [{in_lo}, {in_hi}]")
    if not out_hi > out_lo:
        raise ConfigError(f"degenerate output range [{out_lo}, {out_hi}]")
    clamped = np.clip(trace.samples, in_lo, in_hi)
    scaled = out_lo + (clamped - in_lo) * (out_hi - out_lo) / (in_hi - in_lo)
    return SourceTrace(trace.sample_period, scaled)


def write_trace_csv(trace: SourceTrace, path) -> None:
    """Write a trace as CSV with header t_seconds,value (LF line endings)."""
    with open(path, "w", newline="\n") as fh:
        fh.write("t_seconds,value\n")
        for i, v in enumerate(trace.samples):
            fh.write(f"{float(i * trace.sample_period)!r},{float(v)!r}\n")


def read_trace_csv(path) -> SourceTrace:
    """Read a trace written by write_trace_csv; infers the sample period."""
    try:
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except ValueError as exc:
        raise ConfigError(f"{path}: not a numeric t_seconds,value trace: {exc}") from exc
    if data.shape[0] < 2:
        raise ConfigError(f"{path}: need at least two samples to infer the period")
    if data.shape[1] != 2:
        raise ConfigError(f"{path}: need two columns t_seconds,value, got {data.shape[1]}")
    t, values = data[:, 0], data[:, 1]
    periods = np.diff(t)
    period = float(periods[0])
    if not np.allclose(periods, period, rtol=1e-6, atol=1e-12):
        raise ConfigError(f"{path}: time base is not uniform")
    return SourceTrace(period, values)
