"""Source-signal synthesis and conditioning.

Provides the two test signals fed to the encoder (an impedance-cytometry
pulse train and a skin-conductance drift trace), linear rescaling into
encoder input ranges, and trace CSV I/O for recorded sources.

The GSR drift is white noise through a 4th-order Butterworth low-pass.  The
filter design and the second-order-section recursion are numpy ports of
``scipy.signal.butter(4, wn, output="sos")`` and ``scipy.signal.sosfilt``
that follow scipy's operation order, so their output is bit-identical to
scipy's; importing ``scipy.signal`` would cost about a second per process.
"""

from __future__ import annotations

import dataclasses
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
    t = np.arange(n) * sample_period
    values = np.full(n, spec.baseline)

    times, peaks = cytometry_schedule(spec, duration, seed)
    sigma = spec.pulse_width / 6.0
    for t0, pk in zip(times, peaks):
        lo = max(0, int((t0 - 5 * sigma) / sample_period))
        hi = min(n, int((t0 + 5 * sigma) / sample_period) + 1)
        if hi <= lo:
            continue
        seg = t[lo:hi]
        values[lo:hi] += (pk - spec.baseline) * np.exp(-0.5 * ((seg - t0) / sigma) ** 2)

    if spec.noise_sd > 0:
        # Noise stream drawn after the schedule so the schedule is stable
        # under noise_sd changes.
        noise_rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
        values = values + noise_rng.normal(0.0, spec.noise_sd, size=n)
    return SourceTrace(sample_period, values)


def _butter_lowpass_sos(order: int, wn: float) -> np.ndarray:
    """Second-order sections of a digital Butterworth low-pass, order even.

    wn is the cutoff over the Nyquist frequency, 0 < wn < 1.  The steps are
    scipy's: analog prototype poles, pre-warped lp2lp, bilinear transform
    at fs = 2, and the sections ordered from the pole pair farthest from the
    unit circle to the nearest, with the overall gain on the first section.
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
    return sos


def _sosfilt(sos: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Filter x through the sections from zero state (transposed direct form II).

    Each sample's arithmetic is scipy's ``sosfilt`` kernel, operation for
    operation; running one section over the whole signal before the next
    gives the same values.
    """
    y = x.tolist()
    for b0, b1, b2, _, a1, a2 in sos.tolist():
        z0 = z1 = 0.0
        for i, xi in enumerate(y):
            yi = b0 * xi + z0
            z0 = b1 * xi - a1 * yi + z1
            z1 = b2 * xi - a2 * yi
            y[i] = yi
    return np.array(y)


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
