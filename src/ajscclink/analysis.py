"""Post-decoding cleanup and evaluation statistics.

Threshold and median filters mirror the receiver-side cleanup of the
decoded traces; peak extraction, MSE, empirical CDFs, and the two-sample
Kolmogorov-Smirnov test support the evaluation methodology (distribution
comparison of pulse peaks at source and receiver).

The median filter gives the bytes of ``scipy.ndimage.median_filter`` with
``size=order + 1`` and ``mode="reflect"`` without importing scipy.  The
window is odd, so its median is one of its samples, and any exact selection
over the same reflected edges gives the same values: order 2 takes a
min/max network over each sample and its two neighbours, longer orders keep
the window as a sorted list and slide it one sample at a time with
``bisect`` (under a microsecond per sample).  Where a window holds both
zeros, 0.0 and -0.0, which of them it returns is not defined, as in scipy.

Peak extraction is a numpy port of ``scipy.signal.find_peaks`` with
``height`` and ``distance``, giving the same indices and heights without
the cost of importing ``scipy.signal``.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass

import numpy as np

from .sources import SourceTrace


@dataclass(frozen=True)
class PulseEvent:
    time: float
    peak_value: float


@dataclass(frozen=True)
class KsResult:
    statistic: float
    p_value: float
    reject_at_5pct: bool


@dataclass(frozen=True)
class MsePair:
    mse_x1: float
    mse_x2: float

    @property
    def total(self) -> float:
        return self.mse_x1 + self.mse_x2


def threshold_filter(trace: SourceTrace, threshold: float) -> SourceTrace:
    """Zero out values below the threshold; keep values at or above it."""
    if not np.isfinite(threshold):
        raise ValueError("threshold must be finite")
    values = np.where(trace.samples < threshold, 0.0, trace.samples)
    return SourceTrace(trace.sample_period, values)


def median_filter(trace: SourceTrace, order: int) -> SourceTrace:
    """Sliding median of window length order + 1, centered.

    order must be even and >= 2 so the window has a center sample; edges
    are handled by symmetric reflection (d c b a | a b c d | d c b a).
    """
    if order < 2 or order % 2 != 0:
        raise ValueError(f"order must be an even integer >= 2, got {order}")
    x, half = trace.samples, order // 2
    if x.size <= order:
        raise ValueError(f"trace length {x.size} must exceed order {order}")
    padded = np.concatenate([x[half - 1 :: -1], x, x[: -half - 1 : -1]])
    if order == 2:
        a, b, c = padded[:-2], padded[1:-1], padded[2:]
        values = np.maximum(np.minimum(a, b), np.minimum(np.maximum(a, b), c))
    else:
        p = padded.tolist()
        window = sorted(p[: order + 1])
        values = [window[half]]
        for old, new in zip(p, p[order + 1 :]):
            del window[bisect_left(window, old)]
            insort(window, new)
            values.append(window[half])
    return SourceTrace(trace.sample_period, values)


def _local_maxima(x: np.ndarray) -> np.ndarray:
    """Indices of the strict local maxima of x, as scipy's find_peaks finds them.

    A flat top counts once, at its midpoint rounded down, when both of its
    neighbours are lower; the first and the last sample are never maxima.
    """
    starts = np.flatnonzero(x[1:] != x[:-1]) + 1
    if starts.size < 2:
        return np.empty(0, dtype=np.intp)
    ends = np.append(starts[1:], x.size) - 1
    level = x[starts]
    before = np.append(x[0], level[:-1])
    top = (level[:-1] > before[:-1]) & (level[:-1] > level[1:])
    return (starts[:-1][top] + ends[:-1][top]) // 2


def detect_peaks(
    trace: SourceTrace, min_height: float, min_separation: float
) -> list[PulseEvent]:
    """Local maxima at or above min_height, thinned to min_separation.

    Thinning is greedy by height: of any two maxima closer than
    min_separation, the smaller one is dropped.  The maxima are visited
    from the highest down in ``np.argsort`` order, so ties break as in
    ``scipy.signal.find_peaks(x, height=min_height, distance=...)``.
    """
    if min_separation < trace.sample_period:
        raise ValueError("min_separation must be >= the trace sample period")
    distance = max(1, int(round(min_separation / trace.sample_period)))
    x = trace.samples
    peaks = _local_maxima(x)
    peaks = peaks[x[peaks] >= min_height]
    heights = x[peaks]
    positions = peaks.tolist()
    keep = [True] * len(positions)
    for j in np.argsort(heights)[::-1].tolist():
        if not keep[j]:
            continue
        k = j - 1
        while k >= 0 and positions[j] - positions[k] < distance:
            keep[k] = False
            k -= 1
        k = j + 1
        while k < len(positions) and positions[k] - positions[j] < distance:
            keep[k] = False
            k += 1
    return [
        PulseEvent(time=float(i * trace.sample_period), peak_value=float(v))
        for i, v, kept in zip(peaks, heights, keep)
        if kept
    ]


def mse(reference: SourceTrace, estimate: SourceTrace) -> float:
    """Mean squared difference between two aligned traces."""
    a, b = reference.samples, estimate.samples
    if a.size != b.size:
        raise ValueError(f"length mismatch: reference {a.size} vs estimate {b.size}")
    return float(np.mean((a - b) ** 2))


def empirical_cdf(values) -> np.ndarray:
    """Right-continuous ECDF as an (n_unique, 2) array of (value, prob)."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise ValueError("empirical_cdf needs at least one value")
    uniq, counts = np.unique(values, return_counts=True)
    probs = np.cumsum(counts) / values.size
    return np.column_stack([uniq, probs])


def _ks_statistic(a: np.ndarray, b: np.ndarray) -> float:
    pooled = np.concatenate([a, b])
    pooled.sort(kind="mergesort")
    fa = np.searchsorted(np.sort(a), pooled, side="right") / a.size
    fb = np.searchsorted(np.sort(b), pooled, side="right") / b.size
    return float(np.max(np.abs(fa - fb)))


def _ks_p_value(lam: float, terms: int = 100) -> float:
    # Asymptotic Kolmogorov tail; the series degenerates for tiny lambda
    # where the p-value is 1 anyway.
    if lam < 1e-3:
        return 1.0
    i = np.arange(1, terms + 1)
    series = 2.0 * np.sum((-1.0) ** (i - 1) * np.exp(-2.0 * i**2 * lam**2))
    return float(min(1.0, max(0.0, series)))


def ks_two_sample(a, b, alpha: float = 0.05) -> KsResult:
    """Two-sample Kolmogorov-Smirnov test.

    D is the supremum ECDF gap over the pooled sample; the p-value uses the
    asymptotic Kolmogorov distribution with the small-sample correction
    lambda = (sqrt(ne) + 0.12 + 0.11/sqrt(ne)) * D for effective size
    ne = |a||b| / (|a| + |b|).
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.size < 5 or b.size < 5:
        raise ValueError(f"need at least 5 samples per side, got {a.size} and {b.size}")
    d = _ks_statistic(a, b)
    ne = a.size * b.size / (a.size + b.size)
    lam = (np.sqrt(ne) + 0.12 + 0.11 / np.sqrt(ne)) * d
    p = _ks_p_value(lam)
    return KsResult(statistic=d, p_value=p, reject_at_5pct=bool(p < alpha))


def write_peaks_csv(peaks: list[PulseEvent], path) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write("time,peak\n")
        for ev in peaks:
            fh.write(f"{ev.time!r},{ev.peak_value!r}\n")


def write_cdf_csv(values, path) -> None:
    cdf = empirical_cdf(values)
    with open(path, "w", newline="\n") as fh:
        fh.write("value,cdf\n")
        for v, p in cdf:
            fh.write(f"{float(v)!r},{float(p)!r}\n")
