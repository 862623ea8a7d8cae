"""Span tracer around the calls ajscclink.harness makes into each layer.

The tracer replaces, in the harness module's namespace, ``run_link`` and
every layer function that ``run_link`` reaches through a module global,
plus the ``process`` method of each channel object ``make_channel``
returns.  Each call becomes a span (name, start, end, parent, run id);
spans stay in memory and are summarised when the benchmark ends.  The
wrappers only time and record shapes, so results are unchanged; the
benchmark checks that by comparing traced and untraced payload bytes.

Wrapping is by name, so a refactor that renames or drops one of these
functions must make the tracer fail, not report that layer as zero:
``install`` raises ``TracerError`` for every missing name.
"""

from __future__ import annotations

import collections
import functools
import inspect
import math
import time
from dataclasses import dataclass, field

import numpy as np

PARENT = "harness.run_link"

# harness-level name -> layer (module) that implements it.
LAYER_OF = {
    "gen_cytometry": "sources",
    "gen_gsr": "sources",
    "rescale": "sources",
    "encode": "codec",
    "decode": "codec",
    "modulate": "modem",
    "demodulate_stream": "modem",
    "make_channel": "channel",
    "median_filter": "analysis",
    "threshold_filter": "analysis",
    "detect_peaks": "analysis",
    "mse": "analysis",
    "ks_two_sample": "analysis",
}
_COMPLEX_BYTES = np.dtype(np.complex128).itemsize
_FLOAT_BYTES = np.dtype(np.float64).itemsize


class TracerError(RuntimeError):
    """The traced module no longer has a name the tracer wraps."""


@dataclass
class Span:
    name: str
    start: float
    end: float = math.nan
    parent: int | None = None
    run_id: int = -1
    # Small per-call facts for the counters: shapes, flags, and the short
    # per-block vectors (never the sample blocks themselves).
    info: dict = field(default_factory=dict)


def _interval_union(intervals) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class Tracer:
    """Install with ``with Tracer(harness_module) as tracer:``."""

    def __init__(self, module):
        self.module = module
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: dict[str, object] = {}
        self._runs = 0

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def install(self) -> None:
        names = ["run_link", *LAYER_OF]
        missing = [n for n in names if not callable(getattr(self.module, n, None))]
        if missing:
            raise TracerError(
                f"{self.module.__name__} has no callable {', '.join(missing)}; "
                "update the tracer's layer map"
            )
        for name in names:
            fn = getattr(self.module, name)
            self._saved[name] = fn
            span_name = PARENT if name == "run_link" else f"{LAYER_OF[name]}.{name}"
            setattr(self.module, name, self._wrap(span_name, fn))

    def uninstall(self) -> None:
        for name, fn in self._saved.items():
            setattr(self.module, name, fn)

    def _wrap(self, span_name: str, fn):
        signature = inspect.signature(fn)
        record = _RECORDERS.get(span_name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            if span_name == PARENT:
                run_id = self._runs
                self._runs += 1
            else:
                run_id = self.spans[parent].run_id if parent is not None else -1
            span = Span(span_name, time.perf_counter(), parent=parent, run_id=run_id)
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if record is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                record(span.info, bound.arguments, result)
            if span_name == "channel.make_channel":
                process = getattr(result, "process", None)
                if not callable(process):
                    raise TracerError(f"{type(result).__name__} has no callable process")
                result.process = self._wrap("channel.process", process)
            return result

        return wrapper

    def self_times(self) -> list[float]:
        """Per-span duration minus the part its child spans cover."""
        children: list[list[tuple[float, float]]] = [[] for _ in self.spans]
        for s in self.spans:
            if s.parent is not None:
                children[s.parent].append((s.start, s.end))
        return [
            (s.end - s.start) - _interval_union(
                (max(lo, s.start), min(hi, s.end)) for lo, hi in kids
            )
            for s, kids in zip(self.spans, children)
        ]

    def summary(self) -> dict[str, float]:
        """Per-layer metrics over the spans recorded so far.

        Times (self time, in seconds) and counts are means per link run, so
        they do not depend on how many runs fitted in the measured time;
        harness.run_link.calls is that number of runs.  Shares are of the
        time spent inside run_link.
        """
        time_of: dict[str, float] = collections.defaultdict(float)
        calls: dict[str, int] = collections.defaultdict(int)
        for s, t in zip(self.spans, self.self_times()):
            time_of[s.name] += t
            calls[s.name] += 1
        runs = [s for s in self.spans if s.name == PARENT]
        run_s = sum(s.end - s.start for s in runs)
        csnr_of = {s.run_id: s.info["config"].csnr_db for s in runs if "config" in s.info}

        def count(span_name, key):
            return sum(s.info.get(key, 0) for s in self.spans if s.name == span_name)

        def layer(prefix, table):
            return sum(v for k, v in table.items() if k.startswith(prefix + "."))

        mod_samples = count("modem.modulate", "samples")
        fft_points = count("modem.demodulate_stream", "fft_points")
        ch_samples = count("channel.process", "samples")
        # Two standard normals per noisy complex sample (re, im).
        normals = sum(
            2 * s.info.get("samples", 0)
            for s in self.spans
            if s.name == "channel.process" and math.isfinite(csnr_of.get(s.run_id, math.inf))
        )
        per_run = {
            "harness.run_link.s": run_s,
            "harness.self_s": time_of[PARENT],
            "modem.modulate.s": time_of["modem.modulate"],
            "modem.modulate.samples": mod_samples,
            "modem.demodulate_stream.s": time_of["modem.demodulate_stream"],
            "modem.fft_points": fft_points,
            "modem.demodulate_stream.clamped": count("modem.demodulate_stream", "clamped"),
            # Computed from array sizes, not measured: the modulated blocks
            # written, the same blocks read by the receiver, its spectrum.
            "modem.bytes_computed": _COMPLEX_BYTES
            * (mod_samples + count("modem.demodulate_stream", "samples") + fft_points),
            "channel.process.s": time_of["channel.process"],
            "channel.process.calls": calls["channel.process"],
            "channel.process.samples": ch_samples,
            "channel.noise_normals": normals,
            # Computed: input and output blocks plus the float64 noise draws.
            "channel.bytes_computed": 2 * _COMPLEX_BYTES * ch_samples + _FLOAT_BYTES * normals,
            "channel.make_channel.s": time_of["channel.make_channel"],
            "sources.s": layer("sources", time_of),
            "sources.calls": layer("sources", calls),
            "sources.gen_gsr.s": time_of["sources.gen_gsr"],
            "codec.encode.s": time_of["codec.encode"],
            "codec.decode.s": time_of["codec.decode"],
            "analysis.s": layer("analysis", time_of),
            "analysis.median_filter.s": time_of["analysis.median_filter"],
            "analysis.detect_peaks.s": time_of["analysis.detect_peaks"],
            "analysis.ks_two_sample.s": time_of["analysis.ks_two_sample"],
        }
        m = {k: v / len(runs) for k, v in per_run.items()}
        m["harness.run_link.calls"] = len(runs)
        m["harness.stage_coverage"] = 1.0 - time_of[PARENT] / run_s
        for name in ("modem.modulate", "modem.demodulate_stream", "channel.process"):
            m[f"{name}.share"] = time_of[name] / run_s
        m["modem.modulate.ns_per_sample"] = 1e9 * time_of["modem.modulate"] / mod_samples
        m["modem.demodulate_stream.ns_per_fft_point"] = (
            1e9 * time_of["modem.demodulate_stream"] / fft_points
        )
        m["channel.process.ns_per_sample"] = 1e9 * time_of["channel.process"] / ch_samples
        m["codec.line_error_frac"] = self._line_error_frac()
        return m

    def _line_error_frac(self) -> float:
        """Share of blocks whose decoded AJSCC line differs from the sent one.

        The sent line is the one the decoder assigns to the noiseless
        encoded value, so both sides use the decoder's own line boundaries.
        """
        sent = {s.run_id: s.info for s in self.spans if s.name == "codec.encode"}
        wrong = blocks = 0
        for s in self.spans:
            if s.name != "codec.decode" or "x2_hat" not in s.info:
                continue
            enc = sent[s.run_id]
            _, x2_sent = self._saved["decode"](enc["encoded"], enc["params"])
            x2_rx = s.info["x2_hat"]
            wrong += int(np.count_nonzero(np.asarray(x2_rx) != np.asarray(x2_sent)))
            blocks += np.size(x2_rx)
        return wrong / blocks


def _record_run(info, args, result):
    info["config"] = args["config"]


def _record_blocks(info, args, result):
    info["samples"] = int(np.size(result))


def _record_demod(info, args, result):
    blocks = args["blocks"]
    cfg = args["cfg"]
    n_fft = 2 * cfg.fft_size if args["interpolate"] else cfg.fft_size
    info["samples"] = int(np.size(blocks))
    info["fft_points"] = int(np.shape(blocks)[0]) * n_fft
    out = np.asarray(result)
    info["clamped"] = int(np.count_nonzero((out <= 0.0) | (out >= args["full_scale"])))


def _record_encode(info, args, result):
    info["encoded"] = result
    info["params"] = args["p"]


def _record_decode(info, args, result):
    info["x2_hat"] = result[1]


_RECORDERS = {
    PARENT: _record_run,
    "modem.modulate": _record_blocks,
    "channel.process": _record_blocks,
    "modem.demodulate_stream": _record_demod,
    "codec.encode": _record_encode,
    "codec.decode": _record_decode,
}
