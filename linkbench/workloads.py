"""The benchmark's workloads and the output check applied to every link run.

Each workload is a fixed RunConfig shape; the benchmark seed only picks
the per-operation seeds.  Why each workload exists (the share of work each
layer takes on it) is recorded in README.md next to this file.
"""

from __future__ import annotations

import json
import math
import pathlib
import resource
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from ajscclink import harness
from ajscclink.harness import RunConfig, report_to_dict

_BANDS_PATH = pathlib.Path(__file__).with_name("mse_bands.json")
KS_MIN_SOURCE_PEAKS = 10


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict  # RunConfig keyword arguments, without seed
    warmup_duration: float  # shortest run the analysis filters accept
    sweep: tuple[int, ...] = ()  # level counts for one sweep_levels call

    def op_config(self, seed: int, index: int) -> RunConfig:
        """Config of operation `index`; a sweep derives its points' seeds from it."""
        op_seed = int(np.random.SeedSequence([seed, index]).generate_state(1)[0])
        return RunConfig(seed=op_seed, **self.config)

    def warmup_config(self) -> RunConfig:
        return RunConfig(**{**self.config, "duration": self.warmup_duration})

    def run_op(self, config: RunConfig) -> list:
        """The link runs of one operation, in order.

        Calls go through the harness module so an installed tracer sees them.
        """
        if self.sweep:
            return harness.sweep_levels(config, self.sweep)
        return [harness.run_link(config)]

    def links_per_op(self) -> int:
        return len(self.sweep) or 1


# The x2 median filter (order 200) needs more than 200 decoded blocks:
# 0.201 s on the fast profile (1 ms blocks), 2.01 s on the slow one (10 ms).
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "noiseless-fast-interp",
            dict(levels=30, duration=2.0),
            warmup_duration=0.25,
        ),
        Workload(
            "jtc-outdoor-fast-raw",
            dict(
                levels=30,
                duration=1.0,
                channel_family="jtc_outdoor_low_a",
                csnr_db=0.0,
                doppler_hz=20.0,
                interpolate=False,
            ),
            warmup_duration=0.25,
        ),
        Workload(
            "sweep-slow-awgn-raw",
            dict(
                levels=30,
                duration=3.0,
                profile="slow",
                channel_family="awgn",
                csnr_db=0.0,
                interpolate=False,
            ),
            warmup_duration=2.5,
            sweep=tuple(range(5, 101, 5)),
        ),
    )
}


def load_bands() -> dict[str, dict[int, tuple[float, float]]]:
    """Accepted mse_sum interval per workload and level count."""
    raw = json.loads(_BANDS_PATH.read_text())
    return {
        name: {int(levels): (lo, hi) for levels, (lo, hi) in bands.items()}
        for name, bands in raw["bands"].items()
    }


def payload_bytes(report) -> bytes:
    """The deterministic part of a report: everything but the wall time."""
    payload = report_to_dict(report)
    del payload["wall_time_s"]
    return json.dumps(payload, sort_keys=True, allow_nan=False).encode()


def check_report(report, bands: dict[int, tuple[float, float]]) -> str | None:
    """Why a link run's output is wrong, or None when it passes."""
    if not (math.isfinite(report.mse.mse_x1) and math.isfinite(report.mse.mse_x2)):
        return "non-finite MSE"
    try:
        payload_bytes(report)
    except ValueError as exc:
        return f"report does not serialize without NaN: {exc}"
    # run_link skips K-S when either side has fewer than 5 peaks.  A deep
    # fade can cost the receiver a pulse or two, and sources held at the
    # slow profile's 10 ms blocks keep almost none, so K-S is required only
    # where even a receiver that lost half the pulses would still have 5.
    if report.ks is None and len(report.source_peaks) >= KS_MIN_SOURCE_PEAKS:
        return "K-S result missing"
    lo, hi = bands[report.config.levels]
    if not lo <= report.mse.total <= hi:
        return f"mse_sum {report.mse.total!r} outside [{lo!r}, {hi!r}]"
    return None


@dataclass
class Section:
    """The operations of one measured section, in order."""

    walls: list = field(default_factory=list)  # wall seconds per passing op
    link_s: list = field(default_factory=list)  # simulated seconds per passing op
    slots: list = field(default_factory=list)  # loop index of each passing op
    refs: list = field(default_factory=list)  # reference seconds before each op, and after the last
    traced_walls: list = field(default_factory=list)  # per passing op, with a tracer
    traced_cpu: list = field(default_factory=list)  # process CPU seconds, likewise
    reports: list = field(default_factory=list)  # first report of each passing op
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)

    def link_s_per_wall_s(self) -> float:
        """Median over passing operations of link seconds per wall second."""
        return statistics.median(link / w for link, w in zip(self.link_s, self.walls))

    def link_s_per_ref(self) -> float:
        """Median over passing operations of link seconds per reference pass.

        Each operation's rate is scaled by the mean of the reference timings
        taken just before and just after it.
        """
        return statistics.median(
            link / w * (self.refs[j] + self.refs[j + 1]) / 2
            for link, w, j in zip(self.link_s, self.walls, self.slots)
        )


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _timed_op(workload, config, bands, tracer=None):
    """One operation, under `tracer` if given: (wall, cpu, reports, problems)."""
    cpu0, t0 = _cpu_s(), time.perf_counter()
    try:
        if tracer is None:
            reports = workload.run_op(config)
        else:
            with tracer:
                reports = workload.run_op(config)
    except Exception as exc:  # a failing run is counted, not fatal
        problem = f"raised {type(exc).__name__}: {exc}"
        return None, None, [], [problem] * workload.links_per_op()
    wall, cpu = time.perf_counter() - t0, _cpu_s() - cpu0
    return wall, cpu, reports, [check_report(r, bands) for r in reports]


def run_section(
    workload, seed, bands, *, seconds=None, ops=None, reference=None, tracer=None
) -> Section:
    """Run operations 0, 1, ... for `seconds`, or exactly `ops` of them.

    With a `reference`, its kernel is timed before each operation and after
    the last one.  With a `tracer`, each operation also runs traced, right
    after the untraced run or (every other operation) right before it, so
    both wall times see the same machine state.  The traced payloads must
    equal the untraced ones.
    """
    sec = Section()
    deadline = time.perf_counter() + seconds if ops is None else None
    index = 0
    while index < ops if ops is not None else time.perf_counter() < deadline:
        if reference is not None:
            sec.refs.append(reference.seconds())
        config = workload.op_config(seed, index)
        index += 1
        sec.attempted += workload.links_per_op()
        if tracer is not None:
            sec.attempted += workload.links_per_op()
            if index % 2:
                traced = _timed_op(workload, config, bands, tracer)
        wall, cpu, reports, problems = _timed_op(workload, config, bands)
        if tracer is not None:
            if not index % 2:
                traced = _timed_op(workload, config, bands, tracer)
            t_wall, t_cpu, t_reports, t_problems = traced
            problems = problems + t_problems
        bad = [p for p in problems if p is not None]
        if not bad and tracer is not None:
            if list(map(payload_bytes, reports)) != list(map(payload_bytes, t_reports)):
                bad = ["traced payload differs from untraced"] * workload.links_per_op()
        sec.failed += len(bad)
        sec.failures.extend(bad)
        if bad:
            continue
        sec.walls.append(wall)
        if tracer is not None:
            sec.traced_walls.append(t_wall)
            sec.traced_cpu.append(t_cpu)
        sec.link_s.append(sum(r.config.duration for r in reports))
        sec.slots.append(index - 1)
        sec.reports.append(reports[0])
    if reference is not None:
        sec.refs.append(reference.seconds())
    return sec
