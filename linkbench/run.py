"""Link benchmark: how fast ajscclink simulates the link, on one workload.

Run from the repository root:

    python3 linkbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The program under test is the ``ajscclink`` package in ``src/`` of the
same checkout.  Every link run's output is checked (see
``workloads.check_report``) and one run is repeated to check determinism.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The headline
rate is normalized by a reference kernel timed between operations (see
``reference.py``).  In a traced run each operation also runs under the
span tracer, right next to its untraced run: the two payloads must match
byte for byte, and the median ratio of their wall times is the tracing
overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

from reference import IMPORT_NOMINAL_S, Reference, import_seconds

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 60

# Fresh interpreter: import the harness (scipy.signal dominates) and run the
# shortest link of the workload's shape, which loads tap profiles and plans
# the FFT sizes.  A command-line user pays this on every call.
_SETUP_CODE = """
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import ajscclink.harness as harness
harness.run_link(harness.RunConfig(**json.loads(sys.argv[2])))
print(time.perf_counter() - t0)
print(harness.__file__)
"""


def _setup_seconds(workload) -> float:
    """Set-up seconds of a fresh interpreter: import plus one minimal run."""
    kwargs = {**workload.config, "duration": workload.warmup_duration}
    proc = subprocess.run(
        [sys.executable, "-c", _SETUP_CODE, str(SRC), json.dumps(kwargs)],
        capture_output=True,
        text=True,
        timeout=SETUP_TIMEOUT_S,
        check=True,
    )
    seconds, module_file = proc.stdout.split("\n")[:2]
    _require_checkout_module(module_file)
    return float(seconds)


def measure_setup(workload) -> float:
    """Median set-up time over SETUP_REPEATS, at the nominal machine speed.

    Each set-up is scaled by IMPORT_NOMINAL_S over the mean of the reference
    imports timed just before and just after it (see ``reference.py``).
    """
    refs = [import_seconds()]
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        raw.append(_setup_seconds(workload))
        refs.append(import_seconds())
        scaled.append(raw[-1] * IMPORT_NOMINAL_S / ((refs[-2] + refs[-1]) / 2))
    print(f"setup: raw {raw} s, reference imports {refs} s", file=sys.stderr)
    return statistics.median(scaled)


def _require_checkout_module(module_file: str) -> None:
    if not Path(module_file).resolve().is_relative_to(SRC):
        raise RuntimeError(f"imported {module_file}, not the package under {SRC}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not (SRC / "ajscclink" / "harness.py").is_file():
        print(f"error: no ajscclink package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy
    import scipy
    import workloads
    from ajscclink import harness
    from tracer import Tracer

    _require_checkout_module(harness.__file__)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    print(
        f"env: nproc={os.cpu_count()} affinity={sorted(os.sched_getaffinity(0))} "
        f"python={platform.python_version()} numpy={numpy.__version__} scipy={scipy.__version__}",
        file=sys.stderr,
    )
    bands = workloads.load_bands()[workload.name]

    setup_s = None if args.trace else measure_setup(workload)
    harness.run_link(workload.warmup_config())
    tracer = Tracer(harness) if args.trace else None
    with Reference() as reference:
        reference.seconds()
        sec = workloads.run_section(
            workload, args.seed, bands, seconds=args.seconds, reference=reference, tracer=tracer
        )
    if not sec.walls:
        print("error: no operation passed its output check", file=sys.stderr)
        for problem in sec.failures:
            print("check failed:", problem, file=sys.stderr)
        return 1

    if args.trace:
        # run_section compared every traced payload with its untraced twin.
        pairs = []
        metrics = tracer.summary()
        metrics["process.cpu_s"] = sum(sec.traced_cpu) / (
            len(sec.traced_cpu) * workload.links_per_op()
        )
        metrics["process.cpu_per_wall"] = sum(sec.traced_cpu) / sum(sec.traced_walls)
        metrics["trace.overhead_frac"] = (
            statistics.median(t / u for t, u in zip(sec.traced_walls, sec.walls)) - 1.0
        )
        metrics["harness.link_s_per_wall_s"] = sec.link_s_per_wall_s()
        metrics["reference.s"] = statistics.median(sec.refs)
    else:
        # Rerun one link with the same seed: the payload must not change.
        first = sec.reports[0]
        sec.attempted += 1
        rerun = harness.run_link(first.config)
        pairs = [(workloads.payload_bytes(first), workloads.payload_bytes(rerun))]
        metrics = {
            "link_s_per_ref": sec.link_s_per_ref(),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    mismatched = sum(a != b for a, b in pairs)
    attempted = sec.attempted
    failed = sec.failed + mismatched
    failures = sec.failures
    if mismatched:
        failures.append(f"{mismatched} operation(s) changed payload when repeated")
    for problem in failures:
        print("check failed:", problem, file=sys.stderr)

    units = _units(args.trace)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics do not match BENCHMARK.json: {set(metrics) ^ set(units)}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def _units(trace: int) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


if __name__ == "__main__":
    sys.exit(main())
