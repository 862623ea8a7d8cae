"""Derive each workload's accepted mse_sum band from its seed-to-seed spread.

Run from the repository root:

    python3 linkbench/calibrate.py

For every workload (and every level count of the sweep) this runs the
link on OPS different operation seeds and writes, to
``linkbench/mse_bands.json``, the band ``[min / MARGIN, max * MARGIN]`` of
the observed mse_sum values.  Another seed is another realization of every
random stream, so a change that only renames a stream stays inside the
band.  The upper edge sits MARGIN times above the worst deep-fade run seen,
and a receiver that loses the tone lands far above it; the lower edge
catches a run far better than the noise and quantization allow.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
OPS = 200  # enough runs to see the deep-fade tail of jtc-outdoor-fast-raw
MARGIN = 4.0
RULE = f"[min / {MARGIN}, max * {MARGIN}] of mse_sum over {OPS} operation seeds"
CALIBRATION_SEED = 20190701  # disjoint from the small seeds the benchmark is run with


def band(values: list[float]) -> tuple[float, float]:
    return min(values) / MARGIN, max(values) * MARGIN


def main() -> int:
    sys.path.insert(0, str(HERE.parent / "src"))
    import workloads

    out = {"rule": RULE, "bands": {}, "observed": {}}
    for name, w in workloads.WORKLOADS.items():
        per_level: dict[int, list[float]] = {}
        for index in range(OPS):
            for report in w.run_op(w.op_config(CALIBRATION_SEED, index)):
                per_level.setdefault(report.config.levels, []).append(report.mse.total)
        out["bands"][name] = {str(lv): band(v) for lv, v in sorted(per_level.items())}
        out["observed"][name] = {
            str(lv): [min(v), statistics.median(v), max(v)] for lv, v in sorted(per_level.items())
        }
        print(name, out["observed"][name], file=sys.stderr, flush=True)
    (HERE / "mse_bands.json").write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
