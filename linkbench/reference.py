"""A fixed numpy/scipy kernel that gauges the machine's current speed.

This machine's throughput for link work drifts by 20-50% over minutes as
other tenants load the shared cores and memory. One run cannot see that,
so two runs minutes apart differ more than any sensible regression bound.
The benchmark therefore times this kernel between operations and reports
link seconds per kernel duration (``link_s_per_ref``) as its headline. Both
are slowed by the same contention, so the ratio keeps what the program
changes and drops most of the drift. The raw link seconds per wall second
stays visible as a per-layer metric.

The kernel mixes what a link run does: a 2x-padded complex FFT on all
cores, standard normal draws and complex multiply-adds. It runs in a child
process that waits between timings, so its memory and threads leave the
measured process (and its peak RSS) alone. It is benchmark code, so no
change to ``src/`` can make it faster or slower.

Set-up time is a different kind of work: a fresh interpreter unmarshals
and runs module code, one thread.  Its reference is ``import_seconds``, a
fresh interpreter importing the third-party modules the harness needs.
Set-up divided by that import, times IMPORT_NOMINAL_S, is the set-up time
on a machine where the import takes IMPORT_NOMINAL_S.  A change to
``src/`` that imports less or warms up faster lowers it; the reference
import stays the same.
"""

from __future__ import annotations

import subprocess
import sys

# What the reference import took on the baseline machine when quiet (README.md).
IMPORT_NOMINAL_S = 1.25
IMPORT_TIMEOUT_S = 60

_KERNEL = """
import sys, time
import numpy as np
import scipy.fft
rng = np.random.default_rng(0)
x = rng.standard_normal((64, 8192, 2)).view(np.complex128)[..., 0]
while sys.stdin.readline():
    t0 = time.perf_counter()
    scipy.fft.fft(x, n=2 * 8192, axis=1, workers=-1)
    noise = rng.standard_normal((64, 8192, 2)).view(np.complex128)[..., 0]
    x * (0.6 + 0.8j) + noise
    print(time.perf_counter() - t0, flush=True)
"""

_IMPORT = """
import time
t0 = time.perf_counter()
import numpy, scipy.fft, scipy.signal
print(time.perf_counter() - t0)
"""


def import_seconds() -> float:
    """Wall seconds a fresh interpreter takes to import numpy and scipy.signal."""
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT],
        capture_output=True,
        text=True,
        timeout=IMPORT_TIMEOUT_S,
        check=True,
    )
    return float(proc.stdout)


class Reference:
    """The kernel in a child process; use as ``with Reference() as ref:``."""

    def __enter__(self) -> "Reference":
        self._proc = subprocess.Popen(
            [sys.executable, "-c", _KERNEL],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        return self

    def seconds(self) -> float:
        """Wall seconds of one kernel pass, timed inside the child."""
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError(f"reference kernel exited with {self._proc.wait()}")
        return float(line)

    def __exit__(self, *exc) -> None:
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()
