"""The row split shared by the modulator, the channel and the receiver.

Each works on a chunk of blocks, one block per row, and computes each row
on its own.  ``split_rows`` cuts the rows into one contiguous range per
usable CPU and runs the ranges on one module-level thread pool; numpy's
generator fills, ufunc loops and ``numpy.fft`` release the GIL, while Python
work such as seating a keyed generator (``channel.KeyedBlocks``) holds it.
Each range gets its own slice of a scratch array allocated here, in the
calling thread: buffers allocated inside the pool threads would grow
per-thread malloc arenas and the process's peak memory with them.  Objects
with state, such as a generator, are made per range inside fn and never
shared between ranges.

A worker's GIL-releasing calls should each cover a tile of rows, not a row.
Each call releases and retakes the GIL, and short calls from two threads
convoy on it: on a 2-vCPU Xeon VM, two threads each making 7.5 us complex
multiplies took 2.6x as long as one thread making both shares, and with
24 us calls 1.3x.  A delay line making about 8 calls of 5-8 us per
8,192-sample row took about 48 ms on two workers and 31-33 ms on one for a
512-block chunk.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


# split_rows makes at most _WORKERS ranges; the pool starts its threads on
# first use.
_WORKERS = _usable_cpus()
_POOL = ThreadPoolExecutor(max_workers=_WORKERS, thread_name_prefix="ajscclink-rows")


def split_rows(fn, n_rows: int, *scratch: tuple[tuple[int, ...], type]) -> None:
    """Call fn(lo, hi, *bufs) once per contiguous range [lo, hi) of rows.

    The ranges cover 0..n_rows in order.  scratch holds (shape, dtype)
    pairs; each call gets its own array of each.  One range (always the
    case for fewer than two rows) runs inline, more run on the pool, and
    the first exception a range raises propagates.
    """
    parts = max(1, min(_WORKERS, n_rows))
    bounds = [n_rows * i // parts for i in range(parts + 1)]
    bufs = [np.empty((parts, *shape), dtype=dtype) for shape, dtype in scratch]
    if parts == 1:
        fn(0, n_rows, *(b[0] for b in bufs))
    else:
        list(_POOL.map(fn, bounds[:-1], bounds[1:], *bufs))
