"""The transmit's one row split, and each thread's scratch.

``harness._transmit`` is the only caller of ``split_rows``: it cuts a run's
blocks into one contiguous range per usable CPU and runs the ranges on one
module-level thread pool, and each range takes its blocks through the
modulator, the channel and the receiver one tile of rows at a time.  Those
layers are serial kernels: each call computes its rows on the calling
thread and never dispatches to the pool.  numpy's generator fills, ufunc
loops, einsum, ``np.matmul`` and ``numpy.fft`` release the GIL, while Python
work such as seating a keyed generator (``channel.KeyedBlocks``) holds it,
and so does ``np.vecdot`` for the whole of a call on a tile's rows (with
one BLAS thread, a vecdot of 8 complex rows of 4M elements stalled another
thread's Python for 43 ms of the call's 52 ms; a 0.2 s matmul, for 9 ms).
Objects with state, such as a generator, are made per call or per thread and
never shared between threads.

Four rules make a layer called once per tile cheap and thread-safe:
- Scratch per thread, not per call.  A layer takes its buffers from
  ``scratch``, one per (thread, slot), grown to the largest request the
  thread has made for the slot and reused after that.  A layer called once
  per tile therefore allocates its scratch on its first tile only; a fresh
  array per tile would pay its page faults every time.
- Set-up per config or range, not per call.  What a layer derives from its
  config alone (band edges, tables, step vectors, scratch sizes) is built
  once per config (``modem._receiver``, ``modem._tone_steps``) or once per
  worker range (``channel.block_range``), and each call pays for its rows
  only: at one call per 32-block tile, a receiver's set-up and small numpy
  calls were a tenth of a noiseless run.
- BLAS on the calling thread.  The layers' matrix products are real
  dgemms of one row each (``modem``: the modulator's (q x 2) @ (2 x 2m) and
  the direct tier's (q x 2m) @ (2m x 2k)), below OpenBLAS's threading
  threshold (m n k of 2^18), so they never wake OpenBLAS's own threads,
  which would convoy with the pool's.  A reduction over a row goes through
  einsum, not a BLAS dot on the float view: OpenBLAS threads ddot above
  10,000 elements.
- Only the layers' own functions on the pool.  A stage replaced from
  outside, such as a timing wrapper that keeps one call stack for every
  thread, may not be thread-safe, so ``_transmit`` then passes inline and
  its rows run as one range on the calling thread.  linkbench's tracer is
  such a wrapper; a span stack per thread is a change to linkbench, not
  here.

A worker's GIL-releasing calls should each cover a tile of rows, not a row.
Each call releases and retakes the GIL, and short calls from two threads
convoy on it: on a 2-vCPU Xeon VM, two threads each making 7.5 us complex
multiplies took 2.6x as long as one thread making both shares, and with
24 us calls 1.3x.  A delay line making about 8 calls of 5-8 us per
8,192-sample row took about 48 ms on two workers and 31-33 ms on one for a
512-block chunk.
"""

from __future__ import annotations

import math
import os
import threading
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
# Per thread: buffers, its scratch array per slot.
_THREAD = threading.local()


def scratch(slot, shape: tuple[int, ...], dtype) -> np.ndarray:
    """This thread's array of the given shape for a scratch slot.

    slot is any hashable name of a buffer.  The array's contents are
    whatever the thread's last use of the slot left there.
    """
    buffers = _THREAD.__dict__.setdefault("buffers", {})
    size = math.prod(shape)
    buf = buffers.get(slot)
    if buf is None or buf.dtype != dtype or buf.size < size:
        buf = buffers[slot] = np.empty(size, dtype=dtype)
    return buf[:size].reshape(shape)


def split_rows(fn, n_rows: int, inline: bool = False) -> None:
    """Call fn(lo, hi) once per contiguous range [lo, hi) of rows.

    The ranges cover 0..n_rows in order.  One range (always the case for
    fewer than two rows, or with inline) runs on the calling thread, more
    run on the pool, and the first exception a range raises propagates.
    fn must not call split_rows: pool threads waiting on their own pool
    would deadlock.
    """
    parts = 1 if inline else max(1, min(_WORKERS, n_rows))
    if parts == 1:
        fn(0, n_rows)
        return
    bounds = [n_rows * i // parts for i in range(parts + 1)]
    list(_POOL.map(fn, bounds[:-1], bounds[1:]))
