"""The row split shared by the modulator, the channel and the receiver.

Each works on an array of blocks, one block per row, and computes each row
on its own.  ``split_rows`` cuts the rows into one contiguous range per
usable CPU and runs the ranges on one module-level thread pool; numpy's
generator fills, ufunc loops and ``numpy.fft`` release the GIL, while Python
work such as seating a keyed generator (``channel.KeyedBlocks``) holds it.
Objects with state, such as a generator, are made per range or per thread
inside fn and never shared between threads.

``harness._transmit`` makes one split per run, and each of its ranges calls
the modulator, the channel and the receiver once per tile of rows.  Four
rules make that nesting work:
- No nested dispatch.  A ``split_rows`` called while this thread runs a
  range, in the pool or inline, runs its rows inline as one range: two pool
  threads waiting on their own pool would deadlock.
- Scratch per thread, not per call.  Each (shape, dtype) pair in scratch is
  a slot of fn, and each thread keeps one buffer per slot, grown to the
  largest request it has seen and reused after that.  A layer called once
  per tile therefore allocates its scratch on its first tile only; a fresh
  array per tile would pay its page faults every time.
- Set-up per config or range, not per call.  What a layer derives from its
  config alone (band edges, tables, step vectors, scratch sizes) is built
  once per config (``modem._receiver``, ``modem._tone_steps``) or once per
  worker range (``channel.block_range``), and each call pays for its rows
  only: at one call per 32-block tile, a receiver's set-up and small numpy
  calls were a tenth of a noiseless run.
- Only the layers' own functions on the pool.  A caller that cannot know
  whether fn's callees are thread-safe (a stage replaced from outside, such
  as a timing wrapper that keeps one call stack) passes inline: the rows
  then run as one range on the calling thread, and so does every split
  nested in it.

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
# Per thread: inside, whether the thread is running a range, and scratch,
# its buffer per slot.
_THREAD = threading.local()


def _scratch(slot, shape: tuple[int, ...], dtype) -> np.ndarray:
    """This thread's array of the given shape for a scratch slot."""
    buffers = _THREAD.__dict__.setdefault("scratch", {})
    size = math.prod(shape)
    buf = buffers.get(slot)
    if buf is None or buf.dtype != dtype or buf.size < size:
        buf = buffers[slot] = np.empty(size, dtype=dtype)
    return buf[:size].reshape(shape)


def split_rows(
    fn, n_rows: int, *scratch: tuple[tuple[int, ...], type], inline: bool = False
) -> None:
    """Call fn(lo, hi, *bufs) once per contiguous range [lo, hi) of rows.

    The ranges cover 0..n_rows in order.  scratch holds (shape, dtype)
    pairs; each call gets an array of each, its thread's own.  One range
    (always the case for fewer than two rows, inside another range, or with
    inline) runs on the calling thread, more run on the pool, and the first
    exception a range raises propagates.
    """
    nested = getattr(_THREAD, "inside", False)
    parts = 1 if nested or inline else max(1, min(_WORKERS, n_rows))
    bounds = [n_rows * i // parts for i in range(parts + 1)]
    code = getattr(fn, "__code__", fn)

    def run(lo: int, hi: int) -> None:
        bufs = [_scratch((code, i), shape, dtype) for i, (shape, dtype) in enumerate(scratch)]
        outer = getattr(_THREAD, "inside", False)
        _THREAD.inside = True
        try:
            fn(lo, hi, *bufs)
        finally:
            _THREAD.inside = outer

    if parts == 1:
        run(0, n_rows)
    else:
        list(_POOL.map(run, bounds[:-1], bounds[1:]))
