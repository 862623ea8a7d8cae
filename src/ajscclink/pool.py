"""The package's two dispatches: threads within a run, processes across runs.

``harness._transmit`` is the only caller of ``split_rows``: it cuts a run's
blocks into one contiguous range per usable CPU, runs the first on the
calling thread and the others on one module-level thread pool of one thread
fewer (none on a one-CPU machine), and each range takes its blocks through the
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

``harness._run_links`` is the only caller of ``map_runs``: the independent
runs of a sweep, or of ``reproduce``'s table1 and fig5cdf, go to worker
processes forked for the one call, one process per usable CPU, and the
reports come back pickled, in order.  A fifth of a 3 s slow raw sweep
point's time is Python work outside the link layers, which holds the GIL,
so a second thread gains little there (the point's transmit took 6.4-8.5 ms
split over two threads against 7.4-8.8 ms on one), while a second process
runs whole points of its own.  A child runs its points with one range
(``_one_range``): the parent's pool threads do not exist in a forked child,
and each child already has a CPU of its own.  The fork happens on the
calling thread between runs, while the pool's threads are idle, and
OpenBLAS has its own at-fork handlers; from Python 3.12 on, forking a
process that has threads emits a DeprecationWarning.  The children exit
before the call returns, so none keeps module state from before a later
patch, and none outlives its caller; on Linux one whose parent is killed
dies with it.  Spawned children would each pay a fresh import, about
0.2 s, where a sweep of 20 slow points takes 0.15-0.25 s.

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
  here.  Likewise ``_run_links`` passes inline where ``run_link`` or a layer
  function has been replaced: what the replacement records in a child
  would never reach the parent.

A worker's GIL-releasing calls should each cover a tile of rows, not a row.
Each call releases and retakes the GIL, and short calls from two threads
convoy on it: on a 2-vCPU Xeon VM, two threads each making 7.5 us complex
multiplies took 2.6x as long as one thread making both shares, and with
24 us calls 1.3x.  A delay line making about 8 calls of 5-8 us per
8,192-sample row took about 48 ms on two workers and 31-33 ms on one for a
512-block chunk.
"""

from __future__ import annotations

import functools
import math
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


# split_rows makes at most _WORKERS ranges and runs the first on the calling
# thread, so that thread and the pool's hold one scratch set per usable CPU.
# The pool starts its threads on first use.  (Handing both ranges to the pool
# made the caller wait: on sweep points the second range started a median
# 169-176 us after the call.)
_WORKERS = _usable_cpus()
_POOL = (
    ThreadPoolExecutor(max_workers=_WORKERS - 1, thread_name_prefix="ajscclink-rows")
    if _WORKERS > 1
    else None
)
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


def _one_range(parent: int) -> None:
    """A forked worker process's set-up: its split_rows calls each make one
    range, on its own thread, and on Linux it dies with its parent."""
    global _WORKERS
    _WORKERS = 1
    if sys.platform.startswith("linux"):
        # A child whose parent was killed would wait on its empty call queue
        # for good, holding its pages: the kernel kills it instead.
        import ctypes
        import signal

        ctypes.CDLL(None).prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG
        if os.getppid() != parent:  # the parent died before the prctl
            os._exit(1)


def map_runs(fn, items: list, each, inline: bool = False) -> list:
    """[fn(item) for item in items], on forked worker processes where it can.

    With at least two usable CPUs and two items, where the platform has fork
    and without inline, this call forks min(_WORKERS, len(items)) worker
    processes, each of them runs its items one at a time with one row range
    (``_one_range``), and all of them have exited by the time the call
    returns or raises.  Otherwise the items run on this thread, in order.
    each(result) is called on this thread as each result arrives, in list
    order.  The exception of the first item that raised, in list order,
    propagates, once the items not yet started are cancelled.  fn must
    pickle by name, and the items and results must pickle.
    """
    if inline or _WORKERS < 2 or len(items) < 2 or not hasattr(os, "fork"):
        return _collect((functools.partial(fn, item) for item in items), each)
    # Imported here, not with the module: a cold import of multiprocessing
    # takes about 33 ms, which a single run should not pay.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(
        max_workers=min(_WORKERS, len(items)),
        mp_context=multiprocessing.get_context("fork"),
        initializer=_one_range,
        initargs=(os.getpid(),),
    ) as workers:
        futures = [workers.submit(fn, item) for item in items]
        try:
            return _collect((future.result for future in futures), each)
        except BaseException:
            workers.shutdown(cancel_futures=True)
            raise


def _collect(calls, each) -> list:
    results = []
    for call in calls:
        results.append(call())
        each(results[-1])
    return results


def split_rows(fn, n_rows: int, inline: bool = False) -> None:
    """Call fn(lo, hi) once per contiguous range [lo, hi) of rows.

    The ranges cover 0..n_rows in order.  The first runs on the calling
    thread, the others on the pool; there is one range for fewer than two
    rows, with inline, or without a pool.  Once every range has finished,
    the exception of the first range that raised propagates.  fn must not
    call split_rows: pool threads waiting on their own pool would deadlock.
    """
    parts = 1 if inline or _POOL is None else max(1, min(_WORKERS, n_rows))
    bounds = [n_rows * i // parts for i in range(parts + 1)]
    others = [_POOL.submit(fn, lo, hi) for lo, hi in zip(bounds[1:-1], bounds[2:])]
    try:
        fn(0, bounds[1])
    finally:
        errors = [future.exception() for future in others]  # waits for each
    for error in errors:
        if error is not None:
            raise error
