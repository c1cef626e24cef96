"""One thread pool for the independent pieces of training's sweeps.

Adam and the encoder's per-direction gradient products spend their time in
numpy and BLAS calls that release the interpreter lock, so their pieces run
at once on the CPUs the process may use. Each piece does the arithmetic it
would do on the calling thread, and ``run`` returns the results in piece
order, so a sweep keeps its bits at any worker count. ``start`` hands the
pool one piece without waiting: Adam's early update of the token table's
unreached blocks, which runs beside a batch's forward and backward passes.
Every piece runs in a copy of the caller's context, which carries its
``np.errstate``. The pool is started by the first sweep that splits, never
on import; a process confined to one CPU (``taskset -c 0``) runs every sweep
on the calling thread.

The pieces gain only when BLAS runs one thread (``OPENBLAS_NUM_THREADS=1``):
OpenBLAS's own threads keep spinning on the other CPUs for a while after
each product, so with BLAS at its default thread count a sweep that follows
the backward's products finds no CPU free.
"""

from __future__ import annotations

import contextvars
import os
import threading
from concurrent.futures import Future, ThreadPoolExecutor, wait
from typing import Callable, Sequence, TypeVar

T = TypeVar("T")

# A sweep over fewer elements than this runs on the calling thread. Handing
# pieces to the pool costs about 0.1 ms (a round trip of two empty pieces
# took 74-95 us on a 2-vCPU host), a seventh of Adam's update of this many
# elements there.
SPLIT_MIN = 65_536

_pool: ThreadPoolExecutor | None = None
_pool_threads = 0
_pool_lock = threading.Lock()


def workers() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        return os.cpu_count() or 1


def split(size: int, most: int) -> int:
    """How many pieces a sweep over ``size`` elements runs in: one below
    ``SPLIT_MIN``, else one per CPU up to ``most``."""
    return 1 if size < SPLIT_MIN else max(1, min(most, workers()))


def _executor(threads: int) -> ThreadPoolExecutor:
    """The pool, with room for at least ``threads`` threads. A smaller one is
    replaced, and its idle threads exit once no caller holds it."""
    global _pool, _pool_threads
    with _pool_lock:
        if _pool_threads < threads:
            _pool = ThreadPoolExecutor(threads, thread_name_prefix="seq2label-sweep")
            _pool_threads = threads
        return _pool


def run(pieces: Sequence[Callable[[], T]]) -> list[T]:
    """Call each of ``pieces`` at once and return their results in order.

    The first piece runs on the calling thread and each other one on a pool
    thread, in a copy of the caller's context taken here. Every piece has
    finished when this returns or raises; the exception raised is the first
    piece's, in piece order.
    """
    if len(pieces) == 1:
        return [pieces[0]()]
    pool = _executor(len(pieces) - 1)
    futures = [pool.submit(contextvars.copy_context().run, piece) for piece in pieces[1:]]
    try:
        first = pieces[0]()
    finally:
        wait(futures)
    return [first] + [f.result() for f in futures]


def start(piece: Callable[[], T]) -> Future:
    """Begin ``piece`` on a pool thread, in a copy of the caller's context
    taken here, and return its future at once; the caller must wait for it.

    The pool keeps one thread beyond the ``workers() - 1`` that ``run``
    hands pieces to, so a ``run`` while this piece goes still finds them.
    """
    return _executor(workers()).submit(contextvars.copy_context().run, piece)
