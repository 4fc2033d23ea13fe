"""Row-block threading for the point pipeline's row-independent kernels.

The heavy kernels of a point batch — the per-trial PCG64 normal draws,
the pocketfft transforms and scipy's ``lfilter`` — release the GIL and
treat every row of a ``(trials, samples)`` block independently. This
module runs such a kernel over contiguous row blocks on a small
process-wide thread pool, so a serial campaign (``workers=1``) uses
every usable core. A row's bits do not depend on which block or thread
computed it, so results are bit-identical for any budget.

**Budget.** At most :func:`row_budget` blocks run at once: the
process's usable CPUs (its affinity mask, not the host's count), or
the value a pool chunk scoped for itself — ``usable // workers``, so a
process pool that already fills the cores runs its chunks on one
thread each. Calls with fewer than two blocks' worth of rows
(:data:`MIN_BLOCK_ROWS` each) run inline and start no thread.

**Worker-thread invariant.** A block function runs numpy/scipy and
module-private helpers only: no span, counter, probe or cache call and
no public ``repro`` name, since the tracers and metric registries keep
per-process state that is not thread-safe. Telemetry stays on the
calling thread, which runs block 0 itself.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import contextmanager
from typing import Callable, Iterator, List, Optional, Tuple

import numpy as np

from repro.contracts import Effectful

MIN_BLOCK_ROWS = 16
"""Fewest rows worth a thread: smaller blocks run inline."""

_pool: Optional[ThreadPoolExecutor] = None
_pool_threads = 0
_pool_lock = threading.Lock()
_scoped: Optional[int] = None
_local = threading.local()


def usable_cpus() -> Effectful[int, "reads:host"]:
    """CPUs this process may run on: its affinity mask where the OS has
    one (a cpuset or ``taskset`` narrows it), else ``os.cpu_count()``.

    A host read that tunes scheduling only; no result depends on it.
    """
    if hasattr(os, "sched_getaffinity"):
        return max(1, len(os.sched_getaffinity(0)))
    return max(1, os.cpu_count() or 1)


def row_budget() -> Effectful[int, "reads:host", "reads:global"]:
    """Most row blocks one :func:`for_row_blocks` call runs at once."""
    return _scoped if _scoped is not None else usable_cpus()


@contextmanager
def _budget_scope(budget: int) -> Iterator[None]:
    """Run the body with :func:`row_budget` pinned to ``budget``."""
    global _scoped
    previous = _scoped
    _scoped = max(1, int(budget))
    try:
        yield
    finally:
        _scoped = previous


def _mark_pool_thread() -> None:
    _local.busy = True


def _executor(threads: int) -> ThreadPoolExecutor:
    """The process-wide pool, replaced by a larger one when it has too
    few threads.

    A replaced pool is not shut down: another caller may still be
    submitting to it. Its threads exit once the last caller drops it.
    """
    global _pool, _pool_threads
    with _pool_lock:
        if _pool is None or _pool_threads < threads:
            _pool = ThreadPoolExecutor(
                max_workers=threads,
                thread_name_prefix="repro-rowblocks",
                initializer=_mark_pool_thread,
            )
            _pool_threads = threads
        return _pool


def _reset_after_fork() -> None:
    # The child inherits the parent's pool object but none of its
    # threads; submitting to it would wait forever.
    global _pool, _pool_threads, _pool_lock, _local
    _pool = None
    _pool_threads = 0
    _pool_lock = threading.Lock()
    _local = threading.local()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_after_fork)


def for_row_blocks(rows: int, fn: Callable[[int, int], None]) -> None:
    """Call ``fn(lo, hi)`` over contiguous blocks covering ``[0, rows)``.

    Block 0 runs on the calling thread, the others on the process-wide
    pool; the call returns once every block has finished and re-raises
    the first block's exception (in block order). It runs ``fn(0,
    rows)`` inline when the budget is 1, when ``rows`` is under two
    :data:`MIN_BLOCK_ROWS` blocks, or when called from inside a block
    (nesting never waits on its own pool). ``fn`` must keep to the
    worker-thread invariant in the module docstring.
    """
    # Small and nested calls skip the budget's host read.
    inline = rows < 2 * MIN_BLOCK_ROWS or getattr(_local, "busy", False)
    blocks = 1 if inline else min(row_budget(), rows // MIN_BLOCK_ROWS)
    if blocks <= 1:
        fn(0, rows)
        return
    bounds = [rows * b // blocks for b in range(blocks + 1)]
    pool = _executor(blocks - 1)
    _local.busy = True
    try:
        futures: List[Future] = [
            pool.submit(fn, lo, hi) for lo, hi in zip(bounds[1:-1], bounds[2:])
        ]
        first: Optional[BaseException] = None
        try:
            fn(bounds[0], bounds[1])
        except BaseException as exc:
            first = exc
        for future in futures:
            exc = future.exception()
            if first is None:
                first = exc
        if first is not None:
            raise first
    finally:
        _local.busy = False


def output_block(out: Optional[np.ndarray], shape: Tuple[int, ...]) -> np.ndarray:
    """The block a kernel with an ``out=`` parameter writes its result
    into: ``out`` checked as a C-contiguous complex128 array of
    ``shape``, or a fresh (uninitialised) one when it is None."""
    if out is None:
        return np.empty(shape, dtype=np.complex128)
    if (
        out.shape != shape
        or out.dtype != np.complex128
        or not out.flags.c_contiguous
    ):
        raise ValueError(f"out must be a C-contiguous complex128 {shape} array")
    return out
