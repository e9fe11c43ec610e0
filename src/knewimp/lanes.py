"""Every thread knewimp starts, and the BLAS pin they run under.

run(fn, blocks) deals a range of block starts to two lanes, block c to
lane c % 2, calls fn(k, lane k's blocks) for each lane that gets one, and
returns the lanes' results in lane order. Lane 0 runs on the caller and
lane 1 on a one-thread executor made for that call; the executor is shut
down and lane 1's error re-raised before the call returns, so no thread
outlives a call. A lane owns whatever it allocates and returns its own
result (a sum, say), and the caller adds the results in lane order, so the
arithmetic depends only on the blocks a lane is given, not on whether the
lanes ran at once, on the BLAS thread count or on the cores. A batch of
fewer than two blocks runs on the caller alone, unpinned, and starts no
thread. deal(blocks) gives the split ahead of a call, for callers that
size per-lane buffers once and reuse them.

each(fn, items) returns [fn(item) for item in items], the items run at
once on a pool no wider than the CPUs the process may run on (experiment's
seeds, one item each). The pool is shut down before the call returns, and
the first failing item's error is re-raised.

While any caller of run or each is inside, every OpenBLAS loaded in the
process runs one thread, so the threads share the cores instead of each
spreading its products over all of them. The pin is counted under a lock:
the last caller to leave restores the thread counts the first one found.
Where no OpenBLAS thread setter is found (another BLAS, or no
/proc/self/maps to find it by), run's lanes run one after the other on the
caller.

The lanes pay on a 2-core machine because about 40% of a DSM epoch and of a
Gram product is single-threaded ufunc work (Swish, sigmoid, the clamp and
exp of a Gram block), which a second BLAS thread does not speed up.
"""

from __future__ import annotations

import ctypes
import functools
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from typing import Callable, Iterator, Sequence, TypeVar

# Lanes a batch is dealt to: block c goes to lane c % LANES.
LANES = 2

T = TypeVar("T")
U = TypeVar("U")

# Thread-count (get, set) symbols: numpy's and scipy's builds, plain ones.
_SYMBOLS = [
    (f"{name}_get_num_threads{suffix}", f"{name}_set_num_threads{suffix}")
    for name in ("scipy_openblas", "openblas")
    for suffix in ("64_", "")
]

# The BLAS thread count is process-wide, so the pin is too.
_lock = threading.Lock()
_inside = 0
_restore: list = []


@functools.cache
def _openblas() -> tuple:
    """(get, set) thread-count functions of every OpenBLAS mapped into the
    process when first called."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        return ()
    found = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _SYMBOLS:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                get, set_ = getattr(lib, get_name), getattr(lib, set_name)
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                found.append((get, set_))
                break
    return tuple(found)


@contextmanager
def _pinned() -> Iterator[bool]:
    """Every loaded OpenBLAS at one thread inside; yields whether any was found."""
    global _inside, _restore
    with _lock:
        if _inside == 0:
            _restore = [(set_, get()) for get, set_ in _openblas()]
            for set_, _ in _restore:
                set_(1)
        _inside += 1
        found = bool(_restore)
    try:
        yield found
    finally:
        with _lock:
            _inside -= 1
            if _inside == 0:
                for set_, count in _restore:
                    set_(count)


def deal(blocks: range) -> list[range]:
    """The blocks of each lane that gets one, in lane order: lane k gets
    blocks[k::LANES]."""
    return [blocks[k::LANES] for k in range(min(LANES, len(blocks)))]


def run(fn: Callable[[int, range], T], blocks: range) -> list[T]:
    """[fn(0, blocks)] alone on the caller when there are fewer than two
    blocks; otherwise fn(k, deal(blocks)[k]) for each lane under the pin, at
    once where OpenBLAS was found and one after the other where not. Returns
    the lanes' results in lane order."""
    dealt = deal(blocks)
    if len(dealt) < 2:
        return [fn(0, blocks)]
    with _pinned() as concurrent:
        if not concurrent:
            return [fn(k, own) for k, own in enumerate(dealt)]
        with ThreadPoolExecutor(max_workers=1, thread_name_prefix="knewimp-lane") as pool:
            second = pool.submit(fn, 1, dealt[1])
            return [fn(0, dealt[0]), second.result()]


def each(fn: Callable[[U], T], items: Sequence[U]) -> list[T]:
    """[fn(item) for item in items], the items run at once on
    min(len(items), usable CPUs) threads under the pin. The error of the
    first item in item order that fails propagates once the running items
    have finished; items not started by then never run."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    with _pinned(), ThreadPoolExecutor(max_workers=min(len(items), cpus) or 1) as pool:
        return list(pool.map(fn, items))
