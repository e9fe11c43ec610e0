"""Two lanes of work for the kernels that run in row chunks or tiles.

run(fn, blocks) deals a range of block starts to two lanes, block c to
lane c % 2, calls fn(k, lane k's blocks) for each lane that gets one, and
returns the lanes' results in lane order. Lane 0 runs on the caller and
lane 1 on a thread started for that call; the thread is joined and its
error re-raised, so no thread outlives a call. A lane owns whatever it
allocates and returns its own result (a sum, say), and the caller adds
the results in lane order, so the arithmetic depends only on the blocks a
lane is given, not on whether the lanes ran at once, on the BLAS thread
count or on the cores. A batch of fewer than two blocks runs on the caller
alone, unpinned, and starts no thread. deal(blocks) gives the split ahead
of a call, for callers that size per-lane buffers once and reuse them.

While any caller is inside, every OpenBLAS loaded in the process runs one
thread, so the lanes share the cores instead of each spreading its products
over all of them. The pin is counted under a lock: the last caller to leave
restores the thread counts the first one found. Where no OpenBLAS thread
setter is found (another BLAS, or no /proc/self/maps to find it by), the
lanes run one after the other on the caller.

The lanes pay on a 2-core machine because about 40% of a DSM epoch and of a
Gram product is single-threaded ufunc work (Swish, sigmoid, the clamp and
exp of a Gram block), which a second BLAS thread does not speed up.
"""

from __future__ import annotations

import ctypes
import functools
import threading
from contextlib import contextmanager
from typing import Callable, Iterator, TypeVar

# Lanes a batch is dealt to: block c goes to lane c % LANES.
LANES = 2

T = TypeVar("T")

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
def pinned() -> Iterator[bool]:
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
    with pinned() as concurrent:
        if not concurrent:
            return [fn(k, own) for k, own in enumerate(dealt)]
        results: list = [None] * len(dealt)
        errors: list[BaseException] = []

        def second() -> None:
            try:
                results[1] = fn(1, dealt[1])
            except BaseException as exc:  # re-raised on the caller below
                errors.append(exc)

        thread = threading.Thread(target=second, name="knewimp-lane-1")
        thread.start()
        try:
            results[0] = fn(0, dealt[0])
        finally:
            thread.join()
        if errors:
            raise errors[0]
        return results
