"""Two lanes of work for the kernels that run in row chunks or tiles.

run(fn, n_lanes) calls fn(0) on the caller and fn(1) on a thread started
for that call, joins the thread and re-raises its error, so no thread
outlives a call. While any caller is inside, every OpenBLAS loaded in the
process runs one thread, so the lanes share the cores instead of each
spreading its products over all of them. The pin is counted under a lock:
the last caller to leave restores the thread counts the first one found.
Where no OpenBLAS thread setter is found (another BLAS, or no
/proc/self/maps to find it by), the lanes run one after the other on the
caller. A lane's arithmetic depends only on the chunks it is given, so
results do not depend on whether the lanes ran at once.
"""

from __future__ import annotations

import ctypes
import functools
import threading
from contextlib import contextmanager
from typing import Callable, Iterator

# Lanes a batch is dealt to: chunk or tile c goes to lane c % LANES.
LANES = 2

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


def run(fn: Callable[[int], None], n_lanes: int) -> None:
    """fn(0) alone when n_lanes < 2; otherwise fn(0) and fn(1) under the
    pin, at once where OpenBLAS was found and one after the other where not."""
    if n_lanes < 2:
        fn(0)
        return
    with pinned() as concurrent:
        if not concurrent:
            fn(0)
            fn(1)
            return
        errors: list[BaseException] = []

        def second() -> None:
            try:
                fn(1)
            except BaseException as exc:  # re-raised on the caller below
                errors.append(exc)

        thread = threading.Thread(target=second, name="knewimp-lane-1")
        thread.start()
        try:
            fn(0)
        finally:
            thread.join()
        if errors:
            raise errors[0]
