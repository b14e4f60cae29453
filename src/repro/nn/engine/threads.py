"""Who owns the cores: BLAS's thread pools or the engine's fan-out threads.

Two Python threads calling a multi-threaded OpenBLAS serialise and spin
(256x256 GEMM x4000 on the 2-core bench host: 0.69 s serial, 0.80 s from
two threads), and numpy and scipy each bundle an OpenBLAS with a pool of
its own.  So a deployment decides once: every in-process OpenBLAS pool is
pinned to one thread (:func:`pin_blas_threads`) and the cores go to the
engine, which runs the per-image plans of a hires batch on
:func:`fan_out_width` threads.  ``threadpoolctl`` is not a dependency;
the pools are found in ``/proc/self/maps`` and driven through ``ctypes``.
"""

from __future__ import annotations

import ctypes
import functools
import os
from typing import Callable, List, Optional, Tuple

__all__ = ["pin_blas_threads", "blas_threads", "fan_out_width"]

#: (setter, getter) symbol pairs, the wheels' prefixed names first.
_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)

_Pool = Tuple[Callable[[int], None], Callable[[], int]]


@functools.lru_cache(maxsize=None)
def _openblas_pools() -> Optional[Tuple[_Pool, ...]]:
    """``(set, get)`` for every OpenBLAS mapped into this process —
    ``None`` when there is none or one of them exports no known symbol
    (then nothing can promise a single-threaded BLAS).  Resolved once:
    numpy's and scipy's are both loaded by the time the engine imports."""
    try:
        with open("/proc/self/maps") as maps:
            mapped = [line.split(None, 5) for line in maps]
    except OSError:
        return None
    paths = {fields[5].strip() for fields in mapped if len(fields) == 6}
    pools: List[_Pool] = []
    for path in sorted(p for p in paths if "openblas" in os.path.basename(p).lower()):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            return None
        for setter, getter in _SYMBOLS:
            if hasattr(lib, setter) and hasattr(lib, getter):
                set_threads, get_threads = getattr(lib, setter), getattr(lib, getter)
                set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
                get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                pools.append((set_threads, get_threads))
                break
        else:
            return None
    return tuple(pools) or None


def pin_blas_threads() -> bool:
    """Pin every in-process OpenBLAS pool to one thread; ``False`` when
    the pools could not be resolved (nothing was changed)."""
    pools = _openblas_pools()
    if pools is None:
        return False
    for set_threads, get_threads in pools:
        # Only where it changes something: in a freshly forked process the
        # setter first restarts the pool's threads, which then spin on a
        # core for ~0.1 s (a cluster forks its workers already pinned).
        if get_threads() != 1:
            set_threads(1)
    return True


def blas_threads() -> Optional[int]:
    """The widest in-process OpenBLAS pool right now (``None``: unknown)."""
    pools = _openblas_pools()
    if pools is None:
        return None
    return max(get_threads() for _, get_threads in pools)


def fan_out_width(replicas: int = 1) -> int:
    """Threads a deployment's per-image plans fan out over: the cores
    this process may run on, shared among the ``replicas`` on the host —
    and 1 unless BLAS is known to be single-threaded, because engine
    threads on top of a threaded BLAS measure slower than no fan-out."""
    if blas_threads() != 1:
        return 1
    return max(1, len(os.sched_getaffinity(0)) // max(1, int(replicas)))
