"""Host speed, sampled while a pass runs.

The reference host is a shared virtual machine whose CPUs slow down by
up to 2x, in spells of a fraction of a second to several minutes, when
other tenants load the same cores.  Raw time therefore moves with the
host as much as with the program.  A Sampler runs a fixed reference
kernel every INTERVAL_S seconds of wall time, from a SIGALRM handler in
the pass's own interpreter, so each sample measures the CPU the pass is
running on at that moment.  Each sample runs the kernel twice and keeps
the second time: the first run's time follows the cache state the pass
left behind, not the host.  Dividing the pass's wall time by the mean
sample gives the pass's length in reference-kernel units (``wall_ref``),
which follows the program and not the host.

A kernel has to slow down the way the workload does, so there are two:

- ``python``: shift-add-mask on a 64 KiB integer (residue_product's
  packed series) and a loop over small objects, tuples and frozensets
  (the pure-Python layers).  For every workload but search-empty.
- ``numpy``: the broadcast compare-and-count of the search prefilter on
  a (4, 16, 4096) block.  For search-empty, which runs nothing else.

A kernel must never change: its time is the unit of ``wall_ref``.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.05

_BITS = 1 << 19
_MASK = (1 << _BITS) - 1
_START = _MASK // 7

_NUM = np.arange(4 * 4096, dtype=np.int64).reshape(4, 4096) % 29
_DEN = np.arange(16 * 4096, dtype=np.int64).reshape(16, 4096) % 31


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b


def python_kernel() -> float:
    """Run the big-integer and small-object kernel; return its seconds."""
    started = time.perf_counter()
    x = _START
    for sh in (40, 120, 360, 1080):
        x = (x + (x << sh)) & _MASK
    low = x & 0xFFFF
    sets = []
    for i in range(60):
        p = _Pair(i, (i, i + 1))
        sets.append(frozenset(sorted((p.b[1], p.a, low >> (i & 15) & 7))))
    distinct = len(set(sets))
    elapsed = time.perf_counter() - started
    if distinct < 0:  # keeps the work from being skipped; never true
        raise AssertionError
    return elapsed


def numpy_kernel() -> float:
    """Run the prefilter-like numpy kernel; return its seconds."""
    started = time.perf_counter()
    counts = (_NUM[:, None, :] == _DEN[None, :, :]).sum(axis=1)
    hits = int((counts >= 1).all(axis=0).sum())
    elapsed = time.perf_counter() - started
    if hits < 0:  # keeps the work from being skipped; never true
        raise AssertionError
    return elapsed


KERNELS = {"python": python_kernel, "numpy": numpy_kernel}


class Sampler:
    """Context manager: samples a kernel every INTERVAL_S while active."""

    def __init__(self, kernel: str):
        self.kernel = KERNELS[kernel]
        self.samples: list[float] = []
        self._previous = None

    def _tick(self, signum, frame) -> None:
        self.kernel()
        self.samples.append(self.kernel())

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mean_s(self) -> float:
        """Mean kernel time; one extra sample if the pass was too short."""
        if not self.samples:
            self._tick(None, None)
        return statistics.fmean(self.samples)
