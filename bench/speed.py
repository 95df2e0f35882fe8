"""Machine-speed reference for the benchmark's end-to-end timings.

On a shared machine the same Python work can run 40 to 80% slower for
minutes at a time, when other tenants load the host.  The benchmark times a
fixed piece of pure-Python work, :func:`reference_seconds`, right before and
right after every timed sample, and reports each sample scaled to a nominal
machine speed:

    normalized = measured * NOMINAL_REFERENCE_S / mean(reference before, after)

The reference work is owned by the benchmark and never changes with the
package under test, so a change that makes the package faster or slower
moves the normalized figures exactly as it moves the measured ones.  The
work resembles the package's own: recursive partition generation, tuple
building, transposes, small frozen objects, dict counting and string
formatting.  This module imports nothing from the package.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

#: Partitions of this size make one reference pass (1,575 partitions).
REFERENCE_SIZE = 24
#: Nominal duration of one reference pass.  A pass took 16 to 30 ms on a
#: 2-vCPU Intel Xeon KVM guest with Python 3.11.7, depending on host load.
#: Normalized times are the times on a machine where a pass takes this long.
NOMINAL_REFERENCE_S = 0.020


@dataclass(frozen=True)
class _Cell:
    rows: int
    first: int


def _partitions(n: int, top: int):
    if n == 0:
        yield ()
        return
    for first in range(min(n, top), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def _transpose(p: tuple) -> tuple:
    return tuple(sum(1 for x in p if x > j) for j in range(p[0])) if p else ()


def reference_work() -> int:
    counts: dict = {}
    for p in _partitions(REFERENCE_SIZE, REFERENCE_SIZE):
        t = _transpose(p)
        cell = _Cell(len(p), t[0])
        key = (cell.rows, cell.first, len(",".join(map(str, t))))
        counts[key] = counts.get(key, 0) + 1
    return len(sorted(counts.items()))


def reference_seconds() -> float:
    """Wall time of one reference pass in this process."""
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start


def scale(before: float, after: float) -> float:
    """Factor that turns a time measured between two reference passes into nominal time."""
    return NOMINAL_REFERENCE_S / ((before + after) / 2)
