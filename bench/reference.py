"""Fixed reference kernels that measure how fast the host runs right now.

The benchmark is meant for small shared hosts, whose speed drifts by tens of
percent for minutes at a time as other tenants come and go.  A slow phase
moves every time a run measures, and runs a few minutes apart then differ by
more than any regression worth catching.

So a run also times a reference kernel, in worker processes of its own that
import nothing from ``toeplitz_lab`` and start after every set-up and pass
worker.  ``bench/run.py`` multiplies every end-to-end time of the run by
``REFERENCE_S[kernel] / speed``, where ``speed`` is the median of all the
run's kernel times.  A scaled time therefore reads in seconds on a host that
runs the kernel in ``REFERENCE_S[kernel]``.  A change to the program moves it
exactly as it moves the raw time, since the kernel does not change, while a
slow phase that spans the run slows the kernel too and cancels out.  Noise
faster than a run is left to the medians over passes.  The run's record
keeps the raw figures and every kernel time.

Each workload names the kernel that does the kind of work it spends its time
on (``workloads.REFERENCE_KERNEL``), because a slow phase does not slow every
kind of work alike:

* ``interpreter``: tuples, dicts, sets and frozensets in pure Python, like
  the point queries, censuses and searches of ``acceptance`` and ``search``;
* ``stream``: whole-array numpy arithmetic over 16 MB, memory-bound like the
  level arrays of ``deep-strata``.
"""

from __future__ import annotations

import statistics


def interpreter() -> int:
    # Its dict of 120,000 sets outgrows the CPU caches, as the workloads'
    # tables do: a small kernel missed the slow phases that hit memory.
    groups: dict = {}
    acc = 0
    for i in range(120_000):
        key = (i % 977, i // 977, i & 7)
        members = groups.get(key)
        if members is None:
            groups[key] = members = set()
        members.add(i * 2654435761 % 1_000_003)
        acc ^= hash(frozenset((i, i + 1, i * 3)))
    return len(groups) + acc


def stream() -> int:
    import numpy as np

    a = np.arange(2_000_000, dtype=np.int64)
    for _ in range(4):
        a = (a * 3 + 1) % 1_000_003
    return int(a[::97].sum())


KERNELS = {"interpreter": interpreter, "stream": stream}

# Each kernel's median time on the host the benchmark was tuned on (2 vCPUs,
# Intel Xeon, Python 3.11, numpy 2.4).  Only units: changing one rescales
# every scaled time of its workloads by the same factor.
REFERENCE_S = {"interpreter": 0.22, "stream": 0.06}
REPEATS = 2        # timed calls per reference worker, after one untimed call


def sample(name: str, clock) -> list[float]:
    """Time ``REPEATS`` calls of a kernel, after one untimed call that pays
    for the first call's imports and page faults."""
    kernel = KERNELS[name]
    kernel()
    times = []
    for _ in range(REPEATS):
        start = clock()
        kernel()
        times.append(clock() - start)
    return times


def scale(name: str, samples: list[float]) -> float:
    """The factor that turns a run's raw times into reference seconds."""
    return REFERENCE_S[name] / statistics.median(samples)
