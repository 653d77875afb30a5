"""Fixed reference work, timed beside the program to calibrate clocks.

On a shared virtual machine other tenants' load changes single-core speed,
by up to 2x and for minutes at a time, so a wall time says as much about
the neighbours as about the program.  The benchmark therefore times a piece
of reference work next to everything it measures, and reports times scaled
to the reference's nominal speed:

    calibrated seconds = wall seconds x nominal / (reference time, measured alongside)

The reference work runs no mdmart code, so no change to the program can
move it.  There are two, one for each kind of time measured:

* ``reference_kernel`` for the workload's operations, timed in the worker
  between operations.  It mixes what the workloads spend their time on:
  the bytecode compiler, an interpreted loop, numpy elementwise ops, random
  draws, a sort and a cumulative sum.
* ``REFERENCE_SPAWN`` for set-up, timed by run.py before and after each
  set-up spawn: a fresh interpreter that imports numpy and scipy.stats, the
  libraries mdmart is built on, and nothing of mdmart.

The nominal times REF_S and REF_SPAWN_S are round figures near the
references' times on a 2-vCPU Intel Xeon (Sapphire Rapids) VM with Python
3.11, so calibrated seconds read close to wall seconds on that machine.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

REF_S = 0.004
REF_SPAWN_S = 1.0
REFERENCE_SPAWN = "import numpy, scipy.stats; print('ready {}', flush=True)"

_SOURCE = "\n".join(f"def f{i}(a, b):\n    return [a + b * k for k in range({i % 7 + 1})]"
                    for i in range(12))


def reference_kernel() -> float:
    """Run the kernel once; its wall time in seconds."""
    t0 = time.perf_counter()
    exec(compile(_SOURCE, "<reference>", "exec"), {})
    total, table = 0.0, {}
    for i in range(1500):
        total += i * 0.5
        table[str(i % 97)] = total
    rng = np.random.Generator(np.random.PCG64(12345))
    a = rng.random(8192)
    for _ in range(6):
        a = np.where(a < 0.5, a * 1.5, np.sqrt(a))
    b = rng.standard_normal(1 << 16)
    b.sort()
    np.cumsum(b * b)
    return time.perf_counter() - t0


def reference_time(reps: int = 3) -> float:
    """The kernel's median time over ``reps`` runs."""
    return statistics.median(reference_kernel() for _ in range(reps))
