"""A fixed reference loop that measures the machine's speed of the moment.

On a shared box the speed of one core drifts by 20-30 % over tens of
seconds, and a whole run can fall in a slow stretch. The benchmark runs
``reference_loop`` between passes, in the same process, and reports the
CPU time of a pass in multiples of the loop's CPU time (unit ``ref``): a
slow stretch slows both, so their ratio holds still while a change to the
program moves it.

The loop runs no falcon code. It mixes the two kinds of work the workloads
do: interpreted Python with small NumPy operations (the encoder and the
heads) and writes into a dense 1,200 x 1,200 array (one adjacency of the
``network`` workload's null samples), which also feels contention for
memory bandwidth.
"""

from __future__ import annotations

import time

import numpy as np

_ROWS = np.random.default_rng(0).integers(0, 1200, size=(2, 4000))


def _interpreted() -> float:
    a = np.arange(64.0).reshape(8, 8) / 64
    total, seen = 0.0, {}
    for i in range(200_000):
        total += (i * 7 % 13) * 0.5
        seen[i % 97] = total
        if i % 20 == 0:
            a = (a @ a) / (1.0 + float(a.sum()))
    return total


def _dense() -> float:
    total = 0.0
    for _ in range(12):
        m = np.zeros((1200, 1200))
        m[_ROWS[0], _ROWS[1]] = 1.0
        total += float(m.sum()) + float((m @ m[:, :8]).sum())
    return total


def reference_loop() -> tuple[float, float]:
    """(wall, CPU) seconds the fixed reference work takes now (about 0.2 s
    on a 2-vCPU box)."""
    start, cpu = time.perf_counter(), time.process_time()
    _interpreted()
    _dense()
    return time.perf_counter() - start, time.process_time() - cpu
