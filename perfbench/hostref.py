"""The fixed reference kernel every benchmark timing is normalised by.

The kernel is a fixed amount of the kind of work the evaluated program does:
dict and tuple churn, float arithmetic in Python, JSON encoding and small
NumPy calls.  Timed next to a workload, it tracks how fast this host runs
that mix right now, so a timing divided by it no longer carries the drift of
a shared, frequency-scaled virtual machine.

This module deliberately imports nothing from ``repro``: a change to the
program must never change the yardstick it is measured with.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from typing import List

import numpy as np

#: What one kernel run is defined to take on the reference host, in ms.  A
#: timing normalised by it reads as "milliseconds on a host where the kernel
#: takes exactly this long"; the value is close to the kernel's time on a
#: 2-vCPU x86-64 cloud VM, so normalised figures stay near raw ones.
NOMINAL_MS = 8.0


def _kernel() -> float:
    table = {}
    total = 0.0
    for i in range(6000):
        key = (i % 61, i % 7)
        value = math.sqrt(i + 1.0) * 1.0001
        table[key] = table.get(key, 0.0) + value
        total += value / (1.0 + (i % 5))
    rows = [{"i": i, "v": table[(i % 61, i % 7)], "k": "row"} for i in range(700)]
    total += len(json.dumps(rows))
    x = np.linspace(0.1, 1.0, 48)
    for step in range(300):
        y = np.exp(-x * (1.0 + step % 3)) * 0.5 + x
        total += float(y.sum())
    return total


def reference_ms() -> float:
    """Run the kernel once and return its wall time in milliseconds."""
    started = time.perf_counter()
    _kernel()
    return (time.perf_counter() - started) * 1000.0


class RefTracker:
    """Runs the kernel on demand and keeps every raw time for reporting."""

    def __init__(self) -> None:
        self.samples: List[float] = []

    def sample(self) -> float:
        """Run the kernel once; its time in ms."""
        ms = reference_ms()
        self.samples.append(ms)
        return ms

    def median_ms(self) -> float:
        """Median of every kernel run so far (the run's ``host.ref_ms``)."""
        return statistics.median(self.samples)
