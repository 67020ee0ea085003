"""Sample bookkeeping: per-class percentiles, host normalisation, digests.

Everything here is plain arithmetic over numbers the workloads record, so
the harness tests can check it without running the program.
"""

from __future__ import annotations

import hashlib
import math
import os
import statistics
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence

from hostref import NOMINAL_MS

#: A percentile is reported only with at least this many samples above it;
#: fewer make the tail one or two slow outliers wide.
MIN_BEYOND = 10


class InsufficientSamples(ValueError):
    """A percentile was asked of too few samples to have a stable tail."""


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` sorted samples lie above the ``q`` nearest rank."""
    return count - max(1, math.ceil(q * count))


def percentile(samples: Sequence[float], q: float) -> float:
    """The nearest-rank ``q`` quantile (``0 < q < 1``) of ``samples``.

    Raises :class:`InsufficientSamples` unless at least :data:`MIN_BEYOND`
    samples lie above it, so p90 needs 100 samples and p50 needs 20.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile must be in (0, 1), got {q}")
    beyond = samples_beyond(len(samples), q)
    if beyond < MIN_BEYOND:
        raise InsufficientSamples(
            f"p{q * 100:g} of {len(samples)} samples has {beyond} beyond it; "
            f"need {MIN_BEYOND}"
        )
    ordered = sorted(samples)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def highest_reportable(count: int) -> float:
    """The highest of p99, p90, p75 and p50 that ``count`` samples support (0 if none)."""
    for q in (0.99, 0.9, 0.75, 0.5):
        if samples_beyond(count, q) >= MIN_BEYOND:
            return q
    return 0.0


def centered_refs(refs: Sequence[float], half: int = 2) -> List[float]:
    """The reference of each op, from kernel runs on both sides of it.

    ``refs`` holds one kernel time taken before each op plus one taken after
    the last, so op ``i`` sits between ``refs[i]`` and ``refs[i + 1]``.  Its
    reference is the median of ``refs[i - half + 1 : i + half + 1]``: the
    runs nearest to it on either side (fewer at the ends).  A median of
    several cannot be moved by one interrupted kernel run, and a window
    centred on the op follows a host that changes speed from either side.
    """
    ops = len(refs) - 1
    return [
        statistics.median(refs[max(0, i - half + 1): i + half + 1]) for i in range(ops)
    ]


def normalize(raw: float, ref_ms: float) -> float:
    """Scale a raw timing to the reference host: ``raw * NOMINAL_MS / ref_ms``."""
    if ref_ms <= 0.0:
        raise ValueError(f"reference time must be positive, got {ref_ms}")
    return raw * NOMINAL_MS / ref_ms


@dataclass
class OpClass:
    """The timed operations of one class (one kind of op, never mixed)."""

    raw_ms: List[float] = field(default_factory=list)
    norm_ms: List[float] = field(default_factory=list)
    units: int = 0

    def add(self, raw_ms: float, ref_ms: float, units: int) -> None:
        """Record one op of ``raw_ms``, normalised by the reference ``ref_ms``."""
        self.raw_ms.append(raw_ms)
        self.norm_ms.append(normalize(raw_ms, ref_ms))
        self.units += units


@dataclass
class Samples:
    """Per-class op samples of one timed window."""

    classes: Dict[str, OpClass] = field(default_factory=dict)

    def add(self, name: str, raw_ms: float, ref_ms: float, units: int) -> None:
        """Record one op of class ``name``."""
        self.classes.setdefault(name, OpClass()).add(raw_ms, ref_ms, units)

    def op(self, name: str) -> OpClass:
        """The samples of class ``name`` (empty if none were recorded)."""
        return self.classes.get(name, OpClass())

    def total_units(self) -> int:
        """Units completed across every class."""
        return sum(c.units for c in self.classes.values())


def rate(units: int, seconds: float) -> float:
    """Units per second (``seconds`` must be positive)."""
    if seconds <= 0.0:
        raise ValueError(f"elapsed time must be positive, got {seconds}")
    return units / seconds


def digest(parts: Iterable[str]) -> str:
    """A short SHA-256 over ``parts`` in order (order matters)."""
    hasher = hashlib.sha256()
    for part in parts:
        hasher.update(hashlib.sha256(part.encode("utf-8")).digest())
    return hasher.hexdigest()[:16]


def peak_rss_mb(pid: int = 0) -> float:
    """Peak resident set size (``VmHWM``) of a process, in MiB.

    ``pid`` 0 means this process.
    """
    path = f"/proc/{pid or os.getpid()}/status"
    with open(path, encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line in {path}")
