"""Measurement primitives shared by every workload.

Latency percentiles follow one rule: a percentile is reported only when
at least ten samples lie beyond it.  The tail is the highest such
percentile, so it moves with the sample count instead of pretending a
p99 exists in a run of fifty requests.  A refused or failed request is
a sample of ``+inf``: it always lands in the tail.

CPU and memory are read from outside the measured program: ``getrusage``
for this process and ``/proc/<pid>`` for live worker processes (a live
child's CPU is not in ``RUSAGE_CHILDREN`` until it is reaped).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import statistics
import time
from typing import Sequence

#: Samples that must lie beyond any reported percentile.
BEYOND = 10

_CLK_TCK = os.sysconf("SC_CLK_TCK")


class TooFewSamples(ValueError):
    """A percentile was requested with fewer than ten samples beyond it."""


def tail(samples: Sequence[float]) -> tuple[float, float]:
    """``(value, percentile)`` of the highest percentile with at least
    ten samples beyond it.

    With ``n`` sorted samples that is the ``(n - 10)``-th smallest, at
    percentile ``100 * (n - 10) / n``.
    """
    n = len(samples)
    if n < BEYOND + 1:
        raise TooFewSamples(
            f"a tail needs at least {BEYOND + 1} samples, got {n}"
        )
    ordered = sorted(samples)
    return ordered[n - BEYOND - 1], 100.0 * (n - BEYOND) / n


def p50(samples: Sequence[float]) -> float:
    """The median, reported only with at least ten samples beyond it."""
    n = len(samples)
    if n < 2 * BEYOND + 1:
        raise TooFewSamples(
            f"a median needs at least {2 * BEYOND + 1} samples, got {n}"
        )
    return statistics.median(samples)


def latency_ms(due: float, done: float | None) -> float:
    """Latency of one request from its due time; ``+inf`` if it never
    completed (refused, failed or never processed)."""
    if done is None:
        return math.inf
    return (done - due) * 1e3


# -- CPU and memory ------------------------------------------------------


def self_peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def child_pids(parent: int | None = None) -> list[int]:
    """Live direct children of ``parent`` (default: this process)."""
    parent = os.getpid() if parent is None else parent
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == parent:
            pids.append(int(entry))
    return sorted(pids)


def proc_cpu_s(pid: int) -> float:
    """CPU of a live process: nanosecond run time from
    ``/proc/<pid>/schedstat``, else clock ticks from ``/proc/<pid>/stat``."""
    try:
        with open(f"/proc/{pid}/schedstat") as handle:
            return int(handle.read().split()[0]) / 1e9
    except (OSError, IndexError, ValueError):
        pass
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    # Fields after the command: state is [0], utime [11], stime [12].
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of a live process."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


class CpuMeter:
    """CPU of this process plus a fixed set of live workers over a
    window: ``start()``, run the work, ``stop()`` returns seconds."""

    def __init__(self, workers: Sequence[int] = ()) -> None:
        self.workers = list(workers)
        self._start = 0.0

    def _read(self) -> float:
        return time.process_time() + sum(
            proc_cpu_s(pid) for pid in self.workers
        )

    def start(self) -> None:
        self._start = self._read()

    def stop(self) -> float:
        return self._read() - self._start


def peak_rss_mb(workers: Sequence[int] = ()) -> float:
    """Maximum peak RSS over this process and its live workers."""
    return max(
        [self_peak_rss_mb()] + [proc_peak_rss_mb(pid) for pid in workers]
    )


# -- host block and noise diagnostics -------------------------------------


def host_block() -> dict:
    """What ran the benchmark: cores, CPU model, Python and numpy."""
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy_version,
    }


def steal_ticks() -> int:
    """Host-wide CPU steal ticks so far (``/proc/stat``, all CPUs)."""
    with open("/proc/stat") as handle:
        fields = handle.readline().split()
    # cpu user nice system idle iowait irq softirq steal ...
    return int(fields[8]) if len(fields) > 8 else 0


def reference_loop_s(iterations: int = 300_000) -> float:
    """Wall time of a fixed pure-Python loop (a host-speed probe)."""
    started = time.perf_counter()
    total = 0
    for i in range(iterations):
        total += i * i % 7
    elapsed = time.perf_counter() - started
    if total < 0:  # pragma: no cover - keeps the loop from being dead
        raise AssertionError
    return elapsed


class NoiseProbe:
    """Steal ticks across the run plus the reference loop before/after.

    Diagnostics only: they identify a run taken during a neighbour's
    burst, and are never reported as metrics.
    """

    def __init__(self) -> None:
        self.ref_before_s = reference_loop_s()
        self._steal0 = steal_ticks()
        self._t0 = time.perf_counter()

    def finish(self) -> dict:
        wall = time.perf_counter() - self._t0
        steal = steal_ticks() - self._steal0
        return {
            "steal_ticks": steal,
            "steal_frac": steal / (_CLK_TCK * wall * (os.cpu_count() or 1)),
            "ref_loop_before_s": self.ref_before_s,
            "ref_loop_after_s": reference_loop_s(),
        }


# -- work digest ----------------------------------------------------------


def work_digest(work: object) -> str:
    """SHA-256 of the canonical JSON of a run's simulated results.

    Floats are written with ``repr`` precision, so two runs that did the
    same work give the same digest and any change to a simulated total
    changes it.
    """
    blob = json.dumps(work, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()

