"""Shared plumbing for the benchmark: the speed-normalized clock,
percentiles, seeded draws, the environment block and process memory.

Why a normalized clock: on a shared 2-core host the same compile loop
runs anywhere from 0.55x to 1.0x of its usual speed, and the process's
CPU time moves with its wall time, so the slowdown is the host's speed,
not scheduling.  The benchmark therefore interleaves a fixed pure-Python
reference loop (``_reference_work``, which touches no ``repro`` code)
with the work it measures, and reports CPU-bound times scaled by
``(REFERENCE_MS / measured reference-loop time) ** SPEED_EXPONENT``
taken next to each interval.  A change to the program moves the
normalized times exactly as it moves the raw ones; a change in host
speed moves both the interval and the reference loop, and cancels (the
work follows the loop's slowdown to the power ``SPEED_EXPONENT``).  Raw times are kept
in the run record next to every normalized one.
"""

from __future__ import annotations

import bisect
import gc
import hashlib
import os
import platform
import random
import statistics
import subprocess
import time
from typing import Dict, Iterable, List, Optional, Sequence

#: the reference loop's duration, in ms, that defines one normalized ms:
#: a normalized time reads as the raw time on a host that runs
#: ``_reference_work`` in exactly this long (2-core Xeon VM, Python 3.11)
REFERENCE_MS = 1.5

#: the measured work's time moves with the reference loop's to this
#: power: the tight loop is more sensitive to a busy shared host than the
#: allocation-heavy compiler and VM.  Fitted on a 2-core VM whose
#: reference loop swung 2x between runs, over five seeds of each
#: workload, with each interval scaled by the samples that bracket it:
#: the worst quartile spread of a cold or warm median was 0.084 of the
#: median at 0.8 (0.093 at 0.6, 0.074 at 1.0 but 0.055 against 0.037 on
#: ``serve``).  A one-second window of samples instead of the bracketing
#: pair gave 0.104: the host's speed changes within a second
SPEED_EXPONENT = 0.8


def _reference_work() -> int:
    """A fixed mix of dict, int, list and str work, as the compiler does."""
    table: Dict[int, int] = {}
    acc = 0
    items: List[int] = []
    for i in range(3000):
        key = (i * 2654435761) & 0x3FF
        table[key] = table.get(key, 0) + i
        acc ^= (key << 3) | (i >> 2)
        items.append(acc & 0xFF)
        if i % 16 == 0:
            acc += len(str(items[-1]))
    return acc + len(table) + sum(items[-8:])


class SpeedClock:
    """A monotonic clock that excludes its own calibration time.

    ``calibrate()`` runs the reference loop once and records how long it
    took; intervals read from :meth:`now` never include that time.
    ``factor_for(start, end)`` is the normalization factor for an
    interval, from the last sample taken before it and the first after
    it; ``factor()`` is the one for everything measured so far.
    """

    def __init__(self) -> None:
        self._paused = 0.0
        self._times: List[float] = []     # clock time of each sample
        self._samples: List[float] = []   # reference-loop ms

    def now(self) -> float:
        return time.perf_counter() - self._paused

    def calibrate(self, repeat: int = 1) -> None:
        for _ in range(repeat):
            at = self.now()
            # a collection of the program's heap would land in the sample
            gc.disable()
            start = time.perf_counter()
            _reference_work()
            elapsed = time.perf_counter() - start
            gc.enable()
            self._paused += elapsed
            self._times.append(at)
            self._samples.append(elapsed * 1000.0)

    @property
    def samples(self) -> int:
        return len(self._samples)

    def trace(self) -> List[List[float]]:
        """Every sample as [clock time s, reference-loop ms]."""
        return [[at, ms] for at, ms in zip(self._times, self._samples)]

    @property
    def paused_s(self) -> float:
        """Total time spent calibrating so far."""
        return self._paused

    def factor(self) -> float:
        """The factor from the median of every sample so far."""
        if not self._samples:
            raise RuntimeError("no reference-loop samples taken")
        return _factor(statistics.median(self._samples))

    def factor_for(self, start: float, end: float) -> float:
        """The factor for the interval [start, end] of clock time."""
        before = bisect.bisect_right(self._times, start) - 1
        after = bisect.bisect_left(self._times, end)
        near = [self._samples[i] for i in (before, after)
                if 0 <= i < len(self._samples)]
        if not near:
            raise RuntimeError("no reference-loop samples taken")
        return _factor(statistics.mean(near))


def _factor(reference_ms: float) -> float:
    return (REFERENCE_MS / reference_ms) ** SPEED_EXPONENT


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile (q in [0, 1])."""
    if not values:
        raise ValueError("quantile of no values")
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_ok(count: int, q: float) -> bool:
    """At least ten samples lie beyond the q-quantile."""
    return count * (1.0 - q) >= 10


def rng_for(seed: int, purpose: str) -> random.Random:
    """A seeded stream per purpose; string seeds hash with SHA-512, so the
    draw does not depend on ``PYTHONHASHSEED``."""
    return random.Random(f"perfbench:{seed}:{purpose}")


def derived_seed(seed: int, purpose: str) -> int:
    return rng_for(seed, purpose).getrandbits(31)


def vm_hwm_mib(pid: Optional[int] = None) -> float:
    """Peak resident set (VmHWM) of *pid* (default: this process)."""
    path = f"/proc/{pid if pid is not None else 'self'}/status"
    with open(path) as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in {path}")


def process_age_s() -> float:
    """Seconds since this process started (kernel start time, 10 ms)."""
    with open("/proc/self/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    start_ticks = int(fields[19])
    ticks = os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / ticks


def source_digest(root: str = "src") -> str:
    """SHA-256 over the program's source tree (the checkout the
    benchmark runs in need not be a git repository)."""
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if not name.endswith(".py"):
                continue
            path = os.path.join(dirpath, name)
            digest.update(path.encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()[:16]


def git_sha() -> Optional[str]:
    """The checkout's commit, or None outside a git work tree (git would
    otherwise report an enclosing repository)."""
    if not os.path.exists(".git"):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def environment(seed: int) -> dict:
    import inspect

    from repro.vm import Machine

    engine = inspect.signature(Machine.__init__).parameters["engine"].default
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "source_digest": source_digest(),
        "seed": seed,
        "default_engine": engine,
        "reference_ms": REFERENCE_MS,
    }


def interleave(groups: Iterable[Sequence], rng: random.Random) -> list:
    """Round-robin over groups (each already in seeded order), so every
    prefix of the result mixes all groups in proportion."""
    queues = [list(g) for g in groups]
    out = []
    while any(queues):
        round_items = [q.pop(0) for q in queues if q]
        rng.shuffle(round_items)
        out.extend(round_items)
    return out

