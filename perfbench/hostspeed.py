"""Host-speed meter: how fast the CPU ran while a sample did its work.

The host's CPUs are shared with other tenants.  Their speed moves by up
to ~1.5x, in episodes of seconds and in phases of minutes, and CPU time
moves with wall time, so it is no steadier.  A sample therefore times a
short fixed kernel (a *tick*) every :data:`INTERVAL_S` seconds of its
set-up and of its timed call, from a timer signal, in its own process
and so on the CPU its work is running on.  Each phase's time is
reported without the ticks' time, with the mean tick time as the host's
speed during it.  The runner scales the time by ``REFERENCE_S / mean
tick`` (see :func:`scale`): the time the same work would take on a host
where a tick takes :data:`REFERENCE_S`.

The kernel is self-contained (no simulator code), so a change to the
simulator never changes it; only the phase's own work moves the scaled
time.  It reads and updates small slotted objects found through a dict,
the kind of work the simulator's cycle loop is made of.

When the timed call runs in a worker pool, the workers tick instead of
the sample process (see :func:`ticking_children`).
"""

from __future__ import annotations

import contextlib
import os
import shutil
import signal
import statistics
import time
from typing import Dict, Iterator, List, Optional

#: Kernel iterations per tick (about 1 ms on the reference host).
ITERATIONS = 6_000
#: Seconds between ticks (so the ticks take ~4% of a phase).
INTERVAL_S = 0.025
#: Tick time of the reference host, rounded: a 2-vCPU Xeon KVM guest
#: running CPython 3.11 ticks in about 1 ms at its faster speed level.
REFERENCE_S = 0.001


class _Node:
    __slots__ = ("key", "weight")

    def __init__(self, key: int, weight: int):
        self.key = key
        self.weight = weight


#: The kernel's data, built once: it allocates no objects the garbage
#: collector tracks, so a tick never sets off a collection of the
#: simulator's objects, and its time does not depend on them.
_TABLE = {key: _Node(key, key & 7) for key in range(1024)}


def _kernel(n: int) -> int:
    table = _TABLE
    acc = 0
    for i in range(n):
        node = table[(i * 7) & 1023]
        acc = (acc + node.key * node.weight + i) & 0xFFFF
        node.weight = acc & 7
    return acc


def tick() -> float:
    """Seconds one run of the kernel takes."""
    start = time.perf_counter()
    _kernel(ITERATIONS)
    return time.perf_counter() - start


class Meter:
    """Ticks from ``SIGALRM`` while running, and splits the elapsed time
    into laps: each lap's wall time without its ticks, and the mean tick
    time during it."""

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self._ticks: List[float] = []
        self._lap_start = 0.0
        self._lap_ticks = 0
        self._previous = None

    def _on_alarm(self, _signum, _frame) -> None:
        self._ticks.append(tick())

    def start(self) -> None:
        """Begin ticking; the first lap begins now."""
        for _ in range(5):  # let the interpreter specialise the kernel
            tick()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        self._lap_start = time.perf_counter()
        self._lap_ticks = len(self._ticks)

    def stop(self) -> None:
        """Stop ticking (an unfinished lap is dropped)."""
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def lap(self) -> Dict[str, float]:
        """End the current lap and begin the next: ``seconds`` (the
        lap's wall time without its ticks), ``tick_s`` (their mean; one
        tick is timed now if the lap had none) and ``ticks``."""
        now = time.perf_counter()
        ticks = self._ticks[self._lap_ticks:]
        seconds = now - self._lap_start - sum(ticks)
        tick_s = statistics.fmean(ticks) if ticks else tick()
        self._lap_start = time.perf_counter()
        self._lap_ticks = len(self._ticks)
        return {"seconds": seconds, "tick_s": tick_s, "ticks": len(ticks)}


#: While set, every forked process ticks and appends its tick times to
#: a file named after its pid in this directory (see ticking_children).
_CHILD_TICKS_DIR: Optional[str] = None


def _tick_in_child() -> None:
    if _CHILD_TICKS_DIR is None:
        return
    log = open(os.path.join(_CHILD_TICKS_DIR, str(os.getpid())), "a",
               buffering=1)

    def on_alarm(_signum, _frame) -> None:
        log.write(f"{tick()!r}\n")

    signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)


os.register_at_fork(after_in_child=_tick_in_child)


@contextlib.contextmanager
def ticking_children(directory: str, workers: int
                     ) -> Iterator[Dict[str, float]]:
    """Time a block whose work runs in forked worker processes.

    Every process forked inside the block ticks, so the ticks time the
    CPUs the workers run on; this process does not tick meanwhile.  The
    dict yielded is filled in on exit like a :meth:`Meter.lap`, except
    that ``seconds`` is the block's wall time less the workers' tick
    time shared out over *workers*.  *directory* (created and removed
    here) holds the workers' tick logs.
    """
    global _CHILD_TICKS_DIR
    os.makedirs(directory)
    lap: Dict[str, float] = {}
    _CHILD_TICKS_DIR = directory
    start = time.perf_counter()
    try:
        yield lap
    finally:
        wall = time.perf_counter() - start
        _CHILD_TICKS_DIR = None
        ticks: List[float] = []
        for name in os.listdir(directory):
            with open(os.path.join(directory, name)) as log:
                # A worker killed mid-write leaves a partial last line.
                ticks.extend(float(line) for line in log
                             if line.endswith("\n"))
        shutil.rmtree(directory, ignore_errors=True)
        lap.update(seconds=wall - sum(ticks) / workers,
                   tick_s=statistics.fmean(ticks) if ticks else tick(),
                   ticks=len(ticks))


def scale(seconds: float, tick_s: float) -> float:
    """*seconds* measured while a tick took *tick_s*, as seconds on the
    reference host."""
    return seconds * REFERENCE_S / tick_s
