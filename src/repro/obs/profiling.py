"""Self-profiling: attribute simulator wall-clock to pipeline phases.

The :class:`PhaseProfiler` answers "where does a simulation's host time
go?" — execute, commit, rename, fetch, misprediction recovery — so perf
work on the simulator itself can be targeted and verified.  The design
constraint is *zero* cost when disabled: only when a profiler is
attached does the processor's run loop time each of the phase methods
its step runs (see ``Processor._loop``), so the default path contains
no timing calls at all.

The explicit ``start()``/``stop()`` API (rather than a context manager)
keeps the per-phase overhead to two ``perf_counter`` calls and one dict
update; a ``with`` block would add generator/``__exit__`` dispatch to a
path that runs five times per simulated cycle.
"""

from __future__ import annotations

import time
from typing import Dict, List

from repro.stats import StatsCollector, format_table

#: Pipeline phases in report order; the first four name the phase
#: methods ``Processor.step`` runs, in the order it runs them.
PHASES = ("execute", "commit", "rename", "fetch", "observe")


class PhaseProfiler:
    """Accumulates wall-clock seconds and call counts per phase."""

    __slots__ = ("seconds", "calls", "start")

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        #: Alias so call sites read ``t0 = profiler.start()``.
        self.start = time.perf_counter

    def stop(self, phase: str, t0: float) -> None:
        """Charge the time since *t0* to *phase*."""
        elapsed = time.perf_counter() - t0
        self.seconds[phase] = self.seconds.get(phase, 0.0) + elapsed
        self.calls[phase] = self.calls.get(phase, 0) + 1

    @property
    def total_seconds(self) -> float:
        """Wall-clock seconds across all phases."""
        return sum(self.seconds.values())

    # -- reporting ---------------------------------------------------------

    def to_counters(self, stats: StatsCollector) -> None:
        """Export per-phase seconds/calls into *stats* counters."""
        for phase, seconds in self.seconds.items():
            stats.set(f"obs.profile.{phase}.seconds", seconds)
            stats.set(f"obs.profile.{phase}.calls", self.calls[phase])
        stats.set("obs.profile.total_seconds", self.total_seconds)

    def report(self) -> str:
        """Per-phase wall-clock breakdown as a fixed-width table."""
        total = self.total_seconds
        rows: List[List[object]] = []
        ordered = [p for p in PHASES if p in self.seconds]
        ordered += sorted(set(self.seconds) - set(PHASES))
        for phase in ordered:
            seconds = self.seconds[phase]
            calls = self.calls[phase]
            rows.append([
                phase, seconds, (100.0 * seconds / total) if total else 0.0,
                calls, (1e6 * seconds / calls) if calls else 0.0,
            ])
        rows.append(["total", total, 100.0 if total else 0.0,
                     max(self.calls.values(), default=0), 0.0])
        return format_table(
            ["phase", "seconds", "%", "calls", "us/call"], rows,
            float_fmt="{:.3f}")

    def as_dict(self) -> Dict[str, Dict[str, float]]:
        """JSON-ready {phase: {seconds, calls}} mapping."""
        return {phase: {"seconds": self.seconds[phase],
                        "calls": self.calls[phase]}
                for phase in self.seconds}
