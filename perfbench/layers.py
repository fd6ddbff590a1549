"""Per-layer metrics of the traced run.

Host times are span self times (see ``spans.py``): the time inside a
layer's public functions minus the time inside nested traced calls, so
the layers and the unattributed remainder add up to the traced wall.
Counts and modelled-component rates come from the simulated counters
and the sweep report; they are exact and repeat run to run.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Mapping, Optional

from spans import reconcile
from workloads import Workload

#: Span name -> the per-layer metric its self time is charged to (None:
#: no layer; the benchmark's set-up loop and run_simulation itself).
SPAN_LAYERS: Mapping[str, Optional[str]] = {
    "setup": None,
    "run_simulation": None,
    "workloads.gen": "workloads.gen_s",
    "emulator.setup_oracle": "emulator.emu_s",
    "emulator.get_oracle": "emulator.lookup_s",
    "warming.warm_from_snapshot": "warming.s",
    "warming.warm_group_snapshots": "warming.s",
    "core.run": "core.run_s",
    "core.run_until": "core.run_s",
    "sampling.measure_unit": "sampling.windows_s",
    "sampling.feed_caches": "sampling.gap_s",
    "cosim.run_cosim": "cosim.run_s",
    "runner.cache_store": "runner.cache_store_s",
    "runner.run_sweep": "runner.overhead_s",
}

#: Cycle phases the profiler splits ``core.run_s`` into (traced
#: ``detail-long`` only; they are a breakdown, not extra layers).
PHASES = ("fetch", "rename", "execute", "commit")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _summed(jobs: Mapping[str, Mapping[str, float]]) -> Dict[str, float]:
    total: Dict[str, float] = {}
    for counters in jobs.values():
        for name, value in counters.items():
            total[name] = total.get(name, 0.0) + value
    return total


def exact_counts(workload: Workload, sample: Mapping,
                 full_ipc: Optional[float]) -> Dict[str, float]:
    """Counts and modelled-component rates of one sample (exact).

    ``core.cycles``/``core.committed`` are what the cycle loop actually
    simulated: for a sampled run, the detailed windows and their
    warm-up prefixes, not the extrapolated totals.  *full_ipc* is the
    full-detail IPC of the sampled workload's stream, the reference of
    ``sampling.ipc_err_pct``.
    """
    c = _summed(sample.get("jobs", {}))
    sweep = sample.get("sweep_stats", {})
    prep = sample.get("prep", {})
    sampled = workload.kind == "sampled"
    if sampled:
        cycles = (c.get("sampling.measured_cycles", 0.0)
                  + c.get("sampling.warmup_cycles_discarded", 0.0))
        committed = (c.get("sampling.measured_insts", 0.0)
                     + c.get("sampling.warmup_insts", 0.0))
    else:
        cycles = c.get("sim.cycles", 0.0)
        committed = c.get("sim.committed", 0.0)
    ipc = _ratio(c.get("sim.committed", 0.0), c.get("sim.cycles", 0.0))
    lookups = c.get("rename.liveout_lookups", 0.0)
    wrong = (c.get("rename.liveout_mispredicts", 0.0)
             + c.get("rename.liveout_cold", 0.0))
    return {
        # A sweep report also counts the trains of pool workers.
        "prep.snapshot_trains": sweep.get(
            "prep.snapshot_trains", prep.get("prep.snapshot_trains", 0.0)),
        "prep.snapshot_hits": prep.get("prep.snapshot_hits", 0.0),
        "core.cycles": cycles,
        "core.committed": committed,
        "model.ipc": ipc,
        "frontend.slot_util": _ratio(c.get("fetch.insts", 0.0),
                                     c.get("fetch.slots", 0.0)),
        "frontend.fragment_reuse": _ratio(c.get("fragbuf.reuses", 0.0),
                                          c.get("fragbuf.allocations", 0.0)),
        "frontend.tc_hit_rate": _ratio(
            c.get("tc.hits", 0.0),
            c.get("tc.hits", 0.0) + c.get("tc.misses", 0.0)),
        "rename.liveout_accuracy": (max(0.0, 1.0 - wrong / lookups)
                                    if lookups else 0.0),
        "memory.l1i_miss_rate": _ratio(
            c.get("l1i.misses", 0.0),
            c.get("l1i.hits", 0.0) + c.get("l1i.misses", 0.0)),
        "sampling.units_measured": c.get("sampling.units_measured", 0.0),
        "sampling.ipc_halfwidth_rel": c.get("sampling.ipc_halfwidth_rel",
                                            0.0),
        "sampling.ipc_err_pct": (100.0 * abs(ipc - full_ipc) / full_ipc
                                 if sampled and full_ipc else 0.0),
        "cosim.groups": sweep.get("sweep.cosim_groups", 0.0),
        "cosim.shared_decode": sweep.get("sweep.cosim_shared_decode", 0.0),
        "runner.utilization": sweep.get("sweep.utilization", 0.0),
        "runner.executed": sweep.get("sweep.executed", 0.0),
        "runner.retries": sweep.get("sweep.retries", 0.0),
        "runner.failures": sweep.get("sweep.failures", 0.0),
    }


def host_times(sample: Mapping) -> Dict[str, float]:
    """Per-layer host seconds of one traced sample, reconciled against
    its traced wall, plus the derived rates."""
    wall = sample["wall_s"]
    by_layer, unattributed = reconcile(sample["spans"], wall, SPAN_LAYERS)
    times = {metric: by_layer.get(metric, 0.0)
             for metric in SPAN_LAYERS.values() if metric}
    times["trace.unattributed_pct"] = 100.0 * unattributed / wall
    c = _summed(sample.get("jobs", {}))
    for phase in PHASES:
        times[f"core.{phase}_s"] = c.get(f"obs.profile.{phase}.seconds", 0.0)
    # Set-up's emulation only: both the instructions and the seconds.
    times["emulator.kips"] = _ratio(sample["emulated"],
                                    times["emulator.emu_s"]) / 1e3
    # The pool's cost beyond its workers' job time, shared out over
    # them; nearly 0 for an inline sweep and 0 without a sweep.
    sweep = sample.get("sweep_stats", {})
    times["runner.pool_overhead_s"] = (
        sweep["sweep.wall_seconds"]
        - sweep["sweep.exec_seconds"] / sweep["sweep.workers"]
        if sweep else 0.0)
    return times


def _median_by_wall(samples: List[Mapping]) -> Mapping:
    """The sample with the median traced wall (the lower of the two
    middle ones for an even count)."""
    ordered = sorted(samples, key=lambda s: s["wall_s"])
    return ordered[(len(ordered) - 1) // 2]


def per_layer(workload: Workload, plain: List[Mapping],
              traced: List[Mapping],
              full_ipc: Optional[float]) -> Dict[str, float]:
    """The per-layer metrics of a traced run.

    Host times all come from one traced sample, the one with the median
    wall, so they add up to that sample's wall.  ``trace.overhead_pct``
    compares that wall with the median wall of the interleaved untraced
    samples.  Counts are exact.  In the pool workload the layers below
    ``run_sweep`` run in the workers, whose spans are not collected, so
    they are charged to ``runner.overhead_s`` there.
    """
    chosen = _median_by_wall(traced)
    metrics = host_times(chosen)
    metrics.update(exact_counts(workload, chosen, full_ipc))
    metrics["core.host_us_per_cycle"] = 1e6 * _ratio(metrics["core.run_s"],
                                                     metrics["core.cycles"])
    plain_wall = statistics.median(s["wall_s"] for s in plain)
    metrics["trace.overhead_pct"] = 100.0 * (chosen["wall_s"] / plain_wall
                                             - 1.0)
    return metrics
