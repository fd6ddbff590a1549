"""Workloads of the simulator benchmark (no simulator import here).

The runner (``run.py``) reads these definitions without importing the
simulator; the sample process (``sample.py``) turns them into calls on
the simulator's public API.  Why each workload exists is recorded in
``BENCHMARK.json`` and in ``README.md`` beside this file.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

#: The seed that reproduces the suite's pinned workload specs.  Only
#: results at this seed are compared with the committed reference.
DEFAULT_SEED = 0

#: The paper's seven front-end configurations (Figs 4-10).
PAPER_CONFIGS: Tuple[str, ...] = (
    "w16", "tc", "tc2x", "pf-2x8w", "pf-4x4w", "pr-2x8w", "pr-4x4w")

#: The 12-benchmark SPECint2000 stand-in suite, in report order.
SUITE: Tuple[str, ...] = (
    "bzip2", "crafty", "eon", "gap", "gcc", "gzip", "mcf", "parser",
    "perl", "twolf", "vortex", "vpr")

#: Dynamic instructions per sweep job: short, so that the per-group and
#: per-job fixed costs (warm-snapshot training, co-simulation set-up,
#: result-cache writes) carry most of the sweep's weight.
SWEEP_LENGTH = 1_000
#: Worker processes of the pool sweep (the sweep default on a 2-CPU host).
POOL_WORKERS = 2
#: Dynamic instructions of the long full-detail run.
DETAIL_LENGTH = 25_000
#: The sampled run's stream is 16x the full-detail one, so emulation and
#: whole-stream warming dominate it.
SAMPLED_LENGTH = 16 * DETAIL_LENGTH


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a single timed call on the public API.

    ``kind`` selects the call: ``sweep`` is one ``run_sweep`` over
    every (benchmark, config) pair on ``workers`` processes (1: inline),
    ``detail`` one full-detail and ``sampled`` one sampled
    ``run_simulation`` of the single (benchmark, config).
    """

    name: str
    kind: str
    benchmarks: Tuple[str, ...]
    configs: Tuple[str, ...]
    length: int
    workers: int = 1


WORKLOADS = {
    w.name: w for w in (
        Workload("paper-sweep-cold", "sweep", SUITE, PAPER_CONFIGS,
                 SWEEP_LENGTH),
        Workload("paper-sweep-pool", "sweep", SUITE, PAPER_CONFIGS,
                 SWEEP_LENGTH, workers=POOL_WORKERS),
        Workload("detail-long", "detail", ("gcc",), ("pr-2x8w",),
                 DETAIL_LENGTH),
        Workload("sampled-long", "sampled", ("vortex",), ("tc",),
                 SAMPLED_LENGTH),
    )
}


def program_seed(spec_seed: int, seed: int) -> Optional[int]:
    """Generator seed for a benchmark under the run's workload *seed*.

    ``None`` at :data:`DEFAULT_SEED` (keep the pinned spec); otherwise a
    seed distinct per benchmark and per run seed, so each run seed
    regenerates every program from the same spec with only its seed
    replaced.
    """
    if seed == DEFAULT_SEED:
        return None
    return spec_seed + 1000 * seed
