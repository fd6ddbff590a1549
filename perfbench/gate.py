"""Correctness gate: simulated counters against a committed reference.

Simulated statistics are deterministic, so they are checked exactly.  A
job fails when it raised, failed in the sweep report, hit its cycle
bound (``sim.timeout``), or changed any counter the reference holds.
Counters the reference does not hold are ignored, so a change that only
adds accounting passes.  Host-side ``obs.*`` summaries (profiler times)
are never part of a reference.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional

#: Reference counters of every job of every workload at the default seed.
REFERENCE_PATH = Path(__file__).resolve().parent / "reference" / "counters.json"

Counters = Mapping[str, float]


def simulated(counters: Counters) -> Dict[str, float]:
    """The deterministic part of a result's counters (no ``obs.*``)."""
    return {k: v for k, v in counters.items() if not k.startswith("obs.")}


def changed_counters(reference: Counters, counters: Counters) -> List[str]:
    """Reference counters that *counters* lacks or holds another value
    for; counters absent from the reference are ignored."""
    return sorted(name for name, value in reference.items()
                  if counters.get(name) != value)


def job_failures(expected: Iterable[str], sample: Mapping,
                 reference: Optional[Mapping[str, Counters]]
                 ) -> Dict[str, str]:
    """Why each failed job of one sample failed, keyed by job.

    *sample* is a sample process's report: ``error`` (the timed call
    raised), ``failures`` (jobs the sweep report failed) and ``jobs``
    (counters per job).  With a *reference*, each job's counters must
    also match it.
    """
    if sample.get("error"):
        return {job: sample["error"] for job in expected}
    failures: Dict[str, str] = {}
    jobs = sample.get("jobs", {})
    for job in expected:
        counters = jobs.get(job)
        if job in sample.get("failures", {}):
            failures[job] = sample["failures"][job]
        elif counters is None:
            failures[job] = "no result"
        elif counters.get("sim.timeout"):
            failures[job] = "timed out (sim.timeout)"
        elif reference is not None:
            changed = changed_counters(reference[job], counters)
            if changed:
                failures[job] = ("changed reference counters: "
                                 + ", ".join(changed[:8]))
    return failures


def load_reference() -> dict:
    """The committed reference: ``{"seed", "workloads": {name: [job]},
    "jobs": {job: counters}}``."""
    with open(REFERENCE_PATH) as handle:
        return json.load(handle)
