"""Regenerate the committed reference of the correctness gate.

Run from the repository root, on the commit whose results are the
reference::

    python3 perfbench/make_reference.py

Writes ``reference/counters.json`` (every job's simulated counters, per
workload, at the default seed) and ``reference/full_detail_ipc.json``
(the full-detail IPC of ``sampled-long``'s stream and config, the
reference of its sampling error).  Each workload is run once, in a fresh
process, exactly as a benchmark sample runs it.
"""

from __future__ import annotations

import json
import platform
import subprocess
import sys
import time
from pathlib import Path

from gate import REFERENCE_PATH, simulated
from run import FULL_IPC_PATH, run_child, work_dir
from workloads import DEFAULT_SEED, WORKLOADS


def _commit(root: Path) -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(root),
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main() -> int:
    root = Path.cwd()
    source = (f"perfbench/make_reference.py at commit {_commit(root)}, "
              f"Python {platform.python_version()}")
    jobs = {}
    workloads = {}
    deadline = time.perf_counter() + 900.0
    with work_dir(root) as work:
        for index, workload in enumerate(WORKLOADS.values()):
            sample = run_child(root, work, index,
                               ["--workload", workload.name,
                                "--seed", str(DEFAULT_SEED)], deadline)
            if sample["error"] or sample["failures"]:
                raise SystemExit(f"{workload.name} failed: "
                                 f"{sample['error'] or sample['failures']}")
            workloads[workload.name] = sorted(sample["jobs"])
            for job, counters in sample["jobs"].items():
                jobs[job] = simulated(counters)
        sampled = WORKLOADS["sampled-long"]
        ipc = run_child(root, work, len(WORKLOADS),
                        ["--workload", sampled.name,
                         "--seed", str(DEFAULT_SEED),
                         "--full-detail-ipc"], deadline)["ipc"]

    REFERENCE_PATH.parent.mkdir(exist_ok=True)
    with open(REFERENCE_PATH, "w") as handle:
        json.dump({"seed": DEFAULT_SEED, "source": source,
                   "workloads": workloads, "jobs": jobs},
                  handle, indent=0, sort_keys=True)
        handle.write("\n")
    with open(FULL_IPC_PATH, "w") as handle:
        json.dump({
            "seed": DEFAULT_SEED,
            "workload": sampled.name,
            "job": workloads[sampled.name][0],
            "ipc": ipc,
            "how": ("run_simulation(config, benchmark, max_instructions="
                    "length, sampling=False) on the same stream and config "
                    "as the sampled run, warm=True; " + source),
        }, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {REFERENCE_PATH} ({len(jobs)} jobs) and {FULL_IPC_PATH} "
          f"(ipc {ipc!r})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
