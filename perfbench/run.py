"""Benchmark of the front-end simulator: one workload per invocation.

Run from the repository root::

    python3 perfbench/run.py --workload detail-long --seed 0 --seconds 25 --trace 0

Each sample is a fresh process (``sample.py``) that sets the workload up
and makes its one timed call on the simulator's public API.  Samples
repeat until ``--seconds`` are used (at least :data:`MIN_SAMPLES`); see
:func:`end_to_end` for how they are reduced to one value per metric.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced samples and reports the per-layer split instead:
self times of the spans recorded around each layer's public functions,
exact counts from the simulated results, and the tracing overhead.

Every job's simulated counters are checked: at the default seed against
the committed reference, at other seeds for agreement between samples.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Iterator, List, Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
from gate import job_failures, load_reference, simulated  # noqa: E402
from layers import exact_counts, per_layer  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, Workload  # noqa: E402

#: The end-to-end metrics, in the order ``BENCHMARK.json`` declares them.
METRICS = ("setup_s", "sim_kips", "peak_rss_mb")
#: Fewest samples a run takes, however long they are (pairs of an
#: untraced and a traced sample in a traced run).
MIN_SAMPLES = 3
MIN_PAIRS = 2
#: Most samples a run takes, however short they are.
MAX_SAMPLES = 25
#: No sample starts once it would likely end after this many seconds.
START_LIMIT_S = 120.0
#: A run's child processes are killed this many seconds after it began.
DEADLINE_S = 170.0
#: Scratch space of running samples, relative to the checkout root.
WORK_DIR = ".perfbench-work"
#: Full-detail IPC of ``sampled-long``'s stream at the default seed.
FULL_IPC_PATH = HERE / "reference" / "full_detail_ipc.json"


class SampleError(RuntimeError):
    """A sample process failed to produce a report."""


def _child_env(src: Path, cache_dir: Path) -> Dict[str, str]:
    """The caller's environment without simulator knobs, so that none
    of them changes what a sample runs, plus the source path."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(src)
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    return env


@contextlib.contextmanager
def work_dir(root: Path) -> Iterator[Path]:
    """A scratch directory inside the checkout, removed afterwards."""
    work = root / WORK_DIR / str(os.getpid())
    work.mkdir(parents=True)
    try:
        yield work
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run's directory is still there


def run_child(root: Path, work: Path, index: int, args: List[str],
               deadline: float) -> dict:
    """Run ``sample.py`` with *args* in a fresh cache directory, killing
    it at the ``time.perf_counter()`` *deadline*; returns its report."""
    cache_dir = work / f"cache-{index}"
    out = work / f"sample-{index}.json"
    cache_dir.mkdir()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "sample.py"), *args,
             "--cache-dir", str(cache_dir), "--out", str(out)],
            cwd=str(root), env=_child_env(root / "src", cache_dir),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired as exc:
        raise SampleError(f"sample timed out after {exc.timeout:g} s") \
            from None
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    if proc.returncode != 0:
        raise SampleError(f"sample exited with {proc.returncode}: "
                          + proc.stderr.strip()[-2000:])
    with open(out) as handle:
        report = json.load(handle)
    out.unlink()
    return report


def collect(root: Path, work: Path, workload: Workload, seed: int,
            seconds: float, traced: bool,
            start: float) -> Dict[str, List[dict]]:
    """Take samples for *seconds*; returns them by kind (``plain`` and,
    when *traced*, ``traced``; pairs alternate which kind goes first)."""
    kinds = ("plain", "traced") if traced else ("plain",)
    min_rounds = MIN_PAIRS if traced else MIN_SAMPLES
    samples: Dict[str, List[dict]] = {kind: [] for kind in kinds}
    durations: List[float] = []
    rounds = 0
    while rounds < MAX_SAMPLES:
        elapsed = time.perf_counter() - start
        expected = len(kinds) * statistics.median(durations) \
            if durations else 0.0
        if rounds >= min_rounds and elapsed + expected > seconds:
            break
        if elapsed + expected > START_LIMIT_S:
            break
        order = kinds if rounds % 2 == 0 else kinds[::-1]
        for kind in order:
            t = time.perf_counter()
            args = ["--workload", workload.name, "--seed", str(seed),
                    "--trace", "1" if kind == "traced" else "0"]
            index = sum(len(v) for v in samples.values())
            try:
                samples[kind].append(run_child(root, work, index, args,
                                                start + DEADLINE_S))
            except SampleError as exc:
                print(f"perfbench: {exc}", file=sys.stderr)
                samples[kind].append({"error": str(exc)})
            durations.append(time.perf_counter() - t)
        rounds += 1
    return samples


def check(workload: Workload, seed: int, samples: List[dict],
          reference: dict) -> Dict[str, object]:
    """Gate every sample's jobs; returns attempted/failed counts and the
    failure reasons."""
    expected = reference["workloads"][workload.name]
    if seed == DEFAULT_SEED:
        ref_jobs: Optional[dict] = {job: reference["jobs"][job]
                                    for job in expected}
    else:
        # Off the default seed the programs differ from the reference's;
        # samples are checked for agreement with the first good one.
        print(f"perfbench: seed {seed} is not the default seed "
              f"{DEFAULT_SEED}; reference comparison skipped, samples "
              "checked against each other", file=sys.stderr)
        ref_jobs = None
    failures: Dict[str, str] = {}
    for number, sample in enumerate(samples):
        found = job_failures(expected, sample, ref_jobs)
        if ref_jobs is None and not found:
            ref_jobs = {job: simulated(c) for job, c in sample["jobs"].items()}
        for job, reason in found.items():
            failures[f"sample {number}: {job}"] = reason
    return {"attempted": len(expected) * len(samples),
            "failed": len(failures), "failures": failures}


def _good(samples: List[dict]) -> List[dict]:
    good = [s for s in samples if not s.get("error")]
    return good or samples


def per_sample(samples: List[dict], scaled: bool = True
               ) -> Dict[str, List[float]]:
    """The end-to-end metrics of each sample that produced a report.

    Set-up and call times are without the host-speed meter's ticks.
    With *scaled* (the reported values) they are also scaled to the
    reference host speed by the host speed measured during them (see
    ``hostspeed.py``).
    """
    reported = [s for s in _good(samples) if "setup" in s]
    values: Dict[str, List[float]] = {name: [] for name in METRICS}
    for s in reported:
        setup_s, call_s = s["setup"]["seconds"], s["call"]["seconds"]
        if scaled:
            setup_s = hostspeed.scale(setup_s, s["setup"]["tick_s"])
            call_s = hostspeed.scale(call_s, s["call"]["tick_s"])
        values["setup_s"].append(setup_s)
        values["sim_kips"].append(s["instructions"] / call_s / 1e3)
        values["peak_rss_mb"].append(s["peak_rss_mb"])
    return values


def end_to_end(samples: List[dict]) -> Dict[str, float]:
    """The end-to-end metrics of a run: the median over its samples of
    each sample's speed-scaled value (see :func:`per_sample`).

    The median, unlike the fastest sample, does not move with the number
    of samples a run fits in its seconds, so a faster program is not
    also favoured by taking more draws.
    """
    values = per_sample(samples)
    return {name: statistics.median(v) if v else 0.0
            for name, v in values.items()}


def full_detail_ipc(root: Path, work: Path, workload: Workload,
                    seed: int, deadline: float) -> float:
    """The full-detail IPC of the sampled workload's stream: committed
    for the default seed, simulated here for any other."""
    if seed == DEFAULT_SEED:
        with open(FULL_IPC_PATH) as handle:
            return json.load(handle)["ipc"]
    args = ["--workload", workload.name, "--seed", str(seed),
            "--full-detail-ipc"]
    return run_child(root, work, 10_000, args, deadline)["ipc"]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator source under {root / 'src'}; run "
              "from the root of a repository checkout", file=sys.stderr)
        return 2
    with open(root / "BENCHMARK.json") as handle:
        declared = json.load(handle)["per_layer" if args.trace
                                     else "end_to_end"]
    workload = WORKLOADS[args.workload]
    reference = load_reference()

    start = time.perf_counter()
    with work_dir(root) as work:
        samples = collect(root, work, workload, args.seed, args.seconds,
                          bool(args.trace), start)
        full_ipc = None
        if workload.kind == "sampled" and (args.trace
                                           or args.seed == DEFAULT_SEED):
            full_ipc = full_detail_ipc(root, work, workload, args.seed,
                                       start + DEADLINE_S)

    everything = [s for kind in samples.values() for s in kind]
    gate = check(workload, args.seed, everything, reference)
    for where, reason in list(gate["failures"].items())[:20]:
        print(f"perfbench: FAILED {where}: {reason}", file=sys.stderr)

    plain = _good(samples["plain"])
    if args.trace:
        values = per_layer(workload, plain, _good(samples["traced"]),
                           full_ipc)
    else:
        values = end_to_end(plain)
    names = {m["name"] for m in declared}
    if set(values) != names:
        raise RuntimeError(f"metrics {sorted(set(values) ^ names)} are "
                           "computed or declared, but not both")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}

    print(f"{workload.name} seed={args.seed} samples="
          + ",".join(f"{k}:{len(v)}" for k, v in samples.items()))
    scaled = {} if args.trace else per_sample(plain)
    raw = {} if args.trace else per_sample(plain, scaled=False)
    for name, metric in metrics.items():
        print(f"  {name:28s} {metric['value']:14.6g} {metric['unit']}")
        for label, values in (("scaled", scaled), ("raw", raw)):
            if name in values:
                print(f"    {label:8s} " + " ".join(f"{v:.4g}"
                                                     for v in values[name]))
    if full_ipc and not args.trace:
        err = exact_counts(workload, plain[0], full_ipc)
        print(f"  {'ipc_err_pct':28s} {err['sampling.ipc_err_pct']:14.6g} % "
              "(sampled IPC against the committed full-detail IPC)")
    print(json.dumps({
        "correct": gate["failed"] == 0,
        "attempted": gate["attempted"],
        "failed": gate["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
