"""One benchmark sample: set up a workload, then make its one timed call.

Run as a fresh process by ``run.py``::

    PYTHONPATH=src python3 perfbench/sample.py --workload detail-long \\
        --seed 0 --trace 0 --cache-dir <empty dir> --out sample.json

Set-up is everything before the timed call: ``import repro``, program
generation, and oracle emulation of every stream the workload uses
(through ``repro.sampling.prep.get_oracle``).  The timed call is one
``run_sweep`` or ``run_simulation``.  The host-speed meter
(``hostspeed.py``) starts before the simulator import and times both.
The sample writes its timings, the host speed during them, peak memory
and every job's counters to ``--out`` as JSON.  With ``--trace 1`` it
also records spans around the calls into each layer (see ``spans.py``)
and the detail run attaches the phase profiler.
"""

import hostspeed

METER = hostspeed.Meter()
METER.start()  # importing the simulator is part of set-up

import argparse  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from typing import Optional  # noqa: E402

from repro import SamplingConfig, run_simulation  # noqa: E402
from repro.config import ObservabilityConfig  # noqa: E402
from repro.core import warming  # noqa: E402
from repro.core.processor import Processor  # noqa: E402
from repro.experiments import runner  # noqa: E402
from repro.obs import Observability  # noqa: E402
from repro.perf import cosim  # noqa: E402
from repro.sampling import engine, prep  # noqa: E402
from repro.workloads import suite  # noqa: E402
from repro.workloads.generator import generate_program  # noqa: E402

from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, Workload, program_seed  # noqa: E402

#: (owner, attribute, span name) of every public function traced by
#: rebinding during the timed call.  ``engine`` imports
#: ``warm_from_snapshot`` by name, so it is rebound there too.  Set-up
#: records its own spans (``workloads.gen``, ``emulator.setup_oracle``),
#: so that ``get_oracle`` calls made inside the timed call, which find
#: their stream cached, are told apart from set-up's emulation.
PATCHES = (
    (prep, "get_oracle", "emulator.get_oracle"),
    (prep, "warm_from_snapshot", "warming.warm_from_snapshot"),
    (engine, "warm_from_snapshot", "warming.warm_from_snapshot"),
    (prep, "warm_group_snapshots", "warming.warm_group_snapshots"),
    (Processor, "run", "core.run"),
    (Processor, "run_until", "core.run_until"),
    (engine, "measure_unit", "sampling.measure_unit"),
    (warming.WarmingState, "feed_caches", "sampling.feed_caches"),
    (cosim, "run_cosim", "cosim.run_cosim"),
    (runner.ResultCache, "store", "runner.cache_store"),
)


def _make_program(name: str, seed: int) -> None:
    """Generate benchmark *name*'s program for the run's workload seed.

    The default seed keeps the suite's pinned spec; any other seed
    regenerates the program from that spec with only ``seed`` replaced
    and installs it under the benchmark's name for every later call.
    The on-disk stream cache keys streams by the pinned spec, so each
    sample gets its own empty cache directory and never shares it.
    """
    spec = suite.get_spec(name)
    new_seed = program_seed(spec.seed, seed)
    if new_seed is None:
        suite.get_benchmark(name)
    else:
        program = generate_program(dataclasses.replace(spec, seed=new_seed))
        suite.seed_program(name, program)


def _job(workload: Workload, config: str, benchmark: str) -> runner.SweepJob:
    sampling = (SamplingConfig().as_tuple() if workload.kind == "sampled"
                else None)
    return runner.SweepJob(config, benchmark, workload.length,
                           sampling=sampling)


def _timed_call(workload: Workload, cache_dir: str, profile: bool):
    """The workload's one timed call; returns (sample fields, results).
    With *profile*, a full-detail run attaches the phase profiler."""
    if workload.kind == "sweep":
        jobs = [_job(workload, c, b)
                for b in workload.benchmarks for c in workload.configs]
        report = runner.run_sweep(jobs, workers=workload.workers,
                                  cache=runner.ResultCache(cache_dir))
        fields = {
            "failures": {job.describe(): failure.describe()
                         for job, failure in report.failures.items()},
            "sweep_stats": report.stats.as_dict(),
        }
        return fields, {job.describe(): result
                        for job, result in report.results.items()}
    (config,), (benchmark,) = workload.configs, workload.benchmarks
    sampled = workload.kind == "sampled"
    observability = None
    if profile and not sampled:
        observability = Observability(ObservabilityConfig(profile=True))
    result = run_simulation(
        config, benchmark, max_instructions=workload.length,
        sampling=SamplingConfig() if sampled else False,
        observability=observability, checkpoint_every=False, live=False)
    return {"failures": {}}, {
        _job(workload, config, benchmark).describe(): result}


def run_sample(workload: Workload, seed: int, cache_dir: str, trace: bool,
               meter: hostspeed.Meter) -> dict:
    """Set up and run one sample; returns the JSON-ready report.

    *meter* was started when set-up began, before the simulator was
    imported; its laps time set-up and the call (see ``hostspeed.py``),
    and it is stopped on return.  In a pool workload the workers tick
    during the call instead (``hostspeed.ticking_children``).
    """
    tracer: Optional[Tracer] = Tracer() if trace else None
    # Untraced, a span is a null context (its name is ignored).
    span = tracer.span if tracer is not None else contextlib.nullcontext
    t_setup = time.perf_counter()
    emulated = 0
    with span("setup"):
        for name in workload.benchmarks:
            with span("workloads.gen"):
                _make_program(name, seed)
            with span("emulator.setup_oracle"):
                emulated += len(prep.get_oracle(name,
                                                workload.length)[1].stream)
    t_setup_end = time.perf_counter()
    setup = meter.lap()
    prep_before = prep.PREP_STATS.as_dict()
    if tracer is not None:
        for owner, attr, name in PATCHES:
            tracer.patch(owner, attr, name)
    if workload.workers > 1:
        meter.stop()
        timing = hostspeed.ticking_children(cache_dir + "-ticks",
                                            workload.workers)
    else:
        meter.lap()  # the bookkeeping above is in neither phase
        timing = contextlib.nullcontext()

    t_call = time.perf_counter()
    with timing as call, span("runner.run_sweep" if workload.kind == "sweep"
                              else "run_simulation"):
        try:
            fields, results = _timed_call(workload, cache_dir,
                                          profile=tracer is not None)
            error = None
        except Exception as exc:  # reported as failed jobs, not a crash
            fields, results = {"failures": {}}, {}
            error = f"{type(exc).__name__}: {exc}"
    t_end = time.perf_counter()
    if call is None:
        call = meter.lap()
        meter.stop()
    if tracer is not None:
        tracer.unpatch()

    prep_after = prep.PREP_STATS.as_dict()
    usage = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    report = {
        "setup": setup,
        "call": call,
        # The wall the traced run reconciles: set-up after the import
        # and the call, ticks included, without the bookkeeping between.
        "wall_s": (t_setup_end - t_setup) + (t_end - t_call),
        "instructions": sum(r.committed for r in results.values()),
        "emulated": emulated,
        "peak_rss_mb": usage / 1024.0,
        "error": error,
        "jobs": {job: r.counters for job, r in results.items()},
        "prep": {k: prep_after.get(k, 0.0) - prep_before.get(k, 0.0)
                 for k in prep_after},
        **fields,
    }
    if tracer is not None:
        report["spans"] = tracer.spans
    return report


def full_detail_ipc(workload: Workload, seed: int) -> float:
    """IPC of the sampled workload's stream and config in full detail:
    the reference its sampled estimate is compared against."""
    (config,), (benchmark,) = workload.configs, workload.benchmarks
    _make_program(benchmark, seed)
    return run_simulation(config, benchmark,
                          max_instructions=workload.length, sampling=False,
                          checkpoint_every=False, live=False).ipc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--full-detail-ipc", action="store_true",
                        help="instead of a sample, write the full-detail "
                             "IPC of the sampled workload's stream")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.full_detail_ipc:
        METER.stop()
        report = {"ipc": full_detail_ipc(workload, args.seed)}
    else:
        report = run_sample(workload, args.seed, args.cache_dir,
                            bool(args.trace), METER)
    with open(args.out, "w") as handle:
        json.dump(report, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
