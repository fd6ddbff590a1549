#!/usr/bin/env python
"""Reproducible wall-clock benchmark of the simulator's cycle loop.

Runs the pinned workload matrix (W16, TC, PF+PR on gcc) defined in
:mod:`repro.perf`, times ``Processor.run`` only (generation, emulation
and warming excluded), and writes a ``BENCH_perf.json`` record::

    PYTHONPATH=src python benchmarks/bench_perf.py --output BENCH_perf.json

``--smoke`` shrinks the instruction count so the run finishes in seconds
(the CI benchmark job and the tier-1 smoke test use it).  ``--check``
compares against a committed baseline record, normalising by each
record's calibration score so machine speed cancels, and exits non-zero
on a >30% throughput regression::

    PYTHONPATH=src python benchmarks/bench_perf.py --smoke \\
        --check benchmarks/BENCH_perf_baseline.json

``--reference`` adds a section timing the reference loop
(``REPRO_FAST=0``) against the fast step in the same invocation;
``--fast-gate`` additionally fails the run unless every config clears
the noise-tolerant speedup floor (within-record ratio, so machine speed
cancels exactly)::

    PYTHONPATH=src python benchmarks/bench_perf.py --smoke --fast-gate

``--cosim`` adds a section timing one co-simulated stream pass of the
pinned paper-config matrix against N independent serial passes;
``--cosim-gate`` fails the run unless the within-record speedup clears
the floor::

    PYTHONPATH=src python benchmarks/bench_perf.py --smoke --cosim-gate

See docs/PERFORMANCE.md for how to read the record.
"""

from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro import perf  # noqa: E402  (path setup must come first)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark the simulator cycle loop on the pinned "
                    "workload matrix and record BENCH_perf.json.")
    parser.add_argument("--smoke", action="store_true",
                        help=f"short run ({perf.SMOKE_INSTRUCTIONS} "
                             "instructions) for CI and tests")
    parser.add_argument("-n", "--instructions", type=int, default=None,
                        help="dynamic instructions per run (default: "
                             f"{perf.PINNED_INSTRUCTIONS}, or "
                             f"{perf.SMOKE_INSTRUCTIONS} with --smoke)")
    parser.add_argument("--configs", nargs="+",
                        default=list(perf.PINNED_CONFIGS),
                        help="front-end configurations to run "
                             "(default: pinned matrix)")
    parser.add_argument("--benchmark", default=perf.PINNED_BENCHMARK,
                        help="suite benchmark (default: pinned)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timed repetitions per entry; fastest wins "
                             "(default: 3)")
    parser.add_argument("--no-sampled", action="store_true",
                        help="skip the interval-sampled vs full-detail "
                             "scenario")
    parser.add_argument("--sampled-instructions", type=int, default=None,
                        help="instructions for the sampled scenario "
                             f"(default: {perf.SAMPLED_INSTRUCTIONS}, or "
                             f"{perf.SMOKE_SAMPLED_INSTRUCTIONS} with "
                             "--smoke)")
    parser.add_argument("--no-phases", action="store_true",
                        help="skip the profiled run for phase breakdown")
    parser.add_argument("--reference", action="store_true",
                        help="pin the matrix to the fast step and add a "
                             "'reference' section re-running it at "
                             "REPRO_FAST=0, with per-entry "
                             "speedup_vs_reference")
    parser.add_argument("--fast-gate", action="store_true",
                        help="implies --reference; exit 1 unless every "
                             "fast entry beats the speedup floor vs the "
                             "reference loop within this same record")
    parser.add_argument("--fast-floor", type=float,
                        default=perf.FAST_GATE_SPEEDUP,
                        help="speedup floor for --fast-gate (default: "
                             f"{perf.FAST_GATE_SPEEDUP})")
    parser.add_argument("--cosim", action="store_true",
                        help="add a 'cosim' section timing one "
                             "co-simulated stream pass of the pinned "
                             f"{len(perf.COSIM_CONFIGS)}-config matrix "
                             "against N independent serial passes")
    parser.add_argument("--cosim-gate", action="store_true",
                        help="implies --cosim; exit 1 unless the co-sim "
                             "pass beats the speedup floor vs serial "
                             "within this same record")
    parser.add_argument("--cosim-floor", type=float,
                        default=perf.COSIM_GATE_SPEEDUP,
                        help="speedup floor for --cosim-gate (default: "
                             f"{perf.COSIM_GATE_SPEEDUP}; the design "
                             f"target is {perf.COSIM_TARGET_SPEEDUP})")
    parser.add_argument("--cosim-instructions", type=int, default=None,
                        help="instructions for the cosim scenario "
                             f"(default: {perf.SAMPLED_INSTRUCTIONS}, or "
                             f"{perf.SMOKE_SAMPLED_INSTRUCTIONS} with "
                             "--smoke)")
    parser.add_argument("--output", "-o", default="BENCH_perf.json",
                        help="record path (default: BENCH_perf.json)")
    parser.add_argument("--check", metavar="BASELINE",
                        help="compare against a baseline record; exit 1 "
                             "on a >threshold normalised regression")
    parser.add_argument("--threshold", type=float, default=0.30,
                        help="regression threshold for --check "
                             "(default: 0.30)")
    args = parser.parse_args(argv)

    instructions = args.instructions
    if instructions is None:
        instructions = (perf.SMOKE_INSTRUCTIONS if args.smoke
                        else perf.PINNED_INSTRUCTIONS)

    sampled_instructions = None
    if not args.no_sampled:
        sampled_instructions = args.sampled_instructions
        if sampled_instructions is None:
            sampled_instructions = (perf.SMOKE_SAMPLED_INSTRUCTIONS
                                    if args.smoke
                                    else perf.SAMPLED_INSTRUCTIONS)

    cosim_instructions = None
    if args.cosim or args.cosim_gate:
        cosim_instructions = args.cosim_instructions
        if cosim_instructions is None:
            cosim_instructions = (perf.SMOKE_SAMPLED_INSTRUCTIONS
                                  if args.smoke
                                  else perf.SAMPLED_INSTRUCTIONS)

    record = perf.run_matrix(configs=args.configs,
                             benchmark=args.benchmark,
                             instructions=instructions,
                             repeats=args.repeats,
                             phase_breakdown=not args.no_phases,
                             sampled_instructions=sampled_instructions,
                             reference=args.reference or args.fast_gate,
                             cosim_instructions=cosim_instructions)
    perf.write_record(record, args.output)

    header = (f"{'config':10s} {'cycles/s':>12s} {'uops/s':>12s} "
              f"{'wall s':>8s} {'dec$ hit':>9s}")
    print(header)
    for entry in record["entries"]:
        hit = entry["decode_cache_hit_rate"]
        print(f"{entry['config']:10s} "
              f"{entry['sim_cycles_per_sec']:12.1f} "
              f"{entry['uops_per_sec']:12.1f} "
              f"{entry['wall_seconds']:8.4f} "
              f"{'-' if hit is None else format(hit, '9.4f')}")
    if "reference" in record:
        print("\nreference loop (REPRO_FAST=0) vs fast step, same record:")
        print(f"{'config':10s} {'cycles/s':>12s} {'speedup':>8s}")
        for entry, ref in zip(record["entries"], record["reference"]):
            print(f"{ref['config']:10s} "
                  f"{ref['sim_cycles_per_sec']:12.1f} "
                  f"{entry['speedup_vs_reference']:7.2f}x")
    if "sampled" in record:
        print(f"\nsampled vs full detail "
              f"({record['sampled'][0]['instructions']} instructions):")
        print(f"{'config':10s} {'full s':>8s} {'sampled s':>10s} "
              f"{'speedup':>8s} {'IPC err':>8s} {'95% CI':>8s}")
        for entry in record["sampled"]:
            print(f"{entry['config']:10s} "
                  f"{entry['full_wall_seconds']:8.3f} "
                  f"{entry['wall_seconds']:10.3f} "
                  f"{entry['speedup']:7.2f}x "
                  f"{entry['ipc_rel_error'] * 100:7.2f}% "
                  f"{entry['ipc_ci_rel'] * 100:7.2f}%")
    if "cosim" in record:
        entry = record["cosim"][0]
        print(f"\nco-sim: one stream pass, {len(entry['configs'])} timing "
              f"models ({entry['instructions']} instructions):")
        print(f"  serial {entry['serial_wall_seconds']:.3f}s  "
              f"cosim {entry['wall_seconds']:.3f}s  "
              f"speedup {entry['speedup_vs_serial']:.2f}x  "
              f"({entry['sim_cycles_per_sec']:.0f} agg sim cycles/s)")
    print(f"calibration {record['calibration_score']:.0f} spins/s; "
          f"record written to {args.output}")

    if args.check:
        baseline = perf.load_record(args.check)
        failures = perf.compare_records(record, baseline,
                                        threshold=args.threshold)
        if failures:
            print(f"\nREGRESSION vs {args.check}:", file=sys.stderr)
            for failure in failures:
                print(f"  {failure}", file=sys.stderr)
            return 1
        print(f"regression check vs {args.check}: OK")

    if args.fast_gate:
        failures = perf.check_fast_speedup(record, target=args.fast_floor)
        if failures:
            print(f"\nFAST GATE FAILED (floor {args.fast_floor}x):",
                  file=sys.stderr)
            for failure in failures:
                print(f"  {failure}", file=sys.stderr)
            return 1
        print(f"fast gate (>= {args.fast_floor}x vs reference): OK")

    if args.cosim_gate:
        failures = perf.check_cosim_speedup(record,
                                            target=args.cosim_floor)
        if failures:
            print(f"\nCO-SIM GATE FAILED (floor {args.cosim_floor}x):",
                  file=sys.stderr)
            for failure in failures:
                print(f"  {failure}", file=sys.stderr)
            return 1
        print(f"co-sim gate (>= {args.cosim_floor}x vs serial): OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
