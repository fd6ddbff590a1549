"""Speed switch and the reproducible wall-clock benchmark harness.

Three related jobs live in this package:

* :mod:`repro.perf.knobs` — the ``REPRO_FAST`` on/off switch.  Off is
  the reference loop (the correctness oracle); on (the default) is the
  fast step: the behaviour-preserving hot-path caches plus the batched
  structure-of-arrays cycle step.  The golden-parity tests
  (``tests/test_perf_soa.py``) and the hypothesis differential test
  (``tests/test_end_to_end_property.py``) run both side by side and
  assert every result counter is bit-identical, which is what licenses
  the fast step in the first place.  Structural optimizations
  (precomputed instruction attributes, the array-backed rename map,
  idle-phase skipping) are unconditional — they are provably
  behaviour-preserving and have no slow twin.

* :mod:`repro.perf.soa` — the fast step's batched state: flattened
  oracle PCs and per-fragment decode/source/dest metadata the batched
  rename, tagging and commit loops run over (layout in
  ``docs/DATA_LAYOUT.md``).

* :mod:`repro.perf.bench` — the benchmark harness behind
  ``benchmarks/bench_perf.py`` and the ``BENCH_perf*.json`` records.
"""

from repro.config import PERF_FAST_ENV
from repro.perf.bench import (
    COSIM_CONFIGS,
    COSIM_GATE_SPEEDUP,
    COSIM_TARGET_SPEEDUP,
    FAST_GATE_SPEEDUP,
    PINNED_BENCHMARK,
    PINNED_CONFIGS,
    PINNED_INSTRUCTIONS,
    SAMPLED_INSTRUCTIONS,
    SCHEMA_VERSION,
    SMOKE_INSTRUCTIONS,
    SMOKE_SAMPLED_INSTRUCTIONS,
    calibrate,
    check_cosim_speedup,
    check_fast_speedup,
    compare_records,
    load_record,
    run_benchmark,
    run_cosim_benchmark,
    run_matrix,
    run_sampled_benchmark,
    write_record,
)
from repro.perf.knobs import PerfConfig

__all__ = [
    "COSIM_CONFIGS",
    "COSIM_GATE_SPEEDUP",
    "COSIM_TARGET_SPEEDUP",
    "FAST_GATE_SPEEDUP",
    "PERF_FAST_ENV",
    "PINNED_BENCHMARK",
    "PINNED_CONFIGS",
    "PINNED_INSTRUCTIONS",
    "SAMPLED_INSTRUCTIONS",
    "SCHEMA_VERSION",
    "SMOKE_INSTRUCTIONS",
    "SMOKE_SAMPLED_INSTRUCTIONS",
    "PerfConfig",
    "calibrate",
    "check_cosim_speedup",
    "check_fast_speedup",
    "compare_records",
    "load_record",
    "run_benchmark",
    "run_cosim_benchmark",
    "run_matrix",
    "run_sampled_benchmark",
    "write_record",
]
