"""Tests for the performance layer (``repro.perf``).

Three concerns (the full golden-parity matrix of the fast step against
the reference loop lives in ``tests/test_perf_soa.py``):

* **Golden parity, profiled** — with the per-phase profiler on, the fast
  step (``REPRO_FAST`` unset) and the reference loop (``REPRO_FAST=0``)
  run through the profiler's timed phase tuple and must still agree on
  cycles, committed count and every counter but the wall-clock seconds.
* **DecodeCache** — hit/miss/eviction unit behaviour.
* **Benchmark harness** — ``run_matrix``/``compare_records`` record
  shape and regression gating, plus a ``bench_perf.py --smoke`` run.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro import perf
from repro.config import OBS_PROFILE_ENV
from repro.core.simulation import run_simulation
from repro.core.uop import DecodeCache
from repro.isa.assembler import assemble

BENCH_SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "bench_perf.py"


def _run_profiled(config, fast, monkeypatch, benchmark="gcc",
                  instructions=3000):
    monkeypatch.setenv(OBS_PROFILE_ENV, "1")
    if fast:
        monkeypatch.delenv(perf.PERF_FAST_ENV, raising=False)
    else:
        monkeypatch.setenv(perf.PERF_FAST_ENV, "0")
    return run_simulation(config, benchmark, max_instructions=instructions)


def _stable(counters):
    # obs.profile.*seconds are wall clock, not simulation state.
    return {name: value for name, value in counters.items()
            if not (name.startswith("obs.profile.")
                    and name.endswith("seconds"))}


class TestGoldenParity:
    """The profiled fast step must not change a single counter."""

    @pytest.mark.parametrize("config", ["w16", "tc", "pr-2x8w"])
    def test_counters_bit_identical(self, config, monkeypatch):
        fast = _run_profiled(config, True, monkeypatch)
        reference = _run_profiled(config, False, monkeypatch)
        assert fast.cycles == reference.cycles
        assert fast.committed == reference.committed
        assert _stable(fast.counters) == _stable(reference.counters)
        # Both loops were timed phase by phase, once per cycle.
        assert fast.counters["obs.profile.fetch.calls"] == fast.cycles


class TestDecodeCache:
    def _inst(self, text="add t0, t1, t2"):
        return assemble(text).instructions[0]

    def test_rejects_non_positive_capacity(self):
        with pytest.raises(ValueError):
            DecodeCache(capacity=0)

    def test_miss_then_hit_returns_same_decoded(self):
        cache = DecodeCache(capacity=8)
        inst = self._inst()
        first = cache.lookup(inst.addr, inst)
        second = cache.lookup(inst.addr, inst)
        assert second is first
        assert (cache.hits, cache.misses) == (1, 1)
        assert first.srcs and first.dest is not None

    def test_identity_mismatch_is_a_miss(self):
        cache = DecodeCache(capacity=8)
        a, b = self._inst(), self._inst()
        assert a is not b and a.addr == b.addr
        cache.lookup(a.addr, a)
        decoded_b = cache.lookup(b.addr, b)
        assert cache.hits == 0 and cache.misses == 2
        # The replacement now serves hits for the new identity.
        assert cache.lookup(b.addr, b) is decoded_b
        assert cache.hits == 1

    def test_fifo_batch_eviction(self):
        cache = DecodeCache(capacity=16)
        insts = [self._inst() for _ in range(16)]
        for i, inst in enumerate(insts):
            cache.lookup(i * 4, inst)
        assert len(cache) == 16 and cache.evictions == 0
        cache.lookup(16 * 4, self._inst())
        # One overflow evicts capacity//8 oldest entries, then inserts.
        assert cache.evictions == 2
        assert len(cache) == 15
        # Oldest two victims miss again; younger entries still hit.
        hits_before = cache.hits
        cache.lookup(15 * 4, insts[15])
        assert cache.hits == hits_before + 1


class TestBenchHarness:
    def test_run_matrix_record_shape(self, monkeypatch):
        monkeypatch.setenv(perf.PERF_FAST_ENV, "1")
        record = perf.run_matrix(configs=("w16",), instructions=2000,
                                 repeats=1, phase_breakdown=False)
        assert record["schema"] == perf.SCHEMA_VERSION
        assert record["fast_paths"] is True
        assert record["calibration_score"] > 0
        (entry,) = record["entries"]
        assert entry["config"] == "w16"
        assert entry["sim_cycles"] > 0
        assert entry["sim_cycles_per_sec"] > 0
        assert entry["uops_per_sec"] > 0
        assert entry["phase_seconds"] is None
        assert 0.0 < entry["decode_cache_hit_rate"] <= 1.0

    def test_compare_records_gates_on_regression(self):
        def record(cps, calibration, instructions=1000):
            return {"calibration_score": calibration,
                    "entries": [{"config": "w16", "benchmark": "gcc",
                                 "instructions": instructions,
                                 "sim_cycles_per_sec": cps}]}

        baseline = record(1000.0, 1.0)
        assert perf.compare_records(record(900.0, 1.0), baseline) == []
        failures = perf.compare_records(record(500.0, 1.0), baseline)
        assert len(failures) == 1 and "w16/gcc" in failures[0]
        # Calibration normalisation: half the throughput on a machine
        # half as fast is not a regression.
        assert perf.compare_records(record(500.0, 0.5), baseline) == []
        # Mismatched instruction counts are not comparable.
        assert perf.compare_records(
            record(100.0, 1.0, instructions=50), baseline) == []

    def test_compare_records_gates_sampled_section(self):
        def record(cps):
            return {"calibration_score": 1.0, "entries": [],
                    "sampled": [{"config": "tc", "benchmark": "gcc",
                                 "instructions": 240_000,
                                 "sim_cycles_per_sec": cps}]}

        baseline = record(1000.0)
        assert perf.compare_records(record(900.0), baseline) == []
        failures = perf.compare_records(record(500.0), baseline)
        assert len(failures) == 1 and "sampled tc/gcc" in failures[0]

    def test_check_fast_speedup_gate(self):
        def record(*speedups):
            return {"entries": [{"config": f"c{i}", "benchmark": "gcc",
                                 "speedup_vs_reference": x}
                                for i, x in enumerate(speedups)],
                    "reference": [{} for _ in speedups]}

        assert perf.check_fast_speedup(record(2.0, 1.9), target=1.5) == []
        failures = perf.check_fast_speedup(record(2.0, 1.4), target=1.5)
        assert len(failures) == 1 and "c1/gcc" in failures[0]
        # A record timed without --reference cannot pass the gate.
        assert perf.check_fast_speedup({"entries": []}, target=1.5)

    def test_run_sampled_benchmark_entry_shape(self):
        entry = perf.run_sampled_benchmark("w16", instructions=8_000)
        assert entry["config"] == "w16"
        assert entry["est_sim_cycles"] > 0
        assert entry["sim_cycles_per_sec"] > 0
        assert entry["speedup"] > 0
        assert entry["wall_seconds"] < entry["full_wall_seconds"]
        assert 0.0 <= entry["ipc_rel_error"] < 1.0

    def test_bench_perf_smoke_cli(self, tmp_path):
        out = tmp_path / "BENCH_perf.json"
        result = subprocess.run(
            [sys.executable, str(BENCH_SCRIPT), "--smoke", "--repeats", "1",
             "--no-phases", "-n", "1500", "--configs", "w16",
             "--output", str(out)],
            capture_output=True, text=True, timeout=300)
        assert result.returncode == 0, result.stderr
        record = json.loads(out.read_text())
        assert record["entries"][0]["config"] == "w16"
        assert record["entries"][0]["sim_cycles_per_sec"] > 0
