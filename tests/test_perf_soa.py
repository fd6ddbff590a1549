"""Golden-parity matrix: the fast cycle step against the reference loop.

The fast step (unset ``REPRO_FAST``: hot-path caches plus the batched
structure-of-arrays step, see ``docs/DATA_LAYOUT.md``) must be
bit-identical to the ``REPRO_FAST=0`` reference loop in every execution
mode the simulator supports:

* **Full detail** — every paper configuration class (wide monolithic,
  trace cache, parallel fetch, parallel fetch + parallel rename), on two
  benchmarks.
* **Observability on** — the deterministic pillars (metrics sampling,
  event tracing) live during the run.
* **Interval sampled** — the SMARTS-style sampling engine driving
  warm/measure/fast-forward transitions over the fast step.
* **Checkpointed** — a run killed mid-flight by the ``kill_mid_unit``
  fault and resumed on the fast step in a fresh process must reproduce
  the reference loop's uninterrupted answer.

Parity here means the full identity: cycles, committed instructions and
the complete counter dict, entry for entry.  The knob's parsing is
probed with every other boolean knob in ``tests/test_env_flags.py``;
random configurations are covered by the hypothesis differential test
in ``tests/test_end_to_end_property.py``.
"""

import os
import subprocess
import sys

import pytest

from repro import perf, run_simulation
from repro.checkpoint import CHECKPOINT_DIR_ENV
from repro.faults import FAULTS_ENV
from repro.sampling import SamplingConfig

#: One configuration per front-end organization class of the paper.
CONFIGS = ("w16", "tc", "pf-2x8w", "pr-2x8w")
#: The full-detail matrix: every class on gcc, plus parallel fetch on a
#: second benchmark.
MATRIX = ([pytest.param(config, "gcc", id=config) for config in CONFIGS]
          + [pytest.param("pf-2x8w", "mcf", id="pf-2x8w-mcf")])
LENGTH = 3000


@pytest.fixture(autouse=True)
def hermetic_env(monkeypatch, tmp_path):
    """Isolate from ambient fast/fault/checkpoint/obs state."""
    for name in (FAULTS_ENV, "REPRO_OBS_SAMPLE", "REPRO_OBS_TRACE",
                 "REPRO_OBS_PROFILE", "REPRO_SAMPLE", "REPRO_CHECKPOINT"):
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setenv(CHECKPOINT_DIR_ENV, str(tmp_path / "ckpt"))


def identity(result):
    """Everything parity compares, bit for bit."""
    return (result.cycles, result.committed, dict(result.counters))


def run_mode(fast, config, monkeypatch, benchmark="gcc",
             instructions=LENGTH, **kwargs):
    monkeypatch.setenv(perf.PERF_FAST_ENV, "1" if fast else "0")
    return run_simulation(config, benchmark,
                          max_instructions=instructions, **kwargs)


class TestSoAGoldenParity:
    """The fast step must not change a single architectural counter."""

    @pytest.mark.parametrize("config,program", MATRIX)
    def test_counters_bit_identical(self, config, program, monkeypatch):
        fast = run_mode(True, config, monkeypatch, benchmark=program)
        reference = run_mode(False, config, monkeypatch, benchmark=program)
        assert identity(fast) == identity(reference)

    def test_parity_on_second_benchmark(self, monkeypatch):
        fast = run_mode(True, "pr-2x8w", monkeypatch, benchmark="mcf")
        reference = run_mode(False, "pr-2x8w", monkeypatch, benchmark="mcf")
        assert identity(fast) == identity(reference)


class TestModeParity:
    """The fast step under the other execution modes, against the
    reference loop."""

    def test_observability_on(self, monkeypatch):
        # Metrics sampling and tracing are deterministic pillars: their
        # obs.* summary counters must match across the two loops too.
        # (The profiler's obs.profile.*.seconds are wall clock and
        # excluded by not enabling it.)
        monkeypatch.setenv("REPRO_OBS_SAMPLE", "50")
        monkeypatch.setenv("REPRO_OBS_TRACE", "1")
        fast = run_mode(True, "tc", monkeypatch)
        reference = run_mode(False, "tc", monkeypatch)
        assert identity(fast) == identity(reference)

    def test_sampled(self, monkeypatch):
        sampling = SamplingConfig(period=3, unit=500, warmup=500)
        fast = run_mode(True, "w16", monkeypatch, instructions=12000,
                        sampling=sampling)
        reference = run_mode(False, "w16", monkeypatch, instructions=12000,
                             sampling=sampling)
        assert identity(fast) == identity(reference)

    def test_checkpointed(self, monkeypatch):
        fast = run_mode(True, "w16", monkeypatch, checkpoint_every=1000)
        reference = run_mode(False, "w16", monkeypatch,
                             checkpoint_every=1000)
        assert identity(fast) == identity(reference)


class TestKillAndResumeAtTier2:
    """Crash-resume on the fast step reproduces the reference answer."""

    CODE = ("import repro\n"
            "repro.run_simulation('w16', 'gzip', max_instructions=3000, "
            "checkpoint_every=1000)")

    def test_kill_resume_parity(self, tmp_path, monkeypatch):
        env = dict(os.environ)
        env.update({
            perf.PERF_FAST_ENV: "1",
            CHECKPOINT_DIR_ENV: str(tmp_path / "ckpt"),
            "REPRO_CACHE_DIR": str(tmp_path / "cache"),
            FAULTS_ENV: "kill_mid_unit attempts=*",
        })
        victim = subprocess.run([sys.executable, "-c", self.CODE], env=env,
                                capture_output=True, text=True, timeout=300)
        assert victim.returncode == 23, victim.stderr
        assert list((tmp_path / "ckpt").glob("*.ckpt")), \
            "the victim died before its first durable checkpoint"

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.setenv(CHECKPOINT_DIR_ENV, str(tmp_path / "ckpt"))
        resumed = run_mode(True, "w16", monkeypatch, benchmark="gzip",
                           checkpoint_every=1000)

        monkeypatch.setenv(CHECKPOINT_DIR_ENV, str(tmp_path / "ckpt2"))
        reference = run_mode(False, "w16", monkeypatch, benchmark="gzip",
                             checkpoint_every=1000)
        assert identity(resumed) == identity(reference)
