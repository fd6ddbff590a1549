"""Tests of the benchmark's own code (no simulation runs).

Run from the repository root with ``python -m pytest perfbench -q``.
"""

import copy
import itertools
import json
import os
import re
import time
from pathlib import Path

import pytest

import gate
import hostspeed
import layers
import run
from spans import Tracer, reconcile, self_times
from workloads import DEFAULT_SEED, WORKLOADS, program_seed

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _lap(seconds, slowdown=1.0):
    """A host-speed meter lap: *seconds* while the host ran *slowdown*
    times slower than the reference."""
    return {"seconds": seconds, "ticks": 10,
            "tick_s": hostspeed.REFERENCE_S * slowdown}


def _fake_sample(workload, jobs=None, **extra):
    """A sample report shaped like ``sample.py``'s, with fixed times."""
    jobs = jobs if jobs is not None else {"a/b/n=1": {
        "sim.cycles": 10.0, "sim.committed": 40.0,
        "obs.profile.fetch.seconds": 0.25}}
    spans = [["setup", 0.0, 1.0, None], ["workloads.gen", 0.0, 0.5, 0],
             ["emulator.setup_oracle", 0.5, 1.0, 0],
             ["run_simulation", 1.0, 3.0, None], ["core.run", 1.5, 2.5, 3],
             ["emulator.get_oracle", 2.5, 2.75, 3]]
    sample = {"setup": _lap(1.2), "call": _lap(2.0), "wall_s": 3.0,
              "instructions": 40, "emulated": 1000, "peak_rss_mb": 50.0,
              "error": None, "jobs": jobs, "failures": {}, "prep": {},
              "spans": spans}
    sample.update(extra)
    return sample


def test_metric_names_and_units_are_valid():
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    for metric in metrics:
        assert NAME.match(metric["name"]), metric
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower")
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_computed_metrics_are_the_declared_ones():
    workload = WORKLOADS["detail-long"]
    sample = _fake_sample(workload)
    e2e = run.end_to_end([sample])
    assert set(e2e) == {m["name"] for m in SPEC["end_to_end"]}
    assert e2e["sim_kips"] == pytest.approx(40 / 2.0 / 1e3)
    slower = dict(sample, wall_s=4.0)
    per = layers.per_layer(workload, [dict(sample, wall_s=2.5)],
                           [slower, sample, dict(sample, wall_s=5.0)], None)
    assert set(per) == {m["name"] for m in SPEC["per_layer"]}
    # The median traced sample (wall 4) against the untraced one.
    assert per["trace.overhead_pct"] == pytest.approx(60.0)
    assert per["core.fetch_s"] == 0.25
    # Set-up's emulation alone; the in-call stream lookup is apart.
    assert per["emulator.kips"] == pytest.approx(1000 / 0.5 / 1e3)
    assert per["emulator.lookup_s"] == 0.25


def test_times_are_scaled_by_the_host_speed_during_them():
    workload = WORKLOADS["detail-long"]
    # The host is half as fast during set-up and 2/3 as fast in the call.
    slow = _fake_sample(workload, setup=_lap(1.2, 2.0), call=_lap(3.0, 1.5))
    fast = _fake_sample(workload, setup=_lap(0.6), call=_lap(2.0))
    assert run.per_sample([slow])["setup_s"] == pytest.approx([0.6])
    assert run.per_sample([slow])["sim_kips"] == pytest.approx([0.02])
    assert run.per_sample([slow], scaled=False)["sim_kips"] == \
        pytest.approx([40 / 3.0 / 1e3])
    # The median does not favour the run with more samples.
    e2e = run.end_to_end([slow, fast, fast, slow, slow])
    assert e2e == pytest.approx(run.end_to_end([slow]))


def test_gate_rejects_a_perturbed_counter_and_ignores_new_ones():
    reference = gate.load_reference()
    job = reference["workloads"]["detail-long"][0]
    ref = {job: reference["jobs"][job]}
    counters = dict(ref[job], **{"new.counter": 1.0})
    sample = {"error": None, "failures": {}, "jobs": {job: counters}}
    assert gate.job_failures([job], sample, ref) == {}

    perturbed = copy.deepcopy(sample)
    perturbed["jobs"][job]["sim.cycles"] += 1
    assert "sim.cycles" in gate.job_failures([job], perturbed, ref)[job]
    del perturbed["jobs"][job]["sim.cycles"]
    assert "sim.cycles" in gate.job_failures([job], perturbed, ref)[job]


def test_gate_fails_errors_timeouts_and_missing_jobs():
    jobs = ["x/a/n=1", "x/b/n=1", "x/c/n=1"]
    sample = {"error": None, "failures": {"x/a/n=1": "boom"},
              "jobs": {"x/b/n=1": {"sim.timeout": 1.0}}}
    failures = gate.job_failures(jobs, sample, None)
    assert failures == {"x/a/n=1": "boom",
                        "x/b/n=1": "timed out (sim.timeout)",
                        "x/c/n=1": "no result"}
    crashed = {"error": "ValueError: bad"}
    assert set(gate.job_failures(jobs, crashed, None)) == set(jobs)


def test_check_counts_every_job_of_every_sample():
    reference = gate.load_reference()
    workload = WORKLOADS["detail-long"]
    (job,) = reference["workloads"][workload.name]
    good = {"error": None, "failures": {},
            "jobs": {job: dict(reference["jobs"][job])}}
    bad = copy.deepcopy(good)
    bad["jobs"][job]["commit.insts"] += 1
    result = run.check(workload, DEFAULT_SEED, [good, bad, good], reference)
    assert (result["attempted"], result["failed"]) == (3, 1)
    # Off the default seed, samples must agree with the first good one.
    result = run.check(workload, DEFAULT_SEED + 1, [good, bad], reference)
    assert (result["attempted"], result["failed"]) == (2, 1)


def test_self_times_and_reconciliation_add_up():
    ticks = itertools.count()
    tracer = Tracer(clock=lambda: float(next(ticks)))
    root = tracer.begin("run_simulation")          # t=0
    child = tracer.begin("core.run")               # t=1
    grandchild = tracer.begin("core.run_until")    # t=2
    tracer.end(grandchild)                         # t=3
    tracer.end(child)                              # t=4
    other = tracer.begin("warming.warm_from_snapshot")  # t=5
    tracer.end(other)                              # t=6
    tracer.end(root)                               # t=7
    assert self_times(tracer.spans) == [7 - 3 - 1, 3 - 1, 1, 1]
    by_layer, unattributed = reconcile(tracer.spans, 10.0,
                                       layers.SPAN_LAYERS)
    assert by_layer == {"core.run_s": 3.0, "warming.s": 1.0}
    # run_simulation's own self time (3) plus the 3 s outside every span.
    assert unattributed == 6.0
    assert sum(by_layer.values()) + unattributed == 10.0


def test_reconciliation_rejects_inconsistent_spans():
    outlasting = [["run_simulation", 0.0, 1.0, None],
                  ["core.run", 0.0, 2.0, 0]]
    with pytest.raises(ValueError, match="negative self time"):
        reconcile(outlasting, 5.0, layers.SPAN_LAYERS)
    with pytest.raises(ValueError, match="more than the traced wall"):
        reconcile([["core.run", 0.0, 2.0, None]], 1.0, layers.SPAN_LAYERS)
    with pytest.raises(ValueError, match="never closed"):
        self_times([["core.run", 0.0, None, None]])


def test_patch_records_spans_and_unpatch_restores():
    class Owner:
        def work(self, x):
            return x + 1

    original = Owner.work
    tracer = Tracer()
    tracer.patch(Owner, "work", "core.run")
    assert Owner().work(1) == 2
    assert [span[0] for span in tracer.spans] == ["core.run"]
    tracer.unpatch()
    assert Owner.work is original


def test_program_seed_keeps_the_default_and_separates_the_rest():
    assert program_seed(105, DEFAULT_SEED) is None
    seeds = {program_seed(spec_seed, seed)
             for spec_seed in range(101, 113) for seed in range(1, 20)}
    assert len(seeds) == 12 * 19


def test_refuses_to_run_without_the_simulator_source(tmp_path, monkeypatch,
                                                     capsys):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "detail-long", "--seed", "1",
                     "--seconds", "1", "--trace", "0"]) != 0
    assert capsys.readouterr().out == ""


def _busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_meter_laps_leave_out_their_ticks():
    meter = hostspeed.Meter()
    meter.start()
    start = time.perf_counter()
    _busy(0.2)
    lap = meter.lap()
    wall = time.perf_counter() - start
    meter.stop()
    assert lap["ticks"] >= 2 and lap["tick_s"] > 0
    assert 0 < lap["seconds"] < wall - lap["ticks"] * lap["tick_s"] * 0.99


def test_forked_workers_tick_for_the_block(tmp_path):
    with hostspeed.ticking_children(str(tmp_path / "ticks"), 1) as lap:
        pid = os.fork()
        if pid == 0:  # a pool worker's stand-in
            _busy(0.2)
            os._exit(0)
        os.waitpid(pid, 0)
    assert lap["ticks"] >= 2 and lap["tick_s"] > 0
    assert not (tmp_path / "ticks").exists()
