"""End-to-end property test: for *any* generated workload, every
front-end commits exactly the functional execution.

This is the simulator's master invariant — speculation, squashes,
parallel rename, live-out mispredictions and cache behaviour may change
*timing*, never the committed instruction sequence.

A second property holds the fast cycle step to the reference loop: for
any generated workload and any drawn front-end geometry, both produce
the same cycles, commits and counters, with the per-cycle invariant
audits on for both.
"""

import dataclasses

from hypothesis import given, settings, strategies as st

from repro import frontend_config
from repro.config import KB, TraceCacheConfig
from repro.core.invariants import InvariantChecker
from repro.core.processor import Processor
from repro.core.warming import warm_processor
from repro.emulator.machine import Machine
from repro.perf import PerfConfig
from repro.workloads.characteristics import WorkloadSpec
from repro.workloads.generator import generate_program

CONFIG_NAMES = ("w16", "tc", "pf-4x4w", "pr-2x8w")


@st.composite
def workload_specs(draw):
    num_functions = draw(st.integers(min_value=4, max_value=24))
    hot = draw(st.integers(min_value=2, max_value=num_functions))
    # Segment-kind probabilities must sum to <= 1.0: draw raw weights and
    # normalise to a random budget.
    weights = [draw(st.floats(0.0, 1.0)) for _ in range(6)]
    budget = draw(st.floats(0.2, 0.95))
    total = sum(weights) or 1.0
    diamond, loop, switch, call, mem, fp = (w / total * budget
                                            for w in weights)
    return WorkloadSpec(
        name="prop",
        seed=draw(st.integers(min_value=1, max_value=10_000)),
        num_functions=num_functions,
        hot_functions=hot,
        segments_per_function=(1, draw(st.integers(2, 6))),
        block_len=(1, draw(st.integers(2, 8))),
        diamond_prob=diamond,
        loop_prob=loop,
        switch_prob=switch,
        call_prob=call,
        mem_prob=mem,
        fp_prob=fp,
        nop_prob=draw(st.floats(0.0, 0.1)),
        biased_branch_fraction=draw(st.floats(0.0, 1.0)),
        switch_cases=draw(st.sampled_from([2, 4, 8])),
        array_words=draw(st.sampled_from([64, 1024, 4096])),
        random_access_fraction=draw(st.floats(0.0, 1.0)),
    )


@given(spec=workload_specs(),
       config_name=st.sampled_from(CONFIG_NAMES))
@settings(max_examples=12, deadline=None)
def test_any_workload_commits_functional_execution(spec, config_name):
    program = generate_program(spec)
    oracle = Machine(program).run(1500).stream
    non_nop = sum(1 for r in oracle if not r.inst.is_nop)
    if non_nop == 0:
        return
    processor = Processor(frontend_config(config_name), program, oracle)
    processor.run()
    assert processor.finished, (spec.seed, config_name)
    assert processor.committed == non_nop
    # The pipeline can never commit faster than its width.
    assert processor.committed <= 16 * processor.now


@st.composite
def processor_configs(draw):
    """A random configuration from one of the paper's four front-end
    classes (W16, TC, PF, PR) with a drawn buffer count, sequencer
    width, live-out recovery policy and trace-cache size."""
    kind = draw(st.sampled_from(("w16", "tc", "pf", "pr")))
    base = frontend_config({"w16": "w16", "tc": "tc", "pf": "pf-2x8w",
                            "pr": "pr-2x8w"}[kind])
    changes = {
        "num_fragment_buffers": draw(st.integers(1, 24)),
        "liveout_recovery": draw(st.sampled_from(("squash", "reexecute"))),
    }
    if kind in ("pf", "pr"):
        sequencers = 16 // draw(st.sampled_from((4, 8, 16)))
        changes.update(sequencers=sequencers, renamers=sequencers)
    if kind == "tc":
        changes["trace_cache"] = TraceCacheConfig(
            size_bytes=draw(st.sampled_from((1, 4, 16, 64))) * KB)
    return base.replace(
        frontend=dataclasses.replace(base.frontend, **changes))


def _identity(config, program, oracle, fast, warm):
    processor = Processor(config, program, oracle,
                          invariants=InvariantChecker(),
                          perf=PerfConfig(fast=fast))
    if warm:
        warm_processor(processor, oracle)
    processor.run()
    return processor.now, processor.committed, processor.stats.as_dict()


@given(spec=workload_specs(), config=processor_configs(),
       warm=st.booleans())
@settings(max_examples=15, deadline=None)
def test_fast_step_matches_reference_loop(spec, config, warm):
    program = generate_program(spec)
    oracle = Machine(program).run(1500).stream
    if not any(not r.inst.is_nop for r in oracle):
        return
    fast = _identity(config, program, oracle, True, warm)
    reference = _identity(config, program, oracle, False, warm)
    assert fast == reference, (spec.seed, config.frontend)
