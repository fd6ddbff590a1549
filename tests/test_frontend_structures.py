"""Tests for fragment buffers, the trace cache, and front-end control."""

from repro.config import FragmentConfig, TraceCacheConfig, TracePredictorConfig
from repro.frontend.buffers import FragmentBufferArray, FragmentInFlight
from repro.frontend.control import FrontEndControl
from repro.frontend.fragments import walk_fragment
from repro.frontend.trace_cache import TraceCache
from repro.isa.assembler import assemble
from repro.predictors.return_stack import ReturnAddressStack
from repro.predictors.trace_predictor import TracePredictor
from repro.stats import StatsCollector

CONFIG = FragmentConfig()


def make_fragment(seq, program, start_pc, dirs=()):
    static = walk_fragment(program, start_pc, dirs, CONFIG)
    return FragmentInFlight(seq, static.key, static, (), ())


def straight_program(n=64):
    return assemble("\n".join(["add t0, t0, t1"] * n) + "\nhalt")


class TestFragmentBuffers:
    def test_allocate_until_full(self):
        program = straight_program()
        buffers = FragmentBufferArray(2, StatsCollector())
        a = make_fragment(0, program, program.text_base)
        b = make_fragment(1, program, program.text_base + 64)
        c = make_fragment(2, program, program.text_base + 128)
        assert buffers.allocate(a, now=1)
        assert buffers.allocate(b, now=1)
        assert not buffers.allocate(c, now=1)
        assert buffers.free_count() == 0

    def test_release_and_reuse(self):
        program = straight_program()
        buffers = FragmentBufferArray(2, StatsCollector())
        a = make_fragment(0, program, program.text_base)
        buffers.allocate(a, now=1)
        a.complete = True
        buffers.release(a, now=2, retain=True)
        # Same key again: contents reused, fragment complete instantly.
        again = make_fragment(1, program, program.text_base)
        assert buffers.allocate(again, now=3)
        assert again.reused and again.complete
        assert again.fetched_count == again.static_frag.length
        assert buffers.stats.get("fragbuf.reuses") == 1

    def test_incomplete_fragments_not_retained(self):
        program = straight_program()
        buffers = FragmentBufferArray(1, StatsCollector())
        a = make_fragment(0, program, program.text_base)
        buffers.allocate(a, now=1)
        buffers.release(a, now=2, retain=True)  # not complete -> dropped
        again = make_fragment(1, program, program.text_base)
        buffers.allocate(again, now=3)
        assert not again.reused

    def test_oldest_free_buffer_chosen(self):
        program = straight_program()
        buffers = FragmentBufferArray(2, StatsCollector())
        a = make_fragment(0, program, program.text_base)
        b = make_fragment(1, program, program.text_base + 64)
        buffers.allocate(a, now=1)
        buffers.allocate(b, now=1)
        a.complete = b.complete = True
        buffers.release(a, now=5, retain=True)
        buffers.release(b, now=9, retain=True)
        # New (different) fragment takes the slot freed earliest (a's),
        # preserving b's more recent contents for reuse.
        c = make_fragment(2, program, program.text_base + 128)
        buffers.allocate(c, now=10)
        again_b = make_fragment(3, program, program.text_base + 64)
        buffers.allocate(again_b, now=11)
        assert again_b.reused

    def test_occupants_sorted_by_age(self):
        program = straight_program()
        buffers = FragmentBufferArray(3, StatsCollector())
        frags = [make_fragment(i, program, program.text_base + 64 * i)
                 for i in (2, 0, 1)]
        for f in frags:
            buffers.allocate(f, now=1)
        assert [f.seq for f in buffers.occupants()] == [0, 1, 2]

    def test_reset_rename_clears_state(self):
        program = straight_program()
        fragment = make_fragment(0, program, program.text_base)
        fragment.read_count = 5
        fragment.phase1_done = True
        fragment.rename_done = True
        fragment.uops = [object()]
        fragment.reset_rename()
        assert fragment.read_count == 0
        assert not fragment.phase1_done and not fragment.rename_done
        assert fragment.uops == []


class TestTraceCache:
    def test_miss_then_hit_after_insert(self):
        program = straight_program()
        tc = TraceCache(TraceCacheConfig(size_bytes=4096))
        key = walk_fragment(program, program.text_base, (), CONFIG).key
        assert not tc.lookup(key)
        tc.insert(key)
        assert tc.lookup(key)
        assert tc.hit_rate == 0.5

    def test_different_directions_are_different_traces(self):
        program = assemble("""
        top:
            beq t0, t1, top
            halt
        """)
        tc = TraceCache(TraceCacheConfig(size_bytes=4096))
        taken = walk_fragment(program, program.text_base, (True,), CONFIG).key
        fall = walk_fragment(program, program.text_base, (False,), CONFIG).key
        tc.insert(taken)
        assert not tc.lookup(fall)

    def test_associativity_eviction(self):
        program = straight_program(256)
        config = TraceCacheConfig(size_bytes=128, assoc=2)  # 1 set
        tc = TraceCache(config)
        keys = [walk_fragment(program, program.text_base + 64 * i, (),
                              CONFIG).key for i in range(3)]
        for key in keys:
            tc.insert(key)
        assert not tc.lookup(keys[0])  # evicted by LRU
        assert tc.lookup(keys[2])


class TestFrontEndControl:
    def make_control(self, program, start):
        stats = StatsCollector()
        predictor = TracePredictor(TracePredictorConfig(), stats)
        ras = ReturnAddressStack()
        return FrontEndControl(program, CONFIG, predictor, ras, stats,
                               start, fast=True), predictor, ras

    def test_follows_fall_through_chain_cold(self):
        program = straight_program(64)
        control, _, _ = self.make_control(program, program.text_base)
        first = control.try_next_fragment()
        second = control.try_next_fragment()
        assert first.seq == 0 and second.seq == 1
        assert second.key.start_pc == first.static_frag.next_pc

    def test_stalls_on_unpredicted_indirect(self):
        program = assemble("jr t0\nhalt")
        control, _, _ = self.make_control(program, program.text_base)
        first = control.try_next_fragment()
        assert first is not None
        assert control.try_next_fragment() is None
        assert control.stalled_on_indirect

    def test_ras_supplies_return_target(self):
        program = assemble("""
        main:
            call f
            halt
        f:
            ret
        """)
        control, _, _ = self.make_control(program, program.symbols["main"])
        first = control.try_next_fragment()     # call...ret (one fragment)
        assert first.static_frag.instructions[-1].is_return
        after = control.try_next_fragment()
        assert after is not None
        assert after.key.start_pc == program.symbols["main"] + 4

    def test_redirect_restores_checkpoints(self):
        program = straight_program(64)
        control, predictor, ras = self.make_control(program,
                                                    program.text_base)
        fragment = control.try_next_fragment()
        control.try_next_fragment()
        control.redirect(program.text_base + 8, fragment=fragment,
                         valid_prefix=1)
        assert predictor.snapshot_history() == fragment.history_snapshot
        nxt = control.try_next_fragment()
        assert nxt.key.start_pc == program.text_base + 8

    def test_prediction_drives_next_start_after_training(self):
        program = assemble("""
        a:  jr t0
        b:  halt
        """)
        control, predictor, _ = self.make_control(program,
                                                  program.symbols["a"])
        first = control.try_next_fragment()
        # Teach the predictor that `b` follows `a`.
        for _ in range(4):
            predictor.train(first.key)
            predictor.train(
                walk_fragment(program, program.symbols["b"], (),
                              CONFIG).key)
        nxt = control.try_next_fragment()
        assert nxt is not None
        assert nxt.key.start_pc == program.symbols["b"]
