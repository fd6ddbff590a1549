"""The simulated processor: pipeline driver tying every model together.

Per cycle, in reverse pipeline order:

1. **execute/writeback** (:class:`~repro.backend.core.OutOfOrderCore`) —
   completions may resolve control mispredictions and redirect fetch;
2. **commit** — in-order retirement, predictor training via the
   commit-side fragment carver;
3. **rename** — monolithic or parallel, producing uops dispatched into
   the window after a short dispatch pipeline;
4. **fetch** — the fill engine advances its sequencers/trace cache, then
   at most one new fragment is predicted and allocated a buffer.

:meth:`Processor.step` runs these four phases as a tuple of bound
methods picked once at construction: the reference loop's
(``REPRO_FAST=0``, the parity oracle) or the fast step's (batched
structure-of-arrays variants of execute, commit and rename over
:mod:`repro.perf.soa`).  The phase profiler times the same tuple.

The oracle dynamic stream defines the correct path.  Fragments are tagged
against it at creation: the first fetched instruction that diverges from
the oracle pins the misprediction on the preceding (control) instruction,
and when that uop executes the processor squashes younger work, restores
front-end checkpoints and redirects fetch — so wrong-path instructions
occupy fetch slots, buffers, rename bandwidth and window entries for
exactly the mis-speculation window, as in an execution-driven simulator.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs import Observability
    from repro.obs.live import LiveTelemetry

from repro.config import ProcessorConfig
from repro.core.invariants import InvariantChecker, PipelineWatchdog
from repro.core.uop import DecodeCache, MicroOp, PlaceholderProducer, UopState
from repro.obs.profiling import PHASES
from repro.perf import PerfConfig
from repro.perf.soa import SharedStream, SoAState
from repro.backend.core import OutOfOrderCore
from repro.emulator.stream import DynamicInstruction
from repro.errors import ConfigError, SimulationError
from repro.frontend.buffers import FragmentBufferArray, FragmentInFlight
from repro.frontend.control import FrontEndControl
from repro.frontend.engines import (
    FillEngine,
    ParallelFillEngine,
    SequentialFillEngine,
    TraceCacheFillEngine,
)
from repro.frontend.fragments import FragmentKey, should_terminate
from repro.frontend.trace_cache import TraceCache
from repro.isa.program import Program
from repro.isa.registers import ZERO_REG
from repro.memory.hierarchy import MemoryHierarchy
from repro.predictors.bimodal import BimodalPredictor
from repro.predictors.liveout import LiveOutPredictor, compute_liveouts
from repro.predictors.return_stack import ReturnAddressStack
from repro.predictors.trace_predictor import TracePredictor
from repro.rename.monolithic import MonolithicRenamer
from repro.rename.parallel import ParallelRenamer
from repro.stats import StatsCollector


#: Sentinel for "resolve from the environment" (None means "disabled").
_FROM_ENV = object()


class Processor:
    """One simulated processor instance (one benchmark run)."""

    def __init__(self, config: ProcessorConfig, program: Program,
                 oracle: List[DynamicInstruction],
                 watchdog=_FROM_ENV, invariants=_FROM_ENV,
                 obs: Optional["Observability"] = None,
                 live: Optional["LiveTelemetry"] = None,
                 perf: Optional[PerfConfig] = None,
                 shared: Optional[SharedStream] = None):
        self.config = config
        self.program = program
        self.stats = StatsCollector()
        #: Fast step or reference loop (``REPRO_FAST``); never affects
        #: results.
        self.perf = perf if perf is not None else PerfConfig.from_env()
        fast = self.perf.fast

        #: Opt-in observability (see :mod:`repro.obs`); None = disabled.
        self.obs = obs
        self._tracer = obs.tracer if obs is not None else None
        #: Opt-in live telemetry publisher (read-only snapshots of this
        #: processor to a status file; see :mod:`repro.obs.live`).
        self.live = live

        if config.frontend.fragment_buffer_size < config.fragment.max_length:
            raise ConfigError(
                f"fragment buffers hold {config.frontend.fragment_buffer_size}"
                f" instructions but fragments may reach "
                f"{config.fragment.max_length}")

        # NOPs are eliminated before they reach any pipeline statistic.
        self._oracle = [r for r in oracle if not r.inst.is_nop]
        if not self._oracle:
            raise SimulationError("empty oracle stream")

        self.memory = MemoryHierarchy(config.memory, self.stats)
        self.trace_predictor = TracePredictor(config.trace_predictor,
                                              self.stats)
        self.liveout_predictor = LiveOutPredictor(config.liveout_predictor,
                                                  self.stats)
        self.ras = ReturnAddressStack()
        self.bimodal = BimodalPredictor(stats=self.stats)
        self.control = FrontEndControl(program, config.fragment,
                                       self.trace_predictor, self.ras,
                                       self.stats, self._oracle[0].pc,
                                       direction_fallback=self.bimodal.predict,
                                       fast=fast)
        self.buffers = FragmentBufferArray(
            config.frontend.num_fragment_buffers, self.stats)
        self.trace_cache: Optional[TraceCache] = None
        self.engine = self._build_engine()
        self.core = OutOfOrderCore(config.backend, self.memory, self.stats)
        self.renamer = self._build_renamer()
        #: Decoded-uop cache: recurring fragments reuse one immutable
        #: :class:`~repro.core.uop.DecodedUop` per static instruction
        #: instead of re-deriving operands/pool/latency every rename.
        #: None in the reference loop.
        self.decode_cache: Optional[DecodeCache] = None
        #: The fast step's batched state: flat oracle PCs plus
        #: per-static-fragment metadata; None in the reference loop.
        self._soa: Optional[SoAState] = None
        if fast and shared is not None:
            # Co-simulation (repro.perf.cosim) injects one SharedStream
            # per stream group: the decode cache and SoA tables are pure
            # per (stream, fragment config), so sibling processors on
            # the same stream share them without perturbing results.
            if len(shared.oracle_pcs) != len(self._oracle):
                raise SimulationError(
                    "shared stream does not match this oracle stream")
            self.decode_cache = shared.decode_cache
            self._soa = SoAState(self._oracle, self.decode_cache,
                                 oracle_pcs=shared.oracle_pcs,
                                 meta=shared.meta_for(config.fragment))
        elif fast:
            self.decode_cache = DecodeCache()
            self._soa = SoAState(self._oracle, self.decode_cache)
        #: Fetch-time oracle tagger (the fast step swaps in the batched
        #: slice-compare variant; both produce identical ``records``).
        self._tagger = (self._tag_fragment_soa if fast
                        else self._tag_fragment)
        #: The cycle's phases in reverse pipeline order, bound once;
        #: :meth:`step` and the profiled loop both run this tuple.
        self._phases = ((self._execute_soa, self._commit_soa,
                         self._rename_soa, self._fetch) if fast
                        else (self._execute, self._commit, self._rename,
                              self._fetch))

        #: In-flight fragments, oldest first (committed ones are removed).
        self.fragments: List[FragmentInFlight] = []
        self.now = 0
        self._oracle_pos = 0
        self._diverged = False
        self._committed = 0
        #: Oracle record count at which the run stops (the whole stream by
        #: default; :meth:`run_until` moves it for sampled windows).
        self._stop_at = len(self._oracle)
        self._done = False
        self._deferred_redirects: List[MicroOp] = []
        #: Fragments awaiting selective re-execution fix-up (their rename
        #: must finish before actual mappings are known).
        self._pending_reexec: set = set()
        #: When set (by tracing tools), every committed uop is appended.
        self.uop_log: Optional[List[MicroOp]] = None

        #: Forward-progress watchdog (None = disabled) and opt-in
        #: per-cycle state audits (see :mod:`repro.core.invariants`).
        self.watchdog: Optional[PipelineWatchdog] = (
            PipelineWatchdog.from_env() if watchdog is _FROM_ENV
            else watchdog)
        self.invariants: Optional[InvariantChecker] = (
            InvariantChecker.from_env() if invariants is _FROM_ENV
            else invariants)

        # Commit-side fragment carver (predictor training).
        self._carve_records: List[DynamicInstruction] = []
        self._carve_dirs: List[bool] = []
        #: Memoised ground-truth live-outs per carved fragment, keyed by
        #: ``(key, length)``.  A carve's instruction path is fully
        #: determined by its start PC, direction bits and length (an
        #: indirect always terminates a carve), and ``LiveOutInfo`` is an
        #: immutable tuple, so replaying the memo is exact.  Off in the
        #: reference loop to keep it memo-free.
        self._liveout_memo: Optional[Dict] = {} if fast else None
        #: Live-out recovery policy, hoisted for the fast step.
        self._squash_mode = config.frontend.liveout_recovery == "squash"
        #: Whether the renamer exposes live-out misprediction queues
        #: (only :class:`ParallelRenamer` does), hoisted for the fast step.
        self._renamer_parallel = isinstance(self.renamer, ParallelRenamer)

    # -- construction ---------------------------------------------------------

    def _build_engine(self) -> FillEngine:
        fe = self.config.frontend
        if fe.fetch_kind == "w16":
            return SequentialFillEngine(self.program, self.memory,
                                        self.stats, width=fe.width)
        if fe.fetch_kind == "tc":
            # Keep an existing trace cache across restart_at() rebuilds —
            # its contents are warmed state, not transient pipeline state.
            if self.trace_cache is None:
                self.trace_cache = TraceCache(fe.trace_cache, self.stats)
            return TraceCacheFillEngine(self.program, self.memory,
                                        self.trace_cache, self.stats,
                                        width=fe.width)
        if fe.fetch_kind == "pf":
            return ParallelFillEngine(self.program, self.memory, self.stats,
                                      sequencers=fe.sequencers,
                                      sequencer_width=fe.sequencer_width)
        raise ConfigError(f"unknown fetch kind {fe.fetch_kind!r}")

    def _build_renamer(self):
        fe = self.config.frontend
        delay = self.config.backend.dispatch_latency
        if fe.rename_kind == "monolithic":
            return MonolithicRenamer(fe.width, self.core, self.stats,
                                     dispatch_delay=delay)
        return ParallelRenamer(
            fe.renamers, fe.renamer_width, self.core,
            self.liveout_predictor, self.stats,
            use_liveout_prediction=(fe.rename_kind == "parallel"),
            dispatch_delay=delay)

    # -- main loop ---------------------------------------------------------

    def run(self, max_cycles: Optional[int] = None) -> "Processor":
        """Simulate until the oracle stream is fully committed.

        Raises :class:`~repro.errors.DeadlockError` if the pipeline stops
        committing (livelock) and :class:`~repro.errors.InvariantError`
        if the opt-in per-cycle audits find inconsistent state.
        """
        # max_cycles=0 must mean "run zero cycles", not "use the default".
        limit = (len(self._oracle) * 30 + 20_000) if max_cycles is None \
            else max_cycles
        self._loop(limit, with_metrics=True)
        self.stamp_summary(timed_out=not self._done)
        if self.obs is not None:
            self.obs.finalize(self)
        return self

    # -- sampled-simulation seam (see repro.sampling) -----------------------

    def run_until(self, stop_at: int,
                  max_cycles: Optional[int] = None) -> bool:
        """Run the timed loop until *stop_at* oracle records have committed.

        The thin seam :mod:`repro.sampling` drives detailed measurement
        windows through: unlike :meth:`run` it neither finalises
        observability nor stamps the ``sim.*`` summary counters, so a
        window's counter deltas stay clean.  ``self.now`` keeps
        accumulating across windows.  A :class:`PhaseProfiler` attached
        via ``obs`` does stay live here, exactly as in :meth:`run`, so
        sampled-mode host time is attributable too; the metrics recorder
        stays idle so windows see no mid-window gauge work.  Returns
        True when the commit target was reached, False on hitting the
        cycle bound (the caller decides whether that poisons the sample).
        """
        self._stop_at = min(stop_at, len(self._oracle))
        if self._committed >= self._stop_at:
            self._done = True
            return True
        self._done = False
        budget = ((self._stop_at - self._committed) * 30 + 20_000
                  if max_cycles is None else max_cycles)
        self._loop(self.now + budget, with_metrics=False)
        return self._done

    def _loop(self, limit: int, with_metrics: bool) -> None:
        """Step until done or cycle *limit*, calling the attached
        per-cycle observers (metrics recorder, live telemetry, watchdog,
        invariant audits) after every cycle.  With a
        :class:`PhaseProfiler` attached, each phase of the tuple
        :meth:`step` runs is timed, and the observers as ``observe``."""
        obs = self.obs
        metrics = obs.metrics if obs is not None and with_metrics else None
        observers = [getattr(observer, method) for observer, method in (
            (metrics, "maybe_sample"), (self.live, "maybe_publish"),
            (self.watchdog, "observe"), (self.invariants, "check"))
            if observer is not None]
        profiler = obs.profiler if obs is not None else None
        if profiler is None:
            step = self.step
            while not self._done and self.now < limit:
                step()
                for observe in observers:
                    observe(self)
            return
        start, stop = profiler.start, profiler.stop
        phases = tuple(zip(PHASES, self._phases))
        while not self._done and self.now < limit:
            self.now += 1
            for name, phase in phases:
                t0 = start()
                phase()
                stop(name, t0)
            t0 = start()
            for observe in observers:
                observe(self)
            stop("observe", t0)

    def restart_at(self, index: int) -> None:
        """Restart timing from the architectural checkpoint at oracle
        record *index* (PC, retire index, clean speculative history).

        Rebuilds the *transient* pipeline state — in-flight fragments,
        buffers, fill engine, out-of-order core, renamer, RAS and
        front-end control — while deliberately keeping everything a long
        functional fast-forward would have left warm: predictors, caches,
        the trace cache and the decode cache.  ``self.now`` is not reset;
        callers measure cycle deltas.
        """
        if not 0 <= index < len(self._oracle):
            raise SimulationError(
                f"restart index {index} outside oracle stream "
                f"(0..{len(self._oracle) - 1})")
        self._oracle_pos = index
        self._diverged = False
        self._committed = index
        self._stop_at = len(self._oracle)
        self._done = False
        self._deferred_redirects = []
        self._pending_reexec = set()
        self._carve_records = []
        self._carve_dirs = []
        self.fragments = []
        fe = self.config.frontend
        self.buffers = FragmentBufferArray(fe.num_fragment_buffers,
                                           self.stats)
        self.ras = ReturnAddressStack()
        self.control = FrontEndControl(
            self.program, self.config.fragment, self.trace_predictor,
            self.ras, self.stats, self._oracle[index].pc,
            direction_fallback=self.bimodal.predict, fast=self.perf.fast)
        self.engine = self._build_engine()
        self.core = OutOfOrderCore(self.config.backend, self.memory,
                                   self.stats)
        self.renamer = self._build_renamer()
        # History registers: speculative history restarts clean (exactly
        # as after warming); retire history keeps its trained state.
        self.trace_predictor.restore_history(())

    def step(self) -> None:
        """Advance the processor by one cycle."""
        self.now += 1
        for phase in self._phases:
            phase()

    # -- execute stage -----------------------------------------------------

    def _execute(self) -> None:
        self._handle_completions(self.core.cycle(self.now))

    def _execute_soa(self) -> None:
        completed = self.core.cycle_soa(self.now)
        if completed or self._deferred_redirects:
            self._handle_completions(completed)

    # -- rename stage ------------------------------------------------------

    def _rename(self) -> None:
        renamed = self.renamer.cycle(self.now, self.fragments,
                                     self._make_uop)
        if renamed:
            wrong = sum(1 for u in renamed if u.record is None)
            if wrong:
                self.stats.add("rename.wrongpath_insts", wrong)
            self.core.dispatch(renamed, self.now)
        if self.config.frontend.liveout_recovery == "squash":
            mispredict = getattr(self.renamer,
                                 "pending_liveout_mispredict", None)
            if mispredict is not None:
                self._liveout_squash(mispredict)
        else:
            for mispredict in getattr(self.renamer,
                                      "pending_liveout_mispredicts", ()):
                self._pending_reexec.add(mispredict.seq)
        if self._pending_reexec:
            self._drain_pending_reexec()
        self._release_renamed_buffers()

    def _rename_soa(self) -> None:
        """Batched rename over the :mod:`repro.perf.soa` metadata, with
        the same observable effects as :meth:`_rename`."""
        renamed, wrong = self.renamer.cycle_soa(self.now, self.fragments)
        if renamed:
            if wrong:
                self.stats.add("rename.wrongpath_insts", wrong)
            # dispatch_ready_cycle was stamped in the rename build loop.
            self.core.queue_dispatched(renamed)
        if self._renamer_parallel:
            if self._squash_mode:
                mispredict = self.renamer.pending_liveout_mispredict
                if mispredict is not None:
                    self._liveout_squash(mispredict)
            else:
                for mispredict in self.renamer.pending_liveout_mispredicts:
                    self._pending_reexec.add(mispredict.seq)
        if self._pending_reexec:
            self._drain_pending_reexec()
        if self.renamer.finished_any:
            self._release_renamed_buffers()

    # -- fetch stage -------------------------------------------------------

    def _fetch(self) -> None:
        self.engine.cycle(self.now)
        if not self.engine.can_accept() or self.buffers.free_count() == 0:
            self.stats.add("frontend.alloc_blocked_cycles")
            return
        fragment = self.control.try_next_fragment()
        if fragment is None:
            return
        self._tagger(fragment)
        if not self.buffers.allocate(fragment, self.now):
            raise SimulationError("buffer allocation failed despite check")
        self.fragments.append(fragment)
        if self._tracer is not None:
            self._tracer.fragment_predicted(fragment, self.now)
        if fragment.reused:
            self.stats.add("fetch.reused_insts", fragment.static_frag.length)
        else:
            self.engine.accept(fragment)

    # -- oracle tagging ------------------------------------------------------

    def _tag_fragment(self, fragment: FragmentInFlight) -> None:
        """Bind fragment instructions to oracle records; detect divergence."""
        records: List[Optional[Tuple[DynamicInstruction, int]]] = []
        append = records.append
        oracle = self._oracle
        limit = len(oracle)
        pos = self._oracle_pos
        diverged = self._diverged
        for i, inst in enumerate(fragment.static_frag.instructions):
            if not diverged and pos < limit and oracle[pos].pc == inst.addr:
                append((oracle[pos], pos))
                pos += 1
            else:
                if not diverged:
                    self._oracle_pos = pos
                    self._mark_divergence(fragment, i, records)
                    diverged = True
                append(None)
        self._oracle_pos = pos
        fragment.records = records

    def _mark_divergence(self, fragment: FragmentInFlight, position: int,
                         records: List) -> None:
        self._diverged = True
        if self._oracle_pos >= len(self._oracle):
            return  # end of simulated stream, not a misprediction
        if position > 0:
            source_frag, source_pos = fragment, position - 1
            source_entry = records[position - 1]
        else:
            if not self.fragments:
                raise SimulationError("divergence with no prior fragment")
            source_frag = self.fragments[-1]
            source_pos = len(source_frag.records) - 1
            source_entry = source_frag.records[source_pos]
            if source_entry is None:  # pragma: no cover - defensive
                raise SimulationError("divergence source on wrong path")
        target = source_entry[0].next_pc
        source_frag.mispredict_position = source_pos
        source_frag.mispredict_target = target
        self.stats.add("frontend.control_mispredicts")
        source_inst = source_frag.static_frag.instructions[source_pos]
        if source_inst.is_cond_branch:
            self.stats.add("frontend.mispredict_direction")
        elif source_inst.is_return:
            self.stats.add("frontend.mispredict_return")
        elif source_inst.is_indirect:
            self.stats.add("frontend.mispredict_indirect")
        else:
            self.stats.add("frontend.mispredict_other")
        if source_pos < len(source_frag.uops):
            uop = source_frag.uops[source_pos]
            uop.redirect_target = target
            if uop.state in (UopState.DONE, UopState.COMMITTED):
                self._deferred_redirects.append(uop)

    def _tag_fragment_soa(self, fragment: FragmentInFlight) -> None:
        """Fast-step tagging: one slice comparison against the flat oracle
        PC array covers the fragment's overwhelmingly common case (on
        the correct path, fully matched); anything else — divergence,
        stream end, an already-wrong path — falls back to the reference
        walk, which starts from the same untouched ``_oracle_pos``."""
        soa = self._soa
        assert soa is not None
        meta = soa.meta_for(fragment.static_frag)
        fragment.soa_meta = meta
        n = len(meta.pcs)
        if self._diverged:
            fragment.records = [None] * n
            return
        pos = self._oracle_pos
        end = pos + n
        if end <= len(soa.oracle_pcs) \
                and soa.oracle_pcs[pos:end] == meta.pcs:
            fragment.records = list(zip(self._oracle[pos:end],
                                        range(pos, end)))
            self._oracle_pos = end
            return
        self._tag_fragment(fragment)

    def prewarm_fragment_key(self, key: FragmentKey) -> None:
        """Pre-populate the pure per-fragment caches for one carved key.

        Called by functional warming (:mod:`repro.core.warming`) once
        per carved fragment: the walk caches, decode cache, SoA metadata
        and fetch chunk tables are all keyed pure functions, so building
        them before the first timed cycle changes no simulation result —
        it only moves steady-state cache construction out of the timed
        region, the same rationale as warming the predictors themselves.
        No-op in the reference loop (it has no caches).
        """
        if self._soa is None:
            return
        static = self.control.prewarm(key.start_pc, key.directions)
        meta = self._soa.meta_for(static)
        self.engine.prewarm_chunks(meta, static.traversed_pcs)

    # -- rename support (reference loop) ----------------------------------

    def _make_uop(self, fragment: FragmentInFlight,
                  position: int) -> MicroOp:
        inst = fragment.static_frag.instructions[position]
        entry = (fragment.records[position]
                 if position < len(fragment.records) else None)
        record = entry[0] if entry is not None else None
        uop = MicroOp(seq=(fragment.seq << 8) | position, inst=inst,
                      pc=inst.addr, fragment_seq=fragment.seq,
                      position=position, record=record)
        uop.renamed_cycle = self.now
        if entry is not None:
            uop.oracle_idx = entry[1]
        if (fragment.mispredict_position == position
                and fragment.mispredict_target is not None):
            uop.redirect_target = fragment.mispredict_target
        return uop

    def _release_renamed_buffers(self) -> None:
        for fragment in self.fragments:
            if fragment.rename_done and fragment.buffer_index is not None:
                self.buffers.release(fragment, self.now, retain=True)

    # -- completion / misprediction handling --------------------------------

    def _handle_completions(self, completed: List[MicroOp]) -> None:
        redirect_uop: Optional[MicroOp] = None
        for uop in self._deferred_redirects:
            if uop.state is not UopState.SQUASHED \
                    and uop.redirect_target is not None:
                if redirect_uop is None or uop.seq < redirect_uop.seq:
                    redirect_uop = uop
        self._deferred_redirects = []

        for uop in completed:
            if uop.record is None:
                continue  # wrong-path completion: no architectural effect
            if uop.redirect_target is not None:
                if redirect_uop is None or uop.seq < redirect_uop.seq:
                    redirect_uop = uop
            elif uop.inst.is_indirect:
                self._maybe_resolve_indirect(uop)

        if redirect_uop is not None:
            self._recover(redirect_uop)

    def _maybe_resolve_indirect(self, uop: MicroOp) -> None:
        """A correctly-fetched indirect completed; if fetch is stalled
        waiting for its target, supply it (no squash needed)."""
        if not self.fragments:
            return
        youngest = self.fragments[-1]
        if youngest.seq != uop.fragment_seq:
            return
        if uop.position != youngest.length - 1:
            return
        assert uop.record is not None
        self.control.redirect(uop.record.next_pc)
        self.stats.add("frontend.indirect_resolutions")

    def _recover(self, uop: MicroOp) -> None:
        """Control-misprediction recovery: truncate the source fragment,
        squash everything younger, restore front-end checkpoints."""
        fragment = self._fragment_by_seq(uop.fragment_seq)
        if fragment is None or fragment.squashed:
            uop.redirect_target = None
            return
        position = uop.position
        target = uop.redirect_target
        uop.redirect_target = None
        self.stats.add("frontend.recoveries")
        if self._tracer is not None:
            self._tracer.recovery(fragment, position, target, self.now)

        # Truncate the source fragment after the mispredicted instruction.
        for younger in fragment.uops[position + 1:]:
            younger.state = UopState.SQUASHED
        fragment.uops = fragment.uops[:position + 1]
        fragment.truncated_at = position + 1
        fragment.read_count = position + 1
        fragment.complete = True
        if fragment.construct_cycle < 0:
            fragment.construct_cycle = self.now
        fragment.rename_done = True
        if fragment.rename_done_cycle < 0:
            fragment.rename_done_cycle = self.now
        fragment.internal_writers = {}
        for survivor in fragment.uops:
            dest = survivor.inst.dest_reg()
            if dest is not None and dest != ZERO_REG:
                fragment.internal_writers[dest] = survivor
        if fragment.incoming_map is not None:
            outgoing = dict(fragment.incoming_map)
            outgoing.update(fragment.internal_writers)
            fragment.outgoing_actual = outgoing
        for placeholder in fragment.placeholders.values():
            placeholder.invalidated = True
        uncommitted = fragment.truncated_at - fragment.committed_count
        self.core.set_reservation(fragment.seq, max(0, uncommitted))

        # Squash all younger fragments.
        survivors: List[FragmentInFlight] = []
        for candidate in self.fragments:
            if candidate.seq > fragment.seq:
                self._squash_fragment(candidate)
            else:
                survivors.append(candidate)
        self.fragments = survivors

        self.engine.squash()
        self.renamer.rebuild(self.fragments)
        self.core.drop_squashed_dispatch()
        self.buffers.release(fragment, self.now, retain=False)

        self.control.redirect(target, fragment=fragment,
                              valid_prefix=position + 1)
        # Keep speculative path history aligned with the retired fragment
        # sequence: the truncated fragment (with its *actual* direction
        # bits) is what retire-side training will see next.
        truncated_dirs = tuple(
            entry[0].taken for entry in fragment.records[:position + 1]
            if entry is not None and entry[0].inst.is_cond_branch)
        self.trace_predictor.push_history(
            FragmentKey(fragment.key.start_pc, truncated_dirs))
        self._oracle_pos = uop.oracle_idx + 1
        self._diverged = False
        self._deferred_redirects = []

    def _squash_fragment(self, fragment: FragmentInFlight) -> None:
        fragment.squashed = True
        for uop in fragment.uops:
            uop.state = UopState.SQUASHED
        for placeholder in fragment.placeholders.values():
            placeholder.invalidated = True
        self.core.release_all(fragment.seq)
        self.buffers.release(fragment, self.now,
                             retain=fragment.complete
                             and fragment.truncated_at is None)
        self.stats.add("frontend.fragments_squashed")
        if self._tracer is not None:
            self._tracer.fragment_squashed(fragment, self.now)

    def _liveout_squash(self, fragment: FragmentInFlight) -> None:
        """Live-out misprediction: younger fragments re-rename from their
        buffers (Section 4.3 — "all future fragments are squashed")."""
        self.stats.add("rename.liveout_squashes")
        if self._tracer is not None:
            self._tracer.liveout_mispredict(fragment, self.now, "squash")
        for candidate in self.fragments:
            if candidate.seq <= fragment.seq or candidate.squashed:
                continue
            for uop in candidate.uops:
                uop.state = UopState.SQUASHED
            self.core.release_all(candidate.seq)
            if candidate.buffer_index is None and candidate.read_count:
                # Buffer already released; hardware would refetch.  The
                # contents are still architecturally identical, so we model
                # the re-rename and count the event.
                self.stats.add("rename.liveout_squash_refetches")
            candidate.reset_rename()
        self.renamer.rebuild(self.fragments)
        self.core.drop_squashed_dispatch()

    # -- selective re-execution (Section 4.3's alternative) ----------------

    def _drain_pending_reexec(self) -> None:
        """Apply re-execution fix-ups for mispredicted fragments whose
        rename has completed (their actual mappings are now known)."""
        ready = []
        for fragment in self.fragments:
            if fragment.seq in self._pending_reexec and fragment.rename_done:
                ready.append(fragment)
        for fragment in ready:
            self._pending_reexec.discard(fragment.seq)
            self._liveout_reexecute(fragment)
        # Squashed/retired fragments no longer need fix-up.
        live = {f.seq for f in self.fragments}
        self._pending_reexec &= live

    def _liveout_reexecute(self, fragment: FragmentInFlight) -> None:
        """Selectively repair the renames that used *fragment*'s wrong
        live-out predictions and re-execute only the affected uops.

        Replays the architecturally-correct register maps forward from the
        fragment's actual outgoing map through every younger fragment,
        relinking each existing uop's sources.  Any uop whose sources
        changed — or which transitively consumes one that did — is reset
        and re-dispatched (paying the dispatch/issue pipeline again, the
        cost of selective re-execution).
        """
        self.stats.add("rename.liveout_reexec_events")
        if self._tracer is not None:
            self._tracer.liveout_mispredict(fragment, self.now, "reexecute")
        map_state: dict = dict(fragment.outgoing_actual or {})

        # Rebind the fragment's placeholders to the true final producers
        # so future (not-yet-renamed) consumers resolve correctly.
        for reg, placeholder in fragment.placeholders.items():
            actual = map_state.get(reg)
            if actual is None:
                self.core.bind_placeholder(placeholder, ready=True)
            elif placeholder.producer is not actual:
                self.core.bind_placeholder(placeholder, producer=actual)
        fragment.liveout_mispredicted = False

        dirty: set = set()
        to_redispatch: List[MicroOp] = []
        for younger in self.fragments:
            if younger.seq <= fragment.seq or younger.squashed:
                continue
            incoming_snapshot = dict(map_state)
            if younger.incoming_map is not None:
                younger.incoming_map.clear()
                younger.incoming_map.update(incoming_snapshot)
            writers: dict = {}
            for uop in younger.uops:
                if uop.state is UopState.SQUASHED:
                    continue
                correct_sources = []
                for src in uop.inst.src_regs():
                    if src == ZERO_REG:
                        continue
                    producer = writers.get(src)
                    if producer is None:
                        producer = incoming_snapshot.get(src)
                    if producer is not None:
                        correct_sources.append(producer)
                is_dirty = correct_sources != uop.sources or any(
                    self._resolves_to_dirty(src, dirty)
                    for src in correct_sources)
                if is_dirty:
                    dirty.add(id(uop))
                    uop.sources = correct_sources
                    if uop.state is not UopState.RENAMED:
                        uop.state = UopState.RENAMED
                        uop.pending = 0
                        uop.consumers = []
                        to_redispatch.append(uop)
                dest = uop.inst.dest_reg()
                if dest is not None and dest != ZERO_REG:
                    writers[dest] = uop
            # Advance the map past this fragment: its own predicted
            # live-outs stay represented by its placeholders (they bind as
            # it renames); everything else by its writers so far.
            for reg, writer in writers.items():
                if reg not in younger.placeholders:
                    map_state[reg] = writer
            for reg, placeholder in younger.placeholders.items():
                if not placeholder.invalidated:
                    map_state[reg] = placeholder
            if younger.rename_done:
                # outgoing_actual must reflect the corrected maps.
                outgoing = dict(incoming_snapshot)
                outgoing.update(younger.internal_writers)
                younger.outgoing_actual = outgoing

        if to_redispatch:
            self.stats.add("rename.reexecuted_uops", len(to_redispatch))
            self.core.dispatch(to_redispatch, self.now)

    @staticmethod
    def _resolves_to_dirty(source, dirty: set) -> bool:
        node = source
        while isinstance(node, PlaceholderProducer):
            if node.producer is None:
                return False
            node = node.producer
        return id(node) in dirty

    def _fragment_by_seq(self, seq: int) -> Optional[FragmentInFlight]:
        for fragment in self.fragments:
            if fragment.seq == seq:
                return fragment
        return None

    # -- commit stage ------------------------------------------------------

    def _commit(self) -> None:
        budget = self.config.backend.commit_width
        committed = 0
        while budget > 0 and self.fragments:
            fragment = self.fragments[0]
            limit = fragment.length
            if fragment.committed_count >= limit and fragment.rename_done:
                self._retire_fragment(fragment)
                continue
            position = fragment.committed_count
            if position >= len(fragment.uops):
                break
            uop = fragment.uops[position]
            if uop.state is not UopState.DONE:
                break
            if uop.record is None:  # pragma: no cover - invariant
                raise SimulationError("attempted to commit wrong-path uop")
            uop.state = UopState.COMMITTED
            uop.commit_cycle = self.now
            if self.uop_log is not None:
                self.uop_log.append(uop)
            self.core.release(fragment.seq, 1)
            fragment.committed_count += 1
            self._committed += 1
            budget -= 1
            committed += 1
            self._carve_feed(uop.record)
            if (fragment.truncated_at is not None
                    and fragment.committed_count == fragment.truncated_at):
                # A control misprediction truncated this fragment here; the
                # fill/carve sequence restarts at the corrected PC, so the
                # partial fragment is finalised as its own trace to keep
                # predictor training aligned with what fetch sees.
                self._carve_flush()
            if self._committed >= self._stop_at:
                self._done = True
                break
        if committed:
            self.stats.add("commit.insts", committed)

    def _commit_soa(self) -> None:
        """Fast-step commit: stamp each contiguous run of DONE uops in one
        batch and release its window slots with a single call.

        Equivalent to :meth:`_commit` because (a) ``release(seq, k)``
        clamps exactly like k single releases, (b) the carver only
        consumes records in order, and (c) a truncated fragment's flush
        point is always its last uop, so it can only land at a batch end.
        """
        budget = self.config.backend.commit_width
        committed = 0
        now = self.now
        uop_log = self.uop_log
        frag_cfg = self.config.fragment
        cond_limit = frag_cfg.cond_branch_limit
        max_len = frag_cfg.max_length
        bimodal_train = self.bimodal.train
        done_state = UopState.DONE
        committed_state = UopState.COMMITTED
        while budget > 0 and self.fragments:
            fragment = self.fragments[0]
            limit = fragment.length
            pos = fragment.committed_count
            if pos >= limit and fragment.rename_done:
                self._retire_fragment(fragment)
                continue
            uops = fragment.uops
            end = pos + budget
            if end > len(uops):
                end = len(uops)
            remaining = self._stop_at - self._committed
            if end - pos > remaining:
                end = pos + remaining
            # One fused pass: scan for DONE and commit in the same loop
            # (the pre-scan and the processing loop walked the identical
            # contiguous run).  Carve state is kept in locals and only
            # re-fetched after a flush rebinds the lists.
            take = 0
            carve_records = self._carve_records
            carve_dirs = self._carve_dirs
            for i in range(pos, end):
                uop = uops[i]
                if uop.state is not done_state:
                    break
                record = uop.record
                if record is None:  # pragma: no cover - invariant
                    raise SimulationError(
                        "attempted to commit wrong-path uop")
                uop.state = committed_state
                uop.commit_cycle = now
                if uop_log is not None:
                    uop_log.append(uop)
                carve_records.append(record)
                inst = record.inst
                if inst.is_cond_branch:
                    carve_dirs.append(record.taken)
                    bimodal_train(record.pc, record.taken)
                # Inlined should_terminate predicate (HALT / INDIRECT /
                # COND_LIMIT / MAX_LENGTH, reason discarded).
                n = len(carve_records)
                if (inst.is_halt or inst.is_indirect
                        or (inst.is_cond_branch and n > cond_limit)
                        or n >= max_len):
                    self._carve_flush()
                    carve_records = self._carve_records
                    carve_dirs = self._carve_dirs
                take += 1
            if take == 0:
                break
            self.core.release(fragment.seq, take)
            fragment.committed_count = pos + take
            self._committed += take
            budget -= take
            committed += take
            if (fragment.truncated_at is not None
                    and fragment.committed_count == fragment.truncated_at):
                self._carve_flush()
            if self._committed >= self._stop_at:
                self._done = True
                break
            if pos + take < end:
                break  # hit a not-yet-DONE uop mid-batch
        if committed:
            self.stats.add("commit.insts", committed)

    def _retire_fragment(self, fragment: FragmentInFlight) -> None:
        self.fragments.pop(0)
        self.core.set_reservation(fragment.seq, 0)
        if isinstance(self.renamer, ParallelRenamer):
            self.renamer.retire_fragment(fragment)
        if fragment.buffer_index is not None:
            self.buffers.release(fragment, self.now, retain=True)
        self.stats.add("commit.fragments")
        if self._tracer is not None:
            self._tracer.fragment_retired(fragment, self.now)

    # -- commit-side carver (predictor training) ----------------------------

    def _carve_feed(self, record: DynamicInstruction) -> None:
        self._carve_records.append(record)
        if record.inst.is_cond_branch:
            self._carve_dirs.append(record.taken)
            self.bimodal.train(record.pc, record.taken)
        reason = should_terminate(record.inst, len(self._carve_records),
                                  self.config.fragment)
        if reason is not None:
            self._carve_flush()

    def _carve_flush(self) -> None:
        """Finalise the in-progress retired fragment and train predictors."""
        if not self._carve_records:
            return
        records = self._carve_records
        key = FragmentKey(records[0].pc, tuple(self._carve_dirs))
        self.trace_predictor.train(key)
        memo = self._liveout_memo
        if memo is None:
            info = compute_liveouts([r.inst for r in records])
        else:
            memo_key = (key, len(records))
            info = memo.get(memo_key)
            if info is None:
                if len(memo) >= 8192:
                    memo.clear()
                info = compute_liveouts([r.inst for r in records])
                memo[memo_key] = info
        self.liveout_predictor.train(key, info)
        self.stats.add("commit.trained_fragments")
        self._carve_records = []
        self._carve_dirs = []

    # -- results -----------------------------------------------------------

    @property
    def finished(self) -> bool:
        """Whether the timed run has reached its stop condition."""
        return self._done

    @property
    def committed(self) -> int:
        """Architecturally committed instructions so far."""
        return self._committed

    @property
    def stream_length(self) -> int:
        """Total oracle records to commit (NOPs already eliminated)."""
        return len(self._oracle)

    def stamp_summary(self, timed_out: bool = False) -> None:
        """Stamp the ``sim.*`` summary counters.

        Factored out of :meth:`run` so drivers that steer the loop
        through :meth:`run_until` segments (checkpointed runs, see
        :mod:`repro.checkpoint`) finish with the same counter contract.
        """
        if timed_out:
            self.stats.set("sim.timeout", 1)
        self.stats.set("sim.cycles", self.now)
        self.stats.set("sim.committed", self._committed)

    def adopt_warm_state(self, donor) -> None:
        """Adopt every *warm* structure from a duck-typed donor.

        The donor exposes ``bimodal``, ``trace_predictor``,
        ``liveout_predictor``, ``memory`` (or bare ``l1i``/``l1d``/``l2``
        caches) and ``trace_cache``; each structure's ``adopt_state``
        enforces geometry equality.  This is the single seam both warm-
        snapshot cloning (:mod:`repro.sampling.prep`) and checkpoint
        restore (:mod:`repro.checkpoint`) go through.  Transient pipeline
        state is untouched — callers pair this with :meth:`restart_at`.
        """
        self.bimodal.adopt_state(donor.bimodal)
        self.trace_predictor.adopt_state(donor.trace_predictor)
        self.liveout_predictor.adopt_state(donor.liveout_predictor)
        memory = getattr(donor, "memory", donor)
        self.memory.l1i.adopt_state(memory.l1i)
        self.memory.l1d.adopt_state(memory.l1d)
        self.memory.l2.adopt_state(memory.l2)
        if self.trace_cache is not None:
            self.trace_cache.adopt_state(donor.trace_cache)
