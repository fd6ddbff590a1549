"""Monolithic (sequential) rename.

One rename unit processes the in-order instruction stream up to ``width``
instructions per cycle.  Because the stream must be consumed in order, the
renamer cannot proceed past the oldest fragment's unfetched instructions —
the serialization Section 3.4 identifies as the limiter of parallel fetch
with a sequential rename stage.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.uop import MicroOp, UopState
from repro.frontend.buffers import FragmentInFlight
from repro.isa.registers import NUM_ARCH_REGS
from repro.rename.base import MakeUop, dest_of, source_regs
from repro.stats import StatsCollector


class MonolithicRenamer:
    """A single ``width``-wide in-order rename unit."""

    def __init__(self, width: int, window, stats: StatsCollector,
                 dispatch_delay: int = 1):
        self.width = width
        self.window = window
        self.stats = stats
        #: Backend dispatch-pipeline latency, so the fast-step batch loop
        #: can stamp ``dispatch_ready_cycle`` at build time and hand the
        #: whole batch to the core in one extend.
        self.dispatch_delay = dispatch_delay
        #: Running architectural-to-producer map, indexed by architectural
        #: register number (array-backed: rename probes it once per source
        #: operand, and a list index is markedly cheaper than a dict probe
        #: on that path).  ``None`` means the register reads architectural
        #: state.
        self._map: List[Optional[MicroOp]] = [None] * NUM_ARCH_REGS
        #: Whether this cycle finished any fragment's rename — lets the
        #: SoA step skip the buffer-release scan on cycles where nothing
        #: can have become releasable.
        self.finished_any = False

    def cycle(self, now: int, fragments: List[FragmentInFlight],
              make_uop: MakeUop) -> List[MicroOp]:
        """Rename up to ``width`` instructions in program order."""
        budget = self.width
        renamed: List[MicroOp] = []
        reg_map = self._map
        for fragment in fragments:
            if budget <= 0:
                break
            if fragment.squashed or fragment.rename_done:
                continue
            # Fetch and truncation state cannot change inside this cycle
            # (fetch runs after rename in Processor.step), so the number
            # of renameable instructions is computed once per fragment.
            available = fragment.renameable_count()
            if fragment.rename_started_cycle < 0 and available:
                fragment.rename_started_cycle = now
                self._note_construction(fragment)
            while budget > 0 and available > 0:
                if not self.window.reserve_single(fragment.seq):
                    # NB: deliberately skips the rename.insts accounting
                    # below, faithful to the original stall behaviour.
                    self.stats.add("rename.window_stalls")
                    return renamed
                uop = make_uop(fragment, fragment.read_count)
                sources = uop.sources
                for src in source_regs(uop):
                    producer = reg_map[src]
                    if producer is not None:
                        sources.append(producer)
                dest = dest_of(uop)
                if dest is not None:
                    reg_map[dest] = uop
                    fragment.internal_writers[dest] = uop
                fragment.read_count += 1
                fragment.uops.append(uop)
                renamed.append(uop)
                budget -= 1
                available -= 1
            if fragment.read_count >= fragment.length:
                fragment.rename_done = True
                fragment.rename_done_cycle = now
                continue
            # In-order rename cannot skip past unfetched instructions.
            break
        self.stats.add("rename.insts", len(renamed))
        return renamed

    def cycle_soa(self, now: int,
                  fragments: List[FragmentInFlight]) -> tuple:
        """Fast-step batched twin of :meth:`cycle`;
        returns ``(renamed, wrongpath_count)``.

        One window reservation and one tight loop per fragment batch:
        uops are built directly from the fragment's precomputed
        :class:`~repro.perf.soa.FragMeta` arrays instead of through the
        per-uop ``make_uop`` callback.  Stall semantics match the
        reference bit for bit: a cycle that fills the window renames
        what fits, counts one ``rename.window_stalls`` and skips the
        ``rename.insts`` accounting, exactly like the per-uop loop.
        """
        budget = self.width
        renamed: List[MicroOp] = []
        wrong = 0
        self.finished_any = False
        reg_map = self._map
        window = self.window
        renamed_state = UopState.RENAMED
        dispatch_ready = now + self.dispatch_delay
        for fragment in fragments:
            if budget <= 0:
                break
            if fragment.squashed or fragment.rename_done:
                continue
            available = fragment.renameable_count()
            if fragment.rename_started_cycle < 0 and available:
                fragment.rename_started_cycle = now
                self._note_construction(fragment)
            stalled = False
            if available:
                take = budget if budget < available else available
                free = window.window_free
                if take > free:
                    take = free
                    stalled = True
                if take:
                    window.reserve(take, fragment.seq)
                    meta = fragment.soa_meta
                    insts = meta.insts
                    pcs, dec_l = meta.pcs, meta.decoded
                    srcs_l, dest_l = meta.srcs, meta.dest
                    records = fragment.records
                    rec_len = len(records)
                    uops = fragment.uops
                    writers = fragment.internal_writers
                    fseq = fragment.seq
                    seq_base = fseq << 8
                    m_target = fragment.mispredict_target
                    m_pos = (fragment.mispredict_position
                             if m_target is not None else None)
                    start = fragment.read_count
                    for p in range(start, start + take):
                        uop = MicroOp.__new__(MicroOp)
                        uop.seq = seq_base | p
                        uop.inst = insts[p]
                        uop.pc = pcs[p]
                        uop.fragment_seq = fseq
                        uop.position = p
                        entry = records[p] if p < rec_len else None
                        if entry is not None:
                            uop.record = entry[0]
                            uop.oracle_idx = entry[1]
                        else:
                            uop.record = None
                            uop.oracle_idx = -1
                            wrong += 1
                        uop.decoded = dec_l[p]
                        uop.state = renamed_state
                        sources: List[MicroOp] = []
                        uop.sources = sources
                        uop.complete_cycle = -1
                        uop.renamed_cycle = now
                        uop.dispatch_ready_cycle = dispatch_ready
                        uop.consumers = []
                        uop.pending = 0
                        uop.redirect_target = (m_target if p == m_pos
                                               else None)
                        uop.issue_cycle = -1
                        uop.commit_cycle = -1
                        for src in srcs_l[p]:
                            producer = reg_map[src]
                            if producer is not None:
                                sources.append(producer)
                        dest = dest_l[p]
                        if dest is not None:
                            reg_map[dest] = uop
                            writers[dest] = uop
                        uops.append(uop)
                        renamed.append(uop)
                    fragment.read_count = start + take
                    budget -= take
            if stalled:
                # NB: skips the rename.insts accounting below, faithful
                # to the reference stall behaviour.
                self.stats.add("rename.window_stalls")
                return renamed, wrong
            if fragment.read_count >= fragment.length:
                fragment.rename_done = True
                fragment.rename_done_cycle = now
                self.finished_any = True
                continue
            # In-order rename cannot skip past unfetched instructions.
            break
        self.stats.add("rename.insts", len(renamed))
        return renamed, wrong

    def _note_construction(self, fragment: FragmentInFlight) -> None:
        """Section 3.3 statistic: was the fragment fully constructed by the
        time rename first touched it?"""
        self.stats.add("rename.fragments_started")
        if fragment.complete:
            self.stats.add("rename.fragments_preconstructed")

    def rebuild(self, fragments: List[FragmentInFlight]) -> None:
        """Rebuild the map from surviving uops after a squash."""
        reg_map = self._map = [None] * NUM_ARCH_REGS
        for fragment in fragments:
            if fragment.squashed:
                continue
            for uop in fragment.uops:
                dest = dest_of(uop)
                if dest is not None:
                    reg_map[dest] = uop
