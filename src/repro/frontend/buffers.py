"""Fragment buffers and in-flight fragment state (Section 3.2).

A :class:`FragmentInFlight` tracks one predicted fragment from allocation
through fetch, rename and commit.  The :class:`FragmentBufferArray` models
the 16-entry storage array: each buffer holds one fragment's instructions
while it is fetched and renamed, and *retains* its contents after being
freed so that a recurring fragment can be reused without touching the
instruction cache — the "very small trace cache with a powerful parallel
fill mechanism" of Section 3.2.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.uop import MicroOp, PlaceholderProducer
from repro.frontend.fragments import FragmentKey, StaticFragment
from repro.predictors.liveout import LiveOutInfo
from repro.predictors.return_stack import RasSnapshot
from repro.predictors.trace_predictor import HistorySnapshot
from repro.stats import StatsCollector


class FragmentInFlight:
    """One fragment's journey through the pipeline."""

    __slots__ = (
        "seq", "key", "static_frag", "buffer_index",
        "fetched_count", "fetch_cursor", "complete", "construct_cycle",
        "fetch_stall_until", "fetch_pending_line",
        "read_count", "rename_started_cycle", "rename_done",
        "phase1_done", "phase1_cycle", "incoming_map", "placeholders",
        "liveout_prediction", "liveout_mispredicted", "internal_writers",
        "window_reserved", "uops", "squashed", "truncated_at",
        "history_snapshot", "ras_snapshot", "reused", "stalled_for_indirect",
        "outgoing_predicted", "outgoing_actual",
        "mispredict_position", "mispredict_target",
        "committed_count", "records",
        "alloc_cycle", "fetch_start_cycle", "fetch_sequencer",
        "rename_done_cycle", "_static_len", "soa_meta",
    )

    def __init__(self, seq: int, key: FragmentKey,
                 static_frag: StaticFragment,
                 history_snapshot: HistorySnapshot,
                 ras_snapshot: RasSnapshot):
        self.seq = seq
        self.key = key
        self.static_frag = static_frag
        #: ``len(static_frag.instructions)``, snapshotted: length checks
        #: run several times per instruction on the rename hot path.
        self._static_len = len(static_frag.instructions)
        #: Fast-step batched metadata (:class:`repro.perf.soa.FragMeta`),
        #: attached by the processor's SoA tagger; None in the reference
        #: loop.
        self.soa_meta = None
        self.buffer_index: Optional[int] = None

        # Fetch progress.
        self.fetched_count = 0            # non-NOP instructions fetched
        self.fetch_cursor = 0             # index into traversed_pcs
        self.complete = False
        self.construct_cycle = -1         # cycle fetch completed
        self.reused = False
        # Lifecycle stamps (observability; -1 = never happened).
        self.alloc_cycle = -1             # cycle a buffer was allocated
        self.fetch_start_cycle = -1       # cycle fetch first touched it
        self.fetch_sequencer = -1         # sequencer that fetched it
        self.rename_done_cycle = -1       # cycle rename completed
        #: Cycle until which fetch of this fragment waits on a cache miss.
        self.fetch_stall_until = -1
        #: Line address of the outstanding miss; when the wait ends the
        #: returned data is consumed directly (fill bypass) even if the
        #: line has been evicted again meanwhile.
        self.fetch_pending_line = -1

        # Rename progress.
        self.read_count = 0               # instructions renamed so far
        self.rename_started_cycle = -1
        self.rename_done = False
        self.phase1_done = False
        self.phase1_cycle = -1
        self.incoming_map: Optional[Dict[int, object]] = None
        self.placeholders: Dict[int, PlaceholderProducer] = {}
        self.liveout_prediction: Optional[LiveOutInfo] = None
        self.liveout_mispredicted = False
        #: arch reg -> last MicroOp in this fragment writing it (actual).
        self.internal_writers: Dict[int, MicroOp] = {}
        self.window_reserved = False

        self.uops: List[MicroOp] = []
        self.squashed = False
        #: When a control misprediction truncates this fragment, the
        #: number of instructions that remain architecturally valid.
        self.truncated_at: Optional[int] = None

        self.history_snapshot = history_snapshot
        self.ras_snapshot = ras_snapshot
        self.stalled_for_indirect = False

        #: Cross-fragment register maps produced by parallel rename.
        self.outgoing_predicted: Optional[Dict[int, object]] = None
        self.outgoing_actual: Optional[Dict[int, object]] = None

        #: Filled in by oracle tagging when a control misprediction is
        #: discovered at this fragment's ``mispredict_position``: when the
        #: uop at that position executes, fetch redirects to
        #: ``mispredict_target``.
        self.mispredict_position: Optional[int] = None
        self.mispredict_target: Optional[int] = None

        #: Oracle records per instruction position (None = wrong path);
        #: assigned by the processor when the fragment is created.
        self.records: List[object] = []
        #: Number of this fragment's uops that have committed.
        self.committed_count = 0

    @property
    def length(self) -> int:
        """Fragment length in non-NOP instructions."""
        truncated = self.truncated_at
        return self._static_len if truncated is None else truncated

    @property
    def fully_renamed(self) -> bool:
        """Whether every instruction has been renamed."""
        return self.rename_done

    def renameable_count(self) -> int:
        """Instructions fetched but not yet renamed."""
        truncated = self.truncated_at
        limit = self._static_len if truncated is None else truncated
        fetched = self.fetched_count
        if fetched < limit:
            limit = fetched
        return limit - self.read_count

    def reset_rename(self) -> None:
        """Discard rename progress (live-out misprediction recovery)."""
        self.read_count = 0
        self.rename_started_cycle = -1
        self.rename_done = False
        self.rename_done_cycle = -1
        self.phase1_done = False
        self.phase1_cycle = -1
        self.incoming_map = None
        for placeholder in self.placeholders.values():
            placeholder.invalidated = True
        self.placeholders = {}
        self.liveout_mispredicted = False
        self.internal_writers = {}
        self.uops = []
        self.outgoing_predicted = None
        self.outgoing_actual = None
        self.window_reserved = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<frag#{self.seq} {self.key} fetched={self.fetched_count}"
                f"/{self.static_frag.length} read={self.read_count}>")


class _Buffer:
    """One storage slot of the fragment buffer array."""

    __slots__ = ("index", "occupant", "retained_key", "retained_frag",
                 "free_time")

    def __init__(self, index: int):
        self.index = index
        self.occupant: Optional[FragmentInFlight] = None
        #: Contents retained after free, for reuse (Section 3.2).
        self.retained_key: Optional[FragmentKey] = None
        self.retained_frag: Optional[StaticFragment] = None
        self.free_time = -1


class FragmentBufferArray:
    """The array of fragment buffers shared by all fill mechanisms."""

    def __init__(self, num_buffers: int, stats: StatsCollector):
        self.stats = stats
        self._buffers = [_Buffer(i) for i in range(num_buffers)]
        #: Count of unoccupied buffers — maintained by allocate/release
        #: (the only occupant writers) so the per-cycle fetch gate is O(1).
        self._free = num_buffers

    def free_count(self) -> int:
        """Buffers without an occupant."""
        return self._free

    def occupied_count(self) -> int:
        """Buffers currently holding an in-flight fragment."""
        return len(self._buffers) - self._free

    def allocate(self, fragment: FragmentInFlight, now: int) -> bool:
        """Assign a buffer to *fragment*; returns False when all are busy.

        If a free buffer retains the same fragment key, its contents are
        reused: the fragment is complete immediately and needs no fetch.
        """
        if not self._free:
            self.stats.add("fragbuf.alloc_stalls")
            return False

        # One pass: first free buffer retaining this key wins; otherwise
        # the free buffer freed longest ago (earliest free_time, first in
        # buffer order on ties), preserving recently retired fragments
        # for reuse.
        key = fragment.key
        reuse = None
        oldest = None
        oldest_time = 0
        for b in self._buffers:
            if b.occupant is not None:
                continue
            if b.retained_key == key:
                reuse = b
                break
            if oldest is None or b.free_time < oldest_time:
                oldest = b
                oldest_time = b.free_time
        if reuse is not None:
            buffer = reuse
            fragment.reused = True
            fragment.fetched_count = fragment.static_frag.length
            fragment.fetch_cursor = len(fragment.static_frag.traversed_pcs)
            fragment.complete = True
            fragment.construct_cycle = now
            fragment.fetch_start_cycle = now
            self.stats.add("fragbuf.reuses")
        else:
            buffer = oldest
        buffer.occupant = fragment
        self._free -= 1
        buffer.retained_key = None
        buffer.retained_frag = None
        fragment.buffer_index = buffer.index
        fragment.alloc_cycle = now
        self.stats.add("fragbuf.allocations")
        return True

    def release(self, fragment: FragmentInFlight, now: int,
                retain: bool = True) -> None:
        """Mark the fragment's buffer unused, retaining contents."""
        if fragment.buffer_index is None:
            return
        buffer = self._buffers[fragment.buffer_index]
        if buffer.occupant is fragment:
            buffer.occupant = None
            self._free += 1
            buffer.free_time = now
            if retain and fragment.complete:
                buffer.retained_key = fragment.key
                buffer.retained_frag = fragment.static_frag
        fragment.buffer_index = None

    def occupants(self) -> List[FragmentInFlight]:
        """Currently-resident fragments, in fragment order."""
        resident = [b.occupant for b in self._buffers if b.occupant]
        return sorted(resident, key=lambda f: f.seq)
