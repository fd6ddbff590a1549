"""Out-of-order execution core: window, scheduler, functional units.

Models the Table 1 back-end: a 256-entry instruction window fed through a
short dispatch pipeline, an oldest-first wakeup/select scheduler over the
functional-unit pool, a load/store path through the D-cache, and per-cycle
issue/width limits.  Commit ordering lives in the processor (it needs
fragment bookkeeping); the core exposes window-entry reservation and
per-cycle completion events.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Deque, Dict, List, Tuple

from repro.config import BackEndConfig
from repro.core.uop import (
    FU_POOL,
    LATENCY_KEY,
    MicroOp,
    PlaceholderProducer,
    UopState,
)
from repro.errors import SimulationError
from repro.memory.hierarchy import MemoryHierarchy
from repro.stats import StatsCollector

_DONE_STATES = (UopState.DONE, UopState.COMMITTED)


class OutOfOrderCore:
    """Window + scheduler + functional units."""

    def __init__(self, config: BackEndConfig, memory: MemoryHierarchy,
                 stats: StatsCollector):
        self.config = config
        self.memory = memory
        self.stats = stats
        self._reserved = 0
        self._reservations: Dict[int, int] = {}
        self._dispatch: Deque[MicroOp] = deque()
        self._ready: List[Tuple[int, MicroOp]] = []
        self._completions: Dict[int, List[MicroOp]] = {}

    # -- window reservation (ROB entries, Section 4.2) -------------------

    @property
    def window_free(self) -> int:
        """Unreserved instruction-window slots."""
        return self.config.window_size - self._reserved

    @property
    def window_used(self) -> int:
        """Reserved window entries (the ROB-fill observability gauge)."""
        return self._reserved

    def reserve(self, count: int, fragment_seq: int) -> bool:
        """Reserve *count* window entries for a fragment."""
        if count > self.window_free:
            return False
        self._reserved += count
        self._reservations[fragment_seq] = (
            self._reservations.get(fragment_seq, 0) + count)
        return True

    def reserve_single(self, fragment_seq: int) -> bool:
        """Reserve one window slot for *fragment_seq* (False when full)."""
        return self.reserve(1, fragment_seq)

    def release(self, fragment_seq: int, count: int = 1) -> None:
        """Return up to *count* of *fragment_seq*'s reserved window slots."""
        held = self._reservations.get(fragment_seq, 0)
        count = min(count, held)
        if count <= 0:
            return
        self._reserved -= count
        if held == count:
            self._reservations.pop(fragment_seq, None)
        else:
            self._reservations[fragment_seq] = held - count

    def release_all(self, fragment_seq: int) -> None:
        """Release every entry still held by a squashed fragment."""
        self.release(fragment_seq, self._reservations.get(fragment_seq, 0))

    def set_reservation(self, fragment_seq: int, target: int) -> None:
        """Shrink a fragment's reservation to *target* entries (used when
        a misprediction truncates the fragment)."""
        held = self._reservations.get(fragment_seq, 0)
        if held > target:
            self.release(fragment_seq, held - target)

    # -- dispatch ---------------------------------------------------------

    def dispatch(self, uops: List[MicroOp], now: int) -> None:
        """Queue renamed uops; they enter the window after the dispatch
        pipeline latency."""
        ready_at = now + self.config.dispatch_latency
        for uop in uops:
            uop.dispatch_ready_cycle = ready_at
            self._dispatch.append(uop)

    def queue_dispatched(self, uops: List[MicroOp]) -> None:
        """Fast-step twin of :meth:`dispatch` for uops whose
        ``dispatch_ready_cycle`` was already stamped in the rename build
        loop — one C-level extend instead of a per-uop pass."""
        self._dispatch.extend(uops)

    def _attach_waiter(self, source, consumer: MicroOp) -> bool:
        """Register *consumer* to be woken when *source* completes.

        Placeholder chains (cold-fragment pass-through mappings) are
        walked to the deepest unresolved producer.  Returns True when the
        consumer must wait, False when the source is already available.
        """
        while isinstance(source, PlaceholderProducer):
            if source.done:
                return False
            if source.producer is None:
                source.consumers.append(consumer)
                return True
            source = source.producer
        if source.state in _DONE_STATES:
            return False
        source.consumers.append(consumer)
        return True

    def _insert_window(self, uop: MicroOp) -> None:
        pending = 0
        for source in uop.sources:
            if self._attach_waiter(source, uop):
                pending += 1
        uop.pending = pending
        if pending == 0:
            uop.state = UopState.READY
            heapq.heappush(self._ready, (uop.seq, uop))
        else:
            uop.state = UopState.WAITING

    def bind_placeholder(self, placeholder: PlaceholderProducer,
                         producer=None, ready: bool = False) -> None:
        """Late-bind a placeholder (cold-fragment resolution).

        Unlike :meth:`PlaceholderProducer.bind`, this handles producers
        that have already completed by waking waiting consumers.
        """
        consumers, placeholder.consumers = placeholder.consumers, []
        # Path compression: resolve through intermediate placeholders so
        # pass-through chains (delay rename / cold fragments) stay short.
        while isinstance(producer, PlaceholderProducer):
            if producer.ready:
                ready = True
                producer = None
                break
            if producer.producer is None:
                break
            producer = producer.producer
        if ready:
            placeholder.ready = True
        else:
            placeholder.producer = producer
        for consumer in consumers:
            if consumer.state is not UopState.WAITING:
                continue
            if not self._attach_waiter(placeholder, consumer):
                consumer.pending -= 1
                if consumer.pending <= 0:
                    consumer.state = UopState.READY
                    heapq.heappush(self._ready, (consumer.seq, consumer))

    # -- per-cycle operation ------------------------------------------------

    _EMPTY: List[MicroOp] = []

    def cycle(self, now: int) -> List[MicroOp]:
        """One execution cycle; returns uops that completed this cycle.

        Idle phases are skipped outright: a cycle with no scheduled
        completions, an empty dispatch queue and an empty ready list
        touches none of the phase bodies (common while the window drains
        a long-latency miss).
        """
        completed = (self._complete(now) if now in self._completions
                     else self._EMPTY)
        if self._dispatch:
            self._drain_dispatch(now)
        if self._ready:
            self._issue(now)
        return completed

    def cycle_soa(self, now: int) -> List[MicroOp]:
        """Fast-step twin of :meth:`cycle` (every uop carries its
        :class:`~repro.core.uop.DecodedUop`).

        Same phase order, same observable effects — the dispatch-insert
        and issue loops are inlined with hoisted lookups, and the
        overwhelmingly common :class:`MicroOp` source skips the
        placeholder-chain walk of :meth:`_attach_waiter`.  The parity
        matrix in tests/test_perf_soa.py holds both paths bit-identical.
        """
        completed = (self._complete(now) if now in self._completions
                     else self._EMPTY)
        dispatch = self._dispatch
        ready = self._ready
        heappush = heapq.heappush
        if dispatch:
            done = UopState.DONE
            committed = UopState.COMMITTED
            squashed = UopState.SQUASHED
            renamed = UopState.RENAMED
            ready_state = UopState.READY
            waiting = UopState.WAITING
            popleft = dispatch.popleft
            attach = self._attach_waiter
            while dispatch and dispatch[0].dispatch_ready_cycle <= now:
                uop = popleft()
                state = uop.state
                if state is squashed:
                    continue
                if state is not renamed:
                    raise SimulationError(
                        f"dispatching uop in state {uop.state}")
                pending = 0
                for source in uop.sources:
                    if source.__class__ is MicroOp:
                        sstate = source.state
                        if sstate is done or sstate is committed:
                            continue
                        source.consumers.append(uop)
                        pending += 1
                    elif attach(source, uop):
                        pending += 1
                uop.pending = pending
                if pending == 0:
                    uop.state = ready_state
                    heappush(ready, (uop.seq, uop))
                else:
                    uop.state = waiting
        if ready:
            config = self.config
            counts_get = config.fu_counts.get
            width = config.issue_width
            latencies = config.fu_latencies
            completions = self._completions
            data_access = self.memory.data_access
            used: Dict[str, int] = {}
            used_get = used.get
            heappop = heapq.heappop
            ready_state = UopState.READY
            executing = UopState.EXECUTING
            issued = 0
            skipped: List[Tuple[int, MicroOp]] = []
            while ready and issued < width:
                item = heappop(ready)
                uop = item[1]
                if uop.state is not ready_state:
                    continue  # squashed while queued
                decoded = uop.decoded
                pool = decoded.pool
                in_use = used_get(pool, 0)
                if in_use >= counts_get(pool, 0):
                    skipped.append(item)
                    continue
                used[pool] = in_use + 1
                issued += 1
                # _start_execution, inlined.
                uop.state = executing
                uop.issue_cycle = now
                done_at = now + latencies[decoded.latency_key]
                inst = uop.inst
                if inst.is_mem and uop.record is not None \
                        and uop.record.ea is not None:
                    data_ready = data_access(uop.record.ea, now)
                    if inst.is_load:
                        done_at = max(done_at, data_ready + 1)
                # Wrong-path memory ops have no architectural address;
                # they are charged the L1-hit path only.
                bucket = completions.get(done_at)
                if bucket is None:
                    completions[done_at] = [uop]
                else:
                    bucket.append(uop)
            for item in skipped:
                heappush(ready, item)
            if skipped:
                self.stats.add("exec.fu_structural_stalls", len(skipped))
            self.stats.add("exec.issued", issued)
        return completed

    def _complete(self, now: int) -> List[MicroOp]:
        finished = []
        for uop in self._completions.pop(now, ()):
            if uop.state is not UopState.EXECUTING:
                continue  # squashed in flight
            uop.state = UopState.DONE
            uop.complete_cycle = now
            if uop.consumers:
                self._wakeup(uop)
            finished.append(uop)
        return finished

    def _wakeup(self, producer: MicroOp) -> None:
        consumers, producer.consumers = producer.consumers, []
        for consumer in consumers:
            if consumer.state is not UopState.WAITING:
                continue
            consumer.pending -= 1
            if consumer.pending <= 0:
                consumer.state = UopState.READY
                heapq.heappush(self._ready, (consumer.seq, consumer))

    def _drain_dispatch(self, now: int) -> None:
        while self._dispatch and self._dispatch[0].dispatch_ready_cycle <= now:
            uop = self._dispatch.popleft()
            if uop.state is UopState.SQUASHED:
                continue
            if uop.state is not UopState.RENAMED:
                raise SimulationError(f"dispatching uop in state {uop.state}")
            self._insert_window(uop)

    def _issue(self, now: int) -> None:
        counts = self.config.fu_counts
        used: Dict[str, int] = {}
        issued = 0
        skipped: List[Tuple[int, MicroOp]] = []
        while self._ready and issued < self.config.issue_width:
            seq, uop = heapq.heappop(self._ready)
            if uop.state is not UopState.READY:
                continue  # squashed while queued
            pool = FU_POOL[uop.inst.op_class]
            if used.get(pool, 0) >= counts.get(pool, 0):
                skipped.append((seq, uop))
                continue
            used[pool] = used.get(pool, 0) + 1
            issued += 1
            self._start_execution(uop, now)
        for item in skipped:
            heapq.heappush(self._ready, item)
        if skipped:
            self.stats.add("exec.fu_structural_stalls", len(skipped))
        self.stats.add("exec.issued", issued)

    def _start_execution(self, uop: MicroOp, now: int) -> None:
        uop.state = UopState.EXECUTING
        uop.issue_cycle = now
        key = LATENCY_KEY[uop.inst.op_class]
        done_at = now + self.config.fu_latencies[key]
        inst = uop.inst
        if inst.is_mem and uop.record is not None \
                and uop.record.ea is not None:
            data_ready = self.memory.data_access(uop.record.ea, now)
            if inst.is_load:
                done_at = max(done_at, data_ready + 1)
        # Wrong-path memory ops have no architectural address; they are
        # charged the L1-hit path only.
        self._completions.setdefault(done_at, []).append(uop)

    # -- introspection ---------------------------------------------------

    def in_flight_dispatch(self) -> int:
        """Uops renamed but not yet inserted into the window."""
        return len(self._dispatch)

    def drop_squashed_dispatch(self) -> None:
        """Prune squashed uops from the dispatch queue (after a squash)."""
        self._dispatch = deque(u for u in self._dispatch
                               if u.state is not UopState.SQUASHED)
