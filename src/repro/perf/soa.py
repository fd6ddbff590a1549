"""The fast step's batched structure-of-arrays pipeline state.

The reference cycle loop re-derives the same per-instruction facts for
every dynamic instance: oracle tagging compares PCs one attribute lookup
at a time, rename derives operands from the instruction per uop, commit
releases window slots one at a time.  The fast step hoists everything
that is a pure function of the *static* fragment into a
:class:`FragMeta` built once per
:class:`~repro.frontend.fragments.StaticFragment`, and flattens the
oracle stream's PCs into one preallocated list so tagging a fragment
becomes a single slice comparison.

Index linkage invariants (see ``docs/DATA_LAYOUT.md`` for the full
memory model):

* ``SoAState.oracle_pcs[i]`` is the PC of oracle record ``i`` — the
  flat mirror of ``Processor._oracle``; positions never move.
* ``FragMeta.pcs/srcs/dest/decoded[p]`` describe static instruction
  position ``p`` of one fragment; a fragment's dynamic uop at position
  ``p`` is built from exactly these entries, so the fast step builds
  the same uops as the reference ``_make_uop`` path.
* Metadata is cached per *canonical fragment key*.  The key records the
  actual direction of every conditional branch inside the fragment
  (fallback-supplied bits included — see ``walk_fragment``), so for a
  fixed program it fully determines the walk path: two static fragments
  with equal keys carry the same ``Instruction`` objects position for
  position, and sharing one metadata entry between them is exact.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.uop import DecodeCache, DecodedUop
from repro.emulator.stream import DynamicInstruction
from repro.frontend.fragments import FragmentKey, StaticFragment


class FragMeta:
    """Per-static-fragment arrays the batched loops index by position."""

    __slots__ = ("insts", "pcs", "srcs", "dest", "decoded", "src_plan",
                 "chunks")

    def __init__(self, static: StaticFragment, cache: DecodeCache):
        #: The fragment's (non-NOP) instructions, aliased for the rename
        #: hot loop.
        self.insts = static.instructions
        # One fused pass builds every per-position array (pcs, decoded,
        # srcs, dest, src_plan): metadata construction is pure fast-step
        # overhead, so its cost lands directly on the speedup ratio.
        lookup = cache.lookup
        #: PC per position — compared against ``oracle_pcs`` as a slice.
        pcs: List[int] = []
        #: One shared :class:`DecodedUop` per position.
        decoded: List[DecodedUop] = []
        #: Dependence-creating source registers per position.
        srcs_l: List[Tuple[int, ...]] = []
        #: Destination register per position (None = no rename effect).
        dest_l: List[Optional[int]] = []
        #: Per-position source-resolution plan for the parallel renamer.
        #: Which map a source register resolves against is a pure
        #: function of the static fragment (rename runs positions in
        #: order, so the nearest earlier internal write — if any — always
        #: wins over the incoming map).  Entry ``q >= 0``: the producer
        #: is this fragment's own uop at position ``q``.  Entry
        #: ``-(reg + 1)``: the source reads register ``reg`` from the
        #: fragment's incoming map (or architectural state when absent).
        plan: List[Tuple[int, ...]] = []
        last_write: Dict[int, int] = {}
        lw_get = last_write.get
        for p, inst in enumerate(static.instructions):
            addr = inst.addr
            pcs.append(addr)
            d = lookup(addr, inst)
            decoded.append(d)
            srcs = d.srcs
            srcs_l.append(srcs)
            dest = d.dest
            dest_l.append(dest)
            plan.append(tuple(lw_get(r, -(r + 1)) for r in srcs))
            if dest is not None:
                last_write[dest] = p
        self.pcs = pcs
        self.decoded = decoded
        self.srcs = srcs_l
        self.dest = dest_l
        self.src_plan = plan
        #: Per-cycle fetch chunk tables, lazily built by the sequencer:
        #: ``(width, line_shift) -> {start_cursor: (end_cursor, fetched)}``.
        #: A sequencer cycle's stopping point (width exhausted, line
        #: boundary, taken transfer) is a pure function of the static
        #: fragment, so the walk is computed once per geometry.
        self.chunks: Dict[Tuple[int, int], Dict[int, Tuple[int, int]]] = {}


class SharedStream:
    """Config-independent per-stream state for co-simulated siblings.

    The co-simulation engine (:mod:`repro.perf.cosim`) runs N timing
    configs over one prepared stream; everything here is a pure function
    of the stream (plus, for fragment metadata, the fragment config), so
    one instance can back every sibling ``Processor`` without perturbing
    result identity:

    * one :class:`~repro.core.uop.DecodeCache` — decode is pure per PC
      and instruction identity, and its hit/miss counters never reach
      :class:`~repro.core.simulation.SimulationResult`;
    * one flattened oracle-PC table (the ``SoAState.oracle_pcs`` mirror);
    * one :class:`FragMeta` dict *per fragment config* — canonical keys
      are only exact within one carving geometry, so metadata is scoped
      by :class:`~repro.config.FragmentConfig`.
    """

    __slots__ = ("decode_cache", "oracle_pcs", "_meta_by_fragment")

    def __init__(self, oracle: List[DynamicInstruction]):
        self.decode_cache = DecodeCache()
        #: PCs of the non-NOP records, matching ``Processor._oracle``.
        self.oracle_pcs: List[int] = [
            r.pc for r in oracle if not r.inst.is_nop]
        self._meta_by_fragment: Dict[object, Dict[FragmentKey, FragMeta]] = {}

    def meta_for(self, fragment_config: object) -> Dict[FragmentKey, FragMeta]:
        """The shared metadata dict for one carving geometry."""
        meta = self._meta_by_fragment.get(fragment_config)
        if meta is None:
            meta = {}
            self._meta_by_fragment[fragment_config] = meta
        return meta


class SoAState:
    """Flat fast-step state owned by one :class:`Processor` instance."""

    __slots__ = ("oracle_pcs", "_cache", "_meta")

    #: Metadata entries kept before the cache is wiped (a safety bound —
    #: real workloads revisit far fewer distinct fragment keys).
    _META_CAP = 8192

    def __init__(self, oracle: List[DynamicInstruction],
                 decode_cache: DecodeCache,
                 oracle_pcs: Optional[List[int]] = None,
                 meta: Optional[Dict[FragmentKey, FragMeta]] = None):
        # The co-simulation engine (repro.perf.cosim) injects one shared
        # PC table and FragMeta dict across sibling processors on the
        # same stream; both are pure per (stream, fragment config, decode
        # cache), so sharing is exact.  Solo processors build their own.
        #: PC of every oracle record, flattened for slice comparison.
        self.oracle_pcs: List[int] = (
            [r.pc for r in oracle] if oracle_pcs is None else oracle_pcs)
        self._cache = decode_cache
        self._meta: Dict[FragmentKey, FragMeta] = (
            {} if meta is None else meta)

    def meta_for(self, static: StaticFragment) -> FragMeta:
        """The (cached) batched metadata for *static*.

        Keyed by the canonical fragment key rather than object identity:
        walks that consulted the direction fallback produce fresh
        ``StaticFragment`` objects every time (the walk cache cannot memo
        them), but their canonical keys — and therefore instructions —
        are identical, so the metadata is shared."""
        meta = self._meta.get(static.key)
        if meta is not None:
            return meta
        if len(self._meta) >= self._META_CAP:
            self._meta.clear()
        meta = FragMeta(static, self._cache)
        self._meta[static.key] = meta
        return meta
