"""Shared rename-stage machinery.

A renamer consumes instructions from in-flight fragments (in fragment
order) and produces :class:`~repro.core.uop.MicroOp` objects whose sources
are linked to their producers.  The processor supplies a ``make_uop``
callback that creates and oracle-tags uops; renamers own only the dataflow
linking and the rename *timing*.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Protocol

from repro.core.uop import MicroOp, Producer
from repro.frontend.buffers import FragmentInFlight
from repro.isa.registers import ZERO_REG

#: Callback: (fragment, position) -> freshly created MicroOp.
MakeUop = Callable[[FragmentInFlight, int], MicroOp]


def source_regs(uop: MicroOp):
    """Dependence-creating source registers of *uop* (``r0`` filtered)."""
    return tuple(r for r in uop.inst.src_regs() if r != ZERO_REG)


def dest_of(uop: MicroOp) -> Optional[int]:
    """Destination register of *uop*, or ``None`` for ``r0``/no-dest."""
    dest = uop.inst.dest_reg()
    return dest if dest is not None and dest != ZERO_REG else None


class Renamer(Protocol):
    """Interface implemented by both rename mechanisms."""

    def cycle(self, now: int, fragments: List[FragmentInFlight],
              make_uop: MakeUop) -> List[MicroOp]:
        """Rename for one cycle; returns the uops renamed."""

    def rebuild(self, fragments: List[FragmentInFlight]) -> None:
        """Reconstruct rename state after a squash."""


def link_sources(uop: MicroOp, *maps: Dict[int, Producer]) -> None:
    """Attach producers for each source register of *uop*.

    *maps* are consulted in priority order (e.g. the fragment's internal
    writers before the incoming cross-fragment map).  Registers with no
    producer in any map read architectural state and are ready immediately;
    the zero register never creates a dependence.
    """
    sources = uop.sources
    for src in source_regs(uop):
        for reg_map in maps:
            producer = reg_map.get(src)
            if producer is not None:
                sources.append(producer)
                break
