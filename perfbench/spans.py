"""In-memory span recording around calls into the simulator's layers.

A :class:`Tracer` records one span (name, start, end, parent) per call
into a traced function.  Functions are traced by rebinding the public
attribute they are looked up through (``module.func`` or
``Class.method``) to a recording wrapper, so nothing in the simulator
itself changes; :meth:`Tracer.unpatch` restores the originals.

A span's *self time* is its duration minus the durations of its direct
children.  :func:`reconcile` groups self times by layer and checks that
they, plus the unattributed remainder, add up to the traced wall time.
"""

from __future__ import annotations

import contextlib
import functools
import time
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Tuple

#: Relative tolerance of the reconciliation check (float rounding only).
RECONCILE_TOLERANCE = 1e-9


class Tracer:
    """Records nested spans in memory; spans are ``[name, start, end,
    parent index or None]`` lists in the order they began."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[list] = []
        self._open: List[int] = []
        self._patched: List[Tuple[object, str, object]] = []

    def begin(self, name: str) -> int:
        """Open a span under the innermost open one; returns its index."""
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([name, self.clock(), None, parent])
        self._open.append(index)
        return index

    def end(self, index: int) -> None:
        """Close span *index*, which must be the innermost open one."""
        if not self._open or self._open[-1] != index:
            raise RuntimeError(f"span {index} is not the innermost open span")
        self.spans[index][2] = self.clock()
        self._open.pop()

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record the ``with`` block as a span called *name*."""
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    def wrap(self, name: str, fn: Callable) -> Callable:
        """*fn* with every call recorded as a span called *name*."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def patch(self, owner: object, attr: str, name: str) -> None:
        """Trace calls made through ``owner.attr`` as spans *name*."""
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original))

    def unpatch(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def self_times(spans: List[list]) -> List[float]:
    """Each span's duration minus its direct children's durations."""
    selfs = []
    for name, start, end, _parent in spans:
        if end is None:
            raise ValueError(f"span {name!r} was never closed")
        selfs.append(end - start)
    for _name, start, end, parent in spans:
        if parent is not None:
            selfs[parent] -= end - start
    return selfs


def reconcile(spans: List[list], wall: float,
              layers: Mapping[str, Optional[str]]
              ) -> Tuple[Dict[str, float], float]:
    """Split *wall* into per-layer self times plus an unattributed rest.

    *layers* maps each span name to its layer metric, or to ``None`` for
    spans that belong to no layer (the benchmark's own set-up loop, the
    simulation entry point); their self time, and any part of *wall* outside
    every span, is the unattributed remainder.  Returns
    ``(seconds by layer metric, unattributed seconds)`` and raises
    ``ValueError`` unless the parts are non-negative and sum to *wall*.
    """
    selfs = self_times(spans)
    tolerance = RECONCILE_TOLERANCE * max(1.0, wall)
    covered = sum(end - start for _name, start, end, parent in spans
                  if parent is None)
    if covered > wall + tolerance:
        raise ValueError(f"spans cover {covered!r} s, more than the traced "
                         f"wall {wall!r} s")
    by_layer: Dict[str, float] = {}
    unattributed = wall - covered
    for (name, _start, _end, _parent), seconds in zip(spans, selfs):
        if seconds < -tolerance:
            raise ValueError(f"span {name!r} has negative self time "
                             f"{seconds!r}: a child outlasts its parent")
        layer = layers[name]
        if layer is None:
            unattributed += seconds
        else:
            by_layer[layer] = by_layer.get(layer, 0.0) + seconds
    if abs(sum(by_layer.values()) + unattributed - wall) > tolerance:
        raise ValueError("layer self times and the unattributed remainder "
                         "do not add up to the traced wall")
    return by_layer, unattributed
