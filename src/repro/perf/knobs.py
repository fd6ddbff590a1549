"""The ``REPRO_FAST`` switch and its parsed form.

The knob is on/off (see ``docs/PERFORMANCE.md`` for the speed-mode
table and ``docs/DATA_LAYOUT.md`` for what the fast step changes):

* ``REPRO_FAST=0`` (or any falsy spelling) — the reference loop: no
  decode cache, no fragment walk cache, no live-out memo, per-object
  cycle step.  The correctness oracle.
* unset, or any other value — the fast step: the decoded-uop cache
  (:class:`repro.core.uop.DecodeCache`), the front-end fragment walk
  cache (:class:`repro.frontend.control.FrontEndControl`) and the
  batched structure-of-arrays cycle step (:mod:`repro.perf.soa`).

The fast step is bit-identical to the reference loop by contract; the
golden-parity tests (``tests/test_perf_soa.py``) and the hypothesis
differential test (``tests/test_end_to_end_property.py``) run both and
assert every counter matches.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import PERF_FAST_ENV, env_flag


@dataclass(frozen=True)
class PerfConfig:
    """Resolved speed selection for one :class:`Processor`.

    Kept separate from :class:`repro.config.ProcessorConfig` on purpose:
    it changes *how fast* a simulation runs, never *what* it computes,
    so it must not leak into result identity, sweep cache keys, or
    warm-snapshot digests.
    """

    #: True for the fast step, False for the reference loop.
    fast: bool = True

    @classmethod
    def from_env(cls) -> "PerfConfig":
        """The selection ``REPRO_FAST`` makes right now."""
        return cls(fast=env_flag(PERF_FAST_ENV, default=True))
