"""Block-structured MIR with fused superinstructions compiled on demand.

Lowers a :class:`~repro.vm.engine.DecodedProgram` into extended basic
blocks (:mod:`repro.mir.lower`) and caches the result on the module
(:mod:`repro.mir.cache`).  The engine runs a loop-free straight-line
segment on its per-op loop until it has entered the segment
:data:`~repro.vm.engine.TIER_UP_ENTRIES` times; it then compiles the
variant in use into an ``exec``-specialized superinstruction
(:mod:`repro.mir.fuse`) and dispatches the whole segment through it
whenever no fault is armed in-window, no pause boundary intersects the
segment, and the sink (if any) supports bulk appends.  Everywhere else the
op loop runs, and the tree-walking interpreter stays the independent
oracle both are checked against.
"""

from repro.mir.cache import invalidate, mir_program_for
from repro.mir.lower import (
    FUSABLE_BODY,
    MirFunction,
    MirProgram,
    MirSegment,
    SEGMENT_BARRIERS,
    lower_function,
    lower_program,
)

__all__ = [
    "FUSABLE_BODY",
    "MirFunction",
    "MirProgram",
    "MirSegment",
    "SEGMENT_BARRIERS",
    "invalidate",
    "lower_function",
    "lower_program",
    "mir_program_for",
]
