"""Per-module cache of the lowered MIR program.

The lowered program is stored on the module object itself (same
fast-attribute idiom as ``DecodedProgram.of``) and invalidated together
with the decode cache.  It also carries each fused segment's entry count
and compiled superinstructions, so every engine of one module in a process
shares the tier-up state.
"""

from __future__ import annotations

from repro.mir.lower import MirProgram, lower_program
from repro.vm.engine import DecodedProgram

_CACHE_ATTR = "_mir_program_cache"


def mir_program_for(decoded: DecodedProgram) -> MirProgram:
    """The lowered form of ``decoded``, built once per module."""
    module = decoded.module
    program = getattr(module, _CACHE_ATTR, None)
    if program is None:
        program = lower_program(decoded)
        setattr(module, _CACHE_ATTR, program)
    return program


def invalidate(module) -> None:
    """Drop the per-module cache (call after mutating the module's IR)."""
    if hasattr(module, _CACHE_ATTR):
        delattr(module, _CACHE_ATTR)
