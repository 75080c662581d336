"""Bounded error-propagation analysis (§III-D).

When an error is not masked by the operation that consumes it, MOARD chases
the corrupted value forward through the dynamic trace for at most *k*
operations, re-evaluating each successor with the corrupted inputs and
checking whether every secondary error is eventually masked at the
operation level (overwritten, absorbed, or dropped by logic/compare
operations).  If all corruption disappears within the window the original
error is *masked by error propagation*; if corruption survives (or control
flow / memory addressing would change, which cannot be replayed locally) the
verdict is left to the algorithm-level analysis (deterministic injection).

The bound *k* is justified empirically in the paper (87 % of unmasked
injections are decided within 10 operations, 100 % within 50); the
``benchmarks/bench_kbound.py`` harness reproduces that observation on our
workloads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Set

from repro.ir.instructions import Opcode
from repro.core.masking import MaskingCategory
from repro.core.participation import Participation, ParticipationRole
from repro.core.patterns import ErrorPattern
from repro.core.reexec import ReexecStatus, reevaluate, results_identical
from repro.tracing.cursor import TraceCursor, TraceLike


@dataclass
class PropagationResult:
    """Outcome of chasing one error forward through the trace."""

    #: ``True``: every corrupted value/memory cell was masked inside the
    #: window.  ``False``: corruption survived the window (or the trace
    #: ended with corrupted output state).  ``None``: the analysis had to
    #: stop (control-flow or addressing divergence, opaque call).
    masked: Optional[bool]
    #: Dominant category of the operations that absorbed the corruption.
    category: Optional[MaskingCategory]
    steps_analyzed: int
    corrupted_values_remaining: int
    corrupted_memory_remaining: int
    diverged: bool = False
    reason: str = ""
    #: Data objects whose memory was (transiently) contaminated.
    contaminated_objects: Set[str] = field(default_factory=set)


class PropagationAnalyzer:
    """Forward error-propagation over a recorded trace.

    ``trace`` may be any trace-like event source (the full in-memory
    :class:`~repro.tracing.trace.Trace` or a
    :class:`~repro.tracing.sinks.ColumnarTraceSink`); events are read
    through the :class:`~repro.tracing.cursor.TraceCursor` API rather than
    by reaching into a concrete event list.
    """

    def __init__(
        self,
        trace: TraceLike,
        k: int = 50,
        output_objects: Optional[Set[str]] = None,
    ) -> None:
        self.trace = trace
        self.k = k
        #: Objects whose final contents constitute the application outcome;
        #: corruption left in them is never "dead".
        self.output_objects = output_objects or set()
        self._last_use: Dict[int, int] = {}
        self._last_load_of_address: Dict[int, int] = {}
        self._index_trace()

    def _index_trace(self) -> None:
        from repro.tracing.columnar import LOAD_CODE, ColumnarTrace

        if isinstance(self.trace, ColumnarTrace):
            # columnar fast path: the same indices, built from the integer
            # columns instead of a per-event materialising scan.  Ascending
            # flat/event order makes "last assignment wins" in the zips
            # equivalent to the scan's forward overwrites.
            import numpy as np

            cols = self.trace.columns()
            used = cols.producers >= 0
            self._last_use = dict(
                zip(cols.producers[used].tolist(), cols.owner[used].tolist())
            )
            loads = np.nonzero((cols.opcode == LOAD_CODE) & (cols.address >= 0))[0]
            self._last_load_of_address = dict(
                zip(cols.address[loads].tolist(), loads.tolist())
            )
            touched = np.nonzero(cols.address >= 0)[0]
            names = {i: n for n, i in cols.object_index.items()}
            cache = {}
            for address, oid, element in zip(
                cols.address[touched].tolist(),
                cols.object_id[touched].tolist(),
                cols.element[touched].tolist(),
            ):
                cache[address] = (
                    names.get(oid) if oid >= 0 else None,
                    element if element >= 0 else None,
                )
            self._addr_cache = cache
            return
        for event in self.trace:
            for producer in event.operand_producers:
                if producer >= 0:
                    self._last_use[producer] = event.dynamic_id
            if event.is_load and event.address is not None:
                self._last_load_of_address[event.address] = event.dynamic_id

    # ------------------------------------------------------------------ #
    def analyze(
        self,
        participation: Participation,
        pattern: ErrorPattern,
        corrupted_result: Optional[float] = None,
    ) -> PropagationResult:
        """Chase the error of ``pattern`` at ``participation`` forward.

        ``corrupted_result`` is the recomputed result of the consuming
        operation (from the operation-level analysis); when the participation
        is a store of a corrupted value the corrupted memory cell is seeded
        instead.
        """
        start_event = self.trace[participation.event_id]
        corrupted_values: Dict[int, float] = {}
        corrupted_memory: Dict[int, float] = {}
        category_votes: Dict[MaskingCategory, int] = {}
        contaminated: Set[str] = set()

        if participation.role is ParticipationRole.STORE_DEST:
            # An error in the destination that the store overwrites never
            # propagates; this analyzer is only called for unresolved cases.
            return PropagationResult(
                masked=None,
                category=None,
                steps_analyzed=0,
                corrupted_values_remaining=0,
                corrupted_memory_remaining=0,
                reason="store destination participations are resolved at the operation level",
            )

        if start_event.is_store:
            # corrupted value written to memory
            address = start_event.address
            corrupted_memory[address] = pattern.apply(
                start_event.operand_values[0], start_event.operand_types[0]
            ) if corrupted_result is None else corrupted_result
            if start_event.object_name is not None:
                contaminated.add(start_event.object_name)
        else:
            if corrupted_result is None:
                values = list(start_event.operand_values)
                values[participation.operand_index] = pattern.apply(
                    values[participation.operand_index],
                    participation.value_type,
                )
                reexec = reevaluate(start_event, values)
                if reexec.status is not ReexecStatus.VALUE:
                    return PropagationResult(
                        masked=None,
                        category=None,
                        steps_analyzed=0,
                        corrupted_values_remaining=0,
                        corrupted_memory_remaining=0,
                        diverged=True,
                        reason=f"seed re-evaluation: {reexec.status.value}",
                    )
                corrupted_result = reexec.value
            if results_identical(start_event, corrupted_result):
                return PropagationResult(
                    masked=True,
                    category=MaskingCategory.OVERSHADOW,
                    steps_analyzed=0,
                    corrupted_values_remaining=0,
                    corrupted_memory_remaining=0,
                    reason="consuming operation already absorbed the error",
                )
            corrupted_values[start_event.dynamic_id] = corrupted_result

        position = start_event.dynamic_id
        end = min(len(self.trace), position + 1 + self.k)
        steps = 0

        cursor = TraceCursor(self.trace, position + 1)
        for event in cursor.take(self.k):
            steps += 1
            self._drop_dead(corrupted_values, corrupted_memory, event.dynamic_id)
            if not corrupted_values and not corrupted_memory:
                break

            substituted, involved = self._substitute(event, corrupted_values, corrupted_memory)

            if event.is_load:
                # a corrupted address operand means the access pattern itself
                # changed, which cannot be replayed against recorded state
                if event.operand_producers[0] in corrupted_values:
                    return self._diverged(
                        "corrupted load address", steps, corrupted_values,
                        corrupted_memory, category_votes, contaminated,
                    )
                if event.address in corrupted_memory:
                    corrupted_values[event.dynamic_id] = corrupted_memory[event.address]
                continue

            if event.is_store:
                address = event.address
                if substituted is not None and involved and int(
                    substituted[1]
                ) != int(event.operand_values[1]):
                    return self._diverged(
                        "corrupted store address", steps, corrupted_values,
                        corrupted_memory, category_votes, contaminated,
                    )
                if substituted is not None and 0 in self._corrupted_operands(
                    event, corrupted_values
                ):
                    corrupted_memory[address] = substituted[0]
                    if event.object_name is not None:
                        contaminated.add(event.object_name)
                elif address in corrupted_memory:
                    # overwritten with a clean value
                    del corrupted_memory[address]
                    category_votes[MaskingCategory.OVERWRITE] = (
                        category_votes.get(MaskingCategory.OVERWRITE, 0) + 1
                    )
                continue

            if not involved:
                continue

            reexec = reevaluate(event, substituted)
            if reexec.status is ReexecStatus.DIVERGED:
                return self._diverged(
                    reexec.detail or "control/addressing divergence", steps,
                    corrupted_values, corrupted_memory, category_votes, contaminated,
                )
            if reexec.status is ReexecStatus.OPAQUE:
                return self._diverged(
                    reexec.detail or "opaque call", steps, corrupted_values,
                    corrupted_memory, category_votes, contaminated,
                )
            if reexec.status is ReexecStatus.TRAPPED:
                return PropagationResult(
                    masked=False,
                    category=None,
                    steps_analyzed=steps,
                    corrupted_values_remaining=len(corrupted_values),
                    corrupted_memory_remaining=len(corrupted_memory),
                    reason=f"secondary error traps: {reexec.detail}",
                    contaminated_objects=contaminated,
                )
            if reexec.status is ReexecStatus.NO_VALUE:
                continue

            if results_identical(event, reexec.value):
                category = self._absorption_category(event.opcode)
                category_votes[category] = category_votes.get(category, 0) + 1
            else:
                corrupted_values[event.dynamic_id] = reexec.value

        self._drop_dead(corrupted_values, corrupted_memory, end)
        masked = not corrupted_values and not corrupted_memory
        category = None
        if category_votes:
            category = max(category_votes, key=category_votes.get)
        elif masked:
            category = MaskingCategory.OVERWRITE
        return PropagationResult(
            masked=True if masked else False,
            category=category if masked else None,
            steps_analyzed=steps,
            corrupted_values_remaining=len(corrupted_values),
            corrupted_memory_remaining=len(corrupted_memory),
            reason="all corruption masked within the window"
            if masked
            else "corruption survived the propagation window",
            contaminated_objects=contaminated,
        )

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #
    def _drop_dead(
        self,
        corrupted_values: Dict[int, float],
        corrupted_memory: Dict[int, float],
        position: int,
    ) -> None:
        """Remove corruption that can no longer influence the outcome."""
        dead_values = [
            vid
            for vid in corrupted_values
            if self._last_use.get(vid, -1) < position
        ]
        for vid in dead_values:
            del corrupted_values[vid]
        dead_addresses = []
        for address in corrupted_memory:
            try:
                obj, _ = self._resolve_cached(address)
            except KeyError:
                continue
            if obj in self.output_objects:
                continue
            if self._last_load_of_address.get(address, -1) < position:
                dead_addresses.append(address)
        for address in dead_addresses:
            del corrupted_memory[address]

    _address_object_cache: Dict[int, str]

    def _resolve_cached(self, address: int):
        # addresses are resolved through the trace itself: find any event
        # touching this address (cheap because corrupted_memory is small and
        # populated from events we have already seen).
        cache = getattr(self, "_addr_cache", None)
        if cache is None:
            cache = {}
            for event in self.trace:
                if event.address is not None:
                    cache[event.address] = (event.object_name, event.element_index)
            self._addr_cache = cache
        if address not in cache:
            raise KeyError(address)
        return cache[address]

    @staticmethod
    def _corrupted_operands(event, corrupted_values: Dict[int, float]) -> Set[int]:
        return {
            i
            for i, producer in enumerate(event.operand_producers)
            if producer in corrupted_values
        }

    def _substitute(
        self,
        event,
        corrupted_values: Dict[int, float],
        corrupted_memory: Dict[int, float],
    ):
        """Operand values of ``event`` with corrupted producers substituted."""
        involved = False
        values = list(event.operand_values)
        for i, producer in enumerate(event.operand_producers):
            if producer in corrupted_values:
                values[i] = corrupted_values[producer]
                involved = True
        return (values if involved else None), involved

    @staticmethod
    def _absorption_category(opcode: Opcode) -> MaskingCategory:
        from repro.ir.instructions import (
            BITWISE_OPCODES,
            COMPARISON_OPCODES,
            SHIFT_OPCODES,
        )

        if opcode in (Opcode.TRUNC, Opcode.FPTRUNC) or opcode in SHIFT_OPCODES:
            return MaskingCategory.OVERWRITE
        if opcode in COMPARISON_OPCODES or opcode in BITWISE_OPCODES or opcode is Opcode.SELECT:
            return MaskingCategory.LOGIC_COMPARE
        return MaskingCategory.OVERSHADOW

    def _diverged(
        self,
        reason: str,
        steps: int,
        corrupted_values: Dict[int, float],
        corrupted_memory: Dict[int, float],
        category_votes: Dict[MaskingCategory, int],
        contaminated: Set[str],
    ) -> PropagationResult:
        return PropagationResult(
            masked=None,
            category=max(category_votes, key=category_votes.get) if category_votes else None,
            steps_analyzed=steps,
            corrupted_values_remaining=len(corrupted_values),
            corrupted_memory_remaining=len(corrupted_memory),
            diverged=True,
            reason=reason,
            contaminated_objects=contaminated,
        )
