"""The aDVF engine (§III-B, §IV): putting the three analyses together.

For every participation of a target data object in the dynamic trace, and
for every error pattern of the configured error model, the engine decides
whether the error would be masked:

1. **operation level** — semantic rules over the recorded operand values
   (:mod:`repro.core.masking`);
2. **error propagation level** — bounded forward re-execution over the trace
   (:mod:`repro.core.propagation`);
3. **algorithm level** — deterministic fault injection plus the workload's
   acceptance criterion (:mod:`repro.core.injector`).

aDVF of a data object is the number of error-masking events divided by the
number of element participations (Eq. 1); the per-level and per-category
breakdowns reproduce Figures 4 and 5 of the paper.  Error-equivalence
caching (:mod:`repro.core.equivalence`) bounds the number of full analyses
and injections, mirroring the Relyzer-style acceleration the paper relies
on.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.acceptance import OutcomeClass
from repro.core.equivalence import EquivalenceCache
from repro.core.injector import DeterministicFaultInjector
from repro.core.masking import (
    MaskingCategory,
    MaskingLevel,
    OperationMaskingAnalyzer,
)
from repro.core.participation import Participation, find_participations
from repro.core.patterns import ErrorModel, ErrorPattern, SingleBitModel, classify_bit
from repro.core.passes import OperationPasses
from repro.core.propagation import PropagationAnalyzer
from repro.core.replay import BatchedReplayContext
from repro.core.sites import FaultSite
from repro.obs.metrics import registry as _metrics_registry
from repro.tracing.columnar import ColumnarTrace
from repro.tracing.cursor import TraceLike

if TYPE_CHECKING:  # pragma: no cover - import only needed for typing
    from repro.workloads.base import Workload



@dataclass
class AnalysisConfig:
    """Knobs of the aDVF analysis.

    The defaults match the paper's evaluation (single-bit errors, propagation
    bound *k* = 50, deterministic injection for unresolved cases) with
    laptop-scale budgets for the injection campaign.
    """

    #: Maximum number of operations tracked after the target operation (§III-D).
    k_propagation: int = 50
    #: Error model: which error patterns are enumerated per data element.
    error_model: ErrorModel = field(default_factory=SingleBitModel)
    #: Resolve unresolved cases with deterministic fault injection.
    use_injection: bool = True
    #: Upper bound on injections per data object.
    max_injections: int = 400
    #: Full analyses per (static instruction, role, operand, bit) class before
    #: results are reused (error equivalence).
    equivalence_samples: int = 2
    #: Injections per (static instruction, role, operand, bit-class) before
    #: outcomes are reused.
    injection_samples_per_class: int = 2
    #: Relative deviation of an additive result below which the error is a
    #: value-overshadowing candidate.
    overshadow_threshold: float = 1e-10
    #: Evenly subsample the participation list (None = analyse all).
    max_participations: Optional[int] = None
    #: When injection is disabled or out of budget, credit analytic
    #: overshadowing candidates as masked (otherwise they count as unmasked).
    analytic_overshadow_fallback: bool = True
    #: Execution strategy for deterministic injection: ``"replay"`` resolves
    #: each fault by checkpointed replay from the nearest snapshot (fast,
    #: bit-identical); ``"rerun"`` re-executes from scratch (the seed path).
    injection_mode: str = "replay"
    #: Analysis pipeline: ``"columnar"`` records the golden run into a
    #: :class:`~repro.tracing.columnar.ColumnarTrace` and runs the
    #: vectorized participation/masking passes (bit-identical results);
    #: ``"legacy"`` keeps the original per-event scans over a full
    #: :class:`~repro.tracing.trace.Trace` (the parity oracle).
    pipeline: str = "columnar"
    #: Injection batch size: how many injections the resolver queues before
    #: submitting them as one replay batch (0 means batches of one).
    #: Results are bit-identical at every setting — it only changes batching.
    speculation_window: int = 32


@dataclass
class AdvfResult:
    """aDVF of one data object plus its breakdowns (Figures 4 and 5)."""

    object_name: str
    value: float
    participations: int
    masked_events: float
    by_level: Dict[MaskingLevel, float] = field(default_factory=dict)
    by_category: Dict[MaskingCategory, float] = field(default_factory=dict)

    def level_fraction(self, level: MaskingLevel) -> float:
        """Contribution of ``level`` to the aDVF value (Fig. 4 stacking)."""
        if self.participations == 0:
            return 0.0
        return self.by_level.get(level, 0.0) / self.participations

    def category_fraction(self, category: MaskingCategory) -> float:
        """Contribution of ``category`` to the aDVF value (Fig. 5 stacking)."""
        if self.participations == 0:
            return 0.0
        return self.by_category.get(category, 0.0) / self.participations

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable form (enum keys become their string values)."""
        return {
            "object_name": self.object_name,
            "value": self.value,
            "participations": self.participations,
            "masked_events": self.masked_events,
            "by_level": {level.value: v for level, v in self.by_level.items()},
            "by_category": {cat.value: v for cat, v in self.by_category.items()},
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "AdvfResult":
        """Inverse of :meth:`to_dict`."""
        return cls(
            object_name=str(payload["object_name"]),
            value=float(payload["value"]),
            participations=int(payload["participations"]),
            masked_events=float(payload["masked_events"]),
            by_level={
                MaskingLevel(k): float(v)
                for k, v in dict(payload.get("by_level", {})).items()
            },
            by_category={
                MaskingCategory(k): float(v)
                for k, v in dict(payload.get("by_category", {})).items()
            },
        )


@dataclass
class ObjectReport:
    """Full analysis record for one data object."""

    result: AdvfResult
    injections: int
    injection_outcomes: Dict[OutcomeClass, int]
    propagation_checks: int
    unresolved: int
    analyses_performed: int
    analyses_reused: int

    @property
    def advf(self) -> float:
        return self.result.value

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable form stored in campaign-store report rows."""
        return {
            "result": self.result.to_dict(),
            "injections": self.injections,
            "injection_outcomes": {
                outcome.value: n for outcome, n in self.injection_outcomes.items()
            },
            "propagation_checks": self.propagation_checks,
            "unresolved": self.unresolved,
            "analyses_performed": self.analyses_performed,
            "analyses_reused": self.analyses_reused,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "ObjectReport":
        """Inverse of :meth:`to_dict`."""
        return cls(
            result=AdvfResult.from_dict(dict(payload["result"])),
            injections=int(payload["injections"]),
            injection_outcomes={
                OutcomeClass(k): int(v)
                for k, v in dict(payload.get("injection_outcomes", {})).items()
            },
            propagation_checks=int(payload["propagation_checks"]),
            unresolved=int(payload["unresolved"]),
            analyses_performed=int(payload["analyses_performed"]),
            analyses_reused=int(payload["analyses_reused"]),
        )


@dataclass
class WorkloadReport:
    """aDVF analysis of (some of) a workload's data objects."""

    workload: str
    objects: Dict[str, ObjectReport]
    trace_events: int
    config: AnalysisConfig

    @property
    def advf(self) -> Dict[str, AdvfResult]:
        return {name: report.result for name, report in self.objects.items()}

    def ranking(self) -> List[str]:
        """Object names from most to least resilient (highest aDVF first)."""
        return sorted(
            self.objects, key=lambda name: self.objects[name].advf, reverse=True
        )


class AdvfEngine:
    """Compute aDVF for the data objects of one workload.

    ``trace`` may inject a pre-built golden trace (e.g. a
    :class:`~repro.tracing.columnar.ColumnarTrace` loaded from the trace
    cache by a campaign worker); otherwise the engine records one itself,
    per :attr:`AnalysisConfig.pipeline`.
    """

    def __init__(
        self,
        workload: Workload,
        config: Optional[AnalysisConfig] = None,
        trace: Optional[TraceLike] = None,
    ) -> None:
        self.workload = workload
        self.config = config or AnalysisConfig()
        if self.config.pipeline not in ("columnar", "legacy"):
            raise ValueError(
                f"unknown analysis pipeline {self.config.pipeline!r}; "
                f"expected 'columnar' or 'legacy'"
            )
        self._trace: Optional[TraceLike] = trace
        self._masking: Optional[OperationMaskingAnalyzer] = None
        self._propagation: Optional[PropagationAnalyzer] = None
        self._injector: Optional[DeterministicFaultInjector] = None
        self._passes: Optional[OperationPasses] = None
        #: Wall-clock seconds per analysis pass (participation discovery,
        #: bulk operation passes, injection resolution), accumulated across
        #: analysed objects.
        self.pass_timings: Dict[str, float] = {}
        #: Injection-batching telemetry (``speculated``: injections
        #: submitted in batches; ``spec_windows``: batches submitted),
        #: accumulated across analysed objects.
        self.speculation_stats: Dict[str, int] = {}

    # ------------------------------------------------------------------ #
    # preparation
    # ------------------------------------------------------------------ #
    @property
    def trace(self) -> TraceLike:
        """The golden traced execution (computed on first use).

        In the columnar pipeline with replay injection enabled, the golden
        trace is recorded *during* the injector's snapshot run, so the
        workload executes once instead of twice.
        """
        if self._trace is None:
            if self.config.pipeline == "columnar":
                if self.config.use_injection and (
                    self.config.injection_mode == "replay"
                ):
                    sink = ColumnarTrace()
                    context = BatchedReplayContext(self.workload, sink=sink)
                    self._injector = DeterministicFaultInjector(
                        self.workload, mode="replay", context=context
                    )
                    self._trace = sink
                else:
                    self._trace = self.workload.traced_run(columnar=True).trace
                self._trace.columns()  # seal the column views eagerly
            else:
                self._trace = self.workload.traced_run().trace
        return self._trace

    def _prepare(self) -> None:
        trace = self.trace
        if self._masking is None:
            self._masking = OperationMaskingAnalyzer(
                trace, overshadow_threshold=self.config.overshadow_threshold
            )
        if (
            self._passes is None
            and self.config.pipeline == "columnar"
            and isinstance(trace, ColumnarTrace)
        ):
            self._passes = OperationPasses(trace, self._masking)
        if self._propagation is None:
            self._propagation = PropagationAnalyzer(
                trace,
                k=self.config.k_propagation,
                output_objects=set(self.workload.output_objects),
            )
        if self._injector is None and self.config.use_injection:
            self._injector = DeterministicFaultInjector(
                self.workload, mode=self.config.injection_mode
            )

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def analyze(self, object_names: Optional[Sequence[str]] = None) -> WorkloadReport:
        """Analyse the given data objects (default: the workload's targets)."""
        names = list(object_names) if object_names else list(self.workload.target_objects)
        reports = {name: self.analyze_object(name) for name in names}
        return WorkloadReport(
            workload=self.workload.name,
            objects=reports,
            trace_events=len(self.trace),
            config=self.config,
        )

    def analyze_object(self, object_name: str) -> ObjectReport:
        """Compute aDVF (and its breakdowns) for one data object.

        Every configuration resolves the object's fault sites through one
        :class:`_Resolver`.  The columnar pipeline adds two accelerations
        that leave every number bit-identical:

        * participation discovery and the cheap operation-level categories
          come from the vectorized passes (:mod:`repro.core.passes`);
        * once every error pattern of an equivalence class has collected
          its full sample budget, the class's per-pattern contributions are
          frozen into a *tail* — subsequent occurrences replay the frozen
          terms (the same floats the cache's ``estimate`` would return, in
          the same accumulation order) without re-deriving keys, patterns
          or cache entries.
        """
        self._prepare()
        start = time.perf_counter()
        participations = find_participations(
            self.trace, object_name, max_participations=self.config.max_participations
        )
        self.pass_timings["participation"] = (
            self.pass_timings.get("participation", 0.0)
            + (time.perf_counter() - start)
        )
        if self._passes is not None:
            self._passes.prepare(participations)
            self.pass_timings["operation_passes"] = self._passes.timings.get(
                "operation_passes", 0.0
            )
        resolver = _Resolver(self)
        for participation in participations:
            resolver.scan(participation)
        return resolver.finish(object_name, len(participations))


def _classify_injection(
    outcome: OutcomeClass, overshadow_candidate: bool
) -> Tuple[float, Optional[MaskingLevel], Optional[MaskingCategory]]:
    """Paper attribution rules for injection-resolved masking (§III-C/E)."""
    if not outcome.is_success:
        return 0.0, None, None
    if overshadow_candidate:
        # Overshadowing initiated the masking; attribute it there even if
        # the outcome only becomes acceptable further downstream.
        return 1.0, MaskingLevel.OPERATION, MaskingCategory.OVERSHADOW
    if outcome is OutcomeClass.IDENTICAL:
        # Numerically identical outcome: error propagation masked it.
        return 1.0, MaskingLevel.PROPAGATION, MaskingCategory.OVERWRITE
    return 1.0, MaskingLevel.ALGORITHM, MaskingCategory.ALGORITHMIC


# Per-pattern plan tags.  A plan of ``None`` is answered by the site cache.
#: ``(_SETTLED, masked, level, category)``: decided by the pure analyses.
_SETTLED = "settled"
#: ``(_INJECT, injection_key, overshadow_candidate)``: consumes the next
#: injection result.
_INJECT = "inject"
#: ``(_REUSE, injection_key)``: answered by the injection cache.
_REUSE = "reuse"

_UNMASKED = (_SETTLED, 0.0, None, None)
_OVERSHADOWED = (
    _SETTLED, 1.0, MaskingLevel.OPERATION, MaskingCategory.OVERSHADOW
)


class _Resolver:
    """Plan → batch → apply resolution of one data object's fault sites.

    The per-site decision procedure (Fig. 3) is an operation-level
    verdict, then bounded propagation, then deterministic injection, with
    error-equivalence budgets capping how many full analyses and
    injections run.  Every budget decision — the site cache's
    ``should_analyze``, the injection cache's quota, ``max_injections``
    and class-tail saturation — depends only on how many samples were
    taken before, never on what they concluded.  So:

    * **scan** walks the participations in order and makes each decision
      exactly, against sample counters.  It runs the pure analyses (the
      masking verdict and :meth:`PropagationAnalyzer.analyze`) on the spot
      and queues every injection it decides on;
    * **batch**: once ``speculation_window`` injections are queued (0
      means batches of one) or :attr:`MAX_OPS` plans are buffered, the
      queue goes through :meth:`DeterministicFaultInjector.inject_many`;
    * **apply** folds the buffered plans into the equivalence caches and
      accumulators in scan order — the float accumulation order of a
      one-site-at-a-time loop, so reports are identical at every window.
    """

    #: Hard bound on buffered participation plans, so a long injection
    #: drought cannot hold an unbounded plan log in memory.
    MAX_OPS = 8192

    def __init__(self, engine: AdvfEngine) -> None:
        config = engine.config
        self.engine = engine
        self.config = config
        self.window = max(1, int(config.speculation_window))
        self.can_inject = config.use_injection and engine._injector is not None
        self.site_cache = EquivalenceCache(samples_per_class=config.equivalence_samples)
        self.injection_cache = EquivalenceCache(
            samples_per_class=config.injection_samples_per_class
        )
        self.tails: Dict[Tuple, _ClassTail] = {}
        # report accumulators
        self.numerator = 0.0
        self.by_level: Dict[MaskingLevel, float] = {}
        self.by_category: Dict[MaskingCategory, float] = {}
        self.injection_outcomes: Dict[OutcomeClass, int] = {}
        self.injections = 0
        self.propagation_checks = 0
        self.unresolved = 0
        # sample counters behind the scan's budget decisions
        self._site_samples: Dict[Tuple, int] = {}
        self._injection_samples: Dict[Tuple, int] = {}
        self._injections_decided = 0
        self._saturated: set = set()
        # buffered plans, queued fault specs, and submitted-but-unapplied
        # injection results (all in scan order)
        self._ops: List[Tuple] = []
        self._queue: List = []
        self._results: deque = deque()
        # telemetry
        self._batched = 0
        self._windows = 0

    # ------------------------------------------------------------------ #
    # scan: exact budget decisions, pure analyses, queued injections
    # ------------------------------------------------------------------ #
    def scan(self, participation: Participation) -> None:
        patterns = self.config.error_model.patterns_for(participation.value_type)
        if not patterns:
            return
        uid = participation.static_uid
        role = participation.role.value
        operand = participation.operand_index
        class_key = None
        if self.engine._passes is not None:
            class_key = (uid, role, operand, participation.value_type.name)
            if class_key in self._saturated:
                self._push((participation, patterns, class_key, None))
                return
        samples = self.site_cache.samples_per_class
        site_samples = self._site_samples
        plans: List[Optional[Tuple]] = []
        fresh = False
        for pattern in patterns:
            key = (uid, role, operand, pattern.primary_bit)
            count = site_samples.get(key, 0)
            if count >= samples:
                plans.append(None)
            else:
                site_samples[key] = count + 1
                plans.append(self._plan(participation, pattern))
                fresh = True
        if not fresh and class_key is not None:
            # every pattern of the class has its full sample budget
            self._saturated.add(class_key)
            plans = None
        self._push((participation, patterns, class_key, plans))

    def _plan(self, participation: Participation, pattern: ErrorPattern) -> Tuple:
        """One full site analysis: the pure levels now, injection queued."""
        engine = self.engine
        if engine._passes is not None:
            verdict = engine._passes.verdict(participation, pattern)
        else:
            verdict = engine._masking.analyze(participation, pattern)
        if verdict.masked is True:
            return (_SETTLED, 1.0, verdict.level, verdict.category)
        if verdict.masked is False and not (
            verdict.needs_propagation or verdict.needs_injection
        ):
            return _UNMASKED
        if verdict.needs_propagation:
            self.propagation_checks += 1
            propagation = engine._propagation.analyze(
                participation, pattern, verdict.corrupted_result
            )
            if propagation.masked is True:
                level = (
                    MaskingLevel.OPERATION
                    if propagation.steps_analyzed == 0
                    else MaskingLevel.PROPAGATION
                )
                category = propagation.category or MaskingCategory.OVERWRITE
                return (_SETTLED, 1.0, level, category)
            # unresolved / survived: fall through to injection
        injection_key = (
            participation.static_uid,
            participation.role.value,
            participation.operand_index,
            classify_bit(pattern.primary_bit, participation.value_type),
        )
        taken = self._injection_samples.get(injection_key, 0)
        if (
            self.can_inject
            and pattern.is_single_bit
            and self._injections_decided < self.config.max_injections
            and taken < self.injection_cache.samples_per_class
        ):
            self._injections_decided += 1
            self._injection_samples[injection_key] = taken + 1
            self._queue.append(FaultSite(participation, pattern.primary_bit).to_spec())
            if len(self._queue) >= self.window:
                self._flush()
            return (_INJECT, injection_key, verdict.overshadow_candidate)
        if taken:
            return (_REUSE, injection_key)
        # Out of budget (or injection disabled): analytic fallback.
        if verdict.overshadow_candidate and self.config.analytic_overshadow_fallback:
            return _OVERSHADOWED
        self.unresolved += 1
        return _UNMASKED

    def _push(self, op: Tuple) -> None:
        self._ops.append(op)
        if not self._queue:
            # every injection the buffered ops need has run: apply them now
            self._apply_ops()
        elif len(self._ops) >= self.MAX_OPS:
            self._flush()

    # ------------------------------------------------------------------ #
    # batch + apply
    # ------------------------------------------------------------------ #
    def _flush(self) -> None:
        """Submit the queued injections as one batch, then apply every
        buffered op whose results are now available."""
        queue, self._queue = self._queue, []
        if queue:
            engine = self.engine
            self._windows += 1
            self._batched += len(queue)
            start = time.perf_counter()
            self._results.extend(engine._injector.inject_many(queue))
            engine.pass_timings["injection"] = (
                engine.pass_timings.get("injection", 0.0)
                + (time.perf_counter() - start)
            )
        self._apply_ops()

    def _apply_ops(self) -> None:
        ops, self._ops = self._ops, []
        for op in ops:
            self._apply(op)

    def _apply(self, op: Tuple) -> None:
        participation, patterns, class_key, plans = op
        by_level = self.by_level
        by_category = self.by_category
        if plans is None:
            tail = self.tails.get(class_key)
            if tail is None:
                tail = self.tails[class_key] = _build_class_tail(
                    self.site_cache, participation, patterns
                )
            # Additions to different dict slots commute, so the per-pattern
            # weights are replayed grouped by level / category (in pattern
            # order within each group) — the running sum of every slot sees
            # the identical addition sequence the per-pattern loop produces.
            for level, weights in tail.level_weights:
                acc = by_level.get(level, 0.0)
                for weight in weights:
                    acc += weight
                by_level[level] = acc
            for category, weights in tail.category_weights:
                acc = by_category.get(category, 0.0)
                for weight in weights:
                    acc += weight
                by_category[category] = acc
            self.numerator += tail.masked_quotient
            tail.uses += 1
            return
        site_cache = self.site_cache
        injection_cache = self.injection_cache
        uid = participation.static_uid
        role = participation.role.value
        operand = participation.operand_index
        n = len(patterns)
        masked_total = 0.0
        for pattern, plan in zip(patterns, plans):
            key = (uid, role, operand, pattern.primary_bit)
            if plan is None:
                masked, level, category = site_cache.estimate(key)
            else:
                tag = plan[0]
                if tag is _SETTLED:
                    _, masked, level, category = plan
                elif tag is _INJECT:
                    _, injection_key, overshadow = plan
                    outcome = self._results.popleft().outcome
                    self.injections += 1
                    self.injection_outcomes[outcome] = (
                        self.injection_outcomes.get(outcome, 0) + 1
                    )
                    masked, level, category = _classify_injection(outcome, overshadow)
                    injection_cache.record(injection_key, masked, level, category)
                else:
                    masked, level, category = injection_cache.estimate(plan[1])
                site_cache.record(key, masked, level, category)
            masked_total += masked
            weight = masked / n
            if weight > 0.0 and level is not None:
                by_level[level] = by_level.get(level, 0.0) + weight
            if weight > 0.0 and category is not None:
                by_category[category] = by_category.get(category, 0.0) + weight
        self.numerator += masked_total / n

    # ------------------------------------------------------------------ #
    # report
    # ------------------------------------------------------------------ #
    def finish(self, object_name: str, participations: int) -> ObjectReport:
        """Flush the last batch, publish telemetry, build the report."""
        self._flush()
        # The tail fast path defers the equivalence cache's reuse
        # accounting; settle it so coverage statistics stay exact.
        for tail in self.tails.values():
            if tail.uses:
                for entry, per_use in tail.entry_counts:
                    entry.reused += per_use * tail.uses
        self._publish_telemetry()
        result = AdvfResult(
            object_name=object_name,
            value=(self.numerator / participations) if participations else 0.0,
            participations=participations,
            masked_events=self.numerator,
            by_level=self.by_level,
            by_category=self.by_category,
        )
        return ObjectReport(
            result=result,
            injections=self.injections,
            injection_outcomes=self.injection_outcomes,
            propagation_checks=self.propagation_checks,
            unresolved=self.unresolved,
            analyses_performed=self.site_cache.analyses_performed,
            analyses_reused=self.site_cache.analyses_reused,
        )

    def _publish_telemetry(self) -> None:
        if not self._batched:
            return
        engine = self.engine
        counts = {"speculated": self._batched, "spec_windows": self._windows}
        for key, value in counts.items():
            engine.speculation_stats[key] = engine.speculation_stats.get(key, 0) + value
        reg = _metrics_registry()
        if reg.enabled:
            workload = engine.workload.name
            reg.inc("advf.speculated", self._batched, workload=workload)
            reg.inc("advf.speculation_windows", self._windows, workload=workload)
        engine._injector.record_speculation(counts)


@dataclass
class _ClassTail:
    """Frozen per-pattern contributions of a saturated equivalence class.

    Once every error pattern of a class has collected its full sample
    budget, no further ``record`` can change the cache entries, so the
    floats ``estimate`` would return are fixed: ``masked_quotient`` is the
    pattern-order fold of the per-pattern masked means divided by the
    pattern count (the exact ``numerator`` increment), and
    ``level_weights`` / ``category_weights`` hold the positive per-pattern
    weights grouped by target slot, in pattern order within each group.
    ``entry_counts`` maps each underlying cache entry to how many of the
    class's patterns it serves, so reuse accounting settles in bulk.
    """

    masked_quotient: float
    level_weights: List[Tuple[MaskingLevel, List[float]]]
    category_weights: List[Tuple[MaskingCategory, List[float]]]
    entry_counts: List[Tuple[object, int]]
    uses: int = 0


def _build_class_tail(
    site_cache: EquivalenceCache,
    participation: Participation,
    patterns: Sequence[ErrorPattern],
) -> Optional["_ClassTail"]:
    """The frozen tail of the participation's class, or ``None`` if any of
    its error patterns still owes full analyses."""
    samples = site_cache.samples_per_class
    entries = site_cache.entries
    n = len(patterns)
    masked_total = 0.0
    level_weights: Dict[MaskingLevel, List[float]] = {}
    category_weights: Dict[MaskingCategory, List[float]] = {}
    counts: Dict[int, List] = {}
    for pattern in patterns:
        key = (
            participation.static_uid,
            participation.role.value,
            participation.operand_index,
            pattern.primary_bit,
        )
        entry = entries.get(key)
        if entry is None or entry.sample_count < samples:
            return None
        masked = entry.masked_mean
        masked_total += masked
        weight = masked / n
        if weight > 0.0:
            if entry.level is not None:
                level_weights.setdefault(entry.level, []).append(weight)
            if entry.category is not None:
                category_weights.setdefault(entry.category, []).append(weight)
        slot = counts.get(id(entry))
        if slot is None:
            counts[id(entry)] = [entry, 1]
        else:
            slot[1] += 1
    return _ClassTail(
        masked_quotient=masked_total / n,
        level_weights=list(level_weights.items()),
        category_weights=list(category_weights.items()),
        entry_counts=[(entry, count) for entry, count in counts.values()],
    )


def analyze_workload(
    workload: Union[str, Workload],
    targets: Optional[Sequence[str]] = None,
    config: Optional[AnalysisConfig] = None,
    **workload_kwargs,
) -> WorkloadReport:
    """Convenience wrapper: aDVF analysis of a workload by name or instance.

    >>> report = analyze_workload("lu", targets=["sum"])      # doctest: +SKIP
    >>> round(report.advf["sum"].value, 2)                     # doctest: +SKIP
    """
    if isinstance(workload, str):
        from repro.workloads.registry import get_workload

        workload = get_workload(workload, **workload_kwargs)
    engine = AdvfEngine(workload, config)
    return engine.analyze(targets)
