"""Durable, resumable campaign orchestration.

The :class:`CampaignOrchestrator` turns a :mod:`~repro.campaigns.plans`
sampling plan into deterministic *shards* of fault specs, executes them
over the existing :class:`~repro.parallel.CampaignRunner` workers (or a
persistent in-process injector when ``workers=1``), and checkpoints every
completed shard into a :class:`~repro.campaigns.store.CampaignStore`.

Because shard contents are a pure function of (workload, plan, shard
size) and shards are persisted atomically, **resume is just run**: a
second invocation of :meth:`CampaignOrchestrator.run` recomputes the same
shard sequence, skips every shard already in the store, and executes only
the remainder — producing results bit-identical to an uninterrupted run.
Adaptive plans replay their stopping decisions from the persisted
outcomes, so even "keep sampling until the CI converges" campaigns resume
exactly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.campaigns.plans import (
    AdaptivePlan,
    ExhaustivePlan,
    SamplingPlan,
    StaticPlan,
)
from repro.campaigns.stats import wilson_interval
from repro.campaigns.store import CampaignStore
from repro.core.advf import AnalysisConfig, ObjectReport
from repro.core.injector import DeterministicFaultInjector, FaultInjectionResult
from repro.obs.log import get_logger
from repro.obs.metrics import registry as _metrics_registry
from repro.obs.spans import (
    disable_recording,
    drain_span_records,
    enable_recording,
    recording_enabled,
    set_span_context,
    span,
)
from repro.parallel.campaign import CampaignRunner, _default_workers
from repro.parallel.partition import chunk_evenly
from repro.tracing.cache import MemoCache, TraceCache, trace_digest
from repro.vm.faults import FaultSpec
from repro.workloads.registry import get_workload, validate_workload

#: Default number of fault specs per persisted shard (checkpoint granularity).
DEFAULT_SHARD_SIZE = 32


@dataclass(frozen=True)
class ShardTask:
    """One unit of durable work: a deterministic slice of the plan."""

    index: int
    object_name: str
    batch: int
    specs: Tuple[FaultSpec, ...]


@dataclass
class CampaignResult:
    """What one orchestrator run did, plus the campaign's cumulative state."""

    campaign_id: str
    run_id: int
    status: str
    executed_shards: int
    skipped_shards: int
    executed_injections: int
    #: Cumulative per-object outcome-class counts, read back from the store.
    histograms: Dict[str, Dict[str, int]] = field(default_factory=dict)
    #: Cumulative per-object ``(successes, trials)``.
    tallies: Dict[str, Tuple[int, int]] = field(default_factory=dict)

    @property
    def complete(self) -> bool:
        return self.status == "complete"

    def interval(self, object_name: str, z: float = 1.96) -> Tuple[float, float]:
        """Wilson CI of the object's masking rate from the stored tallies.

        Raises ``KeyError`` for objects the campaign never injected, so a
        typo surfaces instead of silently yielding the vacuous ``(0, 1)``.
        """
        if object_name not in self.tallies:
            raise KeyError(
                f"no outcomes for object {object_name!r} in campaign "
                f"{self.campaign_id}; objects with data: {sorted(self.tallies)}"
            )
        successes, trials = self.tallies[object_name]
        return wilson_interval(successes, trials, z)


@dataclass
class _RunCounters:
    """Mutable per-run accounting, updated as shards finish (not after)."""

    executed: int = 0
    skipped: int = 0
    injected: int = 0


class CampaignOrchestrator:
    """Shard a sampling plan, execute it durably, resume it for free.

    Parameters
    ----------
    store:
        The persistent result store.  The campaign's content-addressed id
        is computed (and its row created) on construction.
    workload_name / workload_kwargs:
        Registry name and constructor overrides of the workload; the name
        is validated eagerly so typos fail before any work is done.
    plan:
        A :class:`~repro.campaigns.plans.SamplingPlan`
        (default: :class:`~repro.campaigns.plans.ExhaustivePlan`).
    workers:
        Worker processes per shard; ``1`` (the default via
        ``REPRO_WORKERS`` unset on small machines) keeps one in-process
        injector alive across shards, which amortises the golden run.
    shard_size:
        Specs per shard for static plans — the checkpoint granularity.
        Adaptive plans shard per batch (``plan.batch_size``).
    progress:
        Optional callable receiving human-readable progress lines.
    """

    def __init__(
        self,
        store: CampaignStore,
        workload_name: str,
        workload_kwargs: Optional[Dict[str, object]] = None,
        plan: Optional[SamplingPlan] = None,
        workers: Optional[int] = None,
        shard_size: int = DEFAULT_SHARD_SIZE,
        progress: Optional[Callable[[str], None]] = None,
    ) -> None:
        if shard_size < 1:
            raise ValueError(f"shard_size must be >= 1, got {shard_size}")
        self.store = store
        self.workload_name = validate_workload(workload_name)
        self.workload_kwargs = dict(workload_kwargs or {})
        self.plan = plan if plan is not None else ExhaustivePlan()
        self.workers = workers if workers is not None else _default_workers()
        self.shard_size = shard_size
        self.progress = progress
        self.campaign_id = store.ensure_campaign(
            self.workload_name,
            self.workload_kwargs,
            self.plan.to_dict(),
            self.shard_size,
        )
        #: Content address of the golden-trace artifact (trace cache key).
        self.trace_digest = trace_digest(self.workload_name, self.workload_kwargs)
        self._injector: Optional[DeterministicFaultInjector] = None
        self._runner: Optional[CampaignRunner] = None
        #: Seconds spent enumerating fault sites, per data object (the
        #: analysis-pass timing stamped onto the object's shards).
        self._pass_seconds: Dict[str, float] = {}
        self._log = get_logger("campaign")
        #: Registry cursor scoping each run's metrics delta for the store.
        self._run_cursor = f"campaign-run:{self.campaign_id}"

    # ------------------------------------------------------------------ #
    # construction from persisted state
    # ------------------------------------------------------------------ #
    @classmethod
    def from_store(
        cls,
        store: CampaignStore,
        campaign_id: str,
        workers: Optional[int] = None,
        progress: Optional[Callable[[str], None]] = None,
    ) -> "CampaignOrchestrator":
        """Rebuild the orchestrator of a persisted campaign (for resume)."""
        from repro.campaigns.plans import plan_from_dict

        record = store.campaign(campaign_id)
        orchestrator = cls(
            store,
            record.workload,
            record.workload_kwargs,
            plan_from_dict(record.plan),
            workers=workers,
            shard_size=record.shard_size,
            progress=progress,
        )
        if orchestrator.campaign_id != campaign_id:  # pragma: no cover - paranoia
            raise RuntimeError(
                f"campaign id drifted on rebuild: {orchestrator.campaign_id} "
                f"!= {campaign_id}"
            )
        return orchestrator

    # ------------------------------------------------------------------ #
    # shard planning
    # ------------------------------------------------------------------ #
    def static_shards(self, trace) -> List[ShardTask]:
        """The full deterministic shard list of a static plan."""
        assert isinstance(self.plan, StaticPlan)
        workload = self._workload()
        tasks: List[ShardTask] = []
        index = 0
        for object_name in self.plan.objects_for(workload):
            pass_start = time.perf_counter()
            with span("campaign.analysis", object=object_name):
                specs = self.plan.specs_for(trace, object_name)
            self._pass_seconds[object_name] = time.perf_counter() - pass_start
            pieces = max(1, -(-len(specs) // self.shard_size))
            for batch, chunk in enumerate(chunk_evenly(specs, pieces)):
                if not chunk:
                    continue
                tasks.append(
                    ShardTask(
                        index=index,
                        object_name=object_name,
                        batch=batch,
                        specs=tuple(chunk),
                    )
                )
                index += 1
        return tasks

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def run(self, max_shards: Optional[int] = None) -> CampaignResult:
        """Execute (or resume) the campaign.

        ``max_shards`` bounds the number of shards *executed* by this run
        — the standard way to interrupt a campaign deterministically in
        tests and smoke runs.  Completed shards found in the store are
        skipped, never re-executed.
        """
        run_id = self.store.begin_run(self.campaign_id)
        self.store.set_status(self.campaign_id, "running")
        self.store.set_trace_digest(self.campaign_id, self.trace_digest)
        reg = _metrics_registry()
        if reg.enabled:
            # reset the run cursor so the persisted delta covers exactly
            # this run's activity (worker-process deltas fold in as the
            # runner merges them)
            reg.snapshot_delta(self._run_cursor)
        # Flight recorder: buffer finished spans for the store; discard any
        # records predating this run, and stamp the correlation ids that
        # fork-started worker processes inherit.
        was_recording = recording_enabled()
        enable_recording()
        drain_span_records()
        set_span_context(campaign=self.campaign_id, run=run_id)

        counters = _RunCounters()
        status = "failed"
        try:
            with span("campaign.run", campaign=self.campaign_id, run=run_id):
                workload = self._workload()
                trace = self._acquire_trace(workload)
                if isinstance(self.plan, AdaptivePlan):
                    finished = self._run_adaptive(
                        trace, workload, run_id, max_shards, counters
                    )
                else:
                    tasks = self.static_shards(trace)
                    done = self.store.completed_shards(self.campaign_id)
                    finished = True
                    for task in tasks:
                        if task.index in done:
                            counters.skipped += 1
                            continue
                        if max_shards is not None and counters.executed >= max_shards:
                            finished = False
                            break
                        self._execute_shard(task, run_id)
                        counters.executed += 1
                        counters.injected += len(task.specs)
            status = "complete" if finished else "interrupted"
        finally:
            # A worker crash mid-campaign must not leave the row claiming
            # "running" forever, and whatever was persisted before the
            # failure still counts toward the run's accounting.
            self.store.set_status(self.campaign_id, status)
            self.store.finish_run(
                self.campaign_id, run_id, counters.executed, counters.skipped
            )
            # the campaign.run span (and any other run-scoped spans) closed
            # above, so this final flush captures them as orphan rows
            self._persist_spans(run_id)
            self._close_runner()
            set_span_context(campaign=None, run=None)
            if not was_recording:
                disable_recording()
            if reg.enabled:
                self.store.save_run_metrics(
                    self.campaign_id, run_id, reg.snapshot_delta(self._run_cursor)
                )
        return CampaignResult(
            campaign_id=self.campaign_id,
            run_id=run_id,
            status=status,
            executed_shards=counters.executed,
            skipped_shards=counters.skipped,
            executed_injections=counters.injected,
            histograms=self.store.outcome_histograms(self.campaign_id),
            tallies=self.store.object_tallies(self.campaign_id),
        )

    def resume(self, max_shards: Optional[int] = None) -> CampaignResult:
        """Alias of :meth:`run` — resuming *is* running (shards dedupe)."""
        return self.run(max_shards=max_shards)

    # ------------------------------------------------------------------ #
    # adaptive execution
    # ------------------------------------------------------------------ #
    def _run_adaptive(
        self,
        trace,
        workload,
        run_id: int,
        max_shards: Optional[int],
        counters: "_RunCounters",
    ) -> bool:
        """Adaptive loop: per object, draw batches until the CI converges.

        Shard index ``object_index * max_batches + batch`` is globally
        unique and deterministic; persisted batches are folded into the
        cumulative tally without re-execution, so the stop decision replays
        identically on resume.  ``counters`` is updated incrementally (so
        accounting survives a mid-loop exception); returns whether the
        plan ran to completion.
        """
        plan = self.plan
        assert isinstance(plan, AdaptivePlan)
        done = self.store.completed_shards(self.campaign_id)
        objects = plan.objects_for(workload)
        for object_index, object_name in enumerate(objects):
            pass_start = time.perf_counter()
            with span("campaign.analysis", object=object_name):
                sites = plan.site_pool(trace, object_name)
            self._pass_seconds[object_name] = time.perf_counter() - pass_start
            successes = trials = 0
            for batch in range(plan.max_batches):
                if trials > 0 and plan.satisfied(successes, trials):
                    break
                shard_index = object_index * plan.max_batches + batch
                if shard_index in done:
                    counters.skipped += 1
                    for outcome in self.store.outcomes(
                        self.campaign_id, shard_index=shard_index
                    ):
                        trials += 1
                        successes += int(outcome.outcome.is_success)
                    continue
                if max_shards is not None and counters.executed >= max_shards:
                    return False
                specs = plan.batch_specs(sites, object_name, batch)
                task = ShardTask(
                    index=shard_index,
                    object_name=object_name,
                    batch=batch,
                    specs=tuple(specs),
                )
                results = self._execute_shard(task, run_id)
                counters.executed += 1
                counters.injected += len(specs)
                for result in results:
                    trials += 1
                    successes += int(result.outcome.is_success)
            low, high = wilson_interval(successes, trials, plan.z)
            self._say(
                f"[{self.campaign_id}] {object_name}: {successes}/{trials} masked, "
                f"CI [{low:.3f}, {high:.3f}]",
                event="object.converged",
                object=object_name,
                successes=successes,
                trials=trials,
                ci_low=low,
                ci_high=high,
            )
        return True

    # ------------------------------------------------------------------ #
    # aDVF reports
    # ------------------------------------------------------------------ #
    def compute_reports(
        self,
        config: Optional[AnalysisConfig] = None,
        object_names: Optional[Sequence[str]] = None,
        refresh: bool = False,
    ) -> Dict[str, ObjectReport]:
        """aDVF reports for the campaign's objects, persisted in the store.

        Reports already in the store are returned as-is unless ``refresh``
        is set; missing ones are computed with the parallel runner and
        saved, so ``campaign report`` renders from durable rows only.
        """
        workload = self._workload()
        names = list(object_names or self.plan.objects_for(workload))
        stored = {} if refresh else self.store.reports(self.campaign_id)
        missing = [name for name in names if name not in stored]
        if missing:
            runner = CampaignRunner(
                self.workload_name, self.workload_kwargs, workers=self.workers
            )
            fresh = runner.analyze_objects(missing, config)
            for name, report in fresh.items():
                self.store.save_report(self.campaign_id, name, report)
            stored.update(fresh)
        return {name: stored[name] for name in names if name in stored}

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _workload(self):
        return get_workload(self.workload_name, **self.workload_kwargs)

    def _acquire_trace(self, workload):
        """The golden columnar trace: cache artifact when enabled, else fresh.

        Resumed campaigns land on the same digest, so the artifact built by
        the first run is reused instead of re-tracing the workload.
        """
        start = time.perf_counter()
        with span("campaign.trace", campaign=self.campaign_id):
            cache = TraceCache.from_env()
            if cache is not None:
                trace, hit = cache.get_or_build(
                    self.trace_digest,
                    lambda: workload.traced_run(columnar=True).trace,
                )
                source = "cache hit" if hit else "cache miss, built"
            else:
                trace = workload.traced_run(columnar=True).trace
                source = "cache disabled, built"
        self._say(
            f"[{self.campaign_id}] golden trace {self.trace_digest}: {source} "
            f"({len(trace)} events, {time.perf_counter() - start:.2f}s)",
            event="trace.acquired",
            trace_digest=self.trace_digest,
            source=source,
            events=len(trace),
        )
        return trace

    def _say(self, message: str, event: str = "progress", **fields) -> None:
        """One progress line: stderr via the structured logger (gated by
        ``REPRO_LOG_LEVEL``), JSONL via ``REPRO_LOG``, plus any explicitly
        supplied ``progress`` callback."""
        self._log.info(event, message, campaign_id=self.campaign_id, **fields)
        if self.progress is not None:
            self.progress(message)

    def _execute_shard(
        self, task: ShardTask, run_id: int
    ) -> List[FaultInjectionResult]:
        start = time.perf_counter()
        with span(
            "campaign.shard", shard=task.index, object=task.object_name
        ):
            results, batch_stats, memo_delta = self._execute_specs(
                list(task.specs)
            )
        duration = time.perf_counter() - start
        if memo_delta:
            with span(
                "campaign.memo_merge", shard=task.index, object=task.object_name
            ):
                self._persist_memo(memo_delta)
        self.store.record_shard(
            self.campaign_id,
            task.index,
            task.object_name,
            task.batch,
            run_id,
            duration,
            results,
            analysis_s=self._pass_seconds.get(task.object_name, 0.0),
            batch_stats=batch_stats,
        )
        rate = len(results) / duration if duration > 0 else float("inf")
        self._say(
            f"[{self.campaign_id}] shard {task.index} ({task.object_name}, "
            f"batch {task.batch}): {len(results)} injections in {duration:.2f}s "
            f"({rate:.0f}/s, {batch_stats.get('batches', 0)} replay batches, "
            f"{batch_stats.get('memo_hits', 0)} memo hits)",
            event="shard.done",
            shard=task.index,
            object=task.object_name,
            batch=task.batch,
            injections=len(results),
            duration_s=duration,
        )
        self._persist_spans(run_id, shard_index=task.index)
        return results

    def _persist_spans(
        self, run_id: int, shard_index: Optional[int] = None
    ) -> None:
        """Flush buffered flight-recorder spans to the store.

        Worker-shipped records (which cannot know their shard) are stamped
        with ``shard_index`` before persisting; records from this process
        either carry their own ``shard`` label (``campaign.shard``,
        ``campaign.memo_merge``) or are run-scoped phases — trace
        acquisition, analysis passes — that persist as orphan rows
        (``shard_index = -1``)."""
        records: List[Dict[str, object]] = []
        if self._runner is not None and self._runner.last_span_records:
            for record in self._runner.last_span_records:
                if shard_index is not None:
                    labels = record.setdefault("labels", {})
                    labels.setdefault("shard", str(shard_index))
                records.append(record)
            self._runner.last_span_records = []
        records.extend(drain_span_records())
        if records:
            self.store.save_run_spans(self.campaign_id, run_id, records)

    def _execute_specs(
        self, specs: List[FaultSpec]
    ) -> Tuple[
        List[FaultInjectionResult], Dict[str, int], Optional[Dict[str, object]]
    ]:
        """Run one shard's specs; returns results + replay-batch counters +
        the shard's convergence-memo delta (``None`` when nothing new)."""
        if self.workers <= 1:
            if self._injector is None:
                self._injector = DeterministicFaultInjector(
                    self._workload(), memo_key=self.trace_digest
                )
            results = self._injector.inject_many(specs)
            return (
                results,
                self._injector.consume_batch_stats(),
                self._injector.consume_memo_delta(),
            )
        if self._runner is None:
            # One persistent pool for the whole run: worker processes (and
            # their per-workload injectors) are reused across shards instead
            # of being respawned per ~shard_size specs.
            self._runner = CampaignRunner(
                self.workload_name,
                self.workload_kwargs,
                workers=self.workers,
                keep_pool=True,
            )
        results = self._runner.run_injections(specs)
        return (
            results,
            dict(self._runner.last_batch_stats),
            self._runner.last_memo_delta,
        )

    def _persist_memo(self, delta: Optional[Dict[str, object]]) -> None:
        """Fold one shard's learned memo entries into the shared artifact.

        Persisted after every shard (not at campaign end) so an interrupted
        campaign's resume — and any concurrently-starting worker — already
        warm-starts from the entries completed shards learned.
        """
        if not delta:
            return
        cache = MemoCache.from_env()
        if cache is None:
            return
        cache.merge_store(self.trace_digest, delta)

    def _close_runner(self) -> None:
        if self._runner is not None:
            self._runner.close()
            self._runner = None
