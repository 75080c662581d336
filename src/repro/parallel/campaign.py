"""Multiprocessing campaign runner for fault injections and aDVF analyses.

Each worker process rebuilds the workload from its registry name and
constructor arguments (workload objects themselves are not pickled — the
kernels hold compiled IR with unpicklable back-references), runs its share
of the work, and sends back plain result objects.  Work is split
deterministically so parallel results equal sequential ones.

For aDVF analyses the golden trace is built (or fetched from the trace
cache) **once per campaign** and shipped to workers as a file-backed
columnar artifact: each worker process loads the ``.npz`` instead of
re-tracing the workload per chunk, and keeps it cached for later chunks of
the same campaign.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.acceptance import OutcomeClass
from repro.core.advf import AnalysisConfig, ObjectReport
from repro.core.injector import DeterministicFaultInjector, FaultInjectionResult
from repro.obs.metrics import metrics_enabled, registry as _metrics_registry
from repro.obs.spans import drain_span_records, enable_recording, span
from repro.parallel.partition import chunk_evenly
from repro.tracing.cache import TraceCache, trace_digest
from repro.tracing.columnar import ColumnarTrace
from repro.vm.faults import FaultSpec

#: Called after each worker chunk completes with ``(chunks_done, chunks_total)``.
ProgressCallback = Callable[[int, int], None]


def _default_workers() -> int:
    """Worker-count default: ``REPRO_WORKERS`` env var, else cores - 1.

    The environment variable wins wherever no explicit ``workers=`` override
    is passed, so batch jobs can size campaigns without touching call sites;
    without it the pool leaves one core free for the coordinating process
    (capped at 8 — injection chunks saturate memory bandwidth well before
    that on typical laptops).
    """
    env = os.environ.get("REPRO_WORKERS")
    if env is not None:
        try:
            workers = int(env)
        except ValueError:
            raise ValueError(
                f"REPRO_WORKERS must be an integer, got {env!r}"
            ) from None
        if workers < 1:
            raise ValueError(f"REPRO_WORKERS must be >= 1, got {workers}")
        return workers
    return max(1, min(8, (os.cpu_count() or 2) - 1))


class CampaignChunkError(RuntimeError):
    """A worker chunk failed, with enough context to reproduce it.

    Wraps the worker's original exception (available as ``__cause__``)
    instead of letting a bare ``future.result()`` traceback escape with no
    hint of which workload/chunk/specs were being processed.
    """

    def __init__(
        self,
        workload_name: str,
        chunk_index: int,
        items: Sequence[object],
        cause: BaseException,
    ) -> None:
        self.workload_name = workload_name
        self.chunk_index = chunk_index
        self.items = list(items)
        first = self.items[0] if self.items else None
        last = self.items[-1] if self.items else None
        super().__init__(
            f"campaign chunk {chunk_index} of workload {workload_name!r} failed "
            f"({len(self.items)} items, first={first!r}, last={last!r}): "
            f"{type(cause).__name__}: {cause}"
        )


# --------------------------------------------------------------------- #
# worker entry points (module-level so they are picklable)
# --------------------------------------------------------------------- #
#: Per-worker-process injector cache, keyed by (workload name, kwargs JSON).
#: A persistent pool (``keep_pool=True``) submits many chunks of the same
#: workload to the same processes; caching keeps the golden run and the
#: checkpoint schedule alive across chunks instead of rebuilding them per
#: submission.
_WORKER_INJECTORS: Dict[Tuple[str, str], DeterministicFaultInjector] = {}


def _worker_injector(
    workload_name: str, workload_kwargs: Dict[str, object]
) -> DeterministicFaultInjector:
    import json

    key = (workload_name, json.dumps(workload_kwargs, sort_keys=True, default=repr))
    injector = _WORKER_INJECTORS.get(key)
    if injector is None:
        from repro.workloads.registry import get_workload

        workload = get_workload(workload_name, **workload_kwargs)
        # the trace digest keys the persisted convergence-memo artifact, so
        # every worker of a campaign (and every resumed campaign) warm-starts
        # from the entries earlier replays already learned
        injector = DeterministicFaultInjector(
            workload, memo_key=trace_digest(workload_name, workload_kwargs)
        )
        _WORKER_INJECTORS[key] = injector
    return injector


#: True only in pool worker processes (set by the initializer).  The chunk
#: functions also run in-process for small jobs; there they must *not*
#: drain the span-record buffer — the parent owns it.
_IS_WORKER = False


def _worker_metrics_baseline() -> None:
    """Pool initializer: discard registry state inherited across ``fork``.

    On fork-start platforms a fresh worker process carries a copy of the
    parent's registry (golden-trace build, analysis passes, …).  Setting
    the chunk cursor here makes the first chunk's delta cover only work
    the worker itself performed, so the parent's pre-fork activity is
    never shipped back and double-counted.  Span recording follows the
    same pattern: enabled, then drained once to discard records inherited
    across fork (the parent persists its own).
    """
    global _IS_WORKER
    _IS_WORKER = True
    if metrics_enabled():
        _metrics_registry().snapshot_delta("worker-chunk")
    enable_recording()
    drain_span_records()


def _chunk_span_records() -> Optional[List[Dict[str, object]]]:
    """This worker's finished spans since the previous chunk (None when
    running in the parent process, whose buffer the orchestrator drains)."""
    if not _IS_WORKER:
        return None
    return drain_span_records()


def _chunk_metrics_delta() -> Optional[Dict[str, object]]:
    """This process's registry activity since the previous chunk.

    Worker processes ship the delta back with each chunk result; the
    parent folds the deltas with ``registry().merge`` — associative, so
    the fold is independent of chunk completion order.  (When the chunk
    runs in the parent process the caller discards the delta: the
    activity is already in the parent registry.)
    """
    if not metrics_enabled():
        return None
    return _metrics_registry().snapshot_delta("worker-chunk")


def _inject_chunk(
    workload_name: str,
    workload_kwargs: Dict[str, object],
    specs: List[FaultSpec],
) -> Tuple[
    List[Tuple[FaultSpec, str, str]],
    Dict[str, int],
    Optional[Dict[str, object]],
    Optional[Dict[str, object]],
    Optional[List[Dict[str, object]]],
]:
    # One injector per (worker process, workload): the golden run and the
    # checkpoint schedule are computed once, and the whole chunk is
    # submitted to the batched replay scheduler in one go (grouped by
    # snapshot interval, shared suffix walk, convergence memo).  The second
    # element is the scheduler's counter delta for this chunk, the third
    # the worker's metrics-registry delta, the fourth the delta of
    # convergence-memo entries this chunk learned (merged + persisted by
    # the parent so later workers and resumed campaigns warm-start), the
    # fifth the worker's finished-span records for the flight recorder.
    injector = _worker_injector(workload_name, workload_kwargs)
    with span("worker.inject", workload=workload_name, specs=len(specs)):
        results = [
            (result.spec, result.outcome.value, result.detail)
            for result in injector.inject_many(specs)
        ]
    return (
        results,
        injector.consume_batch_stats(),
        _chunk_metrics_delta(),
        injector.consume_memo_delta(),
        _chunk_span_records(),
    )


#: Per-worker-process columnar-trace cache, keyed by artifact path.  A
#: persistent pool analyses many chunks of the same campaign; the golden
#: trace is deserialised once per process, not once per chunk.
_WORKER_TRACES: Dict[str, ColumnarTrace] = {}


def _worker_trace(trace_path: str) -> ColumnarTrace:
    trace = _WORKER_TRACES.get(trace_path)
    if trace is None:
        trace = _WORKER_TRACES[trace_path] = ColumnarTrace.load(trace_path)
    return trace


def _analyze_objects_chunk(
    workload_name: str,
    workload_kwargs: Dict[str, object],
    object_names: List[str],
    config: AnalysisConfig,
    trace_path: Optional[str] = None,
) -> Tuple[
    List[Tuple[str, ObjectReport]],
    Optional[Dict[str, object]],
    Optional[List[Dict[str, object]]],
]:
    from repro.core.advf import AdvfEngine
    from repro.workloads.registry import get_workload

    # One workload + one AdvfEngine per worker chunk: the compiled module,
    # the golden trace, the propagation indices and the injector's replay
    # context are built once and reused for every object in the chunk
    # (the seed rebuilt all of them per object).  When the parent shipped a
    # file-backed golden trace, the worker loads that artifact instead of
    # re-tracing the workload.
    workload = get_workload(workload_name, **workload_kwargs)
    trace = _worker_trace(trace_path) if trace_path is not None else None
    engine = AdvfEngine(workload, config, trace=trace)
    with span("worker.analyze", workload=workload_name,
              objects=len(object_names)):
        pairs = [(name, engine.analyze_object(name)) for name in object_names]
    return pairs, _chunk_metrics_delta(), _chunk_span_records()


# --------------------------------------------------------------------- #
# public API
# --------------------------------------------------------------------- #
@dataclass
class CampaignRunner:
    """Fan out fault injections / aDVF analyses over local processes.

    ``workload_name`` must be a key of :data:`repro.workloads.registry.WORKLOADS`
    so worker processes can rebuild the workload; ``workload_kwargs`` are the
    constructor overrides (sizes, seed, ABFT flag, …).
    """

    workload_name: str
    workload_kwargs: Dict[str, object] = field(default_factory=dict)
    workers: int = field(default_factory=_default_workers)
    #: Keep one ProcessPoolExecutor alive across calls (close() releases it).
    #: Long campaigns — e.g. orchestrated shards — reuse worker processes
    #: and their cached injectors instead of respawning a pool per call.
    keep_pool: bool = False
    _pool: Optional[ProcessPoolExecutor] = field(
        default=None, init=False, repr=False, compare=False
    )
    _trace_path: Optional[str] = field(
        default=None, init=False, repr=False, compare=False
    )
    _trace_tmpdir: Optional[str] = field(
        default=None, init=False, repr=False, compare=False
    )
    #: Batch-scheduler counters aggregated over the chunks of the most
    #: recent :meth:`run_injections` call (batches, memo hits/misses, …).
    last_batch_stats: Dict[str, int] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    #: Convergence-memo entries the most recent :meth:`run_injections`
    #: call learned (worker chunk deltas merged; ``None`` when nothing
    #: new).  Callers persist it via
    #: :meth:`repro.tracing.cache.MemoCache.merge_store`.
    last_memo_delta: Optional[Dict[str, object]] = field(
        default=None, init=False, repr=False, compare=False
    )
    #: Finished-span records shipped back by worker processes during the
    #: most recent :meth:`run_injections` / :meth:`analyze_objects` call
    #: (flight recorder; empty when chunks ran in this process — those
    #: spans sit in this process's own buffer).
    last_span_records: List[Dict[str, object]] = field(
        default_factory=list, init=False, repr=False, compare=False
    )

    # ------------------------------------------------------------------ #
    # golden-trace artifact
    # ------------------------------------------------------------------ #
    def trace_artifact(self) -> str:
        """Path of the campaign's file-backed columnar golden trace.

        Built (or fetched from the :class:`~repro.tracing.cache.TraceCache`)
        once per runner; all analysis chunks — in-process or in worker
        processes — load this artifact instead of re-tracing the workload.
        With the cache disabled (``REPRO_TRACE_CACHE=off``) the artifact
        lives in a temporary directory released by :meth:`close`.
        """
        if self._trace_path is not None:
            return self._trace_path
        digest = trace_digest(self.workload_name, self.workload_kwargs)
        cache = TraceCache.from_env()
        if cache is not None:
            cache.get_or_build(digest, self._build_golden_trace)
            self._trace_path = str(cache.find(digest))
        else:
            self._trace_tmpdir = tempfile.mkdtemp(prefix="repro-trace-")
            path = Path(self._trace_tmpdir) / f"{digest}.npz"
            self._build_golden_trace().save(path)
            self._trace_path = str(path)
        return self._trace_path

    def _build_golden_trace(self) -> ColumnarTrace:
        from repro.workloads.registry import get_workload

        workload = get_workload(self.workload_name, **self.workload_kwargs)
        return workload.traced_run(columnar=True).trace

    def run_injections(
        self,
        specs: Sequence[FaultSpec],
        on_progress: Optional[ProgressCallback] = None,
    ) -> List[FaultInjectionResult]:
        """Inject every spec, preserving input order in the result list.

        ``on_progress`` (if given) is called with ``(chunks_done,
        chunks_total)`` as worker chunks complete, so long campaigns —
        e.g. orchestrated shards — can surface progress.  Worker failures
        raise :class:`CampaignChunkError` naming the failing chunk and its
        spec range, with the original exception chained as ``__cause__``.
        """
        specs = list(specs)
        self.last_batch_stats = {}
        self.last_memo_delta = None
        self.last_span_records = []
        if not specs:
            return []
        if self.workers <= 1 or len(specs) < 4:
            try:
                # in-process: the metrics delta is already in this
                # process's registry (discarded, not merged), and the span
                # records sit in this process's own buffer
                raw, stats, _, memo_delta, _ = _inject_chunk(
                    self.workload_name, self.workload_kwargs, specs
                )
            except Exception as exc:
                raise CampaignChunkError(self.workload_name, 0, specs, exc) from exc
            if on_progress is not None:
                on_progress(1, 1)
            self._merge_stats(stats)
            self._merge_memo(memo_delta)
            return _wrap(raw)
        chunks = [c for c in chunk_evenly(specs, self.workers) if c]
        per_chunk = self._collect(
            _inject_chunk,
            [(self.workload_name, self.workload_kwargs, chunk) for chunk in chunks],
            chunks,
            on_progress,
        )
        results: List[FaultInjectionResult] = []
        for raw, stats, delta, memo_delta, span_records in per_chunk:
            results.extend(_wrap(raw))
            self._merge_stats(stats)
            self._fold_metrics(delta)
            self._merge_memo(memo_delta)
            if span_records:
                self.last_span_records.extend(span_records)
        return results

    def _merge_stats(self, stats: Dict[str, int]) -> None:
        for key, value in stats.items():
            self.last_batch_stats[key] = self.last_batch_stats.get(key, 0) + value

    def _merge_memo(self, delta: Optional[Dict[str, object]]) -> None:
        from repro.core.replay import ReplayMemo

        if delta:
            self.last_memo_delta = ReplayMemo.merge_payloads(
                self.last_memo_delta, delta
            )

    @staticmethod
    def _fold_metrics(delta: Optional[Dict[str, object]]) -> None:
        """Fold one worker chunk's registry delta into this process."""
        if delta:
            _metrics_registry().merge(delta)

    def _collect(
        self,
        fn: Callable,
        argument_tuples: Sequence[Tuple],
        chunk_items: Sequence[Sequence[object]],
        on_progress: Optional[ProgressCallback],
    ) -> List[object]:
        """Fan ``fn(*args)`` out over the pool; return results in chunk order.

        Completion is observed as it happens (for progress callbacks) while
        results are reassembled by chunk index so parallel output stays
        deterministic.
        """
        total = len(argument_tuples)
        slots: List[object] = [None] * total
        pool = self._acquire_pool()
        try:
            future_index = {
                pool.submit(fn, *args): index
                for index, args in enumerate(argument_tuples)
            }
            done = 0
            pending = set(future_index)
            while pending:
                finished, pending = wait(pending, return_when=FIRST_COMPLETED)
                for future in finished:
                    index = future_index[future]
                    try:
                        slots[index] = future.result()
                    except Exception as exc:
                        raise CampaignChunkError(
                            self.workload_name, index, chunk_items[index], exc
                        ) from exc
                    done += 1
                    if on_progress is not None:
                        on_progress(done, total)
        finally:
            if not self.keep_pool:
                pool.shutdown()
        return slots

    def _acquire_pool(self) -> ProcessPoolExecutor:
        if not self.keep_pool:
            return ProcessPoolExecutor(
                max_workers=self.workers, initializer=_worker_metrics_baseline
            )
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers, initializer=_worker_metrics_baseline
            )
        return self._pool

    def close(self) -> None:
        """Release the persistent pool and any temporary trace artifact."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None
        if self._trace_tmpdir is not None:
            shutil.rmtree(self._trace_tmpdir, ignore_errors=True)
            self._trace_tmpdir = None
            self._trace_path = None

    def __enter__(self) -> "CampaignRunner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def analyze_objects(
        self,
        object_names: Sequence[str],
        config: Optional[AnalysisConfig] = None,
        on_progress: Optional[ProgressCallback] = None,
    ) -> Dict[str, ObjectReport]:
        """aDVF analyses fanned out as one object *chunk* per worker.

        Objects of the same workload share everything that is per-workload:
        the golden trace is built once in the parent (or served by the
        trace cache) and shipped as a columnar artifact that each worker
        process loads once; workers build the workload and the injector's
        checkpoint schedule once per chunk instead of once per object.
        """
        config = config or AnalysisConfig()
        names = list(object_names)
        self.last_span_records = []
        if not names:
            return {}
        try:
            trace_path = self.trace_artifact()
        except Exception as exc:
            raise CampaignChunkError(self.workload_name, 0, names, exc) from exc
        if self.workers <= 1 or len(names) == 1:
            try:
                # in-process: the metrics delta is already in this
                # process's registry (discarded, not merged), and the span
                # records sit in this process's own buffer
                pairs, _, _ = _analyze_objects_chunk(
                    self.workload_name, self.workload_kwargs, names, config,
                    trace_path,
                )
            except Exception as exc:
                raise CampaignChunkError(self.workload_name, 0, names, exc) from exc
            if on_progress is not None:
                on_progress(1, 1)
            return dict(pairs)
        chunks = [
            c for c in chunk_evenly(names, min(self.workers, len(names))) if c
        ]
        per_chunk = self._collect(
            _analyze_objects_chunk,
            [
                (self.workload_name, self.workload_kwargs, chunk, config, trace_path)
                for chunk in chunks
            ],
            chunks,
            on_progress,
        )
        out: Dict[str, ObjectReport] = {}
        for pairs, delta, span_records in per_chunk:
            self._fold_metrics(delta)
            if span_records:
                self.last_span_records.extend(span_records)
            for name, report in pairs:
                out[name] = report
        return out


def _wrap(raw: List[Tuple[FaultSpec, str, str]]) -> List[FaultInjectionResult]:
    return [
        FaultInjectionResult(spec=spec, outcome=OutcomeClass(outcome), detail=detail)
        for spec, outcome, detail in raw
    ]


def run_injections_parallel(
    workload_name: str,
    specs: Sequence[FaultSpec],
    workers: Optional[int] = None,
    **workload_kwargs,
) -> List[FaultInjectionResult]:
    """Convenience wrapper around :class:`CampaignRunner.run_injections`."""
    runner = CampaignRunner(
        workload_name, workload_kwargs, workers or _default_workers()
    )
    return runner.run_injections(specs)


def analyze_objects_parallel(
    workload_name: str,
    object_names: Sequence[str],
    config: Optional[AnalysisConfig] = None,
    workers: Optional[int] = None,
    **workload_kwargs,
) -> Dict[str, ObjectReport]:
    """Convenience wrapper around :class:`CampaignRunner.analyze_objects`."""
    runner = CampaignRunner(
        workload_name, workload_kwargs, workers or _default_workers()
    )
    return runner.analyze_objects(object_names, config)
