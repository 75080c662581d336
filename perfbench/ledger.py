"""Outside-in per-layer time ledger.

The traced benchmark run replaces the public entry points of each layer
(listed in :data:`LAYERS`) with timing wrappers.  Every wrapper measures
its call's duration and subtracts the time of wrapped calls nested inside
it, so each layer is charged its *self* time and the self times of all
layers add up to the time spent inside any wrapped call.  Nothing in
``src/`` is edited: the wrappers are installed from here, after import.

Counts come from the public state of the objects the wrapped calls pass
through (``BatchedReplayContext.stats``, ``DeterministicFaultInjector.runs``,
``AdvfEngine.speculation_stats``, ``ObjectReport`` fields) and from call
counts of the wrappers themselves.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple


class Ledger:
    """Self time, calls and counts per layer, for one process.

    ``clock`` is injectable so the self-time arithmetic can be tested on a
    synthetic clock.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.self_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.counts: Dict[str, float] = {}
        #: Objects seen by hooks, by kind, in first-seen order.
        self.seen: Dict[str, Dict[int, object]] = {}
        # Nested-time accumulators of the open wrapped calls; the bottom
        # entry collects the time of outermost wrapped calls.
        self._stack: List[float] = [0.0]

    def count(self, name: str, value: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def see(self, kind: str, obj: object) -> None:
        self.seen.setdefault(kind, {}).setdefault(id(obj), obj)

    def objects(self, kind: str) -> List[object]:
        return list(self.seen.get(kind, {}).values())

    @property
    def wrapped_s(self) -> float:
        """Total time inside outermost wrapped calls (= sum of self times)."""
        return self._stack[0]

    def wrap(self, fn: Callable, layer: str, hook: Optional[Callable] = None) -> Callable:
        """``fn`` charged to ``layer``; ``hook(ledger, args, result)`` runs
        after each successful call, outside the timed interval."""
        clock = self.clock
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        self_s.setdefault(layer, 0.0)
        calls.setdefault(layer, 0)

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                nested = stack.pop()
                stack[-1] += elapsed
                self_s[layer] += elapsed - nested
                calls[layer] += 1
            if hook is not None:
                hook(self, args, result)
            return result

        timed.ledger_layer = layer
        return timed


# --------------------------------------------------------------------- #
# hooks: counts gathered where the work happens
# --------------------------------------------------------------------- #
def _see_self(kind: str) -> Callable:
    def hook(ledger: Ledger, args, result) -> None:
        ledger.see(kind, args[0])
    return hook


def _golden_context(ledger: Ledger, args, result) -> None:
    ledger.count("vm.golden_steps", args[0].golden_steps)


def _golden_run(ledger: Ledger, args, result) -> None:
    ledger.count("vm.golden_steps", result.steps)


def _counter(name: str) -> Callable:
    def hook(ledger: Ledger, args, result) -> None:
        ledger.count(name)
    return hook


def _sealed(ledger: Ledger, args, result) -> None:
    ledger.see("trace", args[0])


def _propagation(ledger: Ledger, args, result) -> None:
    ledger.count("propagation.masked", int(result.masked is True))


def _advf(ledger: Ledger, args, result) -> None:
    ledger.see("advf_engine", args[0])
    for report in result.objects.values():
        ledger.count("advf.analyses_performed", report.analyses_performed)
        ledger.count("advf.analyses_reused", report.analyses_reused)


_WRITES = (
    "ensure_campaign", "set_status", "set_trace_digest", "begin_run",
    "finish_run", "save_run_metrics", "save_run_spans", "record_shard",
    "save_report",
)
_READS = (
    "campaign", "has_campaign", "campaigns", "completed_shards", "outcomes",
    "outcome_histograms", "object_tallies", "reports", "run_metrics",
)

#: (module, attribute path, layer, hook) of every wrapped entry point.
LAYERS: List[Tuple[str, str, str, Optional[Callable]]] = [
    ("repro.frontend.compiler", "compile_kernels", "frontend.compile", None),
    ("repro.vm.engine", "DecodedProgram.__init__", "vm.decode", None),
    ("repro.workloads.base", "Workload.golden_run", "vm.golden_run", _golden_run),
    ("repro.core.replay", "ReplayContext.__init__", "vm.golden_run", _golden_context),
    ("repro.mir.cache", "mir_program_for", "mir.lower", None),
    ("repro.mir.fuse", "compile_segment", "mir.codegen",
     _counter("mir.segments_compiled")),
    ("repro.mir.fuse", "build_block_static", "mir.codegen", None),
    ("repro.tracing.columnar", "ColumnarTrace.columns", "tracing.seal", _sealed),
    ("repro.core.participation", "find_participations", "participation.find", None),
    ("repro.core.passes", "OperationPasses.__init__", "passes.prepare", None),
    ("repro.core.passes", "OperationPasses.prepare", "passes.prepare", None),
    ("repro.core.passes", "OperationPasses.verdict", "passes.verdict", None),
    ("repro.core.propagation", "PropagationAnalyzer.__init__", "propagation.index", None),
    ("repro.core.propagation", "PropagationAnalyzer.analyze", "propagation.analyze",
     _propagation),
    ("repro.vm.engine", "Engine.resume_many", "replay.resume_many", None),
    ("repro.core.replay", "BatchedReplayContext.replay_many", "replay.batch",
     _see_self("replay_context")),
    ("repro.core.replay", "ReplayContext.replay", "replay.sequential", None),
    ("repro.core.injector", "DeterministicFaultInjector.inject", "injector.self",
     _see_self("injector")),
    ("repro.core.injector", "DeterministicFaultInjector.inject_many", "injector.self",
     _see_self("injector")),
    ("repro.core.advf", "AdvfEngine.__init__", "advf.self", None),
    ("repro.core.advf", "AdvfEngine.analyze", "advf.self", _advf),
    ("repro.tracing.cache", "TraceCache.load", "tracing.cache_read", None),
    ("repro.tracing.cache", "TraceCache.store", "tracing.cache_write", None),
    ("repro.tracing.cache", "MemoCache.load", "tracing.memo_read", None),
    ("repro.tracing.cache", "MemoCache.store", "tracing.memo_write", None),
    ("repro.tracing.cache", "MemoCache.merge_store", "tracing.memo_write", None),
    ("repro.campaigns.orchestrator", "CampaignOrchestrator.__init__", "campaigns.self",
     None),
    ("repro.campaigns.orchestrator", "CampaignOrchestrator.run", "campaigns.self", None),
    ("repro.campaigns.orchestrator", "CampaignOrchestrator.static_shards",
     "campaigns.plan", None),
    ("repro.campaigns.store", "CampaignStore.__init__", "store.open", None),
    *[("repro.campaigns.store", f"CampaignStore.{name}", "store.write",
       _counter("store.shards_written") if name == "record_shard" else None)
      for name in _WRITES],
    *[("repro.campaigns.store", f"CampaignStore.{name}", "store.read", None)
      for name in _READS],
]

#: Layers the ledger leaves unmeasured, with the reason (printed with it).
UNMEASURED = {
    "parallel": "CampaignRunner and multi-worker runs: deferred by the "
                "ROADMAP; every child runs with REPRO_WORKERS=1",
}


def install(ledger: Ledger, layers=LAYERS) -> List[Tuple[object, str, object]]:
    """Wrap every entry point of ``layers``.

    A module-level function is also rebound in every loaded ``repro``
    module that imported it by name, so callers holding the old reference
    reach the wrapper too.  Returns the replaced ``(owner, name, original)``
    bindings, which :func:`uninstall` puts back.
    """
    patches: List[Tuple[object, str, object]] = []
    for module_name, path, layer, hook in layers:
        module = importlib.import_module(module_name)
        owner = module
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        original = inspect.getattr_static(owner, attr)
        if not inspect.isfunction(original):
            raise TypeError(f"{module_name}.{path} is not a plain function")
        replacement = ledger.wrap(original, layer, hook)
        owners = [owner]
        if owner is module:
            owners += [
                other for name, other in list(sys.modules.items())
                if name.split(".")[0] == "repro" and other is not module
                and getattr(other, attr, None) is original
            ]
        for target in owners:
            patches.append((target, attr, original))
            setattr(target, attr, replacement)
    return patches


def uninstall(patches: List[Tuple[object, str, object]]) -> None:
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)


def _frac(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def summarize(ledger: Ledger, wall_s: float) -> Dict[str, float]:
    """Per-layer metrics of one traced child: every per-layer metric of
    BENCHMARK.json except ``ledger.trace_overhead_frac``, which is left to
    run.py, since it needs the untraced children too."""
    out: Dict[str, float] = {f"{layer}_s": 0.0 for _, _, layer, _ in LAYERS}
    for layer, seconds in ledger.self_s.items():
        out[f"{layer}_s"] = seconds
    counts = ledger.counts
    calls = ledger.calls
    out["vm.golden_steps"] = counts.get("vm.golden_steps", 0)
    out["mir.segments_compiled"] = counts.get("mir.segments_compiled", 0)
    out["passes.verdicts"] = calls.get("passes.verdict", 0)
    out["propagation.checks"] = calls.get("propagation.analyze", 0)
    out["propagation.masked_frac"] = _frac(
        counts.get("propagation.masked", 0), calls.get("propagation.analyze", 0)
    )
    performed = counts.get("advf.analyses_performed", 0)
    reused = counts.get("advf.analyses_reused", 0)
    out["advf.reuse_frac"] = _frac(reused, performed + reused)
    speculated = discards = 0
    for engine in ledger.objects("advf_engine"):
        speculated += engine.speculation_stats.get("speculated", 0)
        discards += engine.speculation_stats.get("spec_discards", 0)
    out["advf.spec_hit_frac"] = _frac(speculated - discards, speculated)
    stats: Dict[str, int] = {}
    for context in ledger.objects("replay_context"):
        for key, value in context.stats.to_dict().items():
            stats[key] = stats.get(key, 0) + value
    for key in ("faults", "groups", "evicted", "converged", "memo_persist_hits"):
        out[f"replay.{key}"] = stats.get(key, 0)
    out["replay.faults_per_restore"] = _frac(stats.get("faults", 0), stats.get("batches", 0))
    hits = stats.get("memo_hits", 0)
    out["replay.memo_hit_frac"] = _frac(hits, hits + stats.get("memo_misses", 0))
    out["injector.injections"] = sum(inj.runs for inj in ledger.objects("injector"))
    out["tracing.trace_events"] = sum(len(trace) for trace in ledger.objects("trace"))
    out["store.shards_written"] = counts.get("store.shards_written", 0)
    out["ledger.coverage_frac"] = _frac(ledger.wrapped_s, wall_s)
    return out
