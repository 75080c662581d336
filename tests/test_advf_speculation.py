"""Batched injection resolution: window invariance + telemetry.

The aDVF resolver plans every site in scan order, batches the injections
it decides on, and applies the results in scan order.  Its acceptance bar
is *bit identity* across batch sizes: an analysis at any
``speculation_window`` (0 means batches of one) must produce exactly the
same report — aDVF value, masking breakdowns, injection counts and outcome
histograms, cache statistics.  ``tests/test_advf_oracle.py`` pins the
answers themselves to the committed legacy/rerun oracle.
"""

from __future__ import annotations

import pytest

from repro.core.advf import AdvfEngine, AnalysisConfig
from repro.core.injector import DeterministicFaultInjector
from repro.core.replay import ReplayContext
from repro.core.sites import enumerate_fault_sites
from repro.obs.metrics import configure, registry
from repro.workloads.registry import get_workload


@pytest.fixture(autouse=True)
def _fresh_registry():
    """Every test starts with an enabled, empty process registry."""
    configure(True)
    yield
    configure(None)


#: Reduced problem sizes so analyses with injection stay fast.
SMALL_KWARGS = {
    "matmul": {"n": 5},
    "cg": {"n": 10, "cgitmax": 2},
    "lu": {"n": 6, "niter": 1},
}


def _analyze(name, window, **config_kwargs):
    """One full aDVF analysis at the given batch window."""
    workload = get_workload(name, **SMALL_KWARGS.get(name, {}))
    engine = AdvfEngine(
        workload,
        AnalysisConfig(
            use_injection=True, speculation_window=window, **config_kwargs
        ),
    )
    return engine, engine.analyze()


def _assert_identical(expected, actual):
    assert expected.objects.keys() == actual.objects.keys()
    for name, report in expected.objects.items():
        assert report.to_dict() == actual.objects[name].to_dict(), (
            f"reports diverged on {name}"
        )


def _counter_total(name):
    return sum(
        entry["value"]
        for entry in registry().to_dict()["counters"]
        if entry["name"] == name
    )


class TestBitIdentity:
    @pytest.mark.parametrize("name", ["matmul", "cg", "lu"])
    def test_reports_identical_to_sequential(self, name):
        """Window 0 (batches of one: the sequential schedule) vs 7 and 32."""
        _, sequential = _analyze(name, window=0)
        for window in (7, 32):
            _, other = _analyze(name, window=window)
            _assert_identical(sequential, other)

    def test_window_zero_submits_batches_of_one(self):
        engine, report = _analyze("cg", window=0)
        stats = engine.speculation_stats
        injections = sum(r.injections for r in report.objects.values())
        assert injections > 0
        assert stats["speculated"] == stats["spec_windows"] == injections

    def test_window_size_does_not_change_reports(self):
        _, base = _analyze("matmul", window=1)
        for window in (3, 17, 10_000):
            _, other = _analyze("matmul", window=window)
            _assert_identical(base, other)

    def test_rerun_mode_matches_replay_mode(self):
        _, replay = _analyze("matmul", window=8)
        _, rerun = _analyze("matmul", window=8, injection_mode="rerun")
        _assert_identical(replay, rerun)


class TestTelemetry:
    def test_registry_counters_match_engine_stats(self):
        engine, _ = _analyze("cg", window=8)
        stats = engine.speculation_stats
        assert stats["speculated"] > 0
        assert _counter_total("advf.speculated") == stats["speculated"]
        assert _counter_total("advf.speculation_windows") == stats["spec_windows"]

    def test_injector_folds_speculation_into_batch_stats(self):
        engine, _ = _analyze("cg", window=8)
        delta = engine._injector.consume_batch_stats()
        assert delta["speculated"] == engine.speculation_stats["speculated"]
        assert delta["spec_windows"] == engine.speculation_stats["spec_windows"]
        # consumed: the next delta starts from zero again
        follow_up = engine._injector.consume_batch_stats()
        assert follow_up.get("speculated", 0) == 0


class TestSequentialFallbackMetrics:
    def test_plain_context_batches_counter_increments(self):
        """A caller-supplied plain ReplayContext keeps the sequential
        inject loop, but its per-replay counters are batched through
        ``deferred_metrics`` — totals match one inc per replay."""
        workload = get_workload("matmul", n=5)
        context = ReplayContext(workload)
        injector = DeterministicFaultInjector(workload, context=context)
        trace = workload.traced_run().trace
        specs = [
            site.to_spec()
            for site in enumerate_fault_sites(trace, "C", bit_stride=16)
        ][:6]
        results = injector.inject_many(specs)
        assert len(results) == len(specs)
        assert _counter_total("replay.sequential") == len(specs)
