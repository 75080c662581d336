"""aDVF answers pinned to the committed oracle.

``perfbench/refs/advf-1.json`` holds every target object's report as
computed by the oracle configuration — the legacy per-event pipeline,
from-scratch re-execution for every injection, batches of one (see
``perfbench/make_refs.py``).  The default configuration (columnar passes,
checkpointed replay, batched injection) must reproduce its aDVF results
and unresolved counts exactly.  The file is read, never written.

Every default-budget reference resolves all sites (``unresolved`` is 0),
so the out-of-budget fallback is pinned separately: with injection off,
the engine must match a plain one-site-at-a-time loop written out here.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.advf import AdvfEngine, AnalysisConfig
from repro.workloads.registry import get_workload

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "refs" / "advf-1.json"


@pytest.fixture(scope="module")
def reference():
    payload = json.loads(REFERENCE.read_text())
    assert payload["seed"] == 1
    return payload["workloads"]


@pytest.mark.parametrize("name", ["lu", "lulesh", "sp", "cg", "matmul_abft"])
def test_advf_matches_oracle(reference, name):
    report = AdvfEngine(get_workload(name, seed=1), AnalysisConfig()).analyze()
    expected = reference[name]
    assert sorted(report.objects) == sorted(expected)
    for obj, object_report in report.objects.items():
        got = json.loads(json.dumps(object_report.to_dict()))
        assert got["result"] == expected[obj]["result"], (name, obj)
        assert got["unresolved"] == expected[obj]["unresolved"], (name, obj)


def _reference_without_injection(workload, config):
    """A plain one-site-at-a-time loop over the decision procedure with
    injection off: the analyses, error-equivalence sampling and analytic
    fallback, written out independently of the engine's resolver."""
    from repro.core.equivalence import EquivalenceCache
    from repro.core.masking import OperationMaskingAnalyzer
    from repro.core.participation import find_participations
    from repro.core.propagation import PropagationAnalyzer

    trace = workload.traced_run().trace
    masking = OperationMaskingAnalyzer(
        trace, overshadow_threshold=config.overshadow_threshold
    )
    propagation = PropagationAnalyzer(
        trace, k=config.k_propagation, output_objects=set(workload.output_objects)
    )
    out = {}
    for obj in workload.target_objects:
        cache = EquivalenceCache(samples_per_class=config.equivalence_samples)
        numerator, unresolved = 0.0, 0
        participations = find_participations(trace, obj)
        for p in participations:
            patterns = config.error_model.patterns_for(p.value_type)
            total = 0.0
            for pattern in patterns:
                key = (p.static_uid, p.role.value, p.operand_index, pattern.primary_bit)
                if not cache.should_analyze(key):
                    total += cache.estimate(key)[0]
                    continue
                verdict = masking.analyze(p, pattern)
                masked = 1.0 if verdict.masked is True else 0.0
                if verdict.masked is not True and (
                    verdict.masked is None
                    or verdict.needs_propagation
                    or verdict.needs_injection
                ):
                    if verdict.needs_propagation and propagation.analyze(
                        p, pattern, verdict.corrupted_result
                    ).masked is True:
                        masked = 1.0
                    elif verdict.overshadow_candidate and config.analytic_overshadow_fallback:
                        masked = 1.0
                    else:
                        unresolved += 1
                cache.record(key, masked, None, None)
                total += masked
            numerator += total / len(patterns)
        out[obj] = (numerator, unresolved, cache.analyses_performed, len(participations))
    return out


@pytest.mark.parametrize("fallback", [True, False])
def test_injection_off_matches_plain_loop(fallback):
    config = AnalysisConfig(use_injection=False, analytic_overshadow_fallback=fallback)
    workload = get_workload("cg", n=10, cgitmax=2)
    report = AdvfEngine(workload, config).analyze()
    expected = _reference_without_injection(workload, config)
    assert any(unresolved for _, unresolved, _, _ in expected.values())
    for obj, object_report in report.objects.items():
        assert (
            object_report.result.masked_events,
            object_report.unresolved,
            object_report.analyses_performed,
            object_report.result.participations,
        ) == expected[obj], obj
