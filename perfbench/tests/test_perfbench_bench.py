"""Tests of the end-to-end benchmark itself (not of the product).

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import child  # noqa: E402
import common  # noqa: E402
import ledger as ledger_mod  # noqa: E402
import run  # noqa: E402


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# --------------------------------------------------------------------- #
# self-time arithmetic
# --------------------------------------------------------------------- #
def test_self_time_subtracts_nested_wrapped_calls():
    clock = FakeClock()
    ledger = ledger_mod.Ledger(clock)

    def leaf():
        clock.advance(1.0)

    def inner():
        clock.advance(2.0)
        leaf_w()
        clock.advance(3.0)

    def outer():
        clock.advance(4.0)
        inner_w()
        leaf_w()  # a sibling call nested directly in outer
        clock.advance(5.0)

    leaf_w = ledger.wrap(leaf, "leaf")
    inner_w = ledger.wrap(inner, "inner")
    outer_w = ledger.wrap(outer, "outer")
    outer_w()
    clock.advance(7.0)  # outside any wrapped call: unattributed
    outer_w()

    assert ledger.self_s == {"leaf": 4.0, "inner": 10.0, "outer": 18.0}
    assert ledger.calls == {"leaf": 4, "inner": 2, "outer": 2}
    assert ledger.wrapped_s == sum(ledger.self_s.values()) == 32.0
    summary = ledger_mod.summarize(ledger, wall_s=clock.now)
    assert summary["ledger.coverage_frac"] == pytest.approx(32.0 / 39.0)


def test_self_time_with_recursion_and_exceptions():
    clock = FakeClock()
    ledger = ledger_mod.Ledger(clock)

    def recurse(depth):
        clock.advance(1.0)
        if depth:
            recurse_w(depth - 1)

    def failing():
        clock.advance(2.0)
        recurse_w(1)
        raise ValueError("boom")

    recurse_w = ledger.wrap(recurse, "same")
    failing_w = ledger.wrap(failing, "fails")
    recurse_w(2)
    with pytest.raises(ValueError):
        failing_w()
    # a raising call is still charged, and the stack is left balanced
    assert ledger.self_s == {"same": 5.0, "fails": 2.0}
    assert ledger.calls == {"same": 5, "fails": 1}
    assert ledger.wrapped_s == 7.0


def test_hook_sees_arguments_and_result():
    ledger = ledger_mod.Ledger(FakeClock())
    seen = []
    double = ledger.wrap(lambda x: 2 * x, "math", lambda led, args, res: seen.append((args, res)))
    assert double(21) == 42
    assert seen == [((21,), 42)]


def test_install_covers_a_real_analysis_and_uninstalls():
    from repro.core import advf
    from repro.core.participation import find_participations
    from repro.workloads.registry import get_workload

    ledger = ledger_mod.Ledger()
    patches = ledger_mod.install(ledger)
    try:
        # the by-name import in repro.core.advf is rebound too
        assert advf.find_participations is not find_participations
        start = ledger.clock()
        report = advf.AdvfEngine(get_workload("matmul", seed=1)).analyze()
        wall = ledger.clock() - start
    finally:
        ledger_mod.uninstall(patches)
    assert advf.find_participations is find_participations
    summary = ledger_mod.summarize(ledger, wall)
    assert summary["ledger.coverage_frac"] > 0.95
    injections = sum(obj.injections for obj in report.objects.values())
    assert summary["injector.injections"] == injections
    assert summary["replay.faults"] == injections
    assert summary["tracing.trace_events"] == report.trace_events
    assert summary["participation.find_s"] > 0
    # the ledger computes every per-layer metric of BENCHMARK.json; run.py
    # adds the tracing overhead, which needs the untraced children
    assert set(summary) | {run.OVERHEAD} == {name for name, _ in common.PER_LAYER}


# --------------------------------------------------------------------- #
# output checks
# --------------------------------------------------------------------- #
def _advf_reference():
    return json.loads(common.reference_path("advf", common.REF_SEEDS[0]).read_text())[
        "workloads"
    ]


def test_reference_matches_itself():
    reference = _advf_reference()
    attempted, failed, problems = child.check_advf(copy.deepcopy(reference), reference)
    assert attempted == sum(len(objects) for objects in reference.values()) == 20
    assert (failed, problems) == (0, [])


def test_perturbed_report_shows_in_failed_frac():
    reference = _advf_reference()
    reports = copy.deepcopy(reference)
    reports["cg"]["r"]["result"]["value"] += 1e-12
    del reports["lu"][sorted(reports["lu"])[0]]
    attempted, failed, problems = child.check_advf(reports, reference)
    assert (attempted, failed) == (20, 2)
    assert "cg/r: differs from the oracle" in problems

    record = {
        "workload": "advf-all", "seed": 1, "traced": False, "setup_s": 0.5,
        "wall_s": 9.0, "peak_rss_mb": 60.0, "attempted": attempted,
        "failed": failed, "problems": problems,
    }
    args = type("Args", (), {"trace": 0})()
    result = run.report(args, [record])
    assert result["correct"] is False
    assert (result["attempted"], result["failed"]) == (20, 2)


def test_advf_check_ignores_work_counters():
    reference = _advf_reference()
    reports = copy.deepcopy(reference)
    report = reports["cg"]["r"]
    report["injections"] -= 1
    report["injection_outcomes"] = {}
    report["propagation_checks"] += 5
    report["analyses_reused"] += 3
    report["analyses_performed"] -= 3
    assert child.check_advf(reports, reference) == (20, 0, [])
    report["unresolved"] += 1
    assert child.check_advf(reports, reference)[:2] == (20, 1)


def test_campaign_check_counts_each_injection():
    reference = json.loads(
        common.reference_path("campaign", common.REF_SEEDS[0]).read_text()
    )["objects"]
    assert sum(len(rows) for rows in reference.values()) == 2 * common.CAMPAIGN_TESTS
    rows = copy.deepcopy(reference)
    assert child.check_campaign(rows, reference)[:2] == (1024, 0)
    rows["r"][3][-1] = "crash" if rows["r"][3][-1] != "crash" else "identical"
    rows["colidx"].pop()
    attempted, failed, _ = child.check_campaign(rows, reference)
    assert (attempted, failed) == (1024, 2)


# --------------------------------------------------------------------- #
# environment isolation
# --------------------------------------------------------------------- #
def test_child_env_drops_inherited_repro_settings(tmp_path):
    base = {
        "PATH": "/bin",
        "REPRO_TRACE_CACHE": "~/elsewhere",
        "REPRO_ADVF_SPECULATION": "0",
        "REPRO_ENGINE_BACKEND": "op",
        "REPRO_WORKERS": "8",
    }
    env = common.child_env(base, tmp_path / "src", tmp_path, tmp_path / "pyc")
    assert env["PATH"] == "/bin"
    assert env["PYTHONPATH"] == str(tmp_path / "src")
    assert env["PYTHONPYCACHEPREFIX"] == str(tmp_path / "pyc")
    assert env["PYTHONDONTWRITEBYTECODE"] == "1"
    assert {k: v for k, v in env.items() if k.startswith("REPRO_")} == {
        "REPRO_WORKERS": "1",
        "REPRO_STORE": str(tmp_path / "campaigns.sqlite"),
        "REPRO_TRACE_CACHE": str(tmp_path / "artifacts"),
        "REPRO_MEMO_CACHE": str(tmp_path / "artifacts"),
    }


def test_children_read_only_the_runs_bytecode_cache(tmp_path):
    assert run.prime_bytecode(ROOT, tmp_path) is None
    cache = tmp_path / "pycache"
    compiled = {path.name.split(".")[0] for path in cache.rglob("*.pyc")}
    assert {"advf", "cli", "store", "ledger", "common", "child"} <= compiled
    # every source under src/ has its bytecode in the run's cache, where
    # children look for it instead of in __pycache__
    src = ROOT / "src" / "repro" / "core" / "advf.py"
    assert list((cache / src.parent.relative_to("/")).glob("advf.*.pyc"))


def test_campaign_child_never_writes_the_default_cache(tmp_path, monkeypatch):
    home = tmp_path / "home"
    home.mkdir()
    monkeypatch.setenv("HOME", str(home))
    monkeypatch.delenv("REPRO_TRACE_CACHE", raising=False)
    monkeypatch.setenv("REPRO_MEMO_CACHE", str(home / "memo"))
    workdir = tmp_path / "work"
    workdir.mkdir()
    result = run.spawn_child(
        ROOT, workdir, "campaign-cold", common.REF_SEEDS[0], traced=False
    )
    assert "error" not in result, result.get("error")
    assert (result["attempted"], result["failed"]) == (1024, 0)
    assert {name for name, _ in common.END_TO_END} <= set(result)
    assert list(home.iterdir()) == []
    artifacts = sorted(p.suffix for p in result["cache"].iterdir())
    assert artifacts == [".json", ".npz"]  # memo + golden trace, in the run dir


def test_run_refuses_a_tree_without_sources(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "advf-all",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
