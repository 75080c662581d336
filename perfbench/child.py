"""One benchmark child: a fresh process that runs one workload once.

Spawned by ``run.py`` with an isolated environment (see
``common.child_env``).  It imports the product, notes when the imports are
done, optionally installs the per-layer ledger, runs the workload inside
the timed region, then checks every output against the oracle reference
and writes one JSON result file::

    python3 perfbench/child.py --workload advf-all --seed 1 --trace 0 \
        --out result.json --spawned-at <time.monotonic() of the parent>
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402


# --------------------------------------------------------------------- #
# checks against the oracle references (pure functions, unit-tested)
# --------------------------------------------------------------------- #
#: The fields of ``ObjectReport.to_dict()`` that are the analysis's answer.
#: The others (injections, injection outcomes, propagation checks, analyses
#: performed/reused) count the work done, which an optimisation may change;
#: the per-layer metrics report them instead.
ADVF_OUTPUT_FIELDS = ("result", "unresolved")


def _advf_output(report: dict) -> dict:
    return {field: report.get(field) for field in ADVF_OUTPUT_FIELDS}


def check_advf(
    reports: Dict[str, Dict[str, dict]], reference: Dict[str, Dict[str, dict]]
) -> Tuple[int, int, List[str]]:
    """``(attempted, failed, problems)`` over the reference's objects.

    An object fails when its report is missing or its output fields
    (:data:`ADVF_OUTPUT_FIELDS`) differ from the oracle's; floats are
    compared exactly.
    """
    attempted = failed = 0
    problems: List[str] = []
    for workload, objects in sorted(reference.items()):
        produced = reports.get(workload, {})
        for name, expected in sorted(objects.items()):
            attempted += 1
            got = produced.get(name)
            if got is None or _advf_output(got) != _advf_output(expected):
                failed += 1
                problems.append(
                    f"{workload}/{name}: "
                    + ("missing" if got is None else "differs from the oracle")
                )
    for workload, objects in sorted(reports.items()):
        for name in sorted(set(objects) - set(reference.get(workload, {}))):
            attempted += 1
            failed += 1
            problems.append(f"{workload}/{name}: not in the reference")
    return attempted, failed, problems


def check_campaign(
    rows: Dict[str, List[list]], reference: Dict[str, List[list]]
) -> Tuple[int, int, List[str]]:
    """``(attempted, failed, problems)`` over the reference's injections.

    ``rows`` holds, per object and in plan order, ``spec_row + [outcome]``
    as persisted in the store.  An injection fails when its row is
    missing, names another fault, or carries another outcome class.
    """
    attempted = failed = 0
    problems: List[str] = []
    for name in sorted(set(reference) | set(rows)):
        expected = reference.get(name, [])
        got = rows.get(name, [])
        attempted += max(len(expected), len(got))
        bad = sum(1 for a, b in zip(expected, got) if a != b)
        bad += abs(len(expected) - len(got))
        if bad:
            failed += bad
            problems.append(f"{name}: {bad} of {len(expected)} injections differ")
    return attempted, failed, problems


def store_rows(store_path: str) -> Dict[str, List[list]]:
    """Per-object ``spec_row + [outcome]`` rows of the store's campaign."""
    from repro.campaigns.store import CampaignStore

    rows: Dict[str, List[list]] = {}
    with CampaignStore(store_path) as store:
        for record in store.campaigns():
            for stored in store.outcomes(record.campaign_id):
                rows.setdefault(stored.object_name, []).append(
                    common.spec_row(stored.spec) + [stored.outcome.value]
                )
    return rows


# --------------------------------------------------------------------- #
# workloads
# --------------------------------------------------------------------- #
def import_everything() -> None:
    """Import every ``repro`` module and the benchmark's own modules.

    ``run.py`` calls this once per run, in a process that may write
    bytecode, to fill the run's bytecode cache before any child is timed.
    """
    import importlib
    import pkgutil

    import repro

    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        if module.name.rsplit(".", 1)[-1] != "__main__":
            importlib.import_module(module.name)
    importlib.import_module("ledger")


def _import_advf():
    from repro.core.advf import AdvfEngine, AnalysisConfig
    from repro.workloads.registry import get_workload, workload_names

    def run(seed: int):
        reports, errors = {}, []
        for name in workload_names():
            try:
                engine = AdvfEngine(get_workload(name, seed=seed), AnalysisConfig())
                reports[name] = engine.analyze().objects
            except Exception as exc:  # reported as failed objects
                errors.append(f"{name}: {type(exc).__name__}: {exc}")
        return reports, errors

    def check(output, seed: int):
        reports, errors = output
        produced = {
            name: {obj: report.to_dict() for obj, report in objects.items()}
            for name, objects in reports.items()
        }
        reference = json.loads(common.reference_path("advf", seed).read_text())
        attempted, failed, problems = check_advf(produced, reference["workloads"])
        return attempted, failed, errors + problems

    return run, check


def _import_campaign():
    from repro.campaigns.cli import main as cli_main

    def run(seed: int):
        return cli_main(common.campaign_argv(seed))

    def check(status, seed: int):
        reference = json.loads(common.reference_path("campaign", seed).read_text())
        rows = store_rows(os.environ["REPRO_STORE"])
        attempted, failed, problems = check_campaign(rows, reference["objects"])
        if status != 0:
            problems.insert(0, f"campaign CLI exited with {status}")
            failed = max(failed, 1)
        return attempted, failed, problems

    return run, check


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=common.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True,
                        help="input seed (one of common.REF_SEEDS)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() of the parent just before spawning")
    args = parser.parse_args(argv)

    if args.workload == "advf-all":
        run, check = _import_advf()
    else:
        run, check = _import_campaign()
    setup_s = time.monotonic() - args.spawned_at

    ledger = None
    if args.trace:
        import ledger as ledger_mod

        ledger = ledger_mod.Ledger()
        ledger_mod.install(ledger)

    start = time.perf_counter()
    output = run(args.seed)
    wall_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    layers = ledger_mod.summarize(ledger, wall_s) if ledger else None
    calls = dict(ledger.calls) if ledger else None

    attempted, failed, problems = check(output, args.seed)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "traced": bool(args.trace),
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "layers": layers,
        "calls": calls,
    }
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
