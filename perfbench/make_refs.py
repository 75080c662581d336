"""Generate the benchmark's correctness references from the oracles.

The references never come from the fast paths the benchmark times:

* ``advf-<seed>.json``: every target object of the 12 registry workloads,
  analysed with the legacy per-event pipeline, from-scratch re-execution
  for every injection and speculation off
  (``pipeline="legacy", injection_mode="rerun", speculation_window=0``).
* ``campaign-<seed>.json``: the specs of the ``fixed:512@SEED`` plan on
  ``cg``, each classified by ``DeterministicFaultInjector(mode="rerun")``
  (a full interpreter re-execution per fault).

Usage, from the repository root (takes minutes per seed)::

    python3 perfbench/make_refs.py            # every seed in REF_SEEDS
    python3 perfbench/make_refs.py 1 2        # selected seeds
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import common  # noqa: E402


def advf_reference(seed: int) -> dict:
    from repro.core.advf import AdvfEngine, AnalysisConfig
    from repro.workloads.registry import get_workload, workload_names

    config = AnalysisConfig(
        pipeline="legacy", injection_mode="rerun", speculation_window=0
    )
    out = {}
    for name in workload_names():
        report = AdvfEngine(get_workload(name, seed=seed), config).analyze()
        out[name] = {obj: rep.to_dict() for obj, rep in report.objects.items()}
    return {"seed": seed, "workloads": out}


def campaign_reference(seed: int) -> dict:
    from repro.campaigns.plans import parse_plan
    from repro.core.injector import DeterministicFaultInjector
    from repro.workloads.registry import get_workload

    workload = get_workload(common.CAMPAIGN_WORKLOAD, seed=seed)
    trace = workload.traced_run(columnar=True).trace
    plan = parse_plan(common.campaign_plan(seed))
    injector = DeterministicFaultInjector(workload, mode="rerun")
    objects = {}
    for obj in plan.objects_for(workload):
        rows = []
        for spec in plan.specs_for(trace, obj):
            outcome = injector.inject(spec).outcome.value
            rows.append(common.spec_row(spec) + [outcome])
        objects[obj] = rows
    return {"seed": seed, "plan": common.campaign_plan(seed), "objects": objects}


def main(argv) -> int:
    # same isolation as a benchmark child, with the artifact caches off
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.environ.update(REPRO_TRACE_CACHE="off", REPRO_MEMO_CACHE="off")
    sys.path.insert(0, str(HERE.parent / "src"))
    seeds = [int(arg) for arg in argv] or list(common.REF_SEEDS)
    for seed in seeds:
        for kind, build in (("advf", advf_reference), ("campaign", campaign_reference)):
            start = time.perf_counter()
            payload = build(seed)
            path = common.reference_path(kind, seed)
            path.write_text(json.dumps(payload, sort_keys=True) + "\n")
            print(f"{path.name}: {time.perf_counter() - start:.1f}s", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
